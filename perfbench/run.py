"""KG benchmark: cold-build and rematerialize workloads, and a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one operation in
flight.  It starts one pinned Ray session, generates its corpora from
``--seed`` with ``sources.pages``, builds the workload state and runs one
untimed warm-up operation while DuckDB prepares the oracle beside them,
then runs operations until ``--seconds`` have passed.  Before each
operation, outside its timing, this process collects garbage and flushes
dirty file pages (``settle``).  Every operation's output is checked
hash-exact against its oracle; a mismatch or an exception counts as failed
and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
program in ``perfbench/traced.py`` over the same workload's state instead
and prints the per-layer metrics.
The last stdout line is the result object; the line before it is the
session and host stamp.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# Fixed store size: choose_shards sizes the materialize pass count from it,
# so the pass count per workload is the same on every host.  At this size
# one pass holds up to ~3k pages (~6.7 KB of pages parquet each), which keeps
# the set-up of each run short enough for the driver's time budget.  A
# window merge stalls in Ray Data's idle detector (one task per 10-20 s)
# once its base is large for the store: here an 800-page base took 54 s
# where a 600-page base took 3-4 s, so the traced merge uses 400 pages.
OBJECT_STORE_BYTES = 192 << 20
# The longest AF_UNIX path Ray accepts is 107 bytes, and the deepest socket
# path adds 64 below the temp dir: /session_<date>_<time>_<us>_<pid>/sockets/
# plasma_store.
MAX_RAY_TEMP_DIR = 43


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes in pages.  ``build`` feeds kg_build and must stay
    within one materialize pass (2.5k pages are ~84% of the one-pass
    limit); ``remat`` feeds kg_rematerialize and must need at least two
    (3.5k pages are ~117% of it).  The traced window merge folds ``window``
    pages, with ids after the base, into a ``merge_base``-page graph;
    ``sample`` pages feed the traced serial hot-path loop."""

    build: int
    remat: int
    merge_base: int
    window: int
    sample: int


FULL = Sizes(build=2500, remat=3500, merge_base=400, window=40, sample=200)
TINY = Sizes(build=120, remat=120, merge_base=60, window=12, sample=20)


class Bench:
    """Working directory, Ray session and DuckDB oracle connection of one
    benchmark process."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.work = ROOT / ".pbw" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.setup: dict[str, float] = {}
        self.con = None
        self.own_ray_tmp = None

    # -- session ---------------------------------------------------------
    def start(self) -> None:
        t0 = time.perf_counter()
        os.environ["TMPDIR"] = str(self.work / "tmp")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        os.environ.setdefault("RAY_DISABLE_IMPORT_WARNING", "1")
        import ray

        ray_tmp = str(self.work / "r")
        if len(ray_tmp.encode()) > MAX_RAY_TEMP_DIR:
            # checkout path too long for Ray's socket paths
            self.own_ray_tmp = tempfile.mkdtemp(prefix="pb", dir="/tmp")
            ray_tmp = self.own_ray_tmp
        self.ray_tmp = ray_tmp
        ray.init(
            address="local",
            num_cpus=num_cpus(),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=ray_tmp,
        )
        import logging

        import ray.data as rd

        rd.DataContext.get_current().enable_progress_bars = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)
        import duckdb

        self.con = duckdb.connect()
        self.con.execute(f"SET threads={num_cpus()}")
        self.con.execute(f"SET temp_directory='{self.work / 'tmp'}'")
        self.setup["ray_init_s"] = time.perf_counter() - t0

    def close(self) -> None:
        import ray

        if self.con is not None:
            self.con.close()
        ray.shutdown()
        wait_children_gone()
        shutil.rmtree(self.work, ignore_errors=True)
        if self.own_ray_tmp:
            shutil.rmtree(self.own_ray_tmp, ignore_errors=True)
        try:
            (ROOT / ".pbw").rmdir()
        except OSError:
            pass

    def timed_setup(self, key: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.setup[key] = self.setup.get(key, 0.0) + time.perf_counter() - t0
        return out

    def query_in_background(self, key: str, query, *args) -> Future:
        """Run ``query(con, *args)`` on its own DuckDB cursor in a thread,
        beside the set-up steps that follow; its own duration goes to
        ``setup[key]``."""

        def run():
            cur = self.con.cursor()
            try:
                return self.timed_setup(key, query, cur, *args)
            finally:
                cur.close()

        pool = ThreadPoolExecutor(1)
        future = pool.submit(run)
        pool.shutdown(wait=False)
        return future

    # -- corpora ---------------------------------------------------------
    def corpus(self, name: str, n: int, start: int = 0) -> str:
        """Write pages ``start .. start+n-1`` of this seed's corpus as
        parquet with the default compression, as ``write_pages_dataset``
        writes it, under ``corpus/<name>``; returns the dir."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from marc2rdf_ray.sources.pages import gen_pages_batch

        seed = self.seed
        out = str(self.work / "corpus" / name)

        def gen(b: pa.Table) -> pa.Table:
            return gen_pages_batch({"id": pc.add(b["id"], start)}, seed)

        rd.range(n, override_num_blocks=2 * num_cpus()).map_batches(
            gen, batch_format="pyarrow"
        ).write_parquet(out)
        return out

    def path(self, *parts: str) -> str:
        return str(self.work.joinpath(*parts))


# -- oracles -------------------------------------------------------------

def hash_sql(cols: list[str], source: str) -> str:
    """Order-insensitive hash of the rows of ``source`` over ``cols``: row
    count, and sum and xor of the 64-bit row hashes."""
    hashed = ", ".join(f'"{c}"::VARCHAR' for c in cols)
    return (
        f"SELECT count(*)::VARCHAR, sum(h)::VARCHAR, bit_xor(h)::VARCHAR "
        f"FROM (SELECT hash({hashed}) AS h FROM ({source}))"
    )


def flagship_oracle(con, pages_glob: str) -> tuple:
    """Hash of the DuckDB flagship replay
    (``entry_queries.flagship_edges_oracle_sql``) over ``pages_glob``."""
    from unittest import mock

    from marc2rdf_ray import entry_queries
    from marc2rdf_ray.stages.canonicalize import TRIPLE_KEY_COLS

    with mock.patch.object(
        entry_queries, "flagship_pages_fixture", lambda: pages_glob
    ):
        sql = entry_queries.flagship_edges_oracle_sql()
    return tuple(con.execute(hash_sql(TRIPLE_KEY_COLS, sql)).fetchone())


def graph_glob(out_dir: str) -> str:
    return os.path.join(out_dir, "part=*", "edges.parquet")


def graph_hash(con, out_dir: str) -> tuple:
    from marc2rdf_ray.stages.canonicalize import TRIPLE_KEY_COLS

    src = f"SELECT * FROM read_parquet('{graph_glob(out_dir)}', hive_partitioning=false)"
    return tuple(con.execute(hash_sql(TRIPLE_KEY_COLS, src)).fetchone())


# -- host ----------------------------------------------------------------

def num_cpus() -> int:
    """CPUs this process may run on (the affinity mask), not ``nproc``,
    which honours OMP_NUM_THREADS."""
    return len(os.sched_getaffinity(0))


def cpu_ticks() -> tuple[int, int]:
    """(total, steal) ticks of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7]


def ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def wait_children_gone(timeout: float = 20.0) -> None:
    """Wait for every process this one started (Ray's GCS, raylet,
    workers) to end; kill what is left after ``timeout``."""
    import psutil  # vendored by Ray

    me = psutil.Process()

    def alive() -> list:
        out = []
        for k in me.children(recursive=True):
            try:
                if k.status() == psutil.STATUS_ZOMBIE:
                    os.waitpid(k.pid, os.WNOHANG)  # reap an ended child
                    continue
            except (psutil.NoSuchProcess, ChildProcessError):
                continue
            out.append(k)
        return out

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        kids = alive()
        if not kids:
            return
        time.sleep(0.2)
    for k in kids:
        try:
            k.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(kids, timeout=5)


class PeakRss:
    """Samples the summed RSS of this process and all its descendants
    (Ray's GCS, raylet and workers) every 50 ms while active; the process
    list is refreshed every 10th sample to keep the sampler's cost small."""

    def __init__(self):
        import psutil

        self._psutil = psutil
        self._me = psutil.Process()
        self.peak = 0
        self._stop = threading.Event()

    def _sample(self, procs) -> int:
        total = 0
        for p in procs:
            try:
                total += p.memory_info().rss
            except (self._psutil.NoSuchProcess, self._psutil.AccessDenied):
                pass
        return total

    def _procs(self) -> list:
        return [self._me] + self._me.children(recursive=True)

    def _loop(self):
        i = 0
        procs = self._procs()
        while not self._stop.wait(0.05):
            i += 1
            if i % 10 == 0:
                procs = self._procs()
            self.peak = max(self.peak, self._sample(procs))

    def __enter__(self):
        self.peak = self._sample(self._procs())
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._sample(self._procs()))


def versions() -> dict:
    import duckdb
    import pyarrow
    import ray

    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "duckdb": duckdb.__version__, "python": sys.version.split()[0]}


def passes_for(pages_dir: str, num_partitions: int) -> int:
    """The materialize pass count choose_shards picks for this corpus in
    this session (run_kg_pipeline sizes it from the pages files)."""
    from marc2rdf_ray.state import fsio
    from marc2rdf_ray.state.manifest import list_input_files
    from marc2rdf_ray.stages.materialize import choose_shards

    return choose_shards(fsio.total_size(list_input_files(pages_dir)), num_partitions)


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, names in os.walk(path)
        for f in names
    )


def corpus_stamp(pages_dir: str, pages: int) -> dict:
    return {"pages": pages, "bytes": dir_bytes(pages_dir)}


# -- workloads -----------------------------------------------------------
#
# A workload's constructor builds its state inside setup_s; reset() runs
# untimed before each operation, op() is the timed operation and returns
# the triples it wrote or read, check() gates its output afterwards.

def build_graph(pages: str, out: str):
    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    return run_kg_pipeline(pages, out, PipelineConfig())


class KgBuild:
    """Cold run_kg_pipeline into an empty out_dir; one materialize pass."""

    # the traced spans that cover what op() does (trace.overhead_s)
    op_spans = ("extract", "sameas", "materialize")

    def __init__(self, b: Bench, pages: int | None = None):
        self.b = b
        n = pages or b.sizes.build
        self.pages = b.timed_setup("corpus_s", b.corpus, "base", n)
        # DuckDB runs the oracle beside the state build and the warm-up op
        self._oracle = b.query_in_background(
            "oracle_s", flagship_oracle, os.path.join(self.pages, "*.parquet")
        )
        self.out = b.path("graph")
        self.stamp = {"corpus": corpus_stamp(self.pages, n)}

    @property
    def expect(self) -> tuple:
        return self._oracle.result()

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self) -> int:
        self.manifest = build_graph(self.pages, self.out)
        return self.manifest.triple_count

    def check(self) -> bool:
        return graph_hash(self.b.con, self.out) == self.expect

    def passes(self) -> int:
        return passes_for(self.pages, self.manifest.num_partitions)


class KgRematerialize(KgBuild):
    """run_kg_pipeline over an out_dir whose raw checkpoint is intact but
    whose partitions and manifest are gone: canonicalize + materialize
    only, with at least two materialize passes."""

    op_spans = ("sameas", "materialize")

    def __init__(self, b: Bench):
        super().__init__(b, b.sizes.remat)
        self.manifest = b.timed_setup("state_s", build_graph, self.pages, self.out)

    def _ckpt_state(self) -> list:
        out = []
        for d, _, names in os.walk(os.path.join(self.out, "_raw_triples")):
            for f in names:
                st = os.stat(os.path.join(d, f))
                out.append((os.path.join(d, f), st.st_size, st.st_mtime_ns))
        st = os.stat(os.path.join(self.out, "_raw_triples.complete"))
        out.append(("marker", st.st_size, st.st_mtime_ns))
        return sorted(out)

    def reset(self):
        for d in os.listdir(self.out):
            if d.startswith("part="):
                shutil.rmtree(os.path.join(self.out, d))
        os.remove(os.path.join(self.out, "_manifest.json"))
        self.before = self._ckpt_state()

    def check(self) -> bool:
        # extraction must have been skipped: checkpoint and marker untouched
        return self._ckpt_state() == self.before and super().check()


WORKLOAD_CLASSES = {
    "kg_build": KgBuild,
    "kg_rematerialize": KgRematerialize,
}


def settle() -> None:
    """Collect this process's garbage and write back dirty file pages, so
    neither a GC pause nor the kernel's delayed writeback of files the last
    step wrote lands inside the next timed operation."""
    gc.collect()
    os.sync()


def run_once(w) -> tuple[bool, float, int, int]:
    """reset, timed op, check.  Returns (ok, wall_s, triples, peak_rss)."""
    w.reset()
    settle()
    with PeakRss() as rss:
        t0 = time.perf_counter()
        triples = w.op()
        wall = time.perf_counter() - t0
    return w.check(), wall, triples, rss.peak


def prepare(bench: Bench, workload: str):
    """The workload's set-up: corpus, oracle, state and one warm-up op.
    Returns the workload and the set-up's wall time after Ray init; the
    oracle overlaps the state build and the warm-up op, so the components
    in ``bench.setup`` add up to more than that."""
    t0 = time.perf_counter()
    w = WORKLOAD_CLASSES[workload](bench)
    w.reset()
    bench.timed_setup("warmup_s", w.op)
    if not w.check():  # waits for the oracle
        raise SystemExit(f"{workload}: warm-up output failed its oracle")
    settle()
    return w, time.perf_counter() - t0


def check_passes(bench: Bench, workload: str, passes: int) -> None:
    """The pass counts the full-scale workloads are sized for."""
    if bench.sizes != FULL:
        return
    if workload == "kg_build" and passes != 1:
        raise SystemExit(f"kg_build picked {passes} passes, expected 1")
    if workload == "kg_rematerialize" and passes < 2:
        raise SystemExit(f"kg_rematerialize picked {passes} passes, expected >= 2")


def measure(bench: Bench, workload: str, seconds: float) -> tuple[dict, dict]:
    w, setup_s = prepare(bench, workload)
    walls, tps, rss, failed = [], [], [], 0
    cpu0 = cpu_ticks()
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        try:
            ok, wall, triples, peak = run_once(w)
        except Exception:  # noqa: BLE001 -- a failed operation is counted
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            print(f"{workload}: operation failed", file=sys.stderr)
            if failed >= 3:
                break
            continue
        walls.append(wall)
        tps.append(triples / wall)
        rss.append(peak / 1e6)
    stamp = dict(w.stamp)
    cpu1 = cpu_ticks()
    # share of the host's CPU time taken from this VM while measuring
    stamp["steal_frac"] = (cpu1[1] - cpu0[1]) / max(1, cpu1[0] - cpu0[0])
    stamp["passes"] = w.passes()
    stamp["samples"] = len(walls)
    stamp["wall_s_all"] = [round(x, 4) for x in walls]
    check_passes(bench, workload, stamp["passes"])
    attempted = len(walls) + failed
    metrics = {}
    if walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "triples_per_s": {"value": statistics.median(tps), "unit": "triples/s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    metrics["setup_s"] = {"value": bench.setup["ray_init_s"] + setup_s, "unit": "s"}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, stamp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: self-test corpus sizes")
    args = ap.parse_args(argv)

    import marc2rdf_ray  # noqa: F401 -- fail before any set-up without it

    # on SIGTERM, unwind through close() so Ray's processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sizes = FULL if args.scale == "full" else TINY
    bench = Bench(args.seed, sizes)
    try:
        bench.start()
        if args.trace:
            from traced import traced_run  # perfbench/traced.py

            result, stamp = traced_run(bench, args.workload)
        else:
            result, stamp = measure(bench, args.workload, args.seconds)
        stamp.update(
            workload=args.workload, seed=args.seed, trace=args.trace,
            seconds=args.seconds, scale=args.scale, sizes=sizes.__dict__,
            num_cpus=num_cpus(), object_store_memory=OBJECT_STORE_BYTES,
            host_cpus=os.cpu_count(), host_ram_bytes=ram_bytes(),
            versions=versions(), setup=bench.setup,
        )
    finally:
        bench.close()
    correct = result["failed"] == 0
    print(json.dumps({"stamp": stamp}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
