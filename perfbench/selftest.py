"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py [--holdout-seed 9001]

1. At tiny scale, every workload finishes untraced and traced, and each run
   prints exactly the metric names and units BENCHMARK.json declares.
2. Two traced runs of each workload with one seed report the same counts.
3. The oracle gates are not vacuous: a graph copy with one row dropped, and
   a query result with one binding dropped, fail their gates.
4. At full scale, a seed not used while the benchmark was built passes
   every gate on every workload, untraced and traced.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  perfbench/run.py
import traced  # noqa: E402  perfbench/traced.py


def invoke(workload: str, seed: int, trace: int, scale: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", scale]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"FAIL {' '.join(cmd[1:])}: exit {p.returncode}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"FAIL result keys {sorted(out)}")
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        raise SystemExit(f"FAIL {workload} seed={seed} trace={trace}: {out}")
    return out


def check_metrics(out: dict, declared: list, what: str) -> None:
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"FAIL {what}: metrics {got} != declared {want}")
    print(f"ok   {what}: {len(got)} metrics with declared units")


def drop_one_row(parquet_file: str) -> None:
    import pyarrow.parquet as pq

    t = pq.read_table(parquet_file)
    pq.write_table(t.slice(0, t.num_rows - 1), parquet_file)


def gates_not_vacuous(seed: int) -> None:
    bench = run.Bench(seed, run.TINY)
    try:
        bench.start()
        pages = bench.corpus("base", bench.sizes.build)
        expect = run.flagship_oracle(bench.con, os.path.join(pages, "*.parquet"))
        out = bench.path("graph")
        run.build_graph(pages, out)
        if run.graph_hash(bench.con, out) != expect:
            raise SystemExit("FAIL the intact graph fails its oracle")
        broken = bench.path("broken")
        shutil.copytree(out, broken)
        drop_one_row(sorted(glob.glob(run.graph_glob(broken)))[0])
        if run.graph_hash(bench.con, broken) == expect:
            raise SystemExit("FAIL a graph missing one row passes its oracle")
        print("ok   graph gate rejects a copy with one row dropped")

        files = sorted(glob.glob(run.graph_glob(out)))
        q = traced.QUERIES["star"]
        table = traced.to_arrow(traced.run_query(files, q))
        want = traced.query_oracle(bench.con, out, q)
        if traced.bindings_hash(bench.con, table, q) != want:
            raise SystemExit("FAIL intact query bindings fail their oracle")
        if traced.bindings_hash(bench.con, table.slice(1), q) == want:
            raise SystemExit("FAIL bindings missing one row pass their oracle")
        print("ok   query gate rejects bindings with one row dropped")
    finally:
        bench.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--holdout-seed", type=int, default=9001)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for w in names:
        check_metrics(invoke(w, args.seed, 0, "tiny"), spec["end_to_end"], f"tiny {w}")
        first = invoke(w, args.seed, 1, "tiny")
        check_metrics(first, spec["per_layer"], f"tiny traced {w}")
        second = invoke(w, args.seed, 1, "tiny")
        differ = {k for k in counts
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]}
        if differ:
            raise SystemExit(f"FAIL {w} traced counts differ across two runs: {sorted(differ)}")
        print(f"ok   {w}: {len(counts)} traced counts repeat exactly across two runs")

    gates_not_vacuous(args.seed)

    for w in names:
        for trace in (0, 1):
            invoke(w, args.holdout_seed, trace, "full")
            print(f"ok   full {w} trace={trace} passes every gate "
                  f"with held-out seed {args.holdout_seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
