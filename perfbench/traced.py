"""Traced run: per-layer metrics from spans around calls into each layer's
public functions, recorded here, outside the package.

``--trace 1 --workload W`` sets up W exactly as the untraced run does
(corpus, oracle, state, one warm-up op), then:

1. runs W's operation untraced ``UNTRACED_REPEATS`` times, each gated by its
   oracle; ``trace.overhead_s`` is the summed spans of step 3 that cover
   W's operation minus the median of these walls;
2. a serial loop in this process over the first ``sizes.sample`` pages of
   the seed's corpus (the same pages open every corpus), timing parse,
   rules, link, work derivation and table build per page;
3. the flagship re-composed from public functions over W's corpus, each
   boundary forced: extract + pk-partitioned checkpoint write, sameAs +
   symmetry closure, materialize (one pass on kg_build's corpus, at least
   two on kg_rematerialize's).  Its graph must pass W's oracle;
4. three BGP queries (a star, a 3-hop chain and a join on the hot creator
   key) over that graph, each gated by DuckDB;
5. a window merge into a small base graph, gated by the oracle over the
   base and window pages together (see ``OBJECT_STORE_BYTES`` for why the
   base is small).

Every traced run emits every per-layer metric; the layers of step 3 and 4
are measured on the traced workload's own corpus and graph.
"""

from __future__ import annotations

import glob
import os
import statistics
import threading
import time

from run import (
    Bench,
    build_graph,
    check_passes,
    dir_bytes,
    flagship_oracle,
    graph_glob,
    graph_hash,
    hash_sql,
    passes_for,
    prepare,
    run_once,
)

SERIAL_REPEATS = 3
UNTRACED_REPEATS = 3

DC = "http://purl.org/dc/terms/"
QUERIES = {
    "star": [
        ("?p", DC + "language", "?l"),
        ("?p", DC + "publisher", "?pub"),
        ("?p", DC + "issued", "?y"),
    ],
    "chain": [
        ("?p", "http://www.w3.org/2002/07/owl#sameAs", "?c"),
        ("?c", "http://purl.org/spar/fabio/isManifestationOf", "?w"),
        ("?w", DC + "creator", "?a"),
    ],
    "hotkey": [
        ("?p", DC + "creator", "?a"),
        ("?a", "http://xmlns.com/foaf/0.1/givenName", "?g"),
        ("?p", DC + "title", "?t"),
    ],
}


def bgp_oracle_sql(files_glob: str, patterns) -> tuple[str, list[str]]:
    """DuckDB SQL for a BGP over the graph partitions: one self-join per
    pattern on the distinct (subj, pred, obj) set; DISTINCT bindings."""
    cols: dict[str, str] = {}
    conds = []
    for i, (s, p, o) in enumerate(patterns):
        conds.append(f"t{i}.pred = '{p}'")
        for term, col in ((s, "subj"), (o, "obj")):
            if term.startswith("?"):
                v = term[1:]
                if v in cols:
                    conds.append(f"t{i}.{col} = {cols[v]}")
                else:
                    cols[v] = f"t{i}.{col}"
            else:
                conds.append(f"t{i}.{col} = '{term}'")
    select = ", ".join(f'{c} AS "{v}"' for v, c in cols.items())
    tables = ", ".join(f"g t{i}" for i in range(len(patterns)))
    sql = (
        "WITH g AS (SELECT DISTINCT subj::VARCHAR AS subj, "
        "pred::VARCHAR AS pred, obj::VARCHAR AS obj FROM "
        f"read_parquet('{files_glob}', hive_partitioning=false)) "
        f"SELECT DISTINCT {select} FROM {tables} WHERE {' AND '.join(conds)}"
    )
    return sql, list(cols)


def query_oracle(con, out_dir: str, patterns) -> tuple:
    sql, names = bgp_oracle_sql(graph_glob(out_dir), patterns)
    return tuple(con.execute(hash_sql(names, sql)).fetchone())


def bindings_hash(con, table, patterns) -> tuple:
    _, names = bgp_oracle_sql("", patterns)
    con.register("bindings", table)
    try:
        return tuple(
            con.execute(hash_sql(names, "SELECT * FROM bindings")).fetchone()
        )
    finally:
        con.unregister("bindings")


def run_query(files: list[str], patterns):
    """One BGP query over the graph partition files, forced."""
    import ray.data as rd

    from marc2rdf_ray.ops.bgp import bgp_match

    ds = rd.read_parquet(files, columns=["subj", "pred", "obj"])
    return bgp_match(ds, patterns).materialize()


def to_arrow(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")


class SpillWatch:
    """Bytes of the object-spill files Ray writes into its session dir
    while active (each file's largest size)."""

    def __init__(self, ray_tmp: str):
        session = os.path.realpath(os.path.join(ray_tmp, "session_latest"))
        self.pattern = os.path.join(session, "ray_spilled_objects*", "*")
        self.sizes: dict[str, int] = {}
        self._stop = threading.Event()

    def _scan(self):
        for f in glob.glob(self.pattern):
            try:
                self.sizes[f] = max(self.sizes.get(f, 0), os.path.getsize(f))
            except OSError:
                pass

    def _loop(self):
        while not self._stop.is_set():
            self._scan()
            self._stop.wait(0.05)

    def __enter__(self):
        self._before = set(glob.glob(self.pattern))
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._scan()

    @property
    def bytes(self) -> int:
        return sum(v for f, v in self.sizes.items() if f not in self._before)


class ReadWatch:
    """Bytes read through read syscalls (``rchar``) by this process and all
    its descendants (Ray's GCS, raylet and workers) while active.  Each
    process is sampled every 50 ms and counted from its first sample, or
    from zero if it started meanwhile.  The sampler's own reads of /proc
    are subtracted."""

    def __init__(self):
        import psutil  # vendored by Ray

        self._psutil = psutil
        self._me = psutil.Process()
        self._first: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self._own = 0
        self._stop = threading.Event()

    def _scan(self, new_from_zero: bool) -> None:
        own0 = self._me.io_counters().read_chars
        for p in [self._me] + self._me.children(recursive=True):
            try:
                n = p.io_counters().read_chars
            except (self._psutil.NoSuchProcess, self._psutil.AccessDenied):
                continue
            self._first.setdefault(p.pid, 0 if new_from_zero else n)
            self._last[p.pid] = n
        self._own += self._me.io_counters().read_chars - own0

    def _loop(self):
        while not self._stop.wait(0.05):
            self._scan(True)

    def __enter__(self):
        self._scan(False)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._scan(True)

    @property
    def bytes(self) -> int:
        return sum(n - self._first[pid] for pid, n in self._last.items()) - self._own


def parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    return sum(pq.read_metadata(f).num_rows for f in files)


def file_states(out_dir: str) -> dict:
    out = {}
    for f in glob.glob(os.path.join(out_dir, "part=*", "*")):
        st = os.stat(f)
        out[f] = (st.st_size, st.st_mtime_ns)
    return out


def serial_hot_path(pages, m: dict) -> None:
    """Per-page cost of each extraction layer, called serially."""
    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.kg import derive_work_triples
    from marc2rdf_ray.stages.extract import page_to_record
    from marc2rdf_ray.stages.link import MENTIONS_PRED, EntityLinker, build_alias_dict
    from marc2rdf_ray.stages.triples import triples_to_table

    engine = PipelineConfig().build_engine()
    linker = EntityLinker(build_alias_dict())
    rows = list(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    clock = time.perf_counter
    per_rep = {k: [] for k in ("parse", "convert", "derive", "link", "table")}
    for _ in range(SERIAL_REPEATS):
        acc = dict.fromkeys(per_rep, 0.0)
        n_rule = n_mention = 0
        for url, html in rows:
            t0 = clock()
            rec, text = page_to_record(url, html)
            t1 = clock()
            triples = engine.convert(rec)
            t2 = clock()
            n_rule += len(triples)
            triples.extend(derive_work_triples(triples, url))
            t3 = clock()
            mentions = [(url, MENTIONS_PRED, uri, "uri", None)
                        for uri, _ in linker.link_text(text)]
            t4 = clock()
            n_mention += len(mentions)
            triples.extend(mentions)
            triples_to_table(triples, [url] * len(triples))
            t5 = clock()
            for k, a, b in (("parse", t0, t1), ("convert", t1, t2),
                            ("derive", t2, t3), ("link", t3, t4),
                            ("table", t4, t5)):
                acc[k] += b - a
        for k in per_rep:
            per_rep[k].append(1e3 * acc[k] / len(rows))
    med = {k: statistics.median(v) for k, v in per_rep.items()}
    m["stages.extract.page_to_record_ms"] = (med["parse"], "ms")
    m["rules.convert_ms"] = (med["convert"], "ms")
    m["stages.link.link_text_ms"] = (med["link"], "ms")
    m["pipelines.kg.derive_work_triples_ms"] = (med["derive"], "ms")
    m["stages.triples.triples_to_table_ms"] = (med["table"], "ms")
    m["rules.triples_per_page"] = (n_rule / len(rows), "count")
    m["stages.link.mentions_per_page"] = (n_mention / len(rows), "count")


def staged_flagship(b: Bench, pages: str, out: str, m: dict) -> dict:
    """run_kg_pipeline's disk-checkpoint path re-composed from public
    functions, each boundary forced.  Returns each span's seconds."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.kg import (
        TRIPLE_COLS,
        extract_triples,
        sameas_key_pred_for,
    )
    from marc2rdf_ray.stages.canonicalize import sameas_by_shared_key, symmetry_closure
    from marc2rdf_ray.stages.link import build_alias_dict
    from marc2rdf_ray.stages.materialize import materialize_graph

    config = PipelineConfig()
    key_pred = sameas_key_pred_for(config)
    ckpt = os.path.join(out, "_raw_triples")
    sameas_dir = os.path.join(out, "_sameas_triples")

    def add_pk(t: pa.Table) -> pa.Table:
        return t.append_column(
            "pk", pc.cast(pc.equal(t["pred"], pa.scalar(key_pred)), pa.int8())
        )

    t0 = time.perf_counter()
    raw = extract_triples(
        rd.read_parquet(pages, columns=["url", "html"]), config, build_alias_dict()
    )
    raw.map_batches(add_pk, batch_format="pyarrow").write_parquet(
        ckpt, partition_cols=["pk"]
    )
    extract_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    key_triples = rd.read_parquet(os.path.join(ckpt, "pk=1"), columns=TRIPLE_COLS)
    symmetry_closure(
        sameas_by_shared_key(key_triples, key_pred), dedup=False
    ).write_parquet(sameas_dir)
    sameas_s = time.perf_counter() - t0

    read_files = sorted(
        glob.glob(os.path.join(ckpt, "pk=*", "*.parquet"))
        + glob.glob(os.path.join(sameas_dir, "*.parquet"))
    )
    nblocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    with SpillWatch(b.ray_tmp) as spill, ReadWatch() as reads:
        t0 = time.perf_counter()
        edges = rd.read_parquet(
            read_files, columns=TRIPLE_COLS, override_num_blocks=nblocks
        )
        manifest = materialize_graph(
            edges, out, ruleset_hash=config.ruleset_hash(),
            input_paths=[pages], dedup=True,
        )
        mat_s = time.perf_counter() - t0

    raw_rows = parquet_rows(ckpt)
    sameas_rows = parquet_rows(sameas_dir)
    shards = passes_for(pages, manifest.num_partitions)
    rows_in = raw_rows + sameas_rows
    m["pipelines.kg.extract_s"] = (extract_s, "s")
    m["pipelines.kg.raw_triples"] = (raw_rows, "count")
    m["pipelines.kg.ckpt_bytes"] = (dir_bytes(ckpt), "bytes")
    m["stages.canonicalize.sameas_s"] = (sameas_s, "s")
    m["stages.canonicalize.key_triples"] = (parquet_rows(os.path.join(ckpt, "pk=1")), "count")
    m["stages.canonicalize.sameas_edges"] = (sameas_rows, "count")
    m["stages.materialize.s"] = (mat_s, "s")
    m["stages.materialize.rows_in"] = (rows_in, "count")
    m["stages.materialize.rows_out"] = (manifest.triple_count, "count")
    m["stages.materialize.dedup_ratio"] = (manifest.triple_count / rows_in, "ratio")
    m["stages.materialize.shards"] = (shards, "count")
    m["stages.materialize.partitions"] = (manifest.num_partitions, "count")
    m["stages.materialize.bytes_read"] = (reads.bytes, "bytes")
    m["stages.materialize.bytes_written"] = (
        sum(dir_bytes(d) for d in glob.glob(os.path.join(out, "part=*"))), "bytes")
    m["stages.materialize.spilled_bytes"] = (spill.bytes, "bytes")
    return {"extract": extract_s, "sameas": sameas_s, "materialize": mat_s}


def merge_window(b: Bench, m: dict, gates: dict) -> dict:
    """Fold a window into a small base graph; returns the merge stamp."""
    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.incremental import merge_window_into_graph

    sz = b.sizes
    t0 = time.perf_counter()
    base = b.corpus("merge/base", sz.merge_base)
    window = b.corpus("merge/window", sz.window, sz.merge_base)
    expect = flagship_oracle(b.con, b.path("corpus", "merge", "*", "*.parquet"))
    graph = b.path("merge_graph")
    build_graph(base, graph)
    prep_s = time.perf_counter() - t0

    before = file_states(graph)
    t0 = time.perf_counter()
    manifest = merge_window_into_graph(window, graph, PipelineConfig())
    m["pipelines.incremental.merge_s"] = (time.perf_counter() - t0, "s")
    gates["merged"] = graph_hash(b.con, graph) == expect
    after = file_states(graph)
    rewritten = sum(
        size for f, (size, mt) in after.items()
        if not f.endswith("_sig") and before.get(f) != (size, mt))
    win_ckpt = sum(dir_bytes(d) for d in glob.glob(os.path.join(graph, "_raw_win=*")))
    m["pipelines.incremental.touched_partitions"] = (
        len(manifest.extra["touched_partitions"]), "count")
    m["pipelines.incremental.bytes_rewritten"] = (rewritten, "bytes")
    m["pipelines.incremental.write_amplification"] = (rewritten / win_ckpt, "ratio")
    return {"prep_s": prep_s,
            "base": {"pages": sz.merge_base, "bytes": dir_bytes(base)},
            "window": {"pages": sz.window, "bytes": dir_bytes(window)}}


def traced_run(b: Bench, workload: str) -> tuple[dict, dict]:
    import pyarrow.parquet as pq

    from marc2rdf_ray.sources.pages import synthesize_pages

    m: dict[str, tuple] = {}
    gates: dict[str, bool] = {}

    w, _ = prepare(b, workload)
    untraced = []
    for i in range(UNTRACED_REPEATS):
        ok, wall, _, _ = run_once(w)
        gates[f"untraced_{i}"] = ok
        untraced.append(wall)
    untraced_s = statistics.median(untraced)

    serial_hot_path(synthesize_pages(b.sizes.sample, b.seed), m)

    staged = b.path("staged")
    spans = staged_flagship(b, w.pages, staged, m)
    gates["staged_build"] = graph_hash(b.con, staged) == w.expect
    m["trace.overhead_s"] = (sum(spans[k] for k in w.op_spans) - untraced_s, "s")
    check_passes(b, workload, m["stages.materialize.shards"][0])

    files = sorted(glob.glob(graph_glob(staged)))
    for k, q in QUERIES.items():
        t0 = time.perf_counter()
        res = run_query(files, q)
        m[f"ops.bgp.{k}_s"] = (time.perf_counter() - t0, "s")
        table = to_arrow(res)
        m[f"ops.bgp.{k}_bindings"] = (table.num_rows, "count")
        gates[f"query_{k}"] = (
            bindings_hash(b.con, table, q) == query_oracle(b.con, staged, q))
    m["ops.bgp.scan_triples"] = (
        sum(pq.read_metadata(f).num_rows for f in files), "count")

    merge = merge_window(b, m, gates)

    for k in ("ray_init_s", "corpus_s", "oracle_s", "warmup_s"):
        m[f"setup.{k}"] = (b.setup[k], "s")

    failed = [k for k, ok in gates.items() if not ok]
    stamp = {"gates": gates, "passes": m["stages.materialize.shards"][0],
             "untraced_wall_s_all": untraced, "spans_s": spans,
             "merge": merge, **w.stamp}
    if "extract" in w.op_spans:
        # extraction's share of the untraced operation's wall time
        stamp["extract_share"] = spans["extract"] / untraced_s
    result = {
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }
    return result, stamp
