"""Benchmark harness (driver contract).

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) in a fresh local Ray session with
``num_cpus=$RAY_GRAFT_CPUS`` (default: the CPUs this process may run on,
``len(os.sched_getaffinity(0))``) and prints ONE JSON line:

  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "queries": {...per-query seconds...}, "sf": ..., "num_cpus": N,
   "triples": T, "triples_per_sec": R}

Headline = the flagship KG pipeline (extract -> link -> canonicalize ->
materialize, BASELINE.json metric) over a synthetic pages corpus sized
``$M2R_PAGES_PER_DOC`` (default 40) pages per `documents` row of the sf dir
(deterministic, cached under ``$M2R_BENCH_CACHE``, default /dev/shm).

``--scaling``: runs the headline in fresh subprocesses at
``$M2R_SCALE_LO`` (default 8) and ``$M2R_SCALE_HI`` (default 4x that) CPUs
on the SAME corpus and reports throughput at both plus scaling efficiency
(throughput ratio / CPU ratio), per the two-cluster-size rule.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(
    os.environ.get("RAY_GRAFT_CPUS", str(len(os.sched_getaffinity(0))))
)
PAGES_PER_DOC = int(os.environ.get("M2R_PAGES_PER_DOC", "40"))
# tmpfs by default: on a real cluster every node brings its own disk/S3
# bandwidth, so a single shared local disk would serialize IO that scales
# with nodes in production; /dev/shm emulates per-node IO honestly.
CACHE_ROOT = os.environ.get("M2R_BENCH_CACHE", "/dev/shm/m2r_bench")


def _doc_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows


def ensure_corpus(n_pages: int) -> str:
    """Deterministic cached pages corpus (also warms the page cache)."""
    from marc2rdf_ray.sources.pages import GEN_VERSION

    path = os.path.join(CACHE_ROOT, f"pages_v{GEN_VERSION}_n{n_pages}_s42")
    marker = os.path.join(path, "_COMPLETE")
    if not os.path.exists(marker):
        shutil.rmtree(path, ignore_errors=True)
        from marc2rdf_ray.sources.pages import write_pages_dataset

        write_pages_dataset(path, n_pages, seed=42)
        open(marker, "w").write("ok")
    else:
        # warm OS page cache so both scaling runs see hot input
        for root, _, names in os.walk(path):
            for n in names:
                with open(os.path.join(root, n), "rb") as f:
                    while f.read(1 << 22):
                        pass
    return path


REPEATS = int(os.environ.get("M2R_BENCH_REPEATS", "3"))


def run_headline(pages_dir: str) -> tuple[float, int, list[float]]:
    """Median of REPEATS runs (host timing variance on this shared VM is
    ±25% run-to-run; a single sample is noise -- NOTES r1 #1)."""
    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    walls = []
    triples = 0
    for _ in range(max(1, REPEATS)):
        out_dir = os.path.join(CACHE_ROOT, f"graph_out_{NUM_CPUS}")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        manifest = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
        walls.append(time.time() - t0)
        triples = manifest.triple_count
    walls.sort()
    return walls[len(walls) // 2], triples, [round(w, 3) for w in walls]


def cc_microbench(n_edges: int = 1_000_000) -> float:
    """Connected components over a synthetic 1M-edge graph (stars of 10
    with every 50th root chained to the next -- mixes wide and deep
    components).  Times the native join+Min implementation end-to-end."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.stages.canonicalize import connected_components

    # M2R_BIG_GRAPH_INTS=1: int64 node ids instead of "n<id>" URI-style
    # strings -- the 100M-edge point's working set (pairs + per-round
    # staged exchanges) exceeds this single node's spill disk with string
    # ids (~2x the bytes); integer ids are the realistic doc-graph shape
    # at that scale and exercise the identical operator code path.
    int_ids = os.environ.get("M2R_BIG_GRAPH_INTS") == "1"

    def gen(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["id"].to_pylist(), np.int64)
        roots = ids // 10 * 10
        chain = ids[(ids % 500 == 0) & (ids > 0)]
        if int_ids:
            subj, obj = roots, ids
            extra_s, extra_o = chain - 500, chain
            return pa.table(
                {
                    "subj": pa.array(
                        np.concatenate([subj, extra_s]), pa.int64()
                    ),
                    "obj": pa.array(
                        np.concatenate([obj, extra_o]), pa.int64()
                    ),
                }
            )
        subj = np.char.add("n", roots.astype(str))
        obj = np.char.add("n", ids.astype(str))
        extra_s = np.char.add("n", (chain - 500).astype(str))
        extra_o = np.char.add("n", chain.astype(str))
        return pa.table(
            {
                "subj": pa.array(np.concatenate([subj, extra_s])),
                "obj": pa.array(np.concatenate([obj, extra_o])),
            }
        )

    edges = rd.range(n_edges).map_batches(gen, batch_format="pyarrow")
    t0 = time.time()
    n = connected_components(edges, rounds=3).count()
    wall = time.time() - t0
    assert n > 0
    return wall


def pagerank_microbench(n_edges: int = 1_000_000) -> float:
    """PageRank (3 iterations) over a synthetic power-law-ish graph:
    every node i links to i//2 (hub funnel) and to (i*7) % n (scatter) --
    hot dsts near 0 exercise the per-task combiner."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.ops.graph import pagerank

    n_nodes = n_edges // 2

    def gen(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["id"].to_pylist(), np.int64)
        src = np.concatenate([ids, ids])
        dst = np.concatenate([ids // 2, (ids * 7) % n_nodes])
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    edges = rd.range(n_nodes).map_batches(gen, batch_format="pyarrow")
    nodes = rd.range(n_nodes).map_batches(
        lambda b: pa.table({"node": pa.array(b["id"], pa.int64())}),
        batch_format="pyarrow",
    )
    t0 = time.time()
    n = pagerank(edges, nodes, iterations=3).count()
    wall = time.time() - t0
    assert n == n_nodes
    return wall


def ring_graph_edges(n_edges: int):
    """Synthetic graph with real triangle density, as a Dataset of
    (src, dst): ring edges (i, i+1), (i, i+2) -- every i closes a
    triangle -- plus a hub (exercises the degree orientation) and random
    noise.  Shared by the triangle and k-truss microbenchmarks."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    n_nodes = n_edges // 3

    def gen(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["id"].to_pylist(), np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(ids + 1) % n_nodes, (ids + 2) % n_nodes, (ids * 13) % n_nodes]
        )
        return pa.table(
            {"src": pa.array(src, pa.int64()),
             "dst": pa.array(dst, pa.int64())}
        )

    return rd.range(n_nodes).map_batches(gen, batch_format="pyarrow")


def triangle_microbench(n_edges: int = 1_000_000) -> float:
    """Triangle count over :func:`ring_graph_edges`."""
    from marc2rdf_ray.ops.graph import triangle_count

    edges = ring_graph_edges(n_edges)
    t0 = time.time()
    n = triangle_count(edges)
    wall = time.time() - t0
    assert n >= n_edges // 3  # at least the ring triangles
    return wall


def ktruss_microbench(n_edges: int = 1_000_000) -> float:
    """k-truss (k=3, 2 rounds, distributed path forced) over
    :func:`ring_graph_edges` -- each round is a full triangle-listing
    support pass + an edge filter, so this times the edge-peel family
    one notch above plain triangle counting."""
    from marc2rdf_ray.ops.graph import ktruss

    edges = ring_graph_edges(n_edges)
    t0 = time.time()
    n = ktruss(edges, k=3, rounds=2, local_budget=0).count()
    wall = time.time() - t0
    assert n > 0
    return wall


def big_graph() -> None:
    """--big-graph: the 10M-edge scale point for the iterative graph ops
    (connected components + PageRank), one JSON line.  Separate from the
    per-round default so the driver's bench stays bounded."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    n = int(os.environ.get("M2R_BIG_GRAPH_EDGES", str(10_000_000)))
    cc = cc_microbench(n)
    pr = pagerank_microbench(n)
    tri = triangle_microbench(n // 10)
    kt = ktruss_microbench(n // 10)
    ray.shutdown()
    print(
        json.dumps(
            {
                "metric": "10M-edge graph ops (sec)",
                "n_edges": n,
                "cc_sec": round(cc, 3),
                "pagerank3_sec": round(pr, 3),
                "triangles_sec_1m_edges": round(tri, 3),
                "ktruss_k3r2_sec_1m_edges": round(kt, 3),
                "num_cpus": NUM_CPUS,
            }
        )
    )


def run_queries(sf_dir: str) -> dict[str, float]:
    """Representative per-operator timings over the sf tables."""
    from marc2rdf_ray import entry_queries as eq

    names = [
        "kg_triples",
        "kg_dedup_edges",
        "q1_pricing_summary",
        "revenue_by_segment",
        "events_hourly",
        "docs_token_stats",
        "dedup_exact",
        "dedup_minhash",
        "ann_brute_topk",
        "doc_pagerank",
        "events_asof_join",
        "events_asof_join_wide",
        "events_sliding_3h",
        "events_approx_distinct_users",
        "embeddings_kmeans",
        "docs_top_bigrams",
        "dedup_jaccard_verified",
        "docs_packed_sequences",
        "docs_tfidf_top_terms",
        "events_type_value_quantiles",
        "graph_triangles",
        "events_funnel",
        "embeddings_knn_graph",
        "dedup_incremental_windows",
        "corpus_flagship_docs",
        "docs_boilerplate_removed",
        "events_value_quantile_sketch",
        "docs_paragraph_dedup",
        "docs_trigram_bits",
        "embeddings_semdedup",
        "docs_inverted_index",
        "ann_sq8_topk",
        "docs_bm25_topk",
        "graph_kcore",
        "events_streaming_watermark",
        "docs_decontaminated_hashed",
        "docs_span_dedup",
        "docs_gopher_filter",
        "docs_dsir_weights",
        "docs_token_budget",
        "graph_hits",
        "graph_link_prediction",
        "events_segment_revenue",
        "events_interarrival",
        "events_iqr_outliers",
        "q3_shipping_priority",
        "parts_name_editdist",
        "graph_clustering_coef",
        "events_rolling_active_users",
        "events_type_top_values",
        "events_value_robust_z",
        "events_peak_sessions",
        "embeddings_mmr_select",
        "events_click_auc",
        "q7_volume_shipping",
        "q10_returned_items",
        "q13_customer_distribution",
        "q18_large_volume_customers",
        "q22_idle_balance",
        "q21_waiting_suppliers",
        "q9_product_profit",
        "events_rollup_report",
        "embeddings_random_projection",
        "kg_bgp_star",
        "kg_predicate_stats",
        "kg_chain_language",
        "kg_inferred_types",
        "kg_update_language",
        "kg_planner_mixed",
        "graph_ktruss",
        "events_click_error_overlap",
        "ann_pq_topk",
        "parts_golden_records",
        "docs_ccnet_buckets",
        "events_seasonal_baseline",
        "graph_temporal_reachability",
        "graph_boruvka_msf",
        "graph_greedy_matching",
        "graph_cc_incremental",
        "docs_crawl_frontier",
        "docs_bpe_tokens",
        "docs_bpe_train",
        "docs_classifier_scores",
        "events_user_decayed_score",
        "events_holt_smoothing",
        "events_cep_conversion",
        "orders_upsert_apply",
        "orders_schema_evolution",
        "embeddings_pca_power",
        "embeddings_hard_negatives",
        "kg_bgp_group_having",
        "docs_containment_search",
        "docs_shuffle_rank",
        "docs_langid_confusion",
        "graph_dag_layers",
        "orders_zonemap_audit",
        "events_markov_stationary",
        "kg_ask",
        "kg_describe",
        "events_ab_ztest",
        "graph_onion_layers",
        "graph_node2vec_walks",
        "graph_scc",
        "graph_condensation",
        "corpus_flagship_shuffled",
        "orders_scd2_history",
        "graph_mis",
        "dedup_incremental_minhash",
        "orders_scd2_pit",
        "corpus_flagship_dropped",
        "doc_pagerank_weighted",
        "graph_stress_centrality",
    ]
    out = {}
    for name in names:
        fn = eq.QUERIES[name]
        t0 = time.time()
        res = fn(sf_dir)
        # consume without materializing to the driver
        if hasattr(res, "count"):
            res.count()
        out[name] = round(time.time() - t0, 3)
    return out


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import logging

    logging.getLogger("ray.data").setLevel(logging.CRITICAL)

    n_pages = PAGES_PER_DOC * _doc_rows(SF_DIR)
    pages_dir = ensure_corpus(n_pages)

    wall, triples, walls = run_headline(pages_dir)
    if os.environ.get("M2R_BENCH_HEADLINE_ONLY"):
        queries = {}
    else:
        queries = run_queries(SF_DIR)
        queries["cc_microbench_1m_edges"] = round(cc_microbench(), 3)

    result = {
        "metric": (
            "flagship KG pipeline end-to-end seconds "
            "(extract->link->canonicalize->materialize)"
        ),
        "value": round(wall, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_pages": n_pages,
        "triples": triples,
        "triples_per_sec": round(triples / wall, 1),
        "headline_runs_sec": walls,  # sorted; value = median
    }
    ray.shutdown()
    print(json.dumps(result))


def _arith_worker(n: int) -> None:
    x = 0
    for i in range(n * 1_000_000):
        x += i * i


def machine_ceiling(lo: int, hi: int, total_units: int = 160) -> float:
    """This host's OWN parallel-scaling ceiling lo->hi processes, measured
    with a pure-arithmetic workload (no IO, no IPC, tiny memory).

    On this sandbox the hypervisor throttles beyond ~8 busy vCPUs (steal
    time): even embarrassingly parallel pure-CPU work speeds up only ~2.4x
    from 8->32 processes.  A distributed pipeline cannot scale better than
    the machine it runs on, so the honest scaling metric is the pipeline's
    speedup NORMALIZED by this ceiling (a real N->4N NODE cluster adds
    whole machines, which is what the ceiling-normalized number models)."""
    import multiprocessing as mp

    def bench(procs: int) -> float:
        per = max(1, total_units // procs)
        t0 = time.time()
        ps = [mp.Process(target=_arith_worker, args=(per,)) for _ in range(procs)]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        return (time.time() - t0) / per / procs  # sec per unit-core

    return bench(lo) / bench(hi)


def scaling() -> None:
    """Same job, fresh processes, N vs 4N CPUs -> scaling efficiency,
    raw and normalized by the host's measured parallel ceiling.

    De-noising (this shared VM's co-tenant load swings both the pipeline
    arms AND the arithmetic ceiling by tens of percent run-to-run):
    arms run ALTERNATING lo/hi 3x each and the ceiling is measured 3x
    INTERLEAVED between them; medians are compared, with per-sample
    ranges reported so drift is visible."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   M2R_BENCH_REPEATS="1", M2R_BENCH_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo_cpu = int(os.environ.get("M2R_SCALE_LO", "8"))
    hi_cpu = int(os.environ.get("M2R_SCALE_HI", str(lo_cpu * 4)))
    reps = int(os.environ.get("M2R_SCALE_REPS", "3"))
    run(lo_cpu)  # untimed warm-up pass: builds/warms the corpus cache
    lo_secs, hi_secs, ceilings = [], [], []
    triples = n_pages = 0
    for _ in range(reps):
        lo = run(lo_cpu)
        hi = run(hi_cpu)
        lo_secs.append(lo["value"])
        hi_secs.append(hi["value"])
        triples, n_pages = lo["triples"], lo["n_pages"]
        ceilings.append(machine_ceiling(lo_cpu, hi_cpu))

    def med(xs):
        s = sorted(xs)
        return s[len(s) // 2]

    tp_lo = triples / med(lo_secs)
    tp_hi = triples / med(hi_secs)
    speedup = tp_hi / tp_lo
    eff = speedup / (hi_cpu / lo_cpu)
    ceiling = med(ceilings)
    print(
        json.dumps(
            {
                "metric": "scaling efficiency (throughput ratio / cpu ratio)",
                "cpus": [lo_cpu, hi_cpu],
                "sec": [med(lo_secs), med(hi_secs)],
                "sec_all": [sorted(lo_secs), sorted(hi_secs)],
                "triples_per_sec": [round(tp_lo, 1), round(tp_hi, 1)],
                "pipeline_speedup": round(speedup, 3),
                "scaling_efficiency": round(eff, 3),
                "machine_ceiling_speedup": round(ceiling, 3),
                "machine_ceiling_all": [round(c, 2) for c in sorted(ceilings)],
                "machine_ceiling_efficiency": round(
                    ceiling / (hi_cpu / lo_cpu), 3
                ),
                "normalized_efficiency": round(speedup / ceiling, 3),
                "n_pages": n_pages,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--big-graph" in sys.argv:
        big_graph()
    else:
        main()
