"""Forced-distributed SCC at deep-tendril md5-graph scale (round-5 task #2
acceptance): build the BASELINE.md md5 graph with Ray, run scc with the
plan's one_task budget at 0 (no one-task Tarjan escape hatch), and
compare its label partition against scc_local with that budget at 8 GiB.

Usage: python tools/bench_scc_distributed.py [n_nodes] [num_cpus]
"""

from __future__ import annotations

import logging
import sys
import time

import numpy as np
import pyarrow as pa


def md5_edges_batch(batch: pa.Table, n: int) -> pa.Table:
    """Vectorized md5 graph: node i emits i%4 edges to md5(i:k) % n."""
    import hashlib

    ids = batch["id"].to_numpy(zero_copy_only=False)
    src, dst = [], []
    for i in ids.tolist():
        for k in range(i % 4):
            t = int(hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16) % n
            if t != i:
                src.append(i)
                dst.append(t)
    return pa.table(
        {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    )


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR")
    logging.basicConfig(level=logging.INFO)
    for nm in ("ray.data", "ray"):
        logging.getLogger(nm).setLevel(logging.CRITICAL)
    logging.getLogger("marc2rdf_ray.ops.graph").setLevel(logging.INFO)

    import ray.data as rd

    from marc2rdf_ray.ops import plan
    from marc2rdf_ray.ops.graph import scc, scc_local

    blocks = max(8, ncpu * 2)
    edges = rd.range(n, override_num_blocks=blocks).map_batches(
        lambda b, _n=n: md5_edges_batch(b, _n), batch_format="pyarrow"
    ).materialize()
    print(f"graph: {n} nodes, {edges.count()} edges, "
          f"{edges.size_bytes() >> 20} MB", flush=True)

    t0 = time.time()
    plan.BUDGETS["one_task"] = 0
    dist = scc(edges, max_inner=60)
    lab_d = {r["node"]: r["scc"] for r in dist.take_all()}
    t_dist = time.time() - t0
    print(f"distributed scc: {t_dist:.1f}s, {len(lab_d)} nodes labeled",
          flush=True)

    t0 = time.time()
    plan.BUDGETS["one_task"] = 8 << 30
    loc = scc_local(edges)
    lab_l = {r["node"]: r["scc"] for r in loc.take_all()}
    t_loc = time.time() - t0
    print(f"local tarjan: {t_loc:.1f}s, {len(lab_l)} nodes", flush=True)

    assert lab_d == lab_l, (
        f"label mismatch: {sum(1 for k in lab_l if lab_d.get(k) != lab_l[k])}"
        f" of {len(lab_l)} differ"
    )
    from collections import Counter

    sizes = Counter(lab_l.values())
    print(f"MATCH: {len(lab_l)} labels identical; "
          f"largest SCC {max(sizes.values())}, {len(sizes)} components",
          flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
