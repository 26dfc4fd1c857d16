"""Iterative graph algorithms over edge tables: integer-exact PageRank.

The KG the flagship pipeline materializes is a directed graph (page ->
mentioned entity, page -> linked page); ranking its nodes is the classic
"which entities matter" wide operation that Ray Data lacks natively.  This
is the custom-operator composition (a) of SURVEY.md §2: per-round, TWO
bucketed exchanges (the connected-components pattern in
stages/canonicalize.py:271) with all per-bucket work done by Arrow C++
kernels -- no Python per node, per edge, or per group.

**Integer-exact by construction.**  Float PageRank is not replayable
across engines (summation order changes the low bits and a rank SORT can
then differ), so ranks live in integer micro-units of ``scale``
(default 1e12) and every step is order-independent integer arithmetic:

    base      = scale // n_nodes
    contrib_e = r[src] // outdeg[src]          (per edge, floor)
    share     = (sum of r over dangling) // n_nodes
    r'[v]     = ((den-num)*base + num*(in_sum[v] + share)) // den

with damping num/den = 85/100.  Sums of non-negative int64 are associative
and commutative, so the Ray result is bit-identical to a single-threaded
replay -- and to the DuckDB oracle that unrolls the same recurrence
(entry_queries.oracle: ``doc_pagerank``).  Rank mass is conserved up to
the deterministic floor losses both sides share.

Scale design (100 TB / 1e12 nodes):
- edges are read ONCE, bucketed by hash(src); ranks are the only per-round
  state (one small row per node), repartitioned to a bounded block count
  per round (sort shuffles emit as many blocks as they receive -- without
  the bound the union per round compounds block counts; NOTES.md).
- hot destinations (a node with 1e9 in-links) are defused by a per-task
  combiner: each exchange-1 task pre-sums contributions per dst, so the
  second exchange carries at most #distinct-dst rows per task, and the
  final per-bucket sum is a vectorized Arrow aggregate.
- the per-round dangling mass is a single int64 reduced to the driver
  (O(1) driver state -- not a driver-side loop over nodes).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _bucket_ints(arr, num_buckets: int) -> pa.Array:
    """node_id % num_buckets as int32 (cheap deterministic shuffle key for
    integer node ids; contiguous ids spread uniformly)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    v = arr.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    return pa.array((v % num_buckets).astype(np.int32), pa.int32())


def pagerank(
    edges_ds,
    nodes_ds,
    *,
    iterations: int = 5,
    scale: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
    num_buckets: int | None = None,
    seed_fn=None,
    n_seeds: int | None = None,
):
    """PageRank over ``edges_ds`` (src:int64, dst:int64; parallel edges
    count twice) for the node set ``nodes_ds`` (node:int64, one row per
    node, including isolated/dangling nodes).  Returns a Dataset of
    (node:int64, rank:int64) where rank is in 1/scale units.

    ``iterations`` is fixed (no convergence test): deterministic cost,
    deterministic output, SQL-replayable.

    PERSONALIZED variant: pass ``seed_fn`` (a vectorized numpy predicate
    ``int64[n] -> bool[n]``) and ``n_seeds`` (its population count over
    the node set) -- teleport mass and the dangling redistribution then go
    ONLY to seed nodes (``base_v = scale // n_seeds`` for seeds, else 0).
    Seed membership being a pure function of the node id is what keeps
    the exchange slim: every task recomputes the mask locally instead of
    shipping a per-node flag through both exchanges each round.  The
    recurrence stays order-free integer arithmetic, so the SQL oracle
    (``doc_pagerank_personalized``) replays it bit-for-bit.
    """
    n_nodes = nodes_ds.count()
    if num_buckets is None:
        # size the exchange to the DATA, capped by the cluster: each round
        # runs two bucketed all-to-alls whose fixed per-task cost dominates
        # when buckets hold only a few thousand rows (observed 36 s for a
        # 5k-node graph at 64 buckets vs seconds at 4).  ~50k nodes per
        # bucket keeps per-bucket Arrow work in the efficient range; the
        # 2xCPU cap grows with the cluster, so at 1e9+ nodes buckets scale
        # out exactly as before.
        try:
            import ray

            cpu_cap = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            cpu_cap = 16
        num_buckets = max(4, min(cpu_cap, (n_nodes + 49_999) // 50_000))

    if not n_nodes:
        return nodes_ds.map_batches(
            lambda b: pa.table(
                {"node": pa.array([], pa.int64()), "rank": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    base = scale // n_nodes
    comp_num = damping_den - damping_num
    if seed_fn is not None:
        if not n_seeds:
            raise ValueError("personalized pagerank needs n_seeds >= 1")
        seed_base = scale // n_seeds

    # -- static: edges bucketed by src, with a per-batch combiner assist --
    def edge_prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": pc.cast(b["src"], pa.int64()),
                "dst": pc.cast(b["dst"], pa.int64()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    edges = edges_ds.map_batches(edge_prep, batch_format="pyarrow").materialize()

    # -- outdegree: per-batch partial counts, one bucketed exchange -------
    def deg_partial(b: pa.Table) -> pa.Table:
        t = (
            b.select(["key"])
            .group_by(["key"], use_threads=False)
            .aggregate([("key", "count")])
            .rename_columns(["key", "cnt"])
        )
        t = pa.table({"key": t["key"], "cnt": pc.cast(t["cnt"], pa.int64())})
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def node_zero(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": pc.cast(b["node"], pa.int64()),
                "cnt": pa.array([0] * len(b), pa.int64()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def bucket_deg(group: pa.Table) -> pa.Table:
        t = (
            group.select(["key", "cnt"])
            .group_by(["key"], use_threads=False)
            .aggregate([("cnt", "sum")])
            .rename_columns(["node", "outdeg"])
        )
        if seed_fn is None:
            r0 = np.full(len(t), base, np.int64)
        else:
            nn = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            r0 = np.where(seed_fn(nn.astype(np.int64)), seed_base, 0)
        return pa.table(
            {
                "node": t["node"],
                "r": pa.array(r0, pa.int64()),
                "outdeg": pc.cast(t["outdeg"], pa.int64()),
            }
        )

    ranks = (
        edges.map_batches(deg_partial, batch_format="pyarrow")
        .union(nodes_ds.map_batches(node_zero, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(bucket_deg, batch_format="pyarrow")
        .repartition(num_buckets)
        .materialize()
    )

    # -- per-round stages --------------------------------------------------
    def rank_tag(b: pa.Table) -> pa.Table:
        # rank rows into exchange 1 (joined to edges by key=node=src)
        t = pa.table(
            {
                "key": b["node"],
                "dst": pa.array([None] * len(b), pa.int64()),
                "r": b["r"],
                "outdeg": b["outdeg"],
                "kind": pa.array([1] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def edge_tag(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["key"],
                "dst": b["dst"],
                "r": pa.array([None] * len(b), pa.int64()),
                "outdeg": pa.array([None] * len(b), pa.int64()),
                "kind": pa.array([0] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", b["bucket"])

    def bucket_contrib(group: pa.Table) -> pa.Table:
        """Join rank rows onto edge rows by src; pre-sum per dst (combiner:
        defuses hot destinations before the second exchange)."""
        kind = group["kind"]
        rk = group.filter(pc.equal(kind, 1))
        ed = group.filter(pc.equal(kind, 0))
        if not len(ed):
            return pa.table(
                {"key": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        # exact int64 floor division in numpy (float64 division + floor
        # mis-floors once outdeg exceeds ~1e4 at scale=1e12): only srcs
        # with >=1 edge survive the inner join, so outdeg >= 1 there --
        # clamp solely to keep the vectorized divide total.
        r_np = rk["r"].combine_chunks().to_numpy(zero_copy_only=False)
        d_np = rk["outdeg"].combine_chunks().to_numpy(zero_copy_only=False)
        contrib = r_np.astype(np.int64) // np.maximum(d_np.astype(np.int64), 1)
        rk_tbl = pa.table(
            {"key": rk["key"], "contrib": pa.array(contrib, pa.int64())}
        )
        j = pa.table({"key": ed["key"], "dst": ed["dst"]}).join(
            rk_tbl, keys="key", join_type="inner", use_threads=False
        )
        out = (
            pa.table({"key": j["dst"], "c": j["contrib"]})
            .group_by(["key"], use_threads=False)
            .aggregate([("c", "sum")])
            .rename_columns(["key", "c"])
        )
        return pa.table({"key": out["key"], "c": pc.cast(out["c"], pa.int64())})

    def contrib_key(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["key"],
                "c": b["c"],
                "outdeg": pa.array([None] * len(b), pa.int64()),
                "kind": pa.array([0] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def rank_state(b: pa.Table) -> pa.Table:
        """Rank rows into exchange 2, PLUS this batch's dangling-mass
        partial broadcast to every bucket (kind=2): each bucket then sums
        an identical copy of the global dangling mass locally, so no
        separate driver-synchronized reduction pass is needed per round
        (it was a full extra Dataset execution -- half the round's jobs)."""
        t = pa.table(
            {
                "key": b["node"],
                "c": pa.array([0] * len(b), pa.int64()),
                "outdeg": b["outdeg"],
                "kind": pa.array([1] * len(b), pa.int8()),
            }
        )
        t = t.append_column("bucket", _bucket_ints(t["key"], num_buckets))
        dang = pc.sum(
            pc.if_else(pc.equal(b["outdeg"], 0), b["r"], pa.scalar(0, pa.int64()))
        ).as_py() or 0
        bcast = pa.table(
            {
                "key": pa.array([None] * num_buckets, pa.int64()),
                "c": pa.array([dang] * num_buckets, pa.int64()),
                "outdeg": pa.array([None] * num_buckets, pa.int64()),
                "kind": pa.array([2] * num_buckets, pa.int8()),
                "bucket": pa.array(range(num_buckets), pa.int32()),
            }
        )
        return pa.concat_tables([t, bcast])

    def bucket_update(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        # kind=2 rows: every batch's dangling partial, broadcast here --
        # their local sum IS the global dangling mass
        dang = pc.sum(
            pc.if_else(pc.equal(kind, 2), group["c"], pa.scalar(0, pa.int64()))
        ).as_py() or 0
        share = dang // (n_seeds if seed_fn is not None else n_nodes)
        g = group.filter(pc.not_equal(kind, 2))
        t = (
            g.select(["key", "c", "outdeg"])
            .group_by(["key"], use_threads=False)
            .aggregate([("c", "sum"), ("outdeg", "max")])
            .rename_columns(["node", "in_sum", "outdeg"])
        )
        # nodes arriving only via contrib rows (not in the node set)
        # have null outdeg -- drop them: the node universe is fixed.
        t = t.filter(pc.is_valid(t["outdeg"]))
        # exact integer arithmetic (see bucket_contrib note)
        in_np = (
            t["in_sum"].combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        if seed_fn is None:
            r_new = (
                comp_num * base + damping_num * (in_np + share)
            ) // damping_den
        else:
            nn = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
            m = seed_fn(nn.astype(np.int64))
            base_v = np.where(m, seed_base, 0)
            share_v = np.where(m, share, 0)
            r_new = (
                comp_num * base_v + damping_num * (in_np + share_v)
            ) // damping_den
        return pa.table(
            {
                "node": t["node"],
                "r": pa.array(r_new, pa.int64()),
                "outdeg": t["outdeg"],
            }
        )

    for _ in range(iterations):
        contribs = (
            edges.map_batches(edge_tag, batch_format="pyarrow")
            .union(ranks.map_batches(rank_tag, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(bucket_contrib, batch_format="pyarrow")
        )
        ranks = (
            contribs.map_batches(contrib_key, batch_format="pyarrow")
            .union(ranks.map_batches(rank_state, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(bucket_update, batch_format="pyarrow")
            .repartition(num_buckets)
            .materialize()
        )

    return ranks.map_batches(
        lambda b: pa.table({"node": b["node"], "rank": b["r"]}),
        batch_format="pyarrow",
    )


def pagerank_reference(
    edges: list[tuple[int, int]],
    nodes: list[int],
    *,
    iterations: int = 5,
    scale: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
    seeds: set | None = None,
) -> dict[int, int]:
    """Single-threaded replay of the exact integer recurrence (the
    differential-test oracle; also documents the contract).  ``seeds``
    switches to the personalized variant (teleport + dangling mass to
    seeds only)."""
    n = len(nodes)
    comp = damping_den - damping_num
    if seeds is None:
        base_of = dict.fromkeys(nodes, scale // n)
        share_den = n
    else:
        sb = scale // len(seeds)
        base_of = {v: (sb if v in seeds else 0) for v in nodes}
        share_den = len(seeds)
    outdeg: dict[int, int] = {v: 0 for v in nodes}
    for s, _ in edges:
        outdeg[s] += 1
    r = dict(base_of)
    for _ in range(iterations):
        dang = sum(rv for v, rv in r.items() if outdeg[v] == 0)
        share = dang // share_den
        in_sum = {v: 0 for v in nodes}
        for s, d in edges:
            in_sum[d] += r[s] // outdeg[s]
        r = {
            v: (
                comp * base_of[v]
                + damping_num
                * (in_sum[v] + (share if base_of[v] else 0))
            )
            // damping_den
            for v in nodes
        }
    return r


def triangle_count(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
    degree_budget: int = 256 << 20,
    max_out: int = 4096,
    strict: bool = False,
    with_truncation: bool = False,
):
    """Exact triangle count of the UNDIRECTED simple graph underlying an
    edge table (self-loops and duplicate/reverse edges collapse first).
    Returns a plain int -- the only driver state is the final O(#buckets)
    count reduction.

    Truncation is never silent OR invisible (ADVICE r3): a tail whose
    fan-out exceeds ``max_out`` drops wedges beyond the cap, which makes
    the count a LOWER bound.  ``strict=True`` raises in the worker the
    moment any tail is capped (fail fast instead of undercount);
    ``with_truncation=True`` returns ``(count, truncated_tails)`` so
    callers can detect the undercount programmatically -- the truncation
    tally rides the existing wedge exchange as ``kind=2`` rows, no extra
    pass.

    The compact-forward algorithm, expressed as three bucketed exchanges:

    1. **distinct** -- edges canonicalize to ``(min, max)`` and bucket by
       the low endpoint, so duplicates land in one task and collapse with
       a vectorized sort + neighbor mask (no global ``unique``).
    2. **orient + wedges** -- every edge points from lower to higher
       *degree-rank* ``(deg(x), x)``; each task then emits, per tail, all
       head pairs with ``np.repeat``/``arange`` (no per-pair Python).
       Degree orientation bounds per-tail fan-out by O(sqrt(2m)) on any
       degree distribution -- hub nodes become heads, never tails (the
       skew defense; id-orientation would square a low-id hub).  Degrees
       come from one partial-combine groupby; the table broadcasts via
       ``ray.put`` when under ``degree_budget``, else the op falls back
       to id-rank (same count, documented skew caveat) -- and any tail
       capped at ``max_out`` is logged, never silent.
    3. **match** -- wedge candidates (with multiplicity, pre-combined per
       block) and oriented edges meet in ONE hash-bucket groupby on
       ``(a, b)``; each bucket's task joins them with an Arrow hash join
       and emits a single partial count.

    Oracle: ``graph_triangles`` replays the count as the classic ordered
    three-way self-join at sf0.01.
    """
    import logging

    import ray

    logger = logging.getLogger(__name__)

    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    dedup = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .materialize()
    )

    # degrees over the simple graph (partial-combine before the groupby)
    from ray.data.aggregate import Sum

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(n, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "deg": pa.array(cnts, pa.int64())}
        )

    deg_ds = (
        dedup.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
        .materialize()
    )

    if deg_ds.size_bytes() <= degree_budget:
        # promote: groupby emits zero-column blocks for empty partitions
        deg_tbl = pa.concat_tables(
            ray.get(deg_ds.to_arrow_refs()), promote_options="default"
        )
        nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
        degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False)
        o = np.argsort(nodes_np, kind="stable")  # searchsorted needs order
        deg_ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})
    else:
        deg_ref = None  # id-rank fallback: same count, weaker skew bound
        logger.warning(
            "triangle_count: degree table over budget; falling back to "
            "id-rank orientation (hub-skew bound is weaker)"
        )

    def orient(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        if deg_ref is not None:
            d = ray.get(deg_ref)
            du = d["deg"][np.searchsorted(d["node"], u)]
            dv = d["deg"][np.searchsorted(d["node"], v)]
            fwd = (du < dv) | ((du == dv) & (u < v))
        else:
            fwd = u < v
        tail = np.where(fwd, u, v)
        head = np.where(fwd, v, u)
        return pa.table(
            {
                "tail": pa.array(tail, pa.int64()),
                "head": pa.array(head, pa.int64()),
                "tb": pa.array((tail % num_buckets).astype(np.int32)),
            }
        )

    oriented = dedup.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(g: pa.Table) -> pa.Table:
        """Emit all head pairs per tail with NO Python per tail: one
        segmented id-sort applies the cap, one segmented rank-sort fixes
        pair orientation, and the all-pairs indices come from a single
        repeat/arange construction over every segment at once (the
        ops/joins.py range_join pattern, segment-generalized)."""
        tails = g["tail"].to_numpy(zero_copy_only=False)
        heads = g["head"].to_numpy(zero_copy_only=False)
        d = ray.get(deg_ref) if deg_ref is not None else None
        # 1) cap per tail on the id-sorted order (same pick as np.sort[:cap])
        order = np.lexsort((heads, tails))
        tails, heads = tails[order], heads[order]
        brk = np.empty(len(tails), bool)
        brk[:1] = True
        if len(tails) > 1:
            brk[1:] = tails[1:] != tails[:-1]
        seg_of = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        local = np.arange(len(tails)) - starts[seg_of]
        over = np.flatnonzero(
            np.append(starts[1:], len(tails)) - starts > max_out
        )
        if len(over) and strict:
            raise ValueError(
                f"triangle_count(strict=True): {len(over)} tail(s) exceed "
                f"max_out={max_out} (first: tail "
                f"{int(tails[starts[over[0]]])}); the count would be an "
                "undercount -- raise max_out or drop strict"
            )
        for si in over:  # rare by construction; logged, never silent
            logging.getLogger(__name__).warning(
                "triangle_count: tail %d truncated %d -> %d heads; "
                "wedges beyond the cap are dropped",
                int(tails[starts[si]]),
                int((np.append(starts[1:], len(tails)) - starts)[si]),
                max_out,
            )
        n_trunc = len(over)
        keep = local < max_out
        tails, heads, seg_of = tails[keep], heads[keep], seg_of[keep]
        # 2) order heads by rank WITHIN each tail (pairs must match the
        #    oriented edge direction)
        if d is not None:
            dh = d["deg"][np.searchsorted(d["node"], heads)]
            order = np.lexsort((heads, dh, seg_of))
        else:
            order = np.lexsort((heads, seg_of))
        heads, seg_of = heads[order], seg_of[order]
        # 3) segmented all-pairs: element e (local pos p in a segment of
        #    size m) is the FIRST member of (m - 1 - p) pairs
        brk2 = np.empty(len(seg_of), bool)
        brk2[:1] = True
        if len(seg_of) > 1:
            brk2[1:] = seg_of[1:] != seg_of[:-1]
        starts2 = np.flatnonzero(brk2)
        sizes = np.diff(np.append(starts2, len(seg_of)))
        seg_idx = np.cumsum(brk2) - 1
        local2 = np.arange(len(seg_of)) - starts2[seg_idx]
        counts = sizes[seg_idx] - 1 - local2  # pairs led by each element
        total = int(counts.sum())
        if total == 0:
            return pa.table(
                {"a": pa.array([0] * min(n_trunc, 1), pa.int64()),
                 "b": pa.array([0] * min(n_trunc, 1), pa.int64()),
                 "cnt": pa.array([n_trunc] * min(n_trunc, 1), pa.int64()),
                 "trunc": pa.array([1] * min(n_trunc, 1), pa.int8())}
            )
        a_idx = np.repeat(np.arange(len(seg_of)), counts)
        excl = np.concatenate(([0], np.cumsum(counts)))[:-1]
        b_idx = a_idx + 1 + (np.arange(total) - excl[a_idx])
        a = heads[a_idx]
        bb = heads[b_idx]
        # per-task combiner: collapse repeated (a, b) wedge pairs
        order = np.lexsort((bb, a))
        a, bb = a[order], bb[order]
        first = np.empty(len(a), bool)
        first[:1] = True
        if len(a) > 1:
            first[1:] = (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])
        starts2 = np.flatnonzero(first)
        cnts = np.diff(np.append(starts2, len(a)))
        out_a, out_b, out_c = a[starts2], bb[starts2], cnts
        tr = np.zeros(len(out_a), np.int8)
        if n_trunc:  # one tally row per task; rides the same exchange
            out_a = np.append(out_a, 0)
            out_b = np.append(out_b, 0)
            out_c = np.append(out_c, n_trunc)
            tr = np.append(tr, np.int8(1))
        return pa.table(
            {
                "a": pa.array(out_a, pa.int64()),
                "b": pa.array(out_b, pa.int64()),
                "cnt": pa.array(out_c, pa.int64()),
                "trunc": pa.array(tr, pa.int8()),
            }
        )

    cand = oriented.groupby("tb").map_groups(wedges, batch_format="pyarrow")

    P = np.int64(1_000_003)

    def key_cand(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        # wedge rows -> kind=1; truncation tally rows -> kind=2
        tr = b["trunc"].to_numpy(zero_copy_only=False)
        kind = np.where(tr == 1, np.int8(2), np.int8(1))
        return pa.table(
            {
                "a": b["a"], "b": b["b"], "cnt": b["cnt"],
                "kind": pa.array(kind, pa.int8()),
                "kb": pa.array(((a * P + bb) % num_buckets).astype(np.int32)),
            }
        )

    def key_edge(b: pa.Table) -> pa.Table:
        t = b["tail"].to_numpy(zero_copy_only=False)
        h = b["head"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": b["tail"], "b": b["head"],
                "cnt": pa.array(np.ones(len(b), np.int64)),
                "kind": pa.array(np.zeros(len(b), np.int8)),
                "kb": pa.array(((t * P + h) % num_buckets).astype(np.int32)),
            }
        )

    both = cand.map_batches(key_cand, batch_format="pyarrow").union(
        oriented.map_batches(key_edge, batch_format="pyarrow")
    )

    def match(g: pa.Table) -> pa.Table:
        kind = g["kind"]
        c = g.filter(pc.equal(kind, 1))
        e = g.filter(pc.equal(kind, 0))
        tr = pc.sum(g.filter(pc.equal(kind, 2))["cnt"]).as_py() or 0
        if len(c) == 0 or len(e) == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "trunc": pa.array([int(tr)], pa.int64())})
        j = c.select(["a", "b", "cnt"]).join(
            e.select(["a", "b"]), keys=["a", "b"], join_type="inner",
            use_threads=False,
        )
        total = pc.sum(j["cnt"]).as_py() or 0
        return pa.table({"n": pa.array([int(total)], pa.int64()),
                         "trunc": pa.array([int(tr)], pa.int64())})

    counts = both.groupby("kb").map_groups(
        match, batch_format="pyarrow"
    ).materialize()
    total = int(counts.sum("n") or 0)
    truncated_tails = int(counts.sum("trunc") or 0)
    if with_truncation:
        return total, truncated_tails
    return total


def degree_histogram(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
):
    """Degree distribution of the undirected simple graph -> Dataset
    ``(degree, n_nodes)`` -- the first thing anyone profiles about a graph
    (skew tells you whether hub defenses like triangle_count's degree
    orientation matter).

    Three partial-combine exchanges, all metadata-sized after the first:
    canonical distinct edges (bucketed by low endpoint, in-task sort+mask
    like triangle_count), per-batch degree partials -> groupby-sum, then
    per-batch histogram partials -> groupby-sum.  Driver state zero.
    """
    import ray
    from ray.data.aggregate import Sum

    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(n, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "deg": pa.array(cnts, pa.int64())}
        )

    def hist_partial(b: pa.Table) -> pa.Table:
        degs, cnts = np.unique(
            b["deg"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"degree": pa.array(degs, pa.int64()),
             "n_nodes": pa.array(cnts, pa.int64())}
        )

    return (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby("degree")
        .aggregate(Sum("n_nodes", alias_name="n_nodes"))
    )


def kcore(
    edges,
    *,
    k: int = 3,
    rounds: int | None = None,
    max_rounds: int = 50,
    broadcast_budget: int = 256 << 20,
):
    """k-core peeling over the UNDIRECTED simple graph of ``edges``
    (src, dst): repeatedly drop nodes with degree < ``k`` (and their
    incident edges) -- the standard graph-density filter (Seidman 1983,
    public), the "well-linked subgraph" analog of the reference's
    authority-cleanup passes (delete_old_authorities drops under-linked
    authorities; SURVEY.md §2.8 U3).

    ``rounds=R`` runs exactly R synchronous peels (deterministic, what
    the SQL oracle unrolls); ``rounds=None`` iterates to the true k-core
    fixpoint, stopping when the survivor count stops changing (capped at
    ``max_rounds``).  Returns a Dataset with one ``node`` column: nodes
    whose degree was >= k entering the last peel.

    Scale shape: each round is one degree combine (per-batch endpoint
    partials -> groupby-sum, shuffle volume O(distinct nodes per
    batch)) plus two membership filters through the broadcast-or-join
    shape (ops/dedup.py semi_join_filter); the edge list re-materializes
    per round to keep the plan depth O(1), mirroring the staged
    connected-components round chains."""
    from ray.data.aggregate import Sum

    from .dedup import semi_join_filter

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())}
        )

    from .dedup import distinct_first

    def pairkey(b: pa.Table) -> pa.Table:
        pk = pc.binary_join_element_wise(
            pc.cast(b["u"], pa.string()), pc.cast(b["v"], pa.string()), "|"
        )
        return b.append_column("pk", pk)

    cur = distinct_first(
        edges.map_batches(canon, batch_format="pyarrow").map_batches(
            pairkey, batch_format="pyarrow"
        ),
        "pk",
    ).drop_columns(["pk"]).materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    n_rounds = rounds if rounds is not None else max_rounds
    prev_count = None
    surv = None
    for _ in range(n_rounds):
        deg = (
            cur.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("c", alias_name="d"))
        )
        surv = deg.map_batches(
            lambda b, _k=k: b.filter(
                pc.greater_equal(b["d"], _k)
            ).select(["node"]),
            batch_format="pyarrow",
        ).materialize()
        n_surv = surv.count()
        if rounds is None and n_surv == prev_count:
            break
        prev_count = n_surv
        if n_surv == 0:
            cur = cur.limit(0).materialize()
            continue
        def swap(b: pa.Table) -> pa.Table:
            return pa.table({"u": b["v"], "v": b["u"]})

        cur = semi_join_filter(
            semi_join_filter(
                cur, surv, "u", keys_col="node",
                broadcast_budget=broadcast_budget,
            ).map_batches(swap, batch_format="pyarrow"),
            surv,
            "u",
            keys_col="node",
            broadcast_budget=broadcast_budget,
        ).map_batches(swap, batch_format="pyarrow").materialize()
    return surv


def label_propagation(
    edges_ds,
    nodes_ds,
    *,
    rounds: int = 3,
    num_buckets: int | None = None,
):
    """Synchronous label-propagation community detection (Raghavan et al.
    2007, public) over the UNDIRECTED simple graph of ``edges_ds``
    (src, dst), for the node set ``nodes_ds`` (node:int64).  The
    communities analog of the reference's duplicate-cluster grouping
    (SURVEY.md §2.5 J4-J6 cluster semantics) generalized beyond
    transitive equality: densely linked pages land in one community.

    Deterministic synchronous variant (SQL-replayable, fixed ``rounds``):
    every node starts labeled with its own id; each round EVERY node
    simultaneously adopts the most frequent label among its neighbors'
    previous-round labels, ties broken by the SMALLEST label; a node with
    no neighbors keeps its current label.  Returns (node:int64,
    label:int64).

    Scale shape (the pagerank two-exchange round, ops/graph.py:56):
    static both-direction edge table bucketed by src ONCE; per round
    exchange 1 joins the (node, label) state onto edges per bucket and
    pre-counts (dst, label) pairs in-task (combiner -- a hot node's
    million same-label neighbors leave the task as one row), exchange 2
    groups the partials by node and takes the lexicographic
    (count DESC, label ASC) argmax with one vectorized lexsort per
    bucket.  Per-round state is one row per node; no driver-side
    iteration over nodes or edges.
    """
    if num_buckets is None:
        n_nodes = nodes_ds.count()
        try:
            import ray

            cpu_cap = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            cpu_cap = 16
        num_buckets = max(4, min(cpu_cap, (n_nodes + 49_999) // 50_000))

    from .dedup import distinct_first

    # -- static: undirected simple edges, both directions, bucketed ------
    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        t = pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())}
        )
        pk = pc.binary_join_element_wise(
            pc.cast(t["u"], pa.string()), pc.cast(t["v"], pa.string()), "|"
        )
        return t.append_column("pk", pk)

    simple = distinct_first(
        edges_ds.map_batches(canon, batch_format="pyarrow"), "pk"
    ).drop_columns(["pk"])

    def both_dirs(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": pa.concat_arrays(
                    [b["u"].combine_chunks(), b["v"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [b["v"].combine_chunks(), b["u"].combine_chunks()]
                ),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    edges = simple.map_batches(both_dirs, batch_format="pyarrow").materialize()

    labels = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "lbl": pc.cast(b["node"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    # -- per-round stages -------------------------------------------------
    def edge_tag(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["key"],
                "dst": b["dst"],
                "lbl": pa.array([None] * len(b), pa.int64()),
                "kind": pa.array([0] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", b["bucket"])

    def label_tag(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["node"],
                "dst": pa.array([None] * len(b), pa.int64()),
                "lbl": b["lbl"],
                "kind": pa.array([1] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def bucket_count(group: pa.Table) -> pa.Table:
        """Join labels onto out-edges by src; combiner-count per
        (dst, label) before the second exchange."""
        kind = group["kind"]
        lk = group.filter(pc.equal(kind, 1))
        ed = group.filter(pc.equal(kind, 0))
        if not len(ed):
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "lbl": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        j = pa.table({"key": ed["key"], "dst": ed["dst"]}).join(
            pa.table({"key": lk["key"], "lbl": lk["lbl"]}),
            keys="key",
            join_type="inner",
            use_threads=False,
        )
        out = (
            pa.table({"key": j["dst"], "lbl": j["lbl"]})
            .group_by(["key", "lbl"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["key", "lbl", "c"])
        )
        return pa.table(
            {
                "key": out["key"],
                "lbl": out["lbl"],
                "c": pc.cast(out["c"], pa.int64()),
            }
        )

    def count_key(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["key"],
                "lbl": b["lbl"],
                "c": b["c"],
                "kind": pa.array([0] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def state_key(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["node"],
                "lbl": b["lbl"],
                "c": pa.array([0] * len(b), pa.int64()),
                "kind": pa.array([1] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def bucket_pick(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        st = group.filter(pc.equal(kind, 1))
        nb = group.filter(pc.equal(kind, 0))
        if len(nb):
            agg = (
                nb.select(["key", "lbl", "c"])
                .group_by(["key", "lbl"], use_threads=False)
                .aggregate([("c", "sum")])
                .rename_columns(["key", "lbl", "c"])
            )
            k = agg["key"].combine_chunks().to_numpy(zero_copy_only=False)
            l = agg["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
            c = agg["c"].combine_chunks().to_numpy(zero_copy_only=False)
            # argmax per key: order by (key, -count, label), keep firsts
            order = np.lexsort((l, -c, k))
            k, l = k[order], l[order]
            first = np.ones(len(k), bool)
            first[1:] = k[1:] != k[:-1]
            pick = pa.table(
                {
                    "key": pa.array(k[first], pa.int64()),
                    "new": pa.array(l[first], pa.int64()),
                }
            )
        else:
            pick = pa.table(
                {"key": pa.array([], pa.int64()), "new": pa.array([], pa.int64())}
            )
        j = pa.table({"key": st["key"], "lbl": st["lbl"]}).join(
            pick, keys="key", join_type="left outer", use_threads=False
        )
        return pa.table(
            {
                "node": j["key"],
                "lbl": pc.coalesce(j["new"], j["lbl"]),
            }
        )

    for _ in range(rounds):
        partials = (
            edges.map_batches(edge_tag, batch_format="pyarrow")
            .union(labels.map_batches(label_tag, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(bucket_count, batch_format="pyarrow")
        )
        labels = (
            partials.map_batches(count_key, batch_format="pyarrow")
            .union(labels.map_batches(state_key, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(bucket_pick, batch_format="pyarrow")
            .repartition(num_buckets)
            .materialize()
        )

    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "label": b["lbl"]}),
        batch_format="pyarrow",
    )


def label_propagation_reference(
    edges: list[tuple[int, int]],
    nodes: list[int],
    *,
    rounds: int = 3,
) -> dict[int, int]:
    """Single-threaded replay of the synchronous LPA contract (the
    differential-test oracle; also documents the semantics)."""
    from collections import Counter

    und = {(min(s, d), max(s, d)) for s, d in edges if s != d}
    nbrs: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in und:
        nbrs[u].append(v)
        nbrs[v].append(u)
    lbl = {v: v for v in nodes}
    for _ in range(rounds):
        new = {}
        for v in nodes:
            if not nbrs[v]:
                new[v] = lbl[v]
                continue
            cnt = Counter(lbl[w] for w in nbrs[v])
            best = max(cnt.items(), key=lambda kv: (kv[1], -kv[0]))
            new[v] = best[0]
        lbl = new
    return lbl


def bfs_levels(edges, seeds, *, max_depth: int = 4):
    """Multi-source directed BFS: the minimum hop count from any seed to
    every reachable node, capped at ``max_depth`` -- the frontier-expansion
    primitive behind crawl-depth budgeting and link-distance features
    (the reference walks work -> expression -> manifestation link chains
    the same way when it resolves related resources; SURVEY.md §2.5 J3).

    Synchronous BSP rounds, state lives in Datasets the whole way:
      frontier(d) --semi-join--> out-edges --distinct dst--> candidates
      candidates --anti-join visited--> frontier(d+1), lvl = d+1
    Both membership tests are the broadcast-or-join shape
    (ops/dedup.py semi_join_filter / anti_join_filter): a vectorized
    ``is_in`` while the key set fits the byte budget, a distributed join
    above it -- so a billion-node visited set degrades to a shuffle, not
    a driver OOM.  Each round materializes only the (node) frontier and
    the (node, lvl) visited table -- O(nodes) rows, never edges; the edge
    Dataset is re-scanned per round (cheap: it is a pruned 2-column read)
    keeping the lazy plan depth O(1) like the staged
    connected-components round chains (stages/canonicalize.py).

    ``edges``: Dataset with int64-castable ``src``/``dst``.  ``seeds``:
    Dataset with a ``node`` column.  Returns ``(node, lvl)`` with
    lvl = min hop distance (seeds at 0); nodes farther than ``max_depth``
    are absent.  Deterministic by construction (set algebra only).
    """
    from .dedup import anti_join_filter, distinct_first, semi_join_filter

    def as_nodes(b: pa.Table) -> pa.Table:
        return pa.table({"node": pc.cast(b["node"], pa.int64())})

    def with_lvl(lvl: int):
        def tag(b: pa.Table) -> pa.Table:
            return pa.table({
                "node": b["node"],
                "lvl": pa.array(np.full(len(b), lvl, np.int64), pa.int64()),
            })
        return tag

    frontier = distinct_first(
        seeds.map_batches(as_nodes, batch_format="pyarrow"), "node"
    ).materialize()
    visited = frontier.map_batches(
        with_lvl(0), batch_format="pyarrow"
    ).materialize()

    for depth in range(1, max_depth + 1):
        hop = semi_join_filter(edges, frontier, "src", keys_col="node")
        cand = distinct_first(
            hop.map_batches(
                lambda b: pa.table({"node": pc.cast(b["dst"], pa.int64())}),
                batch_format="pyarrow",
            ),
            "node",
        )
        frontier = anti_join_filter(cand, visited, "node").materialize()
        if frontier.count() == 0:
            break
        visited = visited.union(
            frontier.map_batches(with_lvl(depth), batch_format="pyarrow")
        ).materialize()

    return visited


def hits(
    edges_ds,
    nodes_ds,
    *,
    rounds: int = 2,
    num_buckets: int | None = None,
    local_budget: int = 128 << 20,
):
    """HITS hubs-and-authorities (Kleinberg 1999, public) over a directed
    edge table (src:int64, dst:int64; parallel edges count multiply) --
    the UNNORMALIZED integer recurrence, ``rounds`` fixed iterations:

        h_0(u) = 1
        a_r(v) = sum over edges (u,v) of h_{r-1}(u)
        h_r(u) = sum over edges (u,v) of a_r(v)

    Skipping the per-round L2 normalization keeps every value an exact
    int64, so the ranking (identical to normalized HITS -- normalization
    is a positive scalar per round) is SQL-replayable bit-for-bit by an
    unrolled join oracle.  Overflow bound (documented): values grow by at
    most max_degree^2 per round; with the default 2 rounds any graph with
    max degree < ~55k stays inside int64.

    Scale shape (the pagerank machinery, ops/graph.py:56): edges are
    bucketed ONCE per orientation and materialized; each half-round
    unions the sparse score rows into the matching edge buckets, does an
    in-task Arrow hash join + a per-opposite-endpoint partial sum (the
    combiner that defuses hot hubs/authorities), then one bucketed
    groupby-sum.  Only (node, value) int64 rows ever move; zero driver
    state.  Nodes with no in-edges (out-edges) simply carry a=0 (h=0) --
    filled in against ``nodes_ds`` at the end with one exchange.

    Budget-gated fast path (the pagerank_local / connected_components_
    local precedent): an edge list <= ``local_budget`` bytes solves in
    ONE task with np.add.at scatter sums -- order-free int64, so the
    output is BIT-IDENTICAL to the distributed rounds (parity-tested);
    the distributed machinery reuses the same materialized edges when
    over budget.  At toy scale the 4-exchanges-per-round fixed cost
    dominates wall time by 10x+; at web scale the gate never fires.
    """
    mat_edges = edges_ds.materialize()
    if local_budget and mat_edges.size_bytes() <= local_budget:
        return _hits_local(mat_edges, nodes_ds, rounds=rounds)
    edges_ds = mat_edges
    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                16, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:
            num_buckets = 16
        n_nodes = nodes_ds.count()
        num_buckets = max(4, min(num_buckets, (n_nodes + 49_999) // 50_000))

    def edge_prep(key_col: str, other_col: str):
        def prep(b: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "key": pc.cast(b[key_col], pa.int64()),
                    "other": pc.cast(b[other_col], pa.int64()),
                    "val": pa.array([None] * len(b), pa.int64()),
                    "kind": pa.array([0] * len(b), pa.int8()),
                }
            )
            return t.append_column(
                "bucket", _bucket_ints(t["key"], num_buckets)
            )

        return prep

    by_src = edges_ds.map_batches(
        edge_prep("src", "dst"), batch_format="pyarrow"
    ).materialize()
    by_dst = edges_ds.map_batches(
        edge_prep("dst", "src"), batch_format="pyarrow"
    ).materialize()

    def score_tag(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": pc.cast(b["node"], pa.int64()),
                "other": pa.array([None] * len(b), pa.int64()),
                "val": pc.cast(b["val"], pa.int64()),
                "kind": pa.array([1] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", _bucket_ints(t["key"], num_buckets))

    def bucket_push(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        sc = group.filter(pc.equal(kind, 1))
        ed = group.filter(pc.equal(kind, 0))
        if not len(ed) or not len(sc):
            return pa.table(
                {"key": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        j = pa.table({"key": ed["key"], "other": ed["other"]}).join(
            pa.table({"key": sc["key"], "v": sc["val"]}),
            keys="key", join_type="inner", use_threads=False,
        )
        out = (
            pa.table({"key": j["other"], "c": j["v"]})
            .group_by(["key"], use_threads=False)
            .aggregate([("c", "sum")])
            .rename_columns(["key", "c"])
        )
        return pa.table(
            {"key": out["key"], "c": pc.cast(out["c"], pa.int64())}
        )

    def rebucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket", _bucket_ints(b["key"], num_buckets)
        )

    def bucket_sum(group: pa.Table) -> pa.Table:
        t = (
            group.select(["key", "c"])
            .group_by(["key"], use_threads=False)
            .aggregate([("c", "sum")])
            .rename_columns(["node", "val"])
        )
        return pa.table(
            {"node": t["node"], "val": pc.cast(t["val"], pa.int64())}
        )

    def half_round(scores, edge_side):
        return (
            edge_side.union(
                scores.map_batches(score_tag, batch_format="pyarrow")
            )
            .groupby("bucket")
            .map_groups(bucket_push, batch_format="pyarrow")
            .map_batches(rebucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_sum, batch_format="pyarrow")
            .materialize()
        )

    h = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "val": pa.array([1] * len(b), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    a = None
    for _ in range(rounds):
        a = half_round(h, by_src)   # push hub scores along edges to dsts
        h = half_round(a, by_dst)   # push auth scores back to srcs

    # fill h/a against the full node set: one groupby-sum exchange
    from ray.data.aggregate import Sum

    def as_triple(col_h: int):
        def f(b: pa.Table) -> pa.Table:
            z = pa.array([0] * len(b), pa.int64())
            return pa.table(
                {
                    "node": pc.cast(b["node"], pa.int64()),
                    "hub": b["val"] if col_h else z,
                    "auth": z if col_h else b["val"],
                }
            )

        return f

    zeros = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "hub": pa.array([0] * len(b), pa.int64()),
                "auth": pa.array([0] * len(b), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return (
        zeros.union(h.map_batches(as_triple(1), batch_format="pyarrow"))
        .union(a.map_batches(as_triple(0), batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Sum("hub", alias_name="hub"),
                   Sum("auth", alias_name="auth"))
    )


def common_neighbors_topk(
    edges_ds,
    *,
    k: int = 50,
    max_neighbors: int = 4096,
    num_buckets: int | None = None,
    strict: bool = True,
    adamic_adar: bool = False,
    jaccard: bool = False,
    degree_budget: int = 256 << 20,
):
    """Common-neighbor link prediction over the undirected simple form of
    a directed edge table: for every non-adjacent node pair (u < v) that
    shares at least one neighbor, count the shared neighbors, and return
    the top ``k`` pairs by (count DESC, u, v).  Emits (u, v, cnt).

    With ``adamic_adar=True`` each shared neighbor w contributes
    ``floor(1e6 / ln(deg(w)) + 0.5)`` integer micro-units instead of 1
    (Adamic--Adar weighting: rare shared neighbors count more).  The
    micro-unit trick is the repo's float-determinism contract
    (trigram_bits / dsir precedent): per-wedge weights round BEFORE the
    sum, so int64 addition is order-free and the DuckDB oracle replays
    bit-for-bit.  deg(w) is the segment size in w's bucket task, which
    holds ALL of w's adjacency rows by construction.  Output column is
    ``score_micro``.

    Scale shape (the triangle_count wedge machinery, segment-vectorized):
    undirect + dedup via one (min,max) groupby; adjacency rows bucket by
    node; each bucket task emits its nodes' neighbor PAIRS with a single
    repeat/arange construction (no Python per node) and pre-combines pair
    counts (Arrow group_by -- the hot-pair defuser); one groupby-sum on
    the packed pair key merges partials; existing edges leave via the
    broadcast-or-join anti-join (ops/dedup.anti_join_filter); top-k is a
    distributed sort + limit.  Node ids must fit 31 bits (the packed
    u<<32|v pair key -- validated, fail loud).

    With ``jaccard=True`` the pair score is neighborhood Jaccard in
    exact integer micro-units: ``jac_micro = floor(1e6 * cn /
    (deg(u) + deg(v) - cn))`` (all terms positive, so truncating and
    flooring division agree and the SQL oracle replays it) -- degrees of
    the undirected simple graph attach via one partial-combine groupby
    broadcast under ``degree_budget`` (join fallback above it), and the
    top-k re-ranks by (jac_micro DESC, u, v).  Output columns
    (u, v, cnt, jac_micro).

    A node with more than ``max_neighbors`` neighbors would emit O(d^2)
    pairs; ``strict=True`` raises (the triangle_count contract), else the
    node's pair list truncates to the id-smallest ``max_neighbors``
    neighbors with a logged warning.
    """
    from ray.data.aggregate import Sum

    from .dedup import anti_join_filter

    if adamic_adar and jaccard:
        raise ValueError("adamic_adar and jaccard are mutually exclusive")
    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                8, int(ray.cluster_resources().get("CPU", 8))
            )
        except Exception:
            num_buckets = 8

    def undirect(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        if len(s) and (s.max() >= (1 << 31) or d.max() >= (1 << 31)):
            raise ValueError("common_neighbors_topk: node ids must fit 31 bits")
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        t = pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())}
        ).group_by(["u", "v"], use_threads=False).aggregate([])
        return t

    e0 = (
        edges_ds.map_batches(undirect, batch_format="pyarrow")
        .groupby(["u", "v"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
        .materialize()
    )

    def adj_rows(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        node = np.concatenate([u, v])
        nb = np.concatenate([v, u])
        t = pa.table(
            {"node": pa.array(node, pa.int64()), "nb": pa.array(nb, pa.int64())}
        )
        return t.append_column("bucket", _bucket_ints(t["node"], num_buckets))

    def wedge_pairs(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy(zero_copy_only=False)
        nb = group["nb"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nb, node))
        node, nb = node[order], nb[order]
        brk = np.empty(len(node), bool)
        brk[:1] = True
        if len(node) > 1:
            brk[1:] = node[1:] != node[:-1]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.append(starts, len(node)))
        over = np.flatnonzero(sizes > max_neighbors)
        if len(over):
            if strict:
                raise ValueError(
                    "common_neighbors_topk: node %r has %d neighbors "
                    "(max_neighbors=%d); raise the cap or pass strict=False"
                    % (int(node[starts[over[0]]]), int(sizes[over[0]]),
                       max_neighbors)
                )
            logging.getLogger(__name__).warning(
                "common_neighbors_topk: truncating %d hot node(s) to %d "
                "neighbors; pair counts for their wedges are partial",
                len(over), max_neighbors,
            )
            seg_of = np.cumsum(brk) - 1
            local = np.arange(len(node)) - starts[seg_of]
            keep = local < max_neighbors
            node, nb = node[keep], nb[keep]
            brk = np.empty(len(node), bool)
            brk[:1] = True
            if len(node) > 1:
                brk[1:] = node[1:] != node[:-1]
            starts = np.flatnonzero(brk)
            sizes = np.diff(np.append(starts, len(node)))
        # all ordered pairs (i<j) inside each segment, one construction
        m = sizes * (sizes - 1) // 2
        if not m.sum():
            return pa.table(
                {"pair": pa.array([], pa.int64()),
                 "cnt": pa.array([], pa.int64())}
            )
        seg_rep = np.repeat(np.arange(len(sizes)), m)
        within = np.arange(len(seg_rep), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(m)[:-1])), m
        )
        # enumerate (i, j), i<j, from the within-segment pair index in
        # colex order: j = floor((1+sqrt(1+8w))/2), i = w - j(j-1)/2.
        # float64 sqrt is exact-enough for w < 2^50; w is bounded by
        # max_neighbors^2/2 (~8.4e6 at the default cap).
        j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * within)) / 2.0).astype(
            np.int64
        )
        i = within - j * (j - 1) // 2
        x = nb[starts[seg_rep] + i]
        y = nb[starts[seg_rep] + j]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        pair = (lo << 32) | hi
        if adamic_adar:
            # per-wedge micro-weight of the CENTER node's degree, rounded
            # before the sum (order-free int64 addition).  Degree-1
            # segments emit no wedges (m=0) but would still hit ln(1)=0
            # here -- substitute 2 so the (never-repeated) weight stays
            # finite.
            wseg = np.floor(
                1e6 / np.log(np.where(sizes > 1, sizes, 2).astype(np.float64))
                + 0.5
            ).astype(np.int64)
            t = (
                pa.table(
                    {
                        "pair": pa.array(pair, pa.int64()),
                        "w": pa.array(np.repeat(wseg, m), pa.int64()),
                    }
                )
                .group_by(["pair"], use_threads=False)
                .aggregate([("w", "sum")])
                .rename_columns(["pair", "cnt"])
            )
        else:
            t = (
                pa.table({"pair": pa.array(pair, pa.int64())})
                .group_by(["pair"], use_threads=False)
                .aggregate([([], "count_all")])
                .rename_columns(["pair", "cnt"])
            )
        return pa.table(
            {"pair": t["pair"], "cnt": pc.cast(t["cnt"], pa.int64())}
        )

    counts = (
        e0.map_batches(adj_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(wedge_pairs, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    existing = e0.map_batches(
        lambda b: pa.table(
            {
                "pair": pc.bit_wise_or(
                    pc.shift_left(b["u"], 32), b["v"]
                )
            }
        ),
        batch_format="pyarrow",
    )
    fresh = anti_join_filter(counts, existing, "pair")

    if jaccard:
        import ray

        def deg_partial(b: pa.Table) -> pa.Table:
            n = np.concatenate(
                [
                    b["u"].to_numpy(zero_copy_only=False),
                    b["v"].to_numpy(zero_copy_only=False),
                ]
            )
            nodes, cnts = np.unique(n, return_counts=True)
            return pa.table(
                {"node": pa.array(nodes, pa.int64()),
                 "deg": pa.array(cnts, pa.int64())}
            )

        deg_ds = (
            e0.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg"))
            .materialize()
        )
        def finish(b: pa.Table, du, dv) -> pa.Table:
            cn = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
            jac = cn * 1_000_000 // (du + dv - cn)
            return pa.table(
                {
                    "u": b["u"], "v": b["v"],
                    "cnt": pa.array(cn, pa.int64()),
                    "jac_micro": pa.array(jac, pa.int64()),
                }
            )

        if deg_ds.size_bytes() > degree_budget:  # pragma: no cover - scale
            from .dedup import normalize_join_blocks

            nparts = max(2, num_buckets // 4)

            def unpack_pair(b: pa.Table) -> pa.Table:
                p = b["pair"].to_numpy(zero_copy_only=False)
                return pa.table(
                    {
                        "u": pa.array(p >> 32, pa.int64()),
                        "v": pa.array(p & 0xFFFFFFFF, pa.int64()),
                        "cnt": b["cnt"],
                    }
                )

            scored = normalize_join_blocks(
                fresh.map_batches(unpack_pair, batch_format="pyarrow"),
                nparts,
            ).join(
                normalize_join_blocks(deg_ds, nparts),
                join_type="inner", num_partitions=nparts,
                on=("u",), right_on=("node",),
            ).map_batches(
                lambda b: b.rename_columns(
                    [
                        "du" if c == "deg" else c
                        for c in b.schema.names
                    ]
                ),
                batch_format="pyarrow",
            )
            scored = normalize_join_blocks(scored, nparts).join(
                normalize_join_blocks(deg_ds, nparts),
                join_type="inner", num_partitions=nparts,
                on=("v",), right_on=("node",),
            ).map_batches(
                lambda b: finish(
                    b,
                    pc.cast(b["du"], pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pc.cast(b["deg"], pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                ),
                batch_format="pyarrow",
            )
        else:
            deg_tbl = pa.concat_tables(
                ray.get(deg_ds.to_arrow_refs()), promote_options="default"
            )
            nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
            degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False)
            o = np.argsort(nodes_np, kind="stable")
            ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})

            class Score:
                def __init__(self):
                    d = ray.get(ref)
                    self.nodes = d["node"]
                    self.degs = d["deg"]

                def __call__(self, b: pa.Table) -> pa.Table:
                    p = b["pair"].to_numpy(zero_copy_only=False)
                    u = p >> 32
                    v = p & 0xFFFFFFFF
                    du = self.degs[np.searchsorted(self.nodes, u)]
                    dv = self.degs[np.searchsorted(self.nodes, v)]
                    t = pa.table(
                        {
                            "u": pa.array(u, pa.int64()),
                            "v": pa.array(v, pa.int64()),
                            "cnt": b["cnt"],
                        }
                    )
                    return finish(t, du, dv)

            scored = fresh.map_batches(
                Score, batch_format="pyarrow", concurrency=2
            )
        return scored.sort(
            key=["jac_micro", "u", "v"], descending=[True, False, False]
        ).limit(k)

    score_col = "score_micro" if adamic_adar else "cnt"

    def unpack(b: pa.Table) -> pa.Table:
        p = b["pair"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(p >> 32, pa.int64()),
                "v": pa.array(p & 0xFFFFFFFF, pa.int64()),
                score_col: b["cnt"],
            }
        )

    return (
        fresh.map_batches(unpack, batch_format="pyarrow")
        .sort(key=[score_col, "u", "v"], descending=[True, False, False])
        .limit(k)
    )


def pagerank_local(
    edges_ds,
    nodes_ds,
    *,
    budget: int = 128 << 20,
    iterations: int = 5,
    scale: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
    seed_fn=None,
    n_seeds: int | None = None,
):
    """CONVERGED-in-one-task PageRank for graphs whose edge list fits a
    single worker (<= ``budget`` bytes) -- the connected_components_local
    precedent (stages/canonicalize.py:502): paying 2 bucketed exchanges x
    ``iterations`` of fixed all-to-all cost to push ranks through a few
    million slim int64 rows is pure overhead.  ONE task runs the exact
    integer recurrence vectorized (np.add.at scatter sums -- order-free
    int64, so the result is BIT-IDENTICAL to the distributed
    :func:`pagerank` and the SQL oracle).  Returns the (node, rank)
    Dataset, or ``None`` when over budget (callers fall back).

    Semantics parity with the distributed operator (verified by test):
    the rank universe is nodes UNION edge sources (a source outside the
    node set still earns teleport mass and pushes contributions);
    contributions to destinations OUTSIDE that universe are dropped;
    ``base``/``share`` denominators use the NODE-SET count / seed count,
    exactly as distributed.
    """
    mat_e = edges_ds.materialize()
    if mat_e.size_bytes() > budget:
        return None
    n_nodes = nodes_ds.count()
    if not n_nodes:
        return nodes_ds.map_batches(
            lambda b: pa.table(
                {"node": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    base = scale // n_nodes
    comp_num = damping_den - damping_num
    if seed_fn is not None:
        if not n_seeds:
            raise ValueError("personalized pagerank needs n_seeds >= 1")
        seed_base = scale // n_seeds
        share_den = n_seeds
    else:
        share_den = n_nodes

    def edge_rows(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": pc.cast(b["src"], pa.int64()),
                "b": pc.cast(b["dst"], pa.int64()),
                "kind": pa.array(np.zeros(len(b), np.int8)),
            }
        )
        return t.append_column("_g", pa.array(np.zeros(len(b), np.int8)))

    def node_rows(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": pc.cast(b["node"], pa.int64()),
                "b": pa.array(np.full(len(b), -1, np.int64)),
                "kind": pa.array(np.ones(len(b), np.int8)),
            }
        )
        return t.append_column("_g", pa.array(np.zeros(len(b), np.int8)))

    def solve(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        bb = g["b"].to_numpy(zero_copy_only=False)
        src, dst = a[kind == 0], bb[kind == 0]
        nodes = a[kind == 1]
        # rank universe: node set UNION edge sources (distributed parity)
        uni = np.unique(np.concatenate([nodes, src]))
        n_u = len(uni)
        si = np.searchsorted(uni, src)
        outdeg = np.zeros(n_u, np.int64)
        np.add.at(outdeg, si, 1)
        # contributions to dsts outside the universe are dropped
        di = np.searchsorted(uni, dst)
        ok = (di < n_u)
        ok[ok] = uni[di[ok]] == dst[ok]
        si_ok, di_ok = si[ok], di[ok]
        if seed_fn is None:
            base_v = np.full(n_u, base, np.int64)
            share_mask = np.ones(n_u, bool)
        else:
            m = seed_fn(uni.astype(np.int64))
            base_v = np.where(m, seed_base, 0).astype(np.int64)
            share_mask = m
        r = base_v.copy()
        safe_deg = np.maximum(outdeg, 1)
        for _ in range(iterations):
            dang = int(r[outdeg == 0].sum())
            share = dang // share_den
            contrib = r // safe_deg
            in_sum = np.zeros(n_u, np.int64)
            np.add.at(in_sum, di_ok, contrib[si_ok])
            r = (
                comp_num * base_v
                + damping_num * (in_sum + np.where(share_mask, share, 0))
            ) // damping_den
        return pa.table(
            {
                "node": pa.array(uni, pa.int64()),
                "rank": pa.array(r, pa.int64()),
            }
        )

    return (
        mat_e.map_batches(edge_rows, batch_format="pyarrow")
        .union(nodes_ds.map_batches(node_rows, batch_format="pyarrow"))
        .groupby("_g")
        .map_groups(solve, batch_format="pyarrow")
    )


def _hits_local(mat_edges, nodes_ds, *, rounds: int) -> "object":
    """One-task HITS solve over a materialized in-budget edge list: the
    exact integer recurrence of :func:`hits`, vectorized with
    np.add.at scatter sums (order-free int64 -> bit-identical to the
    distributed rounds).  Sparse semantics parity: scores propagate only
    along edges; the returned table fills hub=auth=0 for nodes without
    the corresponding adjacency, and (as distributed) scores for edge
    endpoints OUTSIDE the node set are summed into the final fill
    exchange -- here a plain union + np scatter."""

    def edge_rows(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": pc.cast(b["src"], pa.int64()),
                "b": pc.cast(b["dst"], pa.int64()),
                "kind": pa.array(np.zeros(len(b), np.int8)),
            }
        )
        return t.append_column("_g", pa.array(np.zeros(len(b), np.int8)))

    def node_rows(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": pc.cast(b["node"], pa.int64()),
                "b": pa.array(np.full(len(b), -1, np.int64)),
                "kind": pa.array(np.ones(len(b), np.int8)),
            }
        )
        return t.append_column("_g", pa.array(np.zeros(len(b), np.int8)))

    def solve(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        bb = g["b"].to_numpy(zero_copy_only=False)
        src, dst = a[kind == 0], bb[kind == 0]
        nodes = a[kind == 1]
        # score universe: every node or edge endpoint (distributed
        # parity -- sparse rows exist wherever a sum lands)
        uni = np.unique(np.concatenate([nodes, src, dst]))
        si = np.searchsorted(uni, src)
        di = np.searchsorted(uni, dst)
        in_nodes = np.isin(uni, nodes)
        # h0 = 1 for the NODE SET only (distributed parity: initial
        # scores come from nodes_ds; a foreign endpoint starts at 0)
        h = in_nodes.astype(np.int64)
        au = np.zeros(len(uni), np.int64)
        for _ in range(rounds):
            au = np.zeros(len(uni), np.int64)
            np.add.at(au, di, h[si])
            h = np.zeros(len(uni), np.int64)
            np.add.at(h, si, au[di])
        # distributed output: node set LEFT-filled with sparse sums;
        # non-node endpoints appear too (union groupby keeps them) --
        # but zeros rows exist only for the node set, so keep every
        # uni row with nonzero score plus all node-set rows
        keep = in_nodes | (h != 0) | (au != 0)
        return pa.table(
            {
                "node": pa.array(uni[keep], pa.int64()),
                "hub": pa.array(h[keep], pa.int64()),
                "auth": pa.array(au[keep], pa.int64()),
            }
        )

    return (
        mat_edges.map_batches(edge_rows, batch_format="pyarrow")
        .union(nodes_ds.map_batches(node_rows, batch_format="pyarrow"))
        .groupby("_g")
        .map_groups(solve, batch_format="pyarrow")
    )


def _coef_local(u, v, max_out, strict):
    """One-task exact solve of the clustering-coefficient recurrence over
    a distinct canon edge list -- BIT-IDENTICAL to the distributed path
    (same degree-rank orientation, same per-tail cap pick on the
    id-sorted order, same integer micro coefficient), the
    pagerank_local / _hits_local precedent.  Returns the output table.
    """
    logger = logging.getLogger(__name__)
    nodes_all, deg = np.unique(np.concatenate([u, v]), return_counts=True)
    deg = deg.astype(np.int64)
    iu = np.searchsorted(nodes_all, u)
    iv = np.searchsorted(nodes_all, v)
    du, dv = deg[iu], deg[iv]
    fwd = (du < dv) | ((du == dv) & (u < v))
    tails = np.where(fwd, u, v)
    heads = np.where(fwd, v, u)
    # identical wedge construction to the distributed wedges() task
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    brk = np.empty(len(tails), bool)
    brk[:1] = True
    if len(tails) > 1:
        brk[1:] = tails[1:] != tails[:-1]
    seg_of = np.cumsum(brk) - 1
    starts = np.flatnonzero(brk)
    local = np.arange(len(tails)) - starts[seg_of]
    over = np.flatnonzero(
        np.append(starts[1:], len(tails)) - starts > max_out
    )
    if len(over) and strict:
        raise ValueError(
            f"clustering_coefficient(strict=True): {len(over)} tail(s) "
            f"exceed max_out={max_out}; per-node counts would "
            "undercount -- raise max_out or drop strict"
        )
    for si in over:
        logger.warning(
            "clustering_coefficient: tail %d truncated to %d heads; "
            "its (and its heads') triangle counts undercount",
            int(tails[starts[si]]), max_out,
        )
    keep = local < max_out
    tails, heads, seg_of = tails[keep], heads[keep], seg_of[keep]
    n_tri = np.zeros(len(nodes_all), np.int64)
    if len(tails):
        dh = deg[np.searchsorted(nodes_all, heads)]
        order = np.lexsort((heads, dh, seg_of))
        heads, seg_of = heads[order], seg_of[order]
        tails = tails[order]
        brk2 = np.empty(len(seg_of), bool)
        brk2[:1] = True
        if len(seg_of) > 1:
            brk2[1:] = seg_of[1:] != seg_of[:-1]
        starts2 = np.flatnonzero(brk2)
        sizes = np.diff(np.append(starts2, len(seg_of)))
        seg_idx = np.cumsum(brk2) - 1
        local2 = np.arange(len(seg_of)) - starts2[seg_idx]
        counts = sizes[seg_idx] - 1 - local2
        total = int(counts.sum())
        if total:
            a_idx = np.repeat(np.arange(len(seg_of)), counts)
            excl = np.concatenate(([0], np.cumsum(counts)))[:-1]
            b_idx = a_idx + 1 + (np.arange(total) - excl[a_idx])
            n = len(nodes_all)
            ek = np.sort(
                np.searchsorted(nodes_all, tails) * n
                + np.searchsorted(nodes_all, heads)
            )
            wa = np.searchsorted(nodes_all, heads[a_idx])
            wb = np.searchsorted(nodes_all, heads[b_idx])
            wk = wa * n + wb
            pos = np.searchsorted(ek, wk)
            pos[pos >= len(ek)] = len(ek) - 1
            hit = ek[pos] == wk
            corners = np.concatenate(
                [wa[hit], wb[hit],
                 np.searchsorted(nodes_all, tails[a_idx][hit])]
            )
            np.add.at(n_tri, corners, 1)
    keep2 = deg >= 2
    deg2 = deg[keep2]
    nt = n_tri[keep2]
    coef = (2 * nt * 1_000_000) // (deg2 * (deg2 - 1))
    return pa.table(
        {
            "node": pa.array(nodes_all[keep2], pa.int64()),
            "deg": pa.array(deg2, pa.int64()),
            "n_triangles": pa.array(nt, pa.int64()),
            "coef_micro": pa.array(coef, pa.int64()),
        }
    )


def clustering_coefficient(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
    degree_budget: int = 256 << 20,
    max_out: int = 4096,
    strict: bool = False,
    local_budget: int = 64 << 20,
):
    """Local clustering coefficient per node of the UNDIRECTED simple
    graph: ``coef_micro = (2 * triangles(v) * 1e6) // (deg(v) *
    (deg(v) - 1))`` for every node with degree >= 2 -- exact integer
    micro-units, so the DuckDB three-way-self-join oracle replays it
    bit-for-bit.

    This is triangle LISTING, not counting: per-corner attribution needs
    each wedge's tail identity, so wedge rows ``(a, b, tail)`` ship
    uncombined (the inherent listing/counting trade-off; the exchange is
    O(#wedges), bounded O(m^1.5) by the same degree-rank orientation
    that bounds ``triangle_count`` -- hubs become heads, never tails).
    Matched wedges scatter +1 to all three corners with a per-task
    ``np.unique`` combiner before ONE final groupby-sum; degrees come
    from the same partial-combine groupby as ``triangle_count`` and join
    back LEFT so triangle-free nodes emit ``coef_micro = 0``.  Tails
    past ``max_out`` truncate loudly (``strict=True`` raises) -- the
    same never-silent contract as ``triangle_count`` (ADVICE r3).
    """
    import ray
    from ray.data.aggregate import Sum

    logger = logging.getLogger(__name__)

    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    dedup = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .materialize()
    )

    # budget-gated local fast path (pagerank_local precedent): in-budget
    # edge lists solve in ONE task, bit-identical by construction; node
    # count must also keep the dense n*n wedge key inside int64
    if dedup.size_bytes() <= local_budget:
        def tag(b: pa.Table) -> pa.Table:
            return b.append_column(
                "_g", pa.array(np.zeros(len(b), np.int8), pa.int8())
            )

        def solve(g: pa.Table) -> pa.Table:
            return _coef_local(
                g["u"].to_numpy(zero_copy_only=False),
                g["v"].to_numpy(zero_copy_only=False),
                max_out, strict,
            )

        return (
            dedup.map_batches(tag, batch_format="pyarrow")
            .groupby("_g")
            .map_groups(solve, batch_format="pyarrow")
        )

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(n, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "deg": pa.array(cnts, pa.int64())}
        )

    deg_ds = (
        dedup.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
        .materialize()
    )

    if deg_ds.size_bytes() <= degree_budget:
        deg_tbl = pa.concat_tables(
            ray.get(deg_ds.to_arrow_refs()), promote_options="default"
        )
        nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
        degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False)
        o = np.argsort(nodes_np, kind="stable")
        deg_ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})
    else:
        deg_ref = None
        logger.warning(
            "clustering_coefficient: degree table over budget; id-rank "
            "orientation fallback (hub-skew bound is weaker)"
        )

    def orient(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        if deg_ref is not None:
            d = ray.get(deg_ref)
            du = d["deg"][np.searchsorted(d["node"], u)]
            dv = d["deg"][np.searchsorted(d["node"], v)]
            fwd = (du < dv) | ((du == dv) & (u < v))
        else:
            fwd = u < v
        tail = np.where(fwd, u, v)
        head = np.where(fwd, v, u)
        return pa.table(
            {
                "tail": pa.array(tail, pa.int64()),
                "head": pa.array(head, pa.int64()),
                "tb": pa.array((tail % num_buckets).astype(np.int32)),
            }
        )

    oriented = dedup.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(g: pa.Table) -> pa.Table:
        tails = g["tail"].to_numpy(zero_copy_only=False)
        heads = g["head"].to_numpy(zero_copy_only=False)
        d = ray.get(deg_ref) if deg_ref is not None else None
        order = np.lexsort((heads, tails))
        tails, heads = tails[order], heads[order]
        brk = np.empty(len(tails), bool)
        brk[:1] = True
        if len(tails) > 1:
            brk[1:] = tails[1:] != tails[:-1]
        seg_of = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        local = np.arange(len(tails)) - starts[seg_of]
        over = np.flatnonzero(
            np.append(starts[1:], len(tails)) - starts > max_out
        )
        if len(over) and strict:
            raise ValueError(
                f"clustering_coefficient(strict=True): {len(over)} tail(s) "
                f"exceed max_out={max_out}; per-node counts would "
                "undercount -- raise max_out or drop strict"
            )
        for si in over:
            logger.warning(
                "clustering_coefficient: tail %d truncated to %d heads; "
                "its (and its heads') triangle counts undercount",
                int(tails[starts[si]]), max_out,
            )
        keep = local < max_out
        tails, heads, seg_of = tails[keep], heads[keep], seg_of[keep]
        if d is not None:
            dh = d["deg"][np.searchsorted(d["node"], heads)]
            order = np.lexsort((heads, dh, seg_of))
        else:
            order = np.lexsort((heads, seg_of))
        heads, seg_of = heads[order], seg_of[order]
        tails = tails[order]
        brk2 = np.empty(len(seg_of), bool)
        brk2[:1] = True
        if len(seg_of) > 1:
            brk2[1:] = seg_of[1:] != seg_of[:-1]
        starts2 = np.flatnonzero(brk2)
        sizes = np.diff(np.append(starts2, len(seg_of)))
        seg_idx = np.cumsum(brk2) - 1
        local2 = np.arange(len(seg_of)) - starts2[seg_idx]
        counts = sizes[seg_idx] - 1 - local2
        total = int(counts.sum())
        if total == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()),
                 "b": pa.array([], pa.int64()),
                 "tail": pa.array([], pa.int64())}
            )
        a_idx = np.repeat(np.arange(len(seg_of)), counts)
        excl = np.concatenate(([0], np.cumsum(counts)))[:-1]
        b_idx = a_idx + 1 + (np.arange(total) - excl[a_idx])
        return pa.table(
            {
                "a": pa.array(heads[a_idx], pa.int64()),
                "b": pa.array(heads[b_idx], pa.int64()),
                "tail": pa.array(tails[a_idx], pa.int64()),
            }
        )

    cand = oriented.groupby("tb").map_groups(wedges, batch_format="pyarrow")

    P = np.int64(1_000_003)

    def key_cand(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": b["a"], "b": b["b"], "tail": b["tail"],
                "kind": pa.array(np.ones(len(b), np.int8)),
                "kb": pa.array(((a * P + bb) % num_buckets).astype(np.int32)),
            }
        )

    def key_edge(b: pa.Table) -> pa.Table:
        t = b["tail"].to_numpy(zero_copy_only=False)
        h = b["head"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": b["tail"], "b": b["head"],
                "tail": pa.array(np.zeros(len(b), np.int64)),
                "kind": pa.array(np.zeros(len(b), np.int8)),
                "kb": pa.array(((t * P + h) % num_buckets).astype(np.int32)),
            }
        )

    both = cand.map_batches(key_cand, batch_format="pyarrow").union(
        oriented.map_batches(key_edge, batch_format="pyarrow")
    )

    def match(g: pa.Table) -> pa.Table:
        kind = g["kind"]
        c = g.filter(pc.equal(kind, 1))
        e = g.filter(pc.equal(kind, 0))
        if len(c) == 0 or len(e) == 0:
            return pa.table(
                {"node": pa.array([], pa.int64()),
                 "n_tri": pa.array([], pa.int64())}
            )
        j = c.select(["a", "b", "tail"]).join(
            e.select(["a", "b"]), keys=["a", "b"], join_type="inner",
            use_threads=False,
        )
        corners = np.concatenate(
            [
                j["a"].to_numpy(zero_copy_only=False),
                j["b"].to_numpy(zero_copy_only=False),
                j["tail"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(corners, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "n_tri": pa.array(cnts.astype(np.int64), pa.int64())}
        )

    tri = (
        both.groupby("kb")
        .map_groups(match, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("n_tri", alias_name="n_tri"))
    )

    from .dedup import normalize_join_blocks

    deg2 = deg_ds.map_batches(
        lambda b: b.filter(pc.greater_equal(b["deg"], 2)),
        batch_format="pyarrow",
    )

    nparts = max(2, num_buckets // 4)
    joined = normalize_join_blocks(deg2, nparts).join(
        normalize_join_blocks(tri, nparts),
        join_type="left_outer",
        num_partitions=nparts,
        on=("node",),
    )

    def finish(b: pa.Table) -> pa.Table:
        deg = b["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        nt = pc.fill_null(b["n_tri"], 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        coef = (2 * nt * 1_000_000) // (deg * (deg - 1))
        return pa.table(
            {
                "node": b["node"],
                "deg": pa.array(deg, pa.int64()),
                "n_triangles": pa.array(nt, pa.int64()),
                "coef_micro": pa.array(coef, pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def reciprocity(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
):
    """Edge reciprocity of the DIRECTED simple graph: the fraction of
    distinct non-loop directed edges whose reverse edge also exists --
    ``reciprocity_micro`` in exact integer micro-units.  Emits one row
    ``(n_edges, n_reciprocated, reciprocity_micro)``.

    Scale shape: edges canonicalize to ``(min, max, dir)`` and bucket by
    the low endpoint, so BOTH directions of a pair land in the same
    task; one vectorized sort + neighbor-mask pass per bucket dedups and
    counts pairs seeing both directions; the only driver state is the
    O(#buckets) final sum.
    """
    import ray  # noqa: F401
    import ray.data as rd

    if num_buckets is None:
        import ray as _r

        num_buckets = max(4, int(_r.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        rev = (s > d).astype(np.int8)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "r": pa.array(rev, pa.int8()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def count_in_bucket(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        r = g["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((r, v, u))
        u, v, r = u[order], v[order], r[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1]) \
                | (r[1:] != r[:-1])
        u, v, r = u[first], v[first], r[first]
        # distinct directed edges in this bucket
        n_edges = len(u)
        # a pair with both directions = two adjacent rows equal on (u,v)
        both = np.zeros(0, bool)
        if len(u) > 1:
            both = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        n_recip = 2 * int(both.sum())
        return pa.table(
            {"n_edges": pa.array([n_edges], pa.int64()),
             "n_recip": pa.array([n_recip], pa.int64())}
        )

    parts = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_in_bucket, batch_format="pyarrow")
        .materialize()
    )
    n_edges = int(parts.sum("n_edges") or 0)
    n_recip = int(parts.sum("n_recip") or 0)
    micro = (n_recip * 1_000_000 // n_edges) if n_edges else None
    return rd.from_arrow(pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocated": pa.array([n_recip], pa.int64()),
            "reciprocity_micro": pa.array([micro], pa.int64()),
        }
    ))


def harmonic_centrality(edges, seeds_ds, *, max_depth: int = 4):
    """Harmonic centrality of a seed set within a hop cap: for each seed
    s, ``sum over reachable v != s of floor(1e6 / d(s, v))`` (exact
    integer micro-units) plus the reach count -- the bounded-radius
    centrality crawl planners score hub candidates with.

    Composes one :func:`bfs_levels` run PER SEED (the frontier
    semi-join / visited anti-join machinery, unchanged) and reduces each
    (node, lvl) result with a per-batch combiner into two scalars --
    driver state is O(#seeds).  Per-wedge flooring before the sum keeps
    int64 addition order-free, so the recursive-CTE oracle replays the
    score bit-for-bit (the adamic-adar / trigram_bits contract).
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    seed_rows = seeds_ds.take_all()
    out = []
    for r in seed_rows:
        s = int(r["node"])
        one = rd.from_arrow(
            pa.table({"node": pa.array([s], pa.int64())})
        )
        res = bfs_levels(edges, one, max_depth=max_depth)

        def partial(b: pa.Table) -> pa.Table:
            lvl = b["lvl"].to_numpy(zero_copy_only=False)
            lvl = lvl[lvl > 0]
            return pa.table(
                {
                    "h": pa.array(
                        [int((1_000_000 // lvl).sum()) if len(lvl) else 0],
                        pa.int64(),
                    ),
                    "c": pa.array([len(lvl)], pa.int64()),
                }
            )

        agg = res.map_batches(partial, batch_format="pyarrow").aggregate(
            Sum("h", alias_name="h"), Sum("c", alias_name="c")
        )
        out.append((s, int(agg["c"] or 0), int(agg["h"] or 0)))
    out.sort()
    return rd.from_arrow(pa.table(
        {
            "seed": pa.array([t[0] for t in out], pa.int64()),
            "n_reached": pa.array([t[1] for t in out], pa.int64()),
            "harmonic_micro": pa.array([t[2] for t in out], pa.int64()),
        }
    ))


def avg_neighbor_degree(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
    degree_budget: int = 256 << 20,
):
    """Average neighbor degree per node of the UNDIRECTED simple graph
    -- the assortativity feature GNN pipelines compute as a one-hop
    aggregation: ``and_micro = floor(1e6 * sum(deg(nbr)) / deg(node))``
    in exact integer micro-units (all terms non-negative, so truncating
    and flooring division agree and the SQL oracle replays it).

    Scale shape: distinct canon edges (the triangle_count dedup pass),
    ONE partial-combine degree groupby, degrees broadcast under
    ``degree_budget`` (else a distributed join fallback on the same
    keys), then a per-batch scatter combiner emits (node, sum_nbr_deg)
    partials -- each edge contributes its endpoint's degree to the other
    endpoint -- finished by one groupby-sum and a stateless divide.
    """
    import ray
    from ray.data.aggregate import Sum

    logger = logging.getLogger(__name__)

    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    dedup = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .materialize()
    )

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(n, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "deg": pa.array(cnts, pa.int64())}
        )

    deg_ds = (
        dedup.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
        .materialize()
    )

    if deg_ds.size_bytes() > degree_budget:  # pragma: no cover - scale path
        logger.warning(
            "avg_neighbor_degree: degree table over budget; join fallback"
        )
        from .dedup import normalize_join_blocks

        nparts = max(2, num_buckets // 4)
        withdeg = normalize_join_blocks(dedup, nparts).join(
            normalize_join_blocks(deg_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("u",), right_on=("node",),
        )

        def sums_joined(b: pa.Table) -> pa.Table:
            # each edge contributes deg(u) to v and (via the second join
            # orientation below) deg(v) to u; emitted per orientation
            return pa.table(
                {"node": b["v"], "s": pc.cast(b["deg"], pa.int64())}
            )

        part1 = withdeg.map_batches(sums_joined, batch_format="pyarrow")
        withdeg2 = normalize_join_blocks(dedup, nparts).join(
            normalize_join_blocks(deg_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("v",), right_on=("node",),
        )

        def sums_joined2(b: pa.Table) -> pa.Table:
            return pa.table(
                {"node": b["u"], "s": pc.cast(b["deg"], pa.int64())}
            )

        partials = part1.union(
            withdeg2.map_batches(sums_joined2, batch_format="pyarrow")
        )
    else:
        deg_tbl = pa.concat_tables(
            ray.get(deg_ds.to_arrow_refs()), promote_options="default"
        )
        nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
        degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False)
        o = np.argsort(nodes_np, kind="stable")
        deg_ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})

        def sums(b: pa.Table) -> pa.Table:
            d = ray.get(deg_ref)
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            du = d["deg"][np.searchsorted(d["node"], u)]
            dv = d["deg"][np.searchsorted(d["node"], v)]
            n = np.concatenate([u, v])
            s = np.concatenate([dv, du])
            nodes, inv = np.unique(n, return_inverse=True)
            acc = np.zeros(len(nodes), np.int64)
            np.add.at(acc, inv, s)
            return pa.table(
                {"node": pa.array(nodes, pa.int64()),
                 "s": pa.array(acc, pa.int64())}
            )

        partials = dedup.map_batches(sums, batch_format="pyarrow")

    merged = partials.groupby("node").aggregate(Sum("s", alias_name="s"))

    if deg_ds.size_bytes() <= degree_budget:
        def finish(b: pa.Table) -> pa.Table:
            d = ray.get(deg_ref)
            node = b["node"].to_numpy(zero_copy_only=False)
            s = b["s"].to_numpy(zero_copy_only=False).astype(np.int64)
            deg = d["deg"][np.searchsorted(d["node"], node)]
            return pa.table(
                {
                    "node": pa.array(node, pa.int64()),
                    "deg": pa.array(deg, pa.int64()),
                    "sum_nbr_deg": pa.array(s, pa.int64()),
                    "and_micro": pa.array(
                        s * 1_000_000 // deg, pa.int64()
                    ),
                }
            )

        return merged.map_batches(finish, batch_format="pyarrow")

    # scale path: join degrees back on  # pragma: no cover
    from .dedup import normalize_join_blocks

    nparts = max(2, num_buckets // 4)
    out = normalize_join_blocks(merged, nparts).join(
        normalize_join_blocks(deg_ds, nparts),
        join_type="inner", num_partitions=nparts, on=("node",),
    )

    def finish2(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        deg = b["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": b["node"],
                "deg": pa.array(deg, pa.int64()),
                "sum_nbr_deg": pa.array(s, pa.int64()),
                "and_micro": pa.array(s * 1_000_000 // deg, pa.int64()),
            }
        )

    return out.map_batches(finish2, batch_format="pyarrow")


def negative_samples(
    edges_ds,
    nodes_ds,
    n_nodes: int,
    *,
    k: int = 2,
    broadcast_budget: int = 256 << 20,
):
    """Deterministic negative sampling for link-prediction training:
    for every node i, propose ``k`` pseudo-random candidate targets
    ``md5(i:nt) % n`` and keep those that are NOT existing directed
    edges and not self-loops -- the corrupted-pairs generator of
    TransE-style training, replayable in SQL because the proposal
    function is md5 (the _md5_link_graph contract).

    Scale shape: candidates are generated per batch (k rows per node,
    never materialized globally), duplicates collapse per node, and the
    existing-edge membership test packs (src, dst) into one int64 key
    (``src * n + dst``, valid while n^2 < 2^63) routed through the
    shared broadcast-or-join anti-join (ops/dedup.py anti_join_filter)
    -- a billion-edge set degrades to a distributed join, not a driver
    OOM.  Per-row md5 is the documented SQL-replayability tradeoff.
    """
    import hashlib

    from .dedup import anti_join_filter

    if n_nodes * n_nodes >= (1 << 63):  # pragma: no cover - guard
        raise ValueError("negative_samples: n^2 must fit int64 packing")

    def cands(b: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in b["node"].to_pylist():
            seen = set()
            for t in range(k):
                j = int(
                    hashlib.md5(f"{i}:n{t}".encode()).hexdigest()[:8], 16
                ) % n_nodes
                if j != i and j not in seen:
                    seen.add(j)
                    src.append(i)
                    dst.append(j)
        s = np.asarray(src, np.int64)
        d = np.asarray(dst, np.int64)
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "neg_dst": pa.array(d, pa.int64()),
                "pk": pa.array(s * n_nodes + d, pa.int64()),
            }
        )

    def edge_keys(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pk": pa.array(s * n_nodes + d, pa.int64())})

    cand = nodes_ds.map_batches(cands, batch_format="pyarrow")
    keys = edges_ds.map_batches(edge_keys, batch_format="pyarrow")
    kept = anti_join_filter(
        cand, keys, "pk", broadcast_budget=broadcast_budget
    )
    return kept.map_batches(
        lambda b: b.select(["src", "neg_dst"]), batch_format="pyarrow"
    )


def assortativity(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
    degree_budget: int = 256 << 20,
):
    """Degree assortativity of the UNDIRECTED simple graph: the Pearson
    correlation of (deg(a), deg(b)) over the directed orientations of the
    distinct edge set -- the one-number "do hubs link to hubs" diagnostic
    (Newman 2002) crawl/KG pipelines run before choosing a partitioning
    strategy (the reference eyeballs the same thing via its authority
    cross-link counts; SURVEY.md §2.5 J4 neighborhood analysis).

    **Exact by construction.**  Over the symmetric orientation multiset
    Sx = Sy and Sxx = Syy, so

        r = (m*Sxy - Sx^2) / (m*Sxx - Sx^2)

    with m = 2 * #edges and every sufficient statistic an exact int64
    (per-batch combiners -> one tiny sum; deg <= 2^21 and m <= 2^21 keep
    m*Sxy < 2^63, documented bound).  The IEEE finish is one float divide
    on the driver over two exact integers, rounded to 6 decimals -- the
    DuckDB oracle replays it operand-for-operand in HUGEINT then DOUBLE.

    Scale shape: distinct canon edges (the avg_neighbor_degree dedup
    pass), ONE partial-combine degree groupby broadcast under
    ``degree_budget`` (join fallback above it), then per-batch int64
    partials (m, sx, sxy, sxx) -- O(1) rows per batch, O(1) driver state.

    Returns a 1-row table (m, sx, sxy, sxx, r_pearson float64).
    """
    import ray
    from ray.data.aggregate import Sum

    logger = logging.getLogger(__name__)

    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    dedup = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .materialize()
    )

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnts = np.unique(n, return_counts=True)
        return pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "deg": pa.array(cnts, pa.int64())}
        )

    deg_ds = (
        dedup.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
        .materialize()
    )

    def stats_from(du: np.ndarray, dv: np.ndarray) -> pa.Table:
        # symmetric orientations: each undirected edge contributes both
        # (du, dv) and (dv, du), so sx == sy and sxx == syy by design
        m = 2 * len(du)
        sx = int(du.sum() + dv.sum())
        sxy = 2 * int((du * dv).sum())
        sxx = int((du * du).sum() + (dv * dv).sum())
        return pa.table(
            {
                "m": pa.array([m], pa.int64()),
                "sx": pa.array([sx], pa.int64()),
                "sxy": pa.array([sxy], pa.int64()),
                "sxx": pa.array([sxx], pa.int64()),
            }
        )

    if deg_ds.size_bytes() > degree_budget:  # pragma: no cover - scale path
        logger.warning(
            "assortativity: degree table over budget; join fallback"
        )
        from .dedup import normalize_join_blocks

        nparts = max(2, num_buckets // 4)
        j1 = normalize_join_blocks(dedup, nparts).join(
            normalize_join_blocks(deg_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("u",), right_on=("node",),
        )
        j2 = normalize_join_blocks(
            j1.map_batches(
                lambda b: pa.table(
                    {"u": b["u"], "v": b["v"],
                     "du": pc.cast(b["deg"], pa.int64())}
                ),
                batch_format="pyarrow",
            ),
            nparts,
        ).join(
            normalize_join_blocks(deg_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("v",), right_on=("node",),
        )

        def partial_joined(b: pa.Table) -> pa.Table:
            du = b["du"].to_numpy(zero_copy_only=False).astype(np.int64)
            dv = pc.cast(b["deg"], pa.int64()).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            return stats_from(du, dv)

        partials = j2.map_batches(partial_joined, batch_format="pyarrow")
    else:
        deg_tbl = pa.concat_tables(
            ray.get(deg_ds.to_arrow_refs()), promote_options="default"
        )
        nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
        degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False)
        o = np.argsort(nodes_np, kind="stable")
        ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})

        class Partial:
            def __init__(self):
                d = ray.get(ref)
                self.nodes = d["node"]
                self.degs = d["deg"]

            def __call__(self, b: pa.Table) -> pa.Table:
                u = b["u"].to_numpy(zero_copy_only=False)
                v = b["v"].to_numpy(zero_copy_only=False)
                du = self.degs[np.searchsorted(self.nodes, u)]
                dv = self.degs[np.searchsorted(self.nodes, v)]
                return stats_from(du, dv)

        partials = dedup.map_batches(
            Partial, batch_format="pyarrow", concurrency=2
        )

    tot = pa.concat_tables(
        ray.get(partials.materialize().to_arrow_refs()),
        promote_options="default",
    )
    m = int(pc.sum(tot["m"]).as_py() or 0)
    sx = int(pc.sum(tot["sx"]).as_py() or 0)
    sxy = int(pc.sum(tot["sxy"]).as_py() or 0)
    sxx = int(pc.sum(tot["sxx"]).as_py() or 0)
    # exact integer operands (python ints are unbounded; the oracle uses
    # HUGEINT); int->double casts are correctly rounded in both engines,
    # then ONE IEEE divide -- bit-replayable without any decimal rounding
    num = m * sxy - sx * sx
    den = m * sxx - sx * sx
    r = float(num) / float(den) if den else None
    return pa.table(
        {
            "m": pa.array([m], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sxy": pa.array([sxy], pa.int64()),
            "sxx": pa.array([sxx], pa.int64()),
            "r_pearson": pa.array([r], pa.float64()),
        }
    )


def sssp_weighted(
    edges_ds,
    seeds_ds,
    *,
    rounds: int = 3,
    weight_of=None,
):
    """Bounded-round weighted single-source(-set) shortest paths:
    ``rounds`` synchronous Bellman-Ford relaxations over int64 edge
    weights -- d_r(v) = min(d_{r-1}(v), min over in-edges of
    d_{r-1}(u) + w(u,v)) -- the bounded-radius cousin of bfs_levels for
    weighted link graphs (crawl cost, latency, toll routing).

    Exact by construction: distances are int64 mins of int64 sums, both
    order-independent, so the result is bit-identical to the DuckDB
    oracle that unrolls the same recurrence round-for-round.

    Scale shape: the weighted edge list materializes ONCE (slim 3-int
    columns); per-round state is the (node, dist) table -- O(reached
    nodes) rows, never edges; each round is one broadcast-or-join of the
    dist table onto edges (ops/dedup.py semi-join machinery shape) plus
    one groupby-Min, so a billion-node dist table degrades to a shuffle,
    not a driver OOM.

    ``weight_of(src_np, dst_np) -> int64 np.ndarray`` defaults to the
    md5-derived 1..9 weight the oracle replays (the documented per-edge
    md5 tradeoff, as in negative_samples).

    Returns (node, dist) for nodes reachable within ``rounds`` edges.
    """
    import hashlib as _hl

    import ray
    from ray.data.aggregate import Min

    if weight_of is None:
        def weight_of(s: np.ndarray, d: np.ndarray) -> np.ndarray:
            out = np.empty(len(s), np.int64)
            for i in range(len(s)):
                h = _hl.md5(f"{s[i]}:{d[i]}w".encode()).hexdigest()[:8]
                out[i] = 1 + int(h, 16) % 9
            return out

    def weighted(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "w": pa.array(weight_of(s, d), pa.int64()),
            }
        )

    ew = edges_ds.map_batches(weighted, batch_format="pyarrow").materialize()

    def seed_dist(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "dist": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        )

    from .dedup import distinct_first

    dists = distinct_first(
        seeds_ds.map_batches(seed_dist, batch_format="pyarrow"), "node"
    ).materialize()

    budget = 256 << 20
    for _ in range(rounds):
        if (dists.size_bytes() or 0) <= budget:
            tab = pa.concat_tables(
                ray.get(dists.to_arrow_refs()), promote_options="default"
            )
            nodes_np = tab["node"].to_numpy(zero_copy_only=False)
            dist_np = tab["dist"].to_numpy(zero_copy_only=False)
            o = np.argsort(nodes_np, kind="stable")
            ref = ray.put({"node": nodes_np[o], "dist": dist_np[o]})

            class Relax:
                def __init__(self):
                    d = ray.get(ref)
                    self.nodes = d["node"]
                    self.dists = d["dist"]

                def __call__(self, b: pa.Table) -> pa.Table:
                    s = b["src"].to_numpy(zero_copy_only=False)
                    idx = np.searchsorted(self.nodes, s)
                    idx = np.clip(idx, 0, max(len(self.nodes) - 1, 0))
                    hit = (
                        (self.nodes[idx] == s)
                        if len(self.nodes)
                        else np.zeros(len(s), bool)
                    )
                    if not hit.any():
                        return pa.table(
                            {
                                "node": pa.array([], pa.int64()),
                                "dist": pa.array([], pa.int64()),
                            }
                        )
                    nd = (
                        self.dists[idx[hit]]
                        + b["w"].to_numpy(zero_copy_only=False)[hit]
                    )
                    dst = b["dst"].to_numpy(zero_copy_only=False)[hit]
                    # per-batch combiner: min per dst before the exchange
                    ud, inv = np.unique(dst, return_inverse=True)
                    md = np.full(len(ud), np.iinfo(np.int64).max, np.int64)
                    np.minimum.at(md, inv, nd)
                    return pa.table(
                        {
                            "node": pa.array(ud, pa.int64()),
                            "dist": pa.array(md, pa.int64()),
                        }
                    )

            cand = ew.map_batches(Relax, batch_format="pyarrow", concurrency=2)
        else:  # pragma: no cover - scale path
            from .dedup import normalize_join_blocks

            nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
            j = normalize_join_blocks(ew, nparts).join(
                normalize_join_blocks(dists, nparts),
                join_type="inner", num_partitions=nparts,
                on=("src",), right_on=("node",),
            )
            cand = j.map_batches(
                lambda b: pa.table(
                    {
                        "node": b["dst"],
                        "dist": pc.add(
                            pc.cast(b["dist"], pa.int64()),
                            pc.cast(b["w"], pa.int64()),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )

        dists = (
            dists.union(cand)
            .groupby("node")
            .aggregate(Min("dist", alias_name="dist"))
            .materialize()
        )

    return dists


def _ktruss_local(u: np.ndarray, v: np.ndarray, k: int, rounds: int | None,
                  max_rounds: int) -> pa.Table:
    """Solve the whole peel in one task (budget-gated fast path).

    Support is computed with sorted-adjacency set intersections -- the
    same per-edge |N(u) & N(v)| the distributed rounds count, so the two
    paths are identical by construction."""
    need = k - 2
    cur_u, cur_v = u.copy(), v.copy()
    n_rounds = rounds if rounds is not None else max_rounds
    prev = None
    for _ in range(n_rounds):
        if len(cur_u) == 0:
            break
        if rounds is None and prev == len(cur_u):
            break
        prev = len(cur_u)
        adj: dict = {}
        for a, b in zip(cur_u.tolist(), cur_v.tolist()):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        sup = np.fromiter(
            (len(adj[a] & adj[b])
             for a, b in zip(cur_u.tolist(), cur_v.tolist())),
            np.int64, count=len(cur_u),
        )
        keep = sup >= need
        cur_u, cur_v = cur_u[keep], cur_v[keep]
    order = np.lexsort((cur_v, cur_u))
    return pa.table(
        {"u": pa.array(cur_u[order], pa.int64()),
         "v": pa.array(cur_v[order], pa.int64())}
    )


def ktruss(
    edges_ds,
    *,
    k: int = 4,
    rounds: int | None = 3,
    max_rounds: int = 50,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int | None = None,
    max_out: int = 4096,
    strict: bool = False,
    local_budget: int = 8 << 20,
):
    """k-truss peeling over the UNDIRECTED simple graph of ``edges_ds``:
    repeatedly drop every edge supported by fewer than ``k - 2``
    triangles (Cohen 2008, public) -- the edge-level analog of
    :func:`kcore`'s node peel, the standard cohesive-subgraph filter a
    KG cleanup pass runs where k-core is too permissive (an edge can
    join two dense regions without being IN one).

    ``rounds=R`` runs exactly R synchronous peels (what the SQL oracle
    unrolls); ``rounds=None`` iterates to the fixpoint (edge count
    stable, capped at ``max_rounds``).  Returns the surviving DISTINCT
    canonical edges ``(u, v)`` with ``u < v``.

    Scale shape: per round, per-edge support is one triangle-LISTING
    pass -- degree-rank oriented wedges (hubs are heads, never tails, so
    wedge emission is bounded O(m^1.5)) bucket-join against the edge
    set, each matched triangle scatters +1 to its three canonical edges
    through a per-task ``np.unique`` combiner before ONE groupby-sum --
    then one broadcast-or-join semi filter keeps qualifying edges.  The
    edge list re-materializes per round (plan depth O(1), the kcore /
    connected-components round discipline).  Tails past ``max_out``
    truncate loudly; ``strict=True`` raises instead (the
    triangle_count/ADVICE-r3 never-silent contract).  Budget-gated local
    fast path solves in-budget edge lists in ONE task, identically.
    """
    import ray
    from ray.data.aggregate import Sum

    from .dedup import semi_join_filter

    logger = logging.getLogger(__name__)
    if k < 3:
        raise ValueError("ktruss needs k >= 3 (k-2 >= 1 triangle)")
    if num_buckets is None:
        num_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bucket": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def distinct_uv(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.empty(len(u), bool)
        first[:1] = True
        if len(u) > 1:
            first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table(
            {"u": pa.array(u[first], pa.int64()),
             "v": pa.array(v[first], pa.int64())}
        )

    cur = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_uv, batch_format="pyarrow")
        .materialize()
    )

    if cur.size_bytes() <= local_budget:
        def tag(b: pa.Table) -> pa.Table:
            return b.append_column(
                "_g", pa.array(np.zeros(len(b), np.int8), pa.int8())
            )

        def solve(g: pa.Table) -> pa.Table:
            return _ktruss_local(
                g["u"].to_numpy(zero_copy_only=False),
                g["v"].to_numpy(zero_copy_only=False),
                k, rounds, max_rounds,
            )

        return (
            cur.map_batches(tag, batch_format="pyarrow")
            .groupby("_g")
            .map_groups(solve, batch_format="pyarrow")
        )

    P = np.int64(1_000_003)
    need = k - 2
    n_rounds = rounds if rounds is not None else max_rounds
    prev_count = None
    for _ in range(n_rounds):
        n_edges = cur.count()
        if n_edges == 0:
            break
        if rounds is None and prev_count == n_edges:
            break
        prev_count = n_edges

        # degree table for the orientation (per-batch partial combine)
        def deg_partial(b: pa.Table) -> pa.Table:
            n = np.concatenate(
                [
                    b["u"].to_numpy(zero_copy_only=False),
                    b["v"].to_numpy(zero_copy_only=False),
                ]
            )
            nodes, cnts = np.unique(n, return_counts=True)
            return pa.table(
                {"node": pa.array(nodes, pa.int64()),
                 "deg": pa.array(cnts, pa.int64())}
            )

        deg_ds = (
            cur.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg"))
            .materialize()
        )
        if deg_ds.size_bytes() <= (256 << 20):
            t = pa.concat_tables(
                ray.get(deg_ds.to_arrow_refs()), promote_options="default"
            )
            nodes_np = t["node"].to_numpy(zero_copy_only=False)
            degs_np = t["deg"].to_numpy(zero_copy_only=False)
            o = np.argsort(nodes_np, kind="stable")
            deg_ref = ray.put({"node": nodes_np[o], "deg": degs_np[o]})
        else:
            deg_ref = None
            logger.warning(
                "ktruss: degree table over budget; id-rank orientation "
                "fallback (hub-skew bound is weaker)"
            )

        def orient(b: pa.Table, _deg_ref=deg_ref) -> pa.Table:
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            if _deg_ref is not None:
                d = ray.get(_deg_ref)
                du = d["deg"][np.searchsorted(d["node"], u)]
                dv = d["deg"][np.searchsorted(d["node"], v)]
                fwd = (du < dv) | ((du == dv) & (u < v))
            else:
                fwd = u < v
            tail = np.where(fwd, u, v)
            head = np.where(fwd, v, u)
            return pa.table(
                {
                    "tail": pa.array(tail, pa.int64()),
                    "head": pa.array(head, pa.int64()),
                    "tb": pa.array((tail % num_buckets).astype(np.int32)),
                }
            )

        oriented = cur.map_batches(
            orient, batch_format="pyarrow"
        ).materialize()

        def wedges(g: pa.Table) -> pa.Table:
            tails = g["tail"].to_numpy(zero_copy_only=False)
            heads = g["head"].to_numpy(zero_copy_only=False)
            order = np.lexsort((heads, tails))
            tails, heads = tails[order], heads[order]
            brk = np.empty(len(tails), bool)
            brk[:1] = True
            if len(tails) > 1:
                brk[1:] = tails[1:] != tails[:-1]
            seg_of = np.cumsum(brk) - 1
            starts = np.flatnonzero(brk)
            local = np.arange(len(tails)) - starts[seg_of]
            over = np.flatnonzero(
                np.append(starts[1:], len(tails)) - starts > max_out
            )
            if len(over) and strict:
                raise ValueError(
                    f"ktruss(strict=True): {len(over)} tail(s) exceed "
                    f"max_out={max_out}; support would undercount -- "
                    "raise max_out or drop strict"
                )
            for si in over:
                logger.warning(
                    "ktruss: tail %d truncated to %d heads; incident "
                    "supports undercount", int(tails[starts[si]]), max_out,
                )
            keep = local < max_out
            tails, heads, seg_of = tails[keep], heads[keep], seg_of[keep]
            order = np.lexsort((heads, seg_of))
            heads, seg_of = heads[order], seg_of[order]
            tails = tails[order]
            brk2 = np.empty(len(seg_of), bool)
            brk2[:1] = True
            if len(seg_of) > 1:
                brk2[1:] = seg_of[1:] != seg_of[:-1]
            starts2 = np.flatnonzero(brk2)
            sizes = np.diff(np.append(starts2, len(seg_of)))
            seg_idx = np.cumsum(brk2) - 1
            local2 = np.arange(len(seg_of)) - starts2[seg_idx]
            counts = sizes[seg_idx] - 1 - local2
            total = int(counts.sum())
            if total == 0:
                return pa.table(
                    {"a": pa.array([], pa.int64()),
                     "b": pa.array([], pa.int64()),
                     "tail": pa.array([], pa.int64())}
                )
            a_idx = np.repeat(np.arange(len(seg_of)), counts)
            excl = np.concatenate(([0], np.cumsum(counts)))[:-1]
            b_idx = a_idx + 1 + (np.arange(total) - excl[a_idx])
            return pa.table(
                {
                    "a": pa.array(heads[a_idx], pa.int64()),
                    "b": pa.array(heads[b_idx], pa.int64()),
                    "tail": pa.array(tails[a_idx], pa.int64()),
                }
            )

        cand = oriented.groupby("tb").map_groups(
            wedges, batch_format="pyarrow"
        )

        def key_cand(b: pa.Table) -> pa.Table:
            a = b["a"].to_numpy(zero_copy_only=False)
            bb = b["b"].to_numpy(zero_copy_only=False)
            # candidate wedge (a, b) is head-ordered; the edge set is
            # canonical (u < v), so the match key must canonicalize too
            lo = np.minimum(a, bb)
            hi = np.maximum(a, bb)
            return pa.table(
                {
                    "a": pa.array(lo, pa.int64()),
                    "b": pa.array(hi, pa.int64()),
                    "tail": b["tail"],
                    "kind": pa.array(np.ones(len(b), np.int8)),
                    "kb": pa.array(
                        ((lo * P + hi) % num_buckets).astype(np.int32)
                    ),
                }
            )

        def key_edge(b: pa.Table) -> pa.Table:
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "a": b["u"], "b": b["v"],
                    "tail": pa.array(np.zeros(len(b), np.int64)),
                    "kind": pa.array(np.zeros(len(b), np.int8)),
                    "kb": pa.array(
                        ((u * P + v) % num_buckets).astype(np.int32)
                    ),
                }
            )

        both = cand.map_batches(key_cand, batch_format="pyarrow").union(
            cur.map_batches(key_edge, batch_format="pyarrow")
        )

        def match(g: pa.Table) -> pa.Table:
            kind = g["kind"]
            c = g.filter(pc.equal(kind, 1))
            e = g.filter(pc.equal(kind, 0))
            if len(c) == 0 or len(e) == 0:
                return pa.table(
                    {"u": pa.array([], pa.int64()),
                     "v": pa.array([], pa.int64()),
                     "s": pa.array([], pa.int64())}
                )
            j = c.select(["a", "b", "tail"]).join(
                e.select(["a", "b"]), keys=["a", "b"], join_type="inner",
                use_threads=False,
            )
            a = j["a"].to_numpy(zero_copy_only=False)
            b_ = j["b"].to_numpy(zero_copy_only=False)
            t = j["tail"].to_numpy(zero_copy_only=False)
            # scatter +1 to the triangle's three canonical edges
            eu = np.concatenate([a, np.minimum(t, a), np.minimum(t, b_)])
            ev = np.concatenate([b_, np.maximum(t, a), np.maximum(t, b_)])
            if len(eu) and (eu.min() < 0 or eu.max() >= 1 << 32
                            or ev.max() >= 1 << 32):
                # packed-key combiner needs ids in [0, 2^32); fall back
                # to a lexsort run-length combine for wider id spaces
                order = np.lexsort((ev, eu))
                eu, ev = eu[order], ev[order]
                brk = np.empty(len(eu), bool)
                brk[:1] = True
                brk[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
                starts = np.flatnonzero(brk)
                cnt = np.diff(np.append(starts, len(eu)))
                return pa.table(
                    {
                        "u": pa.array(eu[starts], pa.int64()),
                        "v": pa.array(ev[starts], pa.int64()),
                        "s": pa.array(cnt.astype(np.int64), pa.int64()),
                    }
                )
            key = (eu << np.int64(32)) | ev
            uniq, cnt = np.unique(key, return_counts=True)
            return pa.table(
                {
                    "u": pa.array((uniq >> np.int64(32)), pa.int64()),
                    "v": pa.array(uniq & np.int64(0xFFFFFFFF), pa.int64()),
                    "s": pa.array(cnt.astype(np.int64), pa.int64()),
                }
            )

        sup = (
            both.groupby("kb")
            .map_groups(match, batch_format="pyarrow")
            .groupby(["u", "v"])
            .aggregate(Sum("s", alias_name="s"))
        )

        def pairkey(b: pa.Table) -> pa.Table:
            return b.append_column(
                "pk",
                pc.binary_join_element_wise(
                    pc.cast(b["u"], pa.string()),
                    pc.cast(b["v"], pa.string()), "|",
                ),
            )

        good = sup.map_batches(pairkey, batch_format="pyarrow").filter(
            expr=f"s >= {need}"
        )
        cur = semi_join_filter(
            cur.map_batches(pairkey, batch_format="pyarrow"), good, "pk"
        ).drop_columns(["pk"]).materialize()

    return cur


def random_walks(
    edges,
    *,
    steps: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    broadcast_budget: int = 256 << 20,
):
    """Deterministic fixed-length random-walk generation (the DeepWalk /
    node2vec corpus-prep step, Perozzi 2014, public): one walk per
    starting node over the DIRECTED simple graph; at each step the next
    hop is out-neighbor number ``md5(f"{cur}:{step}") % outdeg`` in
    dst-sorted order -- a pure function of (node, step), so the DuckDB
    oracle replays every choice and the result is reproducible across
    any execution order (the negative_samples md5 discipline; per-row
    md5 is the documented SQL-replay tradeoff).  Walks that reach a
    node with no out-edges stop; remaining steps are NULL.

    Returns (start, s1..s{steps}) int64 columns.

    Scale shape: the indexed adjacency (node, idx, nbr, deg) builds with
    one bucketed distinct + per-bucket rank pass; under the byte budget
    it broadcasts once via ray.put and each step is a stateless
    vectorized gather over the frontier batch (walk state never
    exceeds one (start, cur) row per walk); above budget each step is
    one distributed join on the (node, idx) composite key."""
    import hashlib

    import ray
    from ray.data.aggregate import Count  # noqa: F401 (adj path below)

    nb = 64

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "node": pa.array(s, pa.int64()),
                "nbr": pa.array(d, pa.int64()),
                "bucket": pa.array((s % nb).astype(np.int32)),
            }
        )

    def rank_in_node(g: pa.Table) -> pa.Table:
        n = g["node"].to_numpy(zero_copy_only=False)
        v = g["nbr"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, n))
        n, v = n[order], v[order]
        first = np.empty(len(n), bool)
        first[:1] = True
        if len(n) > 1:
            first[1:] = (n[1:] != n[:-1]) | (v[1:] != v[:-1])
        n, v = n[first], v[first]
        brk = np.empty(len(n), bool)
        brk[:1] = True
        if len(n) > 1:
            brk[1:] = n[1:] != n[:-1]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        idx = np.arange(len(n)) - starts[seg]
        deg = np.diff(np.append(starts, len(n)))[seg]
        return pa.table(
            {
                "node": pa.array(n, pa.int64()),
                "idx": pa.array(idx, pa.int64()),
                "nbr": pa.array(v, pa.int64()),
                "deg": pa.array(deg, pa.int64()),
            }
        )

    adj = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(rank_in_node, batch_format="pyarrow")
        .materialize()
    )

    def h_pick(cur: np.ndarray, step: int) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(f"{c}:{step}".encode()).hexdigest()[:8], 16)
             for c in cur.tolist()),
            np.int64, count=len(cur),
        )

    nodes = adj.map_batches(
        lambda b: pa.table(
            {"start": b["node"].filter(pc.equal(b["idx"], 0))}
        ),
        batch_format="pyarrow",
    )

    if adj.size_bytes() <= broadcast_budget:
        tab = pa.concat_tables(
            ray.get(adj.to_arrow_refs()), promote_options="default"
        )
        n_np = tab["node"].to_numpy(zero_copy_only=False)
        i_np = tab["idx"].to_numpy(zero_copy_only=False)
        if len(n_np) and (n_np.min() < 0 or n_np.max() >= 1 << 43
                          or i_np.max() >= 1 << 20):
            raise ValueError(
                "random_walks: broadcast index packs (node, idx) into "
                "int64 -- needs 0 <= node < 2^43 and outdeg < 2^20; "
                "remap ids or lower the budget to force the join path"
            )
        order = np.lexsort((i_np, n_np))
        ref = ray.put(
            {
                "key": n_np[order] * np.int64(1 << 20) + i_np[order],
                "nbr": tab["nbr"].to_numpy(zero_copy_only=False)[order],
                "node": n_np[order],
                "deg": tab["deg"].to_numpy(zero_copy_only=False)[order],
            }
        )

        class Walk:
            def __init__(self):
                self.a = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                a = self.a
                start = b["start"].to_numpy(zero_copy_only=False)
                cols = {"start": pa.array(start, pa.int64())}
                cur = start.copy()
                alive = np.ones(len(cur), bool)
                for st in range(1, steps + 1):
                    nxt = np.full(len(cur), -1, np.int64)
                    if alive.any():
                        c = cur[alive]
                        pos = np.searchsorted(a["node"], c)
                        ok = (pos < len(a["node"])) & (a["node"][
                            np.minimum(pos, len(a["node"]) - 1)] == c)
                        pick = np.zeros(len(c), np.int64)
                        if ok.any():
                            deg = a["deg"][pos[ok]]
                            pick[ok] = h_pick(c[ok], st) % deg
                            key = c[ok] * np.int64(1 << 20) + pick[ok]
                            at = np.searchsorted(a["key"], key)
                            sel = np.full(len(c), -1, np.int64)
                            sel[ok] = a["nbr"][at]
                            nxt[alive] = sel
                        else:  # pragma: no cover
                            nxt[alive] = -1
                    cols[f"s{st}"] = pa.array(
                        [int(x) if x >= 0 else None for x in nxt],
                        pa.int64(),
                    )
                    alive = nxt >= 0
                    cur = np.where(alive, nxt, cur)
                return pa.table(cols)

        return nodes.map_batches(Walk, concurrency=(1, 8),
                                 batch_format="pyarrow")

    # scale path: one distributed join per step on the (node, idx) key
    from .dedup import normalize_join_blocks

    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))
    deg_side = adj.map_batches(
        lambda b: b.filter(pc.equal(b["idx"], 0)).select(["node", "deg"]),
        batch_format="pyarrow",
    )
    state = nodes.map_batches(
        lambda b: pa.table({"start": b["start"], "cur": b["start"]}),
        batch_format="pyarrow",
    )
    outs = None
    for st in range(1, steps + 1):
        with_deg = normalize_join_blocks(state, nparts).join(
            normalize_join_blocks(deg_side, nparts),
            join_type="left_outer", num_partitions=nparts,
            on=("cur",), right_on=("node",),
        )

        def pick_key(b: pa.Table, _st=st) -> pa.Table:
            cur = b["cur"].to_numpy(zero_copy_only=False)
            deg = b["deg"].to_numpy(zero_copy_only=False)
            live = ~pa.compute.is_null(b["deg"]).to_numpy(
                zero_copy_only=False)
            pick = np.zeros(len(cur), np.int64)
            if live.any():
                pick[live] = h_pick(cur[live], _st) % deg[live]
            return pa.table(
                {
                    "start": b["start"],
                    "cur": b["cur"],
                    "idx": pa.array(pick, pa.int64()),
                    "live": pa.array(live),
                }
            )

        keyed = with_deg.map_batches(pick_key, batch_format="pyarrow")
        stepped = normalize_join_blocks(
            keyed.filter(expr="live == True"), nparts
        ).join(
            normalize_join_blocks(
                adj.select_columns(["node", "idx", "nbr"]), nparts
            ),
            join_type="inner", num_partitions=nparts,
            on=("cur", "idx"), right_on=("node", "idx"),
        ).map_batches(
            lambda b, _st=st: pa.table(
                {"start": b["start"], f"s{_st}": b["nbr"],
                 "cur": b["nbr"]}
            ),
            batch_format="pyarrow",
        ).materialize()
        col = stepped.map_batches(
            lambda b, _st=st: b.select(["start", f"s{_st}"]),
            batch_format="pyarrow",
        )
        outs = col if outs is None else normalize_join_blocks(
            outs, nparts
        ).join(
            normalize_join_blocks(col, nparts),
            join_type="left_outer", num_partitions=nparts, on=("start",),
        )
        state = stepped.map_batches(
            lambda b: b.select(["start", "cur"]), batch_format="pyarrow"
        )
    final = normalize_join_blocks(nodes, nparts).join(
        normalize_join_blocks(outs, nparts),
        join_type="left_outer", num_partitions=nparts, on=("start",),
    )
    return final.map_batches(
        lambda b: b.select(["start"] + [f"s{i}" for i in
                                        range(1, steps + 1)]),
        batch_format="pyarrow",
    )


def temporal_reachability(
    edges_ds,
    seeds_ds,
    *,
    rounds: int = 3,
    stamp_of=None,
    budget: int = 256 << 20,
):
    """Bounded-round earliest-arrival reachability over a TEMPORAL graph:
    each edge carries a departure stamp ``t`` and a duration ``dur``; a
    walk may take edge (u, v, t, dur) only if it has already arrived at
    ``u`` by time ``t`` (a >= arrival constraint SQL windows cannot see),
    and then reaches ``v`` at ``t + dur``.  ``rounds`` synchronous
    relaxations compute EA_r(v) = min(EA_{r-1}(v), min over in-edges with
    t >= EA_{r-1}(u) of t + dur) -- the contact-network / crawl-recency
    cousin of sssp_weighted (marc2rdf analog: OAI harvest windows gate
    which records a downstream update pass may see, oai.rb's
    from/until windows).

    Exact by construction: arrivals are int64 mins of int64 sums gated by
    an int64 comparison, all order-independent, so the result is
    bit-identical to the DuckDB oracle that unrolls the recurrence.

    Scale shape identical to sssp_weighted: the stamped edge list
    materializes once (slim 4-int columns); per-round state is the
    (node, arrival) table, broadcast under a 256 MB budget via sorted
    searchsorted lookup, degrading to a distributed hash join above it;
    a per-batch min-per-dst combiner defuses hot destinations before the
    exchange.

    ``stamp_of(src_np, dst_np) -> (t_np, dur_np)`` defaults to the
    md5-derived (t in 0..999, dur in 1..5) pair the oracle replays.

    Returns (node, arrival) for nodes reachable within ``rounds`` hops.
    Seeds start with arrival 0.
    """
    import hashlib as _hl

    import ray
    from ray.data.aggregate import Min

    if stamp_of is None:
        def stamp_of(s: np.ndarray, d: np.ndarray):
            t = np.empty(len(s), np.int64)
            dur = np.empty(len(s), np.int64)
            for i in range(len(s)):
                h = _hl.md5(f"{s[i]}:{d[i]}t".encode()).hexdigest()
                t[i] = int(h[:8], 16) % 1000
                dur[i] = 1 + int(h[8:16], 16) % 5
            return t, dur

    def stamped(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        t, dur = stamp_of(s, d)
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "t": pa.array(t, pa.int64()),
                "dur": pa.array(dur, pa.int64()),
            }
        )

    ew = edges_ds.map_batches(stamped, batch_format="pyarrow").materialize()

    def seed_arr(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "arrival": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        )

    from .dedup import distinct_first

    arrivals = distinct_first(
        seeds_ds.map_batches(seed_arr, batch_format="pyarrow"), "node"
    ).materialize()

    # budget-gated fast path: when the stamped edge list and the seed set
    # both fit, ONE task runs every synchronous relaxation with the same
    # int64 math (parity-tested in tests/test_graph_local_parity.py).
    if (
        (ew.size_bytes() or 0) <= budget
        and (arrivals.size_bytes() or 0) <= budget
    ):
        import ray as _ray

        seeds_np = np.concatenate(
            [
                t["node"].to_numpy(zero_copy_only=False)
                for t in _ray.get(arrivals.to_arrow_refs())
                if t.num_rows
            ]
            or [np.array([], np.int64)]
        ).astype(np.int64)
        return _run_in_one_task(
            ew, lambda g: _temporal_solve_local(g, seeds_np, rounds)
        )

    for _ in range(rounds):
        if (arrivals.size_bytes() or 0) <= budget:
            tab = pa.concat_tables(
                ray.get(arrivals.to_arrow_refs()), promote_options="default"
            )
            nodes_np = tab["node"].to_numpy(zero_copy_only=False)
            arr_np = tab["arrival"].to_numpy(zero_copy_only=False)
            o = np.argsort(nodes_np, kind="stable")
            ref = ray.put({"node": nodes_np[o], "arrival": arr_np[o]})

            class Relax:
                def __init__(self):
                    d = ray.get(ref)
                    self.nodes = d["node"]
                    self.arr = d["arrival"]

                def __call__(self, b: pa.Table) -> pa.Table:
                    s = b["src"].to_numpy(zero_copy_only=False)
                    idx = np.searchsorted(self.nodes, s)
                    idx = np.clip(idx, 0, max(len(self.nodes) - 1, 0))
                    hit = (
                        (self.nodes[idx] == s)
                        if len(self.nodes)
                        else np.zeros(len(s), bool)
                    )
                    if hit.any():
                        # temporal gate: departure must not precede arrival
                        hit &= (
                            b["t"].to_numpy(zero_copy_only=False)
                            >= np.where(hit, self.arr[idx], 0)
                        ) & hit
                    if not hit.any():
                        return pa.table(
                            {
                                "node": pa.array([], pa.int64()),
                                "arrival": pa.array([], pa.int64()),
                            }
                        )
                    na = (
                        b["t"].to_numpy(zero_copy_only=False)[hit]
                        + b["dur"].to_numpy(zero_copy_only=False)[hit]
                    )
                    dst = b["dst"].to_numpy(zero_copy_only=False)[hit]
                    ud, inv = np.unique(dst, return_inverse=True)
                    ma = np.full(len(ud), np.iinfo(np.int64).max, np.int64)
                    np.minimum.at(ma, inv, na)
                    return pa.table(
                        {
                            "node": pa.array(ud, pa.int64()),
                            "arrival": pa.array(ma, pa.int64()),
                        }
                    )

            cand = ew.map_batches(Relax, batch_format="pyarrow", concurrency=2)
        else:  # pragma: no cover - scale path
            from .dedup import normalize_join_blocks

            nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
            j = normalize_join_blocks(ew, nparts).join(
                normalize_join_blocks(arrivals, nparts),
                join_type="inner", num_partitions=nparts,
                on=("src",), right_on=("node",),
            )

            def relax_joined(b: pa.Table) -> pa.Table:
                t = pc.cast(b["t"], pa.int64())
                ok = pc.greater_equal(t, pc.cast(b["arrival"], pa.int64()))
                b = b.filter(ok)
                return pa.table(
                    {
                        "node": b["dst"],
                        "arrival": pc.add(
                            pc.cast(b["t"], pa.int64()),
                            pc.cast(b["dur"], pa.int64()),
                        ),
                    }
                )

            cand = j.map_batches(relax_joined, batch_format="pyarrow")

        arrivals = (
            arrivals.union(cand)
            .groupby("node")
            .aggregate(Min("arrival", alias_name="arrival"))
            .materialize()
        )

    return arrivals


def _first_by_wuv(g: pa.Table) -> pa.Table:
    """First row per group after an exact (w, u, v) lexicographic sort --
    the shared deterministic argmin finisher for Boruvka selection."""
    w = g["w"].to_numpy(zero_copy_only=False)
    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    o = np.lexsort((v, u, w))
    return g.take(pa.array(o[:1]))


def boruvka_msf(
    edges_ds,
    nodes_ds,
    *,
    rounds: int | None = 2,
    weight_of=None,
    budget: int = 256 << 20,
    local_budget: int | None = None,
):
    """Boruvka minimum-spanning-forest rounds over the undirected md5
    link graph -- the canonical "log-round" distributed graph algorithm
    (each round every component picks its minimum outgoing edge under the
    total order (w, u, v), selected edges contract via connected
    components, components at least halve per round).

    ``rounds=R`` gives the documented fixed-round semantics the DuckDB
    oracle unrolls (exact MSF once R >= log2(n), partial forest before
    that -- the ktruss fixed-round contract); ``rounds=None`` runs to the
    fixpoint (no component has an outgoing edge), which IS the exact MSF
    for the (w, u, v) total order: with a strict total order on edges the
    minimum spanning forest is unique and Boruvka and Kruskal agree
    (tests/test_graph_msf.py proves this against an independent
    union-find Kruskal).

    Exact by construction: selection is an argmin under an integer
    lexicographic key (order-independent), contraction is the min-label
    CC fixpoint -- no floats anywhere.

    Scale shape (100 TB): the weighted canonical edge list materializes
    ONCE (3 int64 columns); per-round state is the (node, comp) table --
    one slim row per node, broadcast under ``budget`` via sorted
    searchsorted arrays and degrading to a distributed hash join above
    it; selection partials cut each batch to <= #comps rows BEFORE the
    exchange (per-batch lexsort argmin combiner), the per-comp finish is
    one groupby; contraction reuses the budget-gated
    connected_components_local fast path with the distributed
    pointer-doubling rounds as the over-budget fallback.  Selected-edge
    sets shrink geometrically (<= #comps/2 edges per round), so the
    whole tail costs less than round 1.

    Node ids must fit uint32 (packed (u << 32) | v distinct keys --
    validated loudly); weights default to the md5-derived 48-bit integer
    the oracle replays: w(u, v) = int(md5(f"{u}~{v}m")[:12], 16).

    Returns a Dataset of MSF edges (src, dst, w), src < dst.
    """
    import hashlib as _hl

    import ray

    from ..stages.canonicalize import (
        connected_components,
        connected_components_local,
    )

    if weight_of is None:
        def weight_of(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            out = np.empty(len(u), np.int64)
            for i in range(len(u)):
                h = _hl.md5(f"{u[i]}~{v[i]}m".encode()).hexdigest()[:12]
                out[i] = int(h, 16)
            return out

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        if len(u) and (v.max() >= (1 << 32) or u.min() < 0):
            raise ValueError("boruvka_msf: node ids must fit uint32")
        key = np.unique((u << np.int64(32)) | v)
        u = key >> np.int64(32)
        v = key & np.int64((1 << 32) - 1)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "w": pa.array(weight_of(u, v), pa.int64()),
            }
        )

    # global distinct: the per-batch unique above dedupes within a batch,
    # one (u, v) groupby dedupes across batches -- duplicates would not
    # change any argmin (identical (w, u, v) keys) but would inflate the
    # materialized edge list.
    from .dedup import distinct_first

    def packed(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "_k", pa.array((u << np.int64(32)) | v, pa.int64())
        )

    ew = distinct_first(
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .map_batches(packed, batch_format="pyarrow"),
        "_k",
    ).map_batches(
        lambda b: b.select(["u", "v", "w"]), batch_format="pyarrow"
    ).materialize()

    # budget-gated fast path: the canonical weighted edge list is orders
    # smaller than the corpus that produced it; when it fits one task,
    # ONE worker runs every round with the identical deterministic math
    # (parity-tested in tests/test_graph_local_parity.py).  Isolated
    # nodes never select an edge, so the edge list alone suffices.
    if (ew.size_bytes() or 0) <= (
        budget if local_budget is None else local_budget
    ):
        return _run_in_one_task(
            ew, lambda g: _boruvka_solve_local(g, rounds)
        )

    comp = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "comp": pc.cast(b["node"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    msf = None
    r = 0
    while rounds is None or r < rounds:
        r += 1
        if (comp.size_bytes() or 0) <= budget:
            tab = pa.concat_tables(
                ray.get(comp.to_arrow_refs()), promote_options="default"
            )
            nodes_np = tab["node"].to_numpy(zero_copy_only=False)
            comp_np = tab["comp"].to_numpy(zero_copy_only=False)
            o = np.argsort(nodes_np, kind="stable")
            ref = ray.put({"node": nodes_np[o], "comp": comp_np[o]})

            class Attach:
                def __init__(self):
                    d = ray.get(ref)
                    self.nodes = d["node"]
                    self.comps = d["comp"]

                def _lookup(self, ids: np.ndarray) -> np.ndarray:
                    idx = np.searchsorted(self.nodes, ids)
                    idx = np.clip(idx, 0, max(len(self.nodes) - 1, 0))
                    out = self.comps[idx]
                    miss = self.nodes[idx] != ids
                    out[miss] = ids[miss]  # unmapped nodes own themselves
                    return out

                def __call__(self, b: pa.Table) -> pa.Table:
                    u = b["u"].to_numpy(zero_copy_only=False)
                    v = b["v"].to_numpy(zero_copy_only=False)
                    w = b["w"].to_numpy(zero_copy_only=False)
                    cu = self._lookup(u)
                    cv = self._lookup(v)
                    keep = cu != cv
                    u, v, w = u[keep], v[keep], w[keep]
                    cu, cv = cu[keep], cv[keep]
                    # both directions: each endpoint component is a
                    # candidate owner of this outgoing edge
                    compcol = np.concatenate([cu, cv])
                    w2 = np.concatenate([w, w])
                    u2 = np.concatenate([u, u])
                    v2 = np.concatenate([v, v])
                    cu2 = np.concatenate([cu, cu])
                    cv2 = np.concatenate([cv, cv])
                    # per-batch combiner: argmin per comp by (w, u, v)
                    o = np.lexsort((v2, u2, w2, compcol))
                    compcol, w2, u2, v2, cu2, cv2 = (
                        compcol[o], w2[o], u2[o], v2[o], cu2[o], cv2[o]
                    )
                    first = np.ones(len(compcol), bool)
                    first[1:] = compcol[1:] != compcol[:-1]
                    return pa.table(
                        {
                            "comp": pa.array(compcol[first], pa.int64()),
                            "w": pa.array(w2[first], pa.int64()),
                            "u": pa.array(u2[first], pa.int64()),
                            "v": pa.array(v2[first], pa.int64()),
                            "cu": pa.array(cu2[first], pa.int64()),
                            "cv": pa.array(cv2[first], pa.int64()),
                        }
                    )

            cand = ew.map_batches(Attach, batch_format="pyarrow",
                                  concurrency=2)
        else:  # pragma: no cover - scale path
            from .dedup import normalize_join_blocks

            nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
            j = normalize_join_blocks(ew, nparts).join(
                normalize_join_blocks(
                    comp.map_batches(
                        lambda b: b.rename_columns(["node", "cu"]),
                        batch_format="pyarrow",
                    ),
                    nparts,
                ),
                join_type="inner", num_partitions=nparts,
                on=("u",), right_on=("node",),
            )
            j = normalize_join_blocks(j, nparts).join(
                normalize_join_blocks(
                    comp.map_batches(
                        lambda b: b.rename_columns(["node", "cv"]),
                        batch_format="pyarrow",
                    ),
                    nparts,
                ),
                join_type="inner", num_partitions=nparts,
                on=("v",), right_on=("node",),
            )

            def emit_dirs(b: pa.Table) -> pa.Table:
                cu = b["cu"].to_numpy(zero_copy_only=False)
                cv = b["cv"].to_numpy(zero_copy_only=False)
                keep = cu != cv
                b = b.filter(pa.array(keep))
                cu, cv = cu[keep], cv[keep]
                t1 = pa.table(
                    {"comp": pa.array(cu, pa.int64()), "w": b["w"],
                     "u": b["u"], "v": b["v"],
                     "cu": pa.array(cu, pa.int64()),
                     "cv": pa.array(cv, pa.int64())}
                )
                t2 = t1.set_column(0, "comp", pa.array(cv, pa.int64()))
                return pa.concat_tables([t1, t2])

            cand = j.map_batches(emit_dirs, batch_format="pyarrow")

        sel = _first_by_wuv_bucketed(cand, "comp")
        selected = distinct_first(
            sel.map_batches(packed, batch_format="pyarrow"), "_k"
        ).map_batches(
            lambda b: b.select(["u", "v", "w", "cu", "cv"]),
            batch_format="pyarrow",
        ).materialize()
        if selected.count() == 0:
            break

        picked = selected.map_batches(
            lambda b: b.select(["u", "v", "w"]), batch_format="pyarrow"
        )
        msf = picked if msf is None else msf.union(picked).materialize()

        # contract: CC over the selected component-pair graph
        cc_edges = selected.map_batches(
            lambda b: pa.table({"subj": b["cu"], "obj": b["cv"]}),
            batch_format="pyarrow",
        )
        cc = connected_components_local(cc_edges, budget=budget)
        if cc is None:  # pragma: no cover - scale path
            cc = connected_components(cc_edges, rounds=20, doubling=True)
        cc = cc.materialize()

        if (cc.size_bytes() or 0) <= budget:
            cct = pa.concat_tables(
                ray.get(cc.to_arrow_refs()), promote_options="default"
            )
            old = cct["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            new = cct["root"].to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.argsort(old, kind="stable")
            mref = ray.put({"old": old[o], "new": new[o]})

            class Relabel:
                def __init__(self):
                    d = ray.get(mref)
                    self.old = d["old"]
                    self.new = d["new"]

                def __call__(self, b: pa.Table) -> pa.Table:
                    c = b["comp"].to_numpy(zero_copy_only=False).copy()
                    idx = np.searchsorted(self.old, c)
                    idx = np.clip(idx, 0, max(len(self.old) - 1, 0))
                    hit = (
                        (self.old[idx] == c)
                        if len(self.old)
                        else np.zeros(len(c), bool)
                    )
                    c[hit] = self.new[idx[hit]]
                    return pa.table(
                        {"node": b["node"], "comp": pa.array(c, pa.int64())}
                    )

            comp = comp.map_batches(
                Relabel, batch_format="pyarrow", concurrency=2
            ).materialize()
        else:  # pragma: no cover - scale path
            from .dedup import normalize_join_blocks

            nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
            jj = normalize_join_blocks(comp, nparts).join(
                normalize_join_blocks(cc, nparts),
                join_type="left_outer", num_partitions=nparts,
                on=("comp",), right_on=("node",),
            )
            comp = jj.map_batches(
                lambda b: pa.table(
                    {
                        "node": b["node"],
                        "comp": pc.coalesce(
                            pc.cast(b["root"], pa.int64()),
                            pc.cast(b["comp"], pa.int64()),
                        ),
                    }
                ),
                batch_format="pyarrow",
            ).materialize()

    if msf is None:
        return ew.limit(0).map_batches(
            lambda b: pa.table(
                {"src": b["u"], "dst": b["v"], "w": b["w"]}
            ),
            batch_format="pyarrow",
        )
    return msf.map_batches(
        lambda b: pa.table({"src": b["u"], "dst": b["v"], "w": b["w"]}),
        batch_format="pyarrow",
    )


def connected_components_incremental(labels_ds, new_edges_ds, *,
                                     budget: int = 256 << 20):
    """INCREMENTAL connected components: fold a new window of edges into
    an existing (node, root) labeling WITHOUT re-solving the old graph
    -- the daily-crawl growth path (reference analog: the nightly
    harvest folding new records into the existing store,
    scheduler.rb's daily cycle).

    Standard supernode contraction: old roots become supernodes; each
    new edge relabels its endpoints through the old labeling (nodes the
    old labeling never saw own themselves), CC runs on the CONTRACTED
    graph -- O(new edges + touched components), independent of the old
    graph's size -- and the composition old-root -> new-root applies to
    the old labeling with one vectorized lookup (broadcast under
    ``budget``, distributed join above).

    Exactness: contracting a partition of already-connected sets
    preserves connectivity, so the result equals CC over (old edges
    UNION new edges) -- which is exactly what the DuckDB oracle
    computes (recursive min-reach over both windows).  Labels stay the
    component-min NODE id because old roots ARE min node ids and the
    contracted CC again takes mins.

    Returns (node, root) covering old nodes and new-edge endpoints.
    """
    import ray

    from ..stages.canonicalize import (
        connected_components,
        connected_components_local,
    )
    from .dedup import distinct_first

    labels = labels_ds.materialize()

    # relabel new edges through the old labeling
    if (labels.size_bytes() or 0) <= budget:
        tab = pa.concat_tables(
            ray.get(labels.to_arrow_refs()), promote_options="default"
        )
        nodes_np = tab["node"].to_numpy(zero_copy_only=False)
        roots_np = tab["root"].to_numpy(zero_copy_only=False)
        o = np.argsort(nodes_np, kind="stable")
        ref = ray.put({"node": nodes_np[o], "root": roots_np[o]})

        class Contract:
            def __init__(self):
                d = ray.get(ref)
                self.nodes = d["node"]
                self.roots = d["root"]

            def _lookup(self, ids: np.ndarray) -> np.ndarray:
                if not len(self.nodes):
                    return ids.copy()
                idx = np.searchsorted(self.nodes, ids)
                idx = np.clip(idx, 0, len(self.nodes) - 1)
                out = self.roots[idx].copy()
                miss = self.nodes[idx] != ids
                out[miss] = ids[miss]
                return out

            def __call__(self, b: pa.Table) -> pa.Table:
                s = self._lookup(
                    b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
                )
                d = self._lookup(
                    b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
                )
                keep = s != d
                return pa.table(
                    {
                        "subj": pa.array(s[keep], pa.int64()),
                        "obj": pa.array(d[keep], pa.int64()),
                    }
                )

        contracted = new_edges_ds.map_batches(
            Contract, batch_format="pyarrow", concurrency=2
        )
    else:  # pragma: no cover - scale path
        from .dedup import normalize_join_blocks

        nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)

        def half(col_in, col_out):
            def fn(b: pa.Table) -> pa.Table:
                return pa.table(
                    {col_out: pc.cast(b[col_in], pa.int64())}
                )
            return fn

        e = new_edges_ds.map_batches(
            lambda b: pa.table(
                {"src": pc.cast(b["src"], pa.int64()),
                 "dst": pc.cast(b["dst"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        for side in ("src", "dst"):
            e = normalize_join_blocks(e, nparts).join(
                normalize_join_blocks(
                    labels.map_batches(
                        lambda b, s=side: pa.table(
                            {"node": b["node"], f"r_{s}": b["root"]}
                        ),
                        batch_format="pyarrow",
                    ),
                    nparts,
                ),
                join_type="left_outer", num_partitions=nparts,
                on=(side,), right_on=("node",),
            )
        contracted = e.map_batches(
            lambda b: pa.table(
                {
                    "subj": pc.coalesce(
                        pc.cast(b["r_src"], pa.int64()),
                        pc.cast(b["src"], pa.int64()),
                    ),
                    "obj": pc.coalesce(
                        pc.cast(b["r_dst"], pa.int64()),
                        pc.cast(b["dst"], pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).map_batches(
            lambda b: b.filter(pc.not_equal(b["subj"], b["obj"])),
            batch_format="pyarrow",
        )

    cc = connected_components_local(contracted, budget=budget)
    if cc is None:  # pragma: no cover - scale path
        cc = connected_components(contracted, rounds=20, doubling=True)
    cc = cc.materialize()

    # compose: old labeling through the contracted relabeling, plus any
    # brand-new nodes the old labeling never covered
    if (cc.size_bytes() or 0) <= budget:
        cct = pa.concat_tables(
            ray.get(cc.to_arrow_refs()), promote_options="default"
        )
        old = cct["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = cct["root"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(old, kind="stable")
        mref = ray.put({"old": old[o], "new": new[o]})

        class Compose:
            def __init__(self):
                d = ray.get(mref)
                self.old = d["old"]
                self.new = d["new"]

            def __call__(self, b: pa.Table) -> pa.Table:
                r = b["root"].to_numpy(
                    zero_copy_only=False
                ).astype(np.int64).copy()
                if len(self.old):
                    idx = np.searchsorted(self.old, r)
                    idx = np.clip(idx, 0, len(self.old) - 1)
                    hit = self.old[idx] == r
                    r[hit] = self.new[idx[hit]]
                return pa.table(
                    {
                        "node": pc.cast(b["node"], pa.int64()),
                        "root": pa.array(r, pa.int64()),
                    }
                )

        updated_old = labels.map_batches(
            Compose, batch_format="pyarrow", concurrency=2
        )
    else:  # pragma: no cover - scale path
        from .dedup import normalize_join_blocks

        nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
        j = normalize_join_blocks(labels, nparts).join(
            normalize_join_blocks(
                cc.map_batches(
                    lambda b: b.rename_columns(["cnode", "croot"]),
                    batch_format="pyarrow",
                ),
                nparts,
            ),
            join_type="left_outer", num_partitions=nparts,
            on=("root",), right_on=("cnode",),
        )
        updated_old = j.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.int64()),
                    "root": pc.coalesce(
                        pc.cast(b["croot"], pa.int64()),
                        pc.cast(b["root"], pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )

    # brand-new nodes: contracted-CC rows whose node was NOT an old root
    # and NOT an old node (self-owned pass-throughs of the contraction)
    from .dedup import anti_join_filter

    covered = labels.map_batches(
        lambda b: pa.table({"node": pc.cast(b["node"], pa.int64())}),
        batch_format="pyarrow",
    ).union(
        labels.map_batches(
            lambda b: pa.table({"node": pc.cast(b["root"], pa.int64())}),
            batch_format="pyarrow",
        )
    )
    fresh = anti_join_filter(cc, covered, "node")
    return distinct_first(updated_old.union(fresh), "node")


def greedy_matching(
    edges_ds,
    *,
    rounds: int = 3,
    weight_salt: str = "g",
    budget: int = 256 << 20,
):
    """Distributed greedy MAXIMAL MATCHING by synchronous handshaking
    (the Israeli--Itai shape): each round every still-unmatched node
    points at its minimum incident edge under the strict total order
    (w, u, v); an edge joins the matching iff BOTH endpoints point at it
    (mutual pick), and its endpoints leave the graph.  With distinct
    weights the process is deterministic and yields a maximal matching
    at the fixpoint; ``rounds`` bounds the unrolled DuckDB oracle (the
    ktruss fixed-round contract -- matched edges after R rounds).

    Scale shape: the canonical weighted edge list materializes once
    (3 int64 columns); per-round state is the matched-NODE set, slim,
    applied as a broadcast-or-anti-join filter on both endpoints;
    per-node argmin uses the per-batch lexsort combiner (<= #nodes rows
    per batch cross the exchange) + one groupby finish; the handshake
    is one tiny groupby over picked edges (<= 2 rows per edge).

    Weights are md5-derived 48-bit integers, salt ``weight_salt`` (so
    matching and MSF orders differ); node ids must fit uint32.

    Returns matched edges (src, dst, w), src < dst.
    """
    import hashlib as _hl

    import ray  # noqa: F401

    from .dedup import anti_join_filter, distinct_first

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        if len(u) and (v.max() >= (1 << 32) or u.min() < 0):
            raise ValueError("greedy_matching: node ids must fit uint32")
        key = np.unique((u << np.int64(32)) | v)
        u = key >> np.int64(32)
        v = key & np.int64((1 << 32) - 1)
        w = np.empty(len(u), np.int64)
        for i in range(len(u)):
            h = _hl.md5(
                f"{u[i]}~{v[i]}{weight_salt}".encode()
            ).hexdigest()[:12]
            w[i] = int(h, 16)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "w": pa.array(w, pa.int64()),
            }
        )

    def packed(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "_k", pa.array((u << np.int64(32)) | v, pa.int64())
        )

    live = distinct_first(
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .map_batches(packed, batch_format="pyarrow"),
        "_k",
    ).map_batches(
        lambda b: b.select(["u", "v", "w"]), batch_format="pyarrow"
    ).materialize()

    if (live.size_bytes() or 0) <= budget:
        return _run_in_one_task(
            live, lambda g: _matching_solve_local(g, rounds)
        )

    matched_edges = None

    def incidence(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        w = b["w"].to_numpy(zero_copy_only=False)
        node = np.concatenate([u, v])
        w2 = np.concatenate([w, w])
        u2 = np.concatenate([u, u])
        v2 = np.concatenate([v, v])
        # per-batch combiner: argmin per node by (w, u, v)
        o = np.lexsort((v2, u2, w2, node))
        node, w2, u2, v2 = node[o], w2[o], u2[o], v2[o]
        first = np.ones(len(node), bool)
        first[1:] = node[1:] != node[:-1]
        return pa.table(
            {
                "node": pa.array(node[first], pa.int64()),
                "w": pa.array(w2[first], pa.int64()),
                "u": pa.array(u2[first], pa.int64()),
                "v": pa.array(v2[first], pa.int64()),
            }
        )

    for _ in range(rounds):
        if live.count() == 0:
            break
        picks = _first_by_wuv_bucketed(
            live.map_batches(incidence, batch_format="pyarrow"), "node"
        )
        mutual = (
            _pairs_with_count2_bucketed(
                picks.map_batches(packed, batch_format="pyarrow"), "_k"
            )
            .map_batches(
                lambda b: b.select(["u", "v", "w"]),
                batch_format="pyarrow",
            )
            .materialize()
        )
        if mutual.count() == 0:
            break
        matched_edges = (
            mutual if matched_edges is None
            else matched_edges.union(mutual).materialize()
        )
        matched_nodes = mutual.map_batches(
            lambda b: pa.table({"u": b["u"]}), batch_format="pyarrow"
        ).union(
            mutual.map_batches(
                lambda b: pa.table({"u": b["v"]}), batch_format="pyarrow"
            )
        )
        live = anti_join_filter(
            live, matched_nodes, "u", broadcast_budget=budget
        )
        live = anti_join_filter(
            live,
            matched_nodes.map_batches(
                lambda b: pa.table({"v": b["u"]}), batch_format="pyarrow"
            ),
            "v",
            broadcast_budget=budget,
        ).materialize()

    if matched_edges is None:
        return live.limit(0).map_batches(
            lambda b: pa.table(
                {"src": b["u"], "dst": b["v"], "w": b["w"]}
            ),
            batch_format="pyarrow",
        )
    return matched_edges.map_batches(
        lambda b: pa.table({"src": b["u"], "dst": b["v"], "w": b["w"]}),
        batch_format="pyarrow",
    )


def _first_by_wuv_bucketed(ds, key_col: str, *, num_buckets: int | None = None):
    """Global argmin-per-``key_col`` by the strict (w, u, v) order as ONE
    hash-bucket exchange with a fully VECTORIZED per-bucket finish
    (lexsort + run mask) -- replaces per-key ``groupby(key).map_groups``
    whose Python-per-group overhead dominates at tens of thousands of
    keys (Boruvka components, matching nodes)."""
    import ray

    nb = num_buckets or max(
        16, int(ray.cluster_resources().get("CPU", 8)) * 2
    )

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("__bucket", _bucket_ints(b[key_col], nb))

    def finish(g: pa.Table) -> pa.Table:
        k = g[key_col].to_numpy(zero_copy_only=False)
        w = g["w"].to_numpy(zero_copy_only=False)
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        o = np.lexsort((v, u, w, k))
        ks = k[o]
        first = np.ones(len(ks), bool)
        first[1:] = ks[1:] != ks[:-1]
        out = g.take(pa.array(o[first]))
        return out.drop_columns(["__bucket"])

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(finish, batch_format="pyarrow")
    )


def _pairs_with_count2_bucketed(ds, key_col: str = "_k",
                                *, num_buckets: int | None = None):
    """Keep ONE representative row of every ``key_col`` value appearing
    EXACTLY twice (the mutual-pick handshake), vectorized per bucket."""
    import ray

    nb = num_buckets or max(
        16, int(ray.cluster_resources().get("CPU", 8)) * 2
    )

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("__bucket", _bucket_ints(b[key_col], nb))

    def finish(g: pa.Table) -> pa.Table:
        k = g[key_col].to_numpy(zero_copy_only=False)
        o = np.argsort(k, kind="stable")
        ks = k[o]
        first = np.ones(len(ks), bool)
        first[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(ks)))
        keep = starts[lens == 2]
        out = g.take(pa.array(o[keep]))
        return out.drop_columns(["__bucket"])

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(finish, batch_format="pyarrow")
    )


def _run_in_one_task(mat_ds, solve):
    """Ship a solved-in-one-task computation to a worker (the
    connected_components_local shape): tag every row into one group and
    map_groups the vectorized solver over it -- no driver compute."""
    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_g", pa.array(np.zeros(len(b), np.int8), pa.int8())
        )

    def run(g: pa.Table) -> pa.Table:
        return solve(g.drop_columns(["_g"]))

    return (
        mat_ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(run, batch_format="pyarrow")
    )


def _boruvka_solve_local(g: pa.Table, rounds) -> pa.Table:
    """In-task Boruvka rounds over the canonical weighted edge list --
    the identical deterministic math as the distributed rounds (argmin
    per component under (w, u, v), contraction by min-label CC), so the
    output is bit-identical by construction (parity-tested)."""
    from ..stages.canonicalize import _cc_numpy

    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    w = g["w"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    comp = nodes.copy()
    out_u, out_v, out_w = [], [], []
    r = 0
    while rounds is None or r < rounds:
        r += 1
        cu, cv = comp[iu], comp[iv]
        m = cu != cv
        if not m.any():
            break
        cc_ = np.concatenate([cu[m], cv[m]])
        w2 = np.concatenate([w[m], w[m]])
        u2 = np.concatenate([u[m], u[m]])
        v2 = np.concatenate([v[m], v[m]])
        cu2 = np.concatenate([cu[m], cu[m]])
        cv2 = np.concatenate([cv[m], cv[m]])
        o = np.lexsort((v2, u2, w2, cc_))
        cc_, w2, u2, v2, cu2, cv2 = (
            cc_[o], w2[o], u2[o], v2[o], cu2[o], cv2[o]
        )
        first = np.ones(len(cc_), bool)
        first[1:] = cc_[1:] != cc_[:-1]
        su, sv, sw = u2[first], v2[first], w2[first]
        scu, scv = cu2[first], cv2[first]
        key = (su << np.int64(32)) | sv
        _, idx = np.unique(key, return_index=True)
        out_u.append(su[idx])
        out_v.append(sv[idx])
        out_w.append(sw[idx])
        n2, r2 = _cc_numpy(scu[idx], scv[idx])
        pos = np.searchsorted(n2, comp)
        pos = np.clip(pos, 0, max(len(n2) - 1, 0))
        hit = n2[pos] == comp if len(n2) else np.zeros(len(comp), bool)
        comp[hit] = r2[pos[hit]]
    if not out_u:
        return pa.table(
            {"src": pa.array([], pa.int64()),
             "dst": pa.array([], pa.int64()),
             "w": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "src": pa.array(np.concatenate(out_u), pa.int64()),
            "dst": pa.array(np.concatenate(out_v), pa.int64()),
            "w": pa.array(np.concatenate(out_w), pa.int64()),
        }
    )


def _matching_solve_local(g: pa.Table, rounds: int) -> pa.Table:
    """In-task handshake-matching rounds; identical math as the
    distributed rounds (parity-tested)."""
    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    w = g["w"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    free = np.ones(len(nodes), bool)
    out_u, out_v, out_w = [], [], []
    for _ in range(rounds):
        m = free[iu] & free[iv]
        if not m.any():
            break
        node = np.concatenate([iu[m], iv[m]])
        w2 = np.concatenate([w[m], w[m]])
        u2 = np.concatenate([u[m], u[m]])
        v2 = np.concatenate([v[m], v[m]])
        o = np.lexsort((v2, u2, w2, node))
        node, w2, u2, v2 = node[o], w2[o], u2[o], v2[o]
        first = np.ones(len(node), bool)
        first[1:] = node[1:] != node[:-1]
        pu, pv, pw = u2[first], v2[first], w2[first]
        key = (pu << np.int64(32)) | pv
        ko = np.argsort(key, kind="stable")
        ks = key[ko]
        kfirst = np.ones(len(ks), bool)
        kfirst[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(kfirst)
        lens = np.diff(np.append(starts, len(ks)))
        keep = ko[starts[lens == 2]]
        if not len(keep):
            break
        mu, mv, mw = pu[keep], pv[keep], pw[keep]
        out_u.append(mu)
        out_v.append(mv)
        out_w.append(mw)
        free[np.searchsorted(nodes, mu)] = False
        free[np.searchsorted(nodes, mv)] = False
    if not out_u:
        return pa.table(
            {"src": pa.array([], pa.int64()),
             "dst": pa.array([], pa.int64()),
             "w": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "src": pa.array(np.concatenate(out_u), pa.int64()),
            "dst": pa.array(np.concatenate(out_v), pa.int64()),
            "w": pa.array(np.concatenate(out_w), pa.int64()),
        }
    )


def _temporal_solve_local(g: pa.Table, seeds: np.ndarray,
                          rounds: int) -> pa.Table:
    """In-task synchronous earliest-arrival relaxations; identical int64
    math as the distributed rounds (parity-tested)."""
    src = g["src"].to_numpy(zero_copy_only=False)
    dst = g["dst"].to_numpy(zero_copy_only=False)
    t = g["t"].to_numpy(zero_copy_only=False)
    dur = g["dur"].to_numpy(zero_copy_only=False)
    nodes = np.unique(np.concatenate([seeds, src, dst]))
    INF = np.iinfo(np.int64).max
    arr = np.full(len(nodes), INF, np.int64)
    arr[np.searchsorted(nodes, np.unique(seeds))] = 0
    isrc = np.searchsorted(nodes, src)
    idst = np.searchsorted(nodes, dst)
    for _ in range(rounds):
        prev = arr.copy()
        ok = (prev[isrc] != INF) & (t >= prev[isrc])
        if ok.any():
            np.minimum.at(arr, idst[ok], t[ok] + dur[ok])
        arr = np.minimum(arr, prev)
    got = arr != INF
    return pa.table(
        {
            "node": pa.array(nodes[got], pa.int64()),
            "arrival": pa.array(arr[got], pa.int64()),
        }
    )


def dag_longest_path_layers(edges_ds, *, rounds: int = 3,
                            budget: int = 256 << 20):
    """Bounded-round LONGEST-PATH layering of a DAG -- the max-plus dual
    of sssp_weighted: layer_r(v) = max(layer_{r-1}(v), max over in-edges
    of layer_{r-1}(u) + 1), layer_0 = 0 everywhere.  After R rounds a
    node's layer is its longest incoming path length capped at R -- the
    topological STAGE a scheduler runs it in (critical-path analysis,
    dependency-wave planning).  Callers must pass acyclic edges (e.g.
    filtered to src < dst); cycles would grow without bound, so rounds
    is a hard cap by construction.

    Exact: int64 max of int64 sums, order-independent -- unrolled by the
    DuckDB oracle.  Scale shape: identical to temporal_reachability
    (budget-gated one-task fast path; distributed rounds keep state as
    one slim (node, layer) row per node with per-batch max-per-dst
    combiners).
    """
    import ray
    from ray.data.aggregate import Max

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(b["src"], pa.int64()),
                "dst": pc.cast(b["dst"], pa.int64()),
            }
        )

    ew = edges_ds.map_batches(canon, batch_format="pyarrow").materialize()

    if (ew.size_bytes() or 0) <= budget:
        def solve(g: pa.Table) -> pa.Table:
            src = g["src"].to_numpy(zero_copy_only=False)
            dst = g["dst"].to_numpy(zero_copy_only=False)
            nodes = np.unique(np.concatenate([src, dst]))
            lay = np.zeros(len(nodes), np.int64)
            isrc = np.searchsorted(nodes, src)
            idst = np.searchsorted(nodes, dst)
            for _ in range(rounds):
                prev = lay.copy()
                np.maximum.at(lay, idst, prev[isrc] + 1)
                lay = np.maximum(lay, prev)
            return pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "layer": pa.array(lay, pa.int64()),
                }
            )

        return _run_in_one_task(ew, solve)

    # distributed rounds (scale path): state = (node, layer)
    layers = ew.map_batches(
        lambda b: pa.table(
            {
                "node": pa.chunked_array(
                    [b["src"], b["dst"]]
                ).combine_chunks(),
                "layer": pa.array(
                    np.zeros(b.num_rows * 2, np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    from .dedup import distinct_first

    layers = distinct_first(layers, "node").materialize()
    for _ in range(rounds):  # pragma: no cover - scale path
        from .dedup import normalize_join_blocks

        nparts = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
        j = normalize_join_blocks(ew, nparts).join(
            normalize_join_blocks(layers, nparts),
            join_type="inner", num_partitions=nparts,
            on=("src",), right_on=("node",),
        )
        cand = j.map_batches(
            lambda b: pa.table(
                {
                    "node": b["dst"],
                    "layer": pc.add(
                        pc.cast(b["layer"], pa.int64()),
                        pa.scalar(1, pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        layers = (
            layers.union(cand)
            .groupby("node")
            .aggregate(Max("layer", alias_name="layer"))
            .materialize()
        )
    return layers


def onion_layers(
    edges,
    *,
    k: int = 3,
    rounds: int = 3,
    broadcast_budget: int = 256 << 20,
):
    """Onion / degeneracy layering of the k-core peel (Hebert-Dufresne,
    Grochow & Allard 2016, public): run ``rounds`` synchronous peels at
    fixed ``k`` over the UNDIRECTED simple graph of ``edges`` (src, dst)
    and stamp every node with the round at which it fell -- ``layer = r``
    means the node's degree dropped below ``k`` entering round ``r``
    (including nodes stranded with zero edges after their neighborhood
    was peeled), and survivors of all ``rounds`` peels are stamped
    ``layer = rounds + 1`` (the retained core).  The layer stamp orders
    nodes from periphery to core -- the "how deep in the well-linked
    subgraph" refinement of the kcore membership bit (marc2rdf analog:
    delete_old_authorities drops under-linked authorities in waves;
    SURVEY.md SS2.8 U3 -- the layer records the wave).

    Deterministic: each round is degree thresholding over the previous
    round's edge restriction, so a fixed ``rounds`` unrolls into SQL
    exactly like the kcore oracle, plus per-round EXCEPTs for the peels.

    Returns a Dataset of (node, layer) covering every endpoint of the
    simple graph.

    Scale shape identical to kcore: per round one degree combine
    (per-batch endpoint partials -> groupby-sum) + two
    broadcast-or-join membership filters restrict the edge list; the
    peel set is one anti-join of the previous survivor set against the
    new one (broadcast under budget).  Nothing holds the full node set
    on the driver."""
    from ray.data.aggregate import Sum

    from .dedup import anti_join_filter, distinct_first, semi_join_filter

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())}
        )

    def pairkey(b: pa.Table) -> pa.Table:
        pk = pc.binary_join_element_wise(
            pc.cast(b["u"], pa.string()), pc.cast(b["v"], pa.string()), "|"
        )
        return b.append_column("pk", pk)

    cur = distinct_first(
        edges.map_batches(canon, batch_format="pyarrow").map_batches(
            pairkey, batch_format="pyarrow"
        ),
        "pk",
    ).drop_columns(["pk"]).materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def stamp(layer: int):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"],
                    "layer": pa.array(
                        np.full(len(b), layer, np.int64), pa.int64()
                    ),
                }
            )

        return f

    out = None
    prev_surv = None
    for r in range(1, rounds + 1):
        deg = (
            cur.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("c", alias_name="d"))
        ).materialize()
        surv = deg.map_batches(
            lambda b, _k=k: b.filter(
                pc.greater_equal(b["d"], _k)
            ).select(["node"]),
            batch_format="pyarrow",
        ).materialize()
        if r == 1:
            peeled = deg.map_batches(
                lambda b, _k=k: b.filter(
                    pc.less(b["d"], _k)
                ).select(["node"]),
                batch_format="pyarrow",
            )
        else:
            peeled = anti_join_filter(
                prev_surv, surv, "node",
                broadcast_budget=broadcast_budget,
            )
        stamped = peeled.map_batches(stamp(r), batch_format="pyarrow")
        out = stamped if out is None else out.union(stamped)
        prev_surv = surv
        if surv.count() == 0:
            cur = cur.limit(0).materialize()
            continue

        def swap(b: pa.Table) -> pa.Table:
            return pa.table({"u": b["v"], "v": b["u"]})

        cur = semi_join_filter(
            semi_join_filter(
                cur, surv, "u", keys_col="node",
                broadcast_budget=broadcast_budget,
            ).map_batches(swap, batch_format="pyarrow"),
            surv,
            "u",
            keys_col="node",
            broadcast_budget=broadcast_budget,
        ).map_batches(swap, batch_format="pyarrow").materialize()
    core = prev_surv.map_batches(stamp(rounds + 1), batch_format="pyarrow")
    return out.union(core) if out is not None else core


def node2vec_walks(
    edges,
    *,
    steps: int = 3,
    w_return: int = 1,
    w_near: int = 4,
    w_far: int = 2,
    src_col: str = "src",
    dst_col: str = "dst",
    broadcast_budget: int = 256 << 20,
):
    """Deterministic node2vec p/q-biased walks (Grover & Leskovec 2016,
    public) over the DIRECTED simple graph: one walk per node with
    out-edges.  Step 1 is uniform (random_walks' md5(node:1) % outdeg
    pick in dst-sorted order).  From step 2 on, with previous node ``t``
    and current node ``v``, every out-neighbor ``x`` of ``v`` gets an
    INTEGER weight -- ``w_return`` if x == t (the 1/p return bias),
    ``w_near`` if the directed edge t -> x exists (distance-1 bias), and
    ``w_far`` otherwise (the 1/q explore bias; defaults encode p=4, q=2
    scaled by 4) -- and the hop picks the neighbor whose cumulative
    weight range (in dst-sorted order) contains
    ``md5(f"{t}:{v}:{step}") % total_weight``.  Every choice is a pure
    function of (t, v, step) and the static adjacency, so a DuckDB
    oracle replays each walk exactly (the per-row md5 SQL-replay
    tradeoff documented on random_walks).  Sinks truncate the walk
    (NULL tail).

    Returns (start, s1..s{steps}) int64 columns.

    Scale shape: the indexed adjacency builds with one bucketed distinct
    + per-bucket rank pass; under the byte budget it broadcasts once via
    ``ray.put`` -- each step is then a stateless vectorized
    segment-gather (np.repeat expansion over exact out-degrees, cumsum
    ranges, searchsorted membership on packed (t, x) edge keys; walk
    state never exceeds one (start, prev, cur) row per walk).  Above the
    budget each step is two distributed joins (candidate expansion on
    cur, t->x membership on (prev, x)) plus one bucket-grouped vectorized segment pick --
    the honest all-to-all cost of second-order walk bias at scale."""
    import hashlib

    import ray
    from ray.data.aggregate import Count  # noqa: F401 (adj shape doc)

    nb = 64

    def canon(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "node": pa.array(s, pa.int64()),
                "nbr": pa.array(d, pa.int64()),
                "bucket": pa.array((s % nb).astype(np.int32)),
            }
        )

    def rank_in_node(g: pa.Table) -> pa.Table:
        n = g["node"].to_numpy(zero_copy_only=False)
        v = g["nbr"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, n))
        n, v = n[order], v[order]
        first = np.empty(len(n), bool)
        first[:1] = True
        if len(n) > 1:
            first[1:] = (n[1:] != n[:-1]) | (v[1:] != v[:-1])
        n, v = n[first], v[first]
        brk = np.empty(len(n), bool)
        brk[:1] = True
        if len(n) > 1:
            brk[1:] = n[1:] != n[:-1]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        idx = np.arange(len(n)) - starts[seg]
        deg = np.diff(np.append(starts, len(n)))[seg]
        return pa.table(
            {
                "node": pa.array(n, pa.int64()),
                "idx": pa.array(idx, pa.int64()),
                "nbr": pa.array(v, pa.int64()),
                "deg": pa.array(deg, pa.int64()),
            }
        )

    adj = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(rank_in_node, batch_format="pyarrow")
        .materialize()
    )

    def h1(cur: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(f"{c}:1".encode()).hexdigest()[:8], 16)
             for c in cur.tolist()),
            np.int64, count=len(cur),
        )

    def h2(t: np.ndarray, v: np.ndarray, step: int) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(f"{a}:{b}:{step}".encode()).hexdigest()[:8],
                 16)
             for a, b in zip(t.tolist(), v.tolist())),
            np.int64, count=len(t),
        )

    nodes = adj.map_batches(
        lambda b: pa.table(
            {"start": b["node"].filter(pc.equal(b["idx"], 0))}
        ),
        batch_format="pyarrow",
    )

    if adj.size_bytes() <= broadcast_budget:
        tab = pa.concat_tables(
            ray.get(adj.to_arrow_refs()), promote_options="default"
        )
        n_np = tab["node"].to_numpy(zero_copy_only=False)
        v_np = tab["nbr"].to_numpy(zero_copy_only=False)
        if len(n_np) and (
            n_np.min() < 0 or v_np.min() < 0
            or n_np.max() >= 1 << 32 or v_np.max() >= 1 << 32
        ):
            raise ValueError(
                "node2vec_walks: broadcast membership packs (t, x) into "
                "int64 -- needs 0 <= node < 2^32; remap ids or lower "
                "the broadcast budget to force the join path"
            )
        i_np = tab["idx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i_np, n_np))
        node_s = n_np[order]
        nbr_s = v_np[order]
        deg_s = tab["deg"].to_numpy(zero_copy_only=False)[order]
        ekey = np.sort(node_s * np.int64(1 << 32) + nbr_s)
        ref = ray.put(
            {"node": node_s, "nbr": nbr_s, "deg": deg_s, "ekey": ekey}
        )

        class Walk:
            def __init__(self):
                self.a = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                a = self.a
                an, ae = a["node"], a["ekey"]
                start = b["start"].to_numpy(zero_copy_only=False)
                cols = {"start": pa.array(start, pa.int64())}
                if len(start) == 0:
                    for st in range(1, steps + 1):
                        cols[f"s{st}"] = pa.array([], pa.int64())
                    return pa.table(cols)
                # step 1: uniform pick, every start has outdeg >= 1
                off = np.searchsorted(an, start)
                s1 = a["nbr"][off + (h1(start) % a["deg"][off])]
                cols["s1"] = pa.array(s1, pa.int64())
                prev, cur = start.copy(), s1.copy()
                alive = np.ones(len(cur), bool)
                for st in range(2, steps + 1):
                    nxt = np.full(len(cur), -1, np.int64)
                    aw = np.flatnonzero(alive)
                    if len(aw):
                        t, v = prev[aw], cur[aw]
                        pos = np.searchsorted(an, v)
                        ok = (pos < len(an)) & (
                            an[np.minimum(pos, len(an) - 1)] == v
                        )
                        aw, t, v, pos = aw[ok], t[ok], v[ok], pos[ok]
                        if len(aw):
                            dg = a["deg"][pos]
                            tot = int(dg.sum())
                            segstart = np.concatenate(
                                [[0], np.cumsum(dg)[:-1]]
                            ).astype(np.int64)
                            rel = (np.arange(tot, dtype=np.int64)
                                   - np.repeat(segstart, dg))
                            x = a["nbr"][np.repeat(pos, dg) + rel]
                            tx = np.repeat(t, dg)
                            key = tx * np.int64(1 << 32) + x
                            ei = np.searchsorted(ae, key)
                            near = (ei < len(ae)) & (
                                ae[np.minimum(ei, len(ae) - 1)] == key
                            )
                            w = np.where(
                                x == tx, np.int64(w_return),
                                np.where(near, np.int64(w_near),
                                         np.int64(w_far)),
                            )
                            cw = np.cumsum(w)
                            base = np.repeat(
                                cw[segstart] - w[segstart], dg
                            )
                            c = cw - base
                            totw = np.add.reduceat(w, segstart)
                            r = h2(t, v, st) % totw
                            rexp = np.repeat(r, dg)
                            sel = (c > rexp) & ((c - w) <= rexp)
                            nxt[aw] = x[sel]
                    cols[f"s{st}"] = pa.array(
                        [int(z) if z >= 0 else None for z in nxt],
                        pa.int64(),
                    )
                    newalive = nxt >= 0
                    prev = np.where(newalive, cur, prev)
                    cur = np.where(newalive, nxt, cur)
                    alive = newalive
                return pa.table(cols)

        return nodes.map_batches(Walk, concurrency=(1, 8),
                                 batch_format="pyarrow")

    # scale path: candidate-expansion join + membership join + per-walk
    # groupby pick, once per step
    from .dedup import normalize_join_blocks

    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))
    eflag = adj.map_batches(
        lambda b: pa.table(
            {
                "enode": b["node"],
                "enbr": b["nbr"],
                "near": pa.array(np.ones(len(b), np.int8), pa.int8()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    adj_slim = adj.select_columns(["node", "nbr", "deg"]).materialize()

    # step 1: uniform, reuses the (node, idx) composite-key join shape
    deg_side = adj.map_batches(
        lambda b: b.filter(pc.equal(b["idx"], 0)).select(["node", "deg"]),
        batch_format="pyarrow",
    )
    st1 = normalize_join_blocks(
        nodes.map_batches(
            lambda b: pa.table({"start": b["start"], "cur": b["start"]}),
            batch_format="pyarrow",
        ), nparts,
    ).join(
        normalize_join_blocks(deg_side, nparts),
        join_type="inner", num_partitions=nparts,
        on=("cur",), right_on=("node",),
    ).map_batches(
        lambda b: pa.table(
            {
                "start": b["start"],
                "cur": b["cur"],
                "idx": pa.array(
                    h1(b["cur"].to_numpy(zero_copy_only=False))
                    % b["deg"].to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    state = normalize_join_blocks(st1, nparts).join(
        normalize_join_blocks(
            adj.select_columns(["node", "idx", "nbr"]), nparts
        ),
        join_type="inner", num_partitions=nparts,
        on=("cur", "idx"), right_on=("node", "idx"),
    ).map_batches(
        lambda b: pa.table(
            {"start": b["start"], "s1": b["nbr"],
             "prev": b["cur"], "cur": b["nbr"]}
        ),
        batch_format="pyarrow",
    ).materialize()
    outs = state.map_batches(
        lambda b: b.select(["start", "s1"]), batch_format="pyarrow"
    )
    for st in range(2, steps + 1):
        cand = normalize_join_blocks(
            state.map_batches(
                lambda b: b.select(["start", "prev", "cur"]),
                batch_format="pyarrow",
            ), nparts,
        ).join(
            normalize_join_blocks(adj_slim, nparts),
            join_type="inner", num_partitions=nparts,
            on=("cur",), right_on=("node",),
        )
        cand2 = normalize_join_blocks(cand, nparts).join(
            normalize_join_blocks(eflag, nparts),
            join_type="left_outer", num_partitions=nparts,
            on=("prev", "nbr"), right_on=("enode", "enbr"),
        ).map_batches(
            lambda b: b.append_column(
                "_wb",
                pa.array(
                    (b["start"].to_numpy(zero_copy_only=False)
                     % (nparts * 8)).astype(np.int32),
                    pa.int32(),
                ),
            ),
            batch_format="pyarrow",
        )

        def pick_bucket(g: pa.Table, _st=st) -> pa.Table:
            # one walk per start; solve every walk in the bucket with
            # one vectorized segment pass (no per-walk Python)
            if len(g) == 0:
                return pa.table(
                    {"start": pa.array([], pa.int64()),
                     "prev": pa.array([], pa.int64()),
                     "cur": pa.array([], pa.int64())}
                )
            start = g["start"].to_numpy(zero_copy_only=False)
            prev = g["prev"].to_numpy(zero_copy_only=False)
            curv = g["cur"].to_numpy(zero_copy_only=False)
            x = g["nbr"].to_numpy(zero_copy_only=False)
            near = ~pc.is_null(g["near"]).to_numpy(zero_copy_only=False)
            order = np.lexsort((x, start))
            start, prev, curv, x, near = (
                start[order], prev[order], curv[order], x[order],
                near[order],
            )
            brk = np.empty(len(start), bool)
            brk[:1] = True
            if len(start) > 1:
                brk[1:] = start[1:] != start[:-1]
            segstart = np.flatnonzero(brk)
            seglen = np.diff(np.append(segstart, len(start)))
            w = np.where(
                x == prev, np.int64(w_return),
                np.where(near, np.int64(w_near), np.int64(w_far)),
            )
            cw = np.cumsum(w)
            base = np.repeat(cw[segstart] - w[segstart], seglen)
            c = cw - base
            tot = np.add.reduceat(w, segstart)
            r = h2(prev[segstart], curv[segstart], _st) % tot
            rexp = np.repeat(r, seglen)
            sel = (c > rexp) & ((c - w) <= rexp)
            return pa.table(
                {
                    "start": pa.array(start[sel], pa.int64()),
                    "prev": pa.array(curv[sel], pa.int64()),
                    "cur": pa.array(x[sel], pa.int64()),
                }
            )

        state = (
            cand2.groupby("_wb")
            .map_groups(pick_bucket, batch_format="pyarrow")
            .materialize()
        )
        col = state.map_batches(
            lambda b, _st=st: pa.table(
                {"start": b["start"], f"s{_st}": b["cur"]}
            ),
            batch_format="pyarrow",
        )
        outs = normalize_join_blocks(outs, nparts).join(
            normalize_join_blocks(col, nparts),
            join_type="left_outer", num_partitions=nparts, on=("start",),
        )
    final = normalize_join_blocks(nodes, nparts).join(
        normalize_join_blocks(outs, nparts),
        join_type="left_outer", num_partitions=nparts, on=("start",),
    )
    return final.map_batches(
        lambda b: b.select(["start"] + [f"s{i}" for i in
                                        range(1, steps + 1)]),
        batch_format="pyarrow",
    )


def _scc_priority(nodes: "np.ndarray") -> "np.ndarray":
    """Packed (hash31(node) << 32) | node propagation priority for the
    distributed SCC color rounds: a fixed splitmix64-style finalizer
    (public constant mixing) makes argmax positions effectively random
    for any input id layout, which is what lets pointer jumping compose
    windows multiplicatively (a monotone-id ring defeats raw-id jumping:
    every node's running max is itself).  Injective (low 32 bits are the
    node id), deterministic, positive int64 (top bit clear: 31-bit hash
    + 32-bit id < 2^63)."""
    h = (_mix64(nodes) >> np.uint64(33)).astype(np.int64)
    return (h << np.int64(32)) | nodes.astype(np.int64)


def _mix64(x: "np.ndarray") -> "np.ndarray":
    """splitmix64 finalizer (public constants) over uint64, elementwise."""
    x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _color_fingerprint(c_ds) -> tuple:
    """Two independent fingerprints of an SCC (node, color) table: the
    wrap-sum mod 2^64 of the packed colors, and the xor of a splitmix
    hash of each (node, color) row.  The color rounds stop when BOTH
    repeat, so one wrap collision of the sum cannot end propagation early
    (a changed table keeps the xor only when the hashes of its changed
    rows xor to zero as well).  The xor hashes the node in: colors repeat
    across a class, and an xor over colors alone cancels whenever an even
    number of nodes move from one color to another.  One pass:
    per-block partials reduced on the driver (one tiny row per block) --
    a Sum aggregate of packed 63-bit values overflows int64 in the reduce
    and Ray degrades to pickled Python bigints."""

    def partials(b: pa.Table) -> pa.Table:
        c = b["color"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = b["node"].to_numpy(zero_copy_only=False)
        h = _mix64(_mix64(n) ^ c)
        return pa.table(
            {
                "s": pa.array([c.sum(dtype=np.uint64)], pa.uint64()),
                "x": pa.array(
                    [np.bitwise_xor.reduce(h, dtype=np.uint64)], pa.uint64()
                ),
            }
        )

    s = x = 0
    for r in c_ds.map_batches(partials, batch_format="pyarrow").take_all():
        s += r["s"]
        x ^= r["x"]
    return s & ((1 << 64) - 1), x


def _scc_solve_local(g: pa.Table) -> pa.Table:
    """In-task exact SCC over the distinct directed simple edge list:
    iterative Tarjan (explicit stack, CSR adjacency), then each
    component relabeled to its MIN member id.  Vectorized setup; the
    DFS itself is the O(V+E) pointer walk Tarjan requires."""
    s = g["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = g["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = s != d
    s, d = s[keep], d[keep]
    if len(s) == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()),
             "scc": pa.array([], pa.int64())}
        )
    key = np.stack([s, d])
    _, first = np.unique(key, axis=1, return_index=True)
    s, d = s[first], d[first]
    ids = np.unique(np.concatenate([s, d]))
    n = len(ids)
    si = np.searchsorted(ids, s)
    di = np.searchsorted(ids, d)
    order = np.argsort(si, kind="stable")
    si, di = si[order], di[order]
    indptr = np.zeros(n + 1, np.int64)
    np.add.at(indptr, si + 1, 1)
    indptr = np.cumsum(indptr)

    index = np.full(n, -1, np.int64)
    lowlink = np.zeros(n, np.int64)
    onstack = np.zeros(n, bool)
    comp = np.full(n, -1, np.int64)
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, int(indptr[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, ptr = work[-1]
            if ptr < indptr[v + 1]:
                work[-1] = (v, ptr + 1)
                w = int(di[ptr])
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, int(indptr[w])))
                elif onstack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if lowlink[v] < lowlink[pv]:
                        lowlink[pv] = lowlink[v]
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    # relabel each component to its min member id
    mins = np.full(ncomp, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(mins, comp, ids)
    return pa.table(
        {
            "node": pa.array(ids, pa.int64()),
            "scc": pa.array(mins[comp], pa.int64()),
        }
    )


def scc_local(edges_ds, *, budget: int = 128 << 20):
    """Budget-gated one-task exact SCC (the pagerank_local /
    connected_components_local precedent): edge lists that fit one
    worker solve with iterative Tarjan in a single task, skipping the
    outer-round exchanges of :func:`scc`.  Returns the (node, scc)
    Dataset or ``None`` when over budget."""
    mat_e = edges_ds.materialize()
    if mat_e.size_bytes() > budget:
        return None
    return _run_in_one_task(
        mat_e.map_batches(
            lambda b: pa.table(
                {
                    "src": pc.cast(b["src"], pa.int64()),
                    "dst": pc.cast(b["dst"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        _scc_solve_local,
    )


def scc(
    edges,
    *,
    max_outer: int = 20,
    max_inner: int = 200,
    broadcast_budget: int = 256 << 20,
    local_core_budget: int = 128 << 20,
    trim_min_frac: float = 0.005,
):
    """Exact distributed strongly-connected components via
    trim + forward max-color propagation + backward intra-color
    reachability (the FW-BW / Orzan coloring family, public: Fleischer
    2000, Orzan 2004, Slota 2014; the naive one-pass (fwd-min, bwd-min)
    pair labeling is WRONG -- two different SCCs can share both labels
    -- so this runs the full peel: every outer round assigns ONLY
    nodes proven mutually reachable with their color root, removes
    them, and repeats on the remainder).  Returns (node, scc) over
    every endpoint of the directed simple graph, where ``scc`` is the
    MIN member id of the component (marc2rdf analog: authority rings --
    mutually-referencing authority records -- are merge groups, the
    directed-cycle strengthening of the sameAs closure's undirected
    components, stages/canonicalize.py).

    Exact by construction, any outer/inner round count: rounds stop at
    fixpoints, not budgets; ``max_outer``/``max_inner`` are loud-failure
    caps (RuntimeError), never silent truncation.

    Scale shape: per outer round -- (a) trim loops drop nodes with no
    in- or out-edges (ONE (node, has_out, has_in) degree combine per
    iteration; chains and tendrils never reach the expensive phases --
    but a tendril CHAIN of depth L peels one layer per round, so once a
    round removes under ``trim_min_frac`` of the remaining nodes the
    loop stops chasing the fixpoint and hands the remainder to the next
    phase: measured on a 20M-node md5 graph, trickle-trimming deep
    in-trees was >70 min of sequential barriers; trim is an
    optimization, never a correctness requirement),
    then (b) if the surviving cyclic core fits ``local_core_budget``
    bytes -- the normal bow-tie web-graph outcome -- ONE Tarjan task
    finishes it (set 0 to force the rounds); otherwise (c) color rounds
    are one edges-join-colors + per-batch max combiner + groupby-max
    each (the pagerank exchange shape), converging when the color-sum
    and hashed-xor fingerprints both repeat, and (d) backward
    reachability runs only over intra-color edges (annotated once per
    round) with distinct-frontier semi-joins.  Color/backward round
    counts are O(core diameter) -- the documented cost of exact
    distributed SCC; the trim + local-core hybrid exists precisely so
    that path is rare.  All membership filters are broadcast-or-join
    under ``broadcast_budget``; nothing materializes on the driver.  The md5-graph contract query runs the
    budget-gated :func:`scc_local` fast path; the distributed rounds
    are forced in the parity pytest."""
    from ray.data.aggregate import Max, Min

    from .dedup import (anti_join_filter, distinct_first,
                        normalize_join_blocks, semi_join_filter)
    import ray

    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        return pa.table(
            {
                "src": pa.array(s[keep], pa.int64()),
                "dst": pa.array(d[keep], pa.int64()),
            }
        )

    def pairkey(b: pa.Table) -> pa.Table:
        # pairs pack into ONE int64 distinct key (string keys cost ~3x
        # in the dedup exchange at 10M-edge scale); needs ids < 2^32 --
        # guarded loudly, like the other packed-key graph ops
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        if len(s) and (
            s.min() < 0 or d.min() < 0
            or s.max() >= 1 << 32 or d.max() >= 1 << 32
        ):
            raise ValueError(
                "scc packs (src, dst) into int64 distinct keys -- "
                "needs 0 <= node < 2^32; remap ids first"
            )
        return b.append_column(
            "pk", pa.array((s << np.int64(32)) | d, pa.int64())
        )

    act_e = distinct_first(
        edges.map_batches(canon, batch_format="pyarrow").map_batches(
            pairkey, batch_format="pyarrow"
        ),
        "pk",
    ).drop_columns(["pk"]).materialize()

    def endpoints(e_ds):
        def part(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": pa.array(
                        np.unique(np.concatenate(
                            [
                                b["src"].to_numpy(zero_copy_only=False),
                                b["dst"].to_numpy(zero_copy_only=False),
                            ]
                        )),
                        pa.int64(),
                    )
                }
            )

        return distinct_first(
            e_ds.map_batches(part, batch_format="pyarrow"), "node"
        )

    def attach(ds, map_ds, key, out_name):
        """Annotate ds[key] with the color from map_ds (node, color):
        broadcast lookup under budget, distributed join above."""
        mat = map_ds.materialize()
        if mat.size_bytes() <= broadcast_budget:
            tabs = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
            tab = (pa.concat_tables(tabs, promote_options="default")
                   if tabs else None)
            if tab is None:
                return ds.map_batches(
                    lambda b: b.append_column(
                        out_name, pa.nulls(len(b), pa.int64())
                    ),
                    batch_format="pyarrow",
                )
            nd = tab["node"].to_numpy(zero_copy_only=False)
            cl = tab["color"].to_numpy(zero_copy_only=False)
            order = np.argsort(nd)
            ref = ray.put({"n": nd[order], "c": cl[order]})

            def look(b: pa.Table) -> pa.Table:
                a = ray.get(ref)
                k = b[key].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(a["n"], k)
                ok = (pos < len(a["n"])) & (
                    a["n"][np.minimum(pos, len(a["n"]) - 1)] == k
                )
                vals = pa.array(
                    a["c"][np.minimum(pos, len(a["n"]) - 1)], pa.int64()
                )
                return b.append_column(
                    out_name,
                    pc.if_else(pa.array(ok), vals,
                               pa.nulls(len(b), pa.int64())),
                )

            return ds.map_batches(look, batch_format="pyarrow")
        side = mat.map_batches(
            lambda b, _o=out_name: pa.table(
                {"_mk": b["node"], _o: b["color"]}
            ),
            batch_format="pyarrow",
        )
        return normalize_join_blocks(ds, nparts).join(
            normalize_join_blocks(side, nparts),
            join_type="left_outer", num_partitions=nparts,
            on=(key,), right_on=("_mk",),
        )

    assigned = []  # list of (node, root) Datasets
    outer = 0
    while True:
        outer += 1
        if outer > max_outer:
            raise RuntimeError(
                f"scc: not converged after {max_outer} outer rounds"
            )
        if act_e.count() == 0:
            break
        # (a) trim: peel nodes missing an in- or out-edge (singleton
        # SCCs) -- ONE (node, has_out, has_in) degree combine per
        # iteration instead of separate endpoint/src/dst distinct passes
        def io_partial(b: pa.Table) -> pa.Table:
            s = np.unique(b["src"].to_numpy(zero_copy_only=False))
            d = np.unique(b["dst"].to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "node": pa.array(
                        np.concatenate([s, d]), pa.int64()
                    ),
                    "o": pa.array(
                        np.concatenate(
                            [np.ones(len(s), np.int8),
                             np.zeros(len(d), np.int8)]
                        ),
                        pa.int8(),
                    ),
                    "i": pa.array(
                        np.concatenate(
                            [np.zeros(len(s), np.int8),
                             np.ones(len(d), np.int8)]
                        ),
                        pa.int8(),
                    ),
                }
            )

        for _ in range(max_inner):
            # stop trimming the moment the remainder fits one worker --
            # every further distributed peel round would cost more than
            # the single Tarjan task that replaces it
            if (local_core_budget
                    and act_e.size_bytes() <= local_core_budget):
                break
            deg = (
                act_e.map_batches(io_partial, batch_format="pyarrow")
                .groupby("node")
                .aggregate(Max("o", alias_name="o"),
                           Max("i", alias_name="i"))
            ).materialize()
            keep = deg.map_batches(
                lambda b: b.filter(
                    pc.and_(pc.equal(b["o"], 1), pc.equal(b["i"], 1))
                ).select(["node"]),
                batch_format="pyarrow",
            ).materialize()
            trimmed = deg.map_batches(
                lambda b: pa.table(
                    {
                        "node": (t := b.filter(
                            pc.or_(pc.equal(b["o"], 0),
                                   pc.equal(b["i"], 0))
                        ))["node"],
                        "root": t["node"],
                    }
                ),
                batch_format="pyarrow",
            ).materialize()
            n_trim = trimmed.count()
            n_deg = deg.count()
            logging.getLogger(__name__).info(
                "scc outer %d trim round: %d peeled of %d nodes",
                outer, n_trim, n_deg,
            )
            if n_trim == 0:
                break
            assigned.append(trimmed)
            trickle = n_trim < max(1, int(trim_min_frac * n_deg))
            act_e = semi_join_filter(
                semi_join_filter(
                    act_e, keep, "src", keys_col="node",
                    broadcast_budget=broadcast_budget,
                ),
                keep, "dst", keys_col="node",
                broadcast_budget=broadcast_budget,
            ).materialize()
            # survivors whose every edge touched a trimmed node are now
            # edge-less: they can no longer sit in a multi-node SCC --
            # assign them as singletons or they vanish unlabeled
            stranded = anti_join_filter(
                keep, endpoints(act_e), "node",
                broadcast_budget=broadcast_budget,
            ).map_batches(
                lambda b: pa.table({"node": b["node"], "root": b["node"]}),
                batch_format="pyarrow",
            ).materialize()
            if stranded.count():
                assigned.append(stranded)
            if act_e.count() == 0:
                break
            if trickle:
                # deep tendril chains peel ONE layer per round (a chain
                # of depth L costs L sequential barriers); once a round
                # removes under trim_min_frac of the nodes, further
                # trimming costs more than it saves -- trim is only an
                # optimization, so hand the remainder to the next phase
                logging.getLogger(__name__).info(
                    "scc outer %d: trickle trim (<%.3f%%), moving on",
                    outer, 100 * trim_min_frac,
                )
                break
        if act_e.count() == 0:
            continue
        # local-core fast path: trimming a bow-tie-shaped web graph
        # leaves a cyclic core orders smaller than the input -- when it
        # fits one worker, ONE Tarjan task replaces O(core diameter)
        # distributed color/backward rounds (the pagerank_local
        # precedent, applied mid-operator).  Cores above the budget
        # fall through to the full distributed rounds.
        if local_core_budget and act_e.size_bytes() <= local_core_budget:
            logging.getLogger(__name__).info(
                "scc outer %d: core fits local budget (%d bytes), "
                "one-task Tarjan", outer, act_e.size_bytes(),
            )
            labs = _run_in_one_task(
                act_e, _scc_solve_local
            ).map_batches(
                lambda b: pa.table(
                    {"node": b["node"], "root": b["scc"]}
                ),
                batch_format="pyarrow",
            ).materialize()
            assigned.append(labs)
            break
        # (b) forward max-PRIORITY propagation to fixpoint, with pointer-
        # jump shortcutting (round-5 task #2: the synchronous rounds were
        # Theta(core diameter)).  The propagated label is a packed
        # (hash31(node) << 32) | node priority, NOT the raw id: with raw
        # ids a monotone-id ring degenerates the pointer graph to
        # self-loops (every node's running max is itself) and jumping
        # saves nothing; a fixed hash makes the argmax positions
        # effectively random for ANY input shape, so each jump composes
        # windows multiplicatively -- expected O(log D) rounds
        # (randomized-symmetry-breaking label propagation, public:
        # hash-to-min family, Rastogi 2013; Shiloach-Vishkin jumping).
        # Deterministic (the hash is fixed), exact (the packed key is
        # injective; the class root is just the max-priority member).
        act_n = endpoints(act_e).materialize()

        def prio_init(b: pa.Table) -> pa.Table:
            n = b["node"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": b["node"],
                    "color": pa.array(_scc_priority(n), pa.int64()),
                }
            )

        _MASK = (1 << 32) - 1

        def max_combine(b: pa.Table) -> pa.Table:
            # per-batch (dst, max color) collapse ahead of the exchange
            d = b["dst"].to_numpy(zero_copy_only=False)
            c = b["ccol"].to_numpy(zero_copy_only=False)
            order = np.lexsort((c, d))
            d, c = d[order], c[order]
            last = np.empty(len(d), bool)
            last[-1:] = True
            if len(d) > 1:
                last[:-1] = d[1:] != d[:-1]
            return pa.table(
                {
                    "node": pa.array(d[last], pa.int64()),
                    "color": pa.array(c[last], pa.int64()),
                }
            )

        def jump_compress(colors, phase: str):
            """Pointer jumping: color[v] <- max(color[v],
            color[node(color[v])]).  Sound because color values are
            always priorities of nodes that REACH v (edge step: src
            reaches dst; jump step: a reacher of my reacher reaches me,
            transitively), so the fixpoint is unchanged.  Each jump is
            one broadcast-or-join lookup on the node-sized color table
            -- far cheaper than an edge relaxation.  Exactly 2
            jumps/round, no per-jump fingerprint: with the relax step
            this composes windows up to ~4x per round at constant
            per-round barrier count (a per-jump convergence probe was
            measured to cost more than the jump itself).  Correctness
            never depends on the count (the relax fixpoint test is the
            convergence criterion)."""
            for _j in range(2):
                keyed = colors.map_batches(
                    lambda b: b.append_column(
                        "cnode",
                        pc.bit_wise_and(b["color"], pa.scalar(_MASK)),
                    ),
                    batch_format="pyarrow",
                )
                colors = attach(keyed, colors, "cnode", "jc").map_batches(
                    lambda b: pa.table(
                        {
                            "node": b["node"],
                            "color": pc.max_element_wise(
                                b["color"],
                                pc.coalesce(b["jc"], b["color"]),
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                ).materialize()
            return colors

        def maxprop(e_ds, phase: str):
            """(node, color) fixpoint of color[v] = max over {v} and all
            u with an e_ds path u->...->v, i.e. the max id that reaches v
            -- one edge relaxation + jump compression per round, O(log
            diameter) rounds total."""
            colors = act_n.map_batches(
                prio_init, batch_format="pyarrow"
            ).materialize()
            prev_fp = _color_fingerprint(colors)
            for r in range(max_inner):
                contrib = attach(
                    e_ds, colors, "src", "ccol"
                ).map_batches(max_combine, batch_format="pyarrow")
                colors = (
                    colors.union(contrib)
                    .groupby("node")
                    .aggregate(Max("color", alias_name="color"))
                    .materialize()
                )
                colors = jump_compress(colors, phase)
                fp = _color_fingerprint(colors)
                if fp == prev_fp:
                    logging.getLogger(__name__).info(
                        "scc outer %d: %s converged in %d rounds",
                        outer, phase, r + 1,
                    )
                    break
                prev_fp = fp
            else:
                raise RuntimeError(
                    f"scc: {phase} not converged after {max_inner} rounds"
                )
            return colors

        colors = maxprop(act_e, "forward colors")
        # (c) backward reachability from roots over intra-color edges,
        # reformulated as the SAME jumped max-propagation on the REVERSED
        # intra edges: rcolor[v] = max id v can reach within its color
        # class.  Every class member's id is <= the root's (colors are
        # monotone over own id), ids are unique, and the root's id equals
        # the class color -- so v reaches its root iff rcolor[v] ==
        # color[v].  This replaces the one-hop-per-round frontier
        # semi-join (Theta(diameter) barriers) with O(log D) rounds.
        intra = attach(
            attach(act_e, colors, "src", "csrc"), colors, "dst", "cdst"
        ).filter(expr="csrc == cdst").map_batches(
            lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
        ).materialize()
        rev = intra.map_batches(
            lambda b: pa.table({"src": b["dst"], "dst": b["src"]}),
            batch_format="pyarrow",
        ).materialize()
        rcolors = maxprop(rev, "backward reach").map_batches(
            lambda b: pa.table({"node": b["node"], "rc": b["color"]}),
            batch_format="pyarrow",
        )
        reached = attach(rcolors, colors, "node", "fcol").filter(
            expr="rc == fcol"
        ).map_batches(
            lambda b: b.select(["node"]), batch_format="pyarrow"
        ).materialize()
        # root = the node part of the packed class priority
        done = attach(reached, colors, "node", "root").map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "root": pc.bit_wise_and(b["root"], pa.scalar(_MASK)),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        assigned.append(done)
        reached_s = reached.map_batches(
            lambda b: pa.table({"src": b["node"]}), batch_format="pyarrow"
        )
        reached_d = reached.map_batches(
            lambda b: pa.table({"dst": b["node"]}), batch_format="pyarrow"
        )
        act_e = anti_join_filter(
            anti_join_filter(
                act_e, reached_s, "src",
                broadcast_budget=broadcast_budget,
            ),
            reached_d, "dst", broadcast_budget=broadcast_budget,
        ).materialize()
        # unassigned survivors stranded edge-less by the removal are
        # singleton SCCs (had they shared a root's component, the
        # backward pass would have reached them)
        stranded = anti_join_filter(
            anti_join_filter(
                act_n, reached, "node",
                broadcast_budget=broadcast_budget,
            ),
            endpoints(act_e), "node",
            broadcast_budget=broadcast_budget,
        ).map_batches(
            lambda b: pa.table({"node": b["node"], "root": b["node"]}),
            batch_format="pyarrow",
        ).materialize()
        if stranded.count():
            assigned.append(stranded)

    if not assigned:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()),
                 "scc": pa.array([], pa.int64())}
            )
        )
    out = assigned[0]
    for a in assigned[1:]:
        out = out.union(a)
    out = out.materialize()
    mins = (
        out.groupby("root").aggregate(Min("node", alias_name="mn"))
    ).map_batches(
        lambda b: pa.table({"node": b["root"], "color": b["mn"]}),
        batch_format="pyarrow",
    )

    # broadcast-or-join relabel of roots to component minima
    mat = mins.materialize()
    tabs = [t for t in __import__("ray").get(mat.to_arrow_refs())
            if t.num_rows]
    if mat.size_bytes() <= broadcast_budget and tabs:
        tab = pa.concat_tables(tabs, promote_options="default")
        nd = tab["node"].to_numpy(zero_copy_only=False)
        cl = tab["color"].to_numpy(zero_copy_only=False)
        order = np.argsort(nd)
        import ray as _ray

        ref = _ray.put({"n": nd[order], "c": cl[order]})

        def look(b: pa.Table) -> pa.Table:
            a = _ray.get(ref)
            k = b["root"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(a["n"], k)
            return pa.table(
                {
                    "node": b["node"],
                    "scc": pa.array(a["c"][pos], pa.int64()),
                }
            )

        relabeled = out.map_batches(look, batch_format="pyarrow")
    else:
        relabeled = normalize_join_blocks(out, nparts).join(
            normalize_join_blocks(
                mins.map_batches(
                    lambda b: pa.table(
                        {"_mk": b["node"], "scc": b["color"]}
                    ),
                    batch_format="pyarrow",
                ), nparts,
            ),
            join_type="inner", num_partitions=nparts,
            on=("root",), right_on=("_mk",),
        ).map_batches(
            lambda b: b.select(["node", "scc"]), batch_format="pyarrow"
        )
    return relabeled


def scc_condensation(
    edges,
    labels_ds,
    *,
    broadcast_budget: int = 256 << 20,
):
    """Condensation DAG of the directed simple graph given its SCC
    labeling (node, scc): every distinct edge (u, v) with
    scc(u) != scc(v) becomes a super-edge (src_scc, dst_scc) counted
    with multiplicity -- the acyclic quotient graph downstream DAG ops
    (dag_longest_path_layers, topological batching) require (public:
    any algorithms text; composes :func:`scc`).  Returns (src_scc,
    dst_scc, n_edges) where n_edges counts DISTINCT underlying simple
    edges between the two components.

    Scale shape: the label table is slim (node, scc) -- broadcast once
    via ray.put under ``broadcast_budget`` with a sorted searchsorted
    lookup per batch, or two distributed hash joins above it; per-batch
    (src_scc, dst_scc) np.unique combiners collapse multiplicity before
    the ONE final groupby-sum."""
    import ray
    from ray.data.aggregate import Sum

    from .dedup import distinct_first, normalize_join_blocks

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        t = pa.table(
            {
                "src": pa.array(s[keep], pa.int64()),
                "dst": pa.array(d[keep], pa.int64()),
            }
        )
        return t.append_column(
            "pk",
            pc.binary_join_element_wise(
                pc.cast(t["src"], pa.string()),
                pc.cast(t["dst"], pa.string()), "|",
            ),
        )

    simple = distinct_first(
        edges.map_batches(canon, batch_format="pyarrow"), "pk"
    ).drop_columns(["pk"])

    lab = labels_ds.materialize()
    if lab.size_bytes() <= broadcast_budget:
        tabs = [t for t in ray.get(lab.to_arrow_refs()) if t.num_rows]
        tab = pa.concat_tables(tabs, promote_options="default")
        nd = tab["node"].to_numpy(zero_copy_only=False)
        sc = tab["scc"].to_numpy(zero_copy_only=False)
        order = np.argsort(nd)
        ref = ray.put({"n": nd[order], "s": sc[order]})

        def super_edges(b: pa.Table) -> pa.Table:
            a = ray.get(ref)
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            cs = a["s"][np.searchsorted(a["n"], s)]
            cd = a["s"][np.searchsorted(a["n"], d)]
            keep = cs != cd
            cs, cd = cs[keep], cd[keep]
            # per-batch multiplicity combiner
            order2 = np.lexsort((cd, cs))
            cs, cd = cs[order2], cd[order2]
            brk = np.empty(len(cs), bool)
            brk[:1] = True
            if len(cs) > 1:
                brk[1:] = (cs[1:] != cs[:-1]) | (cd[1:] != cd[:-1])
            st = np.flatnonzero(brk)
            cnt = np.diff(np.append(st, len(cs)))
            return pa.table(
                {
                    "src_scc": pa.array(cs[st], pa.int64()),
                    "dst_scc": pa.array(cd[st], pa.int64()),
                    "n": pa.array(cnt.astype(np.int64), pa.int64()),
                }
            )

        tagged = simple.map_batches(super_edges, batch_format="pyarrow")
    else:
        nparts = max(
            2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2)
        )
        ls = lab.map_batches(
            lambda b: pa.table({"_n1": b["node"], "src_scc": b["scc"]}),
            batch_format="pyarrow",
        )
        ld = lab.map_batches(
            lambda b: pa.table({"_n2": b["node"], "dst_scc": b["scc"]}),
            batch_format="pyarrow",
        )
        j = normalize_join_blocks(simple, nparts).join(
            normalize_join_blocks(ls, nparts),
            join_type="inner", num_partitions=nparts,
            on=("src",), right_on=("_n1",),
        )
        j = normalize_join_blocks(j, nparts).join(
            normalize_join_blocks(ld, nparts),
            join_type="inner", num_partitions=nparts,
            on=("dst",), right_on=("_n2",),
        )
        tagged = j.map_batches(
            lambda b: pa.table(
                {
                    "src_scc": b["src_scc"],
                    "dst_scc": b["dst_scc"],
                    "n": pa.array(np.ones(len(b), np.int64), pa.int64()),
                }
            ).filter(pc.not_equal(b["src_scc"], b["dst_scc"])),
            batch_format="pyarrow",
        )
    return (
        tagged.groupby(["src_scc", "dst_scc"])
        .aggregate(Sum("n", alias_name="n_edges"))
    )


def maximal_independent_set(
    edges,
    *,
    rounds: int | None = None,
    max_rounds: int = 30,
    broadcast_budget: int = 256 << 20,
    local_budget: int = 128 << 20,
):
    """Luby's maximal independent set (Luby 1986, public) over the
    UNDIRECTED simple graph with DETERMINISTIC priorities: node ``v``
    gets priority ``md5(f"{v}:mis")`` (first 8 hex digits), and each
    synchronous round adds to the MIS every still-active node whose
    (priority, node) pair is strictly smaller than all its active
    neighbors' (distinct nodes make the order total, so ties are
    impossible and a SQL oracle replays every round); MIS nodes and
    their neighbors then leave, and stranded degree-0 actives join the
    MIS outright.  ``rounds=R`` runs exactly R peels (what the oracle
    unrolls); ``rounds=None`` iterates to the fixpoint (every node in
    or adjacent to the MIS -- maximality), capped loudly at
    ``max_rounds``.  The independent-set primitive behind conflict-free
    parallel scheduling (marc2rdf analog: non-overlapping record-update
    batches; greedy_matching's set-packing cousin).

    Returns a Dataset of MIS ``node`` rows.

    Scale shape: per round one neighbor-min combine (per-batch min
    partials over packed (priority << 32 | node) int64 keys -- requires
    0 <= node < 2^32, guarded loudly -- then a groupby-min) plus the
    broadcast-or-join membership filters that restrict the edge list;
    O(log n) expected rounds under random priorities."""
    import hashlib

    from ray.data.aggregate import Min

    from .dedup import anti_join_filter, distinct_first, semi_join_filter

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if len(s) and (
            s.min() < 0 or d.min() < 0
            or s.max() >= 1 << 32 or d.max() >= 1 << 32
        ):
            raise ValueError(
                "maximal_independent_set packs (priority, node) into "
                "int64 -- needs 0 <= node < 2^32; remap ids first"
            )
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        t = pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())}
        )
        return t.append_column(
            "pk",
            pc.binary_join_element_wise(
                pc.cast(t["u"], pa.string()),
                pc.cast(t["v"], pa.string()), "|",
            ),
        )

    cur = distinct_first(
        edges.map_batches(canon, batch_format="pyarrow"), "pk"
    ).drop_columns(["pk"]).materialize()

    # budget-gated one-task fast path (bit-identical rounds; the
    # parity pytest forces the distributed branch with local_budget=0)
    if local_budget and cur.size_bytes() <= local_budget:
        return _run_in_one_task(
            cur,
            lambda g: _mis_solve_local(g, rounds, max_rounds),
        )

    def prio(node_np: np.ndarray) -> np.ndarray:
        # 7 hex digits (28 bits): (p << 32 | node) stays under 2^60,
        # so the packed key never overflows int64 on either side
        return np.fromiter(
            (int(hashlib.md5(f"{x}:mis".encode()).hexdigest()[:7], 16)
             for x in node_np.tolist()),
            np.int64, count=len(node_np),
        )

    def key_of(node_np: np.ndarray) -> np.ndarray:
        return (prio(node_np) << np.int64(32)) | node_np

    def nbr_min_partial(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        node = np.concatenate([u, v])
        nk = np.concatenate([key_of(v), key_of(u)])
        order = np.lexsort((nk, node))
        node, nk = node[order], nk[order]
        first = np.empty(len(node), bool)
        first[:1] = True
        if len(node) > 1:
            first[1:] = node[1:] != node[:-1]
        return pa.table(
            {
                "node": pa.array(node[first], pa.int64()),
                "nk": pa.array(nk[first], pa.int64()),
            }
        )

    def actives_of(e_ds):
        def part(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": pa.array(
                        np.unique(np.concatenate(
                            [
                                b["u"].to_numpy(zero_copy_only=False),
                                b["v"].to_numpy(zero_copy_only=False),
                            ]
                        )),
                        pa.int64(),
                    )
                }
            )

        return distinct_first(
            e_ds.map_batches(part, batch_format="pyarrow"), "node"
        )

    active = actives_of(cur).materialize()
    mis_parts = []
    n_rounds = rounds if rounds is not None else max_rounds
    for r in range(n_rounds):
        if active.count() == 0:
            break
        if cur.count() == 0:
            # every remaining active is stranded: all join the MIS
            mis_parts.append(active)
            active = active.limit(0).materialize()
            break
        nbr_min = (
            cur.map_batches(nbr_min_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("nk", alias_name="nk"))
        ).materialize()

        def winner(b: pa.Table) -> pa.Table:
            node = b["node"].to_numpy(zero_copy_only=False)
            nk = b["nk"].to_numpy(zero_copy_only=False)
            return pa.table(
                {"node": pa.array(node[key_of(node) < nk], pa.int64())}
            )

        mis_r = nbr_min.map_batches(
            winner, batch_format="pyarrow"
        ).materialize()
        # stranded degree-0 actives (not an endpoint of any live edge)
        stranded = anti_join_filter(
            active, actives_of(cur), "node",
            broadcast_budget=broadcast_budget,
        ).materialize()
        picked = mis_r.union(stranded).materialize()
        if picked.count() == 0 and rounds is None:
            break
        mis_parts.append(picked)
        # remove MIS + its neighbors from the active set / edge list
        nbrs = semi_join_filter(
            cur, mis_r, "u", keys_col="node",
            broadcast_budget=broadcast_budget,
        ).map_batches(
            lambda b: pa.table({"node": b["v"]}), batch_format="pyarrow"
        ).union(
            semi_join_filter(
                cur, mis_r, "v", keys_col="node",
                broadcast_budget=broadcast_budget,
            ).map_batches(
                lambda b: pa.table({"node": b["u"]}),
                batch_format="pyarrow",
            )
        )
        removed = distinct_first(
            picked.union(nbrs), "node"
        ).materialize()
        active = anti_join_filter(
            active, removed, "node", broadcast_budget=broadcast_budget
        ).materialize()
        cur = anti_join_filter(
            anti_join_filter(
                cur,
                removed.map_batches(
                    lambda b: pa.table({"u": b["node"]}),
                    batch_format="pyarrow",
                ),
                "u", broadcast_budget=broadcast_budget,
            ),
            removed.map_batches(
                lambda b: pa.table({"v": b["node"]}),
                batch_format="pyarrow",
            ),
            "v", broadcast_budget=broadcast_budget,
        ).materialize()
    if not mis_parts:
        import ray.data as rd

        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64())}))
    out = mis_parts[0]
    for m in mis_parts[1:]:
        out = out.union(m)
    return out


def _mis_solve_local(g: pa.Table, rounds, max_rounds: int) -> pa.Table:
    """In-task Luby rounds over the canonical distinct edge list --
    the IDENTICAL (priority << 32 | node) integer math as the
    distributed rounds (bit-identical output by construction; the
    parity pytest forces both paths)."""
    import hashlib

    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    nodes = np.unique(np.concatenate([u, v]))
    n = len(nodes)
    if n == 0:
        return pa.table({"node": pa.array([], pa.int64())})
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    prio = np.fromiter(
        (int(hashlib.md5(f"{x}:mis".encode()).hexdigest()[:7], 16)
         for x in nodes.tolist()),
        np.int64, count=n,
    )
    key = (prio << np.int64(32)) | nodes
    active = np.ones(n, bool)
    in_mis = np.zeros(n, bool)
    n_rounds = rounds if rounds is not None else max_rounds
    big = np.iinfo(np.int64).max
    for _ in range(n_rounds):
        if not active.any():
            break
        live = active[ui] & active[vi]
        if not live.any():
            in_mis |= active
            active[:] = False
            break
        lu, lv = ui[live], vi[live]
        nbrmin = np.full(n, big, np.int64)
        np.minimum.at(nbrmin, lu, key[lv])
        np.minimum.at(nbrmin, lv, key[lu])
        has_edge = np.zeros(n, bool)
        has_edge[lu] = True
        has_edge[lv] = True
        winners = active & has_edge & (key < nbrmin)
        stranded = active & ~has_edge
        picked = winners | stranded
        if rounds is None and not picked.any():
            break
        in_mis |= picked
        removed = picked.copy()
        wu = winners[lu]
        removed[lv[wu]] = True
        wv = winners[lv]
        removed[lu[wv]] = True
        active &= ~removed
    return pa.table({"node": pa.array(nodes[in_mis], pa.int64())})


def _wpr_default_weight(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Deterministic per-edge integer weight 1..8 =
    1 + md5(f"{u}:{v}:w")[:8] % 8 -- a pure function of the pair, so the
    SQL oracle replays it (the negative_samples md5 discipline)."""
    import hashlib

    return np.fromiter(
        (1 + int(hashlib.md5(f"{a}:{b}:w".encode()).hexdigest()[:8],
                 16) % 8
         for a, b in zip(s.tolist(), d.tolist())),
        np.int64, count=len(s),
    )


def _wpr_universe(edges_mat, nodes_ds):
    """(node, wout) universe table = nodes UNION edge sources (pagerank
    parity convention), wout = sum of out-edge weights (0 = dangling)."""
    from ray.data.aggregate import Sum

    def wout_partial(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        w = b["w"].to_numpy(zero_copy_only=False)
        order = np.argsort(s)
        s, w = s[order], w[order]
        brk = np.empty(len(s), bool)
        brk[:1] = True
        if len(s) > 1:
            brk[1:] = s[1:] != s[:-1]
        st = np.flatnonzero(brk)
        sums = np.add.reduceat(w, st) if len(s) else np.array([], np.int64)
        return pa.table(
            {
                "node": pa.array(s[st], pa.int64()),
                "wo": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    zeros = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "wo": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return (
        edges_mat.map_batches(wout_partial, batch_format="pyarrow")
        .union(zeros)
        .groupby("node")
        .aggregate(Sum("wo", alias_name="wout"))
        .materialize()
    )


def pagerank_weighted(
    edges_ds,
    nodes_ds,
    *,
    iterations: int = 3,
    scale: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
    weight_fn=None,
    broadcast_budget: int = 256 << 20,
    personalization=None,
):
    """Weighted PageRank (the link-strength variant, public): each
    DISTINCT simple edge (u, v) carries an integer weight and u's rank
    flows proportionally -- the per-edge contribution is the exact
    integer ``rank(u) * w(u,v) // wout(u)`` (``wout`` = sum of u's
    out-weights), every term order-free int64, so the unrolled SQL
    oracle matches bit-for-bit.  Teleport, damping, dangling
    redistribution and the node universe (nodes UNION edge sources;
    contributions to destinations outside it drop) all mirror
    :func:`pagerank`'s conventions; ``weight_fn(src, dst) -> int64``
    defaults to the md5-derived 1..8 table (:func:`_wpr_default_weight`).
    (marc2rdf analog: authority links weighted by occurrence counts in
    the enrichment joins, SURVEY.md SS2.5.)

    Returns (node, rank) in 1/scale units.

    ``personalization``: an iterable of node ids -- the PERSONALIZED
    variant (public: the random-walk-with-restart family): the teleport
    base AND the dangling redistribution go to the seed set only
    (``scale // n_seeds`` each, floor-divided exactly like the uniform
    case), other nodes start at 0.  Seeds outside the node universe are
    ignored; an empty effective seed set raises.  Every term stays
    order-free int64, so the unrolled oracle replays bit-for-bit.

    Scale shape: the weighted adjacency (src, dst, w) materializes once
    (distinct via the int64-packed pair key, guarded to ids < 2^32);
    per iteration ONE (dst, contrib) combiner groupby-sum + one slim
    dangling aggregate + one broadcast-or-join rank attach; rank state
    is a slim (node, rank) table.  The seed set broadcasts once via
    ray.put (seed sets are query-sized; a corpus-sized one would need a
    join-side flag, the attach_map shape)."""
    from ray.data.aggregate import Sum

    from .dedup import distinct_first, normalize_join_blocks

    import ray

    weight_fn = weight_fn or _wpr_default_weight
    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if len(s) and (
            s.min() < 0 or d.min() < 0
            or s.max() >= 1 << 32 or d.max() >= 1 << 32
        ):
            raise ValueError(
                "pagerank_weighted packs (src, dst) into int64 distinct "
                "keys -- needs 0 <= node < 2^32; remap ids first"
            )
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "pk": pa.array((s << np.int64(32)) | d, pa.int64()),
            }
        )

    def add_w(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": b["src"],
                "dst": b["dst"],
                "w": pa.array(weight_fn(s, d), pa.int64()),
            }
        )

    edges = distinct_first(
        edges_ds.map_batches(canon, batch_format="pyarrow"), "pk"
    ).drop_columns(["pk"]).map_batches(
        add_w, batch_format="pyarrow"
    ).materialize()

    uni = _wpr_universe(edges, nodes_ds)  # (node, wout)
    n_nodes = uni.count()
    if not n_nodes:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.int64())}
            )
        )
    seeds_sorted = None
    seeds_ref = None
    if personalization is not None:
        want = np.unique(np.asarray(list(personalization), np.int64))
        uni_nodes = np.sort(np.concatenate([
            t["node"].to_numpy(zero_copy_only=False)
            for t in ray.get(uni.to_arrow_refs()) if t.num_rows
        ]))
        pos = np.searchsorted(uni_nodes, want)
        ok = (pos < len(uni_nodes)) & (
            uni_nodes[np.minimum(pos, max(len(uni_nodes) - 1, 0))] == want
        )
        seeds_sorted = want[ok]
        if not len(seeds_sorted):
            raise ValueError(
                "pagerank_weighted: no personalization seed is in the "
                "node universe"
            )
        seeds_ref = ray.put(seeds_sorted)
        n_base = len(seeds_sorted)
    else:
        n_base = n_nodes
    base = scale // n_base
    comp_num = damping_den - damping_num

    def _seed_mask(nodes_np, _ref=seeds_ref):
        import ray as _r

        a = _r.get(_ref)
        p = np.searchsorted(a, nodes_np)
        return (p < len(a)) & (a[np.minimum(p, len(a) - 1)] == nodes_np)

    # attach wout to edges once (broadcast-or-join)
    def attach_map(ds, mat, key, valcol, out_name):
        if mat.size_bytes() <= broadcast_budget:
            tabs = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
            tab = pa.concat_tables(tabs, promote_options="default")
            nd = tab["node"].to_numpy(zero_copy_only=False)
            vl = tab[valcol].to_numpy(zero_copy_only=False)
            order = np.argsort(nd)
            ref = ray.put({"n": nd[order], "v": vl[order]})

            def look(b: pa.Table) -> pa.Table:
                a = ray.get(ref)
                k = b[key].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(a["n"], k)
                return b.append_column(
                    out_name, pa.array(a["v"][pos], pa.int64())
                )

            return ds.map_batches(look, batch_format="pyarrow")
        side = mat.map_batches(
            lambda b, _o=out_name: pa.table(
                {"_mk": b["node"], _o: b[valcol]}
            ),
            batch_format="pyarrow",
        )
        return normalize_join_blocks(ds, nparts).join(
            normalize_join_blocks(side, nparts),
            join_type="inner", num_partitions=nparts,
            on=(key,), right_on=("_mk",),
        )

    edges_w = attach_map(edges, uni, "src", "wout", "wo").materialize()

    def init_r(b: pa.Table, _base=base) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False)
        if seeds_sorted is None:
            r = np.full(len(b), _base, np.int64)
        else:
            r = np.where(_seed_mask(n), np.int64(_base), np.int64(0))
        return pa.table({"node": b["node"], "r": pa.array(r, pa.int64())})

    ranks = uni.map_batches(init_r, batch_format="pyarrow").materialize()

    for _ in range(iterations):
        # dangling mass (wout == 0 in the universe)
        dang_ds = attach_map(ranks, uni, "node", "wout", "wo")
        t = dang_ds.map_batches(
            lambda b: pa.table(
                {
                    "m": pa.array(
                        [int(
                            pc.sum(
                                pc.if_else(
                                    pc.equal(b["wo"], 0), b["r"],
                                    pa.scalar(0, pa.int64()),
                                )
                            ).as_py() or 0
                        )],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).aggregate(Sum("m", alias_name="m"))
        dang = int(t["m"]) if t and t["m"] is not None else 0
        share = dang // n_base

        with_r = attach_map(edges_w, ranks, "src", "r", "rr")

        def contrib(b: pa.Table) -> pa.Table:
            d = b["dst"].to_numpy(zero_copy_only=False)
            r = b["rr"].to_numpy(zero_copy_only=False)
            w = b["w"].to_numpy(zero_copy_only=False)
            wo = b["wo"].to_numpy(zero_copy_only=False)
            c = (r * w) // np.maximum(wo, 1)
            order = np.argsort(d)
            d, c = d[order], c[order]
            brk = np.empty(len(d), bool)
            brk[:1] = True
            if len(d) > 1:
                brk[1:] = d[1:] != d[:-1]
            st = np.flatnonzero(brk)
            sums = (np.add.reduceat(c, st)
                    if len(d) else np.array([], np.int64))
            return pa.table(
                {
                    "node": pa.array(d[st], pa.int64()),
                    "c": pa.array(sums.astype(np.int64), pa.int64()),
                }
            )

        contribs = (
            with_r.map_batches(contrib, batch_format="pyarrow")
            .union(
                uni.map_batches(
                    lambda b: pa.table(
                        {
                            "node": b["node"],
                            "c": pa.array(
                                np.zeros(len(b), np.int64), pa.int64()
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                )
            )
            .groupby("node")
            .aggregate(Sum("c", alias_name="s"))
        )
        # drop contributions to nodes outside the universe: the zero
        # rows above cover exactly the universe, so semi-filter via an
        # inner attach back onto uni
        def apply_r(b: pa.Table, _sh=share) -> pa.Table:
            n = b["node"].to_numpy(zero_copy_only=False)
            s = b["s"].to_numpy(zero_copy_only=False)
            if seeds_sorted is None:
                r = (comp_num * base + damping_num * (s + _sh)) \
                    // damping_den
            else:
                m = _seed_mask(n)
                r = (comp_num * np.where(m, np.int64(base), np.int64(0))
                     + damping_num
                     * (s + np.where(m, np.int64(_sh), np.int64(0)))
                     ) // damping_den
            return pa.table(
                {"node": b["node"], "r": pa.array(r, pa.int64())}
            )

        ranks = attach_map(
            uni, contribs.materialize(), "node", "s", "s"
        ).map_batches(apply_r, batch_format="pyarrow").materialize()
    return ranks.map_batches(
        lambda b: pa.table({"node": b["node"], "rank": b["r"]}),
        batch_format="pyarrow",
    )


def pagerank_weighted_local(
    edges_ds,
    nodes_ds,
    *,
    budget: int = 128 << 20,
    iterations: int = 3,
    scale: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
    weight_fn=None,
    personalization=None,
):
    """Budget-gated one-task weighted PageRank -- the identical integer
    recurrence vectorized with np.add.at (bit-identical to
    :func:`pagerank_weighted`, incl. the ``personalization`` seed-set
    teleport/dangling variant; the parity pytest runs both).  Returns
    the (node, rank) Dataset or ``None`` when over budget."""
    weight_fn = weight_fn or _wpr_default_weight
    mat_e = edges_ds.materialize()
    if mat_e.size_bytes() > budget:
        return None
    import ray

    etabs = [t for t in ray.get(mat_e.to_arrow_refs()) if t.num_rows]
    ntabs = [t for t in ray.get(
        nodes_ds.materialize().to_arrow_refs()) if t.num_rows]
    et = (pa.concat_tables(etabs, promote_options="default")
          if etabs else pa.table({"src": [], "dst": []}))
    nt = (pa.concat_tables(ntabs, promote_options="default")
          if ntabs else pa.table({"node": []}))
    s = np.asarray(et["src"].to_pylist(), np.int64)
    d = np.asarray(et["dst"].to_pylist(), np.int64)
    keep = s != d
    s, d = s[keep], d[keep]
    if len(s) and (
        s.min() < 0 or d.min() < 0
        or s.max() >= 1 << 32 or d.max() >= 1 << 32
    ):
        # Same guard as the distributed canon(): ids outside [0, 2^32)
        # would silently alias (src << 32) | dst pairs and break the
        # documented bit-parity with pagerank_weighted.
        raise ValueError(
            "pagerank_weighted packs (src, dst) into int64 distinct "
            "keys -- needs 0 <= node < 2^32; remap ids first"
        )
    if len(s):
        pk = (s << np.int64(32)) | d
        _, first = np.unique(pk, return_index=True)
        s, d = s[first], d[first]
    w = weight_fn(s, d) if len(s) else np.array([], np.int64)
    base_nodes = np.asarray(nt["node"].to_pylist(), np.int64)
    uni = np.unique(np.concatenate([base_nodes, s]))
    n = len(uni)
    import ray.data as rd

    if n == 0:
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.int64())}
            )
        )
    si = np.searchsorted(uni, s)
    in_uni = np.searchsorted(uni, d)
    d_ok = (in_uni < n) & (uni[np.minimum(in_uni, n - 1)] == d)
    wout = np.zeros(n, np.int64)
    np.add.at(wout, si, w)
    comp_num = damping_den - damping_num
    if personalization is not None:
        want = np.unique(np.asarray(list(personalization), np.int64))
        smask = np.isin(uni, want)
        n_base = int(smask.sum())
        if not n_base:
            raise ValueError(
                "pagerank_weighted: no personalization seed is in the "
                "node universe"
            )
        base = scale // n_base
        base_v = np.where(smask, np.int64(base), np.int64(0))
    else:
        n_base = n
        base = scale // n
        base_v = np.full(n, base, np.int64)
        smask = None
    r = base_v.copy()
    for _ in range(iterations):
        dang = int(r[wout == 0].sum())
        share = dang // n_base
        share_v = (np.where(smask, np.int64(share), np.int64(0))
                   if smask is not None else share)
        c = (r[si] * w) // np.maximum(wout[si], 1)
        sums = np.zeros(n, np.int64)
        np.add.at(sums, in_uni[d_ok], c[d_ok])
        r = (comp_num * base_v + damping_num * (sums + share_v)) \
            // damping_den
    return rd.from_arrow(
        pa.table(
            {"node": pa.array(uni, pa.int64()),
             "rank": pa.array(r, pa.int64())}
        )
    )


def _stress_solve_local(g: pa.Table, seeds: np.ndarray,
                        depth: int = 3) -> pa.Table:
    """In-task sampled stress centrality: per seed a depth-bounded BFS
    DAG with shortest-path counts (sigma), then the integer backward
    path-count g(v) = sum over DAG successors of (1 + g(w)); stress(v)
    accumulates sigma(v) * g(v).  Pure integer arithmetic."""
    s = g["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = g["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = s != d
    s, d = s[keep], d[keep]
    if len(s) and (
        s.min() < 0 or d.min() < 0
        or s.max() >= 1 << 32 or d.max() >= 1 << 32
    ):
        # Mirror the distributed canon()'s guard so the budget-gated
        # fast path cannot silently alias packed pairs where the
        # distributed path would raise.
        raise ValueError(
            "stress_centrality_sampled packs (seed, node) into "
            "int64 -- needs 0 <= node < 2^32; remap ids first"
        )
    if len(s):
        pk = (s << np.int64(32)) | d
        _, first = np.unique(pk, return_index=True)
        s, d = s[first], d[first]
    adj: dict = {}
    for a, b in zip(s.tolist(), d.tolist()):
        adj.setdefault(a, []).append(b)
    stress: dict = {}
    for seed in seeds.tolist():
        levels = [{seed: 1}]
        seen = {seed}
        for _ in range(depth):
            nxt: dict = {}
            for v, sig in levels[-1].items():
                for w in adj.get(v, ()):
                    if w in seen:
                        continue
                    nxt[w] = nxt.get(w, 0) + sig
            nxt = {w: c for w, c in nxt.items() if w not in seen}
            seen |= set(nxt)
            levels.append(nxt)
        gnext: dict = {}
        for lv in range(depth - 1, 0, -1):
            cur: dict = {}
            tgt = levels[lv + 1]
            for v, sig in levels[lv].items():
                tot = 0
                for w in adj.get(v, ()):
                    if w in tgt:
                        tot += 1 + gnext.get(w, 0)
                if tot:
                    cur[v] = tot
                    stress[v] = stress.get(v, 0) + sig * tot
            gnext = cur
    items = sorted(stress.items())
    return pa.table(
        {
            "node": pa.array([k for k, _ in items], pa.int64()),
            "stress": pa.array([v for _, v in items], pa.int64()),
        }
    )


def stress_centrality_sampled(
    edges,
    seeds_ds,
    *,
    depth: int = 3,
    broadcast_budget: int = 256 << 20,
    local_budget: int = 128 << 20,
):
    """Sampled-source, depth-bounded STRESS centrality (Shimbel 1953 /
    the integer cousin of Brandes betweenness, public): for every seed
    ``s`` and target ``t`` within ``depth`` hops, each intermediate
    ``v`` on a shortest s->t path earns sigma_s(v) * (number of
    shortest-path continuations v->t) -- equivalently, per seed BFS
    DAG, forward shortest-path counts sigma and the backward integer
    recurrence g(v) = sum over DAG successors w of (1 + g(w)); stress
    += sigma * g.  All integer (no Brandes fractions), so the SQL
    oracle unrolls the levels with a seed dimension and matches
    bit-for-bit.  Sampled sources + bounded depth is the standard
    tractable estimator at web scale (hub detection for crawl
    prioritization; marc2rdf analog: which authority records sit on
    most reference chains).

    Returns (node, stress) for nodes with stress > 0.

    Scale shape: state is keyed by the packed (seed << 32 | node) pair
    (ids < 2^32, guarded); each forward level is one frontier-edges
    join + per-batch pair combiner + groupby-sum + one
    broadcast-or-anti-join against the visited pair set; each backward
    step is one join + broadcast membership/value lookup against the
    NEXT level (per-seed frontier tables are #seeds x bounded-frontier
    rows -- the sampling bound).  Budget-gated one-task fast path first
    (bit-identical; the parity pytest forces both)."""
    from ray.data.aggregate import Sum

    from .dedup import (anti_join_filter, distinct_first,
                        normalize_join_blocks)
    import ray

    mat_e = edges.materialize()
    seeds_mat = seeds_ds.materialize()
    if local_budget and mat_e.size_bytes() <= local_budget:
        stabs = [t for t in ray.get(seeds_mat.to_arrow_refs())
                 if t.num_rows]
        seeds_np = (
            pa.concat_tables(stabs, promote_options="default")["s"]
            .to_numpy(zero_copy_only=False).astype(np.int64)
            if stabs else np.array([], np.int64)
        )
        return _run_in_one_task(
            mat_e, lambda g: _stress_solve_local(g, seeds_np, depth)
        )

    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if len(s) and (
            s.min() < 0 or d.min() < 0
            or s.max() >= 1 << 32 or d.max() >= 1 << 32
        ):
            raise ValueError(
                "stress_centrality_sampled packs (seed, node) into "
                "int64 -- needs 0 <= node < 2^32; remap ids first"
            )
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "pk": pa.array((s << np.int64(32)) | d, pa.int64()),
            }
        )

    e_ds = distinct_first(
        mat_e.map_batches(canon, batch_format="pyarrow"), "pk"
    ).drop_columns(["pk"]).materialize()

    def pair_combine(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False)
        c = b["sig"].to_numpy(zero_copy_only=False)
        order = np.argsort(k)
        k, c = k[order], c[order]
        brk = np.empty(len(k), bool)
        brk[:1] = True
        if len(k) > 1:
            brk[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(brk)
        sums = np.add.reduceat(c, st) if len(k) else np.array([], np.int64)
        return pa.table(
            {
                "key": pa.array(k[st], pa.int64()),
                "sig": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    frontier = seeds_mat.map_batches(
        lambda b: pa.table(
            {
                "s": pc.cast(b["s"], pa.int64()),
                "v": pc.cast(b["s"], pa.int64()),
                "sig": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    visited = frontier.map_batches(
        lambda b: pa.table(
            {
                "key": pa.array(
                    (b["s"].to_numpy(zero_copy_only=False)
                     << np.int64(32))
                    | b["v"].to_numpy(zero_copy_only=False),
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    levels = [frontier]
    for _ in range(depth):
        expanded = normalize_join_blocks(
            levels[-1], nparts
        ).join(
            normalize_join_blocks(e_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("v",), right_on=("src",),
        ).map_batches(
            lambda b: pa.table(
                {
                    "key": pa.array(
                        (b["s"].to_numpy(zero_copy_only=False)
                         << np.int64(32))
                        | b["dst"].to_numpy(zero_copy_only=False),
                        pa.int64(),
                    ),
                    "sig": b["sig"],
                }
            ),
            batch_format="pyarrow",
        ).map_batches(pair_combine, batch_format="pyarrow")
        nxt = anti_join_filter(
            expanded.groupby("key").aggregate(
                Sum("sig", alias_name="sig")
            ),
            visited, "key", broadcast_budget=broadcast_budget,
        ).map_batches(
            lambda b: pa.table(
                {
                    "s": pa.array(
                        b["key"].to_numpy(zero_copy_only=False)
                        >> np.int64(32), pa.int64()),
                    "v": pa.array(
                        b["key"].to_numpy(zero_copy_only=False)
                        & np.int64(0xFFFFFFFF), pa.int64()),
                    "sig": b["sig"],
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        levels.append(nxt)
        visited = distinct_first(
            visited.union(
                nxt.map_batches(
                    lambda b: pa.table(
                        {
                            "key": pa.array(
                                (b["s"].to_numpy(zero_copy_only=False)
                                 << np.int64(32))
                                | b["v"].to_numpy(zero_copy_only=False),
                                pa.int64(),
                            )
                        }
                    ),
                    batch_format="pyarrow",
                )
            ),
            "key",
        ).materialize()

    def level_map(lv_ds, g_ds=None):
        """Broadcast {packed (s,w) -> g} over ALL of a level's pairs
        (membership implies term >= 1; g defaults to 0 for pairs with
        no deeper continuation -- they are still targets)."""
        tabs = [t for t in ray.get(lv_ds.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return None
        tab = pa.concat_tables(tabs, promote_options="default")
        k = ((tab["s"].to_numpy(zero_copy_only=False) << np.int64(32))
             | tab["v"].to_numpy(zero_copy_only=False))
        order = np.argsort(k)
        k = k[order]
        val = np.zeros(len(k), np.int64)
        if g_ds is not None:
            gtabs = [t for t in ray.get(g_ds.to_arrow_refs())
                     if t.num_rows]
            if gtabs:
                gt = pa.concat_tables(gtabs, promote_options="default")
                gk = ((gt["s"].to_numpy(zero_copy_only=False)
                       << np.int64(32))
                      | gt["v"].to_numpy(zero_copy_only=False))
                gv = gt["g"].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(k, gk)
                ok = (pos < len(k)) & (
                    k[np.minimum(pos, len(k) - 1)] == gk
                )
                val[pos[ok]] = gv[ok]
        return ray.put({"k": k, "g": val})

    stress_parts = []
    gnext_ds = None  # (s, v, g) of level lv+1
    for lv in range(depth - 1, 0, -1):
        ref = level_map(levels[lv + 1], gnext_ds)
        if ref is None:
            gnext_ds = None
            continue

        def backstep(b: pa.Table, _ref=ref) -> pa.Table:
            a = ray.get(_ref)
            key = ((b["s"].to_numpy(zero_copy_only=False)
                    << np.int64(32))
                   | b["dst"].to_numpy(zero_copy_only=False))
            pos = np.searchsorted(a["k"], key)
            ok = (pos < len(a["k"])) & (
                a["k"][np.minimum(pos, len(a["k"]) - 1)] == key
            )
            term = np.where(
                ok, 1 + a["g"][np.minimum(pos, len(a["k"]) - 1)], 0
            )
            keep = term > 0
            return pa.table(
                {
                    "key": pa.array(
                        ((b["s"].to_numpy(zero_copy_only=False)
                          << np.int64(32))
                         | b["v"].to_numpy(zero_copy_only=False))[keep],
                        pa.int64(),
                    ),
                    "sig": pa.array(term[keep], pa.int64()),
                }
            )

        g_ds = normalize_join_blocks(levels[lv], nparts).join(
            normalize_join_blocks(e_ds, nparts),
            join_type="inner", num_partitions=nparts,
            on=("v",), right_on=("src",),
        ).map_batches(backstep, batch_format="pyarrow").map_batches(
            pair_combine, batch_format="pyarrow"
        ).groupby("key").aggregate(
            Sum("sig", alias_name="g")
        ).map_batches(
            lambda b: pa.table(
                {
                    "s": pa.array(
                        b["key"].to_numpy(zero_copy_only=False)
                        >> np.int64(32), pa.int64()),
                    "v": pa.array(
                        b["key"].to_numpy(zero_copy_only=False)
                        & np.int64(0xFFFFFFFF), pa.int64()),
                    "g": b["g"],
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        gnext_ds = g_ds
        # stress terms for this level: sigma * g joined on (s, v)
        gm = level_map(g_ds, g_ds)
        if gm is None:
            continue

        def terms(b: pa.Table, _ref=gm) -> pa.Table:
            a = ray.get(_ref)
            key = ((b["s"].to_numpy(zero_copy_only=False)
                    << np.int64(32))
                   | b["v"].to_numpy(zero_copy_only=False))
            pos = np.searchsorted(a["k"], key)
            ok = (pos < len(a["k"])) & (
                a["k"][np.minimum(pos, len(a["k"]) - 1)] == key
            )
            gval = np.where(
                ok, a["g"][np.minimum(pos, len(a["k"]) - 1)], 0
            )
            t = b["sig"].to_numpy(zero_copy_only=False) * gval
            keep = t > 0
            return pa.table(
                {
                    "node": pa.array(
                        b["v"].to_numpy(zero_copy_only=False)[keep],
                        pa.int64(),
                    ),
                    "t": pa.array(t[keep], pa.int64()),
                }
            )

        stress_parts.append(
            levels[lv].map_batches(terms, batch_format="pyarrow")
        )
    if not stress_parts:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()),
                 "stress": pa.array([], pa.int64())}
            )
        )
    allp = stress_parts[0]
    for p in stress_parts[1:]:
        allp = allp.union(p)
    return allp.groupby("node").aggregate(Sum("t", alias_name="stress"))
