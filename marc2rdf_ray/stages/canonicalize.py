"""Canonicalization: the shuffle-side of KG construction.

Ray-native redesign of the reference's post-conversion isql rules
(/root/reference/tools/isql/*.isql), which ran inside Virtuoso:

- exact triple dedup on (subj,pred,obj)        -> SURVEY.md §2.7 O3
- sameAs linking by shared key (isbn analog)   -> match_lhmr_deichman.isql:5-43 (J4)
- symmetry closure of one-way edges            -> autogenerated_similarity.isql:130-144 (J6)
- work-key group-aggregate canonicalization    -> joint_work_ids.isql:13-30 (A1)
- connected components over sameAs clusters    (bounded min-label propagation)

Skew design (SURVEY.md §4.2): every groupby here is preceded by a
PER-BATCH partial combine inside ``map_batches`` -- duplicates and repeated
keys collapse locally before any shuffle, which is what defuses hot entities
(the reference's 4-way similarity self-join "crashes Virtuoso",
first_similarity.isql:4; we never build that naive join).  For groups that
must be fully collected, ``salted_group_distinct`` does the explicit
two-phase salt -> merge.
"""

from __future__ import annotations

import logging
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ops import plan
from ..vocab import OWL_SAMEAS

try:  # ray only needed for the Dataset-level helpers
    import ray.data as rd
except Exception:  # pragma: no cover
    rd = None

logger = logging.getLogger(__name__)

TRIPLE_KEY_COLS = ["subj", "pred", "obj", "obj_kind", "lang"]

# worker-global broadcast-table cache for the sameAs canon lookup, keyed
# by ObjectRef hex, least recently used first; holds at most
# _ATTACH_CACHE_BYTES of tables (the newest entry is kept even when it
# alone is larger)
_ATTACH_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACH_CACHE_BYTES = 512 << 20


def _attach_state(key: str, load) -> tuple:
    """The cached ``load()`` result for ``key``; on a miss, loads it and
    evicts the least recently used entries until the cache fits its byte
    cap."""
    state = _ATTACH_CACHE.get(key)
    if state is not None:
        _ATTACH_CACHE.move_to_end(key)
        return state
    state = load()
    size = sum(a.nbytes for a in state)
    held = sum(a.nbytes for v in _ATTACH_CACHE.values() for a in v)
    while _ATTACH_CACHE and held + size > _ATTACH_CACHE_BYTES:
        _, old = _ATTACH_CACHE.popitem(last=False)
        held -= sum(a.nbytes for a in old)
    _ATTACH_CACHE[key] = state
    return state


# -- local (per-batch) combiners ------------------------------------------

def local_dedup(batch: pa.Table, cols: list[str] | None = None) -> pa.Table:
    """Drop duplicate rows within a batch (Arrow group_by, no Python loop)."""
    cols = cols or [c for c in TRIPLE_KEY_COLS if c in batch.column_names]
    other = [c for c in batch.column_names if c not in cols]
    agg = batch.group_by(cols, use_threads=False).aggregate(
        [(c, "min") for c in other]
    )
    return agg.rename_columns(cols + other) if other else agg


def _key_expr(batch: pa.Table, cols: list[str]) -> pa.Array:
    arrs = [pc.coalesce(batch[c], pa.scalar("", pa.string())) for c in cols]
    if len(arrs) == 1:
        return arrs[0]
    return pc.binary_join_element_wise(*arrs, "\x1f")


def with_group_key(batch: pa.Table, cols: list[str], name: str = "gk") -> pa.Table:
    return batch.append_column(name, _key_expr(batch, cols))


# -- dataset-level operators ----------------------------------------------

def dedup_triples(ds, columns: list[str] | None = None,
                  num_buckets: int | None = None):
    """Exact dedup of the triples table on (subj,pred,obj,obj_kind,lang).

    Two-phase: per-batch Arrow dedup (collapses converter duplicates and
    hot keys locally -- this is what defuses skew), then a hash-bucket
    shuffle (hash(key) % B, columnar via functions.hashing) with ONE Arrow
    group_by per bucket.  The shuffle key is a small int, groups are
    partition-sized (one task per bucket, B ~ 4x CPUs), and no Python runs
    per distinct key OR per row -- 4-6x faster than both a per-group
    map_groups (Python per key) and a sort-aggregate on long composite
    string keys.

    ``columns``: the output column list (default: full triples layout);
    pass explicitly for reduced layouts since the input is lazy.
    """
    from ..functions.hashing import bucket_codes

    columns = columns or ["subj", "pred", "obj", "obj_kind", "lang", "src"]
    key_cols = [c for c in TRIPLE_KEY_COLS if c in columns]
    if num_buckets is None:
        try:
            import ray

            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            ncpu = 8
        num_buckets = max(16, ncpu * 4)

    def pre_dedup(b: pa.Table) -> pa.Table:
        b = with_group_key(local_dedup(b.select(columns), key_cols), key_cols)
        buckets = bucket_codes(b["gk"], num_buckets)
        return b.drop_columns(["gk"]).append_column("bucket", buckets)

    def bucket_dedup(group: pa.Table) -> pa.Table:
        return local_dedup(group.drop_columns(["bucket"]), key_cols)

    pre = ds.map_batches(pre_dedup, batch_format="pyarrow")
    return pre.groupby("bucket").map_groups(bucket_dedup, batch_format="pyarrow")


def sameas_by_shared_key(triples_ds, key_pred: str):
    """J4: subjects sharing an identifier value get owl:sameAs edges toward
    the group-minimum subject (star topology; the symmetric closure is a
    separate op, as in the reference).

    Only SAME-KIND subjects merge: the reference's isql joins link docs to
    docs and works to works (match_lhmr_deichman.isql:5-43 vs 46-89), never
    across levels -- so the group key is (identifier value, subject kind),
    where kind distinguishes record-level subjects (subj == src) from
    derived entity subjects (minted URIs).
    Input: triples ds; output: triples-shaped sameAs edge ds."""

    def extract_pairs(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["pred"], pa.scalar(key_pred)))
        kind = pc.if_else(
            pc.equal(b["subj"], b["src"]),
            pa.scalar("self"),
            pa.scalar("derived"),
        )
        key = pc.binary_join_element_wise(b["obj"], kind, "\x1f")
        t = pa.table({"obj": key, "subj": b["subj"]})
        return local_dedup(t, ["obj", "subj"])

    # pairs feeds TWO consumers (the canon groupby and the attach map);
    # materialize the SLIM pair set once so the full upstream plan -- the
    # document scan and per-record hashing that produced the key triples --
    # does not execute twice.  Pairs are (identifier, subject) only, a few
    # hundred bytes per input record vs multi-KB payloads upstream; blocks
    # live in (and spill from) the object store, never the driver.
    pairs = triples_ds.map_batches(
        extract_pairs, batch_format="pyarrow"
    ).materialize()

    # canonical representative per key: a NATIVE sort-aggregate (no
    # Python-per-group).  Then attach canon to every pair:
    # - small canon side (the common case: one row per distinct shared
    #   identifier): BROADCAST it via ray.put and map -- no second shuffle
    #   (ray_guide 'Joins and lookups');
    # - large canon side: fall back to the hash join (scale path).
    # subj == canon rows drop out, so single-member groups emit nothing,
    # as in the reference.
    from ray.data.aggregate import Min

    import ray

    canon = pairs.groupby("obj").aggregate(Min("subj", alias_name="canon"))
    # broadcast-vs-join decision is BYTE-based (a row-count limit lets
    # hundreds of MB of long URIs onto the driver; VERDICT r1 #4)
    ctab, canon_mat = plan.small_side("sameas_by_shared_key", canon)

    def emit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b["subj"], b["canon"]))
        n = len(b)
        key = pc.binary_join_element_wise(
            pa.array(["sameas"] * n, pa.string()), b["obj"], ":"
        )
        return pa.table(
            {
                "subj": b["subj"],
                "pred": pa.array([OWL_SAMEAS] * n, pa.string()),
                "obj": b["canon"],
                "obj_kind": pa.array(["uri"] * n, pa.string()),
                "lang": pa.array([None] * n, pa.string()),
                "src": key,
            }
        )

    if ctab is not None:
        cref = ray.put(ctab)
        ckey = cref.hex()

        def attach_canon(b: pa.Table) -> pa.Table:
            # columnar lookup: index_in + take against the broadcast
            # table (the per-row dict comprehension was VERDICT r2 #5);
            # missing keys -> null canon -> dropped by emit's filter.
            # Stateless task + worker-global cache keyed by the broadcast
            # ref: same amortization as the old 2-actor pool, none of its
            # per-query startup cost (round-5 task #4).
            def load():
                t = ray.get(cref)
                return (t["obj"].combine_chunks(),
                        t["canon"].combine_chunks())

            state = _attach_state(ckey, load)
            idx = pc.index_in(b["obj"], value_set=state[0])
            canon_col = pc.take(state[1], idx)
            return emit(b.append_column("canon", canon_col))

        return pairs.map_batches(attach_canon, batch_format="pyarrow")

    nparts = max(2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2))
    joined = pairs.join(
        canon_mat, join_type="inner", num_partitions=nparts, on=("obj",)
    )
    return joined.map_batches(emit, batch_format="pyarrow")


def _empty_edges() -> pa.Table:
    return pa.table(
        {
            "subj": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "obj": pa.array([], pa.string()),
            "obj_kind": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "src": pa.array([], pa.string()),
        }
    )


def symmetry_closure(edges_ds, dedup: bool = True):
    """J6: for every (a p b) ensure (b p a) exists: emit both orientations
    in ONE pass and dedup -- the set-op reformulation of the reference's
    INSERT-where-missing anti-join (autogenerated_similarity.isql:130-144).
    Single consumption of the input (a union of two branches would execute
    the upstream plan twice).

    ``dedup=False`` defers duplicate elimination to a downstream stage that
    already shuffles by subject (e.g. materialize_graph(dedup=True))."""

    def both_orientations(batch: pa.Table) -> pa.Table:
        cols = {name: batch[name] for name in batch.column_names}
        cols["subj"], cols["obj"] = batch["obj"], batch["subj"]
        return pa.concat_tables([batch, pa.table(cols).select(batch.column_names)])

    doubled = edges_ds.map_batches(both_orientations, batch_format="pyarrow")
    return dedup_triples(doubled) if dedup else doubled


def salted_group_distinct(ds, key_cols: list[str], value_col: str, salt: int = 16):
    """Two-phase distinct-collect for skewed groups: phase 1 groups on
    (key, salt(value)) and collapses locally; phase 2 merges per key.
    Correct because set-union is associative+commutative (SURVEY.md §7.4).
    Returns ds with one row per (key, value) pair, hot keys defused."""

    def add_salt(batch: pa.Table) -> pa.Table:
        batch = with_group_key(batch, key_cols, "gk")
        h = pc.cast(
            pc.bit_wise_and(_hash64(batch[value_col]), pa.scalar(salt - 1)),
            pa.int32(),
        )
        salted = pc.binary_join_element_wise(
            batch["gk"], pc.cast(h, pa.string()), "#"
        )
        return batch.append_column("gk_salted", salted)

    def head_distinct(group: pa.Table) -> pa.Table:
        return local_dedup(group, ["gk", value_col])

    phase1 = (
        ds.map_batches(
            lambda b: local_dedup(add_salt(b), ["gk_salted", value_col]),
            batch_format="pyarrow",
        )
        .groupby("gk_salted")
        .map_groups(head_distinct, batch_format="pyarrow")
    )
    phase2 = phase1.groupby("gk").map_groups(
        head_distinct, batch_format="pyarrow"
    )
    return phase2.drop_columns(
        [c for c in ("gk", "gk_salted") if c in phase2.schema().names]
    )


def _hash64(arr: pa.Array) -> pa.Array:
    """Columnar deterministic 64-bit hash (functions.hashing); the previous
    ``hash()`` fallback was per-row Python AND PYTHONHASHSEED-dependent."""
    import numpy as np

    from ..functions.hashing import hash_strings_u64

    return pa.array(
        (hash_strings_u64(arr) & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
    )


def _label_fingerprint(labels) -> tuple:
    """Two independent fingerprints of a (node, label) table, one row
    per node: the wrap-sum mod 2^64 and the xor of a per-row hash of
    (node, label), each under its own pair of ``hash_strings_u64`` seeds
    (the ``ops/graph._color_fingerprint`` discipline: a changed table
    must collide in both to pass for unchanged).  The row hash takes the
    node in, so labels moving between nodes still change it.  One pass:
    per-block partials, reduced on the driver."""
    from ..functions.hashing import hash_strings_u64

    def row_hash(b: pa.Table, seed: int) -> np.ndarray:
        n = hash_strings_u64(b["node"], seed)
        return (n * np.uint64(0x9E3779B97F4A7C15)) ^ hash_strings_u64(
            b["label"], seed + 1
        )

    def partials(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s": pa.array([row_hash(b, 1).sum(dtype=np.uint64)], pa.uint64()),
                "x": pa.array(
                    [np.bitwise_xor.reduce(row_hash(b, 3), dtype=np.uint64)],
                    pa.uint64(),
                ),
            }
        )

    s = x = 0
    for r in labels.map_batches(partials, batch_format="pyarrow").take_all():
        s += r["s"]
        x ^= r["x"]
    return s & ((1 << 64) - 1), x


def connected_components(edges_ds, rounds: int = 3, doubling: bool = True):
    """Min-label propagation over undirected edges -> ds of (node, root).

    Fully native per round -- NO Python runs per node or per group
    (VERDICT r1 'What's wrong #1'):

    - initial labels: ``groupby(node).aggregate(Min(nbr))`` over the
      bidirected edge list with self-loops appended (min over
      {node} ∪ neighbors);
    - neighbor propagation: hash-JOIN labels onto the edge list, project
      each edge's label to its neighbor, then one native Min aggregate;
    - pointer doubling (``doubling=True``): additionally join labels with
      themselves (label(node) <- label(label(node))), which contracts
      cluster diameter quadratically -- O(log d) rounds for diameter d
      instead of O(d) (NOTES.md r1 #4).

    Rounds are BOUNDED: the sameAs clusters built upstream are star-shaped
    (diameter <= 2), so the default 3 rounds is exact for them with margin;
    callers with deeper graphs raise ``rounds`` (with doubling, 20 rounds
    covers diameter ~2^20).  ``rounds`` is a cap: the rounds stop as soon
    as one leaves the labels unchanged (:func:`_label_fingerprint`), since
    every later round would repeat them.  Labels are materialized once
    per round (one small row per node); state never lives on the driver
    -- no driver-side union-find (SURVEY.md §7.4).
    """
    import ray

    from ..functions.hashing import bucket_codes

    def to_pairs(batch: pa.Table) -> pa.Table:
        # both orientations + self loops => min(nbr) == min({node} ∪ nbrs)
        node = pa.chunked_array(
            [batch["subj"], batch["obj"], batch["subj"], batch["obj"]]
        ).combine_chunks()
        nbr = pa.chunked_array(
            [batch["obj"], batch["subj"], batch["subj"], batch["obj"]]
        ).combine_chunks()
        return local_dedup(pa.table({"node": node, "nbr": nbr}), ["node", "nbr"])

    pairs = edges_ds.map_batches(to_pairs, batch_format="pyarrow").materialize()
    # bucket count sized to the DATA, capped by the cluster (same rationale
    # as ops/graph.py:pagerank): per-round exchanges over near-empty
    # buckets pay pure fixed task cost; ~200k pair-rows per bucket keeps
    # per-bucket Arrow work efficient, and the 2xCPU cap scales out.
    cpu_cap = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
    num_buckets = max(4, min(cpu_cap, pairs.count() // 200_000 + 1))

    def keyed(col_from: str, col_to: str, names=("node", "label")):
        def fn(b: pa.Table) -> pa.Table:
            t = pa.table({names[0]: b[col_from], names[1]: b[col_to]})
            return t.append_column("bucket", bucket_codes(t[names[0]], num_buckets))
        return fn

    def bucket_min(group: pa.Table) -> pa.Table:
        t = (
            group.select(["node", "label"])
            .group_by(["node"], use_threads=False)
            .aggregate([("label", "min")])
        )
        return t.rename_columns(["node", "label"])

    # initial labels: per-bucket vectorized min over the bidirected pairs.
    # NB every materialized label set is repartitioned to num_buckets
    # first: the sort shuffle behind groupby emits as many blocks as it
    # receives, and each round UNIONS three branches -- without the bound,
    # block count compounds per round and task-launch overhead explodes
    # (observed: 1200+ tasks for a 40-row graph by round 4).
    labels = (
        pairs.map_batches(keyed("node", "nbr"), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_min, batch_format="pyarrow")
        .repartition(num_buckets)
        .materialize()
    )

    # Per round: ONE tagged exchange co-locates, per key=node, the edge
    # rows, the label row, and (for pointer doubling) 'ptr' rows bucketed
    # by the LABEL value; each bucket task runs Arrow C++ hash joins
    # in-process -- no per-node Python, no Ray join operator (its actor
    # shuffle cost dominated at small-to-mid scale), 2 shuffles per round.
    def tag(b: pa.Table, key: str, a: str, kind: int) -> pa.Table:
        t = pa.table(
            {
                "key": b[key],
                "a": b[a],
                "kind": pa.array([kind] * len(b), pa.int8()),
            }
        )
        return t.append_column("bucket", bucket_codes(t["key"], num_buckets))

    def bucket_join(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        labs = group.filter(pc.equal(kind, 1))
        lab_tbl = pa.table({"key": labs["key"], "label": labs["a"]})
        outs = [pa.table({"node": labs["key"], "label": labs["a"]})]
        edges = group.filter(pc.equal(kind, 0))
        if len(edges):
            e = pa.table({"key": edges["key"], "tgt": edges["a"]}).join(
                lab_tbl, keys="key", join_type="inner", use_threads=False
            )
            outs.append(pa.table({"node": e["tgt"], "label": e["label"]}))
        ptrs = group.filter(pc.equal(kind, 2))
        if len(ptrs):
            p = pa.table({"key": ptrs["key"], "tgt": ptrs["a"]}).join(
                lab_tbl, keys="key", join_type="inner", use_threads=False
            )
            outs.append(pa.table({"node": p["tgt"], "label": p["label"]}))
        return pa.concat_tables(outs)

    # fingerprint after every round but the last, to stop at a fixpoint
    prev = _label_fingerprint(labels) if rounds > 2 else None
    for r in range(max(0, rounds - 1)):
        branches = [
            pairs.map_batches(
                lambda b: tag(b, "node", "nbr", 0), batch_format="pyarrow"
            ),
            labels.map_batches(
                lambda b: tag(b, "node", "label", 1), batch_format="pyarrow"
            ),
        ]
        if doubling:
            # ptr rows: key = current label, a = node; joined against the
            # label row of the LABEL's node => label(label(node))
            branches.append(
                labels.map_batches(
                    lambda b: tag(b, "label", "node", 2), batch_format="pyarrow"
                )
            )
        # STAGE the union before its all-to-all, and the join output
        # before the second all-to-all: a Union feeding a sort wedges the
        # streaming executor once the unioned data approaches the
        # execution memory budget -- the Union's queued bundles count
        # against the budget, blocking the sort's task admission, which
        # keeps the Union from ever draining (the pipelines/kg.py:304-312
        # deadlock, reproduced here at 100M edges: Union holding 3.8 GB
        # with every branch backpressured and the sort at 0 tasks for
        # 20+ min).  materialize() moves those blocks out of the
        # executor's budget (the object store spills them gracefully if
        # needed), so each lazy chain keeps exactly ONE all-to-all.
        tagged = branches[0].union(*branches[1:]).materialize()
        msgs = (
            tagged.groupby("bucket")
            .map_groups(bucket_join, batch_format="pyarrow")
            .materialize()
        )
        labels = (
            msgs.map_batches(keyed("node", "label"), batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_min, batch_format="pyarrow")
            .repartition(num_buckets)  # bound block growth (see above)
            .materialize()
        )
        # the same blocks without their lineage: each round reads the
        # previous labels in two branches, and the history Ray keeps
        # through materialize() doubled every round (an 8-node chain's
        # 11th round took 17 s, its 4th 0.9 s)
        labels = rd.from_arrow_refs(labels.to_arrow_refs())
        if r + 2 < rounds:
            fp = _label_fingerprint(labels)
            if fp == prev:
                logger.info(
                    "connected_components: fixpoint after %d of %d rounds",
                    r + 1, rounds - 1,
                )
                break
            prev = fp

    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "root": b["label"]}),
        batch_format="pyarrow",
    )


def similarity_pairs(ds, key_cols: list[str], id_col: str,
                     max_group: int = 1000):
    """J5 similarity self-join, reformulated group-then-pair: items sharing
    ALL ``key_cols`` values become pairs (a < b).  The reference's naive
    4-constraint self-join "crashes Virtuoso" (first_similarity.isql:4);
    grouping by the composite feature key bounds the work to group-local
    pairs, and ``max_group`` caps pathological hot groups (capped groups are
    truncated deterministically by sorted id; cap events are observable in
    the output as exactly max_group*(max_group-1)/2 pairs).
    """

    def prep(batch: pa.Table) -> pa.Table:
        b = with_group_key(batch.select(key_cols + [id_col]), key_cols)
        return local_dedup(b, ["gk", id_col])

    def pairs(group: pa.Table) -> pa.Table:
        import numpy as np

        col = group[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = np.unique(col.to_numpy(zero_copy_only=False))[:max_group]
        n = len(ids)
        # vectorized upper-triangle emission -- the np.repeat/arange pattern
        # of ops/joins.py range_join; the per-group Python nested loop was
        # the first row loop a profiler finds at scale (VERDICT r2 #3)
        counts = np.arange(n - 1, -1, -1, dtype=np.int64)
        a_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        b_idx = a_idx + 1 + (np.arange(len(a_idx), dtype=np.int64) - offsets)
        kt = group["gk"][0].as_py() if len(group) else ""
        return pa.table(
            {
                "a": pa.array(ids[a_idx]),
                "b": pa.array(ids[b_idx]),
                "feature_key": pa.array([kt] * len(a_idx), pa.string()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(pairs, batch_format="pyarrow")
    )


def _cc_numpy(src: np.ndarray, dst: np.ndarray):
    """Converged min-label connected components in memory: vectorized
    hashmin propagation + pointer doubling over index-factorized nodes
    (no Python per node/edge).  Returns (nodes, roots) with root = the
    component's MIN node -- the same fixpoint the distributed rounds
    approach."""
    both = np.concatenate([src, dst])
    nodes, inv = np.unique(both, return_inverse=True)
    s, d = inv[: len(src)], inv[len(src):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        l2 = lab.copy()
        np.minimum.at(l2, d, lab[s])
        np.minimum.at(l2, s, lab[d])
        l2 = l2[l2]  # pointer doubling
        if np.array_equal(l2, lab):
            break
        lab = l2
    while True:  # full path compression
        n2 = lab[lab]
        if np.array_equal(n2, lab):
            break
        lab = n2
    return nodes, nodes[lab]


def connected_components_local(edges_ds):
    """CONVERGED connected components for edge sets small enough to fit
    one task (the plan's ``one_task_slim`` budget, ops/plan.py): ONE
    worker task runs the vectorized in-memory hashmin (:func:`_cc_numpy`)
    -- zero shuffle rounds, exact fixpoint regardless of diameter.
    Returns the (node, root) Dataset, or ``None`` when the plan picks the
    distributed rounds (callers fall back to :func:`connected_components`).

    This is the right path whenever the edge list is orders smaller than
    the corpus that produced it -- exactly the LSH candidate-pair shape:
    at 100 TB the near-dup pair list is still only O(dups), and paying
    2 shuffles x rounds of fixed exchange cost to propagate labels
    through a few million pairs is pure overhead."""
    path, mat = plan.choose("connected_components_local", edges_ds,
                            "one_task_slim")
    if path == "rounds":
        return None

    def solve(g: pa.Table) -> pa.Table:
        src = g["subj"].to_numpy(zero_copy_only=False)
        dst = g["obj"].to_numpy(zero_copy_only=False)
        nodes, roots = _cc_numpy(src, dst)
        return pa.table(
            {
                "node": pa.array(nodes, g["subj"].type),
                "root": pa.array(roots, g["subj"].type),
            }
        )

    return plan.run_in_one_task(mat, solve)
