"""SPARQL-style basic-graph-pattern matching over a triple Dataset.

The reference materializes its converted graph into a SPARQL store and
queries it with graph patterns (sparql_update.rb issues pattern-shaped
DELETE/INSERT/SELECT blocks; rdfmodeler.rb:314-324 writes the triples the
patterns run against).  This module is the Ray-Data-native analog: the
edge table IS the store, and a star-shaped BGP (k patterns sharing one
subject variable) executes as ONE hash-bucket shuffle on the subject
followed by in-task Arrow hash joins -- the connected-components exchange
discipline (stages/canonicalize.py) applied to query answering.

Scale notes
-----------
- The triple stream is slimmed to (subj, pattern-index, obj) BEFORE the
  exchange: rows whose predicate matches no pattern never shuffle, and the
  predicate string itself never crosses the wire (an int8 index does).
- RDF graphs are triple SETS; converter output may carry duplicate
  emissions (rules.py duplicate-rule semantics), so bindings are computed
  on the per-bucket DISTINCT (subj, pi, obj) set -- SPARQL set semantics
  over a set graph, and the dedup happens bucket-locally after the
  shuffle (no global dedup pass needed).
- One bucket's bindings fit one task: buckets are md5-spread subjects
  (functions/hashing.bucket_codes), so a bucket holds |subjects|/B
  subjects regardless of skew in any one subject's triple count; the
  per-subject fan-out of a star join is the product of its per-pattern
  value counts, which for functional-ish predicates is O(1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_codes
from . import plan


def _num_buckets_default() -> int:
    try:
        import ray

        return max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:  # pragma: no cover
        return 8


def bgp_star_match(
    triples_ds,
    patterns,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_buckets: int | None = None,
):
    """Match a star BGP ``?s <p_i> ?v_i`` for every ``(p_i, v_i)`` in
    ``patterns`` (ordered list of ``(pred_uri, var_name)``) and return a
    Dataset of bindings: one ``subj`` column plus one column per variable.

    Duplicate predicates for one subject (multi-valued properties) yield
    the full cross product of bindings, exactly as SPARQL joins do.
    """
    if not patterns:
        raise ValueError("bgp_star_match needs at least one pattern")
    names = [v for _, v in patterns]
    if len(set(names)) != len(names):
        raise ValueError("pattern variable names must be distinct")
    preds = pa.array([p for p, _ in patterns], pa.string())
    nb = num_buckets or _num_buckets_default()

    def slim(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b[pred_col], value_set=preds)
        hit = pc.is_valid(idx)
        t = pa.table(
            {
                "subj": b[subj_col].filter(hit),
                "pi": pc.cast(idx.filter(hit), pa.int8()),
                "obj": b[obj_col].filter(hit),
            }
        )
        return t.append_column("_cb", bucket_codes(t["subj"], nb))

    out_fields = [pa.field("subj", pa.string())] + [
        pa.field(v, pa.string()) for v in names
    ]
    out_schema = pa.schema(out_fields)

    def assemble(group: pa.Table) -> pa.Table:
        # SPARQL set semantics over the (deduplicated) triple set
        g = (
            group.select(["subj", "pi", "obj"])
            .group_by(["subj", "pi", "obj"], use_threads=False)
            .aggregate([])
        )
        tab = None
        for i, v in enumerate(names):
            side = g.filter(pc.equal(g["pi"], pa.scalar(i, pa.int8())))
            side = pa.table({"subj": side["subj"], v: side["obj"]})
            if tab is None:
                tab = side
            else:
                tab = tab.join(side, keys="subj", join_type="inner",
                               use_threads=False)
            if tab.num_rows == 0:
                return out_schema.empty_table()
        return tab.select(out_schema.names).cast(out_schema)

    return (
        triples_ds.map_batches(slim, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(assemble, batch_format="pyarrow")
    )


def predicate_stats(
    triples_ds,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
):
    """VoID-style per-predicate dataset statistics over a triple Dataset:
    triple count, distinct subjects and distinct objects per predicate --
    computed on the DISTINCT triple set (RDF set semantics), in ONE
    logical pass.

    Scale shape: each triple lowers to three slim (pred, role, h1, h2)
    rows -- the value's identity crosses the exchange as a 128-bit
    two-seed hash (the dedup ops' md5-identity discipline, columnar),
    never as the value string itself, so a graph of multi-KB abstracts
    and URLs ships 25 bytes per role row (measured 203 s -> ~25 s at
    10.3M triples).  Per-batch local dedup collapses repeats before ONE
    global distinct groupby; the final (pred, role) -> count pivot is
    O(#preds) driver work.
    """
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import hash_strings_u64

    def lower(b: pa.Table) -> pa.Table:
        subj = pc.cast(b[subj_col], pa.string())
        pred = pc.cast(b[pred_col], pa.string())
        obj = pc.cast(b[obj_col], pa.string())
        trip = pc.binary_join_element_wise(subj, pred, obj, "\x1f")
        n = len(b)
        h1 = np.concatenate(
            [hash_strings_u64(subj, seed=0),
             hash_strings_u64(obj, seed=0),
             hash_strings_u64(trip, seed=0)]
        ).view(np.int64)
        h2 = np.concatenate(
            [hash_strings_u64(subj, seed=1),
             hash_strings_u64(obj, seed=1),
             hash_strings_u64(trip, seed=1)]
        ).view(np.int64)
        roles = np.empty(3 * n, np.int8)
        roles[:n], roles[n:2 * n], roles[2 * n:] = 0, 1, 2  # s, o, t
        if isinstance(pred, pa.ChunkedArray):
            pred = pred.combine_chunks()
        t = pa.table(
            {
                "pred": pa.concat_arrays([pred] * 3),
                "role": pa.array(roles, pa.int8()),
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
            }
        )
        # local dedup: repeats within the batch never reach the exchange
        return (
            t.group_by(["pred", "role", "h1", "h2"], use_threads=False)
            .aggregate([])
        )

    distinct = (
        triples_ds.map_batches(lower, batch_format="pyarrow")
        .groupby(["pred", "role", "h1", "h2"])
        .aggregate(Count(alias_name="_n"))
    )

    def role_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "pred": b["pred"],
                "role": b["role"],
                "n": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )
        return (
            t.group_by(["pred", "role"], use_threads=False)
            .aggregate([("n", "sum")])
            .rename_columns(["pred", "role", "n"])
        )

    counts = (
        distinct.map_batches(role_partial, batch_format="pyarrow")
        .groupby(["pred", "role"])
        .aggregate(Sum("n", alias_name="n"))
    )

    import ray

    tab = pa.concat_tables(
        ray.get(counts.materialize().to_arrow_refs()),
        promote_options="default",
    )
    preds = pc.unique(tab["pred"].combine_chunks())
    by = {}
    for pred, role, n in zip(
        tab["pred"].to_pylist(), tab["role"].to_pylist(), tab["n"].to_pylist()
    ):
        by[(pred, role)] = int(n)
    plist = sorted(preds.to_pylist())
    return pa.table(
        {
            "pred": pa.array(plist, pa.string()),
            "n_triples": pa.array(
                [by.get((p, 2), 0) for p in plist], pa.int64()
            ),
            "n_subjects": pa.array(
                [by.get((p, 0), 0) for p in plist], pa.int64()
            ),
            "n_objects": pa.array(
                [by.get((p, 1), 0) for p in plist], pa.int64()
            ),
        }
    )


def bgp_chain_match(
    triples_ds,
    preds,
    var_names,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int | None = None,
):
    """Match a chain BGP ``?x0 <p1> ?x1 . ?x1 <p2> ?x2 ...`` (SPARQL
    property-path shape) and return DISTINCT bindings, one column per
    variable in ``var_names`` (len(preds) + 1 names).

    Scale shape: the scan lowers each hop to a slim (subj, obj) stream
    in ONE pass (rows matching no hop predicate never leave the scan);
    hops then connect on ``x_i`` -- a hop side the plan broadcasts
    (ops/plan.py) goes out via ray.put and joins IN-TASK
    (selective predicates are dictionary-sized next to the graph; no
    exchange), anything larger falls back to the distributed hash join.
    k-1 connects for a k-hop chain, each carrying only binding columns.
    SPARQL set semantics come from ONE global distinct on the final
    bindings (duplicate input triples multiply through joins, so the
    distinct collapses exactly the artifact copies).
    """
    import ray

    from .dedup import normalize_join_blocks

    if len(var_names) != len(preds) + 1:
        raise ValueError("need len(preds)+1 variable names")
    if len(set(var_names)) != len(var_names):
        raise ValueError("variable names must be distinct")
    preds_arr = pa.array(list(preds), pa.string())

    def slim(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b[pred_col], value_set=preds_arr)
        hit = pc.is_valid(idx)
        return pa.table(
            {
                "s": pc.cast(b[subj_col].filter(hit), pa.string()),
                "pi": pc.cast(idx.filter(hit), pa.int8()),
                "o": pc.cast(b[obj_col].filter(hit), pa.string()),
            }
        )

    hops = triples_ds.map_batches(slim, batch_format="pyarrow").materialize()
    np_ = num_partitions or plan.join_partitions()

    def hop(i: int):
        a, b = var_names[i], var_names[i + 1]

        def pick(t: pa.Table, _i=i, _a=a, _b=b) -> pa.Table:
            f = t.filter(pc.equal(t["pi"], pa.scalar(_i, pa.int8())))
            return pa.table({_a: f["s"], _b: f["o"]})

        return hops.map_batches(pick, batch_format="pyarrow")

    acc = hop(0)
    for i in range(1, len(preds)):
        # cheap to materialize: filters materialized hop blocks
        stab, side = plan.small_side("bgp_chain_match", hop(i))
        if stab is not None:
            sref = ray.put(stab)

            def attach(b: pa.Table, _ref=sref, _key=var_names[i]) -> pa.Table:
                return b.join(ray.get(_ref), keys=_key, join_type="inner",
                              use_threads=False)

            acc = acc.map_batches(attach, batch_format="pyarrow")
        else:
            acc = normalize_join_blocks(acc, np_).join(
                normalize_join_blocks(side, np_),
                join_type="inner",
                num_partitions=np_,
                on=(var_names[i],),
                right_on=(var_names[i],),
            )
    # SPARQL set semantics: one global distinct over the bindings
    return (
        acc.groupby(list(var_names))
        .count()
        .select_columns(list(var_names))
    )


def infer_types(
    triples_ds,
    subclass_pairs,
    *,
    type_pred: str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
):
    """RDFS subclass materialization: given ``rdf:type`` triples in the
    Dataset and a T-Box of ``(subclass, superclass)`` pairs, emit every
    INFERRED ``rdf:type`` triple (instance typed with each transitive
    superclass) as a distinct Dataset of (subj, pred, obj, obj_kind)
    rows; callers wanting only NET-NEW triples anti-join the asserted
    set (ops/dedup.anti_join machinery) downstream.

    Scale shape: the T-Box is ontology-sized by nature, so its
    transitive closure is computed ONCE on the driver (BFS per class)
    and the class -> superclass-list map rides into every task as a
    broadcast closure constant; the instance stream lowers to its type
    triples and expands via one vectorized dictionary gather -- no
    shuffle except the final distinct that collapses already-asserted
    or duplicate inferences.
    """
    from ray.data.aggregate import Count

    # driver-side transitive closure of the (small) ontology
    up: dict[str, set] = {}
    for a, b in subclass_pairs:
        up.setdefault(a, set()).add(b)
    closure: dict[str, list] = {}
    for cls in up:
        seen, todo = set(), [cls]
        while todo:
            c = todo.pop()
            for s in up.get(c, ()):
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        closure[cls] = sorted(seen)

    classes = pa.array(sorted(closure), pa.string())
    offsets = [0]
    flat = []
    for c in sorted(closure):
        flat.extend(closure[c])
        offsets.append(len(flat))
    flat_arr = np.asarray(flat, dtype=object)
    offs = np.asarray(offsets, dtype=np.int64)

    def expand(b: pa.Table) -> pa.Table:
        is_type = pc.equal(b[pred_col], type_pred)
        t = b.filter(is_type)
        cidx = pc.index_in(t[obj_col], value_set=classes)
        hit = pc.is_valid(cidx)
        t, cidx = t.filter(hit), cidx.filter(hit)
        ci = cidx.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = offs[ci + 1] - offs[ci]
        subj = np.repeat(
            t[subj_col].to_numpy(zero_copy_only=False), counts
        )
        # vectorized run gather: row i contributes positions
        # offs[ci[i]] .. offs[ci[i]+1] of the flat closure array
        total = int(counts.sum())
        starts = np.repeat(offs[ci], counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        pos = starts + within
        out = pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(
                    np.full(len(subj), type_pred, dtype=object), pa.string()
                ),
                "obj": pa.array(flat_arr[pos], pa.string()),
                "obj_kind": pa.array(
                    np.full(len(subj), "uri", dtype=object), pa.string()
                ),
            }
        )
        # local dedup before the exchange
        return (
            out.group_by(["subj", "pred", "obj", "obj_kind"],
                         use_threads=False)
            .aggregate([])
        )

    inferred = (
        triples_ds.map_batches(expand, batch_format="pyarrow")
        .groupby(["subj", "pred", "obj", "obj_kind"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["subj", "pred", "obj", "obj_kind"])
    )
    return inferred


def bgp_star_match_optional(
    triples_ds,
    required,
    optional,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_buckets: int | None = None,
):
    """Star BGP with SPARQL OPTIONAL semantics: ``required`` patterns
    (list of ``(pred_uri, var_name)``) must all bind; ``optional``
    patterns bind where present and yield NULL where absent -- the
    left-outer-join analog of :func:`bgp_star_match`.

    Same execution shape as the inner star: one subject-hash bucket
    shuffle of slim (subj, int8 pi, obj) rows, per-bucket DISTINCT,
    then in-task Arrow joins -- inner for the required prefix, left
    outer for each optional pattern.  Order of OPTIONALs does not
    change results for star shapes (each joins only on ``subj``).
    """
    if not required:
        raise ValueError("need at least one required pattern")
    names = [v for _, v in required] + [v for _, v in optional]
    if len(set(names)) != len(names):
        raise ValueError("pattern variable names must be distinct")
    patterns = list(required) + list(optional)
    preds = pa.array([p for p, _ in patterns], pa.string())
    n_req = len(required)
    nb = num_buckets or _num_buckets_default()

    def slim(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b[pred_col], value_set=preds)
        hit = pc.is_valid(idx)
        t = pa.table(
            {
                "subj": pc.cast(b[subj_col].filter(hit), pa.string()),
                "pi": pc.cast(idx.filter(hit), pa.int8()),
                "obj": pc.cast(b[obj_col].filter(hit), pa.string()),
            }
        )
        return t.append_column("_cb", bucket_codes(t["subj"], nb))

    out_schema = pa.schema(
        [pa.field("subj", pa.string())]
        + [pa.field(v, pa.string()) for v in names]
    )

    def assemble(group: pa.Table) -> pa.Table:
        g = (
            group.select(["subj", "pi", "obj"])
            .group_by(["subj", "pi", "obj"], use_threads=False)
            .aggregate([])
        )
        tab = None
        for i, v in enumerate(names):
            side = g.filter(pc.equal(g["pi"], pa.scalar(i, pa.int8())))
            side = pa.table({"subj": side["subj"], v: side["obj"]})
            if tab is None:
                tab = side
            else:
                jt = "inner" if i < n_req else "left outer"
                tab = tab.join(side, keys="subj", join_type=jt,
                               use_threads=False)
            if tab.num_rows == 0 and i < n_req:
                return out_schema.empty_table()
        return tab.select(out_schema.names).cast(out_schema)

    return (
        triples_ds.map_batches(slim, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(assemble, batch_format="pyarrow")
    )


def _filter_bindings(bindings, filters):
    if not filters:
        return bindings

    def keep(b: pa.Table, _f=dict(filters)) -> pa.Table:
        mask = None
        for var, const in _f.items():
            m = pc.equal(b[var], pa.scalar(const, pa.string()))
            mask = m if mask is None else pc.and_(mask, m)
        return b.filter(mask)

    return bindings.map_batches(keep, batch_format="pyarrow")


def _instantiate_templates(bindings, templates):
    """Vectorized template instantiation: ``?var`` terms gather binding
    columns, constants fill; per-batch local dedup before any exchange."""
    schema = pa.schema(
        [pa.field(c, pa.string())
         for c in ("subj", "pred", "obj", "obj_kind")]
    )

    def build(b: pa.Table) -> pa.Table:
        n = b.num_rows
        tabs = []
        for (s, p, o, k) in templates:
            cols = {}
            for name, term in zip(
                ("subj", "pred", "obj", "obj_kind"), (s, p, o, k)
            ):
                if isinstance(term, str) and term.startswith("?"):
                    cols[name] = pc.cast(b[term[1:]], pa.string())
                else:
                    cols[name] = pa.array(
                        np.full(n, term, dtype=object), pa.string()
                    )
            tabs.append(pa.table(cols))
        if not tabs:
            return schema.empty_table()
        t = pa.concat_tables(tabs)
        return (
            t.group_by(["subj", "pred", "obj", "obj_kind"],
                       use_threads=False)
            .aggregate([])
        )

    return bindings.map_batches(build, batch_format="pyarrow")


def update_where(
    triples_ds,
    pattern,
    delete_templates,
    insert_templates,
    *,
    filters: dict | None = None,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    kind_col: str = "obj_kind",
    num_buckets: int | None = None,
):
    """SPARQL ``DELETE { ... } INSERT { ... } WHERE { star BGP }`` over a
    triple Dataset -- the pattern-driven graph-rewrite the reference runs
    against its store (sparql_update.rb DELETE/INSERT blocks; SURVEY
    §2.2 K4's record-level semantics lifted to pattern level).

    ``pattern`` is a star BGP as in :func:`bgp_star_match` (list of
    ``(pred_uri, var_name)``; the shared subject variable is ``subj``).
    Each template is ``(s, p, o, kind)`` where any term starting with
    ``"?"`` references a pattern variable (``?subj`` or a ``var_name``)
    and anything else is a constant.  ``filters`` (the SPARQL FILTER
    analog) maps variable names to constants the binding must equal.
    Returns the rewritten graph as a distinct (subj, pred, obj,
    obj_kind) Dataset.

    Scale shape: bindings come from the star match (one bucket
    exchange); templates instantiate VECTORIZED (column takes /
    constant fills, no Python rows); the delete applies as a
    broadcast-or-anti-join on a composite triple key
    (ops/dedup.anti_join_filter -- byte-budgeted broadcast with a
    distributed join fallback), and the insert unions in ahead of ONE
    global distinct.  The full graph streams; only bindings, delete
    keys and inserted rows are materialized."""
    from ray.data.aggregate import Count

    from .dedup import anti_join_filter

    bindings = bgp_star_match(
        triples_ds, pattern,
        subj_col=subj_col, pred_col=pred_col, obj_col=obj_col,
        num_buckets=num_buckets,
    )
    bindings = _filter_bindings(bindings, filters)

    def _instantiate(templates):
        return _instantiate_templates(bindings, templates)

    SEP = "\x1f"

    def with_key(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(b["subj"], pa.string()),
            pc.cast(b["pred"], pa.string()),
            pc.cast(b["obj"], pa.string()),
            SEP,
        )
        return b.append_column("_tk", key)

    graph = triples_ds.map_batches(
        lambda b: with_key(
            pa.table(
                {
                    "subj": pc.cast(b[subj_col], pa.string()),
                    "pred": pc.cast(b[pred_col], pa.string()),
                    "obj": pc.cast(b[obj_col], pa.string()),
                    "obj_kind": pc.cast(b[kind_col], pa.string()),
                }
            )
        ),
        batch_format="pyarrow",
    )
    del_keys = _instantiate(delete_templates).map_batches(
        lambda b: with_key(b).select(["_tk"]), batch_format="pyarrow"
    )
    kept = anti_join_filter(graph, del_keys, "_tk").drop_columns(["_tk"])
    out = kept.union(_instantiate(insert_templates))
    return (
        out.groupby(["subj", "pred", "obj", "obj_kind"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["subj", "pred", "obj", "obj_kind"])
    )


def construct_from_pattern(
    triples_ds,
    pattern,
    templates,
    *,
    filters: dict | None = None,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_buckets: int | None = None,
):
    """SPARQL ``CONSTRUCT { templates } WHERE { star BGP }``: build a NEW
    graph from pattern bindings -- the vocabulary-translation /
    ontology-mapping shape (e.g. re-emit a DC-vocabulary graph in
    schema.org terms), which is the reference's mapping-driven
    conversion idea (SURVEY §2.3) applied to an already-built graph.

    Terms starting with ``"?"`` reference pattern variables (``?subj``
    or a pattern ``var_name``); anything else is a constant.
    ``filters`` maps variable names to required constant values.
    Returns a distinct (subj, pred, obj, obj_kind) Dataset.

    Scale shape: one star-match bucket exchange for the bindings,
    vectorized template instantiation with per-batch local dedup, ONE
    global distinct."""
    from ray.data.aggregate import Count

    bindings = bgp_star_match(
        triples_ds, pattern,
        subj_col=subj_col, pred_col=pred_col, obj_col=obj_col,
        num_buckets=num_buckets,
    )
    out = _instantiate_templates(_filter_bindings(bindings, filters),
                                 templates)
    return (
        out.groupby(["subj", "pred", "obj", "obj_kind"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["subj", "pred", "obj", "obj_kind"])
    )


def graph_diff(
    old_ds,
    new_ds,
    *,
    cols=("subj", "pred", "obj", "obj_kind"),
):
    """Set difference between two graph versions: returns a Dataset of
    (op, subj, pred, obj, obj_kind) where op is '+' for triples only in
    ``new_ds`` and '-' for triples only in ``old_ds`` -- the change set
    the reference's daily update cycle applies implicitly
    (scheduler.rb:327-350 harvest->convert->update; SURVEY §2.9 U1-U6),
    made explicit so incremental runs can ship deltas instead of full
    graphs.

    Scale shape: both sides collapse to distinct composite keys with
    per-batch local dedup; each direction is ONE broadcast-or-anti-join
    (ops/dedup.anti_join_filter, byte-budgeted with a distributed
    fallback).  Triples never cross the wire twice -- only their keys
    do."""
    from .dedup import anti_join_filter

    SEP = "\x1f"
    cols = list(cols)

    def keyed(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            *[pc.cast(b[c], pa.string()) for c in cols], SEP
        )
        t = pa.table(
            {**{c: pc.cast(b[c], pa.string()) for c in cols}, "_tk": key}
        )
        return t.group_by(cols + ["_tk"], use_threads=False).aggregate([])

    old_k = old_ds.map_batches(keyed, batch_format="pyarrow")
    new_k = new_ds.map_batches(keyed, batch_format="pyarrow")

    added = anti_join_filter(
        new_k, old_k.select_columns(["_tk"]), "_tk"
    ).map_batches(
        lambda b: pa.table(
            {"op": pa.array(["+"] * b.num_rows, pa.string()),
             **{c: b[c] for c in cols}}
        ),
        batch_format="pyarrow",
    )
    removed = anti_join_filter(
        old_k, new_k.select_columns(["_tk"]), "_tk"
    ).map_batches(
        lambda b: pa.table(
            {"op": pa.array(["-"] * b.num_rows, pa.string()),
             **{c: b[c] for c in cols}}
        ),
        batch_format="pyarrow",
    )
    from ray.data.aggregate import Count

    # global distinct (each side may still hold cross-batch repeats)
    return (
        added.union(removed)
        .groupby(["op"] + cols)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["op"] + cols)
    )


def validate_cardinality(
    triples_ds,
    pred: str,
    *,
    min_count: int = 1,
    max_count: int = 1,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
):
    """SHACL-style cardinality validation: report every subject whose
    DISTINCT value count for ``pred`` falls outside
    [``min_count``, ``max_count``] -- the graph-quality gate a KG
    pipeline runs before publishing (the reference's conversion checks
    assert per-record field shapes; SURVEY §2.3 M17/M19 semantics at
    graph level).  Returns (subj, n_values).

    Only subjects that HAVE the predicate are checked for the max bound;
    the min bound additionally requires a reference subject set, so this
    operator checks subjects observed with >= 1 value (min_count > 1
    finds under-filled multi-valued properties; use an anti-join against
    the expected-subject set for absence checks).

    Scale shape: the scan slims to (subj, obj) for the one predicate,
    collapses to per-batch DISTINCT pairs, then ONE global distinct
    groupby and an O(#violators) filter."""
    from ray.data.aggregate import Count, Sum

    def slim(b: pa.Table) -> pa.Table:
        hit = pc.equal(b[pred_col], pred)
        t = pa.table(
            {
                "subj": pc.cast(b[subj_col].filter(hit), pa.string()),
                "obj": pc.cast(b[obj_col].filter(hit), pa.string()),
            }
        )
        return t.group_by(["subj", "obj"], use_threads=False).aggregate([])

    pairs = (
        triples_ds.map_batches(slim, batch_format="pyarrow")
        .groupby(["subj", "obj"])
        .aggregate(Count(alias_name="_n"))
    )

    def count_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "subj": b["subj"],
                "n_values": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )
        return (
            t.group_by(["subj"], use_threads=False)
            .aggregate([("n_values", "sum")])
            .rename_columns(["subj", "n_values"])
        )

    counts = (
        pairs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("subj")
        .aggregate(Sum("n_values", alias_name="n_values"))
    )
    lo = pa.scalar(min_count, pa.int64())
    hi = pa.scalar(max_count, pa.int64())
    return counts.map_batches(
        lambda b: b.filter(
            pc.or_(
                pc.less(pc.cast(b["n_values"], pa.int64()), lo),
                pc.greater(pc.cast(b["n_values"], pa.int64()), hi),
            )
        ),
        batch_format="pyarrow",
    )


def validate_pattern(
    triples_ds,
    pred: str,
    regex: str,
    *,
    check_name: str | None = None,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
):
    """SHACL-style ``sh:pattern`` constraint: every DISTINCT value of
    ``pred`` that does NOT match ``regex`` (RE2, anchor explicitly for a
    full match) is a violation -- the shape-level twin of
    :func:`validate_cardinality` (reference analog: per-record
    field-shape assertions, SURVEY SS2.3 M17/M19, lifted to graph
    level).  Returns (subj, obj, check) rows.

    Scale shape: the scan slims to one predicate's (subj, obj) pairs
    with per-batch DISTINCT collapse and a vectorized RE2 mismatch
    filter BEFORE the exchange (conforming values never shuffle); one
    global distinct groupby finishes."""
    name = check_name or f"pattern:{pred}"

    def slim(b: pa.Table) -> pa.Table:
        hit = pc.equal(b[pred_col], pa.scalar(pred))
        t = pa.table(
            {
                "subj": pc.cast(b[subj_col].filter(hit), pa.string()),
                "obj": pc.cast(b[obj_col].filter(hit), pa.string()),
            }
        )
        bad = pc.invert(pc.match_substring_regex(t["obj"], regex))
        t = t.filter(pc.fill_null(bad, True))
        return t.group_by(["subj", "obj"], use_threads=False).aggregate([])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "subj": b["subj"],
                "obj": b["obj"],
                "check": pa.array([name] * len(b), pa.string()),
            }
        )

    return (
        triples_ds.map_batches(slim, batch_format="pyarrow")
        .groupby(["subj", "obj"])
        .count()
        .select_columns(["subj", "obj"])
        .map_batches(finish, batch_format="pyarrow")
    )


def bgp_minus(
    triples_ds,
    patterns,
    minus_pred: str,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_buckets: int | None = None,
):
    """SPARQL MINUS / FILTER NOT EXISTS over a star BGP: bindings of
    ``patterns`` (via :func:`bgp_star_match`) for subjects that have NO
    ``minus_pred`` triple -- set-difference negation, the query twin of
    the reference's INSERT-where-missing anti-joins
    (autogenerated_similarity.isql:130-144).

    Scale shape: the positive side is the star match's one bucket
    exchange; negation is ONE broadcast-or-anti-join on the DISTINCT
    excluded-subject set (ops/dedup.anti_join_filter) -- excluded
    subjects ship once, never the triples."""
    from .dedup import anti_join_filter

    bindings = bgp_star_match(
        triples_ds, patterns,
        subj_col=subj_col, pred_col=pred_col, obj_col=obj_col,
        num_buckets=num_buckets,
    )

    def excluded(b: pa.Table) -> pa.Table:
        hit = pc.equal(b[pred_col], pa.scalar(minus_pred))
        t = pa.table(
            {"subj": pc.cast(b[subj_col].filter(hit), pa.string())}
        )
        return t.group_by(["subj"], use_threads=False).aggregate([])

    keys = triples_ds.map_batches(excluded, batch_format="pyarrow")
    return anti_join_filter(bindings, keys, "subj")


# -- general BGP planner ----------------------------------------------------

def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def bgp_match(
    triples_ds,
    patterns,
    *,
    out_vars=None,
    stats=None,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int | None = None,
):
    """General BGP planner (round-5 task #5): accept an ARBITRARY list of
    triple patterns ``(s, p, o)`` -- variables are ``"?name"`` strings,
    anything else is a constant -- order the joins by per-pattern
    selectivity, and execute with the module's scan/join machinery.  The
    reference's rule surface is arbitrary SPARQL text (rule.rb:79-92);
    this closes the 'each shape is a hand-built pipeline' gap for the
    conjunctive (BGP) core.  Returns DISTINCT bindings, one column per
    variable in ``out_vars`` (default: every variable, first-appearance
    order).

    Plan:
    - ONE scan pass lowers every pattern to slim (pattern-id, subj, obj)
      rows; constant subjects/objects and ``?x p ?x`` self-equality
      filter AT THE SCAN, so non-matching triples never leave it;
    - per-pattern cardinalities come from ``stats`` (a
      :func:`predicate_stats` result) when given, else from one cheap
      per-block count of the materialized scan;
    - greedy join order: start at the smallest pattern, repeatedly join
      the smallest not-yet-joined pattern that shares a variable with
      the bound set (connected BGPs only -- a disconnected pattern group
      is a cross product and raises);
    - each join is broadcast-or-distributed (an ops/plan.py decision)
      on the shared variable column(s);
    - one final global distinct gives SPARQL set semantics (duplicate
      triples multiply through joins exactly as in SPARQL bags; the
      distinct collapses them, as in the star/chain executors).

    Predicates must be constants (true of every reference mapping rule;
    a variable-predicate pattern raises NotImplementedError).  At most
    127 patterns (int8 pattern ids); more raise ValueError.
    """
    import ray

    from .dedup import normalize_join_blocks

    if not patterns:
        raise ValueError("bgp_match needs at least one pattern")
    pats = [tuple(p) for p in patterns]
    if len(pats) > 127:
        raise ValueError(
            f"bgp_match: {len(pats)} patterns; the scan tags each row with "
            "an int8 pattern id, so at most 127 patterns are supported"
        )
    for s, p, o in pats:
        if _is_var(p):
            raise NotImplementedError(
                f"variable predicate {p!r}: the planner dispatches on "
                "constant predicates (every reference mapping rule has "
                "one); lower a variable-predicate query per predicate"
            )
        if not (_is_var(s) or _is_var(o)):
            raise ValueError(
                f"pattern {(s, p, o)!r} binds no variable; drop it or "
                "bind at least one term"
            )
    # variables per pattern, in (subj, obj) position order
    pat_vars = []
    for s, p, o in pats:
        vs = [s[1:]] if _is_var(s) else []
        vo = [o[1:]] if _is_var(o) else []
        pat_vars.append((vs, vo))
    all_vars = []
    for vs, vo in pat_vars:
        for v in vs + vo:
            if v not in all_vars:
                all_vars.append(v)
    out_vars = list(out_vars) if out_vars is not None else all_vars

    preds_arr = pa.array([p for _, p, _ in pats], pa.string())

    def scan(b: pa.Table) -> pa.Table:
        subj = pc.cast(b[subj_col], pa.string())
        pred = b[pred_col]
        obj = pc.cast(b[obj_col], pa.string())
        outs = []
        for i, (s, p, o) in enumerate(pats):
            mask = pc.equal(pred, pa.scalar(p))
            if not _is_var(s):
                mask = pc.and_(mask, pc.equal(subj, pa.scalar(s)))
            if not _is_var(o):
                mask = pc.and_(mask, pc.equal(obj, pa.scalar(o)))
            if _is_var(s) and _is_var(o) and s == o:
                mask = pc.and_(mask, pc.equal(subj, obj))
            outs.append(
                pa.table(
                    {
                        "pi": pa.array(
                            np.full(
                                len(fs := subj.filter(mask)), i, np.int8
                            ),
                            pa.int8(),
                        ),
                        "s": fs,
                        "o": obj.filter(mask),
                    }
                )
            )
        return pa.concat_tables(outs)

    hops = triples_ds.map_batches(scan, batch_format="pyarrow").materialize()

    # per-pattern cardinality estimates
    est = [0] * len(pats)
    if stats is not None:
        srows = (stats.to_pylist() if isinstance(stats, pa.Table)
                 else stats.take_all())
        by_pred = {r["pred"]: int(r["n_triples"]) for r in srows}
        for i, (_, p, _) in enumerate(pats):
            est[i] = by_pred.get(p, 0)
    else:
        parts = hops.map_batches(
            lambda b: pa.table(
                {
                    "pi": (g := b.group_by(["pi"], use_threads=False)
                           .aggregate([("pi", "count")]))["pi"],
                    "n": g["pi_count"],
                }
            ),
            batch_format="pyarrow",
        ).take_all()
        for r in parts:
            est[r["pi"]] += int(r["n"])

    def pat_table(i: int):
        """Binding columns of pattern i, locally deduped."""
        vs, vo = pat_vars[i]
        cols = ([(v, "s") for v in vs] + [(v, "o") for v in vo])
        # drop duplicate column when ?x p ?x
        seen, keep = set(), []
        for v, src in cols:
            if v not in seen:
                seen.add(v)
                keep.append((v, src))

        def pick(t: pa.Table, _i=i, _keep=tuple(keep)) -> pa.Table:
            f = t.filter(pc.equal(t["pi"], pa.scalar(_i, pa.int8())))
            out = pa.table({v: f[src] for v, src in _keep})
            return out.group_by(out.column_names,
                                use_threads=False).aggregate([])

        return hops.map_batches(pick, batch_format="pyarrow")

    # greedy connected join order
    order = [int(np.argmin(est))]
    used = set(order)
    bound = set()
    vs0, vo0 = pat_vars[order[0]]
    bound.update(vs0 + vo0)
    while len(used) < len(pats):
        cands = [
            i for i in range(len(pats))
            if i not in used
            and (set(pat_vars[i][0] + pat_vars[i][1]) & bound)
        ]
        if not cands:
            raise NotImplementedError(
                "disconnected BGP (cross product between pattern groups) "
                "is not supported; split the query per connected group"
            )
        nxt = min(cands, key=lambda i: est[i])
        order.append(nxt)
        used.add(nxt)
        bound.update(pat_vars[nxt][0] + pat_vars[nxt][1])

    np_ = num_partitions or plan.join_partitions()
    acc = pat_table(order[0])
    acc_vars = set(pat_vars[order[0]][0] + pat_vars[order[0]][1])
    for i in order[1:]:
        side_vars = set(pat_vars[i][0] + pat_vars[i][1])
        on = sorted(acc_vars & side_vars)
        stab, side = plan.small_side("bgp_match", pat_table(i))
        if stab is not None:
            sref = ray.put(stab)

            def attach(b: pa.Table, _ref=sref, _on=tuple(on)) -> pa.Table:
                return b.join(ray.get(_ref), keys=list(_on),
                              join_type="inner", use_threads=False)

            acc = acc.map_batches(attach, batch_format="pyarrow")
        else:
            acc = normalize_join_blocks(acc, np_).join(
                normalize_join_blocks(side, np_),
                join_type="inner", num_partitions=np_,
                on=tuple(on), right_on=tuple(on),
            )
        acc_vars |= side_vars
    missing = [v for v in out_vars if v not in acc_vars]
    if missing:
        raise ValueError(f"out_vars not bound by any pattern: {missing}")
    return (
        acc.groupby(list(out_vars))
        .count()
        .select_columns(list(out_vars))
    )
