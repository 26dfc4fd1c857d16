"""Relational wide-ops Ray Data's Dataset API almost-but-not-quite has:
ROLLUP grouping-set aggregation and latest-per-key compaction.

The reference's reporting passes aggregate the same measure at several
granularities (per-source, per-source+type, grand total -- the counters in
scheduler.rb:214-233 are exactly per-window-then-grand-total rollups), and
its update lifecycle keeps the newest record version per id
(modify_record / insert_new_record overwrite semantics, SURVEY.md §2.8
U1/U4).  Both are SURVEY.md §2 custom-operator composition (a):
map_batches combiners plus one small groupby -- never a Python loop per
group.

Determinism: money aggregates run on integer cents
(functions.numeric.sql_round_i64), representative rows tie-break on the
LARGEST tiebreak id, and rolled-up key slots use an out-of-band sentinel
during the shuffle so a multi-key groupby never sees nulls (mapped back to
real nulls on emit, matching SQL ROLLUP output).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import plan

# out-of-band marker for a rolled-up key slot while rows are in flight;
# \x00 sorts before any printable key and cannot collide with real data
# in text keys (validated per batch -- fail loud, not silently wrong).
_ROLLED = "\x00__ROLLED__"


def _default_buckets() -> int:
    try:
        import ray

        return max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:  # pragma: no cover
        return 16


def _grouping_sets_aggregate(ds, keys: list[str], value_col: str,
                             gsets: list[tuple[int, ...]], *,
                             cents_factor: float | None, lvl_of):
    """Shared GROUPING SETS engine behind ROLLUP and CUBE.

    One map_batches pass computes per-batch partials at the FINEST grain
    (Arrow group_by inside the batch -- the combiner), then each partial
    row is replicated once per grouping set (xS on the already-collapsed
    partials, not on the data) and ONE small groupby sums the partials.
    Shuffle volume is O(distinct finest groups per batch x sets),
    independent of row count.

    ``gsets``: each set is the tuple of key INDICES kept (others rolled
    up); ``lvl_of(gset)`` labels the output row's grouping set -- needed
    because a null key cell alone cannot distinguish a real null key value
    from a rolled-up slot (SQL's GROUPING()).
    """
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    def partial(b: pa.Table) -> pa.Table:
        cols = {k: pc.cast(b[k], pa.string()) for k in keys}
        for k in keys:
            if pc.any(pc.starts_with(pc.fill_null(cols[k], ""), "\x00")).as_py():
                raise ValueError(
                    f"grouping-set aggregate: key column {k!r} contains "
                    "the reserved \\x00 sentinel prefix"
                )
        cols["__v"] = (
            sql_round_i64(b[value_col], cents_factor)
            if cents_factor is not None
            else pc.cast(b[value_col], pa.int64())
        )
        t = pa.table(cols)
        g = t.group_by(keys, use_threads=False).aggregate(
            [("__v", "sum"), ("__v", "count")]
        )
        # replicate each finest-grain partial once per grouping set with
        # the rolled-up key slots replaced by the sentinel
        parts = []
        for gs in gsets:
            rolled = {
                k: (g[k] if i in gs
                    else pa.array([_ROLLED] * len(g), pa.string()))
                for i, k in enumerate(keys)
            }
            parts.append(pa.table({
                **rolled,
                "__s": g["__v_sum"],
                "__n": pc.cast(g["__v_count"], pa.int64()),
                "lvl": pa.array(
                    np.full(len(g), lvl_of(gs), np.int64), pa.int64()
                ),
            }))
        return pa.concat_tables(parts)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys + ["lvl"])
        .aggregate(Sum("__s"), Sum("__n"))
    )

    def emit(b: pa.Table) -> pa.Table:
        cols = {}
        for k in keys:
            v = b[k]
            if isinstance(v, pa.ChunkedArray):
                v = v.combine_chunks()
            mask = pc.equal(v, _ROLLED)
            cols[k] = pc.if_else(mask, pa.nulls(len(b), pa.string()), v)
        cols["sum_cents"] = b["sum(__s)"]
        cols["n"] = b["sum(__n)"]
        cols["lvl"] = b["lvl"]
        return pa.table(cols)

    return agg.map_batches(emit, batch_format="pyarrow")


def rollup_aggregate(ds, keys: list[str], value_col: str, *,
                     cents_factor: float | None = 100.0):
    """GROUP BY ROLLUP(*keys): SUM(value) + COUNT(*) at every key-prefix
    level -- (k1..kn), (k1..kn-1), ..., (k1), () -- with rolled-up key
    slots null, exactly like SQL ROLLUP.  ``lvl`` counts rolled-up slots
    (0 = finest, len(keys) = grand total), matching
    GROUPING(k1)+...+GROUPING(kn).  See :func:`_grouping_sets_aggregate`
    for the combiner-first scale shape.
    """
    nk = len(keys)
    gsets = [tuple(range(nk - lvl)) for lvl in range(nk + 1)]
    return _grouping_sets_aggregate(
        ds, keys, value_col, gsets,
        cents_factor=cents_factor, lvl_of=lambda gs: nk - len(gs),
    )


def cube_aggregate(ds, keys: list[str], value_col: str, *,
                   cents_factor: float | None = 100.0):
    """GROUP BY CUBE(*keys): SUM(value) + COUNT(*) at ALL 2^k key
    subsets.  ``lvl`` is the GROUPING bitmask (bit i set = keys[i]
    rolled up, i counted from the LEFT like SQL GROUPING(k1, ..., kn)),
    so e.g. (a-only) and (b-only) rows are distinguishable even when a
    real key value is null.  Same combiner-first shape as ROLLUP; the
    replication factor is 2^k, so keep k small (documented -- SQL engines
    share this cost).
    """
    nk = len(keys)
    gsets = [
        tuple(i for i in range(nk) if not (mask >> (nk - 1 - i)) & 1)
        for mask in range(1 << nk)
    ]
    return _grouping_sets_aggregate(
        ds, keys, value_col, gsets,
        cents_factor=cents_factor,
        lvl_of=lambda gs: sum(
            1 << (nk - 1 - i) for i in range(nk) if i not in gs
        ),
    )


def compact_latest(ds, *, key_col: str, ts_col: str, tie_col: str,
                   num_buckets: int | None = None):
    """Latest-version-per-key compaction (the CDC/upsert "compact" step):
    keep, for every ``key_col`` value, the single row with the largest
    ``(ts_col, tie_col)`` -- ``tie_col`` must order same-timestamp writes
    (an id/sequence column), making the winner deterministic and
    SQL-replayable (row_number() OVER (... ORDER BY ts DESC, tie DESC)).

    Shape at scale: ONE hash-bucket shuffle on the key (hash(key) % B, B
    scales with the cluster) then one vectorized sort + neighbor-mask pass
    per bucket -- the distinct_first pattern (ops/dedup.py:99) extended
    with a (ts, tie) order, no Python per key.  All original columns pass
    through.
    """
    from ..functions.hashing import bucket_codes

    nb = num_buckets or _default_buckets()

    def prep(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__bucket",
            bucket_codes(pc.cast(b[key_col], pa.string()), nb),
        )

    def last_per_key(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(key_col, "ascending"), (ts_col, "ascending"),
             (tie_col, "ascending")]
        )
        k = t[key_col]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        k = k.to_numpy(zero_copy_only=False)
        if not len(k):
            return t.drop_columns(["__bucket"])
        mask = np.concatenate([k[1:] != k[:-1], [True]])
        return t.filter(pa.array(mask)).drop_columns(["__bucket"])

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(last_per_key, batch_format="pyarrow")
    )


def mode_per_key(
    ds,
    *,
    key_col: str,
    value_col: str,
    num_buckets: int | None = None,
):
    """MODE() per group -- the most frequent ``value_col`` for each
    ``key_col``, ties broken by the lexicographically smallest value
    (deterministic, so a SQL ``ROW_NUMBER() OVER (ORDER BY cnt DESC,
    value)`` oracle replays it exactly).  Emits
    ``(key, mode_value, mode_count)``.

    Scale shape: per-batch Arrow ``group_by((key, value))`` combiner
    collapses rows to (key, value, partial count) BEFORE the exchange --
    a hot key with a concentrated value distribution ships one row per
    distinct value per batch, never its raw rows.  Then ONE
    groupby-shuffle on the key and a vectorized per-bucket argmax (sort
    by (key, cnt desc, value), take first row per key).
    """
    from ..functions.hashing import bucket_codes

    nb = num_buckets or _default_buckets()

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([key_col, value_col])
            .group_by([key_col, value_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns([key_col, value_col, "cnt"])
        return g.append_column(
            "__bucket", bucket_codes(pc.cast(g[key_col], pa.string()), nb)
        )

    def pick(group: pa.Table) -> pa.Table:
        g = (
            group.select([key_col, value_col, "cnt"])
            .group_by([key_col, value_col], use_threads=False)
            .aggregate([("cnt", "sum")])
        )
        g = g.rename_columns([key_col, value_col, "cnt"])
        t = g.sort_by(
            [(key_col, "ascending"), ("cnt", "descending"),
             (value_col, "ascending")]
        )
        k = t[key_col]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        k = k.to_numpy(zero_copy_only=False)
        if not len(k):
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "mode_value": pa.array([], pa.string()),
                    "mode_count": pa.array([], pa.int64()),
                }
            )
        mask = np.concatenate([[True], k[1:] != k[:-1]])
        t = t.filter(pa.array(mask))
        return pa.table(
            {
                key_col: t[key_col],
                "mode_value": t[value_col],
                "mode_count": pc.cast(t["cnt"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(pick, batch_format="pyarrow")
    )


def grouped_moments(
    ds,
    *,
    key_col: str,
    value_col: str,
    scale: float = 1000.0,
):
    """Per-group second-moment statistics (count, mean, sample variance,
    sample stddev) with a bit-exact SQL oracle.  Values are first rounded
    to integer ``scale``-units (SQL ROUND ties-away semantics,
    functions.numeric.sql_round_i64); per-batch combiners emit exact
    int64 partial (n, sum, sumsq) per key, ONE tiny groupby-sum merges
    them, and the final map computes mean/var/std in IEEE double with the
    exact same expression the oracle uses -- identical operand order on
    exactly-represented integers, so even the floating-point results hash
    equal.

    Overflow bound (documented): sumsq per group must stay below 2^63 --
    with milli-units and |v| <= 1e6 that allows ~1e10 rows per group; for
    wider domains pass a smaller ``scale``.

    Scale shape: only (key, n, sum, sumsq) partial rows ever shuffle --
    one row per key per batch, never raw values.
    """
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    def partial(b: pa.Table) -> pa.Table:
        vu = sql_round_i64(b[value_col], scale)
        t = pa.table(
            {
                key_col: b[key_col],
                "vu": vu,
                "vu2": pc.multiply_checked(vu, vu),
            }
        )
        g = t.group_by([key_col], use_threads=False).aggregate(
            [("vu", "sum"), ("vu2", "sum"), ([], "count_all")]
        )
        return g.rename_columns([key_col, "s", "ss", "n"])

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(
            Sum("s", alias_name="s"),
            Sum("ss", alias_name="ss"),
            Sum("n", alias_name="n"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = b["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        ss = b["ss"].to_numpy(zero_copy_only=False).astype(np.float64)
        # EXACT oracle expression, same operand order:
        #   mean = (s / n) / scale
        #   var  = ((ss - s * s / n) / (n - 1)) / (scale * scale)
        mean = (s / n) / scale
        with np.errstate(invalid="ignore", divide="ignore"):
            var = ((ss - s * s / n) / (n - 1.0)) / (scale * scale)
        var = np.where(n > 1, var, np.nan)
        std = np.sqrt(var)
        return pa.table(
            {
                key_col: b[key_col],
                "n_rows": pc.cast(b["n"], pa.int64()),
                "mean_v": pa.array(mean, pa.float64()),
                "var_v": pa.array(var, pa.float64()),
                "std_v": pa.array(std, pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def grouped_entropy(
    ds,
    *,
    key_col: str,
    value_col: str,
    num_buckets: int | None = None,
):
    """Shannon entropy of the ``value_col`` distribution per ``key_col``
    group, in exact integer MICRO-NATS: each distinct value's surprisal
    is floored to ``floor(-ln(c/n) * 1e6 + 0.5)`` BEFORE the weighted sum
    (the ops/lm.py trigram_bits determinism contract), so the per-group
    result ``(key, n_rows, surprisal_micro)`` is a pair of exact int64s a
    SQL oracle replays bit-for-bit.  Entropy in nats =
    ``surprisal_micro / n_rows / 1e6``.

    Scale shape: per-batch (key, value, count) Arrow combiner partials ->
    ONE groupby(key) shuffle -> in-task merge + vectorized log.  A hot
    key ships one row per distinct value per batch, never its raw rows.
    """
    from ..functions.hashing import bucket_codes

    nb = num_buckets or _default_buckets()

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([key_col, value_col])
            .group_by([key_col, value_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns([key_col, value_col, "cnt"])
        return g.append_column(
            "__bucket", bucket_codes(pc.cast(g[key_col], pa.string()), nb)
        )

    def entropy(group: pa.Table) -> pa.Table:
        g = (
            group.select([key_col, value_col, "cnt"])
            .group_by([key_col, value_col], use_threads=False)
            .aggregate([("cnt", "sum")])
            .rename_columns([key_col, value_col, "cnt"])
            .sort_by([(key_col, "ascending")])
        )
        k = g[key_col]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        k = k.to_numpy(zero_copy_only=False)
        c = g["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(k):
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                    "surprisal_micro": pa.array([], pa.int64()),
                }
            )
        brk = np.empty(len(k), bool)
        brk[:1] = True
        brk[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        n = np.add.reduceat(c, starts)  # rows per key
        micro = np.floor(
            -np.log(c.astype(np.float64) / n[seg].astype(np.float64))
            * 1e6 + 0.5
        ).astype(np.int64)
        surp = np.add.reduceat(c * micro, starts)
        return pa.table(
            {
                key_col: pa.array(k[starts]),
                "n_rows": pa.array(n, pa.int64()),
                "surprisal_micro": pa.array(surp, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(entropy, batch_format="pyarrow")
    )


def retention_cohorts(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    bucket_us: int = 7 * 24 * 3_600_000_000,
):
    """Cohort retention -- the classic product-analytics matrix: each
    user's cohort is the time bucket (default: 7-day epochs) of their
    FIRST event; for every (cohort, age) pair count the distinct users
    active ``age`` buckets after their cohort.  Emits
    (cohort_bucket, age_buckets, n_users), all int64.

    Scale shape: pass 1 computes first-event buckets as per-batch
    (user, min-bucket) Arrow combiners -> one groupby-Min (users never
    carry event payloads); pass 2 dedups (user, bucket) activity per
    batch, joins the tiny cohort side back via the broadcast-or-join
    membership shape, and counts distinct (cohort, age, user) triples
    with one final combine.  Event rows never shuffle -- only
    (user, bucket) pairs.
    """
    import ray

    from ray.data.aggregate import Min, Sum

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        tus = pc.cast(ts, pa.int64())
        # exact int64 floor division (epochs are non-negative, so
        # truncating integer divide == floor == SQL's // on BIGINT)
        t = pa.table(
            {
                "u": pc.cast(b[user_col], pa.int64()),
                "bkt": pc.divide(tus, pa.scalar(bucket_us, pa.int64())),
            }
        )
        # per-batch dedup: a user's repeat activity inside one bucket
        # collapses before anything moves (the combiner); the global
        # distinct below then sees one row per (user, bucket) per batch
        return t.group_by(["u", "bkt"], use_threads=False).aggregate([])

    from ray.data.aggregate import Count

    activity = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["u", "bkt"])
        .aggregate(Count(alias_name="__c"))
        .map_batches(
            lambda b: b.drop_columns(["__c"]), batch_format="pyarrow"
        )
        .materialize()
    )

    cohorts = (
        activity.map_batches(
            lambda b: pa.table({"u": b["u"], "c": b["bkt"]}),
            batch_format="pyarrow",
        )
        .groupby("u")
        .aggregate(Min("c", alias_name="c"))
        .materialize()
    )

    # small side: one row per user -> broadcast when it fits
    cohort_rows = [
        t for t in ray.get(cohorts.to_arrow_refs()) if t.num_rows
    ]
    cmap_tbl = (
        pa.concat_tables(cohort_rows) if cohort_rows
        else pa.table({"u": pa.array([], pa.int64()),
                       "c": pa.array([], pa.int64())})
    )
    cu = cmap_tbl["u"].to_numpy(zero_copy_only=False)
    cc = cmap_tbl["c"].to_numpy(zero_copy_only=False)
    order = np.argsort(cu)
    cu, cc = cu[order], cc[order]
    ref = ray.put((cu, cc))

    def label(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        bkt = b["bkt"].to_numpy(zero_copy_only=False)
        cu_, cc_ = ray.get(ref)
        idx = np.searchsorted(cu_, u)
        coh = cc_[idx]
        t = pa.table(
            {
                "cohort_bucket": pa.array(coh, pa.int64()),
                "age_buckets": pa.array(bkt - coh, pa.int64()),
                "n": pa.array(np.ones(len(u), np.int64)),
            }
        )
        # (user, bucket) rows are already distinct per user-bucket, so a
        # (cohort, age) count of rows IS the distinct-user count
        g = (
            t.group_by(["cohort_bucket", "age_buckets"], use_threads=False)
            .aggregate([("n", "sum")])
        )
        return g.rename_columns(["cohort_bucket", "age_buckets", "n"])

    return (
        activity.map_batches(label, batch_format="pyarrow")
        .groupby(["cohort_bucket", "age_buckets"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


def snapshot_diff(
    old_ds,
    new_ds,
    *,
    id_col: str,
    hash_cols: list[str],
    num_partitions: int | None = None,
):
    """CDC table diff between two snapshots keyed by ``id_col``: emits
    (id, change) with change in {'added', 'removed', 'changed'} --
    unchanged rows (same md5 over ``hash_cols``) are dropped.  The U1/U4
    modify/insert lifecycle (SURVEY.md §2.8) as a symmetric diff
    operator.

    Scale shape: both sides reduce to slim (id, row-hash) pairs per
    batch BEFORE the single full-outer hash join -- payload columns
    never shuffle; the verdict map is stateless.
    """
    import hashlib

    from .dedup import normalize_join_blocks

    if num_partitions is None:
        try:
            num_partitions = plan.join_partitions()
        except Exception:
            num_partitions = 8

    def slim(key_name: str, tag: str):
        def f(b: pa.Table) -> pa.Table:
            cols = [b[c].to_pylist() for c in hash_cols]
            hs = [
                hashlib.md5(
                    "\x1f".join("" if v is None else str(v) for v in row)
                    .encode()
                ).hexdigest()[:16]
                for row in zip(*cols)
            ] if cols else [""] * len(b)
            return pa.table(
                {
                    key_name: pc.cast(b[id_col], pa.int64()),
                    f"h_{tag}": pa.array(hs, pa.string()),
                }
            )

        return f

    old_slim = old_ds.map_batches(slim("__id_l", "old"),
                                  batch_format="pyarrow")
    new_slim = new_ds.map_batches(slim("__id_r", "new"),
                                  batch_format="pyarrow")
    # distinct key names on the two sides (the nation_counts_full_outer
    # pattern); Ray's full outer COALESCEs right_on into the left key
    # column, so the output carries one non-null __id_l for every row.
    joined = old_slim.join(
        normalize_join_blocks(new_slim, num_partitions),
        join_type="full_outer",
        num_partitions=num_partitions,
        on=("__id_l",),
        right_on=("__id_r",),
    )

    def verdict(b: pa.Table) -> pa.Table:
        ho = b["h_old"]
        hn = b["h_new"]
        added = pc.is_null(ho)
        removed = pc.is_null(hn)
        changed = pc.and_(
            pc.and_(pc.is_valid(ho), pc.is_valid(hn)),
            pc.not_equal(ho, hn),
        )
        change = pc.if_else(
            added, pa.scalar("added"),
            pc.if_else(removed, pa.scalar("removed"),
                       pc.if_else(changed, pa.scalar("changed"),
                                  pa.scalar(None, pa.string()))),
        )
        t = pa.table({id_col: b["__id_l"], "change": change})
        return t.filter(pc.is_valid(t["change"]))

    return joined.map_batches(verdict, batch_format="pyarrow")


def zscore_per_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    id_col: str,
    scale: float = 1000.0,
):
    """Per-group z-score normalization -- ``(v - mean) / stddev`` within
    each group -- with a bit-exact SQL oracle: values quantize to integer
    ``scale``-units, group moments come from :func:`grouped_moments`'s
    exact int64 (n, s, ss) sums, and the per-row score is the IEEE-double
    expression ``(vu - s/n) / sqrt((ss - s*s/n) / (n-1))`` evaluated in
    the same operand order both sides (exactly-represented integer
    inputs, so even the float bits hash equal).  Rows in groups with
    n <= 1 or zero variance are dropped (z undefined).

    Scale shape: moments are the combiner-first grouped_moments pass;
    the O(#groups) (s, ss, n) table broadcasts into a stateless per-row
    map.  Rows never shuffle.
    """
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    def partial(b: pa.Table) -> pa.Table:
        vu = sql_round_i64(b[value_col], scale)
        t = pa.table(
            {
                key_col: b[key_col],
                "vu": vu,
                "vu2": pc.multiply_checked(vu, vu),
            }
        )
        g = t.group_by([key_col], use_threads=False).aggregate(
            [("vu", "sum"), ("vu2", "sum"), ([], "count_all")]
        )
        return g.rename_columns([key_col, "s", "ss", "n"])

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(
            Sum("s", alias_name="s"),
            Sum("ss", alias_name="ss"),
            Sum("n", alias_name="n"),
        )
        .take_all()
    )
    mom = {
        r[key_col]: (float(r["s"]), float(r["ss"]), float(r["n"]))
        for r in rows
    }

    def score(b: pa.Table) -> pa.Table:
        vu = sql_round_i64(b[value_col], scale).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        ks = b[key_col].to_pylist()
        s = np.array([mom[k][0] for k in ks])
        ss = np.array([mom[k][1] for k in ks])
        n = np.array([mom[k][2] for k in ks])
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (ss - s * s / n) / (n - 1.0)
            z = (vu - s / n) / np.sqrt(var)
        ok = (n > 1) & (var > 0)
        t = pa.table(
            {
                id_col: pc.cast(b[id_col], pa.int64()),
                key_col: b[key_col],
                "z": pa.array(z, pa.float64()),
            }
        )
        return t.filter(pa.array(ok))

    return ds.map_batches(score, batch_format="pyarrow")


def grouped_count_distinct(
    ds,
    *,
    key_col: str,
    value_col: str,
):
    """Exact COUNT(DISTINCT value) per group -- the exact complement of
    the per-group HLL sketch (ops/sketches.py hll_registers_by): use this
    when the distinct cardinality itself must be exact, the sketch when
    the value domain is unbounded.

    Scale shape: per-batch (key, value) dedup combiner -> ONE global
    distinct groupby on the pair -> per-batch (key, 1) partials -> one
    tiny groupby-sum.  Raw rows never shuffle; the exchange carries one
    row per distinct (key, value) pair per batch.
    """
    from ray.data.aggregate import Count, Sum

    def pair_dedup(b: pa.Table) -> pa.Table:
        return (
            b.select([key_col, value_col])
            .group_by([key_col, value_col], use_threads=False)
            .aggregate([])
        )

    distinct = (
        ds.map_batches(pair_dedup, batch_format="pyarrow")
        .groupby([key_col, value_col])
        .aggregate(Count(alias_name="__c"))
    )

    def ones(b: pa.Table) -> pa.Table:
        g = (
            b.select([key_col])
            .group_by([key_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([key_col, "n"])

    return (
        distinct.map_batches(ones, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("n", alias_name="n_distinct"))
    )


def topk_per_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    id_col: str,
    k: int,
    cents_factor: float | None = 1000.0,
    num_buckets: int | None = None,
):
    """Top-``k`` rows per group by ``(value DESC, id ASC)`` -- SQL's
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY value DESC, id)``
    with a ``rnk <= k`` cut, as a distributed composition (reference
    analog: the per-source "best records" reporting cut, SURVEY.md §2
    O1/O6 family).

    Scale shape: a per-batch partial top-k combiner (vectorized lexsort
    + run-position mask -- at most k rows per group per batch survive)
    runs BEFORE the exchange, so the shuffle carries O(k x groups x
    batches) slim rows, never the data.  ONE groupby on the hashed key
    bucket finishes with the identical sort + mask and stamps the rank.
    Values are floored to integer units first (functions.numeric
    .sql_round_i64) so ordering is total and replayable in SQL.
    """
    from ..functions.hashing import bucket_codes
    from ..functions.numeric import sql_round_i64

    nb = num_buckets or _default_buckets()

    def _cut(t: pa.Table, stamp_rank: bool) -> pa.Table:
        t = t.sort_by(
            [(key_col, "ascending"), ("value_units", "descending"),
             (id_col, "ascending")]
        )
        kk = t[key_col]
        if isinstance(kk, pa.ChunkedArray):
            kk = kk.combine_chunks()
        kk = kk.to_numpy(zero_copy_only=False)
        if not len(kk):
            out = t.select([key_col, id_col, "value_units"])
            return (
                out.append_column("rnk", pa.array([], pa.int64()))
                if stamp_rank else out
            )
        starts = np.flatnonzero(
            np.concatenate([[True], kk[1:] != kk[:-1]])
        )
        run_id = np.cumsum(
            np.concatenate([[True], kk[1:] != kk[:-1]])
        ) - 1
        pos = np.arange(len(kk)) - starts[run_id]
        t = t.filter(pa.array(pos < k))
        out = t.select([key_col, id_col, "value_units"])
        if stamp_rank:
            out = out.append_column(
                "rnk", pa.array(pos[pos < k] + 1, pa.int64())
            )
        return out

    def partial(b: pa.Table) -> pa.Table:
        v = (
            sql_round_i64(b[value_col], cents_factor)
            if cents_factor is not None
            else pc.cast(b[value_col], pa.int64())
        )
        t = pa.table(
            {key_col: b[key_col], id_col: b[id_col], "value_units": v}
        )
        t = _cut(t, stamp_rank=False)
        return t.append_column(
            "__bucket", bucket_codes(pc.cast(t[key_col], pa.string()), nb)
        )

    def finish(group: pa.Table) -> pa.Table:
        return _cut(group.select([key_col, id_col, "value_units"]), True)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(finish, batch_format="pyarrow")
    )


def rolling_distinct_users(
    ds,
    *,
    key_col: str,
    ts_col: str,
    window_buckets: int = 7,
    bucket_us: int = 86_400_000_000,
):
    """Trailing-window COUNT(DISTINCT key) per time bucket -- "7-day
    rolling active users" -- which SQL windows cannot express directly
    (no ``COUNT(DISTINCT) OVER RANGE``) and a naive per-day recount
    makes O(window) passes over the data.

    Scale shape: rows collapse to distinct (key, bucket) activity pairs
    (per-batch dedup combiner -> one global distinct), each pair fans
    out to the ``window_buckets`` trailing buckets it keeps alive
    (xW on the already-collapsed pairs, never the raw rows), one more
    distinct on (key, window-bucket), then per-batch count partials ->
    a tiny groupby-sum.  Buckets past the corpus's last active bucket
    are clamped with a driver-side scalar max (O(1) state).
    """
    from ray.data.aggregate import Count, Sum

    step = np.int64(bucket_us)

    def pairs(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        d = pc.divide(pc.cast(ts, pa.int64()), pa.scalar(step, pa.int64()))
        t = pa.table({"k": b[key_col], "d": d})
        return t.group_by(["k", "d"], use_threads=False).aggregate([])

    # materialized so the driver-side max() and the expansion pass read
    # the SAME computed blocks instead of re-running the distinct; this
    # is the collapsed activity table (one row per distinct key-bucket),
    # output-sized, not data-sized
    activity = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["k", "d"])
        .aggregate(Count(alias_name="__c"))
    ).materialize()
    max_d = int(activity.max("d"))

    def expand(b: pa.Table) -> pa.Table:
        kk = b["k"]
        if isinstance(kk, pa.ChunkedArray):
            kk = kk.combine_chunks()
        d = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(d)
        wd = (
            d[:, None] + np.arange(window_buckets, dtype=np.int64)[None, :]
        ).ravel()
        idx = np.repeat(np.arange(n), window_buckets)
        keep = wd <= max_d
        t = pa.table(
            {"k": kk.take(pa.array(idx[keep])),
             "wd": pa.array(wd[keep], pa.int64())}
        )
        return t.group_by(["k", "wd"], use_threads=False).aggregate([])

    alive = (
        activity.map_batches(expand, batch_format="pyarrow")
        .groupby(["k", "wd"])
        .aggregate(Count(alias_name="__c"))
    )

    def ones(b: pa.Table) -> pa.Table:
        g = (
            b.select(["wd"])
            .group_by(["wd"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["wd", "n"])

    out = (
        alive.map_batches(ones, batch_format="pyarrow")
        .groupby("wd")
        .aggregate(Sum("n", alias_name="n_users"))
    )

    def emit(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day_bucket": pc.cast(b["wd"], pa.int64()),
                "n_users": pc.cast(b["n_users"], pa.int64()),
            }
        )

    return out.map_batches(emit, batch_format="pyarrow")


def gapfill_counts(
    ds,
    *,
    key_col: str,
    ts_col: str,
    step_us: int = 3_600_000_000,
):
    """Dense time-bucketed counts per key with ZERO-filled gaps -- SQL's
    ``generate_series`` grid LEFT JOIN -- as a distributed composition:

    1. per-batch (key, bucket) count combiner (raw rows never shuffle --
       the exchange carries one row per distinct key-bucket per batch),
    2. one groupby-sum to globalize the sparse counts,
    3. per-key grid expansion in a map_groups task: ``np.arange`` over
       the key's [min, max] bucket span + one ``searchsorted`` scatter.

    The expansion task holds one key's FULL span, which is output-sized
    and time-bounded (a decade of hours is ~90k rows), not data-sized;
    documented per the custom-operator rule.
    """
    from ray.data.aggregate import Sum

    step = np.int64(step_us)

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        tus = pc.cast(ts, pa.int64())
        # floor-divide is the bucket truncation; timestamps are >= epoch
        # in the contract tables so // matches date_trunc
        bucket = pc.multiply(
            pc.divide(tus, pa.scalar(step, pa.int64())),
            pa.scalar(step, pa.int64()),
        )
        t = pa.table({"k": b[key_col], "bucket_us": bucket})
        return (
            t.group_by(["k", "bucket_us"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["k", "bucket_us", "n"])
        )

    sparse = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["k", "bucket_us"])
        .aggregate(Sum("n", alias_name="n_events"))
    )

    def expand(group: pa.Table) -> pa.Table:
        k = group["k"]
        b = group["bucket_us"].to_numpy(zero_copy_only=False)
        n = group["n_events"].to_numpy(zero_copy_only=False)
        grid = np.arange(b.min(), b.max() + step, step, dtype=np.int64)
        filled = np.zeros(len(grid), np.int64)
        filled[np.searchsorted(grid, b)] = n
        return pa.table(
            {
                key_col: pa.array([k[0].as_py()] * len(grid), k.type),
                "bucket_us": pa.array(grid, pa.int64()),
                "n_events": pa.array(filled, pa.int64()),
            }
        )

    return sparse.groupby("k").map_groups(expand, batch_format="pyarrow")


def grouped_linreg(
    ds,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    scale: float = 1000.0,
    x_step_us: int = 86_400_000_000,
):
    """Per-group OLS trend line (value vs. time) with a bit-exact SQL
    oracle -- the sufficient-statistics pattern one notch past
    ``grouped_moments``: per-batch combiners emit exact int64 partial
    (n, Sx, Sy, Sxy, Sxx) per key (x = the timestamp's epoch bucket,
    y = the value floored to integer ``scale``-units), ONE tiny
    groupby-sum merges them, and the closed-form slope/intercept finish
    runs in IEEE double with the exact operand order the oracle replays
    -- so even the float bits hash equal.

    Groups whose x is constant (denominator 0) are dropped in both
    implementations.  Overflow bound (documented): per-group Sxy must
    stay below 2^63 -- with day buckets (~2e4) and milli-units <= 1e6
    that allows ~4e8 rows per group; widen ``x_step_us`` or shrink
    ``scale`` for wider domains.

    Scale shape: only one (key, n, Sx, Sy, Sxy, Sxx) row per key per
    batch ever shuffles, never raw rows.
    """
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    step = pa.scalar(np.int64(x_step_us), pa.int64())

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        x = pc.divide(pc.cast(ts, pa.int64()), step)
        y = sql_round_i64(b[value_col], scale)
        t = pa.table(
            {
                key_col: b[key_col],
                "x": x,
                "y": y,
                "xy": pc.multiply_checked(x, y),
                "xx": pc.multiply_checked(x, x),
            }
        )
        g = t.group_by([key_col], use_threads=False).aggregate(
            [("x", "sum"), ("y", "sum"), ("xy", "sum"), ("xx", "sum"),
             ([], "count_all")]
        )
        return g.rename_columns([key_col, "sx", "sy", "sxy", "sxx", "n"])

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
            Sum("n", alias_name="n"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b["sxy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        # EXACT oracle expressions, same operand order:
        den = n * sxx - sx * sx
        keep = den != 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (n * sxy - sx * sy) / den
            intercept = (sy * sxx - sx * sxy) / den
        t = pa.table(
            {
                key_col: b[key_col],
                "n_rows": pc.cast(b["n"], pa.int64()),
                "slope_units": pa.array(slope, pa.float64()),
                "intercept_units": pa.array(intercept, pa.float64()),
            }
        )
        return t.filter(pa.array(keep))

    return merged.map_batches(finish, batch_format="pyarrow")


def skyline_2d(
    ds,
    *,
    id_col: str,
    max_col: str,
    min_col: str,
    cents_factor: float | None = 100.0,
    warn_skyline: int = 1_000_000,
):
    """2-D Pareto frontier (skyline): rows not dominated by any other row
    -- dominated means another row has ``max_col`` >= AND ``min_col`` <=
    with at least one strict.  The classic multi-objective curation cut
    ("highest value, earliest date").

    Scale shape: dominance is transitive, so a LOCAL skyline per batch is
    a sound pre-filter (any globally dominated point is dominated by a
    global-skyline point, which survives its own batch cut) -- each batch
    collapses to its frontier BEFORE the exchange, then one small final
    task repeats the identical vectorized cut on the union of local
    frontiers.  Each cut is a sort by (x desc, y asc) + one strict
    running-min mask on DISTINCT (x, y) points, then a semi-join back so
    exact-duplicate points all survive (duplicates never dominate each
    other -- the at-least-one-strict clause).  Anti-correlated dimensions
    can make frontiers large; past ``warn_skyline`` points the final
    task logs loudly (observe-only, like the window-op hot-key guard).
    """
    from ..functions.numeric import sql_round_i64

    def frontier(t: pa.Table) -> pa.Table:
        # distinct (x, y) points
        pts = (
            t.select(["x", "y"])
            .group_by(["x", "y"], use_threads=False)
            .aggregate([])
        )
        pts = pts.sort_by([("x", "descending"), ("y", "ascending")])
        x = pts["x"].to_numpy(zero_copy_only=False)
        y = pts["y"].to_numpy(zero_copy_only=False)
        if len(x) == 0:
            return t
        # keep a point iff its y is strictly below every earlier point's
        # y (earlier = higher x, or same x with lower y -- which then
        # dominates this one, caught by the same strict test)
        runmin = np.minimum.accumulate(y)
        keep = np.empty(len(y), bool)
        keep[0] = True
        keep[1:] = y[1:] < runmin[:-1]
        surv = pa.table({"x": pts["x"].take(pa.array(np.flatnonzero(keep))),
                         "y": pts["y"].take(pa.array(np.flatnonzero(keep)))})
        # semi-join rows back onto surviving points (exact duplicates of
        # a frontier point are mutually non-dominated: all survive)
        combo = pc.binary_join_element_wise(
            pc.cast(t["x"], pa.string()), pc.cast(t["y"], pa.string()), "|"
        )
        scombo = pc.binary_join_element_wise(
            pc.cast(surv["x"], pa.string()), pc.cast(surv["y"], pa.string()),
            "|",
        )
        return t.filter(pc.is_in(combo, value_set=scombo.combine_chunks()))

    def local(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                id_col: b[id_col],
                "x": (
                    sql_round_i64(b[max_col], cents_factor)
                    if cents_factor is not None
                    else pc.cast(b[max_col], pa.int64())
                ),
                "y": pc.cast(
                    pc.cast(b[min_col], pa.timestamp("us"))
                    if pa.types.is_timestamp(b[min_col].type)
                    else b[min_col],
                    pa.int64(),
                ),
            }
        )
        return frontier(t)

    def final(b: pa.Table) -> pa.Table:
        if b.num_rows > warn_skyline:
            import logging

            logging.getLogger(__name__).warning(
                "skyline_2d: frontier union has %d rows (> %d); "
                "anti-correlated dimensions produce large skylines",
                b.num_rows, warn_skyline,
            )
        out = frontier(b)
        return out.rename_columns([id_col, "max_units", "min_units"])

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def exact_auc(
    ds,
    *,
    score_col: str,
    label_col: str,
    positive_value,
    scale: float = 1000.0,
):
    """Exact ROC-AUC of ``score_col`` as a ranker for ``label_col ==
    positive_value`` via the Mann--Whitney rank-sum identity -- the
    model-eval aggregate a training-data pipeline runs after scoring.

    Ties use average ranks, kept EXACT by working in doubled ranks:
    a tie group of ``c`` rows with ``below`` rows under it has
    ``2*avg_rank = 2*below + c + 1`` (integer), so

        auc_micro = (sum_pos(2r) - n_pos*(n_pos+1)) * 1e6
                    // (2 * n_pos * n_neg)

    is all-integer and bit-replayable in SQL.

    Scale shape: one map_batches pass emits per-batch (score, n, n_pos)
    partials (scores floored to integer ``scale``-units), one
    groupby-sum globalizes them, and the rank-sum finish runs on the
    driver over the per-score table -- O(#distinct scores) driver
    state, the ``exact_quantiles`` contract (documented; bounded score
    domains only -- quantize wider domains with a smaller ``scale``).
    Emits one row: (n_pos, n_neg, auc_micro).
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    def partial(b: pa.Table) -> pa.Table:
        s = sql_round_i64(b[score_col], scale)
        p = pc.cast(
            pc.equal(b[label_col], positive_value), pa.int64()
        )
        t = pa.table({"s": s, "p": p})
        g = t.group_by(["s"], use_threads=False).aggregate(
            [("p", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["s", "cp", "c"])

    per_score = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("s")
        .aggregate(Sum("cp", alias_name="cp"), Sum("c", alias_name="c"))
        .materialize()
    )
    tab = pa.concat_tables(
        ray.get(per_score.to_arrow_refs()), promote_options="default"
    )
    s = tab["s"].to_numpy(zero_copy_only=False)
    cp = tab["cp"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = tab["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(s, kind="stable")
    cp, c = cp[order], c[order]
    below = np.concatenate(([0], np.cumsum(c)))[:-1]
    n_pos = int(cp.sum())
    n_neg = int(c.sum()) - n_pos
    sr2 = int((cp * (2 * below + c + 1)).sum())
    if n_pos == 0 or n_neg == 0:
        return rd.from_arrow(pa.table(
            {"n_pos": pa.array([n_pos], pa.int64()),
             "n_neg": pa.array([n_neg], pa.int64()),
             "auc_micro": pa.array([None], pa.int64())}
        ))
    auc_micro = (sr2 - n_pos * (n_pos + 1)) * 1_000_000 // (2 * n_pos * n_neg)
    return rd.from_arrow(pa.table(
        {"n_pos": pa.array([n_pos], pa.int64()),
         "n_neg": pa.array([n_neg], pa.int64()),
         "auc_micro": pa.array([auc_micro], pa.int64())}
    ))


def cooccurrence_pairs(
    ds,
    *,
    entity_col: str,
    item_col: str,
    num_buckets: int | None = None,
):
    """Bipartite projection: for every unordered pair of ``item_col``
    values, the number of DISTINCT ``entity_col`` values incident to
    both ("users who did both A and B") -- the co-occurrence graph
    behind recommendation and topic-affinity analyses.

    Scale shape: rows collapse to distinct (entity, item) incidence
    pairs (per-batch dedup combiner -> one global distinct bucketed BY
    ENTITY so each entity's items land together), then one vectorized
    segmented all-pairs emission per bucket (np.repeat/arange -- the
    common_neighbors wedge pattern) with a per-task ``np.unique``
    combiner, finished by a (#items^2)-bounded groupby-sum.  Per-entity
    fan-out is quadratic in that entity's item count -- fine for
    bounded item domains (document; cap entities with huge item sets
    upstream).
    """
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import bucket_codes

    nb = num_buckets or _default_buckets()

    def pair_dedup(b: pa.Table) -> pa.Table:
        return (
            b.select([entity_col, item_col])
            .group_by([entity_col, item_col], use_threads=False)
            .aggregate([])
        )

    incidence = (
        ds.map_batches(pair_dedup, batch_format="pyarrow")
        .groupby([entity_col, item_col])
        .aggregate(Count(alias_name="__c"))
    )

    def key(b: pa.Table) -> pa.Table:
        t = b.select([entity_col, item_col])
        return t.append_column(
            "__bucket",
            bucket_codes(pc.cast(t[entity_col], pa.string()), nb),
        )

    def pairs(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(entity_col, "ascending"), (item_col, "ascending")]
        )
        ent = t[entity_col]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        e = ent.to_numpy(zero_copy_only=False)
        items = t[item_col]
        if isinstance(items, pa.ChunkedArray):
            items = items.combine_chunks()
        dictarr = pc.dictionary_encode(items)
        codes = dictarr.indices.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        uniques = np.asarray(dictarr.dictionary.to_pylist(), dtype=object)
        n = len(e)
        if n < 2:
            return pa.table(
                {"item_a": pa.array([], pa.string()),
                 "item_b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        brk = np.empty(n, bool)
        brk[:1] = True
        brk[1:] = e[1:] != e[:-1]
        starts = np.flatnonzero(brk)
        seg_of = np.cumsum(brk) - 1
        sizes = np.diff(np.append(starts, n))
        local = np.arange(n) - starts[seg_of]
        counts = sizes[seg_of] - 1 - local
        total = int(counts.sum())
        if total == 0:
            return pa.table(
                {"item_a": pa.array([], pa.string()),
                 "item_b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        a_idx = np.repeat(np.arange(n), counts)
        excl = np.concatenate(([0], np.cumsum(counts)))[:-1]
        b_idx = a_idx + 1 + (np.arange(total) - excl[a_idx])
        k = len(uniques)
        # rows are sorted by (entity, item), so within a segment the pair
        # (a_idx < b_idx) already has item_a < item_b by VALUE
        combo = codes[a_idx] * k + codes[b_idx]
        vals, cnts = np.unique(combo, return_counts=True)
        return pa.table(
            {
                "item_a": pa.array(uniques[vals // k], pa.string()),
                "item_b": pa.array(uniques[vals % k], pa.string()),
                "n": pa.array(cnts.astype(np.int64), pa.int64()),
            }
        )

    return (
        incidence.map_batches(key, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("n", alias_name="n_entities"))
    )


def ntile(
    ds,
    *,
    score_col: str,
    id_col: str,
    q: int = 4,
    scale: float = 1000.0,
):
    """SQL ``NTILE(q) OVER (ORDER BY score, id)`` -- equal-frequency
    binning of the whole table into q tiles (quartiles/deciles), the
    discretization step feature pipelines run before bucketed models.

    Distributed ranking without a global sort of the rows:

    1. per-batch per-score count partials -> ONE groupby-sum -> an
       O(#distinct scores) driver table of EXCLUSIVE cumulative counts
       (``below``) broadcast to the workers (the exact_auc contract;
       quantize wider domains with a smaller ``scale``),
    2. one shuffle bucketed BY SCORE; each score's rows sort locally by
       id, so ``rank = below[score] + local_pos + 1`` is the exact
       global rank (skew note: one score's rows share a task -- bounded
       by score multiplicity, never the table),
    3. the tile is pure arithmetic on the rank (first ``n % q`` tiles
       take the extra row, SQL's NTILE contract).
    """
    import ray
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    def partial(b: pa.Table) -> pa.Table:
        s = sql_round_i64(b[score_col], scale)
        t = pa.table({"s": s})
        g = t.group_by(["s"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["s", "c"])

    per_score = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("s")
        .aggregate(Sum("c", alias_name="c"))
        .materialize()
    )
    tab = pa.concat_tables(
        ray.get(per_score.to_arrow_refs()), promote_options="default"
    )
    sv = tab["s"].to_numpy(zero_copy_only=False)
    cv = tab["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(sv, kind="stable")
    sv, cv = sv[order], cv[order]
    below = np.concatenate(([0], np.cumsum(cv)))[:-1]
    n = int(cv.sum())
    ref = ray.put((sv, below))

    big = n // q + 1
    nbig = n % q
    cut = nbig * big  # ranks <= cut live in the big tiles

    nb = _default_buckets()

    def prep(b: pa.Table) -> pa.Table:
        s = sql_round_i64(b[score_col], scale)
        sv_np = s.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pc.cast(b[id_col], pa.int64()),
                "score_units": s,
                "__bucket": pa.array(
                    (sv_np % nb).astype(np.int32), pa.int32()
                ),
            }
        )

    def rank_in_bucket(group: pa.Table) -> pa.Table:
        svv, bel = ray.get(ref)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        sc = group["score_units"].to_numpy(zero_copy_only=False)
        o = np.lexsort((ids, sc))
        ids, sc = ids[o], sc[o]
        brk = np.empty(len(sc), bool)
        brk[:1] = True
        if len(sc) > 1:
            brk[1:] = sc[1:] != sc[:-1]
        starts = np.flatnonzero(brk)
        pos = np.arange(len(sc)) - starts[np.cumsum(brk) - 1]
        rank = bel[np.searchsorted(svv, sc)] + pos + 1
        tile = np.where(
            rank <= cut,
            (rank - 1) // big + 1,
            nbig + (rank - cut - 1) // max(n // q, 1) + 1,
        ) if n else np.zeros(0, np.int64)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "score_units": pa.array(sc, pa.int64()),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(rank_in_bucket, batch_format="pyarrow")
    )


def period_deltas(
    ds,
    *,
    key_col: str,
    ts_col: str,
    bucket_us: int = 604_800_000_000,
):
    """Period-over-period deltas: per key, counts per time bucket plus
    the exact change vs the key's PREVIOUS OBSERVED bucket (SQL's
    ``n - LAG(n) OVER (PARTITION BY key ORDER BY bucket)``) -- the
    reporting staple behind week-over-week dashboards.  Each key's
    first bucket has no predecessor and is dropped on both sides.

    Scale shape: per-batch (key, bucket) count combiner -> ONE
    groupby-sum -> one key-bucketed shuffle of the already-collapsed
    counts (O(keys x buckets) rows, never events) with a vectorized
    lexsort + shift per bucket task.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import bucket_codes

    nb = _default_buckets()
    step = pa.scalar(np.int64(bucket_us), pa.int64())

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        bucket = pc.multiply(
            pc.divide(pc.cast(ts, pa.int64()), step), step
        )
        t = pa.table({"k": b[key_col], "bucket_us": bucket})
        return (
            t.group_by(["k", "bucket_us"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["k", "bucket_us", "n"])
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["k", "bucket_us"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def key(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__bucket", bucket_codes(pc.cast(b["k"], pa.string()), nb)
        )

    def deltas(group: pa.Table) -> pa.Table:
        kk = group["k"]
        if isinstance(kk, pa.ChunkedArray):
            kk = kk.combine_chunks()
        k = kk.to_numpy(zero_copy_only=False)
        bu = group["bucket_us"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((bu, k))
        k, bu, n = k[order], bu[order], n[order]
        same = np.zeros(len(k), bool)
        if len(k) > 1:
            same[1:] = k[1:] == k[:-1]
        prev = np.roll(n, 1)
        t = pa.table(
            {
                key_col: kk.take(pa.array(order[same])),
                "bucket_us": pa.array(bu[same], pa.int64()),
                "n_events": pa.array(n[same], pa.int64()),
                "delta": pa.array(n[same] - prev[same], pa.int64()),
            }
        )
        return t

    return (
        counts.map_batches(key, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(deltas, batch_format="pyarrow")
    )


def gini_coefficient(
    ds,
    *,
    key_col: str,
):
    """Gini coefficient of the per-key row-count distribution -- the
    skew diagnostic that tells you whether a groupby/shuffle key is safe
    BEFORE you pay for the exchange (0 = uniform keys, ->1 = one hot key
    owns the table).  Emits one row (n_keys, total_rows, gini_micro),
    exact integer micro-units via

        G = (2 * sum(i * c_i) - (n + 1) * S) / (n * S),  c sorted asc

    (all-integer numerator, non-negative, so floor == truncate and the
    window-function oracle replays it bit-for-bit).

    Scale shape: per-batch (key, count) combiners -> ONE groupby-sum ->
    the sorted-count reduction on the driver -- O(#keys) driver state
    (the exact_auc contract; keys are the thing being diagnosed, far
    smaller than rows).
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([key_col])
            .group_by([key_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["k", "c"])

    per_key = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("c", alias_name="c"))
        .materialize()
    )
    tab = pa.concat_tables(
        ray.get(per_key.to_arrow_refs()), promote_options="default"
    )
    c = np.sort(tab["c"].to_numpy(zero_copy_only=False).astype(np.int64))
    n = len(c)
    s = int(c.sum())
    if n == 0 or s == 0:
        gini = None
    else:
        num = 2 * int((np.arange(1, n + 1, dtype=np.int64) * c).sum()) \
            - (n + 1) * s
        gini = num * 1_000_000 // (n * s)
    return rd.from_arrow(pa.table(
        {
            "n_keys": pa.array([n], pa.int64()),
            "total_rows": pa.array([s], pa.int64()),
            "gini_micro": pa.array([gini], pa.int64()),
        }
    ))


def chisq_contingency(ds, row_col: str, col_col: str):
    """Chi-square contingency table: the per-cell independence-test
    contributions ``(obs - exp)^2 / exp`` for every (row, col) category
    pair -- the feature-vs-label drift screen corpus pipelines run before
    trusting a stratified split (is event mix independent of hour /
    shard / source?).

    **Exact-then-IEEE by construction.**  Observed counts, marginals and
    the cross term are exact int64 (per-batch combiners -> one tiny
    cell groupby -> O(#cells) driver finish, the exact_quantiles driver
    contract); with ``diff = obs*N - rt*ct`` the contribution

        contrib = (diff/dbl * diff/dbl) / ((rt*ct)/dbl * N/dbl)

    is computed with the operand order fixed above -- int64 -> double
    casts are correctly rounded in both engines, so the DuckDB oracle
    replays it bit-for-bit.  Documented bound: ``obs * N`` and
    ``rt * ct`` must fit int64 (N < ~3e9 rows; beyond that the exact
    cross term needs the HUGEINT/i128 scale path).

    Returns (row_col, col_col, obs, contrib float64), one row per
    observed cell.
    """
    import ray
    from ray.data.aggregate import Sum

    def cell_partial(b: pa.Table) -> pa.Table:
        t = b.select([row_col, col_col])
        g = (
            t.group_by([row_col, col_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([row_col, col_col, "c"])

    cells_ds = (
        ds.map_batches(cell_partial, batch_format="pyarrow")
        .groupby([row_col, col_col])
        .aggregate(Sum("c", alias_name="obs"))
        .materialize()
    )
    cells = pa.concat_tables(
        ray.get(cells_ds.to_arrow_refs()), promote_options="default"
    )
    if not len(cells):
        return pa.table(
            {
                row_col: pa.array([], pa.string()),
                col_col: pa.array([], pa.int64()),
                "obs": pa.array([], pa.int64()),
                "contrib": pa.array([], pa.float64()),
            }
        )
    rows = cells[row_col].to_numpy(zero_copy_only=False)
    cols = cells[col_col].to_numpy(zero_copy_only=False)
    obs = cells["obs"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(obs.sum())
    ur, ri = np.unique(rows, return_inverse=True)
    uc, ci = np.unique(cols, return_inverse=True)
    rt = np.zeros(len(ur), np.int64)
    np.add.at(rt, ri, obs)
    ct = np.zeros(len(uc), np.int64)
    np.add.at(ct, ci, obs)
    cross = rt[ri] * ct[ci]
    diff = obs * n - cross
    d = diff.astype(np.float64)
    contrib = (d * d) / (cross.astype(np.float64) * np.float64(n))
    return pa.table(
        {
            row_col: cells[row_col],
            col_col: cells[col_col],
            "obs": pa.array(obs, pa.int64()),
            "contrib": pa.array(contrib, pa.float64()),
        }
    )


def grouped_mlr2(
    ds,
    *,
    group_col: str,
    x1_col: str,
    x2_col: str,
    y_col: str,
):
    """Per-group TWO-feature least squares (y ~ b0 + b1*x1 + b2*x2) via
    exact integer normal equations + Cramer's rule -- the multivariate
    step past grouped_linreg, same sufficient-statistics contract:
    per-batch int64 partial sums of (n, Sx1, Sx2, Sy, S11, S12, S22,
    S1y, S2y), ONE tiny groupby-sum, then an O(#groups) driver finish
    where the 3x3 determinants are computed in PYTHON BIG INTS (they
    overflow int64 by design -- the DuckDB oracle replays them in
    HUGEINT) and each coefficient is ONE correctly-rounded int->double
    cast pair and ONE IEEE divide: bit-replayable.

    Inputs must be integer-valued columns (already exact int64).
    Singular groups (det == 0) are dropped on both sides.

    Returns (group, n, det, b0, b1, b2) with det emitted as float64
    (the exact HUGEINT value may not fit int64; both engines cast the
    same exact integer, so the doubles are bit-equal).
    """
    import ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = b[group_col]
        x1 = b[x1_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x2 = b[x2_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "g": g,
                "n": pa.array(np.ones(len(b), np.int64), pa.int64()),
                "sx1": pa.array(x1, pa.int64()),
                "sx2": pa.array(x2, pa.int64()),
                "sy": pa.array(y, pa.int64()),
                "s11": pa.array(x1 * x1, pa.int64()),
                "s12": pa.array(x1 * x2, pa.int64()),
                "s22": pa.array(x2 * x2, pa.int64()),
                "s1y": pa.array(x1 * y, pa.int64()),
                "s2y": pa.array(x2 * y, pa.int64()),
            }
        )
        agg = t.group_by(["g"], use_threads=False).aggregate(
            [(c, "sum") for c in
             ("n", "sx1", "sx2", "sy", "s11", "s12", "s22", "s1y", "s2y")]
        )
        return agg.rename_columns(
            ["g", "n", "sx1", "sx2", "sy", "s11", "s12", "s22", "s1y",
             "s2y"]
        )

    sums = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            *[
                Sum(c, alias_name=c)
                for c in ("n", "sx1", "sx2", "sy", "s11", "s12", "s22",
                          "s1y", "s2y")
            ]
        )
        .materialize()
    )
    tab = pa.concat_tables(
        ray.get(sums.to_arrow_refs()), promote_options="default"
    )
    out_g, out_n, out_det, b0s, b1s, b2s = [], [], [], [], [], []
    for row in tab.to_pylist():
        n, sx1, sx2 = int(row["n"]), int(row["sx1"]), int(row["sx2"])
        sy = int(row["sy"])
        s11, s12, s22 = int(row["s11"]), int(row["s12"]), int(row["s22"])
        s1y, s2y = int(row["s1y"]), int(row["s2y"])
        # A = [[n,sx1,sx2],[sx1,s11,s12],[sx2,s12,s22]], b = [sy,s1y,s2y]
        det = (
            n * (s11 * s22 - s12 * s12)
            - sx1 * (sx1 * s22 - s12 * sx2)
            + sx2 * (sx1 * s12 - s11 * sx2)
        )
        if det == 0:
            continue
        det0 = (
            sy * (s11 * s22 - s12 * s12)
            - sx1 * (s1y * s22 - s12 * s2y)
            + sx2 * (s1y * s12 - s11 * s2y)
        )
        det1 = (
            n * (s1y * s22 - s12 * s2y)
            - sy * (sx1 * s22 - s12 * sx2)
            + sx2 * (sx1 * s2y - s1y * sx2)
        )
        det2 = (
            n * (s11 * s2y - s1y * s12)
            - sx1 * (sx1 * s2y - s1y * sx2)
            + sy * (sx1 * s12 - s11 * sx2)
        )
        out_g.append(row["g"])
        out_n.append(n)
        out_det.append(float(det))
        b0s.append(float(det0) / float(det))
        b1s.append(float(det1) / float(det))
        b2s.append(float(det2) / float(det))
    return pa.table(
        {
            "g": pa.array(out_g),
            "n": pa.array(out_n, pa.int64()),
            "det": pa.array(out_det, pa.float64()),
            "b0": pa.array(b0s, pa.float64()),
            "b1": pa.array(b1s, pa.float64()),
            "b2": pa.array(b2s, pa.float64()),
        }
    )


def zorder_key(
    ds,
    cols: list[str],
    *,
    bits: int = 16,
    out_col: str = "zkey",
):
    """Append a Morton (Z-order) interleave key over ``cols`` (int-like
    columns, low ``bits`` bits each): the multi-dimensional data-layout
    key -- rows sorted/partitioned by it cluster locality in EVERY
    ``cols`` dimension at once, so range predicates on any of them prune
    contiguous key ranges of a sorted Parquet layout (the table-layout
    optimization Delta/Iceberg expose as OPTIMIZE ZORDER, public).

    Pure per-batch integer bit-interleave (numpy shifts/ors, no state,
    no exchange); layout itself is then one ``sort`` / ``repartition``
    by ``out_col``.  ``len(cols) * bits`` must fit 63 bits.  Values are
    masked to the low ``bits`` bits after a non-negativity check (a
    negative coordinate has no total Z-order; fail loud, don't wrap)."""
    if len(cols) * bits > 63:
        raise ValueError("z-key would overflow int64")

    def add_key(b: pa.Table) -> pa.Table:
        n = len(b)
        z = np.zeros(n, np.int64)
        for ci, c in enumerate(cols):
            v = b[c].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(v) and v.min() < 0:
                raise ValueError(
                    f"zorder_key: negative values in {c!r} have no "
                    "total Z-order"
                )
            v = v & ((np.int64(1) << bits) - 1)
            for i in range(bits):
                z |= ((v >> i) & 1) << (i * len(cols) + ci)
        return b.append_column(out_col, pa.array(z, pa.int64()))

    return ds.map_batches(add_key, batch_format="pyarrow")


def table_profile(ds, cols: list[str]):
    """Data-catalog profile of ``cols`` in ONE pass: per column, row
    count, null count and exact distinct-value count -- the statistics a
    catalog / query optimizer collects per table (reference analog: the
    per-cycle table counters, SURVEY SS2.6 T4, lifted to column level).

    Scale shape (the predicate_stats exchange discipline): each batch
    lowers every column to (col-index, kind, h1, h2) rows -- kind 1 rows
    carry a value's 128-bit two-seed hash identity (values never
    shuffle; per-batch local dedup collapses repeats), kind 0 rows carry
    one (n_values, n_nulls) batch partial.  ONE global distinct groupby
    serves both: a kind-1 group counts once toward NDV regardless of
    multiplicity, while kind-0 partials recover exact totals as
    sum(h1 * group_count) -- identical batch partials collapse, their
    multiplicity lives in the Count.  The driver pivot is
    O(#cols + #distinct batch shapes)."""
    import ray
    from ray.data.aggregate import Count

    from ..functions.hashing import hash_strings_u64

    def lower(b: pa.Table) -> pa.Table:
        cis, kinds, h1s, h2s = [], [], [], []
        for ci, c in enumerate(cols):
            col = b[c]
            n = len(col)
            nulls = col.null_count
            vals = pc.cast(col.drop_null(), pa.string())
            h1 = hash_strings_u64(vals, seed=0).view(np.int64)
            h2 = hash_strings_u64(vals, seed=1).view(np.int64)
            cis.append(np.full(len(h1) + 1, ci, np.int8))
            kinds.append(
                np.concatenate([np.ones(len(h1), np.int8), [0]])
            )
            h1s.append(np.concatenate([h1, [n]]))
            h2s.append(np.concatenate([h2, [nulls]]))
        t = pa.table(
            {
                "ci": pa.array(np.concatenate(cis), pa.int8()),
                "kind": pa.array(np.concatenate(kinds), pa.int8()),
                "h1": pa.array(np.concatenate(h1s), pa.int64()),
                "h2": pa.array(np.concatenate(h2s), pa.int64()),
            }
        )
        # local dedup: value repeats never reach the exchange (kind-0
        # partials are unique per (batch shape) already and collapse
        # globally with their multiplicity in the Count)
        return (
            t.group_by(["ci", "kind", "h1", "h2"], use_threads=False)
            .aggregate([])
        )

    groups = (
        ds.map_batches(lower, batch_format="pyarrow")
        .groupby(["ci", "kind", "h1", "h2"])
        .aggregate(Count(alias_name="cnt"))
        .materialize()
    )
    tab = pa.concat_tables(
        ray.get(groups.to_arrow_refs()), promote_options="default"
    )
    ci = tab["ci"].to_numpy(zero_copy_only=False)
    kind = tab["kind"].to_numpy(zero_copy_only=False)
    h1 = tab["h1"].to_numpy(zero_copy_only=False)
    h2 = tab["h2"].to_numpy(zero_copy_only=False)
    cnt = tab["cnt"].to_numpy(zero_copy_only=False)
    n_rows = np.zeros(len(cols), np.int64)
    n_nulls = np.zeros(len(cols), np.int64)
    ndv = np.zeros(len(cols), np.int64)
    part = kind == 0
    np.add.at(n_rows, ci[part], h1[part] * cnt[part])
    np.add.at(n_nulls, ci[part], h2[part] * cnt[part])
    np.add.at(ndv, ci[~part], 1)
    return pa.table(
        {
            "col": pa.array(list(cols), pa.string()),
            "n_rows": pa.array(n_rows, pa.int64()),
            "n_nulls": pa.array(n_nulls, pa.int64()),
            "n_distinct": pa.array(ndv, pa.int64()),
        }
    )


def scd2_intervals(
    snaps_ds,
    *,
    id_col: str,
    attr_cols: list[str],
    version_col: str = "v",
    max_version: int | None = None,
    num_buckets: int | None = None,
):
    """Slowly-Changing-Dimension TYPE 2 history build from a stacked
    snapshot series (Kimball, public): input rows are (id, attrs...,
    version) -- one row per entity per snapshot version it is PRESENT in
    -- and the output is one row per maximal run of consecutive versions
    with identical attributes: (id, attrs..., eff_from, eff_to,
    is_current).  ``eff_to`` is the first version the run no longer
    holds (attribute change OR absence), NULL while the run still holds
    at ``max_version`` (then ``is_current = 1``).  An entity absent for
    a version and back later gets TWO rows even if attributes match --
    gaps close intervals, the standard SCD2 re-insert.  The CDC
    diff/apply pair (snapshot_diff / upsert_apply) tracks ONE step;
    this materializes the full validity history a warehouse dimension
    keeps (marc2rdf analog: authority records carry their update
    lifecycle across harvest cycles, SURVEY.md §2.8 U1/U4).

    ``max_version`` defaults to the global max of ``version_col``
    (computed in one slim aggregate pass).

    Attribute equality is BY STRING CAST (documented contract: pass
    string attrs, or pre-format numerics deterministically).

    Scale shape: ONE id-hash bucket shuffle of slim (id, attrs,
    version) rows; each bucket solves its runs with a vectorized
    lexsort + gaps-and-islands break scan (no per-entity Python).  All
    versions of one id must share a task -- the documented
    one-key-fits-task assumption of the window ops (ops/windows.py).
    """
    from ray.data.aggregate import Max

    if max_version is None:
        t = snaps_ds.aggregate(Max(version_col, alias_name="mx"))
        max_version = int(t["mx"]) if t and t["mx"] is not None else 0
    nb = num_buckets or _default_buckets()

    def keyed(b: pa.Table) -> pa.Table:
        ids = b[id_col]
        akey = b[attr_cols[0]] if len(attr_cols) == 1 else None
        cols = {
            id_col: ids,
            version_col: pc.cast(b[version_col], pa.int64()),
        }
        for c in attr_cols:
            cols[c] = b[c]
        # Fill nulls PER COLUMN before joining: binary_join_element_wise
        # emits null when ANY element is null, so a post-join fill would
        # collapse every any-null tuple (('a', NULL) vs ('b', NULL)) to
        # the same key and merge distinct attribute states into one run.
        parts = [
            pc.fill_null(pc.cast(b[c], pa.string()), "\x00NULL")
            for c in attr_cols
        ]
        if akey is None:
            akey = pc.binary_join_element_wise(
                *parts, "\x1f"
            )
        else:
            akey = parts[0]
        cols["_ak"] = akey
        from ..functions.hashing import bucket_codes

        cols["_b"] = bucket_codes(pc.cast(ids, pa.string()), nb)
        return pa.table(cols)

    def runs(g: pa.Table) -> pa.Table:
        n = len(g)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        v = g[version_col].to_numpy(zero_copy_only=False)
        ak = np.asarray(g["_ak"].to_pylist(), object)
        order = np.lexsort((v, ak, ids))
        ids, v, ak = ids[order], v[order], ak[order]
        brk = np.empty(n, bool)
        brk[:1] = True
        if n > 1:
            brk[1:] = (
                (ids[1:] != ids[:-1])
                | (ak[1:] != ak[:-1])
                | (v[1:] != v[:-1] + 1)
            )
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n) - 1
        last = v[ends]
        eff_from = v[starts]
        eff_to = last + 1
        cur = last == max_version
        take = order[starts]
        out = {
            id_col: g[id_col].take(pa.array(take, pa.int64())),
        }
        for c in attr_cols:
            out[c] = g[c].take(pa.array(take, pa.int64()))
        out["eff_from"] = pa.array(eff_from, pa.int64())
        out["eff_to"] = pa.array(
            [None if c else int(e) for c, e in zip(cur, eff_to)],
            pa.int64(),
        )
        out["is_current"] = pa.array(cur.astype(np.int64), pa.int64())
        return pa.table(out)

    return (
        snaps_ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(runs, batch_format="pyarrow")
    )
