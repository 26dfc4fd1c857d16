"""Windowed / streaming-shaped operators over event tables.

The reference's streaming story is time-windowed micro-batches
(oaiclient.rb:29-30 from/until harvest windows; SURVEY.md §2.9); the
tumbling-window analog is ``events_hourly`` in entry_queries.  This module
adds the gap-based SESSION window -- the custom windowed-aggregate
operator Ray Data lacks natively, built as composition (a) from SURVEY.md:
hash-bucket shuffle by user + one vectorized numpy pass per bucket.

Partitioning assumption (documented per the custom-operator rule): all
events of a user fit in one bucket task.  At 100 TB that holds because
buckets scale with the cluster (num_buckets ~ total cores) and a single
user's events are bounded; a pathological single-user firehose would need
a time-sliced pre-split, which composes in front of this op.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger("marc2rdf_ray.windows")

# per-key row guard: the window ops below assume one key's rows fit one
# bucket task.  A key whose row count in a single task exceeds this emits
# a WARNING naming the key and the pre-split recipe (VERDICT r3 #5 --
# pathological skew should surface as a log line, not an opaque worker
# OOM).  Results are never changed; the guard only observes.
KEY_CAP_ROWS = 5_000_000


def _warn_hot_keys(op: str, keys_sorted: np.ndarray,
                   cap: int | None = None) -> None:
    """One run-length pass over the already-key-sorted array; only runs
    at all when the task holds more rows than the cap (so the common case
    costs a single len() compare)."""
    cap = KEY_CAP_ROWS if cap is None else cap
    n = len(keys_sorted)
    if n <= cap:
        return
    brk = np.empty(n, bool)
    brk[:1] = True
    brk[1:] = keys_sorted[1:] != keys_sorted[:-1]
    starts = np.flatnonzero(brk)
    sizes = np.diff(np.append(starts, n))
    for i in np.flatnonzero(sizes > cap):
        logger.warning(
            "%s: key %r has %d rows in one task (guard %d); a key this hot "
            "risks task OOM -- pre-split it by time range (compose a "
            "coarse time-bucket column into the key) before this op",
            op, keys_sorted[starts[i]], int(sizes[i]), cap,
        )


def _segment_of(tus, segment_us: int) -> pa.Array:
    """Time segment ``floor(tus / segment_us)`` of int64 microseconds.
    Floor, not Arrow's truncating integer divide: segment s is exactly
    ``[s*segment_us, (s+1)*segment_us)`` for pre-epoch (negative)
    timestamps too, which is what the per-segment numpy passes assume."""
    t = np.asarray(tus.to_numpy(zero_copy_only=False), np.int64)
    return pa.array(t // np.int64(segment_us), pa.int64())


def sessionize(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    gap_us: int = 1_800_000_000,
    num_buckets: int | None = None,
    with_end: bool = False,
    segment_us: int | None = None,
):
    """Gap-based sessions per user -> one row per session:
    (user_id, session_start_us, n_events, sum_value_cents)
    (+ ``session_end_us`` = the last event's timestamp when
    ``with_end=True`` -- the interval form the sweep-line ops consume).

    A new session starts when the gap to the previous event of the same
    user exceeds ``gap_us``.  Money is aggregated on integer cents
    (bit-exact vs a SQL oracle).  One shuffle (hash(user) % B); inside
    each bucket a single lexsort + reduceat pass -- no Python per event,
    no Python per user.

    ``segment_us`` (round-5 task #3, the hot-key degradation the r3/r4
    reviews asked for): when set, the shuffle key becomes (user, tus //
    segment_us) so a pathological single-key firehose splits across MANY
    tasks instead of OOMing one.  Each segment sessionizes independently;
    a segment's interior sessions are final (they are fenced by >gap_us
    gaps on both sides, and events outside the segment are farther still),
    and only the O(2 per user per segment) boundary sessions go through a
    second, tiny gap-merge pass -- output identical to the unsegmented
    path (pytest-locked).  Requires ``segment_us >= gap_us`` (narrower
    segments would make everything a boundary session; still correct,
    just pointless).  Segments are floor-divided, ``[k*segment_us,
    (k+1)*segment_us)``, so pre-epoch (negative) timestamps segment like
    any others (pytest-locked across the epoch)."""
    from ..functions.hashing import bucket_codes

    if segment_us is not None and segment_us < gap_us:
        raise ValueError(
            f"sessionize: segment_us ({segment_us}) must be >= gap_us "
            f"({gap_us}) -- narrower segments make every session a "
            "boundary session and defeat the split"
        )

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        from ..functions.numeric import sql_round_i64

        t = pa.table(
            {
                "u": b[user_col],
                "tus": pc.cast(b[ts_col], pa.int64()),
                # SQL tie semantics to match the oracle's ROUND(value*100)
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        if segment_us is None:
            key = pc.cast(t["u"], pa.string())
        else:
            seg = _segment_of(t["tus"], segment_us)
            t = t.append_column("seg", seg)
            key = pc.binary_join_element_wise(
                pc.cast(t["u"], pa.string()),
                pc.cast(seg, pa.string()),
                "#",
            )
        return t.append_column("bucket", bucket_codes(key, num_buckets))

    def sessions(group: pa.Table) -> pa.Table:
        u = np.asarray(group["u"].to_numpy(zero_copy_only=False), np.int64)
        tus = np.asarray(group["tus"].to_numpy(zero_copy_only=False), np.int64)
        vc = np.asarray(group["vc"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((tus, u))
        u, tus, vc = u[order], tus[order], vc[order]
        _warn_hot_keys("sessionize", u)
        brk = np.empty(len(u), bool)
        brk[0:1] = True
        if len(u) > 1:
            brk[1:] = (u[1:] != u[:-1]) | ((tus[1:] - tus[:-1]) > gap_us)
        starts = np.flatnonzero(brk)
        counts = np.diff(np.append(starts, len(u)))
        s_start = tus[starts]
        s_end = tus[starts + counts - 1]
        cols = {
            "user_id": pa.array(u[starts], pa.int64()),
            "session_start_us": pa.array(s_start, pa.int64()),
            "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            "sum_value_cents": pa.array(
                np.add.reduceat(vc, starts), pa.int64()
            ),
        }
        if with_end or segment_us is not None:
            cols["session_end_us"] = pa.array(s_end, pa.int64())
        if segment_us is not None:
            # a session is FINAL iff no event in another segment could
            # sit within gap_us of either end: its interior neighbors (in
            # this group) are already fenced by >gap_us breaks, and any
            # event beyond the segment edge is at least the edge distance
            # away.  Conservative (<=) on both sides.
            fin = (
                (s_start % segment_us > gap_us)
                & (segment_us - (s_end % segment_us) > gap_us)
            )
            cols["fin"] = pa.array(fin.astype(np.int8), pa.int8())
        return pa.table(cols)

    base = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sessions, batch_format="pyarrow")
    )
    if segment_us is None:
        return base

    out_cols = [
        "user_id", "session_start_us", "n_events", "sum_value_cents",
    ] + (["session_end_us"] if with_end else [])

    # session rows are tiny vs events; materialize once so the final /
    # boundary branches do not re-execute the event shuffle (NOTES.md
    # single-consumption trap)
    mat = base.materialize()
    final = mat.filter(expr="fin == 1").map_batches(
        lambda b: b.select(out_cols), batch_format="pyarrow"
    )
    boundary = mat.filter(expr="fin == 0")

    def bprep(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket2",
            bucket_codes(pc.cast(b["user_id"], pa.string()), num_buckets),
        )

    def bmerge(group: pa.Table) -> pa.Table:
        # gap-merge over boundary sessions: same maximal-run rule, on
        # O(sessions-per-segment-edge) rows per user -- never on events
        u = np.asarray(group["user_id"].to_numpy(zero_copy_only=False),
                       np.int64)
        st = np.asarray(
            group["session_start_us"].to_numpy(zero_copy_only=False),
            np.int64)
        en = np.asarray(
            group["session_end_us"].to_numpy(zero_copy_only=False),
            np.int64)
        n = np.asarray(group["n_events"].to_numpy(zero_copy_only=False),
                       np.int64)
        vc = np.asarray(
            group["sum_value_cents"].to_numpy(zero_copy_only=False),
            np.int64)
        order = np.lexsort((st, u))
        u, st, en, n, vc = (u[order], st[order], en[order], n[order],
                            vc[order])
        brk = np.empty(len(u), bool)
        brk[:1] = True
        if len(u) > 1:
            brk[1:] = (u[1:] != u[:-1]) | ((st[1:] - en[:-1]) > gap_us)
        starts2 = np.flatnonzero(brk)
        counts2 = np.diff(np.append(starts2, len(u)))
        cols = {
            "user_id": pa.array(u[starts2], pa.int64()),
            "session_start_us": pa.array(st[starts2], pa.int64()),
            "n_events": pa.array(np.add.reduceat(n, starts2), pa.int64()),
            "sum_value_cents": pa.array(
                np.add.reduceat(vc, starts2), pa.int64()
            ),
        }
        if with_end:
            cols["session_end_us"] = pa.array(
                en[starts2 + counts2 - 1], pa.int64()
            )
        return pa.table(cols)

    merged = (
        boundary.map_batches(bprep, batch_format="pyarrow")
        .groupby("bucket2")
        .map_groups(bmerge, batch_format="pyarrow")
    )
    return final.union(merged)


def sliding_window(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    hop_us: int = 3_600_000_000,
    width_hops: int = 3,
    num_buckets: int | None = None,
):
    """Trailing sliding-window aggregate per user: for every ACTIVE hop
    (a hop in which the user has >=1 event) emit the count and integer-cent
    sum over the window of ``width_hops`` hops ending at that hop
    (inclusive) -- the hopping/sliding-window aggregate the reference's
    harvest windows imply (oaiclient.rb:29-30 from/until) generalized to
    overlapping windows, which Ray Data lacks natively.

    Composition (a) per SURVEY.md custom-operator rule: ONE hash-bucket
    shuffle by user, then a single vectorized pass per bucket -- lexsort,
    reduceat to per-(user,hop) partials, and a searchsorted trailing-window
    cumsum difference.  No Python per event, per user, or per hop.

    Partitioning assumption: all events of one user land in one bucket
    task (hash(user) % B); bucket count scales with the cluster and a
    single user's hop count is bounded by the time range, so per-bucket
    memory is O(events/B).

    Output: (user_id, window_end_hop, n_events, sum_value_cents), where
    ``window_end_hop`` = floor(epoch_us / hop_us).
    """
    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        from ..functions.numeric import sql_round_i64

        t = pa.table(
            {
                "u": b[user_col],
                "tus": pc.cast(b[ts_col], pa.int64()),
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def windows(group: pa.Table) -> pa.Table:
        u = np.asarray(group["u"].to_numpy(zero_copy_only=False), np.int64)
        tus = np.asarray(group["tus"].to_numpy(zero_copy_only=False), np.int64)
        vc = np.asarray(group["vc"].to_numpy(zero_copy_only=False), np.int64)
        hop = tus // hop_us  # int64 floor division == oracle's float floor
        order = np.lexsort((hop, u))
        u, hop, vc = u[order], hop[order], vc[order]
        _warn_hot_keys("sliding_window", u)
        # collapse to per-(user, hop) partials
        brk = np.empty(len(u), bool)
        brk[0:1] = True
        if len(u) > 1:
            brk[1:] = (u[1:] != u[:-1]) | (hop[1:] != hop[:-1])
        starts = np.flatnonzero(brk)
        gu, ghop = u[starts], hop[starts]
        gcnt = np.diff(np.append(starts, len(u))).astype(np.int64)
        gsum = np.add.reduceat(vc, starts)
        # trailing window via searchsorted on a per-user-disjoint key space:
        # users are separated by > width so a window never crosses users
        hop_idx = ghop - ghop.min()
        span = int(hop_idx.max()) + width_hops + 1
        ubrk = np.empty(len(gu), bool)
        ubrk[0:1] = True
        if len(gu) > 1:
            ubrk[1:] = gu[1:] != gu[:-1]
        urank = np.cumsum(ubrk) - 1
        keys = urank * span + hop_idx  # strictly increasing
        lo = np.searchsorted(keys, keys - (width_hops - 1), side="left")
        ccnt = np.concatenate([[0], np.cumsum(gcnt)])
        csum = np.concatenate([[0], np.cumsum(gsum)])
        idx = np.arange(len(keys))
        return pa.table(
            {
                "user_id": pa.array(gu, pa.int64()),
                "window_end_hop": pa.array(ghop, pa.int64()),
                "n_events": pa.array(ccnt[idx + 1] - ccnt[lo], pa.int64()),
                "sum_value_cents": pa.array(csum[idx + 1] - csum[lo], pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(windows, batch_format="pyarrow")
    )


def running_totals(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    num_buckets: int | None = None,
    segment_us: int | None = None,
    carry_broadcast_budget: int = 256 << 20,
):
    """Per-key cumulative window aggregate -- SQL's ``SUM(v) OVER
    (PARTITION BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING)`` -- as a
    distributed operator: one shuffle (hash(key) % B), then a single
    lexsort + segmented-cumsum pass per bucket (no Python per event or per
    key).  Emits (id, key, ts_us, running_cnt, running_cents); money on
    integer cents with SQL ROUND tie semantics, so the oracle replays
    bit-for-bit.  Ties within a key at one timestamp resolve by id.

    Partitioning assumption (custom-operator rule): one key's rows fit
    one task (the sessionize/sliding_window assumption; keys are users,
    so the per-key row count is human-bounded).

    ``segment_us`` (round-5 task #3): when set, the shuffle key becomes
    (key, tus // segment_us), so a firehose key splits across many tasks.
    Cumulative sums then run in the classic two-phase distributed scan:
    per-segment local cumsums, then an O(#(key, segment)) exclusive
    prefix of segment totals per key, carried back into every row by a
    broadcast-or-join lookup.  Output identical to the unsegmented path
    (pytest-locked, pre-epoch timestamps included: segments are
    floor-divided, and the scan breaks on the ``seg`` column the shuffle
    key was built from)."""
    from ..functions.hashing import bucket_codes
    from ..functions.numeric import sql_round_i64

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": b[user_col],
                "tus": pc.cast(b[ts_col], pa.int64()),
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        if segment_us is None:
            key = pc.cast(t["u"], pa.string())
        else:
            seg = _segment_of(t["tus"], segment_us)
            t = t.append_column("seg", seg)
            key = pc.binary_join_element_wise(
                pc.cast(t["u"], pa.string()),
                pc.cast(seg, pa.string()),
                "#",
            )
        return t.append_column("bucket", bucket_codes(key, num_buckets))

    def cumulate(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        vc = group["vc"].to_numpy(zero_copy_only=False)
        # segmented: the cumsum break is (key, segment) -- a bucket may
        # hold non-contiguous segments of one key, so a plain per-key
        # cumsum would be wrong; the carry pass restores the global scan.
        # The segment is prep's: the one the shuffle key was built from.
        segv = (group["seg"].to_numpy(zero_copy_only=False)
                if segment_us is not None else None)
        order = np.lexsort((ids, tus, u))
        u, tus, ids, vc = u[order], tus[order], ids[order], vc[order]
        if segv is not None:
            segv = segv[order]
        if segment_us is None:
            _warn_hot_keys("running_totals", u)
        brk = np.empty(len(u), bool)
        brk[:1] = True
        if len(u) > 1:
            brk[1:] = u[1:] != u[:-1]
            if segv is not None:
                brk[1:] |= segv[1:] != segv[:-1]
        starts = np.flatnonzero(brk)
        cum_v = np.cumsum(vc)
        cum_n = np.arange(1, len(u) + 1, dtype=np.int64)
        # subtract the running total just before each key's first row
        base_v = np.concatenate(([0], cum_v))[starts]
        base_n = np.concatenate(([0], cum_n))[starts]
        seg = np.repeat(np.arange(len(starts)), np.diff(
            np.append(starts, len(u))))
        rc_n = cum_n - base_n[seg]
        rc_v = cum_v - base_v[seg]
        cols = {
            "event_id": pa.array(ids, pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "ts_us": pa.array(tus, pa.int64()),
            "running_cnt": pa.array(rc_n, pa.int64()),
            "running_cents": pa.array(rc_v, pa.int64()),
        }
        if segv is not None:
            # one summary row per (key, segment) carrying the segment
            # totals (the LAST running row -- a Max aggregate over
            # running_cents would be wrong for negative values)
            ends = starts + np.diff(np.append(starts, len(u))) - 1
            cols["seg"] = pa.array(segv, pa.int64())
            cols["is_sum"] = pa.array(
                np.zeros(len(u), np.int8), pa.int8()
            )
            data = pa.table(cols)
            summ = pa.table(
                {
                    "event_id": pa.array(ids[ends], pa.int64()),
                    "user_id": pa.array(u[ends], pa.int64()),
                    "ts_us": pa.array(tus[ends], pa.int64()),
                    "running_cnt": pa.array(rc_n[ends], pa.int64()),
                    "running_cents": pa.array(rc_v[ends], pa.int64()),
                    "seg": pa.array(segv[ends], pa.int64()),
                    "is_sum": pa.array(
                        np.ones(len(ends), np.int8), pa.int8()
                    ),
                }
            )
            return pa.concat_tables([data, summ])
        return pa.table(cols)

    scanned = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(cumulate, batch_format="pyarrow")
    )
    if segment_us is None:
        return scanned

    import ray

    all_rows = scanned.materialize()
    scanned = all_rows.filter(expr="is_sum == 0")
    # segment totals: the summary rows cumulate emitted -- exactly one
    # per (key, segment) per bucket; O(#(key, segment)) rows from here on
    totals = all_rows.filter(expr="is_sum == 1").map_batches(
        lambda b: pa.table(
            {
                "user_id": b["user_id"],
                "seg": b["seg"],
                "tn": b["running_cnt"],
                "tv": b["running_cents"],
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def offsets(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        sg = group["seg"].to_numpy(zero_copy_only=False)
        tn = group["tn"].to_numpy(zero_copy_only=False)
        tv = group["tv"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sg, u))
        u, sg, tn, tv = u[order], sg[order], tn[order], tv[order]
        brk = np.empty(len(u), bool)
        brk[:1] = True
        if len(u) > 1:
            brk[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(brk)
        cum_n = np.cumsum(tn)
        cum_v = np.cumsum(tv)
        base_n = np.concatenate(([0], cum_n))[starts]
        base_v = np.concatenate(([0], cum_v))[starts]
        segix = np.repeat(np.arange(len(starts)), np.diff(
            np.append(starts, len(u))))
        # exclusive prefix: total of all EARLIER segments of this key
        off_n = np.concatenate(([0], cum_n))[np.arange(len(u))] - base_n[segix]
        off_v = np.concatenate(([0], cum_v))[np.arange(len(u))] - base_v[segix]
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "seg": pa.array(sg, pa.int64()),
                "off_n": pa.array(off_n, pa.int64()),
                "off_v": pa.array(off_v, pa.int64()),
            }
        )

    def tprep(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket2",
            bucket_codes(pc.cast(b["user_id"], pa.string()), num_buckets),
        )

    offs = (
        totals.map_batches(tprep, batch_format="pyarrow")
        .groupby("bucket2")
        .map_groups(offsets, batch_format="pyarrow")
    ).materialize()

    out_cols = ["event_id", "user_id", "ts_us", "running_cnt",
                "running_cents"]
    if offs.size_bytes() <= carry_broadcast_budget:
        tabs = [t for t in ray.get(offs.to_arrow_refs()) if t.num_rows]
        tab = (pa.concat_tables(tabs, promote_options="default")
               if tabs else pa.table({"user_id": [], "seg": [],
                                      "off_n": [], "off_v": []}))
        ou = tab["user_id"].to_numpy(zero_copy_only=False)
        osg = tab["seg"].to_numpy(zero_copy_only=False)
        on = tab["off_n"].to_numpy(zero_copy_only=False)
        ov = tab["off_v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((osg, ou))
        pair_dt = np.dtype([("u", np.int64), ("s", np.int64)])
        pairs = np.empty(len(ou), pair_dt)
        pairs["u"], pairs["s"] = ou[order], osg[order]
        ref = ray.put({"p": pairs, "n": on[order], "v": ov[order]})

        def carry(b: pa.Table) -> pa.Table:
            a = ray.get(ref)
            u = b["user_id"].to_numpy(zero_copy_only=False)
            sg = b["seg"].to_numpy(zero_copy_only=False)
            # exact lexicographic binary search on the structured pair
            # key (every (user, seg) of a data row has a summary row, so
            # the hit is guaranteed)
            q = np.empty(len(u), a["p"].dtype)
            q["u"], q["s"] = u, sg
            pos = np.searchsorted(a["p"], q)
            return pa.table(
                {
                    "event_id": b["event_id"],
                    "user_id": b["user_id"],
                    "ts_us": b["ts_us"],
                    "running_cnt": pa.array(
                        b["running_cnt"].to_numpy(zero_copy_only=False)
                        + a["n"][pos], pa.int64()),
                    "running_cents": pa.array(
                        b["running_cents"].to_numpy(zero_copy_only=False)
                        + a["v"][pos], pa.int64()),
                }
            )

        return scanned.map_batches(carry, batch_format="pyarrow")

    from .dedup import normalize_join_blocks

    nparts = max(2, min(32, num_buckets // 4))
    joined = normalize_join_blocks(scanned, nparts).join(
        normalize_join_blocks(
            offs.map_batches(
                lambda b: pa.table(
                    {"_ju": b["user_id"], "_js": b["seg"],
                     "off_n": b["off_n"], "off_v": b["off_v"]}
                ),
                batch_format="pyarrow",
            ),
            nparts,
        ),
        join_type="inner", num_partitions=nparts,
        on=("user_id", "seg"), right_on=("_ju", "_js"),
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "ts_us": b["ts_us"],
                "running_cnt": pc.add(b["running_cnt"], b["off_n"]),
                "running_cents": pc.add(b["running_cents"], b["off_v"]),
            }
        ),
        batch_format="pyarrow",
    )


def pivot_counts(
    ds,
    key_col: str,
    cat_col: str,
    categories: list,
):
    """Pivot / wide aggregation: one row per key with an int64 count
    column per category (SQL's ``SUM(CASE WHEN cat = c THEN 1 END)``
    conditional-aggregation shape).  ``categories`` is the fixed, known
    output schema -- the pivot contract; unseen categories are dropped.

    Combiner-first: each batch collapses to its local (key, cat) counts
    (an Arrow group_by -- shuffle volume O(distinct keys x |categories|)
    per batch, never O(rows)), ONE groupby(key) merges partials, and the
    widening is a vectorized per-group searchsorted scatter."""

    cats = list(categories)
    cat_idx = {c: j for j, c in enumerate(cats)}

    def partial(b: pa.Table) -> pa.Table:
        t = (
            pa.table({"k": b[key_col], "c": b[cat_col]})
            .group_by(["k", "c"], use_threads=False)
            .aggregate([("c", "count")])
            .rename_columns(["k", "c", "cnt"])
        )
        keep = pc.is_in(t["c"], value_set=pa.array(cats))
        t = t.filter(pc.fill_null(keep, False))
        return pa.table(
            {"k": t["k"], "c": t["c"], "cnt": pc.cast(t["cnt"], pa.int64())}
        )

    ktype = ds.schema().types[ds.schema().names.index(key_col)]

    def widen(group: pa.Table) -> pa.Table:
        ks = group["k"].to_numpy(zero_copy_only=False)
        cs = group["c"].to_pylist()
        cn = group["cnt"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(ks, return_inverse=True)
        out = np.zeros((len(uk), len(cats)), np.int64)
        cidx = np.fromiter((cat_idx[c] for c in cs), np.int64, count=len(cs))
        np.add.at(out, (inv, cidx), cn)
        cols = {key_col: pa.array(uk.tolist(), ktype)}
        for j, c in enumerate(cats):
            cols[str(c)] = pa.array(out[:, j], pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(widen, batch_format="pyarrow")
    )


def unpivot(
    ds,
    key_cols: list,
    value_cols: list,
    *,
    var_col: str = "variable",
    val_col: str = "value",
):
    """Unpivot / melt -- the inverse of :func:`pivot_counts`: each input
    row becomes ``len(value_cols)`` rows of (keys..., variable, value).
    Stateless vectorized flat-map (one take + column concat per batch, no
    Python rows, no shuffle); value columns must share one Arrow type.
    """
    vcols = list(value_cols)

    def melt(b: pa.Table) -> pa.Table:
        n = len(b)
        idx = pa.array(np.tile(np.arange(n), len(vcols)), pa.int64())
        cols = {k: pc.take(b[k], idx) for k in key_cols}
        cols[var_col] = pa.array(
            np.repeat(np.asarray(vcols, object), n).tolist(), pa.string()
        )
        vals = [
            b[c].combine_chunks()
            if isinstance(b[c], pa.ChunkedArray) else b[c]
            for c in vcols
        ]
        cols[val_col] = pa.concat_arrays(
            [v if isinstance(v, pa.Array) else v.combine_chunks() for v in vals]
        )
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def funnel(
    ds,
    steps: list,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_buckets: int | None = None,
):
    """Ordered-sequence (funnel) analysis: for every user, the earliest
    chain ``steps[0] -> steps[1] -> ...`` where each step's event occurs
    at-or-after the previous step's matched event.  Emits one row per
    user: ``(user, steps_completed, t1..tK)`` with the matched timestamps
    (µs, null from the first missed step on).

    One shuffle (hash(user) % B); inside each bucket, one pass PER STEP,
    each fully vectorized: rows of the step's type sorted by (user, ts),
    a per-row validity mask ``ts >= prev_step_ts[user]``, and
    ``np.minimum.reduceat`` over user segments picks each user's first
    valid event -- no Python per user or per event.

    Partitioning assumption (custom-operator rule): one user's events fit
    one task, as in sessionize/running_totals."""
    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16
    step_list = list(steps)

    def prep(b: pa.Table) -> pa.Table:
        # step name -> dense int code up front: every bucket-side compare
        # is then pure int numpy (no per-row string work downstream)
        code = pc.index_in(b[type_col], value_set=pa.array(step_list))
        t = pa.table(
            {
                "u": b[user_col],
                "tus": pc.cast(b[ts_col], pa.int64()),
                "st": pc.cast(code, pa.int32()),
            }
        ).filter(pc.is_valid(code))
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def chain(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        st = group["st"].to_numpy(zero_copy_only=False)
        users, _ucnt = np.unique(u, return_counts=True)
        if len(u) > KEY_CAP_ROWS:
            for i in np.flatnonzero(_ucnt > KEY_CAP_ROWS):
                logger.warning(
                    "funnel: key %r has %d rows in one task (guard %d); "
                    "pre-split the key by time range before this op",
                    users[i], int(_ucnt[i]), KEY_CAP_ROWS,
                )
        # chain start: the first step may match anywhere in time
        prev = np.full(len(users), np.iinfo(np.int64).min, np.int64)
        prev_valid = np.ones(len(users), bool)
        out_ts = []
        for s in range(len(step_list)):
            m = st == s
            su = u[m]
            stus = tus[m]
            order = np.lexsort((stus, su))
            su, stus = su[order], stus[order]
            # users is sorted (np.unique), so the id -> dense index map is
            # one searchsorted, not a Python dict lookup per row
            srow_user = np.searchsorted(users, su)
            valid = prev_valid[srow_user] & (stus >= prev[srow_user])
            masked = np.where(valid, stus, np.iinfo(np.int64).max)
            cur = np.full(len(users), np.iinfo(np.int64).max, np.int64)
            if len(su):
                brk = np.empty(len(su), bool)
                brk[:1] = True
                brk[1:] = su[1:] != su[:-1]
                starts = np.flatnonzero(brk)
                mins = np.minimum.reduceat(masked, starts)
                cur[srow_user[starts]] = mins
            got = cur != np.iinfo(np.int64).max
            prev = cur
            prev_valid = got
            out_ts.append((cur, got))
        done = np.zeros(len(users), np.int64)
        cols = {user_col: pa.array(users, pa.int64())}
        for j, (ts_arr, got) in enumerate(out_ts):
            # got is monotone: matching step j requires step j-1 matched
            done += got.astype(np.int64)
            cols[f"t{j + 1}"] = pa.array(
                [int(v) if h else None for v, h in zip(ts_arr, got)],
                pa.int64(),
            )
        cols["steps_completed"] = pa.array(done, pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(chain, batch_format="pyarrow")
    )


_I64_MIN = np.int64(np.iinfo(np.int64).min)


def drop_late_events(
    ds,
    *,
    ts_col: str = "tsu",
    seq_col: str = "event_id",
    delay_us: int = 7_200_000_000,
    num_buckets: int = 64,
):
    """Streaming-ingest watermark semantics replayed over a static table:
    process rows in ``seq_col`` (arrival) order, maintain watermark =
    max(event time seen so far) - ``delay_us``, and DROP every row whose
    event time is already behind the watermark when it arrives -- the
    allowed-lateness rule of streaming engines (public: the Dataflow
    model, Akidau et al., VLDB 2015), which the reference approximates
    with its from/until harvest windows (oaiclient.rb:29-30).

    ``ts_col`` must be int64 (epoch micros); ``seq_col`` must be unique.
    The first row in arrival order is never late (watermark starts at
    -inf).

    Scale shape -- a distributed prefix MAX, the scan analog of
    pack_streaming's prefix sum: one column-pruned pass computes the seq
    range; per-batch partials reduce to (range_bucket, max_ts) -- O(B)
    driver state, never the rows; the driver forms per-bucket EXCLUSIVE
    prefix maxima; ONE range-bucket shuffle co-locates each bucket,
    where a vectorized in-bucket running max (np.maximum.accumulate,
    shifted one row, seeded with the bucket's prefix) applies the rule.
    Event payloads cross exactly one exchange."""
    import ray
    from ray.data.aggregate import Max, Min

    from .dedup import grouped_apply

    rng = ds.select_columns([seq_col]).aggregate(
        Min(seq_col, alias_name="lo"), Max(seq_col, alias_name="hi")
    )
    lo, hi = int(rng["lo"]), int(rng["hi"])
    span = max(1, hi - lo + 1)
    nb = min(num_buckets, span)

    def bucket_of(seq: np.ndarray) -> np.ndarray:
        return ((seq.astype(np.int64) - lo) * nb // span).astype(np.int32)

    def partial(b: pa.Table) -> pa.Table:
        seq = b[seq_col].to_numpy(zero_copy_only=False)
        ts = b[ts_col].to_numpy(zero_copy_only=False)
        bk = bucket_of(seq)
        order = np.argsort(bk, kind="stable")
        bs, ts_s = bk[order], ts[order]
        change = np.nonzero(bs[1:] != bs[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(bs)]])
        return pa.table(
            {
                "bucket": pa.array(bs[starts], pa.int32()),
                "mx": pa.array(
                    [int(ts_s[s:e].max()) for s, e in zip(starts, ends)],
                    pa.int64(),
                ),
            }
        )

    agg = np.full(nb, _I64_MIN, np.int64)
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        i = int(r["bucket"])
        if r["mx"] > agg[i]:
            agg[i] = r["mx"]
    # exclusive prefix max per bucket (watermark carried in from earlier
    # arrival ranges)
    prefix = np.full(nb, _I64_MIN, np.int64)
    run = _I64_MIN
    for i in range(nb):
        prefix[i] = run
        if agg[i] > run:
            run = agg[i]
    prefix_ref = ray.put(prefix)

    def tag(b: pa.Table) -> pa.Table:
        seq = b[seq_col].to_numpy(zero_copy_only=False)
        return b.append_column(
            "_wb", pa.array(bucket_of(seq), pa.int32())
        )

    def apply_rule(group: pa.Table) -> pa.Table:
        pfx = ray.get(prefix_ref)
        t = group.sort_by([(seq_col, "ascending")])
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        seed = pfx[int(t["_wb"][0].as_py())]
        prior = np.empty(len(ts), np.int64)
        prior[0] = seed
        if len(ts) > 1:
            np.maximum.accumulate(ts[:-1], out=prior[1:])
            np.maximum(prior[1:], seed, out=prior[1:])
        keep = (prior == _I64_MIN) | (ts >= prior - np.int64(delay_us))
        return t.filter(pa.array(keep)).drop_columns(["_wb"])

    out_schema = ds.schema()
    out_schema = pa.schema(
        list(zip(out_schema.names, out_schema.types))
    )
    return grouped_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "_wb",
        apply_rule,
        out_schema,
        min_group=1,
    )


def offset_limit(
    ds,
    *,
    sort_key,
    descending=False,
    offset: int = 0,
    limit: int | None = None,
):
    """Deterministic LIMIT/OFFSET paging over a total order -- the
    reference's result-page slicing (SURVEY.md §2.7 O2: its SPARQL
    SELECTs page with LIMIT/OFFSET), previously design-mapped to block
    iteration, now a real operator.

    ``sort_key`` / ``descending`` define the total order (pass a
    tie-breaking key -- paging without a total order is nondeterministic
    in ANY engine); the page is cut with ``split_at_indices``, which
    respects the sorted order and prunes whole blocks outside the
    window, so a deep page never pulls earlier pages to the driver.

    Scale note: a distributed sort for one page is the honest cost of
    arbitrary OFFSET; for sequential paging prefer keyset pagination
    (WHERE key > last_seen ORDER BY key LIMIT n), which composes from
    filter + this operator with offset=0."""
    out = ds.sort(key=sort_key, descending=descending)
    if limit is None:
        return out.split_at_indices([offset])[1] if offset else out
    parts = out.split_at_indices([offset, offset + limit])
    return parts[1]


def coalesce_intervals(
    ds,
    *,
    key_col: str = "user_id",
    start_col: str = "start_us",
    end_col: str = "end_us",
    num_buckets: int | None = None,
):
    """Merge overlapping/touching intervals per key (gaps-and-islands):
    one output row per maximal run of intervals where each starts at or
    before the running max end of its predecessors --
    ``(key, island_start, island_end, n_rows)``.

    The reference's incremental windows overlap on purpose (scheduler.rb
    re-harvests a safety margin around each window); collapsing a key's
    overlapping validity windows into covered spans is this exact
    operator.  ONE hash-bucket shuffle (hash(key) % B), then per bucket a
    sort + grouped cummax + segment-boundary mask, all columnar (the
    grouped running max uses polars' cum_max().over(key) Rust kernel --
    numpy cannot reset an accumulate at group boundaries in one pass).

    Island membership is order-independent (an interval joins an island
    iff start <= max end so far), so results are deterministic and the
    SQL oracle (MAX() OVER ... 1 PRECEDING window) replays them exactly.
    Same one-key-fits-one-task assumption as sessionize (hot keys warn
    via _warn_hot_keys).
    """
    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                16, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:  # pragma: no cover
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table({
            "k": pc.cast(b[key_col], pa.int64()),
            "s": pc.cast(b[start_col], pa.int64()),
            "e": pc.cast(b[end_col], pa.int64()),
        })
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["k"], pa.string()), num_buckets)
        )

    def islands(group: pa.Table) -> pa.Table:
        import polars as pl

        if not len(group):
            return pa.table({
                key_col: pa.array([], pa.int64()),
                "island_start": pa.array([], pa.int64()),
                "island_end": pa.array([], pa.int64()),
                "n_rows": pa.array([], pa.int64()),
            })
        df = (
            pl.from_arrow(group.select(["k", "s", "e"]))
            .sort(["k", "s", "e"])
        )
        _warn_hot_keys(
            "coalesce_intervals", df["k"].to_numpy()
        )
        pm = df.select(
            pl.col("e").cum_max().shift(1).over("k")
            .fill_null(np.iinfo(np.int64).min).alias("pm")
        )["pm"].to_numpy().astype(np.int64, copy=False)
        k = df["k"].to_numpy()
        s = df["s"].to_numpy()
        e = df["e"].to_numpy()
        newkey = np.concatenate([[True], k[1:] != k[:-1]])
        brk = newkey | (s > pm)
        island = np.cumsum(brk) - 1
        n_isl = int(island[-1]) + 1
        # sorted by (k, s, e) within each island, so its start row's s is
        # the island start; the end needs the max over members
        out_end = np.full(n_isl, np.iinfo(np.int64).min)
        np.maximum.at(out_end, island, e)
        first = np.flatnonzero(brk)
        counts = np.bincount(island, minlength=n_isl).astype(np.int64)
        return pa.table({
            key_col: pa.array(k[first], pa.int64()),
            "island_start": pa.array(s[first], pa.int64()),
            "island_end": pa.array(out_end, pa.int64()),
            "n_rows": pa.array(counts, pa.int64()),
        })

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(islands, batch_format="pyarrow")
    )


def interarrival_stats(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_buckets: int | None = None,
):
    """Per-key inter-arrival gap statistics -- SQL's ``ts -
    LAG(ts) OVER (PARTITION BY key ORDER BY ts, id)`` folded into per-key
    (count, min, max, sum) -- as one distributed operator: one slim
    shuffle of (id, key, ts_us) -- values/props never move -- then a
    single lexsort + diff + segmented ``reduceat`` pass per bucket.
    Keys with fewer than two events emit nothing (no gap exists).

    All arithmetic is int64 microseconds, so the DuckDB oracle
    (``epoch_us`` + ``LAG``) replays bit-for-bit.

    Partitioning assumption (custom-operator rule, as sessionize /
    running_totals): one key's rows fit one bucket task; keys are users,
    so per-key row counts are human-bounded.  `_warn_hot_keys` surfaces
    pathological skew as a log line, never an OOM surprise.
    """
    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            # normalize any source unit (s/ms/us/ns) to microseconds
            ts = pc.cast(ts, pa.timestamp("us"))
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": pc.cast(b[user_col], pa.int64()),
                "tus": pc.cast(ts, pa.int64()),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def gaps(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, tus, u))
        u, tus = u[order], tus[order]
        _warn_hot_keys("interarrival_stats", u)
        if len(u) < 2:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_gaps": pa.array([], pa.int64()),
                    "min_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                    "sum_gap_us": pa.array([], pa.int64()),
                }
            )
        # rows 1..n-1 carry a gap iff they share a key with the previous row
        gap = tus[1:] - tus[:-1]
        valid = u[1:] == u[:-1]
        g = gap[valid]
        gu = u[1:][valid]
        if len(g) == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_gaps": pa.array([], pa.int64()),
                    "min_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                    "sum_gap_us": pa.array([], pa.int64()),
                }
            )
        # gu is non-decreasing (input sorted by key first)
        brk = np.empty(len(gu), bool)
        brk[:1] = True
        brk[1:] = gu[1:] != gu[:-1]
        starts = np.flatnonzero(brk)
        return pa.table(
            {
                user_col: pa.array(gu[starts], pa.int64()),
                "n_gaps": pa.array(
                    np.diff(np.append(starts, len(gu))), pa.int64()
                ),
                "min_gap_us": pa.array(
                    np.minimum.reduceat(g, starts), pa.int64()
                ),
                "max_gap_us": pa.array(
                    np.maximum.reduceat(g, starts), pa.int64()
                ),
                "sum_gap_us": pa.array(np.add.reduceat(g, starts), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(gaps, batch_format="pyarrow")
    )


def transition_counts(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    num_buckets: int | None = None,
):
    """Markov transition-matrix counts -- how often ``prev_type`` is
    immediately followed by ``next_type`` within one key's timeline --
    i.e. SQL's ``LAG(type) OVER (PARTITION BY key ORDER BY ts, id)``
    folded into a global ``GROUP BY prev, next``.

    Scale shape: ONE slim shuffle of (id, key, ts_us, type) hash-bucketed
    by key -- no payload columns move -- then a vectorized lexsort +
    shifted-equality pass per bucket that emits per-bucket PARTIAL
    (prev, next, n) counts, finished by a tiny groupby-sum whose row
    count is bounded by (#types)^2, not the event count.

    Partitioning assumption (custom-operator rule, as sessionize /
    interarrival_stats): one key's rows fit one bucket task; keys are
    users, so per-key counts are human-bounded.  `_warn_hot_keys`
    surfaces pathological skew as a log line.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": pc.cast(b[key_col], pa.int64()),
                "tus": pc.cast(ts, pa.int64()),
                "ty": pc.cast(b[type_col], pa.string()),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    empty = pa.table(
        {
            "prev_type": pa.array([], pa.string()),
            "next_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def pairs(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n < 2:
            return empty
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        # factorize the type strings ONCE per task; pairs combine codes
        dictarr = pc.dictionary_encode(group["ty"].combine_chunks())
        codes = dictarr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques = np.asarray(dictarr.dictionary.to_pylist(), dtype=object)
        order = np.lexsort((ids, tus, u))
        u, codes = u[order], codes[order]
        _warn_hot_keys("transition_counts", u)
        valid = u[1:] == u[:-1]
        prev_c = codes[:-1][valid]
        next_c = codes[1:][valid]
        if len(prev_c) == 0:
            return empty
        k = len(uniques)
        combo = prev_c * k + next_c
        vals, cnts = np.unique(combo, return_counts=True)
        return pa.table(
            {
                "prev_type": pa.array(uniques[vals // k], pa.string()),
                "next_type": pa.array(uniques[vals % k], pa.string()),
                "n": pa.array(cnts.astype(np.int64), pa.int64()),
            }
        )

    partial = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
    )
    return (
        partial.groupby(["prev_type", "next_type"])
        .aggregate(Sum("n", alias_name="n_transitions"))
    )


def validity_intervals(
    ds,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    num_buckets: int | None = None,
):
    """SCD-type-2 validity intervals: per key, order rows by (ts, id),
    COLLAPSE consecutive runs of an identical value (keep the run's first
    row), and stamp each surviving row with ``valid_from_us`` = its own
    timestamp and ``valid_to_us`` = the NEXT surviving row's timestamp
    (null for the key's current value) -- SQL's LAG-change-filter +
    LEAD composition, the standard CDC-to-dimension-table build.

    Scale shape: ONE slim shuffle of (id, key, ts_us, value) bucketed by
    key; each bucket task does a lexsort + two shifted compares -- no
    iteration, no driver state.  Same one-key-one-task assumption as the
    sibling window ops, `_warn_hot_keys`-guarded.
    """
    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": pc.cast(b[key_col], pa.int64()),
                "tus": pc.cast(ts, pa.int64()),
                "v": pc.cast(b[value_col], pa.string()),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def intervals(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        v = np.asarray(group["v"].to_pylist(), dtype=object)
        order = np.lexsort((ids, tus, u))
        u, tus, v = u[order], tus[order], v[order]
        _warn_hot_keys("validity_intervals", u)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    value_col: pa.array([], pa.string()),
                    "valid_from_us": pa.array([], pa.int64()),
                    "valid_to_us": pa.array([], pa.int64()),
                }
            )
        keep = np.empty(n, bool)
        keep[:1] = True
        keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        ku, ktus, kv = u[keep], tus[keep], v[keep]
        m = len(ku)
        to = np.full(m, -1, np.int64)
        same_next = np.zeros(m, bool)
        if m > 1:
            same_next[:-1] = ku[1:] == ku[:-1]
            to[:-1][same_next[:-1]] = ktus[1:][same_next[:-1]]
        return pa.table(
            {
                key_col: pa.array(ku, pa.int64()),
                value_col: pa.array(kv, pa.string()),
                "valid_from_us": pa.array(ktus, pa.int64()),
                "valid_to_us": pa.array(
                    np.where(same_next, to, None).tolist(), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(intervals, batch_format="pyarrow")
    )


def path_trigram_counts(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    num_buckets: int | None = None,
):
    """Sequential-pattern mining one notch past the Markov matrix: counts
    of every LENGTH-3 consecutive type path within one key's timeline --
    SQL's double-LAG composition folded into a global
    ``GROUP BY (t0, t1, t2)``.

    Scale shape identical to ``transition_counts`` (one slim bucketed
    shuffle, vectorized lexsort + shifted-equality per bucket, per-bucket
    partial counts, tiny (#types)^3-bounded groupby-sum finish); the
    path codes combine in a single base-k integer so the per-bucket
    ``np.unique`` never touches strings.  Same one-key-one-task
    assumption, `_warn_hot_keys`-guarded.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import bucket_codes

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": pc.cast(b[key_col], pa.int64()),
                "tus": pc.cast(ts, pa.int64()),
                "ty": pc.cast(b[type_col], pa.string()),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    empty = pa.table(
        {
            "t0": pa.array([], pa.string()),
            "t1": pa.array([], pa.string()),
            "t2": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def triples(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n < 3:
            return empty
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        dictarr = pc.dictionary_encode(group["ty"].combine_chunks())
        codes = dictarr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques = np.asarray(dictarr.dictionary.to_pylist(), dtype=object)
        order = np.lexsort((ids, tus, u))
        u, codes = u[order], codes[order]
        _warn_hot_keys("path_trigram_counts", u)
        valid = (u[2:] == u[:-2]) & (u[1:-1] == u[:-2])
        if not valid.any():
            return empty
        k = len(uniques)
        combo = (codes[:-2][valid] * k + codes[1:-1][valid]) * k \
            + codes[2:][valid]
        vals, cnts = np.unique(combo, return_counts=True)
        return pa.table(
            {
                "t0": pa.array(uniques[vals // (k * k)], pa.string()),
                "t1": pa.array(uniques[(vals // k) % k], pa.string()),
                "t2": pa.array(uniques[vals % k], pa.string()),
                "n": pa.array(cnts.astype(np.int64), pa.int64()),
            }
        )

    partial = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(triples, batch_format="pyarrow")
    )
    return partial.groupby(["t0", "t1", "t2"]).aggregate(
        Sum("n", alias_name="n_paths")
    )


def max_concurrency(
    intervals_ds,
    *,
    start_col: str,
    end_col: str,
    num_buckets: int = 64,
):
    """Sweep-line maximum concurrency over CLOSED intervals: the largest
    number of intervals simultaneously open, plus the earliest timestamp
    where that peak is first reached -- "peak concurrent sessions", the
    classic capacity question.  An interval ending exactly when another
    starts counts as overlapping (+1 deltas process before -1 at equal
    timestamps), matching the oracle's ``ORDER BY t, d DESC`` sweep.

    Scale shape -- a distributed prefix SUM over (t, ±1) delta rows (the
    ``drop_late_events`` machinery with max swapped for sum): intervals
    flatten to two slim delta rows each; pass 1 reduces per-batch
    per-range-bucket delta totals to O(B) driver state whose exclusive
    prefix seeds each bucket; pass 2 is ONE range shuffle with a
    vectorized in-bucket (sort + cumsum) sweep emitting a single
    (bucket max, first t) partial; the driver folds B partials.  Only
    delta rows ever shuffle, never interval payloads.
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    def deltas(b: pa.Table) -> pa.Table:
        s = pc.cast(b[start_col], pa.int64()).to_numpy(zero_copy_only=False)
        e = pc.cast(b[end_col], pa.int64()).to_numpy(zero_copy_only=False)
        n = len(b)
        return pa.table(
            {
                "t": pa.array(np.concatenate([s, e]), pa.int64()),
                "d": pa.array(
                    np.concatenate(
                        [np.ones(n, np.int64), -np.ones(n, np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    dts = intervals_ds.map_batches(
        deltas, batch_format="pyarrow"
    ).materialize()
    if dts.count() == 0:
        return rd.from_arrow(pa.table(
            {"max_concurrent": pa.array([0], pa.int64()),
             "first_at_us": pa.array([None], pa.int64())}
        ))
    rng = dts.aggregate(Min("t", alias_name="lo"), Max("t", alias_name="hi"))
    lo, hi = int(rng["lo"]), int(rng["hi"])
    span = max(1, hi - lo + 1)
    nb = min(num_buckets, span)

    def bucket_of(t: np.ndarray) -> np.ndarray:
        return ((t.astype(np.int64) - lo) * nb // span).astype(np.int32)

    def partial(b: pa.Table) -> pa.Table:
        t = b["t"].to_numpy(zero_copy_only=False)
        d = b["d"].to_numpy(zero_copy_only=False)
        bk = bucket_of(t)
        bins = np.bincount(bk, weights=d.astype(np.float64), minlength=nb)
        nz = np.flatnonzero(bins)
        return pa.table(
            {
                "bucket": pa.array(nz.astype(np.int32), pa.int32()),
                "s": pa.array(bins[nz].astype(np.int64), pa.int64()),
            }
        )

    totals = np.zeros(nb, np.int64)
    for r in dts.map_batches(partial, batch_format="pyarrow").take_all():
        totals[int(r["bucket"])] += int(r["s"])
    seeds = np.concatenate(([0], np.cumsum(totals)))[:-1]
    seeds_ref = ray.put(seeds)

    def tag(b: pa.Table) -> pa.Table:
        t = b["t"].to_numpy(zero_copy_only=False)
        return b.append_column("bucket", pa.array(bucket_of(t), pa.int32()))

    def sweep(g: pa.Table) -> pa.Table:
        t = g["t"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-d, t))
        t, d = t[order], d[order]
        run = np.cumsum(d) + ray.get(seeds_ref)[int(g["bucket"][0].as_py())]
        mx = int(run.max())
        first = int(t[int(np.argmax(run == mx))])
        return pa.table(
            {"mx": pa.array([mx], pa.int64()),
             "at": pa.array([first], pa.int64())}
        )

    parts = (
        dts.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sweep, batch_format="pyarrow")
        .take_all()
    )
    mx = max(int(r["mx"]) for r in parts)
    at = min(int(r["at"]) for r in parts if int(r["mx"]) == mx)
    return rd.from_arrow(pa.table(
        {"max_concurrent": pa.array([mx], pa.int64()),
         "first_at_us": pa.array([at], pa.int64())}
    ))


def trailing_weighted_sum(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    weights: tuple = (8, 4, 2, 1),
    num_buckets: int | None = None,
):
    """Per-key trailing WEIGHTED window sum -- the bounded-window EWMA
    shape ``y_i = w0*x_i + w1*x_{i-1} + ... + w_{W-1}*x_{i-W+1}`` with
    integer weights (dyadic 8/4/2/1 by default, the alpha=1/2
    exponential-decay profile) over value cents; lags that cross a key
    boundary or run off the front contribute 0, exactly like
    ``COALESCE(LAG(v, j) OVER (PARTITION BY key ORDER BY ts, id), 0)``.

    All-integer (cents x integer weights), so the result is bit-exact
    against the unrolled-LAG SQL oracle.  Same scale shape as
    running_totals: ONE hash(key) shuffle, then a single lexsort +
    boundary-masked shifted adds per bucket -- no Python per event, and
    the per-key-fits-one-task partitioning assumption (keys are users).

    Emits (id, key, ts_us, wsum_cents).
    """
    from ..functions.hashing import bucket_codes
    from ..functions.numeric import sql_round_i64

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                16, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:  # pragma: no cover
            num_buckets = 16

    weights = tuple(int(w) for w in weights)
    if not weights:
        raise ValueError("trailing_weighted_sum: weights must be non-empty")

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": b[user_col],
                "tus": pc.cast(
                    pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
                ),
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def weighted(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        vc = group["vc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, tus, u))
        u, tus, ids, vc = u[order], tus[order], ids[order], vc[order]
        _warn_hot_keys("trailing_weighted_sum", u)
        n = len(u)
        out = np.zeros(n, np.int64)
        # adj[i]: u[i] == u[i-1]; rows are key-sorted, so u[i] == u[i-j]
        # iff every adjacent pair in between is equal -- samej chains
        # samej[i] = samej_{j-1}[i] & adj[i-(j-1)]
        adj = np.zeros(n, bool)
        if n > 1:
            adj[1:] = u[1:] == u[:-1]
        samej = None
        for j, w in enumerate(weights):
            if j == 0:
                out += w * vc
                continue
            if j >= n:
                break
            if j == 1:
                samej = adj.copy()
            else:
                shifted = np.zeros(n, bool)
                shifted[j - 1:] = adj[: n - (j - 1)]
                samej = samej & shifted
            # lag-j value, masked where the lag crosses a key boundary
            lag = np.zeros(n, np.int64)
            lag[j:] = np.where(samej[j:], vc[: n - j], 0)
            out += w * lag
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "user_id": pa.array(u),
                "ts_us": pa.array(tus, pa.int64()),
                "wsum_cents": pa.array(out, pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(weighted, batch_format="pyarrow")
    )


def cusum_scan(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    drift_cents: int = 7500,
    alarm_cents: int = 20000,
    num_buckets: int | None = None,
):
    """Per-key one-sided CUSUM drift scan -- the classic sequential
    changepoint statistic ``s_i = max(0, s_{i-1} + (x_i - k))`` with an
    alarm at ``s_i > h``, computed WITHOUT a sequential loop via the
    prefix identity

        s_i = c_i - min(0, min_{j<=i} c_j),   c = cumsum(x - k)

    (the running-max-drawdown trick) -- so one lexsort + a segmented
    cumsum + a segmented cumulative-min per bucket does it all
    vectorized, all on integer cents (bit-exact vs the nested-window SQL
    oracle).

    The segmented cumulative min uses per-segment band offsets
    (seg_id * BIG with BIG > the value spread) so one global
    ``np.minimum.accumulate`` respects key boundaries; the documented
    int64 bound (#segments-per-task x spread < 2^62) is checked and
    fails loud.

    Emits (id, key, ts_us, cusum_cents, alarm 0/1).
    """
    from ..functions.hashing import bucket_codes
    from ..functions.numeric import sql_round_i64

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                16, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:  # pragma: no cover
            num_buckets = 16

    k = int(drift_cents)
    h = int(alarm_cents)

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "id": pc.cast(b[id_col], pa.int64()),
                "u": b[user_col],
                "tus": pc.cast(
                    pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
                ),
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def scan(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        tus = group["tus"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        vc = group["vc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, tus, u))
        u, tus, ids, vc = u[order], tus[order], ids[order], vc[order]
        _warn_hot_keys("cusum_scan", u)
        n = len(u)
        if not n:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], group["u"].type),
                    "ts_us": pa.array([], pa.int64()),
                    "cusum_cents": pa.array([], pa.int64()),
                    "alarm": pa.array([], pa.int64()),
                }
            )
        brk = np.empty(n, bool)
        brk[:1] = True
        if n > 1:
            brk[1:] = u[1:] != u[:-1]
        seg = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        xk = vc - k
        cum = np.cumsum(xk)
        base = np.concatenate(([0], cum))[starts]
        c = cum - base[seg]  # segmented cumsum of (x - k)
        # segmented running min via band offsets
        spread = int(c.max() - c.min()) + 1 if n else 1
        nseg = int(seg[-1]) + 1
        if nseg * spread >= (1 << 62):  # pragma: no cover - absurd input
            raise ValueError(
                "cusum_scan: segment-band offset would overflow int64; "
                "split the input"
            )
        # later segments occupy strictly LOWER bands, so the accumulated
        # min resets at every segment start (any value of segment k is
        # below every value of segments < k by construction)
        banded = c - seg * spread
        runmin = np.minimum.accumulate(banded) + seg * spread
        s = c - np.minimum(runmin, 0)
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "user_id": pa.array(u),
                "ts_us": pa.array(tus, pa.int64()),
                "cusum_cents": pa.array(s, pa.int64()),
                "alarm": pa.array((s > h).astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(scan, batch_format="pyarrow")
    )


def locf_gapfill(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    tiebreak_col: str = "event_id",
    num_buckets: int | None = None,
    hour_us: int = 3_600_000_000,
):
    """Dense hourly grid per user with Last-Observation-Carried-Forward:
    one row per (user, hour) from the user's first observed hour through
    the last, carrying the most recent hourly closing value (the value
    of the max-(ts, tiebreak) event within the hour) forward across gap
    hours -- the standard densification step before training on regular
    time series.

    One shuffle (hash(user) % B); inside each bucket a single lexsort
    produces per-hour closes, and the gap expansion + forward fill are
    pure numpy index algebra (a cumulative-max over observation slots),
    no Python per row.  Output: (user_id, hour, value_cents) with hour
    in epoch hours, money on integer cents (bit-exact vs SQL).

    Skew contract: a user's grid is (last hour - first hour + 1) rows;
    a key whose span blows past the per-task guard is warned loudly
    (same policy as sessionize) -- pre-split such users by coarse time
    range upstream."""
    from ..functions.hashing import bucket_codes
    from ..functions.numeric import sql_round_i64

    if num_buckets is None:
        try:
            import ray

            num_buckets = max(
                16, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:  # pragma: no cover
            num_buckets = 16

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "u": b[user_col],
                "tus": pc.cast(
                    pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
                ),
                "eid": pc.cast(b[tiebreak_col], pa.int64()),
                "vc": sql_round_i64(b[value_col], 100.0),
            }
        )
        return t.append_column(
            "bucket", bucket_codes(pc.cast(t["u"], pa.string()), num_buckets)
        )

    def fill(group: pa.Table) -> pa.Table:
        u = np.asarray(group["u"].to_numpy(zero_copy_only=False), np.int64)
        if not len(u):
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "hour": pa.array([], pa.int64()),
                 "value_cents": pa.array([], pa.int64())}
            )
        tus = np.asarray(group["tus"].to_numpy(zero_copy_only=False),
                         np.int64)
        eid = np.asarray(group["eid"].to_numpy(zero_copy_only=False),
                         np.int64)
        vc = np.asarray(group["vc"].to_numpy(zero_copy_only=False), np.int64)
        h = tus // hour_us
        order = np.lexsort((eid, tus, h, u))
        u, h, vc = u[order], h[order], vc[order]
        _warn_hot_keys("locf_gapfill", u)
        # close of each (user, hour) run = its LAST row in sort order
        brk = np.empty(len(u), bool)
        brk[:1] = True
        brk[1:] = (u[1:] != u[:-1]) | (h[1:] != h[:-1])
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(u)) - 1
        ou, oh, ov = u[starts], h[starts], vc[ends]
        # per-user grid bounds over the hourly closes
        ubrk = np.empty(len(ou), bool)
        ubrk[:1] = True
        ubrk[1:] = ou[1:] != ou[:-1]
        ustarts = np.flatnonzero(ubrk)
        uends = np.append(ustarts[1:], len(ou)) - 1
        lo, hi = oh[ustarts], oh[uends]
        lengths = (hi - lo + 1).astype(np.int64)
        _warn_hot_keys(
            "locf_gapfill(grid)",
            np.repeat(ou[ustarts], np.minimum(lengths, KEY_CAP_ROWS + 1)),
        )
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        total = int(lengths.sum())
        pos = np.arange(total, dtype=np.int64)
        lo_rep = np.repeat(lo, lengths)
        off_rep = np.repeat(offsets, lengths)
        hour_out = pos - off_rep + lo_rep
        user_out = np.repeat(ou[ustarts], lengths)
        # observation slots: obs k of user i lands at offset_i + (h - lo_i)
        uidx = np.repeat(np.arange(len(ustarts)), uends - ustarts + 1)
        slot = offsets[uidx] + (oh - lo[uidx])
        slotval = np.zeros(total, np.int64)
        slotval[slot] = ov
        valid = np.full(total, -1, np.int64)
        valid[slot] = slot
        fillpos = np.maximum.accumulate(valid)
        # every user's first grid hour IS an observation, so fillpos never
        # crosses a user boundary backwards
        return pa.table(
            {
                "user_id": pa.array(user_out, pa.int64()),
                "hour": pa.array(hour_out, pa.int64()),
                "value_cents": pa.array(slotval[fillpos], pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fill, batch_format="pyarrow")
    )


def decayed_group_score(
    ds,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    half_life_us: int = 3_600_000_000,
    cents_factor: float = 1000.0,
):
    """Exponentially time-decayed per-key feature score at the corpus's
    own horizon (max ts): score(k) = SUM over k's events of
    value_units >> min(age // half_life_us, 62) -- the feature-store
    "recency-weighted activity" aggregate with half-life decay, kept
    EXACT by decaying in whole half-life steps with an arithmetic shift
    (values are validated non-negative, so >> is floor division and the
    DuckDB oracle's ``v >> k`` replays it bit-for-bit; a float e^-dt
    decay would not be replayable across engines).

    Scale shape: one Max aggregate fixes the horizon (O(1) driver
    state); the scoring pass emits per-batch per-key partial sums
    (np.add.at on factorized keys) so the exchange carries at most
    #keys rows per batch; one groupby-sum finishes.
    """
    import ray  # noqa: F401 (documents the Dataset contract)
    from ray.data.aggregate import Max, Sum

    from ..functions.numeric import sql_round_i64

    horizon = (
        ds.aggregate(Max(ts_col))[f"max({ts_col})"]
    )
    h_us = np.int64(pa.scalar(horizon, pa.timestamp("us")).cast(
        pa.int64()).as_py())

    def partial(b: pa.Table) -> pa.Table:
        v = sql_round_i64(b[value_col], cents_factor).to_numpy(
            zero_copy_only=False
        )
        if len(v) and v.min() < 0:
            raise ValueError(
                "decayed_group_score requires non-negative values "
                "(shift decay is floor division only for v >= 0)"
            )
        ts = pc.cast(
            pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        k = np.minimum((h_us - ts) // np.int64(half_life_us), 62)
        contrib = v >> k
        keys, inv = np.unique(
            b[key_col].to_numpy(zero_copy_only=False), return_inverse=True
        )
        sums = np.zeros(len(keys), np.int64)
        np.add.at(sums, inv, contrib)
        return pa.table(
            {
                key_col: pa.array(keys, b[key_col].type),
                "decayed_units": pa.array(sums, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("decayed_units", alias_name="decayed_units"))
    )


def holt_linear_per_group(
    ds,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    alpha=(2, 10),
    gamma=(1, 10),
    bucket_us: int = 3_600_000_000,
    cents_factor: float = 100.0,
):
    """Holt double exponential smoothing (level + trend) per key over
    the key's OBSERVED time buckets -- the forecasting-state recurrence

        l_t = (a_num*y_t + (a_den-a_num)*(l_{t-1} + b_{t-1})) fdiv a_den
        b_t = (g_num*(l_t - l_{t-1}) + (g_den-g_num)*b_{t-1}) fdiv g_den

    with l_1 = y_1, b_1 = 0, y_t = the bucket's mean value in integer
    cents (sum fdiv count).  All arithmetic is int64 with FLOOR
    division made SQL-replayable by the offset shift
    ``fdiv(x, d) = (x + OFF*d) // d - OFF`` (DuckDB's // truncates;
    shifting the numerator positive makes trunc == floor -- the
    robust-z trick).  The DuckDB oracle replays the recurrence with a
    recursive CTE stepping ROW_NUMBER-indexed buckets.

    Scale shape: raw rows collapse to per-(key, bucket) sum/count
    partials per batch, ONE groupby-sum builds the per-key hourly
    series, and the inherently-sequential smoothing loop runs inside
    one map_groups task per key over the already-aggregated series
    (documented one-key's-buckets-fit-one-task assumption, as
    sessionize; series length = observed buckets, not events).

    Returns (key, bucket, level_units, trend_units) per observed
    bucket.
    """
    from ray.data.aggregate import Sum

    from ..functions.numeric import sql_round_i64

    a_num, a_den = alpha
    g_num, g_den = gamma
    OFF = np.int64(1) << np.int64(20)

    def fdiv(x: np.int64, d: int) -> np.int64:
        return (x + OFF * d) // d - OFF

    def partial(b: pa.Table) -> pa.Table:
        v = sql_round_i64(b[value_col], cents_factor).to_numpy(
            zero_copy_only=False
        )
        ts = pc.cast(
            pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        h = ts // np.int64(bucket_us)
        k = b[key_col].to_numpy(zero_copy_only=False)
        o = np.lexsort((h, k))
        k, h, v = k[o], h[o], v[o]
        new = np.ones(len(k), bool)
        new[1:] = (k[1:] != k[:-1]) | (h[1:] != h[:-1])
        gid = np.cumsum(new) - 1
        n = int(gid[-1]) + 1 if len(gid) else 0
        sums = np.zeros(n, np.int64)
        cnts = np.zeros(n, np.int64)
        np.add.at(sums, gid, v)
        np.add.at(cnts, gid, 1)
        starts = np.flatnonzero(new)
        return pa.table(
            {
                key_col: pa.array(k[starts], b[key_col].type),
                "bucket": pa.array(h[starts], pa.int64()),
                "s": pa.array(sums, pa.int64()),
                "c": pa.array(cnts, pa.int64()),
            }
        )

    hourly = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "bucket"])
        .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
    )

    def smooth(g: pa.Table) -> pa.Table:
        h = g["bucket"].to_numpy(zero_copy_only=False)
        o = np.argsort(h, kind="stable")
        g = g.take(pa.array(o))
        h = g["bucket"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        y = s // np.maximum(c, 1)  # s, c >= 0: plain floor == trunc
        n = len(y)
        lvl = np.zeros(n, np.int64)
        trd = np.zeros(n, np.int64)
        if n:
            lvl[0] = y[0]
            for t in range(1, n):
                lvl[t] = fdiv(
                    a_num * y[t] + (a_den - a_num) * (lvl[t - 1]
                                                      + trd[t - 1]),
                    a_den,
                )
                trd[t] = fdiv(
                    g_num * (lvl[t] - lvl[t - 1])
                    + (g_den - g_num) * trd[t - 1],
                    g_den,
                )
        return pa.table(
            {
                key_col: g[key_col],
                "bucket": pa.array(h, pa.int64()),
                "level_units": pa.array(lvl, pa.int64()),
                "trend_units": pa.array(trd, pa.int64()),
            }
        )

    return hourly.groupby(key_col).map_groups(smooth, batch_format="pyarrow")


def cep_match_last(
    ds,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    type_col: str,
    target_type: str,
    prereq_type: str,
    blocker_type: str,
    window_us: int = 7_200_000_000,
):
    """Complex-event-pattern match (the MATCH_RECOGNIZE shape): emit
    every ``target_type`` event whose key saw a ``prereq_type`` event
    within ``window_us`` BEFORE it, with no ``blocker_type`` event
    between that latest prereq and the target -- "view then purchase
    within 2h with no error in between", the conversion-attribution
    pattern plain joins overcount (every prior view would match) and
    funnels undercount (no blocker semantics).

    Exact and SQL-replayable: "before" is the strict lexicographic
    (ts, id) predecessor order, the same frame the oracle's
    ``ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING`` window uses;
    all comparisons are int64 microseconds.

    Scale shape: one hash(key) bucket shuffle of slim (key, ts, id,
    type) rows; per bucket a lexsort + two segment-guarded prefix-max
    scans (Hillis-Steele over numpy, log2(n) vector passes -- no pandas
    conversion, no Python per row) compute each row's latest-prior
    prereq/blocker stamps; the match filter is stateless.  One key's
    rows share a task (the sessionize contract).

    Returns (key, id, gap_us) for matched targets.
    """
    from ..functions.hashing import bucket_codes

    try:
        import ray

        num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:  # pragma: no cover
        num_buckets = 16

    def slim(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                key_col: b[key_col],
                "ts_us": pc.cast(
                    pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()
                ),
                id_col: b[id_col],
                type_col: b[type_col],
            }
        )
        return t.append_column(
            "__bucket",
            bucket_codes(pc.cast(t[key_col], pa.string()), num_buckets),
        )

    _NINF = np.int64(-(1 << 62))

    def match(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            return pa.table(
                {key_col: pa.array([], g[key_col].type),
                 id_col: pa.array([], g[id_col].type),
                 "gap_us": pa.array([], pa.int64())}
            )
        ts = np.asarray(g["ts_us"].to_numpy(zero_copy_only=False), np.int64)
        # key codes: sort-stable integer ranks work for any key dtype
        keys_np = np.asarray(g[key_col].to_numpy(zero_copy_only=False))
        _, kcode = np.unique(keys_np, return_inverse=True)
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False))
        types = np.asarray(g[type_col].to_pylist(), object)
        order = np.lexsort((ids, ts, kcode))
        ts, kcode, ids, types = (ts[order], kcode[order], ids[order],
                                 types[order])
        brk = np.empty(n, bool)
        brk[:1] = True
        brk[1:] = kcode[1:] != kcode[:-1]
        # per-row index of its key segment's first row
        seg_start = np.maximum.accumulate(
            np.where(brk, np.arange(n), 0)
        )

        def last_prior(evt: str) -> np.ndarray:
            # strict-predecessor latest stamp of `evt` within the key:
            # segment-guarded inclusive prefix max (Hillis-Steele,
            # log2(n) full-vector passes), then shift(1) with a reset at
            # every segment start
            stamped = np.where(types == evt, ts, _NINF)
            cm = stamped.copy()
            d = 1
            pos = np.arange(n)
            while d < n:
                src = pos - d
                valid = src >= seg_start
                upd = np.where(valid, cm[np.maximum(src, 0)], _NINF)
                cm = np.maximum(cm, upd)
                d <<= 1
            lp = np.empty(n, np.int64)
            lp[0] = _NINF
            lp[1:] = cm[:-1]
            lp[brk] = _NINF
            return lp

        lv = last_prior(prereq_type)
        le = last_prior(blocker_type)
        is_t = types == target_type
        gap = ts - lv
        ok = (
            is_t
            & (lv != _NINF)
            & (gap <= window_us)
            & ((le == _NINF) | (le < lv))
        )
        return pa.table(
            {
                key_col: pa.array(keys_np[order][ok]),
                id_col: pa.array(ids[ok]),
                "gap_us": pa.array(gap[ok], pa.int64()),
            }
        )

    return (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(match, batch_format="pyarrow")
    )
