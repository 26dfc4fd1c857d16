"""Hot-key degradation for window ops (round-5 task #3): time-segmented
shuffle keys split a firehose key across many tasks; outputs are locked
identical to the unsegmented path, and a 10M-row single key completes
with bounded per-task group sizes."""

import numpy as np
import pyarrow as pa
import pytest


def _events(n, n_users, seed=7, t0=0):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    u = rng.integers(0, n_users, n)
    ts = np.sort(rng.integers(t0, t0 + 3_000_000_000_000, n))
    return rd.from_arrow(
        pa.table(
            {
                "event_id": pa.array(np.arange(n), pa.int64()),
                "ts": pa.array(ts[rng.permutation(n)], pa.timestamp("us")),
                "user_id": pa.array(u, pa.int64()),
                "value": pa.array(rng.normal(0, 50, n)),
            }
        )
    )


def _key(rows, cols):
    return sorted(tuple(r[c] for c in cols) for r in rows)


@pytest.mark.usefixtures("ray_session")
def test_sessionize_segmented_equals_plain():
    from marc2rdf_ray.ops.windows import sessionize

    cols = ["user_id", "session_start_us", "n_events",
            "sum_value_cents", "session_end_us"]
    a = _key(
        sessionize(_events(60000, 40), gap_us=1_800_000_000,
                   with_end=True).take_all(), cols)
    b = _key(
        sessionize(_events(60000, 40), gap_us=1_800_000_000, with_end=True,
                   segment_us=10_000_000_000).take_all(), cols)
    assert a == b and len(a) > 1000


@pytest.mark.usefixtures("ray_session")
def test_sessionize_segment_narrower_than_gap_rejected():
    from marc2rdf_ray.ops.windows import sessionize

    with pytest.raises(ValueError, match="segment_us"):
        sessionize(_events(100, 4), gap_us=1000, segment_us=999)


@pytest.mark.usefixtures("ray_session")
def test_running_totals_segmented_equals_plain():
    from marc2rdf_ray.ops.windows import running_totals

    cols = ["event_id", "user_id", "ts_us", "running_cnt", "running_cents"]
    a = _key(running_totals(_events(60000, 40)).take_all(), cols)
    b = _key(
        running_totals(_events(60000, 40),
                       segment_us=10_000_000_000).take_all(), cols)
    assert a == b and len(a) == 60000
    # negative values exercised: carry offsets must come from the last
    # running row, not a max
    assert any(r[4] < 0 for r in a)


@pytest.mark.usefixtures("ray_session")
def test_segmented_windows_across_the_epoch():
    """Pre-epoch timestamps: segments are floor-divided everywhere, so
    segments before, at and after ts=0 all scan right.  Five events of
    one user at -3s..+1s with 2 s segments: the running count at -1 s is
    3 (a truncating shuffle-key divide gave 2)."""
    import ray.data as rd

    from marc2rdf_ray.ops.windows import running_totals, sessionize

    sec = 1_000_000
    ts = [-3 * sec, -2 * sec, -1 * sec, sec // 2, sec]
    five = rd.from_arrow(
        pa.table(
            {
                "event_id": pa.array(range(5), pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([0] * 5, pa.int64()),
                "value": pa.array([1.0] * 5),
            }
        )
    )
    rows = running_totals(five, segment_us=2 * sec).take_all()
    assert sorted((r["ts_us"], r["running_cnt"]) for r in rows) == [
        (t, i + 1) for i, t in enumerate(ts)
    ]

    cols = ["event_id", "user_id", "ts_us", "running_cnt", "running_cents"]
    t0 = -1_500_000_000_000
    a = _key(running_totals(_events(20000, 20, t0=t0)).take_all(), cols)
    b = _key(
        running_totals(_events(20000, 20, t0=t0),
                       segment_us=10_000_000_000).take_all(), cols)
    assert a == b and len(a) == 20000
    assert min(r[2] for r in a) < 0 < max(r[2] for r in a)

    cols = ["user_id", "session_start_us", "n_events",
            "sum_value_cents", "session_end_us"]
    a = _key(
        sessionize(_events(20000, 20, t0=t0), gap_us=1_800_000_000,
                   with_end=True).take_all(), cols)
    b = _key(
        sessionize(_events(20000, 20, t0=t0), gap_us=1_800_000_000,
                   with_end=True, segment_us=10_000_000_000).take_all(), cols)
    assert a == b and min(r[1] for r in a) < 0 < max(r[1] for r in a)


@pytest.mark.usefixtures("ray_session")
def test_ten_million_row_single_key_completes_bounded():
    """One user, 10M events: the unsegmented assumption (one key fits one
    task) is exactly what breaks at firehose scale; with segment_us the
    key splits into ~230 time segments, every per-task group stays under
    ~1% of the key, and both ops complete."""
    import ray.data as rd

    from ray.data.aggregate import Max, Sum

    from marc2rdf_ray.ops.windows import running_totals, sessionize

    n = 10_000_000
    seg_us = 10_000_000_000
    span = 2_300_000_000_000

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        ts = (ids * (span // n)).astype("datetime64[us]")
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "ts": pa.array(ts),
                "user_id": pa.array(np.zeros(len(ids), np.int64)),
                "value": pa.array((ids % 7 - 3).astype(np.float64)),
            }
        )

    def mk():
        return rd.range(n, override_num_blocks=16).map_batches(
            gen, batch_format="pyarrow"
        )

    # bound check: max rows per (key, segment) is max events per segment
    seg_rows = n // (span // seg_us)
    assert seg_rows < n // 100

    sess = sessionize(mk(), gap_us=1_800_000_000,
                      segment_us=seg_us).materialize()
    srow = sess.take_all()
    # events are (span/n)=230ms apart << gap -> ONE giant session
    assert len(srow) == 1 and srow[0]["n_events"] == n

    rt = running_totals(mk(), segment_us=seg_us)
    agg = rt.aggregate(
        Max("running_cnt", alias_name="mx"),
        Sum("running_cnt", alias_name="sm"),
    )
    assert agg["mx"] == n
    assert agg["sm"] == n * (n + 1) // 2
