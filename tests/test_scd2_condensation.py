"""SCD2 interval build (hand-computed, incl. gap re-insert) and SCC
condensation (broadcast vs distributed-join parity)."""

import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_scd2_intervals_hand_computed():
    import ray.data as rd

    from marc2rdf_ray.ops.relational import scd2_intervals

    # key 1: A,A,A        -> one current row [0, None)
    # key 2: A,B,B        -> [0,1) closed + [1, None) current
    # key 3: A,_,A (gap)  -> TWO rows: [0,1) and [2, None) (re-insert)
    # key 4: A,A (absent v2) -> [0,2) closed, not current
    rows = [
        (1, "A", 0), (1, "A", 1), (1, "A", 2),
        (2, "A", 0), (2, "B", 1), (2, "B", 2),
        (3, "A", 0), (3, "A", 2),
        (4, "A", 0), (4, "A", 1),
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([r[0] for r in rows], pa.int64()),
                "st": pa.array([r[1] for r in rows], pa.string()),
                "v": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
    )
    got = {
        (r["id"], r["st"], r["eff_from"]): (r["eff_to"], r["is_current"])
        for r in scd2_intervals(
            ds, id_col="id", attr_cols=["st"], version_col="v",
            max_version=2,
        ).take_all()
    }
    assert got == {
        (1, "A", 0): (None, 1),
        (2, "A", 0): (1, 0),
        (2, "B", 1): (None, 1),
        (3, "A", 0): (1, 0),
        (3, "A", 2): (None, 1),
        (4, "A", 0): (2, 0),
    }


@pytest.mark.usefixtures("ray_session")
def test_condensation_paths_agree(plan_budgets):
    import ray.data as rd

    from marc2rdf_ray.ops.graph import scc_condensation, scc_local

    # {1,2} -> {3,4}, duplicate underlying edges collapse to multiplicity
    src = [1, 2, 2, 2, 3, 4, 1, 2, 2]
    dst = [2, 1, 3, 4, 4, 3, 2, 3, 3]
    ds = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )
    )
    labels = scc_local(ds).materialize()

    def got(budget):
        plan_budgets(broadcast=budget)
        ds2 = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array(src, pa.int64()),
                    "dst": pa.array(dst, pa.int64()),
                }
            )
        )
        return {
            (r["src_scc"], r["dst_scc"]): r["n_edges"]
            for r in scc_condensation(ds2, labels).take_all()
        }

    # distinct cross edges: 2->3, 2->4 => (scc 1 -> scc 3) with n=2
    assert got(256 << 20) == {(1, 3): 2}
    assert got(0) == {(1, 3): 2}


@pytest.mark.usefixtures("ray_session")
def test_scd2_multi_attr_null_keys_distinct():
    """('a', NULL) and ('b', NULL) must NOT compare equal: nulls are
    filled per column BEFORE the composite join, so null position is
    preserved in the key (regression for the any-null collapse where
    binary_join_element_wise nulled the whole tuple)."""
    import ray.data as rd

    from marc2rdf_ray.ops.relational import scd2_intervals

    rows = [
        # key 1 alternates ('a', NULL) -> ('b', NULL) -> ('a', NULL):
        # three distinct runs, not one merged run.
        (1, "a", None, 0), (1, "b", None, 1), (1, "a", None, 2),
        # key 2: (NULL, 'x') stable -> one current run.
        (2, None, "x", 0), (2, None, "x", 1), (2, None, "x", 2),
        # key 3: (NULL, NULL) -> ('a', 'x'): two runs.
        (3, None, None, 0), (3, "a", "x", 1), (3, "a", "x", 2),
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([r[0] for r in rows], pa.int64()),
                "a1": pa.array([r[1] for r in rows], pa.string()),
                "a2": pa.array([r[2] for r in rows], pa.string()),
                "v": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )
    got = {
        (r["id"], r["a1"], r["a2"], r["eff_from"]):
            (r["eff_to"], r["is_current"])
        for r in scd2_intervals(
            ds, id_col="id", attr_cols=["a1", "a2"], version_col="v",
            max_version=2,
        ).take_all()
    }
    assert got == {
        (1, "a", None, 0): (1, 0),
        (1, "b", None, 1): (2, 0),
        (1, "a", None, 2): (None, 1),
        (2, None, "x", 0): (None, 1),
        (3, None, None, 0): (1, 0),
        (3, "a", "x", 1): (None, 1),
    }
