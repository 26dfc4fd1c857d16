"""General BGP planner (ops/bgp.bgp_match): arbitrary pattern lists,
constant bindings, self-equality, loud failures on unsupported shapes
(round-5 task #5)."""

import pyarrow as pa
import pytest


def _triples(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "obj": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    )


GRAPH = [
    ("a", "knows", "b"), ("b", "knows", "c"), ("a", "knows", "c"),
    ("a", "name", "Alice"), ("b", "name", "Bob"), ("c", "name", "Cara"),
    ("a", "likes", "a"),  # self-loop
    ("b", "likes", "c"),
    # duplicate triple: SPARQL set semantics must collapse it
    ("a", "knows", "b"),
]


@pytest.mark.usefixtures("ray_session")
def test_mixed_chain_star_with_constants():
    from marc2rdf_ray.ops.bgp import bgp_match

    # ?x knows ?y . ?y name ?n . ?x name "Alice"
    out = sorted(
        tuple(r[v] for v in ("x", "y", "n"))
        for r in bgp_match(
            _triples(GRAPH),
            [
                ("?x", "knows", "?y"),
                ("?y", "name", "?n"),
                ("?x", "name", "Alice"),
            ],
            out_vars=["x", "y", "n"],
        ).take_all()
    )
    assert out == [("a", "b", "Bob"), ("a", "c", "Cara")]


@pytest.mark.usefixtures("ray_session")
def test_self_equality_pattern():
    from marc2rdf_ray.ops.bgp import bgp_match

    rows = [r["x"] for r in bgp_match(
        _triples(GRAPH), [("?x", "likes", "?x")]
    ).take_all()]
    assert rows == ["a"]


@pytest.mark.usefixtures("ray_session")
def test_constant_subject_and_projection():
    from marc2rdf_ray.ops.bgp import bgp_match

    got = sorted(r["who"] for r in bgp_match(
        _triples(GRAPH), [("a", "knows", "?who")], out_vars=["who"]
    ).take_all())
    assert got == ["b", "c"]


@pytest.mark.usefixtures("ray_session")
def test_planner_rejects_unsupported_shapes():
    from marc2rdf_ray.ops.bgp import bgp_match

    with pytest.raises(NotImplementedError, match="variable predicate"):
        bgp_match(_triples(GRAPH), [("?x", "?p", "?y")])
    with pytest.raises(NotImplementedError, match="disconnected"):
        bgp_match(
            _triples(GRAPH),
            [("?x", "knows", "?y"), ("?z", "name", "?n")],
        ).take_all()
    with pytest.raises(ValueError, match="binds no variable"):
        bgp_match(_triples(GRAPH), [("a", "knows", "b")])
    with pytest.raises(ValueError, match="not bound"):
        bgp_match(
            _triples(GRAPH), [("?x", "knows", "?y")], out_vars=["zzz"]
        ).take_all()
    # pattern ids are int8: the 128th pattern must fail loudly, not wrap
    with pytest.raises(ValueError, match="at most 127 patterns"):
        bgp_match(
            _triples(GRAPH), [("?x", f"p{i}", f"?v{i}") for i in range(128)]
        )


@pytest.mark.usefixtures("ray_session")
def test_stats_driven_order_matches_estimate_order():
    """Passing predicate_stats must not change results (only the join
    order)."""
    from marc2rdf_ray.ops.bgp import bgp_match, predicate_stats

    pats = [("?x", "knows", "?y"), ("?y", "name", "?n")]
    a = sorted(
        tuple(r[v] for v in ("x", "y", "n"))
        for r in bgp_match(_triples(GRAPH), pats).take_all()
    )
    st = predicate_stats(_triples(GRAPH))
    b = sorted(
        tuple(r[v] for v in ("x", "y", "n"))
        for r in bgp_match(_triples(GRAPH), pats, stats=st).take_all()
    )
    assert a == b and len(a) == 3
