"""Luby MIS: independence + maximality at the fixpoint."""

import hashlib

import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_mis_independent_and_maximal(plan_budgets):
    import ray.data as rd

    from marc2rdf_ray.ops.graph import maximal_independent_set

    n = 200
    src, dst = [], []
    for i in range(n):
        for k in range(i % 4):
            t = int(
                hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16
            ) % n
            src.append(i)
            dst.append(t)
    def mk():
        return rd.from_arrow(
            pa.table(
                {
                    "src": pa.array(src, pa.int64()),
                    "dst": pa.array(dst, pa.int64()),
                }
            )
        )

    def mis_of(**kw):
        return {
            r["node"] for r in maximal_independent_set(mk(), **kw).take_all()
        }

    mis = mis_of()
    # fixed-round prefixes (the oracle's mode), one-task path
    local_rounds = {r_: mis_of(rounds=r_) for r_ in (1, 3)}
    # distributed rounds (forced) must agree bit-for-bit at fixpoint
    plan_budgets(one_task=0)
    assert mis == mis_of()
    # fixed-round prefixes agree too
    for r_, a in local_rounds.items():
        assert a == mis_of(rounds=r_), r_
    adj: dict = {}
    nodes = set()
    for s, d in zip(src, dst):
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
        nodes.add(s)
        nodes.add(d)
    assert mis <= nodes and mis
    # independence: no two MIS nodes adjacent
    for v in mis:
        assert not (adj[v] & mis), v
    # maximality: every non-MIS node has a MIS neighbor
    for v in nodes - mis:
        assert adj[v] & mis, v
