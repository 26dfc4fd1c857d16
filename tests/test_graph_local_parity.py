"""Local fast paths == distributed rounds, bit for bit, for the
eighth-session graph ops (boruvka_msf, greedy_matching,
temporal_reachability).  Zero plan budgets (ops/plan.py) force every
distributed branch -- including the join-based over-budget paths -- so
this doubles as their coverage."""

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pytest


def _md5_edges(n_nodes: int):
    src, dst = [], []
    for i in range(n_nodes):
        for k in range(i % 4):
            t = int(
                hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16
            ) % n_nodes
            src.append(i)
            dst.append(t)
    return src, dst


def _graph(n):
    import ray.data as rd

    src, dst = _md5_edges(n)
    edges = rd.from_arrow(
        pa.table(
            {"src": pa.array(src, pa.int64()),
             "dst": pa.array(dst, pa.int64())}
        )
    )
    nodes = rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n), pa.int64())})
    )
    return edges, nodes


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


@pytest.mark.usefixtures("ray_session")
def test_boruvka_local_equals_distributed(plan_budgets, caplog):
    from marc2rdf_ray.ops.graph import boruvka_msf

    edges, nodes = _graph(120)
    local = boruvka_msf(edges, nodes, rounds=2)
    edges2, nodes2 = _graph(120)
    # the at-scale shape: the weighted edge list (~4.3 KB here) is over
    # the one_task_slim budget, so Boruvka runs its distributed rounds
    # with the broadcast attach, while each contraction's component-pair
    # list (<= 120 pairs, <= 1.9 KB) still fits it and stays one task.
    # The full join path is exercised separately by matching/temporal.
    plan_budgets(one_task_slim=4096)
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        dist = _rows(boruvka_msf(edges2, nodes2, rounds=2))
    paths = {
        (f["op"], f["path"])
        for f in (
            dict(kv.split("=", 1) for kv in r.getMessage().split()[1:])
            for r in caplog.records if r.name == "marc2rdf_ray.plan"
        )
    }
    assert ("boruvka_msf", "rounds") in paths
    assert ("connected_components_local", "one_task") in paths
    assert ("connected_components_local", "rounds") not in paths
    assert _rows(local) == dist


@pytest.mark.usefixtures("ray_session")
def test_matching_local_equals_distributed(plan_budgets):
    from marc2rdf_ray.ops.graph import greedy_matching

    edges, _ = _graph(120)
    local = greedy_matching(edges, rounds=3)
    edges2, _ = _graph(120)
    plan_budgets(one_task_slim=0, broadcast=0)
    dist = greedy_matching(edges2, rounds=3)
    assert _rows(local) == _rows(dist)


@pytest.mark.usefixtures("ray_session")
def test_temporal_local_equals_distributed(plan_budgets):
    import ray.data as rd

    from marc2rdf_ray.ops.graph import temporal_reachability

    edges, nodes = _graph(120)
    seeds = nodes.map_batches(
        lambda b: b.filter(
            pa.array(
                b["node"].to_numpy(zero_copy_only=False) % 25 == 0
            )
        ),
        batch_format="pyarrow",
    )
    local = temporal_reachability(edges, seeds, rounds=3)
    edges2, nodes2 = _graph(120)
    seeds2 = nodes2.map_batches(
        lambda b: b.filter(
            pa.array(
                b["node"].to_numpy(zero_copy_only=False) % 25 == 0
            )
        ),
        batch_format="pyarrow",
    )
    plan_budgets(one_task_slim=0, broadcast=0)
    dist = temporal_reachability(edges2, seeds2, rounds=3)
    assert _rows(local) == _rows(dist)


@pytest.mark.usefixtures("ray_session")
def test_weighted_pagerank_local_matches_distributed():
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.ops.graph import (pagerank_weighted,
                                        pagerank_weighted_local)

    n = 150
    src, dst = [], []
    for i in range(n):
        for k in range(i % 4):
            t = int(
                hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16
            ) % n
            src.append(i)
            dst.append(t)

    def mk():
        return (
            rd.from_arrow(
                pa.table(
                    {
                        "src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64()),
                    }
                )
            ),
            rd.from_arrow(
                pa.table({"node": pa.array(range(n), pa.int64())})
            ),
        )

    e1, n1 = mk()
    loc = {
        r["node"]: r["rank"]
        for r in pagerank_weighted_local(e1, n1, iterations=3).take_all()
    }
    e2, n2 = mk()
    dist = {
        r["node"]: r["rank"]
        for r in pagerank_weighted(e2, n2, iterations=3).take_all()
    }
    assert loc == dist
    assert len(loc) == n and len(set(loc.values())) > 10


@pytest.mark.usefixtures("ray_session")
def test_stress_centrality_local_matches_distributed(plan_budgets):
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.ops.graph import stress_centrality_sampled

    n = 150
    src, dst = [], []
    for i in range(n):
        for k in range(i % 4):
            t = int(
                hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16
            ) % n
            src.append(i)
            dst.append(t)

    def mk():
        edges = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array(src, pa.int64()),
                    "dst": pa.array(dst, pa.int64()),
                }
            )
        )
        seeds = rd.from_arrow(
            pa.table(
                {
                    "s": pa.array(
                        sorted({s for s in src if s % 25 == 1}),
                        pa.int64(),
                    )
                }
            )
        )
        return edges, seeds

    e1, s1 = mk()
    loc = {
        r["node"]: r["stress"]
        for r in stress_centrality_sampled(e1, s1, depth=3).take_all()
    }
    e2, s2 = mk()
    plan_budgets(one_task=0)
    dist = {
        r["node"]: r["stress"]
        for r in stress_centrality_sampled(e2, s2, depth=3).take_all()
    }
    assert loc == dist
    assert loc and all(v > 0 for v in loc.values())


@pytest.mark.usefixtures("ray_session")
def test_local_fast_paths_raise_on_wide_ids():
    """The one-task fast paths must refuse ids >= 2^32
    exactly like the distributed canon() does -- silent (src<<32)|dst
    aliasing there would break the documented bit-parity."""
    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.ops.graph import (pagerank_weighted_local,
                                        stress_centrality_sampled)

    wide = 1 << 32
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array([0, wide], pa.int64()),
                "dst": pa.array([wide, 0], pa.int64()),
            }
        )
    )
    nodes = rd.from_arrow(
        pa.table({"node": pa.array([0, wide], pa.int64())})
    )
    with pytest.raises(ValueError, match="2\\^32"):
        pagerank_weighted_local(edges, nodes, iterations=2)

    edges2 = rd.from_arrow(
        pa.table(
            {
                "src": pa.array([0, wide], pa.int64()),
                "dst": pa.array([wide, 0], pa.int64()),
            }
        )
    )
    seeds = rd.from_arrow(pa.table({"s": pa.array([0], pa.int64())}))
    with pytest.raises(ValueError, match="2\\^32"):
        stress_centrality_sampled(edges2, seeds, depth=2).take_all()


@pytest.mark.usefixtures("ray_session")
def test_personalized_pagerank_local_matches_distributed():
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.ops.graph import (pagerank_weighted,
                                        pagerank_weighted_local)

    n = 120
    src, dst = [], []
    for i in range(n):
        for k in range(i % 4):
            t = int(
                hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16
            ) % n
            src.append(i)
            dst.append(t)
    seeds = [i for i in range(n) if i % 10 == 0]

    def mk():
        return (
            rd.from_arrow(
                pa.table(
                    {"src": pa.array(src, pa.int64()),
                     "dst": pa.array(dst, pa.int64())}
                )
            ),
            rd.from_arrow(
                pa.table({"node": pa.array(range(n), pa.int64())})
            ),
        )

    e1, n1 = mk()
    loc = {
        r["node"]: r["rank"]
        for r in pagerank_weighted_local(
            e1, n1, iterations=3, personalization=seeds
        ).take_all()
    }
    e2, n2 = mk()
    dist = {
        r["node"]: r["rank"]
        for r in pagerank_weighted(
            e2, n2, iterations=3, personalization=seeds
        ).take_all()
    }
    assert loc == dist
    # personalization concentrates mass: seeds beat the median non-seed
    import statistics

    nonseed = [v for k, v in loc.items() if k % 10 != 0]
    assert min(loc[s] for s in seeds) > statistics.median(nonseed)
    # unknown-seed guard fires on both paths
    e3, n3 = mk()
    with pytest.raises(ValueError, match="personalization"):
        pagerank_weighted_local(e3, n3, personalization=[10**9])
