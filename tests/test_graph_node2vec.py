"""node2vec biased walks: broadcast vs distributed-join path parity and
walk validity (every hop follows a real directed edge)."""

import hashlib

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


def _walks_map(ds):
    return {
        r["start"]: (r["s1"], r["s2"], r["s3"]) for r in ds.take_all()
    }


@pytest.mark.usefixtures("ray_session")
def test_node2vec_paths_parity_and_validity(plan_budgets):
    import ray.data as rd

    from marc2rdf_ray.ops.graph import node2vec_walks

    n = 120
    src, dst = _md5_edges(n)
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )
    )
    fast = _walks_map(node2vec_walks(edges, steps=3))
    plan_budgets(broadcast=0)
    slow = _walks_map(node2vec_walks(edges, steps=3))
    assert fast == slow
    assert len(fast) > 0

    out = {}
    for s, d in zip(src, dst):
        if s != d:
            out.setdefault(s, set()).add(d)
    assert set(fast) == set(out)
    for start, (s1, s2, s3) in fast.items():
        assert s1 in out[start]
        if s2 is not None:
            assert s2 in out[s1]
        else:
            assert s1 not in out
        if s3 is not None:
            assert s3 in out[s2]
