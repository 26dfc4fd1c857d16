"""ops/plan.py owns every size-based path choice: a guard that no other
module measures a side or takes a byte budget, and the decision log."""

import ast
import logging
import os

import pyarrow as pa
import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(__file__)), "marc2rdf_ray")

# token budgets change the output, so they stay parameters
TOKEN_BUDGETS = {
    ("pack_streaming", "budget"),
    ("select_token_budget", "budget"),
}


def _modules():
    for root, _, names in os.walk(PKG):
        for n in sorted(names):
            if n.endswith(".py"):
                path = os.path.join(root, n)
                with open(path) as f:
                    yield os.path.relpath(path, PKG), ast.parse(f.read())


def _is_byte_budget(name: str) -> bool:
    return ("budget" in name or "limit_bytes" in name) and name != "pack_budget"


def test_size_policy_lives_in_plan_module_only():
    sized, params, fields = [], [], []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "size_bytes"
                and rel != os.path.join("ops", "plan.py")
            ):
                sized.append(f"{rel}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if (_is_byte_budget(arg.arg)
                            and (node.name, arg.arg) not in TOKEN_BUDGETS):
                        params.append(f"{rel}:{node.name}({arg.arg})")
            if isinstance(node, ast.ClassDef):
                for st in node.body:
                    if (isinstance(st, ast.AnnAssign)
                            and isinstance(st.target, ast.Name)
                            and _is_byte_budget(st.target.id)):
                        fields.append(f"{rel}:{node.name}.{st.target.id}")
    assert not sized, f"size_bytes() outside ops/plan.py: {sized}"
    assert not params, f"byte-budget parameters: {params}"
    assert not fields, f"byte-budget config fields: {fields}"


def _plan_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "marc2rdf_ray.plan"]


def _fields(line: str) -> dict:
    return dict(kv.split("=", 1) for kv in line.split()[1:])


@pytest.mark.usefixtures("ray_session")
def test_broadcast_decision_logs_one_line(caplog):
    import ray.data as rd

    from marc2rdf_ray.ops import plan
    from marc2rdf_ray.ops.dedup import anti_join_filter

    ds = rd.from_arrow(pa.table({"k": pa.array(range(20), pa.int64())}))
    keys = rd.from_arrow(pa.table({"k": pa.array([3, 5], pa.int64())}))
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        out = anti_join_filter(ds, keys, "k")
    lines = _plan_lines(caplog)
    assert len(lines) == 1, lines
    f = _fields(lines[0])
    assert f["op"] == "anti_join_filter" and f["kind"] == "broadcast"
    assert int(f["bytes"]) > 0
    assert int(f["budget"]) == plan.BUDGETS["broadcast"]
    assert f["path"] == "broadcast"
    assert sorted(r["k"] for r in out.take_all()) == [
        i for i in range(20) if i not in (3, 5)
    ]


@pytest.mark.usefixtures("ray_session")
def test_one_task_decision_logs_one_line(caplog, plan_budgets):
    import ray.data as rd

    from marc2rdf_ray.ops.graph import scc_local

    edges = rd.from_arrow(
        pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                  "dst": pa.array([1, 2, 0], pa.int64())})
    )
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        labels = scc_local(edges)
    lines = _plan_lines(caplog)
    assert len(lines) == 1, lines
    f = _fields(lines[0])
    assert (f["op"], f["kind"], f["path"]) == ("scc_local", "one_task",
                                               "one_task")
    assert 0 < int(f["bytes"]) <= int(f["budget"])
    assert {r["scc"] for r in labels.take_all()} == {0}

    # the table is read at call time: a patched budget reaches the site
    caplog.clear()
    plan_budgets(one_task=0)
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        assert scc_local(edges) is None
    (line,) = _plan_lines(caplog)
    assert _fields(line)["budget"] == "0"
    assert _fields(line)["path"] == "rounds"
