"""Size-based plan decisions: broadcast or join, one task or rounds.

Operators say what they compute; this module decides how a side runs.
Every "is this small enough to broadcast?" and "is this small enough to
solve in one task?" choice in the package goes through :func:`choose`,
which reads :data:`BUDGETS` at call time on the driver, logs one INFO
line per decision (``op``, ``kind``, ``bytes``, ``budget``, ``path``)
and returns the materialized Dataset, so the side it measured is not
executed a second time by whichever path runs.

Every branch pair is parity-tested, so a budget only moves work between
paths with the same output.  That is why no budget is a parameter,
config field or stage-cache input: tests and tools force a path by
patching the table (``monkeypatch.setitem(plan.BUDGETS, "broadcast",
0)``).

The budget table (bytes of the materialized side, ``size_bytes()``):

==================  =======  ==========================================
kind                budget   why
==================  =======  ==========================================
``broadcast``       256 MiB  A side at or under it is pulled into one
                             Arrow table and ``ray.put`` once; every
                             task that reads it holds one copy.  256
                             MiB covers degree tables, key sets and
                             dimension tables of multi-million-row
                             inputs while a copy stays a small share of
                             a worker's memory.  Above it the operator
                             runs a distributed hash join (``join``).
``one_task``        128 MiB  The whole input and the solver's numpy
                             state (several times the Arrow bytes) sit
                             in one worker: PageRank, HITS, SCC Tarjan,
                             Luby MIS, stress centrality.  Above it the
                             operator runs its distributed ``rounds``.
``one_task_slim``   256 MiB  Solvers over a slim int64 edge list whose
                             state is a few arrays linear in the edges:
                             Boruvka, temporal relaxation, greedy
                             matching, DAG layers, and
                             connected_components_local's hashmin
                             fixpoint.  Twice ``one_task`` because
                             their state is about the input's size,
                             not a multiple of it.
``one_task_wedges``  64 MiB  clustering_coefficient's one-task solve
                             lists every wedge in memory (O(m^1.5)
                             rows), so it takes half of ``one_task``.
``one_task_python``   8 MiB  ktruss's one-task peel intersects Python
                             sets per edge every round; past ~0.5M
                             edges the distributed rounds are faster.
==================  =======  ==========================================

Paths: a ``broadcast`` kind picks ``broadcast`` or ``join``; a
``one_task*`` kind picks ``one_task`` or ``rounds``.  Broadcast sites
call :func:`small_side` (the gathered table, or ``None`` to join);
one-task sites call :func:`choose` and :func:`run_in_one_task`.

The two executions the operators share live here too: :func:`gather`
pulls a small side into one Arrow table (for ``ray.put``), and
:func:`run_in_one_task` runs a solver over a whole Dataset in one task.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger("marc2rdf_ray.plan")

BUDGETS: dict[str, int] = {
    "broadcast": 256 << 20,
    "one_task": 128 << 20,
    "one_task_slim": 256 << 20,
    "one_task_wedges": 64 << 20,
    "one_task_python": 8 << 20,
}


def choose(op: str, ds, kind: str):
    """``(path, materialized ds)`` for ``op``'s side ``ds`` under the
    ``kind`` budget read from :data:`BUDGETS` now; logs the decision
    once at INFO."""
    from ray.data.dataset import MaterializedDataset

    mat = ds if isinstance(ds, MaterializedDataset) else ds.materialize()
    nbytes = mat.size_bytes() or 0
    budget = BUDGETS[kind]
    small = nbytes <= budget
    if kind == "broadcast":
        path = "broadcast" if small else "join"
    else:
        path = "one_task" if small else "rounds"
    logger.info("plan op=%s kind=%s bytes=%d budget=%d path=%s",
                op, kind, nbytes, budget, path)
    return path, mat


def gather(mat) -> pa.Table:
    """One Arrow table holding every row of the materialized ``mat``
    (its schema, empty, when it has no rows)."""
    import ray

    tabs = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
    if tabs:
        # promote: groupby emits zero-column blocks for empty partitions
        return pa.concat_tables(tabs, promote_options="default")
    sch = mat.schema()
    if sch is None:
        return pa.table({})
    return pa.table(
        {n: pa.array([], t) for n, t in zip(sch.names, sch.types)}
    )


def small_side(op: str, ds, kind: str = "broadcast"):
    """``(table, materialized ds)``: ``table`` is ``ds`` gathered when
    the plan broadcasts it, ``None`` when the caller must join the
    returned materialized Dataset instead."""
    path, mat = choose(op, ds, kind)
    return (gather(mat) if path == "broadcast" else None), mat


def run_in_one_task(ds, solve):
    """Run ``solve(table)`` over every row of ``ds`` in ONE worker task
    (one ``_g`` group through ``map_groups``); no driver compute."""
    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_g", pa.array(np.zeros(len(b), np.int8), pa.int8())
        )

    def run(g: pa.Table) -> pa.Table:
        return solve(g.drop_columns(["_g"]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(run, batch_format="pyarrow")
    )


def join_partitions() -> int:
    """Partition count of a distributed join: half the cluster's CPUs,
    between 2 and 64."""
    import ray

    return max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))
