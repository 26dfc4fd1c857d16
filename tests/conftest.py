import os

import pytest

os.environ.setdefault("RAY_DISABLE_IMPORT_WARNING", "1")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


@pytest.fixture
def plan_budgets(monkeypatch):
    """Patch the plan's byte budgets for one test, e.g.
    ``plan_budgets(broadcast=0)`` forces every non-empty broadcast side
    onto its join path (marc2rdf_ray/ops/plan.py)."""
    from marc2rdf_ray.ops import plan

    def patch(**budgets):
        for kind, nbytes in budgets.items():
            assert kind in plan.BUDGETS, kind
            monkeypatch.setitem(plan.BUDGETS, kind, nbytes)

    return patch
