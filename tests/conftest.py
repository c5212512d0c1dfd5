"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def grid_digests():
    """perfbench/workloads.py's GRID_DIGESTS: leg (g, mu_max, step) -> the
    sha256 of the `verify-stability --json` stdout that the benchmark's
    grid-verify workload accepts.  The module is imported from its file,
    with perfbench/ on sys.path for its `oracle` and `tracing` imports."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.GRID_DIGESTS


@pytest.fixture(scope="session")
def plan_requests():
    """perfbench/oracle.py's `plan_requests`: from a seeded random.Random,
    endless same-chamber requests (g, (mu1, c1), (mu2, c2), label name), as
    the benchmark's plan-serve workload sends them.  The oracle imports
    only the standard library."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", PERFBENCH / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plan_requests
