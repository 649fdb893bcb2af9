"""Fixtures shared by the test modules."""

import functools
import runpy
from pathlib import Path

import pytest

from rghw import weights


@functools.cache
def _workloads() -> dict:
    """The globals of perfbench/workloads.py, run once."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))


@pytest.fixture(scope="session")
def spec_grid():
    """The benchmark's grid function: limit -> every (q,k1,k2,e1,e2) that
    build_code accepts with q^(k1+k2) <= limit."""
    return _workloads()["small_grid"]


@pytest.fixture(scope="session")
def small_grid(spec_grid):
    """The benchmark's small grid, q^(k1+k2) <= 81."""
    return spec_grid()


@pytest.fixture(scope="session")
def ladder():
    """The specs of the benchmark's scan_ladder workload."""
    return _workloads()["LADDER"]


@pytest.fixture
def recording_pool(monkeypatch):
    """Swap the scan's process pool for an in-process one that records the
    max_workers of every pool constructed, so no test starts a process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(weights, "ProcessPoolExecutor", RecordingPool)
    return sizes
