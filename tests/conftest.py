"""Fixtures shared by the test modules."""

import pytest

from rghw import weights


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
