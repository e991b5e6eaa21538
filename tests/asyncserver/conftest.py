"""Fixtures shared by the serving tier's end-to-end suites."""

import pytest

from repro.asyncserver import supervisor


@pytest.fixture()
def fast_restarts(monkeypatch):
    """Restart a crashed or reaped shard after 50 ms, not half a second
    (the supervisor's constants are read in the test process, where the
    front runs)."""
    monkeypatch.setattr(supervisor, "RESTART_BACKOFF_BASE_SECONDS", 0.05)
