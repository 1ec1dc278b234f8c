import threading
import time

import pytest
from hypothesis import settings

from hfpa import kernels
from hfpa.calibrate import REFERENCE_ANCHORS, default_init, fit

# Every run draws the same examples and keeps no example database, so a
# test's outcome depends on the code alone; each test's own example count
# and deadline still apply.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def fitted():
    """Calibrated parameters plus the wall time the calibration took.

    Session-scoped: the acceptance suite and several module tests share one
    deterministic fit against the bench reference table.
    """
    t0 = time.perf_counter()
    init = default_init(REFERENCE_ANCHORS)
    report = fit(REFERENCE_ANCHORS, init, budget=600)
    seconds = time.perf_counter() - t0
    return report, seconds


@pytest.fixture(scope="session")
def fitted_params(fitted):
    report, _ = fitted
    return report.params


@pytest.fixture
def two_cpus(monkeypatch):
    """Split as on a multi-core host, and list the name of the thread that
    runs each part handed to the worker (``kernels._in_errstate``)."""
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    worker_halves = []
    in_errstate = kernels._in_errstate

    def counted(*args):
        worker_halves.append(threading.current_thread().name)
        return in_errstate(*args)

    monkeypatch.setattr(kernels, "_in_errstate", counted)
    return worker_halves
