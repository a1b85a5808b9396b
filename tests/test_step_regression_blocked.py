"""The golden step pins, re-run on the blocked backend.

Backends execute; the cost model charges.  Every constant pinned in
``tests/test_step_regression.py`` must therefore hold bit-for-bit when the
machine computes through :class:`~repro.backends.BlockedBackend` — an odd
chunk size (17) guarantees vectors of the pinned sizes (64+) straddle
chunk boundaries, exercising every carry path while the charges stay
untouched.
"""
import pytest

from tests import test_step_regression as pins


@pytest.fixture(autouse=True)
def _blocked_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "blocked:17")


class TestPrimitivePinsBlocked(pins.TestPrimitivePins):
    pass


class TestCompositePinsBlocked(pins.TestCompositePins):
    pass


class TestAlgorithmPinsBlocked(pins.TestAlgorithmPins):
    pass


class TestIdiomPinsBlocked(pins.TestIdiomPins):
    pass
