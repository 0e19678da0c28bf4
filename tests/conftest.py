import pytest

from fatwedge.complexes import _STORE


@pytest.fixture(autouse=True)
def no_run_left_open():
    """Fail a test that leaves a run of the store open: its results would
    leak into every later test."""
    yield
    left_open = _STORE.get() is not None
    _STORE.set(None)
    assert not left_open, "the test left a run of the store open"
