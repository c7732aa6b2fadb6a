import pytest

from dressed_modes.acceptance import run_all


@pytest.fixture(scope="session")
def gate_results():
    """One run of the whole gate at seed 0, shared by every test that reads it."""
    return run_all()
