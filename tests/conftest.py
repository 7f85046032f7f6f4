import pytest
from mpmath import mp

from vanetmarket import generate_synthetic


@pytest.fixture(autouse=True)
def _restore_mpmath_precision():
    """Keep a test's change of the global mpmath precision from reaching later tests."""
    dps = mp.dps
    yield
    mp.dps = dps


@pytest.fixture(scope="session")
def fleet():
    """Medium synthetic fleet shared across tests; regenerating is cheap but wasteful."""
    return generate_synthetic(40, 90, seed=11)


@pytest.fixture(scope="session")
def small_fleet():
    return generate_synthetic(8, 45, seed=3)
