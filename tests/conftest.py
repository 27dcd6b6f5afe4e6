import pytest

from pairbundles import numerics


@pytest.fixture(autouse=True)
def _cold_held_starts():
    """Every test starts and ends with an empty table of held distance
    search starts, so no outcome depends on the order of the tests."""
    numerics._HELD_STARTS.clear()
    yield
    numerics._HELD_STARTS.clear()
