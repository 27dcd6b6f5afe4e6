import pytest

from pairbundles import numerics


@pytest.fixture(autouse=True)
def _cold_held_tables():
    """Every test starts and ends with an empty table of held distance
    search starts and of held Monte Carlo stage-1 results, so no outcome
    depends on the order of the tests, and a stage-1 result made under a
    test's monkeypatch is not held past it."""
    numerics._HELD_STARTS.clear()
    numerics._trial_stage1.cache_clear()
    yield
    numerics._HELD_STARTS.clear()
    numerics._trial_stage1.cache_clear()
