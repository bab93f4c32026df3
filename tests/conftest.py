import pytest

from hkdensity import lattice


@pytest.fixture(autouse=True)
def empty_pair_cache():
    """Each test starts with no lattice pair kept, as a fresh CLI process
    does: a pair kept by an earlier test would skip the enumeration that a
    test counts, and would see monkeypatches made after it was built."""
    lattice._PAIRS.clear()
    yield
