import pytest

from hkdensity import catalog, lattice


@pytest.fixture(autouse=True)
def empty_pair_cache():
    """Each test starts with no lattice pair kept and no catalog entry
    built, as a fresh CLI process does: a pair kept by an earlier test would
    skip the enumeration that a test counts, and a pair or an entry would
    keep what it derived before a later test's monkeypatches."""
    lattice._PAIRS.clear()
    for build in (catalog._entry_a, catalog._entry_d, catalog._entry_e6,
                  catalog._entry_e7, catalog._entry_e8):
        build.cache_clear()
    yield
