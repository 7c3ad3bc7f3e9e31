import pytest
from hypothesis import settings

from overpart import asymptotics, build_table, solve_lambda_table

# Property tests replay the same examples on every run: no randomness across
# runs, no example database carried between them, no timing-based deadline.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Large enough for every desk-scale sweep: third-order checks to 5000 need
# pbar(5002), the shifted-envelope range tops out at 5614 (mu-only, no table).
DESK_MAX_N = 5620


@pytest.fixture(scope="session")
def table40():
    return build_table(40)


@pytest.fixture(scope="session")
def desk_table():
    return build_table(DESK_MAX_N)


@pytest.fixture(scope="session")
def lambda_table():
    return solve_lambda_table()


@pytest.fixture
def patch_exponents(monkeypatch):
    """Returns ``patch(fake)``: it puts ``fake`` in place of
    ``asymptotics._multiplier_exponents`` and empties the multiplier-sum memo,
    so the next sum reads the fake multiset (and runs the realness check)
    instead of returning a sum cached earlier.  The memo is emptied again
    afterwards, so no sum of a fake multiset outlives the test."""
    memo = asymptotics._multiplier_sum_mpi

    def patch(fake):
        monkeypatch.setattr(asymptotics, "_multiplier_exponents", fake)
        memo.cache_clear()

    yield patch
    memo.cache_clear()
