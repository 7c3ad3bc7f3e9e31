import pytest
from hypothesis import settings

from overpart import build_table, solve_lambda_table

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
