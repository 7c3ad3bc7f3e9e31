"""A deliberately naive overpartition count, meant for tests only: it walks
every partition and weights it by 2^(number of distinct parts), so it is an
oracle independent of the theta recurrence ``build_table`` runs."""

import functools

from overpart.exact_core import check_int

ENUMERATION_LIMIT = 60


def enumerate_overpartitions(n: int) -> int:
    """Brute-force overpartition count: every partition of n weighted by
    2^(distinct parts), memoized per call on (remaining, max_part).  Guarded
    to n <= 60; meant for tests only."""
    if check_int(n, "n", 0) > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration oracle is exponential and capped at n = {ENUMERATION_LIMIT}")

    @functools.lru_cache(maxsize=None)
    def count(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            for copies in range(1, remaining // part + 1):
                total += 2 * count(remaining - part * copies, part - 1)
        return total

    return count(n, n)
