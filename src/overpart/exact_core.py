"""Exact overpartition counts with persistence.

An overpartition of n is a partition of n in which the first occurrence of
each distinct part may additionally be overlined; ``pbar(n)`` counts them
(1, 2, 4, 8, 14, 24, ... from n = 0).  The generating function is

    sum pbar(n) q^n  =  prod (1 + q^k)/(1 - q^k),

and by Gauss's identity its reciprocal is the theta series

    prod (1 - q^k)/(1 + q^k)  =  sum_{m in Z} (-1)^m q^{m^2}
                              =  1 + 2 sum_{k >= 1} (-1)^k q^{k^2}.

Multiplying the two series and reading off the coefficient of q^n (n >= 1)
gives the recurrence the builder runs:

    pbar(n)  =  2 sum_{k >= 1, k^2 <= n} (-1)^{k+1} pbar(n - k^2).

Each index sums about sqrt(n) earlier values, so the whole table costs
O(n^{3/2}) big-integer additions instead of the O(n^2) of a direct
convolution, in one pass with no intermediate series.

A deliberately naive enumeration oracle is included for test-time
cross-checking only; it walks every partition and weights it by 2^(number of
distinct parts).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
from typing import Iterator, Sequence, Tuple

ENUMERATION_LIMIT = 60
DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes


class MemoryBudgetError(Exception):
    """Requested table would exceed ``DEFAULT_MEMORY_BUDGET``."""


class TableFormatError(Exception):
    """Table file is malformed, truncated or fails its checksum."""


def check_int(value: int, name: str, least: int = 1) -> int:
    """``value`` when it is an ``int`` (not a ``bool``) of at least ``least``,
    else ValueError naming the argument."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")
    return value


class OverpartitionTable:
    """Immutable table of exact overpartition counts pbar(0..max_n).  Its one
    read, ``table[n]``, judges n: ValueError unless n is an ``int`` (not a
    ``bool``), IndexError unless 0 <= n <= max_n (no index from the end)."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[int]):
        if not values:
            raise ValueError("table must contain at least pbar(0)")
        self._values: Tuple[int, ...] = tuple(values)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> Tuple[int, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> int:
        if type(n) is not int:
            raise ValueError(f"table index must be an int, got {n!r}")
        if n >= 0:
            try:
                return self._values[n]
            except IndexError:
                pass
        raise IndexError(f"pbar({n}) is outside the table, which holds pbar(0..{self.max_n})")

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, OverpartitionTable):
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        return f"OverpartitionTable(max_n={self.max_n})"


def estimated_table_bytes(max_n: int) -> int:
    """Coarse upper estimate of the memory a table build needs.

    pbar(n) has about pi*sqrt(n)/ln(10) digits, so the digit total grows like
    0.91 * max_n^{3/2}; the one working array plus per-int overhead are
    folded into the constants.
    """
    isq = max(max_n, 1)
    digit_total = (91 * isq * math.isqrt(isq)) // 100 + isq
    return digit_total + 120 * (max_n + 1)


def build_table(max_n: int) -> OverpartitionTable:
    """Exact pbar(0..max_n) via the theta-series recurrence of the module
    docstring: odd k add pbar(n - k^2), even k subtract it.

    Deterministic; raises :class:`MemoryBudgetError` before allocating when the
    estimate exceeds ``DEFAULT_MEMORY_BUDGET``.
    """
    check_int(max_n, "max_n", 0)
    if estimated_table_bytes(max_n) > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"table to {max_n} needs about {estimated_table_bytes(max_n)} bytes, "
            f"budget is {DEFAULT_MEMORY_BUDGET}")

    root = math.isqrt(max_n)
    odd_squares = [k * k for k in range(1, root + 1, 2)]
    even_squares = [k * k for k in range(2, root + 1, 2)]
    values = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        acc = 0
        for sq in odd_squares:
            if sq > n:
                break
            acc += values[n - sq]
        for sq in even_squares:
            if sq > n:
                break
            acc -= values[n - sq]
        values[n] = 2 * acc

    _validate_values(values)
    return OverpartitionTable(values)


def _validate_values(values: Sequence[int]) -> None:
    # Cheap structural sanity on every build: evenness for n >= 1 (toggling
    # the overline on the largest part pairs the overpartitions up) and strict
    # growth.  A failure here means the recurrence itself regressed.
    if values[0] != 1:
        raise AssertionError("pbar(0) must be 1")
    for n in range(1, len(values)):
        if values[n] % 2:
            raise AssertionError(f"pbar({n}) is odd")
        if values[n] <= values[n - 1] and n >= 2:
            raise AssertionError(f"pbar not increasing at {n}")


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


# -- persistence ---------------------------------------------------------------
#
# Line-oriented text format:
#   line 1          OPART v1 <max_n>
#   lines 2..       <n>\t<decimal digits of pbar(n)>   ascending n
#   (single spaces, every number plain ASCII digits without a leading zero;
#   nothing else loads)
#   trailing line   #sha256 <hex digest of all preceding bytes>

_MAGIC = b"OPART v1"
_ZERO = ord("0")


def save_table(table: OverpartitionTable, path) -> str:
    """Write the table; returns the hex digest recorded in the trailer.

    The bytes go to a temporary file next to ``path`` that then replaces it,
    so an interrupted write never leaves a partial table under ``path``.
    """
    payload = b"".join([b"%s %d\n" % (_MAGIC, table.max_n),
                        *(b"%d\t%d\n" % record for record in enumerate(table.values))])
    digest = hashlib.sha256(payload).hexdigest()
    partial = f"{os.fspath(path)}.{os.getpid()}.partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(payload)
            fh.write(f"#sha256 {digest}\n".encode("ascii"))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise
    return digest


def load_table(path) -> OverpartitionTable:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if len(lines) < 3:
        raise TableFormatError("file too short to hold a table")

    trailer = lines[-1]
    if not trailer.startswith(b"#sha256 "):
        raise TableFormatError("missing checksum trailer")
    stated = trailer[len(b"#sha256 "):].decode("ascii", errors="replace").strip()
    # The payload is every byte before the trailer line, hashed in place.
    end = len(raw) - len(trailer) - raw.endswith(b"\n")
    actual = hashlib.sha256(memoryview(raw)[:end]).hexdigest()
    if stated != actual:
        raise TableFormatError(f"checksum mismatch: file says {stated}, content is {actual}")

    magic, _, max_field = lines[0].rpartition(b" ")
    if magic != _MAGIC:
        raise TableFormatError(f"bad header line: {lines[0]!r}")

    values = []
    for expected_n, line in enumerate(lines[1:-1]):
        # Both fields plain decimals: ASCII digits, no leading zero but in 0.
        # A missing or second tab leaves count empty or not all digits.
        index, _, count = line.partition(b"\t")
        if (not (index.isdigit() and count.isdigit())
                or (index[0] == _ZERO and len(index) > 1) or (count[0] == _ZERO and len(count) > 1)):
            raise TableFormatError(f"malformed record {line!r}: not <n>\\t<count> in plain decimals")
        n = int(index)
        if n != expected_n:
            raise TableFormatError(f"record out of order: expected n={expected_n}, got {n}")
        values.append(int(count))
    # max_n as save_table writes it for these records, so it is plain too.
    if max_field != b"%d" % (len(values) - 1):
        raise TableFormatError(
            f"bad max_n in header: {max_field!r}, the records run 0..{len(values) - 1}")
    return OverpartitionTable(values)
