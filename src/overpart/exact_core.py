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
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import stat
from typing import Iterator, Sequence, Tuple

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
_CHUNK = 1024  # records formatted, hashed and written at a time by save_table


def _plain(field: bytes) -> bool:
    """ASCII digits without a leading zero, or ``0`` itself."""
    return field.isdigit() and (field[0] != _ZERO or len(field) == 1)


def _payload_chunks(values: Sequence[int]) -> Iterator[bytes]:
    """The payload: the header line, then the records ``_CHUNK`` at a time."""
    yield b"%s %d\n" % (_MAGIC, len(values) - 1)
    for start in range(0, len(values), _CHUNK):
        yield b"".join([b"%d\t%d\n" % record
                        for record in enumerate(values[start:start + _CHUNK], start)])


@contextlib.contextmanager
def atomic_output(path, mode: str = "w", **options) -> Iterator:
    """A temporary file next to ``path``, with the mode bits of the file it
    replaces, that replaces ``path`` when the block ends and is removed when an
    exception leaves it.  A device, pipe or symlink is written through instead."""
    old = os.lstat(path) if os.path.lexists(path) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, mode, **options) as fh:
            yield fh
        return
    partial = f"{os.fspath(path)}.{os.getpid()}.partial"
    try:
        with open(partial, mode, **options) as fh:
            if old is not None:
                os.chmod(partial, stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError) and (exc.filename, exc.filename2) == (partial, None):
            exc.filename = os.fspath(path)  # errors name the file asked for
        raise


def save_table(table: OverpartitionTable, path) -> str:
    """Write the table and return the hex digest its trailer records.  Each
    chunk is hashed and written before the next is formatted, so the file is
    never held whole, and the file appears under ``path`` only once whole."""
    sha = hashlib.sha256()
    with atomic_output(path, "wb") as fh:
        for chunk in _payload_chunks(table.values):
            sha.update(chunk)
            fh.write(chunk)
        digest = sha.hexdigest()
        fh.write(f"#sha256 {digest}\n".encode("ascii"))
    return digest


def load_table(path) -> OverpartitionTable:
    """Read a table file in one pass: hash each line and, once the next line
    shows it is not the trailer, parse it.  The first format error is raised
    only after the checksum passes, so only hashed bytes are ever returned."""
    sha, values, error, lines, last = hashlib.sha256(), [], None, 0, b""
    with open(path, "rb") as fh:
        for line in fh:
            sha.update(last)  # a line follows it: not the trailer
            record = last[:-1]  # every line before the trailer ends in a newline
            if lines == 1:
                magic, _, max_field = record.rpartition(b" ")
                error = None if magic == _MAGIC else TableFormatError(f"bad header line: {record!r}")
            elif lines and error is None:
                # Record n is b"%d\t<count>" % n.  A missing or second tab leaves count not all digits.
                index, _, count = record.partition(b"\t")
                if index == b"%d" % len(values) and _plain(count):
                    try:
                        values.append(int(count))
                    except ValueError as exc:  # past the interpreter's int/str digit limit
                        error = TableFormatError(f"record n={len(values)} does not load: {exc}")
                else:
                    error = TableFormatError(
                        f"record out of order: expected n={len(values)}, got {index.decode()}"
                        if _plain(index) and _plain(count) else
                        f"malformed record {record!r}: not <n>\\t<count> in plain decimals")
            last, lines = line, lines + 1
    if lines < 3:
        raise TableFormatError("file too short to hold a table")
    if not last.startswith(b"#sha256 "):
        raise TableFormatError("missing checksum trailer")
    stated, actual = last[len(b"#sha256 "):].decode("ascii", errors="replace").strip(), sha.hexdigest()
    if stated != actual:
        raise TableFormatError(f"checksum mismatch: file says {stated}, content is {actual}")
    if error is not None:
        raise error
    # max_n as save_table writes it for these records, so it is plain too.
    if max_field != b"%d" % (len(values) - 1):
        raise TableFormatError(
            f"bad max_n in header: {max_field!r}, the records run 0..{len(values) - 1}")
    return OverpartitionTable(values)
