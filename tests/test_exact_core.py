import hashlib
import io
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overpart import (
    MemoryBudgetError,
    OverpartitionTable,
    TableFormatError,
    build_table,
    load_table,
    save_table,
)
from enumeration_oracle import ENUMERATION_LIMIT, enumerate_overpartitions

# Counts of overpartitions of 0..8, frozen from the enumeration oracle.
ORACLE_SMALL = [1, 2, 4, 8, 14, 24, 40, 64, 100]


def _pentagonal_table(max_n):
    """Second oracle, independent of the theta recurrence: with
    E(q) = prod (1 - q^k), sum pbar(n) q^n = E(q^2) / E(q)^2.  E(q^2) is sparse
    (+-1 at twice the generalized pentagonal numbers), and each division by
    E(q) is a convolution with Euler's pentagonal-number series."""
    pent = []  # (m(3m -+ 1)/2, (-1)^m) for every such number <= max_n
    m = 1
    while m * (3 * m - 1) // 2 <= max_n:
        for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if g <= max_n:
                pent.append((g, -1 if m % 2 else 1))
        m += 1
    pent.sort()
    series = [0] * (max_n + 1)
    series[0] = 1
    for g, sign in pent:
        if 2 * g <= max_n:
            series[2 * g] = sign
    for _ in range(2):  # distinct-parts series first, then pbar
        quotient = [0] * (max_n + 1)
        for n in range(max_n + 1):
            acc = series[n]
            for g, sign in pent:
                if g > n:
                    break
                acc -= sign * quotient[n - g]
            quotient[n] = acc
        series = quotient
    return series


def test_enumeration_oracle_base_cases():
    assert enumerate_overpartitions(0) == 1
    assert enumerate_overpartitions(1) == 2  # {1}, {1 overlined}
    assert enumerate_overpartitions(2) == 4  # {2}, {2ov}, {1+1}, {1ov+1}


def test_enumeration_oracle_guard():
    with pytest.raises(ValueError):
        enumerate_overpartitions(61)
    with pytest.raises(ValueError):
        enumerate_overpartitions(-1)


def test_build_table_trivial():
    assert list(build_table(0).values) == [1]


def test_build_table_small_values():
    assert list(build_table(8).values) == ORACLE_SMALL


def test_log_concavity_equality_at_two():
    t = build_table(3)
    assert t[2] ** 2 - t[1] * t[3] == 0


def test_table_matches_oracle_to_enumeration_limit():
    t = build_table(ENUMERATION_LIMIT)
    for n in range(ENUMERATION_LIMIT + 1):
        assert t[n] == enumerate_overpartitions(n)


def test_table_matches_pentagonal_oracle():
    assert build_table(3000).values == tuple(_pentagonal_table(3000))


def test_parity_and_monotonicity(desk_table):
    for n in range(1, desk_table.max_n + 1):
        assert desk_table[n] % 2 == 0
    for n in range(1, desk_table.max_n):
        assert desk_table[n + 1] > desk_table[n]


def test_build_determinism(tmp_path):
    p1, p2 = tmp_path / "a.tbl", tmp_path / "b.tbl"
    d1 = save_table(build_table(200), p1)
    d2 = save_table(build_table(200), p2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()


def test_save_table_writes_the_pinned_bytes(tmp_path):
    # The file format's bytes, pinned: the payload digest save_table returns
    # and the sha256 of the whole file, trailer included.
    path = tmp_path / "t.tbl"
    digest = save_table(build_table(2000), path)
    assert digest == "30c7b8a204009e14cc36e4d3b785dbe97c5c545d248c37946762ffcec3f1054b"
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "666387197dbee49281591f07585d4c2dcfaacf53766f74878ebeab3241e0f964")


@pytest.fixture(scope="module")
def table31000():
    return build_table(31000)


def _traced_peak(call):
    """``call()`` and the peak of the bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_table_holds_the_values_not_the_file(table31000, tmp_path):
    # Loading pbar(0..31000), a 5 MB file, reads it a line at a time: its
    # allocation peak is the values themselves (about 0.7 of the file), below
    # the file size, which any full copy of the file would reach.
    path = tmp_path / "t.tbl"
    save_table(table31000, path)
    loaded, peak = _traced_peak(lambda: load_table(path))
    assert loaded == table31000
    assert peak < 1.0 * path.stat().st_size


def test_save_table_streams_the_file(table31000, tmp_path):
    # Saving pbar(0..31000) formats, hashes and writes a chunk of records at
    # a time: beside the table it is given, it allocates at its peak less than
    # half the 5 MB file it writes, whose bytes stay the pinned ones.
    path = tmp_path / "t.tbl"
    digest, peak = _traced_peak(lambda: save_table(table31000, path))
    assert digest == "97f0633947bb127c600ef4b3cbecf6e8f0d2a404d0c5a188314642532fda5d84"
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "cac71e5f4eb57f76029e2a29c5e732873058778b07a89ed0f4acf6ccacdb8830")
    assert peak < 0.5 * path.stat().st_size


def test_memory_budget_guard():
    with pytest.raises(MemoryBudgetError):
        build_table(10 ** 9)
    with pytest.raises(ValueError):
        build_table(-1)


def test_save_load_round_trip(tmp_path):
    table = build_table(100)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    assert load_table(path) == table


def test_load_truncated_file(tmp_path):
    table = build_table(50)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(TableFormatError):
        load_table(path)


def _saved_bytes(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tbl")
        save_table(table, path)
        with open(path, "rb") as fh:
            return fh.read()


TABLE30 = build_table(30)
TABLE30_BYTES = _saved_bytes(TABLE30)


def _load_bytes(data, tmp_path_factory):
    """load_table on ``data``: None if it raises TableFormatError, else the
    table.  Any other exception propagates and fails the caller."""
    path = tmp_path_factory.getbasetemp() / "mutated.tbl"
    path.write_bytes(data)
    try:
        return load_table(path)
    except TableFormatError:
        return None


# A single-byte change is either rejected or harmless; "harmless" happens only
# when whitespace replaces the final newline, which the digest's strip() eats.
@settings(max_examples=500)
@given(position=st.integers(0, len(TABLE30_BYTES) - 1), delta=st.integers(1, 255))
@example(position=len(TABLE30_BYTES) - 1, delta=ord(" ") - ord("\n"))
def test_single_byte_change_never_loads_another_table(position, delta, tmp_path_factory):
    data = bytearray(TABLE30_BYTES)
    data[position] = (data[position] + delta) % 256
    loaded = _load_bytes(bytes(data), tmp_path_factory)
    assert loaded is None or loaded == TABLE30


def test_proper_prefix_never_loads_another_table(tmp_path_factory):
    # Every prefix, not a sample: the file is small enough.
    loaded = [
        cut for cut in range(len(TABLE30_BYTES))
        if _load_bytes(TABLE30_BYTES[:cut], tmp_path_factory) is not None]
    # Only dropping the final newline still loads, and then the same table.
    assert loaded == [len(TABLE30_BYTES) - 1]
    assert _load_bytes(TABLE30_BYTES[:-1], tmp_path_factory) == TABLE30


def _failing_open(real_open):
    """open() whose file handles fail after writing half of their first write."""
    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    return lambda path, mode="r", *args, **kwargs: HalfWriter(real_open(path, mode, *args, **kwargs))


def test_save_is_atomic(tmp_path, monkeypatch):
    from overpart import exact_core

    fresh, existing = tmp_path / "fresh.tbl", tmp_path / "existing.tbl"
    save_table(build_table(10), existing)
    old = existing.read_bytes()
    monkeypatch.setattr(exact_core, "open", _failing_open(open), raising=False)
    for path in (fresh, existing):
        with pytest.raises(OSError, match="disk full"):
            save_table(build_table(60), path)
    assert not fresh.exists()
    assert existing.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.tbl"]


def test_load_checksum_mismatch(tmp_path):
    path = tmp_path / "t.tbl"
    save_table(build_table(10), path)
    data = path.read_bytes().replace(b"\t4\n", b"\t6\n", 1)
    path.write_bytes(data)
    with pytest.raises(TableFormatError, match="checksum"):
        load_table(path)


def test_load_checks_the_checksum_before_any_record(tmp_path):
    # One malformed record: under the stale trailer the checksum is what
    # fails; with the trailer recomputed, the record is.
    path = tmp_path / "t.tbl"
    save_table(build_table(10), path)
    data = path.read_bytes().replace(b"\t4\n", b"\t+4\n", 1)
    path.write_bytes(data)
    with pytest.raises(TableFormatError, match="checksum"):
        load_table(path)
    payload = data[:data.rindex(b"#sha256 ")]
    path.write_bytes(payload + f"#sha256 {hashlib.sha256(payload).hexdigest()}\n".encode())
    with pytest.raises(TableFormatError, match="record"):
        load_table(path)


def test_load_record_count_mismatch(tmp_path):
    # Header advertises one more record than the body carries; checksum is
    # recomputed so the count check itself is exercised.
    lines = ["OPART v1 9\n"] + [f"{n}\t{v}\n" for n, v in enumerate(ORACLE_SMALL)]
    payload = "".join(lines).encode()
    digest = hashlib.sha256(payload).hexdigest()
    path = tmp_path / "t.tbl"
    path.write_bytes(payload + f"#sha256 {digest}\n".encode())
    with pytest.raises(TableFormatError, match="records"):
        load_table(path)


def test_load_fixture_built_from_oracle_values(tmp_path):
    lines = ["OPART v1 8\n"] + [f"{n}\t{v}\n" for n, v in enumerate(ORACLE_SMALL)]
    payload = "".join(lines).encode()
    digest = hashlib.sha256(payload).hexdigest()
    path = tmp_path / "t.tbl"
    path.write_bytes(payload + f"#sha256 {digest}\n".encode())
    assert load_table(path) == build_table(8)


def test_load_bad_header(tmp_path):
    payload = b"NOPE v9 8\n0\t1\n"
    digest = hashlib.sha256(payload).hexdigest()
    path = tmp_path / "t.tbl"
    path.write_bytes(payload + f"#sha256 {digest}\n".encode())
    with pytest.raises(TableFormatError, match="header"):
        load_table(path)


def test_load_out_of_order_records(tmp_path):
    lines = ["OPART v1 2\n", "0\t1\n", "2\t4\n", "1\t2\n"]
    payload = "".join(lines).encode()
    digest = hashlib.sha256(payload).hexdigest()
    path = tmp_path / "t.tbl"
    path.write_bytes(payload + f"#sha256 {digest}\n".encode())
    with pytest.raises(TableFormatError, match="order"):
        load_table(path)


def _write_checksummed(path, header, records):
    """A table file of ``header`` and ``records`` with a recomputed checksum,
    so only the format checks can reject it."""
    payload = "".join(line + "\n" for line in [header, *records]).encode()
    path.write_bytes(payload + f"#sha256 {hashlib.sha256(payload).hexdigest()}\n".encode())


ORACLE_RECORDS = [f"{n}\t{v}" for n, v in enumerate(ORACLE_SMALL)]


# Forms save_table never writes (int() accepts most of them), put in record n = 1.
@pytest.mark.parametrize("record", ["1\t2_0", "1\t +2", "1\t+2", "1\t-2", "01\t2",
                                    "1\t02", "1\t2 ", " 1\t2", "1_\t2", "1\t2\t"])
def test_load_rejects_records_that_are_not_plain_decimals(record, tmp_path):
    path = tmp_path / "t.tbl"
    _write_checksummed(path, "OPART v1 8", [ORACLE_RECORDS[0], record, *ORACLE_RECORDS[2:]])
    with pytest.raises(TableFormatError, match="record") as info:
        load_table(path)
    assert repr(record.encode()) in str(info.value)


@pytest.mark.parametrize("max_n", ["+8", "08", "0_8", "8_", ""])
def test_load_rejects_a_max_n_that_is_not_a_plain_decimal(max_n, tmp_path):
    path = tmp_path / "t.tbl"
    _write_checksummed(path, f"OPART v1 {max_n}", ORACLE_RECORDS)
    with pytest.raises(TableFormatError, match="max_n"):
        load_table(path)


@pytest.mark.parametrize("header", ["OPART  v1 8", "OPART\tv1 8", " OPART v1 8", "OPART v1  8",
                                    "OPART v1 8 ", "OPART v1\t8", "OPART v2 8"])
def test_load_rejects_a_header_save_table_does_not_write(header, tmp_path):
    path = tmp_path / "t.tbl"
    _write_checksummed(path, header, ORACLE_RECORDS)
    with pytest.raises(TableFormatError, match="header"):
        load_table(path)


def test_load_accepts_the_plain_zero(tmp_path):
    path = tmp_path / "t.tbl"
    _write_checksummed(path, "OPART v1 0", ["0\t1"])
    assert load_table(path) == build_table(0)


def test_load_names_a_count_past_the_int_digit_limit(long_count_table):
    with pytest.raises(TableFormatError, match="record n=8"):
        load_table(long_count_table)


class _ReadChanges(io.BytesIO):
    """Serves ``before``; once bytes have been read, ``after`` stands in their
    place, as when a file is rewritten in place while it is read.  Counts the
    bytes read."""

    def __init__(self, before, after):
        super().__init__(before)
        self.after, self.bytes_read = after, 0

    def _changed(self, data):
        end = self.tell()
        with self.getbuffer() as buffer:
            buffer[end - len(data):end] = self.after[end - len(data):end]
        self.bytes_read += len(data)
        return data

    def read(self, size=-1):
        return self._changed(super().read(size))

    def readline(self, size=-1):
        return self._changed(super().readline(size))

    def __next__(self):
        return self._changed(super().__next__())


def test_load_returns_only_the_bytes_it_hashed(tmp_path, monkeypatch):
    # Once read, the bytes become the same file with pbar(4) = 16: the same
    # line count under a now stale trailer.  A loader that reads the file
    # twice parses 16 the second time, a value its checksum never covered.
    from overpart import exact_core

    before = _saved_bytes(build_table(10))
    after = before.replace(b"\n4\t14\n", b"\n4\t16\n")
    assert after != before and len(after) == len(before)
    served = _ReadChanges(before, after)
    monkeypatch.setattr(exact_core, "open", lambda path, mode="r": served, raising=False)
    try:
        assert load_table(tmp_path / "unused.tbl")[4] == 14
    except TableFormatError:
        pass
    assert served.bytes_read == len(before)


def test_table_is_read_only_view():
    table = build_table(5)
    assert isinstance(table.values, tuple)
    with pytest.raises(TypeError):
        table.values[0] = 99
    assert len(table) == 6
    assert table.max_n == 5
    assert list(table) == ORACLE_SMALL[:6]


def test_empty_table_rejected():
    with pytest.raises(ValueError):
        OverpartitionTable([])
