import csv
import dataclasses
import hashlib
import io
import json

import pytest

from overpart import build_table, save_table
from overpart.cli import (
    EXIT_FAILS,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    CSV_HEADER,
    SUITES,
    exit_code_for,
    main,
    records_from_results,
    write_report,
)
from overpart.verifiers import CHECKS, CheckItem, CheckResult, CheckSpec, Verdict


def run_cli(*argv):
    return main(list(argv))


# -- table ------------------------------------------------------------------------


def test_table_command(tmp_path, capsys):
    out = tmp_path / "p.tbl"
    assert run_cli("table", "--max", "100", "--out", str(out)) == EXIT_OK
    first_digest = capsys.readouterr().out
    lines = out.read_bytes().splitlines()
    assert lines[0] == b"OPART v1 100"
    assert len(lines) == 102 + 1  # header + 101 records + checksum
    # determinism: identical digest on rebuild
    assert run_cli("table", "--max", "100", "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().out == first_digest


def test_table_negative_max(capsys):
    assert run_cli("table", "--max", "-1", "--out", "x.tbl") == EXIT_USAGE


# -- value ------------------------------------------------------------------------


def test_value_command(capsys):
    assert run_cli("value", "8") == EXIT_OK
    assert capsys.readouterr().out.strip() == "100"
    assert run_cli("value", "0") == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert run_cli("value", "1") == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_value_uses_table_file(tmp_path, capsys):
    path = tmp_path / "t.tbl"
    save_table(build_table(50), path)
    assert run_cli("value", "40", "--table", str(path)) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1263272"


def test_value_env_table(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.tbl"
    save_table(build_table(30), path)
    monkeypatch.setenv("OPART_TABLE", str(path))
    assert run_cli("value", "8") == EXIT_OK
    assert capsys.readouterr().out.strip() == "100"


def test_value_env_table_too_small(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.tbl"
    save_table(build_table(5), path)
    monkeypatch.setenv("OPART_TABLE", str(path))
    assert run_cli("value", "8") == 1


def test_value_negative(capsys):
    assert run_cli("value", "-3") == EXIT_USAGE


# -- approx ------------------------------------------------------------------------


def test_approx_within_bound(capsys):
    assert run_cli("approx", "1") == EXIT_OK
    out = capsys.readouterr().out
    assert "within bound: yes" in out
    assert "6.199" in out  # the cutoff-3 bound at n = 1
    assert "exact = 2" in out


def test_approx_validation(capsys):
    assert run_cli("approx", "0") == EXIT_USAGE
    assert run_cli("approx", "5", "--bits", "1") == EXIT_USAGE


def test_approx_large_n_within_bound(capsys):
    assert run_cli("approx", "100") == EXIT_OK
    assert "within bound: yes" in capsys.readouterr().out


def test_approx_verdict_counts_the_truncation_width(capsys):
    # At 8 bits the enclosure 9.24e6..1.48e7 contains pbar(50) = 10605564;
    # |exact - midpoint| exceeds the error bound alone, not bound plus width.
    assert run_cli("approx", "50", "--bits", "8") == EXIT_OK
    out = capsys.readouterr().out
    assert "truncation = 9.2405760" in out and ".. 1.4811136" in out
    assert "exact = 10605564" in out
    assert "within bound: yes" in out


def test_approx_undecided_real_exit(patch_exponents, capsys):
    from fractions import Fraction

    patch_exponents(lambda n, k: {Fraction(1, 7): 1})
    assert run_cli("approx", "5") == 1


# -- verify ------------------------------------------------------------------------


def _item(check, subject, verdict, margin, precision_bits):
    return CheckItem(check, subject, Verdict(verdict), margin, int(precision_bits))


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_HEADER)
    return [_item(*row) for row in rows[1:]]


def test_verify_higher_turan_ok(capsys):
    code = run_cli("verify", "--check", "higher-turan", "--from", "16", "--to", "60")
    captured = capsys.readouterr()
    assert code == EXIT_OK
    records = _parse_csv(captured.out)
    assert len(records) == 45
    assert all(r.verdict == "holds" for r in records)


def test_verify_equality_reported_exit_zero(capsys):
    code = run_cli("verify", "--check", "log-concavity", "--from", "2", "--to", "2")
    captured = capsys.readouterr()
    assert code == EXIT_OK
    records = _parse_csv(captured.out)
    assert [r.verdict for r in records] == ["equality"]
    assert "equality=1" in captured.err


def test_verify_fails_exit_three(capsys):
    code = run_cli("verify", "--check", "higher-turan", "--from", "2", "--to", "15")
    capsys.readouterr()
    assert code == EXIT_FAILS


def test_verify_fg_sandwich_bits(capsys):
    code = run_cli("verify", "--check", "fg-sandwich", "--from", "55", "--to", "80",
                   "--bits", "256")
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert all(r.precision_bits == 256 for r in _parse_csv(captured.out))


def test_verify_f_vs_q_low_start_bits_climbs(capsys):
    # At low precision the enclosure of u_n reaches past 1 (from n = 92 at 8
    # bits, near n = 2000 at 16), so sqrt((1-u)^3) leaves its domain; the
    # ladder climbs instead of crashing.
    for bits, to_n in ((2, 300), (8, 300), (16, 2000)):
        code = run_cli("verify", "--check", "f-vs-q", "--from", "92", "--to", str(to_n),
                       "--bits", str(bits))
        captured = capsys.readouterr()
        assert code == EXIT_OK, bits
        records = _parse_csv(captured.out)
        assert len(records) == to_n - 91 and f"holds={to_n - 91} " in captured.err, bits
        assert all(r.verdict == "holds" and r.precision_bits >= bits for r in records), bits


def test_verify_formats_agree(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    jsonl_path = tmp_path / "r.jsonl"
    assert run_cli("verify", "--check", "log-concavity", "--from", "2", "--to", "40",
                   "--out", str(csv_path)) == EXIT_OK
    assert run_cli("verify", "--check", "log-concavity", "--from", "2", "--to", "40",
                   "--format", "jsonl", "--out", str(jsonl_path)) == EXIT_OK
    capsys.readouterr()
    csv_records = _parse_csv(csv_path.read_text())
    jsonl_records = [_item(**json.loads(line)) for line in jsonl_path.read_text().splitlines()]
    assert csv_records == jsonl_records
    assert sorted(r.verdict for r in csv_records) == sorted(r.verdict for r in jsonl_records)


def test_verify_unknown_check():
    assert run_cli("verify", "--check", "nonsense", "--from", "1", "--to", "2") == EXIT_USAGE


def test_verify_inverted_range(capsys):
    assert run_cli("verify", "--check", "log-concavity", "--from", "10", "--to", "2") == EXIT_USAGE


def test_verify_m_policy_flag(capsys):
    code = run_cli("verify", "--check", "strong-log-concavity", "--from", "2", "--to", "20",
                   "--m-policy", "2")
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert all(r.verdict == "holds" for r in _parse_csv(captured.out))


def test_verify_range_and_bits_usage_errors(capsys):
    for argv in (("log-concavity", "--from", "0", "--to", "5"),
                 ("fg-sandwich", "--from", "1", "--to", "5"),
                 ("delta2-log", "--from", "2", "--to", "5", "--bits", "1"),
                 ("delta2-log", "--from", "2", "--to", "5", "--bits", "8193")):
        assert run_cli("verify", "--check", *argv) == EXIT_USAGE, argv
    assert capsys.readouterr().err.count("error:") == 4


def test_verify_multiplicative_range_bounds_a_and_b(capsys):
    code = run_cli("verify", "--check", "multiplicative", "--from", "100", "--to", "103")
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert [r.subject for r in _parse_csv(captured.out)] == [
        f"a={a},b={b}" for a in range(100, 104) for b in range(a, 104)]
    assert "holds=10 " in captured.err
    for low in ("1", "0"):
        assert run_cli("verify", "--check", "multiplicative", "--from", low, "--to", "5") \
            == EXIT_USAGE
    assert capsys.readouterr().err.count("error:") == 2


def test_verify_internal_error_propagates(monkeypatch):
    # An IndexError raised mid-sweep is a bug, not a usage error.
    def broken(table, n):
        if n == 5:
            raise IndexError("evaluator bug")
        return 1

    check = dataclasses.replace(CHECKS["log-concavity"], evaluate=broken)
    monkeypatch.setitem(CHECKS, "log-concavity", check)
    with pytest.raises(IndexError, match="evaluator bug"):
        run_cli("verify", "--check", "log-concavity", "--from", "2", "--to", "8")


# One short slice per check, covering holds, equality and fails verdicts,
# two-gap margins and (f-vs-q from 8 bits) a climbed rung.  The digests are
# those of the report bytes before CheckItem became the report record.
REPORT_DIGESTS = {
    ("log-concavity", 1, 40, ()): (
        "974b4709120683586f99ba836edccc3bc5c359df84687839035f9aa3b044e5eb",
        "6586daa5e771d8f54e113500ecb4de710dc6dc0f89dc3a934d7194b6663dbed0"),
    ("strong-log-concavity", 2, 12, ()): (
        "62c505d2694cd875ecff7ec21c329324075f75c28573275c2137857a49b994ae",
        "e1bed7909077a82735b884212b355a8b633cb82ce29c9c0a0ab7a7c1febc2c7d"),
    ("multiplicative", 2, 30, ()): (
        "c4e8b945450b5182d3f6404658235b7af06df98309bfe0e77153405ca0aad16c",
        "71f35b4510b4e7f82238bef315148a344b1a90778a5363b8449fc6c99b07f262"),
    ("delta2-log", 1, 60, ()): (
        "132114a3783415a49f18b8acea625317b31a1050d1785ee58c1cb7500b2fe118",
        "dbde5902d2d6f5465d0930c04948141d3f42d17b41f221775ec9502215b79369"),
    ("higher-turan", 2, 40, ()): (
        "049613533d3be6c46f861c8e6c9972ee01ae7d75010671f186936084b282258a",
        "11819332150092149e7a455e3d16ab832838a94c628b6fa93cb0bd165abc9dc4"),
    ("u-monotone", 1, 40, ()): (
        "26b1c3277e817799527e21fd164afaee66698d0eccaf92f8c3d686fa15ae0e49",
        "715ec98ff310baadec3969f1007f34517620ae77d2c8c9236872ecde1c87c350"),
    ("fg-sandwich", 2, 80, ()): (
        "ef71c5374c23cf3c109ab2ec86ed105bc23c178cabd73e87ff5001467ee39d17",
        "f2f634ab7c81bb595172c411228dd10f689fb07eb34c31cf59c378b5d4b71c5b"),
    ("g-vs-f-shift", 2, 120, ()): (
        "7a4e20c4d8a4888634f6ad9c2e39bd8101b71b5f565059b0e5dab702e3154de5",
        "f1cbfee4d1489d3ec1d3d260020039f5189eae31abf3c373362761c61c03e609"),
    ("f-vs-q", 92, 160, ("--bits", "8")): (
        "dfc62e7d2e97a2f5a8a52918f84ccfe0941c91297bbe0f8cdc4756145d0c68a6",
        "9c950bacfa744dc8aa6123f5a33ff03deb9bd702a74889d3fb0bafc66c985224"),
}


def test_verify_report_bytes_pinned(capsys):
    assert set(name for name, *_ in REPORT_DIGESTS) == set(CHECKS)
    digests = {}
    for (name, from_n, to_n, extra) in REPORT_DIGESTS:
        pair = []
        for fmt in ("csv", "jsonl"):
            run_cli("verify", "--check", name, "--from", str(from_n), "--to", str(to_n),
                    "--format", fmt, *extra)
            pair.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        digests[(name, from_n, to_n, extra)] = tuple(pair)
    assert digests == REPORT_DIGESTS


# -- lambda ------------------------------------------------------------------------


def test_lambda_rows(capsys):
    assert run_cli("lambda") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    fields = [line.split("\t") for line in lines]
    assert fields[0][0] == "2" and fields[0][1].startswith("7.578")
    assert fields[1][1].startswith("2.566")
    assert fields[2][1].startswith("1.550")
    assert fields[3][0] == "5" and fields[3][1].startswith("1.117")


# -- campaign -----------------------------------------------------------------------


def test_suites_defined():
    assert set(SUITES) == {"paper-desk", "paper-full"}
    desk_names = [spec.name for spec in SUITES["paper-desk"]]
    for name in ("log-concavity", "strong-log-concavity", "multiplicative",
                 "delta2-log", "higher-turan", "fg-sandwich", "g-vs-f-shift", "f-vs-q"):
        assert name in desk_names
    full = {spec.name: spec for spec in SUITES["paper-full"]}
    assert full["f-vs-q"].to_n == 30984


def test_campaign_scaled_down(tmp_path, capsys, monkeypatch):
    # Same machinery as the desk suite, desk ranges shrunk so the integration
    # path (build table, run all checks, serialize, aggregate exit code) stays
    # a quick test.
    tiny = [
        CheckSpec("log-concavity", 2, 60),
        CheckSpec("strong-log-concavity", 2, 30, params={"m_policy": 1}),
        CheckSpec("multiplicative", 2, 30, params={"a_max": 30}),
        CheckSpec("delta2-log", 2, 60),
        CheckSpec("higher-turan", 16, 60),
        CheckSpec("u-monotone", 18, 60),
        CheckSpec("fg-sandwich", 55, 70),
        CheckSpec("g-vs-f-shift", 2, 40),
        CheckSpec("f-vs-q", 92, 110),
    ]
    monkeypatch.setitem(SUITES, "paper-desk", tiny)
    out = tmp_path / "campaign.jsonl"
    code = run_cli("campaign", "--suite", "paper-desk", "--format", "jsonl",
                   "--out", str(out))
    captured = capsys.readouterr()
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    names = {r["check"] for r in records}
    assert names == {spec.name for spec in tiny}
    assert captured.err.count("\n") == len(tiny)  # one summary line per check


def test_campaign_has_no_bits_flag(capsys):
    # Suites fix their own starting precision; a --bits flag would be ignored.
    assert run_cli("campaign", "--bits", "256") == EXIT_USAGE
    assert "--bits" in capsys.readouterr().err


# -- records and exit codes ------------------------------------------------------------


def test_write_report_writes_item_fields():
    item = CheckItem("fg-sandwich", "n=55", Verdict.HOLDS, "1.23456e-7", 128)
    assert CheckItem.__slots__ == CSV_HEADER  # slotted, fields in column order
    stream = io.StringIO()
    write_report([item], "csv", stream)
    assert stream.getvalue() == (
        "check,subject,verdict,margin,precision_bits\n"
        "fg-sandwich,n=55,holds,1.23456e-7,128\n")
    stream = io.StringIO()
    write_report([item], "jsonl", stream)
    assert stream.getvalue() == (
        '{"check": "fg-sandwich", "margin": "1.23456e-7", "precision_bits": 128, '
        '"subject": "n=55", "verdict": "holds"}\n')


def test_csv_quoting_round_trip():
    item = CheckItem("x", 'weird,"subject"', Verdict.HOLDS, "-1", 0)
    stream = io.StringIO()
    write_report([item], "csv", stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    assert rows[1] == ["x", 'weird,"subject"', "holds", "-1", "0"]


def test_exit_code_for_synthetic_results():
    spec = CheckSpec("log-concavity", 1, 1)

    def result(verdict):
        return CheckResult(spec, [CheckItem("log-concavity", "n=1", verdict, "0", 0)], 0.0)

    assert exit_code_for([result(Verdict.HOLDS)]) == EXIT_OK
    assert exit_code_for([result(Verdict.EQUALITY)]) == EXIT_OK
    assert exit_code_for([result(Verdict.FAILS)]) == EXIT_FAILS
    assert exit_code_for([result(Verdict.UNDECIDED)]) == EXIT_UNDECIDED
    assert exit_code_for([result(Verdict.FAILS), result(Verdict.UNDECIDED)]) == EXIT_FAILS


def test_records_from_results(desk_table):
    from overpart import check_log_concavity

    result = check_log_concavity(desk_table, 2, 4)
    records = records_from_results([result])
    assert [r.subject for r in records] == ["n=2", "n=3", "n=4"]
    assert records[0].check == "log-concavity"
    assert all(records[i] is result.items[i] for i in range(3))
