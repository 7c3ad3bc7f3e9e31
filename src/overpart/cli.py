"""Command-line front end.

Subcommands: ``table`` (build and persist a count table), ``value`` (one exact
count), ``approx`` (truncated series with its error bound against the exact
value), ``verify`` (run one named inequality over a range), ``lambda`` (the
certified pairwise thresholds) and ``campaign`` (a named suite of checks).

Reports are CSV (RFC 4180, header row) or JSONL, one line per subject: a
:class:`~overpart.verifiers.CheckItem` written field by field in CSV_HEADER
order, with the certified margin as a decimal string (exact integers for exact
checks, directed-rounded scientific notation otherwise).  Exit codes: 0 when
nothing failed and nothing was undecided, 3 on any failed verdict, 4 when the
only blemishes are undecided verdicts, 2 on usage errors.

The environment variable ``OPART_TABLE`` supplies a default table file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import closing, nullcontext
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Set, TextIO

from . import exact_core
from .exact_core import (OverpartitionTable, TableFormatError, atomic_output, build_table,
                         load_table, save_table)
from .intervals import DEFAULT_BITS, directed_decimal
from .asymptotics import (
    SeriesParams,
    UndecidedRealError,
    rademacher_truncation,
    truncation_error_bound,
)
from .verifiers import (
    CHECK_NAMES,
    CHECKS,
    CheckItem,
    CheckResult,
    CheckSpec,
    Verdict,
    iter_campaign,
    solve_lambda_table,
)

ENV_TABLE = "OPART_TABLE"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FAILS = 3
EXIT_UNDECIDED = 4

CSV_HEADER = ("check", "subject", "verdict", "margin", "precision_bits")


def records_from_results(results: Iterable[CheckResult]) -> List[CheckItem]:
    """Every result's items in order: the report lines themselves, not copies."""
    return [item for result in results for item in result.items]


def write_report(items: Iterable[CheckItem], fmt: str, stream: TextIO) -> None:
    rows = map(attrgetter(*CSV_HEADER), items)
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    elif fmt == "jsonl":
        for row in rows:
            stream.write(json.dumps(dict(zip(CSV_HEADER, row)), sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def exit_code_for(verdicts: Set[Verdict]) -> int:
    return (EXIT_FAILS if Verdict.FAILS in verdicts
            else EXIT_UNDECIDED if Verdict.UNDECIDED in verdicts else EXIT_OK)


# -- table sourcing ------------------------------------------------------------------


def _resolve_table(path: Optional[str], needed_max_n: int) -> OverpartitionTable:
    """Load the table named by --table/OPART_TABLE when it covers the need,
    else build on the fly."""
    candidate = path or os.environ.get(ENV_TABLE)
    if candidate:
        table = load_table(candidate)
        if table.max_n < needed_max_n:
            raise TableFormatError(
                f"table {candidate} stops at {table.max_n}, need {needed_max_n}")
        return table
    return build_table(needed_max_n)


# -- subcommands ---------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.max < 0:
        print("error: --max must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    table = build_table(args.max)
    digest = save_table(table, args.out)
    print(f"wrote {args.out}: max_n={table.max_n} sha256={digest}")
    return EXIT_OK


def cmd_value(args) -> int:
    if args.n < 0:
        print("error: n must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    table = _resolve_table(args.table, args.n)
    print(table[args.n])
    return EXIT_OK


def cmd_approx(args) -> int:
    try:
        params = SeriesParams(n=args.n, N=args.terms, precision_bits=args.bits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        trunc = rademacher_truncation(params)
    except UndecidedRealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    bound = truncation_error_bound(args.n, args.terms, precision_bits=args.bits)
    table = _resolve_table(args.table, args.n)
    exact = table[args.n]
    midpoint = trunc.midpoint_fraction()
    deviation = abs(exact - midpoint)
    print(f"truncation = {directed_decimal(trunc.lo_fraction(), 20)}"
          f" .. {directed_decimal(trunc.hi_fraction(), 20, round_up=True)}"
          f"  (cutoff {args.terms}, {args.bits} bits)")
    print(f"error bound <= {directed_decimal(bound.hi_fraction(), 12, round_up=True)}")
    print(f"exact = {exact}")
    within = deviation <= bound.hi_fraction() + trunc.width_fraction()
    print(f"|exact - midpoint| = {directed_decimal(deviation, 12, round_up=True)}"
          f"  within bound: {'yes' if within else 'NO'}")
    return EXIT_OK


def _run(specs: Sequence[CheckSpec], args) -> int:
    """Resolve the table the specs read, run them as one campaign and write each
    result's items as it arrives, keeping only its summary and verdicts."""
    top = max(spec.table_top for spec in specs)
    table = _resolve_table(args.table, top) if top else None
    summaries, verdicts = [], set()

    def items(results: Iterable[CheckResult]) -> Iterator[CheckItem]:
        for result in results:
            summaries.append(result.summary())
            verdicts.update(item.verdict for item in result.items)
            yield from result.items
            del result  # before the campaign builds the next one

    report = atomic_output(args.out, newline="") if args.out else nullcontext(sys.stdout)
    with closing(iter_campaign(table, specs)) as results, report as stream:
        write_report(items(results), args.format, stream)
    print(*summaries, sep="\n", file=sys.stderr)
    return exit_code_for(verdicts)


def cmd_verify(args) -> int:
    params = {"m_policy": args.m_policy} if "m_policy" in CHECKS[args.check].params else {}
    try:
        spec = CheckSpec(args.check, args.from_n, args.to_n, args.bits, params)
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _run([spec], args)


def cmd_lambda(args) -> int:
    table = solve_lambda_table()
    for a, interval in sorted(table.entries.items()):
        mid = interval.midpoint_fraction()
        width = interval.width_fraction()
        print(f"{a}\t{float(mid):.6f}\twidth<={directed_decimal(width, 3, round_up=True)}")
    return EXIT_OK


# Claimed ranges only, so a clean reproduction exits 0; probes below the
# claimed onsets (third-order 2..15, ratio monotonicity 2..17) are available
# through `verify` and are asserted by the test suite.
DESK_SUITE = [
    CheckSpec("log-concavity", 2, 5000),
    CheckSpec("strong-log-concavity", 2, 300, params={"m_policy": 1}),
    CheckSpec("multiplicative", 2, 300, params={"a_max": 300}),
    CheckSpec("delta2-log", 2, 5000),
    CheckSpec("higher-turan", 16, 5000),
    CheckSpec("u-monotone", 18, 2000),
    CheckSpec("fg-sandwich", 55, 2000),
    CheckSpec("g-vs-f-shift", 2, 5614),
    CheckSpec("f-vs-q", 92, 5000),
]

FULL_SUITE = [spec if spec.name != "f-vs-q" else CheckSpec("f-vs-q", 92, 30984)
              for spec in DESK_SUITE]

SUITES = {"paper-desk": DESK_SUITE, "paper-full": FULL_SUITE}


def cmd_campaign(args) -> int:
    return _run(SUITES[args.suite], args)


# -- parser ---------------------------------------------------------------------------


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--out", help="report file (default: stdout)")
    parser.add_argument("--table", help=f"table file (default: ${ENV_TABLE} or build)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opart",
        description="Exact and interval-certified computations for overpartition counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="build and persist an exact count table")
    p_table.add_argument("--max", type=int, required=True)
    p_table.add_argument("--out", required=True)
    p_table.set_defaults(func=cmd_table)

    p_value = sub.add_parser("value", help="print one exact count")
    p_value.add_argument("n", type=int)
    p_value.add_argument("--table", help=f"table file (default: ${ENV_TABLE} or build)")
    p_value.set_defaults(func=cmd_value)

    p_approx = sub.add_parser("approx", help="truncated series with error bound")
    p_approx.add_argument("n", type=int)
    p_approx.add_argument("--terms", type=int, default=3,
                          help="odd series cutoff (default 3)")
    p_approx.add_argument("--bits", type=int, default=256)
    p_approx.add_argument("--table", help=f"table file (default: ${ENV_TABLE} or build)")
    p_approx.set_defaults(func=cmd_approx)

    p_verify = sub.add_parser("verify", help="run one named inequality check")
    p_verify.add_argument("--check", required=True, choices=CHECK_NAMES)
    p_verify.add_argument("--from", dest="from_n", type=int, required=True)
    p_verify.add_argument("--to", dest="to_n", type=int, required=True)
    p_verify.add_argument("--m-policy", dest="m_policy", type=int, choices=(1, 2), default=1)
    p_verify.add_argument("--bits", type=int, default=DEFAULT_BITS,
                          help="starting interval precision")
    _add_report_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_lambda = sub.add_parser("lambda", help="certified pairwise thresholds")
    p_lambda.set_defaults(func=cmd_lambda)

    p_campaign = sub.add_parser("campaign", help="run a named check suite")
    p_campaign.add_argument("--suite", choices=sorted(SUITES), default="paper-desk")
    _add_report_flags(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (TableFormatError, OSError, exact_core.MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
