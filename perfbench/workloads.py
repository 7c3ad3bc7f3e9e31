"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its input files in ``setup``, runs one timed iteration
in ``run`` and checks that iteration's outputs against ``references.json`` in
``check``, outside the timed region.  Untraced iterations of ``table-31000``
and ``desk-campaign`` go through ``overpart.cli.main``, as a user of ``opart``
would; traced iterations make the same calls into each layer's public
functions directly, each in a span, and must produce the same bytes.

Only entry points that the package keeps are called: ``cli.main``,
``build_table``/``save_table``/``load_table``, the nine ``check_*``
functions, ``records_from_results``/``write_report``,
``rademacher_truncation``, ``truncation_error_bound`` and
``solve_lambda_table``.  No ``workers=`` or ``--jobs`` is passed.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

# The paper-desk suite in report order: check, function, range arguments,
# keywords.  The traced desk run calls these directly; the CSV digest check
# shows that the result is byte for byte what `opart campaign` writes.
DESK_CALLS = (
    ("log-concavity", "check_log_concavity", (2, 5000), {}),
    ("strong-log-concavity", "check_strong_log_concavity", (2, 300), {"m_policy": 1}),
    ("multiplicative", "check_multiplicative", (300, 300), {}),
    ("delta2-log", "check_delta2_log", (2, 5000), {}),
    ("higher-turan", "check_higher_turan", (16, 5000), {}),
    ("u-monotone", "check_u_monotone", (18, 2000), {}),
    ("fg-sandwich", "check_fg_sandwich", (55, 2000), {}),
    ("g-vs-f-shift", "check_g_vs_f_shift", (2, 5614), {}),
    ("f-vs-q", "check_f_vs_q", (92, 5000), {}),
)
DESK_TABLE_MAX = 5620
START_BITS = 128  # the CLI's default --bits, where every desk ladder starts
RUNGS = (128, 256, 512, 1024, 2048, 4096, 8192)

# Kernel probe: each interval check is called at every rung on one slice of
# its claimed desk range; the seed picks the slice.
KERNEL_CHECKS = (
    ("delta2-log", "check_delta2_log", 2, 5000),
    ("fg-sandwich", "check_fg_sandwich", 55, 2000),
    ("g-vs-f-shift", "check_g_vs_f_shift", 2, 5614),
    ("f-vs-q", "check_f_vs_q", 92, 5000),
)
KERNEL_SLICE = 200


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(what)


@dataclass
class Context:
    op: object            # the overpart package
    cli: object           # overpart.cli
    work: Path            # scratch directory for input and output files
    refs: Dict            # this workload's entry in references.json
    tracer: object        # spans.Tracer or spans.NullTracer
    tally: Tally = field(default_factory=Tally)
    counts: Dict[str, float] = field(default_factory=dict)

    def record_counts(self, counts: Dict[str, float]) -> None:
        """Keep per-layer counts; a count that changes between iterations is
        a failure, since the same inputs must give the same counts."""
        for name, value in counts.items():
            if name in self.counts and self.counts[name] != value:
                self.tally.check(False, f"{name} changed from {self.counts[name]} to {value}")
            self.counts[name] = value


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class TableWorkload:
    """`opart table --max 31000 --out F`, then `opart value 31000 --table F`."""

    name = "table-31000"
    max_n = 31000
    items = max_n + 1   # table indices per iteration
    ops = 2             # write the table, read a value back

    def setup(self, ctx: Context) -> None:
        self.path = ctx.work / "pbar-31000.tbl"

    def run(self, ctx: Context, traced: bool):
        if traced:
            op, call = ctx.op, ctx.tracer.call
            table = call("exact_core.build_table", op.build_table, self.max_n)
            digest = call("exact_core.save_table", op.save_table, table, self.path)
            loaded = call("exact_core.load_table", op.load_table, self.path)
            return 0, digest, 0, str(loaded[self.max_n])
        table_out, value_out = io.StringIO(), io.StringIO()
        with redirect_stdout(table_out):
            table_rc = ctx.cli.main(["table", "--max", str(self.max_n), "--out", str(self.path)])
        with redirect_stdout(value_out):
            value_rc = ctx.cli.main(["value", str(self.max_n), "--table", str(self.path)])
        digest = table_out.getvalue().rpartition("sha256=")[2].strip()
        return table_rc, digest, value_rc, value_out.getvalue().strip()

    def check(self, ctx: Context, outcome) -> None:
        table_rc, digest, value_rc, value = outcome
        refs = ctx.refs
        ctx.tally.check(table_rc == 0 and digest == refs["payload_sha256"]
                        and sha256_file(self.path) == refs["file_sha256"],
                        f"table file differs (exit {table_rc}, digest {digest})")
        ctx.tally.check(value_rc == 0 and value == refs["value"],
                        f"pbar({self.max_n}) read back differs (exit {value_rc})")
        ctx.record_counts({"exact_core.file_bytes": self.path.stat().st_size})


def desk_counts(results) -> Dict[str, int]:
    """Subjects per check, subjects per settling rung and per verdict."""
    counts = Counter()
    for (name, *_), result in zip(DESK_CALLS, results):
        counts[f"verifiers.{name}.subjects"] = len(result.items)
        for item in result.items:
            verdict = str(item.verdict)
            if verdict == "undecided":
                rung = "undecided"
            else:
                rung = str(item.precision_bits) if item.precision_bits else "exact"
            counts[f"verifiers.rung.{rung}"] += 1
            counts[f"verifiers.verdict.{verdict}"] += 1
    interval = sum(counts[f"verifiers.rung.{rung}"] for rung in RUNGS + ("undecided",))
    first = counts[f"verifiers.rung.{START_BITS}"]
    return {**counts, "verifiers.first_rung_ratio": first / interval if interval else 0.0}


class DeskWorkload:
    """`opart campaign --suite paper-desk --table F --out R`, F = pbar(0..5620)."""

    name = "desk-campaign"
    items = 119134      # certified subjects per iteration
    ops = 1

    def setup(self, ctx: Context) -> None:
        self.table_path = ctx.work / "pbar-5620.tbl"
        self.report_path = ctx.work / "paper-desk.csv"
        op, call = ctx.op, ctx.tracer.call
        table = call("exact_core.build_table", op.build_table, DESK_TABLE_MAX)
        call("exact_core.save_table", op.save_table, table, self.table_path)
        ctx.tally.check(sha256_file(self.table_path) == ctx.refs["table_file_sha256"],
                        "pbar(0..5620) table file differs")
        ctx.record_counts({"exact_core.file_bytes": self.table_path.stat().st_size})

    def run(self, ctx: Context, traced: bool):
        if not traced:
            with redirect_stderr(io.StringIO()):  # per-check summaries
                code = ctx.cli.main(["campaign", "--suite", "paper-desk",
                                     "--table", str(self.table_path),
                                     "--out", str(self.report_path)])
            return code == 0, None
        op, cli, tracer = ctx.op, ctx.cli, ctx.tracer
        table = tracer.call("exact_core.load_table", op.load_table, self.table_path)
        results = []
        for name, function, bounds, keywords in DESK_CALLS:
            results.append(tracer.call(f"verifiers.{name}", getattr(op, function),
                                       table, *bounds, **keywords))
        records = tracer.call("cli.records_from_results", cli.records_from_results, results)
        with tracer.span("cli.write_report"), open(self.report_path, "w", newline="") as fh:
            cli.write_report(records, "csv", fh)
        return all(result.ok for result in results), results

    def check(self, ctx: Context, outcome) -> None:
        all_hold, results = outcome
        ctx.tally.check(all_hold and sha256_file(self.report_path) == ctx.refs["csv_sha256"],
                        "paper-desk report differs or has fails or undecided verdicts")
        counts = {"cli.report_bytes": self.report_path.stat().st_size}
        if results is not None:
            counts.update(desk_counts(results))
        ctx.record_counts(counts)


class SeriesWorkload:
    """Certified cutoff-3 truncation and its error bound for n = 1..2000 at
    256 bits, then the certified pairwise thresholds."""

    name = "series-2000"
    max_n = 2000
    items = max_n       # series indices per iteration
    ops = max_n + 2     # one containment per n, the rounding count, the thresholds

    def setup(self, ctx: Context) -> None:
        table = ctx.tracer.call("exact_core.build_table", ctx.op.build_table, self.max_n)
        self.pbar = [table[n] for n in range(self.max_n + 1)]
        digest = hashlib.sha256(",".join(map(str, self.pbar)).encode()).hexdigest()
        ctx.tally.check(digest == ctx.refs["pbar_sha256"], "pbar(0..2000) differs")

    def run(self, ctx: Context, traced: bool):
        op, call = ctx.op, ctx.tracer.call
        rows = []
        for n in range(1, self.max_n + 1):
            truncation = call("asymptotics.rademacher_truncation",
                              op.rademacher_truncation, op.SeriesParams(n, 3, 256))
            bound = call("asymptotics.truncation_error_bound",
                         op.truncation_error_bound, n, 3, precision_bits=256)
            rows.append((n, truncation, bound))
        return rows, call("verifiers.solve_lambda_table", op.solve_lambda_table)

    def check(self, ctx: Context, outcome) -> None:
        rows, thresholds = outcome
        contained = rounds_exact = 0
        for n, truncation, bound in rows:
            exact = self.pbar[n]
            inside = (abs(exact - truncation.midpoint_fraction())
                      <= bound.hi_fraction() + truncation.width_fraction())
            ctx.tally.check(inside, f"pbar({n}) outside its truncation bound")
            contained += inside
            rounds_exact += truncation.nearest_int() == exact
        ctx.tally.check(rounds_exact == ctx.refs["rounds_exact"],
                        f"rounding recovers pbar(n) at {rounds_exact} indices")
        entries = {str(a): [str(interval.lo_fraction()), str(interval.hi_fraction())]
                   for a, interval in sorted(thresholds.entries.items())}
        ctx.tally.check(entries == ctx.refs["lambda"], f"thresholds differ: {entries}")
        ctx.record_counts({"asymptotics.contained": contained,
                           "asymptotics.rounds_exact": rounds_exact})


WORKLOADS = {w.name: w for w in (TableWorkload, DeskWorkload, SeriesWorkload)}


def kernel_probe(ctx: Context, seed: int) -> None:
    """Time each interval check at every rung on a seed-picked slice of
    KERNEL_SLICE subjects; each call is a root span ``kernel.<check>.<bits>``."""
    table = ctx.op.build_table(DESK_TABLE_MAX)
    rng = random.Random(seed)
    for name, function, low, high in KERNEL_CHECKS:
        start = rng.randint(low, high - KERNEL_SLICE + 1)
        stop = start + KERNEL_SLICE - 1
        for bits in RUNGS:
            result = ctx.tracer.call(f"kernel.{name}.{bits}", getattr(ctx.op, function),
                                     table, start, stop, precision_bits=bits)
            ctx.tally.check(len(result.items) == KERNEL_SLICE
                            and all(str(item.verdict) == "holds" for item in result.items),
                            f"{name} at {bits} bits on n={start}..{stop} not all holds")
