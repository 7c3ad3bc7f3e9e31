"""Campaign engine: run named inequalities over ranges with certified verdicts.

Each check sweeps a range of indices (or index pairs) and produces one of four
verdicts per subject: ``holds``, ``equality``, ``fails`` or ``undecided``.
Checks whose expression is rational in the table values run in exact integer
arithmetic and can never be undecided; the rest certify signs with interval
arithmetic on the adaptive precision ladder of :mod:`overpart.intervals`
(double until resolved, undecided past the cap, never guessed).  Equality is
deliberately its own verdict: the n = 2 log-concavity equality, the
(n, m) = (2, 1) case and the third-order zeros at n = 4, 5 are findings a
report must surface, not fold into "holds".

Every check is one entry of the ``CHECKS`` registry, which holds its lowest n,
the table it needs, its subjects and its per-subject evaluator.  A
:class:`CheckSpec` is validated against its entry when it is built, and
records the table it needs; :func:`run_campaign` checks that the table covers
every spec, then runs each exact spec in one pass over its subjects and the
subjects of all interval specs as one sweep, in (sweep index, spec position)
order; :func:`run_check` is a campaign of one spec.  The interval sweep is cut
into contiguous blocks of the sweep index, one forked worker per available
CPU, while the caller runs the exact specs; the caller collects the blocks in
order, so the items, and the report, do not depend on the number of workers.

The interval evaluators (``delta2-log`` here, the envelope gaps in
:mod:`overpart.ratio_bounds`) and the lambda threshold gap compute on
outward-rounded ``libmpi`` endpoint tuples, and every sign, the lambda
bisection's included, is read off those endpoints by the one certify step
:func:`~overpart.intervals.precision_ladder`; margins are picked among the raw
endpoints and rendered directed.  The tests keep each formula's
interval-context form as a bit-for-bit oracle.  Each block of a campaign's
sweep gets one :class:`~overpart.ratio_bounds.KernelData` per precision rung,
shared by all its checks, so the envelope checks at one index compute mu, the
envelope and the window once between them; only the few values next to a
block's first index are computed again by that block.  It is dropped when the
block ends.
"""

from __future__ import annotations

import enum
import heapq
import os
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import dropwhile, repeat, takewhile, zip_longest
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from mpmath.libmp import mpf_cmp, mpf_sign
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_one,
    mpi_pi,
    mpi_sqrt,
    mpi_sub,
)

from .exact_core import OverpartitionTable, check_int
from .intervals import (
    DEFAULT_BITS,
    MAX_BITS,
    CertifiedInterval,
    check_precision,
    int_mpi,
    precision_ladder,
    rational_mpi,
    render_endpoint,
)
from .ratio_bounds import (
    KernelData,
    f_vs_q_gaps_raw,
    fg_sandwich_gaps_raw,
    g_vs_f_shift_gaps_raw,
    higher_turan_integer,
    u_ratio,
)


class Verdict(str, enum.Enum):
    HOLDS = "holds"
    EQUALITY = "equality"
    FAILS = "fails"
    UNDECIDED = "undecided"

    def __str__(self) -> str:  # the plain value, as reports write it
        return self.value


@dataclass(frozen=True)
class CheckSpec:
    """A registered inequality, a range and a start precision, validated when
    built: IndexError when the range starts below the check's lowest n,
    ValueError on anything else.  ``table_top`` is the highest index of pbar
    the spec reads, 0 when it reads no table."""

    name: str
    from_n: int
    to_n: int
    precision_bits: int = DEFAULT_BITS
    params: Mapping[str, int] = field(default_factory=dict)
    table_top: int = field(init=False, compare=False)

    def __post_init__(self):
        check = CHECKS.get(self.name)
        if check is None:
            raise ValueError(f"unknown check {self.name!r}")
        foreign = sorted(set(self.params) - set(check.params))
        if foreign:
            raise ValueError(f"{self.name} takes no parameter {', '.join(map(repr, foreign))}")
        for key, value in (("from_n", self.from_n), ("to_n", self.to_n), *self.params.items()):
            if type(value) is not int:
                raise ValueError(f"{key} must be an int, got {value!r}")
        if self.from_n > self.to_n:
            raise ValueError(f"empty range {self.from_n}..{self.to_n}")
        if self.from_n < check.min_n:
            raise IndexError(f"{self.name} needs n >= {check.min_n}")
        if check_precision(self.precision_bits) > MAX_BITS:
            raise ValueError(f"precision must be <= {MAX_BITS} bits, got {self.precision_bits}")
        object.__setattr__(self, "table_top", check.table_top(self))


@dataclass(frozen=True, slots=True)
class CheckItem:
    """One report line, its fields in column order; the CLI writes it as is."""

    check: str
    subject: str
    verdict: Verdict
    margin: str
    precision_bits: int


@dataclass
class CheckResult:
    """One spec's items in subject order; ``wall_time`` is the busy time of
    its own subjects within the campaign that ran it, summed over the blocks
    of its sweep, which may have run at the same time."""

    spec: CheckSpec
    items: List[CheckItem]
    wall_time: float

    @property
    def counterexamples(self) -> List[str]:
        return [item.subject for item in self.items if item.verdict is Verdict.FAILS]

    @property
    def undecided(self) -> List[str]:
        return [item.subject for item in self.items if item.verdict is Verdict.UNDECIDED]

    @property
    def equalities(self) -> List[str]:
        return [item.subject for item in self.items if item.verdict is Verdict.EQUALITY]

    def count(self, verdict: Verdict) -> int:
        return sum(1 for item in self.items if item.verdict is verdict)

    @property
    def ok(self) -> bool:
        """True when nothing failed and nothing was left undecided."""
        return not self.counterexamples and not self.undecided

    def summary(self) -> str:
        return (f"{self.spec.name} [{self.spec.from_n}..{self.spec.to_n}]: "
                f"holds={self.count(Verdict.HOLDS)} equality={self.count(Verdict.EQUALITY)} "
                f"fails={self.count(Verdict.FAILS)} undecided={self.count(Verdict.UNDECIDED)} "
                f"({self.wall_time:.2f}s)")


# -- per-subject verdicts -----------------------------------------------------------


def _exact_outcome(value: int) -> Tuple[Verdict, str, int]:
    if value > 0:
        verdict = Verdict.HOLDS
    elif value == 0:
        verdict = Verdict.EQUALITY
    else:
        verdict = Verdict.FAILS
    return verdict, str(value), 0


_mpf_order = cmp_to_key(mpf_cmp)


def _interval_outcome(gaps_at: Callable, start_bits: int,
                      kernel_data: Callable[[int], KernelData]) -> Tuple[Verdict, str, int]:
    """Certify that every gap ``gaps_at(kernel_data(bits))`` returns is
    positive; fails on any certified negative gap, undecided when the ladder's
    cap is reached with neither, with an unbounded margin when the last rung
    left a square root's domain.  The margin is the extreme endpoint, picked
    among the raw endpoints and rendered directed."""
    bits, gaps = precision_ladder(lambda bits: gaps_at(kernel_data(bits)), start_bits)
    if gaps is None:
        return Verdict.UNDECIDED, "-inf..+inf", bits
    negative = [hi for _, hi in gaps if mpf_sign(hi) < 0]
    if negative:
        return Verdict.FAILS, render_endpoint(min(negative, key=_mpf_order), round_up=True), bits
    lo, hi = min(gaps, key=lambda gap: _mpf_order(gap[0]))
    if mpf_sign(lo) > 0:
        return Verdict.HOLDS, render_endpoint(lo, round_up=False), bits
    margin = render_endpoint(lo, round_up=False) + ".." + render_endpoint(hi, round_up=True)
    return Verdict.UNDECIDED, margin, bits


# -- subjects and evaluators --------------------------------------------------------
#
# An exact evaluator returns an integer whose sign is the verdict.  An interval
# evaluator returns gaps(data), the endpoint tuples that must all be positive,
# re-evaluated at each rung of the ladder with that rung's KernelData.


def _indices(spec: CheckSpec) -> Iterable[Tuple[int, str, int]]:
    return ((n, f"n={n}", n) for n in range(spec.from_n, spec.to_n + 1))


def _strong_pairs(spec: CheckSpec) -> Iterable[Tuple[int, str, Tuple[int, int]]]:
    m_policy = spec.params.get("m_policy", 1)
    return ((n, f"n={n},m={m}", (n, m)) for n in range(spec.from_n, spec.to_n + 1)
            for m in range(m_policy, n))


def _strong_top(spec: CheckSpec) -> int:
    m_policy = spec.params.get("m_policy", 1)
    if m_policy not in (1, 2):
        raise ValueError(f"m_policy must be 1 or 2, got {m_policy}")
    return 2 * spec.to_n - 1


def _multiplicative_pairs(spec: CheckSpec) -> Iterable[Tuple[int, str, Tuple[int, int]]]:
    a_max = spec.params.get("a_max", spec.to_n)
    return ((a, f"a={a},b={b}", (a, b)) for a in range(spec.from_n, a_max + 1)
            for b in range(a, spec.to_n + 1))


def _multiplicative_top(spec: CheckSpec) -> int:
    a_max, b_max = spec.params.get("a_max", spec.to_n), spec.to_n
    if not spec.from_n <= a_max <= b_max:
        raise ValueError(f"need from_n <= a_max <= b_max, got {spec.from_n}, {a_max}, {b_max}")
    return a_max + b_max


def _log_concavity(table: OverpartitionTable, n: int) -> int:
    return table[n] ** 2 - table[n - 1] * table[n + 1]


def _strong_log_concavity(table: OverpartitionTable, pair: Tuple[int, int]) -> int:
    n, m = pair
    return table[n] ** 2 - table[n - m] * table[n + m]


def _multiplicative(table: OverpartitionTable, pair: Tuple[int, int]) -> int:
    a, b = pair
    return table[a] * table[b] - table[a + b]


def _u_monotone(table: OverpartitionTable, n: int) -> int:
    return table[n] ** 3 * table[n + 2] - table[n - 1] * table[n + 1] ** 3


def _delta2_log(table: OverpartitionTable, n: int) -> Callable:
    outer = table[n - 1] * table[n + 1]
    square = table[n] ** 2

    def gaps(data: KernelData):
        # outer pi + 4 n^{3/2} (outer - square)
        prec = data.prec
        n_mpi = int_mpi(n, prec)
        n32 = mpi_mul(mpi_sqrt(n_mpi, prec), n_mpi, prec)
        scaled = mpi_mul(mpi_mul(int_mpi(4, prec), n32, prec), int_mpi(outer - square, prec), prec)
        return [mpi_add(mpi_mul(int_mpi(outer, prec), mpi_pi(prec), prec), scaled, prec)]

    return gaps


def _fg_sandwich(table: OverpartitionTable, n: int) -> Callable:
    u = u_ratio(table, n)
    return lambda data: fg_sandwich_gaps_raw(data, n, u)


def _g_vs_f_shift(table: Optional[OverpartitionTable], n: int) -> Callable:
    return lambda data: g_vs_f_shift_gaps_raw(data, n)


def _f_vs_q(table: OverpartitionTable, n: int) -> Callable:
    u = u_ratio(table, n)
    return lambda data: f_vs_q_gaps_raw(data, n, u)


# -- the registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """Everything the engine knows about one named inequality.

    ``table_top(spec)`` is the highest index of pbar the spec reads (0 when
    the check reads no table) and raises ValueError on parameters the check
    does not accept; ``subjects(spec)`` yields (sweep index, label, subject) in
    report order, the index nondecreasing: n for an index or an (n, m) pair, a
    for an (a, b) pair; ``evaluate(table, subject)`` is exact or interval as
    ``exact`` says.
    """

    name: str
    exact: bool
    min_n: int
    table_top: Callable[[CheckSpec], int]
    subjects: Callable[[CheckSpec], Iterable]
    evaluate: Callable
    params: Tuple[str, ...] = ()  # the only CheckSpec.params keys it reads


def _next(spec: CheckSpec) -> int:
    return spec.to_n + 1


def _next_two(spec: CheckSpec) -> int:
    return spec.to_n + 2


# The paper's checks in report order: name, exact, lowest n, table top,
# subjects, evaluator, params.
CHECKS: Dict[str, Check] = {check.name: check for check in (
    Check("log-concavity", True, 1, _next, _indices, _log_concavity),
    Check("strong-log-concavity", True, 2, _strong_top, _strong_pairs, _strong_log_concavity,
          ("m_policy",)),
    Check("multiplicative", True, 2, _multiplicative_top, _multiplicative_pairs, _multiplicative,
          ("a_max",)),
    Check("delta2-log", False, 1, _next, _indices, _delta2_log),
    Check("higher-turan", True, 1, _next_two, _indices, higher_turan_integer),
    Check("u-monotone", True, 1, _next_two, _indices, _u_monotone),
    Check("fg-sandwich", False, 2, _next, _indices, _fg_sandwich),
    Check("g-vs-f-shift", False, 2, lambda spec: 0, _indices, _g_vs_f_shift),
    Check("f-vs-q", False, 2, _next, _indices, _f_vs_q),
)}

CHECK_NAMES = tuple(CHECKS)


def _tagged(position: int, subjects: Iterable) -> Iterable[tuple]:
    return ((index, position, label, subject) for index, label, subject in subjects)


# A block of the interval sweep gets its own worker only from this many
# subjects on: forking one costs about 12 ms, an interval subject 100-250 us.
_MIN_BLOCK = 1000


def _cpus() -> int:
    """The CPUs this process may run on; the one place the worker count is read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(indices: List[int]) -> List[Tuple[int, int]]:
    """Split the sorted sweep ``indices`` into contiguous ranges [start, stop)
    holding about equal counts of them: one range per CPU, but no more than
    one per ``_MIN_BLOCK`` indices."""
    if not indices:
        return []
    count = max(1, min(_cpus(), len(indices) // _MIN_BLOCK))
    cuts = sorted({indices[len(indices) * k // count] for k in range(1, count)} - {indices[0]})
    edges = [indices[0], *cuts, indices[-1] + 1]
    return list(zip(edges, edges[1:]))


def _sweep_block(table, checks: List[Check], specs: Sequence[CheckSpec],
                 positions: List[int], start: int, stop: int):
    """Run the subjects of the interval specs at ``positions`` whose sweep
    index lies in [start, stop), in (sweep index, spec position) order with
    one :class:`KernelData` per rung.  Returns, per spec position, its rows
    as four columns (labels, verdicts, margins, bits) and the summed seconds
    of its subjects."""
    kernel_data = lru_cache(maxsize=None)(KernelData)
    columns = [([], [], [], []) for _ in specs]
    seconds = [0.0] * len(specs)
    merged = heapq.merge(*(_tagged(position, checks[position].subjects(specs[position]))
                           for position in positions))
    block = takewhile(lambda tagged: tagged[0] < stop,
                      dropwhile(lambda tagged: tagged[0] < start, merged))
    last = time.perf_counter()
    for _, position, label, subject in block:
        gaps_at = checks[position].evaluate(table, subject)
        outcome = _interval_outcome(gaps_at, specs[position].precision_bits, kernel_data)
        for column, value in zip(columns[position], (label, *outcome)):
            column.append(value)
        now = time.perf_counter()
        seconds[position] += now - last
        last = now
    return columns, seconds


def _start_workers(blocks: List[Tuple[int, int]], *sweep) -> Iterable[tuple]:
    """Fork one worker per block and yield its pid and the read end of its
    pipe, up to the first fork the system refuses; none when there is one
    block, ``fork`` is missing, or this process runs other threads, which
    could leave a lock held in the child.  A worker pickles the block's
    columns into its pipe, or nothing when it raised, and always leaves by
    ``os._exit``: it flushes no inherited stream and never returns into the
    caller's code."""
    if len(blocks) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return
    import pickle  # only a sweep that forks pays for the import

    for block in blocks:
        reader, writer = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # fork refused: the caller runs this block and the rest
            os.close(reader)
            os.close(writer)
            return
        if pid == 0:
            try:
                with open(writer, "wb") as stream:
                    pickle.dump(_sweep_block(*sweep, *block), stream)
            finally:
                os._exit(0)
        os.close(writer)
        yield pid, open(reader, "rb")


def _receive(worker) -> Optional[tuple]:
    """What a worker sent; None without a worker, or when it raised or died."""
    if worker is None:
        return None
    import pickle

    try:
        return pickle.load(worker[1])
    except (EOFError, pickle.UnpicklingError):
        return None


def run_check(table: Optional[OverpartitionTable], spec: CheckSpec) -> CheckResult:
    """The campaign of ``spec`` alone."""
    return run_campaign(table, [spec])[0]


def run_campaign(
    table: Optional[OverpartitionTable],
    specs: Sequence[CheckSpec],
) -> List[CheckResult]:
    """Run the subjects of all specs, once ``table`` covers every spec.

    The interval subjects run as one sweep in (sweep index, spec position)
    order, so the checks share one :class:`KernelData` per precision rung.
    The sweep is cut into contiguous index blocks, one forked worker per
    available CPU, while the caller runs each exact spec in one pass over its
    own subjects.  With one block, without ``fork`` or beside other threads,
    the caller runs the block itself.  A block whose worker raised or died is
    run again by the caller, so the error is raised here; every worker is
    stopped and reaped before this returns or raises.

    Returns one result per spec, in spec order, with its items in subject
    order; its ``wall_time`` is the busy time of its own subjects, summed
    over blocks.
    """
    for spec in specs:
        if spec.table_top and (table is None or spec.table_top > table.max_n):
            have = "no table given" if table is None else f"table stops at {table.max_n}"
            raise IndexError(f"{spec.name} needs pbar(0..{spec.table_top}), {have}")
    checks = [CHECKS[spec.name] for spec in specs]
    interval = [position for position, check in enumerate(checks) if not check.exact]
    blocks = _blocks(sorted(index for position in interval
                            for index, _, _ in checks[position].subjects(specs[position])))
    sweep = (table, checks, specs, interval)
    items: List[List[CheckItem]] = [[] for _ in specs]
    seconds = [0.0] * len(specs)
    workers: list = []
    try:
        workers.extend(_start_workers(blocks, *sweep))  # each kept as soon as it is forked
        for position, (check, spec) in enumerate(zip(checks, specs)):
            if check.exact:
                began = time.perf_counter()
                items[position] = [CheckItem(spec.name, label,
                                             *_exact_outcome(check.evaluate(table, subject)))
                                   for _, label, subject in check.subjects(spec)]
                seconds[position] = time.perf_counter() - began
        for worker, block in zip_longest(workers, blocks):
            columns, spent = _receive(worker) or _sweep_block(*sweep, *block)
            for position in interval:
                items[position].extend(map(CheckItem, repeat(specs[position].name),
                                           *columns[position]))
                seconds[position] += spent[position]
            del columns  # before the next block arrives
    finally:  # the one place a worker is stopped and reaped, so no signal reaches a reused pid
        for pid, reader in workers:
            from signal import SIGTERM  # as pickle, only a sweep that forked imports it
            reader.close()
            os.kill(pid, SIGTERM)
            os.waitpid(pid, 0)
    return [CheckResult(spec=spec, items=found, wall_time=elapsed)
            for spec, found, elapsed in zip(specs, items, seconds)]


# -- the paper's checks -------------------------------------------------------------


def check_log_concavity(table: OverpartitionTable, from_n: int, to_n: int) -> CheckResult:
    """Sign of pbar(n)^2 - pbar(n-1) pbar(n+1); equality occurs at n = 2."""
    return run_check(table, CheckSpec("log-concavity", from_n, to_n))


def check_strong_log_concavity(
    table: OverpartitionTable,
    from_n: int,
    to_n: int,
    *,
    m_policy: int = 1,
) -> CheckResult:
    """Sign of pbar(n)^2 - pbar(n-m) pbar(n+m) over all pairs with
    n in the range and m_policy <= m < n.

    ``m_policy`` selects the reading of the hypothesis (m >= 1 or m >= 2);
    both are audited because the stated equality case (n, m) = (2, 1) uses
    m = 1 while the hypothesis excludes it.
    """
    return run_check(table, CheckSpec("strong-log-concavity", from_n, to_n,
                                      params={"m_policy": m_policy}))


def check_multiplicative(table: OverpartitionTable, a_max: int, b_max: int) -> CheckResult:
    """Sign of pbar(a) pbar(b) - pbar(a+b) over 2 <= a <= b, a <= a_max,
    b <= b_max."""
    return run_check(table, CheckSpec("multiplicative", 2, b_max, params={"a_max": a_max}))


def check_higher_turan(table: OverpartitionTable, from_n: int, to_n: int) -> CheckResult:
    """Exact sign of the third-order expression
    4(1-u_n)(1-u_{n+1}) - (1-u_n u_{n+1})^2 (denominator cleared)."""
    return run_check(table, CheckSpec("higher-turan", from_n, to_n))


def check_u_monotone(table: OverpartitionTable, from_n: int, to_n: int) -> CheckResult:
    """Exact sign of u_{n+1} - u_n, cleared to
    pbar(n)^3 pbar(n+2) - pbar(n-1) pbar(n+1)^3; records where the ratio
    starts increasing instead of assuming a cited range."""
    return run_check(table, CheckSpec("u-monotone", from_n, to_n))


def check_delta2_log(
    table: OverpartitionTable,
    from_n: int,
    to_n: int,
    *,
    precision_bits: int = DEFAULT_BITS,
) -> CheckResult:
    """(pbar(n-1)/pbar(n)) (1 + pi/(4 n^{3/2})) >= pbar(n)/pbar(n+1),
    rearranged to the sign of
    pbar(n-1) pbar(n+1) (4 n^{3/2} + pi) - 4 n^{3/2} pbar(n)^2
    with pi (and sqrt n) interval-valued; degree-0 homogeneous in the table."""
    return run_check(table, CheckSpec("delta2-log", from_n, to_n, precision_bits))


def check_fg_sandwich(
    table: OverpartitionTable,
    from_n: int,
    to_n: int,
    *,
    precision_bits: int = DEFAULT_BITS,
) -> CheckResult:
    """Certify lower(n) < u_n < upper(n) for the envelope pair; claimed from
    n = 55, swept wherever asked."""
    return run_check(table, CheckSpec("fg-sandwich", from_n, to_n, precision_bits))


def check_g_vs_f_shift(
    table: Optional[OverpartitionTable],
    from_n: int,
    to_n: int,
    *,
    precision_bits: int = DEFAULT_BITS,
) -> CheckResult:
    """Certify upper(n+1) < lower(n) + 1000/mu(n-1)^5 for n >= 2.

    Pure mu-arithmetic; the table argument is accepted for interface
    uniformity and unused."""
    return run_check(table, CheckSpec("g-vs-f-shift", from_n, to_n, precision_bits))


def check_f_vs_q(
    table: OverpartitionTable,
    from_n: int,
    to_n: int,
    *,
    precision_bits: int = DEFAULT_BITS,
) -> CheckResult:
    """Certify lower(n) + 1000/mu(n-1)^5 < Q(u_n), Q applied to the exact
    ratio widened to a point interval; claimed from n = 92."""
    return run_check(table, CheckSpec("f-vs-q", from_n, to_n, precision_bits))


# -- the pairwise threshold table -----------------------------------------------------


class BracketError(Exception):
    """The threshold equation failed to bracket; signals a regression in the
    S/T implementation, not a data condition."""


@dataclass(frozen=True)
class LambdaTable:
    """Certified solutions lambda_a of T_a(lambda) = log(4a) + log(S_a(lambda))
    for a in {2..5}, each an interval of width <= 1e-6."""

    entries: Dict[int, CertifiedInterval]


def pair_threshold_gap(a: int, lam: Fraction, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """T_a(lambda) - log(4a) - log(S_a(lambda)) at exact rational lambda, where
    T_a(lambda) = pi (sqrt(a) + sqrt(lambda a) - sqrt(a + lambda a)) and
    S_a(lambda) = (1 + 1/(a + lambda a)) / ((1 - 1/sqrt(a))(1 - 1/sqrt(lambda a))).

    T is increasing and S decreasing in lambda >= 1, so the gap is strictly
    increasing: a certified sign change brackets the unique root.
    """
    check_int(a, "a", 2)
    if lam < 1:
        raise ValueError(f"lambda must be at least 1, got {lam}")
    prec = check_precision(precision_bits)
    a_mpi = int_mpi(a, prec)
    lam_a = rational_mpi(lam * a, prec)
    sqrt_a = mpi_sqrt(a_mpi, prec)
    sqrt_lam_a = mpi_sqrt(lam_a, prec)
    a_plus_lam_a = mpi_add(a_mpi, lam_a, prec)
    root_sum = mpi_sub(mpi_add(sqrt_a, sqrt_lam_a, prec), mpi_sqrt(a_plus_lam_a, prec), prec)
    t_val = mpi_mul(mpi_pi(prec), root_sum, prec)
    s_num = mpi_add(mpi_one, mpi_div(mpi_one, a_plus_lam_a, prec), prec)
    s_den = mpi_mul(mpi_sub(mpi_one, mpi_div(mpi_one, sqrt_a, prec), prec),
                    mpi_sub(mpi_one, mpi_div(mpi_one, sqrt_lam_a, prec), prec), prec)
    log_4a = mpi_log(int_mpi(4 * a, prec), prec)
    gap = mpi_sub(mpi_sub(t_val, log_4a, prec), mpi_log(mpi_div(s_num, s_den, prec), prec), prec)
    return CertifiedInterval.from_mpi(gap, prec)


def _threshold_sign(a: int, lam: Fraction) -> int:
    _, gaps = precision_ladder(lambda bits: [pair_threshold_gap(a, lam, bits).mpi])
    if gaps is not None:
        (lo, hi), = gaps
        if mpf_sign(lo) > 0:
            return 1
        if mpf_sign(hi) < 0:
            return -1
    raise BracketError(f"threshold gap sign undecided at a={a}, lambda={lam}")


_LAMBDA_WIDTH = Fraction(9, 10 ** 7)  # bisection's last bracket, below LambdaTable's 1e-6


def solve_lambda_table() -> LambdaTable:
    """Bisect the strictly increasing threshold gap for a in {2..5} down to
    rational bracket width <= ``_LAMBDA_WIDTH`` (certified signs at every step)."""
    entries: Dict[int, CertifiedInterval] = {}
    for a in range(2, 6):
        lo = Fraction(1)
        if _threshold_sign(a, lo) >= 0:
            raise BracketError(f"gap not negative at lambda=1 for a={a}")
        hi = Fraction(2)
        while _threshold_sign(a, hi) < 0:
            hi *= 2
            if hi > 64:
                raise BracketError(f"no sign change below lambda=64 for a={a}")
        while hi - lo > _LAMBDA_WIDTH:
            mid = (lo + hi) / 2
            if _threshold_sign(a, mid) < 0:
                lo = mid
            else:
                hi = mid
        entries[a] = CertifiedInterval.from_pair(lo, hi, DEFAULT_BITS)
    return LambdaTable(entries=entries)
