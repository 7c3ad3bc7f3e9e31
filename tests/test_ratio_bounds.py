import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import context_kernels as oracle
import overpart
from overpart import (
    CertifiedInterval,
    DomainError,
    diagonal_gap,
    higher_turan_integer,
    jensen_cubic,
    quadratic_upper_root,
    quadratic_upper_root_exact,
    ratio_lower_bound,
    ratio_upper_bound,
    trunc_exp_lower,
    trunc_exp_upper,
    turan_quadratic_roots,
    u_ratio,
)
from overpart import intervals as iv
from overpart.ratio_bounds import (
    LOWER_TAYLOR_COEFFS,
    UPPER_TAYLOR_COEFFS,
    _envelope,
    _powers,
    _triple,
    turan_quadratic_at,
)

GOLDEN = Fraction(6180339887498949, 10 ** 16)  # approximately (sqrt(5)-1)/2


def three_halves_power(t):
    """(1 - t)^{3/2} of an interval, on the interval context."""
    ctx = oracle.context(t.precision_bits)
    return oracle.interval(ctx.sqrt((1 - oracle.ival(t, ctx)) ** 3), t.precision_bits)


# -- exact ratio --------------------------------------------------------------------


def test_u_examples(desk_table):
    assert u_ratio(desk_table, 2) == 1
    assert u_ratio(desk_table, 3) == Fraction(7, 8)
    assert u_ratio(desk_table, 4) == Fraction(48, 49)


@given(st.integers(0, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(-3, m + 3))))
@example((0, -1))
@example((40, 41))
def test_table_reads_raise_exactly_outside_the_table(m_and_n):
    # The table is the one judge of a pbar index: each read raises IndexError
    # exactly when one of the indices it reads leaves 0..m, and otherwise
    # equals its formula over the raw values.
    m, n = m_and_n
    table = overpart.build_table(m)
    p = table.values

    def turan():
        return 4 * (p[n] ** 2 - p[n - 1] * p[n + 1]) * (p[n + 1] ** 2 - p[n] * p[n + 2]) \
            - (p[n] * p[n + 1] - p[n - 1] * p[n + 2]) ** 2

    def cubic():
        d, c, b, a = p[n], 3 * p[n + 1], 3 * p[n + 2], p[n + 3]
        disc = 18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * a * c ** 3 - 27 * a * a * d * d
        return (d, c, b, a), disc

    reads = (
        ((n,), lambda: table[n], lambda: p[n]),
        ((n - 1, n, n + 1), lambda: u_ratio(table, n), lambda: Fraction(p[n - 1] * p[n + 1], p[n] ** 2)),
        ((n - 1, n, n + 1, n + 2), lambda: higher_turan_integer(table, n), turan),
        ((n, n + 1, n + 2, n + 3), lambda: jensen_cubic(table, n), cubic),
    )
    for indices, read, formula in reads:
        if all(0 <= i <= m for i in indices):
            assert read() == formula(), (indices, m)
        else:
            with pytest.raises(IndexError):
                read()


def test_u_range_check(desk_table):
    with pytest.raises(IndexError):
        u_ratio(desk_table, 0)
    with pytest.raises(IndexError):
        u_ratio(desk_table, desk_table.max_n)


def test_u_invariants(desk_table):
    for n in range(1, 2001):
        u = u_ratio(desk_table, n)
        assert u > 0
        if n >= 3:
            assert u < 1, n


# -- envelope -----------------------------------------------------------------------


def test_envelope_brackets_ratio_at_55_and_100(desk_table):
    for n in (55, 100):
        u = u_ratio(desk_table, n)
        low = ratio_lower_bound(n, 128)
        high = ratio_upper_bound(n, 128)
        assert low.hi_fraction() < u, n
        assert u < high.lo_fraction(), n


def test_envelope_margins_shrink(desk_table):
    def margins(n):
        u = u_ratio(desk_table, n)
        low, high = ratio_lower_bound(n, 128), ratio_upper_bound(n, 128)
        return u - low.hi_fraction(), high.lo_fraction() - u

    m100 = margins(100)
    m500 = margins(500)
    m2000 = margins(2000)
    assert all(m > 0 for m in m100 + m500 + m2000)
    assert m2000[0] < m500[0] < m100[0]
    assert m2000[1] < m500[1] < m100[1]


def test_envelope_lower_below_upper_sampled():
    for n in list(range(2, 60)) + [100, 500, 1000, 2500, 5614]:
        low, high = ratio_lower_bound(n, 128), ratio_upper_bound(n, 128)
        assert low.hi < high.lo, n


def test_envelope_input_validation():
    with pytest.raises(ValueError):
        ratio_lower_bound(1)
    with pytest.raises(ValueError):
        ratio_upper_bound(0)


# -- quadratic upper root and diagonal gap --------------------------------------------


def test_upper_root_exact_dyadic():
    assert quadratic_upper_root_exact(Fraction(3, 4)) == Fraction(8, 9)
    # (1 - 1/3)^3 = 8/27 is not a rational square
    assert quadratic_upper_root_exact(Fraction(1, 3)) is None
    with pytest.raises(DomainError):
        quadratic_upper_root_exact(Fraction(3, 2))


def test_upper_root_interval_matches_exact():
    t = CertifiedInterval.from_fraction(Fraction(3, 4), 128)
    q = quadratic_upper_root(t)
    assert q.contains(Fraction(8, 9))
    assert q.width_fraction() < Fraction(1, 2 ** 96)


def test_upper_root_near_one_stays_below_one():
    # Over a wide argument box the enclosure may overshoot the limit value 1
    # by at most its own width; a point argument certifies Q < 1 outright.
    t = CertifiedInterval.from_pair(
        1 - Fraction(1, 10 ** 9), 1 - Fraction(1, 10 ** 12), 128)
    q = quadratic_upper_root(t)
    assert q.hi_fraction() <= 1 + q.width_fraction()
    point = CertifiedInterval.from_fraction(1 - Fraction(1, 10 ** 9), 128)
    assert quadratic_upper_root(point).hi_fraction() < 1


def test_upper_root_domain_errors():
    with pytest.raises(DomainError):
        quadratic_upper_root(CertifiedInterval.from_fraction(Fraction(3, 2), 128))
    with pytest.raises(DomainError):
        quadratic_upper_root(CertifiedInterval.from_pair(Fraction(-1, 2), Fraction(1, 2), 128))


def test_upper_root_increasing_on_dyadic_grid():
    previous = None
    for k in range(1, 1024):
        q = quadratic_upper_root(CertifiedInterval.from_fraction(Fraction(k, 1024), 128))
        if previous is not None:
            assert previous.hi < q.lo, k
        previous = q


def test_diagonal_gap_examples_and_monotonicity():
    t = CertifiedInterval.from_fraction(Fraction(3, 4), 128)
    assert diagonal_gap(t).contains(Fraction(8, 9) - Fraction(3, 4))
    previous = None
    for k in range(1, 1024):
        p = diagonal_gap(CertifiedInterval.from_fraction(Fraction(k, 1024), 128))
        if previous is not None:
            assert p.hi < previous.lo, k  # strictly decreasing
        previous = p


def test_diagonal_gap_exceeds_three_halves_power_past_golden_ratio():
    # On ((sqrt 5 - 1)/2, 1) the gap dominates (1-t)^{3/2}.  (The reverse
    # inequality printed in the source text contradicts both its own displayed
    # identity and direct evaluation, e.g. at t = 0.8.)
    for k in range(1, 40):
        t_fraction = GOLDEN + (1 - GOLDEN) * Fraction(k, 40)
        t = CertifiedInterval.from_fraction(t_fraction, 128)
        gap = diagonal_gap(t)
        power = three_halves_power(t)
        assert gap.lo > power.hi, t_fraction


def test_diagonal_gap_below_three_halves_power_before_golden_ratio():
    for k in range(1, 12):
        t = CertifiedInterval.from_fraction(Fraction(k, 20), 128)
        gap = diagonal_gap(t)
        power = three_halves_power(t)
        assert gap.hi < power.lo, k


# -- quadratic roots --------------------------------------------------------------------


def test_quadratic_roots_exact_reference():
    lower, upper = turan_quadratic_roots(Fraction(3, 4), 128)
    assert lower.contains(0)
    assert upper.contains(Fraction(8, 9))
    assert lower.hi < upper.lo


def test_quadratic_roots_domain():
    with pytest.raises(DomainError):
        turan_quadratic_roots(Fraction(1))
    with pytest.raises(DomainError):
        turan_quadratic_roots(Fraction(5, 4))
    with pytest.raises(DomainError):
        turan_quadratic_roots(Fraction(0))


def test_quadratic_roots_window_and_positivity():
    rng = random.Random(13)
    for _ in range(25):
        u = Fraction(rng.randint(501, 999), 1000)
        lower, upper = turan_quadratic_roots(u, 128)
        # the lower root sits below u itself (so (u, Q(u)) is a positivity window)
        assert lower.hi_fraction() < u
        assert u < 1
        mid = (lower.hi_fraction() + upper.lo_fraction()) / 2
        assert turan_quadratic_at(u, mid) > 0


def test_quadratic_roots_accept_ratio_value(desk_table):
    lower, upper = turan_quadratic_roots(u_ratio(desk_table, 100), 128)
    assert lower.hi < upper.lo


# -- truncated exponentials ----------------------------------------------------------------


def test_trunc_exp_exact_values_at_minus_one():
    t = CertifiedInterval.from_fraction(-1, 128)
    upper = trunc_exp_upper(t)
    assert upper.contains(Fraction(53, 144))
    assert upper.width_fraction() < Fraction(1, 2 ** 100)
    lower = trunc_exp_lower(t)
    assert lower.contains(Fraction(53, 144) - Fraction(1, 5040))
    assert lower.contains(Fraction(103, 280))


def test_trunc_exp_brackets_exp_at_minus_one():
    t = CertifiedInterval.from_fraction(-1, 128)
    e = oracle.exp(t)
    assert trunc_exp_upper(t).lo > e.hi
    assert trunc_exp_lower(t).hi < e.lo


def test_trunc_exp_sandwich_100_negative_samples():
    rng = random.Random(17)
    for _ in range(100):
        t_fraction = -Fraction(rng.randint(1, 10 ** 4), 10 ** 3)  # in [-10, -1e-3]
        t = CertifiedInterval.from_fraction(t_fraction, 128)
        e = oracle.exp(t)
        assert trunc_exp_upper(t).lo >= e.hi, t_fraction
        assert trunc_exp_lower(t).hi <= e.lo, t_fraction


def test_trunc_exp_limit_at_zero():
    t = CertifiedInterval.from_fraction(-Fraction(1, 10 ** 9), 128)
    for value in (trunc_exp_upper(t), trunc_exp_lower(t)):
        assert abs(value.midpoint_fraction() - 1) < Fraction(1, 10 ** 8)


def test_trunc_exp_domain_guard():
    positive = CertifiedInterval.from_fraction(1, 128)
    with pytest.raises(DomainError):
        trunc_exp_upper(positive)
    with pytest.raises(DomainError):
        trunc_exp_lower(CertifiedInterval.from_pair(-1, 1, 128))


# -- cubic hyperbolicity ----------------------------------------------------------------------


def test_jensen_cubic_coefficients(desk_table):
    coeffs, _ = jensen_cubic(desk_table, 1)
    assert coeffs == (2, 12, 24, 14)


def test_jensen_cubic_range_guard(desk_table):
    with pytest.raises(IndexError):
        jensen_cubic(desk_table, desk_table.max_n - 2)


def test_jensen_cubic_hyperbolic_at_16(desk_table):
    _, disc = jensen_cubic(desk_table, 16)
    assert disc > 0


def test_discriminant_is_27_times_third_order_expression(desk_table):
    # Validate the index correspondence on 3..50 first, then hold it to 2000.
    for n in range(3, 51):
        _, disc = jensen_cubic(desk_table, n - 1)
        assert disc == 27 * higher_turan_integer(desk_table, n), n
    for n in range(51, 2001):
        _, disc = jensen_cubic(desk_table, n - 1)
        assert disc == 27 * higher_turan_integer(desk_table, n), n


@given(st.tuples(*[st.integers()] * 4))
@example((0, 0, 0, 0))
@example((1, -2, 3, -4))
def test_discriminant_is_27_times_third_order_expression_for_any_values(values):
    # The correspondence is a polynomial identity in four values, so it holds
    # for any integers, not only for overpartition counts.
    table = overpart.OverpartitionTable(values)
    assert jensen_cubic(table, 0)[1] == 27 * higher_turan_integer(table, 1)


def test_third_order_expression_matches_rational_form(desk_table):
    # Clearing denominators must agree with the direct rational expression.
    for n in (3, 4, 10, 57):
        u_n = u_ratio(desk_table, n)
        u_next = u_ratio(desk_table, n + 1)
        rational = 4 * (1 - u_n) * (1 - u_next) - (1 - u_n * u_next) ** 2
        cleared = Fraction(higher_turan_integer(desk_table, n),
                           desk_table[n] ** 2 * desk_table[n + 1] ** 2)
        assert rational == cleared, n


# -- the kernels enclose exact values wherever one exists ------------------------------

BITS = st.sampled_from([53, 128, 256])


@given(y=st.fractions(min_value=Fraction(3, 2), max_value=300, max_denominator=10 ** 6),
       spread=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                           max_denominator=1000),
       signed=st.sampled_from([-1, +1]), bits=BITS)
@example(y=Fraction(2), spread=Fraction(0), signed=-1, bits=53)
def test_envelope_kernel_encloses_exact_value_on_progressions(y, spread, signed, bits):
    # On x - 2y + z = 0 the exponential factor is e^0 = 1, so the envelope is
    # the rational y^14 (x^5-x^4+s)(z^5-z^4+s) / (x^7 z^7 (y^5-y^4-s)^2).
    x, z = y - spread * y, y + spread * y
    exact = (y ** 14 * (x ** 5 - x ** 4 + signed) * (z ** 5 - z ** 4 + signed)
             / (x ** 7 * z ** 7 * (y ** 5 - y ** 4 - signed) ** 2))
    triple = _triple(bits, *(_powers(bits, iv.rational_mpi(v, bits)) for v in (x, y, z)))
    assert CertifiedInterval.from_mpi(_envelope(bits, triple, signed), bits).contains(exact)


@given(r=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda r: 0 < r < 1),
       bits=st.sampled_from([64, 128, 256]))
@example(r=Fraction(2, 7), bits=128)  # t = 45/49
def test_quadratic_kernels_enclose_exact_roots(r, bits):
    # At t = 1 - r^2, sqrt((1-t)^3) = r^3 is rational, so P and Q are too.
    t = 1 - r ** 2
    q = quadratic_upper_root_exact(t)
    p = (3 * t - 2 * r ** 3 - 2) / t ** 2
    assert q == (3 * t + 2 * r ** 3 - 2) / t ** 2
    assert turan_quadratic_at(t, p) == 0 == turan_quadratic_at(t, q)
    ti = CertifiedInterval.from_fraction(t, bits)
    assert quadratic_upper_root(ti).contains(q)
    assert diagonal_gap(ti).contains(q - t)
    lower, upper = turan_quadratic_roots(t, bits)
    assert lower.contains(p) and upper.contains(q)


@given(r=st.fractions(min_value=0, max_value=1).filter(lambda r: 0 < r < 1))
@example(r=Fraction(1, 2))
@example(r=Fraction(5, 8))  # 1 - r - r^2 = -1/64, just past (sqrt 5 - 1)/2
@example(r=Fraction(3, 5))  # 1 - r - r^2 = 1/25, just before it
def test_upper_root_closed_form_and_exact_golden_threshold(r):
    # At t = 1 - r^2, Q(t) = (1 + 2r)/(1 + r)^2 and
    # Q(t) - t - (1-t)^{3/2} = r^3 (1 - r - r^2)/(1 + r)^2, whose sign changes
    # exactly at r = (sqrt 5 - 1)/2.
    t = 1 - r ** 2
    q = quadratic_upper_root_exact(t)
    assert q == (1 + 2 * r) / (1 + r) ** 2
    gap, golden = q - t - r ** 3, 1 - r - r ** 2
    assert (gap > 0, gap < 0) == (golden > 0, golden < 0)


def _horner(coeffs, t):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


@given(t=st.fractions(min_value=-10, max_value=0, max_denominator=10 ** 6).filter(lambda t: t < 0),
       bits=BITS)
def test_trunc_exp_kernels_enclose_exact_polynomials(t, bits):
    ti = CertifiedInterval.from_fraction(t, bits)
    assert trunc_exp_upper(ti).contains(_horner(UPPER_TAYLOR_COEFFS, t))
    assert trunc_exp_lower(ti).contains(_horner(LOWER_TAYLOR_COEFFS, t))


# -- layout --------------------------------------------------------------------------------


def test_no_private_name_imported_from_a_sibling_module():
    # Each interval formula has one home; a sibling that needs it imports a
    # public kernel, never a private helper.
    offenders = []
    for path in sorted(Path(overpart.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_no_module_uses_the_interval_context():
    # Every interval formula runs on libmpi endpoint tuples; mpmath's interval
    # context is the tests' oracle only.
    offenders = []
    for path in sorted(Path(overpart.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else ""
                names = [f"{base}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                names = ["context("] if called == "context" else []
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.startswith("mpmath.ctx_iv") or name == "mpmath.iv"
                          or name.endswith("MPIntervalContext") or name == "context("]
    assert offenders == []
