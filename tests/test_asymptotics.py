import random
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp

import context_kernels as oracle
from overpart import (
    CertifiedInterval,
    SeriesParams,
    main_term,
    mu,
    omega,
    rademacher_truncation,
    refined_bounds,
    series_multiplier,
    series_term_derivative,
    simple_bounds,
    truncation_error_bound,
)
from overpart import asymptotics
from overpart import intervals as iv
from overpart.asymptotics import _multiplier_exponents, sawtooth_exponent


# -- multiplier roots of unity -------------------------------------------------


def test_omega_trivial_modulus():
    assert omega(0, 1) == 0
    assert omega(1, 1) == 0


def test_omega_examples():
    assert omega(1, 3) == Fraction(1, 18)
    # -1/18 mod 2
    assert omega(2, 3) == Fraction(-1, 18) % 2


def test_omega_against_oracle_all_k_to_25():
    for k in range(1, 26):
        for h in range(k):
            if gcd(h, k) != 1:
                continue
            assert omega(h, k) == oracle.sawtooth_exponent(h, k) % 2, (h, k)


def test_sawtooth_reciprocity_matches_the_defining_sum():
    # Every coprime 0 <= h < k for every odd k <= 301: 18,485 pairs.
    pairs = 0
    for k in range(1, 302, 2):
        for h in range(k):
            if gcd(h, k) == 1:
                assert sawtooth_exponent(h, k) == oracle.sawtooth_exponent(h, k), (h, k)
                pairs += 1
    assert pairs == 18485


def test_omega_preconditions():
    with pytest.raises(ValueError):
        omega(2, 4)  # not coprime
    with pytest.raises(ValueError):
        omega(5, 3)  # h > k
    with pytest.raises(ValueError):
        omega(0, 0)


def test_omega_conjugate_pairing():
    for k in range(3, 26, 2):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            assert omega(k - h, k) == (-omega(h, k)) % 2


def test_root_of_unity_arithmetic():
    # A root of unity is its exact exponent mod 2, and the multiplier's
    # exponent is 2 s(h,k) - s(2h mod k, k) mod 2 in exact rationals.
    for k in range(1, 26, 2):
        for h in range(k):
            if gcd(h, k) == 1:
                expected = (2 * oracle.sawtooth_exponent(h, k)
                            - oracle.sawtooth_exponent(2 * h % k, k)) % 2
                assert series_multiplier(h, k) == expected, (h, k)


def test_series_multiplier_denominator_divides_2k2():
    for k in range(1, 26, 2):
        for h in range(k):
            if gcd(h, k) != 1:
                continue
            assert (2 * k * k) % series_multiplier(h, k).denominator == 0


def test_multiplier_exponent_multiset_is_conjugate_symmetric():
    for k in range(1, 26, 2):
        for n in (1, 2, 17):
            counts = _multiplier_exponents(n, k)
            for turns, count in counts.items():
                assert counts.get((-turns) % 2, 0) == count or turns in (0, 1)


# -- growth scale -----------------------------------------------------------------


def test_mu_examples():
    # a 256-bit enclosure of the target nests inside the 128-bit answer
    pi = oracle.context(256).pi
    assert mu(1, 128).encloses(oracle.interval(pi, 256))
    assert mu(4, 128).encloses(oracle.interval(pi * 2, 256))
    two = mu(2, 128)
    assert iv.directed_decimal(two.midpoint_fraction(), 25).startswith("4.442882938158366247")


def test_mu_nesting():
    assert mu(2, 128).encloses(mu(2, 512))
    with pytest.raises(ValueError):
        mu(0)


# -- series term derivative ---------------------------------------------------------


def test_derivative_closed_form_values():
    # (pi/2) cosh(pi) - (1/2) sinh(pi)
    d11 = series_term_derivative(1, 1, 192)
    assert iv.directed_decimal(d11.midpoint_fraction(), 25).startswith("1.243422794693840061")
    # (pi/8) cosh(2 pi) - (1/16) sinh(2 pi)
    d41 = series_term_derivative(4, 1, 192)
    assert iv.directed_decimal(d41.midpoint_fraction(), 25).startswith("8.840985148491172079")


def test_derivative_width_shrinks_with_precision():
    widths = [series_term_derivative(7, 3, bits).width_fraction()
              for bits in (128, 256, 512)]
    assert widths[0] > widths[1] > widths[2]


def test_derivative_against_central_differences():
    # 20 sample points, step 1e-6 in n, relative error <= 1e-4.
    mp_hi = mp.clone()
    mp_hi.prec = 220
    rng = random.Random(5)
    points = [(rng.randint(1, 60), rng.choice((1, 1, 3, 5))) for _ in range(20)]
    h = mp_hi.mpf(1) / 10 ** 6

    def target(n, k):
        s = mp_hi.sqrt(n)
        return mp_hi.sinh(mp_hi.pi * s / k) / s

    for n, k in points:
        fd = (target(n + h, k) - target(n - h, k)) / (2 * h)
        closed = series_term_derivative(n, k, 192).midpoint_fraction()
        rel = abs(mp_hi.mpf(closed.numerator) / closed.denominator - fd) / abs(fd)
        assert rel <= mp_hi.mpf("1e-4"), (n, k, rel)


# -- truncated series ------------------------------------------------------------------


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(0, 3)
    with pytest.raises(ValueError):
        SeriesParams(1, 0)
    with pytest.raises(ValueError):
        SeriesParams(1, 3, 1)


def test_truncation_single_term_closed_form():
    # The k = 1 term alone: about 1.979 at n = 1.
    t = rademacher_truncation(SeriesParams(1, 1, 192))
    assert iv.directed_decimal(t.midpoint_fraction(), 20).startswith("1.97896884128")
    m = main_term(1, 192)
    assert t.intersects(m)


def test_truncation_agrees_with_main_term_below_cutoff_3(desk_table):
    for n in range(1, 501):
        t = rademacher_truncation(SeriesParams(n, 1, 128))
        m = main_term(n, 128)
        assert t.intersects(m), n


def test_truncation_is_real_by_pairing():
    # No realness error over a spread of (n, N).
    for n in (1, 2, 3, 10, 97):
        for N in (1, 3, 5, 9):
            rademacher_truncation(SeriesParams(n, N, 128))


def test_truncation_realness_gate_fires(patch_exponents):
    # An unpaired exponent multiset must trip the realness gate, not be
    # silently discarded.
    from overpart import UndecidedRealError

    patch_exponents(lambda n, k: {Fraction(1, 7): 1})
    with pytest.raises(UndecidedRealError):
        rademacher_truncation(SeriesParams(5, 3, 128))


def test_realness_check_is_exact_on_the_exponent_multiset(patch_exponents):
    # Paired exponents pass and sum to 2 cos(pi/7); one extra copy of an
    # exponent leaves it unpaired and raises, however small its sine.
    from overpart import UndecidedRealError
    from overpart import asymptotics as asy

    patch_exponents(lambda n, k: {Fraction(1, 7): 1, Fraction(13, 7): 1, Fraction(1): 3})
    paired = CertifiedInterval.from_mpi(asy._multiplier_sum_mpi(5, 3, 128), 128)
    mp_hi = mp.clone()
    mp_hi.prec = 300
    assert paired.lo < 2 * mp_hi.cos(mp_hi.pi / 7) - 3 < paired.hi
    patch_exponents(lambda n, k: {Fraction(1, 10 ** 6): 2, Fraction(2 * 10 ** 6 - 1, 10 ** 6): 1})
    with pytest.raises(UndecidedRealError):
        asy._multiplier_sum_mpi(5, 3, 128)


def test_multiplier_exponents_paired_for_every_residue():
    # A_k(n) depends on n only mod k: cover every residue for odd k <= 25.
    from overpart import asymptotics as asy

    for k in range(1, 26, 2):
        for n in range(k):
            asy._multiplier_sum_mpi(n, k, 64)


def test_multiplier_memo_is_keyed_by_residue(monkeypatch):
    # A sweep over n = 1..2000 at cutoff 39 adds at most one sum per residue
    # class, sum_{odd k <= 39} k = 400, to the memo; a memo keyed on n would
    # add one per (n, k).  The term derivatives do not touch the memo and are
    # stubbed out so that the sweep stays quick.
    from mpmath.libmp.libmpi import mpi_one

    from overpart import asymptotics as asy

    monkeypatch.setattr(asy, "_term_derivatives_mpi", lambda n, ks, prec: (mpi_one for _ in ks))
    before = asy._multiplier_sum_mpi.cache_info().currsize
    for n in range(1, 2001):
        rademacher_truncation(SeriesParams(n, 39, 53))
    assert asy._multiplier_sum_mpi.cache_info().currsize - before <= 400


def test_truncation_error_bound_examples():
    b = truncation_error_bound(1, 3, precision_bits=192)
    assert iv.directed_decimal(b.midpoint_fraction(), 20).startswith("6.1993094034")
    # deviation of the closed main term at n = 1 sits inside the bound
    dev = abs(2 - main_term(1, 192).midpoint_fraction())
    assert dev <= b.hi_fraction()


def test_tightened_bound_dominated():
    for n in (1, 5, 9, 50):
        plain = truncation_error_bound(n, 3)
        tight = truncation_error_bound(n, 3, tightened=True)
        assert tight.hi_fraction() <= plain.hi_fraction()


def test_tightened_gap_is_linear_term():
    # plain - tightened = N^{3/2}/n exactly; at n = 9, N = 3 that is 3^{3/2}/9.
    plain = truncation_error_bound(9, 3, precision_bits=192)
    tight = truncation_error_bound(9, 3, tightened=True, precision_bits=192)
    ctx = oracle.context(192)
    gap = oracle.interval(oracle.ival(plain) - oracle.ival(tight), 192)
    explicit = oracle.interval(ctx.sqrt(27) / 9, 192)
    assert gap.intersects(explicit)


# The shared evaluation point is keyed on n and the precision, so calls that
# switch precision, in either order of truncation and bound, must each give
# the oracle's endpoints.  Precision is the outer loop: a switch replaces the
# one point, so switching at every cutoff would recompute it each time, most
# of all at 8192 bits, without reaching another code path.
POINT_N = 1737
POINT_BITS = (53, 8192, 128, 1024, 256)
POINT_CUTOFFS = range(1, 40)


@pytest.fixture(scope="module")
def point_oracle():
    """(truncation, plain bound, tightened bound) of the oracle at POINT_N
    per (cutoff, bits)."""
    expected = {}
    for bits in POINT_BITS:
        ctx = oracle.context(bits)
        partial = list(oracle.partial_truncations(ctx, POINT_N, max(POINT_CUTOFFS)))
        for N in POINT_CUTOFFS:
            expected[N, bits] = (partial[(N - 1) // 2]._mpi_,
                                 *(oracle.truncation_error_bound(ctx, POINT_N, N, tightened)._mpi_
                                   for tightened in (False, True)))
    return expected


@pytest.mark.parametrize("bound_first", (False, True))
def test_shared_evaluation_point_is_order_independent(bound_first, point_oracle):
    memo = asymptotics._evaluation_point
    assert memo.cache_info().maxsize == 1
    memo.cache_clear()
    for bits in POINT_BITS:
        for N in POINT_CUTOFFS:
            def truncation():
                return rademacher_truncation(SeriesParams(POINT_N, N, bits)).mpi

            def bounds():
                return tuple(truncation_error_bound(POINT_N, N, tightened=tightened,
                                                   precision_bits=bits).mpi
                             for tightened in (False, True))

            if bound_first:
                plain, tight = bounds()
                total = truncation()
            else:
                total = truncation()
                plain, tight = bounds()
            assert (total, plain, tight) == point_oracle[N, bits], (N, bits)


def test_truncation_within_error_bound_spot(desk_table):
    for n in (1, 2, 10, 100, 434, 500):
        t = rademacher_truncation(SeriesParams(n, 3, 256))
        b = truncation_error_bound(n, 3, precision_bits=256)
        dev = abs(desk_table[n] - t.midpoint_fraction())
        assert dev <= b.hi_fraction() + t.width_fraction(), n


def test_truncation_rounding_behavior_at_100(desk_table):
    # The cutoff-3 truncation misses pbar(100) by about 0.585: rounding the
    # midpoint does not recover the exact count here (the omitted k = 5 term
    # grows with n).  Regression-pin the actual behavior.
    t = rademacher_truncation(SeriesParams(100, 3, 256))
    mid = t.midpoint_fraction()
    assert abs(desk_table[100] - mid) < Fraction(3, 5)
    assert t.nearest_int() == desk_table[100] - 1


def test_truncation_rounds_exactly_at_small_n(desk_table):
    for n in range(1, 61):
        t = rademacher_truncation(SeriesParams(n, 3, 256))
        assert t.nearest_int() == desk_table[n], n


# -- simple and refined bounds ----------------------------------------------------------


def test_simple_bounds_examples(desk_table):
    lower, upper = simple_bounds(4, 128)
    assert lower.hi_fraction() < 14 < upper.lo_fraction()
    _, upper1 = simple_bounds(1, 128)
    assert iv.directed_decimal(upper1.midpoint_fraction(), 15).startswith("5.7851731")
    assert upper1.lo_fraction() > 2
    lower2000, upper2000 = simple_bounds(2000, 128)
    assert lower2000.hi_fraction() < desk_table[2000] < upper2000.lo_fraction()


def test_simple_bounds_sweep(desk_table):
    for n in range(1, 301):
        lower, upper = simple_bounds(n, 128)
        assert desk_table[n] < upper.lo_fraction(), n
        if n >= 4:
            assert lower.hi_fraction() < desk_table[n], n


def test_refined_bounds_examples(desk_table):
    for n in (55, 143):
        low, high = refined_bounds(n, 128)
        assert low.hi_fraction() < desk_table[n] < high.lo_fraction()
    for n in (1, 7, 100, 999):
        low, high = refined_bounds(n, 128)
        assert low.hi < high.lo


def test_refined_bounds_certified_desk_range(desk_table):
    for n in range(55, 2001):
        low, high = refined_bounds(n, 128)
        assert low.hi_fraction() < desk_table[n] < high.lo_fraction(), n


def test_growth_ratio_inequality_from_143():
    # e^{2 mu/15}/(2 mu/15) > (15/2) 34^{1/5} from n = 143 on; the threshold
    # 2 mu/15 = 5 is crossed between 142 and 143.
    ctx = oracle.context(128)

    def t_at(n):
        return 2 * oracle.ival(mu(n, 128)) / 15

    assert oracle.interval(t_at(142), 128).hi_fraction() < 5
    assert oracle.interval(t_at(143), 128).lo_fraction() > 5
    rhs = oracle.rational(ctx, Fraction(15, 2)) * ctx.exp(ctx.log(34) / 5)
    for n in (143, 144, 200, 1000, 2000, 31000):
        t = t_at(n)
        assert oracle.interval(ctx.exp(t) / t - rhs, 128).is_positive(), n


def test_main_term_ratio_approaches_one(desk_table):
    mid = main_term(2000, 192).midpoint_fraction()
    ratio = mid / desk_table[2000]
    assert Fraction(99, 100) < ratio < Fraction(101, 100)
