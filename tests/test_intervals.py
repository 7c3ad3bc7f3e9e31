import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import finf, fninf, from_man_exp, fzero, mpf_cmp, round_floor
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pi,
    mpi_pow_int,
    mpi_sqrt,
    mpi_sub,
)

import context_kernels as oracle
import overpart as op
from enumeration_oracle import enumerate_overpartitions
from overpart import CertifiedInterval
from overpart import intervals as iv


def test_big_int_conversion_straddles():
    big = 10 ** 60 + 7
    ci = CertifiedInterval.from_fraction(big, 64)
    assert ci.lo_fraction() <= big <= ci.hi_fraction()
    assert ci.lo_fraction() != ci.hi_fraction()  # not representable at 64 bits


def test_small_int_conversion_exact():
    ci = CertifiedInterval.from_fraction(12, 64)
    assert ci.lo_fraction() == ci.hi_fraction() == 12


def test_fraction_containment():
    fr = Fraction(1, 3)
    ci = CertifiedInterval.from_fraction(fr, 128)
    assert ci.contains(fr)
    assert ci.width_fraction() > 0


def test_arithmetic_soundness_randomized():
    # The tuple arithmetic the package runs on, from outward-rounded rationals.
    rng = random.Random(42)
    for _ in range(100):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        c = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        exact = (a + b) * c - a / c
        ia, ib, ic = (iv.rational_mpi(v, 128) for v in (a, b, c))
        result = mpi_sub(mpi_mul(mpi_add(ia, ib, 128), ic, 128), mpi_div(ia, ic, 128), 128)
        assert CertifiedInterval.from_mpi(result, 128).contains(exact)


def test_mixed_scalar_operands():
    # Integers and rationals enter the tuple arithmetic as int_mpi and rational_mpi.
    x, half = iv.int_mpi(10, 128), iv.rational_mpi(Fraction(1, 2), 128)

    def one(value):
        return CertifiedInterval.from_mpi(value, 128)

    assert one(mpi_add(x, iv.int_mpi(1, 128), 128)).contains(11)
    assert one(mpi_add(iv.int_mpi(1, 128), x, 128)).contains(11)
    assert one(mpi_mul(x, half, 128)).contains(5)
    assert one(mpi_div(half, x, 128)).contains(Fraction(1, 20))
    assert one(mpi_sub(x, iv.int_mpi(3, 128), 128)).contains(7)
    assert one(mpi_sub(iv.int_mpi(3, 128), x, 128)).contains(-7)
    assert one(mpi_neg(x)).contains(-10)
    assert one(mpi_pow_int(x, 3, 128)).contains(1000)


def _lifted(kernel):
    """A tuple kernel ``kernel(x, prec)`` as CertifiedInterval -> CertifiedInterval."""
    def lifted(x):
        return CertifiedInterval.from_mpi(kernel(x.mpi, x.precision_bits), x.precision_bits)
    return lifted


def _cosh(x, prec):
    return iv.cosh_sinh_mpi(x, prec)[0]


def _sinh(x, prec):
    return iv.cosh_sinh_mpi(x, prec)[1]


def _half_turns(turns, bits=128):
    return CertifiedInterval.from_mpi(iv.cos_half_turns_mpi(Fraction(turns), bits), bits)


def test_precision_doubling_nests():
    fns = [_lifted(f) for f in (mpi_sqrt, mpi_exp, mpi_log, _sinh, _cosh)]
    rng = random.Random(7)
    for _ in range(50):
        fn = rng.choice(fns)
        value = Fraction(rng.randint(1, 500), rng.randint(1, 50))
        coarse = fn(CertifiedInterval.from_fraction(value, 128))
        fine = fn(CertifiedInterval.from_fraction(value, 256))
        assert coarse.encloses(fine)
        if coarse.width_fraction() > 0:  # exact hits (perfect squares) stay exact
            assert fine.width_fraction() < coarse.width_fraction()


def test_sinh_cosh_against_multiprecision():
    mp_hi = mp.clone()
    mp_hi.prec = 300
    for value in (Fraction(1), Fraction(7, 2), Fraction(1, 10)):
        x = CertifiedInterval.from_fraction(value, 128)
        target = mp_hi.sinh(mp_hi.mpf(value.numerator) / value.denominator)
        s = _lifted(_sinh)(x)
        assert s.lo < target < s.hi
        target = mp_hi.cosh(mp_hi.mpf(value.numerator) / value.denominator)
        c = _lifted(_cosh)(x)
        assert c.lo < target < c.hi


def _endpoint(prec):
    """Raw endpoints of at most ``prec`` bits, of either sign, plus zero and
    the infinities."""
    finite = st.builds(lambda man, exp: from_man_exp(man, exp, prec, round_floor),
                       st.integers(-(2 ** prec - 1), 2 ** prec - 1), st.integers(-300, 300))
    return finite | st.sampled_from((fzero, finf, fninf))


@given(st.integers(2, 300).flatmap(lambda prec: st.tuples(st.just(prec), _endpoint(prec),
                                                          _endpoint(prec))))
@example((53, fzero, fzero))
@example((2, fninf, finf))
@example((64, fninf, fzero))
@example((64, fzero, finf))
def test_shift_halving_equals_interval_division(case):
    prec, a, b = case
    x = (a, b) if mpf_cmp(a, b) <= 0 else (b, a)
    assert iv._half_mpi(x) == mpi_div(x, iv.int_mpi(2, 2), prec)


def test_half_turn_trig_exact_points():
    for turns, expected in ((0, 1), (1, -1), (Fraction(1, 2), 0), (Fraction(3, 2), 0)):
        ci = _half_turns(turns)
        assert ci.lo_fraction() == ci.hi_fraction() == expected


def test_half_turn_trig_generic_value():
    # cos(pi/3) = 1/2 exactly
    ci = _half_turns(Fraction(1, 3), 128)
    assert ci.contains(Fraction(1, 2))
    assert ci.width_fraction() < Fraction(1, 2 ** 100)


def test_pi_interval():
    pi = CertifiedInterval.from_mpi(mpi_pi(128), 128)
    assert pi.contains(Fraction(355, 113)) is False  # strictly above pi
    assert pi.lo_fraction() < Fraction(355, 113)
    assert pi.contains(Fraction(314159, 100000)) is False
    assert Fraction(314159, 100000) < pi.lo_fraction()


def test_precision_ladder_certifies_either_sign():
    tiny = Fraction(1, 10 ** 50)
    bits, gaps = iv.precision_ladder(lambda bits: [iv.rational_mpi(tiny, bits)])
    assert bits == 128 and CertifiedInterval.from_mpi(gaps[0], bits).is_positive()
    bits, gaps = iv.precision_ladder(lambda bits: [iv.rational_mpi(-tiny, bits)])
    assert bits == 128 and CertifiedInterval.from_mpi(gaps[0], bits).is_negative()
    # One certified negative gap settles a list; a positive one needs them all.
    bits, _ = iv.precision_ladder(lambda bits: [iv.rational_mpi(tiny, bits),
                                                iv.rational_mpi(-tiny, bits),
                                                _spanning(-1, 1, bits)])
    assert bits == 128


def _spanning(lo, hi, bits):
    return iv.rational_mpi(lo, bits)[0], iv.rational_mpi(hi, bits)[1]


def test_precision_ladder_reads_undecided_at_the_cap():
    rungs = []

    def gaps_at(bits):
        rungs.append(bits)
        return [iv.rational_mpi(1, bits), _spanning(-1, 1, bits)]

    bits, gaps = iv.precision_ladder(gaps_at)
    assert bits == iv.MAX_BITS and rungs == [128, 256, 512, 1024, 2048, 4096, 8192]
    assert CertifiedInterval.from_mpi(gaps[1], bits).contains_zero()


def test_mpf_fraction_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        fr = Fraction(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(0, 30))
        x = mp.mpf(fr.numerator) / (1 << (fr.denominator.bit_length() - 1))
        assert iv.mpf_to_fraction(x) == Fraction(fr.numerator, fr.denominator)


def test_mpf_fraction_rejects_non_finite():
    with pytest.raises(ValueError):
        iv.mpf_to_fraction(mp.inf)


def test_directed_decimal_directedness():
    rng = random.Random(11)
    for _ in range(200):
        fr = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        if fr == 0:
            continue
        down = iv.directed_decimal(fr, 6, round_up=False)
        up = iv.directed_decimal(fr, 6, round_up=True)
        assert _parse_sci(down) <= fr <= _parse_sci(up)
    assert iv.directed_decimal(Fraction(0)) == "0"


# Nonzero rationals over a wide range of magnitudes (zero renders as "0").
_nonzero_fractions = st.builds(
    lambda num, den, exp: Fraction(num, den) * Fraction(10) ** exp,
    st.integers(1, 10 ** 40) | st.integers(-10 ** 40, -1),
    st.integers(1, 10 ** 40),
    st.integers(-60, 60))


@given(value=_nonzero_fractions, sig=st.integers(1, 12), round_up=st.booleans())
@example(value=Fraction(99999995, 10 ** 7), sig=7, round_up=True)  # carries to 1.000000e+1
@example(value=Fraction(-99999995, 10 ** 7), sig=7, round_up=False)
@example(value=Fraction(1), sig=1, round_up=False)
def test_directed_decimal_property(value, sig, round_up):
    rendered = iv.directed_decimal(value, sig, round_up=round_up)
    printed = Fraction(rendered)
    assert printed >= value if round_up else printed <= value
    mantissa, _, exponent = rendered.lstrip("-").partition("e")
    digits = mantissa.replace(".", "")
    assert len(digits) == sig and digits[0] != "0"
    # Within one unit in the last printed place, so directed never means loose.
    assert abs(printed - value) < Fraction(10) ** (int(exponent) - sig + 1)


def test_directed_decimal_needs_a_significant_digit():
    # sig = 0 used to print '0.e+2' for 123.45, which is not a number.
    for sig in (0, -1):
        with pytest.raises(ValueError, match="significant digit"):
            iv.directed_decimal(Fraction(12345, 100), sig)


_wide_fractions = st.builds(
    lambda num, den, exp: Fraction(num, den) * Fraction(10) ** exp,
    st.integers(1, 10 ** 40) | st.integers(-10 ** 40, -1),
    st.integers(1, 10 ** 40),
    st.integers(-200, 200))

# Raw 128-bit endpoints as the interval checks produce them, read exactly.
_raw_endpoints = st.builds(
    lambda man, exp, neg: iv.raw_to_fraction(from_man_exp(-man if neg else man, exp, 128,
                                                          round_floor)),
    st.integers(1, 2 ** 128 - 1), st.integers(-800, 700), st.booleans())


@given(value=_wide_fractions | _raw_endpoints, sig=st.integers(1, 25), round_up=st.booleans())
@example(value=Fraction(99999995, 10 ** 7), sig=7, round_up=True)  # carries to 1.000000e+1
@example(value=Fraction(-99999995, 10 ** 7), sig=7, round_up=False)
@example(value=Fraction(99999995, 10 ** 7), sig=7, round_up=False)
@example(value=Fraction(-999, 10 ** 203), sig=2, round_up=False)  # carries to -1.0e-200
@example(value=Fraction(10) ** 200, sig=1, round_up=True)  # exact powers of ten
@example(value=Fraction(1, 10 ** 200), sig=25, round_up=False)
@example(value=Fraction(1, 3), sig=1, round_up=True)
def test_directed_decimal_matches_the_fraction_reference(value, sig, round_up):
    assert (iv.directed_decimal(value, sig, round_up=round_up)
            == oracle.directed_decimal(value, sig, round_up=round_up))


def test_directed_decimal_tiny_margin_keeps_sign():
    tiny = Fraction(42, 10 ** 30)
    rendered = iv.directed_decimal(tiny, 6, round_up=False)
    assert _parse_sci(rendered) > 0


def _parse_sci(text: str) -> Fraction:
    mantissa, _, exponent = text.partition("e")
    exp = int(exponent) if exponent else 0
    return Fraction(mantissa) * Fraction(10) ** exp


def test_interval_requires_order():
    with pytest.raises(ValueError):
        CertifiedInterval(mp.mpf(2), mp.mpf(1), 53)


def test_nearest_int():
    assert CertifiedInterval.from_fraction(Fraction(7, 2), 64).nearest_int() == 4
    assert CertifiedInterval.from_fraction(Fraction(-7, 2), 64).nearest_int() == -3
    assert CertifiedInterval.from_fraction(3, 64).nearest_int() == 3


def test_certified_interval_is_an_immutable_value_without_arithmetic():
    x = CertifiedInterval.from_fraction(Fraction(1, 3), 64)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        assert not hasattr(x, name), name
    with pytest.raises(AttributeError):
        x.lo = x.hi
    assert x == CertifiedInterval.from_fraction(Fraction(1, 3), 64)


# Every public entry that computes an interval at a given precision.  libmpi
# itself accepts any precision and can loop without end below 2 bits.
PRECISION_ENTRIES = {
    "mu": lambda bits: op.mu(5, bits),
    "main_term": lambda bits: op.main_term(5, bits),
    "series_term_derivative": lambda bits: op.series_term_derivative(5, 3, bits),
    "truncation_error_bound": lambda bits: op.truncation_error_bound(5, 3, precision_bits=bits),
    "simple_bounds": lambda bits: op.simple_bounds(5, bits),
    "refined_bounds": lambda bits: op.refined_bounds(5, bits),
    "SeriesParams": lambda bits: op.SeriesParams(5, 3, bits),
    "ratio_lower_bound": lambda bits: op.ratio_lower_bound(5, bits),
    "ratio_upper_bound": lambda bits: op.ratio_upper_bound(5, bits),
    "turan_quadratic_roots": lambda bits: op.turan_quadratic_roots(Fraction(1, 2), bits),
    "pair_threshold_gap": lambda bits: op.pair_threshold_gap(2, Fraction(2), bits),
    "from_fraction": lambda bits: CertifiedInterval.from_fraction(Fraction(1, 3), bits),
    # trunc_exp, quadratic_upper_root and diagonal_gap compute at the bits of
    # the interval they are given (at 0 bits trunc_exp does not return).
    "from_mpi": lambda bits: CertifiedInterval.from_mpi(iv.rational_mpi(Fraction(-1, 3), 53), bits),
}


@pytest.mark.parametrize("bits", (0, 1, 128.0, True))
@pytest.mark.parametrize("entry", sorted(PRECISION_ENTRIES))
def test_public_entries_reject_precision_below_two_bits(entry, bits):
    with pytest.raises(ValueError, match="at least 2 bits"):
        PRECISION_ENTRIES[entry](bits)


# Every public entry that takes an integer argument, and every read of pbar by
# index, which the table judges.  Entered by int_mpi, a float would be
# truncated, and the enclosure would mix the value at the truncated argument
# with the value at the given one; a bool would read as 0 or 1.
TABLE = op.build_table(40)
INDEX_ENTRIES = {
    "mu": lambda n: op.mu(n),
    "series_term_derivative": lambda n: op.series_term_derivative(n, 3),
    "series_term_derivative_k": lambda k: op.series_term_derivative(5, k),
    "main_term": lambda n: op.main_term(n),
    "simple_bounds": lambda n: op.simple_bounds(n),
    "refined_bounds": lambda n: op.refined_bounds(n),
    "truncation_error_bound": lambda n: op.truncation_error_bound(n, 3),
    "truncation_error_bound_N": lambda big_n: op.truncation_error_bound(5, big_n),
    "ratio_lower_bound": lambda n: op.ratio_lower_bound(n),
    "ratio_upper_bound": lambda n: op.ratio_upper_bound(n),
    "pair_threshold_gap": lambda a: op.pair_threshold_gap(a, Fraction(2)),
    "OverpartitionTable.__getitem__": lambda n: TABLE[n],
    "u_ratio": lambda n: op.u_ratio(TABLE, n),
    "jensen_cubic": lambda n: op.jensen_cubic(TABLE, n),
    "higher_turan_integer": lambda n: op.higher_turan_integer(TABLE, n),
    "SeriesParams": lambda n: op.SeriesParams(n),
    "SeriesParams_N": lambda big_n: op.SeriesParams(5, big_n),
    "omega_h": lambda h: op.omega(h, 7),
    "omega_k": lambda k: op.omega(1, k),
    "build_table": lambda max_n: op.build_table(max_n),
    "enumerate_overpartitions": lambda n: enumerate_overpartitions(n),
}


@pytest.mark.parametrize("index", (5.5, 5.0, True, "5"))
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_public_entries_reject_a_non_integer_index(entry, index):
    with pytest.raises(ValueError, match="must be an int"):
        INDEX_ENTRIES[entry](index)
