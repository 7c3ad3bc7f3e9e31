import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

from overpart import CertifiedInterval, certify_sign
from overpart import intervals as iv


def test_big_int_conversion_straddles():
    big = 10 ** 60 + 7
    ci = CertifiedInterval.from_int(big, 64)
    assert ci.lo_fraction() <= big <= ci.hi_fraction()
    assert ci.lo_fraction() != ci.hi_fraction()  # not representable at 64 bits


def test_small_int_conversion_exact():
    ci = CertifiedInterval.from_int(12, 64)
    assert ci.lo_fraction() == ci.hi_fraction() == 12


def test_fraction_containment():
    fr = Fraction(1, 3)
    ci = CertifiedInterval.from_fraction(fr, 128)
    assert ci.contains(fr)
    assert ci.width_fraction() > 0


def test_arithmetic_soundness_randomized():
    rng = random.Random(42)
    for _ in range(100):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        c = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        exact = (a + b) * c - a / c
        ia = CertifiedInterval.from_fraction(a, 128)
        ib = CertifiedInterval.from_fraction(b, 128)
        ic = CertifiedInterval.from_fraction(c, 128)
        result = (ia + ib) * ic - ia / ic
        assert result.contains(exact)


def test_mixed_scalar_operands():
    x = CertifiedInterval.from_int(10, 128)
    assert (x + 1).contains(11)
    assert (1 + x).contains(11)
    assert (x * Fraction(1, 2)).contains(5)
    assert (Fraction(1, 2) / x).contains(Fraction(1, 20))
    assert (x - 3).contains(7)
    assert (3 - x).contains(-7)
    assert (-x).contains(-10)
    assert (x ** 3).contains(1000)


def _raw_unary(raw):
    """Lift a raw-context kernel to CertifiedInterval -> CertifiedInterval."""
    def lifted(x):
        ctx = iv.context(x.precision_bits)
        return CertifiedInterval.from_ival(raw(ctx, x.ival(ctx)), x.precision_bits)
    return lifted


def _cosh(ctx, x):
    return iv.cosh_sinh_raw(ctx, x)[0]


def _sinh(ctx, x):
    return iv.cosh_sinh_raw(ctx, x)[1]


def _half_turns(raw, turns, bits=128):
    return CertifiedInterval.from_ival(raw(iv.context(bits), Fraction(turns)), bits)


def test_precision_doubling_nests():
    fns = [iv.sqrt, iv.exp, iv.log, _raw_unary(_sinh), _raw_unary(_cosh)]
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
        s = _raw_unary(_sinh)(x)
        assert s.lo < target < s.hi
        target = mp_hi.cosh(mp_hi.mpf(value.numerator) / value.denominator)
        c = _raw_unary(_cosh)(x)
        assert c.lo < target < c.hi


def test_half_turn_trig_exact_points():
    for turns, expected in ((0, 1), (1, -1), (Fraction(1, 2), 0), (Fraction(3, 2), 0)):
        ci = _half_turns(iv.cos_half_turns_raw, turns)
        assert ci.lo_fraction() == ci.hi_fraction() == expected


def test_half_turn_trig_generic_value():
    # cos(pi/3) = 1/2 exactly
    ci = _half_turns(iv.cos_half_turns_raw, Fraction(1, 3), 128)
    assert ci.contains(Fraction(1, 2))
    assert ci.width_fraction() < Fraction(1, 2 ** 100)


def test_pi_interval():
    pi = CertifiedInterval.pi(128)
    assert pi.contains(Fraction(355, 113)) is False  # strictly above pi
    assert pi.lo_fraction() < Fraction(355, 113)
    assert pi.contains(Fraction(314159, 100000)) is False
    assert Fraction(314159, 100000) < pi.lo_fraction()


def test_certify_sign_resolves():
    tiny = Fraction(1, 10 ** 50)
    sign, witness = certify_sign(lambda bits: CertifiedInterval.from_fraction(tiny, bits))
    assert sign == 1 and witness.is_positive()
    sign, _ = certify_sign(lambda bits: CertifiedInterval.from_fraction(-tiny, bits))
    assert sign == -1


def test_certify_sign_zero_and_undecided():
    sign, _ = certify_sign(lambda bits: CertifiedInterval.from_fraction(0, bits))
    assert sign == 0
    sign, witness = certify_sign(
        lambda bits: CertifiedInterval.from_pair(-1, 1, bits), max_bits=256)
    assert sign is None
    assert witness.contains_zero()


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
    assert CertifiedInterval.from_int(3, 64).nearest_int() == 3
