"""Outward-rounded interval arithmetic, the carrier for every inexact value.

Every transcendental quantity in this package (exponentials, square roots,
trigonometric values at rational multiples of pi) is computed on raw
``libmpi`` endpoint tuples ``(lo, hi)`` of mpf values: ``int_mpi`` and
``rational_mpi`` enter integers and rationals rounded outward, and
``mpmath.libmp.mpi_*`` rounds outward at every elementary step, so any sign
read off an endpoint is a certificate rather than an estimate.  A public
result is a :class:`CertifiedInterval`, an immutable ``[lo, hi]`` with the
soundness contract that the exact mathematical target lies inside; it has
exact predicates and ``Fraction`` views, and no arithmetic.  The tests keep
each formula's form on mpmath's interval context as a bit-for-bit oracle.

libmpi accepts any precision, and below 2 bits it can loop without end, and
``int_mpi`` truncates a float, so every public entry checks its precision with
:func:`check_precision` and its integer arguments with
:func:`exact_core.check_int` first.

cosh and sinh share one exponential, and halve e^x +- e^-x by an exponent
shift: those endpoints already carry at most the working precision's bits, so
the shift is exact and gives the endpoints an interval division by 2 would.

Every sign in the package is read by one step, :func:`precision_ladder`:
evaluate a list of gaps (endpoint tuples) at a starting precision (128 bits
by default), double until one gap is certified negative or all are certified
positive, and leave the rest to the caller to report as "undecided" past
``MAX_BITS`` instead of guessing.

Derived scalar facts about an interval (width, midpoint, containment)
are computed in exact rational arithmetic so that no additional rounding can
weaken a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

from mpmath import mp
from mpmath.libmp import (
    ComplexResult, finf, fninf, from_int, mpf_shift, mpf_sign, round_ceiling, round_floor)
from mpmath.libmp.libmpi import (
    mpi_add, mpi_cos, mpi_div, mpi_exp, mpi_mul, mpi_one, mpi_pi, mpi_sub)

DEFAULT_BITS = 128
MAX_BITS = 8192

Rational = Union[int, Fraction]


def check_precision(bits: int) -> int:
    """``bits`` when it is an ``int`` (not a ``bool``) of at least 2, else ValueError."""
    if type(bits) is not int or bits < 2:
        raise ValueError(f"precision must be an int of at least 2 bits, got {bits!r}")
    return bits


def int_mpi(value: int, prec: int):
    """An integer as an endpoint tuple at ``prec`` bits (a point when it is
    representable, else rounded outward), as the interval context enters it."""
    return from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)


def rational_mpi(value: Rational, prec: int):
    """An exact integer or rational as an endpoint tuple at ``prec`` bits:
    numerator over denominator, rounded outward."""
    value = Fraction(value)
    return mpi_div(int_mpi(value.numerator, prec), int_mpi(value.denominator, prec), prec)


def raw_to_fraction(raw) -> Fraction:
    """Exact rational value of a finite raw mpf tuple (binary floats are
    dyadic)."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError(f"non-finite endpoint {mp.make_mpf(raw)!r}")
    man = int(man)  # gmpy2-backed builds hand back mpz
    frac = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -frac if sign else frac


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    return raw_to_fraction(x._mpf_)


@dataclass(frozen=True)
class CertifiedInterval:
    """Closed interval ``[lo, hi]`` of mpf endpoints guaranteed to contain its
    exact target; ``precision_bits`` records the working precision it was
    produced at.  An immutable value: it is built from an endpoint tuple or
    from exact rationals, and read through exact predicates and ``Fraction``
    views."""

    __slots__ = ("lo", "hi", "precision_bits")

    lo: object
    hi: object
    precision_bits: int

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")
        check_precision(self.precision_bits)  # kernels given an interval compute at its bits

    # -- construction -----------------------------------------------------

    @classmethod
    def from_mpi(cls, endpoints, bits: int) -> "CertifiedInterval":
        """From a raw ``(lo, hi)`` endpoint tuple."""
        lo, hi = endpoints
        return cls(mp.make_mpf(lo), mp.make_mpf(hi), bits)

    @classmethod
    def from_fraction(cls, value: Rational, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        return cls.from_mpi(rational_mpi(value, check_precision(bits)), bits)

    @classmethod
    def from_pair(cls, lo: Rational, hi: Rational, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        """Interval spanning two exact rational endpoints (rounded outward)."""
        a = cls.from_fraction(lo, bits)
        b = cls.from_fraction(hi, bits)
        return cls(a.lo, b.hi, bits)

    # -- conversions -------------------------------------------------------

    @property
    def mpi(self):
        """The raw ``(lo, hi)`` endpoint tuple."""
        return self.lo._mpf_, self.hi._mpf_

    def lo_fraction(self) -> Fraction:
        return mpf_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return mpf_to_fraction(self.hi)

    def width_fraction(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def midpoint_fraction(self) -> Fraction:
        return (self.lo_fraction() + self.hi_fraction()) / 2

    def nearest_int(self) -> int:
        """Integer nearest to the midpoint (ties round half up)."""
        mid = self.midpoint_fraction() + Fraction(1, 2)
        return int(mid.numerator // mid.denominator)

    # -- predicates (all exact) --------------------------------------------

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contains(self, value: Rational) -> bool:
        value = Fraction(value)
        return self.lo_fraction() <= value <= self.hi_fraction()

    def encloses(self, other: "CertifiedInterval") -> bool:
        """True when ``other`` is nested inside ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "CertifiedInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self) -> str:
        return (f"CertifiedInterval({mp.nstr(self.lo, 12)} .. {mp.nstr(self.hi, 12)},"
                f" bits={self.precision_bits})")


# -- elementary functions ---------------------------------------------------

def _half_mpi(x):
    """x / 2 by an exponent shift of each endpoint: exact, and equal to the
    interval division, for endpoints of at most the working precision's bits
    (zero and infinities pass through unchanged)."""
    lo, hi = x
    return mpf_shift(lo, -1), mpf_shift(hi, -1)


def cosh_sinh_mpi(x, prec: int):
    """(cosh x, sinh x) of an endpoint tuple, both composed from one
    exponential; rounds outward.  The sum and difference e^x +- e^-x are
    rounded to ``prec`` bits, so halving them is exact."""
    e = mpi_exp(x, prec)
    inverse = mpi_div(mpi_one, e, prec)
    return _half_mpi(mpi_add(e, inverse, prec)), _half_mpi(mpi_sub(e, inverse, prec))


def cos_half_turns_mpi(turns: Fraction, prec: int):
    """cos(pi * turns) as an endpoint tuple, exact at quarter-turn points."""
    turns = turns % 2
    if turns == 0:
        return mpi_one
    if turns == 1:
        return int_mpi(-1, prec)
    if turns.denominator == 2:  # turns in {1/2, 3/2}
        return int_mpi(0, prec)
    angle = mpi_mul(mpi_pi(prec), int_mpi(turns.numerator, prec), prec)
    return mpi_cos(mpi_div(angle, int_mpi(turns.denominator, prec), prec), prec)


# -- adaptive sign resolution -------------------------------------------------


def precision_ladder(
    gaps_at: Callable[[int], List[tuple]],
    start_bits: int = DEFAULT_BITS,
) -> Tuple[int, Optional[List[tuple]]]:
    """The one certify step: evaluate the endpoint tuples ``gaps_at(bits)``
    at ``start_bits`` and double the precision until their sign is settled,
    that is one gap is certified negative or every gap certified positive, or
    ``MAX_BITS`` is reached.

    A rung at which an enclosure leaves a square root's domain (mpmath's
    ComplexResult) is unsettled, so the ladder climbs past it.  Returns the
    last precision and its gaps, None when that rung raised; the caller reads
    an unsettled result at the cap as undecided.
    """
    bits = start_bits
    while True:
        try:
            gaps = gaps_at(bits)
        except ComplexResult:
            gaps = None
        settled = gaps is not None and (any(mpf_sign(hi) < 0 for _, hi in gaps)
                                        or all(mpf_sign(lo) > 0 for lo, _ in gaps))
        if settled or bits >= MAX_BITS:
            return bits, gaps
        bits = min(2 * bits, MAX_BITS)


# -- directed decimal rendering ------------------------------------------------


def directed_decimal(value: Fraction, sig: int = 6, round_up: bool = False) -> str:
    """Scientific-notation rendering with directed rounding, to ``sig >= 1``
    significant digits, in integer arithmetic.

    ``round_up=False`` yields a decimal <= value, ``round_up=True`` one >=
    value, so printed margins remain certificates.
    """
    if sig < 1:
        raise ValueError(f"need at least 1 significant digit, got {sig}")
    if value == 0:
        return "0"
    neg = value < 0
    n, d = abs(value.numerator), value.denominator
    # floor(log10 |value|), estimated from the bit lengths (log10 2 ~ 0.30103)
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while True:  # then made exact: until 1 <= num/den = |value| / 10^e < 10
        num, den = (n, d * 10 ** e) if e >= 0 else (n * 10 ** -e, d)
        if num < den:
            e -= 1
        elif num >= 10 * den:
            e += 1
        else:
            break
    num *= 10 ** (sig - 1)
    q = -(-num // den) if round_up != neg else num // den
    if q >= 10 ** sig:
        q //= 10
        e += 1
    digits = str(q)
    return ("-" if neg else "") + digits[0] + "." + digits[1:] + f"e{e:+d}"


def render_endpoint(raw, round_up: bool) -> str:
    """A raw mpf endpoint as a directed decimal; an infinite one as
    ``-inf`` or ``+inf``."""
    if raw == fninf:
        return "-inf"
    if raw == finf:
        return "+inf"
    return directed_decimal(raw_to_fraction(raw), round_up=round_up)
