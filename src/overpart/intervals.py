"""Outward-rounded interval arithmetic, the carrier for every inexact value.

Every transcendental quantity in this package (exponentials, square roots,
trigonometric values at rational multiples of pi) is produced as a
:class:`CertifiedInterval`: a closed interval ``[lo, hi]`` of
arbitrary-precision binary floats with the soundness contract that the exact
mathematical target lies inside.  The directed rounding itself is delegated to
mpmath, which rounds outward at every elementary step, so any sign read off an
interval endpoint is a certificate rather than an estimate.

Two carriers share that rounding.  The hot interval kernels (the envelope, Q
and the verifiers' gaps) run on raw ``libmpi`` endpoint tuples ``(lo, hi)`` of
mpf values: ``int_mpi`` and ``rational_mpi`` enter integers and rationals
rounded outward, and ``mpmath.libmp.mpi_*`` does the arithmetic without the
interval context's wrapper objects.  Everything else still runs on mpmath's
interval context (``context(bits)``).  The tests keep the context form of every
tuple kernel as a bit-for-bit oracle.

Sign queries follow an adaptive ladder: evaluate at a starting precision
(128 bits by default), double until the interval separates from zero, and
report "undecided" past ``MAX_BITS`` instead of guessing.

Derived scalar facts about an interval (width, midpoint, containment)
are computed in exact rational arithmetic so that no additional rounding can
weaken a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple, TypeVar, Union

from mpmath import mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import finf, fninf, from_int, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_div

DEFAULT_BITS = 128
MAX_BITS = 8192

Rational = Union[int, Fraction]
Operand = Union[int, Fraction, "CertifiedInterval"]
T = TypeVar("T")


@lru_cache(maxsize=None)
def context(bits: int) -> MPIntervalContext:
    """Interval context at a fixed mantissa size.  Cached; never mutated after
    creation."""
    if bits < 2:
        raise ValueError(f"precision must be at least 2 bits, got {bits}")
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def int_mpi(value: int, prec: int):
    """An integer as an endpoint tuple at ``prec`` bits (a point when it is
    representable, else rounded outward), as the interval context enters it."""
    return from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)


def rational_mpi(value: Rational, prec: int):
    """An exact integer or rational as an endpoint tuple at ``prec`` bits:
    numerator over denominator, rounded outward."""
    value = Fraction(value)
    return mpi_div(int_mpi(value.numerator, prec), int_mpi(value.denominator, prec), prec)


def rational_raw(ctx, value: Rational):
    """:func:`rational_mpi` as a raw interval of ``ctx``."""
    return ctx.make_mpf(rational_mpi(value, ctx.prec))


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


class CertifiedInterval:
    """Closed interval ``[lo, hi]`` guaranteed to contain its exact target.

    ``precision_bits`` records the working precision the interval was produced
    at; arithmetic between intervals runs at the larger of the two operands'
    precisions and rounds outward, so results stay sound regardless of how
    operands were built.
    """

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo, hi, precision_bits: int):
        if not lo <= hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.precision_bits = precision_bits

    # -- construction -----------------------------------------------------

    @classmethod
    def from_ival(cls, ival, bits: int) -> "CertifiedInterval":
        return cls.from_mpi(ival._mpi_, bits)

    @classmethod
    def from_mpi(cls, endpoints, bits: int) -> "CertifiedInterval":
        """From a raw ``(lo, hi)`` endpoint tuple."""
        lo, hi = endpoints
        return cls(mp.make_mpf(lo), mp.make_mpf(hi), bits)

    @classmethod
    def from_int(cls, value: int, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        return cls.from_ival(context(bits).mpf(value), bits)

    @classmethod
    def from_fraction(cls, value: Rational, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        return cls.from_ival(rational_raw(context(bits), value), bits)

    @classmethod
    def from_pair(cls, lo: Rational, hi: Rational, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        """Interval spanning two exact rational endpoints (rounded outward)."""
        a = cls.from_fraction(lo, bits)
        b = cls.from_fraction(hi, bits)
        return cls(a.lo, b.hi, bits)

    @classmethod
    def pi(cls, bits: int = DEFAULT_BITS) -> "CertifiedInterval":
        return cls.from_ival(context(bits).pi, bits)

    # -- conversions -------------------------------------------------------

    def ival(self, ctx=None):
        """The mpmath interval object (in ``ctx``, outward if coarser)."""
        if ctx is None:
            ctx = context(self.precision_bits)
        return ctx.mpf([self.lo, self.hi])

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

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: Operand, ctx):
        if isinstance(other, CertifiedInterval):
            return other.ival(ctx)
        if isinstance(other, (int, Fraction)):
            return rational_raw(ctx, other)
        return NotImplemented

    def _binary(self, other: Operand, op: str, reflected: bool = False):
        bits = self.precision_bits
        if isinstance(other, CertifiedInterval):
            bits = max(bits, other.precision_bits)
        ctx = context(bits)
        rhs = self._coerce(other, ctx)
        if rhs is NotImplemented:
            return NotImplemented
        lhs = self.ival(ctx)
        if reflected:
            lhs, rhs = rhs, lhs
        if op == "add":
            out = lhs + rhs
        elif op == "sub":
            out = lhs - rhs
        elif op == "mul":
            out = lhs * rhs
        else:
            out = lhs / rhs
        return CertifiedInterval.from_ival(out, bits)

    def __add__(self, other: Operand):
        return self._binary(other, "add")

    __radd__ = __add__

    def __sub__(self, other: Operand):
        return self._binary(other, "sub")

    def __rsub__(self, other: Operand):
        return self._binary(other, "sub", reflected=True)

    def __mul__(self, other: Operand):
        return self._binary(other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: Operand):
        return self._binary(other, "div")

    def __rtruediv__(self, other: Operand):
        return self._binary(other, "div", reflected=True)

    def __neg__(self):
        return CertifiedInterval.from_ival(-self.ival(), self.precision_bits)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return CertifiedInterval.from_ival(self.ival() ** exponent, self.precision_bits)

    def __repr__(self) -> str:
        return (f"CertifiedInterval({mp.nstr(self.lo, 12)} .. {mp.nstr(self.hi, 12)},"
                f" bits={self.precision_bits})")


# -- elementary functions ---------------------------------------------------


def _unary(x: CertifiedInterval, fn: str) -> CertifiedInterval:
    ctx = context(x.precision_bits)
    return CertifiedInterval.from_ival(getattr(ctx, fn)(x.ival(ctx)), x.precision_bits)


def sqrt(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "sqrt")


def exp(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "exp")


def log(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "log")


def cosh_sinh_raw(ctx, x):
    """(cosh x, sinh x) on a raw mpmath interval, both composed from one
    exponential; rounds outward."""
    e = ctx.exp(x)
    inverse = 1 / e
    return (e + inverse) / 2, (e - inverse) / 2


def cos_half_turns_raw(ctx, turns: Fraction):
    """cos(pi * turns) on the raw context, exact at quarter-turn points."""
    turns = turns % 2
    if turns == 0:
        return ctx.mpf(1)
    if turns == 1:
        return ctx.mpf(-1)
    if turns.denominator == 2:  # turns in {1/2, 3/2}
        return ctx.mpf(0)
    return ctx.cos(ctx.pi * turns.numerator / turns.denominator)


# -- adaptive sign resolution -------------------------------------------------


def precision_ladder(
    evaluate: Callable[[int], T],
    settled: Callable[[T], bool],
    start_bits: int = DEFAULT_BITS,
    max_bits: int = MAX_BITS,
) -> Tuple[int, T]:
    """Evaluate at ``start_bits`` and double the precision until ``settled``
    accepts the result or ``max_bits`` is reached.

    Returns the last precision and its result; the caller reads an unsettled
    result at the cap as undecided.
    """
    bits = start_bits
    while True:
        value = evaluate(bits)
        if settled(value) or bits >= max_bits:
            return bits, value
        bits = min(2 * bits, max_bits)


def _sign(gap: CertifiedInterval) -> Optional[int]:
    if gap.is_positive():
        return 1
    if gap.is_negative():
        return -1
    if gap.lo == 0 and gap.hi == 0:
        return 0
    return None


def certify_sign(
    gap_at: Callable[[int], CertifiedInterval],
    start_bits: int = DEFAULT_BITS,
    max_bits: int = MAX_BITS,
) -> tuple[Optional[int], CertifiedInterval]:
    """Resolve the sign of an interval-valued expression.

    ``gap_at(bits)`` must re-evaluate the same expression at the given
    precision.  Returns ``(+1 | -1 | 0, witness)`` on success; ``0`` only for
    an exactly-zero interval.  Returns ``(None, witness)`` when the sign still
    straddles zero at ``max_bits``.
    """
    _, gap = precision_ladder(gap_at, lambda g: _sign(g) is not None, start_bits, max_bits)
    return _sign(gap), gap


# -- directed decimal rendering ------------------------------------------------


def _decimal_exponent(value: Fraction) -> int:
    """floor(log10(value)) for positive rational ``value``, exactly."""
    e = len(str(value.numerator)) - len(str(value.denominator))
    while Fraction(10) ** e > value:
        e -= 1
    while Fraction(10) ** (e + 1) <= value:
        e += 1
    return e


def directed_decimal(value: Fraction, sig: int = 6, round_up: bool = False) -> str:
    """Scientific-notation rendering with directed rounding.

    ``round_up=False`` yields a decimal <= value, ``round_up=True`` one >=
    value, so printed margins remain certificates.
    """
    if value == 0:
        return "0"
    neg = value < 0
    v = -value if neg else value
    e = _decimal_exponent(v)
    scaled = v * Fraction(10) ** (sig - 1 - e)
    n, d = scaled.numerator, scaled.denominator
    magnitude_up = round_up != neg
    q = -((-n) // d) if magnitude_up else n // d
    if q >= 10 ** sig:
        q //= 10
        e += 1
    digits = str(q)
    mantissa = digits[0] + "." + digits[1:]
    return ("-" if neg else "") + mantissa + f"e{e:+d}"


def render_endpoint(raw, round_up: bool) -> str:
    """A raw mpf endpoint as a directed decimal; an infinite one as
    ``-inf`` or ``+inf``."""
    if raw == fninf:
        return "-inf"
    if raw == finf:
        return "+inf"
    return directed_decimal(raw_to_fraction(raw), round_up=round_up)
