"""Certified evaluation of the convergent series for pbar(n) and its bounds.

pbar(n) has a Rademacher-type expansion over odd k,

    pbar(n) = (1/2 pi) sum_{k odd} sqrt(k) A_k(n) d/dn( sinh(mu/k) / sqrt(n) ),

with mu = mu(n) = pi sqrt(n) and A_k(n) the multiplier sum

    A_k(n) = sum_{h mod k, gcd(h,k)=1} w(h,k)^2 / w(2h,k) * e^{-2 pi i n h / k},

where w(h,k) = exp(pi i * s(h,k)) and s(h,k) is the exact rational sawtooth
sum  s(h,k) = sum_{r=1}^{k-1} (r/k) (hr/k - floor(hr/k) - 1/2).

Everything inexact is interval-valued (:mod:`overpart.intervals`); everything
that can be exact stays exact: the multiplier exponents are rationals mod 2,
combined term by term, and only one interval cosine per distinct exponent is
ever evaluated.  Conjugate residues h and k-h carry opposite exponents, so each
A_k(n) is real; the truncation checks exactly, on the exponent multiset, that
every exponent is matched by its negative, rather than assuming it.

Truncating the series at odd cutoff N leaves an error R(n, N) with the
explicit bound |R| <= N^{5/2}/(n mu) * sinh(mu/N), and a slightly tightened
variant subtracting the linear sinh term.  The closed k = 1 term

    (1/8n) [ (1 + 1/mu) e^{-mu} + (1 - 1/mu) e^{mu} ]

doubles as the whole sum for cutoffs below 3.  The module also carries the
coarser exponential bounds used by the inequality verifiers: the leading-form
decomposition pbar(n) ~ (1 - 1/mu) e^mu / 8n, the simple two-sided bounds, and
the refined pair with the mu^{-5} window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Tuple

from mpmath.libmp.libmpi import mpi_mul, mpi_pi, mpi_sqrt

from .intervals import (
    DEFAULT_BITS,
    CertifiedInterval,
    context,
    cos_half_turns_raw,
    cosh_sinh_raw,
    int_mpi,
)


class UndecidedRealError(Exception):
    """A multiplier sum's exponent multiset is not conjugate-symmetric, so the
    sum is not certified real (checked exactly, before any interval work)."""


# -- multiplier roots of unity ---------------------------------------------------


@dataclass(frozen=True)
class RootOfUnity:
    """exp(i pi * numerator/denominator) with the exponent kept exact.

    The exponent lives in [0, 2) (mod 2 normalization); multiplication and
    division add and subtract exponents in exact rational arithmetic, so no
    rounding enters before the final cosine.
    """

    numerator: int
    denominator: int

    @classmethod
    def from_exponent(cls, turns: Fraction) -> "RootOfUnity":
        turns = Fraction(turns) % 2
        return cls(turns.numerator, turns.denominator)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.from_exponent(self.exponent + other.exponent)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.from_exponent(self.exponent - other.exponent)

    def __pow__(self, power: int) -> "RootOfUnity":
        return RootOfUnity.from_exponent(self.exponent * power)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity.from_exponent(-self.exponent)

    def real(self, bits: int = DEFAULT_BITS) -> CertifiedInterval:
        ctx = context(bits)
        return CertifiedInterval.from_ival(cos_half_turns_raw(ctx, self.exponent), bits)


def sawtooth_exponent(h: int, k: int) -> Fraction:
    """The exact rational sum s(h,k) defining the multiplier's exponent.

    Computed over the common denominator 2k^2:
    s(h,k) = sum_r r (2 (hr mod k) - k) / (2 k^2).
    """
    total = 0
    for r in range(1, k):
        total += r * (2 * ((h * r) % k) - k)
    return Fraction(total, 2 * k * k)


def omega(h: int, k: int) -> RootOfUnity:
    """Multiplier root of unity w(h,k); requires k >= 1, 0 <= h <= k coprime."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 0 <= h <= k:
        raise ValueError(f"h must lie in [0, {k}], got {h}")
    if gcd(h, k) != 1:
        raise ValueError(f"h and k must be coprime, got ({h}, {k})")
    return RootOfUnity.from_exponent(sawtooth_exponent(h % k, k))


def series_multiplier(h: int, k: int) -> RootOfUnity:
    """w(h,k)^2 / w(2h,k), again a root of unity (denominator divides 2k^2
    for odd k); 2h is reduced mod k, which the sawtooth sum is periodic in."""
    return omega(h, k) ** 2 / omega((2 * h) % k, k)


# -- growth scale and series terms ----------------------------------------------


def mu(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The growth scale pi sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ctx = context(precision_bits)
    return CertifiedInterval.from_ival(_mu_raw(ctx, n), precision_bits)


def mu_mpi(n: int, prec: int):
    """pi sqrt(n) as an endpoint tuple at ``prec`` bits."""
    return mpi_mul(mpi_pi(prec), mpi_sqrt(int_mpi(n, prec), prec), prec)


def _mu_raw(ctx, n: int):
    """:func:`mu_mpi` as a raw interval of ``ctx``."""
    return ctx.make_mpf(mu_mpi(n, ctx.prec))


def _term_derivative_raw(ctx, n: int, k: int):
    # d/dn ( sinh(mu/k) / sqrt(n) )
    #   = pi/(2 k n) cosh(mu/k) - 1/(2 n^{3/2}) sinh(mu/k)
    mu_over_k = _mu_raw(ctx, n) / k
    sqrt_n = ctx.sqrt(ctx.mpf(n))
    cosh, sinh = cosh_sinh_raw(ctx, mu_over_k)
    return (ctx.pi / (2 * k * n)) * cosh - sinh / (2 * n * sqrt_n)


def series_term_derivative(n: int, k: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The analytic derivative d/dn(sinh(mu/k)/sqrt n) in closed form.

    The closed form is derived once by hand (chain rule through sqrt(n)) and
    unit-tested against central finite differences.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    ctx = context(precision_bits)
    return CertifiedInterval.from_ival(_term_derivative_raw(ctx, n, k), precision_bits)


@dataclass(frozen=True)
class SeriesParams:
    """Arguments of a truncated series evaluation: target index n, odd cutoff
    N (only odd k <= N contribute), and working precision in bits."""

    n: int
    N: int = 3
    precision_bits: int = DEFAULT_BITS

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.N < 1:
            raise ValueError(f"cutoff must be at least 1, got {self.N}")
        if self.precision_bits < 2:
            raise ValueError(f"precision_bits must be at least 2, got {self.precision_bits}")


def _multiplier_exponents(n: int, k: int) -> Dict[Fraction, int]:
    """Multiset of exact exponents (in half turns) of the k-th multiplier sum."""
    counts: Dict[Fraction, int] = {}
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        turns = (series_multiplier(h, k).exponent - Fraction(2 * n * h, k)) % 2
        counts[turns] = counts.get(turns, 0) + 1
    return counts


def _multiplier_sum_raw(ctx, n: int, k: int):
    """A_k(n), which is real, as a raw interval.

    Raises :class:`UndecidedRealError` unless every exponent e occurs as often
    as -e mod 2, checked exactly before any interval work.  Each pair then
    contributes 2 c cos(pi e), taken at its exponent in [0, 1], and e = 0 or 1
    (its own negative) contributes c cos(pi e).
    """
    counts = _multiplier_exponents(n, k)
    if any(counts.get(-turns % 2) != c for turns, c in counts.items()):
        raise UndecidedRealError(f"exponents of A_{k}({n}) are not paired with their negatives")
    real = ctx.mpf(0)
    for turns in sorted(counts):
        mirror = -turns % 2
        if turns <= mirror:
            weight = counts[turns] if turns == mirror else 2 * counts[turns]
            real += weight * cos_half_turns_raw(ctx, turns)
    return real


def rademacher_truncation(params: SeriesParams) -> CertifiedInterval:
    """Sum of the series over odd k <= N, as a certified interval.

    The result is real: each multiplier sum's exponent multiset is checked
    exactly to be conjugate-symmetric, else :class:`UndecidedRealError` is
    raised rather than an imaginary part silently discarded.
    """
    bits = params.precision_bits
    ctx = context(bits)
    total = ctx.mpf(0)
    for k in range(1, params.N + 1, 2):
        real = _multiplier_sum_raw(ctx, params.n, k)
        deriv = _term_derivative_raw(ctx, params.n, k)
        scale = ctx.sqrt(ctx.mpf(k)) / (2 * ctx.pi)
        total += scale * real * deriv
    return CertifiedInterval.from_ival(total, bits)


def main_term(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """Closed form of the k = 1 series term,
    (1/8n) [ (1 + 1/mu) e^{-mu} + (1 - 1/mu) e^{mu} ];
    equals the full truncated sum for any cutoff below 3."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ctx = context(precision_bits)
    m = _mu_raw(ctx, n)
    e = ctx.exp(m)
    value = ((1 + 1 / m) / e + (1 - 1 / m) * e) / (8 * n)
    return CertifiedInterval.from_ival(value, precision_bits)


def truncation_error_bound(
    n: int,
    N: int,
    *,
    tightened: bool = False,
    precision_bits: int = DEFAULT_BITS,
) -> CertifiedInterval:
    """Upper bound for the absolute truncation error at odd cutoff N:
    N^{5/2}/(n mu) * sinh(mu/N), minus the linear term of sinh when
    ``tightened``.  The tightened form is still an upper bound: with
    |A_k(n)| <= k, the tail over odd k > N expands in y = mu/N from y^3 on
    (x cosh x - sinh x has no linear term), and its y^{2j+1} coefficient is
    at most j/(2(4j-3)) <= 1/2 times the 1/(2j+1)! of the sinh series."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    ctx = context(precision_bits)
    m = _mu_raw(ctx, n)
    arg = m / N
    _, body = cosh_sinh_raw(ctx, arg)
    if tightened:
        body -= arg
    value = ctx.sqrt(ctx.mpf(N)) * N * N * body / (n * m)
    return CertifiedInterval.from_ival(value, precision_bits)


def coarse_exp_form(n: int, precision_bits: int = DEFAULT_BITS) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """Looser leading-form decomposition pbar(n) = a(n) e^mu + E:
    returns (a(n), bound) with a(n) = (1 - 1/mu)/(8n) and
    bound = 5 e^{mu/3} / (2 n^{3/2}).

    Empirically the bound only holds up to n in the low hundreds (the series'
    second multiplier term eventually outgrows it), so callers assert the
    sandwich on bounded ranges only; see the verifier suite.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ctx = context(precision_bits)
    m = _mu_raw(ctx, n)
    alpha = (1 - 1 / m) / (8 * n)
    bound = 5 * ctx.exp(m / 3) / (2 * n * ctx.sqrt(ctx.mpf(n)))
    bits = precision_bits
    return CertifiedInterval.from_ival(alpha, bits), CertifiedInterval.from_ival(bound, bits)


def simple_bounds(n: int, precision_bits: int = DEFAULT_BITS) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """Two-sided exponential bounds:
    lower (1 - 2/mu) e^mu / 8n (valid from n = 4 on),
    upper (1 + 1/n) e^mu / 8n (valid from n = 1 on)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ctx = context(precision_bits)
    m = _mu_raw(ctx, n)
    e_over_8n = ctx.exp(m) / (8 * n)
    lower = (1 - 2 / m) * e_over_8n
    upper = e_over_8n * (ctx.mpf(n + 1) / n)
    bits = precision_bits
    return CertifiedInterval.from_ival(lower, bits), CertifiedInterval.from_ival(upper, bits)


def refined_bounds(n: int, precision_bits: int = DEFAULT_BITS) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """The mu^{-5}-window pair around the leading form,
    e^mu/8n * (1 - 1/mu -+ 1/mu^5); brackets pbar(n) for n >= 55 (certified
    over finite ranges by the verifier suite, not assumed)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ctx = context(precision_bits)
    m = _mu_raw(ctx, n)
    e_over_8n = ctx.exp(m) / (8 * n)
    core = 1 - 1 / m
    window = 1 / m ** 5
    bits = precision_bits
    return (
        CertifiedInterval.from_ival(e_over_8n * (core - window), bits),
        CertifiedInterval.from_ival(e_over_8n * (core + window), bits),
    )
