"""Certified evaluation of the convergent series for pbar(n) and its bounds.

pbar(n) has a Rademacher-type expansion over odd k,

    pbar(n) = (1/2 pi) sum_{k odd} sqrt(k) A_k(n) d/dn( sinh(mu/k) / sqrt(n) ),

with mu = mu(n) = pi sqrt(n) and A_k(n) the multiplier sum

    A_k(n) = sum_{h mod k, gcd(h,k)=1} w(h,k)^2 / w(2h,k) * e^{-2 pi i n h / k},

where w(h,k) = exp(pi i * s(h,k)) and s(h,k) is the exact rational sawtooth
sum  s(h,k) = sum_{r=1}^{k-1} (r/k) (hr/k - floor(hr/k) - 1/2).

Everything inexact is computed on outward-rounded ``libmpi`` endpoint tuples
(:mod:`overpart.intervals`) and returned as a :class:`CertifiedInterval`;
everything that can be exact stays exact: the multiplier exponents are
rationals mod 2, combined term by term, and only one interval cosine per
distinct exponent is ever evaluated.  Conjugate residues h and k-h carry
opposite exponents, so each A_k(n) is real; the truncation checks exactly, on
the exponent multiset, that every exponent is matched by its negative, rather
than assuming it.  A_k(n) depends on n only through n mod k, so it is computed
once per (n mod k, k, bits) and memoized; the exact realness check runs on
every miss.

Truncating the series at odd cutoff N leaves an error R(n, N) with the
explicit bound |R| <= N^{5/2}/(n mu) * sinh(mu/N), and a slightly tightened
variant subtracting the linear sinh term.  The truncation and its bound are
read as a pair, so they share one evaluation point: the last (n, bits) asked
for keeps sqrt(n), mu(n) and, per k as first needed, (mu/k, cosh, sinh), which
the k-th term and the bound at cutoff k both read; 2 n^{3/2} is built from the
same sqrt(n).  Only that one point is kept, so a sweep over n holds a fixed
size, and each value is computed in its one operation order, so either call
order gives the same endpoints.  The closed k = 1 term

    (1/8n) [ (1 + 1/mu) e^{-mu} + (1 - 1/mu) e^{mu} ]

doubles as the whole sum for cutoffs below 3.  The module also carries the
coarser exponential bounds around the leading form (1 - 1/mu) e^mu / 8n: the
simple two-sided bounds and the refined pair with the mu^{-5} window.  Each
formula keeps the operation order of its interval-context form, which the
tests keep as a bit-for-bit oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Tuple

from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_mul,
    mpi_one,
    mpi_pi,
    mpi_pow_int,
    mpi_sqrt,
    mpi_sub,
    mpi_zero,
)

from .exact_core import check_int
from .intervals import (
    DEFAULT_BITS,
    CertifiedInterval,
    check_precision,
    cos_half_turns_mpi,
    cosh_sinh_mpi,
    int_mpi,
)

class UndecidedRealError(Exception):
    """A multiplier sum's exponent multiset is not conjugate-symmetric, so the
    sum is not certified real (checked exactly, before any interval work)."""


# -- multiplier roots of unity ---------------------------------------------------


def sawtooth_exponent(h: int, k: int) -> Fraction:
    """The exact rational sum s(h,k) defining the multiplier's exponent, for
    coprime 0 <= h < k (``omega`` enforces coprimality; s(0, 1) = 0).

    Dedekind reciprocity, s(h,k) + s(k,h) = (h^2 + k^2 + 1)/(12hk) - 1/4,
    with s(k,h) = s(k mod h, h), runs Euclid's algorithm on (h, k): O(log k)
    steps on an integer numerator and denominator, and one Fraction at the end.
    """
    num, den, sign = 0, 1, 1
    while h:
        step = 12 * h * k
        num = num * step + sign * (h * h + k * k + 1 - 3 * h * k) * den
        den *= step
        h, k, sign = k % h, h, -sign
    return Fraction(num, den)


def omega(h: int, k: int) -> Fraction:
    """Multiplier root of unity w(h,k) = exp(i pi * omega(h, k)), as its exact
    exponent in [0, 2), so no rounding enters before the final cosine;
    requires k >= 1, 0 <= h <= k coprime."""
    check_int(k, "k")
    if check_int(h, "h", 0) > k:
        raise ValueError(f"h must lie in [0, {k}], got {h}")
    if gcd(h, k) != 1:
        raise ValueError(f"h and k must be coprime, got ({h}, {k})")
    return sawtooth_exponent(h % k, k) % 2


@lru_cache(maxsize=None)
def series_multiplier(h: int, k: int) -> Fraction:
    """w(h,k)^2 / w(2h,k), again a root of unity, as its exact exponent
    2 s(h,k) - s(2h mod k, k) mod 2 (denominator divides 2k^2 for odd k); 2h
    is reduced mod k, which the sawtooth sum is periodic in."""
    return (2 * omega(h, k) - omega((2 * h) % k, k)) % 2


# -- growth scale and series terms ----------------------------------------------


def mu(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The growth scale pi sqrt(n)."""
    check_int(n, "n")
    return CertifiedInterval.from_mpi(mu_mpi(n, check_precision(precision_bits)), precision_bits)


def _sqrt_and_mu_mpi(n: int, prec: int):
    """(sqrt n, mu(n) = pi sqrt n) as endpoint tuples at ``prec`` bits."""
    sqrt_n = mpi_sqrt(int_mpi(n, prec), prec)
    return sqrt_n, mpi_mul(mpi_pi(prec), sqrt_n, prec)


def mu_mpi(n: int, prec: int):
    """pi sqrt(n) as an endpoint tuple at ``prec`` bits."""
    return _sqrt_and_mu_mpi(n, prec)[1]


class _EvaluationPoint:
    """sqrt(n) and mu(n) at ``prec`` bits, and (mu/k, cosh(mu/k), sinh(mu/k))
    per k once asked for: read by the k-th series term and by the tail bound
    at cutoff k."""

    __slots__ = ("prec", "sqrt_n", "mu", "_at_k")

    def __init__(self, n: int, prec: int):
        self.prec = prec
        self.sqrt_n, self.mu = _sqrt_and_mu_mpi(n, prec)
        self._at_k = {}

    def cosh_sinh(self, k: int):
        found = self._at_k.get(k)
        if found is None:
            arg = mpi_div(self.mu, int_mpi(k, self.prec), self.prec)
            found = self._at_k[k] = (arg,) + cosh_sinh_mpi(arg, self.prec)
        return found


# One point: a truncation and its bound at the same (n, bits) share it, and a
# sweep over n replaces it.
_evaluation_point = lru_cache(maxsize=1)(_EvaluationPoint)


def _term_derivatives_mpi(n: int, ks, prec: int):
    # d/dn ( sinh(mu/k) / sqrt(n) )
    #   = pi/(2 k n) cosh(mu/k) - 1/(2 n^{3/2}) sinh(mu/k), for each k in ks;
    # 2 n^{3/2} is built from mu's sqrt(n) and shared by every k.
    point = _evaluation_point(n, prec)
    two_n_sqrt_n = mpi_mul(int_mpi(2 * n, prec), point.sqrt_n, prec)
    for k in ks:
        _, cosh, sinh = point.cosh_sinh(k)
        first = mpi_mul(mpi_div(mpi_pi(prec), int_mpi(2 * k * n, prec), prec), cosh, prec)
        yield mpi_sub(first, mpi_div(sinh, two_n_sqrt_n, prec), prec)


def series_term_derivative(n: int, k: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The analytic derivative d/dn(sinh(mu/k)/sqrt n) in closed form.

    The closed form is derived once by hand (chain rule through sqrt(n)) and
    unit-tested against central finite differences.
    """
    check_int(n, "n")
    check_int(k, "k")
    prec = check_precision(precision_bits)
    return CertifiedInterval.from_mpi(next(_term_derivatives_mpi(n, (k,), prec)), prec)


@dataclass(frozen=True, slots=True)
class SeriesParams:
    """Arguments of a truncated series evaluation: target index n, odd cutoff
    N (only odd k <= N contribute), and working precision in bits."""

    n: int
    N: int = 3
    precision_bits: int = DEFAULT_BITS

    def __post_init__(self):
        check_int(self.n, "n")
        check_int(self.N, "N")
        check_precision(self.precision_bits)


def _multiplier_exponents(n: int, k: int) -> Dict[Fraction, int]:
    """Multiset of exact exponents (in half turns) of the k-th multiplier sum."""
    counts: Dict[Fraction, int] = {}
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        turns = (series_multiplier(h, k) - Fraction(2 * n * h, k)) % 2
        counts[turns] = counts.get(turns, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _multiplier_sum_mpi(n: int, k: int, prec: int):
    """A_k(n), which is real, as an endpoint tuple.

    Callers pass n mod k (the phase 2nh/k mod 2 has period k in n), so the
    memo holds at most sum_{odd k <= N} k sums per precision at cutoff N.

    Raises :class:`UndecidedRealError` unless every exponent e occurs as often
    as -e mod 2, checked exactly before any interval work.  Each pair then
    contributes 2 c cos(pi e), taken at its exponent in [0, 1], and e = 0 or 1
    (its own negative) contributes c cos(pi e).
    """
    counts = _multiplier_exponents(n, k)
    if any(counts.get(-turns % 2) != c for turns, c in counts.items()):
        raise UndecidedRealError(f"exponents of A_{k}({n}) are not paired with their negatives")
    real = mpi_zero
    for turns in sorted(counts):
        mirror = -turns % 2
        if turns <= mirror:
            weight = counts[turns] if turns == mirror else 2 * counts[turns]
            term = mpi_mul(int_mpi(weight, prec), cos_half_turns_mpi(turns, prec), prec)
            real = mpi_add(real, term, prec)
    return real


@lru_cache(maxsize=None)
def _series_scale_mpi(k: int, prec: int):
    """The scale sqrt(k) / (2 pi) of the k-th term, as an endpoint tuple."""
    two_pi = mpi_mul(int_mpi(2, prec), mpi_pi(prec), prec)
    return mpi_div(mpi_sqrt(int_mpi(k, prec), prec), two_pi, prec)


def rademacher_truncation(params: SeriesParams) -> CertifiedInterval:
    """Sum of the series over odd k <= N, as a certified interval.

    The result is real: each multiplier sum's exponent multiset is checked
    exactly to be conjugate-symmetric, else :class:`UndecidedRealError` is
    raised rather than an imaginary part silently discarded.
    """
    n, prec = params.n, params.precision_bits
    total = mpi_zero
    ks = range(1, params.N + 1, 2)
    for k, deriv in zip(ks, _term_derivatives_mpi(n, ks, prec)):
        real = _multiplier_sum_mpi(n % k, k, prec)
        scale = _series_scale_mpi(k, prec)
        total = mpi_add(total, mpi_mul(mpi_mul(scale, real, prec), deriv, prec), prec)
    return CertifiedInterval.from_mpi(total, prec)


def _mu_and_exp(n: int, precision_bits: int):
    """(prec, mu(n), e^mu(n)) for the closed forms below; validates n."""
    check_int(n, "n")
    prec = check_precision(precision_bits)
    m = mu_mpi(n, prec)
    return prec, m, mpi_exp(m, prec)


def main_term(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """Closed form of the k = 1 series term,
    (1/8n) [ (1 + 1/mu) e^{-mu} + (1 - 1/mu) e^{mu} ];
    equals the full truncated sum for any cutoff below 3."""
    prec, m, e = _mu_and_exp(n, precision_bits)
    inverse = mpi_div(mpi_one, m, prec)
    rising = mpi_div(mpi_add(mpi_one, inverse, prec), e, prec)
    falling = mpi_mul(mpi_sub(mpi_one, inverse, prec), e, prec)
    value = mpi_div(mpi_add(rising, falling, prec), int_mpi(8 * n, prec), prec)
    return CertifiedInterval.from_mpi(value, prec)


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
    check_int(n, "n")
    check_int(N, "N")
    prec = check_precision(precision_bits)
    point = _evaluation_point(n, prec)
    arg, _, body = point.cosh_sinh(N)
    if tightened:
        body = mpi_sub(body, arg, prec)
    big_n = int_mpi(N, prec)
    factor = mpi_mul(mpi_mul(mpi_sqrt(big_n, prec), big_n, prec), big_n, prec)
    value = mpi_div(mpi_mul(factor, body, prec), mpi_mul(int_mpi(n, prec), point.mu, prec), prec)
    return CertifiedInterval.from_mpi(value, prec)


def simple_bounds(n: int, precision_bits: int = DEFAULT_BITS) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """Two-sided exponential bounds:
    lower (1 - 2/mu) e^mu / 8n (valid from n = 4 on),
    upper (1 + 1/n) e^mu / 8n (valid from n = 1 on)."""
    prec, m, e = _mu_and_exp(n, precision_bits)
    e_over_8n = mpi_div(e, int_mpi(8 * n, prec), prec)
    lower = mpi_mul(mpi_sub(mpi_one, mpi_div(int_mpi(2, prec), m, prec), prec), e_over_8n, prec)
    upper = mpi_mul(e_over_8n, mpi_div(int_mpi(n + 1, prec), int_mpi(n, prec), prec), prec)
    return CertifiedInterval.from_mpi(lower, prec), CertifiedInterval.from_mpi(upper, prec)


def refined_bounds(n: int, precision_bits: int = DEFAULT_BITS) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """The mu^{-5}-window pair around the leading form,
    e^mu/8n * (1 - 1/mu -+ 1/mu^5); brackets pbar(n) for n >= 55 (certified
    over finite ranges by the verifier suite, not assumed)."""
    prec, m, e = _mu_and_exp(n, precision_bits)
    e_over_8n = mpi_div(e, int_mpi(8 * n, prec), prec)
    core = mpi_sub(mpi_one, mpi_div(mpi_one, m, prec), prec)
    window = mpi_div(mpi_one, mpi_pow_int(m, 5, prec), prec)
    return (
        CertifiedInterval.from_mpi(mpi_mul(e_over_8n, mpi_sub(core, window, prec), prec), prec),
        CertifiedInterval.from_mpi(mpi_mul(e_over_8n, mpi_add(core, window, prec), prec), prec),
    )
