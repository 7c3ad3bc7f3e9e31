"""The log-concavity ratio u_n, its certified envelope, and cubic hyperbolicity.

u_n = pbar(n-1) pbar(n+1) / pbar(n)^2 is kept exact as a rational everywhere;
only the bounding functions are interval-valued.  With the abbreviations

    x = mu(n-1),  y = mu(n),  z = mu(n+1),  w = mu(n+2),

the envelope is

    lower(n) = e^{x-2y+z} y^14 (x^5-x^4-1)(z^5-z^4-1) / ( x^7 z^7 (y^5-y^4+1)^2 ),
    upper(n) = e^{x-2y+z} y^14 (x^5-x^4+1)(z^5-z^4+1) / ( x^7 z^7 (y^5-y^4-1)^2 ),

which brackets u_n from n = 55 on.  The quadratic

    F(t) = 4 (1 - u)(1 - t) - (1 - u t)^2     (0 < u < 1)

has the two roots P(u) <= Q(u) written with sqrt((1-u)^3); Q drives the
third-order comparisons, and psi(t) = Q(t) - t is its gap to the diagonal.
Degree-6 and degree-7 Taylor polynomials of e^t bound the exponential from
above and below on t < 0 (alternating-series remainders).

Each of these interval formulas is written once, here.  With the window
1000/mu(n-1)^5 the gap kernels are u_n - lower(n) and upper(n) - u_n
(fg_sandwich_gaps_raw), lower(n) + window - upper(n+1) (g_vs_f_shift_gaps_raw)
and Q(u_n) - lower(n) - window (f_vs_q_gaps_raw); the verifiers certify their
signs over finite ranges instead of assuming them.

Every interval formula here runs on outward-rounded ``libmpi`` endpoint
tuples; the gap kernels read mu, lower(n), upper(n) and the window from a
:class:`KernelData`.  A campaign sweeps its checks together by index and
shares one per precision rung, freed when the campaign returns, so each of
these is computed once however many checks read it.  Each formula keeps the
operation order of its interval-context form, which the tests keep as a
bit-for-bit oracle, so the enclosures are the ones the context would give.

The cubic with coefficients binom(3,j) pbar(n+j) is hyperbolic (all roots
real) exactly when its discriminant is nonnegative; the discriminant is an
exact integer here and equals 27 times the third-order expression in
consecutive u values, a correspondence the tests validate before relying on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from mpmath.libmp import from_int
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_mul,
    mpi_pow_int,
    mpi_sqrt,
    mpi_square,
    mpi_sub,
)

from .exact_core import OverpartitionTable, check_int
from .intervals import DEFAULT_BITS, CertifiedInterval, check_precision, int_mpi, rational_mpi
from .asymptotics import mu_mpi


class DomainError(ValueError):
    """Argument lies outside the domain an operation is certified on."""


# -- the exact ratio -------------------------------------------------------------


def u_ratio(table: OverpartitionTable, n: int) -> Fraction:
    """Exact u_n = pbar(n-1) pbar(n+1) / pbar(n)^2; needs 1 <= n < max_n."""
    middle = table[n]  # first, so the table judges n before n - 1 is taken
    return Fraction(table[n - 1] * table[n + 1], middle ** 2)


# -- the envelope, the window, Q and P, and the gap kernels ------------------------

_ONE, _TWO, _THREE = ((from_int(c), from_int(c)) for c in (1, 2, 3))


class KernelData:
    """The mu and envelope data of one campaign at one precision, built on
    first use.

    Holds (mu, mu^4, mu^5, mu^7, mu^14) per index and, per middle index n,
    the envelope's shared factors at mu(n-1), mu(n), mu(n+1), lower(n),
    upper(n) and the window 1000/mu(n-1)^5.  A campaign sweeps its checks
    together in index order, so each store keeps only its ``WINDOW`` newest
    entries: memory stays fixed however long the sweep.  Two are enough for
    each value to be computed once, since the subjects at n read triples and
    upper members only at n and n + 1.
    """

    WINDOW = 2

    def __init__(self, prec: int):
        self.prec = prec
        self._powers: Dict[int, tuple] = {}
        self._triples: Dict[int, tuple] = {}
        self._lower: Dict[int, tuple] = {}
        self._upper: Dict[int, tuple] = {}
        self._windows: Dict[int, tuple] = {}

    def _memo(self, store: Dict[int, tuple], key: int, make) -> tuple:
        """``store[key]``, computed by ``make()`` on a miss; the oldest entry
        goes once the store holds ``WINDOW``."""
        found = store.get(key)
        if found is None:
            if len(store) >= self.WINDOW:
                del store[next(iter(store))]
            found = store[key] = make()
        return found

    def powers(self, m: int) -> tuple:
        """(mu, mu^4, mu^5, mu^7, mu^14) at index m."""
        return self._memo(self._powers, m, lambda: _powers(self.prec, mu_mpi(m, self.prec)))

    def triple(self, n: int) -> tuple:
        """The envelope's arguments at n: see :func:`_triple`."""
        return self._memo(self._triples, n, lambda: _triple(
            self.prec, self.powers(n - 1), self.powers(n), self.powers(n + 1)))

    def lower(self, n: int) -> tuple:
        """The envelope's lower member at n."""
        return self._memo(self._lower, n, lambda: _envelope(self.prec, self.triple(n), -1))

    def upper(self, n: int) -> tuple:
        """The envelope's upper member at n."""
        return self._memo(self._upper, n, lambda: _envelope(self.prec, self.triple(n), +1))

    def window(self, n: int) -> tuple:
        """The window 1000/mu(n-1)^5."""
        return self._memo(self._windows, n, lambda: _window(self.prec, self.triple(n)[0]))


def _powers(prec: int, x):
    """(x, x^4, x^5, x^7, x^14) of one enclosure."""
    return (x,) + tuple(mpi_pow_int(x, k, prec) for k in (4, 5, 7, 14))


def _triple(prec: int, x, y, z):
    """The powers of x, y, z with e^{x-2y+z} and x^7 z^7, the factors both
    envelope members share."""
    e = mpi_exp(mpi_add(mpi_sub(x[0], mpi_mul(_TWO, y[0], prec), prec), z[0], prec), prec)
    return x, y, z, e, mpi_mul(x[3], z[3], prec)


def _envelope(prec: int, triple, signed: int):
    """Shared shape of the two envelope functions; signed = -1 gives the
    lower bound, +1 the upper:
    e^{x-2y+z} y^14 (x^5-x^4+s)(z^5-z^4+s) / (x^7 z^7 (y^5-y^4-s)^2)."""
    (_, x4, x5, _, _), (_, y4, y5, _, y14), (_, z4, z5, _, _), e, x7z7 = triple
    s = (from_int(signed), from_int(signed))
    num = mpi_mul(mpi_mul(y14, mpi_add(mpi_sub(x5, x4, prec), s, prec), prec),
                  mpi_add(mpi_sub(z5, z4, prec), s, prec), prec)
    den = mpi_mul(x7z7, mpi_square(mpi_sub(mpi_sub(y5, y4, prec), s, prec), prec), prec)
    return mpi_div(mpi_mul(e, num, prec), den, prec)


def _window(prec: int, x):
    """The window 1000/x^5 at the powers x of mu(n-1)."""
    return mpi_div(int_mpi(1000, prec), x[2], prec)


def _q(prec: int, t, sign: int):
    """Q(t) for sign = +1, P(t) for sign = -1: (3t +- 2 sqrt((1-t)^3) - 2) / t^2.

    Raises mpmath's ComplexResult when the enclosure of t reaches past 1.
    """
    root = mpi_sqrt(mpi_pow_int(mpi_sub(_ONE, t, prec), 3, prec), prec)
    num = mpi_add(mpi_mul(_THREE, t, prec), mpi_mul(int_mpi(sign * 2, prec), root, prec), prec)
    return mpi_div(mpi_sub(num, _TWO, prec), mpi_square(t, prec), prec)


def fg_sandwich_gaps_raw(data: KernelData, n: int, u: Fraction):
    """[u_n - lower(n), upper(n) - u_n] for the exact ratio u = u_n."""
    ui = rational_mpi(u, data.prec)
    return [mpi_sub(ui, data.lower(n), data.prec), mpi_sub(data.upper(n), ui, data.prec)]


def g_vs_f_shift_gaps_raw(data: KernelData, n: int):
    """[lower(n) + window - upper(n+1)]."""
    lower = mpi_add(data.lower(n), data.window(n), data.prec)
    return [mpi_sub(lower, data.upper(n + 1), data.prec)]


def f_vs_q_gaps_raw(data: KernelData, n: int, u: Fraction):
    """[Q(u_n) - lower(n) - window] for the exact ratio u = u_n."""
    prec = data.prec
    q = _q(prec, rational_mpi(u, prec), +1)
    return [mpi_sub(mpi_sub(q, data.lower(n), prec), data.window(n), prec)]


def _envelope_at(n: int, precision_bits: int, signed: int) -> CertifiedInterval:
    check_int(n, "n", 2)
    triple = KernelData(check_precision(precision_bits)).triple(n)
    return CertifiedInterval.from_mpi(_envelope(precision_bits, triple, signed), precision_bits)


def ratio_lower_bound(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The envelope's lower member at n (below u_n for n >= 55)."""
    return _envelope_at(n, precision_bits, -1)


def ratio_upper_bound(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The envelope's upper member at n (above u_n for n >= 55)."""
    return _envelope_at(n, precision_bits, +1)


# -- the quadratic's roots and the diagonal gap ------------------------------------


def _q_at(t: CertifiedInterval, minus_t: bool) -> CertifiedInterval:
    if not (t.lo > 0 and t.hi < 1):
        raise DomainError(f"argument must lie strictly inside (0, 1), got {t!r}")
    prec, ti = t.precision_bits, t.mpi
    q = _q(prec, ti, +1)
    return CertifiedInterval.from_mpi(mpi_sub(q, ti, prec) if minus_t else q, prec)


def quadratic_upper_root(t: CertifiedInterval) -> CertifiedInterval:
    """Q(t) = (3t + 2 sqrt((1-t)^3) - 2) / t^2 on 0 < t < 1; increasing, with
    limit 1 at t -> 1."""
    return _q_at(t, minus_t=False)


def quadratic_upper_root_exact(t: Fraction) -> Optional[Fraction]:
    """Exact value of Q(t) when (1-t)^3 is a rational square, else None."""
    if not 0 < t < 1:
        raise DomainError(f"argument must lie strictly inside (0, 1), got {t}")
    cube = (1 - t) ** 3
    root_num = math.isqrt(cube.numerator)
    root_den = math.isqrt(cube.denominator)
    if root_num * root_num != cube.numerator or root_den * root_den != cube.denominator:
        return None
    return (3 * t + 2 * Fraction(root_num, root_den) - 2) / t ** 2


def diagonal_gap(t: CertifiedInterval) -> CertifiedInterval:
    """psi(t) = Q(t) - t; decreasing on (0, 1)."""
    return _q_at(t, minus_t=True)


def turan_quadratic_roots(
    u: Fraction,
    precision_bits: int = DEFAULT_BITS,
) -> Tuple[CertifiedInterval, CertifiedInterval]:
    """Both roots (P(u), Q(u)) of F(t) = 4(1-u)(1-t) - (1-ut)^2 for exact
    0 < u < 1; F is positive strictly between them.

    u = 1 is refused: the quadratic degenerates to a double root and the
    root-interval argument collapses (the n = 2 equality case is handled as an
    explicit equality verdict by the verifiers instead).
    """
    value = Fraction(u)
    if value == 1:
        raise DomainError("u = 1 gives a double root; no open positivity window")
    if not 0 < value < 1:
        raise DomainError(f"u must lie in (0, 1), got {value}")
    ui = rational_mpi(value, check_precision(precision_bits))
    lower, upper = (CertifiedInterval.from_mpi(_q(precision_bits, ui, sign), precision_bits)
                    for sign in (-1, +1))
    if not lower.hi < upper.lo:
        raise DomainError(f"roots not separated at {precision_bits} bits")
    return lower, upper


def turan_quadratic_at(u: Fraction, t: Fraction) -> Fraction:
    """Exact F(t) = 4(1-u)(1-t) - (1-ut)^2 at rational arguments."""
    return 4 * (1 - u) * (1 - t) - (1 - u * t) ** 2


# -- truncated exponentials --------------------------------------------------------

# Taylor coefficients 1/j! up to degree 6 (even tail: an upper bound on t < 0)
# and degree 7 (odd tail: a lower bound on t < 0).
UPPER_TAYLOR_COEFFS: Tuple[Fraction, ...] = tuple(
    Fraction(1, math.factorial(j)) for j in range(7))
LOWER_TAYLOR_COEFFS: Tuple[Fraction, ...] = tuple(
    Fraction(1, math.factorial(j)) for j in range(8))


def _trunc_exp(t: CertifiedInterval, coeffs: Tuple[Fraction, ...]) -> CertifiedInterval:
    if not t.hi < 0:
        raise DomainError(f"bounding property needs t < 0 throughout, got {t!r}")
    prec, ti = t.precision_bits, t.mpi
    acc = rational_mpi(coeffs[-1], prec)
    for c in reversed(coeffs[:-1]):
        acc = mpi_add(mpi_mul(acc, ti, prec), rational_mpi(c, prec), prec)
    return CertifiedInterval.from_mpi(acc, prec)


def trunc_exp_upper(t: CertifiedInterval) -> CertifiedInterval:
    """Degree-6 Taylor polynomial of e^t; >= e^t on t < 0."""
    return _trunc_exp(t, UPPER_TAYLOR_COEFFS)


def trunc_exp_lower(t: CertifiedInterval) -> CertifiedInterval:
    """Degree-7 Taylor polynomial of e^t; <= e^t on t < 0."""
    return _trunc_exp(t, LOWER_TAYLOR_COEFFS)


# -- cubic hyperbolicity -----------------------------------------------------------


def jensen_cubic(table: OverpartitionTable, n: int) -> Tuple[Tuple[int, int, int, int], int]:
    """Coefficients (by ascending degree) and exact discriminant of the cubic
    sum_j binom(3,j) pbar(n+j) x^j; nonnegative discriminant means all three
    roots are real."""
    coeffs = (table[n], 3 * table[n + 1], 3 * table[n + 2], table[n + 3])
    a, b, c, d = coeffs[3], coeffs[2], coeffs[1], coeffs[0]
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)
    return coeffs, disc


def higher_turan_integer(table: OverpartitionTable, n: int) -> int:
    """The third-order comparison as an exact integer with the sign of
    4 (1-u_n)(1-u_{n+1}) - (1 - u_n u_{n+1})^2: clearing the denominator
    pbar(n)^2 pbar(n+1)^2 leaves

        4 (pbar(n)^2 - pbar(n-1) pbar(n+1)) (pbar(n+1)^2 - pbar(n) pbar(n+2))
          - (pbar(n) pbar(n+1) - pbar(n-1) pbar(n+2))^2.
    """
    p1 = table[n]  # first, so the table judges n before n - 1 is taken
    p0, p2, p3 = table[n - 1], table[n + 1], table[n + 2]
    return 4 * (p1 * p1 - p0 * p2) * (p2 * p2 - p1 * p3) - (p1 * p2 - p0 * p3) ** 2
