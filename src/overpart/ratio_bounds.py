"""The log-concavity ratio u_n, its certified envelope, and cubic hyperbolicity.

u_n = pbar(n-1) pbar(n+1) / pbar(n)^2 is kept exact as a rational everywhere;
only the bounding functions are interval-valued.  With the abbreviations

    x = mu(n-1),  y = mu(n),  z = mu(n+1),  w = mu(n+2),

the envelope is

    lower(n) = e^{x-2y+z} y^14 (x^5-x^4-1)(z^5-z^4-1) / ( x^7 z^7 (y^5-y^4+1)^2 ),
    upper(n) = e^{x-2y+z} y^14 (x^5-x^4+1)(z^5-z^4+1) / ( x^7 z^7 (y^5-y^4-1)^2 ),

which brackets u_n from n = 55 on (certified over finite ranges by the
verifier suite).  The quadratic

    F(t) = 4 (1 - u)(1 - t) - (1 - u t)^2     (0 < u < 1)

has the two roots P(u) <= Q(u) written with sqrt((1-u)^3); Q drives the
third-order comparisons, and psi(t) = Q(t) - t is its gap to the diagonal.
Degree-6 and degree-7 Taylor polynomials of e^t bound the exponential from
above and below on t < 0 (alternating-series remainders).

The cubic with coefficients binom(3,j) pbar(n+j) is hyperbolic (all roots
real) exactly when its discriminant is nonnegative; the discriminant is an
exact integer here and equals 27 times the third-order expression in
consecutive u values, a correspondence the tests validate before relying on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .exact_core import OverpartitionTable
from .intervals import DEFAULT_BITS, CertifiedInterval, context
from .asymptotics import _mu_raw


class DomainError(ValueError):
    """Argument lies outside the domain an operation is certified on."""


# -- the exact ratio -------------------------------------------------------------


def u_ratio(table: OverpartitionTable, n: int) -> Fraction:
    """Exact u_n = pbar(n-1) pbar(n+1) / pbar(n)^2; needs 1 <= n < max_n."""
    if not 1 <= n <= table.max_n - 1:
        raise IndexError(f"n = {n} outside table range 1..{table.max_n - 1}")
    return Fraction(table[n - 1] * table[n + 1], table[n] ** 2)


# -- the envelope ---------------------------------------------------------------


def _envelope_raw(ctx, x, y, z, signed: int):
    """Shared shape of the two envelope functions; signed = -1 gives the
    lower bound, +1 the upper."""
    e = ctx.exp(x - 2 * y + z)
    num = y ** 14 * (x ** 5 - x ** 4 + signed) * (z ** 5 - z ** 4 + signed)
    den = x ** 7 * z ** 7 * (y ** 5 - y ** 4 - signed) ** 2
    return e * num / den


def _bounds_pair_raw(ctx, n: int):
    x = _mu_raw(ctx, n - 1)
    y = _mu_raw(ctx, n)
    z = _mu_raw(ctx, n + 1)
    return _envelope_raw(ctx, x, y, z, -1), _envelope_raw(ctx, x, y, z, +1)


def ratio_lower_bound(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The envelope's lower member at n (below u_n for n >= 55)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    ctx = context(precision_bits)
    lower, _ = _bounds_pair_raw(ctx, n)
    return CertifiedInterval.from_ival(lower, precision_bits)


def ratio_upper_bound(n: int, precision_bits: int = DEFAULT_BITS) -> CertifiedInterval:
    """The envelope's upper member at n (above u_n for n >= 55)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    ctx = context(precision_bits)
    _, upper = _bounds_pair_raw(ctx, n)
    return CertifiedInterval.from_ival(upper, precision_bits)


# -- the quadratic's upper root and its diagonal gap ------------------------------


def _require_unit_interval(t: CertifiedInterval) -> None:
    if not (t.lo > 0 and t.hi < 1):
        raise DomainError(f"argument must lie strictly inside (0, 1), got {t!r}")


def _q_raw(ctx, t):
    return (3 * t + 2 * ctx.sqrt((1 - t) ** 3) - 2) / t ** 2


def quadratic_upper_root(t: CertifiedInterval) -> CertifiedInterval:
    """Q(t) = (3t + 2 sqrt((1-t)^3) - 2) / t^2 on 0 < t < 1; increasing, with
    limit 1 at t -> 1."""
    _require_unit_interval(t)
    ctx = context(t.precision_bits)
    return CertifiedInterval.from_ival(_q_raw(ctx, t.ival(ctx)), t.precision_bits)


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
    _require_unit_interval(t)
    ctx = context(t.precision_bits)
    ti = t.ival(ctx)
    return CertifiedInterval.from_ival(_q_raw(ctx, ti) - ti, t.precision_bits)


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
    ctx = context(precision_bits)
    ui = ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
    radical = 2 * ctx.sqrt((1 - ui) ** 3)
    base = 3 * ui - 2
    lower = CertifiedInterval.from_ival((base - radical) / ui ** 2, precision_bits)
    upper = CertifiedInterval.from_ival((base + radical) / ui ** 2, precision_bits)
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


def _require_negative(t: CertifiedInterval) -> None:
    if not t.hi < 0:
        raise DomainError(f"bounding property needs t < 0 throughout, got {t!r}")


def _poly_raw(ctx, coeffs, t):
    acc = ctx.mpf(coeffs[-1].numerator) / coeffs[-1].denominator
    for c in reversed(coeffs[:-1]):
        acc = acc * t + ctx.mpf(c.numerator) / c.denominator
    return acc


def trunc_exp_upper(t: CertifiedInterval) -> CertifiedInterval:
    """Degree-6 Taylor polynomial of e^t; >= e^t on t < 0."""
    _require_negative(t)
    ctx = context(t.precision_bits)
    return CertifiedInterval.from_ival(
        _poly_raw(ctx, UPPER_TAYLOR_COEFFS, t.ival(ctx)), t.precision_bits)


def trunc_exp_lower(t: CertifiedInterval) -> CertifiedInterval:
    """Degree-7 Taylor polynomial of e^t; <= e^t on t < 0."""
    _require_negative(t)
    ctx = context(t.precision_bits)
    return CertifiedInterval.from_ival(
        _poly_raw(ctx, LOWER_TAYLOR_COEFFS, t.ival(ctx)), t.precision_bits)


# -- cubic hyperbolicity -----------------------------------------------------------


def jensen_cubic(table: OverpartitionTable, n: int) -> Tuple[Tuple[int, int, int, int], int]:
    """Coefficients (by ascending degree) and exact discriminant of the cubic
    sum_j binom(3,j) pbar(n+j) x^j; nonnegative discriminant means all three
    roots are real."""
    if n < 0 or n + 3 > table.max_n:
        raise IndexError(f"need pbar up to {n + 3}, table stops at {table.max_n}")
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
    if n < 1 or n + 2 > table.max_n:
        raise IndexError(f"need pbar({n - 1}..{n + 2}), table stops at {table.max_n}")
    p0, p1, p2, p3 = table[n - 1], table[n], table[n + 1], table[n + 2]
    return 4 * (p1 * p1 - p0 * p2) * (p2 * p2 - p1 * p3) - (p1 * p2 - p0 * p3) ** 2
