"""The interval kernels written on mpmath's interval context: the oracle.

``overpart.ratio_bounds`` and the ``delta2-log`` evaluator in
``overpart.verifiers`` run these formulas on raw ``libmpi`` endpoint tuples.
Here each one is written once more, as it reads on the interval context, in
the same operation order; ``tests/test_kernel_oracle.py`` requires the tuple
kernels to give the same endpoints bit for bit.  Nothing here calls the
package's tuple helpers, so a change to either side, or to mpmath's ``libmpi``
layer underneath, shows up as a difference.
"""

from fractions import Fraction

from overpart import CertifiedInterval
from overpart.intervals import context


def rational(ctx, value):
    value = Fraction(value)
    return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)


def mu(ctx, n):
    return ctx.pi * ctx.sqrt(ctx.mpf(n))


def envelope(ctx, x, y, z, signed):
    e = ctx.exp(x - 2 * y + z)
    num = y ** 14 * (x ** 5 - x ** 4 + signed) * (z ** 5 - z ** 4 + signed)
    den = x ** 7 * z ** 7 * (y ** 5 - y ** 4 - signed) ** 2
    return e * num / den


def window(x):
    return 1000 / x ** 5


def q(ctx, t, sign):
    return (3 * t + sign * 2 * ctx.sqrt((1 - t) ** 3) - 2) / t ** 2


# -- the four checks' gaps ---------------------------------------------------------


def delta2_log_gaps(ctx, n, outer, square):
    n32 = ctx.sqrt(ctx.mpf(n)) * n
    return [ctx.mpf(outer) * ctx.pi + 4 * n32 * ctx.mpf(outer - square)]


def fg_sandwich_gaps(ctx, n, u):
    x, y, z = (mu(ctx, m) for m in range(n - 1, n + 2))
    ui = rational(ctx, u)
    return [ui - envelope(ctx, x, y, z, -1), envelope(ctx, x, y, z, +1) - ui]


def g_vs_f_shift_gaps(ctx, n):
    x, y, z, w = (mu(ctx, m) for m in range(n - 1, n + 3))
    return [envelope(ctx, x, y, z, -1) + window(x) - envelope(ctx, y, z, w, +1)]


def f_vs_q_gaps(ctx, n, u):
    x, y, z = (mu(ctx, m) for m in range(n - 1, n + 2))
    return [q(ctx, rational(ctx, u), +1) - envelope(ctx, x, y, z, -1) - window(x)]


# -- the public wrappers ------------------------------------------------------------


def ratio_bound(n, bits, signed):
    ctx = context(bits)
    x, y, z = (mu(ctx, m) for m in range(n - 1, n + 2))
    return CertifiedInterval.from_ival(envelope(ctx, x, y, z, signed), bits)


def quadratic_upper_root(t: CertifiedInterval, minus_t=False):
    ctx = context(t.precision_bits)
    ti = t.ival(ctx)
    value = q(ctx, ti, +1)
    return CertifiedInterval.from_ival(value - ti if minus_t else value, t.precision_bits)


def turan_quadratic_roots(u, bits):
    ctx = context(bits)
    ui = rational(ctx, u)
    return tuple(CertifiedInterval.from_ival(q(ctx, ui, sign), bits) for sign in (-1, +1))
