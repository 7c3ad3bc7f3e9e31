"""The package's interval formulas written on mpmath's interval context: the oracle.

``overpart`` computes every interval formula on raw ``libmpi`` endpoint
tuples.  Here each one is written once more, as it reads on the interval
context, in the same operation order; ``tests/test_kernel_oracle.py`` requires
the package to give the same endpoints bit for bit.  Nothing here calls the
package's tuple helpers, so a change to either side, or to mpmath's ``libmpi``
layer underneath, shows up as a difference.

The context also gives the tests their interval arithmetic: :func:`ival`
lifts a ``CertifiedInterval`` into the context at its precision, where
mpmath's operators and functions apply, and :func:`interval` brings a result
back.

It also keeps the package's earlier readers as references: the margin
renderer in ``Fraction`` powers, and the reading of a check's gaps into a
verdict and margin through ``Fraction`` minima.
"""

from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.ctx_iv import MPIntervalContext

from overpart import CertifiedInterval
from overpart.asymptotics import _multiplier_exponents


@lru_cache(maxsize=None)
def context(bits):
    """Interval context at a fixed mantissa size; never mutated after
    creation."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def ival(x: CertifiedInterval, ctx=None):
    """``x`` as a value of ``ctx`` (by default the context at its precision)."""
    return (ctx or context(x.precision_bits)).make_mpf(x.mpi)


def interval(value, bits) -> CertifiedInterval:
    """A value of the interval context as a ``CertifiedInterval``."""
    return CertifiedInterval.from_mpi(value._mpi_, bits)


def _unary(x: CertifiedInterval, fn: str) -> CertifiedInterval:
    ctx = context(x.precision_bits)
    return interval(getattr(ctx, fn)(ival(x, ctx)), x.precision_bits)


def sqrt(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "sqrt")


def exp(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "exp")


def log(x: CertifiedInterval) -> CertifiedInterval:
    return _unary(x, "log")


def sawtooth_exponent(h, k):
    """s(h,k) = sum_r r (2 (hr mod k) - k) / (2 k^2), the defining sum over the
    common denominator 2k^2, in O(k) steps: the reference for the package's
    reciprocity form."""
    total = 0
    for r in range(1, k):
        total += r * (2 * ((h * r) % k) - k)
    return Fraction(total, 2 * k * k)


def rational(ctx, value):
    value = Fraction(value)
    return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)


def mu(ctx, n):
    return ctx.pi * ctx.sqrt(ctx.mpf(n))


def cosh_sinh(ctx, x):
    e = ctx.exp(x)
    inverse = 1 / e
    return (e + inverse) / 2, (e - inverse) / 2


def cos_half_turns(ctx, turns):
    turns = turns % 2
    if turns == 0:
        return ctx.mpf(1)
    if turns == 1:
        return ctx.mpf(-1)
    if turns.denominator == 2:
        return ctx.mpf(0)
    return ctx.cos(ctx.pi * turns.numerator / turns.denominator)


# -- the series and its bounds ------------------------------------------------------


def term_derivative(ctx, n, k):
    mu_over_k = mu(ctx, n) / k
    sqrt_n = ctx.sqrt(ctx.mpf(n))
    cosh, sinh = cosh_sinh(ctx, mu_over_k)
    return (ctx.pi / (2 * k * n)) * cosh - sinh / (2 * n * sqrt_n)


def multiplier_sum(ctx, n, k):
    counts = _multiplier_exponents(n, k)
    real = ctx.mpf(0)
    for turns in sorted(counts):
        mirror = -turns % 2
        if turns <= mirror:
            weight = counts[turns] if turns == mirror else 2 * counts[turns]
            real += weight * cos_half_turns(ctx, turns)
    return real


def partial_truncations(ctx, n, N):
    """The truncation at each odd cutoff k = 1, 3, ..., N in turn, each the
    sum of the one before and its k-th term."""
    total = ctx.mpf(0)
    for k in range(1, N + 1, 2):
        real = multiplier_sum(ctx, n, k)
        deriv = term_derivative(ctx, n, k)
        scale = ctx.sqrt(ctx.mpf(k)) / (2 * ctx.pi)
        total += scale * real * deriv
        yield total


def truncation(ctx, n, N):
    *_, total = partial_truncations(ctx, n, N)
    return total


def main_term(ctx, n):
    m = mu(ctx, n)
    e = ctx.exp(m)
    return ((1 + 1 / m) / e + (1 - 1 / m) * e) / (8 * n)


def truncation_error_bound(ctx, n, N, tightened):
    m = mu(ctx, n)
    arg = m / N
    _, body = cosh_sinh(ctx, arg)
    if tightened:
        body -= arg
    return ctx.sqrt(ctx.mpf(N)) * N * N * body / (n * m)


def simple_bounds(ctx, n):
    m = mu(ctx, n)
    e_over_8n = ctx.exp(m) / (8 * n)
    return (1 - 2 / m) * e_over_8n, e_over_8n * (ctx.mpf(n + 1) / n)


def refined_bounds(ctx, n):
    m = mu(ctx, n)
    e_over_8n = ctx.exp(m) / (8 * n)
    core = 1 - 1 / m
    window = 1 / m ** 5
    return e_over_8n * (core - window), e_over_8n * (core + window)


def pair_threshold_gap(ctx, a, lam):
    lam_a = rational(ctx, lam * a)
    sqrt_a = ctx.sqrt(ctx.mpf(a))
    sqrt_lam_a = ctx.sqrt(lam_a)
    t_val = ctx.pi * (sqrt_a + sqrt_lam_a - ctx.sqrt(a + lam_a))
    s_val = (1 + 1 / (a + lam_a)) / ((1 - 1 / sqrt_a) * (1 - 1 / sqrt_lam_a))
    return t_val - ctx.log(ctx.mpf(4 * a)) - ctx.log(s_val)


def trunc_exp(ctx, t, coeffs):
    acc = rational(ctx, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * t + rational(ctx, c)
    return acc


# -- the envelope, Q and the four checks' gaps ---------------------------------------


def envelope(ctx, x, y, z, signed):
    e = ctx.exp(x - 2 * y + z)
    num = y ** 14 * (x ** 5 - x ** 4 + signed) * (z ** 5 - z ** 4 + signed)
    den = x ** 7 * z ** 7 * (y ** 5 - y ** 4 - signed) ** 2
    return e * num / den


def window(x):
    return 1000 / x ** 5


def q(ctx, t, sign):
    return (3 * t + sign * 2 * ctx.sqrt((1 - t) ** 3) - 2) / t ** 2


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
    return interval(envelope(ctx, x, y, z, signed), bits)


def quadratic_upper_root(t: CertifiedInterval, minus_t=False):
    ctx = context(t.precision_bits)
    ti = ival(t, ctx)
    value = q(ctx, ti, +1)
    return interval(value - ti if minus_t else value, t.precision_bits)


def turan_quadratic_roots(u, bits):
    ctx = context(bits)
    ui = rational(ctx, u)
    return tuple(interval(q(ctx, ui, sign), bits) for sign in (-1, +1))


# -- the margin renderer --------------------------------------------------------------


def _decimal_exponent(value: Fraction) -> int:
    """floor(log10(value)) for positive rational ``value``, exactly."""
    e = len(str(value.numerator)) - len(str(value.denominator))
    while Fraction(10) ** e > value:
        e -= 1
    while Fraction(10) ** (e + 1) <= value:
        e += 1
    return e


def directed_decimal(value: Fraction, sig: int = 6, round_up: bool = False) -> str:
    """The renderer in ``Fraction`` powers, as the package wrote it before it
    moved to integer arithmetic: the reference its output must equal."""
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


# -- the verdict reader ----------------------------------------------------------------


def _fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def _endpoint(x, round_up: bool) -> str:
    if mp.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return directed_decimal(_fraction(x), round_up=round_up)


def interval_outcome(gaps):
    """(verdict, margin) of a check's last gaps, raw endpoint tuples, as the
    package read them before it picked endpoints among raw tuples: the
    ``Fraction`` minimum of the negative upper or the positive lower
    endpoints, else the undecided ``lo..hi`` of the gap with the lowest lower
    endpoint."""
    values = [(mp.make_mpf(lo), mp.make_mpf(hi)) for lo, hi in gaps]
    negative = [_fraction(hi) for _, hi in values if hi < 0]
    if negative:
        return "fails", directed_decimal(min(negative), round_up=True)
    if all(lo > 0 for lo, _ in values):
        return "holds", directed_decimal(min(_fraction(lo) for lo, _ in values))
    lo, hi = min((gap for gap in values if gap[0] <= 0), key=lambda gap: gap[0])
    return "undecided", _endpoint(lo, False) + ".." + _endpoint(hi, True)
