"""The tuple interval kernels against their context-form oracle, bit for bit.

Every interval formula in ``overpart`` runs on raw ``libmpi`` endpoint
tuples; ``context_kernels`` writes the same formulas on mpmath's interval
context.  Equal endpoints at every sampled (n, bits) mean equal reports.  The
comparison also catches drift in mpmath's internal ``libmpi`` layer, which
``mpmath>=1.3`` does not pin.
"""

import random
from fractions import Fraction

import pytest

import context_kernels as oracle
from overpart import asymptotics
from overpart import (
    CertifiedInterval,
    SeriesParams,
    diagonal_gap,
    main_term,
    mu,
    pair_threshold_gap,
    quadratic_upper_root,
    rademacher_truncation,
    ratio_lower_bound,
    ratio_upper_bound,
    refined_bounds,
    series_term_derivative,
    simple_bounds,
    trunc_exp_lower,
    trunc_exp_upper,
    truncation_error_bound,
    turan_quadratic_roots,
    u_ratio,
)
from overpart.ratio_bounds import (
    LOWER_TAYLOR_COEFFS,
    UPPER_TAYLOR_COEFFS,
    KernelData,
    f_vs_q_gaps_raw,
    fg_sandwich_gaps_raw,
    g_vs_f_shift_gaps_raw,
)
from overpart.verifiers import CHECKS

BITS = (53, 128, 300, 512)

# n = 2 and 55 (range edges), 92 (the first f-vs-q subject), a contiguous run
# so the window is reused, seeded samples across the desk range and the top.
_rng = random.Random(6)
SAMPLED_N = sorted({2, 3, 4, 54, 55, 56, 90, 91, 92, 93, *range(700, 708),
                    *_rng.sample(range(5, 5600), 24), 5600, 5611, 5612, 5613, 5614})


def endpoints(values):
    return [v._mpi_ for v in values]


@pytest.mark.parametrize("bits", (24,) + BITS)  # 24: a low start rung as well
def test_gap_kernels_match_the_context_oracle(desk_table, bits):
    ctx = oracle.context(bits)
    data = KernelData(bits)  # one sweep, as run_check shares it
    delta2 = CHECKS["delta2-log"].evaluate
    for n in SAMPLED_N:
        u = u_ratio(desk_table, n)
        outer, square = desk_table[n - 1] * desk_table[n + 1], desk_table[n] ** 2
        assert delta2(desk_table, n)(data) == endpoints(
            oracle.delta2_log_gaps(ctx, n, outer, square)), n
        assert fg_sandwich_gaps_raw(data, n, u) == endpoints(
            oracle.fg_sandwich_gaps(ctx, n, u)), n
        assert g_vs_f_shift_gaps_raw(data, n) == endpoints(
            oracle.g_vs_f_shift_gaps(ctx, n)), n
        assert f_vs_q_gaps_raw(data, n, u) == endpoints(oracle.f_vs_q_gaps(ctx, n, u)), n


@pytest.mark.parametrize("bits", BITS)
def test_public_wrappers_match_the_context_oracle(desk_table, bits):
    for n in SAMPLED_N:
        assert ratio_lower_bound(n, bits).mpi == oracle.ratio_bound(n, bits, -1).mpi, n
        assert ratio_upper_bound(n, bits).mpi == oracle.ratio_bound(n, bits, +1).mpi, n
        u = u_ratio(desk_table, n)
        if u == 1:  # n = 2: outside (0, 1)
            continue
        t = CertifiedInterval.from_fraction(u, bits)
        assert quadratic_upper_root(t).mpi == oracle.quadratic_upper_root(t).mpi, n
        assert diagonal_gap(t).mpi == oracle.quadratic_upper_root(t, minus_t=True).mpi, n
        roots = turan_quadratic_roots(u, bits)
        assert [r.mpi for r in roots] == [r.mpi for r in oracle.turan_quadratic_roots(u, bits)], n
    t = CertifiedInterval.from_pair(Fraction(1, 3), Fraction(1, 2), bits)  # a wide argument
    assert quadratic_upper_root(t).mpi == oracle.quadratic_upper_root(t).mpi


# -- the series, its bounds, the truncated exponentials and the lambda gap ------------

SERIES_BITS = (3, 24, 53, 128, 256, 512)
# Small n, the cutoff-3 miss at 69, the acceptance edges 50 and 2000, seeded
# samples and the table's top.
SERIES_N = sorted({1, 2, 3, 5, 50, 69, 143, 2000, 30984,
                   *random.Random(7).sample(range(6, 31000), 3)})
CUTOFFS = (1, 3, 5, 15, 39)


def mpis(values):
    return [v._mpi_ for v in values]


@pytest.mark.parametrize("bits", SERIES_BITS)
def test_series_and_bounds_match_the_context_oracle(bits):
    ctx = oracle.context(bits)
    for n in SERIES_N:
        assert mu(n, bits).mpi == oracle.mu(ctx, n)._mpi_, n
        assert main_term(n, bits).mpi == oracle.main_term(ctx, n)._mpi_, n
        assert [b.mpi for b in simple_bounds(n, bits)] == mpis(oracle.simple_bounds(ctx, n)), n
        assert [b.mpi for b in refined_bounds(n, bits)] == mpis(oracle.refined_bounds(ctx, n)), n
        for k in (1, 3, 7, 39):
            assert (series_term_derivative(n, k, bits).mpi
                    == oracle.term_derivative(ctx, n, k)._mpi_), (n, k)
        for N in CUTOFFS:
            for tightened in (False, True):
                bound = truncation_error_bound(n, N, tightened=tightened, precision_bits=bits)
                assert bound.mpi == oracle.truncation_error_bound(ctx, n, N, tightened)._mpi_, (n, N)
        for N in CUTOFFS if n in (50, 2000) else CUTOFFS[:3]:
            assert (rademacher_truncation(SeriesParams(n, N, bits)).mpi
                    == oracle.truncation(ctx, n, N)._mpi_), (n, N)


@pytest.mark.parametrize("n, N, bits", ((69, 15, 53), (1737, 39, 256), (2000, 39, 53),
                                        (30984, 39, 256)))
def test_memoized_truncation_matches_the_uncached_oracle(n, N, bits):
    # Fill the memo from other indices of n's residue classes, n + j k, then
    # require the truncation at n, served wholly from the memo, to equal the
    # oracle, which recomputes every multiplier sum.
    memo = asymptotics._multiplier_sum_mpi
    memo.cache_clear()
    for k in range(1, N + 1, 2):
        for j in (1, 2, 7):
            rademacher_truncation(SeriesParams(n + j * k, k, bits))
    misses = memo.cache_info().misses
    truncation = rademacher_truncation(SeriesParams(n, N, bits))
    assert memo.cache_info().misses == misses
    assert truncation.mpi == oracle.truncation(oracle.context(bits), n, N)._mpi_


@pytest.mark.parametrize("bits", SERIES_BITS)
def test_threshold_gap_and_truncated_exponentials_match_the_context_oracle(bits):
    ctx = oracle.context(bits)
    for a in (2, 3, 4, 5):
        for lam in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(17, 5), Fraction(9)):
            assert pair_threshold_gap(a, lam, bits).mpi == oracle.pair_threshold_gap(ctx, a, lam)._mpi_
    samples = [Fraction(-1), Fraction(-1, 3), Fraction(-7, 2), Fraction(-1, 10 ** 9)]
    for t in samples + [-Fraction(random.Random(bits).randint(1, 10 ** 4), 10 ** 3) for _ in range(8)]:
        ti = CertifiedInterval.from_fraction(t, bits)
        lifted = oracle.ival(ti, ctx)
        assert trunc_exp_upper(ti).mpi == oracle.trunc_exp(ctx, lifted, UPPER_TAYLOR_COEFFS)._mpi_, t
        assert trunc_exp_lower(ti).mpi == oracle.trunc_exp(ctx, lifted, LOWER_TAYLOR_COEFFS)._mpi_, t
