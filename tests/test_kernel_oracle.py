"""The tuple interval kernels against their context-form oracle, bit for bit.

The kernels in ``overpart.ratio_bounds`` and the ``delta2-log`` evaluator run
on raw ``libmpi`` endpoint tuples; ``context_kernels`` writes the same
formulas on mpmath's interval context.  Equal endpoints at every sampled
(n, bits) mean equal reports.  The comparison also catches drift in mpmath's
internal ``libmpi`` layer, which ``mpmath>=1.3`` does not pin.
"""

import random
from fractions import Fraction

import pytest

import context_kernels as oracle
from overpart import (
    CertifiedInterval,
    diagonal_gap,
    quadratic_upper_root,
    ratio_lower_bound,
    ratio_upper_bound,
    turan_quadratic_roots,
    u_ratio,
)
from overpart.intervals import context
from overpart.ratio_bounds import (
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
    ctx = context(bits)
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
