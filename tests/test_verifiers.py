import dataclasses
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import ComplexResult, finf, fninf, from_int

from overpart import (
    CheckSpec,
    OverpartitionTable,
    Verdict,
    check_delta2_log,
    check_f_vs_q,
    check_fg_sandwich,
    check_g_vs_f_shift,
    check_higher_turan,
    check_log_concavity,
    check_multiplicative,
    check_strong_log_concavity,
    check_u_monotone,
    higher_turan_integer,
    jensen_cubic,
    pair_threshold_gap,
    run_campaign,
)
import context_kernels as oracle
from overpart import ratio_bounds, verifiers
from overpart.cli import DESK_SUITE
from overpart.intervals import DEFAULT_BITS, MAX_BITS, rational_mpi
from overpart.ratio_bounds import KernelData
from overpart.verifiers import CHECK_NAMES, CHECKS, run_check


def verdict_of(result, subject):
    return {item.subject: item.verdict for item in result.items}[subject]


# -- exact checks ---------------------------------------------------------------------


def test_log_concavity_equality_and_holds(desk_table):
    result = check_log_concavity(desk_table, 2, 3)
    assert verdict_of(result, "n=2") is Verdict.EQUALITY
    assert verdict_of(result, "n=3") is Verdict.HOLDS
    margins = {item.subject: item.margin for item in result.items}
    assert margins["n=2"] == "0"
    assert margins["n=3"] == "8"  # 64 - 56
    assert result.ok and result.equalities == ["n=2"]


def test_log_concavity_range_guard(desk_table):
    with pytest.raises(IndexError):
        check_log_concavity(desk_table, 0, 5)
    with pytest.raises(IndexError):
        check_log_concavity(desk_table, 2, desk_table.max_n)


def test_strong_log_concavity_equality_case(desk_table):
    result = check_strong_log_concavity(desk_table, 2, 10, m_policy=1)
    assert verdict_of(result, "n=2,m=1") is Verdict.EQUALITY
    assert verdict_of(result, "n=5,m=3") is Verdict.HOLDS
    assert result.counterexamples == []
    # m >= 2 reading excludes the equality pair entirely
    strict = check_strong_log_concavity(desk_table, 2, 60, m_policy=2)
    assert strict.count(Verdict.EQUALITY) == 0
    assert strict.count(Verdict.FAILS) == 0
    with pytest.raises(ValueError):
        check_strong_log_concavity(desk_table, 2, 10, m_policy=3)


def test_multiplicative_examples(desk_table):
    result = check_multiplicative(desk_table, 5, 10)
    margins = {item.subject: item.margin for item in result.items}
    assert margins["a=2,b=2"] == "2"    # 16 - 14
    assert margins["a=2,b=3"] == "8"    # 32 - 24
    assert result.ok
    with pytest.raises(ValueError):
        check_multiplicative(desk_table, 1, 10)


def test_higher_turan_small_n_verdicts(desk_table):
    # Verdict vector for 2..15, frozen from exact arithmetic.  The zeros at
    # n = 4 and n = 5 are genuine equality cases of the third-order form.
    result = check_higher_turan(desk_table, 2, 15)
    expected = {
        2: Verdict.FAILS, 3: Verdict.FAILS, 4: Verdict.EQUALITY,
        5: Verdict.EQUALITY, 6: Verdict.FAILS, 7: Verdict.FAILS,
        8: Verdict.FAILS, 9: Verdict.FAILS, 10: Verdict.FAILS,
        11: Verdict.HOLDS, 12: Verdict.FAILS, 13: Verdict.HOLDS,
        14: Verdict.HOLDS, 15: Verdict.FAILS,
    }
    for n, verdict in expected.items():
        assert verdict_of(result, f"n={n}") is verdict, n


def test_higher_turan_holds_from_16(desk_table):
    result = check_higher_turan(desk_table, 16, 200)
    assert result.ok and result.count(Verdict.HOLDS) == 185


def test_higher_turan_matches_cubic_discriminant_sign(desk_table):
    result = check_higher_turan(desk_table, 3, 50)
    for item in result.items:
        n = int(item.subject.split("=")[1])
        _, disc = jensen_cubic(desk_table, n - 1)
        value = higher_turan_integer(desk_table, n)
        assert (disc > 0) == (value > 0) and (disc == 0) == (value == 0), n


def test_u_monotone_onset(desk_table):
    result = check_u_monotone(desk_table, 2, 100)
    failing = {int(item.subject.split("=")[1])
               for item in result.items if item.verdict is Verdict.FAILS}
    assert failing == {2, 4, 5, 8, 11, 14, 17}
    # cited from 18; actually settles there
    settled = check_u_monotone(desk_table, 18, 2000)
    assert settled.ok and settled.count(Verdict.HOLDS) == 1983


# -- interval checks -------------------------------------------------------------------


def test_delta2_log_small(desk_table):
    result = check_delta2_log(desk_table, 2, 50)
    assert result.ok and result.count(Verdict.HOLDS) == 49
    assert all(item.margin.startswith(("1", "2", "3", "4", "5", "6", "7", "8", "9"))
               for item in result.items)


def test_delta2_log_scale_invariance(desk_table):
    # The inequality is homogeneous of degree zero in the counts.
    scaled = OverpartitionTable([7 * v for v in desk_table.values[:200]])
    original = check_delta2_log(desk_table, 2, 100)
    rescaled = check_delta2_log(scaled, 2, 100)
    assert [i.verdict for i in original.items] == [i.verdict for i in rescaled.items]


def test_fg_sandwich_desk_sample(desk_table):
    result = check_fg_sandwich(desk_table, 55, 120)
    assert result.ok
    # paper silent below 55: observed onset of the sandwich is n = 52
    below = check_fg_sandwich(desk_table, 45, 54)
    verdicts = {int(i.subject.split("=")[1]): i.verdict for i in below.items}
    assert verdicts[51] is Verdict.FAILS
    assert all(verdicts[n] is Verdict.HOLDS for n in (52, 53, 54))
    assert all(verdicts[n] is Verdict.FAILS for n in (45, 47, 48, 50))


def test_fg_sandwich_precision_never_flips(desk_table):
    # interval soundness: raising the working precision may settle verdicts
    # but never reverses one
    coarse = check_fg_sandwich(desk_table, 55, 80, precision_bits=128)
    fine = check_fg_sandwich(desk_table, 55, 80, precision_bits=512)
    assert [i.verdict for i in coarse.items] == [i.verdict for i in fine.items]


def test_g_vs_f_shift_boundaries():
    result = check_g_vs_f_shift(None, 2, 40)
    assert result.ok
    edge = check_g_vs_f_shift(None, 5614, 5615)
    assert edge.ok  # the directly-verified range ends at 5614; 5615 also holds
    with pytest.raises(IndexError):
        check_g_vs_f_shift(None, 1, 5)


def test_f_vs_q_boundary_probe(desk_table):
    result = check_f_vs_q(desk_table, 92, 130)
    assert result.ok
    probe = check_f_vs_q(desk_table, 90, 91)
    verdicts = {int(i.subject.split("=")[1]): i.verdict for i in probe.items}
    # below the claimed range: 90 is a certified counterexample, 91 holds
    # with a razor-thin margin (~1.4e-9)
    assert verdicts[90] is Verdict.FAILS
    assert verdicts[91] is Verdict.HOLDS


def test_interval_margins_have_consistent_sign(desk_table):
    result = check_f_vs_q(desk_table, 90, 95)
    for item in result.items:
        if item.verdict is Verdict.HOLDS:
            assert not item.margin.startswith("-")
        elif item.verdict is Verdict.FAILS:
            assert item.margin.startswith("-")


# -- the precision ladder on real data and on synthetic gaps ------------------------------

# Each interval check's range in the paper-desk suite.
DESK_INTERVAL_RANGES = {
    "delta2-log": (2, 5000),
    "fg-sandwich": (55, 2000),
    "g-vs-f-shift": (2, 5614),
    "f-vs-q": (92, 5000),
}


@pytest.mark.parametrize("name", sorted(DESK_INTERVAL_RANGES))
@given(data=st.data(), start_bits=st.integers(2, 64))
def test_ladder_from_low_start_bits_keeps_the_128_bit_verdicts(desk_table, name, data,
                                                                start_bits):
    low, high = DESK_INTERVAL_RANGES[name]
    length = data.draw(st.integers(1, 4), label="length")
    first = data.draw(st.integers(low, high - length + 1), label="first")
    spec = CheckSpec(name, first, first + length - 1, start_bits)
    result = run_check(desk_table, spec)
    reference = run_check(desk_table, dataclasses.replace(spec, precision_bits=128))
    assert [i.verdict for i in result.items] == [i.verdict for i in reference.items]
    assert all(item.precision_bits >= start_bits for item in result.items)


def _synthetic_gaps(monkeypatch, gaps):
    """Make g-vs-f-shift evaluate ``gaps(data)`` for every subject; returns
    the precisions it was called at."""
    rungs = []

    def evaluate(table, n):
        def at(data):
            rungs.append(data.prec)
            return gaps(data)
        return at

    monkeypatch.setitem(CHECKS, "g-vs-f-shift",
                        dataclasses.replace(CHECKS["g-vs-f-shift"], evaluate=evaluate))
    return rungs


def _raise_domain_error(data):
    raise ComplexResult("square root of a negative number")


@pytest.mark.parametrize("gaps", [_raise_domain_error, lambda data: [(fninf, finf)]],
                         ids=["domain-error", "unbounded"])
def test_ladder_cap_reads_undecided_with_an_unbounded_margin(monkeypatch, gaps):
    rungs = _synthetic_gaps(monkeypatch, gaps)
    item, = check_g_vs_f_shift(None, 2, 2).items
    assert (item.verdict, item.margin, item.precision_bits) == (
        Verdict.UNDECIDED, "-inf..+inf", MAX_BITS)
    assert rungs == [128, 256, 512, 1024, 2048, 4096, 8192]


def test_ladder_climbs_past_a_domain_error(monkeypatch):
    one = (from_int(1), from_int(1))

    def gaps(data):
        if data.prec < 512:
            raise ComplexResult("square root of a negative number")
        return [one]

    rungs = _synthetic_gaps(monkeypatch, gaps)
    item, = check_g_vs_f_shift(None, 2, 2).items
    assert (item.verdict, item.margin, item.precision_bits) == (Verdict.HOLDS, "1.00000e+0", 512)
    assert rungs == [128, 256, 512]


def test_ladder_lets_other_errors_propagate(monkeypatch):
    def gaps(data):
        raise ZeroDivisionError("kernel bug")

    _synthetic_gaps(monkeypatch, gaps)
    with pytest.raises(ZeroDivisionError, match="kernel bug"):
        check_g_vs_f_shift(None, 2, 2)


# Rationals of either sign, zero included, over a wide range of magnitudes.
_rationals = st.builds(lambda num, den, exp: Fraction(num, den) * Fraction(10) ** exp,
                       st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20),
                       st.integers(-40, 40))


def _gap(lo, hi):
    """The gap [lo, hi] with rational_mpi's 128-bit endpoints, rounded outward."""
    lo, hi = sorted((lo, hi))
    return rational_mpi(lo, 128)[0], rational_mpi(hi, 128)[1]


@given(gaps=st.lists(st.builds(_gap, _rationals, _rationals), min_size=1, max_size=3))
@example(gaps=[_gap(-3, -2), _gap(1, 2), _gap(-5, Fraction(-1, 7))])  # two negative gaps
@example(gaps=[_gap(Fraction(1, 3), 1), _gap(Fraction(1, 3), 2)])  # tied lower endpoints
@example(gaps=[_gap(1, 2), _gap(0, 0), _gap(-1, 1)])  # an exact zero and a straddle
def test_interval_reader_matches_the_fraction_reference(gaps):
    verdict, margin, bits = verifiers._interval_outcome(lambda data: gaps, 128, lambda bits: None)
    assert (str(verdict), margin) == oracle.interval_outcome(gaps)
    assert bits == (MAX_BITS if verdict is Verdict.UNDECIDED else 128)


def test_kernel_data_is_a_window_freed_with_the_run(monkeypatch):
    # A long sweep computes each mu once, holds a fixed number of indices per
    # rung, and leaves no reference to its kernel data once run_check returns.
    made, sizes, computed = [], [], []

    class Recording(KernelData):
        def __init__(self, prec):
            super().__init__(prec)
            made.append(weakref.ref(self))

        def triple(self, n):
            found = super().triple(n)
            sizes.append(max(len(self._powers), len(self._triples)))
            return found

    def counting_mu(m, prec):
        computed.append((m, prec))
        return mu_mpi(m, prec)

    mu_mpi = ratio_bounds.mu_mpi
    monkeypatch.setattr(verifiers, "KernelData", Recording)
    monkeypatch.setattr(ratio_bounds, "mu_mpi", counting_mu)
    assert check_g_vs_f_shift(None, 2, 5614).ok
    assert len(made) == 1 and made[0]() is None
    assert max(sizes) <= KernelData.WINDOW
    assert sorted(computed) == [(m, 128) for m in range(1, 5617)]

    made.clear()
    assert check_g_vs_f_shift(None, 2, 40, precision_bits=4).ok  # climbs several rungs
    assert len(made) > 1 and all(ref() is None for ref in made)


# -- threshold table ---------------------------------------------------------------------


def test_lambda_table_digit_prefixes(lambda_table):
    prefixes = {2: Fraction(7578, 1000), 3: Fraction(2566, 1000),
                4: Fraction(1550, 1000), 5: Fraction(1117, 1000)}
    for a, prefix in prefixes.items():
        interval = lambda_table.entries[a]
        assert interval.width_fraction() <= Fraction(1, 10 ** 6)
        assert prefix <= interval.lo_fraction()
        assert interval.hi_fraction() < prefix + Fraction(1, 1000)
    brackets = {a: (interval.lo_fraction(), interval.hi_fraction())
                for a, interval in lambda_table.entries.items()}
    assert brackets == {
        2: (Fraction(63570021, 8388608), Fraction(15892507, 2097152)),
        3: (Fraction(5381567, 2097152), Fraction(10763137, 4194304)),
        4: (Fraction(1625979, 1048576), Fraction(3251959, 2097152)),
        5: (Fraction(292975, 262144), Fraction(2343801, 2097152)),
    }


def test_lambda_table_certified_bracketing(lambda_table):
    for a, interval in lambda_table.entries.items():
        below = pair_threshold_gap(a, interval.lo_fraction(), 192)
        above = pair_threshold_gap(a, interval.hi_fraction(), 192)
        assert below.is_negative(), a
        assert above.is_positive(), a


def test_threshold_gap_positive_at_one_for_a_six():
    # No root needed from a = 6 on: the gap is already positive at lambda = 1.
    assert pair_threshold_gap(6, Fraction(1), 128).is_positive()
    assert pair_threshold_gap(7, Fraction(1), 128).is_positive()


def test_threshold_gap_validation():
    with pytest.raises(ValueError):
        pair_threshold_gap(1, Fraction(2))
    with pytest.raises(ValueError):
        pair_threshold_gap(2, Fraction(1, 2))


# -- campaign engine ----------------------------------------------------------------------


def test_run_campaign_empty(desk_table):
    assert run_campaign(desk_table, []) == []


def test_run_campaign_unknown_check(desk_table):
    with pytest.raises(ValueError):
        run_campaign(desk_table, [CheckSpec("no-such-check", 1, 2)])


@pytest.mark.parametrize("interval_bits", (128, 8))  # 8: rungs climb inside the merged sweep
def test_run_campaign_gives_the_items_of_separate_runs(desk_table, interval_bits):
    specs = [dataclasses.replace(spec, to_n=min(spec.to_n, 400), precision_bits=(
        spec.precision_bits if CHECKS[spec.name].exact else interval_bits))
        for spec in DESK_SUITE]
    merged = run_campaign(desk_table, specs)
    assert [result.spec for result in merged] == specs
    assert [result.items for result in merged] == [run_check(desk_table, spec).items
                                                   for spec in specs]
    if interval_bits == 8:
        rungs = {item.precision_bits for result in merged for item in result.items}
        assert {0, 8, 16, 32} <= rungs


def test_envelope_checks_share_mu_and_envelope_data(desk_table, monkeypatch):
    # One campaign of the three envelope checks over their desk ranges computes
    # each mu(1..5616) once and each envelope member once: lower(2..5614) and
    # upper(3..5615).
    mu_calls, envelope_calls = [], []

    def counting_mu(m, prec):
        mu_calls.append(m)
        return mu_mpi(m, prec)

    def counting_envelope(prec, triple, signed):
        envelope_calls.append((triple[1][0], signed))
        return envelope(prec, triple, signed)

    mu_mpi, envelope = ratio_bounds.mu_mpi, ratio_bounds._envelope
    monkeypatch.setattr(ratio_bounds, "mu_mpi", counting_mu)
    monkeypatch.setattr(ratio_bounds, "_envelope", counting_envelope)
    specs = [spec for spec in DESK_SUITE if spec.name in ("fg-sandwich", "g-vs-f-shift", "f-vs-q")]
    assert all(result.ok for result in run_campaign(desk_table, specs))
    assert sorted(mu_calls) == list(range(1, 5617))
    assert len(envelope_calls) == len(set(envelope_calls)) == 11226
    assert sum(signed < 0 for _, signed in envelope_calls) == 5613


def test_run_campaign_validates_every_spec_before_sweeping(desk_table, monkeypatch):
    calls = []

    def counting(table, n, check=CHECKS["log-concavity"]):
        calls.append(n)
        return check.evaluate(table, n)

    monkeypatch.setitem(CHECKS, "log-concavity",
                        dataclasses.replace(CHECKS["log-concavity"], evaluate=counting))
    small = OverpartitionTable(desk_table.values[:12])
    # A bad spec raises when built; one the table does not cover raises in
    # run_campaign, before any subject of any spec is evaluated.
    with pytest.raises(IndexError):
        CheckSpec("log-concavity", 0, 5)
    with pytest.raises(ValueError):
        CheckSpec("strong-log-concavity", 2, 8, params={"m_policy": 3})
    with pytest.raises(IndexError):
        run_campaign(small, [CheckSpec("log-concavity", 2, 10), CheckSpec("higher-turan", 2, 10)])
    assert calls == []
    assert len(run_campaign(small, [CheckSpec("log-concavity", 2, 10)])[0].items) == len(calls) == 9


def test_check_spec_validation():
    with pytest.raises(ValueError):
        CheckSpec("log-concavity", 5, 2)
    with pytest.raises(ValueError):
        CheckSpec("fuzzy", 2, 5)
    for bits in (1, 0, 128.0, True, MAX_BITS + 1):
        with pytest.raises(ValueError):
            CheckSpec("log-concavity", 2, 5, precision_bits=bits)
    CheckSpec("log-concavity", 2, 5, precision_bits=MAX_BITS)
    with pytest.raises(ValueError):  # the removed positional mode argument
        CheckSpec("log-concavity", 2, 5, "exact")
    # Non-integer bounds and parameters raise when built, not mid-sweep, and
    # from_n=True no longer runs as n = 1.
    for from_n, to_n in ((2.0, 5), (2, 5.5), (True, 5), ("2", 5)):
        with pytest.raises(ValueError):
            CheckSpec("log-concavity", from_n, to_n)
    for a_max in (5.5, 5.0, True):
        with pytest.raises(ValueError):
            CheckSpec("multiplicative", 2, 10, params={"a_max": a_max})
    with pytest.raises(ValueError):
        CheckSpec("strong-log-concavity", 2, 10, params={"m_policy": True})


def test_check_spec_rejects_params_the_check_does_not_read():
    # Both used to run: the first with m_policy = 1, the second ignoring a_max.
    with pytest.raises(ValueError, match="'m-policy'"):
        CheckSpec("strong-log-concavity", 2, 10, params={"m-policy": 2})
    with pytest.raises(ValueError, match="'a_max'"):
        CheckSpec("log-concavity", 2, 10, params={"a_max": 3})
    for name, check in CHECKS.items():
        for key in {"m_policy", "a_max"} - set(check.params):
            with pytest.raises(ValueError):
                CheckSpec(name, 2, 10, params={key: 2})
    CheckSpec("strong-log-concavity", 2, 10, params={"m_policy": 2})
    CheckSpec("multiplicative", 2, 10, params={"a_max": 3})


def test_table_tops():
    assert CheckSpec("log-concavity", 2, 100).table_top == 101
    assert CheckSpec("higher-turan", 2, 100).table_top == 102
    assert CheckSpec("strong-log-concavity", 2, 100).table_top == 199
    assert CheckSpec("multiplicative", 2, 100).table_top == 200
    assert CheckSpec("g-vs-f-shift", 2, 100).table_top == 0
    for name in CHECK_NAMES:
        CheckSpec(name, 2, 10)


def _small_spec(name):
    if name == "multiplicative":
        return CheckSpec(name, 2, 12, params={"a_max": 5})
    return CheckSpec(name, 60, 70)


@st.composite
def _spec_arguments(draw):
    """CheckSpec arguments over small ranges, mostly valid: any check, a range
    that may be empty or start below the check's lowest n, a start precision
    and the check's own parameters, in range or just outside it."""
    name = draw(st.sampled_from(CHECK_NAMES))
    top = 20 if name == "multiplicative" else 70
    from_n = draw(st.integers(0, top))
    to_n = draw(st.integers(from_n - 1, top))
    values = {"m_policy": st.integers(0, 3), "a_max": st.integers(from_n - 1, to_n + 1)}
    params = draw(st.fixed_dictionaries(
        {}, optional={key: values[key] for key in CHECKS[name].params}))
    return name, from_n, to_n, draw(st.integers(0, 256)), params


@settings(max_examples=300)
@given(_spec_arguments())
@example(("log-concavity", 60, 70, DEFAULT_BITS, {}))
@example(("strong-log-concavity", 60, 70, DEFAULT_BITS, {}))
@example(("multiplicative", 2, 12, DEFAULT_BITS, {"a_max": 5}))
@example(("delta2-log", 60, 70, DEFAULT_BITS, {}))
@example(("higher-turan", 60, 70, DEFAULT_BITS, {}))
@example(("u-monotone", 60, 70, DEFAULT_BITS, {}))
@example(("fg-sandwich", 60, 70, DEFAULT_BITS, {}))
@example(("g-vs-f-shift", 60, 70, DEFAULT_BITS, {}))
@example(("f-vs-q", 60, 70, DEFAULT_BITS, {}))
def test_registry_table_top_is_exact(desk_table, arguments):
    # A spec is refused when built unless the registry accepts it; the sweep
    # then reads the same entry: a table that stops at spec.table_top suffices,
    # one index less is refused before any subject is evaluated.
    name, from_n, to_n, bits, params = arguments
    check = CHECKS[name]
    valid = (check.min_n <= from_n <= to_n and 2 <= bits <= MAX_BITS
             and params.get("m_policy", 1) in (1, 2)
             and from_n <= params.get("a_max", to_n) <= to_n)
    if not valid:
        with pytest.raises((IndexError, ValueError)):
            CheckSpec(name, from_n, to_n, bits, params)
        return
    spec = CheckSpec(name, from_n, to_n, bits, params)
    if name == "g-vs-f-shift":
        assert spec.table_top == 0
        assert run_check(None, spec).ok
        return
    calls = []

    def counting(table, subject):
        calls.append(subject)
        return check.evaluate(table, subject)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(CHECKS, name, dataclasses.replace(check, evaluate=counting))
        result = run_check(OverpartitionTable(desk_table.values[:spec.table_top + 1]), spec)
        assert len(calls) == len(result.items) == len(list(check.subjects(spec)))
        # only strong log-concavity with m >= 2 at n = 2 alone has no subject
        assert calls or params.get("m_policy") == to_n == 2
        assert result.spec == spec
        assert all((item.precision_bits == 0) == check.exact for item in result.items)
        calls.clear()
        with pytest.raises(IndexError):
            run_check(OverpartitionTable(desk_table.values[:spec.table_top]), spec)
        assert calls == [], name


def test_table_reading_check_without_a_table_fails_before_evaluating(monkeypatch):
    with pytest.raises(IndexError, match=r"log-concavity needs pbar\(0\.\.11\), no table"):
        check_log_concavity(None, 1, 10)
    for name in CHECK_NAMES:
        spec = _small_spec(name)
        needed = spec.table_top
        if not needed:  # g-vs-f-shift reads no table
            assert run_check(None, spec).ok
            continue
        calls = []
        monkeypatch.setitem(CHECKS, name, dataclasses.replace(
            CHECKS[name], evaluate=lambda table, subject: calls.append(subject)))
        with pytest.raises(IndexError, match=rf"{name} needs pbar\(0\.\.{needed}\), no table"):
            run_check(None, spec)
        assert calls == [], name


def test_registry_lowest_n():
    for name, check in CHECKS.items():
        with pytest.raises(IndexError):
            dataclasses.replace(_small_spec(name), from_n=check.min_n - 1)


def test_exact_checks_never_undecided(desk_table):
    for result in run_campaign(desk_table, [
            CheckSpec("log-concavity", 2, 400),
            CheckSpec("u-monotone", 2, 400),
            CheckSpec("higher-turan", 2, 400)]):
        assert result.count(Verdict.UNDECIDED) == 0


def test_summary_shape(desk_table):
    result = check_log_concavity(desk_table, 2, 10)
    text = result.summary()
    assert "log-concavity" in text and "equality=1" in text
