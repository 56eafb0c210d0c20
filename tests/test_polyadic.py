"""Polyadic metric, continuity profiles, Haar means and point sampling."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measeq.density import APSet, FACTORIAL_LADDER, ap_union_density
from measeq.errors import ContinuityBudgetError, DiagnosticError, DomainError, ResolutionError
from measeq.polyadic import (
    DyadicRational,
    OmegaPoint,
    extend_eval,
    haar_integral,
    ladder_steps,
    p_continuity_profile,
    period_mean,
    periodize,
    polyadic_distance,
    sample_omega,
    weak_continuity_profile,
)
from measeq.seqgen import (
    AdditiveFunctionSpec,
    BaseChain,
    CallableSequence,
    PeriodicTable,
    SimpleSpec,
    VdcSequence,
)


def series_tail_oracle(a: int, b: int, terms: int = 64) -> Fraction:
    """Partial sums of the defining series: charge 2^-n when n misses a - b."""
    d = abs(a - b)
    return sum(
        (Fraction(1, 2**n) for n in range(1, terms + 1) if d % n != 0),
        Fraction(0),
    )


def indicator(apset: APSet) -> SimpleSpec:
    return SimpleSpec([(apset, 1.0)])


class TestDyadicRational:
    def test_normalization(self):
        d = DyadicRational(12, 7)  # 3/32
        assert isinstance(d, Fraction)
        assert (d.numerator, d.exponent, repr(d)) == (3, 5, "3/2^5")
        assert DyadicRational(4, 4) == DyadicRational(1, 2)
        assert DyadicRational(0, 7) == DyadicRational(0, 0)
        assert repr(DyadicRational(0, 7)) == "0/2^0"

    def test_ordering_and_arithmetic(self):
        a, b = DyadicRational(3, 3), DyadicRational(1, 1)  # 3/8, 1/2
        assert a < b
        assert a + b == Fraction(7, 8)
        assert b - a == Fraction(1, 8)
        assert float(b) == 0.5

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            DyadicRational(1, -1)

    def test_copies_and_pickles_keep_the_value(self):
        d = DyadicRational(7, 6)
        for e in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(e) is DyadicRational and repr(e) == "7/2^6"

    @given(st.integers(-4000, 4000), st.integers(0, 12))
    def test_round_trip_fraction(self, num, exp):
        d, q = DyadicRational(num, exp), Fraction(num, 2**exp)
        assert d == q
        assert repr(d) == f"{q.numerator}/2^{q.denominator.bit_length() - 1}"
        assert d.scaled_numerator(exp) == num


class TestMetric:
    def test_examples(self):
        assert polyadic_distance(7, 7) == DyadicRational(0, 0)
        assert polyadic_distance(0, 1) == Fraction(1, 2)
        assert polyadic_distance(0, 6) == Fraction(7, 64)

    @given(st.integers(0, 2000), st.integers(0, 2000))
    @settings(max_examples=60)
    def test_matches_series_oracle(self, a, b):
        exact = polyadic_distance(a, b)
        partial = series_tail_oracle(a, b)
        assert abs(exact - partial) <= Fraction(1, 2**64)

    @given(st.integers(0, 2000), st.integers(0, 2000))
    @settings(max_examples=60)
    def test_symmetry_and_identity(self, a, b):
        assert polyadic_distance(a, b) == polyadic_distance(b, a)
        assert (polyadic_distance(a, b).numerator == 0) == (a == b)

    @given(st.integers(0, 1200), st.integers(0, 1200), st.integers(0, 1200))
    @settings(max_examples=40)
    def test_triangle(self, a, b, c):
        ab = polyadic_distance(a, b)
        bc = polyadic_distance(b, c)
        ac = polyadic_distance(a, c)
        assert ac <= ab + bc

    @given(st.integers(0, 800), st.integers(0, 800), st.integers(0, 500))
    @settings(max_examples=40)
    def test_translation_invariance(self, a, b, t):
        assert polyadic_distance(a + t, b + t) == polyadic_distance(a, b)

    def test_factorial_decay(self):
        dists = []
        f = 1
        for n in range(1, 9):
            f *= n
            d = polyadic_distance(f, 0)
            assert d <= Fraction(2, 2**n)
            dists.append(d)
        for x, y in zip(dists, dists[1:]):
            assert y < x
        assert float(dists[-1]) < 1e-3


class TestContinuityProfile:
    def test_vdc_witness_levels(self):
        v = VdcSequence(BaseChain.geometric(2, 8))
        prof = p_continuity_profile(v, [1 / 8], ladder=[1, 2, 4, 8, 16, 32, 64])
        assert prof.witness_for(1 / 8) == 8

    def test_periodic_witness_is_period(self):
        seq = indicator(APSet.single(1, 3))
        prof = p_continuity_profile(seq, [0.5, 1e-6], ladder=[1, 2, 3, 6, 12])
        assert prof.witness_for(0.5) == 3
        assert prof.witness_for(1e-6) == 3

    def test_harmonic_fails_everywhere(self):
        seq = CallableSequence(lambda n: 1.0 / n)
        prof = p_continuity_profile(seq, [0.4, 0.1], ladder=[1, 2, 6, 24])
        assert prof.pairs == ()
        assert prof.failures == (0.4, 0.1)

    def test_window_too_short(self):
        v = VdcSequence(BaseChain.geometric(2, 8))
        with pytest.raises(DiagnosticError):
            p_continuity_profile(v, [0.5], ladder=[1, 1024], window_N=100)


class TestWeakContinuity:
    def test_periodic_has_no_exceptions(self):
        exc = weak_continuity_profile(
            indicator(APSet.single(0, 2)), eps=0.5, delta=0.1, ladder=[1, 2, 6]
        )
        assert exc.modulus == 2
        assert exc.aps.progressions == ()
        assert exc.mu_upper == 0

    def test_square_indicator_exceptions_mod_24(self):
        from measeq.density import squares_predicate

        pred = squares_predicate()
        seq = CallableSequence(lambda n: 1.0 if pred(n) else 0.0)
        exc = weak_continuity_profile(
            seq, eps=0.5, delta=0.3, ladder=[1, 2, 6, 24], window_N=2000
        )
        assert exc.modulus == 24
        assert exc.mu_upper == Fraction(6, 24)
        assert {r for r, _ in exc.aps.progressions} == {0, 1, 4, 9, 12, 16}

    def test_harmonic_needs_deep_level(self):
        seq = CallableSequence(lambda n: 1.0 / n)
        exc = weak_continuity_profile(
            seq, eps=0.1, delta=0.01, ladder=[1, 2, 6, 24, 120, 720, 5040],
            window_N=10_080,
        )
        assert exc.modulus >= 720
        assert float(exc.mu_upper) < 0.01

    def test_budget_failure_carries_best(self):
        seq = CallableSequence(lambda n: 1.0 / n)
        with pytest.raises(ContinuityBudgetError) as e:
            weak_continuity_profile(seq, eps=0.1, delta=1e-6, ladder=[1, 2, 6, 24])
        assert e.value.best_level == 24
        assert 0 < e.value.best_fraction < 1


class TestPeriodization:
    def test_constant(self):
        table = periodize(lambda n: 2.5, 4)
        assert table.values == (2.5,) * 4

    def test_already_periodic(self):
        seq = indicator(APSet.single(1, 3))
        table = periodize(seq, 3)
        assert table.values == (0.0, 1.0, 0.0)
        assert all(table.eval(n) == seq.eval(n) for n in range(30))

    def test_vdc_truncation(self):
        v = VdcSequence(BaseChain.geometric(2, 4))
        table = periodize(v, 4)
        assert table.values == (0.0, 0.5, 0.25, 0.75)

    def test_period_mean_examples(self):
        assert period_mean(indicator(APSet.single(1, 3)), 3) == 1 / 3
        both = indicator(APSet([(0, 6)]))  # 0 mod 2 and 0 mod 3
        assert period_mean(both, 6) == 1 / 6
        assert period_mean(lambda n: 1.0, 10) == 1.0

    def test_period_mean_exact_inverse_modulus(self):
        for m in range(1, 25):
            for r in range(m):
                got = period_mean(indicator(APSet.single(r, m)), 3 * m)
                assert got == 1 / m

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_values_periodize_but_have_no_mean(self):
        seq = PeriodicTable([float("inf"), 0.0, float("-inf")])
        assert periodize(seq, 3).values == seq.values
        with pytest.raises(DomainError, match="^sequence values are not finite: no period mean$"):
            period_mean(seq, 3)
        with pytest.raises(DomainError, match="no period means$"):
            haar_integral(seq, (1, 3))
        with pytest.raises(DomainError, match="no class spreads$"):
            p_continuity_profile(seq, [0.5], (1, 3))


class TestHaarIntegral:
    def test_indicator_exact_from_level_six(self):
        trace = haar_integral(indicator(APSet.single(1, 3)), FACTORIAL_LADDER)
        for level, mean in zip(trace.levels, trace.means):
            if level >= 6:
                assert mean == 1 / 3
        assert trace.value == 1 / 3

    def test_vdc_trace_approaches_half(self):
        trace = haar_integral(VdcSequence(BaseChain.geometric(2, 4)), FACTORIAL_LADDER)
        assert abs(trace.value - 0.5) <= 1 / 64

    def test_additive_trace_stabilizes_within_tail(self):
        spec = AdditiveFunctionSpec.from_function(lambda p: 4.0**-p, 40_320)
        trace = haar_integral(spec, FACTORIAL_LADDER)
        # means at levels k! and above stay within twice the tail beyond k
        for i, (level, mean) in enumerate(zip(trace.levels, trace.means)):
            for level2, mean2 in zip(trace.levels[i + 1 :], trace.means[i + 1 :]):
                k = trace.levels.index(level) + 1
                assert abs(mean - mean2) <= 2 * spec.tail_above(k) + 1e-12

    def test_cross_module_union_density(self):
        s = APSet([(0, 2), (0, 3)])
        trace = haar_integral(indicator(s), ladder=(6, 24, 120, 720))
        assert all(m == float(ap_union_density(s)) for m in trace.means)

    def test_integrand_continuity_witness(self):
        prof = p_continuity_profile(indicator(APSet.single(1, 3)), [0.5], (1, 2, 6, 24))
        # 3 is not a ladder level, so the smallest witnessing level is 6
        assert prof.witness_for(0.5) == 6


class TestSampleOmega:
    def test_trivial_ladder(self):
        pt = sample_omega(123, (1,))
        assert pt.residues == (0,)

    def test_deterministic(self):
        a = sample_omega(42, (2, 6, 24))
        b = sample_omega(42, (2, 6, 24))
        assert a == b

    def test_coherence_always(self):
        for seed in range(200):
            pt = sample_omega(seed, (2, 6, 24, 120))
            for i in range(len(pt.levels) - 1):
                assert pt.residues[i + 1] % pt.levels[i] == pt.residues[i]

    def test_haar_frequencies(self):
        samples = [sample_omega(seed, (2, 6)) for seed in range(10_000)]
        top = np.array([pt.residues[1] for pt in samples])
        counts = np.bincount(top, minlength=6)
        expected = 10_000 / 6
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 5 + 3 * np.sqrt(10)  # 3 sigma for 5 dof
        first = np.array([pt.residues[0] for pt in samples])
        assert abs((first == 0).sum() - 5000) <= 150  # 3 sigma binomial

    def test_invalid_ladder(self):
        with pytest.raises(ValueError):
            OmegaPoint((2, 5), (0, 0))

    def test_ladder_steps(self):
        assert ladder_steps((2, 6, 24)) == (3, 4)
        assert ladder_steps((7,)) == ()
        for bad, step in (((3, 5), "3 -> 5"), ((2, 6, 6), "6 -> 6"), ((6, 3), "6 -> 3")):
            message = f"^levels must increase by divisibility \\({step}\\)$"
            with pytest.raises(ValueError, match=message):
                ladder_steps(bad)
            with pytest.raises(ValueError, match=message):
                sample_omega(1, bad)
            with pytest.raises(ValueError, match=message):
                OmegaPoint(bad, (0,) * len(bad))

    def test_points_on_a_checked_ladder_are_still_checked(self):
        OmegaPoint((2, 6), (1, 5))
        with pytest.raises(ValueError, match="incoherent"):
            OmegaPoint((2, 6), (1, 2))
        with pytest.raises(ValueError, match="out of range"):
            OmegaPoint((2, 6), (1, 7))


class TestExtendEval:
    def test_periodic_exact(self):
        seq = indicator(APSet.single(2, 5))
        alpha = OmegaPoint((5, 25), (2, 7))
        assert extend_eval(seq, alpha, eps=0.01) == 1.0

    def test_vdc_at_zero(self):
        v = VdcSequence(BaseChain.geometric(2, 1))
        levels = tuple(2**k for k in range(1, 13))
        alpha = OmegaPoint(levels, (0,) * 12)
        assert abs(extend_eval(v, alpha, eps=2**-10) - 0.0) <= 2**-10

    def test_representative_consistency(self):
        v = VdcSequence(BaseChain.geometric(2, 1))
        levels = tuple(2**k for k in range(1, 13))
        alpha = sample_omega(7, levels)
        eps = 2**-6
        m = v.witness(eps)
        r = alpha.residue_mod(m)
        base = extend_eval(v, alpha, eps)
        for t in (1, 2, 17):
            assert abs(v.eval(r + t * m) - base) < eps

    def test_harmonic_unresolvable(self):
        seq = CallableSequence(lambda n: 1.0 / n)
        alpha = sample_omega(3, (2, 6, 24))
        with pytest.raises(ResolutionError):
            extend_eval(seq, alpha, eps=0.1)

    @pytest.mark.parametrize("form", ["callable", "window"])
    def test_handle_without_a_witness_is_unresolvable(self, form):
        # n mod 3 is 3-periodic, but neither a bare rule nor a window of it
        # carries a witness; a window scan is no substitute for one
        def fn(n):
            return float(n % 3)

        v = fn if form == "callable" else CallableSequence(fn).window(12)
        with pytest.raises(ResolutionError, match=r"^no continuity witness for eps=0.5 "):
            extend_eval(v, OmegaPoint((3, 6), (2, 5)), 0.5)

    def test_callable_handle_has_no_witness(self):
        assert CallableSequence(lambda n: float(n % 3)).witness(0.1) is None

    def test_ladder_without_witness_level(self):
        v = PeriodicTable([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # period 7
        alpha = OmegaPoint((2, 4), (1, 3))
        with pytest.raises(ResolutionError):
            extend_eval(v, alpha, eps=0.5)
