"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance NN] label: PASS/FAIL` line (visible with
`pytest -s`).  Criterion 7 is split.  Its EDF stability clause (7b) compares
the additive function f(p) = 4^-p over the windows [1, 1e4] and [1, 1e5]
against the threshold 0.02.  Erdos-Wintner gives convergence of the EDF but
no rate, and at these windows the gap is not below 0.02:

- integer counting: at x = 4^-293 the EDF counts the n with no prime factor
  <= 293 (1,168 of 1e4, 9,540 of 1e5), so the sup is at least 0.0214;
- float64, as measeq holds the values: the sup is 0.02146;
- exact arithmetic: the sup is 0.08354, just above x = 4^-10007, but f(p)
  underflows to 0.0 for p >= 541, so float64 cannot see it.

7b therefore checks that measeq measures the gap correctly, against integer
and plain-Python oracles, and reports that it exceeds 0.02.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import oracles
from measeq.density import (
    APSet,
    FACTORIAL_LADDER,
    ap_predicate,
    ap_union_density,
    asymptotic_density_profile,
    blocks_predicate,
    buck_measurability_check,
    residue_saturation,
    squares_predicate,
)
from measeq.dist import (
    chebyshev_check,
    convolve_edf,
    correlation,
    edf,
    edf_sup_distance,
    interval_independence_stat,
    moments,
    statistical_independence_stat,
    stieltjes_mean,
    sup_norm,
    unit_interval_grid,
)
from measeq.errors import GateError
from measeq.experiments import (
    clt_experiment,
    metric_ud_experiment,
    pair_swap_indices,
    resample_invariance,
    vdc_family_primes,
    weak_law_experiment,
)
from measeq.polyadic import haar_integral, p_continuity_profile, polyadic_distance
from measeq.seqgen import (
    AdditiveFunctionSpec,
    BaseChain,
    SimpleSpec,
    VdcSequence,
    gen_additive,
)

MASTER_SEED = 20260810


@contextmanager
def criterion(num: str, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {label}: FAIL")
        raise
    print(f"[acceptance {num}] {label}: PASS")


def vdc_window(base, N):
    return VdcSequence(BaseChain.geometric(base, 1)).window(N)


def test_criterion_01_ap_density():
    with criterion("01", "arithmetic-progression density"):
        est = asymptotic_density_profile(
            ap_predicate(APSet.single(2, 4)), [10**3, 10**4, 10**5, 10**6]
        )
        assert est.value is not None
        assert abs(est.value - 0.25) <= 1e-5
        assert ap_union_density(APSet.single(2, 4)) == Fraction(1, 4)


def test_criterion_02_polyadic_metric():
    with criterion("02", "polyadic metric, exact and exhaustive"):
        assert polyadic_distance(7, 7).numerator == 0
        assert polyadic_distance(0, 1) == Fraction(1, 2)
        assert polyadic_distance(0, 6) == Fraction(7, 64)
        # translation invariance makes the distance a function of |a-b| only,
        # so the axioms over [0, 720]^3 reduce to the difference table below;
        # the comparisons stay exact by rescaling every value to 2^-1441
        E = 1441
        num = [polyadic_distance(0, d).scaled_numerator(E) for d in range(1441)]
        assert num[0] == 0
        assert all(num[d] > 0 for d in range(1, 721))  # identity of indiscernibles
        for x in range(721):
            nx = num[x]
            for y in range(x, 721):
                s = nx + num[y]
                assert num[x + y] <= s  # |a-c| = x+y
                assert num[abs(x - y)] <= s  # |a-c| = |x-y|
        for t in (1, 97, 720):
            for d in range(0, 721, 7):
                assert polyadic_distance(t, t + d) == polyadic_distance(0, d)
        for a, b in ((5, 12), (700, 3), (64, 64)):
            assert polyadic_distance(a, b) == polyadic_distance(b, a)


def test_criterion_03_uniform_sum_convolution():
    with criterion("03", "uniform-sum convolution law"):
        G = convolve_edf(edf(vdc_window(2, 1000)), edf(vdc_window(3, 1000)))
        expected = {0.25: 0.03125, 0.5: 0.125, 1.0: 0.5, 1.5: 0.875}
        for x, want in expected.items():
            assert abs(G(x) - want) <= 1e-2


def test_criterion_04_correlation_moments():
    with criterion("04", "correlation of transformed uniform windows"):
        v = vdc_window(2, 100_000)
        assert abs(float(np.mean(v.values * v.values)) - 1 / 3) <= 1e-3
        rho, alpha, beta = correlation(v, v)
        assert abs(rho - 1.0) <= 1e-6
        assert abs(alpha - 1.0) <= 1e-6
        assert abs(beta) <= 1e-6
        w = type(v)(1.0 - v.values)
        assert abs(float(np.mean(v.values * w.values)) - 1 / 6) <= 1e-3
        rho, alpha, beta = correlation(v, w)
        assert abs(rho - 1.0) <= 1e-6
        assert abs(alpha + 1.0) <= 1e-6
        assert abs(beta - 1.0) <= 1e-6


def test_criterion_05_independence_harness():
    with criterion("05", "independence vs statistical independence"):
        v, w = vdc_window(2, 100_000), vdc_window(3, 100_000)
        grid = unit_interval_grid(10)
        assert interval_independence_stat(v, w, grid=(grid, grid)).statistic <= 0.02
        assert statistical_independence_stat(v, w).statistic <= 0.02
        dependent = statistical_independence_stat(
            v, v, family=[("x", lambda x: x)]
        )
        assert dependent.statistic >= 1 / 12 - 1e-3


def test_criterion_06_haar_integration():
    with criterion("06", "Haar integration along the factorial ladder"):
        trace = haar_integral(SimpleSpec([(APSet.single(1, 3), 1.0)]), FACTORIAL_LADDER)
        for level, mean in zip(trace.levels, trace.means):
            if level >= 6:
                assert mean == 1 / 3
        gamma_trace = haar_integral(
            VdcSequence(BaseChain.geometric(2, 4)), FACTORIAL_LADDER
        )
        assert abs(gamma_trace.value - 0.5) <= 1 / 64


def _geometric_quarter_spec(pmax: int) -> AdditiveFunctionSpec:
    return AdditiveFunctionSpec.from_function(lambda p: 4.0**-p, pmax)


def test_criterion_07a_additive_congruence_and_witnesses():
    with criterion("07a", "additive function congruence bound and witnesses"):
        spec = _geometric_quarter_spec(100_000)
        w = gen_additive(10_000, spec)
        bound = 2 * spec.tail_above(4)
        idx = np.arange(1, 10_001)
        for r in range(24):  # classes mod 4! = 24, exhaustive over the window
            vals = w.values[idx % 24 == r]
            assert vals.max() - vals.min() <= bound
        prof = p_continuity_profile(spec, [1e-2, 1e-4], FACTORIAL_LADDER)
        assert prof.failures == ()
        assert prof.witness_for(1e-2) is not None
        assert prof.witness_for(1e-4) is not None


def test_criterion_07b_additive_edf_stability():
    with criterion("07b", "additive function EDF stability"):
        # For every prime p, sum_{q>p} 4^-q < 4^-p, so F_N(4^-293) counts
        # exactly the n <= N with no prime factor <= 293 (n = 1 included):
        # 1,168 of 1e4 and 9,540 of 1e5.  The sup is therefore at least
        # 0.1168 - 0.0954 = 0.0214 > 0.02.  On the float64 values measeq
        # holds the sup is 0.02146; in exact arithmetic it is 0.08354 (just
        # above 4^-10007), hidden because f(p) underflows to 0 for p >= 541.
        spec = _geometric_quarter_spec(100_000)
        small, large = gen_additive(10_000, spec), gen_additive(100_000, spec)
        F, G = edf(small), edf(large)
        witness = 4.0**-293
        assert F(witness) == oracles.rough_count_oracle(10_000, 293) / 10_000
        assert G(witness) == oracles.rough_count_oracle(100_000, 293) / 100_000
        lower_bound = F(witness) - G(witness)
        gap = edf_sup_distance(F, G)
        want = oracles.edf_sup_distance_oracle(
            small.values.tolist(), large.values.tolist()
        )
        assert abs(gap - want) <= 1e-12
        # the EDF has not settled to within 0.02 between these windows
        assert gap >= lower_bound > 0.02


def test_criterion_08_buck_measurability_triage():
    with criterion("08", "cover-measure measurability triage"):
        periodic = buck_measurability_check(
            ap_predicate(APSet.single(2, 4)), FACTORIAL_LADDER, 100_000
        )
        for level, gap in zip(periodic.levels, periodic.gaps):
            if level % 4 == 0:
                assert gap == 0
        assert periodic.measurable

        assert residue_saturation(squares_predicate(), 24, 10**6) == Fraction(1, 4)
        squares = buck_measurability_check(squares_predicate(), FACTORIAL_LADDER, 10**6)
        for earlier, later in zip(squares.gaps, squares.gaps[1:]):
            assert later <= earlier
        assert float(squares.gap) <= 0.15

        blocks = buck_measurability_check(blocks_predicate(), FACTORIAL_LADDER, 2**24)
        assert float(blocks.gap) >= 0.8
        assert not blocks.measurable


def test_criterion_09_clt_and_weak_law():
    with criterion("09", "central-limit and weak-law transfer"):
        clt = clt_experiment(vdc_family_primes(12), N=10_000)
        assert clt.passed
        assert clt.statistics["kolmogorov_distance"] <= 0.05
        law = weak_law_experiment(
            vdc_family_primes(20), eps=0.2, k_grid=[1, 5, 10, 20], N=10_000
        )
        assert law.passed


def test_criterion_10_metric_theorem_spot_check():
    with criterion("10", "almost-sure uniform distribution at sampled points"):
        rep = metric_ud_experiment(
            vdc_family_primes(200),
            n_alphas=20,
            seed=MASTER_SEED,
            h_max=3,
            threshold=0.25,
            pass_fraction=19 / 20,
        )
        assert rep.statistics["fraction_passing"] >= 19 / 20
        assert rep.passed


def test_criterion_11_oracle_equivalence():
    with criterion("11", "brute-force oracle equivalence and digit round-trip"):
        v, w = vdc_window(2, 200), vdc_window(3, 200)
        lv, lw = v.values.tolist(), w.values.tolist()

        F = edf(v)
        for x in np.linspace(-0.2, 1.2, 29):
            assert abs(F(x) - oracles.edf_oracle(lv, x)) <= 1e-12
        s = moments(v)
        assert abs(s.mean - oracles.mean_oracle(lv)) <= 1e-12
        assert abs(s.dispersion - oracles.dispersion_oracle(lv)) <= 1e-12
        assert abs(stieltjes_mean(F, lambda x: x * x)
                   - oracles.stieltjes_oracle(lv, lambda x: x * x)) <= 1e-12
        got = correlation(v, w)
        want = oracles.correlation_oracle(lv, lw)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        for eps in (0.1, 0.3):
            g1, g2 = chebyshev_check(v, eps), oracles.chebyshev_oracle(lv, eps)
            assert abs(g1[0] - g2[0]) <= 1e-12 and abs(g1[1] - g2[1]) <= 1e-12
        fam = [("x", lambda x: x), ("sq", lambda x: x * x)]
        assert abs(
            statistical_independence_stat(v, w, family=fam).statistic
            - oracles.statistical_independence_oracle(lv, lw, fam)
        ) <= 1e-12
        grid = unit_interval_grid(4)
        assert abs(
            interval_independence_stat(v, w, grid=(grid, grid)).statistic
            - oracles.interval_independence_oracle(lv, lw, grid, grid)
        ) <= 1e-12
        assert sup_norm(v) == oracles.sup_norm_oracle(lv)

        for chain in (BaseChain.geometric(2, 12), BaseChain.factorial(7)):
            for n in range(4096):
                digits = chain.digits(n)
                assert sum(a * q for a, q in zip(digits, chain.moduli)) == n


def test_criterion_12_resampling_invariance():
    with criterion("12", "resampling invariance of the mean"):
        v = vdc_window(2, 100_000)
        rep = resample_invariance(v, pair_swap_indices(100_000))
        assert rep.statistics["mean_shift"] <= 2 / 100_000
        with pytest.raises(GateError):
            resample_invariance(v, 2 * np.arange(1, 50_001, dtype=np.int64))
