"""Experiment harness tests: gates must reject bad inputs, statistics must
match direct-count oracles, and reports must be bit-reproducible."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from measeq import experiments
from measeq.density import blocks_predicate
from measeq.errors import (
    DegenerateWindowError,
    DiagnosticError,
    DomainError,
    GateError,
    ResolutionError,
)
from measeq.experiments import (
    _PHI_DELTA,
    _RESIDUE_GROUP,
    _normal_cdf_bracket,
    _member_residues,
    _pairwise_independence_gate,
    clt_experiment,
    composed_independence_check,
    identity_indices,
    kolmogorov_distance,
    metric_ud_experiment,
    niven_ud_test,
    normal_cdf,
    pair_swap_indices,
    resample_invariance,
    vdc_family,
    vdc_family_primes,
    weak_law_experiment,
)
from measeq.primes import primes_upto
from measeq.seqgen import BaseChain, PeriodicTable, SequenceWindow, VdcSequence


def vdc_window(base, N):
    return VdcSequence(BaseChain.geometric(base, 1)).window(N)


# sample points for the normal-law Kolmogorov distance: lattice values k/8 (ties), any
# float out to where the CDF rounds to 0 or 1 (|x| > 8.3) and past, and +-inf
_ks_points = st.one_of(
    st.integers(-80, 80).map(lambda k: k / 8),
    st.floats(-50, 50),
    st.sampled_from([np.inf, -np.inf]),
)


@st.composite
def ks_samples(draw):
    """A sample of 1 to 200 points, at times mirrored (so that two points hold the
    sup to the last bit or so) and at times with a NaN."""
    x = np.array(draw(st.lists(_ks_points, min_size=1, max_size=200)))
    if draw(st.booleans()):
        x = np.concatenate((x, -x))
    if draw(st.integers(0, 9)) == 0:
        x[draw(st.integers(0, x.size - 1))] = np.nan
    return x


def check_kolmogorov(x):
    """The distance to the normal law has the bits of the one-pass oracle."""
    got = np.float64(kolmogorov_distance(x, normal_cdf))
    want = np.float64(oracles.kolmogorov_distance_oracle(x, normal_cdf))
    assert got.tobytes() == want.tobytes(), (got, want)


class TestNivenGate:
    def test_identity_passes(self):
        rep = niven_ud_test(identity_indices(10_000), M=8)
        assert rep.passed
        assert rep.statistics["max_deviation"] <= 8 / 10_000

    def test_even_indices_fail(self):
        rep = niven_ud_test(2 * identity_indices(10_000), M=4)
        assert not rep.passed
        assert rep.statistics["max_deviation"] == pytest.approx(0.5, abs=1e-9)

    def test_primes_fail_mod_three(self):
        ks = primes_upto(20_000)  # plenty of indices for M = 3
        rep = niven_ud_test(ks, M=3)
        assert not rep.passed
        devs = dict((m, d) for m, d in rep.trace)
        assert devs[3] >= 1 / 6

    def test_window_length_precondition(self):
        with pytest.raises(DiagnosticError):
            niven_ud_test(identity_indices(100), M=8)


class TestResampleInvariance:
    def test_identity_shift_zero(self):
        v = vdc_window(2, 100_000)
        rep = resample_invariance(v, identity_indices(100_000))
        assert rep.statistics["mean_shift"] == 0.0
        assert rep.passed

    def test_pair_swap_shift_tiny(self):
        v = vdc_window(2, 100_000)
        rep = resample_invariance(v, pair_swap_indices(100_000))
        assert rep.statistics["mean_shift"] <= 2 / 100_000
        assert rep.passed

    def test_even_indices_rejected(self):
        v = vdc_window(2, 100_000)
        with pytest.raises(GateError):
            resample_invariance(v, 2 * identity_indices(50_000))

    def test_discontinuous_window_rejected(self):
        mask = blocks_predicate().mask(100_000)
        w = SequenceWindow(mask.astype(float))
        with pytest.raises(GateError):
            resample_invariance(w, identity_indices(100_000))


class TestCltExperiment:
    def test_single_uniform_fails_with_known_distance(self):
        rep = clt_experiment([VdcSequence(BaseChain.geometric(2, 1))], N=40_000)
        # numeric oracle: sup over z of |(1/2 + z/sqrt(12)) - Phi(z)|
        zs = np.linspace(-np.sqrt(3), np.sqrt(3), 20_001)
        oracle = np.abs(np.clip(0.5 + zs / np.sqrt(12), 0, 1) - normal_cdf(zs)).max()
        assert rep.statistics["kolmogorov_distance"] == pytest.approx(
            float(oracle), abs=0.01
        )
        assert not rep.passed

    def test_zero_dispersion_is_refused(self):
        # one value per member: standardizing by a zero dispersion would give NaN
        with pytest.raises(DegenerateWindowError, match="'family' has zero dispersion"):
            clt_experiment(vdc_family([2]), N=1)

    def test_twelve_coprime_bases_pass(self):
        rep = clt_experiment(vdc_family_primes(12), N=10_000)
        assert rep.passed
        assert rep.statistics["kolmogorov_distance"] <= 0.05
        assert abs(rep.statistics["standardized_mean"]) <= 1e-10 * 12
        assert abs(rep.statistics["standardized_var"] - 1.0) <= 5 / np.sqrt(10_000)

    def test_moment_gate(self):
        family = [VdcSequence(BaseChain.geometric(2, 1)), PeriodicTable([0.2])]
        with pytest.raises(GateError):
            clt_experiment(family, N=5_000)

    def test_independence_gate(self):
        family = vdc_family([2, 2])
        with pytest.raises(GateError):
            clt_experiment(family, N=5_000)

    def test_independence_gate_names_first_failing_pair(self):
        with pytest.raises(GateError) as e:
            clt_experiment(vdc_family([2, 3, 2]), N=5_000)
        assert str(e.value) == "members 0 and 2 fail the independence gate (0.09032 > 0.02)"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_independence_gate_equals_per_pair_oracle(self, data):
        # 1-7 members, odd and even; repeated bases make some pairs fail, and
        # stretched or shifted members have default grids beyond [0, 1)
        N = data.draw(st.integers(1, 3000))
        member = st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.sampled_from([1.0, 3.0, -0.5]),
                           st.sampled_from([0.0, 1.0, -2.0]))
        windows = [
            SequenceWindow(vdc_window(base, N).values * scale + shift)
            for base, scale, shift in data.draw(st.lists(member, min_size=1, max_size=7))
        ]
        try:
            oracles.pairwise_independence_gate_oracle(windows)
        except GateError as e:
            with pytest.raises(GateError) as got:
                _pairwise_independence_gate(windows)
            assert str(got.value) == str(e)
        else:
            _pairwise_independence_gate(windows)

    def test_standardized_reference_at_zero(self):
        assert normal_cdf(0.0) == 0.5


class TestWeakLaw:
    def test_constant_family(self):
        family = [PeriodicTable([0.3]), PeriodicTable([0.3])]
        rep = weak_law_experiment(family, eps=0.1, k_grid=[1, 2], N=2_000)
        assert rep.passed
        assert rep.statistics["observed_k2"] == 0.0

    def test_uniform_family_bounds(self):
        rep = weak_law_experiment(vdc_family_primes(10), eps=0.2, k_grid=[1, 10])
        assert rep.passed
        assert rep.statistics["bound_k10"] == pytest.approx((1 / 12) / (10 * 0.04), abs=0.01)
        assert rep.statistics["observed_k10"] <= 0.05
        # k = 1 is trivially bounded: the tail frequency cannot exceed one
        assert rep.statistics["observed_k1"] <= 1.0 <= rep.statistics["bound_k1"]

    def test_grid_larger_than_family(self):
        with pytest.raises(GateError):
            weak_law_experiment(vdc_family_primes(3), eps=0.2, k_grid=[5])

    @pytest.mark.parametrize("eps", [0.0, -0.2, float("nan")])
    def test_nonpositive_eps_is_refused(self, eps):
        with pytest.raises(ValueError, match="^eps must be positive"):
            weak_law_experiment(vdc_family_primes(3), eps=eps, k_grid=[1])

    def test_never_reports_nonsense(self):
        rep = weak_law_experiment(vdc_family_primes(5), eps=0.05, k_grid=[1, 2, 5])
        for _, observed, bound in rep.trace:
            assert 0.0 <= observed <= 1.0
            assert bound >= 0.0


class TestMetricUd:
    def test_degenerate_single_member(self):
        rep = metric_ud_experiment(vdc_family([2]), n_alphas=3, seed=1)
        assert rep.statistics["max_weyl_sum"] == pytest.approx(1.0, abs=1e-12)
        assert not rep.passed

    def test_coprimality_gate(self):
        with pytest.raises(GateError):
            metric_ud_experiment(vdc_family([2, 4]), n_alphas=2, seed=1)

    def test_family_smoke(self):
        rep = metric_ud_experiment(
            vdc_family_primes(50), n_alphas=5, seed=11, h_max=2, threshold=0.5
        )
        assert rep.passed
        assert len(rep.trace) == 5

    def test_deterministic_reports(self):
        a = metric_ud_experiment(vdc_family_primes(20), n_alphas=4, seed=5)
        b = metric_ud_experiment(vdc_family_primes(20), n_alphas=4, seed=5)
        assert a == b

    def test_seed_changes_samples(self):
        a = metric_ud_experiment(vdc_family_primes(20), n_alphas=4, seed=5)
        b = metric_ud_experiment(vdc_family_primes(20), n_alphas=4, seed=6)
        assert a.trace != b.trace

    @given(
        st.sampled_from([[3, 5, 7], [2, 3, 5, 7, 11], [5, 7], [2, 9, 25, 7], [11, 3, 5, 7],
                         [13, 3], [4, 9, 25]]),
        st.sampled_from([None, 1, 2, 3, 4]),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 10**6),
        st.sampled_from([1e-3, 0.02, 0.3]),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_equals_per_point_extend_eval(
        self, bases, factorial, levels, n_alphas, seed, eps, h_max
    ):
        # geometric chains of coprime bases, optionally one factorial chain
        # (base 2) in place of an odd-only family's first member
        def family():
            members = [VdcSequence(BaseChain.geometric(b, levels)) for b in bases]
            if factorial is not None and 2 not in bases:
                members[0] = VdcSequence(BaseChain.factorial(factorial + 1))
            return members

        args = dict(n_alphas=n_alphas, seed=seed, h_max=h_max)
        with mock.patch.object(experiments, "EVAL_EPS", eps):
            try:
                want = oracles.metric_ud_trace_oracle(
                    family(), N_terms=len(bases), eval_eps=eps, **args)
            except ResolutionError as e:
                with pytest.raises(ResolutionError, match=f"^{e}$"):
                    metric_ud_experiment(family(), **args)
                return
            rep = metric_ud_experiment(family(), **args)
        assert rep.trace == want
        assert rep.parameters["eval_eps"] == eps

    @given(st.integers(2, 2**300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_grouped_residues_equal_the_full_sums(self, P, data):
        # more members than one group, witnesses up to 2**63 - 1, repeated witnesses
        count = data.draw(st.integers(1, 4))
        digits = data.draw(st.lists(st.lists(st.integers(0, P - 1), min_size=count,
                                             max_size=count), min_size=1, max_size=4))
        moduli = data.draw(st.lists(
            st.tuples(st.one_of(st.integers(1, 50), st.integers(1, 2**63 - 1)),
                      st.integers(0, count - 1)),
            min_size=1, max_size=2 * _RESIDUE_GROUP + 3))
        want = [oracles.level_residues_oracle(digits, k, P, m) for m, k in moduli]
        assert _member_residues(digits, moduli, P) == want

    def test_trace_of_a_200_member_family_equals_per_point_extend_eval(self):
        args = dict(n_alphas=6, seed=424242, h_max=3)
        want = oracles.metric_ud_trace_oracle(
            vdc_family_primes(200), N_terms=200, eval_eps=1e-3, **args)
        assert metric_ud_experiment(vdc_family_primes(200), **args).trace == want

    @pytest.mark.parametrize("bases, pair", [
        ([2, 4], (2, 4)),
        ([3, 5, 9, 7], (3, 9)),
        # the first pair in (i, j) order, not the first j to share a factor
        ([6, 5, 35, 10], (6, 10)),
    ])
    def test_coprimality_gate_names_the_first_pair(self, bases, pair):
        message = f"^bases {pair[0]} and {pair[1]} share a factor; family is not pairwise independent$"
        with pytest.raises(GateError, match=message):
            metric_ud_experiment(vdc_family(bases), n_alphas=2, seed=1)

    def test_witness_past_int64_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(random, "Random", lambda *a: pytest.fail("a point was drawn"))
        message = r"^witness modulus 10000000000000000000 for eps=0.001 exceeds 2\*\*63 - 1$"
        with pytest.raises(ResolutionError, match=message):
            metric_ud_experiment(vdc_family([3, 10**19]), n_alphas=2, seed=1)

    def test_witness_just_below_int64_runs(self):
        rep = metric_ud_experiment(vdc_family([9223372036854775783]), n_alphas=2, seed=1)
        assert rep.trace == oracles.metric_ud_trace_oracle(
            vdc_family([9223372036854775783]), n_alphas=2, seed=1, N_terms=1, h_max=3,
            eval_eps=1e-3)

    def test_factorial_member_without_a_dividing_level(self):
        # witness 5040 = 7! needs the factor 7, which the ladder of 2 * 3 * 5 lacks
        family = [VdcSequence(BaseChain.factorial(3)), *vdc_family([3, 5])]
        with pytest.raises(ResolutionError, match="^no ladder level is divisible by 5040$"):
            metric_ud_experiment(family, n_alphas=2, seed=1)

    def test_member_without_a_witness_is_unresolvable(self):
        # a chain that cannot grow has no modulus 1/m <= 1e-3
        family = [VdcSequence(BaseChain((1, 2, 4))), *vdc_family([3])]
        message = "^no continuity witness for eps=0.001 within the ladder$"
        with pytest.raises(ResolutionError, match=message):
            metric_ud_experiment(family, n_alphas=2, seed=1)


class TestComposedIndependence:
    def test_constant_functions(self):
        fam = vdc_family([2, 3])
        rep = composed_independence_check(
            fam,
            [(lambda x: np.ones_like(x), lambda x: np.ones_like(x))],
            identity_indices(2_000),
        )
        assert rep.statistics["max_deviation"] <= 1e-12

    def test_identity_pair(self):
        fam = vdc_family([2, 3])
        rep = composed_independence_check(
            fam, [(lambda x: x, lambda x: x)], identity_indices(100_000)
        )
        assert rep.statistics["max_deviation"] <= 0.02
        assert rep.passed

    def test_square_and_identity_after_pair_swap(self):
        fam = vdc_family([2, 3])
        rep = composed_independence_check(
            fam, [(lambda x: x * x, lambda x: x)], pair_swap_indices(100_000)
        )
        assert rep.statistics["max_deviation"] <= 0.02
        # moment-product oracle: means approach 1/3 and 1/2
        assert rep.passed

    def test_infinite_g_is_a_domain_error(self):
        # 1 / (x - 0.5) is infinite at v(1) = 0.5 of the base-2 member
        fam = vdc_family([2, 3])
        with pytest.raises(DomainError, match="not finite"):
            composed_independence_check(
                fam, [(lambda x: 1 / (x - 0.5), lambda x: x)], identity_indices(2_000)
            )

    def test_failing_g_is_a_domain_error(self):
        fam = vdc_family([2, 3])
        with pytest.raises(DomainError, match="failed"):
            composed_independence_check(
                fam, [(lambda x: math.log(x - 0.5), lambda x: x)], identity_indices(2_000)
            )

    def test_scalar_only_g_matches_its_vectorized_twin(self):
        fam, k = vdc_family([2, 3]), pair_swap_indices(20_000)
        scalar = composed_independence_check(fam, [(math.sqrt, math.sqrt)], k)
        vector = composed_independence_check(fam, [(np.sqrt, np.sqrt)], k)
        assert scalar == vector

    def test_index_gate(self):
        fam = vdc_family([2, 3])
        with pytest.raises(GateError):
            composed_independence_check(
                fam, [(lambda x: x, lambda x: x)], 2 * identity_indices(50_000)
            )


class TestKolmogorovHelper:
    def test_uniform_sample_against_its_own_law(self):
        xs = (np.arange(1000) + 0.5) / 1000
        assert kolmogorov_distance(xs, lambda t: np.clip(t, 0, 1)) <= 1e-3

    def test_normal_cdf_matches_pointwise_erf(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            (rng.normal(0, 3, 2000), [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e-300])
        )
        want = np.array([0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in xs.tolist()])
        assert normal_cdf(xs).tobytes() == want.tobytes()
        for x in (0.3, np.float64(-1.7), np.array(2.5)):
            got = normal_cdf(x)
            assert type(got) is float
            assert got == 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))

    @given(ks_samples())
    @settings(max_examples=300, deadline=None)
    @example(np.array([0.3]))
    @example(np.array([0.75, -0.75]))  # two points hold the sup, one ulp apart
    @example(np.array([9.0, -np.inf]))
    @example(np.array([np.inf, -np.inf, np.nan]))
    def test_normal_law_matches_the_oracle(self, x):
        check_kolmogorov(x)

    def test_normal_law_at_every_size(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 1000, 100_000):
            check_kolmogorov(rng.normal(size=n))
            check_kolmogorov(rng.integers(-24, 25, n) / 8)

    @pytest.mark.parametrize("x, want", [([np.nan], math.nan), ([0.0, np.nan], math.nan),
                                         ([np.inf], 1.0), ([-np.inf, np.inf], 0.5)])
    def test_nonfinite_points(self, x, want):
        got = kolmogorov_distance(x, normal_cdf)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_bracket_is_within_delta(self):
        xs = np.linspace(-40.0, 40.0, 1_000_001)
        assert np.abs(_normal_cdf_bracket(xs) - normal_cdf(xs)).max() <= _PHI_DELTA
        assert np.isnan(_normal_cdf_bracket(np.array([np.nan]))).all()

    @pytest.mark.parametrize("cdf", [normal_cdf, lambda t: np.clip(t, 0, 1)])
    def test_empty_sample_is_refused(self, cdf):
        with pytest.raises(ValueError, match="^Kolmogorov distance of an empty sample$"):
            kolmogorov_distance([], cdf)

    def test_normal_cdf_accuracy(self):
        # reference values accurate to 1e-12 (Abramowitz-Stegun style checks)
        assert normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-12)
        assert normal_cdf(-2.0) == pytest.approx(0.0227501319481792, abs=1e-12)
