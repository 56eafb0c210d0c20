"""Distribution and statistics tests, cross-checked against brute-force oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import oracles
from measeq import dist
from measeq.density import APSet
from measeq.dist import (
    _CONV_BLOCK,
    EDF,
    DEFAULT_TEST_FAMILY,
    _default_grid,
    cell_index,
    chebyshev_check,
    convolve_edf,
    correlation,
    edf,
    edf_sup_distance,
    interval_independence_stat,
    linearity_check,
    moments,
    region_density,
    statistical_independence_stat,
    stieltjes_mean,
    sup_norm,
    uniform_edf,
    unit_interval_grid,
)
from measeq.errors import (
    CapacityError,
    DegenerateWindowError,
    DomainError,
    WindowRangeError,
)
from measeq.seqgen import (
    BaseChain,
    SequenceWindow,
    SimpleSpec,
    VdcSequence,
    apply_pointwise,
    gen_simple,
)

windows = st.lists(
    st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
).map(SequenceWindow)
# values on a 0.1 grid, so they repeat within a window and across two windows
coarse_windows = windows.map(lambda w: SequenceWindow(np.round(w.values, 1)))


@st.composite
def cell_grids(draw):
    """A unit-interval grid, or shuffled disjoint cells with gaps plus empty cells."""
    if draw(st.booleans()):
        return unit_interval_grid(draw(st.integers(1, 12)))
    edge = st.floats(-2, 2, allow_nan=False)
    edges = sorted(draw(st.lists(edge, min_size=2, max_size=10, unique=True)))
    cells = [(a, b) for a, b in zip(edges, edges[1:]) if draw(st.booleans())]
    cells += draw(st.lists(st.tuples(edge, edge).map(lambda c: (max(c), min(c))), max_size=2))
    return draw(st.permutations(cells or [(edges[0], edges[-1])]))


def vdc_window(base: int, N: int) -> SequenceWindow:
    return VdcSequence(BaseChain.geometric(base, 1)).window(N)


# infinite atoms of the two factors: never +inf in one and -inf in the other
_INF_ATOMS = (((), ()), ((np.inf,), ()), ((), (-np.inf,)), ((np.inf,), (np.inf,)),
              ((-np.inf,), (-np.inf,)), ((-np.inf, np.inf), ()))


@st.composite
def conv_factor_pairs(draw, max_atoms=40):
    """Two step distributions with unequal masses whose sums reach every path
    of convolve_edf: lattice grids k/m (few distinct sums, near-ties when m is
    2**52), random atoms (mostly distinct), runs of up to 24 atoms one ulp
    apart, multiples of the least subnormal, -0.0, +-inf atoms, and one
    factor reaching +-1e308, so that the sums' spread overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    infs = draw(st.sampled_from(_INF_ATOMS))
    huge = draw(st.integers(0, 5))  # the factor reaching +-1e308, if 0 or 1

    def factor(k):
        n = draw(st.integers(1, max_atoms))
        kind = draw(st.sampled_from(("lattice", "random", "ulp runs", "subnormal")))
        if kind == "random":
            atoms = rng.uniform(-4, 4, n)
        elif kind == "subnormal":
            atoms = rng.integers(-40, 40, n, endpoint=True) * 5e-324
        else:
            m = draw(st.sampled_from((1, 3, 8, 10, 3**7, 2**52)))
            atoms = rng.integers(-4 * m, 4 * m, n, endpoint=True) / m
        if kind == "ulp runs":
            run = [atoms[: draw(st.integers(1, 3))]]
            for _ in range(draw(st.integers(1, 23))):
                run.append(np.nextafter(run[-1], np.inf))
            atoms = np.concatenate([atoms, *run])
        if draw(st.booleans()):
            atoms = np.append(atoms[atoms != 0.0], -0.0)
        atoms = np.concatenate([atoms, infs[k], [-1e308, 1e308] if huge == k else []])
        return _unequal_masses(np.unique(atoms))

    return factor(0), factor(1)


class TestEdf:
    def test_constant_single_jump(self):
        F = edf(SequenceWindow([0.7] * 9))
        assert F.breakpoints.tolist() == [0.7]
        assert F(0.7) == 0.0 and F(0.70001) == 1.0

    def test_vdc_four_points(self):
        F = edf(vdc_window(2, 4))  # values 1/2, 1/4, 3/4, 1/8
        assert F(0.5) == 0.5

    def test_above_max_is_one(self):
        F = edf(vdc_window(2, 17))
        assert F(2.0) == 1.0

    @given(windows, st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=100)
    def test_strict_below_count(self, w, x):
        F = edf(w)
        assert F(x) == oracles.edf_oracle(w.values.tolist(), x)

    @given(windows)
    def test_step_invariants(self, w):
        F = edf(w)
        assert (np.diff(F.cum) >= 0).all()
        assert F.cum[-1] == 1.0
        assert F(F.breakpoints[0]) == 0.0
        # each jump is a whole number of 1/N masses
        n = len(w)
        assert np.allclose(np.rint(F.jumps * n), F.jumps * n, atol=1e-9)

    @given(st.one_of(windows, coarse_windows))
    @settings(max_examples=200)
    def test_series_equals_per_breakpoint_oracle(self, w):
        F = edf(w)
        series = zip(F.breakpoints.tolist(), F(F.breakpoints).tolist(), F.cum.tolist())
        assert list(series) == oracles.edf_series_oracle(F)

    @given(coarse_windows, st.lists(st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1))))
    def test_vectorized_evaluation_counts_exactly(self, w, xs):
        F, vals = edf(w), w.values.tolist()
        assert F(np.array(xs, dtype=float)).tolist() == [oracles.edf_oracle(vals, x) for x in xs]
        upto = [sum(1 for v in vals if v <= x) / len(vals) for x in xs]
        assert F.mass_upto(np.array(xs, dtype=float)).tolist() == upto


    # ±0.0, ±inf, NaN and equal neighbours, in breakpoints and in cum
    ORDER_VALUES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, np.inf, np.nan])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.lists(ORDER_VALUES, min_size=1, max_size=6), st.data())
    @example([0.0, -0.0], None)
    @example([-np.inf, -np.inf], None)
    @example([0.0, np.nan, 1.0], None)
    @example([0.0, 1.0], [0.5, np.nan])  # a NaN final mass
    @settings(max_examples=300)
    def test_order_checks_raise_as_the_diff_checks(self, bp, data):
        if data is None:  # an explicit example: cum that passes, to reach the breakpoint check
            cm = np.linspace(1.0, len(bp), len(bp)) / len(bp)
        elif isinstance(data, list):  # an explicit example's cum
            cm = data
        else:
            cm = data.draw(st.lists(self.ORDER_VALUES, min_size=len(bp), max_size=len(bp)))
        want = oracles.edf_order_oracle(bp, cm)
        if want is None:
            EDF(bp, cm)
        else:
            with pytest.raises(ValueError, match=want):
                EDF(bp, cm)

    def test_read_only_breakpoints_that_own_their_data_are_kept(self):
        bp, cum = np.array([0.0, 0.5, 2.0]), np.array([0.25, 0.5, 1.0])
        copied = EDF(bp, cum).breakpoints
        assert copied is not bp and not copied.flags.writeable
        bp.setflags(write=False)
        assert EDF(bp, cum).breakpoints is bp
        view = bp[1:]  # read-only, but not its data's owner
        assert EDF(view, cum[1:]).breakpoints is not view
        assert not np.shares_memory(EDF(bp, cum).cum, cum)

    def test_read_only_padded_cumulatives_are_kept(self):
        bp = np.array([0.0, 0.5, 2.0])
        padded = np.array([0.0, 0.25, 0.5, 1.0])
        early = padded[1:]  # still writable after its base is made read-only
        assert EDF(bp, padded[1:]).padded is not padded
        padded.setflags(write=False)
        kept = EDF(bp, padded[1:])
        assert kept.padded is padded and np.shares_memory(kept.cum, padded)
        assert EDF(bp, early).padded is not padded
        longer = np.array([0.0, 0.5, 1.0, 1.0])
        longer.setflags(write=False)
        assert EDF(bp[:2], longer[1:3]).padded is not longer  # not the whole tail
        led = np.array([-0.0, 0.25, 0.5, 1.0])
        led.setflags(write=False)
        assert EDF(bp, led[1:]).padded[:1].tobytes() == bytes(8)  # F is +0.0 left of x_1

    @given(st.one_of(windows, coarse_windows))
    def test_jumps_and_mean_keep_their_bits(self, w):
        F = edf(w)
        jumps = np.diff(F.cum, prepend=0.0)
        assert F.jumps.tobytes() == jumps.tobytes()
        assert F.mean() == float(np.sum(F.breakpoints * jumps))


class TestMoments:
    def test_vdc_uniform_limits(self):
        # quadrature oracle: mean 1/2 and dispersion 1/12 under the uniform law
        s = moments(vdc_window(2, 100_000))
        assert s.mean == pytest.approx(0.5, abs=1e-3)
        assert s.dispersion == pytest.approx(1 / 12, abs=1e-3)

    def test_constant(self):
        s = moments(SequenceWindow([3.25] * 11))
        assert s.mean == 3.25 and s.dispersion == 0.0

    def test_simple_spec_mean(self):
        spec = SimpleSpec([(APSet.single(0, 2), 1.0), (APSet.single(1, 2), 2.0)])
        s = moments(gen_simple(10_000, spec))
        assert s.mean == pytest.approx(1.5, abs=1e-3)

    @given(windows)
    def test_against_oracle(self, w):
        s = moments(w)
        vals = w.values.tolist()
        assert s.mean == pytest.approx(oracles.mean_oracle(vals), abs=1e-12)
        assert s.dispersion == pytest.approx(oracles.dispersion_oracle(vals), abs=1e-12)


class TestLinearity:
    def test_zero_coefficients(self):
        v, w = vdc_window(2, 100), vdc_window(3, 100)
        assert linearity_check(v, w, 0.0, 0.0) == 0.0

    def test_cancellation(self):
        v = vdc_window(2, 100)
        assert linearity_check(v, v, 1.0, -1.0) <= 1e-15

    def test_generic_combination(self):
        assert linearity_check(vdc_window(2, 1000), vdc_window(3, 1000), 2.0, 3.0) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(WindowRangeError):
            linearity_check(vdc_window(2, 10), vdc_window(2, 11), 1, 1)


class TestStieltjes:
    def test_total_mass(self):
        assert stieltjes_mean(edf(vdc_window(2, 1000)), lambda x: np.ones_like(x)) == 1.0

    def test_identity_and_square(self):
        F = edf(vdc_window(2, 100_000))
        assert stieltjes_mean(F, lambda x: x) == pytest.approx(0.5, abs=1e-3)
        assert stieltjes_mean(F, lambda x: x * x) == pytest.approx(1 / 3, abs=1e-2)

    def test_scalar_only_g_matches_its_vectorized_twin(self):
        F = edf(vdc_window(2, 1000))
        assert stieltjes_mean(F, math.sqrt) == stieltjes_mean(F, np.sqrt)

    @pytest.mark.parametrize("g, match", [(math.log, "failed"), (lambda x: 1 / x, "not finite")])
    def test_failing_or_infinite_g_is_a_domain_error(self, g, match):
        with pytest.raises(DomainError, match=match):
            stieltjes_mean(edf(SequenceWindow([0.0, 0.5])), g)

    @given(windows)
    def test_identity_matches_mean(self, w):
        # same quantity through two pipelines; summation orders differ
        assert stieltjes_mean(edf(w), lambda x: x) == pytest.approx(
            moments(w).mean, abs=1e-12
        )


class TestCorrelation:
    def test_self_correlation(self):
        v = vdc_window(2, 100_000)
        rho, alpha, beta = correlation(v, v)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)
        assert float(np.mean(v.values**2)) == pytest.approx(1 / 3, abs=1e-3)

    def test_reflection(self):
        v = vdc_window(2, 100_000)
        w = apply_pointwise(lambda x: 1.0 - x, v)
        rho, alpha, beta = correlation(v, w)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(-1.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(v.values * w.values)) == pytest.approx(1 / 6, abs=1e-3)

    def test_independent_pair_decorrelates(self):
        v, w = vdc_window(2, 100_000), vdc_window(3, 100_000)
        assert float(np.mean(v.values * w.values)) == pytest.approx(0.25, abs=1e-2)
        rho, _, _ = correlation(v, w)
        assert rho <= 0.05

    def test_symmetry(self):
        v, w = vdc_window(2, 5000), vdc_window(3, 5000)
        assert correlation(v, w).rho == correlation(w, v).rho

    @given(
        windows.filter(lambda w: moments(w).dispersion > 1e-6),
        st.floats(0.1, 4, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_affine_recovery(self, v, a, b):
        w = SequenceWindow(a * v.values + b)
        rho, alpha, beta = correlation(v, w)
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert alpha == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert beta == pytest.approx(b, rel=1e-9, abs=1e-7)

    def test_degenerate_names_input(self):
        v = vdc_window(2, 100)
        flat = SequenceWindow([1.0] * 100)
        with pytest.raises(DegenerateWindowError) as e:
            correlation(v, flat)
        assert e.value.which == "w"
        with pytest.raises(DegenerateWindowError) as e:
            correlation(flat, v)
        assert e.value.which == "v"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v, w", [
        ([1e308, -1e308, 0.0], [0.0, 1.0, 2.0]),  # squared deviations overflow
        ([0.0, 1.0, 2.0], [1e308, 1e308, 1.0]),  # the mean of w overflows
    ])
    def test_overflowing_sums_are_a_domain_error(self, v, w):
        with pytest.raises(DomainError, match="overflow: no correlation"):
            correlation(SequenceWindow(v), SequenceWindow(w))


class TestChebyshev:
    def test_constant(self):
        assert chebyshev_check(SequenceWindow([2.0] * 10), 0.5) == (0.0, 0.0)

    def test_vdc_half(self):
        # the window mean sits just under 1/2, so at most a couple of
        # near-one points can graze the eps = 1/2 boundary
        v = vdc_window(2, 100_000)
        lhs, rhs = chebyshev_check(v, 0.5)
        direct = oracles.chebyshev_oracle(v.values.tolist(), 0.5)[0]
        assert lhs == pytest.approx(direct, abs=1e-12)
        assert lhs <= 2 / 100_000
        assert rhs == pytest.approx(1 / 3, abs=1e-2)

    def test_vdc_quarter(self):
        lhs, rhs = chebyshev_check(vdc_window(2, 100_000), 0.25)
        assert lhs == pytest.approx(0.5, abs=1e-2)
        assert rhs == pytest.approx(4 / 3, abs=0.05)

    @given(windows, st.floats(0.05, 2))
    @settings(max_examples=60)
    def test_bound_holds(self, w, eps):
        lhs, rhs = chebyshev_check(w, eps)
        assert lhs <= rhs + 1e-12


class TestIndependenceStats:
    def test_constant_factor_is_exact(self):
        v = vdc_window(2, 1000)
        w = SequenceWindow([0.4] * 1000)
        rep = statistical_independence_stat(v, w)
        assert rep.statistic <= 1e-12

    def test_self_pair_identity_family(self):
        v = vdc_window(2, 100_000)
        rep = statistical_independence_stat(v, v, family=[("x", lambda x: x)])
        assert rep.statistic == pytest.approx(1 / 12, abs=1e-3)

    def test_coprime_bases_pass(self):
        rep = statistical_independence_stat(vdc_window(2, 100_000), vdc_window(3, 100_000))
        assert rep.statistic <= 0.02

    def test_statistic_is_table_max(self):
        rep = statistical_independence_stat(vdc_window(2, 2000), vdc_window(3, 2000))
        assert rep.statistic == max(d for _, _, d in rep.table)
        assert rep.family == "monomials+ramps/v1"

    def test_scalar_only_family_matches_its_vectorized_twin(self):
        v, w = vdc_window(2, 2000), vdc_window(3, 2000)
        scalar = statistical_independence_stat(v, w, family=[("sqrt", math.sqrt)])
        vector = statistical_independence_stat(v, w, family=[("sqrt", np.sqrt)])
        assert scalar == vector

    @pytest.mark.parametrize("g, match", [(math.log, "failed"), (lambda x: 1 / x, "not finite")])
    def test_failing_or_infinite_g_is_a_domain_error(self, g, match):
        v = SequenceWindow([0.0, 0.5])
        with pytest.raises(DomainError, match=match):
            statistical_independence_stat(v, v, family=[("x", lambda x: x), ("g", g)])

    def test_mirror_symmetry(self):
        v, w = vdc_window(2, 3000), vdc_window(3, 3000)
        assert (
            statistical_independence_stat(v, w).statistic
            == statistical_independence_stat(w, v).statistic
        )

    def test_interval_full_cell(self):
        v, w = vdc_window(2, 1000), vdc_window(3, 1000)
        rep = interval_independence_stat(v, w, grid=([(0.0, 1.0)], [(0.0, 1.0)]))
        assert rep.statistic == 0.0

    def test_interval_product_rule(self):
        v, w = vdc_window(2, 100_000), vdc_window(3, 100_000)
        rep = interval_independence_stat(
            v, w, grid=([(0.0, 0.5)], [(0.0, 1 / 3)])
        )
        assert rep.statistic <= 0.01

    def test_interval_dependent_pair(self):
        v = vdc_window(2, 10_000)
        rep = interval_independence_stat(v, v, grid=([(0.0, 0.5)], [(0.5, 1.0)]))
        assert rep.statistic == pytest.approx(0.25, abs=1e-2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_interval_table_equals_mask_oracle(self, data):
        # values on cell edges, outside every cell (+-inf included), default
        # grids over ranges beyond [0, 1], shuffled gapped cells, empty cells;
        # a default grid over +-inf values is refused
        grid = data.draw(st.none() | st.tuples(cell_grids(), cell_grids()))
        edges = [x for g in grid or (unit_interval_grid(10),) for cell in g for x in cell]
        point = st.floats(-3, 3) | st.sampled_from(edges + [np.inf, -np.inf])
        n = data.draw(st.integers(1, 40))
        v, w = (SequenceWindow(data.draw(st.lists(point, min_size=n, max_size=n))) for _ in "vw")
        if grid is None and not np.isfinite(np.concatenate([v.values, w.values])).all():
            with pytest.raises(DomainError, match="no finite default cells"):
                interval_independence_stat(v, w)
            return
        rep = interval_independence_stat(v, w, grid=grid)
        grid_v, grid_w = grid or (_default_grid(v), _default_grid(w))
        want = oracles.interval_independence_table_oracle(
            v.values.tolist(), w.values.tolist(), grid_v, grid_w
        )
        assert [d for _, _, d in rep.table] == want
        assert rep.statistic == max(want)
        assert rep.family == f"intervals {len(grid_v)}x{len(grid_w)}"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cell_index_equals_searchsorted_oracle(self, data):
        # values on cell edges, +-inf and NaN; gapped, shuffled and empty cells
        cells = data.draw(cell_grids())
        edges = [x for cell in cells for x in cell]
        point = st.floats(-3, 3) | st.sampled_from(edges + [np.inf, -np.inf, np.nan])
        values = np.array(data.draw(st.lists(point, max_size=40)), dtype=float)
        got = cell_index(values, cells)
        assert got.dtype == np.min_scalar_type(len(cells))
        assert got.tolist() == oracles.cell_index_oracle(values, cells).tolist()

    @pytest.mark.parametrize(
        "cells",
        [[(0.0, 0.5), (0.4, 1.0)], [(0.2, 0.3), (0.0, 1.0)], [(0.1, 0.2), (0.1, 0.2)]],
    )
    def test_overlapping_cells_raise(self, cells):
        v = vdc_window(2, 64)
        with pytest.raises(ValueError, match="overlap"):
            interval_independence_stat(v, v, grid=(cells, unit_interval_grid(4)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_default_grid_refuses_infinite_values(self, bad):
        w = SequenceWindow([0.1, 0.2, bad, 0.3] * 5)
        with pytest.raises(DomainError, match="no finite default cells"):
            interval_independence_stat(w, w)
        # explicit cells still work; the infinite values fall in no cell
        rep = interval_independence_stat(w, w, grid=(unit_interval_grid(4),) * 2)
        assert rep.statistic == 0.25
        assert rep.table[0] == ("[0,0.25)", "[0,0.25)", 0.25)

    def test_empty_cells_hold_nothing(self):
        # (0.9, 0.1) lies across the live cell [0.5, 1) without overlapping it
        v = vdc_window(2, 64)
        cells = [(0.0, 0.5), (0.5, 0.5), (0.9, 0.1), (0.5, 1.0)]
        rep = interval_independence_stat(v, v, grid=(cells, unit_interval_grid(2)))
        assert [d for _, _, d in rep.table] == [0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.25, 0.25]


class TestRegionDensity:
    def test_empty_region(self):
        assert region_density([vdc_window(2, 100), vdc_window(3, 100)], []) == 0.0

    def test_unit_square(self):
        seqs = [vdc_window(2, 100), vdc_window(3, 100)]
        assert region_density(seqs, [((0.0, 1.0), (0.0, 1.0))]) == 1.0

    def test_triangle_staircase(self):
        # 64 midpoint columns under t1 + t2 = 1 enclose area 1/2 exactly
        seqs = [vdc_window(2, 100_000), vdc_window(3, 100_000)]
        boxes = [
            ((i / 64, (i + 1) / 64), (0.0, 1.0 - (i + 0.5) / 64)) for i in range(64)
        ]
        assert region_density(seqs, boxes) == pytest.approx(0.5, abs=0.02)


class TestConvolution:
    def test_point_mass_is_identity(self):
        F = edf(vdc_window(2, 64))
        G = convolve_edf(EDF.point_mass(0.0), F)
        assert np.array_equal(G.breakpoints, F.breakpoints)
        assert np.allclose(G.cum, F.cum, atol=1e-12)

    def test_uniform_sum_quadratic_law(self):
        F = uniform_edf(1000)
        G = convolve_edf(F, F)
        assert G(1.0) == pytest.approx(0.5, abs=5e-3)
        assert G(0.5) == pytest.approx(0.125, abs=5e-3)

    def test_commutative(self):
        F, G = edf(vdc_window(2, 50)), edf(vdc_window(3, 40))
        A, B = convolve_edf(F, G), convolve_edf(G, F)
        assert np.array_equal(A.breakpoints, B.breakpoints)
        assert np.abs(A.jumps - B.jumps).max() <= 1e-12

    def test_associative_on_dyadic_atoms(self):
        F = edf(vdc_window(2, 16))
        G = edf(vdc_window(2, 32))
        H = edf(vdc_window(2, 8))
        left = convolve_edf(convolve_edf(F, G), H)
        right = convolve_edf(F, convolve_edf(G, H))
        assert np.array_equal(left.breakpoints, right.breakpoints)
        assert np.abs(left.jumps - right.jumps).max() <= 1e-12

    def test_mean_additivity(self):
        F, G = edf(vdc_window(2, 200)), edf(vdc_window(3, 150))
        assert convolve_edf(F, G).mean() == pytest.approx(F.mean() + G.mean(), abs=1e-12)

    def test_atom_cap(self):
        F = uniform_edf(3000)
        # 9e6 pairs exceed MAX_ATOMS; the refusal names both sizes and the cap
        with pytest.raises(CapacityError, match=r"^3000 x 3000 atoms exceed the cap 4000000$"):
            convolve_edf(F, F)

    @pytest.mark.parametrize("a, b", [(np.inf, -np.inf), (-np.inf, np.inf)])
    def test_opposite_infinite_atoms_are_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match="no sum"):
            convolve_edf(EDF.from_values([a, 0.0]), EDF.from_values([b, 2.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b, sums", [
        ([np.inf, 0.0], [np.inf, 2.0], [2.0, np.inf]),
        ([-np.inf, np.inf], [1.0, 2.0], [-np.inf, np.inf]),
        # only the finite atoms' sums must stay finite
        ([np.inf, 1.0], [1e308, 2.0], [3.0, 1e308, np.inf]),
    ])
    def test_infinite_atoms_without_opposite_sums(self, a, b, sums):
        assert convolve_edf(EDF.from_values(a), EDF.from_values(b)).breakpoints.tolist() == sums

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b", [
        ([1e308, 1e307], [1e308, 2.0]),
        ([-1e308, 0.0], [-1e308, 1.0]),
        ([np.inf, 1e308], [np.inf, 1e308]),
    ])
    def test_overflowing_finite_sums_are_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match="sums of finite atoms overflow"):
            convolve_edf(EDF.from_values(a), EDF.from_values(b))

    def test_against_dict_oracle(self):
        F, G = edf(vdc_window(2, 12)), edf(vdc_window(3, 9))
        got = convolve_edf(F, G)
        xs, ms = oracles.convolve_oracle(
            F.breakpoints.tolist(), F.jumps.tolist(),
            G.breakpoints.tolist(), G.jumps.tolist(),
        )
        assert got.breakpoints.tolist() == xs
        cum = np.minimum(np.cumsum(ms), 1.0)
        cum[-1] = 1.0
        assert got.cum.tobytes() == cum.tobytes()

    # (F, F1, path): the few-distinct path sorts each block's distinct sums and
    # ranks its sums through a bucket table ("buckets"), the all-pairs path
    # sorts all sums at once
    CASES = {
        "uniform 1": (lambda: (uniform_edf(1), uniform_edf(1)), "all pairs"),
        "uniform 50 x 300": (lambda: (uniform_edf(50), uniform_edf(300)), "buckets"),
        # 218 rows a block: the second block holds the last 82 rows
        "uniform 300": (lambda: (uniform_edf(300), uniform_edf(300)), "buckets"),
        "vdc 3 x 3": (lambda: (edf(vdc_window(3, 400)), edf(vdc_window(3, 250))), "buckets"),
        "vdc 2 x 3": (lambda: (edf(vdc_window(2, 300)), edf(vdc_window(3, 200))), "all pairs"),
        "inf atoms, buckets": (lambda: (EDF.from_values([-np.inf, *np.arange(40) / 8, np.inf]),
                                        uniform_edf(64)), "buckets"),
        # 152 atoms of 250 pairs: a share above _CONV_FEW
        "inf atoms, all pairs": (lambda: (EDF.from_values([-np.inf, 0.1, 0.3, 0.7, np.inf]),
                                          edf(vdc_window(3, 50))), "all pairs"),
        # one row longer than a block: 1, 2 and 3 plus steps below half an ulp
        # of 1 round to the integer, so each atom adds 65,636 masses in order
        "row past the block": (lambda: (EDF.from_values([1.0, 2.0, 3.0]),
                                        EDF(np.arange(_CONV_BLOCK + 100) * 2.0**-70,
                                            np.arange(1, _CONV_BLOCK + 101) / (_CONV_BLOCK + 100))),
                               "buckets"),
        # mostly distinct sums, but the atoms k/8 of both factors meet in 31
        # sums of up to 16 random masses, whose float sum hangs on their order
        "ties of unequal masses": (lambda: _dyadic_ties(5), "all pairs"),
        "more ties of unequal masses": (lambda: _dyadic_ties(9), "all pairs"),
        # row 0 is 40,000 distinct sums; rows 1 and 2 round to 1.0 and 2.0, so
        # the run of 1.0 (sorted places 40,000 to 79,999) holds the first chunk end
        "tie run across a chunk end": (lambda: (EDF.from_values([0.0, 1.0, 1.0, 2.0]),
                                                _unequal_masses(np.arange(40_000) * 2.0**-70)),
                                       "all pairs"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_as_unique_oracle(self, case):
        make, path = self.CASES[case]
        F, G = make()
        bp, cum = oracles.convolve_unique_oracle(F, G)
        assert _conv_path(F, G) == path
        got = convolve_edf(F, G)
        assert got.breakpoints.tobytes() == bp.tobytes()
        assert got.cum.tobytes() == cum.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(conv_factor_pairs())
    def test_drawn_factors_give_the_unique_oracles_bits(self, factors):
        F, G = factors
        bp, cum = oracles.convolve_unique_oracle(F, G)
        got = convolve_edf(F, G)
        assert got.breakpoints.tobytes() == bp.tobytes()
        assert got.cum.tobytes() == cum.tobytes()

    @pytest.mark.parametrize("path", [
        "all pairs", "buckets", "no finite spread", "spread overflows", "scale overflows",
        "wide bucket",
    ])
    def test_drawn_factors_reach_every_path(self, path):
        # find raises NoSuchExample if no draw takes the path
        find(conv_factor_pairs(), lambda fg: _conv_path(*fg) == path,
             settings=settings(max_examples=2000, database=None))

    # +0.0 and -0.0 share one atom, which keeps the sign of the sum of its first
    # pair in row-major order: -0.0 + -0.0 is -0.0, and x + -x (x != 0) is +0.0
    @pytest.mark.parametrize("a, b, sign", [
        ([-0.0, 1.0], [-0.0, -1.0], -1.0),  # (-0.0, -0.0) comes first
        ([-1.0, -0.0], [-0.0, 1.0], 1.0),  # (-1.0, 1.0) comes first
        ([-0.0, *np.arange(1, 17) / 8], [-0.0, *np.arange(-16, 0) / 8], -1.0),
        ([*np.arange(-16, 0) / 8, -0.0], [-0.0, *np.arange(1, 17) / 8], 1.0),
        ([-0.0, 0.3, 0.7], [-0.0, -0.7, -0.3], -1.0),
    ])
    def test_signed_zero_sums_keep_the_first_pairs_zero(self, a, b, sign):
        # the first two and the last make the all-pairs path (most sums distinct),
        # the dyadic rows the sorted one; the dict oracle keeps each atom's first key
        F, G = EDF.from_values(a), EDF.from_values(b)
        got = convolve_edf(F, G)
        xs, ms = oracles.convolve_oracle(
            F.breakpoints.tolist(), F.jumps.tolist(), G.breakpoints.tolist(), G.jumps.tolist(),
        )
        assert got.breakpoints.tobytes() == np.array(xs).tobytes()
        zero = got.breakpoints[got.breakpoints == 0.0]
        assert zero.size == 1 and math.copysign(1.0, zero[0]) == sign

    def test_all_pairs_memory_per_pair(self):
        F, G = edf(vdc_window(3, 600)), edf(vdc_window(7, 600))
        convolve_edf(edf(vdc_window(3, 60)), edf(vdc_window(7, 60)))  # first-call imports
        tracemalloc.start()
        try:
            got = convolve_edf(F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.breakpoints.size == 600 * 600  # coprime bases: every sum distinct
        # an int64 inverse and the pair masses held beside the sums take about 60;
        # the peak is 21 a pair plus one chunk's index and mass arrays (4.6 here)
        assert peak <= 26 * 600 * 600

    def test_few_distinct_memory_per_pair(self):
        n = 1470
        F = edf(VdcSequence(BaseChain.geometric(6, 5)).window(n))
        G = edf(VdcSequence(BaseChain.factorial(8)).window(n))
        convolve_edf(F, G)  # first-call imports
        tracemalloc.start()
        try:
            got = convolve_edf(F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _conv_path(F, G) == "buckets"
        assert got.breakpoints.size == 96378  # 4.5% of the pairs
        # 7.0 a pair, the bucket table 0.7 of it; the all-pairs path takes 20 here
        assert peak <= 8 * n * n


def _conv_path(F: EDF, G: EDF) -> str:
    """How convolve_edf finds the atoms of the sums: "all pairs", or on the
    few-distinct path by "buckets", or by binary search for "no finite
    spread", "spread overflows", a spread so small that "scale overflows",
    or "wide bucket"."""
    paths = []

    def all_pairs(*args):
        paths.append("all pairs")
        return real_all_pairs(*args)

    def ranker(bp):
        rank = real_ranker(bp)
        lo, hi = dist._finite_ends(bp) or (0.0, 0.0)
        paths.append("buckets" if rank.__name__ != "searchsorted" else
                     "no finite spread" if lo == hi else
                     "spread overflows" if hi - lo == math.inf else
                     "scale overflows" if 2 * bp.size / (hi - lo) == math.inf else "wide bucket")
        return rank

    real_all_pairs, real_ranker = dist._all_pairs, dist._ranker
    with mock.patch.object(dist, "_all_pairs", all_pairs), mock.patch.object(dist, "_ranker", ranker):
        convolve_edf(F, G)
    [path] = paths
    return path


def _unequal_masses(bp: np.ndarray) -> EDF:
    """Breakpoints `bp` with masses proportional to 1, 2, ..., 7, 1, 2, ..."""
    weights = np.arange(bp.size) % 7 + 1.0
    return EDF(bp, np.cumsum(weights) / weights.sum())


def _dyadic_ties(seed: int) -> tuple[EDF, EDF]:
    """Two factors with atoms k/8 (k < 16) and random atoms in [2, 3).

    The k/8 hold the lowest sums and most of the mass, so the order in which
    a tied atom adds its masses shows in the bits of `cum`."""
    rng = np.random.default_rng(seed)

    def factor(n_random):
        bp = np.concatenate([np.arange(16) / 8, np.unique(2 + rng.random(n_random))])
        weights = rng.random(bp.size)
        weights[:16] += 100
        return EDF(bp, np.minimum(np.cumsum(weights) / weights.sum(), 1.0))
    return factor(200), factor(150)


class TestSupNorm:
    def test_examples(self):
        assert sup_norm(SequenceWindow([-2.5, 1.0])) == 2.5
        v = vdc_window(2, 1000)
        assert sup_norm(v) < 1.0
        diff = SequenceWindow(v.values - v.values)
        assert sup_norm(diff) == 0.0


class TestBruteForceEquivalence:
    """Every statistic agrees with an independent double-loop oracle at N <= 200."""

    def setup_method(self):
        self.v = vdc_window(2, 200)
        self.w = vdc_window(3, 200)
        self.lv = self.v.values.tolist()
        self.lw = self.w.values.tolist()

    def test_edf(self):
        F = edf(self.v)
        for x in np.linspace(-0.1, 1.1, 37):
            assert F(x) == pytest.approx(oracles.edf_oracle(self.lv, x), abs=1e-12)

    def test_moments(self):
        s = moments(self.v)
        assert s.mean == pytest.approx(oracles.mean_oracle(self.lv), abs=1e-12)
        assert s.dispersion == pytest.approx(oracles.dispersion_oracle(self.lv), abs=1e-12)

    def test_stieltjes(self):
        F = edf(self.v)
        for g in (lambda x: x, lambda x: x * x, lambda x: 3 * x - 1):
            assert stieltjes_mean(F, g) == pytest.approx(
                oracles.stieltjes_oracle(self.lv, g), abs=1e-12
            )

    def test_correlation(self):
        got = correlation(self.v, self.w)
        want = oracles.correlation_oracle(self.lv, self.lw)
        assert got == pytest.approx(want, abs=1e-12)

    def test_chebyshev(self):
        for eps in (0.1, 0.25, 0.6):
            got = chebyshev_check(self.v, eps)
            want = oracles.chebyshev_oracle(self.lv, eps)
            assert got == pytest.approx(want, abs=1e-12)

    def test_statistical_independence(self):
        fam = [(n, g) for n, g in DEFAULT_TEST_FAMILY[:4]]
        got = statistical_independence_stat(self.v, self.w, family=fam).statistic
        scalar_fam = [(n, (lambda g: (lambda x: float(g(x))))(g)) for n, g in fam]
        want = oracles.statistical_independence_oracle(self.lv, self.lw, scalar_fam)
        assert got == pytest.approx(want, abs=1e-12)

    def test_interval_independence(self):
        grid = unit_interval_grid(5)
        got = interval_independence_stat(self.v, self.w, grid=(grid, grid)).statistic
        want = oracles.interval_independence_oracle(self.lv, self.lw, grid, grid)
        assert got == pytest.approx(want, abs=1e-12)

    def test_region(self):
        boxes = [((0.0, 0.5), (0.0, 0.5)), ((0.25, 1.0), (0.5, 0.75))]
        got = region_density([self.v, self.w], boxes)
        want = oracles.region_oracle([self.lv, self.lw], boxes)
        assert got == pytest.approx(want, abs=1e-12)

    def test_sup_norm(self):
        assert sup_norm(self.v) == oracles.sup_norm_oracle(self.lv)


class TestSupDistance:
    def test_identical(self):
        F = edf(vdc_window(2, 100))
        assert edf_sup_distance(F, F) == 0.0

    def test_shifted_point_masses(self):
        assert edf_sup_distance(EDF.point_mass(0.0), EDF.point_mass(1.0)) == 1.0

    @pytest.mark.parametrize("values", [windows, coarse_windows], ids=["floats", "ties"])
    @given(data=st.data())
    def test_against_oracle(self, values, data):
        # two independent draws, so the windows usually differ in length
        v, w = data.draw(values), data.draw(values)
        got = edf_sup_distance(edf(v), edf(w))
        want = oracles.edf_sup_distance_oracle(v.values.tolist(), w.values.tolist())
        assert got == pytest.approx(want, abs=1e-12)
