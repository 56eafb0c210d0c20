"""Density, cover-certificate and saturation tests against enumeration oracles."""

from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from measeq.density import (
    APSet,
    FACTORIAL_LADDER,
    PRIMORIAL_LADDER,
    ap_predicate,
    ap_union_density,
    asymptotic_density_profile,
    blocks_predicate,
    buck_measurability_check,
    buck_upper,
    buck_upper_per_level,
    count_in_window,
    primes_predicate,
    residue_saturation,
    squares_predicate,
    survey,
    window_level_set,
    Predicate,
    _verify_cover,
)
from measeq.errors import CapacityError, DiagnosticError, MeaseqError
from measeq.seqgen import BaseChain, SequenceWindow, VdcSequence


def union_density_by_enumeration(s: APSet) -> Fraction:
    """Oracle: count covered residues modulo the lcm of all moduli."""
    L = lcm(*(m for _, m in s.progressions)) if s.progressions else 1
    covered = sum(1 for n in range(L) if any(n % m == r for r, m in s.progressions))
    return Fraction(covered, L)


def blocks_count_oracle(N: int) -> int:
    total, lo = 0, 1
    while lo <= N:
        total += max(0, min(N + 1, 2 * lo) - lo)
        lo *= 4
    return total


aps = st.lists(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.integers(0, m - 1), st.just(m))
    ),
    min_size=1,
    max_size=5,
).map(APSet)


class TestCounting:
    def test_even(self):
        assert count_in_window(lambda n: n % 2 == 0, 10) == 5

    def test_squares(self):
        assert count_in_window(squares_predicate(), 100) == 10

    def test_ap(self):
        pred = ap_predicate(APSet.single(2, 4))
        oracle = sum(1 for n in range(1, 101) if n % 4 == 2)
        assert count_in_window(pred, 100) == oracle == 25

    @given(aps, st.integers(1, 500))
    @settings(max_examples=50)
    def test_mask_agrees_with_membership(self, s, N):
        mask = s.mask(N)
        for n in (1, N // 2 or 1, N):
            assert mask[n - 1] == (n in s)


# window lengths at the block edges 4^k - 1, 4^k and 2 * 4^k, and anywhere
edge_k = st.integers(0, 5)
mask_sizes = st.one_of(edge_k.map(lambda k: 4**k - 1), edge_k.map(lambda k: 4**k),
                       edge_k.map(lambda k: 2 * 4**k), st.integers(0, 3000))


class TestPredicates:
    @given(mask_sizes, aps, st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_builtin_masks_match_scalar_rules(self, N, s, lo, hi):
        values = VdcSequence(BaseChain.geometric(3, 1)).window(max(N, 1)).values
        for pred, rule in [
            (squares_predicate(), oracles.is_square),
            (primes_predicate(), oracles.is_prime),
            (blocks_predicate(), oracles.in_blocks),
            (ap_predicate(s), lambda n: oracles.in_apset(s, n)),
            (window_level_set(SequenceWindow(values), lo, hi),
             lambda n: oracles.in_level_set(values, lo, hi, n)),
        ]:
            want = [bool(rule(n)) for n in range(1, N + 1)]
            assert pred.mask(N).tolist() == want, pred.name
            assert Predicate.from_callable(rule).mask(N).tolist() == want, pred.name
            for n in {1, N // 2 or 1, N} if N else ():
                assert pred(n) == want[n - 1], (pred.name, n)

    def test_positional_form_is_a_type_error(self):
        with pytest.raises(TypeError):
            Predicate(lambda n: n % 2 == 0, lambda N: np.arange(1, N + 1) % 2 == 0)

    def test_call_needs_a_positive_integer(self):
        with pytest.raises(ValueError, match="positive integers, got 0"):
            squares_predicate()(0)


class TestDensityProfile:
    def test_ap_settles(self):
        est = asymptotic_density_profile(
            ap_predicate(APSet.single(2, 4)), [10**3, 10**4, 10**5, 10**6]
        )
        assert est.value == pytest.approx(0.25, abs=1e-5)

    def test_squares_vanish(self):
        est = asymptotic_density_profile(
            squares_predicate(), [10**3, 10**4, 10**5, 10**6], tolerance=1e-2
        )
        # oracle: floor(sqrt(N)) / N
        assert est.ratios[-1] == isqrt(10**6) / 10**6
        assert est.value == pytest.approx(0.0, abs=1e-2)

    def test_blocks_oscillate(self):
        grid = [2**j for j in range(8, 21)]
        est = asymptotic_density_profile(blocks_predicate(), grid)
        for N, ratio in zip(grid, est.ratios):
            assert ratio == blocks_count_oracle(N) / N
        assert est.value is None
        assert est.liminf_est == pytest.approx(1 / 3, abs=0.02)
        assert est.limsup_est == pytest.approx(2 / 3, abs=0.02)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            asymptotic_density_profile(squares_predicate(), [10, 10])


class TestUnionDensity:
    def test_single(self):
        assert ap_union_density(APSet.single(0, 2)) == Fraction(1, 2)

    def test_two_overlapping(self):
        s = APSet([(0, 2), (0, 3)])
        assert ap_union_density(s) == Fraction(2, 3)
        assert union_density_by_enumeration(s) == Fraction(2, 3)

    def test_full_partition(self):
        assert ap_union_density(APSet([(0, 2), (1, 2)])) == 1

    def test_single_progression_exhaustive(self):
        for m in range(1, 65):
            for r in range(m):
                assert ap_union_density(APSet.single(r, m)) == Fraction(1, m)

    @given(aps)
    @settings(max_examples=100)
    def test_matches_enumeration(self, s):
        assert ap_union_density(s) == union_density_by_enumeration(s)

    def test_term_limit_counts_subset_nodes(self):
        # coprime moduli: all 2^4 - 1 nonempty subsets intersect, so 15 nodes
        s = APSet([(0, 2), (0, 3), (0, 5), (0, 7)])
        assert ap_union_density(s, term_limit=15) == 1 - Fraction(1 * 2 * 4 * 6, 2 * 3 * 5 * 7)
        with pytest.raises(CapacityError, match="^inclusion-exclusion exceeded 14 terms$"):
            ap_union_density(s, term_limit=14)


class TestSaturation:
    def test_even_mod_six(self):
        pred = ap_predicate(APSet.single(0, 2))
        assert residue_saturation(pred, 6, 1000) == Fraction(1, 2)

    def test_squares_mod_24(self):
        # oracle: squares mod 24 land exactly on {0, 1, 4, 9, 12, 16}
        hit = sorted({(n * n) % 24 for n in range(24)})
        assert hit == [0, 1, 4, 9, 12, 16]
        assert residue_saturation(squares_predicate(), 24, 10**6) == Fraction(6, 24)

    def test_blocks_saturate_everything(self):
        pred = blocks_predicate()
        for m in (2, 6, 24):
            assert residue_saturation(pred, m, 2**16) == 1

    def test_window_precondition(self):
        with pytest.raises(DiagnosticError):
            residue_saturation(squares_predicate(), 100, 150)

    @pytest.mark.parametrize(
        "pred", [squares_predicate(), primes_predicate(), blocks_predicate()]
    )
    def test_weakly_decreasing_along_divisibility(self, pred):
        window = 200_000
        values = [residue_saturation(pred, m, window) for m in FACTORIAL_LADDER]
        for a, b in zip(values, values[1:]):
            assert b <= a


class TestCoverCertificates:
    def test_ap_covers_itself(self):
        cert = buck_upper(
            ap_predicate(APSet.single(2, 4)), ladder=(1, 2, 4), window_N=10_000
        )
        assert cert.cost == Fraction(1, 4)
        assert cert.cover.progressions == ((2, 4),)

    def test_finite_set_mops_up_with_singletons(self):
        t = 7
        pred = Predicate.from_callable(lambda n: n <= t, name="initial")
        cert = buck_upper(pred, ladder=FACTORIAL_LADDER, window_N=200_000)
        assert cert.cost <= Fraction(t, max(FACTORIAL_LADDER))
        # cost keeps shrinking as the ladder (and straggler modulus) grows
        shallow = buck_upper(pred, ladder=FACTORIAL_LADDER[:5], window_N=200_000)
        assert cert.cost < shallow.cost

    def test_primes_at_primorial_level(self):
        per_level = buck_upper_per_level(
            primes_predicate(), ladder=PRIMORIAL_LADDER, window_N=100_000
        )
        at30 = next(c for c in per_level if c.level == 30)
        # greedy oracle: 8 residues coprime to 30 persist; 2, 3, 5 become singletons
        assert at30.cost == Fraction(8, 30) + Fraction(3, 30030)
        singles = [p for p in at30.cover.progressions if p[1] == 30030]
        assert sorted(r for r, _ in singles) == [2, 3, 5]
        best = buck_upper(primes_predicate(), PRIMORIAL_LADDER, 100_000)
        assert best.cost <= at30.cost

    def test_periodic_cost_matches_exact_density_at_lcm_level(self):
        s = APSet([(0, 2), (0, 3)])
        cert = buck_upper(ap_predicate(s), ladder=(6,), window_N=10_000)
        assert cert.cost == ap_union_density(s)

    def test_monotone_when_set_grows(self):
        small = ap_predicate(APSet.single(0, 6))
        large = ap_predicate(APSet.single(0, 2))
        ladder = (1, 2, 6, 24)
        for cs, cl in zip(
            buck_upper_per_level(small, ladder, 50_000),
            buck_upper_per_level(large, ladder, 50_000),
        ):
            assert cs.cost <= cl.cost

    def test_monotone_for_sparse_superset(self):
        sq = squares_predicate()
        union = Predicate(
            mask=lambda N: sq.mask(N) | (np.arange(1, N + 1) % 3 == 1), name="squares-or-ap"
        )
        ladder = (1, 2, 6, 24, 120)
        for cs, cu in zip(
            buck_upper_per_level(sq, ladder, 100_000),
            buck_upper_per_level(union, ladder, 100_000),
        ):
            assert cs.cost <= cu.cost

    @pytest.mark.parametrize(
        "pa, pb",
        [
            (APSet.single(0, 2), APSet.single(0, 3)),
            (APSet.single(2, 4), APSet.single(1, 6)),
        ],
    )
    def test_subadditive_against_concatenation(self, pa, pb):
        both = APSet(pa.progressions + pb.progressions)
        ladder = FACTORIAL_LADDER
        cost_union = buck_upper(ap_predicate(both), ladder, 50_000).cost
        cost_split = (
            buck_upper(ap_predicate(pa), ladder, 50_000).cost
            + buck_upper(ap_predicate(pb), ladder, 50_000).cost
        )
        assert cost_union <= cost_split

    def test_certificate_verification_window(self):
        cert = buck_upper(squares_predicate(), FACTORIAL_LADDER, 100_000)
        mask = cert.cover.mask(100_000)
        assert all(mask[n * n - 1] for n in range(1, isqrt(100_000) + 1))
        assert cert.verified_upto == 100_000


def mask_predicate(mask: np.ndarray) -> Predicate:
    return Predicate(mask=lambda N: mask[:N], name="hits")


@st.composite
def hit_sets(draw):
    """A window mask: a few residue classes mod q, cut off early or not, plus
    scattered and early hits, so that levels see persistent classes, stale
    classes and lone stragglers."""
    N = draw(st.integers(1, 3000))
    n = np.arange(1, N + 1)
    # periods 7 and 35 put one singleton mod big_m of (3, 5, 7) or
    # (1, 4, 6, 10, 35) into several classes at once
    q = draw(st.integers(1, 60) | st.sampled_from([7, 14, 35, 70]))
    residues = draw(st.lists(st.integers(0, q - 1), max_size=4))
    cut = draw(st.integers(0, N))
    mask = np.isin(n % q, residues) & (n <= cut)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask |= rng.random(N) < draw(st.sampled_from([0.0, 0.002, 0.02, 0.2]))
    # a few early hits: lone members whose singletons often repeat across classes
    early = draw(st.lists(st.integers(1, 40), max_size=8))
    mask[[n - 1 for n in early if n <= N]] = True
    return mask


# one quarter each: ladder prefixes, ladders where m need not divide big_m (a
# singleton can sit in two classes), big_m of 2**32 and more, where a
# (r % m) * big_m + x key would overflow int64, and ladders out of order or
# with repeats whose levels divide one or more of the maximal levels
straggler_ladders = st.one_of(
    st.sampled_from(
        [FACTORIAL_LADDER[:k] for k in range(1, 9)]
        + [PRIMORIAL_LADDER[:k] for k in range(1, 8)]
    ),
    st.sampled_from([(1, 4, 6, 10, 35), (3, 5, 7)]),
    st.sampled_from([(1, 2, 6, 24, 2**32 + 15), (1, 6, 30, 2**61 - 1)]),
    st.sampled_from([(1, 2, 3, 6, 12), (4, 6, 8), (12, 6, 3, 2, 1), (6, 6, 2)]),
)


def hits_at(N, *ns):
    mask = np.zeros(N, dtype=bool)
    mask[[n - 1 for n in ns]] = True
    return mask


class TestStragglerGrouping:
    # stale hits 1, 8, 15 share singleton 1 mod 7 from classes 1, 2, 0 mod 3:
    # the cover holds 1+(7) once, the cost 3/7 counts it in each class
    @example(mask=hits_at(60, 1, 8, 15), ladder=(3, 5, 7), threshold=1)
    # stale hits 1, 3, 5 at level 2 tie 1/2 against 3/6 and take the class
    @example(mask=hits_at(60, 1, 3, 5), ladder=(1, 2, 6), threshold=3)
    @given(hit_sets(), straggler_ladders, st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_class_oracle(self, mask, ladder, threshold):
        N = mask.size
        if N < threshold * min(ladder):
            with pytest.raises(DiagnosticError):
                buck_upper_per_level(mask_predicate(mask), ladder, N, threshold)
            return
        got = buck_upper_per_level(mask_predicate(mask), ladder, N, threshold)
        want = oracles.buck_upper_per_level_oracle(mask_predicate(mask), ladder, N, threshold)
        assert [c.level for c in got] == [c.level for c in want]
        for g, w in zip(got, want):
            assert g.cover.progressions == w.cover.progressions
            assert g.cost == w.cost


def outcome(fn, *args):
    """What a call gives: its result, or the type and text of its refusal."""
    try:
        return "returned", fn(*args)
    except MeaseqError as e:
        return "raised", f"{type(e).__name__}: {e}"


# hit_sets plus the empty and the full window
window_masks = st.one_of(
    hit_sets(),
    st.tuples(st.integers(1, 3000), st.booleans()).map(lambda t: np.full(t[0], t[1])),
)

# moduli small enough to hit often, and big_m-sized ones that hold a hit or two
covers = st.lists(
    st.sampled_from([*range(1, 13), 24, 35, 720, 2**32 + 15, 2**61 - 1]).flatmap(
        lambda m: st.tuples(st.integers(0, min(m - 1, 3000)), st.just(m))
    ),
    max_size=6,
).map(APSet)


def construction(pairs):
    try:
        return "returned", APSet(pairs).progressions
    except ValueError as e:
        return "raised", str(e)


class TestAPSetFromArray:
    # residues and moduli on both sides of the valid range, repeats and one modulus near 2**61
    @example(pairs=[(5, 2**61 - 1), (2**61, 2**61 - 1), (0, 3), (3, 3)])
    @example(pairs=[(1, 2), (-1, 0)])
    @given(st.lists(st.tuples(st.integers(-2, 60), st.sampled_from([*range(-1, 13), 30, 40320])),
                    max_size=12))
    @settings(max_examples=300)
    def test_matches_pair_list(self, pairs):
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert construction(array) == construction(pairs)


    @example(pairs=[(5, 2**61 - 1), (2**61 - 2, 2**61 - 1), (0, 3), (3, 3)], other=APSet([(2, 3)]),
             N=40, read_first=False)
    @given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from([*range(1, 13), 30, 40320])),
                    max_size=12),
           aps, st.integers(1, 200), st.booleans())
    @settings(max_examples=300)
    def test_agrees_with_pair_built(self, pairs, other, N, read_first):
        by_pairs = APSet(pairs)
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)

        def by_array():
            # a fresh set for each check, so that no check runs on a tuple an earlier one built
            s = APSet(array)
            if read_first:
                s.progressions
            return s

        assert by_array().progressions == by_pairs.progressions
        assert by_array() == by_pairs and by_pairs == by_array()
        assert hash(by_array()) == hash(by_pairs)
        assert len(by_array()) == len(by_pairs)
        assert all(np.array_equal(a, b) for a, b in zip(by_array().arrays, by_pairs.arrays))
        assert np.array_equal(by_array().mask(N), by_pairs.mask(N))
        assert by_array().intersects(other) == by_pairs.intersects(other)
        assert other.intersects(by_array()) == other.intersects(by_pairs)
        assert [n in by_array() for n in range(1, N + 1)] == [n in by_pairs for n in range(1, N + 1)]


class TestVerifyCover:
    def test_missing_hit_is_a_measeq_error(self):
        hits = np.array([2, 4, 5, 8], dtype=np.int64)
        with pytest.raises(MeaseqError, match=r"cover misses window elements \[5\]"):
            _verify_cover(APSet.single(0, 2), hits)

    @example(cover=APSet([]), mask=np.ones(9, dtype=bool))
    @example(cover=APSet([(0, 2), (1, 2**61 - 1)]), mask=hits_at(20, 1, 2, 3, 5, 7, 9, 11, 13))
    @given(covers, window_masks)
    @settings(max_examples=300, deadline=None)
    def test_matches_mask_oracle(self, cover, mask):
        hits = np.flatnonzero(mask).astype(np.int64) + 1
        assert outcome(_verify_cover, cover, hits) == outcome(
            oracles.verify_cover_oracle, cover, hits, mask.size
        )


    @example(cover=APSet([(0, 3), (3, 7)]), mask=hits_at(60, 10, 45), ladder=(3, 5, 7))
    @given(covers, window_masks, straggler_ladders)
    @settings(max_examples=300, deadline=None)
    def test_with_residue_tables_matches_mask_oracle(self, cover, mask, ladder):
        # tables for the ladder's moduli, which the cover may use in part or not at all
        hits = np.flatnonzero(mask).astype(np.int64) + 1
        residues = {q: hits % q for q in ladder}
        assert outcome(_verify_cover, cover, hits, residues) == outcome(
            oracles.verify_cover_oracle, cover, hits, mask.size
        )

    @given(window_masks, straggler_ladders, st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_certificate_mutations_are_refused(self, mask, ladder, threshold, data):
        N, big_m = mask.size, max(ladder)
        hits = np.flatnonzero(mask).astype(np.int64) + 1
        if N < threshold * min(ladder) or not hits.size:
            return
        for cert in buck_upper_per_level(mask_predicate(mask), ladder, N, threshold):
            # the tables the scan passes, plus a bogus one for a modulus the cover does not use
            used = {m for _, m in cert.cover.progressions}
            unused = next(q for q in range(1, 3000) if q not in used)
            residues = {cert.level: hits % cert.level, big_m: hits % big_m,
                        unused: np.zeros_like(hits)}
            _verify_cover(cert.cover, hits, residues)
            # drop a progression that alone holds some hit
            pairs = np.array(cert.cover.progressions, dtype=np.int64)
            holds = np.array([hits % m == r for r, m in pairs])
            sole = np.flatnonzero((holds & (holds.sum(axis=0) == 1)).any(axis=1))
            dropped = APSet(np.delete(pairs, data.draw(st.sampled_from(sole.tolist())), axis=0))
            with pytest.raises(DiagnosticError, match="cover misses window elements"):
                _verify_cover(dropped, hits, residues)


class TestScanRefusesBrokenCovers:
    # n = 1, 2 mod 4 on [1, 1000]; an extra hit is a straggler at level 4, held by
    # the class 3+(4) in (2, 4) and by a singleton mod 8 or 400 in the longer ladders;
    # the last case drops the singleton of the second of two unheld classes, and
    # level 400 is past the window, so no deeper level finds the gap instead
    @pytest.mark.parametrize("ladder, extra, dropped, stragglers", [
        ((2, 4, 8), (), (2, 4), False),
        ((2, 4), (), (2, 4), False),
        ((2, 4, 8), (3,), (2, 4), True),
        ((2, 4), (3,), (2, 4), True),
        ((2, 4, 8), (3,), (3, 8), True),
        ((2, 4, 400), (3, 4), (4, 400), True),
    ])
    def test_dropped_progression_is_refused(self, monkeypatch, ladder, extra, dropped,
                                            stragglers):
        N = 1000
        mask = np.isin(np.arange(1, N + 1) % 4, (1, 2)) | hits_at(N, *extra)
        hits = np.flatnonzero(mask).astype(np.int64) + 1
        at4 = next(c for c in buck_upper_per_level(mask_predicate(mask), ladder, N)
                   if c.level == 4)
        assert (at4.cost != Fraction(2, 4)) == stragglers
        assert dropped in at4.cover.progressions
        broken = APSet(p for p in at4.cover.progressions if p != dropped)

        class Dropping(APSet):
            """The scan's covers without the dropped progression."""
            def __init__(self, pairs):
                super().__init__(pairs[(pairs != dropped).any(axis=1)])

        monkeypatch.setattr("measeq.density.APSet", Dropping)
        want = outcome(oracles.verify_cover_oracle, broken, hits, N)
        assert want[0] == "raised"
        assert outcome(buck_upper_per_level, mask_predicate(mask), ladder, N) == want


class TestMeasurability:
    def test_periodic_gap_zero(self):
        rep = buck_measurability_check(
            ap_predicate(APSet.single(2, 4)), FACTORIAL_LADDER, 100_000
        )
        for level, gap in zip(rep.levels, rep.gaps):
            if level % 4 == 0:
                assert gap == 0
        assert rep.measurable

    def test_squares_gap_shrinks(self):
        rep = buck_measurability_check(
            squares_predicate(), FACTORIAL_LADDER, 10**6
        )
        for a, b in zip(rep.gaps, rep.gaps[1:]):
            assert b <= a
        assert float(rep.gap) <= 0.15

    def test_blocks_fail(self):
        rep = buck_measurability_check(
            blocks_predicate(), (1, 2, 6, 24, 120, 720), 2**16
        )
        assert float(rep.gap) >= 0.8
        assert not rep.measurable

    # N = 1000 is no multiple of 30; the full window leaves the complement empty
    @example(mask=np.ones(1000, dtype=bool), ladder=(1, 6, 30, 2**61 - 1), threshold=4)
    @example(mask=np.zeros(7, dtype=bool), ladder=(3, 5, 7), threshold=1)
    @given(window_masks, straggler_ladders, st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_complement_oracle(self, mask, ladder, threshold):
        pred, N = mask_predicate(mask), mask.size
        assert outcome(buck_measurability_check, pred, ladder, N, threshold) == outcome(
            oracles.buck_measurability_oracle, pred, ladder, N, threshold
        )


class TestSurvey:
    @example(mask=np.ones(1000, dtype=bool), ladder=(1, 6, 30, 2**61 - 1), threshold=4,
             grid_end=1.0, window=1.0)
    @given(
        window_masks,
        straggler_ladders,
        st.integers(1, 4),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_step_oracles(self, mask, ladder, threshold, grid_end, window):
        N = mask.size
        grid_end, window = max(1, round(grid_end * N)), max(1, round(window * N))
        grid = sorted({max(1, grid_end // 4), grid_end})
        pred = mask_predicate(mask)
        got = outcome(survey, pred, grid, ladder, window, threshold)
        certs = outcome(oracles.buck_upper_per_level_oracle, pred, ladder, window, threshold)
        meas = outcome(oracles.buck_measurability_oracle, pred, ladder, window, threshold)
        assert (got[0] == "raised") == (meas[0] == "raised")
        if got[0] == "raised":
            assert got == meas
            return
        est, got_certs, got_meas = got[1]
        assert est == asymptotic_density_profile(pred, grid)
        assert est.ratios == tuple(int(mask[:n].sum()) / n for n in grid)
        assert [(c.level, c.cost, c.cover, c.verified_upto) for c in got_certs] == [
            (c.level, c.cost, c.cover, c.verified_upto) for c in certs[1]
        ]
        assert got_meas == meas[1]

    def test_refuses_in_the_order_of_the_separate_calls(self):
        level_set = Predicate(mask=lambda N: np.arange(1, N + 1) % 2 == 0, name="even",
                              max_n=1000)
        for grid, window, ladder, asked in [
            ([2000], 3000, FACTORIAL_LADDER, "asked 2000"),
            ([500], 2000, FACTORIAL_LADDER, "asked 2000"),
            ([500], 2000, (1000,), "cannot classify residues"),
        ]:
            with pytest.raises(DiagnosticError, match=asked):
                survey(level_set, grid, ladder, window)

    def test_ladder_past_int64_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1, got 100000000000000000000"):
            buck_upper(primes_predicate(), (1, 2, 6, 10**20), 1000)
        # the largest int64 modulus is still one: stragglers become singletons mod it
        cert = buck_upper(primes_predicate(), (1, 2, 6, 2**63 - 1), 1000)
        assert (2, 2**63 - 1) in cert.cover.progressions

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_threshold_below_one_is_a_value_error(self, threshold):
        pred = squares_predicate()
        for call in (
            lambda: survey(pred, [1000], FACTORIAL_LADDER, 1000, threshold),
            lambda: buck_upper_per_level(pred, FACTORIAL_LADDER, 1000, threshold),
            lambda: buck_measurability_check(pred, FACTORIAL_LADDER, 1000, threshold),
            lambda: residue_saturation(pred, 6, 1000, threshold),
        ):
            with pytest.raises(ValueError, match=f"threshold must be >= 1, got {threshold}"):
                call()
