"""Density, cover-certificate and saturation tests against enumeration oracles."""

import re
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import oracles
from measeq import density
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

    # a mask that is not one entry per n = 1..N would be folded as if it were
    @pytest.mark.parametrize("make, shape", [
        (lambda N: np.ones(10, dtype=bool), "(10,)"),
        (lambda N: np.ones(N + 1, dtype=bool), "(1001,)"),
        (lambda N: np.ones((N, 1), dtype=bool), "(1000, 1)"),
    ])
    def test_mask_of_another_shape_is_refused(self, make, shape):
        pred = Predicate(mask=make, name="odd")
        message = re.escape(f"predicate 'odd' gave a mask of shape {shape} for N=1000")
        for call in (lambda: buck_upper(pred, FACTORIAL_LADDER, 1000),
                     lambda: buck_measurability_check(pred, FACTORIAL_LADDER, 1000),
                     lambda: asymptotic_density_profile(pred, [100, 1000])):
            with pytest.raises(ValueError, match=message):
                call()

    def test_mask_of_another_dtype_is_read_by_truth_value(self):
        # classes 1 and 2 mod 3 hold the values 1 and 2, each one member
        ints = Predicate(mask=lambda N: np.arange(1, N + 1) % 3)
        bools = Predicate(mask=lambda N: np.arange(1, N + 1) % 3 > 0)
        assert count_in_window(ints, 3000) == 2000
        for call in (buck_upper_per_level, buck_measurability_check):
            assert call(ints, FACTORIAL_LADDER, 3000) == call(bools, FACTORIAL_LADDER, 3000)


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

    def test_term_limit_counts_subset_nodes(self, monkeypatch):
        # coprime moduli: all 2^4 - 1 nonempty subsets intersect, so 15 nodes
        s = APSet([(0, 2), (0, 3), (0, 5), (0, 7)])
        monkeypatch.setattr(density, "IE_TERM_LIMIT", 15)
        assert ap_union_density(s) == 1 - Fraction(1 * 2 * 4 * 6, 2 * 3 * 5 * 7)
        monkeypatch.setattr(density, "IE_TERM_LIMIT", 14)
        with pytest.raises(CapacityError, match="^inclusion-exclusion exceeded 14 terms$"):
            ap_union_density(s)


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
        pred = Predicate.from_callable(lambda n: n <= t)
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


def straggler_paths(mask, ladder, threshold):
    """How `_scan` finds the (class, singleton) pairs of each level that has stragglers:
    from the counts mod L = lcm(m, big_m) when L is its maximal level M or L <= N, from
    the hits when L > N; and "unheld" when a cover leaves a hit class mod m to be
    checked hit by hit.  Worked out from per-class counts of the hits."""
    N, big_m = mask.size, max(ladder)
    levels = {m for m in ladder if N >= threshold * m}
    maximal = [M for M in levels if not any(q > M and q % M == 0 for q in levels)]
    certs = oracles.buck_upper_per_level_oracle(mask_predicate(mask), ladder, N, threshold)
    hits = np.flatnonzero(mask) + 1
    paths = set()
    for cert in certs if levels else ():
        m = cert.level
        M = min(q for q in maximal if q % m == 0)
        res = hits % m
        persistent = (np.bincount(res, minlength=m) >= threshold) & (
            np.bincount(res[hits > (2 * N) // 3], minlength=m) > 0)
        if (~persistent[res]).any():
            L = lcm(m, big_m)
            paths.add("L == M" if L == M else "L <= N" if L <= N else "L > N")
        held = {r for r, q in cert.cover.progressions if q == m}
        if set(res.tolist()) - held:
            paths.add("unheld")
    return paths


def check_narrow_fold(mask, ladder, threshold, width):
    """With FOLD_WIDTH shrunk to `width`, so that windows of up to 3000 span many
    rows with ragged heads and tails, the measurability check and the per-level
    covers match their oracles."""
    pred, N = mask_predicate(mask), mask.size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "FOLD_WIDTH", width)
        got = (outcome(buck_upper_per_level, pred, ladder, N, threshold),
               outcome(buck_measurability_check, pred, ladder, N, threshold))
    want = (outcome(oracles.buck_upper_per_level_oracle, pred, ladder, N, threshold),
            outcome(oracles.buck_measurability_oracle, pred, ladder, N, threshold))
    assert got[1] == want[1]
    if got[1][0] == "raised":  # no usable level, which the per-level oracle does not check
        assert got[0] == got[1]
        return
    assert [(c.level, c.cover, c.cost) for c in got[0][1]] == [
        (c.level, c.cover, c.cost) for c in want[0][1]]


class TestStragglerGrouping:
    # stale hits 1, 8, 15 share singleton 1 mod 7 from classes 1, 2, 0 mod 3:
    # the cover holds 1+(7) once, the cost 3/7 counts it in each class
    # (L = 21 <= N at level 3, and its classes stay unheld)
    @example(mask=hits_at(60, 1, 8, 15), ladder=(3, 5, 7), threshold=1)
    # stale hits 1, 3, 5 at level 2 tie 1/2 against 3/6 and take the class (L = M = 6)
    @example(mask=hits_at(60, 1, 3, 5), ladder=(1, 2, 6), threshold=3)
    # big_m = 2**32 + 15 is past the window: L > N, each straggler its own residue
    @example(mask=hits_at(60, 1, 3, 5, 7, 8, 40), ladder=(1, 2, 6, 24, 2**32 + 15), threshold=1)
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

    @pytest.mark.parametrize("path", ["L == M", "L <= N", "L > N", "unheld"])
    def test_drawn_windows_reach_every_path(self, path):
        # find raises NoSuchExample if no draw takes the path
        find(st.tuples(hit_sets(), straggler_ladders, st.integers(1, 4)),
             lambda t: path in straggler_paths(*t),
             settings=settings(max_examples=2000, database=None))

    # a window of 3000 folds 1000 rows of W = 3 at level 3: the row sums need uint16
    @example(mask=hits_at(3000, *range(1, 2001, 3), 2999), ladder=(3, 5, 7), threshold=4,
             width=1)
    # 769 = 2 + 255 * 3 + 2: a column of 255 full rows also takes a head and a tail hit
    @example(mask=np.ones(769, dtype=bool), ladder=(3, 5, 7), threshold=4, width=1)
    @given(window_masks, straggler_ladders, st.integers(1, 4), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_narrow_fold_matches_oracles(self, mask, ladder, threshold, width):
        check_narrow_fold(mask, ladder, threshold, width)


class TestScanMemory:
    # 14 progressions with moduli dividing 8!, as in the benchmark's AP unions; and
    # blocks, whose last block ends before 2N/3, so every class is a straggler
    @pytest.mark.parametrize("pred, bound", [
        (ap_predicate(APSet([(r % m, m) for r, m in zip(
            range(1, 29, 2), (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 20))])), 6),
        (blocks_predicate(), 8),
    ])
    def test_peak_per_window_element(self, pred, bound):
        N = 10**6
        buck_upper_per_level(pred, FACTORIAL_LADDER, 10**4)  # first-call imports
        tracemalloc.start()
        try:
            buck_upper_per_level(pred, FACTORIAL_LADDER, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the mask, its class counts and the covers; no array of one int64 per hit
        assert peak <= bound * N


# moduli small enough to hit often, and big_m-sized ones that hold a hit or two
covers = st.lists(
    st.sampled_from([*range(1, 13), 24, 35, 720, 2**32 + 15, 2**61 - 1]).flatmap(
        lambda m: st.tuples(st.integers(0, min(m - 1, 3000)), st.just(m))
    ),
    max_size=6,
).map(APSet)


# residues and moduli on both sides of the valid range and of every int64 edge
apset_pairs = st.lists(
    st.tuples(st.one_of(st.integers(-2, 60), st.integers(-2, 2**71)),
              st.sampled_from([*range(-1, 13), 30, 40320, 2**61 - 1, 2**63 - 1, 2**63,
                               2**64 + 1, 2**70])),
    max_size=12,
)


def construction(build, pairs):
    """The progressions a build gives, or the text of its ValueError."""
    try:
        return "returned", build(pairs)
    except ValueError as e:
        return "raised", str(e)


def check_apset_construction(pairs, other, N):
    """APSet(pairs) holds the oracle's progressions in its arrays, of one dtype; when
    the pairs fit int64, their int64 array builds the same set."""
    want = construction(oracles.apset_oracle, pairs)
    assert construction(lambda p: APSet(p).progressions, pairs) == want
    fits = all(-(2**63) <= v < 2**63 for pair in pairs for v in pair)
    if fits:
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert construction(lambda p: APSet(p).progressions, array) == want
    if want[0] == "raised":
        return
    progs = want[1]
    s = APSet(pairs)
    r, m = s.arrays
    assert not (r.flags.writeable or m.flags.writeable)
    assert r.dtype == m.dtype == (np.int64 if all(q < 2**63 for _, q in progs) else object)
    assert tuple(zip(r.tolist(), m.tolist())) == progs and len(s) == len(progs)
    ns = range(-N, N + 1)
    assert [n in s for n in ns] == [any(n % q == a for a, q in progs) for n in ns]
    assert s.mask(N).tolist() == [n in s for n in range(1, N + 1)]
    meets = any((b - a) % gcd(q, p) == 0 for a, q in progs for b, p in other.progressions)
    assert s.intersects(other) == other.intersects(s) == meets
    if fits:
        by_array = APSet(array)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(by_array.arrays, s.arrays))
        assert by_array == s and s == by_array
        assert hash(by_array) == hash(s) and len(by_array) == len(s)
        assert np.array_equal(by_array.mask(N), s.mask(N))
        assert [n in by_array for n in ns] == [n in s for n in ns]
        assert by_array.intersects(other) == s.intersects(other)
        assert other.intersects(by_array) == other.intersects(s)


class TestAPSetConstruction:
    @example(pairs=[(5, 2**61 - 1), (2**61, 2**61 - 1), (0, 3), (3, 3)], other=APSet([(2, 3)]),
             N=40)
    @example(pairs=[(1, 2), (-1, 0)], other=APSet([(0, 1)]), N=5)
    @example(pairs=[(2**70 + 3, 3), (-2, 2**63 - 1)], other=APSet([(0, 1)]), N=5)
    @example(pairs=[(2**70 + 3, 3), (2**63 + 1, 2**63 - 1)], other=APSet([(2, 3)]), N=9)
    @example(pairs=[(0, 2**63), (2**70 + 3, 3), (2**63, 2**63 - 1), (1, 2**70)],
             other=APSet([(1, 2)]), N=20)
    @given(apset_pairs, aps, st.integers(1, 200))
    @settings(max_examples=300)
    def test_matches_oracle(self, pairs, other, N):
        check_apset_construction(pairs, other, N)

    @pytest.mark.parametrize("pairs", [[(1.5, 2)], np.array([[1.5, 2]]), [("a", 2)]],
                             ids=["float pair", "float array", "str residue"])
    def test_non_integer_is_refused(self, pairs):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            APSet(pairs)

    @pytest.mark.parametrize("array", [np.array([[1, 2, 3], [4, 5, 6]]), np.array([1, 2, 3, 4])],
                             ids=["2 x 3", "flat"])
    def test_array_not_k_by_2_is_refused(self, array):
        with pytest.raises(ValueError, match=r"^need a k x 2 array of \(r, m\) pairs, got shape"):
            APSet(array)

    def test_modulus_past_int64_reads_back(self):
        r, m = APSet([(0, 2**63)]).arrays
        assert r.dtype == m.dtype == object
        assert (r.tolist(), m.tolist()) == ([0], [2**63])

    def test_small_integer_array_is_read_as_int64(self):
        r, m = APSet(np.array([[3, 2]], dtype=np.int8)).arrays
        assert r.dtype == m.dtype == np.int64
        assert (r.tolist(), m.tolist()) == ([1], [2])


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
