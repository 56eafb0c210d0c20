"""Asymptotic density estimation and progression-cover (Buck) measure density.

Densities of subsets of the positive integers are approximated on finite
windows [1, N].  Asymptotic density is profiled along a grid of window
sizes with liminf/limsup diagnostics; the cover measure density is bounded
from above by explicit arithmetic-progression covers (certificates) and by
residue saturation along a divisibility ladder of moduli.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, DiagnosticError
from .primes import prime_mask

FACTORIAL_LADDER = (1, 2, 6, 24, 120, 720, 5040, 40320)
PRIMORIAL_LADDER = (1, 2, 6, 30, 210, 2310, 30030)

# default persistence threshold: a residue class counts as "infinitely hit"
# when the window shows at least this many hits
DEFAULT_THRESHOLD = 3
DEFAULT_GAP_TOLERANCE = 0.05
# residues are taken in int64, so no ladder modulus may pass it
MAX_MODULUS = 2**63 - 1
# inclusion-exclusion visits at most this many subset nodes
IE_TERM_LIMIT = 200_000
# class counts mod M sum the window mask down rows of the least multiple of M
# that is at least this many columns
FOLD_WIDTH = 2**16


def _crt_intersect(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Intersection of r1+(m1) and r2+(m2) as one progression, or None."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    lcm = m1 // g * m2
    step = m2 // g
    if step == 1:
        return r1 % lcm, lcm
    t = ((r2 - r1) // g * pow(m1 // g, -1, step)) % step
    return (r1 + m1 * t) % lcm, lcm


def _ints(values) -> np.ndarray:
    """values as an int64 array, or as an object array of Python ints when one passes int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


class APSet:
    """Finite union of arithmetic progressions r+(m) = {r, r+m, r+2m, ...}.

    The set stores one form, the read-only `arrays` (residues, moduli):
    normalized to 0 <= r < m, deduplicated and sorted by (r, m).  Their dtype
    is int64 when every modulus fits it, and object (Python ints) otherwise.
    A k x 2 signed-integer array is read as int64; any other input is read
    pair by pair through `operator.index`, so a non-integer raises TypeError.
    `progressions`, the same pairs as a tuple, is built when first read.
    `mask(N)` gives membership of n = 1..N, while `n in s` takes any integer.
    Instances are immutable.
    """

    def __init__(self, progressions: Iterable[tuple[int, int]] | np.ndarray):
        pairs = progressions
        if not (isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i"):
            pairs = [(operator.index(r), operator.index(m)) for r, m in pairs]
        r, m = _ints(pairs).reshape(-1, 2).T
        bad = np.flatnonzero((m < 1) | (r < 0))
        if bad.size:  # the first bad pair in input order, its modulus checked first
            i = bad[0]
            raise ValueError(f"modulus must be >= 1, got {int(m[i])}" if m[i] < 1
                             else f"residue must be >= 0, got {int(r[i])}")
        r = r % m
        order = np.lexsort((m, r))
        r, m = r[order], m[order]
        fresh = np.ones(r.size, dtype=bool)
        fresh[1:] = (r[1:] != r[:-1]) | (m[1:] != m[:-1])
        m = _ints(m[fresh])
        r = r[fresh].astype(m.dtype, copy=False)  # 0 <= r < m: r fits wherever m does
        r.flags.writeable = m.flags.writeable = False
        self.__dict__["arrays"] = (r, m)

    @cached_property
    def progressions(self) -> tuple[tuple[int, int], ...]:
        r, m = self.arrays
        return tuple(zip(r.tolist(), m.tolist()))

    def __len__(self) -> int:
        return self.arrays[0].size

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.progressions == other.progressions

    def __hash__(self) -> int:
        return hash(self.progressions)

    def __repr__(self) -> str:
        return f"APSet(progressions={self.progressions!r})"

    def _frozen(self, name, *value):
        raise AttributeError(f"APSet is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def single(cls, r: int, m: int) -> "APSet":
        return cls([(r, m)])

    def __contains__(self, n: int) -> bool:
        return any(n % m == r for r, m in self.progressions)

    def mask(self, N: int) -> np.ndarray:
        """Boolean membership array for n = 1..N."""
        out = np.zeros(N, dtype=bool)
        for r, m in self.progressions:
            start = r if r >= 1 else m
            if start <= N:
                out[start - 1 :: m] = True
        return out

    def intersects(self, other: "APSet") -> bool:
        return any(
            _crt_intersect(r1, m1, r2, m2) is not None
            for r1, m1 in self.progressions
            for r2, m2 in other.progressions
        )


def ap_union_density(s: APSet) -> Fraction:
    """Exact density of an APSet by inclusion-exclusion over lcm's.

    Empty intersections prune the subset lattice; IE_TERM_LIMIT bounds the
    number of visited subset nodes (CapacityError beyond it).
    """
    progs = s.progressions
    total = Fraction(0)
    visited = 0

    def descend(start: int, r: int, m: int, sign: int) -> None:
        nonlocal total, visited
        for j in range(start, len(progs)):
            visited += 1
            if visited > IE_TERM_LIMIT:
                raise CapacityError(f"inclusion-exclusion exceeded {IE_TERM_LIMIT} terms")
            merged = _crt_intersect(r, m, *progs[j])
            if merged is None:
                continue
            r2, m2 = merged
            total += Fraction(sign, m2)
            descend(j + 1, r2, m2, -sign)

    descend(0, 0, 1, 1)
    return total


class Predicate:
    """Membership predicate on positive integers, held as its window mask:
    `mask(N)` gives membership of n = 1..N, and `pred(n)` reads it at n.

    `max_n` restricts window-backed predicates to the data they carry.
    """

    def __init__(self, *, mask: Callable[[int], np.ndarray], name: str = "pred",
                 max_n: int | None = None):
        self._mask_fn = mask
        self.name = name
        self.max_n = max_n

    @classmethod
    def from_callable(cls, fn: Callable[[int], bool]) -> "Predicate":
        """The predicate of a plain n -> bool callable; its mask calls fn once per n."""
        return cls(mask=lambda N: np.fromiter(map(fn, range(1, N + 1)), dtype=bool, count=N))

    def __call__(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"predicates hold positive integers, got {n}")
        return bool(self.mask(n)[n - 1])

    def mask(self, N: int) -> np.ndarray:
        """Boolean membership array for n = 1..N; any other dtype is read by truth value."""
        self._require(N)
        out = np.asarray(self._mask_fn(N))
        if out.shape != (N,):
            raise ValueError(f"predicate {self.name!r} gave a mask of shape {out.shape} for N={N}")
        return out.astype(bool, copy=False)

    def _require(self, N: int) -> None:
        if self.max_n is not None and N > self.max_n:
            raise DiagnosticError(
                f"predicate {self.name!r} only defined up to n={self.max_n}, asked {N}"
            )

    def __repr__(self) -> str:
        return f"Predicate({self.name})"


def ap_predicate(s: APSet) -> Predicate:
    return Predicate(mask=s.mask, name=f"ap{list(s.progressions)}")


def squares_predicate() -> Predicate:
    def mask(N: int) -> np.ndarray:
        out = np.zeros(N, dtype=bool)
        ks = np.arange(1, isqrt(N) + 1)
        out[ks * ks - 1] = True
        return out

    return Predicate(mask=mask, name="squares")


def primes_predicate() -> Predicate:
    return Predicate(mask=lambda N: prime_mask(N)[1:], name="primes")


def blocks_predicate() -> Predicate:
    """The union of dyadic blocks [4^k, 2*4^k); a set with no asymptotic density."""

    def mask(N: int) -> np.ndarray:
        out = np.zeros(N, dtype=bool)
        lo = 1
        while lo <= N:
            out[lo - 1 : min(2 * lo, N + 1) - 1] = True
            lo *= 4
        return out

    return Predicate(mask=mask, name="blocks")


def window_level_set(w, lo: float = -np.inf, hi: float = np.inf) -> Predicate:
    """Predicate n -> v(n) in [lo, hi) for a sequence window (half-open)."""
    values = np.asarray(w.values, dtype=float)

    def mask(upto: int) -> np.ndarray:
        return (values[:upto] >= lo) & (values[:upto] < hi)

    return Predicate(mask=mask, name=f"level[{lo},{hi})", max_n=len(values))


def _as_predicate(pred) -> Predicate:
    """A Predicate as is; a plain callable through `Predicate.from_callable`."""
    return pred if isinstance(pred, Predicate) else Predicate.from_callable(pred)


def count_in_window(pred, N: int) -> int:
    """Exact count of n in [1, N] satisfying the predicate."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return int(_as_predicate(pred).mask(N).sum())


@dataclass
class DensityEstimate:
    """Window-profile estimate of an asymptotic density.

    `value` is None when the grid tail does not settle within the profile's
    tolerance; an oscillating set is reported that way on purpose.
    """

    value: float | None
    liminf_est: float
    limsup_est: float
    window_grid: tuple[int, ...]
    ratios: tuple[float, ...]


def _grid(grid: Sequence[int]) -> list[int]:
    grid = [int(N) for N in grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    return grid


def _profile(mask: np.ndarray, grid: list[int], tolerance: float) -> DensityEstimate:
    counts = np.cumsum([np.count_nonzero(mask[a:b]) for a, b in zip([0, *grid], grid)])
    ratios = tuple(int(c) / N for c, N in zip(counts, grid))
    tail = ratios[-max(1, len(ratios) // 3) :]
    lo, hi = min(tail), max(tail)
    value = (lo + hi) / 2 if hi - lo <= tolerance else None
    return DensityEstimate(value, lo, hi, tuple(grid), ratios)


def asymptotic_density_profile(
    pred, grid: Sequence[int], tolerance: float = 1e-3
) -> DensityEstimate:
    """Counting ratios |S cap [1,N]| / N along an increasing grid of N.

    liminf/limsup estimates come from the last third of the grid; the value
    is set only when they agree within `tolerance`.
    """
    grid = _grid(grid)
    return _profile(_as_predicate(pred).mask(grid[-1]), grid, tolerance)


def _fold(counts: np.ndarray, m: int) -> np.ndarray:
    """Counts per class mod m from counts per class mod a multiple of m.  `einsum` adds the
    rows of m columns in one pass; `sum(axis=0)` takes one step per row, slow for small m."""
    return counts if counts.size == m else np.einsum("ij->j", counts.reshape(-1, m))


def _class_counts(window: np.ndarray, start: int, M: int) -> np.ndarray:
    """Hits per class x mod M among x = start + 1, ..., N, where window[i] holds x = i + 1.

    The mask is summed in place down rows of W columns, W the least multiple of M that is at
    least FOLD_WIDTH, each row starting at a multiple of W, so that column j holds the x = j
    mod W.  The aligned body is one reshape, summed in the least dtype that holds its row
    count plus the one hit the ragged head and the one the tail may each add to a column;
    the fold to M widens to int64, so no array of W int64s is made."""
    N, W = window.size, -(-FOLD_WIDTH // M) * M
    body = min(N, -(-(start + 1) // W) * W - 1)  # index of the first multiple of W past start
    rows = (N - body) // W
    tail = body + rows * W
    sums = window[body:tail].reshape(rows, W).sum(axis=0, dtype=np.min_scalar_type(rows + 2))
    head = (start + 1) % W
    sums[head : head + body - start] += window[start:body]
    sums[: N - tail] += window[tail:]
    return sums.reshape(-1, M).sum(axis=0, dtype=np.int64)


def _scan(pred, ladder: Sequence[int], N: int, threshold: int,
          tolerance: float = DEFAULT_GAP_TOLERANCE, big_m: int | None = None, upto: int = 0):
    """(mask of [1, max(N, upto)], certificates if `big_m` is given, MeasurabilityReport)
    from the hits per class at each usable level m.

    The class counts come from the window mask itself (`_class_counts`), once per maximal
    usable level M, one that divides no other usable level, and once more for the counts
    past the recency cut 2N/3; a level m | M folds them.  The complement's count in class r
    is its size, N // m plus one if 1 <= r <= N % m (a level has m <= N), minus the set's.

    A straggler x lies in a class mod m that is not persistent.  By the Chinese remainder
    theorem its pair (x mod m, x mod big_m) is one residue z = x mod L, L = lcm(m, big_m), so
    the distinct pairs are the distinct straggler residues mod L: the hit classes mod L whose
    class mod m is not persistent when L <= N (the counts mod M when L = M, as on every
    divisibility ladder), else the straggler hits themselves.  The hits, and their residues
    mod M, are built only for the levels that read them: one with L > N, and one whose cover
    leaves hit classes mod m unheld, which `_verify_cover` checks hit by hit."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if max(ladder, default=1) > MAX_MODULUS:
        raise ValueError(f"ladder moduli must be at most 2**63 - 1, got {max(ladder)}")
    levels = tuple(m for m in ladder if N >= threshold * m)
    if not levels:
        raise DiagnosticError(f"window {N} cannot classify residues at any ladder level")
    mask = _as_predicate(pred).mask(max(N, upto))
    window = mask[:N]
    distinct = tuple(dict.fromkeys(levels))
    maximal = sorted(M for M in distinct if not any(q % M == 0 for q in distinct if q > M))
    source = {m: next(M for M in maximal if M % m == 0) for m in distinct}
    counted = {}  # M -> (counts mod M, counts mod M past the recency cut)
    hits, hits_mod = None, {}  # the hits and hits % M, built when a level first reads them

    def hit_classes(m):
        """(hits, x mod m of each hit x), the latter read off hits % M through the table
        r -> r mod m of the classes mod M, so one `%` runs per hit for each maximal level."""
        nonlocal hits
        if hits is None:
            hits = np.flatnonzero(window).astype(np.int64, copy=False) + 1
        M = source[m]
        if M not in hits_mod:
            hits_mod[M] = hits % M
        return hits, hits_mod[M] if m == M else np.tile(np.arange(m), M // m)[hits_mod[M]]

    sat_s, sat_c, cert = {}, {}, {}  # per distinct level
    for m in distinct:
        M = source[m]
        if M not in counted:
            counted[M] = (_class_counts(window, 0, M),
                          None if big_m is None else _class_counts(window, (2 * N) // 3, M))
        counts_M, recent_M = counted[M]
        counts = _fold(counts_M, m)
        sizes = np.full(m, N // m)
        sizes[1 : N % m + 1] += 1
        sat_s[m] = Fraction(int((counts >= threshold).sum()), m)
        sat_c[m] = Fraction(int((sizes - counts >= threshold).sum()), m)
        if big_m is None:
            continue
        persistent = (counts >= threshold) & (_fold(recent_M, m) > 0)
        hit = counts > 0
        z = np.zeros(0, dtype=np.int64)  # the distinct straggler residues mod L
        per_hit = None  # (hits, hits % m), when this level has read them
        if (hit & ~persistent).any():
            L = lcm(m, big_m)
            if L <= N:
                counts_L = counts_M if L == M else _class_counts(window, 0, L)
                z = np.flatnonzero((counts_L > 0) & np.tile(~persistent, L // m))
            else:
                xs, res = per_hit = hit_classes(m)
                z = xs[~persistent[res]]
        # a class of k distinct stragglers takes r+(m) when 1/m <= k/big_m, i.e. k*m >= big_m,
        # kept free of int64 products; else its k singletons mod big_m, one that two classes
        # share (m need not divide big_m) counted in both
        cls = z % m
        whole = np.bincount(cls, minlength=m) >= -(-big_m // m)
        lone = z[~whole[cls]] % big_m
        classes = np.flatnonzero(persistent | whole)
        cover = APSet(np.column_stack((np.concatenate((classes, lone)),
                                       np.repeat([m, big_m], (classes.size, lone.size)))))
        cost = Fraction(classes.size, m) + Fraction(lone.size, big_m)
        # a hit in a class the cover holds mod m is covered; the rest go to _verify_cover
        cover_r, cover_m = cover.arrays
        held = np.zeros(m, dtype=bool)
        held[cover_r[cover_m == m]] = True
        unheld = hit & ~held
        if unheld.any():
            xs, res = per_hit or hit_classes(m)
            sel = unheld[res]
            _verify_cover(cover, xs[sel], {m: res[sel]})
        cert[m] = CoverCertificate(cover, cost, N, m)
    up_s, up_c = (tuple(sat[m] for m in levels) for sat in (sat_s, sat_c))
    certs = [cert[m] for m in levels] if big_m is not None else []
    gaps = tuple(a + b - 1 for a, b in zip(up_s, up_c))
    return mask, certs, MeasurabilityReport(levels, up_s, up_c, gaps, tolerance)


def residue_saturation(
    pred, level_m: int, window_N: int, threshold: int = DEFAULT_THRESHOLD
) -> Fraction:
    """Fraction of residue classes mod level_m hit >= threshold times in the window.

    Approximates the measure of the closure at that level; weakly decreasing
    along any divisibility ladder by construction.
    """
    return _scan(pred, (level_m,), window_N, threshold)[2].upper_set[0]


@dataclass
class CoverCertificate:
    """An arithmetic-progression cover of S verified on [1, verified_upto].

    `cost` is the exact sum of reciprocal moduli; it upper-bounds the cover
    measure density of S insofar as the window classified residues correctly.
    """

    cover: APSet
    cost: Fraction
    verified_upto: int
    level: int


def buck_upper(
    pred,
    ladder: Sequence[int] = FACTORIAL_LADDER,
    window_N: int = 100_000,
    threshold: int = DEFAULT_THRESHOLD,
) -> CoverCertificate:
    """Cheapest progression-cover certificate found along the ladder.

    At each ladder modulus m, residue classes hit persistently (>= threshold
    hits, last hit in the final third of the window)
    enter the cover as r+(m).  The stragglers of each remaining class r are
    covered by r+(m) when 1/m <= k/big_m, with big_m = max(ladder) and k the
    number of distinct straggler residues x mod big_m in that class (a tie
    takes the class), and by the k progressions x+(big_m) otherwise.  The cost
    counts a singleton once for each class it serves, even when m does not
    divide big_m and two classes share it.
    """
    certs = buck_upper_per_level(pred, ladder, window_N, threshold)
    return min(certs, key=lambda c: c.cost)


def buck_upper_per_level(
    pred,
    ladder: Sequence[int] = FACTORIAL_LADDER,
    window_N: int = 100_000,
    threshold: int = DEFAULT_THRESHOLD,
) -> list[CoverCertificate]:
    """One certificate per usable ladder level (see `buck_upper`)."""
    return _scan(pred, ladder, window_N, threshold, big_m=max(ladder))[1]


def _verify_cover(cover: APSet, hits: np.ndarray,
                  residues: dict[int, np.ndarray] | None = None) -> None:
    """Raise DiagnosticError unless the cover's progressions hold every hit.

    `residues` may give `hits % q` for some moduli q, as the caller already
    holds them; a modulus of the cover that it lacks is reduced here.  The
    held classes come from the cover itself, so a residue table for a modulus
    the cover does not use is never read."""
    cover_r, cover_m = cover.arrays
    residues = residues or {}
    reach = int(hits.max(initial=0)) + 1  # classes past the largest hit hold nothing
    moduli = np.sort(cover_m)
    covered = np.zeros(hits.size, dtype=bool)
    for m in moduli[np.diff(moduli, prepend=0) > 0].tolist():
        held = np.zeros(min(m, reach), dtype=bool)
        r = cover_r[cover_m == m]
        held[r[r < held.size]] = True
        res = residues.get(m)
        covered |= held[hits % m if res is None else res]
    if not covered.all():
        raise DiagnosticError(f"cover misses window elements {hits[~covered][:5].tolist()}")


@dataclass
class MeasurabilityReport:
    """Saturation-based upper estimates for S and its complement per level.

    gap[i] = upper_set[i] + upper_complement[i] - 1; a set looks measurable
    when the gap at the deepest level falls within the tolerance.  The
    complement's count per class is the class size minus the set's count.
    """

    levels: tuple[int, ...]
    upper_set: tuple[Fraction, ...]
    upper_complement: tuple[Fraction, ...]
    gaps: tuple[Fraction, ...]
    tolerance: float

    @property
    def gap(self) -> Fraction:
        return self.gaps[-1]

    @property
    def measurable(self) -> bool:
        return float(self.gap) <= self.tolerance


def buck_measurability_check(
    pred,
    ladder: Sequence[int] = FACTORIAL_LADDER,
    window_N: int = 100_000,
    threshold: int = DEFAULT_THRESHOLD,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
) -> MeasurabilityReport:
    """Triage for measurability: saturation of S and of its complement per level;
    the complement's count per class is the class size minus the set's count."""
    return _scan(pred, ladder, window_N, threshold, tolerance)[2]


def survey(pred, grid: Sequence[int], ladder: Sequence[int] = FACTORIAL_LADDER,
           window: int = 100_000, threshold: int = DEFAULT_THRESHOLD, tolerance: float = 1e-3
           ) -> tuple[DensityEstimate, list[CoverCertificate], MeasurabilityReport]:
    """The results of `asymptotic_density_profile` (with `tolerance`), `buck_upper_per_level`
    and `buck_measurability_check` (default tolerance), from one mask and one residue pass
    per maximal level, whose class counts every level dividing it sums; it refuses as the
    first of those calls to refuse would."""
    grid = _grid(grid)
    _as_predicate(pred)._require(grid[-1])  # the profile refuses first
    mask, certs, meas = _scan(pred, ladder, window, threshold, big_m=max(ladder), upto=grid[-1])
    return _profile(mask, grid, tolerance), certs, meas
