"""Asymptotic density estimation and progression-cover (Buck) measure density.

Densities of subsets of the positive integers are approximated on finite
windows [1, N].  Asymptotic density is profiled along a grid of window
sizes with liminf/limsup diagnostics; the cover measure density is bounded
from above by explicit arithmetic-progression covers (certificates) and by
residue saturation along a divisibility ladder of moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _check_pair(r: int, m: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if r < 0:
        raise ValueError(f"residue must be >= 0, got {r}")


class APSet:
    """Finite union of arithmetic progressions r+(m) = {r, r+m, r+2m, ...}.

    Pairs are normalized to 0 <= r < m, deduplicated and sorted by (r, m).
    Membership is evaluated on positive integers only.  Built from pairs, the
    set stores the `progressions` tuple, whose ints may pass int64; built from
    a k x 2 integer array, it stores the normalized read-only int64 `arrays`
    (residues, moduli) and builds `progressions` when that is first read.
    Either form is derived from the other on demand; instances are immutable.
    """

    def __init__(self, progressions: Iterable[tuple[int, int]] | np.ndarray):
        if isinstance(progressions, np.ndarray):  # k x 2 integer array: the same steps, in bulk
            r, m = progressions.reshape(-1, 2).T
            bad = np.flatnonzero((m < 1) | (r < 0))
            if bad.size:
                _check_pair(int(r[bad[0]]), int(m[bad[0]]))
            r = r % m
            order = np.lexsort((m, r))
            r, m = r[order], m[order]
            fresh = np.ones(r.size, dtype=bool)
            fresh[1:] = (r[1:] != r[:-1]) | (m[1:] != m[:-1])
            self.__dict__["arrays"] = _read_only(r[fresh], m[fresh])
            return
        pairs = set()
        for r, m in progressions:
            _check_pair(r, m)
            pairs.add((r % m, m))
        self.__dict__["progressions"] = tuple(sorted(pairs))

    @cached_property
    def progressions(self) -> tuple[tuple[int, int], ...]:
        r, m = self.arrays
        return tuple(zip(r.tolist(), m.tolist()))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(residues, moduli) as int64 arrays in the order of `progressions`."""
        flat = chain.from_iterable(self.progressions)
        return _read_only(*np.fromiter(flat, np.int64, 2 * len(self.progressions)).reshape(-1, 2).T)

    def __len__(self) -> int:
        """The number of progressions, read from whichever form is stored."""
        pairs = self.__dict__.get("progressions")
        return len(pairs) if pairs is not None else self.arrays[0].size

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


def ap_union_density(s: APSet, term_limit: int = 200_000) -> Fraction:
    """Exact density of an APSet by inclusion-exclusion over lcm's.

    Empty intersections prune the subset lattice; `term_limit` bounds the
    number of visited subset nodes (CapacityError beyond it).
    """
    progs = s.progressions
    total = Fraction(0)
    visited = 0

    def descend(start: int, r: int, m: int, sign: int) -> None:
        nonlocal total, visited
        for j in range(start, len(progs)):
            visited += 1
            if visited > term_limit:
                raise CapacityError(
                    f"inclusion-exclusion exceeded {term_limit} terms"
                )
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
    def from_callable(cls, fn: Callable[[int], bool], name: str = "pred") -> "Predicate":
        """The predicate of a plain n -> bool callable; its mask calls fn once per n."""
        return cls(mask=lambda N: np.fromiter(map(fn, range(1, N + 1)), dtype=bool, count=N),
                   name=name)

    def __call__(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"predicates hold positive integers, got {n}")
        return bool(self.mask(n)[n - 1])

    def mask(self, N: int) -> np.ndarray:
        """Boolean membership array for n = 1..N."""
        self._require(N)
        return self._mask_fn(N)

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

    `value` is None when the grid tail does not settle within `tolerance`;
    an oscillating set is reported that way on purpose.
    """

    value: float | None
    liminf_est: float
    limsup_est: float
    window_grid: tuple[int, ...]
    ratios: tuple[float, ...]
    tolerance: float


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
    return DensityEstimate(value, lo, hi, tuple(grid), ratios, tolerance)


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
    """Counts per class mod m from counts per class mod a multiple of m."""
    return counts if counts.size == m else counts.reshape(-1, m).sum(axis=0)


def _classes(res: np.ndarray, M: int, m: int) -> np.ndarray:
    """x mod m for each x mod M in `res`, m | M, through a table instead of `%`."""
    return res if m == M else (np.arange(M) % m)[res]


def _scan(pred, ladder: Sequence[int], N: int, threshold: int,
          tolerance: float = DEFAULT_GAP_TOLERANCE, big_m: int | None = None, upto: int = 0):
    """(mask of [1, max(N, upto)], certificates if `big_m` is given, MeasurabilityReport)
    from the hits per class at each usable level m.  The hits are reduced once per maximal
    usable level M, one that divides no other usable level; a level m | M sums the class
    counts of M, and reads the hits again, through the table x mod M -> x mod m, only when
    it has stragglers or its cover leaves a hit class out.  The complement's count in class
    r is its size, N // m if r = 0 else (N - r) // m + 1 (0 if r > N), minus the set's count."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if max(ladder, default=1) > MAX_MODULUS:
        raise ValueError(f"ladder moduli must be at most 2**63 - 1, got {max(ladder)}")
    levels = tuple(m for m in ladder if N >= threshold * m)
    if not levels:
        raise DiagnosticError(f"window {N} cannot classify residues at any ladder level")
    mask = _as_predicate(pred).mask(max(N, upto))
    hits = np.flatnonzero(mask[:N]).astype(np.int64, copy=False) + 1
    # hits[recent_from:] lie past the recency cut 2N/3
    recent_from = np.searchsorted(hits, (2 * N) // 3, side="right")
    distinct = tuple(dict.fromkeys(levels))
    maximal = sorted(M for M in distinct if not any(q % M == 0 for q in distinct if q > M))
    source = {m: next(M for M in maximal if M % m == 0) for m in distinct}
    last_use = {source[m]: m for m in distinct}
    passes = {}  # M -> (hits % M, counts mod M, recent counts mod M), dropped after last use
    hb = None  # hits % big_m, taken at the first level that has stragglers
    sat_s, sat_c, cert = {}, {}, {}  # per distinct level
    for m in distinct:
        M = source[m]
        if M not in passes:
            res_M = hits % M
            passes[M] = (res_M, np.bincount(res_M, minlength=M),
                         None if big_m is None else np.bincount(res_M[recent_from:], minlength=M))
        res_M, counts_M, recent_M = passes.pop(M) if last_use[M] == m else passes[M]
        counts = _fold(counts_M, m)
        sizes = (N - np.arange(m)) // m + (np.arange(m) > 0)
        sat_s[m] = Fraction(int((counts >= threshold).sum()), m)
        sat_c[m] = Fraction(int((sizes - counts >= threshold).sum()), m)
        if big_m is None:
            continue
        persistent = (counts >= threshold) & (_fold(recent_M, m) > 0)
        hit = counts > 0
        residues = [np.flatnonzero(persistent)]
        moduli = [np.full(residues[0].size, m, dtype=np.int64)]
        cost = Fraction(residues[0].size, m)
        res = None  # hits % m, taken only when needed
        # stragglers grouped by class: class progression vs singletons, cheaper wins
        if (hit & ~persistent).any():
            res = _classes(res_M, M, m)
            strag = ~persistent[res]
            # distinct (class, singleton) pairs in class order; a singleton that
            # two classes share (m need not divide big_m) counts in both
            if hb is None:
                hb = res_M if M == big_m else hits % big_m
            cls, single = res[strag], hb[strag]
            order = np.lexsort((single, cls))
            cls, single = cls[order], single[order]
            fresh = np.ones(cls.size, dtype=bool)
            fresh[1:] = (cls[1:] != cls[:-1]) | (single[1:] != single[:-1])
            classes, k = np.unique(cls[fresh], return_counts=True)
            # 1/m <= k/big_m, i.e. k*m >= big_m, kept free of int64 products
            whole = k >= -(-big_m // m)
            residues += [classes[whole], single[fresh][np.repeat(~whole, k)]]
            moduli += [np.full(residues[-2].size, m, dtype=np.int64),
                       np.full(residues[-1].size, big_m, dtype=np.int64)]
            cost += Fraction(int(whole.sum()), m) + Fraction(int(k[~whole].sum()), big_m)
        cover = APSet(np.column_stack((np.concatenate(residues), np.concatenate(moduli))))
        # a hit in a class the cover holds mod m is covered; the rest go to _verify_cover
        cover_r, cover_m = cover.arrays
        held = np.zeros(m, dtype=bool)
        held[cover_r[cover_m == m]] = True
        unheld = hit & ~held
        if unheld.any():
            if res is None:
                res = _classes(res_M, M, m)
            sel = unheld[res]
            tables = {m: res[sel]} if hb is None else {big_m: hb[sel], m: res[sel]}
            _verify_cover(cover, hits[sel], tables)
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
