"""Empirical distribution functions and window statistics.

The step distribution of a window uses the strict convention F(x) = (mass of
values < x), so F is a left-continuous nondecreasing step function with unit
total mass.  All statistics are finite-window estimates; asymptotic claims
are surfaced through stability diagnostics, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isfinite, isnan
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateWindowError,
    DomainError,
    WindowRangeError,
)
from .seqgen import SequenceWindow, apply_values


@dataclass(frozen=True, eq=False)
class EDF:
    """Step distribution: breakpoints x_1 < ... < x_J with cumulative masses.

    cum[j] is the total mass at breakpoints up to and including x_j, so
    F(x) = cum[#breakpoints < x] with F(x) = 0 left of x_1.  `padded` is cum
    behind a leading 0, so a searchsorted index reads F directly.

    A float breakpoint array that owns its data and is read-only is kept as
    it is, not copied, and so is a read-only cum that is the view [1:] of
    such an array led by +0.0, which becomes `padded`: whoever built them
    hands them over and must not make them writable again.  Any other
    breakpoints and cum are copied.
    """

    breakpoints: np.ndarray
    cum: np.ndarray

    def __init__(self, breakpoints, cum):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.flags.writeable or not bp.flags.owndata:
            bp = bp.copy()
        cm = np.asarray(cum, dtype=float)
        if bp.ndim != 1 or bp.size < 1 or bp.size != cm.size:
            raise ValueError("breakpoints and cum must be equal-length 1-d arrays")
        # for floats the same tests as np.diff(bp) > 0 and np.diff(cm) < 0, without the diffs
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if (cm[1:] < cm[:-1]).any() or not abs(cm[-1] - 1.0) <= 1e-9:
            raise ValueError("cum must be nondecreasing with final mass 1")
        padded = cm.base
        # equal interfaces: the same data, dtype, shape and strides, both read-only
        if not (
            isinstance(padded, np.ndarray) and padded.ndim == 1 and padded.flags.owndata
            and not padded.flags.writeable
            and padded[1:].__array_interface__ == cm.__array_interface__
            and padded[:1].tobytes() == bytes(8)
        ):
            padded = np.concatenate(([0.0], cm))
        bp.setflags(write=False)
        padded.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "cum", padded[1:])
        object.__setattr__(self, "padded", padded)

    @classmethod
    def from_values(cls, values) -> "EDF":
        vals = np.asarray(values, dtype=float)
        bp, counts = np.unique(vals, return_counts=True)
        bp.setflags(write=False)
        return cls(bp, np.cumsum(counts) / vals.size)

    @classmethod
    def point_mass(cls, x: float) -> "EDF":
        return cls(np.array([float(x)]), np.array([1.0]))

    @property
    def jumps(self) -> np.ndarray:
        return np.diff(self.padded)

    def __call__(self, x) -> float | np.ndarray:
        """Mass strictly below x."""
        out = self.padded[np.searchsorted(self.breakpoints, x, side="left")]
        return float(out) if np.isscalar(x) else out

    def mass_upto(self, x) -> float | np.ndarray:
        """Mass at or below x (the right limit F(x+))."""
        out = self.padded[np.searchsorted(self.breakpoints, x, side="right")]
        return float(out) if np.isscalar(x) else out

    def mean(self) -> float:
        """Mass-weighted mean of the atoms; atoms at +inf and at -inf have none
        (DomainError)."""
        lo, hi = self.breakpoints[[0, -1]].tolist()
        if isnan(lo + hi):
            raise DomainError("atoms at +inf and at -inf have no mean")
        terms = self.jumps
        terms *= self.breakpoints
        return float(np.sum(terms))


def edf(w: SequenceWindow) -> EDF:
    """Empirical step distribution of the window, F(x) = #{n : v(n) < x} / N."""
    return EDF.from_values(w.values)


def uniform_edf(n: int) -> EDF:
    """The n-point grid distribution with atoms at i/n, i = 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bp = np.arange(n) / n
    bp.setflags(write=False)
    return EDF(bp, np.arange(1, n + 1) / n)


@dataclass
class MomentSummary:
    """Window mean and dispersion with a half-window stability diagnostic."""

    mean: float
    dispersion: float
    n_used: int
    stability_gap: float


def _finite_bounds(w: SequenceWindow, which: str = "") -> None:
    """Refuse a window whose bounds, and so perhaps its values, are not finite."""
    lo, hi = w.bounds
    if not (np.isfinite(lo) and np.isfinite(hi)):
        name = f"window {which!r}" if which else "window"
        raise DomainError(f"{name} bounds [{lo:g}, {hi:g}] are not finite: no moments")


def moments(w: SequenceWindow) -> MomentSummary:
    """Mean, dispersion and half-window stability; a window with infinite
    bounds, or whose sums overflow, has none of them (DomainError)."""
    _finite_bounds(w)
    vals = w.values
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(vals.mean())
        d2 = float(np.mean((vals - m) ** 2))
        gap = abs(m - float(vals[: max(1, len(vals) // 2)].mean()))
    if not (isfinite(m) and isfinite(d2) and isfinite(gap)):
        raise DomainError("sums of window values overflow: no moments")
    return MomentSummary(m, d2, len(vals), gap)


def linearity_check(v: SequenceWindow, w: SequenceWindow, a: float, b: float) -> float:
    """|E_N(a v + b w) - a E_N(v) - b E_N(w)|; zero up to float roundoff."""
    if len(v) != len(w):
        raise WindowRangeError(f"length mismatch: {len(v)} vs {len(w)}")
    lhs = float(np.mean(a * v.values + b * w.values))
    return abs(lhs - (a * float(v.values.mean()) + b * float(w.values.mean())))


def stieltjes_mean(F: EDF, g: Callable[[float], float]) -> float:
    """Exact Stieltjes integral of g against the step distribution."""
    return float(np.sum(apply_values(g, F.breakpoints) * F.jumps))


class Correlation(NamedTuple):
    rho: float
    alpha: float
    beta: float


def correlation(v: SequenceWindow, w: SequenceWindow) -> Correlation:
    """Window correlation coefficient plus the regression line w ~ alpha v + beta.

    rho carries the absolute-value numerator; the signed slope alpha keeps the
    direction, so anticorrelated pairs show rho = 1 with alpha < 0.  A window
    with infinite bounds has no moments, and windows whose sums overflow have
    no correlation (both DomainError).
    """
    if len(v) != len(w):
        raise WindowRangeError(f"length mismatch: {len(v)} vs {len(w)}")
    _finite_bounds(v, "v")
    _finite_bounds(w, "w")
    with np.errstate(all="ignore"):
        ev, ew = float(v.values.mean()), float(w.values.mean())
        dv = v.values - ev
        dw = w.values - ew
        d2v = float(np.mean(dv * dv))
        d2w = float(np.mean(dw * dw))
        if d2v == 0.0:
            raise DegenerateWindowError("v")
        if d2w == 0.0:
            raise DegenerateWindowError("w")
        cov = float(np.mean(dv * dw))
        rho = float(abs(cov) / (np.sqrt(d2v) * np.sqrt(d2w)))
        alpha = cov / d2v
        beta = ew - alpha * ev
    if not all(map(isfinite, (d2v, d2w, cov, rho, alpha, beta))):
        raise DomainError("sums of window values overflow: no correlation")
    return Correlation(rho, alpha, beta)


def chebyshev_check(w: SequenceWindow, eps: float) -> tuple[float, float]:
    """(observed tail fraction, dispersion bound) for deviations > eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = moments(w)
    lhs = float(np.mean(np.abs(w.values - s.mean) > eps))
    return lhs, s.dispersion / eps**2


def _ramp(c: float) -> Callable:
    """0 below c, rising linearly to 1 at c + 0.1."""

    def g(x):
        return np.clip((np.asarray(x, dtype=float) - c) / 0.1, 0.0, 1.0)

    return g


# versioned default family so reported statistics are reproducible; tuned to
# unit-interval windows (monomials plus piecewise-linear ramps)
TEST_FAMILY_VERSION = "monomials+ramps/v1"
DEFAULT_TEST_FAMILY: tuple[tuple[str, Callable], ...] = (
    ("x", lambda x: np.asarray(x, dtype=float)),
    ("x^2", lambda x: np.asarray(x, dtype=float) ** 2),
    ("x^3", lambda x: np.asarray(x, dtype=float) ** 3),
    ("ramp@0.25", _ramp(0.25)),
    ("ramp@0.50", _ramp(0.50)),
    ("ramp@0.75", _ramp(0.75)),
)


@dataclass
class IndependenceReport:
    """Max deviation over a family of product tests, with the full table."""

    statistic: float
    family: str
    verdict_threshold: float
    table: tuple[tuple[str, str, float], ...]

    @property
    def passed(self) -> bool:
        return self.statistic <= self.verdict_threshold


def statistical_independence_stat(
    v: SequenceWindow,
    w: SequenceWindow,
    family: Sequence[tuple[str, Callable]] | None = None,
    verdict_threshold: float = 0.02,
) -> IndependenceReport:
    """Max over (g, g1) pairs of |E_N(g(v)) E_N(g1(w)) - E_N(g(v) g1(w))|."""
    if len(v) != len(w):
        raise WindowRangeError(f"length mismatch: {len(v)} vs {len(w)}")
    fam = tuple(family) if family is not None else DEFAULT_TEST_FAMILY
    label = TEST_FAMILY_VERSION if family is None else f"custom[{len(fam)}]"
    gv = [(name, apply_values(g, v.values)) for name, g in fam]
    g1w = [(name, apply_values(g, w.values)) for name, g in fam]
    means_w = [float(b.mean()) for _, b in g1w]
    table = []
    for name_g, a in gv:
        ea = float(a.mean())
        for (name_g1, b), eb in zip(g1w, means_w):
            dev = abs(ea * eb - float(np.mean(a * b)))
            table.append((name_g, name_g1, dev))
    stat = max(dev for _, _, dev in table)
    return IndependenceReport(stat, label, verdict_threshold, tuple(table))


def unit_interval_grid(k: int = 10) -> tuple[tuple[float, float], ...]:
    """k >= 1 equal half-open cells covering [0, 1)."""
    if k < 1:
        raise ValueError(f"need at least one cell, got {k}")
    return tuple((i / k, (i + 1) / k) for i in range(k))


def _default_grid(w: SequenceWindow) -> tuple[tuple[float, float], ...]:
    """The 10 cells `interval_independence_stat` uses when given no grid."""
    lo, hi = w.bounds
    if 0.0 <= lo and hi <= 1.0 and float(w.values.max()) < 1.0:
        return unit_interval_grid(10)
    span = hi - lo or 1.0
    top = hi + 1e-9 * span
    if not np.isfinite(top - lo):
        raise DomainError(f"window bounds [{lo:g}, {hi:g}] give no finite default cells")
    return tuple((lo + i * (top - lo) / 10, lo + (i + 1) * (top - lo) / 10) for i in range(10))


def cell_index(values: np.ndarray, cells: Sequence[tuple[float, float]]) -> np.ndarray:
    """Index of the half-open cell [lo, hi) holding each value, len(cells) if none does,
    in the narrowest unsigned dtype that holds len(cells) (uint8 up to 255 cells).

    Cells must be pairwise disjoint (ValueError otherwise); an empty cell
    (lo >= hi) holds nothing.  Membership uses the float comparisons
    lo <= x < hi, so values on an edge belong to the cell they start.  No
    edge lies inside a stretch between consecutive distinct edges, so the
    cell holding a stretch's left end holds all of it; a value's stretch is
    the number of edges e with x >= e (none for NaN).
    """
    bounds = np.array(cells, dtype=float).reshape(-1, 2)
    live = np.flatnonzero(bounds[:, 0] < bounds[:, 1])
    live = live[np.argsort(bounds[live, 0], kind="stable")]
    lo, hi = bounds[live, 0], bounds[live, 1]
    if (hi[:-1] > lo[1:]).any():
        raise ValueError("cells overlap; they must be disjoint half-open intervals")
    edges = np.array(sorted(set(bounds[live].ravel().tolist())))
    # the last cell starting at or below an edge holds it if the edge lies below its end
    pos = np.searchsorted(lo, edges, side="right") - 1
    held = np.where(edges < hi[pos], live[pos], len(bounds))
    label = np.concatenate(([len(bounds)], held)).astype(np.min_scalar_type(len(bounds)))
    stretch = np.zeros(values.shape, dtype=np.min_scalar_type(edges.size))
    above = np.empty(values.shape, dtype=bool)
    for e in edges.tolist():
        stretch += np.greater_equal(values, e, out=above)
    return label.take(stretch)


def table_deviations(counts: np.ndarray, n: int) -> np.ndarray:
    """|counts/n - fv fw| over the cells of (kv+1) x (kw+1) count tables, or of
    a stack of them: fv and fw are the row and column frequencies, and the
    last row and column count the values in no cell."""
    fv = counts.sum(axis=-1)[..., :-1] / n
    fw = counts.sum(axis=-2)[..., :-1] / n
    return np.abs(counts[..., :-1, :-1] / n - fv[..., :, None] * fw[..., None, :])


def interval_independence_stat(
    v: SequenceWindow,
    w: SequenceWindow,
    grid: tuple[Sequence[tuple[float, float]], Sequence[tuple[float, float]]] | None = None,
    verdict_threshold: float = 0.02,
) -> IndependenceReport:
    """Max over interval pairs (I, I1) of |freq(v in I, w in I1) - freq(v in I) freq(w in I1)|.

    Each grid is a sequence of pairwise disjoint half-open cells [lo, hi);
    overlapping cells raise ValueError.  The default grid of a window is
    `unit_interval_grid(10)` if it lies in [0, 1), else 10 equal cells over its
    bounds with the top edge raised by 1e-9 of the span; a window holding
    +-inf has no default grid (DomainError), only explicit cells.
    """
    if len(v) != len(w):
        raise WindowRangeError(f"length mismatch: {len(v)} vs {len(w)}")
    if grid is None:
        grid_v, grid_w = _default_grid(v), _default_grid(w)
    else:
        grid_v, grid_w = grid
    kv, kw = len(grid_v) + 1, len(grid_w) + 1
    codes = cell_index(v.values, grid_v).astype(np.intp) * kw + cell_index(w.values, grid_w)
    counts = np.bincount(codes, minlength=kv * kw).reshape(kv, kw)
    dev = table_deviations(counts, len(v)).ravel().tolist()
    table = tuple(
        (f"[{iv[0]:g},{iv[1]:g})", f"[{iw[0]:g},{iw[1]:g})", d)
        for (iv, iw), d in zip(product(grid_v, grid_w), dev)
    )
    return IndependenceReport(
        max(dev), f"intervals {len(grid_v)}x{len(grid_w)}", verdict_threshold, table
    )


def region_density(
    seqs: Sequence[SequenceWindow],
    region: Sequence[Sequence[tuple[float, float]]],
) -> float:
    """Frequency of n with (v_1(n), ..., v_k(n)) inside a union of closed boxes.

    Each box is one (lo, hi) pair per coordinate.
    """
    if not seqs:
        raise ValueError("need at least one window")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise WindowRangeError("windows must share a common length")
    inside = np.zeros(n, dtype=bool)
    for box in region:
        if len(box) != len(seqs):
            raise ValueError(f"box has {len(box)} sides for {len(seqs)} windows")
        m = np.ones(n, dtype=bool)
        for (lo, hi), s in zip(box, seqs):
            m &= (s.values >= lo) & (s.values <= hi)
        inside |= m
    return float(inside.mean())


MAX_ATOMS = 4_000_000  # largest atom product (pairs) that convolve_edf takes
# pairs per row block of the few-distinct path, and per chunk of the all-pairs path
_CONV_BLOCK = 1 << 16
# largest distinct share of the first block that takes the few-distinct path.
# Timed on random vdc pairs at n = 1000-2000: every pair with a share of 0.27
# to 0.94 ran faster there, and every pair with share 1.0 and over a fifth of
# all its sums distinct ran faster on the all-pairs path.  The catalogue's
# mixed-base pairs at 0.46-0.48 take 80 ms there against 128 on all pairs.
_CONV_FEW = 0.5
_BUCKET_ATOMS = 16  # most atoms in one bucket before the few-distinct path ranks by binary search


def _finite_ends(bp: np.ndarray) -> list[float]:
    """[smallest, largest] finite breakpoint, or [] when there is none."""
    fin = bp[np.isfinite(bp)]
    return fin[[0, -1]].tolist() if fin.size else []


def _starts(sums: np.ndarray) -> np.ndarray:
    """new[k]: sorted sum k is the first of its value, so it starts an atom."""
    new = np.empty(sums.size, dtype=bool)
    new[0] = True
    np.not_equal(sums[1:], sums[:-1], out=new[1:])
    return new


def _ranker(bp: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function giving the index in the atoms `bp` of each of an array of atoms.

    The bucket of v is f(v) = int(clip((v - lo) * scale, 0, size)) over the
    finite atoms [lo, hi], with size = 2 * bp.size buckets.  f is monotone in
    v, so the atoms of bucket b are those from table[b], the first atom with
    f >= b, to table[b + 1]; each value starts at its bucket's first atom and
    steps past the smaller ones of its bucket, at most (widest bucket - 1)
    steps.  It is np.searchsorted, which gives the same index, when lo = hi,
    when size / (hi - lo) is not a positive finite float (hi - lo overflows,
    or is so small that the quotient does), or when a bucket holds more than
    `_BUCKET_ATOMS` atoms.
    """
    lo, hi = _finite_ends(bp) or (0.0, 0.0)
    size = 2 * bp.size
    scale = size / (hi - lo) if hi > lo else 0.0
    if not 0.0 < scale < np.inf:
        return bp.searchsorted

    def bucket(v):
        b = np.subtract(v, lo)
        b *= scale
        np.clip(b, 0, size, out=b)
        return b.astype(np.intp)

    shifted = bucket(bp)
    shifted += 1
    table = np.bincount(shifted, minlength=size + 2)  # table[b + 1]: the atoms of bucket b
    del shifted
    wide = int(table.max())
    if wide > _BUCKET_ATOMS:
        return bp.searchsorted
    np.cumsum(table, out=table)

    def rank(sums):
        at = table.take(bucket(sums))
        for _ in range(wide - 1):
            at += bp.take(at) < sums
        return at

    return rank


def _all_pairs(x, y, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of the float sums of all pairs at once, and their masses behind a 0.

    One stable argsort of the row-major sums keeps tied sums in row-major
    pair order; a value sort in place gives the atoms; then, chunk by chunk
    in sorted order, `np.add.at` adds each pair's mass at its atom's rank, a
    running count of new values.  So each atom adds its masses in row-major
    order from 0.0, as one `bincount` over all pairs would.  Memory peaks at
    about 21 bytes a pair: the sums and their int64 argsort with its merge
    buffer or int32 copy while the order is made, then the int32 order, one
    flag a pair, and the atoms with either the sums or the masses.
    """
    j2 = y.size
    sums = np.add.outer(x, y).ravel()
    order = np.argsort(sums, kind="stable").astype(np.int32)  # MAX_ATOMS < 2**31 pairs
    sums.sort()
    new = _starts(sums)
    bp = sums[new]
    del sums
    padded = np.zeros(bp.size + 1)
    mass = padded[1:]
    last = -1
    for a in range(0, order.size, _CONV_BLOCK):
        i, j = np.divmod(order[a : a + _CONV_BLOCK], j2)
        w = p[i]
        w *= q[j]  # the same product as p[i] * q[j], in place
        del i, j
        rank = np.cumsum(new[a : a + _CONV_BLOCK], dtype=np.intp)
        rank += last
        last = rank[-1]
        # add.at adds in index order, as bincount does: the same bits
        np.add.at(mass, rank, w)
        del w, rank  # before the next chunk's are made
    return bp, padded


def _sign_zero_atom(bp: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Give an atom at 0 the sign of the sum of its first pair in row-major
    order.  A float sum is zero only when y = -x, so each row has at most one
    zero pair, found by a search of -x in y."""
    z = bp.searchsorted(0.0)
    if z < bp.size and bp[z] == 0.0:
        j = np.minimum(y.searchsorted(-x), y.size - 1)
        i = (y[j] == -x).argmax()
        bp[z] = x[i] + y[j[i]]


def convolve_edf(F: EDF, F1: EDF) -> EDF:
    """Distribution of the float sums of two independent step distributions.

    Every pair of breakpoints gives the float sum x + y with the product of
    their masses.  Pairs whose float sums are equal share one atom, whose
    mass adds the products in row-major pair order; sums that are equal as
    reals but round to different floats stay apart, and +0.0 and -0.0 share
    one atom, which keeps the sign of its first pair's sum in row-major
    order.  The caller must pre-coarsen inputs whose atom product exceeds
    `MAX_ATOMS` (a CapacityError).  An atom at +inf in one factor and at
    -inf in the other has no sum, and finite atoms whose sum overflows have
    no float sum (both DomainError); breakpoints are sorted, so only the end
    atoms can meet or overflow that way.

    The first row block of about `_CONV_BLOCK` pairs picks the path, which
    changes the time taken, never the result.  At most `_CONV_FEW` of its sums
    distinct: the atoms come from the distinct sums of each block, sorted
    together, and each block's sums find their atom's rank through a table
    of 2 buckets an atom (`_ranker`; a binary search when the atoms have no
    finite spread, their spread overflows, or a bucket holds more than
    `_BUCKET_ATOMS` atoms).  Memory is a few arrays of one block (about
    0.5 MB each), 16 bytes a distinct sum of a block while they are joined,
    then 8 bytes an atom for the atoms, 8 for the masses and 16 for the
    table (7 bytes a pair in all at vdc 6**5 x 8! with n = 1470).
    Mostly distinct sums: all pairs are sorted at once (`_all_pairs`), about
    21 bytes a pair at the peak (84 MB at 2000 x 2000).  Either way the masses
    are built one slot to the right of a leading 0, so the EDF keeps that
    array as its padded cumulative: 16 bytes an atom at the end.
    """
    j1, j2 = F.breakpoints.size, F1.breakpoints.size
    if j1 * j2 > MAX_ATOMS:
        raise CapacityError(f"{j1} x {j2} atoms exceed the cap {MAX_ATOMS}")
    (lo, hi), (lo1, hi1) = F.breakpoints[[0, -1]].tolist(), F1.breakpoints[[0, -1]].tolist()
    if isnan(lo + hi1) or isnan(hi + lo1):
        raise DomainError("an atom at +inf and one at -inf have no sum")
    ends, ends1 = _finite_ends(F.breakpoints), _finite_ends(F1.breakpoints)
    if ends and ends1 and not (isfinite(ends[0] + ends1[0]) and isfinite(ends[1] + ends1[1])):
        raise DomainError("sums of finite atoms overflow: no convolution")
    x, y, p, q = F.breakpoints, F1.breakpoints, F.jumps, F1.jumps
    rows = max(1, _CONV_BLOCK // j2)
    first = np.unique(np.add.outer(x[:rows], y))
    if first.size > _CONV_FEW * min(rows, j1) * j2:
        del first
        bp, padded = _all_pairs(x, y, p, q)
    else:
        sums = np.concatenate(
            [first] + [np.unique(np.add.outer(x[i : i + rows], y)) for i in range(rows, j1, rows)]
        )
        del first
        sums.sort()
        bp = sums[_starts(sums)]
        del sums
        rank = _ranker(bp)
        padded = np.zeros(bp.size + 1)
        for i in range(0, j1, rows):
            # add.at adds in index order, as bincount does: the same bits
            at = rank(np.add.outer(x[i : i + rows], y).ravel())
            np.add.at(padded[1:], at, np.multiply.outer(p[i : i + rows], q).ravel())
    _sign_zero_atom(bp, x, y)
    cum = padded[1:]
    np.cumsum(cum, out=cum)
    np.minimum(cum, 1.0, out=cum)
    cum[-1] = 1.0  # pin the total against accumulated roundoff
    bp.setflags(write=False)
    padded.setflags(write=False)
    return EDF(bp, padded[1:])


def sup_norm(w: SequenceWindow) -> float:
    """Largest |v(n)| over the window."""
    return float(np.abs(w.values).max())


def edf_sup_distance(F: EDF, G: EDF) -> float:
    """sup over x of |F(x) - G(x)| for two step distributions.

    Both are constant between consecutive points of the union of their
    breakpoints, so the left limits there cover every value of F - G (the
    right limit at one point is the left limit at the next, 0 after the last).
    """
    xs = np.union1d(F.breakpoints, G.breakpoints)
    return float(np.abs(F(xs) - G(xs)).max())
