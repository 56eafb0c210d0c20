"""Exact polyadic metric, congruence-continuity analysis, and Haar averaging.

The distance between integers is 1 minus the sum of 2^-n over the divisors n
of their difference, kept exact as a dyadic rational.  Sequences that vary
little across congruence classes extend to the completion; points of the
completion are truncated to coherent residue chains along a modulus ladder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite
from typing import Sequence

import numpy as np

from .density import APSet, FACTORIAL_LADDER
from .errors import ContinuityBudgetError, DiagnosticError, DomainError, ResolutionError
from .primes import divisors
from .seqgen import CallableSequence, PeriodicTable, SequenceWindow


class DyadicRational(Fraction):
    """numerator / 2^exponent as a Fraction, normalized so the numerator is odd
    (or zero, with exponent 0)."""

    def __new__(cls, numerator: int, exponent: int = 0):
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return super().__new__(cls, int(numerator), 1 << int(exponent))

    @property
    def exponent(self) -> int:
        return self.denominator.bit_length() - 1

    def scaled_numerator(self, exponent: int) -> int:
        """Numerator after rescaling to the given (larger) exponent."""
        if exponent < self.exponent:
            raise ValueError("cannot rescale to a smaller exponent")
        return self.numerator << (exponent - self.exponent)

    def __repr__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"

    def __reduce__(self):
        """Pickle and copy rebuild from (numerator, exponent); Fraction's own
        copies pass the denominator where this class takes the exponent."""
        return type(self), (self.numerator, self.exponent)

    __copy__ = __deepcopy__ = None  # copy through __reduce__ as well


def polyadic_distance(a: int, b: int) -> DyadicRational:
    """Exact distance: 1 - sum of 2^-n over the divisors n of |a - b|.

    The defining series charges 2^-n for every n not dividing the difference;
    the complementary divisor sum is finite and exact.
    """
    d = abs(int(a) - int(b))
    if d == 0:
        return DyadicRational(0, 0)
    num = (1 << d) - sum(1 << (d - n) for n in divisors(d))
    return DyadicRational(num, d)


@lru_cache(maxsize=64)
def ladder_steps(levels: tuple[int, ...]) -> tuple[int, ...]:
    """Step ratios b // a of a ladder that increases by divisibility; ValueError
    at the first step that does not.  Cached: sampled points share ladders."""
    for a, b in zip(levels, levels[1:]):
        if b <= a or b % a:
            raise ValueError(f"levels must increase by divisibility ({a} -> {b})")
    return tuple(b // a for a, b in zip(levels, levels[1:]))


def _dividing_level(levels: Sequence[int], m: int) -> int:
    """Index of the first ladder level divisible by m."""
    for i, lev in enumerate(levels):
        if lev % m == 0:
            return i
    raise ResolutionError(f"no ladder level is divisible by {m}")


@dataclass(frozen=True)
class OmegaPoint:
    """Coherent residue chain along a divisibility ladder of levels."""

    levels: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        lv, rs = self.levels, self.residues
        if not lv or len(lv) != len(rs):
            raise ValueError("levels and residues must be equal-length and nonempty")
        ladder_steps(tuple(lv))
        for m, r in zip(lv, rs):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for level {m}")
        for i in range(len(lv) - 1):
            if rs[i + 1] % lv[i] != rs[i]:
                raise ValueError(f"incoherent residues at levels {lv[i]} | {lv[i+1]}")

    def residue_mod(self, m: int) -> int:
        """The point's residue mod m, for any m dividing some ladder level."""
        return self.residues[_dividing_level(self.levels, m)] % m


def sample_omega(seed: int, ladder: Sequence[int]) -> OmegaPoint:
    """Haar-uniform coherent residues along the ladder, deterministic in the seed.

    The first residue is uniform mod the first level; each refinement adds a
    uniform digit, so every class s + (m) at level m has probability 1/m.
    """
    rng = random.Random(seed)
    levels = tuple(int(m) for m in ladder)
    r = rng.randrange(levels[0])
    residues = [r]
    for prev, step in zip(levels, ladder_steps(levels)):
        r = r + prev * rng.randrange(step)
        residues.append(r)
    return OmegaPoint(levels, tuple(residues))


def _handle(v):
    """A sequence handle as is; a bare n -> value callable wrapped once."""
    return v if hasattr(v, "eval") else CallableSequence(v)


def _eval_block(h, m: int) -> np.ndarray:
    """Values h(0), ..., h(m-1): h(0), then one window of the handle."""
    h = _handle(h)
    head = np.array([float(h.eval(0))])
    return np.concatenate([head, h.window(m - 1).values]) if m > 1 else head[:m]


def _finite(vals: np.ndarray, what: str) -> np.ndarray:
    """vals, or DomainError when one is not finite: `what` of them is not a number."""
    if not np.isfinite(vals).all():
        raise DomainError(f"sequence values are not finite: no {what}")
    return vals


def _mean(vals: np.ndarray, what: str) -> float:
    """Mean of finite vals, or DomainError when their sum overflows: no `what`."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(vals.mean())
    if not isfinite(mean):
        raise DomainError(f"sums of sequence values overflow: no {what}")
    return mean


def periodize(h, m: int) -> PeriodicTable:
    """The m-periodic sequence agreeing with h on 0..m-1."""
    return PeriodicTable(_eval_block(h, m))


def period_mean(h, m: int) -> float:
    """Average of h over one period: (1/m) sum of h(0..m-1); DomainError when
    one of them, or their sum, is not finite."""
    return _mean(_finite(_eval_block(h, m), "period mean"), "period mean")


@dataclass
class ContinuityProfile:
    """Smallest witnessed modulus per epsilon, from an exhaustive window scan.

    `class_ranges` records, per ladder modulus, the largest value spread
    inside any congruence class of the examined window.
    """

    pairs: tuple[tuple[float, int], ...]
    failures: tuple[float, ...]
    ladder: tuple[int, ...]
    window_used: int
    class_ranges: tuple[tuple[int, float], ...]

    def witness_for(self, eps: float) -> int | None:
        for e, m in self.pairs:
            if e == eps:
                return m
        return None


def _window_values(v, window_N: int | None, ladder: Sequence[int]) -> np.ndarray:
    """The values whose class spreads are scanned; DomainError when one is not finite."""
    need = 2 * max(ladder)
    if isinstance(v, SequenceWindow):
        vals = v.values
    else:
        vals = _handle(v).window(window_N or need).values
    if vals.size < need:
        raise DiagnosticError(
            f"window of {vals.size} too short for ladder max {max(ladder)} "
            f"(need at least {need})"
        )
    return _finite(vals, "class spreads")


def _class_spreads(vals: np.ndarray, m: int) -> np.ndarray:
    idx = np.arange(1, vals.size + 1, dtype=np.int64) % m
    mn = np.full(m, np.inf)
    mx = np.full(m, -np.inf)
    np.minimum.at(mn, idx, vals)
    np.maximum.at(mx, idx, vals)
    return mx - mn


def p_continuity_profile(
    v,
    eps_list: Sequence[float],
    ladder: Sequence[int],
    window_N: int | None = None,
) -> ContinuityProfile:
    """For each epsilon, the smallest ladder modulus m such that every pair of
    window indices congruent mod m has values within epsilon (strictly): a
    bound on the window only, not a continuity witness of the sequence."""
    ladder = sorted(int(m) for m in ladder)
    vals = _window_values(v, window_N, ladder)
    ranges = [(m, float(_class_spreads(vals, m).max())) for m in ladder]
    pairs, failures = [], []
    for eps in eps_list:
        for m, spread in ranges:
            if spread < eps:
                pairs.append((float(eps), m))
                break
        else:
            failures.append(float(eps))
    return ContinuityProfile(
        tuple(pairs), tuple(failures), tuple(ladder), int(vals.size), tuple(ranges)
    )


@dataclass
class ExceptionalSet:
    """Residue classes excluded to make the congruence-continuity bound hold.

    Off the classes in `aps`, congruence mod `modulus` pins window values
    within the epsilon that produced this set.  `mu_upper` is the exact
    density of the exceptional union.
    """

    aps: APSet
    mu_upper: Fraction
    modulus: int


def weak_continuity_profile(
    v,
    eps: float,
    delta: float,
    ladder: Sequence[int],
    window_N: int | None = None,
) -> ExceptionalSet:
    """First ladder level whose epsilon-violating classes have density < delta.

    The returned certificate is verified on the window only; it never claims
    anything about the infinite sequence.  Raises ContinuityBudgetError with
    the best (level, fraction) found when no level fits the budget.
    """
    ladder = sorted(int(m) for m in ladder)
    vals = _window_values(v, window_N, ladder)
    best: tuple[int, float] | None = None
    for m in ladder:
        spreads = _class_spreads(vals, m)
        bad = np.flatnonzero(spreads >= eps)
        fraction = bad.size / m
        if best is None or fraction < best[1]:
            best = (m, fraction)
        if fraction < delta:
            return ExceptionalSet(
                APSet([(int(r), m) for r in bad]), Fraction(bad.size, m), m
            )
    raise ContinuityBudgetError(best[0], best[1])


@dataclass
class HaarTrace:
    """Ladder of period means; `value` is the mean at the deepest level."""

    value: float
    levels: tuple[int, ...]
    means: tuple[float, ...]


def haar_integral(h, ladder: Sequence[int] = FACTORIAL_LADDER) -> HaarTrace:
    """Period means of h along the ladder, converging to the Haar average
    when h is congruence-continuous.  Non-settling traces are returned as-is;
    a value or a sum that is not finite has no mean (DomainError).
    """
    ladder = sorted(int(m) for m in ladder)
    vals = _finite(_eval_block(h, ladder[-1]), "period means")
    means = tuple(_mean(vals[:m], "period means") for m in ladder)
    return HaarTrace(means[-1], tuple(ladder), means)


def _witness(h, eps: float) -> int:
    """The handle's continuity witness m(eps); ResolutionError when it has none."""
    m = h.witness(eps)
    if m is None:
        raise ResolutionError(f"no continuity witness for eps={eps} within the ladder")
    return m


def extend_eval(v, alpha: OmegaPoint, eps: float) -> float:
    """Value of the extension of v at alpha, within eps of any representative.

    The modulus is the handle's own continuity witness m(eps), which must
    divide one of alpha's ladder levels; ResolutionError when the handle has
    no witness for eps (a bare callable has none) or no level is divisible by it.
    """
    h = _handle(v)
    return float(h.eval(alpha.residue_mod(_witness(h, eps))))
