"""Sequence generators: van der Corput radical inverses over divisibility
chains, additive arithmetic functions driven by values on primes, and simple
(step) sequences over arithmetic-progression sets.

Every sequence kind is one class with `eval(n)` at any index n >= 0,
`window(N)`, the immutable finite `SequenceWindow` v(1..N), and `witness(eps)`,
a modulus whose congruence classes pin the values within eps (None when the
class knows none); the polyadic module relies on these three.  A window holds
its values and bounds only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf, isnan, isqrt, lcm
from typing import Callable, Iterable, Mapping

import numpy as np

from .density import APSet
from .errors import (
    CapacityError,
    DomainError,
    SpecificationError,
    WindowRangeError,
)
from .primes import distinct_prime_factors, is_prime, prime_mask, primes_upto

# spec keys in [0, this] are checked against one sieve (at most 16 MB of
# flags), other keys by trial division
_SPEC_SIEVE_LIMIT = 1 << 24


@dataclass(frozen=True)
class BaseChain:
    """Divisibility chain 1 = Q_0 | Q_1 | ... | Q_K of strictly increasing moduli.

    `growth` ("geometric" with `ratio`, or "factorial") lets windows extend
    the stored truncation on demand.
    """

    moduli: tuple[int, ...]
    growth: str | None = None
    ratio: int | None = None

    def __post_init__(self):
        q = self.moduli
        if not q or q[0] != 1:
            raise ValueError("chain must start at Q_0 = 1")
        for a, b in zip(q, q[1:]):
            if b <= a or b % a:
                raise ValueError(f"chain must strictly increase by divisibility ({a} -> {b})")
        if self.growth == "geometric" and (self.ratio is None or self.ratio < 2):
            raise ValueError("geometric growth needs an integer ratio >= 2")

    @classmethod
    def geometric(cls, ratio: int, levels: int) -> "BaseChain":
        return cls(
            tuple(ratio**k for k in range(levels + 1)), growth="geometric", ratio=ratio
        )

    @classmethod
    def factorial(cls, levels: int) -> "BaseChain":
        moduli = [1]
        for k in range(2, levels + 1):
            moduli.append(moduli[-1] * k)
        return cls(tuple(moduli), growth="factorial")

    @property
    def capacity(self) -> int:
        return self.moduli[-1]

    def extended(self) -> "BaseChain":
        """The chain with one more level from its growth rule."""
        if self.growth is None:
            raise CapacityError("chain has no growth rule to extend with")
        q = self.moduli
        # a factorial chain holds 1!, ..., K!; K = len(q)
        step = self.ratio if self.growth == "geometric" else len(q) + 1
        return BaseChain((*q, q[-1] * step), self.growth, self.ratio)

    def ensure_capacity(self, n: int) -> "BaseChain":
        """A chain (possibly extended) whose digit expansion closes for n."""
        chain = self
        while chain.capacity <= n:
            chain = chain.extended()
        return chain

    def digits(self, n: int) -> list[int]:
        """Mixed-radix digits a_j of n = sum a_j Q_j with 0 <= a_j < Q_{j+1}/Q_j."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n >= self.capacity:
            raise CapacityError(f"chain capacity {self.capacity} cannot expand {n}")
        out = []
        r = n
        for qa, qb in zip(self.moduli, self.moduli[1:]):
            r, a = divmod(r, qb // qa)
            out.append(a)
            if r == 0:
                break
        return out


def gen_vdc(n: int, chain: BaseChain) -> float:
    """Radical-inverse value of n for the chain: sum of a_j / Q_{j+1} in [0, 1)."""
    digits = chain.digits(n)
    return float(sum(a / chain.moduli[j + 1] for j, a in enumerate(digits)))


class VdcSequence:
    """The radical-inverse sequence over a chain.

    Evaluation grows the chain on demand (given a growth rule); congruence
    mod Q_j pins the first j digits, so values of a congruence class differ
    by less than 1/Q_j.
    """

    def __init__(self, chain: BaseChain):
        self.chain = chain

    def eval(self, n: int) -> float:
        self.chain = self.chain.ensure_capacity(n)
        return gen_vdc(n, self.chain)

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        """Values at an int64 array of indices n >= 0, one pass per chain digit."""
        top = int(ns.max()) if ns.size else 0
        self.chain = self.chain.ensure_capacity(top)
        q = self.chain.moduli
        vals = np.zeros(ns.shape, dtype=float)
        for j in range(len(q) - 1):
            if q[j] > top:
                break
            base = q[j + 1] // q[j]
            vals += (ns // q[j]) % base / q[j + 1]
        return vals

    def window(self, N: int) -> "SequenceWindow":
        """Window v(1..N) by the digit recurrence v(a Q_j + m) = v(m) + a / Q_{j+1}
        (0 <= m < Q_j, 0 <= a < Q_{j+1} / Q_j): each level with Q_j <= N repeats
        the values so far once per digit a. The additions are those of
        `values_at`, in its order, so the values are the same bit for bit."""
        self.chain = self.chain.ensure_capacity(N)
        q = self.chain.moduli
        vals = np.zeros(1)
        for j in range(len(q) - 1):
            if q[j] > N:
                break
            rows = min(q[j + 1] // q[j], N // q[j] + 1)
            vals = np.add.outer(np.arange(rows) / q[j + 1], vals).ravel()
        return SequenceWindow(vals[1 : N + 1], bounds=(0.0, 1.0))

    def witness(self, eps: float) -> int | None:
        """Smallest chain modulus m with 1/m <= eps."""
        if eps <= 0:
            return None
        chain = self.chain
        while chain.capacity < 1 / eps:
            if chain.growth is None:
                return None
            chain = chain.extended()
        self.chain = chain
        for q in chain.moduli:
            if 1 / q <= eps:
                return q
        return None


def _prime_flags(keys: list[int]):
    """Primality of each key of an ascending list, lazily: keys in
    [0, _SPEC_SIEVE_LIMIT] from one sieve up to the largest of them, the
    others by trial division."""
    lo, hi = bisect_left(keys, 0), bisect_right(keys, _SPEC_SIEVE_LIMIT)
    sieved = prime_mask(keys[hi - 1])[keys[lo:hi]].tolist() if hi > lo else []
    return itertools.chain(map(is_prime, keys[:lo]), sieved, map(is_prime, keys[hi:]))


class _SievedPairs(tuple):
    """(prime, float value) pairs over all primes up to a bound, ascending, as
    a sieve gives them: the keys need neither sorting nor a primality check."""


@dataclass(frozen=True)
class AdditiveFunctionSpec:
    """The additive function f(n) = sum of f(p) over the distinct primes p
    dividing n, given by nonnegative prime values f(p) and a convergent-tail
    bound.

    Prime powers are flattened (f(p^k) = f(p)), so a value on each prime
    determines the whole additive function.  Stored nonzero values must be
    pairwise distinct; zeros may repeat (double underflow of a fast-decaying
    rule is unavoidable at desk scale).
    """

    prime_values: tuple[tuple[int, float], ...]
    tail_bound: float

    def __init__(self, prime_values, tail_bound: float):
        if isinstance(prime_values, _SievedPairs):
            pairs, flags = tuple(prime_values), itertools.repeat(True)
        else:
            items = prime_values.items() if isinstance(prime_values, Mapping) else prime_values
            pairs = tuple(sorted((int(p), float(v)) for p, v in items))
            flags = _prime_flags([p for p, _ in pairs])
        seen_nonzero = set()
        for (p, v), prime in zip(pairs, flags):
            if not prime:
                raise SpecificationError(f"{p} is not prime")
            if not v >= 0:
                if isnan(v):
                    raise ValueError(f"f({p}) is NaN")
                raise SpecificationError(f"f({p}) = {v} is negative")
            if v != 0.0:
                if v in seen_nonzero:
                    raise SpecificationError(f"duplicate prime value {v}")
                seen_nonzero.add(v)
        if not tail_bound >= 0:
            if isnan(tail_bound):
                raise ValueError("tail bound is NaN")
            raise SpecificationError("tail bound must be >= 0")
        object.__setattr__(self, "prime_values", pairs)
        object.__setattr__(self, "tail_bound", float(tail_bound))
        object.__setattr__(self, "_map", dict(pairs))

    @classmethod
    def from_function(
        cls, fn: Callable[[int], float], pmax: int, tail_bound: float | None = None
    ) -> "AdditiveFunctionSpec":
        ps = primes_upto(pmax).tolist()
        if tail_bound is None:
            # crude geometric majorant: assume fn decays at least like fn(pmax)
            tail_bound = max(2.0 * fn(pmax + 1) if fn(pmax + 1) > 0 else 0.0, 0.0)
        return cls(_SievedPairs(zip(ps, [float(fn(p)) for p in ps])), tail_bound)

    def value(self, p: int) -> float:
        try:
            return self._map[p]
        except KeyError:
            raise SpecificationError(f"no value stored for prime {p}") from None

    def tail_above(self, N: int) -> float:
        """Upper bound on the sum of f(p) over primes p > N."""
        return (
            sum(v for p, v in self.prime_values if p > N) + self.tail_bound
        )

    def total(self) -> float:
        return sum(v for _, v in self.prime_values) + self.tail_bound

    def eval(self, n: int) -> float:
        if n == 0:
            # polyadic limit point: every prime divides 0
            return self.total()
        return float(sum(self.value(p) for p in distinct_prime_factors(n)))

    def window(self, N: int) -> "SequenceWindow":
        return gen_additive(N, self)

    def witness(self, eps: float) -> int | None:
        """Smallest factorial m = k! whose congruence classes pin f within eps."""
        m = 1
        for k in range(1, 26):
            m *= k
            if 2 * self.tail_above(k) < eps:
                return m
        return None


def gen_additive(N: int, spec: AdditiveFunctionSpec) -> "SequenceWindow":
    """Window of the additive function over [1, N], accumulated by sieve."""
    if N < 1:
        raise ValueError("N must be >= 1")
    needed = primes_upto(N)
    stored = spec.prime_values[: bisect_right(spec.prime_values, (N, inf))]
    keys = np.array([p for p, _ in stored], dtype=np.int64)
    missing = np.setdiff1d(needed, keys, assume_unique=True)
    if missing.size:
        raise SpecificationError(f"spec is missing prime {int(missing[0])} <= {N}")
    # stored keys are primes, so with none missing they are `needed`, in order
    values = np.array([v for _, v in stored], dtype=float)
    vals = np.zeros(N + 1, dtype=float)
    small = int(np.searchsorted(needed, isqrt(N), "right"))
    for p, v in zip(needed[:small].tolist(), values[:small].tolist()):
        vals[p::p] += v
    # n <= N has at most one prime factor above isqrt(N), its largest: an add
    # per multiplier k hits no index twice, and each n gets its large prime
    # last, so every sum is taken in increasing prime order as by the slices
    large, large_values = needed[small:], values[small:]
    ks = np.arange(1, N // (isqrt(N) + 1) + 1)
    for k, c in zip(ks.tolist(), np.searchsorted(large, N // ks, "right").tolist()):
        vals[k * large[:c]] += large_values[:c]
    return SequenceWindow(vals[1:])


@dataclass(frozen=True)
class SimpleSpec:
    """Simple (step) sequence: a finite linear combination of indicators of
    disjoint APSets, periodic with the lcm period."""

    parts: tuple[tuple[APSet, float], ...]

    def __init__(self, parts: Iterable[tuple[APSet, float]]):
        parts = tuple((s, float(c)) for s, c in parts)
        if any(isnan(c) for _, c in parts):
            raise ValueError("part values must not be NaN")
        for i, (s1, _) in enumerate(parts):
            for s2, _ in parts[i + 1 :]:
                if s1.intersects(s2):
                    raise SpecificationError(
                        f"parts overlap: {s1.progressions} meets {s2.progressions}"
                    )
        object.__setattr__(self, "parts", parts)

    @property
    def period(self) -> int:
        mods = [m for s, _ in self.parts for _, m in s.progressions]
        return lcm(*mods) if mods else 1

    def eval(self, n: int) -> float:
        for s, c in self.parts:
            if n in s:
                return c
        return 0.0

    def window(self, N: int) -> "SequenceWindow":
        return gen_simple(N, self)

    def witness(self, eps: float) -> int | None:
        return self.period


def gen_simple(N: int, spec: SimpleSpec) -> "SequenceWindow":
    """Window with v(n) = c_j on the j-th part, 0 off all parts."""
    if N < 1:
        raise ValueError("N must be >= 1")
    vals = np.zeros(N, dtype=float)
    for s, c in spec.parts:
        vals[s.mask(N)] = c
    return SequenceWindow(vals)


class PeriodicTable:
    """An explicitly tabulated periodic sequence."""

    def __init__(self, values: Iterable[float]):
        self.values = tuple(float(v) for v in values)
        if not self.values:
            raise ValueError("period table must be nonempty")
        if any(isnan(v) for v in self.values):
            raise ValueError("period table values must not be NaN")

    @property
    def period(self) -> int:
        return len(self.values)

    def eval(self, n: int) -> float:
        return self.values[n % self.period]

    def window(self, N: int) -> "SequenceWindow":
        reps = -(-N // self.period) + 1
        vals = np.tile(np.array(self.values), reps)[1 : N + 1]
        return SequenceWindow(vals)

    def witness(self, eps: float) -> int | None:
        return self.period


class CallableSequence:
    """An arbitrary n -> value rule; no continuity knowledge."""

    def __init__(self, fn: Callable[[int], float], name: str = "fn"):
        self.fn = fn
        self.name = name

    def eval(self, n: int) -> float:
        return float(self.fn(n))

    def window(self, N: int) -> "SequenceWindow":
        vals = np.array([self.fn(n) for n in range(1, N + 1)], dtype=float)
        return SequenceWindow(vals)

    def witness(self, eps: float) -> int | None:
        return None


@dataclass(frozen=True, eq=False)
class SequenceWindow:
    """Immutable finite prefix v(1..N) with enclosing bounds."""

    values: np.ndarray
    bounds: tuple[float, float]

    def __init__(self, values, bounds: tuple[float, float] | None = None):
        vals = np.asarray(values, dtype=float).copy()
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("window needs at least one value")
        vals.setflags(write=False)
        lo, hi = vals.min(), vals.max()
        a, b = (float(lo), float(hi)) if bounds is None else (float(bounds[0]), float(bounds[1]))
        if not (lo >= a and hi <= b):
            raise ValueError(f"values escape declared bounds [{a}, {b}]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bounds", (a, b))

    def __len__(self) -> int:
        return int(self.values.size)

    def value(self, n: int) -> float:
        """v(n) with 1-based n."""
        if not 1 <= n <= len(self):
            raise WindowRangeError(f"index {n} outside window [1, {len(self)}]")
        return float(self.values[n - 1])


def subsequence(w: SequenceWindow, indices) -> SequenceWindow:
    """Window of v(k_1), ..., v(k_M) for 1-based indices k."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size < 1:
        raise WindowRangeError("index list must be nonempty")
    if idx.min() < 1 or idx.max() > len(w):
        raise WindowRangeError(
            f"indices must lie in [1, {len(w)}], got range "
            f"[{int(idx.min())}, {int(idx.max())}]"
        )
    return SequenceWindow(w.values[idx - 1], bounds=w.bounds)


def apply_values(g: Callable, xs: np.ndarray) -> np.ndarray:
    """g at each value of xs: one vectorized call when g takes arrays, else one
    call per value; DomainError when g fails or is not finite on xs."""
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(g(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except Exception:
        try:
            vals = np.array([g(float(x)) for x in xs], dtype=float)
        except Exception as e:
            raise DomainError(f"function failed on window values: {e}") from e
    if not np.isfinite(vals).all():
        raise DomainError("function is not finite on the window range")
    return vals


def apply_pointwise(g: Callable[[float], float], w: SequenceWindow) -> SequenceWindow:
    """Window of g(v(n)); bounds are the sampled min/max of the image."""
    return SequenceWindow(apply_values(g, w.values))
