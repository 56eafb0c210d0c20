"""Composite experiments: uniform distribution in the integers, resampling
invariance of means, central-limit and weak-law transfers, and almost-sure
uniform distribution of extended sequences at sampled points.

Every experiment validates its hypotheses first and refuses to run (GateError)
on inputs that fail them; reports are bit-reproducible given the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

import numpy as np

from .density import MAX_MODULUS, _fold
from .dist import _default_grid, cell_index, moments, sup_norm, table_deviations
from .errors import (
    ContinuityBudgetError,
    DegenerateWindowError,
    DiagnosticError,
    GateError,
    ResolutionError,
)
from .polyadic import (
    FACTORIAL_LADDER,
    _dividing_level,
    _uniform_digits,
    _witness,
    weak_continuity_profile,
)
from .primes import first_primes
from .seqgen import BaseChain, SequenceWindow, VdcSequence, apply_values, subsequence

_SQRT2 = math.sqrt(2.0)

# fixed gates: family members' means and dispersions agree within MOMENT_TOL;
# every pair of members passes interval independence on default grids at
# INDEP_THRESHOLD; index sequences pass `niven_ud_test` at NIVEN_M, NIVEN_THRESHOLD
MOMENT_TOL = 0.02
INDEP_THRESHOLD = 0.02
NIVEN_M = 8
NIVEN_THRESHOLD = 0.05
# fixed verdicts: metric-ud evaluates each extension within EVAL_EPS and passes
# when at least PASS_FRACTION of the points are flat; a composed family passes
# when every product mean factorizes within PRODUCT_MEAN_TOL
EVAL_EPS = 1e-3
PASS_FRACTION = 0.95
PRODUCT_MEAN_TOL = 0.02


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF via the error function (double-precision accurate)."""
    xs = np.asarray(x, dtype=float)
    t = np.atleast_1d(xs) / _SQRT2
    out = 0.5 * (1.0 + np.fromiter(map(math.erf, t.tolist()), dtype=float, count=t.size))
    return float(out[0]) if xs.ndim == 0 else out


def kolmogorov_distance(values, cdf: Callable) -> float:
    """Two-sided sup distance between the sample EDF and a continuous CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    c = np.asarray(cdf(x), dtype=float)
    below = np.abs(c - np.arange(n) / n).max()
    above = np.abs(c - np.arange(1, n + 1) / n).max()
    return float(max(below, above))


def identity_indices(N: int) -> np.ndarray:
    return np.arange(1, N + 1, dtype=np.int64)


def pair_swap_indices(N: int) -> np.ndarray:
    """2, 1, 4, 3, ...; the final index stays put when N is odd."""
    k = identity_indices(N)
    lim = N - (N % 2)
    k[0:lim:2], k[1:lim:2] = k[1:lim:2].copy(), k[0:lim:2].copy()
    return k


def vdc_family(bases: Sequence[int]) -> list[VdcSequence]:
    return [VdcSequence(BaseChain.geometric(int(b), 1)) for b in bases]


def vdc_family_primes(count: int) -> list[VdcSequence]:
    """Radical-inverse sequences over the first `count` primes (pairwise coprime)."""
    return vdc_family(first_primes(count))


@dataclass
class ExperimentReport:
    """Named statistics plus the trace that produced them.

    `passed` is a pure function of the statistics and the declared tolerance;
    reruns with the same parameters and seed reproduce the report bit for bit.
    """

    name: str
    parameters: dict
    statistics: dict
    trace: tuple
    passed: bool
    seed: int | None = None


def niven_ud_test(k, M: int, threshold: float = 0.05) -> ExperimentReport:
    """Worst residue-class frequency deviation from 1/m over all moduli m <= M.

    k is reduced only modulo the m in (M/2, M], which divide no other modulus;
    a smaller m sums the class counts of its largest multiple up to M (`_fold`).
    """
    k = np.asarray(k, dtype=np.int64)
    if M < 1:
        raise ValueError("M must be >= 1")
    if k.size < 100 * M:
        raise DiagnosticError(f"need at least {100 * M} indices for M={M}, got {k.size}")
    counts = {m: np.bincount(k % m, minlength=m) for m in range(M // 2 + 1, M + 1)}
    trace = []
    worst = 0.0
    for m in range(1, M + 1):
        top = M // m * m
        freq = _fold(counts[top], m) / k.size
        dev = float(np.abs(freq - 1.0 / m).max())
        trace.append((m, dev))
        worst = max(worst, dev)
    return ExperimentReport(
        name="niven-ud",
        parameters={"M": M, "N": int(k.size), "threshold": threshold},
        statistics={"max_deviation": worst},
        trace=tuple(trace),
        passed=worst <= threshold,
    )


def _index_gate(k) -> np.ndarray:
    """k as int64 indices, after `niven_ud_test(k, NIVEN_M, NIVEN_THRESHOLD)` passes."""
    k = np.asarray(k, dtype=np.int64)
    gate = niven_ud_test(k, NIVEN_M, threshold=NIVEN_THRESHOLD)
    if not gate.passed:
        raise GateError(
            f"index sequence fails the uniform-distribution gate "
            f"(deviation {gate.statistics['max_deviation']:.4g} > {NIVEN_THRESHOLD})"
        )
    return k


def resample_invariance(
    v: SequenceWindow,
    k,
    eps: float = 0.01,
    delta: float = 0.05,
) -> ExperimentReport:
    """|E_N(v(k)) - E_N(v)| after gating on weak congruence-continuity of v
    along the factorial ladder and uniform distribution of k in the integers.

    The pass tolerance 2 H delta + eps scales with the continuity budgets,
    H being the sup norm of the window.
    """
    try:
        exceptional = weak_continuity_profile(v, eps, delta, FACTORIAL_LADDER)
    except ContinuityBudgetError as e:
        raise GateError(f"window is not weakly continuous at the budget: {e}") from e
    k = _index_gate(k)
    vk = subsequence(v, k)
    stat = abs(float(vk.values.mean()) - float(v.values.mean()))
    H = sup_norm(v)
    tol = 2.0 * H * delta + eps
    return ExperimentReport(
        name="resample-invariance",
        parameters={
            "N": len(v),
            "M": NIVEN_M,
            "eps": eps,
            "delta": delta,
            "exceptional_level": exceptional.modulus,
            "exceptional_density": float(exceptional.mu_upper),
        },
        statistics={"mean_shift": stat, "tolerance": tol},
        trace=(),
        passed=stat <= tol,
    )


def _pairwise_independence_gate(windows: list[SequenceWindow]) -> None:
    """`interval_independence_stat` on default grids at INDEP_THRESHOLD for
    every pair; GateError names the first pair in `np.triu_indices` order that
    fails.

    Members are coupled (0, 1), (2, 3), ... (an odd last member alone), and a
    couple's cells make one uint8 code c_a * 11 + c_b.  One bincount of two
    couples' joint code holds their four cross-pair tables, and a couple's own
    bincount its inner pair's, so the k(k-1)/2 tables take about k^2/8 passes
    over the window; their deviations are one vectorized step.
    """
    k, K = len(windows), 11  # K: a default grid's 10 cells, then "no cell"
    # one block for all couple codes, so that freeing it hands the memory back
    codes = np.zeros(((k + 1) // 2, len(windows[0])), dtype=np.uint8)
    for i, w in enumerate(windows):
        if i % 2:
            codes[i // 2] *= K
        codes[i // 2] += cell_index(w.values, _default_grid(w))
    sizes = [min(2, k - 2 * g) for g in range(len(codes))]
    tables = {}
    for g, (code, size) in enumerate(zip(codes, sizes)):
        if size == 2:
            tables[2 * g, 2 * g + 1] = np.bincount(code, minlength=K * K).reshape(K, K)
        for h, size_h in enumerate(sizes[g + 1 :], g + 1):
            joint = code * np.uint16(K**size_h) + codes[h]  # below 11^4, so uint16
            joint = np.bincount(joint, minlength=K ** (size + size_h))
            joint = joint.reshape((K,) * (size + size_h))
            for p in range(size):
                # sum out the other member of g, then the other member of h
                part = joint.sum(axis=1 - p) if size == 2 else joint
                for q in range(size_h):
                    tables[2 * g + p, 2 * h + q] = part.sum(axis=2 - q) if size_h == 2 else part
    first, second = np.triu_indices(k, 1)
    if not first.size:
        return
    stack = np.stack([tables[pair] for pair in zip(first.tolist(), second.tolist())])
    stat = table_deviations(stack, len(windows[0])).max(axis=(1, 2))
    failing = np.flatnonzero(~(stat <= INDEP_THRESHOLD))
    if failing.size:
        p = failing[0]
        raise GateError(
            f"members {first[p]} and {second[p]} fail the independence gate "
            f"({stat[p]:.4g} > {INDEP_THRESHOLD})"
        )


def _moment_gate(windows: list[SequenceWindow]) -> tuple[list[float], list[float]]:
    """Each member's mean and dispersion, after they agree within MOMENT_TOL."""
    moms = [moments(w) for w in windows]
    means = [m.mean for m in moms]
    disps = [m.dispersion for m in moms]
    if max(means) - min(means) > MOMENT_TOL:
        raise GateError(f"member means disagree by {max(means) - min(means):.4g}")
    if max(disps) - min(disps) > MOMENT_TOL:
        raise GateError(f"member dispersions disagree by {max(disps) - min(disps):.4g}")
    return means, disps


def clt_experiment(family, N: int, tolerance: float = 0.05) -> ExperimentReport:
    """Kolmogorov distance between the standardized member sum and the normal law.

    The family must share mean and dispersion within MOMENT_TOL and pass the
    pairwise interval independence gate.
    """
    windows = [h.window(N) for h in family]
    k = len(windows)
    d2 = float(np.mean(_moment_gate(windows)[1]))
    if d2 == 0:
        raise DegenerateWindowError("family")
    _pairwise_independence_gate(windows)
    total = np.sum([w.values for w in windows], axis=0)
    mean_e = float(total.mean()) / k  # pooled mean; centers the sum exactly
    std = math.sqrt(k * d2)
    z = (total - k * mean_e) / std
    trace = tuple(
        (n, kolmogorov_distance(z[:n], normal_cdf)) for n in (N // 4, N // 2, N) if n
    )
    stat = trace[-1][1]
    return ExperimentReport(
        name="clt-transfer",
        parameters={"k": k, "N": N, "tolerance": tolerance},
        statistics={
            "kolmogorov_distance": stat,
            "standardized_mean": float(z.mean()),
            "standardized_var": float(z.var()),
        },
        trace=trace,
        passed=stat <= tolerance,
    )


def weak_law_experiment(
    family,
    eps: float,
    k_grid: Sequence[int],
    N: int = 10_000,
) -> ExperimentReport:
    """Observed large-deviation frequency of k-member averages against the
    dispersion bound D^2 / (k eps^2), for each k in the grid; each passes
    within a slack of 2/N."""
    if max(k_grid) > len(family):
        raise GateError(f"grid asks for {max(k_grid)} members, family has {len(family)}")
    windows = [h.window(N) for h in family]
    means, disps = _moment_gate(windows)
    _pairwise_independence_gate(windows)
    slack = 2.0 / N
    trace = []
    stats = {}
    ok = True
    for k in k_grid:
        e = float(np.mean(means[:k]))
        d2 = float(np.mean(disps[:k]))
        avg = np.mean([w.values for w in windows[:k]], axis=0)
        observed = float(np.mean(np.abs(avg - e) >= eps))
        bound = d2 / (k * eps**2)
        trace.append((k, observed, bound))
        stats[f"observed_k{k}"] = observed
        stats[f"bound_k{k}"] = bound
        ok = ok and observed <= bound + slack
    return ExperimentReport(
        name="weak-law",
        parameters={"eps": eps, "k_grid": tuple(k_grid), "N": N, "slack": slack},
        statistics=stats,
        trace=tuple(trace),
        passed=ok,
    )


def _family_bases(family) -> list[int]:
    bases = []
    for h in family:
        chain = getattr(h, "chain", None)
        if chain is None or len(chain.moduli) < 2:
            raise GateError("metric experiment needs radical-inverse handles")
        bases.append(chain.moduli[1])
    return bases


def _residues(digits: list[list[int]], k: int, step: int, m: int) -> list[int]:
    """Each point's residue at level k, the sum of d_j * P**j over j <= k, mod m:
    Horner's rule on the digits reduced mod m, with step = P mod m."""
    rs = [ds[k] % m for ds in digits]
    for j in range(k - 1, -1, -1):
        rs = [(r * step + ds[j] % m) % m for r, ds in zip(rs, digits)]
    return rs


_RESIDUE_GROUP = 32  # members whose witnesses' product reduces each digit once


def _member_residues(digits: list[list[int]], moduli: list[tuple[int, int]],
                     product: int) -> list[list[int]]:
    """`_residues` for each (witness m, level k) in `moduli`, digit j of a
    point counting product**j.  Each digit is first reduced once modulo the
    product M of a group of `_RESIDUE_GROUP` witnesses; every m of the group
    divides M, so (d mod M) mod m = d mod m and the residues are exact."""
    out = []
    for g in range(0, len(moduli), _RESIDUE_GROUP):
        group = moduli[g : g + _RESIDUE_GROUP]
        big = math.prod(m for m, _ in group)
        top = max(k for _, k in group) + 1
        reduced = [[d % big for d in ds[:top]] for ds in digits]
        out += [_residues(reduced, k, product % m, m) for m, k in group]
    return out


def metric_ud_experiment(
    family,
    n_alphas: int,
    seed: int,
    h_max: int = 3,
    threshold: float = 0.25,
) -> ExperimentReport:
    """Exponential-sum flatness of the extended family at sampled points.

    For each sampled point alpha, the n-th of the len(family) terms is the
    extension of the n-th member evaluated at alpha within EVAL_EPS; the
    statistic per alpha is the largest normalized exponential sum magnitude
    over frequencies 1..h_max (negative frequencies give conjugate sums of
    equal magnitude).  The run passes when at least PASS_FRACTION of the
    points have a statistic within `threshold`.
    """
    bases = _family_bases(family)
    product = math.prod(bases)
    # the bases are pairwise coprime exactly when their lcm is their product
    if math.lcm(*bases) != product:
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if gcd(bases[i], bases[j]) != 1:
                    raise GateError(
                        f"bases {bases[i]} and {bases[j]} share a factor; family "
                        f"is not pairwise independent"
                    )
    depth = max(_digits_needed(b, EVAL_EPS) for b in bases)
    levels = tuple(product**i for i in range(1, depth + 1))
    terms = np.empty((n_alphas, len(family)))
    members = []  # (h, its witness m, the index k of the first level m divides)
    for h in family:
        m = _witness(h, EVAL_EPS)
        k = _dividing_level(levels, m)
        if m > MAX_MODULUS:  # residues mod m reach `values_at` as int64
            raise ResolutionError(f"witness modulus {m} for eps={EVAL_EPS} exceeds 2**63 - 1")
        members.append((h, m, k))
    # point i is `sample_omega(seed * 1_000_003 + i, levels)` up to the deepest
    # level a member reads
    count = max((k + 1 for _, _, k in members), default=0)
    digits = [_uniform_digits(seed * 1_000_003 + i, [product] * count) for i in range(n_alphas)]
    # each term is `extend_eval(h, alpha, EVAL_EPS)`: h at the residue mod its witness
    residues = _member_residues(digits, [(m, k) for _, m, k in members], product)
    for t, ((h, _, _), rs) in enumerate(zip(members, residues)):
        terms[:, t] = h.values_at(np.array(rs, dtype=np.int64))
    per_alpha = []
    for vals in terms:
        worst = max(
            float(np.abs(np.exp(2j * np.pi * h * vals).mean()))
            for h in range(1, h_max + 1)
        )
        per_alpha.append(worst)
    per_alpha_arr = np.array(per_alpha)
    frac_ok = float(np.mean(per_alpha_arr <= threshold))
    return ExperimentReport(
        name="metric-ud",
        parameters={
            "n_alphas": n_alphas,
            "N_terms": len(family),
            "h_max": h_max,
            "threshold": threshold,
            "pass_fraction": PASS_FRACTION,
            "eval_eps": EVAL_EPS,
            "ladder_depth": depth,
        },
        statistics={
            "max_weyl_sum": float(per_alpha_arr.max()),
            "fraction_passing": frac_ok,
        },
        trace=tuple(per_alpha),
        passed=frac_ok >= PASS_FRACTION,
        seed=seed,
    )


def _digits_needed(base: int, eps: float) -> int:
    d = 1
    cap = base
    while 1.0 / cap > eps:
        cap *= base
        d += 1
    return d


def composed_independence_check(
    family,
    g_family: Sequence[Sequence[Callable]],
    k,
) -> ExperimentReport:
    """Product-mean factorization of composed, resampled family members.

    For each tuple (g_1, ..., g_r) the deviation is
    |E_N(prod g_j(v_j(k))) - prod E_N(g_j(v_j(k)))|; the statistic is the max,
    and it passes within PRODUCT_MEAN_TOL.
    A g that fails or is not finite on its member's values raises DomainError.
    """
    k = _index_gate(k)
    N = int(k.max())
    windows = [h.window(N) for h in family]
    _pairwise_independence_gate(windows)
    resampled = [subsequence(w, k) for w in windows]
    trace = []
    worst = 0.0
    for t, gs in enumerate(g_family):
        if len(gs) != len(family):
            raise ValueError(f"tuple {t} has {len(gs)} functions for {len(family)} members")
        arrays = [apply_values(g, s.values) for g, s in zip(gs, resampled)]
        prod = arrays[0].copy()
        for a in arrays[1:]:
            prod *= a
        dev = abs(
            float(prod.mean()) - math.prod(float(a.mean()) for a in arrays)
        )
        trace.append((t, dev))
        worst = max(worst, dev)
    return ExperimentReport(
        name="composed-independence",
        parameters={
            "tuples": len(list(g_family)),
            "members": len(family),
            "N_indices": int(k.size),
            "tolerance": PRODUCT_MEAN_TOL,
        },
        statistics={"max_deviation": worst},
        trace=tuple(trace),
        passed=worst <= PRODUCT_MEAN_TOL,
    )
