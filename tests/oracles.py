"""Independent brute-force reference implementations for window statistics.

Everything here is plain-Python double loops over raw value lists, apart from
the scalar membership rules of the built-in predicates and the per-point
paths that vectorized kernels replaced, kept as they were: the set-and-sort
construction of an `APSet`, the per-class straggler loop of
`buck_upper_per_level`, the mask-form cover check, the measurability check
that materializes the complement's hits, the per-breakpoint EDF series, the
per-row CSV formatter, the per-key primality check of an additive spec, the
per-(member, point) `extend_eval` loop of the metric experiment, the one-pass
Kolmogorov distance and the scatter (`ufunc.at`) class spreads.
"""

import math
from fractions import Fraction

import numpy as np

from measeq.density import APSet, CoverCertificate, MeasurabilityReport
from measeq.dist import _default_grid
from measeq.errors import DiagnosticError, GateError, SpecificationError
from measeq.experiments import INDEP_THRESHOLD
from measeq.polyadic import extend_eval, sample_omega
from measeq.primes import primes_upto


def mean_oracle(vals):
    return sum(vals) / len(vals)


def dispersion_oracle(vals):
    m = mean_oracle(vals)
    return sum((x - m) ** 2 for x in vals) / len(vals)


def edf_oracle(vals, x):
    return sum(1 for v in vals if v < x) / len(vals)


def stieltjes_oracle(vals, g):
    # group masses per distinct value, then integrate the step function
    masses = {}
    for v in vals:
        masses[v] = masses.get(v, 0) + 1
    return sum(g(x) * c / len(vals) for x, c in sorted(masses.items()))


def correlation_oracle(v, w):
    ev, ew = mean_oracle(v), mean_oracle(w)
    cov = sum((a - ev) * (b - ew) for a, b in zip(v, w)) / len(v)
    d2v = sum((a - ev) ** 2 for a in v) / len(v)
    d2w = sum((b - ew) ** 2 for b in w) / len(w)
    rho = abs(cov) / (math.sqrt(d2v) * math.sqrt(d2w))
    alpha = cov / d2v
    return rho, alpha, ew - alpha * ev


def chebyshev_oracle(vals, eps):
    m = mean_oracle(vals)
    lhs = sum(1 for x in vals if abs(x - m) > eps) / len(vals)
    return lhs, dispersion_oracle(vals) / eps**2


def statistical_independence_oracle(v, w, family):
    worst = 0.0
    for _, g in family:
        for _, g1 in family:
            gv = [g(x) for x in v]
            g1w = [g1(y) for y in w]
            prod = [a * b for a, b in zip(gv, g1w)]
            dev = abs(mean_oracle(gv) * mean_oracle(g1w) - mean_oracle(prod))
            worst = max(worst, dev)
    return worst


def interval_independence_table_oracle(v, w, grid_v, grid_w):
    # one membership mask per cell and one joint count per cell pair, in grid order
    n = len(v)
    masks_w = [[c <= y < d for y in w] for c, d in grid_w]
    table = []
    for a, b in grid_v:
        mv = [a <= x < b for x in v]
        fv = sum(mv) / n
        for mw in masks_w:
            fw = sum(mw) / n
            joint = sum(1 for p, q in zip(mv, mw) if p and q) / n
            table.append(abs(joint - fv * fw))
    return table


def interval_independence_oracle(v, w, grid_v, grid_w):
    return max(interval_independence_table_oracle(v, w, grid_v, grid_w))


def cell_index_oracle(values, cells):
    # the last live cell starting at or below each value, if the value lies below its end
    bounds = np.array(cells, dtype=float).reshape(-1, 2)
    live = np.flatnonzero(bounds[:, 0] < bounds[:, 1])
    live = live[np.argsort(bounds[live, 0], kind="stable")]
    # a leading cell [-inf, -inf) holds nothing, so every search lands on a cell
    lo = np.concatenate(([-np.inf], bounds[live, 0]))
    hi = np.concatenate(([-np.inf], bounds[live, 1]))
    if (hi[:-1] > lo[1:]).any():
        raise ValueError("cells overlap; they must be disjoint half-open intervals")
    label = np.concatenate(([len(bounds)], live))
    pos = np.searchsorted(lo, values, side="right") - 1
    return np.where(values < hi[pos], label[pos], len(bounds))


def _cell_deviations_oracle(cv, cw, kv, kw):
    n = cv.size
    counts = np.bincount(cv * (kw + 1) + cw, minlength=(kv + 1) * (kw + 1))
    counts = counts.reshape(kv + 1, kw + 1)
    fv = counts.sum(axis=1)[:kv] / n
    fw = counts.sum(axis=0)[:kw] / n
    return np.abs(counts[:kv, :kw] / n - np.outer(fv, fw))


def pairwise_independence_gate_oracle(windows):
    # one count table per pair, pairs in (i, j) order; raises on the first failure
    grids = [_default_grid(w) for w in windows]
    cells = [cell_index_oracle(w.values, g) for w, g in zip(windows, grids)]
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            stat = float(
                _cell_deviations_oracle(cells[i], cells[j], len(grids[i]), len(grids[j])).max()
            )
            if not stat <= INDEP_THRESHOLD:
                raise GateError(
                    f"members {i} and {j} fail the independence gate "
                    f"({stat:.4g} > {INDEP_THRESHOLD})"
                )


def region_oracle(seq_values, boxes):
    n = len(seq_values[0])
    count = 0
    for i in range(n):
        point = [s[i] for s in seq_values]
        if any(
            all(lo <= x <= hi for (lo, hi), x in zip(box, point)) for box in boxes
        ):
            count += 1
    return count / n


def convolve_oracle(breaks1, jumps1, breaks2, jumps2):
    atoms = {}
    for x, p in zip(breaks1, jumps1):
        for y, q in zip(breaks2, jumps2):
            atoms[x + y] = atoms.get(x + y, 0.0) + p * q
    xs = sorted(atoms)
    return xs, [atoms[x] for x in xs]


def edf_order_oracle(breakpoints, cum):
    # EDF's order checks in their np.diff form: the message of the first that
    # fails, or None
    bp, cm = np.asarray(breakpoints, dtype=float), np.asarray(cum, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        if not (np.diff(bp) > 0).all():
            return "breakpoints must be strictly increasing"
        if (np.diff(cm) < 0).any() or not abs(cm[-1] - 1.0) <= 1e-9:
            return "cum must be nondecreasing with final mass 1"
    return None


def convolve_unique_oracle(F, F1):
    # all pairwise sums and product masses at once; bincount adds each atom's
    # masses in row-major pair order
    sums = np.add.outer(F.breakpoints, F1.breakpoints).ravel()
    masses = np.multiply.outer(F.jumps, F1.jumps).ravel()
    bp, inverse = np.unique(sums, return_inverse=True)
    # +0.0 and -0.0 share one atom with the sign of the first zero sum
    bp[bp == 0.0] = sums[sums == 0.0][:1]
    mass = np.bincount(inverse, weights=masses, minlength=bp.size)
    cum = np.minimum(np.cumsum(mass), 1.0)
    cum[-1] = 1.0
    return bp, cum


def sup_norm_oracle(vals):
    return max(abs(x) for x in vals)


def edf_sup_distance_oracle(u, v):
    # merge-walk the sorted lists; at each distinct value x the counts
    # i, j are first #{< x} and then, after stepping past x, #{<= x}
    a, b = sorted(u), sorted(v)
    i = j = 0
    worst = 0.0
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i] <= b[j]):
            x = a[i]
        else:
            x = b[j]
        worst = max(worst, abs(i / len(a) - j / len(b)))
        while i < len(a) and a[i] == x:
            i += 1
        while j < len(b) and b[j] == x:
            j += 1
        worst = max(worst, abs(i / len(a) - j / len(b)))
    return worst


def rough_count_oracle(N, y):
    # n in [1, N] with no prime factor <= y; n = 1 counts
    primes = [p for p in range(2, y + 1) if all(p % q for q in range(2, p))]
    return sum(1 for n in range(1, N + 1) if all(n % p for p in primes))


# scalar membership rules of the built-in predicates, which hold only their masks
def is_square(n):
    return math.isqrt(n) ** 2 == n


def in_blocks(n):
    # n lies in some [4^k, 2 * 4^k) exactly when it has an odd number of binary digits
    return n.bit_length() % 2 == 1


def in_apset(s, n):
    return n in s


def apset_oracle(pairs):
    # the progressions of APSet(pairs), pair by pair: check each in input order,
    # reduce its residue into a set, then sort
    out = set()
    for r, m in pairs:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        if r < 0:
            raise ValueError(f"residue must be >= 0, got {r}")
        out.add((r % m, m))
    return tuple(sorted(out))


def in_level_set(values, lo, hi, n):
    return lo <= values[n - 1] < hi


def buck_upper_per_level_oracle(pred, ladder, window_N, threshold):
    # one rescan of the stragglers per residue class: class progression r+(m)
    # when 1/m <= k/big_m for its k distinct singletons mod big_m, else those
    hits = np.flatnonzero(pred.mask(window_N)).astype(np.int64) + 1
    big_m = max(ladder)
    recent_cut = (2 * window_N) // 3
    out = []
    for m in [m for m in ladder if window_N >= threshold * m]:
        res = hits % m if hits.size else np.zeros(0, dtype=np.int64)
        counts = np.bincount(res, minlength=m)
        persistent = counts >= threshold
        if hits.size:
            last = np.zeros(m, dtype=np.int64)
            np.maximum.at(last, res, hits)
            persistent &= last > recent_cut
        pairs = [(int(r), m) for r in np.flatnonzero(persistent)]
        cost = Fraction(len(pairs), m)
        strag = hits[~persistent[res]] if hits.size else hits
        if strag.size:
            sres = strag % m
            for r in np.unique(sres):
                members = strag[sres == r]
                k = len(np.unique(members % big_m))
                if Fraction(1, m) <= Fraction(k, big_m):
                    pairs.append((int(r), m))
                    cost += Fraction(1, m)
                else:
                    for x in np.unique(members % big_m):
                        pairs.append((int(x), big_m))
                    cost += Fraction(k, big_m)
        out.append(CoverCertificate(APSet(pairs), cost, window_N, m))
    return out


def verify_cover_oracle(cover, hits, N):
    # the cover's membership mask on [1, N], indexed at every hit
    if hits.size == 0:
        return
    covered = cover.mask(N)
    if not covered[hits - 1].all():
        missing = hits[~covered[hits - 1]][:5]
        raise DiagnosticError(f"cover misses window elements {missing.tolist()}")


def buck_measurability_oracle(pred, ladder, window_N, threshold, tolerance=0.05):
    # saturation of the set's hits and of the complement's hits, each its own
    # array, with one residue bincount per level for each
    usable = [m for m in ladder if window_N >= threshold * m]
    if not usable:
        raise DiagnosticError(
            f"window {window_N} cannot classify residues at any ladder level"
        )
    mask = pred.mask(window_N)
    hits_s = np.flatnonzero(mask).astype(np.int64) + 1
    hits_c = np.flatnonzero(~mask).astype(np.int64) + 1

    def saturation(hits, m):
        if hits.size == 0:
            return Fraction(0, 1)
        counts = np.bincount(hits % m, minlength=m)
        return Fraction(int((counts >= threshold).sum()), m)

    up_s = tuple(saturation(hits_s, m) for m in usable)
    up_c = tuple(saturation(hits_c, m) for m in usable)
    gaps = tuple(a + b - 1 for a, b in zip(up_s, up_c))
    return MeasurabilityReport(tuple(usable), up_s, up_c, gaps, tolerance)


def edf_series_oracle(F):
    # one scalar F(x) per breakpoint, each rebuilding the zero-padded cumulative
    rows = []
    for x, c in zip(F.breakpoints.tolist(), F.cum.tolist()):
        padded = np.concatenate(([0.0], F.cum))
        below = float(padded[np.searchsorted(F.breakpoints, x, side="left")])
        rows.append((x, below, float(c)))
    return rows


def csv_lines_oracle(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return lines


def is_prime(n):
    # trial division, independent of the Miller-Rabin test of measeq.primes
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def additive_spec_oracle(items):
    # trial-divide every key, in sorted order; the first bad pair's message, or the pairs
    pairs = tuple(sorted((int(p), float(v)) for p, v in items))
    seen_nonzero = set()
    for p, v in pairs:
        if not is_prime(p):
            return f"{p} is not prime"
        if v < 0:
            return f"f({p}) = {v} is negative"
        if v != 0.0:
            if v in seen_nonzero:
                return f"duplicate prime value {v}"
            seen_nonzero.add(v)
    return pairs


def gen_additive_oracle(N, spec):
    # check that the spec holds every prime up to N, then one slice add per prime
    needed = primes_upto(N)
    stored = {p for p, _ in spec.prime_values}
    for p in needed:
        if int(p) not in stored:
            raise SpecificationError(f"spec is missing prime {int(p)} <= {N}")
    vals = np.zeros(N + 1, dtype=float)
    for p in needed:
        vals[p::p] += spec.value(int(p))
    return vals[1:]


def level_residues_oracle(digits, k, P, m):
    # each point's residue at level k from its full integer sum d_j * P**j
    return [sum(d * P**j for j, d in enumerate(ds[: k + 1])) % m for ds in digits]


def metric_ud_trace_oracle(family, n_alphas, seed, N_terms, h_max, eval_eps):
    # one extend_eval per (point, member), each finding its own witness and level,
    # on the ladder of powers of the bases' product deep enough for every base
    bases = [h.chain.moduli[1] for h in family]
    depth = max(next(d for d in range(1, 64) if 1.0 / b**d <= eval_eps) for b in bases)
    levels = tuple(math.prod(bases) ** i for i in range(1, depth + 1))
    trace = []
    for i in range(n_alphas):
        alpha = sample_omega(seed * 1_000_003 + i, levels)
        vals = np.array([extend_eval(h, alpha, eval_eps) for h in family[:N_terms]], dtype=float)
        trace.append(max(
            float(np.abs(np.exp(2j * np.pi * h * vals).mean())) for h in range(1, h_max + 1)
        ))
    return tuple(trace)


def kolmogorov_distance_oracle(values, cdf):
    # the one-pass path: cdf at every sorted point
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    c = np.asarray(cdf(x), dtype=float)
    below = np.abs(c - np.arange(n) / n).max()
    above = np.abs(c - np.arange(1, n + 1) / n).max()
    return float(max(below, above))


def class_spreads_oracle(vals, m):
    # the scatter path: ufunc.at over n mod m, value n at vals[n - 1]
    idx = np.arange(1, vals.size + 1, dtype=np.int64) % m
    mn = np.full(m, np.inf)
    mx = np.full(m, -np.inf)
    np.minimum.at(mn, idx, vals)
    np.maximum.at(mx, idx, vals)
    return mx - mn
