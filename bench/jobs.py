"""Seeded job mixes for the measeq benchmark, and the code that runs one job.

A workload is a list of slots.  Each slot fixes one kind of job and a size
centre; the slots together tile the workload's documented input ranges.  For
every slot a fixed catalogue of CHOICES candidate jobs is drawn once (the
catalogue seed is the workload name): sizes within JITTER of the centre, the
other inputs (predicates, bases, residues, thresholds, seeds) at random.  A
reference digest is recorded for every candidate.  The run seed picks one
candidate per slot and shuffles the order, so the inputs depend on the seed
while the work per slot, and thus the run's total, hardly does.

A job is JSON: {"argv": [...]} for one `measeq.cli.main(argv)` call, or
{"lib": NAME, "args": {...}} for a library job that makes the same public
calls as `scripts/` and the README library sketch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path

CHOICES = 6
JITTER = 0.03  # a slot's sizes vary by at most this share around its centre
OUT = "job.json"  # --out is relative to the work directory, so the echoed config is stable
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# moduli of AP unions: divisors of 8! = 40320, the top of the factorial ladder
AP_MODULI = tuple(m for m in range(2, 41) if 40320 % m == 0)
G_NAMES = ("x", "x^2", "x^3", "1-x", "one")


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _size(rng: random.Random, centre: float, scale: float, step: int = 1) -> int:
    n = int(centre * scale * rng.uniform(1 - JITTER, 1 + JITTER))
    return max(step, n - n % step)


_VDC2 = {"kind": "vdc", "chain": {"ratio": 2, "levels": 1}}
_VDC_FACTORIAL = {"kind": "vdc", "chain": {"factorial": 6}}


def _vdc_spec(rng: random.Random) -> dict:
    if rng.random() < 0.25:
        return {"kind": "vdc", "chain": {"factorial": rng.randint(4, 9)}}
    return {"kind": "vdc", "chain": {"ratio": rng.choice((2, 3, 5, 6, 7, 10)), "levels": rng.randint(1, 12)}}


def _continuous_spec(rng: random.Random) -> dict:
    # base-2 and factorial chains are congruence-continuous along the factorial ladder
    if rng.random() < 0.5:
        return {"kind": "vdc", "chain": {"factorial": rng.randint(4, 9)}}
    return {"kind": "vdc", "chain": {"ratio": 2, "levels": rng.randint(1, 12)}}


def _family(rng: random.Random, k: int) -> dict:
    if rng.random() < 0.5:
        return {"primes": k}
    return {"bases": sorted(rng.sample(SMALL_PRIMES, k))}


# ------------------------------------------------------------- density-covers


def _density(pred, window, ladder="factorial"):
    def make(rng, scale):
        n = _size(rng, window, scale, 1000)
        argv = ["density", "--pred", pred(rng, n) if callable(pred) else pred,
                "--window", str(n), "--grid", f"1e3..{n}"]
        return {"argv": argv + (["--ladder", ladder] if ladder != "factorial" else [])}

    return make


def _ap_union(k):
    def pred(rng, window):
        return _j({"ap": [{"r": rng.randrange(m), "m": m} for m in rng.choices(AP_MODULI, k=k)]})

    return pred


def _threshold(rng, window):
    # endpoints on the grid of the chain's own moduli (1/64 for base 2, 1/720
    # for the factorial chain) make the level set periodic along the ladder
    seq, q = rng.choice(((_VDC2, 64), (_VDC_FACTORIAL, 720)))
    lo = rng.randrange(q * 3 // 4)
    hi = lo + rng.randrange(q // 16, q // 4)
    return _j({"threshold": {"seq": seq, "n": window, "lo": lo / q, "hi": hi / q}})


def _survey(name, window):
    def make(rng, scale):
        return {"lib": "density_survey", "args": {"set": name, "window": _size(rng, window, scale, 1000)}}

    return make


ALTERNATE = ("factorial", "primorial") * 4
WINDOWS = (1.5e5, 3e5, 4.5e5, 6e5, 7.5e5, 9e5, 9.7e5)

DENSITY_COVERS = (
    # blocks where the last block ends before the recency cut: every class a straggler
    _density("blocks", 2.1e5),
    _density("blocks", 2.5e5),
    # blocks outside that range, on either side of it (windows 1.3e5-1.9e5,
    # 2.7e5-3.4e5 and above 7e5 are partly straggler-bound and cost 1-16 s)
    *[_density("blocks", w, ld) for w, ld in zip((1.1e5, 4e5, 5.5e5, 6.8e5), ALTERNATE)],
    *[_density("primes", w, ld) for w, ld in zip(WINDOWS, ALTERNATE)],
    *[_density("squares", w, ld) for w, ld in zip((1.2e5, *WINDOWS), ALTERNATE)],
    *[_density(_ap_union(k), w) for k, w in zip(range(4, 15, 2), (2e5, 3.5e5, 5e5, 6.5e5, 8e5, 9.5e5))],
    # one window for all level sets: eight jobs of like cost around the tail rank
    *[_density(_threshold, 6e5)] * 8,
    *[_survey(name, w) for name, w in (("ap(2,4)", 3e5), ("squares", 5e5), ("primes", 7e5), ("primes", 9e5))],
    _survey("blocks", 5e5),
)


# ------------------------------------------------------------- transfer-gates


def _exp(verb, config, seed=None):
    argv = ["exp", verb, "--config", _j(config)]
    return {"argv": (["--seed", str(seed)] if seed is not None else []) + argv}


def _clt(k, n):
    def make(rng, scale):
        return _exp("clt", {**_family(rng, k), "n": _size(rng, n, scale, 1000)})

    return make


def _weaklaw(k, n, jitter=True):
    def make(rng, scale):
        grid = sorted({1, rng.randint(2, k - 1), k})
        size = _size(rng, n, scale, 1000) if jitter else int(n * scale)
        return _exp("weaklaw", {**_family(rng, k), "n": size,
                                "k_grid": grid, "eps": rng.choice((0.1, 0.15, 0.2, 0.25))})

    return make


def _sss(k, n):
    def make(rng, scale):
        return _exp("sss", {**_family(rng, k), "g": [rng.choice(G_NAMES) for _ in range(k)],
                            "indices": {"kind": rng.choice(("identity", "pair_swap")),
                                        "n": _size(rng, n, scale, 1000)}})

    return make


def _resample(spec, n):
    def make(rng, scale):
        size = _size(rng, n, scale, 1000)
        return _exp("resample", {"seq": spec(rng), "n": size,
                                 "indices": {"kind": rng.choice(("identity", "pair_swap")), "n": size},
                                 "eps": rng.choice((0.01, 0.02, 0.05))})

    return make


def _niven(n):
    def make(rng, scale):
        return _exp("niven", {"indices": {"kind": rng.choice(("identity", "pair_swap", "even")),
                                          "n": _size(rng, n, scale, 1000)},
                              "M": rng.randint(4, 16)})

    return make


def _transfer_script(clt_members, law_members):
    def make(rng, scale):
        return {"lib": "transfer_experiments",
                "args": {"clt_members": clt_members, "law_members": law_members,
                         "n": _size(rng, 1e4, scale, 1000)}}

    return make


# Tiers of equal work (gate pairs x N), so that the median job (ranks 19-20
# of 40) and the tail job (rank 29) each fall inside a tier of like jobs.
TRANSFER_GATES = (
    # slowest tier; gate pairs grow as k^2.  The 24-member family is the
    # slowest job and sets the peak memory, so its size is fixed.
    _weaklaw(24, 1e5, jitter=False),
    *[_weaklaw(k, n) for k, n in ((20, 7e4), (16, 6e4))],
    *[_clt(k, n) for k, n in ((16, 1e5), (14, 8e4), (12, 7e4))],
    # about 2.6e6 pair-samples each
    *[_transfer_script(9, 17)] * 4,
    *[_weaklaw(k, n) for k, n in ((11, 4.7e4), (12, 4e4), (13, 3.3e4))],
    *[_clt(k, n) for k, n in ((9, 7.2e4), (10, 5.8e4))],
    _sss(8, 9.3e4),
    # about 8e5 pair-samples each
    *[_clt(k, n) for k, n in ((4, 8e4), (5, 6e4), (6, 4.5e4), (7, 3.5e4))],
    *[_weaklaw(k, n) for k, n in ((8, 3.3e4), (9, 2.6e4), (10, 2e4))],
    *[_sss(k, n) for k, n in ((4, 1e5), (5, 9e4), (6, 6e4))],
    # cheap: no pairwise gate
    *[_sss(k, n) for k, n in ((2, 2e4), (3, 4e4))],
    *[_resample(_continuous_spec, n) for n in (1e5, 1.2e5, 1.5e5, 2e5)],
    # other bases mostly fail the continuity gate: a refusal (exit 1) is a valid outcome
    *[_resample(_vdc_spec, n) for n in (1.3e5, 1.8e5)],
    *[_niven(n) for n in (2e4, 3.5e4, 5e4, 6.5e4, 8e4, 1e5)],
)


# -------------------------------------------------------- distribution-series


# window cost grows with the number of digits, so bases of similar size keep
# the statistic jobs at similar cost
MID_BASES = (5, 6, 7)


def _dist(verb, *args):
    return {"argv": ["dist", verb, *args]}


def _edf(n):
    def make(rng, scale):
        return _dist("edf", "--seq", _j(_vdc_spec(rng)), "--n", str(_size(rng, n, scale, 100)))

    return make


def _eval_points(rng):
    return ",".join(str(round(rng.uniform(0.0, 2.0), 3)) for _ in range(rng.randint(1, 4)))


def _conv_uniform(rng, scale):
    # fixed size: the largest convolution sets the workload's peak memory
    return _dist("conv", "--uniform", "--uniform", "--n", str(int(2000 * scale)), "--eval", _eval_points(rng))


def _conv_vdc(n):
    def make(rng, scale):
        return _dist("conv", "--seq", _j(_vdc_spec(rng)), "--seq2", _j(_vdc_spec(rng)),
                     "--n", str(_size(rng, n, scale, 10)), "--eval", _eval_points(rng))

    return make


def _two_vdc(rng):
    b1, b2 = rng.sample(MID_BASES, 2)
    return (_j({"kind": "vdc", "chain": {"ratio": b1, "levels": 1}}),
            _j({"kind": "vdc", "chain": {"ratio": b2, "levels": 1}}))


def _moments(n):
    def make(rng, scale):
        spec = {"kind": "vdc", "chain": {"ratio": rng.choice(MID_BASES), "levels": 1}}
        return _dist("moments", "--seq", _j(spec), "--n", str(_size(rng, n, scale, 1000)))

    return make


def _corr(n):
    def make(rng, scale):
        s1, s2 = _two_vdc(rng)
        return _dist("corr", "--seq", s1, "--seq2", s2, "--n", str(_size(rng, n, scale, 1000)))

    return make


def _indep_functional(n):
    def make(rng, scale):
        s1, s2 = _two_vdc(rng)
        return _dist("indep", "--kind", "functional", "--seq", s1, "--seq2", s2,
                     "--n", str(_size(rng, n, scale, 1000)))

    return make


def _gen(n):
    def make(rng, scale):
        return {"argv": ["gen", "--spec", _j(_vdc_spec(rng)), "--n", str(_size(rng, n, scale, 1000))]}

    return make


def _integrate(ladder):
    def make(rng, scale):
        return {"argv": ["polyadic", "integrate", "--seq", _j(_vdc_spec(rng)), "--ladder", ladder]}

    return make


def _profile(window):
    def make(rng, scale):
        eps = sorted(rng.sample((0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001), 3), reverse=True)
        return {"argv": ["polyadic", "profile", "--seq", _j(_vdc_spec(rng)),
                         "--eps", ",".join(map(str, eps)), "--window", str(_size(rng, window, scale, 1000))]}

    return make


def _sample(levels):
    def make(rng, scale):
        return {"argv": ["--seed", str(rng.randrange(10**6)), "polyadic", "sample", "--levels", levels]}

    return make


def _polyadic_dist(d):
    def make(rng, scale):
        a = rng.randrange(1000)
        pair = [a, a + _size(rng, d, scale)]
        rng.shuffle(pair)
        return {"argv": ["polyadic", "dist", *map(str, pair)]}

    return make


def _metric_ud(primes, alphas):
    def make(rng, scale):
        return _exp("metric-ud", {"primes": _size(rng, primes, scale), "n_alphas": _size(rng, alphas, 1.0)},
                    seed=rng.randrange(10**8))

    return make


def _additive_edf_job(pmax):
    def make(rng, scale):
        if rng.random() < 0.5:
            decay = {"kind": "geometric", "base": rng.choice((2, 3, 4))}
        else:
            decay = {"kind": "power", "s": rng.choice((1.5, 2.0, 3.0))}
        p = _size(rng, pmax, scale, 100)
        return {"lib": "additive_edf", "args": {"decay": decay, "pmax": p, "n_small": max(10, p // 10), "n_large": p}}

    return make


def _readme_sketch_job(n):
    def make(rng, scale):
        return {"lib": "readme_sketch", "args": {"base": rng.choice((2, 3, 5)), "n": _size(rng, n, scale, 10),
                                                 "a": rng.randrange(100), "b": rng.randrange(100, 200)}}

    return make


# Tiers of like cost, so that the median job (rank 22 of 43) and the tail job
# (rank 33) each fall inside a tier.
DISTRIBUTION_SERIES = (
    # slowest tier: the largest series, convolution and metric experiment
    *[_edf(n) for n in (2.5e4, 3e4, 3.5e4, 3.9e4)],
    _conv_uniform,
    _gen(2e5), _gen(3e5),
    _metric_ud(400, 100),
    # about 0.25 s each
    _edf(1.5e4), _edf(1.6e4),
    _conv_vdc(1500), _conv_vdc(1500),
    *[_additive_edf_job(1.7e5)] * 3,
    _metric_ud(220, 80),
    _readme_sketch_job(1500),
    # about 0.08 s each
    *[_moments(n) for n in (9e5, 1e6, 1.1e6)],
    *[_corr(n) for n in (4.5e5, 5e5, 5.5e5)],
    *[_indep_functional(n) for n in (3e5, 3.3e5, 3.6e5, 4e5)],
    _metric_ud(120, 50),
    _readme_sketch_job(1000),
    # a few milliseconds each
    *[_integrate(ladder) for ladder in ("factorial", "primorial", "factorial:7")],
    *[_profile(w) for w in (1e5, 1.5e5, 2e5)],
    *[_sample(levels) for levels in ("factorial", "primorial", "2,6,24,120,720")],
    # any two integers; above |a - b| of about 14,000 the seed code ends in a
    # ValueError (int-to-str digit limit), which counts as a failed job
    *[_polyadic_dist(d) for d in (1000, 5000, 1.2e4, 3e4)],
    # the README sketch at its own window of 1e5: convolve_edf refuses (exit 1)
    _readme_sketch_job(1e5),
)

WORKLOADS = {
    "density-covers": DENSITY_COVERS,
    "transfer-gates": TRANSFER_GATES,
    "distribution-series": DISTRIBUTION_SERIES,
}


def catalogue(workload: str, scale: float = 1.0) -> list[list[dict]]:
    """CHOICES candidate jobs per slot, from a fixed per-workload seed."""
    rng = random.Random(f"measeq-bench/{workload}")
    return [[make(rng, scale) for _ in range(CHOICES)] for make in WORKLOADS[workload]]


def generate(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    """The seeded job list of one run: one candidate per slot, shuffled."""
    rng = random.Random(seed)
    jobs = [rng.choice(cands) for cands in catalogue(workload, scale)]
    rng.shuffle(jobs)
    return jobs


def job_key(job: dict) -> str:
    return hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- library jobs
# Each makes the public calls of one script or README example and returns the
# JSON-able result that script would write.


def _density_survey(set: str, window: int) -> dict:
    import measeq.density as de

    preds = {"ap(2,4)": lambda: de.ap_predicate(de.APSet.single(2, 4)),
             "squares": de.squares_predicate, "primes": de.primes_predicate,
             "blocks": de.blocks_predicate}
    pred = preds[set]()
    grid, n = [], 1000
    while n < window:
        grid.append(n)
        n *= 2
    grid.append(window)
    est = de.asymptotic_density_profile(pred, grid)
    cert = de.buck_upper(pred, de.FACTORIAL_LADDER, window)
    meas = de.buck_measurability_check(pred, de.FACTORIAL_LADDER, window)
    return {"value": est.value, "liminf": est.liminf_est, "limsup": est.limsup_est,
            "ratios": dict(zip(map(str, est.window_grid), est.ratios)),
            "cover_cost": float(cert.cost), "cover_level": cert.level,
            "gaps": [float(g) for g in meas.gaps], "measurable": meas.measurable}


def _transfer_experiments(clt_members: int, law_members: int, n: int) -> dict:
    import measeq.experiments as ex

    reports = {
        "clt": ex.clt_experiment(ex.vdc_family_primes(clt_members), N=n),
        "weak_law": ex.weak_law_experiment(ex.vdc_family_primes(law_members), eps=0.2,
                                           k_grid=[1, 5, 10, law_members], N=n),
    }
    return {name: asdict(rep) for name, rep in reports.items()}


def _additive_edf(decay: dict, pmax: int, n_small: int, n_large: int) -> dict:
    import measeq.dist as di
    import measeq.seqgen as sg

    if decay["kind"] == "geometric":
        base = decay["base"]
        fn = lambda p: float(base) ** -p  # noqa: E731
    else:
        s = decay["s"]
        fn = lambda p: float(p) ** -s  # noqa: E731
    spec = sg.AdditiveFunctionSpec.from_function(fn, pmax)
    F = di.edf(sg.gen_additive(n_small, spec))
    G = di.edf(sg.gen_additive(n_large, spec))
    return {"sup_distance": di.edf_sup_distance(F, G), "tail_bound": spec.tail_bound,
            "atoms": [int(F.breakpoints.size), int(G.breakpoints.size)]}


def _readme_sketch(base: int, n: int, a: int, b: int) -> dict:
    import measeq

    # windows above 2000 exceed convolve_edf's max_atoms: a CapacityError refusal
    v = measeq.VdcSequence(measeq.BaseChain.geometric(base, 1)).window(n)
    G = measeq.convolve_edf(measeq.edf(v), measeq.edf(v))
    d = measeq.polyadic_distance(a, b)
    return {"mean": measeq.moments(v).mean, "sum_atoms": int(G.breakpoints.size),
            "sum_mean": G.mean(), "sum_below_1": float(G(1.0)), "distance": repr(d)}


LIBRARY = {
    "density_survey": _density_survey,
    "transfer_experiments": _transfer_experiments,
    "additive_edf": _additive_edf,
    "readme_sketch": _readme_sketch,
}


# ------------------------------------------------------------------ execution


@dataclass
class Outcome:
    seconds: float
    status: int | str  # exit status, or "traceback"
    digest: str  # SHA-256 of the exit status and the report bytes
    error: str = ""
    out_bytes: int = 0


def _digest(status, *parts: bytes) -> str:
    h = hashlib.sha256(f"{status}\n".encode())
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def run_job(job: dict, workdir: Path) -> Outcome:
    """Run one job in this process; only the call itself is timed."""
    if "argv" in job:
        return _run_cli(job["argv"], workdir)
    return _run_lib(job["lib"], job["args"])


def _run_cli(argv: list[str], workdir: Path) -> Outcome:
    import measeq.cli

    out, csv = workdir / OUT, (workdir / OUT).with_suffix(".csv")
    for p in (out, csv):
        p.unlink(missing_ok=True)
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            status = measeq.cli.main(["--out", OUT, *argv])
    except SystemExit as e:  # argparse rejects the argv
        status = e.code
    except Exception as e:  # a traceback is a failed job, not a benchmark crash
        seconds = time.perf_counter() - t0
        return Outcome(seconds, "traceback", "", f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    parts = [p.read_bytes() if p.exists() else b"" for p in (out, csv)]
    return Outcome(seconds, status, _digest(status, *parts), err.getvalue().strip(),
                   sum(map(len, parts)))


def _run_lib(name: str, args: dict) -> Outcome:
    from measeq.errors import MeaseqError

    t0 = time.perf_counter()
    try:
        result = LIBRARY[name](**args)
    except MeaseqError as e:  # a refusal, like exit status 1 from the CLI
        seconds = time.perf_counter() - t0
        message = f"{type(e).__name__}: {e}"
        return Outcome(seconds, 1, _digest(1, message.encode()), message)
    except Exception as e:
        seconds = time.perf_counter() - t0
        return Outcome(seconds, "traceback", "", f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    data = (json.dumps(result, sort_keys=True, indent=2) + "\n").encode()
    return Outcome(seconds, 0, _digest(0, data), "", len(data))
