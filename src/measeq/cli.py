"""Command-line frontend: generators, density analyses, distribution
statistics, polyadic tools and experiments with reproducible JSON/CSV output.

Every run echoes its full config into the JSON report; `measeq rerun FILE`
replays an echoed config and reproduces the output bit for bit (same seed).
Exit codes: 0 success, 1 precondition/gate failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import density as de
from . import dist as di
from . import experiments as ex
from . import polyadic as po
from . import seqgen as sg
from .errors import ConfigError, MeaseqError


@dataclass
class RunConfig:
    """Everything needed to reproduce a run."""

    command: str
    verb: str | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    threads: int = 1
    tolerance: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config fields: {e}") from e


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, po.DyadicRational):
        return f"{obj.numerator}/2^{obj.exponent}"
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


# ---------------------------------------------------------------- spec parsing


def parse_sequence_spec(spec) -> object:
    """JSON sequence spec -> generator handle."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ConfigError(f"sequence spec is not valid JSON: {e}") from e
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("sequence spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "vdc":
        chain = spec.get("chain", {})
        if "moduli" in chain:
            return sg.VdcSequence(sg.BaseChain(tuple(chain["moduli"])))
        if "factorial" in chain:
            return sg.VdcSequence(sg.BaseChain.factorial(int(chain["factorial"])))
        ratio = int(chain.get("ratio", 2))
        levels = int(chain.get("levels", 1))
        return sg.VdcSequence(sg.BaseChain.geometric(ratio, levels))
    if kind == "additive":
        primes = {int(p): float(v) for p, v in spec.get("primes", {}).items()}
        return sg.AdditiveSequence(
            sg.AdditiveFunctionSpec(primes, float(spec.get("tail", 0.0)))
        )
    if kind == "simple":
        parts = [
            (de.APSet.single(int(p["r"]), int(p["m"])), float(p["c"]))
            for p in spec.get("parts", [])
        ]
        return sg.SimpleSequence(sg.SimpleSpec(parts))
    if kind == "periodic":
        return sg.PeriodicTable([float(v) for v in spec["values"]])
    if kind == "uniform":
        n = int(spec.get("n", 1000))
        return sg.PeriodicTable([i / n for i in range(n)])
    raise ConfigError(f"unknown sequence kind {kind!r}")


def parse_predicate_spec(spec, window_hint: int = 100_000) -> de.Predicate:
    """JSON predicate spec -> membership predicate."""
    if isinstance(spec, str) and spec.lstrip().startswith(("{", "[")):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ConfigError(f"predicate spec is not valid JSON: {e}") from e
    if isinstance(spec, str):
        named = {
            "squares": de.squares_predicate,
            "primes": de.primes_predicate,
            "blocks": de.blocks_predicate,
        }
        if spec not in named:
            raise ConfigError(f"unknown predicate {spec!r}")
        return named[spec]()
    if isinstance(spec, dict) and "ap" in spec:
        pairs = spec["ap"]
        if isinstance(pairs, dict):
            pairs = [pairs]
        return de.ap_predicate(
            de.APSet([(int(p["r"]), int(p["m"])) for p in pairs])
        )
    if isinstance(spec, dict) and "threshold" in spec:
        t = spec["threshold"]
        handle = parse_sequence_spec(t["seq"])
        w = handle.window(int(t.get("n", window_hint)))
        lo = float(t.get("lo", -np.inf))
        hi = float(t.get("hi", np.inf))
        return de.window_level_set(w, lo, hi)
    raise ConfigError(f"cannot interpret predicate spec {spec!r}")


def parse_ladder(text: str | None) -> tuple[int, ...]:
    if text is None or text == "factorial":
        return de.FACTORIAL_LADDER
    if text == "primorial":
        return de.PRIMORIAL_LADDER
    if text.startswith("factorial:"):
        k = text.split(":", 1)[1]
        top = len(de.FACTORIAL_LADDER)
        if not (k.isdecimal() and 1 <= int(k) <= top):
            raise ConfigError(f"bad ladder {text!r}: factorial:K needs an integer K in 1..{top}")
        return de.FACTORIAL_LADDER[: int(k)]
    try:
        return tuple(int(float(x)) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad ladder {text!r}: {e}") from e


def parse_grid(text: str | None) -> tuple[int, ...]:
    """Either 'A..B' (doubling from A up to B) or a comma list."""
    if text is None:
        text = "1e3..1e6"
    if ".." in text:
        a_str, b_str = text.split("..", 1)
        a, b = int(float(a_str)), int(float(b_str))
        if a < 1 or b < a:
            raise ConfigError(f"bad grid range {text!r}")
        grid = []
        n = a
        while n < b:
            grid.append(n)
            n *= 2
        grid.append(b)
        return tuple(grid)
    try:
        return tuple(int(float(x)) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad grid {text!r}: {e}") from e


def parse_indices(spec) -> np.ndarray:
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ConfigError(f"index spec is not valid JSON: {e}") from e
    if isinstance(spec, list):
        return np.asarray(spec, dtype=np.int64)
    if isinstance(spec, dict):
        n = int(spec.get("n", 10_000))
        kind = spec.get("kind", "identity")
        if kind == "identity":
            return ex.identity_indices(n)
        if kind == "pair_swap":
            return ex.pair_swap_indices(n)
        if kind == "even":
            return 2 * ex.identity_indices(n)
        raise ConfigError(f"unknown index kind {kind!r}")
    raise ConfigError(f"cannot interpret index spec {spec!r}")


_G_REGISTRY = {
    "x": lambda x: np.asarray(x, dtype=float),
    "x^2": lambda x: np.asarray(x, dtype=float) ** 2,
    "x^3": lambda x: np.asarray(x, dtype=float) ** 3,
    "1-x": lambda x: 1.0 - np.asarray(x, dtype=float),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def _lookup_g(name: str):
    if name not in _G_REGISTRY:
        raise ConfigError(f"unknown test function {name!r} (have {sorted(_G_REGISTRY)})")
    return _G_REGISTRY[name]


# ------------------------------------------------------------------- handlers


def _run_gen(cfg: RunConfig):
    handle = parse_sequence_spec(cfg.params["spec"])
    n = int(cfg.params.get("n", 100))
    w = handle.window(n)
    report = {
        "n": n,
        "mean": float(w.values.mean()),
        "bounds": list(w.bounds),
    }
    series = ("n,value", [(i + 1, v) for i, v in enumerate(w.values.tolist())])
    return report, series


def _run_density(cfg: RunConfig):
    p = cfg.params
    pred = parse_predicate_spec(p["pred"])
    grid = parse_grid(p.get("grid"))
    ladder = parse_ladder(p.get("ladder"))
    threshold = int(p.get("threshold", de.DEFAULT_THRESHOLD))
    window = int(p.get("window", min(grid[-1], 1_000_000)))
    tolerance = cfg.tolerance if cfg.tolerance is not None else 1e-3
    est = de.asymptotic_density_profile(pred, grid, tolerance=tolerance)
    report = {
        "value": est.value,
        "liminf": est.liminf_est,
        "limsup": est.limsup_est,
        "grid": list(est.window_grid),
        "certificates": [],
    }
    if isinstance(p["pred"], (dict,)) and "ap" in p["pred"]:
        pairs = p["pred"]["ap"]
        pairs = [pairs] if isinstance(pairs, dict) else pairs
        apset = de.APSet([(int(q["r"]), int(q["m"])) for q in pairs])
        report["exact_density"] = de.ap_union_density(apset)
    for cert in de.buck_upper_per_level(pred, ladder, window, threshold):
        report["certificates"].append(
            {
                "level": cert.level,
                "cost": cert.cost,
                "cost_float": float(cert.cost),
                "cover_size": len(cert.cover.progressions),
                "verified_upto": cert.verified_upto,
            }
        )
    meas = de.buck_measurability_check(pred, ladder, window, threshold)
    report["measurability"] = {
        "levels": list(meas.levels),
        "gaps": [float(g) for g in meas.gaps],
        "gap": float(meas.gap),
        "measurable": meas.measurable,
    }
    series = ("N,ratio", list(zip(est.window_grid, est.ratios)))
    return report, series


def _sequence_param(p: dict, key: str = "seq"):
    """The sequence handle under `key`; a missing one names its flag."""
    if key not in p:
        raise ConfigError(f"missing --{key} sequence spec")
    return parse_sequence_spec(p[key])


def _two_windows(p: dict) -> tuple[sg.SequenceWindow, sg.SequenceWindow, int]:
    n = int(p.get("n", 10_000))
    v = _sequence_param(p).window(n)
    w = _sequence_param(p, "seq2").window(n)
    return v, w, n


def _run_dist(cfg: RunConfig):
    p = cfg.params
    verb = cfg.verb
    if verb == "edf":
        w = _sequence_param(p).window(int(p.get("n", 10_000)))
        F = di.edf(w)
        report = {"points": int(F.breakpoints.size), "mean": F.mean()}
        series = (
            "x,mass_below,mass_upto",
            [
                (x, float(F(x)), float(c))
                for x, c in zip(F.breakpoints.tolist(), F.cum.tolist())
            ],
        )
        return report, series
    if verb == "moments":
        w = _sequence_param(p).window(int(p.get("n", 10_000)))
        s = di.moments(w)
        return (
            {
                "mean": s.mean,
                "dispersion": s.dispersion,
                "n_used": s.n_used,
                "stability_gap": s.stability_gap,
            },
            None,
        )
    if verb == "corr":
        v, w, _ = _two_windows(p)
        rho, alpha, beta = di.correlation(v, w)
        return {"rho": rho, "alpha": alpha, "beta": beta}, None
    if verb == "indep":
        v, w, _ = _two_windows(p)
        threshold = cfg.tolerance if cfg.tolerance is not None else 0.02
        kind = p.get("kind", "interval")
        if kind == "interval":
            try:
                grid = di.unit_interval_grid(int(p.get("cells", 10)))
            except ValueError as e:
                raise ConfigError(f"bad cells: {e}") from e
            rep = di.interval_independence_stat(
                v, w, grid=(grid, grid), verdict_threshold=threshold
            )
        elif kind == "functional":
            rep = di.statistical_independence_stat(v, w, verdict_threshold=threshold)
        else:
            raise ConfigError(f"unknown independence kind {kind!r}")
        return (
            {
                "statistic": rep.statistic,
                "family": rep.family,
                "threshold": rep.verdict_threshold,
                "passed": rep.passed,
            },
            ("g,g1,deviation", list(rep.table)),
        )
    if verb == "conv":
        seqs = p.get("seqs", [])
        if len(seqs) != 2:
            raise ConfigError("conv needs exactly two sequence specs")
        n = int(p.get("n", 1000))
        edfs = []
        for s in seqs:
            handle = parse_sequence_spec(s)
            edfs.append(di.edf(handle.window(n)))
        G = di.convolve_edf(*edfs)
        xs = [float(x) for x in p.get("eval", [0.5, 1.0])]
        report = {
            "atoms": int(G.breakpoints.size),
            "mean": G.mean(),
            "values": {str(x): float(G(x)) for x in xs},
        }
        return report, None
    raise ConfigError(f"unknown dist verb {verb!r}")


def _run_polyadic(cfg: RunConfig):
    p = cfg.params
    verb = cfg.verb
    if verb == "dist":
        a, b = int(p["a"]), int(p["b"])
        d = po.polyadic_distance(a, b)
        frac = d.as_fraction()
        return (
            {
                "a": a,
                "b": b,
                "exact": f"{frac.numerator}/{frac.denominator}",
                "decimal": float(d),
                "display": f"{frac.numerator}/{frac.denominator} = {float(d)}",
            },
            None,
        )
    if verb == "profile":
        handle = _sequence_param(p)
        ladder = parse_ladder(p.get("ladder"))
        eps_list = [float(x) for x in p.get("eps", [0.1, 0.01])]
        window = int(p["window"]) if "window" in p else None
        prof = po.p_continuity_profile(handle, eps_list, ladder, window_N=window)
        return (
            {
                "witnesses": {str(e): m for e, m in prof.pairs},
                "failures": list(prof.failures),
                "window_used": prof.window_used,
                "class_ranges": {str(m): r for m, r in prof.class_ranges},
            },
            None,
        )
    if verb == "integrate":
        handle = _sequence_param(p)
        ladder = parse_ladder(p.get("ladder"))
        trace = po.haar_integral(handle, ladder)
        report = {"value": trace.value, "levels": list(trace.levels)}
        series = ("level,mean", list(zip(trace.levels, trace.means)))
        return report, series
    if verb == "sample":
        levels = parse_ladder(p.get("levels", "factorial"))
        pt = po.sample_omega(cfg.seed, levels)
        return (
            {"levels": list(pt.levels), "residues": list(pt.residues)},
            None,
        )
    raise ConfigError(f"unknown polyadic verb {verb!r}")


def _exp_config(p: dict) -> dict:
    raw = p.get("config", {})
    if isinstance(raw, str):
        text = raw
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"experiment config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    return raw


def _family_from(c: dict):
    if "primes" in c:
        return ex.vdc_family_primes(int(c["primes"]))
    if "bases" in c:
        return ex.vdc_family([int(b) for b in c["bases"]])
    raise ConfigError("experiment config needs 'primes' or 'bases'")


def _run_exp(cfg: RunConfig):
    c = _exp_config(cfg.params)
    verb = cfg.verb
    if verb == "niven":
        rep = ex.niven_ud_test(
            parse_indices(c.get("indices", {"kind": "identity", "n": 10_000})),
            M=int(c.get("M", 8)),
            threshold=float(c.get("threshold", 0.05)),
        )
    elif verb == "resample":
        handle = parse_sequence_spec(c["seq"])
        v = handle.window(int(c.get("n", 100_000)))
        rep = ex.resample_invariance(
            v,
            parse_indices(c["indices"]),
            eps=float(c.get("eps", 0.01)),
            delta=float(c.get("delta", 0.05)),
        )
    elif verb == "clt":
        rep = ex.clt_experiment(
            _family_from(c),
            N=int(c.get("n", 10_000)),
            tolerance=float(c.get("tolerance", 0.05)),
        )
    elif verb == "weaklaw":
        rep = ex.weak_law_experiment(
            _family_from(c),
            eps=float(c.get("eps", 0.2)),
            k_grid=[int(k) for k in c.get("k_grid", [1, 5, 10])],
            N=int(c.get("n", 10_000)),
        )
    elif verb == "metric-ud":
        rep = ex.metric_ud_experiment(
            _family_from(c),
            n_alphas=int(c.get("n_alphas", 20)),
            seed=cfg.seed,
            h_max=int(c.get("h_max", 3)),
            threshold=float(c.get("threshold", 0.25)),
        )
    elif verb == "sss":
        g_names = c.get("g", ["x", "x"])
        rep = ex.composed_independence_check(
            _family_from(c),
            [tuple(_lookup_g(name) for name in g_names)],
            parse_indices(c.get("indices", {"kind": "identity", "n": 100_000})),
        )
    else:
        raise ConfigError(f"unknown experiment verb {verb!r}")
    report = {
        "name": rep.name,
        "parameters": rep.parameters,
        "statistics": rep.statistics,
        "passed": rep.passed,
        "seed": rep.seed,
    }
    headers = {
        "niven": "modulus,deviation",
        "resample": None,
        "clt": "n,kolmogorov_distance",
        "weaklaw": "k,observed,bound",
        "metric-ud": "weyl_sum_max",
        "sss": "tuple,deviation",
    }
    header = headers[verb]
    if header is None or not rep.trace:
        return report, None
    rows = [(t,) if not isinstance(t, tuple) else t for t in rep.trace]
    return report, (header, rows)


_HANDLERS = {
    "gen": _run_gen,
    "density": _run_density,
    "dist": _run_dist,
    "polyadic": _run_polyadic,
    "exp": _run_exp,
}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a validated config; returns (exit_status, full_output_dict)."""
    if cfg.command not in _HANDLERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    report, series = _HANDLERS[cfg.command](cfg)
    output = {"config": cfg.to_dict(), "report": _jsonable(report)}
    _emit(cfg, output, series)
    return 0, output


def _csv_lines(series) -> list[str]:
    header, rows = series
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return lines


def _emit(cfg: RunConfig, output: dict, series) -> None:
    text = json.dumps(output, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        path = Path(cfg.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if series is not None:
            path.with_suffix(".csv").write_text("\n".join(_csv_lines(series)) + "\n")
    elif cfg.fmt == "csv":
        if series is None:
            raise ConfigError("this verb produces no CSV series; use --format json")
        sys.stdout.write("\n".join(_csv_lines(series)) + "\n")
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- argparse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="measeq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for sampling runs")
    ap.add_argument("--out", help="output path; JSON there, CSV series beside it")
    ap.add_argument("--format", default="json", choices=("json", "csv"))
    ap.add_argument("--threads", type=int, default=1,
                    help="worker cap (propagated; execution is currently serial)")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="override for verdict tolerances")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a sequence window")
    gen.add_argument("--spec", required=True, help='e.g. {"kind":"vdc","chain":{"ratio":2,"levels":20}}')
    gen.add_argument("--n", type=int, default=100)

    den = sub.add_parser("density", help="density profile, covers and measurability")
    den.add_argument("--pred", required=True,
                     help='APSet JSON {"ap":{"r":2,"m":4}}, "squares", "primes", "blocks", or {"threshold":...}')
    den.add_argument("--grid", help='window grid "1e3..1e6" (doubling) or comma list')
    den.add_argument("--ladder", help='"factorial" (default), "primorial", "factorial:K", or comma list')
    den.add_argument("--threshold", type=int, default=de.DEFAULT_THRESHOLD,
                     help="persistence threshold for residue classification")
    den.add_argument("--window", type=int, help="window size for cover search")

    ds = sub.add_parser("dist", help="distribution statistics")
    ds.add_argument("verb", choices=("edf", "moments", "corr", "indep", "conv"))
    ds.add_argument("--seq", help="sequence spec JSON")
    ds.add_argument("--seq2", help="second sequence spec JSON")
    ds.add_argument("--uniform", action="append_const", dest="uniforms", const=True,
                    help="use a uniform grid distribution (conv only; repeatable)")
    ds.add_argument("--n", type=int, default=None,
                    help="window length (default 10000; 1000 for conv)")
    ds.add_argument("--cells", type=int, default=10, help="interval grid cells per axis")
    ds.add_argument("--kind", choices=("interval", "functional"), default="interval")
    ds.add_argument("--eval", help="comma list of evaluation points (conv)")

    pl = sub.add_parser("polyadic", help="metric, continuity, integration, sampling")
    pl.add_argument("verb", choices=("dist", "profile", "integrate", "sample"))
    pl.add_argument("operands", nargs="*", help="integers a b for the dist verb")
    pl.add_argument("--seq", help="sequence spec JSON")
    pl.add_argument("--eps", help="comma list of epsilons for profile")
    pl.add_argument("--ladder", help="ladder spec")
    pl.add_argument("--levels", help="ladder spec for sampling")
    pl.add_argument("--window", type=int)

    xp = sub.add_parser("exp", help="composite experiments")
    xp.add_argument("verb", choices=("niven", "resample", "clt", "weaklaw", "metric-ud", "sss"))
    xp.add_argument("--config", default="{}", help="experiment JSON (or @file)")

    rr = sub.add_parser("rerun", help="replay an echoed config bit-identically")
    rr.add_argument("file", help="JSON output (or bare config) from a previous run")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = dict(
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        threads=args.threads,
        tolerance=args.tolerance,
    )
    cmd = args.command
    if cmd == "gen":
        return RunConfig("gen", None, {"spec": json.loads(args.spec), "n": args.n}, **base)
    if cmd == "density":
        params = {"pred": _maybe_json(args.pred), "threshold": args.threshold}
        if args.grid:
            params["grid"] = args.grid
        if args.ladder:
            params["ladder"] = args.ladder
        if args.window:
            params["window"] = args.window
        return RunConfig("density", None, params, **base)
    if cmd == "dist":
        n = args.n if args.n is not None else (1000 if args.verb == "conv" else 10_000)
        params: dict = {"n": n}
        if args.verb == "conv":
            seqs = []
            for _ in args.uniforms or []:
                seqs.append({"kind": "uniform", "n": n})
            for s in (args.seq, args.seq2):
                if s:
                    seqs.append(json.loads(s))
            params["seqs"] = seqs
            if args.eval:
                params["eval"] = [float(x) for x in args.eval.split(",")]
        else:
            if args.seq:
                params["seq"] = json.loads(args.seq)
            if args.seq2:
                params["seq2"] = json.loads(args.seq2)
            params["cells"] = args.cells
            params["kind"] = args.kind
        return RunConfig("dist", args.verb, params, **base)
    if cmd == "polyadic":
        params = {}
        if args.verb == "dist":
            if len(args.operands) != 2:
                raise ConfigError("polyadic dist needs two integers: a b")
            params["a"], params["b"] = (int(x) for x in args.operands)
        if args.seq:
            params["seq"] = json.loads(args.seq)
        if args.eps:
            params["eps"] = [float(x) for x in args.eps.split(",")]
        if args.ladder:
            params["ladder"] = args.ladder
        if args.levels:
            params["levels"] = args.levels
        if args.window:
            params["window"] = args.window
        return RunConfig("polyadic", args.verb, params, **base)
    if cmd == "exp":
        return RunConfig("exp", args.verb, {"config": _maybe_json(args.config)}, **base)
    raise ConfigError(f"unknown command {cmd!r}")


def _maybe_json(text: str):
    if isinstance(text, str) and text.lstrip().startswith(("{", "[")):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON argument: {e}") from e
    return text


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            payload = json.loads(Path(args.file).read_text())
            cfg_dict = payload.get("config", payload)
            status, _ = run(RunConfig.from_dict(cfg_dict))
            return status
        cfg = _config_from_args(args)
        status, _ = run(cfg)
        return status
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MeaseqError as e:
        print(f"run refused: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
