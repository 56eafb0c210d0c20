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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from decimal import Decimal
from functools import cache
from fractions import Fraction
from math import isfinite, isinf, isnan
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, get_type_hints

import numpy as np

from . import density as de
from . import dist as di
from . import experiments as ex
from . import polyadic as po
from . import seqgen as sg
from .csvtext import csv_text
from .errors import ConfigError, DomainError, MeaseqError


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

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"bad config field {name!r}: {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config fields: {e}") from e


_FIELD_TYPES = get_type_hints(RunConfig)


def _exact(q: Fraction) -> str:
    """q as numerator/denominator in full, past str()'s 4300-digit limit."""
    return f"{po.int_text(q.numerator)}/{po.int_text(q.denominator)}"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _exact(obj)
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


@contextmanager
def _reading(what: str, spec):
    """Turn an unreadable `spec`, or a malformed field of it, into one
    ConfigError naming the spec."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, OSError) as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ConfigError(f"bad {what} {spec!r}: {reason}") from e


def _count(x) -> int:
    if int(x) != x or x < 1:
        raise ValueError(f"need a positive integer, got {x!r}")
    return int(x)


def _exact_int(text: str) -> int:
    """An integer literal, or float notation such as 1e3 that is an exact integer."""
    try:
        return int(text)
    except ValueError:
        x = float(text)
    if not x.is_integer() or Decimal(text) != Decimal(x):
        raise ValueError(f"need an exact integer, got {text!r}")
    return int(x)


def parse_sequence_spec(spec) -> object:
    """JSON sequence spec -> the sequence (`eval`, `window`, `witness`)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("sequence spec must be an object with a 'kind'")
    kind = spec["kind"]
    with _reading("sequence spec", spec):
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
            return sg.AdditiveFunctionSpec(primes, float(spec.get("tail", 0.0)))
        if kind == "simple":
            parts = [
                (de.APSet.single(int(p["r"]), int(p["m"])), float(p["c"]))
                for p in spec.get("parts", [])
            ]
            return sg.SimpleSpec(parts)
        if kind == "periodic":
            return sg.PeriodicTable([float(v) for v in spec["values"]])
        if kind == "uniform":
            n = int(spec.get("n", 1000))
            return sg.PeriodicTable([i / n for i in range(n)])
    raise ConfigError(f"unknown sequence kind {kind!r}")


def parse_predicate_spec(spec, n: int):
    """JSON predicate spec -> (membership predicate, its APSet or None); an AP
    union keeps its progressions, whose density is known exactly. A threshold
    spec that gives no window length "n" is windowed to `n`."""
    if isinstance(spec, str):
        named = {
            "squares": de.squares_predicate,
            "primes": de.primes_predicate,
            "blocks": de.blocks_predicate,
        }
        if spec not in named:
            raise ConfigError(f"unknown predicate {spec!r}")
        return named[spec](), None
    if isinstance(spec, dict) and "ap" in spec:
        with _reading("predicate spec", spec):
            pairs = [spec["ap"]] if isinstance(spec["ap"], dict) else spec["ap"]
            apset = de.APSet([(int(p["r"]), int(p["m"])) for p in pairs])
        return de.ap_predicate(apset), apset
    if isinstance(spec, dict) and "threshold" in spec:
        t = spec["threshold"]
        with _reading("predicate spec", spec):
            handle = parse_sequence_spec(t["seq"])
            n = _count(t.get("n", n))
            lo = float(t.get("lo", -np.inf))
            hi = float(t.get("hi", np.inf))
        return de.window_level_set(handle.window(n), lo, hi), None
    raise ConfigError(f"cannot interpret predicate spec {spec!r}")


def parse_ladder(text: str) -> tuple[int, ...]:
    if text == "factorial":
        return de.FACTORIAL_LADDER
    if text == "primorial":
        return de.PRIMORIAL_LADDER
    if text.startswith("factorial:"):
        k = text.split(":", 1)[1]
        top = len(de.FACTORIAL_LADDER)
        if not (k.isdecimal() and 1 <= int(k) <= top):
            raise ConfigError(f"bad ladder {text!r}: factorial:K needs an integer K in 1..{top}")
        return de.FACTORIAL_LADDER[: int(k)]
    with _reading("ladder", text):
        return tuple(_count(_exact_int(x)) for x in text.split(","))


def parse_density_ladder(text: str) -> tuple[int, ...]:
    """A ladder whose moduli fit the int64 residues of `density`."""
    levels = parse_ladder(text)
    if max(levels) > de.MAX_MODULUS:
        raise ConfigError(f"bad ladder {text!r}: density moduli must be at most 2**63 - 1")
    return levels


def parse_chain(text: str) -> tuple[int, ...]:
    """A ladder that increases by divisibility, as `sample_omega` needs."""
    levels = parse_ladder(text)
    with _reading("levels", text):
        po.ladder_steps(levels)
    return levels


def parse_grid(text: str) -> tuple[int, ...]:
    """Either 'A..B' (doubling from A up to B) or an increasing comma list."""
    with _reading("grid", text):
        if ".." in text:
            a_str, b_str = text.split("..", 1)
            a, b = _exact_int(a_str), _exact_int(b_str)
            if a < 1 or b < a:
                raise ValueError("need 1 <= A <= B")
            grid = []
            n = a
            while n < b:
                grid.append(n)
                n *= 2
            grid.append(b)
            return tuple(grid)
        grid = tuple(_exact_int(x) for x in text.split(","))
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("need positive, strictly increasing windows")
        return grid


def parse_indices(spec) -> np.ndarray:
    with _reading("index spec", spec):
        if isinstance(spec, list):
            return np.asarray(spec, dtype=np.int64)
        n = int(spec.get("n", 10_000))
        kind = spec.get("kind", "identity")
        if kind == "identity":
            return ex.identity_indices(n)
        if kind == "pair_swap":
            return ex.pair_swap_indices(n)
        if kind == "even":
            return 2 * ex.identity_indices(n)
    raise ConfigError(f"unknown index kind {kind!r}")


def _exp_config(raw) -> dict:
    """The experiment config object: inline JSON, or JSON in the file after '@'."""
    if isinstance(raw, str):
        with _reading("experiment config", raw):
            raw = json.loads(Path(raw[1:]).read_text() if raw.startswith("@") else raw)
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    return raw


def _cell_grid(k: int):
    try:
        return di.unit_interval_grid(k)
    except ValueError as e:
        raise ConfigError(f"bad cells: {e}") from e


def _two_handles(specs: list) -> list:
    if len(specs) != 2:
        raise ConfigError("conv needs exactly two sequence specs")
    return [parse_sequence_spec(s) for s in specs]


_G_REGISTRY = {
    **dict(di.DEFAULT_TEST_FAMILY[:3]),
    "1-x": lambda x: 1.0 - np.asarray(x, dtype=float),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


# ------------------------------------------------------------ parameter table


@dataclass(frozen=True)
class Param:
    """A verb's parameter: flag `--name` and key in the echoed params (or the
    experiment config), holding JSON of `types` (a list of `items`) within
    `choices` and `least`, which `convert` turns into the handler's value.
    A list holds at least `min_items` items, and exactly `n_items(resolved)`
    where that function of the values resolved before it is not None.
    An absent one takes `default` (echoed form, or a function of the values
    resolved before it), echoed from the command line only if `echo` is set.
    `flags` and `read(args, params)` replace `--name` where argv differs."""

    name: str
    types: tuple[type, ...]
    help: str
    default: object = None
    required: bool = False
    echo: bool = False
    items: type | None = None
    choices: tuple = ()
    least: int | None = None
    min_items: int = 0
    n_items: Callable | None = None
    convert: Callable | None = None
    flags: dict | None = None
    read: Callable | None = None
    keys: tuple = ()

    def cli_flags(self) -> dict:
        return self.flags or {f"--{self.name}": {}}

    def label(self, where: str = "--") -> str:
        flag = next(iter(self.cli_flags()))
        return f"{where}{self.name}" if flag.startswith("-") else flag.upper()


@dataclass(frozen=True)
class Verb:
    """A verb's parameters and its handler: (resolved params, RunConfig) ->
    (report, CSV series or None); a series is (header, columns)."""

    help: str
    params: tuple[Param, ...]
    run: Callable


def _typed(value, types: tuple[type, ...], label: str):
    """`value` if it is JSON of `types`; an integral number counts as an
    integer, an integer as a number, a boolean as neither."""
    if int in types and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif float in types and type(value) is int:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join(t.__name__ for t in types)
        got = json.dumps(value, default=repr)
        raise ConfigError(f"bad {label}: expected {expected}, got {got}")
    return value


def _check(p: Param, value, label: str, resolved: SimpleNamespace):
    value = _typed(value, p.types, label)
    if p.items:
        value = [_typed(x, (p.items,), f"{label} item") for x in value]
        if len(value) < p.min_items:
            raise ConfigError(f"bad {label}: need {p.min_items} or more items, got {len(value)}")
        want = p.n_items(resolved) if p.n_items else None
        if want is not None and len(value) != want:
            raise ConfigError(f"bad {label}: need {want} items ({p.help}), got {len(value)}")
    for x in value if p.items else [value]:
        if p.choices and x not in p.choices:
            raise ConfigError(f"bad {label}: expected one of {list(p.choices)}, got {x!r}")
        if p.least is not None and x < p.least:
            raise ConfigError(f"bad {label}: need at least {p.least}, got {x!r}")
    return value


def _resolve(params: tuple[Param, ...], given: dict, where: str = "--") -> SimpleNamespace:
    """Check echoed values against their table and convert them; run and
    rerun both come through here."""
    declared = {p.name for p in params}
    for key in given:
        if key not in declared:
            raise ConfigError(f"unknown parameter {where}{key}")
    out = SimpleNamespace()
    for p in params:
        label = p.label(where)
        value = given.get(p.name)
        if value is None:
            if p.required:
                raise ConfigError(f"missing {label} {p.help}")
            value = p.default(out) if callable(p.default) else p.default
        if value is not None:
            value = _check(p, value, label, out)
            if p.keys:
                value = _resolve(p.keys, _exp_config(value), f"{label} key ")
            elif p.convert is not None:
                value = p.convert(value)
        setattr(out, p.name, value)
    return out


def _from_text(p: Param, text: str):
    """A command-line value as the JSON value that is echoed."""
    with _reading(p.label(), text):
        if p.types == (int,):
            return int(text)
        if p.items is float:
            return [float(x) for x in text.split(",")]
        if dict in p.types and (str not in p.types or text.lstrip().startswith(("{", "["))):
            return json.loads(text)
        return text


_SEQ = Param("seq", (dict,), "sequence spec", required=True, convert=parse_sequence_spec)
_SEQ2 = replace(_SEQ, name="seq2")
_N = Param("n", (int,), "window length", default=10_000, echo=True, least=1)
# edf, moments and corr ignore --cells and --kind; configs echoed with them replay unchanged
_CELLS = Param("cells", (int,), "interval cells per axis", default=10, echo=True,
               convert=_cell_grid)
_KIND = Param("kind", (str,), "independence statistic", default="interval", echo=True,
              choices=("interval", "functional"))
_LADDER = Param("ladder", (str,), 'modulus ladder: "factorial", "primorial", "factorial:K" '
                "or a comma list", default="factorial", convert=parse_ladder)
_INDICES = Param("indices", (list, dict), "index spec", required=True, convert=parse_indices)
_FAMILY = (Param("primes", (int,), "family over the first K primes", least=1),
           Param("bases", (list,), "family over these bases", items=int, least=2, min_items=1))


def _conv_seqs(args: argparse.Namespace, params: dict) -> list:
    """The factors of `dist conv`: each --uniform at the window length, then
    --seq and --seq2."""
    uniform = [{"kind": "uniform", "n": params["n"]} for _ in range(args.uniform or 0)]
    given = ((_SEQ, args.seq), (_SEQ2, args.seq2))
    return uniform + [_from_text(p, text) for p, text in given if text]


# ------------------------------------------------------------------- handlers


def _run_gen(v, cfg: RunConfig):
    w = v.spec.window(v.n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(w.values.mean())
    # values at one infinity have that mean; finite values must have a finite one
    if isnan(mean) or (isinf(mean) and np.isfinite(w.bounds).all()):
        raise DomainError("sums of window values overflow or meet +inf and -inf: no mean")
    report = {
        "n": v.n,
        "mean": mean,
        "bounds": list(w.bounds),
    }
    return report, ("n,value", [range(1, len(w) + 1), w.values])


def _run_density(v, cfg: RunConfig):
    pred, apset = parse_predicate_spec(v.pred, max(v.grid[-1], v.window))
    tolerance = cfg.tolerance if cfg.tolerance is not None else 1e-3
    # first, so that an AP union past the inclusion-exclusion term limit refuses before the survey
    report = {} if apset is None else {"exact_density": de.ap_union_density(apset)}
    est, certs, meas = de.survey(pred, v.grid, v.ladder, v.window, v.threshold, tolerance)
    report |= {
        "value": est.value,
        "liminf": est.liminf_est,
        "limsup": est.limsup_est,
        "grid": list(est.window_grid),
        "certificates": [
            {
                "level": cert.level,
                "cost": cert.cost,
                "cost_float": float(cert.cost),
                "cover_size": len(cert.cover),
                "verified_upto": cert.verified_upto,
            }
            for cert in certs
        ],
        "measurability": {
            "levels": list(meas.levels),
            "gaps": [float(g) for g in meas.gaps],
            "gap": float(meas.gap),
            "measurable": meas.measurable,
        },
    }
    return report, ("N,ratio", [est.window_grid, est.ratios])


def _run_edf(v, cfg: RunConfig):
    F = di.edf(v.seq.window(v.n))
    report = {"points": int(F.breakpoints.size), "mean": F.mean()}
    # breakpoints increase strictly, so F(x_i) = padded[i]: the masses shifted down a row
    return report, ("x,mass_below,mass_upto", [F.breakpoints, F.padded[:-1], F.cum])


def _run_moments(v, cfg: RunConfig):
    return asdict(di.moments(v.seq.window(v.n))), None


def _run_corr(v, cfg: RunConfig):
    return di.correlation(v.seq.window(v.n), v.seq2.window(v.n))._asdict(), None


def _run_indep(v, cfg: RunConfig):
    a, b = v.seq.window(v.n), v.seq2.window(v.n)
    threshold = cfg.tolerance if cfg.tolerance is not None else 0.02
    if v.kind == "interval":
        rep = di.interval_independence_stat(
            a, b, grid=(v.cells, v.cells), verdict_threshold=threshold
        )
    else:
        rep = di.statistical_independence_stat(a, b, verdict_threshold=threshold)
    report = {
        "statistic": rep.statistic,
        "family": rep.family,
        "threshold": rep.verdict_threshold,
        "passed": rep.passed,
    }
    return report, ("g,g1,deviation", list(zip(*rep.table)))


def _run_conv(v, cfg: RunConfig):
    G = di.convolve_edf(*(di.edf(h.window(v.n)) for h in v.seqs))
    report = {
        "atoms": int(G.breakpoints.size),
        "mean": G.mean(),
        "values": {str(x): float(G(x)) for x in v.eval},
    }
    return report, None


def _run_polyadic_dist(v, cfg: RunConfig):
    d = po.polyadic_distance(v.a, v.b)
    exact = _exact(d)
    value = float(d)
    report = {
        "a": v.a,
        "b": v.b,
        "exact": exact,
        "decimal": value,
        "display": f"{exact} = {value}",
    }
    return report, None


def _run_profile(v, cfg: RunConfig):
    prof = po.p_continuity_profile(v.seq, v.eps, v.ladder, window_N=v.window)
    report = {
        "witnesses": {str(e): m for e, m in prof.pairs},
        "failures": list(prof.failures),
        "window_used": prof.window_used,
        "class_ranges": {str(m): r for m, r in prof.class_ranges},
    }
    return report, None


def _run_integrate(v, cfg: RunConfig):
    trace = po.haar_integral(v.seq, v.ladder)
    report = {"value": trace.value, "levels": list(trace.levels)}
    return report, ("level,mean", [trace.levels, trace.means])


def _run_sample(v, cfg: RunConfig):
    return asdict(po.sample_omega(cfg.seed, v.levels)), None


def _members(c) -> int | None:
    """Size of the family that `_family` builds from the keys resolved so far."""
    if c.primes is not None:
        return c.primes
    return None if c.bases is None else len(c.bases)


def _family(c):
    if c.primes is not None:
        return ex.vdc_family_primes(c.primes)
    if c.bases is not None:
        return ex.vdc_family(c.bases)
    raise ConfigError("experiment config needs 'primes' or 'bases'")


def _experiment(help: str, header: str | None, keys: tuple[Param, ...], run: Callable) -> Verb:
    """An `exp` verb taking a config object with `keys`; `run(config, cfg)`
    gives an ExperimentReport, whose trace rows are the series under `header`."""

    def handler(v, cfg: RunConfig):
        rep = run(v.config, cfg)
        report = asdict(rep)
        del report["trace"]
        if header is None or not rep.trace:
            return report, None
        columns = list(zip(*rep.trace)) if isinstance(rep.trace[0], tuple) else [rep.trace]
        return report, (header, columns)

    config = Param("config", (str, dict), "experiment JSON object, or @file", default={},
                   echo=True, keys=keys)
    return Verb(help, (config,), handler)


_COMMANDS: dict[str, tuple[str, dict[str | None, Verb]]] = {
    "gen": ("generate a sequence window", {None: Verb("", (
        replace(_SEQ, name="spec"),
        replace(_N, default=100),
    ), _run_gen)}),
    "density": ("density profile, covers and measurability", {None: Verb("", (
        Param("pred", (str, dict), "predicate spec", required=True),
        Param("grid", (str,), 'window grid "A..B" (doubling) or a comma list',
              default="1e3..1e6", convert=parse_grid),
        replace(_LADDER, convert=parse_density_ladder),
        Param("threshold", (int,), "hits that make a residue class persistent",
              default=de.DEFAULT_THRESHOLD, echo=True, least=1),
        Param("window", (int,), "window of the cover search", least=1,
              default=lambda r: min(r.grid[-1], 1_000_000)),
    ), _run_density)}),
    "dist": ("distribution statistics", {
        "edf": Verb("step distribution", (_SEQ, _N, _CELLS, _KIND), _run_edf),
        "moments": Verb("mean, dispersion, stability", (_SEQ, _N, _CELLS, _KIND), _run_moments),
        "corr": Verb("correlation and regression", (_SEQ, _SEQ2, _N, _CELLS, _KIND), _run_corr),
        "indep": Verb("independence statistic", (_SEQ, _SEQ2, _N, _CELLS, _KIND), _run_indep),
        "conv": Verb("convolution of two step distributions", (
            replace(_N, default=1000),
            Param("seqs", (list,), "sequence specs", required=True, read=_conv_seqs,
                  convert=_two_handles, flags={
                      "--uniform": dict(action="count", help="uniform grid factor (repeatable)"),
                      "--seq": dict(help="sequence spec"),
                      "--seq2": dict(help="second sequence spec"),
                  }),
            Param("eval", (list,), "comma list of points", default=[0.5, 1.0], items=float),
        ), _run_conv),
    }),
    "polyadic": ("metric, continuity, integration, sampling", {
        "dist": Verb("exact polyadic distance", (
            Param("a", (int,), "integer", required=True, flags={"a": dict(nargs="?")}),
            Param("b", (int,), "integer", required=True, flags={"b": dict(nargs="?")}),
        ), _run_polyadic_dist),
        "profile": Verb("congruence-continuity profile", (
            _SEQ,
            Param("eps", (list,), "comma list of epsilons", default=[0.1, 0.01], items=float),
            _LADDER,
            replace(_N, name="window", default=None, echo=False),
        ), _run_profile),
        "integrate": Verb("Haar integral along the ladder", (_SEQ, _LADDER), _run_integrate),
        "sample": Verb("Haar-uniform residue chain", (
            replace(_LADDER, name="levels", convert=parse_chain, help='divisibility chain: '
                    '"factorial", "primorial", "factorial:K" or a comma list'),
        ), _run_sample),
    }),
    "exp": ("composite experiments", {
        "niven": _experiment("residue frequencies of indices", "modulus,deviation", (
            replace(_INDICES, required=False, default={"kind": "identity", "n": 10_000}),
            Param("M", (int,), "largest modulus", default=8, least=1),
            Param("threshold", (float,), "deviation threshold", default=0.05),
        ), lambda c, cfg: ex.niven_ud_test(c.indices, M=c.M, threshold=c.threshold)),
        "resample": _experiment("mean invariance under resampling", None, (
            _SEQ,
            replace(_N, default=100_000),
            _INDICES,
            Param("eps", (float,), "mean tolerance", default=0.01),
            Param("delta", (float,), "continuity budget", default=0.05),
        ), lambda c, cfg: ex.resample_invariance(
            c.seq.window(c.n), c.indices, eps=c.eps, delta=c.delta
        )),
        "clt": _experiment("central-limit transfer", "n,kolmogorov_distance", (
            *_FAMILY,
            _N,
            Param("tolerance", (float,), "Kolmogorov distance tolerance", default=0.05),
        ), lambda c, cfg: ex.clt_experiment(_family(c), N=c.n, tolerance=c.tolerance)),
        "weaklaw": _experiment("weak-law transfer", "k,observed,bound", (
            *_FAMILY,
            Param("eps", (float,), "deviation size", default=0.2),
            Param("k_grid", (list,), "averaging sizes", default=[1, 5, 10], items=int, least=1,
                  min_items=1),
            _N,
        ), lambda c, cfg: ex.weak_law_experiment(_family(c), eps=c.eps, k_grid=c.k_grid, N=c.n)),
        "metric-ud": _experiment("exponential sums at sampled points", "weyl_sum_max", (
            *_FAMILY,
            Param("n_alphas", (int,), "sampled points", default=20, least=1),
            Param("h_max", (int,), "largest frequency", default=3, least=1),
            Param("threshold", (float,), "flatness threshold", default=0.25),
        ), lambda c, cfg: ex.metric_ud_experiment(
            _family(c), n_alphas=c.n_alphas, seed=cfg.seed, h_max=c.h_max, threshold=c.threshold
        )),
        "sss": _experiment("product means of composed families", "tuple,deviation", (
            *_FAMILY,
            Param("g", (list,), "test function names, one per member", default=["x", "x"],
                  items=str, choices=tuple(_G_REGISTRY), n_items=_members,
                  convert=lambda names: tuple(_G_REGISTRY[g] for g in names)),
            replace(_INDICES, required=False, default={"kind": "identity", "n": 100_000}),
        ), lambda c, cfg: ex.composed_independence_check(_family(c), [c.g], c.indices)),
    }),
}


def _verb(command: str, verb: str | None) -> Verb:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    verbs = _COMMANDS[command][1]
    if verb not in verbs:
        raise ConfigError(f"unknown {command} verb {verb!r}")
    return verbs[verb]


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Validate and dispatch a config; returns (exit_status, full_output_dict)."""
    spec = _verb(cfg.command, cfg.verb)
    if cfg.fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    report, series = spec.run(_resolve(spec.params, cfg.params), cfg)
    output = {"config": cfg.to_dict(), "report": _jsonable(report)}
    _emit(cfg, output, series)
    return 0, output


def _non_finite(obj, path: str = "") -> str | None:
    """The key path and value of the first float, in report order, that JSON
    cannot hold (NaN or +-inf), or None."""
    if isinstance(obj, float):
        return None if isfinite(obj) else f"{path} is {obj}"
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, at) for at, v in items)), None)


def _emit(cfg: RunConfig, output: dict, series) -> None:
    try:
        text = json.dumps(output, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(
            f"{_non_finite(output)}: a JSON report holds no NaN or Infinity"
        ) from None
    if cfg.out:
        path = Path(cfg.out)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            if series is not None:
                path.with_suffix(".csv").write_text(csv_text(series))
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e}") from e
    elif cfg.fmt == "csv":
        if series is None:
            raise ConfigError("this verb produces no CSV series; use --format json")
        sys.stdout.write(csv_text(series))
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- argparse


@cache
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
    for command, (text, verbs) in _COMMANDS.items():
        parser = sub.add_parser(command, help=text)
        if None not in verbs:
            by_verb = parser.add_subparsers(dest="verb", required=True)
        for verb, spec in verbs.items():
            vp = parser if verb is None else by_verb.add_parser(verb, help=spec.help)
            for p in spec.params:
                text = f"{p.help} (required)" if p.required else p.help
                for flag, kwargs in p.cli_flags().items():
                    vp.add_argument(flag, **{"help": text, **kwargs})
    rr = sub.add_parser("rerun", help="replay an echoed config bit-identically")
    rr.add_argument("file", help="JSON output (or bare config) from a previous run")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    verb = getattr(args, "verb", None)
    params: dict = {}
    for p in _verb(args.command, verb).params:
        if p.read is not None:
            params[p.name] = p.read(args, params)
        elif getattr(args, p.name) is not None:
            params[p.name] = _from_text(p, getattr(args, p.name))
        elif p.echo:
            params[p.name] = p.default
    return RunConfig(
        args.command, verb, params, seed=args.seed, out=args.out, fmt=args.format,
        threads=args.threads, tolerance=args.tolerance,
    )


def _read_rerun(file: str) -> RunConfig:
    with _reading("rerun file", file):
        payload = json.loads(Path(file).read_text())
    if not isinstance(payload, dict):
        raise ConfigError(f"{file} holds no config object")
    return RunConfig.from_dict(payload.get("config", payload))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _read_rerun(args.file) if args.command == "rerun" else _config_from_args(args)
        status, _ = run(cfg)
        return status
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MeaseqError as e:
        print(f"run refused: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"run refused: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
