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
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from functools import cache
from fractions import Fraction
from math import isfinite, isinf, isnan
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import density as de
from . import dist as di
from . import experiments as ex
from . import polyadic as po
from . import seqgen as sg
from .csvtext import csv_text
from .errors import ConfigError, DomainError, MeaseqError, SpecificationError


def _exact(q: Fraction) -> str:
    """q as numerator/denominator in full, past str()'s 4300-digit limit."""
    return f"{po.int_text(q.numerator)}/{po.int_text(q.denominator)}"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _exact(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, np.generic):  # a numpy bool, integer or float scalar
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


# ---------------------------------------------------------------- text parsing


@contextmanager
def _reading(what: str, spec):
    """Turn unreadable text, or a value that a library constructor rejects,
    into one ConfigError naming `spec`."""
    try:
        yield
    except (ValueError, OverflowError, OSError, SpecificationError) as e:
        raise ConfigError(f"bad {what} {spec!r}: {e}") from e


def _positive_int(text: str) -> int:
    """A positive integer literal, or float notation such as 1e3 that is one exactly."""
    try:
        k = int(text)
    except ValueError:
        x = float(text)
        if not x.is_integer() or Decimal(text) != Decimal(x):
            raise ValueError(f"need an exact integer, got {text!r}") from None
        k = int(x)
    if k < 1:
        raise ValueError(f"need a positive integer, got {k}")
    return k


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
        return tuple(_positive_int(x) for x in text.split(","))


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
        sg.ladder_steps(levels)
    return levels


def parse_grid(text: str) -> tuple[int, ...]:
    """Either 'A..B' (doubling from A up to B) or an increasing comma list."""
    with _reading("grid", text):
        if ".." in text:
            a_str, b_str = text.split("..", 1)
            a, b = _positive_int(a_str), _positive_int(b_str)
            if b < a:
                raise ValueError("need A <= B")
            # a 2**k < b exactly when 2**k <= (b - 1) // a
            return tuple(a << k for k in range(((b - 1) // a).bit_length())) + (b,)
        grid = tuple(_positive_int(x) for x in text.split(","))
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("need strictly increasing windows")
        return grid


def _object(raw, label: str) -> dict:
    """A JSON object, given as is, inline as text, or in the file after '@'."""
    if isinstance(raw, str):
        with _reading(label, raw):
            raw = json.loads(Path(raw[1:]).read_text() if raw.startswith("@") else raw)
    return _typed(raw, (dict,), label)


_G_REGISTRY = {
    **dict(di.DEFAULT_TEST_FAMILY[:3]),
    "1-x": lambda x: 1.0 - np.asarray(x, dtype=float),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


# ------------------------------------------------------------ parameter table


@dataclass(frozen=True)
class Param:
    """A verb's parameter, or a key of a JSON object the CLI reads: flag
    `--name` and key in the echoed params (or in the object), holding JSON of
    `types` (a list of `items`) within `choices` and `least`. An object, or
    each object of a list, is resolved against the table `keys`; `convert`
    then turns the value into the handler's. A list holds at least
    `min_items` items, and exactly `n_items(resolved)` where that function of
    the values resolved before it is not None.
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
    """A verb's parameters and its handler: (resolved params, resolved run
    config) -> (report, CSV series or None); a series is (header, columns)."""

    help: str
    params: tuple[Param, ...]
    run: Callable


def _typed(value, types: tuple[type, ...], label: str):
    """`value` if it is JSON of `types`; an integral number counts as an
    integer, an integer as a number, a boolean as neither."""
    if int in types and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif float in types and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join(t.__name__ for t in types)
        got = json.dumps(value, default=repr)
        raise ConfigError(f"bad {label}: expected {expected}, got {got}")
    return value


def _check(p: Param, value, label: str, resolved: SimpleNamespace):
    value = _typed(value, p.types, label)
    many = p.items is not None and isinstance(value, list)
    if many:
        value = [_typed(x, (p.items,), f"{label} item") for x in value]
        if len(value) < p.min_items:
            raise ConfigError(f"bad {label}: need {p.min_items} or more items, got {len(value)}")
        want = p.n_items(resolved) if p.n_items else None
        if want is not None and len(value) != want:
            raise ConfigError(f"bad {label}: need {want} items ({p.help}), got {len(value)}")
    for x in value if many else [value]:
        if p.choices and x not in p.choices:
            raise ConfigError(f"bad {label}: expected one of {list(p.choices)}, got {x!r}")
        if p.least is not None and x < p.least:
            raise ConfigError(f"bad {label}: need at least {p.least}, got {x!r}")
    return value


def _resolve(params: tuple[Param, ...], given: dict, where: str = "--") -> SimpleNamespace:
    """Check echoed values against their table and convert them; run and
    rerun, and every JSON object inside a parameter, come through here."""
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
            if isinstance(value, list) and p.keys:
                value = [_resolve(p.keys, x, f"{label}[{i}] key ") for i, x in enumerate(value)]
            elif p.keys:
                value = _resolve(p.keys, _object(value, label), f"{label} key ")
            if p.convert is not None:
                value = p.convert(value)
        setattr(out, p.name, value)
    return out


def _from_text(p: Param, text: str):
    """A command-line value as the JSON value that is echoed."""
    with _reading(p.label(), text):
        if p.types in ((int,), (float,)):  # a bare number
            return p.types[0](text)
        if p.items is float:
            return [float(x) for x in text.split(",")]
        if dict in p.types and (str not in p.types or text.lstrip().startswith(("{", "["))):
            return json.loads(text)
        return text


# ---------------------------------------------------------------- spec tables


# The accepted range of chain sizes, as measeq(1) documents it. A growth chain
# stores no level past its first modulus >= 2**1075 (1 / q is 0.0 from there
# on), which the chains at the caps, up to 2**1100 and 200!, already reach: a
# larger size would change no value and no witness.
_CHAIN_CAPS = {"levels": 1100, "factorial": 200}


def _chain(c) -> sg.BaseChain:
    """A vdc chain of one form: its `moduli`, `factorial` levels, or the
    geometric chain of `levels` levels (default 1) with `ratio` (default 2)."""
    for key, cap in _CHAIN_CAPS.items():
        if (size := getattr(c, key)) is not None and size > cap:
            raise ConfigError(f"bad vdc chain {key}: need at most {cap}, got {size}")
    forms = [form for form, given in (("moduli", c.moduli is not None),
                                      ("factorial", c.factorial is not None),
                                      ("ratio/levels", (c.ratio, c.levels) != (None, None)))
             if given]
    if len(forms) > 1:
        raise ConfigError("bad vdc chain: need one of moduli, factorial and ratio/levels, "
                          f"got {' and '.join(forms)}")
    if c.moduli is not None:
        return sg.BaseChain(tuple(c.moduli))
    if c.factorial is not None:
        return sg.BaseChain.factorial(c.factorial)
    return sg.BaseChain.geometric(2 if c.ratio is None else c.ratio,
                                  1 if c.levels is None else c.levels)


_AP_KEYS = (Param("r", (int,), "residue", required=True, least=0),
            Param("m", (int,), "modulus", required=True, least=1))
_SEQUENCE_KINDS = {
    "vdc": ((Param("chain", (dict,), "base chain", default={}, convert=_chain, keys=(
        Param("moduli", (list,), "chain moduli", items=int),
        Param("factorial", (int,), "factorial chain levels"),
        Param("ratio", (int,), "geometric chain ratio", least=2),
        Param("levels", (int,), "geometric chain levels"),
    )),), lambda s: sg.VdcSequence(s.chain)),
    # prime keys are decimal strings, as JSON object keys must be strings
    "additive": ((
        Param("primes", (dict,), "prime values", default={}, convert=lambda primes: {
            int(p): _typed(v, (float,), f"additive sequence spec key primes key {p}")
            for p, v in primes.items()}),
        Param("tail", (float,), "tail bound", default=0.0),
    ), lambda s: sg.AdditiveFunctionSpec(s.primes, s.tail)),
    "simple": ((Param("parts", (list,), "value c on r mod m", default=[], items=dict,
                      keys=(*_AP_KEYS, Param("c", (float,), "value", required=True))),),
               lambda s: sg.SimpleSpec([(de.APSet.single(p.r, p.m), p.c) for p in s.parts])),
    "periodic": ((Param("values", (list,), "one period", required=True, items=float),),
                 lambda s: sg.PeriodicTable(s.values)),
    "uniform": ((Param("n", (int,), "grid points i/n", default=1000, least=1),),
                lambda s: sg.PeriodicTable(np.arange(s.n) / s.n)),
}


def parse_sequence_spec(spec) -> object:
    """JSON sequence spec -> the sequence (`eval`, `window`, `witness`): its
    "kind" picks an entry (keys, build) of `_SEQUENCE_KINDS`, whose keys the
    spec's other keys are resolved against before `build` makes it."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _SEQUENCE_KINDS:
        raise ConfigError(f"bad sequence spec {spec!r}: need a 'kind' in {list(_SEQUENCE_KINDS)}")
    keys, build = _SEQUENCE_KINDS[kind]
    given = {k: v for k, v in spec.items() if k != "kind"}
    with _reading("sequence spec", spec):
        return build(_resolve(keys, given, f"{kind} sequence spec key "))


_SEQ = Param("seq", (dict,), "sequence spec", required=True, convert=parse_sequence_spec)
_SEQ2 = replace(_SEQ, name="seq2")
_N = Param("n", (int,), "window length", default=10_000, echo=True, least=1)
_NAMED_PREDICATES = {"squares": de.squares_predicate, "primes": de.primes_predicate,
                     "blocks": de.blocks_predicate}
_PRED_KEYS = (
    Param("ap", (dict, list), "residue classes r mod m", items=dict, keys=_AP_KEYS,
          convert=lambda c: de.APSet([(p.r, p.m) for p in (c if isinstance(c, list) else [c])])),
    Param("threshold", (dict,), "indices whose value lies in [lo, hi)", keys=(
        _SEQ,
        replace(_N, default=None, echo=False),
        Param("lo", (float,), "lower level", default=-np.inf),
        Param("hi", (float,), "upper level", default=np.inf),
    )),
)


def parse_predicate_spec(spec, n: int):
    """JSON predicate spec -> (membership predicate, its APSet or None); an AP
    union keeps its progressions, whose density is known exactly. A threshold
    spec that gives no window length "n" is windowed to `n`."""
    if isinstance(spec, str):
        if spec not in _NAMED_PREDICATES:
            raise ConfigError(f"unknown predicate {spec!r}")
        return _NAMED_PREDICATES[spec](), None
    v = _resolve(_PRED_KEYS, spec, "predicate spec key ")
    if (v.ap is None) == (v.threshold is None):
        raise ConfigError(f"bad predicate spec {spec!r}: need one of 'ap' and 'threshold'")
    if v.ap is not None:
        return de.ap_predicate(v.ap), v.ap
    t = v.threshold
    return de.window_level_set(t.seq.window(n if t.n is None else t.n), t.lo, t.hi), None


_INDEX_KEYS = (Param("kind", (str,), "index kind", default="identity",
                     choices=("identity", "pair_swap", "even")),
               Param("n", (int,), "indices", default=10_000))


def parse_indices(spec) -> np.ndarray:
    """An explicit list of integers, or an object of `_INDEX_KEYS`."""
    if isinstance(spec, list):
        with _reading("index spec", spec):
            return np.asarray(spec, dtype=np.int64)
    v = _resolve(_INDEX_KEYS, spec, "index spec key ")
    k = (ex.pair_swap_indices if v.kind == "pair_swap" else ex.identity_indices)(v.n)
    return 2 * k if v.kind == "even" else k


# edf, moments and corr ignore --cells and --kind; configs echoed with them replay unchanged
_CELLS = Param("cells", (int,), "interval cells per axis", default=10, echo=True, least=1,
               convert=di.unit_interval_grid)
_KIND = Param("kind", (str,), "independence statistic", default="interval", echo=True,
              choices=("interval", "functional"))
_LADDER = Param("ladder", (str,), 'modulus ladder: "factorial", "primorial", "factorial:K" '
                "or a comma list", default="factorial", convert=parse_ladder)
_INDICES = Param("indices", (list, dict), "index spec", required=True, items=int,
                 convert=parse_indices)
_FAMILY = (Param("primes", (int,), "family over the first K primes", least=1),
           Param("bases", (list,), "family over these bases", items=int, least=2, min_items=1))


def _conv_seqs(args: argparse.Namespace, params: dict) -> list:
    """The factors of `dist conv`: each --uniform at the window length, then
    --seq and --seq2."""
    uniform = [{"kind": "uniform", "n": params["n"]} for _ in range(args.uniform or 0)]
    given = ((_SEQ, args.seq), (_SEQ2, args.seq2))
    return uniform + [_from_text(p, text) for p, text in given if text]


# ------------------------------------------------------------------- handlers


def _run_gen(v, cfg):
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
    return report, ("n,value", [np.arange(1, len(w) + 1), w.values])


def _run_density(v, cfg):
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


def _run_edf(v, cfg):
    F = di.edf(v.seq.window(v.n))
    report = {"points": int(F.breakpoints.size), "mean": F.mean()}
    # breakpoints increase strictly, so F(x_i) = padded[i]: the masses shifted down a row
    return report, ("x,mass_below,mass_upto", [F.breakpoints, F.padded[:-1], F.cum])


def _run_moments(v, cfg):
    return asdict(di.moments(v.seq.window(v.n))), None


def _run_corr(v, cfg):
    return di.correlation(v.seq.window(v.n), v.seq2.window(v.n))._asdict(), None


def _run_indep(v, cfg):
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


def _run_conv(v, cfg):
    G = di.convolve_edf(*(di.edf(h.window(v.n)) for h in v.seqs))
    report = {
        "atoms": int(G.breakpoints.size),
        "mean": G.mean(),
        "values": {str(x): float(G(x)) for x in v.eval},
    }
    return report, None


def _run_polyadic_dist(v, cfg):
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


def _run_profile(v, cfg):
    prof = po.p_continuity_profile(v.seq, v.eps, v.ladder, window_N=v.window)
    report = {
        "witnesses": {str(e): m for e, m in prof.pairs},
        "failures": list(prof.failures),
        "window_used": prof.window_used,
        "class_ranges": {str(m): r for m, r in prof.class_ranges},
    }
    return report, None


def _run_integrate(v, cfg):
    trace = po.haar_integral(v.seq, v.ladder)
    report = {"value": trace.value, "levels": list(trace.levels)}
    return report, ("level,mean", [trace.levels, trace.means])


def _run_sample(v, cfg):
    return asdict(po.sample_omega(cfg.seed, v.levels)), None


def _members(c) -> int | None:
    """Size of the family that `_family` builds from the keys resolved so far."""
    if c.primes is not None:
        return c.primes
    return None if c.bases is None else len(c.bases)


def _family(c):
    if (c.primes is None) == (c.bases is None):
        raise ConfigError("experiment config needs one of 'primes' and 'bases'")
    return ex.vdc_family(c.bases) if c.primes is None else ex.vdc_family_primes(c.primes)


def _deviation(eps: float) -> float:
    """A weak-law eps: a deviation of size 0 or less would count every point."""
    if not eps > 0:
        raise ConfigError(f"bad --config key eps: need a number > 0, got {eps!r}")
    return eps


def _experiment(help: str, header: str | None, keys: tuple[Param, ...], run: Callable) -> Verb:
    """An `exp` verb taking a config object with `keys`; `run(config, cfg)`
    gives an ExperimentReport, whose trace rows are the series under `header`."""

    def handler(v, cfg):
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
            Param("seqs", (list,), "sequence specs: each --uniform, --seq and --seq2",
                  required=True, read=_conv_seqs, items=dict, n_items=lambda _: 2,
                  convert=lambda specs: [parse_sequence_spec(s) for s in specs], flags={
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
            Param("eps", (float,), "deviation size", default=0.2, convert=_deviation),
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


# the global flags, echoed beside the command, verb and params of a run config
_SETTINGS = (
    Param("seed", (int,), "seed for sampling runs", default=0),
    Param("out", (str,), "output path; JSON there, CSV series beside it"),
    Param("fmt", (str,), "what stdout gets without --out", default="json",
          choices=("json", "csv"), flags={"--format": dict(dest="fmt", metavar="{json,csv}")}),
    Param("threads", (int,), "worker cap (echoed; execution is serial)", default=1),
    Param("tolerance", (float,), "override for verdict tolerances"),
)
_CONFIG = (
    Param("command", (str,), "command to run", required=True),
    Param("verb", (str,), "verb of the command"),
    Param("params", (dict,), "verb parameters", default={}),
    *_SETTINGS,
)


def run(config: dict) -> tuple[int, dict]:
    """Validate and dispatch an echoed run config; returns (exit_status, output_dict)."""
    cfg = _resolve(_CONFIG, _typed(config, (dict,), "run config"), "config key ")
    spec = _verb(cfg.command, cfg.verb)
    report, series = spec.run(_resolve(spec.params, cfg.params), cfg)
    output = {"config": vars(cfg), "report": _jsonable(report)}
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


def _emit(cfg, output: dict, series) -> None:
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


def _add_flags(parser: argparse.ArgumentParser, params: tuple[Param, ...]) -> None:
    for p in params:
        text = f"{p.help} (required)" if p.required else p.help
        for flag, kwargs in p.cli_flags().items():
            parser.add_argument(flag, **{"help": text, **kwargs})


@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="measeq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_flags(ap, _SETTINGS)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, verbs) in _COMMANDS.items():
        parser = sub.add_parser(command, help=text)
        if None not in verbs:
            by_verb = parser.add_subparsers(dest="verb", required=True)
        for verb, spec in verbs.items():
            _add_flags(parser if verb is None else by_verb.add_parser(verb, help=spec.help),
                       spec.params)
    rr = sub.add_parser("rerun", help="replay an echoed config bit-identically")
    rr.add_argument("file", help="JSON output (or bare config) from a previous run")
    return ap


def _echoed(params: tuple[Param, ...], args: argparse.Namespace) -> dict:
    """The values of `params` that the command line gives, as they are echoed."""
    given: dict = {}
    for p in params:
        if p.read is not None:
            given[p.name] = p.read(args, given)
        elif getattr(args, p.name) is not None:
            given[p.name] = _from_text(p, getattr(args, p.name))
        elif p.echo:
            given[p.name] = p.default
    return given


def _config_from_args(args: argparse.Namespace) -> dict:
    verb = getattr(args, "verb", None)
    params = _echoed(_verb(args.command, verb).params, args)
    return {"command": args.command, "verb": verb, "params": params, **_echoed(_SETTINGS, args)}


def _read_rerun(file: str):
    with _reading("rerun file", file):
        payload = json.loads(Path(file).read_text())
    payload = _typed(payload, (dict,), f"rerun file {file}")
    return payload.get("config", payload)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _read_rerun(args.file) if args.command == "rerun" else _config_from_args(args)
        status, _ = run(config)
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
