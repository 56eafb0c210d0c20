"""Outside-in span tracer for the traced benchmark run.

`Tracer.install()` wraps every public function of the measeq layer modules at
every place it is bound (modules import names directly, so
`measeq.experiments.interval_independence_stat` is patched as well as
`measeq.dist.interval_independence_stat`), and the public methods plus
`__init__`/`__call__` of every public class on the class itself.  Nothing
under `src/` changes; `remove()` restores the originals, and `install()` can
be called again to put the same wrappers back.

Each call records a span (name, start, end, parent span, job id) in flat
in-memory arrays, written out by `write()` when the run ends.  Work counters
are derived from the arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import FunctionType

import numpy as np

LAYERS = ("cli", "seqgen", "density", "dist", "polyadic", "experiments", "primes")
COUNTERS = (
    "density.cover_pairs", "density.cert_levels", "density.ie_progressions",
    "density.mask_n", "density.mask_hits",
    "dist.indep_tables", "dist.indep_cells", "dist.edf_atoms", "dist.edf_evals", "dist.conv_atoms",
    "seqgen.values", "seqgen.spec_primes",
    "primes.is_prime_calls", "primes.sieve_n",
    "experiments.gate_pairs", "experiments.refusals",
    "polyadic.extend_evals", "polyadic.omega_samples", "polyadic.profile_levels",
    "cli.out_bytes", "cli.jobs",
)
EXPERIMENTS = LAYERS.index("experiments")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Hooks: (counters, args, kwargs, result, parent_layer, outer) -> None.
# `outer` is true when no span of the same layer is open around this one.


def _mask(c, a, k, r, parent, outer):
    c["density.mask_n"] += int(_arg(a, k, 1, "N"))
    c["density.mask_hits"] += int(np.count_nonzero(r))


def _certs(c, a, k, r, parent, outer):
    c["density.cert_levels"] += len(r)
    c["density.cover_pairs"] += sum(len(cert.cover.progressions) for cert in r)


def _ie(c, a, k, r, parent, outer):
    c["density.ie_progressions"] += len(_arg(a, k, 0, "s").progressions)


def _interval_table(c, a, k, r, parent, outer):
    _table(c, a, k, r, parent, outer)
    if parent == EXPERIMENTS:
        c["experiments.gate_pairs"] += 1


def _table(c, a, k, r, parent, outer):
    c["dist.indep_tables"] += 1
    c["dist.indep_cells"] += len(r.table)


def _edf_init(c, a, k, r, parent, outer):
    c["dist.edf_atoms"] += int(np.size(_arg(a, k, 1, "breakpoints")))


def _edf_eval(c, a, k, r, parent, outer):
    c["dist.edf_evals"] += int(np.size(_arg(a, k, 1, "x")))


def _conv(c, a, k, r, parent, outer):
    c["dist.conv_atoms"] += _arg(a, k, 0, "F").breakpoints.size * _arg(a, k, 1, "F1").breakpoints.size


def _spec(c, a, k, r, parent, outer):
    c["seqgen.spec_primes"] += len(a[0].prime_values)


def _count(name):
    def hook(c, a, k, r, parent, outer):
        c[name] += 1

    return hook


def _sieve(c, a, k, r, parent, outer):
    c["primes.sieve_n"] += int(_arg(a, k, 0, "n"))


def _profile(c, a, k, r, parent, outer):
    c["polyadic.profile_levels"] += len(r.class_ranges)


def _cli_main(c, a, k, r, parent, outer):
    c["cli.jobs"] += 1
    argv = list(_arg(a, k, 0, "argv") or ())
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        c["cli.out_bytes"] += sum(p.stat().st_size for p in (out, out.with_suffix(".csv")) if p.exists())


HOOKS = {
    "density.Predicate.mask": _mask,
    "density.buck_upper_per_level": _certs,
    "density.ap_union_density": _ie,
    "dist.interval_independence_stat": _interval_table,
    "dist.statistical_independence_stat": _table,
    "dist.EDF.__init__": _edf_init,
    "dist.EDF.__call__": _edf_eval,
    "dist.EDF.mass_upto": _edf_eval,
    "dist.convolve_edf": _conv,
    "seqgen.AdditiveFunctionSpec.__init__": _spec,
    "primes.is_prime": _count("primes.is_prime_calls"),
    "primes.prime_mask": _sieve,
    "polyadic.extend_eval": _count("polyadic.extend_evals"),
    "polyadic.sample_omega": _count("polyadic.omega_samples"),
    "polyadic.p_continuity_profile": _profile,
    "cli.main": _cli_main,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._patches: list[tuple[object, str, object, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, layer: int):
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        from measeq.errors import GateError
        from measeq.seqgen import SequenceWindow

        hook = HOOKS.get(name)
        values = layer == LAYERS.index("seqgen")
        refusal = GateError if layer == EXPERIMENTS else None

        names, parents, jobs, outers, starts, ends = (
            self.name, self.parent, self.job, self.outer, self.start, self.end)
        stack, depth, counters, name_layer = self._stack, self._depth, self.counters, self.name_layer
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            parent = stack[-1] if stack else -1
            outer = depth[layer] == 0
            names.append(nid)
            parents.append(parent)
            jobs.append(tracer.current_job)
            outers.append(outer)
            ends.append(0.0)
            stack.append(i)
            depth[layer] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if refusal is not None and outer and isinstance(e, refusal):
                    counters["experiments.refusals"] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                depth[layer] -= 1
            parent_layer = name_layer[names[parent]] if parent >= 0 else -1
            if hook is not None:
                hook(counters, args, kwargs, result, parent_layer, outer)
            if values and outer and isinstance(result, SequenceWindow):
                counters["seqgen.values"] += len(result)
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call only."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        mods = [importlib.import_module(f"measeq.{layer}") for layer in LAYERS]
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in enumerate(mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = self._wrap(obj, f"{LAYERS[layer]}.{attr}", layer)
                elif isinstance(obj, type):
                    self._wrap_class(obj, f"{LAYERS[layer]}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "measeq" and not modname.startswith("measeq."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, FunctionType):
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls: type, prefix: str, layer: int) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, FunctionType):
                self._patch(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, name, layer)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    # ------------------------------------------------------------- reporting

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.asarray(self.name_layer, dtype=np.int64)[name] if name.size else name
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        return layer, parent_layer, dur, dur - children

    def layer_metrics(self, jobs: set[int]) -> dict[str, float]:
        """calls, busy_s and self_s per layer over the spans of the given jobs.

        calls: spans entered from outside the layer.  busy_s: time inside the
        layer's outermost spans (inclusive).  self_s: time when the innermost
        open span belongs to the layer (duration minus child spans).
        """
        layer, parent_layer, dur, own = self._arrays()
        sel = np.isin(np.frombuffer(self.job, dtype=np.int64), sorted(jobs))
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        out = {}
        for i, name in enumerate(LAYERS):
            mine = sel & (layer == i)
            out[f"{name}.calls"] = int(np.count_nonzero(mine & (parent_layer != i)))
            out[f"{name}.busy_s"] = float(dur[mine & outer].sum())
            out[f"{name}.self_s"] = float(own[mine].sum())
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: span, name, start, end, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("span,name,start,end,parent,job\n")
            for i, (nid, s, e, p, j) in enumerate(zip(self.name, self.start, self.end, self.parent, self.job)):
                f.write(f"{i},{self.names[nid]},{s!r},{e!r},{p},{j}\n")
