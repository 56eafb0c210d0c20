#!/usr/bin/env python3
"""measeq benchmark: one seeded workload, closed loop, in this process.

    python3 bench/run.py --workload density-covers --seed 1 --seconds 36 --trace 0

Runs from the root of a checkout and imports measeq from its `src/`.  The
workload's job list (see jobs.py) is run one job at a time, pass after pass,
while the slowest pass so far still fits in `--seconds` (counted from the
start, set-up included).  Every job's exit status and report bytes are
checked against bench/references.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs every job twice in a
row, untraced and with the span tracer installed, and prints the per-layer
metrics plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `failed` counts job
runs that end in a traceback or differ from their reference; `correct` is
false if any job run differs from its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS, generate, job_key, run_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_IMPORTS = 11
JOB_STRIDE = 1000  # traced job ids are pass * JOB_STRIDE + job index

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import measeq\n"
    "dt = time.perf_counter() - t\n"
    "if not measeq.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported measeq from ' + measeq.__file__)\n"
    "print(repr(dt))\n"
)


def pin_threads() -> None:
    # the target machine has 2 cores; BLAS/OpenMP pools must not compete with the loop
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_measeq():
    """Import measeq from this checkout's src/, never from anywhere else."""
    if not (SRC / "measeq" / "__init__.py").is_file():
        raise SystemExit(f"error: no measeq sources under {SRC}")
    pin_threads()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import measeq

    if not Path(measeq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: measeq imported from {measeq.__file__}, not {SRC}")
    return measeq


def setup_seconds(n: int = SETUP_IMPORTS) -> float:
    """Median time for a fresh interpreter to `import measeq`."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, env=dict(os.environ), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_passes(jobs, deadline: float, run_pass):
    """Closed loop: pass after pass while the slowest pass so far still fits
    before `deadline`; a pass always completes.  Returns [(pass seconds, result)]."""
    passes = []
    while True:
        t0 = time.perf_counter()
        result = run_pass(len(passes))
        passes.append((time.perf_counter() - t0, result))
        if time.perf_counter() + max(w for w, _ in passes) > deadline:
            return passes


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten jobs beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(jobs, deadline: float, lines: list[str]):
    """Untraced passes; returns (job runs per pass, metrics)."""
    setup_s = setup_seconds()
    passes = run_passes(jobs, deadline, lambda n: [run_job(job, WORK) for job in jobs])
    per_job = [statistics.median(p[1][j].seconds for p in passes) for j in range(len(jobs))]
    tail_s, pct = tail(per_job)
    lines.append(f"{len(passes)} passes of " + ", ".join(f"{w:.3f}" for w, _ in passes)
                 + f" s; job_tail_s is p{pct:.1f} of {len(jobs)} jobs (per-job medians over passes)")
    return [p[1] for p in passes], {
        "wall_s": statistics.median(w for w, _ in passes),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(jobs, deadline: float, lines: list[str], spans_path: Path):
    """Every job twice in a row, once untraced and once traced, in alternating
    order; returns (job runs per pass, metrics).

    A pass's wall time is the sum of its job times, and the overhead is the
    traced minus the untraced one: each pair of runs is back to back, so that
    swings of the machine's speed between minutes cancel out of it.  A traced
    job whose output differs from its untraced run is returned as a traceback
    outcome, so that check() counts it as wrong.
    """
    from tracer import COUNTERS, Tracer

    tr = Tracer()

    def run_pass(n):
        plain, traced = [], []
        for j, job in enumerate(jobs):
            tr.current_job = n * JOB_STRIDE + j
            for with_tracer in (False, True) if (n + j) % 2 == 0 else (True, False):
                if not with_tracer:
                    plain.append(run_job(job, WORK))
                    continue
                tr.install()
                try:
                    traced.append(run_job(job, WORK))
                finally:
                    tr.remove()
        for p, t in zip(plain, traced):
            if (t.status, t.digest, t.error) != (p.status, p.digest, p.error):
                t.status, t.error = "traceback", "traced output differs from untraced output"
        return plain, traced

    passes = [p[1] for p in run_passes(jobs, deadline, run_pass)]
    tr.write(spans_path)
    per_pass = [tr.layer_metrics({n * JOB_STRIDE + j for j in range(len(jobs))}) for n in range(len(passes))]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update({k: tr.counters[k] // len(passes) for k in COUNTERS})  # equal in every pass
    walls = [(sum(o.seconds for o in plain), sum(o.seconds for o in traced)) for plain, traced in passes]
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in walls)
    lines.append(f"{len(passes)} paired passes; untraced wall_s " + ", ".join(f"{p:.4f}" for p, _ in walls)
                 + " s; traced wall_s " + ", ".join(f"{t:.4f}" for _, t in walls) + " s")
    return [o for pair in passes for o in pair], metrics


def check(jobs, passes, names, refs) -> tuple[list[str], list[str]]:
    """(wrong, known): one line per job run that is wrong, and one per job run
    that ends in the same traceback as its reference (a known defect of the
    reference commit: a failed job, but not a wrong result).  refs None
    compares nothing, and every traceback is wrong."""
    wrong, known = [], []
    for name, outcomes in zip(names, passes):
        for job, out in zip(jobs, outcomes):
            key = job_key(job)
            ref = refs.get(key) if refs is not None else None
            line = f"{name} job {key} {json.dumps(job)[:160]}: "
            if ref is not None and ref["status"] == "traceback":
                if out.status == "traceback" and out.error == ref["error"]:
                    known.append(line + out.error)
                elif out.status == "traceback":
                    wrong.append(line + f"{out.error} != reference {ref['error']}")
                # a job that now returns has no reference output to compare with
            elif out.status == "traceback":
                wrong.append(line + out.error)
            elif refs is None:
                continue
            elif ref is None:
                wrong.append(line + "no reference recorded for this job")
            elif (out.status, out.digest) != (ref["status"], ref["digest"]):
                wrong.append(line + f"status {out.status} digest {out.digest[:12]} "
                             f"!= reference {ref['status']} {ref['digest'][:12]}")
    return wrong, known


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, refs=None):
    """Run one workload; returns (result object, human-readable lines)."""
    deadline = time.perf_counter() + seconds
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    import_measeq()
    WORK.mkdir(exist_ok=True)
    os.chdir(WORK)
    jobs = generate(workload, seed, scale)
    lines = [f"workload {workload} seed {seed}: {len(jobs)} jobs, trace {int(trace)}"]
    if trace:
        passes, metrics = per_layer(jobs, deadline, lines, WORK / f"spans-{workload}.csv")
    else:
        passes, metrics = end_to_end(jobs, deadline, lines)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")
    if trace:  # per_layer returns each pass's untraced, then its traced job runs
        names = [f"pass {n // 2}" + (" traced" if n % 2 else "") for n in range(len(passes))]
    else:
        names = [f"pass {n}" for n in range(len(passes))]
    wrong, known = check(jobs, passes, names, refs)
    failed = len(wrong) + len(known)
    attempted = sum(map(len, passes))
    lines.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} job runs; "
                 f"{len(known)} end in the traceback of their reference)")
    lines += [f"  FAILED {b}" for b in wrong] + [f"  FAILED (as in reference) {b}" for b in known]
    lines += [f"{name} = {metrics[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    refs = json.loads((BENCH / "references.json").read_text())
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), refs=refs)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
