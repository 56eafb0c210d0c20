#!/usr/bin/env python3
"""Back-to-back benchmark pairs of two commits, written to one BENCH_*.json.

    python3 tools/bench_pair.py PARENT CHANGE --out BENCH_<n>.json

Each revision is extracted with `git archive` into a temporary directory (no
worktree, nothing under .git), and each side runs its own copy of the command
in BENCHMARK.json (`bench/run.py`) with `--trace 0`.  For every workload and
every seed in SEEDS the two sides run back to back, the parent first at even
seed positions and the change first at odd ones, so that a drift of the
machine's speed falls on both sides alike.  Nothing under `bench/` is edited,
and the temporary copies are removed at the end.

The file holds every run's result line, and per workload and end-to-end
metric each side's median and quartiles, plus the number of pairs the change
won (ties count for neither side); per workload it also holds each side's
`failed` job runs, summed over the seeds.  It also records both commits (sha
and the tree of `src/`), python, numpy, the core count, the platform, the
seeds and the run length, which is always `run_seconds` of BENCHMARK.json.

A run whose result reads `correct: false` ends the pairing at once, with exit
1 and a one-line message naming it: no record is written from wrong outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SEEDS = tuple(range(1, 11))
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def extract(sha: str, dest: Path) -> None:
    """The committed files of sha, and nothing else, under dest."""
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout root; its last stdout line, the result object."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checked(run: dict) -> dict:
    """run, or exit 1 with a one-line message when its outputs are wrong."""
    if not run["result"]["correct"]:
        raise SystemExit(f"error: {run['workload']} seed {run['seed']} {run['side']} reads "
                         "correct: false; no record written")
    return run


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each side's failed job runs, and per metric each side's
    median and quartiles and the pairs the change won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        rows = {"failed": {s: sum(p[s]["failed"] for p in pairs.values()) for s in SIDES}}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs.values()] for s in SIDES}
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                **{s: quartiles(values[s]) for s in SIDES},
                "change_better_pairs": sum(
                    sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])
                ),
                "pairs": len(pairs),
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision of the parent commit")
    ap.add_argument("change", help="git revision of the changed commit")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_*.json to write")
    args = ap.parse_args(argv)
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(shas[side], roots[side])
        declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        if json.loads((roots["parent"] / "BENCHMARK.json").read_text()) != declared:
            raise SystemExit("error: the two commits declare different benchmarks")
        seconds = float(declared["run_seconds"])
        for workload in (w["name"] for w in declared["workloads"]):
            for k, seed in enumerate(SEEDS):
                for order, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1]):
                    result = run_bench(roots[side], declared["command"], workload, seed, seconds)
                    runs.append(checked({"workload": workload, "seed": seed, "side": side,
                                         "order": order, "result": result}))
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.4f} correct "
                          f"{result['correct']} failed {result['failed']}", file=sys.stderr)
    record = {
        "commits": {side: {"sha": sha, "src_tree": git("rev-parse", f"{sha}:src")}
                    for side, sha in shas.items()},
        "command": declared["command"] + ["--trace", "0"],
        "seconds": seconds,
        "seeds": list(SEEDS),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "summary": summarize(runs, declared["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
