#!/usr/bin/env python3
"""Run every workload, untraced and traced, each in a fresh process.

    python3 bench/all.py [--seed 1] [--seconds 36]

Prints each workload's end-to-end metrics, its failed jobs, the traced run's
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from jobs import WORKLOADS
from run import BENCH, ROOT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            *lines, last = proc.stdout.rstrip("\n").split("\n") or [""]
            print("\n".join(lines))
            if proc.returncode != 0 or not last.startswith("{") or not json.loads(last)["correct"]:
                print(proc.stderr, file=sys.stderr)
                status = 1
            print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
