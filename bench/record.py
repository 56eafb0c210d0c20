#!/usr/bin/env python3
"""Record bench/references.json: the exit status and report digest of every
catalogue job of every workload, as produced by the measeq in this checkout.

    python3 bench/record.py

Every workload is recorded again from scratch, so the file never mixes
digests from two commits.  Run it only on a commit whose outputs are the
reference (the benchmark then fails every later commit whose outputs differ).
Jobs that end in a traceback are recorded with their error: the benchmark
counts them as failed, and reports the run incorrect only if a job ends in
another error.
"""

from __future__ import annotations

import json
import os
import sys

from jobs import WORKLOADS, catalogue, job_key, run_job
from run import BENCH, WORK, import_measeq


def main() -> int:
    import_measeq()
    WORK.mkdir(exist_ok=True)
    os.chdir(WORK)
    path = BENCH / "references.json"
    refs = {}
    for workload in WORKLOADS:
        for slot in catalogue(workload):
            for job in slot:
                out = run_job(job, WORK)
                refs[job_key(job)] = {"workload": workload, "job": job, "status": out.status,
                                      "digest": out.digest, "error": out.error}
                print(f"{out.seconds:8.3f}s {out.status!s:>9} {json.dumps(job)[:110]}", flush=True)
    path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    tracebacks = [r for r in refs.values() if r["status"] == "traceback"]
    print(f"{len(refs)} jobs recorded, {len(tracebacks)} end in a traceback")
    for r in tracebacks:
        print(f"  {r['error']}: {json.dumps(r['job'])[:160]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
