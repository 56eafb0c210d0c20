#!/usr/bin/env python3
"""Run the probabilistic transfer experiments and write JSON + CSV results.

Usage:
    python scripts/run_transfer_experiments.py [--seed 20260810] [--outdir results]
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from measeq.csvtext import csv_text
from measeq.experiments import (
    clt_experiment,
    metric_ud_experiment,
    vdc_family_primes,
    weak_law_experiment,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--n", type=int, default=10_000, help="window length per member")
    ap.add_argument("--clt-members", type=int, default=12)
    ap.add_argument("--law-members", type=int, default=20)
    ap.add_argument("--metric-members", type=int, default=200)
    ap.add_argument("--alphas", type=int, default=20)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    reports = {
        "clt": clt_experiment(vdc_family_primes(args.clt_members), N=args.n),
        "weak_law": weak_law_experiment(
            vdc_family_primes(args.law_members), eps=0.2,
            k_grid=[1, 5, 10, args.law_members], N=args.n,
        ),
        "metric_ud": metric_ud_experiment(
            vdc_family_primes(args.metric_members),
            n_alphas=args.alphas, seed=args.seed, h_max=3,
        ),
    }

    for name, rep in reports.items():
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(asdict(rep), sort_keys=True, indent=2) + "\n")
        csv = outdir / f"{name}_trace.csv"
        rows = [r if isinstance(r, tuple) else (r,) for r in rep.trace]
        width = max((len(r) for r in rows), default=1)
        header = ",".join(f"c{i}" for i in range(width))
        columns = np.array(rows, dtype=np.float64).reshape(-1, width).T
        csv.write_text(csv_text((header, list(columns))))
        flag = "PASS" if rep.passed else "FAIL"
        print(f"{flag}  {rep.name:24s} {rep.statistics}")


if __name__ == "__main__":
    main()
