#!/usr/bin/env python3
"""Survey density profiles, cover certificates and measurability verdicts for
the bundled example sets (a progression, squares, primes, dyadic blocks).

Usage:
    python scripts/density_survey.py [--window 1000000] [--outdir results]
"""

import argparse
import json
from pathlib import Path

from measeq.density import (
    APSet,
    FACTORIAL_LADDER,
    ap_predicate,
    blocks_predicate,
    primes_predicate,
    squares_predicate,
    survey,
)


def summarize(name, pred, grid, window):
    est, certs, meas = survey(pred, grid, FACTORIAL_LADDER, window)
    cert = min(certs, key=lambda c: c.cost)
    print(
        f"{name:10s} value={est.value!s:10s} "
        f"liminf={est.liminf_est:.4f} limsup={est.limsup_est:.4f} "
        f"cover_cost={float(cert.cost):.4f}@{cert.level} gap={float(meas.gap):.4f} "
        f"{'measurable within tolerance' if meas.measurable else 'unresolved/non-measurable'}"
    )
    return {
        "value": est.value,
        "liminf": est.liminf_est,
        "limsup": est.limsup_est,
        "ratios": dict(zip(map(str, est.window_grid), est.ratios)),
        "cover_cost": float(cert.cost),
        "cover_level": cert.level,
        "gaps": [float(g) for g in meas.gaps],
        "measurable": meas.measurable,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window", type=int, default=1_000_000)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    # doubling grid so oscillating sets reveal their liminf/limsup spread
    grid = []
    n = 1000
    while n < args.window:
        grid.append(n)
        n *= 2
    grid.append(args.window)
    sets = {
        "ap(2,4)": ap_predicate(APSet.single(2, 4)),
        "squares": squares_predicate(),
        "primes": primes_predicate(),
        "blocks": blocks_predicate(),
    }
    results = {name: summarize(name, pred, grid, args.window) for name, pred in sets.items()}

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "density_survey.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n"
    )


if __name__ == "__main__":
    main()
