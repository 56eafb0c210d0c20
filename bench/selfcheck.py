#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size (job sizes scaled by SCALE).

    python3 bench/selfcheck.py

For every workload it runs the untraced and the traced measurement and
asserts that every metric declared in BENCHMARK.json is printed by name with
its unit, that no job ends in a traceback, and that the traced run produces
byte-identical outputs to the untraced run.  Reference digests exist only at
full size, so they are not compared here.
"""

from __future__ import annotations

import json
import sys

from jobs import WORKLOADS
from run import ROOT, measure

SCALE = 0.05


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines = measure(workload, seed=1, seconds=0.1, trace=trace, scale=SCALE)
            group = declared["per_layer" if trace else "end_to_end"]
            printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1] for line in lines if " = " in line}
            for m in group:
                assert printed.get(m["name"]) == m["unit"], f"{m['name']} not printed with unit {m['unit']}"
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert set(result["metrics"]) == {m["name"] for m in group}
            assert result["correct"], "\n".join(lines)
            print(f"ok  {workload:20s} trace {int(trace)}: {result['attempted']} job runs, "
                  f"{len(group)} metrics printed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
