"""The pair runner's summary: each side's median and quartiles, and the pairs the change won."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "jobs", "unit": "count", "better": "higher"},
]


def _runs(workload, parent, change):
    """One run per side and seed; parent and change are lists of (wall_s, jobs)."""
    out = []
    for seed, pair in enumerate(zip(parent, change), 1):
        for side, (wall, jobs) in zip(bench_pair.SIDES, pair):
            metrics = {"wall_s": {"value": wall}, "jobs": {"value": jobs}}
            out.append({"workload": workload, "seed": seed, "side": side, "order": 0,
                        "result": {"metrics": metrics}})
    return out


def test_summary_per_workload_and_metric():
    runs = _runs("a", [(1.0, 5), (2.0, 5), (3.0, 5), (4.0, 5), (5.0, 5)],
                 [(0.5, 6), (2.5, 5), (2.0, 4), (3.0, 6), (4.0, 6)])
    runs += _runs("b", [(1.0, 1)], [(1.0, 1)])
    summary = bench_pair.summarize(runs, METRICS)
    assert list(summary) == ["a", "b"]
    wall = summary["a"]["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0}
    assert (wall["change_better_pairs"], wall["pairs"]) == (4, 5)
    # higher is better for jobs; a tie counts for neither side
    assert summary["a"]["jobs"]["change_better_pairs"] == 3
    # one pair: its value is the median and both quartiles
    assert summary["b"]["wall_s"]["parent"] == pytest.approx({"median": 1.0, "q1": 1.0, "q3": 1.0})
    assert summary["b"]["wall_s"]["change_better_pairs"] == 0
