"""The pair runner: its summary (each side's median and quartiles, the pairs
the change won, each side's failed job runs) and its refusal of wrong outputs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

_BENCHMARK = _PATH.parents[1] / "BENCHMARK.json"
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "jobs", "unit": "count", "better": "higher"},
]


def _result(wall, jobs, failed=0, correct=True):
    """A synthetic result line of bench/run.py: wall_s and jobs as given, and
    every other end-to-end metric of BENCHMARK.json at 1.0."""
    metrics = {m["name"]: {"value": 1.0} for m in json.loads(_BENCHMARK.read_text())["end_to_end"]}
    metrics.update(wall_s={"value": wall}, jobs={"value": jobs})
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def _runs(workload, parent, change):
    """One run per side and seed; parent and change are lists of (wall_s, jobs)
    or (wall_s, jobs, failed)."""
    out = []
    for seed, pair in enumerate(zip(parent, change), 1):
        for side, cells in zip(bench_pair.SIDES, pair):
            out.append({"workload": workload, "seed": seed, "side": side, "order": 0,
                        "result": _result(*cells)})
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


def test_summary_counts_each_sides_failed_runs():
    runs = _runs("a", [(1.0, 5, 0), (1.0, 5, 2)], [(1.0, 5, 1), (1.0, 5, 0)])
    runs += _runs("b", [(1.0, 5, 0)], [(1.0, 5, 3)])
    summary = bench_pair.summarize(runs, METRICS)
    assert summary["a"]["failed"] == {"parent": 2, "change": 1}
    assert summary["b"]["failed"] == {"parent": 0, "change": 3}


def _fake_checkout(monkeypatch, results):
    """Stub git, the checkouts and bench/run.py: run_bench hands out `results`
    in call order, each checkout holds only this repo's BENCHMARK.json."""
    monkeypatch.setattr(bench_pair, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pair, "extract",
                        lambda sha, dest: (dest.mkdir(parents=True),
                                           shutil.copy(_BENCHMARK, dest / "BENCHMARK.json")))
    calls = iter(results)
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))


def test_wrong_outputs_write_no_record(tmp_path, monkeypatch, capsys):
    # the third run (seed 2, change first at odd seed positions) reads correct: false
    results = [_result(1.0, 5), _result(1.0, 5), _result(1.0, 5, 1, correct=False)]
    _fake_checkout(monkeypatch, results + [_result(1.0, 5)] * 100)
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exit:
        bench_pair.main(["a", "b", "--out", str(out)])
    assert exit.value.code == ("error: density-covers seed 2 change reads correct: false; "
                               "no record written")
    assert not out.exists()


def test_a_record_of_correct_runs(tmp_path, monkeypatch):
    _fake_checkout(monkeypatch, [_result(1.0, 5, 1)] * 60)
    out = tmp_path / "BENCH_x.json"
    assert bench_pair.main(["a", "b", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 60
    for workload in ("density-covers", "transfer-gates", "distribution-series"):
        assert record["summary"][workload]["failed"] == {"parent": 10, "change": 10}
