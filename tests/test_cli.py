"""CLI integration tests: verbs, exit codes, output schema, reproducibility."""

import json

import numpy as np
import pytest

from measeq.cli import main, parse_ladder
from measeq.density import FACTORIAL_LADDER, APSet


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


class TestGen:
    def test_vdc_json(self, capsys):
        status, out = run_json(
            capsys, ["gen", "--spec", '{"kind":"vdc","chain":{"ratio":2,"levels":20}}', "--n", "8"]
        )
        assert status == 0
        assert out["report"]["n"] == 8
        assert out["config"]["command"] == "gen"

    def test_vdc_csv(self, capsys):
        status = main(
            ["--format", "csv", "gen", "--spec", '{"kind":"vdc"}', "--n", "4"]
        )
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "1,0.5"
        assert [float(l.split(",")[1]) for l in lines[1:]] == [0.5, 0.25, 0.75, 0.125]

    def test_additive_spec(self, capsys):
        spec = '{"kind":"additive","primes":{"2":0.25,"3":0.2,"5":0.1,"7":0.01},"tail":1e-9}'
        status, out = run_json(capsys, ["gen", "--spec", spec, "--n", "10"])
        assert status == 0

    def test_simple_spec(self, capsys):
        spec = '{"kind":"simple","parts":[{"r":0,"m":2,"c":1.0},{"r":1,"m":2,"c":2.0}]}'
        status, out = run_json(capsys, ["gen", "--spec", spec, "--n", "1000"])
        assert out["report"]["mean"] == pytest.approx(1.5, abs=1e-9)


class TestDensity:
    def test_ap_quarter(self, capsys):
        status, out = run_json(
            capsys,
            ["density", "--pred", '{"ap":{"r":2,"m":4}}', "--grid", "1e3..1e6"],
        )
        assert status == 0
        rep = out["report"]
        assert rep["value"] == pytest.approx(0.25, abs=1e-5)
        assert rep["exact_density"] == "1/4"
        assert rep["measurability"]["gap"] == 0.0
        assert min(c["cost_float"] for c in rep["certificates"]) == 0.25

    def test_named_predicate(self, capsys):
        status, out = run_json(
            capsys,
            ["density", "--pred", "squares", "--grid", "1e3,1e4,1e5", "--window", "100000"],
        )
        assert status == 0
        assert out["report"]["limsup"] <= 0.05


class TestDist:
    def test_moments(self, capsys):
        status, out = run_json(
            capsys, ["dist", "moments", "--seq", '{"kind":"vdc"}', "--n", "10000"]
        )
        assert out["report"]["mean"] == pytest.approx(0.5, abs=1e-3)
        assert out["report"]["dispersion"] == pytest.approx(1 / 12, abs=1e-3)

    def test_corr(self, capsys):
        status, out = run_json(
            capsys,
            ["dist", "corr", "--seq", '{"kind":"vdc"}', "--seq2",
             '{"kind":"vdc","chain":{"ratio":3,"levels":1}}', "--n", "10000"],
        )
        assert abs(out["report"]["rho"]) <= 0.05

    def test_indep(self, capsys):
        status, out = run_json(
            capsys,
            ["dist", "indep", "--seq", '{"kind":"vdc"}', "--seq2",
             '{"kind":"vdc","chain":{"ratio":3,"levels":1}}', "--n", "20000"],
        )
        assert out["report"]["passed"] is True

    def test_conv_uniform_pair(self, capsys):
        status, out = run_json(
            capsys, ["dist", "conv", "--uniform", "--uniform", "--eval", "1.0"]
        )
        assert out["report"]["values"]["1.0"] == pytest.approx(0.5, abs=5e-3)

    def test_edf_csv_schema(self, capsys):
        status = main(
            ["--format", "csv", "dist", "edf", "--seq", '{"kind":"vdc"}', "--n", "16"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,mass_below,mass_upto"
        for line in lines[1:]:
            x, lo, hi = (float(f) for f in line.split(","))
            assert 0.0 <= lo < hi <= 1.0


class TestPolyadic:
    def test_dist_display(self, capsys):
        status, out = run_json(capsys, ["polyadic", "dist", "0", "6"])
        assert out["report"]["display"] == "7/64 = 0.109375"

    def test_profile(self, capsys):
        status, out = run_json(
            capsys,
            ["polyadic", "profile", "--seq", '{"kind":"vdc"}', "--eps", "0.125",
             "--ladder", "1,2,4,8,16,32,64"],
        )
        assert out["report"]["witnesses"]["0.125"] == 8

    def test_integrate(self, capsys):
        status, out = run_json(
            capsys,
            ["polyadic", "integrate", "--seq",
             '{"kind":"simple","parts":[{"r":1,"m":3,"c":1.0}]}'],
        )
        assert out["report"]["value"] == pytest.approx(1 / 3, abs=1e-12)

    def test_sample_deterministic(self, capsys):
        _, a = run_json(capsys, ["--seed", "9", "polyadic", "sample", "--levels", "2,6,24"])
        _, b = run_json(capsys, ["--seed", "9", "polyadic", "sample", "--levels", "2,6,24"])
        assert a == b
        assert len(a["report"]["residues"]) == 3


class TestExp:
    def test_niven_reports_failure_but_exits_zero(self, capsys):
        status, out = run_json(
            capsys, ["exp", "niven", "--config", '{"indices":{"kind":"even","n":10000},"M":4}']
        )
        assert status == 0
        assert out["report"]["passed"] is False
        assert out["report"]["statistics"]["max_deviation"] == pytest.approx(0.5)

    def test_resample_gate_exits_one(self, capsys):
        status = main(
            ["exp", "resample", "--config",
             '{"seq":{"kind":"vdc"},"n":100000,"indices":{"kind":"even","n":50000}}']
        )
        assert status == 1
        assert "run refused" in capsys.readouterr().err

    def test_sss_smoke(self, capsys):
        status, out = run_json(
            capsys,
            ["exp", "sss", "--config",
             '{"bases":[2,3],"g":["x^2","x"],"indices":{"kind":"pair_swap","n":20000}}'],
        )
        assert status == 0
        assert out["report"]["passed"] is True


class TestExitCodes:
    def test_bad_json_is_config_error(self, capsys):
        assert main(["gen", "--spec", "{not json"]) == 2

    def test_unknown_pred_is_config_error(self, capsys):
        assert main(["density", "--pred", "cubes"]) == 2

    @pytest.mark.parametrize("cells", ["0", "-3"])
    def test_nonpositive_cells_is_config_error(self, capsys, cells):
        argv = ["dist", "indep", "--seq", '{"kind":"vdc"}', "--seq2", '{"kind":"vdc"}',
                "--n", "100", "--cells", cells]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad cells: need at least one cell, got {cells}"
        ]

    @pytest.mark.parametrize("k", ["0", "9", "12", "x", "2.5", ""])
    def test_factorial_ladder_out_of_range_is_config_error(self, capsys, k):
        assert main(["density", "--pred", "squares", "--ladder", f"factorial:{k}"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad ladder 'factorial:{k}': factorial:K needs an integer K in 1..8"
        ]

    def test_factorial_ladder_prefix(self):
        assert parse_ladder("factorial:3") == (1, 2, 6)
        assert parse_ladder("factorial:8") == FACTORIAL_LADDER

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["dist", "indep", "--seq", '{"kind":"vdc"}', "--n", "100"], "--seq2"),
            (["dist", "corr", "--seq2", '{"kind":"vdc"}', "--n", "100"], "--seq"),
            (["dist", "moments", "--n", "100"], "--seq"),
            (["polyadic", "profile"], "--seq"),
        ],
    )
    def test_missing_sequence_flag_is_config_error(self, capsys, argv, flag):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: missing {flag} sequence spec"
        ]

    def test_failed_cover_check_is_refused(self, capsys, monkeypatch):
        # a cover mask that holds nothing fails the check on every level
        monkeypatch.setattr(APSet, "mask", lambda self, N: np.zeros(N, dtype=bool))
        assert main(["density", "--pred", "squares", "--window", "1000"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["run refused: cover misses window elements [1, 4, 9, 16, 25]"]

    def test_unknown_verb_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["dist", "nonsense"])
        assert e.value.code == 2


class TestRoundTrip:
    def test_rerun_reproduces_bytes(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        status = main(
            ["--seed", "13", "--out", str(out), "exp", "metric-ud", "--config",
             '{"primes":20,"n_alphas":4}']
        )
        assert status == 0
        first = out.read_bytes()
        first_csv = out.with_suffix(".csv").read_bytes()
        status = main(["rerun", str(out)])
        assert status == 0
        assert out.read_bytes() == first
        assert out.with_suffix(".csv").read_bytes() == first_csv

    def test_rerun_density(self, tmp_path):
        out = tmp_path / "density.json"
        main(["--out", str(out), "density", "--pred", '{"ap":{"r":1,"m":3}}',
              "--grid", "1e3..1e5"])
        first = out.read_bytes()
        main(["rerun", str(out)])
        assert out.read_bytes() == first
