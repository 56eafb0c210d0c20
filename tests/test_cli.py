"""CLI integration tests: verbs, exit codes, output schema, reproducibility."""

import hashlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from measeq import cli
from measeq.cli import main, parse_ladder
from measeq.density import FACTORIAL_LADDER, APSet
from measeq.dist import DEFAULT_TEST_FAMILY, edf
from measeq.errors import ConfigError, MeaseqError
from measeq.polyadic import polyadic_distance
from measeq.seqgen import PeriodicTable


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

    def test_chains_at_the_caps_give_the_same_window(self):
        window = [cli.parse_sequence_spec({"kind": "vdc", "chain": chain}).window(50_000).values
                  for chain in ({"factorial": 9}, {"factorial": 200})]
        assert np.array_equal(*window)
        geometric = cli.parse_sequence_spec({"kind": "vdc", "chain": {"levels": 1100}})
        assert geometric.window(4).values.tolist() == [0.5, 0.25, 0.75, 0.125]

    def test_large_ratio_stores_no_level_past_2_to_1075(self, capsys):
        # 10**600 is the first modulus past 2**1075; the 1,098 levels above it
        # are neither built nor read
        spec = {"kind": "vdc", "chain": {"ratio": 10**300, "levels": 1100}}
        assert cli.parse_sequence_spec(spec).chain.moduli == (1, 10**300, 10**600)
        csv = []
        for levels in (1100, 4):
            spec["chain"]["levels"] = levels
            assert main(["--format", "csv", "gen", "--spec", json.dumps(spec), "--n", "3"]) == 0
            csv.append(capsys.readouterr().out)
        assert csv[0] == csv[1]


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

    def test_threshold_spec_runs_at_the_defaults(self, capsys):
        pred = '{"threshold":{"seq":{"kind":"vdc"}}}'
        status, out = run_json(capsys, ["density", "--pred", pred])
        assert status == 0
        assert out["config"]["params"]["pred"] == json.loads(pred)
        assert out["report"]["grid"][-1] == 1_000_000

    def test_exact_density_past_the_str_digit_limit(self, capsys):
        # two progressions of 4000-digit moduli: a union density of 8000 digits
        big = 10**3999
        pred = json.dumps({"ap": [{"r": 0, "m": 2 * big}, {"r": 1, "m": 2 * (big + 1)}]})
        status, out = run_json(
            capsys, ["density", "--pred", pred, "--window", "5000", "--grid", "1000,5000"]
        )
        assert status == 0
        want = Fraction(1, 2 * big) + Fraction(1, 2 * (big + 1))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert out["report"]["exact_density"] == f"{want.numerator}/{want.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("window", ["3000", "6000"])
    def test_threshold_spec_without_n_reaches_grid_end_and_window(self, capsys, window):
        # the omitted n is max(grid end, --window); any smaller n is refused
        n = max(4000, int(window))
        spec = {"seq": {"kind": "vdc", "chain": {"ratio": 3, "levels": 1}}, "lo": 0.25, "hi": 0.5}
        argv = ["--grid", "1e3..4000", "--window", window, "--ladder", "1,2,3,9"]
        reports = []
        for given in (spec, {**spec, "n": n}):
            pred = json.dumps({"threshold": given})
            status, out = run_json(capsys, ["density", "--pred", pred, *argv])
            assert status == 0
            assert out["config"]["params"]["pred"] == {"threshold": given}
            reports.append(out["report"])
        assert reports[0] == reports[1]
        short = json.dumps({"threshold": {**spec, "n": n - 1}})
        assert main(["density", "--pred", short, *argv]) == 1
        assert f"only defined up to n={n - 1}, asked {n}" in capsys.readouterr().err


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

    @given(st.integers(-10**6, 10**6), st.integers(-14_000, 14_000))
    @settings(max_examples=40, deadline=None)
    def test_dist_bytes_equal_str_where_str_works(self, a, d):
        b = a + d
        frac = polyadic_distance(a, b)
        report, _ = cli._run_polyadic_dist(SimpleNamespace(a=a, b=b), None)
        assert report["exact"] == f"{frac.numerator}/{frac.denominator}"
        assert report["display"] == f"{frac.numerator}/{frac.denominator} = {float(frac)}"

    def test_dist_past_the_str_digit_limit(self, capsys):
        status, out = run_json(capsys, ["polyadic", "dist", "0", "30001"])
        assert status == 0
        num, den = out["report"]["exact"].split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == polyadic_distance(0, 30001)
        assert out["report"]["display"] == f"{num}/{den} = {out['report']['decimal']}"

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


BAD_RERUNS = {
    "density-no-params.json": {"command": "density", "params": {}},
    "n-abc.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}, "n": "abc"}},
    "n-list.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}, "n": [1]}},
    "undeclared.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}, "m": 1}},
    "list.json": [1, 2],
    # the run config itself: its keys are declared and typed as verb parameters are
    "setting-undeclared.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}}, "x": 1},
    "setting-fmt.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}}, "fmt": "xml"},
    "setting-threads.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}}, "threads": "2"},
    "setting-seed.json": {"command": "gen", "params": {"spec": {"kind": "vdc"}}, "seed": True},
    "config-list.json": {"config": [1]},
}


CSV_CELLS = st.one_of(
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),  # numpy array scalars, as report tables hold them
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
    st.text(alphabet="[]()x^-.,0123456789", max_size=8),
)


@st.composite
def csv_series(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[CSV_CELLS] * width), max_size=30))
    return ",".join(f"c{i}" for i in range(width)), rows


def _csv_oracle_text(header, rows) -> str:
    return "\n".join(oracles.csv_lines_oracle(header, rows)) + "\n"


class TestCsvSeries:
    @given(csv_series())
    @settings(max_examples=300)
    def test_columns_give_the_per_row_bytes(self, series):
        header, rows = series
        text = cli.csv_text((header, list(zip(*rows))))
        assert text.encode() == _csv_oracle_text(header, rows).encode()

    @given(st.lists(st.lists(CSV_CELLS, max_size=12), max_size=4))
    @example([])
    @example([[], []])
    @example([[1, 2], []])
    @example([[0.1, -0.0, float("inf")]])
    @example([range(1, 3), [1e16, float("nan"), 3.0], ("a", "b")])
    def test_unequal_columns_stop_at_the_shortest(self, columns):
        # zip stops at the shortest column; no column at all leaves the header only
        header = ",".join(f"c{i}" for i in range(len(columns)))
        text = cli.csv_text((header, columns))
        assert text.encode() == _csv_oracle_text(header, list(zip(*columns))).encode()

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: round(x, 1)), min_size=1,
                    max_size=80))
    # atoms at +inf or at -inf (not both: that window has no mean), repeated values
    @example([float("inf"), 0.5, 0.5, float("inf"), 0.25])
    @example([float("-inf"), float("-inf"), 2.0, -0.0, 0.0])
    @example([1.5, 1.5, 1.5])
    def test_edf_series_bytes_equal_the_per_breakpoint_oracle(self, values):
        v = SimpleNamespace(seq=PeriodicTable(values), n=len(values))
        _, series = cli._run_edf(v, None)
        F = edf(v.seq.window(v.n))
        want = oracles.csv_lines_oracle(series[0], oracles.edf_series_oracle(F))
        assert cli.csv_text(series) == "\n".join(want) + "\n"


class TestExitCodes:
    def test_bad_json_is_config_error(self, capsys):
        assert main(["gen", "--spec", "{not json"]) == 2

    def test_out_of_memory_is_refused_in_one_line(self):
        # the window's first level asks for 8 GB at once; the address-space cap
        # is set in the child only, so that allocation fails and touches nothing
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        # one BLAS thread, so that its buffers fit under the cap on any core count
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        argv = [sys.executable, "-m", "measeq.cli", "gen", "--spec",
                '{"kind":"vdc","chain":{"ratio":1000000000}}', "--n", "1000000000"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=cap,
                              timeout=120)
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("run refused: out of memory: Unable to allocate")

    def test_unknown_pred_is_config_error(self, capsys):
        assert main(["density", "--pred", "cubes"]) == 2

    @pytest.mark.parametrize("cells", ["0", "-3"])
    def test_nonpositive_cells_is_config_error(self, capsys, cells):
        argv = ["dist", "indep", "--seq", '{"kind":"vdc"}', "--seq2", '{"kind":"vdc"}',
                "--n", "100", "--cells", cells]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad --cells: need at least 1, got {cells}"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps, shown", [("0", "0.0"), ("-0.2", "-0.2"), ("NaN", "nan")])
    def test_nonpositive_weaklaw_eps_is_config_error(self, capsys, eps, shown):
        assert main(["exp", "weaklaw", "--config", f'{{"primes":12,"eps":{eps}}}']) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad --config key eps: need a number > 0, got {shown}"
        ]

    @pytest.mark.parametrize("k", ["0", "9", "12", "x", "2.5", ""])
    def test_factorial_ladder_out_of_range_is_config_error(self, capsys, k):
        assert main(["density", "--pred", "squares", "--ladder", f"factorial:{k}"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad ladder 'factorial:{k}': factorial:K needs an integer K in 1..8"
        ]

    @pytest.mark.parametrize("pred", ["primes", "squares"])
    def test_density_ladder_past_int64_is_config_error(self, capsys, pred):
        ladder = "1,2,6,100000000000000000000"
        assert main(["density", "--pred", pred, "--ladder", ladder, "--window", "1000"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bad ladder '{ladder}': density moduli must be at most 2**63 - 1"
        ]

    def test_polyadic_levels_past_int64_are_accepted(self, capsys):
        assert main(["polyadic", "sample", "--levels", "1,2,100000000000000000000"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["levels"][-1] == 10**20

    def test_levels_are_exact_integers(self, capsys):
        argv = ["--seed", "1", "polyadic", "sample", "--levels", "1,9007199254740993"]
        status, out = run_json(capsys, argv)
        assert status == 0
        assert out["report"]["levels"] == [1, 9007199254740993]

    def test_density_ladder_takes_the_largest_modulus(self, capsys):
        argv = ["density", "--pred", "primes", "--ladder", "1,2,9223372036854775807",
                "--grid", "1000"]
        status, out = run_json(capsys, argv)
        assert status == 0
        assert out["report"]["measurability"]["levels"] == [1, 2]

    @pytest.mark.parametrize("grid", ["1000.7,2000", "1e3..2000.5", "1e400,2000"])
    def test_inexact_grid_is_config_error(self, capsys, grid):
        assert main(["density", "--pred", "primes", "--grid", grid]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: bad grid '{grid}'")

    @pytest.mark.parametrize("text, want", [
        ("1,1e3,9007199254740993", (1, 1000, 9007199254740993)),
        ("2.0,6E1,1_000", (2, 60, 1000)),
    ])
    def test_ladder_integers_are_exact(self, text, want):
        assert parse_ladder(text) == want
        assert cli.parse_grid(text) == want

    @pytest.mark.parametrize("text", ["2.5", "1e-1", "9007199254740993.0", "1e-999999999",
                                      "nan", "inf", "1e400", "0x10", ""])
    def test_inexact_ladder_is_config_error(self, text):
        with pytest.raises(ConfigError, match="^bad ladder "):
            parse_ladder(f"1,{text}")

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
        # a cover built without its progressions fails the check on every level
        empty = np.zeros(0, dtype=np.int64)
        monkeypatch.setattr(APSet, "__init__",
                            lambda self, pairs: object.__setattr__(self, "arrays", (empty, empty)))
        assert main(["density", "--pred", "squares", "--window", "1000"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["run refused: cover misses window elements [1, 4, 9, 16, 25]"]

    @pytest.mark.parametrize("inf, inf2", [("Infinity", "-Infinity"), ("-Infinity", "Infinity")])
    def test_conv_of_opposite_infinite_atoms_is_refused(self, capsys, inf, inf2):
        argv = ["dist", "conv", "--seq", f'{{"kind":"periodic","values":[{inf},0]}}',
                "--seq2", f'{{"kind":"periodic","values":[{inf2},2]}}', "--n", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "run refused: an atom at +inf and one at -inf have no sum"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb, flags, want", [
        ("moments", ["--seq", '{"kind":"periodic","values":[1,Infinity,0]}'],
         "window bounds [0, inf]"),
        ("corr", ["--seq", '{"kind":"periodic","values":[1,Infinity,0]}',
                  "--seq2", '{"kind":"periodic","values":[0,1,2]}'], "window 'v' bounds [0, inf]"),
        ("corr", ["--seq", '{"kind":"periodic","values":[0,1,2]}',
                  "--seq2", '{"kind":"periodic","values":[-Infinity,1]}'],
         "window 'w' bounds [-inf, 1]"),
    ])
    def test_moments_of_infinite_values_are_refused(self, capsys, verb, flags, want):
        assert main(["dist", verb, *flags, "--n", "30"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"run refused: {want} are not finite: no moments"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, message", [
        (["polyadic", "profile", "--seq", '{"kind":"periodic","values":[Infinity,0,1]}',
          "--ladder", "1,2,6"], "sequence values are not finite: no class spreads"),
        (["polyadic", "integrate", "--seq", '{"kind":"periodic","values":[Infinity,0,-Infinity]}',
          "--ladder", "1,3"], "sequence values are not finite: no period means"),
        (["exp", "resample", "--config", '{"seq":{"kind":"periodic","values":[Infinity,0,1]},'
          '"n":100000,"indices":{"n":100000}}'], "sequence values are not finite: no class spreads"),
        # sums of finite values that overflow, and atoms at both infinities
        (["dist", "moments", "--seq", '{"kind":"periodic","values":[1e308,1e308,-1e308]}',
          "--n", "30"], "sums of window values overflow: no moments"),
        (["polyadic", "integrate", "--seq", '{"kind":"periodic","values":[1e308,1e308]}',
          "--ladder", "1,2"], "sums of sequence values overflow: no period means"),
        (["dist", "edf", "--seq", '{"kind":"periodic","values":[Infinity,0,-Infinity]}',
          "--n", "30"], "atoms at +inf and at -inf have no mean"),
        (["dist", "conv", "--seq", '{"kind":"periodic","values":[1e308,1e307]}',
          "--seq2", '{"kind":"periodic","values":[1e308,2]}', "--n", "4"],
         "sums of finite atoms overflow: no convolution"),
        (["dist", "corr", "--seq", '{"kind":"periodic","values":[1e308,-1e308,0]}',
          "--seq2", '{"kind":"periodic","values":[0,1,2]}', "--n", "30"],
         "sums of window values overflow: no correlation"),
        (["gen", "--spec", '{"kind":"periodic","values":[1e308,1e308]}', "--n", "30"],
         "sums of window values overflow or meet +inf and -inf: no mean"),
        (["gen", "--spec", '{"kind":"periodic","values":[Infinity,0,-Infinity]}', "--n", "30"],
         "sums of window values overflow or meet +inf and -inf: no mean"),
        # residues mod a witness past 2**63 - 1 do not fit the int64 index arrays
        (["exp", "metric-ud", "--config", '{"bases":[10000000000000000000],"n_alphas":2}'],
         "witness modulus 10000000000000000000 for eps=0.001 exceeds 2**63 - 1"),
        # the (0, p) progressions of the first 18 primes meet in all 2^18 - 1 > 200000 subsets
        (["density", "--pred", json.dumps({"ap": [{"r": 0, "m": p} for p in
          (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]})],
         "inclusion-exclusion exceeded 200000 terms"),
    ])
    def test_refusal_is_one_line_and_no_report(self, tmp_path, monkeypatch, capsys, argv, message):
        # an AP union past the term limit is refused before the density survey
        monkeypatch.setattr(cli.de, "survey", lambda *args: pytest.fail("the survey ran"))
        out = tmp_path / "run.json"
        assert main(["--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"run refused: {message}"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, field", [
        (["dist", "edf", "--seq", '{"kind":"periodic","values":[1,Infinity,0]}', "--n", "30"],
         "config.params.seq.values[1] is inf"),
        (["gen", "--spec", '{"kind":"periodic","values":[1,Infinity,0]}', "--n", "30"],
         "config.params.spec.values[1] is inf"),
        # finite atoms whose sums stay finite, beside atoms at +inf
        (["dist", "conv", "--seq", '{"kind":"periodic","values":[Infinity,1e308]}',
          "--seq2", '{"kind":"periodic","values":[Infinity,2]}', "--n", "4"],
         "config.params.seqs[0].values[0] is inf"),
        (["--tolerance", "nan", "dist", "moments", "--seq", '{"kind":"vdc"}', "--n", "30"],
         "config.tolerance is nan"),
    ])
    def test_report_holding_nan_or_infinity_is_refused(self, tmp_path, capsys, argv, field):
        # the runs themselves succeed, but strict JSON (RFC 8259) holds no NaN or
        # Infinity, so neither the echoed config nor the report could be read back
        out = tmp_path / "run.json"
        assert main(["--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"run refused: {field}: a JSON report holds no NaN or Infinity"
        ]
        assert not out.exists()

    def test_non_finite_report_field_is_named(self):
        report = {"b": [1.0, {"c": float("-inf")}], "a": 2, "z": float("nan")}
        assert cli._non_finite({"report": report}) == "report.b[1].c is -inf"
        assert cli._non_finite({"report": {"a": [0.5, "x", None, True]}}) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_metric_ud_base_below_int64_runs(self, capsys):
        config = '{"bases":[9223372036854775783],"n_alphas":2}'
        assert main(["exp", "metric-ud", "--config", config]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["polyadic", "dist", "0", "x"],
            ["polyadic", "profile", "--seq", '{"kind":"vdc"}', "--eps", "a"],
            ["dist", "conv", "--uniform", "--uniform", "--eval", "a"],
            ["exp", "resample", "--config", "{}"],
            ["exp", "resample", "--config", '{"seq":{"kind":"vdc"}}'],
            ["rerun", "density-no-params.json"],
            ["rerun", "n-abc.json"],
            ["rerun", "n-list.json"],
            ["rerun", "undeclared.json"],
            ["exp", "clt", "--config", '{"primes":3,"x":1}'],
            ["density", "--pred", '{"ap":{"r":1,"m":0}}'],
            ["density", "--pred", '{"ap":{"r":1}}'],
            ["gen", "--spec", '{"kind":"vdc","chain":{"ratio":1}}'],
            ["gen", "--spec", '{"kind":"periodic"}'],
            ["gen", "--spec", '{"kind":"vdc"}', "--n", "0"],
            ["gen", "--spec", '{"kind":"vdc"}', "--n", "-5"],
            ["density", "--pred", "squares", "--ladder", "0,6"],
            ["density", "--pred", "squares", "--grid", "5,3"],
            ["density", "--pred", "squares", "--threshold", "0"],
            ["density", "--pred", "squares", "--threshold", "-3"],
            ["exp", "clt", "--config", "@nofile.json"],
            ["rerun", "missing.json"],
            ["rerun", "list.json"],
            ["--out", "list.json/run.json", "gen", "--spec", '{"kind":"vdc"}'],
            ["exp", "clt", "--config", '{"bases":[]}'],
            ["exp", "weaklaw", "--config", '{"primes":3,"k_grid":[]}'],
            ["exp", "sss", "--config", '{"primes":3,"g":["x"]}'],
            ["exp", "sss", "--config", '{"bases":[3,5,7],"g":["x","x","x","x"]}'],
            ["polyadic", "sample", "--levels", "3,5"],
            ["polyadic", "sample", "--levels", "2,6,6"],
            ["polyadic", "profile", "--seq", "null"],
            ["dist", "indep", "--seq", '{"kind":"vdc"}', "--seq2", "null"],
            ["gen", "--spec", '{"kind":"periodic","values":[NaN]}', "--n", "3"],
            ["dist", "moments", "--seq", '{"kind":"simple","parts":[{"r":0,"m":2,"c":NaN}]}'],
            ["dist", "moments", "--seq", '{"kind":"additive","primes":{"2":NaN}}', "--n", "2"],
            ["dist", "moments", "--seq", '{"kind":"additive","primes":{"2":1},"tail":NaN}',
             "--n", "2"],
            # spec keys are declared and typed: none of these is read as something else
            ["gen", "--spec", '{"kind":"vdc","chain":{"ratio":2.5}}'],
            ["gen", "--spec", '{"kind":"vdc","chain":{"ratio":"3"}}'],
            ["gen", "--spec", '{"kind":"vdc","chain":{"levles":3}}'],
            ["gen", "--spec", '{"kind":"periodic","values":["1","2"]}'],
            ["gen", "--spec", '{"kind":"simple","parts":[{"r":1.9,"m":2,"c":"5","x":1}]}'],
            ["gen", "--spec", '{"kind":"simple","parts":[{"r":1.9,"m":2,"c":5}]}'],
            ["gen", "--spec", '{"kind":"simple","parts":[{"r":1,"m":2,"c":"5"}]}'],
            ["gen", "--spec", '{"kind":"simple","parts":[{"r":1,"m":2,"c":5,"x":1}]}'],
            ["density", "--pred", '{"threshold":{"seq":{"kind":"vdc"},"lo":"0.25","hi":true}}',
             "--grid", "1000", "--window", "1000"],
            ["density", "--pred", '{"threshold":{"seq":{"kind":"vdc"},"hi":true}}',
             "--grid", "1000", "--window", "1000"],
            ["exp", "niven", "--config", json.dumps({"indices": [k + 0.5 for k in range(1000)]})],
            ["exp", "clt", "--config", '{"primes":3,"bases":[2,5],"n":2000}'],
            # chains past the first modulus >= 2**1075, whose extra levels no run reads
            ["gen", "--spec", '{"kind":"vdc","chain":{"ratio":10,"levels":100000}}', "--n", "3"],
            ["gen", "--spec", '{"kind":"vdc","chain":{"levels":1101}}', "--n", "3"],
            ["gen", "--spec", '{"kind":"vdc","chain":{"factorial":201}}', "--n", "3"],
            ["rerun", "setting-undeclared.json"],
            ["rerun", "setting-fmt.json"],
            ["rerun", "setting-threads.json"],
            ["rerun", "setting-seed.json"],
            ["rerun", "config-list.json"],
            ["--seed", "x", "gen", "--spec", '{"kind":"vdc"}'],
            ["--threads", "1.5", "gen", "--spec", '{"kind":"vdc"}'],
            ["--tolerance", "x", "gen", "--spec", '{"kind":"vdc"}'],
            ["--format", "xml", "gen", "--spec", '{"kind":"vdc"}'],
        ],
    )
    def test_bad_input_is_one_line_config_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        for name, content in BAD_RERUNS.items():
            Path(name).write_text(json.dumps(content))
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("key, status, out, err", [
        (2**61 - 1, 0, "n,value\n1,0.0\n2,0.5\n3,0.2\n", ""),
        ((2**31 - 1) * (2**31 + 11), 1, "",
         "run refused: 4611686039902224373 is not prime\n"),
        (10**25 + 13, 2, "", "config error: bad sequence spec {'kind': 'additive', 'primes': "
         "{'2': 0.5, '3': 0.2, '10000000000000000000000013': 0.25}}: cannot decide whether "
         "10000000000000000000000013 is prime: need n < 3317044064679887385961981\n"),
    ])
    def test_additive_key_past_the_sieve(self, capsys, key, status, out, err):
        # keys above 2**24 go to Miller-Rabin, which is exact below 3.3e24
        spec = '{"kind":"additive","primes":{"2":0.5,"3":0.2,"%d":0.25}}' % key
        assert main(["--format", "csv", "gen", "--spec", spec, "--n", "3"]) == status
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["exp", "clt", "--config", '{"bases":[]}'],
             "bad --config key bases: need 1 or more items, got 0"),
            (["exp", "weaklaw", "--config", '{"primes":3,"k_grid":[]}'],
             "bad --config key k_grid: need 1 or more items, got 0"),
            (["exp", "sss", "--config", '{"primes":3,"g":["x"]}'],
             "bad --config key g: need 3 items (test function names, one per member), got 1"),
            (["exp", "sss", "--config", '{"primes":3}'],
             "bad --config key g: need 3 items (test function names, one per member), got 2"),
            (["polyadic", "sample", "--levels", "3,5"],
             "bad levels '3,5': levels must increase by divisibility (3 -> 5)"),
        ],
    )
    def test_list_rules_name_the_key(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]

    def test_integer_past_the_float_range_is_config_error(self, capsys):
        # a float key given an integer that no double holds
        config = '{"primes":3,"tolerance":1%s}' % ("0" * 400)
        assert main(["exp", "clt", "--config", config]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad --config key tolerance: ")

    def test_density_ladder_need_not_be_a_chain(self, capsys):
        status, out = run_json(capsys, ["density", "--pred", "squares", "--ladder", "3,5",
                                        "--grid", "1e3..4e3", "--window", "4000"])
        assert status == 0
        assert out["report"]["measurability"]["levels"] == [3, 5]

    @pytest.mark.parametrize("setting, echoed", [({"tolerance": 1}, {"tolerance": 1.0}),
                                                  ({"seed": 1.0}, {"seed": 1})])
    def test_rerun_settings_take_numbers_as_params_do(self, tmp_path, capsys, setting, echoed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "gen", "params": {"spec": {"kind": "vdc"}}, **setting}))
        status, out = run_json(capsys, ["rerun", str(path)])
        assert status == 0
        assert out["config"] == _config("gen", None, {"spec": {"kind": "vdc"}}, out=None, **echoed)
        assert [type(out["config"][k]) for k in echoed] == [type(v) for v in echoed.values()]

    def test_rerun_checks_the_levels_chain(self, tmp_path, capsys):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"command": "polyadic", "verb": "sample",
                                    "params": {"levels": "2,6,9"}}))
        assert main(["rerun", str(path)]) == 2
        assert "(6 -> 9)" in capsys.readouterr().err

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


class TestGoldenBytes:
    # SHA-256 of each output, recorded when each of these reports was built
    # field by field and each exact value formatted on its own: the bytes stay
    CASES = [
        (["dist", "moments", "--seq", '{"kind":"vdc","chain":{"ratio":3,"levels":12}}',
          "--n", "5000"],
         "b6146b4b3505e040c6aec1fdbc5f446f483cc890ca96dc178dc80814e614611d"),
        (["dist", "corr", "--seq", '{"kind":"vdc"}', "--seq2", '{"kind":"vdc","chain":{"ratio":3}}',
          "--n", "3000"],
         "53ccbaaf06ee31f65762d157035a913f6f85304d9759d1d0b85238f051215678"),
        (["--seed", "11", "polyadic", "sample", "--levels", "factorial:8"],
         "a69fef302722899c7bd93d56313de4a7b9fac4231b117f3d1597edcde4f6cc86"),
        (["polyadic", "dist", "0", "6"],
         "ec628180232fb000ca8c6edf30d798efbf6c42fac0dc697e98982d904362c60a"),
        (["polyadic", "dist", "1", "30001"],
         "5263baeb2c39ff6a397281745e05271c9aa3b6603c7944d2b1cd5c09eb981f9d"),
        (["exp", "weaklaw", "--config", '{"primes":5,"n":4000,"k_grid":[1,5],"eps":0.2}'],
         "4d9f8ee588015e9a1d7b18fecfe563a8605234f0e7af888c9a6aeb40b6c29fcb"),
        # the reports that echo experiments' fixed values (metric-ud's eval_eps,
        # pass_fraction and N_terms, sss's tolerance) or run the continuity gate
        (["--seed", "63004043", "exp", "metric-ud", "--config", '{"primes":5,"n_alphas":4}'],
         "3559e096a84bd9ce6e3e64e6e228707c25f5a099762b533cde8af339229f37f0"),
        (["exp", "sss", "--config",
          '{"bases":[2,3],"g":["x^2","x"],"indices":{"kind":"pair_swap","n":2000}}'],
         "939cdc2c50306a70a8a7db0da36760abfd281a11ab120a02a2cf1b42cbd53a51"),
        (["exp", "resample", "--config",
          '{"seq":{"kind":"vdc","chain":{"factorial":6}},"n":81000,'
          '"indices":{"kind":"pair_swap","n":1000},"eps":0.05}'],
         "f43febdc34c8592f86aa3246778ad5c5dd14bd0a266b0e05150cad13f841fc26"),
        # CSV series, recorded while every cell was written by one `%s` join:
        # positional floats, exponent-form floats, labels, ints and 0.0
        (["--format", "csv", "gen", "--spec", '{"kind":"vdc","chain":{"ratio":2,"levels":8}}',
          "--n", "205000"],
         "5511cb7fc4416bb5a2b40cd6415e495c836dcfd5b119ca526d977fedfd1c9e4a"),
        (["--format", "csv", "gen", "--spec", '{"kind":"vdc","chain":{"ratio":10,"levels":6}}',
          "--n", "291000"],
         "4bd426c6e690f0c1f7567c8db4fa90e87cb21f78013d2988b0eb570a9143db09"),
        (["--format", "csv", "dist", "edf", "--seq", '{"kind":"vdc","chain":{"factorial":9}}',
          "--n", "39900"],
         "75892d39d31b01a303d19e0906a42386b1daf6a2548704873a998d1392b631f6"),
        (["--format", "csv", "dist", "indep", "--kind", "functional", "--seq",
          '{"kind":"vdc","chain":{"ratio":7,"levels":1}}', "--seq2",
          '{"kind":"vdc","chain":{"ratio":5,"levels":1}}', "--n", "1000"],
         "fcfcacc34cba59e4f2686a624fe9e563f437280dd3de843c1059f4129b1c0451"),
        (["--format", "csv", "polyadic", "integrate", "--seq",
          '{"kind":"vdc","chain":{"ratio":5,"levels":10}}', "--ladder", "factorial"],
         "96acb1ccabeb49662cb6d0f103e1506bd9ca277fa35d754aea4ae3e15f8b799a"),
        (["--format", "csv", "exp", "clt", "--config", '{"bases":[2,3,5],"n":4000}'],
         "762eb9b37b63859d9d4deacce6cf4df5d4e7fe64b3084929308631de66bb5a20"),
    ]

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_stdout(self, capsys, argv, digest):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_ap_union_density_with_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the echoed --out path is part of the bytes
        pred = '{"ap":[{"r":1,"m":6},{"r":4,"m":10},{"r":0,"m":7}]}'
        argv = ["--out", "ap.json", "density", "--pred", pred, "--grid", "1000,5000",
                "--window", "5000"]
        assert main(argv) == 0
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("ap.json", "ap.csv")}
        assert digests == {
            "ap.json": "a898478ffe190c7e3eac93b86e65d63ffea5ccbcff30181c8b2abdcc8c9d9ada",
            "ap.csv": "e52269eac36af8aefc774f37de02d26dda819d406ebf83b8796dc58f44357563",
        }


def _config(command, verb, params, **globals_):
    return {"command": command, "verb": verb, "params": params, "seed": 0, "out": "run.json",
            "fmt": "json", "threads": 1, "tolerance": None, **globals_}


VDC7 = '{"kind":"vdc","chain":{"ratio":7,"levels":1}}'
VDC5 = '{"kind":"vdc","chain":{"ratio":5,"levels":1}}'
FACT6 = '{"kind":"vdc","chain":{"factorial":6}}'
CELLS = {"cells": 10, "kind": "interval"}

# One argv per (command, verb, echoed key set) of the benchmark's CLI jobs, at
# small sizes, with the config each echoes; rerun files replay these bytes.
ECHOES = [
    (["density", "--pred", "blocks", "--window", "2000", "--grid", "1e3..2000"],
     _config("density", None, {"grid": "1e3..2000", "pred": "blocks", "threshold": 3, "window": 2000})),
    (["density", "--pred", "squares", "--window", "3000", "--grid", "1e3..3000", "--ladder", "primorial"],
     _config("density", None, {"grid": "1e3..3000", "ladder": "primorial", "pred": "squares",
                               "threshold": 3, "window": 3000})),
    (["exp", "weaklaw", "--config", '{"primes":4,"n":2000,"k_grid":[1,2,4],"eps":0.25}'],
     _config("exp", "weaklaw", {"config": {"primes": 4, "n": 2000, "k_grid": [1, 2, 4], "eps": 0.25}})),
    (["exp", "clt", "--config", '{"bases":[2,3,5],"n":4000}'],
     _config("exp", "clt", {"config": {"bases": [2, 3, 5], "n": 4000}})),
    (["exp", "sss", "--config", '{"bases":[2,3],"g":["x^2","x"],"indices":{"kind":"pair_swap","n":2000}}'],
     _config("exp", "sss", {"config": {"bases": [2, 3], "g": ["x^2", "x"],
                                       "indices": {"kind": "pair_swap", "n": 2000}}})),
    (["exp", "resample", "--config",
      '{"seq":' + FACT6 + ',"n":81000,"indices":{"kind":"pair_swap","n":1000},"eps":0.05}'],
     _config("exp", "resample", {"config": {"seq": {"kind": "vdc", "chain": {"factorial": 6}}, "n": 81000,
                                            "indices": {"kind": "pair_swap", "n": 1000}, "eps": 0.05}})),
    (["exp", "niven", "--config", '{"indices":{"kind":"even","n":1000},"M":5}'],
     _config("exp", "niven", {"config": {"indices": {"kind": "even", "n": 1000}, "M": 5}})),
    (["dist", "edf", "--seq", '{"kind":"vdc","chain":{"ratio":2,"levels":5}}', "--n", "50"],
     _config("dist", "edf", {"n": 50, "seq": {"kind": "vdc", "chain": {"ratio": 2, "levels": 5}}, **CELLS})),
    (["dist", "conv", "--uniform", "--uniform", "--n", "50", "--eval", "0.088,0.891"],
     _config("dist", "conv", {"eval": [0.088, 0.891], "n": 50,
                              "seqs": [{"kind": "uniform", "n": 50}, {"kind": "uniform", "n": 50}]})),
    (["gen", "--spec", '{"kind":"vdc","chain":{"ratio":2,"levels":8}}', "--n", "50"],
     _config("gen", None, {"n": 50, "spec": {"kind": "vdc", "chain": {"ratio": 2, "levels": 8}}})),
    (["--seed", "63004043", "exp", "metric-ud", "--config", '{"primes":5,"n_alphas":4}'],
     _config("exp", "metric-ud", {"config": {"primes": 5, "n_alphas": 4}}, seed=63004043)),
    (["dist", "moments", "--seq", VDC7, "--n", "1000"],
     _config("dist", "moments", {"n": 1000, "seq": json.loads(VDC7), **CELLS})),
    (["dist", "corr", "--seq", VDC7, "--seq2", VDC5, "--n", "1000"],
     _config("dist", "corr", {"n": 1000, "seq": json.loads(VDC7), "seq2": json.loads(VDC5), **CELLS})),
    (["dist", "indep", "--kind", "functional", "--seq", VDC7, "--seq2", VDC5, "--n", "1000"],
     _config("dist", "indep", {"cells": 10, "kind": "functional", "n": 1000,
                               "seq": json.loads(VDC7), "seq2": json.loads(VDC5)})),
    (["polyadic", "integrate", "--seq", '{"kind":"vdc","chain":{"ratio":5,"levels":10}}', "--ladder", "factorial"],
     _config("polyadic", "integrate", {"ladder": "factorial",
                                       "seq": {"kind": "vdc", "chain": {"ratio": 5, "levels": 10}}})),
    (["polyadic", "profile", "--seq", FACT6, "--eps", "0.2,0.01,0.001", "--window", "81000"],
     _config("polyadic", "profile", {"eps": [0.2, 0.01, 0.001], "seq": json.loads(FACT6), "window": 81000})),
    (["--seed", "371296", "polyadic", "sample", "--levels", "factorial"],
     _config("polyadic", "sample", {"levels": "factorial"}, seed=371296)),
    (["polyadic", "dist", "134", "1156"], _config("polyadic", "dist", {"a": 134, "b": 1156})),
    (["--format", "csv", "gen", "--spec", '{"kind":"vdc"}', "--n", "4"],
     _config("gen", None, {"n": 4, "spec": {"kind": "vdc"}}, fmt="csv")),
    (["polyadic", "dist", "0", "6"], _config("polyadic", "dist", {"a": 0, "b": 6})),
]


class TestEcho:
    @pytest.mark.parametrize("argv, config", ECHOES)
    def test_echoed_config_and_rerun(self, tmp_path, monkeypatch, argv, config):
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "run.json", *argv]) == 0
        first = Path("run.json").read_bytes()
        assert json.loads(first)["config"] == config
        assert main(["rerun", "run.json"]) == 0
        assert Path("run.json").read_bytes() == first


def _wrong_type(p):
    """A JSON value of none of the parameter's types."""
    return 5 if str in p.types else "x"


def _rerun_cases():
    """For every declared parameter (and experiment config key) of every verb:
    a valid echoed config with that parameter deleted when it is required,
    and with its value of a wrong JSON type."""
    bases = {(c["command"], c["verb"]): c for _, c in ECHOES}
    for command, (_, verbs) in cli._COMMANDS.items():
        for verb, spec in verbs.items():
            for p in spec.params:
                for q, in_config in [(p, False)] + [(k, True) for k in p.keys]:
                    for case in ("missing", "mistyped") if q.required else ("mistyped",):
                        changed = json.loads(json.dumps(bases[command, verb]))
                        into = changed["params"]["config"] if in_config else changed["params"]
                        into.pop(q.name, None)
                        if case == "mistyped":
                            into[q.name] = _wrong_type(q)
                        yield pytest.param(changed, q.name, id=f"{command}-{verb}-{q.name}-{case}")


class TestRerunValidation:
    def test_every_verb_has_a_pinned_echo(self):
        pinned = {(c["command"], c["verb"]) for _, c in ECHOES}
        assert pinned == {(c, v) for c, (_, verbs) in cli._COMMANDS.items() for v in verbs}

    @pytest.mark.parametrize("config, name", list(_rerun_cases()))
    def test_missing_or_mistyped_param_is_config_error(self, tmp_path, capsys, config, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["rerun", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert name in err[0] or name.upper() in err[0]


# Bounded fuzz: argv built from the verb table, and echoed configs for rerun.
# Sizes (windows, n, cells, family members, points) stay small, so that no
# example allocates more than a few MB.
INTS = st.integers(-7, 1_000)
SMALL = st.one_of(st.integers(1, 12), st.integers(-7, 12))
SIZES = st.one_of(st.integers(1, 300), st.integers(-7, 300))
NUMBERS = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, -1.0, float("nan"), float("inf")]),
                    st.floats(-2, 2), SMALL)
JUNK = st.sampled_from([None, "", "{", "[1,", "{not json", "x", "2.5", "1e999", "@nofile"])
SEQS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("vdc")}, optional={"chain": st.one_of(
        st.fixed_dictionaries({}, optional={"ratio": SMALL, "levels": SMALL}),
        st.fixed_dictionaries({"factorial": SMALL}),
        st.fixed_dictionaries({"moduli": st.lists(SMALL, max_size=4)}),
    )}),
    st.fixed_dictionaries({"kind": st.just("additive")}, optional={
        "primes": st.dictionaries(st.sampled_from(["2", "3", "4", "5", "7", "x"]), NUMBERS),
        "tail": NUMBERS,
    }),
    st.fixed_dictionaries({"kind": st.just("simple")}, optional={"parts": st.lists(
        st.fixed_dictionaries({"r": SMALL, "m": SMALL, "c": NUMBERS}), max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("periodic")},
                          optional={"values": st.lists(NUMBERS, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("uniform")}, optional={"n": INTS}),
    st.fixed_dictionaries({"kind": st.sampled_from(["fn", 3])}),
)
INT_LISTS = st.lists(INTS, max_size=4).map(lambda xs: ",".join(map(str, xs)))
LADDERS = st.one_of(
    st.sampled_from(["factorial", "primorial", "factorial:3", "factorial:9", "1e3", "2,6,24"]),
    INT_LISTS,
)
VALUES = {
    "spec": SEQS, "seq": SEQS, "seq2": SEQS,
    "n": SIZES, "window": SIZES, "cells": SMALL, "n_alphas": SMALL, "h_max": SMALL,
    "primes": SMALL, "M": SMALL, "a": INTS, "b": INTS,
    "pred": st.one_of(
        st.sampled_from(["primes", "squares", "blocks", "cubes"]),
        st.fixed_dictionaries({"ap": st.fixed_dictionaries({"r": SMALL, "m": SMALL})}),
        st.fixed_dictionaries({"ap": st.lists(
            st.fixed_dictionaries({"r": SMALL, "m": SMALL}), max_size=3)}),
        st.fixed_dictionaries({"threshold": st.fixed_dictionaries(
            {"seq": SEQS}, optional={"n": SIZES, "lo": NUMBERS, "hi": NUMBERS})}),
    ),
    "grid": st.one_of(INT_LISTS, st.tuples(INTS, INTS).map(lambda ab: "%d..%d" % ab),
                      st.sampled_from(["1e3..4e3", "1e2,2e2", "1000.7,2000"])),
    "ladder": LADDERS, "levels": LADDERS,
    "threshold": st.one_of(SMALL, NUMBERS),
    "kind": st.sampled_from(["interval", "functional", "other"]),
    "eps": st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3)),
    "eval": st.lists(NUMBERS, max_size=3),
    "delta": NUMBERS, "tolerance": NUMBERS,
    "bases": st.lists(INTS, max_size=4),
    "k_grid": st.lists(INTS, max_size=3),
    "g": st.lists(st.sampled_from([*cli._G_REGISTRY, "cubes"]), max_size=4),
    "indices": st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["identity", "pair_swap", "even", "x"]),
                               "n": SIZES}),
        st.lists(INTS, max_size=5),
    ),
}


def _text(value) -> str:
    """A JSON value as the command line writes it."""
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(isinstance(x, (int, float)) for x in value):
        return ",".join(map(str, value))
    return json.dumps(value)


@st.composite
def fuzz_params(draw, params):
    """Values for a verb's parameters, one in eight left out and one in eight
    malformed; the sizes are always given, so that no default window is taken."""
    out = {}
    for p in params:
        if p.keys:
            value = draw(fuzz_params(p.keys))
        elif p.read is not None:
            value = draw(st.lists(SEQS, max_size=3))
        else:
            value = draw(VALUES[p.name])
        if draw(st.integers(0, 7)) == 3:
            value = draw(JUNK)
        if p.name in ("n", "indices", "grid") or draw(st.integers(0, 7)) != 3:
            out[p.name] = value
    if draw(st.integers(0, 15)) == 7:
        out["undeclared"] = 1
    return out


VERBS = st.sampled_from([(c, v) for c, (_, verbs) in cli._COMMANDS.items() for v in verbs])


@st.composite
def fuzz_argv(draw):
    command, verb = draw(VERBS)
    params = cli._COMMANDS[command][1][verb].params
    given = draw(fuzz_params(params))
    argv = ["--seed", str(draw(INTS)), "--format", draw(st.sampled_from(["json", "csv"]))]
    argv += [command] if verb is None else [command, verb]
    for p in params:
        if p.read is not None:  # dist conv: --uniform, repeated, then --seq and --seq2
            argv += ["--uniform"] * draw(st.integers(0, 2))
            for flag in ("--seq", "--seq2"):
                argv += [flag, _text(draw(st.one_of(SEQS, JUNK)))] if draw(st.booleans()) else []
        elif p.name in given:
            flag = next(iter(p.cli_flags()))
            text = _text(given[p.name])
            argv += [flag, text] if flag.startswith("--") else [text]
    return argv


@st.composite
def fuzz_config(draw):
    command, verb = draw(VERBS)
    config = {"command": draw(st.sampled_from([command] * 7 + ["nope"])),
              "verb": draw(st.sampled_from([verb] * 6 + [None, "nope"])),
              "params": draw(fuzz_params(cli._COMMANDS[command][1][verb].params)),
              "seed": draw(INTS), "fmt": draw(st.sampled_from(["json"] * 3 + ["csv", "xml"])),
              "threads": draw(st.one_of(SMALL, JUNK)),
              "out": draw(st.sampled_from([None, "", "run.json", "sub/run.json", 3]))}
    if draw(st.booleans()):
        config["tolerance"] = draw(st.one_of(st.none(), st.floats(0, 1), NUMBERS))
    if draw(st.integers(0, 15)) == 7:
        config["undeclared"] = 1
    return config


# (argv, spec): one valid spec per kind and form, every key given; a float key
# holds a float and an int key an int, so that a fraction is wrong only for ints
GEN, PRED, NIVEN = (["gen", "--n", "4", "--spec"],
                    ["density", "--grid", "1000", "--window", "1000", "--pred"],
                    ["exp", "niven", "--config"])
VALID_SPECS = [
    (GEN, {"kind": "vdc", "chain": {"ratio": 3, "levels": 2}}),
    (GEN, {"kind": "vdc", "chain": {"factorial": 4}}),
    (GEN, {"kind": "vdc", "chain": {"moduli": [1, 2, 6]}}),
    (GEN, {"kind": "additive", "primes": {"2": 0.25, "3": 0.5}, "tail": 0.001}),
    (GEN, {"kind": "simple", "parts": [{"r": 0, "m": 2, "c": 1.0}, {"r": 1, "m": 2, "c": 2.5}]}),
    (GEN, {"kind": "periodic", "values": [0.5, 1.0, 0.25]}),
    (GEN, {"kind": "uniform", "n": 7}),
    (PRED, {"ap": {"r": 1, "m": 3}}),
    (PRED, {"ap": [{"r": 1, "m": 3}, {"r": 0, "m": 4}]}),
    (PRED, {"threshold": {"seq": {"kind": "vdc"}, "n": 1000, "lo": 0.25, "hi": 0.5}}),
    *[(NIVEN, {"indices": {"kind": kind, "n": 1000}}) for kind in ("identity", "pair_swap", "even")],
    (NIVEN, {"indices": list(range(1, 1001))}),
]


def _spec_argv(argv, spec):
    return argv + [json.dumps(spec)]


def _nodes(value):
    """(container, key, item) for every value nested in `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield value, key, item
        if isinstance(item, (dict, list)):
            yield from _nodes(item)


@st.composite
def corrupted_spec(draw):
    """A valid spec with one key corrupted: a value of a wrong JSON type, an
    undeclared key, or a non-integral number where an integer is due."""
    argv, spec = draw(st.sampled_from(VALID_SPECS))
    spec = json.loads(json.dumps(spec))
    nodes = list(_nodes(spec))
    how = draw(st.sampled_from(["type", "undeclared", "fraction"]))
    ints = [(c, k, x) for c, k, x in nodes if type(x) is int]
    if how == "undeclared":
        draw(st.sampled_from([spec] + [x for _, _, x in nodes if isinstance(x, dict)]))["levles"] = 1
    elif how == "fraction" and ints:
        container, key, x = draw(st.sampled_from(ints))
        container[key] = x + 0.5
    else:  # not JSON null, which counts as an absent key
        container, key, x = draw(st.sampled_from(nodes))
        container[key] = draw(st.sampled_from([True, 3] if isinstance(x, str) else [True, "1"]))
    return _spec_argv(argv, spec)


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 does."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(fuzz_argv())
    @settings(max_examples=300, deadline=None)
    def test_main_exits_zero_one_or_two(self, argv):
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                status = main(argv)
        except SystemExit as e:  # argparse's own usage errors
            status = e.code
        assert status in (0, 1, 2), argv
        if status == 0 and argv[3] == "json":  # argv[2:4] is --format
            _strict_json(stdout.getvalue())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(fuzz_config())
    @settings(max_examples=300, deadline=None)
    # a run that computes, with a NaN tolerance for the config echo
    @example({"command": "gen", "verb": None, "params": {"spec": {"kind": "vdc"}, "n": 10},
              "seed": 0, "fmt": "json", "tolerance": float("nan")})
    def test_run_returns_or_refuses(self, tmp_path_factory, config):
        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout):
            mp.chdir(tmp_path_factory.mktemp("run"))  # where a relative "out" is written
            try:
                status, output = cli.run(config)
            except MeaseqError:
                return
            out = config.get("out")
            text = Path(out).read_text() if out else stdout.getvalue()
        assert status == 0
        if out or config["fmt"] == "json":
            assert _strict_json(text) == output

    @pytest.mark.parametrize("argv, spec", VALID_SPECS)
    def test_uncorrupted_specs_run(self, capsys, argv, spec):
        assert main(_spec_argv(argv, spec)) == 0

    @given(corrupted_spec())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_spec_key_is_config_error(self, argv):
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            assert main(argv) == 2, argv
        err = stderr.getvalue().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), (argv, err)


ROOT = Path(__file__).resolve().parents[1]


def _examples(doc):
    """The `measeq ...` lines of the README CLI block or the man page EXAMPLES."""
    text = (ROOT / doc).read_text()
    if doc == "README.md":
        text = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    else:
        text = text.split("## EXAMPLES", 1)[1]
    lines = (shlex.split(line, comments=True) for line in text.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["measeq"]]


def _script_lines():
    """The `python scripts/...` lines of the README Scripts block."""
    text = (ROOT / "README.md").read_text().split("## Scripts", 1)[1]
    text = text.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in text.splitlines() if line.strip()]


# results/density_survey.json of `density_survey.py --window 1000000`
DENSITY_SURVEY_SHA256 = "e82dea4ff4b22f74b8240b81a79ae689684c47b60c37412c7d194f870eaf62e9"
# the six results files of `run_transfer_experiments.py`, read in this order
TRANSFER_RESULTS = [f"{name}{ext}" for name in ("clt", "weak_law", "metric_ud")
                    for ext in (".json", "_trace.csv")]
TRANSFER_RESULTS_SHA256 = "396a8f00a30cfcd1d6742016b263ecaf05673caa584e425f9e5eb46307bf5a0a"


@pytest.mark.parametrize("doc", ["README.md", "docs/measeq.1.md"])
def test_documented_examples_run(tmp_path, monkeypatch, capsys, doc):
    monkeypatch.chdir(tmp_path)
    examples = _examples(doc)
    assert len(examples) >= 5
    for argv in examples:
        assert main(argv) == 0, argv
    if doc != "README.md":
        return
    # the library sketch as written
    sketch = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    exec(sketch.split("```python", 1)[1].split("```", 1)[0], {})
    # the scripts as written, from the repository root's scripts/, writing under tmp_path
    scripts = _script_lines()
    assert [argv[:2] for argv in scripts] == [
        ["python", "scripts/run_transfer_experiments.py"],
        ["python", "scripts/density_survey.py"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    for _, script, *args in scripts:
        done = subprocess.run([sys.executable, str(ROOT / script), *args], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    digest = hashlib.sha256((tmp_path / "results" / "density_survey.json").read_bytes())
    assert digest.hexdigest() == DENSITY_SURVEY_SHA256
    digest = hashlib.sha256()
    for name in TRANSFER_RESULTS:
        digest.update((tmp_path / "results" / name).read_bytes())
    assert digest.hexdigest() == TRANSFER_RESULTS_SHA256


def _man_page_entries():
    """(command, verb) -> the flags (and config keys) its man page entry lists."""
    man = (ROOT / "docs" / "measeq.1.md").read_text()
    entries = {}
    for section in man.split("\n### ")[1:]:
        command = section.split("\n", 1)[0].strip()
        for term in re.findall(r"^`([^`\n]+)`\n: ", section, flags=re.M):
            head = term.split()[0]
            verb = None if head == command else head
            keys = re.search(r"\{(.*)\}", term)
            entries[command, verb] = (
                set(re.findall(r"--[\w-]+", term)),
                set(re.split(r"[|,\s]+", keys.group(1))) if keys else set(),
            )
    return entries


def test_man_page_documents_the_table_flags():
    table = {}
    for command, (_, verbs) in cli._COMMANDS.items():
        for verb, spec in verbs.items():
            flags = {f for p in spec.params for f in p.cli_flags() if f.startswith("--")}
            keys = {k.name for p in spec.params for k in p.keys}
            table[command, verb] = (flags, keys)
    assert _man_page_entries() == table


def test_man_page_documents_the_settings():
    man = (ROOT / "docs" / "measeq.1.md").read_text()
    section = man.split("## GLOBAL FLAGS", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^`(--[\w-]+)[^`\n]*`\n: ([^;\n]+); default ([^.\n]+)\.", section,
                         flags=re.M)
    assert entries == [(next(iter(p.cli_flags())), kind, default)
                       for p in cli._SETTINGS for _, _, kind, default in _spec_rows("", (p,))]


def _spec_rows(path, keys):
    """(spec, key, type, default) as the man page's SPECS table writes them."""
    for p in keys:
        kind = " or ".join(f"list of {p.items.__name__}" if t is list and p.items else t.__name__
                           for t in p.types)
        kind += "" if p.least is None else f" >= {p.least}"
        kind += ", one of " + ", ".join(p.choices) if p.choices else ""
        default = ("required" if p.required else "unset" if p.default is None
                   else f"`{json.dumps(p.default)}`")
        yield path, p.name, kind, default
        yield from _spec_rows(f"{path} {p.name}", p.keys)


def test_man_page_documents_the_spec_tables():
    man = (ROOT / "docs" / "measeq.1.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| ([^|]+) \| ([^|]+) \|$", man, flags=re.M)
    tables = [*((kind, keys) for kind, (keys, _) in cli._SEQUENCE_KINDS.items()),
              ("predicate", cli._PRED_KEYS), ("index", cli._INDEX_KEYS)]
    assert rows == [row for spec, keys in tables for row in _spec_rows(spec, keys)]


def test_g_registry_reuses_the_test_family():
    assert list(cli._G_REGISTRY) == ["x", "x^2", "x^3", "1-x", "one"]
    family = dict(DEFAULT_TEST_FAMILY)
    assert all(cli._G_REGISTRY[name] is family[name] for name in ("x", "x^2", "x^3"))
