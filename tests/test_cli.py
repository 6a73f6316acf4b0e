"""Config parsing, scenario runs, exit codes, and output determinism."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colflux
import colflux.cli as cli
import colflux.numerics as numerics
import colflux.observe as observe
import colflux.transport as transport

from colflux.assimilate import PRIOR_KINDS
from colflux.cli import (
    ExperimentConfig,
    _exit_code_for,
    main,
    parse_config,
    run_scenario,
)
from colflux.errors import (
    CapacityError,
    ConfigError,
    DiagnosticError,
    DomainError,
    NumericalError,
    StabilityError,
)

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
SRC = str(Path(colflux.__file__).resolve().parents[1])


def run_python(args, **kwargs):
    """Run a fresh interpreter with the package under test importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def small_config(scenario, out, **extra):
    base = {
        "scenario": scenario,
        "grid": {"nz": 161, "nt": 128},
        "spectral": {"n_modes": 10},
        "out": str(out),
    }
    base.update(extra)
    return base


def run_cli(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return main([config["scenario"], "--config", str(path)])


class TestParseConfig:
    def test_defaults(self):
        config = parse_config('{"scenario": "validate"}')
        assert config.nz == 1001
        assert config.nt == 1024
        assert config.n_modes == 32
        assert config.seed == 0
        assert config.prior_kind == "dirichlet_inverse_laplacian"

    def test_unknown_key_is_named_by_path(self):
        with pytest.raises(ConfigError, match="grid.bogus"):
            parse_config('{"scenario": "validate", "grid": {"nz": 65, "bogus": 1}}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('{"scenario": "teleport"}')

    def test_scenario_argument_fills_in_for_a_missing_key(self):
        # the CLI passes its positional scenario, so the document needs none
        config = parse_config("{}", scenario="eigen")
        assert config.scenario == "eigen"
        assert config.nz == 1001
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("{}")

    def test_scenario_argument_wins_over_the_key(self):
        config = parse_config('{"scenario": "validate"}', scenario="eigen")
        assert config.scenario == "eigen"

    def test_unknown_weight_label(self):
        text = json.dumps(
            {
                "scenario": "assimilate",
                "observations": {
                    "times": [0.5],
                    "weights": ["rho_top"],
                    "noise": [0.1],
                },
            }
        )
        with pytest.raises(ConfigError, match="rho_top"):
            parse_config(text)

    def test_observation_block_lengths_must_match(self):
        text = json.dumps(
            {
                "scenario": "assimilate",
                "observations": {"times": [0.25, 0.5], "noise": [0.1]},
            }
        )
        with pytest.raises(ConfigError, match="2 observation times"):
            parse_config(text)

    def test_golden_config_round_trip(self):
        text = (DATA / "golden_config.json").read_text(encoding="utf-8")
        config = parse_config(text)
        assert config.canonical() == json.loads(text)

    def test_canonical_round_trip_for_defaults(self):
        config = parse_config('{"scenario": "weights"}')
        again = parse_config(json.dumps(config.canonical()))
        assert again == config


class TestExitCodes:
    def test_mapping(self):
        assert _exit_code_for(ConfigError("x")) == 2
        assert _exit_code_for(DomainError("x")) == 2
        assert _exit_code_for(ValueError("x")) == 2
        assert _exit_code_for(NumericalError("x")) == 3
        assert _exit_code_for(StabilityError(step=3)) == 3
        assert _exit_code_for(DiagnosticError("x")) == 3
        assert _exit_code_for(CapacityError("x")) == 4

    def test_missing_config_file(self, capsys):
        code = main(["validate", "--config", "/nonexistent/nowhere.json"])
        assert code == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert report["exit_code"] == 2

    def test_capacity_error_from_the_dense_oracle(self, tmp_path, capsys):
        config = small_config(
            "oracle_check", tmp_path / "out", grid={"nz": 161, "nt": 2048}
        )
        code = run_cli(tmp_path, config)
        assert code == 4
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "CapacityError"
        error_file = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error_file == report

    @pytest.mark.parametrize("scenario", ["simulate", "assimilate"])
    def test_stepper_overflow_reports_only_json_on_stderr(self, tmp_path, scenario):
        # a fresh process, so nothing but the program writes to stderr; the
        # overflow must surface as the StabilityError report, not a warning.
        # It comes before the latest observation (t = 1), so the observing
        # sweep of assimilate meets it too
        config = {
            "flux": {"kind": "sine", "amplitude": 1e308, "cycles": 1.0},
            "grid": {"nz": 33, "nt": 64},
            "spectral": {"n_modes": 4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = ["-m", "colflux.cli", scenario, "--config", str(path)]
        proc = run_python([*args, "--out", str(tmp_path / "out")], timeout=120)
        assert proc.returncode == 3
        report = json.loads(proc.stderr)
        assert report["error"] == "StabilityError"
        assert report["exit_code"] == 3

    def test_forward_map_disagreement_stops_before_any_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        # no estimator reads a forward map that fails the check, so such a
        # map must not reach map_flux.csv
        original = colflux.assimilate.impulse_response

        def bumped(*args):
            rows = original(*args)
            return rows + 1e-6 * np.abs(rows).max()

        monkeypatch.setattr(colflux.assimilate, "impulse_response", bumped)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config("assimilate", out))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "NumericalError"
        assert "disagree" in report["message"]
        assert not (out / "map_flux.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_a_failed_factorization_stops_before_the_posterior_mean(
        self, tmp_path, capsys, monkeypatch
    ):
        # a precision Cholesky finds is not positive definite gives no mean
        failing = SimpleNamespace(dpotrf=lambda a, **kwargs: (a, 5))
        monkeypatch.setattr(colflux.assimilate, "_flapack", failing)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config("oracle_check", out))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "NumericalError"
        assert "not positive definite: leading minor 5 is not positive" in report["message"]
        assert not (out / "posterior_mean.csv").exists()

    def test_oracle_check_stays_capped_where_assimilate_runs(self, tmp_path, capsys):
        # 4097 time nodes: past the dense oracle's 2048, not the low-rank path's
        grid = {"nz": 161, "nt": 4096}
        out = tmp_path / "assimilate"
        config = small_config("assimilate", out, grid=grid, spectral={"n_modes": 16})
        assert run_cli(tmp_path, config) == 0
        variance = np.loadtxt(out / "posterior_variance.csv", delimiter=",", skiprows=1)
        assert variance.shape == (4097, 2)
        assert np.isfinite(variance).all() and (variance[:, 1] >= 0.0).all()
        report = json.loads((out / "assimilate.json").read_text())
        assert report["map_vs_oracle_mean_rel"] <= 1e-6
        assert report["forward_map_rel_gap"] <= 1e-8
        capsys.readouterr()
        config = small_config(
            "oracle_check", tmp_path / "oracle", grid=grid, spectral={"n_modes": 16}
        )
        assert run_cli(tmp_path, config, name="oracle.json") == 4
        assert error_report(capsys)["error"] == "CapacityError"

    def test_assimilate_runs_no_dense_oracle(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense oracle ran")

        for name in ("oracle_bayes", "oracle_covariance", "_dense_posterior"):
            monkeypatch.setattr(colflux.assimilate, name, refuse)
        monkeypatch.setattr(cli, "oracle_bayes", refuse)
        assert run_cli(tmp_path, small_config("assimilate", tmp_path / "out")) == 0

    def test_oracle_check_forms_no_inverse(self, tmp_path, monkeypatch):
        # it writes the dense posterior mean only, so it needs no covariance
        def refuse(*args, **kwargs):
            raise AssertionError("an nt x nt inverse was formed")

        monkeypatch.setattr(colflux.assimilate, "oracle_covariance", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert run_cli(tmp_path, small_config("oracle_check", tmp_path / "out")) == 0

    @pytest.mark.parametrize(
        "scenario, report",
        [("assimilate", "assimilate.json"), ("oracle_check", "oracle_report.json")],
    )
    def test_forward_map_gap_is_recorded(self, tmp_path, scenario, report):
        out = tmp_path / "out"
        assert run_cli(tmp_path, small_config(scenario, out)) == 0
        gap = json.loads((out / report).read_text())["forward_map_rel_gap"]
        assert 0.0 <= gap <= 1e-8

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--config", "c.json", "--seed", "abc"], "argument --seed"),
            (["nosuch", "--config", "c.json"], "argument scenario"),
            (["validate"], "--config"),
        ],
        ids=["bad-seed", "unknown-scenario", "missing-config"],
    )
    def test_argument_errors_are_json_reports(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.err)
        assert code == 2
        assert report["error"] == "ConfigError"
        assert report["exit_code"] == 2
        assert message in report["message"]
        assert "usage" not in captured.err
        assert captured.out == ""

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: colflux")
        assert captured.err == ""

    def test_blind_mode_overflow_is_a_config_error(self, tmp_path, capsys):
        config = small_config("blind", tmp_path / "out", blind={"m": 19})
        config["spectral"] = {"n_modes": 4}
        code = run_cli(tmp_path, config)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


OVERFLOWING = {"kind": "linear", "base": 1e308, "slope": 1e308}
CONSTANT_1E300 = {"kind": "constant", "value": 1e300}
ZERO = {"kind": "constant", "value": 0.0}
# w = 500 sin(2 pi z): cell Peclet number 3.9 at nz = 65
PECLET_3_9 = {"kind": "sine", "amplitude": 500.0, "cycles": 2.0}


class TestFailClosed:
    """Schema-valid inputs that once hung, exited 0 on a NaN result or on a
    grid too coarse for their advection, or printed warnings beside the
    report."""

    @pytest.mark.parametrize(
        "scenario, extra, code, cause, clean",
        [
            pytest.param(
                "blind",
                {"blind": {"m": 3, "seed_function": OVERFLOWING}},
                2,
                "blind.seed_function: evaluates to a non-finite value",
                True,
                id="blind-seed-overflows",
            ),
            pytest.param(
                "blind",
                {"blind": {"m": 3, "seed_function": {"kind": "parabola", "amplitude": 1e160}}},
                2,
                "seed's squared norm overflows",
                True,
                id="blind-seed-norm-overflows",
            ),
            pytest.param(
                "simulate",
                {"flux": CONSTANT_1E300},
                3,
                "squared norms of the field or the flux overflow",
                True,
                id="simulate-flux-1e300",
            ),
            pytest.param(
                "assimilate",
                {"flux": CONSTANT_1E300},
                3,
                "conjugate gradients overflowed",
                True,
                id="assimilate-flux-1e300",
            ),
            pytest.param(
                "assimilate",
                {"observations": {"weights": [CONSTANT_1E300, "rho_plus", "rho_plus"]}},
                3,
                "the low-rank posterior overflows",
                True,
                id="assimilate-weight-1e300",
            ),
            pytest.param(
                "oracle_check",
                {"observations": {"weights": [CONSTANT_1E300, "rho_plus", "rho_plus"]}},
                3,
                "the dense posterior precision overflows",
                True,
                id="oracle_check-weight-1e300",
            ),
            pytest.param(
                "simulate",
                {"grid": {"nz": 65, "nt": 64, "t_end": 1000.0}},
                0,
                None,
                True,
                id="simulate-t_end-1000",
            ),
            pytest.param(
                "simulate",
                {"model": {"w": PECLET_3_9}},
                2,
                "[A4] cell Peclet number |w| dz / (2 k) is 3.897e+00 >= 1 between nodes 16 and 17",
                True,
                id="simulate-cell-peclet-3.9",
            ),
            pytest.param(
                "oracle_check",
                {"model": {"w": PECLET_3_9}},
                2,
                "[A4] cell Peclet number",
                True,
                id="oracle_check-cell-peclet-3.9",
            ),
            pytest.param(
                "assimilate",
                {"prior": {"sigma": 1e-300}},
                2,
                "prior.sigma: must be positive, with a square that is a normal double",
                True,
                id="sigma-1e-300",
            ),
            pytest.param(
                "assimilate",
                {"observations": {"noise": [1e-300, 0.1, 0.1]}},
                2,
                "observations.noise[0]: must be positive, with a square",
                True,
                id="noise-1e-300",
            ),
            pytest.param(
                "oracle_check",
                {"observations": {"weights": [ZERO, ZERO, ZERO]}},
                0,
                None,
                True,
                id="oracle_check-zero-weights",
            ),
            pytest.param(
                "validate",
                {"model": {"k": {"kind": "constant", "value": -1.0}}},
                2,
                "[A2] k must be strictly positive; k=-1.0 at node 0",
                True,
                id="k-constant-negative",
            ),
            pytest.param(
                "validate",
                {"model": {"k": {"kind": "linear", "base": 1.0, "slope": -2.0}}},
                2,
                "[A2] k must be strictly positive; k=-1.0 at node 64",
                True,
                id="k-linear-crosses-zero",
            ),
            *(
                pytest.param(
                    scenario,
                    {"model": {"k": {"kind": "constant", "value": 1e308}}},
                    2,
                    "[A2] k / dz at the faces ranges over [inf, inf]",
                    True,
                    id=f"{scenario}-k-1e308",
                )
                for scenario in ("validate", "eigen")
            ),
            pytest.param(
                "eigen",
                {
                    "grid": {"nz": 1001, "nt": 64},
                    "model": {"w": {"kind": "sine", "amplitude": 1200.0, "cycles": 1.0}},
                },
                2,
                "[A4] mu = exp(int w/k), k mu / dz or the mass weights times mu leave",
                True,
                id="eigen-mu-overflows",
            ),
            pytest.param(
                "simulate",
                {"model": {"k": {"kind": "constant", "value": 1e15}}},
                3,
                "dt k / dz**2 = 6.400e+16 (M rounds away above about 1e16); "
                "lower model.k or raise grid.nt",
                True,
                id="simulate-k-1e15",
            ),
            pytest.param(
                "validate",
                {"grid": {"nz": 2, "nt": 64}},
                2,
                "column grid needs at least 3 nodes, got 2",
                True,
                id="nz-2",
            ),
        ],
    )
    def test_table(self, tmp_path, scenario, extra, code, cause, clean):
        doc = {"grid": {"nz": 65, "nt": 64}, "spectral": {"n_modes": 4}, **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        args = ["-m", "colflux.cli", scenario, "--config", str(path), "--out", str(out)]
        proc = run_python(args, timeout=30)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
            if scenario == "oracle_check":
                report = json.loads((out / "oracle_report.json").read_text())
                assert report["max_representer_vs_gain_rel_l2"] == 0.0
            return
        err = proc.stderr if clean else proc.stderr[proc.stderr.index("{\n") :]
        report = json.loads(err)  # exactly one JSON document
        assert report["exit_code"] == code
        assert cause in report["message"]

    @pytest.mark.parametrize("nz, k", [(1001, 1e145), (65, 1e150)], ids=["nz-1001", "nz-65"])
    def test_eigenproblem_with_huge_diagonal_is_solved_scaled(self, tmp_path, capsys, nz, k):
        # largest diagonals 2.0e151 and 8.2e153 once gave NaN modes (exit 3);
        # LAPACK now scales such a problem, so its eigenvalues are k times
        # those at k = 1, and its surface-gauged modes the same
        tables = []
        for value in (1.0, k):
            out = tmp_path / f"k{value:g}"
            config = small_config(
                "eigen", out, grid={"nz": nz, "nt": 64}, spectral={"n_modes": 4},
                model={"k": {"kind": "constant", "value": value}},
            )
            assert run_cli(tmp_path, config) == 0
            assert capsys.readouterr().err == ""
            tables.append(np.loadtxt(out / "eig.csv", delimiter=",", skiprows=1))
        ref, scaled = tables
        lam = ref[:, 1]
        # relative to the largest kept eigenvalue: bisection's error is
        # eps ||T|| absolute, 2.5e-12 of lambda_1 at nz = 1001
        assert np.abs(scaled[:, 1] - k * lam).max() <= 1e-12 * k * lam.max()
        # inverse iteration's error is about eps ||T|| / gap, 3e-11 at nz = 1001
        assert np.abs(scaled[:, 3:] - ref[:, 3:]).max() <= 1e-10

    @pytest.mark.parametrize("scenario", ["oracle_check", "blind"])
    def test_a_nan_gain_fails_the_cross_check(self, tmp_path, capsys, monkeypatch, scenario):
        # Python's max drops a NaN that comes second; the gate must see it
        original = cli.gain_direction
        calls = []

        def planted(*args):
            gain = original(*args)
            calls.append(gain)
            if len(calls) == 2:
                return dataclasses.replace(gain, values=np.full_like(gain.values, np.nan))
            return gain

        monkeypatch.setattr(cli, "gain_direction", planted)
        extra = {"blind": {"m": 4}} if scenario == "blind" else {}
        code = run_cli(tmp_path, small_config(scenario, tmp_path / "out", **extra))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "DiagnosticError"
        assert "nan" in report["message"]

    @pytest.mark.parametrize(
        "path",
        [
            "model.k",
            "model.w",
            "initial",
            "flux",
            "prior.mean",
            "blind.seed_function",
            "observations.weights[1]",
        ],
    )
    def test_every_function_spec_must_be_finite_on_its_grid(self, tmp_path, capsys, path):
        # checked before any scenario work, whichever scenario runs
        doc = {"grid": {"nz": 33, "nt": 16}}
        if path.startswith("observations.weights"):
            doc["observations"] = {"weights": ["uniform", OVERFLOWING, "uniform"]}
        else:
            cli._place(doc, path, OVERFLOWING)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", "--config", str(config), "--out", str(tmp_path / "out")])
        report = error_report(capsys)
        assert code == 2
        assert report["error"] == "ConfigError"
        assert report["message"] == f"{path}: evaluates to a non-finite value on its grid"


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario",
        [
            "validate",
            "simulate",
            "eigen",
            "weights",
            "gains",
            "assimilate",
            "oracle_check",
            "blind",
            "compare_altitude",
        ],
    )
    def test_every_scenario_runs_clean(self, tmp_path, scenario):
        out = tmp_path / scenario
        extra = {"blind": {"m": 8}} if scenario == "blind" else {}
        code = run_cli(tmp_path, small_config(scenario, out, **extra))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == scenario
        for name in manifest["outputs"]:
            assert (out / name).is_file(), f"{name} listed but missing"
        listed = set(manifest["outputs"]) | {"manifest.json"}
        written = {p.name for p in out.iterdir()}
        assert written == listed

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    @pytest.mark.parametrize(
        "scenario, report",
        [("assimilate", "assimilate.json"), ("oracle_check", "oracle_report.json")],
    )
    def test_every_prior_kind_runs_clean(self, tmp_path, kind, scenario, report):
        out = tmp_path / "out"
        config = small_config(scenario, out, prior={"kind": kind})
        assert run_cli(tmp_path, config) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        values = json.loads(first[report])
        assert values["forward_map_rel_gap"] <= 1e-8
        assert values["map_vs_oracle_mean_rel"] <= 1e-6
        assert run_cli(tmp_path, config) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_compare_altitude_reports_the_gap(self, tmp_path):
        out = tmp_path / "cmp"
        config = small_config(
            "compare_altitude", out, grid={"nz": 401, "nt": 256}
        )
        assert run_cli(tmp_path, config) == 0
        report = json.loads((out / "compare_altitude.json").read_text())
        # 2 (1 - e^{-pi^2}) / pi^2 for unit horizon, constant coefficients
        assert abs(report["mean_gain_difference"] - 0.20263188597577972) < 1e-4
        assert report["mean_gain_difference"] > 0.0

    def test_cli_overrides(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = small_config("eigen", out_a)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["eigen", "--config", str(path), "--out", str(out_b)]) == 0
        assert not out_a.exists() and (out_b / "eig.csv").is_file()
        assert main(["eigen", "--config", str(path), "--modes", "5"]) == 0
        lines = (out_a / "eig.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 modes

    def test_seed_changes_observations_only(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        config = small_config("assimilate", out1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["assimilate", "--config", str(path), "--seed", "1"]) == 0
        config["out"] = str(out2)
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["assimilate", "--config", str(path), "--seed", "2"]) == 0
        obs1 = (out1 / "observations.csv").read_bytes()
        obs2 = (out2 / "observations.csv").read_bytes()
        assert obs1 != obs2

    def test_error_report_cleared_after_a_clean_rerun(self, tmp_path):
        out = tmp_path / "out"
        bad = small_config("oracle_check", out, grid={"nz": 161, "nt": 2048})
        assert run_cli(tmp_path, bad) == 4
        assert (out / "error.json").is_file()
        good = small_config("oracle_check", out, grid={"nz": 161, "nt": 128})
        assert run_cli(tmp_path, good, name="good.json") == 0
        assert not (out / "error.json").exists()


def test_every_csv_goes_through_the_one_formatter(tmp_path, monkeypatch):
    written = []

    def recording(path, header, columns):
        written.append(path)
        numerics._write_csv(path, header, columns)

    for module in (cli, observe, transport):
        monkeypatch.setattr(module, "_write_csv", recording)
    golden = DATA / "golden_config.json"
    for scenario in cli.SCENARIOS:
        out = tmp_path / scenario
        assert main([scenario, "--config", str(golden), "--out", str(out)]) == 0
    csvs = set(tmp_path.rglob("*.csv"))
    assert len(csvs) >= 10
    assert csvs <= {Path(p) for p in written if not hasattr(p, "write")}
    # the library's text form and the artifact are one format
    ws = cli._Workspace(parse_config(golden.read_text(encoding="utf-8"), "assimilate"))
    stream = io.StringIO()
    observe.write_observations_csv(ws.problem().observations, stream)
    text = stream.getvalue()
    assert (tmp_path / "assimilate" / "observations.csv").read_text(encoding="utf-8") == text


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blind_holds_its_bound_at_each_blas_thread_count(
        self, tmp_path, monkeypatch, threads
    ):
        # rounding picks which near-duplicate constraints survive, so the
        # bytes of blind.csv depend on the thread count; the bound does not
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / "out"
        golden = str(DATA / "golden_config.json")
        args = ["-m", "colflux.cli", "blind", "--config", golden, "--out", str(out)]
        proc = run_python(args, timeout=60)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "blind_report.json").read_text(encoding="utf-8"))
        assert report["max_normalized_projection"] <= 1e-6

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "det"
        config = small_config("assimilate", out, seed=3)
        assert run_cli(tmp_path, config) == 0
        first = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert run_cli(tmp_path, config) == 0
        second = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert first == second
        assert len(first) > 1

    def test_manifest_hash_tracks_the_config(self, tmp_path):
        out = tmp_path / "h1"
        config = small_config("eigen", out)
        assert run_cli(tmp_path, config) == 0
        h1 = json.loads((out / "manifest.json").read_text())["config_hash"]
        config2 = small_config("eigen", out, seed=9)
        assert run_cli(tmp_path, config2, name="c2.json") == 0
        h2 = json.loads((out / "manifest.json").read_text())["config_hash"]
        assert h1 != h2

    def test_manifest_hash_ignores_the_output_location(self, tmp_path):
        # the same experiment written elsewhere is still the same experiment
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(tmp_path, small_config("eigen", out_a)) == 0
        assert run_cli(tmp_path, small_config("eigen", out_b), name="c2.json") == 0
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        assert ma == mb
        assert (out_a / "eig.csv").read_bytes() == (out_b / "eig.csv").read_bytes()


class TestRunScenarioDirect:
    def test_returns_zero_and_writes_manifest(self, tmp_path):
        config = ExperimentConfig(
            scenario="validate",
            nz=101,
            nt=32,
            n_modes=4,
            out_dir=str(tmp_path / "direct"),
        )
        assert run_scenario(config) == 0
        manifest = json.loads(
            (tmp_path / "direct" / "manifest.json").read_text()
        )
        assert manifest["seed"] == 0
        assert "colflux" in manifest["versions"]


@pytest.mark.parametrize(
    "module", ["scipy", "scipy.integrate", "scipy.linalg", "numpy.f2py", "numpy.testing"]
)
def test_cli_import_does_not_load(module):
    # each of these costs tens of milliseconds in every colflux process
    prefix = module.split(".")
    code = (
        "import sys, colflux.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] == {prefix!r}))"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_one_openblas_per_process(tmp_path):
    # LAPACK comes from the library NumPy links: no second OpenBLAS is mapped
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config("oracle_check", out)), encoding="utf-8")
    code = (
        "import json, colflux.cli; "
        f"code = colflux.cli.main(['oracle_check', '--config', {str(path)!r}]); "
        "maps = open('/proc/self/maps').read().splitlines(); "
        "libraries = {m.split()[-1] for m in maps if 'openblas' in m.lower()}; "
        "print(json.dumps([code, sorted(libraries)]))"
    )
    proc = run_python(["-c", code], timeout=300)
    assert proc.returncode == 0, proc.stderr
    status, libraries = json.loads(proc.stdout)
    assert status == 0 and len(libraries) == 1, libraries


@pytest.mark.parametrize("threads", [1, 2])
def test_manifest_records_the_blas_thread_count(tmp_path, threads):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config("weights", out)), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "colflux.cli", "weights", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads"] == threads
    assert sorted(manifest["versions"]) == ["colflux", "numpy", "python"]


def error_report(capsys) -> dict:
    """The one JSON document on stderr; a traceback or a second document fails."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return json.loads(err)


class TestSchemaRegressions:
    """Inputs that once crashed with a traceback, or were accepted wrongly."""

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"grid": 5}', "grid"),
            ('{"prior": 3}', "prior"),
            ('{"observations": {"noise": ["a"]}}', "observations.noise[0]"),
            (
                '{"observations": {"times": ["x"], "weights": ["uniform"],'
                ' "noise": [0.1]}}',
                "observations.times[0]",
            ),
            ('{"flux": {"kind": ["sine"]}}', "flux.kind"),
            ('{"flux": {"kind": "samples", "values": ["a"]}}', "flux.values[0]"),
            ('{"flux": {"kind": "samples", "values": [[1]]}}', "flux.values[0]"),
            ('{"grid": {"nz": NaN}}', "grid.nz"),
            ('{"grid": {"nt": Infinity}}', "grid.nt"),
            ('{"seed": NaN}', "seed"),
            ('{"observations": []}', "observations"),
            ('{"model": [1, 2]}', "model"),
            (
                '{"flux": {"kind": "samples", "values": [true, false]}}',
                "flux.values[0]",
            ),
            ('{"flux": {"kind": "samples", "values": [1e400]}}', "flux.values[0]"),
            ('{"seed": -1}', "seed"),
            ('{"prior": {"sigma": 1e-300}}', "prior.sigma"),
            ('{"observations": {"noise": [0.1, 1e200, 0.1]}}', "observations.noise[1]"),
        ],
    )
    def test_bad_document_exits_2_naming_the_path(self, tmp_path, capsys, text, path):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["validate", "--config", str(config), "--out", str(out)])
        report = error_report(capsys)
        assert code == 2
        assert report["error"] == "ConfigError"
        assert report["exit_code"] == 2
        assert report["message"].startswith(f"{path}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, path",
        [
            ("--seed", "-5", "seed"),
            ("--seed", str(2**128), "seed"),
            ("--modes", "0", "spectral.n_modes"),
            ("--out", "", "out"),
        ],
    )
    def test_flags_are_checked_like_the_document(
        self, tmp_path, capsys, flag, value, path
    ):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config("assimilate", out)), encoding="utf-8")
        code = main(["assimilate", "--config", str(config), flag, value])
        report = error_report(capsys)
        assert code == 2
        assert report["message"].startswith(f"{path}: ")
        assert not out.exists()  # rejected before any work ran

    def test_flag_onto_a_non_object_block_names_the_block(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"spectral": 5}', encoding="utf-8")
        code = main(["validate", "--config", str(config), "--modes", "4"])
        assert code == 2
        assert error_report(capsys)["message"].startswith("spectral: ")

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["validate", "--config", str(config)]) == 2
        assert error_report(capsys)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 100_000], ids=["digits", "nesting"]
    )
    def test_json_beyond_the_decoder_limits(self, text):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(text)

    @pytest.mark.parametrize(
        "path, nodes",
        [
            ("model.k", 33),
            ("model.w", 33),
            ("initial", 33),
            ("observations.weights[1]", 33),
            ("flux", 17),
            ("prior.mean", 17),
            ("blind.seed_function", 17),
        ],
    )
    def test_samples_must_fit_their_grid(self, tmp_path, capsys, path, nodes):
        def document(n_values):
            spec = {"kind": "samples", "values": [1.0] * n_values}
            doc = {"grid": {"nz": 33, "nt": 16}}
            if path.startswith("observations.weights"):
                doc["observations"] = {"weights": ["uniform", spec, "uniform"]}
            else:
                cli._place(doc, path, spec)
            return json.dumps(doc)

        assert parse_config(document(nodes), scenario="validate")
        config = tmp_path / "config.json"
        config.write_text(document(2), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        report = error_report(capsys)
        assert code == 2
        assert report["error"] == "ConfigError"
        assert report["message"] == (
            f"{path}.values: expected {nodes} values, one per grid node, got 2"
        )
        assert not out.exists()

    def test_seed_range_is_the_philox_key_range(self):
        assert parse_config('{"seed": 0}', scenario="blind").seed == 0
        top = parse_config(json.dumps({"seed": 2**128 - 1}), scenario="blind")
        assert top.seed == 2**128 - 1
        for seed in (-1, 2**128, 1.5, True, 10**400):
            with pytest.raises(ConfigError, match="^seed: "):
                parse_config(json.dumps({"seed": seed}), scenario="blind")

    def test_integral_floats_are_counts(self):
        config = parse_config('{"grid": {"nz": 65.0}}', scenario="eigen")
        assert config.nz == 65 and isinstance(config.nz, int)

    def test_schema_has_one_path_per_field(self):
        names = [name for _, name, _ in cli._SCHEMA]
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(names) == sorted(fields)


# any JSON value, including the non-finite floats Python's json reads and writes
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.sampled_from(
    cli.SCENARIOS + cli.WEIGHT_LABELS + colflux.assimilate.PRIOR_KINDS
)
# function specs with any kind and any parameters, and well-formed ones
FUNCTION_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(cli._FUNCTION_KINDS)) | JSON_VALUES},
    optional={
        key: JSON_VALUES | st.lists(FINITE, min_size=1, max_size=4)
        for key in ("value", "base", "slope", "amplitude", "cycles", "mode", "values")
    },
) | st.sampled_from(sorted(cli._FUNCTION_KINDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {
            "kind": st.just(kind),
            **{
                key: st.lists(FINITE, min_size=1) if key == "values" else FINITE
                for key in cli._FUNCTION_KINDS[kind][0]
            },
        }
    )
)
# values of the right shape for some path: an empty block, counts, positive
# numbers; the golden config has three observations, so lists of three can
# replace its observation lists
PLAUSIBLE = (
    st.builds(dict)
    | st.integers(1, 2**129)
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | NAMES
    | FUNCTION_SPECS
    | st.lists(FINITE | NAMES | FUNCTION_SPECS, min_size=3, max_size=3)
)
VALUES = JSON_VALUES | PLAUSIBLE
# every schema path and every block
PATHS = sorted(
    [path for path, _, _ in cli._SCHEMA] + [".".join(keys) for keys in cli._BLOCKS]
)


@settings(max_examples=300, deadline=None)
@given(placed=st.dictionaries(st.sampled_from(PATHS), VALUES, min_size=1, max_size=3))
def test_any_document_parses_or_raises_config_error(placed):
    doc = json.loads((DATA / "golden_config.json").read_text(encoding="utf-8"))
    for path, value in placed.items():
        cli._place(doc, path, value)
    try:
        config = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    assert parse_config(json.dumps(config.canonical())) == config


@pytest.mark.parametrize(
    "name, expected",
    [
        (None, "bb1a410cb46a6b5b36847d6d112d6b60f6787fa24e8ad521991fb79510f1c120"),
        (
            "golden_config.json",
            "1d75d6f6a0e7a39ab8519723ff995ec54875dd2d173cfb68d927fe8ab47343b3",
        ),
    ],
)
def test_manifest_config_hash_is_pinned(tmp_path, monkeypatch, name, expected):
    # manifests from older runs must keep matching: the hash depends only on
    # canonical(), so the scenario itself is replaced by a no-op here
    monkeypatch.setitem(cli._SCENARIO_IMPL, "assimilate", lambda ws, out: [])
    text = (DATA / name).read_text(encoding="utf-8") if name else "{}"
    out = tmp_path / "out"
    config = parse_config(text, scenario="assimilate", overrides={"out": str(out)})
    assert run_scenario(config) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == expected


def test_readme_configuration_block_is_the_defaults():
    section = README.read_text(encoding="utf-8").split("### Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    expected = ExperimentConfig(scenario="validate").canonical()
    del expected["scenario"]
    assert json.loads(block) == expected
