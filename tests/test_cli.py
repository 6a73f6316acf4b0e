"""Config parsing, scenario runs, exit codes, and output determinism."""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
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
from colflux.observe import canonical_weights
from colflux.transport import solve_forward

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
BENCH = Path(__file__).parents[1] / "bench"
SRC = str(Path(colflux.__file__).resolve().parents[1])
# NumPy 1.x imports numpy.random, and through secrets and hmac OpenSSL's
# _hashlib, on ``import numpy`` itself
NUMPY_LOADS_OPENSSL = np.lib.NumpyVersion(np.__version__) < "2.0.0"


def run_python(args, **kwargs):
    """Run a fresh interpreter with the package under test importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def strict_json(path) -> dict:
    """The JSON document at ``path``; NaN or Infinity in it fails."""

    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


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


#: Faults in the forward map's construction that its check must catch: an
#: entry of G off by 1e-6 of its row's largest (of G's largest, in every
#: entry) or NaN, the off-diagonal the sweep factors 1e-6 too high, and one
#: state of the sweep scaled by 1 + 1e-6.
PLANTED_FAULTS = ["first-row", "last-row", "every-entry", "nan", "factor", "state"]


def plant_fault(monkeypatch, fault):
    if fault == "factor":
        factor = transport.factor_tridiagonal
        monkeypatch.setattr(
            transport, "factor_tridiagonal", lambda diag, off: factor(diag, off + 1e-6)
        )
        return
    if fault == "state":
        sweep = transport._cn_sweep

        def scaled(*args, **kwargs):
            for n, u in sweep(*args, **kwargs):
                if n == 40:
                    u *= 1.0 + 1e-6  # the next step starts from it
                yield n, u

        monkeypatch.setattr(transport, "_cn_sweep", scaled)
        return
    original = colflux.assimilate.impulse_response

    def planted(*args):
        rows, states = original(*args)
        if fault == "every-entry":
            rows += 1e-6 * np.abs(rows).max()
        else:
            row, value = {"first-row": (0, 1e-6), "last-row": (-1, 1e-6), "nan": (1, np.nan)}[fault]
            rows[row, 5] += value * np.abs(rows[row]).max()
        return rows, states

    monkeypatch.setattr(colflux.assimilate, "impulse_response", planted)


# weights that read nothing beyond the two lowest modes
CANONICAL_PAIR = ["rho_plus", "rho_minus", "rho_plus"]


def golden_config(scenario, out, **blocks) -> dict:
    """tests/data/golden_config.json for ``scenario``, writing to ``out``,
    with the given blocks replaced; it has a uniform weight."""
    doc = json.loads((DATA / "golden_config.json").read_text(encoding="utf-8"))
    doc.update(scenario=scenario, out=str(out), **blocks)
    return doc


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

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "^config is not valid JSON"), ("[]", "^config must be a JSON object$")],
        ids=["not-json", "not-an-object"],
    )
    def test_invalid_json(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('{"scenario": "teleport"}')

    def test_scenario_argument_fills_in_for_a_missing_key(self):
        # the CLI passes its positional scenario, so the document needs none
        config = parse_config("{}", overrides={"scenario": "eigen"})
        assert config.scenario == "eigen"
        assert config.nz == 1001
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("{}")

    def test_scenario_argument_wins_over_the_key(self):
        config = parse_config('{"scenario": "validate"}', overrides={"scenario": "eigen"})
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
        assert _exit_code_for(OSError("x")) == 2
        assert _exit_code_for(RuntimeError("x")) == 3  # anything else

    def test_an_unforeseen_error_exits_3_with_its_report(self, tmp_path, capsys, monkeypatch):
        def boom(ws):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._SCENARIO_IMPL, "validate", boom)
        out = tmp_path / "out"
        assert run_cli(tmp_path, small_config("validate", out)) == 3
        report = {"error": "RuntimeError", "exit_code": 3, "message": "boom"}
        assert capsys.readouterr().err == json.dumps(report, indent=2) + "\n"
        assert json.loads((out / "error.json").read_text(encoding="utf-8")) == report
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("second", ["fails", "interrupted"])
    def test_only_the_last_runs_verdict_stays(self, tmp_path, capsys, monkeypatch, second):
        # exit 0 means a manifest was written, so a later run into the same
        # directory that fails, or is cut short, must not leave the earlier one
        out = tmp_path / "out"
        doc = {"grid": {"nz": 65, "nt": 64}, "spectral": {"n_modes": 4}, "blind": {"m": 3}}
        assert run_cli(tmp_path, small_config("blind", out, **doc)) == 0
        assert (out / "manifest.json").exists()
        if second == "fails":
            doc["blind"]["seed_function"] = {"kind": "constant", "value": 1e300}
            assert run_cli(tmp_path, small_config("blind", out, **doc)) == 2
            assert "seed's squared norm overflows" in error_report(capsys)["message"]
            assert (out / "error.json").exists()
        else:

            def interrupt(ws):
                raise KeyboardInterrupt

            monkeypatch.setitem(cli._SCENARIO_IMPL, "blind", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_cli(tmp_path, small_config("blind", out, **doc))
            assert not (out / "error.json").exists()
        assert not (out / "manifest.json").exists()

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

    @pytest.mark.parametrize(
        "scenario, error",
        [("simulate", "StabilityError"), ("assimilate", None)],
        ids=["simulate-StabilityError", "assimilate-exits-0"],
    )
    def test_stepper_overflow_reports_only_json_on_stderr(self, tmp_path, scenario, error):
        # a fresh process, so nothing but the program writes to stderr; the
        # overflow must surface as its report, not a warning. simulate's
        # stepper meets it. assimilate takes its data from G, not from a
        # sweep of this flux: they are finite, and CG solves for them scaled
        # to below 1, so it writes finite artifacts and strict JSON
        config = {
            "flux": {"kind": "sine", "amplitude": 1e308, "cycles": 1.0},
            "grid": {"nz": 33, "nt": 64},
            "spectral": {"n_modes": 4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = ["-m", "colflux.cli", scenario, "--config", str(path)]
        proc = run_python([*args, "--out", str(tmp_path / "out")], timeout=120)
        if error is None:
            assert (proc.returncode, proc.stderr) == (0, "")
            strict_json(tmp_path / "out" / "assimilate.json")
            for name in ("map_flux.csv", "posterior_variance.csv", "observations.csv"):
                table = np.loadtxt(tmp_path / "out" / name, delimiter=",", skiprows=1)
                assert np.isfinite(table).all(), name
            return
        assert proc.returncode == 3
        report = json.loads(proc.stderr)
        assert report["error"] == error
        assert report["exit_code"] == 3

    @pytest.mark.parametrize("fault", PLANTED_FAULTS)
    @pytest.mark.parametrize("scenario", ["assimilate", "oracle_check"])
    def test_forward_map_disagreement_stops_before_any_artifact(
        self, tmp_path, capsys, monkeypatch, scenario, fault
    ):
        # neither the data nor an estimator read a forward map that fails
        # its check, so such a map must not reach any artifact
        plant_fault(monkeypatch, fault)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config(scenario, out))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "NumericalError"
        assert "disagree (sketched relative gap" in report["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_oracle_check_gates_the_sketched_gap(self, tmp_path, capsys, monkeypatch):
        # the representers read the checked map, so a bumped one stops the
        # run before the oracle, CG or the representers see it
        original = colflux.assimilate.impulse_response

        def scaled(*args):
            rows, states = original(*args)
            return rows * (1.0 + 1e-6), states

        monkeypatch.setattr(colflux.assimilate, "impulse_response", scaled)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config("oracle_check", out))
        report = error_report(capsys)
        assert code == 3
        assert "disagree (sketched relative gap" in report["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize(
        "nt, k",
        [
            (32, {"kind": "constant", "value": 1.0}),
            (32, {"kind": "constant", "value": 1e3}),
            (32, {"kind": "linear", "base": 1.1e5, "slope": 1.1e5}),
            (32, {"kind": "linear", "base": 1.0, "slope": 1e10 - 1.0}),
            (64, {"kind": "constant", "value": 2e10}),
        ],
        ids=["rho-2e3", "rho-2e6", "rho-4.5e8", "rho-2e13", "rho-2e13-constant"],
    )
    def test_stiff_grids_pass_the_forward_map_check(self, tmp_path, nt, k):
        # the check's rounding floor grows as eps rho / t, rho = dt max(k) /
        # dz**2: the band of t keeps it 100 times below the gate. With t
        # drawn from tan 0.15 up whatever rho is, the last two exit 3 and
        # the third reads 4.4e-9
        out = tmp_path / "out"
        config = small_config(
            "assimilate", out, grid={"nz": 257, "nt": nt}, spectral={"n_modes": 4},
            model={"k": k},
        )
        assert run_cli(tmp_path, config) == 0
        assert json.loads((out / "assimilate.json").read_text())["forward_map_sketch_rel_gap"] <= 1e-10

    @pytest.mark.parametrize(
        "nt, k, t_obs, lowest",
        [
            (32, 1e-3, 0.25, 0.05),
            (64, 1e-2, 0.25, 0.02),
            (32, 1e-2, 0.0625, 0.1),
            (256, 1e-3, 0.25, 0.3),
        ],
    )
    def test_weights_the_response_has_not_reached_pass_the_forward_map_check(
        self, tmp_path, nt, k, t_obs, lowest
    ):
        # a weight on the lowest part of a slow column, read early: its row
        # (largest entry 1e-116 to 1e-33) is the difference of two terms of
        # the closed form many orders larger, and over the row alone the
        # sweep's rounding of them reads 8e-5 to 2e26. Over the terms' size
        # it reads at most 5e-16, and the run exits 0 as it did under
        # Freivalds' check
        nz = 257
        deep = [float(j >= (1.0 - lowest) * (nz - 1)) for j in range(nz)]
        observations = {
            "times": [t_obs, 0.5, 0.75],
            "noise": [0.1, 0.1, 0.1],
            "weights": [{"kind": "samples", "values": deep}, "rho_plus", "uniform"],
        }
        out = tmp_path / "out"
        config = small_config(
            "assimilate", out, grid={"nz": nz, "nt": nt}, spectral={"n_modes": 4},
            model={"k": {"kind": "constant", "value": k}}, observations=observations,
        )
        assert run_cli(tmp_path, config) == 0
        report = json.loads((out / "assimilate.json").read_text())
        assert report["forward_map_sketch_rel_gap"] <= 1e-12

    def test_a_smooth_fault_below_the_stiff_floor_goes_unseen(self, tmp_path, monkeypatch):
        # the detection limit: at rho = 2e13 the band puts t above 4e7, and
        # G scaled by 1 + 1e-6, which the check reads at 1.6e-6 on the
        # small config, reads below the gate; the run exits 0
        original = colflux.assimilate.impulse_response

        def scaled(*args):
            rows, states = original(*args)
            return rows * (1.0 + 1e-6), states

        monkeypatch.setattr(colflux.assimilate, "impulse_response", scaled)
        out = tmp_path / "out"
        k = {"kind": "linear", "base": 1.0, "slope": 1e10 - 1.0}
        config = small_config(
            "assimilate", out, grid={"nz": 257, "nt": 32}, spectral={"n_modes": 4},
            model={"k": k},
        )
        assert run_cli(tmp_path, config) == 0
        report = json.loads((out / "assimilate.json").read_text())
        assert report["forward_map_sketch_rel_gap"] <= 1e-8

    @pytest.mark.parametrize("scenario", ["assimilate", "oracle_check"])
    def test_a_bad_prior_fails_before_any_sweep(self, tmp_path, capsys, monkeypatch, scenario):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep or an eigensolve ran before the prior was checked")

        monkeypatch.setattr(transport, "_cn_sweep", refuse)
        monkeypatch.setattr(cli, "eigensystem", refuse)
        prior = {
            "kind": "periodic_zero_mean_inverse_laplacian",
            "mean": {"kind": "linear", "base": 0.0, "slope": 1.0},
        }
        out = tmp_path / "out"
        assert run_cli(tmp_path, small_config(scenario, out, prior=prior)) == 2
        report = error_report(capsys)
        assert report["error"] == "ConfigError"
        assert report["message"].startswith("prior.mean: periodic prior needs a periodic mean")
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("scenario", ["assimilate", "oracle_check"])
    def test_a_weight_off_the_column_grid_fails_before_any_sweep(
        self, tmp_path, capsys, monkeypatch, scenario
    ):
        # planted: the workspace hands out a weight of the right length on a
        # column twice as tall
        original = cli._Workspace.weight_for

        def stray(ws, i):
            values = original(ws, i).values
            return observe.Weight(grid=numerics.ColumnGrid(h=2.0, n=values.size), values=values)

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before the weights were checked")

        monkeypatch.setattr(cli._Workspace, "weight_for", stray)
        monkeypatch.setattr(transport, "_cn_sweep", refuse)
        out = tmp_path / "out"
        assert run_cli(tmp_path, small_config(scenario, out)) == 2
        report = error_report(capsys)
        assert report["error"] == "ValueError"
        assert report["message"] == "every weight must live on the profile's grid"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_a_failed_factorization_stops_before_the_posterior_mean(
        self, tmp_path, capsys, monkeypatch
    ):
        # a precision Cholesky finds is not positive definite gives no mean
        failing = SimpleNamespace(dsfrk=numerics._flapack.dsfrk, dpftrf=lambda n, a: (a, 5))
        monkeypatch.setattr(colflux.assimilate, "_flapack", failing)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config("oracle_check", out))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "NumericalError"
        assert "not positive definite: leading minor 5 is not positive" in report["message"]
        assert not (out / "posterior_mean.csv").exists()

    def test_oracle_check_stays_capped_where_assimilate_runs(
        self, tmp_path, capsys, monkeypatch
    ):
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
        assert report["forward_map_sketch_rel_gap"] <= 1e-8
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before the capacity check")

        # the cap is checked before any eigensolve, sweep or data
        monkeypatch.setattr(transport, "_cn_sweep", refuse)
        monkeypatch.setattr(cli, "eigensystem", refuse)
        config = small_config(
            "oracle_check", tmp_path / "oracle", grid=grid, spectral={"n_modes": 16}
        )
        assert run_cli(tmp_path, config, name="oracle.json") == 4
        report = error_report(capsys)
        assert report["error"] == "CapacityError"
        assert report["message"] == "dense oracle supports at most 2048 time nodes, got 4097"

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
        values = json.loads((out / report).read_text())
        assert 0.0 <= values["forward_map_sketch_rel_gap"] <= 1e-8
        assert "forward_map_rel_gap" not in values  # no scenario runs N sweeps

    def test_both_gaps_are_at_rounding_on_the_golden_config(self, tmp_path):
        # golden solves n_modes modes in both scenarios (it has a uniform
        # weight), its all-canonical variant only the pair in both
        observations = golden_config("assimilate", tmp_path)["observations"]
        for label, weights in (("golden", observations["weights"]), ("pair", CANONICAL_PAIR)):
            blocks, out = {"observations": {**observations, "weights": weights}}, tmp_path / label
            for scenario in ("assimilate", "oracle_check"):
                assert run_cli(tmp_path, golden_config(scenario, out / scenario, **blocks)) == 0
            sketch = json.loads((out / "assimilate" / "assimilate.json").read_text())
            oracle = json.loads((out / "oracle_check" / "oracle_report.json").read_text())
            assert sketch["forward_map_sketch_rel_gap"] < 1e-12
            # the same problem, so the same check of the same map
            assert oracle["forward_map_sketch_rel_gap"] == sketch["forward_map_sketch_rel_gap"]

    def test_gains_and_the_representer_gate_use_the_same_gains(self, tmp_path, monkeypatch):
        # the gate checks each observation's gain_XX.csv: from the coefficients
        # rho_plus and rho_minus carry, not from a re-expansion of their values
        original = cli.gain_direction
        golden = str(DATA / "golden_config.json")
        seen = {}
        for scenario in ("gains", "oracle_check"):
            seen[scenario] = coefficients = []

            def recorded(eig, a, *args):
                coefficients.append(np.array(a))
                return original(eig, a, *args)

            monkeypatch.setattr(cli, "gain_direction", recorded)
            assert main([scenario, "--config", golden, "--out", str(tmp_path / scenario)]) == 0
        assert len(seen["gains"]) == len(seen["oracle_check"]) == 3
        for ours, theirs in zip(seen["gains"], seen["oracle_check"]):
            np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("initial", [None, {"kind": "cosine", "amplitude": 0.5, "mode": 1}])
    def test_observations_agree_with_the_sweep(self, tmp_path, initial):
        doc = json.loads((DATA / "golden_config.json").read_text(encoding="utf-8"))
        if initial is not None:
            doc["initial"] = initial
        out = tmp_path / "out"
        doc["out"] = str(out)
        assert run_cli(tmp_path, doc) == 0
        written = np.loadtxt(out / "observations.csv", delimiter=",", skiprows=1)
        ws = cli._Workspace(parse_config(json.dumps(doc)), out)
        assert ws.q0.any() == (initial is not None)
        weights = [ws.weight_for(i) for i in range(len(ws.config.obs_weights))]
        obs = observe.synthesize_data(
            ws.profile, ws.flux, ws.q0, weights, ws.config.obs_times, ws.config.obs_noise,
            ws.config.seed,
        )
        np.testing.assert_array_equal(written[:, 0], obs.times)
        np.testing.assert_array_equal(written[:, 2], obs.noise_levels)
        assert np.abs(written[:, 1] - obs.values).max() <= 1e-12 * np.abs(obs.values).max()

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
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert report["message"] == (
            "blind.m: m must be between 1 and n_modes = 4, at most the conditioning cap 40, got 19"
        )


OVERFLOWING = {"kind": "linear", "base": 1e308, "slope": 1e308}
CONSTANT_1E300 = {"kind": "constant", "value": 1e300}
ZERO = {"kind": "constant", "value": 0.0}
# w = 500 sin(2 pi z): cell Peclet number 3.9 at nz = 65
PECLET_3_9 = {"kind": "sine", "amplitude": 500.0, "cycles": 2.0}
# a periodic prior on three time nodes: C0 maps CG's residual, rounding
# alone, to zero after two steps, so CG must stop at r.z = 0 (the next step
# would read 0/0)
ROUNDING_ONLY_RHS = {
    "grid": {"nz": 49, "nt": 2},
    "observations": {
        "times": [0.5, 1.0], "noise": [0.2, 0.2], "weights": ["uniform", "rho_plus"]
    },
    "prior": {"kind": "periodic_zero_mean_inverse_laplacian", "sigma": 0.7},
}


# one uniform weight at t_end sees the column mass, k(0) times the time
# integral of F, which vanishes on every flux the periodic prior admits: the
# projected right-hand side is rounding alone (9.4e-16 of |G^T R^-1 d|), so
# CG must return the prior mean instead of stalling on it
BLIND_TO_THE_PRIOR = {
    "grid": {"nz": 17, "nt": 64},
    "spectral": {"n_modes": 2},
    "observations": {"times": [1.0], "noise": [0.1], "weights": ["uniform"]},
    "prior": {"kind": "periodic_zero_mean_inverse_laplacian", "sigma": 1.0},
    "flux": {"kind": "sine", "amplitude": 1.0, "cycles": 1.0},
    "seed": 1,
}


# the command line with every Crank-Nicolson sweep refused, and the
# eigensolve too unless the first argument is "allow-eigensolve": either
# would exit 3
REFUSING_WORK = (
    "import sys\n"
    "import colflux.cli as cli, colflux.transport as transport\n"
    "def refuse(*args, **kwargs):\n"
    "    raise AssertionError('a sweep or an eigensolve ran')\n"
    "transport._cn_sweep = refuse\n"
    "if sys.argv.pop(1) != 'allow-eigensolve':\n"
    "    cli.eigensystem = refuse\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)
# the rows of TestFailClosed.test_table whose config error is raised only
# after the eigensolve: blind's resolution guard reads a computed eigenvalue,
# lambda_{m-1}, so no check before the eigensolve can make it
REFUSED_AFTER_THE_EIGENSOLVE = {"blind-m-past-the-resolution"}


def two_observations_at(times):
    return {"times": times, "weights": ["uniform", "uniform"], "noise": [0.1, 0.1]}


class TestFailClosed:
    """Schema-valid inputs that once hung, exited 0 on a NaN result, on a
    grid too coarse for their advection or with times off the time grid,
    or printed warnings beside the report."""

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
                "blind.seed_function: seed's squared norm overflows",
                True,
                id="blind-seed-norm-overflows",
            ),
            pytest.param(
                "blind",
                {"blind": {"m": 3, "seed_function": {"kind": "constant", "value": 0.0}}},
                2,
                "blind.seed_function: seed's trapezoid norm on [0, t_obs = 1] is 0",
                True,
                id="blind-seed-zero",
            ),
            pytest.param(
                "blind",
                # the default parabola vanishes at both nodes of a one-step grid
                {
                    "grid": {"nz": 65, "nt": 1},
                    "observations": {"times": [1.0], "weights": ["uniform"], "noise": [0.1]},
                    "blind": {"m": 3},
                },
                2,
                "blind.seed_function: seed's trapezoid norm on [0, t_obs = 1] is 0",
                True,
                id="blind-seed-zero-on-one-step",
            ),
            pytest.param(
                "blind",
                {"blind": {"m": 5}},
                2,
                "blind.m: m must be between 1 and n_modes = 4, at most the conditioning cap 40, "
                "got 5",
                True,
                id="blind-m-past-n_modes",
            ),
            pytest.param(
                "blind",
                {"grid": {"nz": 401, "nt": 64}, "spectral": {"n_modes": 41}, "blind": {"m": 41}},
                2,
                "blind.m: must be at most 40, got 41",
                True,
                id="blind-m-past-the-cap",
            ),
            pytest.param(
                "blind",
                {"grid": {"nz": 401, "nt": 64}, "spectral": {"n_modes": 40}, "blind": {"m": 20}},
                2,
                "time grid too coarse: lambda_19 * dt = 55.57 > 20",
                True,
                id="blind-m-past-the-resolution",
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
                0,
                None,
                True,
                id="assimilate-flux-1e300",
            ),
            pytest.param(
                "assimilate",
                {"observations": {"weights": [CONSTANT_1E300, "rho_plus", "rho_plus"]}},
                3,
                "the low-rank posterior overflows: G C0 G^T is not finite",
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
                # the state released from q0 stays finite, but its weighted
                # average overflows: a numerical failure, not a config error
                "assimilate",
                {
                    "initial": {"kind": "constant", "value": 1e306},
                    "observations": {
                        "weights": [{"kind": "constant", "value": 1e3}, "rho_plus", "rho_plus"]
                    },
                },
                3,
                "the synthesized observations overflow",
                True,
                id="assimilate-free-response-overflows",
            ),
            pytest.param(
                "simulate",
                # observation times must be nodes of the grid: the default
                # quarter points are not at t_end 1000 and nt 64
                {
                    "grid": {"nz": 65, "nt": 64, "t_end": 1000.0},
                    "observations": {"times": [250.0, 500.0, 1000.0]},
                },
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
                0.0,
                True,
                id="oracle_check-zero-weights",
            ),
            pytest.param(
                "assimilate", ROUNDING_ONLY_RHS, 0, None, True, id="assimilate-rz-zero"
            ),
            pytest.param(
                "oracle_check",
                ROUNDING_ONLY_RHS,
                3,
                "spectral gains and discrete representers disagree",
                True,
                id="oracle_check-rz-zero",
            ),
            pytest.param(
                "assimilate", BLIND_TO_THE_PRIOR, 0, None, True, id="assimilate-blind-to-prior"
            ),
            pytest.param(
                # the uniform weight is the constant mode, whose gain and
                # representer are both constant in time: they agree to rounding
                "oracle_check",
                BLIND_TO_THE_PRIOR,
                0,
                1e-12,
                True,
                id="oracle_check-blind-to-prior",
            ),
            *(
                pytest.param(
                    scenario,
                    # these three solve only the lowest two modes here, but
                    # the config's 4 must still fit the grid
                    {"grid": {"nz": 17, "nt": 16}, "observations": {"weights": CANONICAL_PAIR}},
                    2,
                    "n_modes must be between 1 and n//8 = 2 for this grid, got 4",
                    True,
                    id=f"{scenario}-modes-past-the-grid",
                )
                for scenario in ("assimilate", "oracle_check", "compare_altitude")
            ),
            *(
                pytest.param(
                    scenario,
                    # checked before any work, also where a scenario reads no
                    # mode or reads them only after its sweeps
                    {
                        "grid": {"nz": 17, "nt": 16},
                        "observations": {"weights": ["uniform", "uniform", "uniform"]},
                    },
                    2,
                    "n_modes must be between 1 and n//8 = 2 for this grid, got 4",
                    True,
                    id=f"{scenario}-modes-past-the-grid-uniform",
                )
                for scenario in ("validate", "simulate", "assimilate", "oracle_check")
            ),
            *(
                pytest.param(
                    scenario,
                    {"spectral": {"n_modes": 1}, "observations": {"weights": CANONICAL_PAIR}},
                    2,
                    "spectral.n_modes: canonical weights need at least 2 modes, got 1",
                    True,
                    id=f"{scenario}-one-mode",
                )
                for scenario in (
                    "assimilate", "oracle_check", "compare_altitude", "gains", "weights"
                )
            ),
            *(
                pytest.param(
                    scenario,
                    # one canonical weight among others that need expanding
                    {
                        "spectral": {"n_modes": 1},
                        "observations": {"weights": ["uniform", "rho_plus", "uniform"]},
                    },
                    2,
                    "spectral.n_modes: canonical weights need at least 2 modes, got 1",
                    True,
                    id=f"{scenario}-one-mode-mixed",
                )
                for scenario in ("assimilate", "oracle_check")
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
            pytest.param(
                "validate",
                {"observations": {"times": [0.3, 0.5, 1.0]}},
                2,
                "observations.times[0]: t=0.3 is not a node of the time grid (dt=0.015625)",
                True,
                id="observation-time-off-grid",
            ),
            pytest.param(
                "blind",
                {"blind": {"m": 3, "t_obs": 2.0}},
                2,
                "blind.t_obs: t=2.0 is not a node of the time grid",
                True,
                id="blind-t_obs-past-t_end",
            ),
            pytest.param(
                "assimilate",
                {"observations": {"times": [0.25, 0.5, 1e308]}},
                2,
                "observations.times[2]: t=1e+308 is not a node of the time grid",
                True,
                id="observation-time-1e308",
            ),
            pytest.param(
                "validate",
                {"observations": two_observations_at([0.0, 0.5])},
                2,
                "observations.times[0]: must be positive, got 0.0",
                True,
                id="observation-time-zero",
            ),
            pytest.param(
                "gains",
                {"observations": two_observations_at([0.5, 0.25])},
                2,
                "observations.times[1]: must exceed observations.times[0] = 0.5, got 0.25",
                True,
                id="observation-times-unordered",
            ),
            pytest.param(
                "assimilate",
                {"observations": two_observations_at([0.5, 0.5])},
                2,
                "observations.times[1]: must exceed observations.times[0] = 0.5, got 0.5",
                True,
                id="observation-times-repeated",
            ),
        ],
    )
    def test_table(self, tmp_path, request, scenario, extra, code, cause, clean):
        # cause: a text of the error message; for an oracle_check that exits
        # 0, the bound its representer gap must meet
        doc = {"grid": {"nz": 65, "nt": 64}, "spectral": {"n_modes": 4}, **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        # a config error must stop the run before any Crank-Nicolson sweep,
        # and before the eigensolve but where the allowlist says otherwise
        if code != 2:
            run = ["-m", "colflux.cli"]
        elif request.node.callspec.id in REFUSED_AFTER_THE_EIGENSOLVE:
            run = ["-c", REFUSING_WORK, "allow-eigensolve"]
        else:
            run = ["-c", REFUSING_WORK, "refuse-eigensolve"]
        proc = run_python([*run, scenario, "--config", str(path), "--out", str(out)], timeout=30)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
            if scenario == "assimilate":
                strict_json(out / "assimilate.json")
            if scenario == "oracle_check":
                report = json.loads((out / "oracle_report.json").read_text())
                assert report["max_representer_vs_gain_rel_l2"] <= cause
            return
        err = proc.stderr if clean else proc.stderr[proc.stderr.index("{\n") :]
        report = json.loads(err)  # exactly one JSON document
        assert report["exit_code"] == code
        assert cause in report["message"]

    @pytest.mark.parametrize("nz, k", [(1001, 1e145), (65, 1e150)], ids=["nz-1001", "nz-65"])
    def test_eigenproblem_with_huge_diagonal_is_solved_scaled(self, tmp_path, capsys, nz, k):
        # largest diagonals 2.0e151 and 8.2e153 once gave NaN modes (exit 3);
        # the bands are now scaled before LAPACK sees them, so the eigenvalues
        # are k times those at k = 1, and the surface-gauged modes the same
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
        # relative to the largest kept eigenvalue (the bands are scaled by a
        # power of two, so k = 1e145 differs from k = 1 only in k's rounding)
        assert np.abs(scaled[:, 1] - k * lam).max() <= 1e-12 * k * lam.max()
        # inverse iteration's error is about eps ||T|| / gap, 3e-11 at nz = 1001
        assert np.abs(scaled[:, 3:] - ref[:, 3:]).max() <= 1e-10

    @pytest.mark.parametrize("scenario", ["oracle_check", "blind"])
    def test_a_nan_gain_fails_the_cross_check(self, tmp_path, capsys, monkeypatch, scenario):
        # Python's max drops a NaN that comes second; the gate must see it
        if scenario == "oracle_check":
            original = cli.gain_direction
            calls = []

            def planted(*args):
                gain = original(*args)
                calls.append(gain)
                if len(calls) == 2:
                    return dataclasses.replace(gain, values=np.full_like(gain.values, np.nan))
                return gain

            monkeypatch.setattr(cli, "gain_direction", planted)
        else:  # one pass pairs the blind direction with every weight
            original = cli.gain_projections

            def planted(eig, rows, *args):
                rows = np.array(rows)
                rows[1] = np.nan
                return original(eig, rows, *args)

            monkeypatch.setattr(cli, "gain_projections", planted)
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
        assert values["forward_map_sketch_rel_gap"] <= 1e-8
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


class TestModesSolved:
    """A scenario that reads nothing beyond the canonical pair p0 +- p1
    solves only the two lowest modes; every other solves n_modes."""

    @pytest.mark.parametrize(
        "scenario, config, solved",
        [
            ("compare_altitude", "pair", 2),
            ("compare_altitude", "golden", 2),
            ("assimilate", "pair", 2),
            ("oracle_check", "pair", 2),
            ("assimilate", "golden", 12),
            ("oracle_check", "golden", 12),
            ("assimilate", "uniform", 10),
            ("oracle_check", "uniform", 10),
            ("eigen", "pair", 10),
            ("weights", "pair", 2),
            ("weights", "golden", 2),
            ("gains", "pair", 10),
            ("blind", "pair", 10),
        ],
    )
    def test_modes_solved_by_each_scenario(self, tmp_path, monkeypatch, scenario, config, solved):
        original, asked = cli.eigensystem, []

        def spy(profile, n_modes):
            asked.append(n_modes)
            return original(profile, n_modes)

        monkeypatch.setattr(cli, "eigensystem", spy)
        out = tmp_path / "out"
        if config == "golden":  # 12 modes and a uniform weight
            doc = golden_config(scenario, out)
        else:  # 10 modes
            weights = ["uniform", *CANONICAL_PAIR[1:]] if config == "uniform" else CANONICAL_PAIR
            doc = small_config(
                scenario, out, observations={"weights": weights}, blind={"m": 8}
            )
        assert run_cli(tmp_path, doc) == 0
        assert asked == [solved]
        if scenario == "oracle_check":  # the report names the modes its gains used
            assert json.loads((out / "oracle_report.json").read_text())["n_modes"] == solved

    def test_the_plan_is_made_once_in_the_workspace(self):
        # the modes solved and the capacity check are the plan's, made in
        # _Workspace.__init__: no scenario and no eig tests a scenario name
        for fn in (cli._Workspace.eig.func, *cli._SCENARIO_IMPL.values()):
            source = inspect.getsource(fn)
            assert ".scenario" not in source and "capacity" not in source, fn.__name__

    @pytest.mark.parametrize(
        "grid, n_modes",
        [(None, None), ({"nz": 2001, "nt": 64}, 32), ({"nz": 4001, "nt": 64}, 40)],
        ids=["golden", "nz-2001", "nz-4001"],
    )
    def test_lambda_1_agrees_with_eig_csv(self, tmp_path, grid, n_modes):
        # two modes against n_modes: each eigenvalue is its mode's Rayleigh
        # quotient, accurate to |r|^2 / gap whatever the mode count, so the
        # two agree to a few ulps (1 at nz = 4001 and 40 modes)
        blocks = {} if grid is None else {"grid": grid, "spectral": {"n_modes": n_modes}}
        for scenario in ("eigen", "compare_altitude"):
            assert run_cli(tmp_path, golden_config(scenario, tmp_path / scenario, **blocks)) == 0
        table = (tmp_path / "eigen" / "eig.csv").read_text(encoding="utf-8").splitlines()
        eigen = float(table[2].split(",")[1])  # the row of mode 1
        pair = json.loads((tmp_path / "compare_altitude" / "compare_altitude.json").read_text())
        assert abs(pair["lambda_1"] - eigen) <= 4 * np.spacing(eigen)


def test_weights_on_the_default_config_are_nonnegative(tmp_path):
    # pure diffusion: rho+- = 1 +- cos(pi z) are >= 0 exactly, and the flag
    # judges the computed values against the modes' rounding
    assert run_cli(tmp_path, {"scenario": "weights", "out": str(tmp_path / "out")}) == 0
    records = json.loads((tmp_path / "out" / "weights.json").read_text(encoding="utf-8"))
    assert [r["is_nonnegative"] for r in records.values()] == [True, True]


def test_the_dense_oracle_cannot_factor_what_assimilate_estimates_at_very_high_k(tmp_path):
    # a documented limit, not a guard: the observed response G^T R^-1 G
    # outweighs the prior's W C0^-1 beyond what a double resolves, so the
    # dense precision is not positive definite in rounding, while the
    # low-rank path and CG, which never form that sum, estimate
    grid, spectral = {"nz": 19, "nt": 40}, {"n_modes": 2}
    model = {"k": {"kind": "constant", "value": 2.8e9}}
    reports = {}
    for scenario in ("assimilate", "oracle_check"):
        out = tmp_path / scenario
        config = {"scenario": scenario, "out": str(out), "grid": grid, "spectral": spectral}
        reports[scenario] = (run_cli(tmp_path, dict(config, model=model)), out)
    code, out = reports["assimilate"]
    assert code == 0
    assert strict_json(out / "assimilate.json")["forward_map_sketch_rel_gap"] <= 1e-10
    code, out = reports["oracle_check"]
    error = strict_json(out / "error.json")
    assert (code, error["error"]) == (3, "NumericalError")
    message = "the dense posterior precision is not positive definite: leading minor"
    assert error["message"].startswith(message)


def bench_module(name: str):
    """bench/<name>.py, loaded from its file without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_estimate_workload_passes_the_benchmark_checks(tmp_path, monkeypatch):
    # the benchmark's estimate jobs take the canonical pair, and its checks
    # (AC3 and AC8) must hold there as they do in the harness
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads, checks = bench_module("workloads"), bench_module("checks")
    doc = workloads.config("estimate", 1)
    original, asked = cli.eigensystem, []
    monkeypatch.setattr(
        cli, "eigensystem", lambda profile, n: asked.append(n) or original(profile, n)
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for scenario in workloads.JOBS["estimate"]:
        out = tmp_path / scenario
        assert main([scenario, "--config", str(path), "--out", str(out)]) == 0
        assert checks.check(scenario, doc, out) == []
    assert asked == [2, 2]


def test_every_csv_goes_through_the_one_formatter(tmp_path, monkeypatch):
    written = []

    def recording(path, header, columns):
        written.append(path)
        numerics._write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", recording)
    golden = DATA / "golden_config.json"
    for scenario in cli.SCENARIOS:
        out = tmp_path / scenario
        assert main([scenario, "--config", str(golden), "--out", str(out)]) == 0
    csvs = set(tmp_path.rglob("*.csv"))
    assert len(csvs) >= 10
    assert csvs <= {Path(p) for p in written}


def test_only_the_cli_lays_out_csv_files():
    # the artifact format is one decision: numerics formats, cli names the
    # columns, and no library module writes a file
    users = set()
    for path in Path(colflux.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            if "_write_csv" in names or getattr(node, "name", None) == "_write_csv":
                users.add(path.stem)
    assert users == {"cli", "numerics"}


class TestArtifactFormats:
    """The column layout of the CSV artifacts the library once wrote itself."""

    def run(self, tmp_path, scenario):
        golden = DATA / "golden_config.json"
        out = tmp_path / scenario
        assert main([scenario, "--config", str(golden), "--out", str(out)]) == 0
        config = parse_config(golden.read_text(encoding="utf-8"), overrides={"scenario": scenario})
        return out, cli._Workspace(config, tmp_path / "ws")

    @staticmethod
    def table(path):
        header, *rows = path.read_text(encoding="utf-8").strip().split("\n")
        return header, np.array([[float(s) for s in row.split(",")] for row in rows])

    def test_field_has_a_row_of_times_and_a_column_of_heights(self, tmp_path):
        out, ws = self.run(tmp_path, "simulate")
        header, rows = self.table(out / "field.csv")
        assert header.split(",")[0] == "z"
        np.testing.assert_array_equal([float(s) for s in header.split(",")[1:]], ws.tgrid.nodes)
        np.testing.assert_array_equal(rows[:, 0], ws.zgrid.nodes)
        np.testing.assert_array_equal(rows[:, 1:], solve_forward(ws.profile, ws.flux, ws.q0))

    def test_weight_has_heights_and_values(self, tmp_path):
        out, ws = self.run(tmp_path, "weights")
        header, rows = self.table(out / "rho_plus.csv")
        assert header == "z,rho"
        rho_plus = canonical_weights(ws.eig)[0]
        np.testing.assert_array_equal(rows, np.column_stack([ws.zgrid.nodes, rho_plus.values]))

    def test_observations_round_trip_their_floats(self, tmp_path):
        out, ws = self.run(tmp_path, "assimilate")
        header, rows = self.table(out / "observations.csv")
        assert header == "t,y,r"
        obs = ws.problem().observations
        np.testing.assert_array_equal(rows, np.column_stack([obs.times, obs.values, obs.noise_levels]))


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blind_holds_its_bound_at_each_blas_thread_count(
        self, tmp_path, monkeypatch, threads
    ):
        # the CLI runs the scenario on one thread whatever the count; at any
        # count, blind's guarantee is its projection bound
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / "out"
        golden = str(DATA / "golden_config.json")
        args = ["-m", "colflux.cli", "blind", "--config", golden, "--out", str(out)]
        proc = run_python(args, timeout=60)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "blind_report.json").read_text(encoding="utf-8"))
        assert report["max_normalized_projection"] <= 1e-6

    def test_artifacts_are_the_same_at_one_and_two_blas_threads(self, tmp_path):
        golden = str(DATA / "golden_config.json")
        code = (
            "import sys; from colflux.cli import main; "
            "sys.exit(max(main([s, '--config', sys.argv[1], '--out', f'{sys.argv[2]}/{s}']) "
            "for s in ('simulate', 'assimilate', 'oracle_check', 'blind', 'gains')))"
        )
        artifacts = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-c", code, golden, str(tmp_path / threads)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            files = sorted(p for p in (tmp_path / threads).rglob("*") if p.is_file())
            artifacts[threads] = {p.relative_to(tmp_path / threads): p.read_bytes() for p in files}
        assert len(artifacts["1"]) == 20
        assert artifacts["1"] == artifacts["2"]

    @pytest.mark.skipif(numerics._flapack.blas_threads() is None, reason="OpenBLAS only")
    @pytest.mark.parametrize("raised", [None, NumericalError, KeyboardInterrupt])
    def test_main_gives_the_callers_thread_count_back(self, tmp_path, monkeypatch, raised):
        seen = []

        def stub(ws):
            seen.append(numerics._flapack.blas_threads())
            if raised is not None:
                raise raised("planted")

        monkeypatch.setitem(cli._SCENARIO_IMPL, "validate", stub)
        before = numerics._flapack.blas_threads()
        numerics._flapack.set_blas_threads(2)
        try:
            if raised is KeyboardInterrupt:  # not the CLI's to report: it propagates
                with pytest.raises(KeyboardInterrupt):
                    run_cli(tmp_path, small_config("validate", tmp_path / "out"))
            else:
                code = run_cli(tmp_path, small_config("validate", tmp_path / "out"))
                assert code == (0 if raised is None else 3)
            after = numerics._flapack.blas_threads()
        finally:
            numerics._flapack.set_blas_threads(before)
        assert (seen, after) == ([1], 2)

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

    def test_manifest_lists_the_names_the_workspace_handed_out(self, tmp_path, monkeypatch):
        # a scenario names each artifact once, where it writes it
        def stub(ws):
            ws.path("a.csv").write_text("t\n0.0\n", encoding="utf-8")

        monkeypatch.setitem(cli._SCENARIO_IMPL, "validate", stub)
        out = tmp_path / "out"
        config = ExperimentConfig(scenario="validate", nz=33, nt=16, n_modes=4, out_dir=str(out))
        assert run_scenario(config) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == ["a.csv"]


@pytest.mark.parametrize(
    "module",
    [
        "scipy",
        "scipy.integrate",
        "scipy.linalg",
        "numpy.f2py",
        "numpy.testing",
        "numpy.random",
        "_hashlib",
    ],
)
def test_cli_import_does_not_load(module):
    # each of these costs milliseconds in every colflux process; numpy.random
    # and OpenSSL's _hashlib also 6 MB of RSS between them
    if module in ("numpy.random", "_hashlib") and NUMPY_LOADS_OPENSSL:
        pytest.skip("NumPy 1.x loads it on import")
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.skipif(NUMPY_LOADS_OPENSSL, reason="NumPy 1.x loads numpy.random on import")
def test_scenarios_load_neither_numpy_random_nor_openssl(tmp_path):
    # the noise, the forward-map sketch and the blind weights draw from
    # numerics' own Philox stream, and the config hash is CPython's built-in
    # SHA-256, so no run maps libcrypto or libssl
    argvs = []
    for scenario in ("assimilate", "oracle_check", "blind"):
        path = tmp_path / f"{scenario}.json"
        config = small_config(scenario, tmp_path / scenario, blind={"m": 4})
        path.write_text(json.dumps(config), encoding="utf-8")
        argvs.append([scenario, "--config", str(path)])
    code = (
        "import json, sys, colflux.cli; "
        f"codes = [colflux.cli.main(argv) for argv in {argvs!r}]; "
        "maps = open('/proc/self/maps').read().splitlines(); "
        "ssl = sorted({m.split()[-1] for m in maps if 'libcrypto' in m or 'libssl' in m}); "
        "loaded = [m for m in ('numpy.random', '_hashlib') if m in sys.modules]; "
        "print(json.dumps([codes, loaded, ssl]))"
    )
    proc = run_python(["-c", code], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], [], []]


@pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65])
def test_config_hash_is_sha256_at_the_padding_edges(size):
    # a message of 56 or more bytes modulo 64 takes one more padding block
    data = bytes(range(7, 7 + size))
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize(
    "first, caller, expected",
    [
        ("", "2", [1, 1, "2"]),
        ("", None, [1, 1, None]),
        ("import numpy; ", "2", [2, 2, "2"]),
    ],
    ids=["cli-first-at-2", "cli-first-unset", "numpy-first-at-2"],
)
def test_cli_loads_openblas_at_one_thread(first, caller, expected):
    # every scenario runs on one BLAS thread, so a process whose first NumPy
    # import is the CLI's loads OpenBLAS at one and has no second OS thread
    # to spin idle; os.environ keeps the caller's value. Where NumPy came
    # first, its count stays the caller's (run_scenario pins it per run)
    code = (
        f"{first}import json, os, colflux.cli; from colflux.numerics import _flapack; "
        "print(json.dumps([len(os.listdir('/proc/self/task')), _flapack.blas_threads(), "
        "os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


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
    assert manifest["blas_threads"] == 1  # the scenario's own count, at any caller's
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
            ('{"flux": {"kind": "sine", "amplitude": 1, "cycles": 1, "phase": 0}}', "flux.phase"),
            ('{"flux": {"kind": "sine", "amplitude": 1}}', "flux.cycles"),
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

        assert parse_config(document(nodes), overrides={"scenario": "validate"})
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
        blind = {"scenario": "blind"}
        assert parse_config('{"seed": 0}', overrides=blind).seed == 0
        top = parse_config(json.dumps({"seed": 2**128 - 1}), overrides=blind)
        assert top.seed == 2**128 - 1
        for seed in (-1, 2**128, 1.5, True, 10**400):
            with pytest.raises(ConfigError, match="^seed: "):
                parse_config(json.dumps({"seed": seed}), overrides=blind)

    def test_integral_floats_are_counts(self):
        config = parse_config('{"grid": {"nz": 65.0}}', overrides={"scenario": "eigen"})
        assert config.nz == 65 and isinstance(config.nz, int)


# Every value rule of the schema over edge values: each entry is the type of
# what the rule returns, which must equal that type made from the value (so
# an integer comes back exact), or the message it fails with before ", got
# {value!r}". The column order is RULE_VALUES's.
RULE_VALUES = {
    "true": True,
    "zero": 0,
    "negative": -1.5,
    "half": 0.5,
    "integral-float": 65.0,
    "1e300": 1e300,
    "10**400": 10**400,
    "2**127+1": 2**127 + 1,
    "2**128-1": 2**128 - 1,
    "2**128": 2**128,
    "nan": math.nan,
    "empty": "",
    "rho_top": "rho_top",
    "uniform": "uniform",
}
NUM, FIN, POS = "expected a number", "expected a finite number", "must be positive"
SCALE = "must be positive, with a square that is a normal double"
INT, SEED = "expected an integer", "must lie in [0, 2**128)"
ONE_OF = "expected one of ('uniform', 'rho_plus', 'rho_minus')"
STR = "expected a nonempty string"
AT = "must be at most 64"
RULE_TABLE = {
    "_number": (NUM, float, float, float, float, float, FIN, float, float, float, FIN, NUM, NUM, NUM),
    "_positive": (NUM, POS, POS, float, float, float, FIN, float, float, float, FIN, NUM, NUM, NUM),
    "_scale": (NUM, SCALE, SCALE, float, float, SCALE, FIN, float, float, float, FIN, NUM, NUM, NUM),
    "_integer": (NUM, int, INT, INT, int, int, FIN, int, int, int, FIN, NUM, NUM, NUM),
    "_count": (NUM, POS, POS, INT, int, int, FIN, int, int, int, FIN, NUM, NUM, NUM),
    "_count_to": (NUM, POS, POS, INT, AT, AT, FIN, AT, AT, AT, FIN, NUM, NUM, NUM),
    "_seed": (NUM, int, INT, INT, int, SEED, FIN, int, int, SEED, FIN, NUM, NUM, NUM),
    "_choice": (ONE_OF,) * 13 + (str,),
    "_nonempty_string": (STR,) * 12 + (str, str),
}


@pytest.mark.parametrize(
    "rule, value, expected",
    [
        pytest.param(rule, value, expected, id=f"{rule[1:]}-{label}")
        for rule, row in RULE_TABLE.items()
        for (label, value), expected in zip(RULE_VALUES.items(), row, strict=True)
    ],
)
def test_rule_table(rule, value, expected):
    made = {"_choice": (cli.WEIGHT_LABELS,), "_count_to": (64,)}  # rule constructors
    check = getattr(cli, rule)(*made[rule]) if rule in made else getattr(cli, rule)
    if isinstance(expected, type):
        result = check(value, "p")
        assert type(result) is expected
        assert result == expected(value)
    else:
        with pytest.raises(ConfigError) as info:
            check(value, "p")
        assert str(info.value) == f"p: {expected}, got {value!r}"


@pytest.mark.parametrize(
    "path, field, cap",
    [
        ("grid.nz", "nz", 2**24),
        ("grid.nt", "nt", 2**24),
        ("spectral.n_modes", "n_modes", 2**24),
        ("blind.m", "blind_m", 40),
    ],
)
def test_counts_are_capped_by_path(path, field, cap):
    # a count past what an array can hold once failed in NumPy's first
    # allocation, naming no path; the caps are checked before anything is built
    block, key = path.split(".")
    config = parse_config(json.dumps({"scenario": "validate", block: {key: cap}}))
    assert getattr(config, field) == cap
    for value in (cap + 1, 1e300):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"scenario": "validate", block: {key: value}}))
        assert str(info.value) == f"{path}: must be at most {cap}, got {value!r}"


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
    monkeypatch.setitem(cli._SCENARIO_IMPL, "assimilate", lambda ws: None)
    text = (DATA / name).read_text(encoding="utf-8") if name else "{}"
    out = tmp_path / "out"
    config = parse_config(text, overrides={"scenario": "assimilate", "out": str(out)})
    assert run_scenario(config) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == expected


def test_readme_configuration_block_is_the_defaults():
    section = README.read_text(encoding="utf-8").split("### Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    expected = ExperimentConfig(scenario="validate").canonical()
    del expected["scenario"]
    assert json.loads(block) == expected
