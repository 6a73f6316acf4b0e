"""Config parsing, scenario runs, exit codes, and output determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colflux
import colflux.cli as cli

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

    def test_nonpositive_diffusivity_cites_the_assumption(self):
        text = json.dumps(
            {
                "scenario": "validate",
                "model": {"k": {"kind": "constant", "value": -1.0}},
            }
        )
        with pytest.raises(ConfigError, match="A2"):
            parse_config(text)

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

    def test_stepper_overflow_reports_only_json_on_stderr(self, tmp_path):
        # a fresh process, so nothing but the program writes to stderr; the
        # overflow must surface as the StabilityError report, not a warning
        config = {
            "flux": {"kind": "sine", "amplitude": 1e308, "cycles": 1.0},
            "grid": {"nz": 33, "nt": 65},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = ["-m", "colflux.cli", "simulate", "--config", str(path)]
        proc = run_python([*args, "--out", str(tmp_path / "out")], timeout=120)
        assert proc.returncode == 3
        report = json.loads(proc.stderr)
        assert report["error"] == "StabilityError"
        assert report["exit_code"] == 3

    def test_forward_map_disagreement_stops_before_any_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        # CG reuses the forward map the oracle checks, so a map that fails
        # the check must not reach map_flux.csv
        original = colflux.assimilate._forward_map_rows

        def bumped(problem):
            rows = original(problem)
            return rows + 1e-6 * np.abs(rows).max()

        monkeypatch.setattr(colflux.assimilate, "_forward_map_rows", bumped)
        out = tmp_path / "out"
        code = run_cli(tmp_path, small_config("assimilate", out))
        report = error_report(capsys)
        assert code == 3
        assert report["error"] == "NumericalError"
        assert "disagree" in report["message"]
        assert not (out / "map_flux.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

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


class TestDeterminism:
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


def test_cli_import_does_not_load_scipy_integrate():
    code = "import sys, colflux.cli; print('scipy.integrate' in sys.modules)"
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
