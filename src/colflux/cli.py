"""Command-line orchestration: JSON config in, CSV/JSON artifacts out.

Usage::

    colflux <scenario> --config <path> [--out <dir>] [--seed <n>] [--modes <n>]

Scenarios: validate, simulate, eigen, weights, gains, assimilate,
oracle_check, blind, compare_altitude. Exit codes: 0 success, 2 config
error, 3 numerical/diagnostic failure, 4 capacity error.

Determinism: identical config and seed produce byte-identical outputs.
Floats are written as the shortest decimal that round-trips to the same
double (Python's repr); JSON keys are emitted in sorted order; manifests
carry a config hash and library versions but no timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .assimilate import (
    PRIOR_KINDS,
    AssimilationProblem,
    PriorSpec,
    map_estimate,
    oracle_bayes,
    representer_rows,
)
from .errors import (
    AssumptionError,
    CapacityError,
    ConfigError,
    DiagnosticError,
    NumericalError,
)
from .model import CoefficientProfile, validate_profile
from .numerics import ColumnGrid, TimeGrid, trapezoid
from .observe import (
    Weight,
    canonical_weights,
    observations_to_csv,
    observations_to_json,
    synthesize_data,
    write_weight_csv,
)
from .posterior import analyze_gain, blind_direction, gain_direction
from .spectral import eigensystem, expand_weight, expansion_residual, muntz_partial_sums
from .transport import (
    FluxSignal,
    energy_fit,
    mass_balance_residual,
    solve_forward,
    write_field_csv,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with all defaults applied.

    ``nz`` counts column nodes (spacing h/(nz-1)); ``nt`` counts time
    steps, so the time grid has nt+1 nodes and spacing t_end/nt. With the
    defaults both spacings come out as round binary fractions and the
    default observation times (quarter points) are exact grid nodes.
    """

    scenario: str
    h: float = 1.0
    t_end: float = 1.0
    nz: int = 1001
    nt: int = 1024
    n_modes: int = 32
    seed: int = 0
    out_dir: str = "colflux_out"
    k_spec: dict = field(default_factory=lambda: {"kind": "constant", "value": 1.0})
    w_spec: dict = field(default_factory=lambda: {"kind": "constant", "value": 0.0})
    flux_spec: dict = field(
        default_factory=lambda: {"kind": "sine", "amplitude": 1.0, "cycles": 1.0}
    )
    initial_spec: dict = field(
        default_factory=lambda: {"kind": "constant", "value": 0.0}
    )
    prior_kind: str = "dirichlet_inverse_laplacian"
    prior_sigma: float = 1.0
    prior_mean_spec: dict = field(
        default_factory=lambda: {"kind": "constant", "value": 0.0}
    )
    obs_times: tuple = (0.25, 0.5, 1.0)
    obs_weights: tuple = ("rho_plus", "rho_minus", "rho_plus")
    obs_noise: tuple = (0.1, 0.1, 0.1)
    blind_m: int = 20
    blind_t_obs: float | None = None
    blind_seed_spec: dict = field(
        default_factory=lambda: {"kind": "parabola", "amplitude": 1.0}
    )

    def canonical(self) -> dict:
        """The config as a plain nested dict in the documented schema.

        ``blind.t_obs`` is omitted while unset: the schema has no null.
        """
        doc = {}
        for path, name, _ in _SCHEMA:
            if getattr(self, name) is not None:
                _place(doc, path, getattr(self, name))
        # through JSON, so tuples become lists and nothing is shared with self
        return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# scenario machinery


class _Workspace:
    """Objects shared by the scenario implementations, built lazily."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.zgrid = ColumnGrid(h=config.h, n=config.nz)
        self.tgrid = TimeGrid(t_end=config.t_end, n=config.nt + 1)
        k = _eval_function_spec(config.k_spec, self.zgrid.nodes, config.h)
        w = _eval_function_spec(config.w_spec, self.zgrid.nodes, config.h)
        self.profile = validate_profile(k, w, self.zgrid)
        self._eig = None

    @property
    def eig(self):
        if self._eig is None:
            self._eig = eigensystem(self.profile, self.config.n_modes)
        return self._eig

    @property
    def flux(self) -> FluxSignal:
        values = _eval_function_spec(
            self.config.flux_spec, self.tgrid.nodes, self.config.t_end
        )
        return FluxSignal(grid=self.tgrid, values=values)

    @property
    def q0(self) -> np.ndarray:
        return _eval_function_spec(
            self.config.initial_spec, self.zgrid.nodes, self.config.h
        )

    def weight_for(self, spec) -> Weight:
        if isinstance(spec, str):
            if spec == "uniform":
                return Weight(
                    grid=self.zgrid,
                    values=np.ones(self.zgrid.n),
                    label="uniform",
                )
            plus, minus = canonical_weights(self.eig)
            return plus if spec == "rho_plus" else minus
        values = _eval_function_spec(spec, self.zgrid.nodes, self.config.h)
        return Weight(grid=self.zgrid, values=values, label="samples")

    def observation_weights(self) -> list:
        return [self.weight_for(s) for s in self.config.obs_weights]

    def prior(self) -> PriorSpec:
        mean = _eval_function_spec(
            self.config.prior_mean_spec, self.tgrid.nodes, self.config.t_end
        )
        return PriorSpec(
            mean=FluxSignal(grid=self.tgrid, values=mean),
            kind=self.config.prior_kind,
            sigma=self.config.prior_sigma,
        )

    def problem(self) -> AssimilationProblem:
        weights = self.observation_weights()
        obs = synthesize_data(
            self.profile,
            self.flux,
            self.q0,
            weights,
            np.asarray(self.config.obs_times, dtype=float),
            np.asarray(self.config.obs_noise, dtype=float),
            self.config.seed,
        )
        return AssimilationProblem(
            profile=self.profile,
            q0=self.q0,
            observations=obs,
            weights=tuple(weights),
            prior=self.prior(),
        )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, header: str, columns) -> None:
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _scenario_validate(ws: _Workspace, out: Path) -> list:
    profile = ws.profile
    _write_json(
        out / "validate.json",
        {
            "epsilon": float(profile.epsilon),
            "h": ws.config.h,
            "k_range": [float(profile.k.min()), float(profile.k.max())],
            "nz": ws.config.nz,
            "w_range": [float(profile.w.min()), float(profile.w.max())],
        },
    )
    return ["validate.json"]


def _scenario_simulate(ws: _Workspace, out: Path) -> list:
    flux = ws.flux
    field_ = solve_forward(ws.profile, flux, ws.q0)
    write_field_csv(field_, out / "field.csv")
    resid = mass_balance_residual(field_, ws.profile, flux)
    _write_csv(out / "mass_residual.csv", "t,residual", (ws.tgrid.nodes, resid))
    constant = energy_fit(field_, flux, ws.q0)
    _write_json(
        out / "energy.json",
        {"energy_constant": constant, "max_abs_mass_residual": float(np.abs(resid).max())},
    )
    return ["energy.json", "field.csv", "mass_residual.csv"]


def _scenario_eigen(ws: _Workspace, out: Path) -> list:
    eig = ws.eig
    with open(out / "eig.csv", "w", encoding="utf-8", newline="\n") as fh:
        sample_cols = ",".join(f"p_z{j}" for j in range(ws.zgrid.n))
        fh.write(f"n,lambda,mu_norm,{sample_cols}\n")
        for n in range(eig.n_modes):
            samples = ",".join(repr(float(v)) for v in eig.modes[:, n])
            fh.write(
                f"{n},{float(eig.eigenvalues[n])!r},{float(eig.mu_norms[n])!r},{samples}\n"
            )
    return ["eig.csv"]


def _scenario_weights(ws: _Workspace, out: Path) -> list:
    plus, minus = canonical_weights(ws.eig)
    write_weight_csv(plus, out / "rho_plus.csv")
    write_weight_csv(minus, out / "rho_minus.csv")
    _write_json(
        out / "weights.json",
        {
            "rho_minus": {
                "is_nonnegative": minus.is_nonnegative,
                "expansion_residual": expansion_residual(minus.values, ws.eig),
            },
            "rho_plus": {
                "is_nonnegative": plus.is_nonnegative,
                "expansion_residual": expansion_residual(plus.values, ws.eig),
            },
        },
    )
    return ["rho_minus.csv", "rho_plus.csv", "weights.json"]


def _scenario_gains(ws: _Workspace, out: Path) -> list:
    files = []
    summary = {}
    for i, (t_obs, wspec, r) in enumerate(
        zip(ws.config.obs_times, ws.config.obs_weights, ws.config.obs_noise)
    ):
        weight = ws.weight_for(wspec)
        a = (
            weight.coefficients
            if weight.coefficients is not None
            else expand_weight(weight.values, ws.eig)
        )
        gain = gain_direction(ws.eig, a, t_obs, r, ws.tgrid)
        name = f"gain_{i:02d}.csv"
        _write_csv(
            out / name,
            "t,G,truncation_envelope",
            (ws.tgrid.nodes, gain.values, gain.truncation_envelope),
        )
        files.append(name)
        analysis = analyze_gain(gain)
        summary[f"observation_{i:02d}"] = {
            "mean_projection": analysis.mean_projection,
            "monotone": analysis.monotone,
            "t_obs": float(t_obs),
            "max_truncation_envelope_interior": float(
                gain.truncation_envelope[: max(1, ws.tgrid.index_of(gain.t_obs) // 2)].max()
            ),
        }
    _write_json(out / "gains.json", summary)
    files.append("gains.json")
    return sorted(files)


def _scenario_assimilate(ws: _Workspace, out: Path) -> list:
    problem = ws.problem()
    # the oracle cross-checks the forward map that CG reuses, so it runs
    # before any artifact is written from that map
    mean, cov = oracle_bayes(problem)
    flux_map, report = map_estimate(problem)
    _write_csv(out / "map_flux.csv", "t,F", (ws.tgrid.nodes, flux_map.values))
    _write_csv(
        out / "posterior_variance.csv", "t,variance", (ws.tgrid.nodes, np.diag(cov))
    )
    with open(out / "observations.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(observations_to_csv(problem.observations))
    map_vs_mean = float(
        np.linalg.norm(flux_map.values - mean)
        / max(np.linalg.norm(mean), 1e-300)
    )
    _write_json(
        out / "assimilate.json",
        {
            "converged": report["converged"],
            "iterations": report["iterations"],
            "map_vs_oracle_mean_rel": map_vs_mean,
            "relative_residual": report["relative_residual"],
        },
    )
    return ["assimilate.json", "map_flux.csv", "observations.csv", "posterior_variance.csv"]


def _scenario_oracle_check(ws: _Workspace, out: Path) -> list:
    problem = ws.problem()
    mean, cov = oracle_bayes(problem)
    flux_map, report = map_estimate(problem)
    rows = representer_rows(problem)

    max_rel = 0.0
    for i, (t_obs, r) in enumerate(
        zip(ws.config.obs_times, ws.config.obs_noise)
    ):
        weight = problem.weights[i]
        a = expand_weight(weight.values, ws.eig)
        gain = gain_direction(ws.eig, a, t_obs, r, ws.tgrid)
        diff = rows[i] - gain.values
        num = np.sqrt(trapezoid(diff**2, ws.tgrid))
        den = np.sqrt(trapezoid(gain.values**2, ws.tgrid))
        max_rel = max(max_rel, float(num / den))

    map_vs_mean = float(
        np.linalg.norm(flux_map.values - mean) / max(np.linalg.norm(mean), 1e-300)
    )
    payload = {
        "map_vs_oracle_mean_rel": map_vs_mean,
        "max_representer_vs_gain_rel_l2": max_rel,
        "n_modes": ws.config.n_modes,
        "n_observations": len(problem.observations),
    }
    _write_json(out / "oracle_report.json", payload)
    _write_csv(out / "posterior_mean.csv", "t,F", (ws.tgrid.nodes, mean))
    if max_rel > 1e-2:
        msg = (
            "spectral gains and discrete representers disagree: max relative "
            f"L2 difference {max_rel:.3e} > 1e-2"
        )
        raise DiagnosticError(msg)
    return ["oracle_report.json", "posterior_mean.csv"]


def _scenario_blind(ws: _Workspace, out: Path) -> list:
    config = ws.config
    t_obs = config.blind_t_obs if config.blind_t_obs is not None else config.t_end
    seed_values = _eval_function_spec(
        config.blind_seed_spec, ws.tgrid.nodes, config.t_end
    )
    g = blind_direction(ws.eig, t_obs, config.blind_m, ws.tgrid, seed_values)
    _write_csv(out / "blind.csv", "t,G", (ws.tgrid.nodes, g))

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    g_norm = np.sqrt(trapezoid(g**2, ws.tgrid))
    worst = 0.0
    for _ in range(50):
        rho = rng.random(ws.zgrid.n)
        a = expand_weight(rho, ws.eig)[: config.blind_m]
        gain = gain_direction(ws.eig, a, t_obs, 1.0, ws.tgrid)
        inner = trapezoid(g * gain.values, ws.tgrid)
        gain_norm = np.sqrt(trapezoid(gain.values**2, ws.tgrid))
        worst = max(worst, float(abs(inner) / (g_norm * gain_norm)))
    _write_json(
        out / "blind_report.json",
        {
            "m": config.blind_m,
            "max_normalized_projection": worst,
            "n_weights": 50,
            "t_obs": float(t_obs),
        },
    )
    if worst > 1e-6:
        msg = f"blind direction leaks: normalized projection {worst:.3e} > 1e-6"
        raise DiagnosticError(msg)
    return ["blind.csv", "blind_report.json"]


def _scenario_compare_altitude(ws: _Workspace, out: Path) -> list:
    eig = ws.eig
    t_end = ws.config.t_end
    plus, minus = canonical_weights(eig)
    results = {}
    for weight in (plus, minus):
        gain = gain_direction(eig, weight.coefficients, t_end, 1.0, ws.tgrid)
        analysis = analyze_gain(gain)
        results[weight.label] = analysis
    lam1 = float(eig.eigenvalues[1])
    closed_form = 2.0 * (1.0 - np.exp(-lam1 * t_end)) / lam1
    diff = abs(results["rho_plus"].mean_projection) - abs(
        results["rho_minus"].mean_projection
    )
    _write_json(
        out / "compare_altitude.json",
        {
            "closed_form_difference": closed_form,
            "lambda_1": lam1,
            "mean_gain_difference": float(diff),
            "rho_minus": {
                "mean_projection": results["rho_minus"].mean_projection,
                "monotone": results["rho_minus"].monotone,
            },
            "rho_plus": {
                "mean_projection": results["rho_plus"].mean_projection,
                "monotone": results["rho_plus"].monotone,
            },
        },
    )
    return ["compare_altitude.json"]


_SCENARIO_IMPL = {
    "validate": _scenario_validate,
    "simulate": _scenario_simulate,
    "eigen": _scenario_eigen,
    "weights": _scenario_weights,
    "gains": _scenario_gains,
    "assimilate": _scenario_assimilate,
    "oracle_check": _scenario_oracle_check,
    "blind": _scenario_blind,
    "compare_altitude": _scenario_compare_altitude,
}
SCENARIOS = tuple(_SCENARIO_IMPL)


# ---------------------------------------------------------------------------
# config schema: value checks, function specs, the table and its walk


WEIGHT_LABELS = ("uniform", "rho_plus", "rho_minus")


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _number(value, path: str) -> float:
    """A finite real; JSON booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if number <= 0:
        _fail(path, f"must be positive, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    _number(value, path)
    if int(value) != value:
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _count(value, path: str) -> int:
    _positive(value, path)
    return _integer(value, path)


def _seed(value, path: str) -> int:
    """A Philox key: an integer in [0, 2**128)."""
    seed = _integer(value, path)
    if not 0 <= seed < 2**128:
        _fail(path, f"must lie in [0, 2**128), got {value!r}")
    return seed


def _choice(options: tuple):
    def check(value, path: str):
        if value not in options:
            _fail(path, f"expected one of {options}, got {value!r}")
        return value

    return check


def _nonempty_string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a nonempty string, got {value!r}")
    return value


def _list_of(check):
    def check_list(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            _fail(path, f"expected a nonempty list, got {value!r}")
        return tuple(check(item, f"{path}[{i}]") for i, item in enumerate(value))

    return check_list


#: Function-spec kinds: the check of each parameter, and the evaluator
#: f(spec, nodes, length) on grid nodes spanning [0, length].
_FUNCTION_KINDS = {
    "constant": ({"value": _number}, lambda p, x, span: np.full(x.shape, p["value"])),
    "linear": (
        {"base": _number, "slope": _number},
        lambda p, x, span: p["base"] + p["slope"] * x,
    ),
    "sine": (
        {"amplitude": _number, "cycles": _number},
        lambda p, x, span: p["amplitude"] * np.sin(np.pi * p["cycles"] * x / span),
    ),
    "parabola": (
        {"amplitude": _number},
        lambda p, x, span: p["amplitude"] * x * (span - x),
    ),
    "cosine": (
        {"amplitude": _number, "mode": _number},
        lambda p, x, span: p["amplitude"] * np.cos(p["mode"] * np.pi * x / span),
    ),
    "bump": (
        {"amplitude": _number},
        lambda p, x, span: p["amplitude"] * np.sin(np.pi * x / span) ** 2,
    ),
    # one value per grid node; parse_config checks the count against the grid
    "samples": (
        {"values": _list_of(_number)},
        lambda p, x, span: np.asarray(p["values"], dtype=float),
    ),
}


def _function_spec(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object with a 'kind', got {value!r}")
    kind = _choice(tuple(_FUNCTION_KINDS))(value.get("kind"), f"{path}.kind")
    params = _FUNCTION_KINDS[kind][0]
    for key in value:
        if key != "kind" and key not in params:
            _fail(f"{path}.{key}", "unknown key")
    spec = {"kind": kind}
    for key, check in params.items():
        if key not in value:
            _fail(f"{path}.{key}", "missing required value")
        spec[key] = check(value[key], f"{path}.{key}")
    return spec


def _eval_function_spec(spec: dict, nodes: np.ndarray, length: float) -> np.ndarray:
    return _FUNCTION_KINDS[spec["kind"]][1](spec, nodes, length)


def _weight(value, path: str):
    """A weight label, or a function spec evaluated on the column grid."""
    if isinstance(value, str):
        return _choice(WEIGHT_LABELS)(value, path)
    return _function_spec(value, path)


#: The config document as (dotted path, ExperimentConfig field, check). A
#: check takes the value and its path, raises ConfigError naming the path,
#: and returns the value as the field stores it. Every proper prefix of a
#: path is a block, which must be an object; absent keys keep the field's
#: default.
_SCHEMA = (
    ("scenario", "scenario", _choice(SCENARIOS)),
    ("model.h", "h", _positive),
    ("model.k", "k_spec", _function_spec),
    ("model.w", "w_spec", _function_spec),
    ("grid.nz", "nz", _count),
    ("grid.nt", "nt", _count),
    ("grid.t_end", "t_end", _positive),
    ("spectral.n_modes", "n_modes", _count),
    ("prior.kind", "prior_kind", _choice(PRIOR_KINDS)),
    ("prior.sigma", "prior_sigma", _positive),
    ("prior.mean", "prior_mean_spec", _function_spec),
    ("observations.times", "obs_times", _list_of(_number)),
    ("observations.weights", "obs_weights", _list_of(_weight)),
    ("observations.noise", "obs_noise", _list_of(_number)),
    ("flux", "flux_spec", _function_spec),
    ("initial", "initial_spec", _function_spec),
    ("blind.m", "blind_m", _count),
    ("blind.seed_function", "blind_seed_spec", _function_spec),
    ("blind.t_obs", "blind_t_obs", _positive),
    ("seed", "seed", _seed),
    ("out", "out_dir", _nonempty_string),
)
_LEAVES = {tuple(path.split(".")): (name, check) for path, name, check in _SCHEMA}
_BLOCKS = {keys[:i] for keys in _LEAVES for i in range(1, len(keys))}


def _place(doc: dict, path: str, value) -> None:
    """Set ``value`` at dotted ``path``; a non-object block is left to the walk."""
    *blocks, key = path.split(".")
    for name in blocks:
        doc = doc.setdefault(name, {})
        if not isinstance(doc, dict):
            return
    doc[key] = value


def _walk(value, keys: tuple, kwargs: dict) -> None:
    """Check ``value`` found at ``keys`` against the schema into ``kwargs``."""
    if keys in _LEAVES:
        name, check = _LEAVES[keys]
        kwargs[name] = check(value, ".".join(keys))
    elif not isinstance(value, dict):
        _fail(".".join(keys), f"expected an object, got {value!r}")
    else:
        for key, item in value.items():
            if keys + (key,) not in _LEAVES and keys + (key,) not in _BLOCKS:
                _fail(".".join(keys + (key,)), "unknown key")
            _walk(item, keys + (key,), kwargs)


def parse_config(
    text: str, scenario: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Parse and validate a JSON config document against the schema.

    Every block must be an object, unknown keys are rejected with their
    path, and absent keys keep the ExperimentConfig defaults. ``overrides``
    maps schema paths to values placed in the document before the walk, so
    they are checked alike (the CLI flags arrive this way); ``scenario`` is
    the override at "scenario", which makes the document's key optional.

    Raises
    ------
    ConfigError
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or levels
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if scenario is not None:
        _place(raw, "scenario", scenario)
    for path, value in (overrides or {}).items():
        _place(raw, path, value)

    kwargs = {}
    _walk(raw, (), kwargs)
    if "scenario" not in kwargs:
        _fail("scenario", f"missing; expected one of {SCENARIOS}")
    config = ExperimentConfig(**kwargs)
    if config.k_spec["kind"] == "constant" and config.k_spec["value"] <= 0:
        _fail("model.k.value", "diffusivity must be positive (assumption A2)")
    n_times = len(config.obs_times)
    for label in ("weights", "noise"):
        got = len(getattr(config, f"obs_{label}"))
        if got != n_times:
            message = f"{got} entries for {n_times} observation times"
            _fail(f"observations.{label}", message)
    _check_sample_counts(config)
    return config


def _check_sample_counts(config: ExperimentConfig) -> None:
    """Every ``samples`` spec gives one value per node of its grid."""
    column, time = config.nz, config.nt + 1
    specs = [
        ("model.k", config.k_spec, column),
        ("model.w", config.w_spec, column),
        ("initial", config.initial_spec, column),
        ("flux", config.flux_spec, time),
        ("prior.mean", config.prior_mean_spec, time),
        ("blind.seed_function", config.blind_seed_spec, time),
    ] + [
        (f"observations.weights[{i}]", spec, column)
        for i, spec in enumerate(config.obs_weights)
    ]
    for path, spec, nodes in specs:
        if isinstance(spec, dict) and spec["kind"] == "samples":
            got = len(spec["values"])
            if got != nodes:
                message = f"expected {nodes} values, one per grid node, got {got}"
                _fail(f"{path}.values", message)


def run_scenario(config: ExperimentConfig) -> int:
    """Run one scenario; write artifacts and a manifest; return exit code.

    Errors are reported as a structured JSON document on stderr (and in
    error.json under the output directory when it exists) rather than a
    traceback.
    """
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        try:
            ws = _Workspace(config)
        except AssumptionError as exc:
            raise ConfigError(str(exc)) from exc
        files = _SCENARIO_IMPL[config.scenario](ws, out)
        # the hash identifies the experiment, so the output location (where
        # it lands, not what it is) stays out of the hashed form
        ident = config.canonical()
        del ident["out"]
        canon = json.dumps(ident, sort_keys=True)
        manifest = {
            "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            "outputs": sorted(files),
            "scenario": config.scenario,
            "seed": config.seed,
            "versions": {
                "colflux": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
                "scipy": scipy.__version__,
            },
        }
        _write_json(out / "manifest.json", manifest)
        (out / "error.json").unlink(missing_ok=True)
        return 0
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps errors to codes
        code = _exit_code_for(exc)
        report = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
        sys.stderr.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if out.is_dir():
            _write_json(out / "error.json", report)
        return code


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, CapacityError):
        return 4
    if isinstance(exc, (NumericalError, DiagnosticError)):
        return 3
    if isinstance(exc, (ConfigError, ValueError, OSError, KeyError, TypeError)):
        return 2
    return 3


class _ArgumentParser(argparse.ArgumentParser):
    """Reports argument errors as ConfigError, not as usage text."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="colflux",
        description="Column-observation flux estimation experiments.",
    )
    # every argument but --config is stored under its schema path and enters
    # the document there, so the flags are checked like the document
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--modes", dest="spectral.n_modes", type=int, help="n_modes override"
    )
    try:
        args = vars(parser.parse_args(argv))
        text = Path(args.pop("config")).read_text(encoding="utf-8")
        config = parse_config(
            text, overrides={k: v for k, v in args.items() if v is not None}
        )
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        report = {"error": "ConfigError", "exit_code": 2, "message": str(exc)}
        sys.stderr.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return 2
    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
