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
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path

# CPython's own SHA-256, the one hashlib falls back to without OpenSSL:
# hashlib would load OpenSSL (3.4 MB of RSS) for one config hash per run.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    from _sha256 import sha256

# Every scenario runs on one BLAS thread (run_scenario). Where this module
# is the first to import NumPy, as in every colflux process, OpenBLAS loads
# at that one thread, so no idle worker spins beside the scenario. The
# caller's OPENBLAS_NUM_THREADS is put back for os.environ and any child.
_caller_threads = os.environ.get("OPENBLAS_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _caller_threads is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _caller_threads

from . import __version__
from .assimilate import (
    PRIOR_KINDS,
    AssimilationProblem,
    PriorSpec,
    check_oracle_capacity,
    lowrank_posterior,
    map_estimate,
    oracle_bayes,
    representer_rows,
)
from .errors import (
    AssumptionError,
    CapacityError,
    ConfigError,
    DiagnosticError,
    DomainError,
    NumericalError,
)
from .model import CoefficientProfile
from .numerics import (
    ColumnGrid,
    TimeGrid,
    _csv_text,
    _flapack,
    _normal_square,
    _philox_random,
    _write_csv,
    trapezoid,
)
from .observe import (
    Weight,
    canonical_weights,
    write_observations_csv,
    write_weight_csv,
)
from .posterior import (
    BLIND_MAX_MODES,
    analyze_gain,
    blind_direction,
    check_blind,
    gain_direction,
    gain_projections,
)
from .spectral import check_n_modes, eigensystem, expand_weight, expansion_residual
from .transport import (
    FluxSignal,
    energy_fit,
    mass_balance_residual,
    solve_forward,
    write_field_csv,
)


# ---------------------------------------------------------------------------
# scenario machinery


class _Workspace:
    """Objects shared by the scenarios, built lazily, and the artifact paths they write.
    Construction is the run's plan: the modes to solve, and the config refusals that
    depend on what the scenario reads. Every config refusal fires before any eigensolve
    or sweep but blind's resolution guard, which reads a computed eigenvalue."""

    def __init__(self, config: ExperimentConfig, out: Path):
        self.config = config
        self.out = out
        self.written = set()
        self.zgrid = ColumnGrid(h=config.h, n=config.nz)
        self.tgrid = TimeGrid(t_end=config.t_end, n=config.nt + 1)
        self._specs = _function_specs(config)
        # every spec is checked before any scenario runs, and evaluated again
        # where it is used, so no run holds the values of specs it never uses
        for path in self._specs:
            self.values(path)
        self.profile = CoefficientProfile(
            grid=self.zgrid, k=self.values("model.k"), w=self.values("model.w")
        )
        n_modes, scenario = check_n_modes(self.zgrid, config.n_modes), config.scenario
        if scenario == "oracle_check":
            check_oracle_capacity(self.tgrid.n)
        # rho+- = p0 +- p1: where a scenario reads nothing else, only two modes are solved
        pair = [w in ("rho_plus", "rho_minus") for w in config.obs_weights]
        estimate = scenario in ("assimilate", "oracle_check")
        pair_only = scenario in ("weights", "compare_altitude") or estimate and all(pair)
        if (pair_only or (estimate or scenario == "gains") and any(pair)) and n_modes < 2:
            _fail("spectral.n_modes", f"canonical weights need at least 2 modes, got {n_modes}")
        self.modes_solved = 2 if pair_only else n_modes
        self.blind_t_obs = config.blind_t_obs or config.t_end
        if scenario == "blind":
            seed = self.values("blind.seed_function")
            try:
                check_blind(n_modes, config.blind_m, self.tgrid, self.blind_t_obs, seed)
            except DomainError as exc:
                _fail("blind.m", str(exc))
            except ValueError as exc:
                _fail("blind.seed_function", str(exc))

    def values(self, path: str) -> np.ndarray:
        """The function spec at ``path`` on its grid; ConfigError unless finite."""
        spec, on_time = self._specs[path]
        nodes = (self.tgrid if on_time else self.zgrid).nodes  # the last node is the span
        with np.errstate(all="ignore"):
            values = _FUNCTION_KINDS[spec["kind"]][1](spec, nodes, nodes[-1])
        if not np.isfinite(values).all():
            _fail(path, "evaluates to a non-finite value on its grid")
        return values

    def path(self, name: str) -> Path:
        """Where the artifact ``name`` goes; the manifest lists every such name."""
        self.written.add(name)
        return self.out / name

    @cached_property
    def eig(self):
        return eigensystem(self.profile, self.modes_solved)

    @property
    def flux(self) -> FluxSignal:
        return FluxSignal(grid=self.tgrid, values=self.values("flux"))

    @property
    def q0(self) -> np.ndarray:
        return self.values("initial")

    def weight_for(self, i: int) -> Weight:
        spec = self.config.obs_weights[i]
        if isinstance(spec, str):
            if spec == "uniform":
                return Weight(
                    grid=self.zgrid,
                    values=np.ones(self.zgrid.n),
                    label="uniform",
                )
            plus, minus = canonical_weights(self.eig)
            return plus if spec == "rho_plus" else minus
        values = self.values(f"observations.weights[{i}]")
        return Weight(grid=self.zgrid, values=values, label="samples")

    def gain(self, i: int):
        """Observation i's spectral gain, from the coefficients its weight
        carries, or else from the expansion of its nodal values."""
        weight = self.weight_for(i)
        a = weight.coefficients
        if a is None:
            a = expand_weight(weight.values, self.eig)
        t_obs, r = self.config.obs_times[i], self.config.obs_noise[i]
        return gain_direction(self.eig, a, t_obs, r, self.tgrid)

    def prior(self) -> PriorSpec:
        return PriorSpec(
            mean=FluxSignal(grid=self.tgrid, values=self.values("prior.mean")),
            kind=self.config.prior_kind,
            sigma=self.config.prior_sigma,
        )

    def problem(self) -> AssimilationProblem:
        # the prior first: a bad one fails before the eigensolve and any sweep
        return AssimilationProblem.synthesized(
            prior=self.prior(),
            profile=self.profile,
            q0=self.q0,
            weights=[self.weight_for(i) for i in range(len(self.config.obs_weights))],
            times=self.config.obs_times,
            noise_levels=self.config.obs_noise,
            true_flux=self.flux,
            seed=self.config.seed,
        )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _scenario_validate(ws: _Workspace) -> None:
    profile = ws.profile
    _write_json(
        ws.path("validate.json"),
        {
            "epsilon": float(profile.epsilon),
            "h": ws.config.h,
            "k_range": [float(profile.k.min()), float(profile.k.max())],
            "nz": ws.config.nz,
            "w_range": [float(profile.w.min()), float(profile.w.max())],
        },
    )


def _scenario_simulate(ws: _Workspace) -> None:
    flux = ws.flux
    field_ = solve_forward(ws.profile, flux, ws.q0)
    write_field_csv(field_, ws.path("field.csv"))
    resid = mass_balance_residual(field_, ws.profile, flux)
    _write_csv(ws.path("mass_residual.csv"), "t,residual", (ws.tgrid.nodes, resid))
    constant = energy_fit(field_, flux, ws.q0)
    _write_json(
        ws.path("energy.json"),
        {"energy_constant": constant, "max_abs_mass_residual": float(np.abs(resid).max())},
    )


def _scenario_eigen(ws: _Workspace) -> None:
    eig = ws.eig
    sample_cols = ",".join(f"p_z{j}" for j in range(ws.zgrid.n))
    _write_csv(
        ws.path("eig.csv"),
        f"n,lambda,mu_norm,{sample_cols}",
        (np.arange(eig.n_modes), eig.eigenvalues, eig.mu_norms, eig.modes.T),
    )


def _scenario_weights(ws: _Workspace) -> None:
    records = {}
    for weight in canonical_weights(ws.eig):
        write_weight_csv(weight, ws.path(f"{weight.label}.csv"))
        records[weight.label] = {
            "is_nonnegative": weight.is_nonnegative,
            "expansion_residual": expansion_residual(weight.values, ws.eig),
        }
    _write_json(ws.path("weights.json"), records)


def _scenario_gains(ws: _Workspace) -> None:
    summary = {}
    times = _csv_text(ws.tgrid.nodes)  # shared by every gain file
    for i, t_obs in enumerate(ws.config.obs_times):
        gain = ws.gain(i)
        _write_csv(
            ws.path(f"gain_{i:02d}.csv"),
            "t,G,truncation_envelope",
            (times, gain.values, gain.truncation_envelope),
        )
        analysis = analyze_gain(gain)
        summary[f"observation_{i:02d}"] = {
            "mean_projection": analysis.mean_projection,
            "monotone": analysis.monotone,
            "t_obs": float(t_obs),
            "max_truncation_envelope_interior": float(
                gain.truncation_envelope[: max(1, ws.tgrid.index_of(gain.t_obs) // 2)].max()
            ),
        }
    _write_json(ws.path("gains.json"), summary)


def _rel_gap(values: np.ndarray, reference: np.ndarray) -> float:
    """|values - reference| / |reference|, the denominator floored at 1e-300.
    Both are first scaled by one power of two (exact) to below 1 in magnitude,
    so that fluxes near the double range give a finite gap."""
    _, scale = np.frexp(max(np.abs(values).max(), np.abs(reference).max()))
    values, reference = np.ldexp(values, -scale), np.ldexp(reference, -scale)
    return float(np.linalg.norm(values - reference) / max(np.linalg.norm(reference), 1e-300))


def _scenario_assimilate(ws: _Workspace) -> None:
    problem = ws.problem()
    mean, variance = lowrank_posterior(problem)
    flux_map, report = map_estimate(problem)
    times = _csv_text(ws.tgrid.nodes)
    _write_csv(ws.path("map_flux.csv"), "t,F", (times, flux_map.values))
    _write_csv(ws.path("posterior_variance.csv"), "t,variance", (times, variance))
    write_observations_csv(problem.observations, ws.path("observations.csv"))
    _write_json(
        ws.path("assimilate.json"),
        {
            "converged": report["converged"],
            "forward_map_sketch_rel_gap": problem.forward_map_sketch_rel_gap,
            "iterations": report["iterations"],
            # CG's MAP against the low-rank posterior mean
            "map_vs_oracle_mean_rel": _rel_gap(flux_map.values, mean),
            "relative_residual": report["relative_residual"],
        },
    )


def _scenario_oracle_check(ws: _Workspace) -> None:
    problem = ws.problem()
    mean = oracle_bayes(problem)
    flux_map, report = map_estimate(problem)
    rows = representer_rows(problem)

    rels = []
    for i, row in enumerate(rows):
        gain = ws.gain(i)
        diff = row - gain.values
        num = np.sqrt(trapezoid(diff**2, ws.tgrid))
        den = np.sqrt(trapezoid(gain.values**2, ws.tgrid))
        rels.append(num / max(den, 1e-300))
    # np.max keeps a NaN, and the gate below fails on it
    max_rel = float(np.max(rels))

    payload = {
        "forward_map_sketch_rel_gap": problem.forward_map_sketch_rel_gap,
        # CG's MAP against the dense oracle's posterior mean
        "map_vs_oracle_mean_rel": _rel_gap(flux_map.values, mean),
        "max_representer_vs_gain_rel_l2": max_rel,
        "n_modes": ws.eig.n_modes,
        "n_observations": len(problem.observations),
    }
    _write_json(ws.path("oracle_report.json"), payload)
    _write_csv(ws.path("posterior_mean.csv"), "t,F", (ws.tgrid.nodes, mean))
    if not max_rel <= 1e-2:
        msg = (
            "spectral gains and discrete representers disagree: max relative "
            f"L2 difference {max_rel:.3e} > 1e-2"
        )
        raise DiagnosticError(msg)


# Random weights `blind` projects onto its direction, drawn whole rows at a
# time, about _PHILOX_DRAW uniforms per draw (temporaries of about 0.8 MB).
# For 50 rows of 4001 nodes, one draw per row took 1.6x the time, and one
# draw of all 200k raised the run's peak RSS 0.8 MB.
_BLIND_WEIGHTS = 50
_PHILOX_DRAW = 16384


def _blind_weights(seed: int, width: int):
    """The rows of ``Generator(Philox(seed)).random((_BLIND_WEIGHTS, width))``."""
    per_draw = max(1, _PHILOX_DRAW // width)
    for r in range(0, _BLIND_WEIGHTS, per_draw):
        k = min(per_draw, _BLIND_WEIGHTS - r)
        yield from _philox_random(seed, k * width, r * width).reshape(k, width)


def _scenario_blind(ws: _Workspace) -> None:
    config, t_obs = ws.config, ws.blind_t_obs
    g = blind_direction(ws.eig, t_obs, config.blind_m, ws.tgrid, ws.values("blind.seed_function"))
    _write_csv(ws.path("blind.csv"), "t,G", (ws.tgrid.nodes, g))

    draws = _blind_weights(config.seed, ws.zgrid.n)
    rows = [expand_weight(w, ws.eig)[: config.blind_m] for w in draws]
    # np.max keeps a NaN, and the gate below fails on it
    worst = float(np.max(gain_projections(ws.eig, rows, t_obs, ws.tgrid, g)))
    _write_json(
        ws.path("blind_report.json"),
        {
            "m": config.blind_m,
            "max_normalized_projection": worst,
            "n_weights": _BLIND_WEIGHTS,
            "t_obs": float(t_obs),
        },
    )
    if not worst <= 1e-6:
        msg = f"blind direction leaks: normalized projection {worst:.3e} > 1e-6"
        raise DiagnosticError(msg)


def _scenario_compare_altitude(ws: _Workspace) -> None:
    eig = ws.eig
    t_end = ws.config.t_end
    results = {}
    for weight in canonical_weights(eig):
        gain = gain_direction(eig, weight.coefficients, t_end, 1.0, ws.tgrid)
        results[weight.label] = analyze_gain(gain)
    lam1 = float(eig.eigenvalues[1])
    closed_form = 2.0 * (1.0 - np.exp(-lam1 * t_end)) / lam1
    diff = abs(results["rho_plus"].mean_projection) - abs(
        results["rho_minus"].mean_projection
    )
    _write_json(
        ws.path("compare_altitude.json"),
        {
            "closed_form_difference": closed_form,
            "lambda_1": lam1,
            "mean_gain_difference": float(diff),
            **{label: analysis._asdict() for label, analysis in results.items()},
        },
    )


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
# config schema: value checks, function specs, the config, its table and its walk


WEIGHT_LABELS = ("uniform", "rho_plus", "rho_minus")
_ZERO = {"kind": "constant", "value": 0.0}  # the default of three function specs
_MAX_NODES = 2**24  # the most grid nodes or modes: one nodal array is then 128 MiB


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _rule(condition, message: str, base=None, cast=None):
    """A value check: ``base``'s, if any, then ``condition`` on what that returned,
    failing with ``message`` and the value as given; returns ``cast(value)`` or that."""

    def check(value, path: str):
        checked = base(value, path) if base else value
        if not condition(checked):
            _fail(path, f"{message}, got {value!r}")
        return cast(value) if cast else checked

    return check


def _real(value) -> float:
    """``value`` as a double; an integer beyond the double range is inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


_numeric = _rule(  # JSON booleans are not numbers
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "expected a number",
    cast=_real,
)
_number = _rule(math.isfinite, "expected a finite number", _numeric)
_positive = _rule(lambda x: x > 0, "must be positive", _number)
_scale = _rule(_normal_square, "must be positive, with a square that is a normal double", _number)
_integer = _rule(float.is_integer, "expected an integer", _number, int)
_count = _rule(float.is_integer, "expected an integer", _positive, int)
# a Philox key, compared as the exact integer
_seed = _rule(lambda n: 0 <= n < 2**128, "must lie in [0, 2**128)", _integer)
_nonempty_string = _rule(lambda v: isinstance(v, str) and v != "", "expected a nonempty string")


def _count_to(cap: int):
    return _rule(lambda n: n <= cap, f"must be at most {cap}", _count)


def _choice(options: tuple):
    return _rule(lambda v: v in options, f"expected one of {options}")


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


def _weight(value, path: str):
    """A weight label, or a function spec evaluated on the column grid."""
    if isinstance(value, str):
        return _choice(WEIGHT_LABELS)(value, path)
    return _function_spec(value, path)


def _key(path: str, check, default=MISSING, grid: str | None = None):
    """An ExperimentConfig field: its dotted ``path``, ``check`` and default, and
    for a function spec (or a list that may hold some) its ``grid``, "time" or "column"."""
    metadata = {"path": path, "check": check, "grid": grid}
    if isinstance(default, dict):  # a fresh copy for each config
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with all defaults applied.

    ``nz`` counts column nodes (spacing h/(nz-1)); ``nt`` counts time
    steps, so the time grid has nt+1 nodes and spacing t_end/nt. With the
    defaults both spacings come out as round binary fractions and the
    default observation times (quarter points) are exact grid nodes.

    Each field states its config key once (see ``_key``); function specs
    are checked in field order.
    """

    scenario: str = _key("scenario", _choice(SCENARIOS))
    h: float = _key("model.h", _positive, 1.0)
    t_end: float = _key("grid.t_end", _positive, 1.0)
    nz: int = _key("grid.nz", _count_to(_MAX_NODES), 1001)
    nt: int = _key("grid.nt", _count_to(_MAX_NODES), 1024)
    n_modes: int = _key("spectral.n_modes", _count_to(_MAX_NODES), 32)
    seed: int = _key("seed", _seed, 0)
    out_dir: str = _key("out", _nonempty_string, "colflux_out")
    k_spec: dict = _key("model.k", _function_spec, {"kind": "constant", "value": 1.0}, "column")
    w_spec: dict = _key("model.w", _function_spec, _ZERO, "column")
    initial_spec: dict = _key("initial", _function_spec, _ZERO, "column")
    flux_spec: dict = _key(
        "flux", _function_spec, {"kind": "sine", "amplitude": 1.0, "cycles": 1.0}, "time"
    )
    prior_kind: str = _key("prior.kind", _choice(PRIOR_KINDS), "dirichlet_inverse_laplacian")
    prior_sigma: float = _key("prior.sigma", _scale, 1.0)
    prior_mean_spec: dict = _key("prior.mean", _function_spec, _ZERO, "time")
    blind_m: int = _key("blind.m", _count_to(BLIND_MAX_MODES), 20)
    blind_t_obs: float | None = _key("blind.t_obs", _positive, None)
    blind_seed_spec: dict = _key(
        "blind.seed_function", _function_spec, {"kind": "parabola", "amplitude": 1.0}, "time"
    )
    obs_times: tuple = _key("observations.times", _list_of(_positive), (0.25, 0.5, 1.0))
    obs_weights: tuple = _key(
        "observations.weights", _list_of(_weight), ("rho_plus", "rho_minus", "rho_plus"), "column"
    )
    obs_noise: tuple = _key("observations.noise", _list_of(_scale), (0.1, 0.1, 0.1))

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


#: The config document as (dotted path, ExperimentConfig field, check), read
#: from the fields. A check takes the value and its path, raises ConfigError
#: naming the path, and returns the value as the field stores it. Every
#: proper prefix of a path is a block, which must be an object; absent keys
#: keep the field's default.
_SCHEMA = tuple(
    (f.metadata["path"], f.name, f.metadata["check"]) for f in fields(ExperimentConfig)
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


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config document against the schema.

    Every block must be an object, unknown keys are rejected with their
    path, and absent keys keep the ExperimentConfig defaults. ``overrides``
    maps schema paths to values placed in the document before the walk, so
    they are checked alike; the CLI's scenario and flags arrive this way,
    which makes the document's "scenario" key optional.

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
    for path, value in (overrides or {}).items():
        _place(raw, path, value)

    kwargs = {}
    _walk(raw, (), kwargs)
    if "scenario" not in kwargs:
        _fail("scenario", f"missing; expected one of {SCENARIOS}")
    config = ExperimentConfig(**kwargs)
    n_times = len(config.obs_times)
    for label in ("weights", "noise"):
        got = len(getattr(config, f"obs_{label}"))
        if got != n_times:
            message = f"{got} entries for {n_times} observation times"
            _fail(f"observations.{label}", message)
    for i, (before, t) in enumerate(zip(config.obs_times, config.obs_times[1:])):
        if not t > before:
            message = f"must exceed observations.times[{i}] = {before!r}, got {t!r}"
            _fail(f"observations.times[{i + 1}]", message)
    tgrid = TimeGrid(t_end=config.t_end, n=config.nt + 1)
    times = {f"observations.times[{i}]": t for i, t in enumerate(config.obs_times)}
    if config.blind_t_obs is not None:
        times["blind.t_obs"] = config.blind_t_obs
    for path, t in times.items():
        try:
            tgrid.index_of(t)
        except ValueError as exc:
            _fail(path, str(exc))
    for path, (spec, on_time) in _function_specs(config).items():
        nodes = config.nt + 1 if on_time else config.nz
        if spec["kind"] == "samples" and len(spec["values"]) != nodes:
            got = len(spec["values"])
            message = f"expected {nodes} values, one per grid node, got {got}"
            _fail(f"{path}.values", message)
    return config


def _function_specs(config: ExperimentConfig) -> dict:
    """Every function spec, by path: (spec, whether on the time grid)."""
    specs = {}
    for f in fields(config):
        path, grid = f.metadata["path"], f.metadata["grid"]
        value = getattr(config, f.name)
        if isinstance(value, dict):
            specs[path] = (value, grid == "time")
        elif grid is not None:  # a weight list: labels beside function specs
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    specs[f"{path}[{i}]"] = (item, grid == "time")
    return specs


def run_scenario(config: ExperimentConfig) -> int:
    """Run one scenario; write artifacts and a manifest; return exit code.

    Errors are reported as a structured JSON document on stderr (and in
    error.json under the output directory when it exists) rather than a
    traceback. The scenario runs on one BLAS thread, so its bytes do not
    depend on the caller's thread count, which is restored on return. A
    colflux process already loads OpenBLAS at one thread (this module's
    NumPy import), so the pin acts where NumPy was imported first: in the
    tests and for library callers.
    """
    out = Path(config.out_dir)
    threads = _flapack.blas_threads()
    try:
        _flapack.set_blas_threads(1)
        out.mkdir(parents=True, exist_ok=True)
        for name in ("manifest.json", "error.json"):  # only this run's verdict stays
            (out / name).unlink(missing_ok=True)
        try:
            ws = _Workspace(config, out)
        except AssumptionError as exc:
            raise ConfigError(str(exc)) from exc
        _SCENARIO_IMPL[config.scenario](ws)
        # the hash identifies the experiment, so the output location (where
        # it lands, not what it is) stays out of the hashed form
        ident = config.canonical()
        del ident["out"]
        canon = json.dumps(ident, sort_keys=True)
        manifest = {
            "blas_threads": _flapack.blas_threads(),
            "config_hash": sha256(canon.encode("utf-8")).hexdigest(),
            "outputs": sorted(ws.written),
            "scenario": config.scenario,
            "seed": config.seed,
            "versions": {
                "colflux": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
        }
        _write_json(out / "manifest.json", manifest)
        return 0
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps errors to codes
        return _report_error(type(exc).__name__, _exit_code_for(exc), str(exc), out)
    finally:
        _flapack.set_blas_threads(threads)


def _report_error(error: str, code: int, message: str, out: Path | None = None) -> int:
    """Write the JSON error report to stderr, and to error.json when ``out``
    is an existing directory; return the exit code."""
    report = {"error": error, "exit_code": code, "message": message}
    sys.stderr.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if out is not None and out.is_dir():
        _write_json(out / "error.json", report)
    return code


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, CapacityError):
        return 4
    if isinstance(exc, NumericalError):
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
        # no output directory exists yet, so no error.json
        return _report_error("ConfigError", 2, str(exc))
    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
