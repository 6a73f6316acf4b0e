"""Weighting functions, the scalar observation operator, and synthetic data.

An observation is a weighted vertical average u = int rho(z) q(z, t_i) dz
taken at a time node, optionally corrupted by Gaussian noise of standard
deviation r_i. The adjoint of the observation map is multiplication by the
weight, which is what the assimilation sweeps inject backward in time.

Noise generator
---------------
Observation i's noise takes uniforms u0 = 4i and u1 = 4i + 1 of the
Philox4x64-10 stream keyed by the user seed (``numerics._philox_random``):
words 0 and 1 of the block at counter i + 1, that is NumPy's
``Generator(Philox(key=seed, counter=[i, 0, 0, 0])).random(2)``. The cosine
Box-Muller branch turns them into one normal,
xi = sqrt(-2 log(1 - u0)) * cos(2 pi u1). The generator and the map are
spelled out in colflux, so another implementation can reproduce the data
stream bit for bit from (seed, i), and adding an observation never moves
the noise of earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientProfile
from .numerics import ColumnGrid, _frozen, _nodal, _philox_random, _write_csv, trapezoid
from .spectral import EigenSystem
from .transport import FluxSignal, solve_forward

__all__ = [
    "Weight",
    "ObservationSet",
    "add_noise",
    "apply_observation",
    "canonical_weights",
    "synthesize_data",
    "write_observations_csv",
    "write_weight_csv",
]


@dataclass(frozen=True)
class Weight:
    """A vertical weighting function sampled on the column grid.

    The modeling assumption downstream (monotonicity analysis, canonical
    pairs) is that weights are nonnegative; truncated or synthesized
    weights can dip below zero, so that is recorded in ``is_nonnegative``
    rather than rejected here. A weight built from computed modes is
    nonnegative if no value lies below ``-tolerance``, their rounding.

    Parameters
    ----------
    grid : ColumnGrid
    values : numpy.ndarray
    coefficients : numpy.ndarray, optional
        Mode-basis coefficients when the weight was built from (or expanded
        in) an eigensystem.
    label : str
    tolerance : float, optional
        How far the values may lie from the exact ones (default 0).
    """

    grid: ColumnGrid
    values: np.ndarray
    coefficients: np.ndarray | None = None
    label: str = ""
    tolerance: float = 0.0

    def __post_init__(self):
        v = _frozen(self.values, (self.grid.n,), "weight")
        object.__setattr__(self, "values", v)
        if self.coefficients is not None:
            object.__setattr__(self, "coefficients", _frozen(self.coefficients))

    @property
    def is_nonnegative(self) -> bool:
        return bool(self.values.min() >= -self.tolerance)


@dataclass(frozen=True)
class ObservationSet:
    """Scalar observations (t_i, y_i, r_i) with strictly increasing times.

    Noise levels must be strictly positive for assimilation; zeros are
    accepted here so noiseless synthetic studies can round-trip through the
    same container. An empty set is allowed (prior-only estimation).
    """

    times: np.ndarray
    values: np.ndarray
    noise_levels: np.ndarray

    def __post_init__(self):
        fields = ("times", "values", "noise_levels")
        labels = ("observation time", "observed", "noise level")
        shapes = [np.shape(getattr(self, f)) for f in fields]
        if not (len(shapes[0]) == 1 and shapes.count(shapes[0]) == 3):
            msg = (
                "times, values and noise_levels must be 1-d and equally "
                f"long, got {', '.join(map(str, shapes))}"
            )
            raise ValueError(msg)
        t, y, r = (_nodal(getattr(self, f), shapes[0], s) for f, s in zip(fields, labels))
        if not (np.diff(t) > 0).all():
            raise ValueError("observation times must be strictly increasing")
        if t.size and t[0] <= 0:
            raise ValueError("observation times must be positive")
        if (r < 0).any():
            raise ValueError("noise levels must be nonnegative")
        for f, arr in zip(fields, (t, y, r)):
            object.__setattr__(self, f, _frozen(arr))

    def __len__(self) -> int:
        return self.times.size


def apply_observation(weight: Weight, column) -> float:
    """Weighted vertical average: trapezoid of rho * q over the column."""
    column = _nodal(column, (weight.grid.n,), "column")
    return trapezoid(weight.values * column, weight.grid)


def canonical_weights(eig: EigenSystem) -> tuple[Weight, Weight]:
    """The two-mode reference pair rho_plus/rho_minus.

    rho_plus = p0 + p1 concentrates near the surface, rho_minus = p0 - p1
    near the top (it vanishes at the surface). Coefficient vectors (1, 1)
    and (1, -1) ride along. For variable coefficients the first mode can
    dip below the constant mode, making rho_minus negative somewhere; that
    is reported by the weights' ``is_nonnegative`` flag, not raised; the
    flag allows for the two modes' rounding (``EigenSystem.mode_errors``).
    """
    if eig.n_modes < 2:
        msg = f"canonical weights need at least 2 modes, got {eig.n_modes}"
        raise ValueError(msg)
    grid = eig.profile.grid
    pair = []
    for sign, label in ((1.0, "rho_plus"), (-1.0, "rho_minus")):
        coeff = np.zeros(eig.n_modes)
        coeff[:2] = (1.0, sign)
        values = eig.modes[:, 0] + sign * eig.modes[:, 1]
        pair.append(Weight(grid, values, coeff, label, float(eig.mode_errors[:2].sum())))
    return tuple(pair)


def _standard_normals(seed: int, count: int) -> np.ndarray:
    """The N(0,1) draws of observations 0, ..., ``count - 1``: uniforms 4i
    and 4i + 1 of key ``seed`` through Box-Muller (cosine branch). See the
    module docstring."""
    u = _philox_random(seed, 4 * count)
    return np.sqrt(-2.0 * np.log1p(-u[0::4])) * np.cos(2.0 * np.pi * u[1::4])


def add_noise(clean, noise_levels, seed: int) -> np.ndarray:
    """``clean[i] + noise_levels[i] * xi_i`` for the (seed, i) draw xi_i;
    an observation with zero noise level stays clean."""
    clean, r = np.asarray(clean, dtype=float), np.asarray(noise_levels, dtype=float)
    return np.where(r == 0.0, clean, clean + r * _standard_normals(seed, clean.size))


def synthesize_data(
    profile: CoefficientProfile,
    true_flux: FluxSignal,
    q0,
    weights,
    times,
    noise_levels,
    seed: int,
) -> ObservationSet:
    """Generate observations of the forward solution driven by a known flux.

    Parameters
    ----------
    profile : CoefficientProfile
    true_flux : FluxSignal
        The flux generating the data.
    q0 : array_like
        Initial condition.
    weights : sequence of Weight
        One per observation time.
    times : array_like
        Strictly increasing observation times; each must be a node of the
        flux's time grid (the solver is never interpolated in time).
    noise_levels : array_like
        Standard deviations r_i >= 0 of the added Gaussian noise.
    seed : int
        Keys the counter-based generator; a fixed seed reproduces the exact
        byte stream of the serialized set.

    Returns
    -------
    ObservationSet
    """
    times = np.asarray(times, dtype=float)
    noise_levels = np.asarray(noise_levels, dtype=float)
    weights = list(weights)
    if not (len(weights) == times.size == noise_levels.size):
        msg = (
            f"got {len(weights)} weights, {times.size} times, "
            f"{noise_levels.size} noise levels; all must match"
        )
        raise ValueError(msg)
    indices = [true_flux.grid.index_of(t) for t in times]
    states = solve_forward(profile, true_flux, q0, nodes=indices)
    clean = [apply_observation(w, states[:, i]) for i, w in enumerate(weights)]
    y = add_noise(clean, noise_levels, seed)
    return ObservationSet(times=times, values=y, noise_levels=noise_levels)


def write_observations_csv(obs: ObservationSet, path) -> None:
    """Write observations as CSV with columns t, y, r to a path or text stream."""
    _write_csv(path, "t,y,r", (obs.times, obs.values, obs.noise_levels))


def write_weight_csv(weight: Weight, path) -> None:
    """Write a weight as CSV with columns z, rho."""
    _write_csv(path, "z,rho", (weight.grid.nodes, weight.values))
