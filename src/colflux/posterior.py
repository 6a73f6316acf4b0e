"""Information geometry of the observations: gain directions, the low-rank
posterior precision update, monotonicity diagnostics, and blind directions.

A single scalar observation at time t_i with weight rho updates the flux
posterior only along one time-domain function, the gain direction

    G_i(t) = k(0) r_i^{-1} * sum_n a_n e^{lambda_n (t - t_i)}   for t <= t_i,
    G_i(t) = 0                                                  for t >  t_i,

where a_n are the weight's mode coefficients. The posterior precision is
the prior precision plus the rank-N sum of these directions. Everything
here is built from a truncated mode set; the blind direction's constraints
against each mode's exponential use closed forms (the jump at t_i is never
integrated by raw quadrature), while the rank-one updates of the discrete
posterior use the same trapezoid weights as the prior discretization,
keeping the two dense and low-rank routes comparable at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assimilate import PriorSpec, prior_apply_inverse, prior_quadratic_form
from .errors import ConditioningError, DegenerateSeedError, DomainError
from .model import CoefficientProfile
from .numerics import (
    TimeGrid,
    _frozen,
    _nodal,
    _segment_shape_factors,
    exp_inner_coefficients,
    trapezoid,
)
from .observe import Weight
from .spectral import EigenSystem, expand_weight

__all__ = [
    "GainDirection",
    "PosteriorModel",
    "GainAnalysis",
    "gain_direction",
    "quadratic_form",
    "precision_apply",
    "analyze_gain",
    "monotone_weight_check",
    "blind_direction",
]

#: Orthogonalizing more exponentials than this is numerically meaningless
#: (the family's Gram matrix is beyond double-precision rank).
BLIND_MAX_MODES = 40

#: Fastest decay the time grid is trusted to resolve: lambda * dt <= 20.
BLIND_RESOLUTION = 20.0

#: Monotonicity tolerance on successive differences, relative to sup norm.
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class GainDirection:
    """One observation's gain direction, sampled on the time grid.

    ``values[j]`` is G(t_j) for t_j < t_obs, the one-sided limit of the
    truncated series at t_j = t_obs, and 0 after. ``prefactor`` is
    k(0)/r. ``truncation_envelope`` is e^{lambda_last (t - t_obs)} on the
    support: multiplied by the l1 mass of the dropped coefficients it
    bounds the pointwise truncation error, and it shows where the
    truncated values can be trusted (everywhere but a boundary layer
    below t_obs).
    """

    grid: TimeGrid
    values: np.ndarray
    t_obs: float
    coefficients: np.ndarray
    lambdas: np.ndarray
    prefactor: float
    truncation_envelope: np.ndarray

    def __post_init__(self):
        for name in ("values", "coefficients", "lambdas", "truncation_envelope"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


class GainAnalysis(NamedTuple):
    mean_projection: float
    monotone: str  # "increasing" | "decreasing" | "neither"


@dataclass(frozen=True)
class PosteriorModel:
    """Prior spec plus the gain directions of the observation set."""

    prior: PriorSpec
    gains: tuple

    def __post_init__(self):
        gains = tuple(self.gains)
        object.__setattr__(self, "gains", gains)
        for g in gains:
            if g.grid != self.prior.grid:
                raise ValueError("all gain directions must share the prior's time grid")


# The last decay matrix built, under its key: blind's weights all share one
# observation time, and the matrix does not depend on the weight.
_decay_slot = {}


def _decay_matrix(grid: TimeGrid, idx: int, lam: np.ndarray) -> np.ndarray:
    """E[j, n] = exp(lam_n (t_j - t_idx)) for j <= idx, kept for the next call."""
    key = (grid, idx, lam.tobytes())
    matrix = _decay_slot.get(key)
    if matrix is None:
        _decay_slot.clear()  # never hold two matrices at once
        t = grid.nodes
        matrix = np.outer(t[: idx + 1] - t[idx], lam)
        np.exp(matrix, out=matrix)
        matrix.setflags(write=False)
        _decay_slot[key] = matrix
    return matrix


def gain_direction(
    eig: EigenSystem, a, t_obs: float, r: float, grid: TimeGrid
) -> GainDirection:
    """Build the gain direction for one observation.

    Parameters
    ----------
    eig : EigenSystem
    a : array_like
        Mode coefficients of the observation weight (from expand_weight);
        at most eig.n_modes entries.
    t_obs : float
        Observation time; must be a node of ``grid``.
    r : float
        Noise standard deviation, positive.
    grid : TimeGrid

    Returns
    -------
    GainDirection

    Notes
    -----
    Weights are never normalized anywhere in the pipeline, and the gain is
    linear in them: rescaling the weight by c rescales ``a`` and hence the
    whole direction by c. The k(0)/r prefactor is likewise always part of
    the returned values; the tidy closed form 1 +- exp(lam_1 (t - T)) for
    the canonical two-mode pair holds only when k(0) = r = 1, and every
    derived quantity (means, gaps, projections) scales with k(0)/r too.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        msg = f"need a nonempty 1-d coefficient vector, got shape {a.shape}"
        raise ValueError(msg)
    if a.size > eig.n_modes:
        msg = f"{a.size} coefficients for {eig.n_modes} modes"
        raise ValueError(msg)
    if not (np.isfinite(r) and r > 0):
        msg = f"noise level must be positive, got {r!r}"
        raise ValueError(msg)
    idx = grid.index_of(t_obs)
    lam = eig.eigenvalues[: a.size]
    k0 = eig.profile.k[0]
    pref = k0 / r

    t = grid.nodes
    values = np.zeros(grid.n)
    sup = t[: idx + 1] - t[idx]
    values[: idx + 1] = pref * (_decay_matrix(grid, idx, lam) @ a)
    envelope = np.zeros(grid.n)
    envelope[: idx + 1] = np.exp(lam[-1] * sup)
    return GainDirection(
        grid=grid,
        values=values,
        t_obs=float(t[idx]),
        coefficients=a.copy(),
        lambdas=lam.copy(),
        prefactor=float(pref),
        truncation_envelope=envelope,
    )


def quadratic_form(model: PosteriorModel, g) -> float:
    """Posterior precision form: prior form plus the information gains.

    Returns <g, C0^{-1} g> + sum_i <g, G_i>^2, the rank-one terms taken in
    the same trapezoid inner product as the prior discretization. Never
    below the prior form alone.
    """
    g = np.asarray(g, dtype=float)
    total = prior_quadratic_form(model.prior, g)
    for gain in model.gains:
        total += trapezoid(g * gain.values, gain.grid) ** 2
    return float(total)


def precision_apply(model: PosteriorModel, g) -> np.ndarray:
    """Apply the posterior precision: C0^{-1} g + sum_i <g, G_i> G_i."""
    g = np.asarray(g, dtype=float)
    out = prior_apply_inverse(model.prior, g)
    for gain in model.gains:
        out = out + trapezoid(g * gain.values, gain.grid) * gain.values
    return out


def analyze_gain(gain: GainDirection) -> GainAnalysis:
    """Mean projection and monotonicity classification of a gain direction.

    The mean projection int_0^{t_obs} G dt is evaluated per mode in closed
    form. Monotonicity looks at successive differences over the support
    with tolerance 1e-9 times the sup norm; a flat direction (differences
    zero both ways) reports "neither", since no strict trend exists.
    """
    x = gain.lambdas * gain.t_obs
    phi, _ = _segment_shape_factors(np.atleast_1d(x))
    mean = gain.prefactor * gain.t_obs * float(np.dot(gain.coefficients, phi))

    idx = gain.grid.index_of(gain.t_obs)
    nondecreasing, nonincreasing = _trend(gain.values[: idx + 1], 0.0)
    if nondecreasing and not nonincreasing:
        verdict = "increasing"
    elif nonincreasing and not nondecreasing:
        verdict = "decreasing"
    else:
        verdict = "neither"
    return GainAnalysis(mean_projection=mean, monotone=verdict)


def _trend(values: np.ndarray, floor: float) -> tuple[bool, bool]:
    """Whether ``values`` never falls, and whether it never rises, allowing
    each step MONOTONE_TOL * max(max |values|, floor) the wrong way."""
    tol = MONOTONE_TOL * max(float(np.abs(values).max(initial=0.0)), floor)
    d = np.diff(values)
    return bool((d >= -tol).all()), bool((d <= tol).all())


#: Time resolution used to classify gain monotonicity from a weight alone.
_CHECK_NODES = 1025


def monotone_weight_check(
    profile: CoefficientProfile, eig: EigenSystem, rho: Weight, t_obs: float
) -> bool:
    """Check that a monotone weight yields a counter-monotone gain.

    An increasing weight must produce a gain direction that is
    nonincreasing in time, and vice versa; a constant weight (monotone in
    both senses) passes either way. The gain is sampled on an internal
    1025-node grid over [0, t_obs]. Both trends are read as in
    :func:`analyze_gain`, with the tolerance's scale at least 1.

    Raises
    ------
    ValueError
        If the weight is not monotone on its grid.
    """
    if rho.grid != profile.grid:
        raise ValueError("weight and profile grids differ")
    v = rho.values
    w_inc, w_dec = _trend(v, 1.0)
    if not (w_inc or w_dec):
        raise ValueError("weight is not monotone on the grid")

    a = expand_weight(v, eig)
    tgrid = TimeGrid(t_end=float(t_obs), n=_CHECK_NODES)
    gain = gain_direction(eig, a, float(t_obs), 1.0, tgrid)
    g_inc, g_dec = _trend(gain.values, 1.0)
    return (g_dec or not w_inc) and (g_inc or not w_dec)


def _blind_constraints(eig, t_obs, m, grid):
    """Yield, one by one, the 2m constraint functions a blind direction annihilates.

    For each retained decay rate there are two functionals of a nodal
    function G supported on [0, t_obs]: the trapezoid pairing with the
    nodal exponential (what the discrete rank-one updates use) and the
    exact integral of the piecewise-linear interpolant against the
    exponential (what the continuous theory uses). Each is represented as
    a nodal function whose weighted inner product with G evaluates it.
    """
    idx = grid.index_of(t_obs)
    t = grid.nodes
    for lam in eig.eigenvalues[:m]:
        nodal = np.zeros(grid.n)
        nodal[: idx + 1] = np.exp(lam * (t[: idx + 1] - t[idx]))
        yield nodal
        yield exp_inner_coefficients(grid, lam, t[idx]) / grid.weights


def blind_direction(
    eig: EigenSystem, t_obs: float, m: int, grid: TimeGrid, seed_function
) -> np.ndarray:
    """Construct a flux perturbation invisible to every truncated weight.

    The returned nodal function G is supported on [0, t_obs] and is
    orthogonal (trapezoid pairing and exact piecewise-linear integral
    alike) to every retained decay exponential, hence to the gain
    direction of any weight resolved by the first ``m`` modes: observing
    along such weights gains no information about G. Construction is
    classical Gram-Schmidt in the trapezoid inner product, run twice per
    vector, over the constraint rows as they are generated; near-duplicate
    constraints (the family is Muntz-degenerate by design) are dropped.

    Parameters
    ----------
    eig : EigenSystem
    t_obs : float
        Observation time, a node of ``grid``.
    m : int
        Number of decay rates to blind against; at most eig.n_modes and at
        most 40, with lambda_{m-1} * dt <= 20 so the fastest exponential
        is resolved.
    grid : TimeGrid
    seed_function : callable or array_like
        Evaluated on the grid nodes (or nodal values directly); its
        component outside the exponential span becomes G. No
        normalization is applied.

    Raises
    ------
    DomainError
        If ``m`` is out of range or the grid cannot resolve the fastest
        retained exponential.
    DegenerateSeedError
        If the seed lies in the exponential span (residual below 1e-10 of
        the seed's norm).
    ValueError
        If the seed is not finite, or its squared norm overflows.
    """
    m = int(m)
    if m < 1 or m > eig.n_modes:
        msg = f"m must be between 1 and n_modes = {eig.n_modes}, got {m}"
        raise DomainError(msg)
    if m > BLIND_MAX_MODES:
        msg = (
            f"m = {m} exceeds the conditioning cap {BLIND_MAX_MODES}; the "
            "exponential Gram matrix is numerically rank-deficient beyond it"
        )
        raise DomainError(msg)
    lam_top = float(eig.eigenvalues[min(m, eig.n_modes) - 1])
    if lam_top * grid.spacing > BLIND_RESOLUTION:
        msg = (
            f"time grid too coarse: lambda_{m - 1} * dt = "
            f"{lam_top * grid.spacing:.2f} > {BLIND_RESOLUTION:g}"
        )
        raise DomainError(msg)

    if callable(seed_function):
        seed_function = [float(seed_function(t)) for t in grid.nodes]
    seed = _nodal(seed_function, (grid.n,), "seed")

    idx = grid.index_of(t_obs)
    w = grid.weights
    basis = np.empty((2 * m, grid.n))  # rows past `kept` stay unwritten and unpaged
    kept = 0

    def wdot(x, y):
        return float(np.dot(w * x, y))

    def project_out(v):  # twice is enough (Giraud, Langou and Rozloznik 2005)
        for _ in range(2):
            v -= (basis[:kept] @ (w * v)) @ basis[:kept]

    for f in _blind_constraints(eig, t_obs, m, grid):
        floor = 1e-12 * np.sqrt(max(wdot(f, f), 1e-300))
        project_out(f)
        norm = np.sqrt(wdot(f, f))
        if norm > floor:
            np.divide(f, norm, out=basis[kept])
            kept += 1

    g = seed.copy()
    g[idx + 1 :] = 0.0
    with np.errstate(over="ignore"):  # an infinite norm would pass every check
        seed_norm = np.sqrt(wdot(g, g))
    if not np.isfinite(seed_norm):
        raise ValueError("seed's squared norm overflows")
    project_out(g)
    g[idx + 1 :] = 0.0

    g_norm = np.sqrt(wdot(g, g))
    if g_norm < 1e-10 * max(seed_norm, 1e-300):
        msg = (
            "seed lies in the span of the retained exponentials "
            f"(residual {g_norm:.3e} vs seed norm {seed_norm:.3e})"
        )
        raise DegenerateSeedError(msg)

    # regenerated, so the check does not rest on the basis built from it
    family = _blind_constraints(eig, t_obs, m, grid)
    worst = float(np.max([abs(wdot(f, g)) for f in family]))
    if not worst <= 1e-6 * g_norm:
        msg = (
            f"orthogonalization failed: residual projection {worst:.3e} "
            f"exceeds 1e-6 of the direction norm {g_norm:.3e}"
        )
        raise ConditioningError(msg)
    return g
