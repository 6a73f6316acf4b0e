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
One kernel forms every gain in blocks of rows of exp(lambda_n (t_j - t_i)),
up to the last nonzero mode coefficient, so none holds an nt x n_modes
matrix; ``gain_projections`` pairs many weights with one function in one pass.
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
    "BLIND_MAX_MODES",
    "GainDirection",
    "PosteriorModel",
    "GainAnalysis",
    "gain_direction",
    "gain_projections",
    "quadratic_form",
    "precision_apply",
    "analyze_gain",
    "monotone_weight_check",
    "blind_direction",
    "check_blind",
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


#: Rows per block of the gain kernel: 320 KB at 40 modes.
_DECAY_ROWS = 1024


def _decay_column(grid: TimeGrid, idx: int, lam: float) -> np.ndarray:
    """exp(lam (t_j - t_idx)) at the nodes j <= idx, and 0 after."""
    column = np.zeros(grid.n)
    head = np.subtract(grid.nodes[: idx + 1], grid.nodes[idx], out=column[: idx + 1])
    np.exp(np.multiply(head, lam, out=head), out=head)
    return column


def _gain_blocks(eig: EigenSystem, A, t_obs: float, grid: TimeGrid):
    """Yield (rows, E[rows] @ A.T) in row blocks for a k x m coefficient matrix A,
    E[j, n] = exp(lambda_n (t_j - t_obs)) for t_j <= t_obs. As 0 < E <= 1, modes
    past A's last nonzero column (a NaN counts) add exact zeros and are skipped."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not 0 < A.shape[1] <= eig.n_modes:
        msg = f"coefficients of shape {A.shape} are not k x m with 0 < m <= {eig.n_modes} modes"
        raise ValueError(msg)
    A = A[:, : len(np.trim_zeros(A.any(axis=0), "b"))]
    idx, t, lam = grid.index_of(t_obs), grid.nodes, eig.eigenvalues[: A.shape[1]]
    for start in range(0, idx + 1, _DECAY_ROWS):
        rows = slice(start, min(start + _DECAY_ROWS, idx + 1))
        block = np.outer(t[rows] - t[idx], lam)
        yield rows, np.exp(block, out=block) @ A.T
        del block  # so the next block is not allocated beside it


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
    if not (np.isfinite(r) and r > 0):
        msg = f"noise level must be positive, got {r!r}"
        raise ValueError(msg)
    idx = grid.index_of(t_obs)
    pref = eig.profile.k[0] / r

    values = np.zeros(grid.n)
    for rows, gains in _gain_blocks(eig, a[None], t_obs, grid):
        values[rows] = pref * gains[:, 0]
    return GainDirection(
        grid=grid,
        values=values,
        t_obs=float(grid.nodes[idx]),
        coefficients=a.copy(),
        lambdas=eig.eigenvalues[: a.size].copy(),
        prefactor=float(pref),
        truncation_envelope=_decay_column(grid, idx, eig.eigenvalues[a.size - 1]),
    )


def gain_projections(eig: EigenSystem, coefficients, t_obs: float, grid: TimeGrid, g):
    """|<g, G_k>| / (|g| |G_k|) in the trapezoid inner product, for the gain
    direction G_k at ``t_obs`` of each row of ``coefficients``, at any noise
    level. One pass over the decay blocks sums every inner product and
    squared norm, building no G_k whole; a NaN in a row stays in its ratio."""
    g, w = _nodal(g, (grid.n,), "g"), grid.weights
    inner = norm2 = 0.0
    for rows, gains in _gain_blocks(eig, coefficients, t_obs, grid):  # a column per weight
        inner += (w[rows] * g[rows]) @ gains
        norm2 += w[rows] @ gains**2
    return np.abs(inner) / (np.sqrt(trapezoid(g**2, grid)) * np.sqrt(norm2))


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
    phi, _ = _segment_shape_factors(x)
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
    for lam in eig.eigenvalues[:m]:
        yield _decay_column(grid, idx, lam)
        yield exp_inner_coefficients(grid, lam, grid.nodes[idx]) / grid.weights


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
    g, seed_norm = check_blind(eig.n_modes, m, grid, t_obs, seed_function)
    lam_dt = float(eig.eigenvalues[m - 1]) * grid.spacing
    if lam_dt > BLIND_RESOLUTION:
        msg = f"time grid too coarse: lambda_{m - 1} * dt = {lam_dt:.2f} > {BLIND_RESOLUTION:g}"
        raise DomainError(msg)

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


def check_blind(n_modes: int, m: int, grid: TimeGrid, t_obs: float, seed_function):
    """``blind_direction``'s checks that read no eigenvalue, of ``m`` (DomainError) and
    the seed (ValueError); returns the seed, zero past ``t_obs``, and its trapezoid norm."""
    if not 1 <= m <= min(n_modes, BLIND_MAX_MODES):
        msg = f"m must be between 1 and n_modes = {n_modes}, at most the conditioning cap"
        raise DomainError(f"{msg} {BLIND_MAX_MODES}, got {m}")
    if callable(seed_function):
        seed_function = [float(seed_function(t)) for t in grid.nodes]
    g = _nodal(seed_function, (grid.n,), "seed").copy()
    g[grid.index_of(t_obs) + 1 :] = 0.0
    with np.errstate(over="ignore"):  # an infinite norm would pass every check
        seed_norm = np.sqrt(float(np.dot(grid.weights * g, g)))
    if not np.isfinite(seed_norm):
        raise ValueError("seed's squared norm overflows")
    return g, seed_norm
