"""Coefficient profiles of the column model and their admissibility checks.

A profile carries the diffusion coefficient k(z) and vertical velocity w(z)
sampled on a column grid. Four standing assumptions are enforced:

* A1, smoothness: k and w are twice continuously differentiable. On samples
  this is approximated by bounding second divided differences.
* A2, ellipticity: k is strictly positive; the attained minimum is stored
  as ``epsilon``.
* A3, closed boundaries: w vanishes at the surface and at the column top.
* A4, resolved advection: every cell Peclet number P = |w| dz / (2 k) is
  below 1, and prod sqrt((1 + P) / (1 - P)) is a finite, nonzero double.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError
from .numerics import ColumnGrid, cumulative_trapezoid

__all__ = ["CoefficientProfile", "validate_profile", "mu_weight"]

#: Bound on second divided differences used as the A1 proxy.
SMOOTHNESS_BOUND = 1e6

#: Absolute tolerance (scaled by max(1, |w|_inf)) for the A3 boundary check.
BOUNDARY_W_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientProfile:
    """Validated diffusion/velocity profile on a column grid.

    Instances should be built through :func:`validate_profile`; direct
    construction re-checks A2, A3, A4 and finiteness but skips the
    smoothness proxy.
    """

    grid: ColumnGrid
    k: np.ndarray
    w: np.ndarray
    epsilon: float = field(init=False)

    def __post_init__(self):
        k = np.ascontiguousarray(self.k, dtype=float)
        w = np.ascontiguousarray(self.w, dtype=float)
        if k.shape != (self.grid.n,) or w.shape != (self.grid.n,):
            msg = (
                f"profile arrays must have {self.grid.n} nodes, "
                f"got k{k.shape}, w{w.shape}"
            )
            raise ValueError(msg)
        if not (np.isfinite(k).all() and np.isfinite(w).all()):
            raise AssumptionError("A1", "k and w must be finite at every node")
        kmin = float(k.min())
        if kmin <= 0.0:
            node = int(k.argmin())
            raise AssumptionError(
                "A2", f"k must be strictly positive; k={kmin} at node {node}"
            )
        wtol = BOUNDARY_W_TOL * max(1.0, float(np.abs(w).max()))
        if abs(w[0]) > wtol or abs(w[-1]) > wtol:
            raise AssumptionError(
                "A3",
                f"w must vanish at both boundaries; w(0)={w[0]}, w(h)={w[-1]}",
            )
        peclet = (w[:-1] + w[1:]) * self.grid.spacing / (2.0 * (k[:-1] + k[1:]))
        face = int(np.abs(peclet).argmax())
        if not abs(peclet[face]) < 1.0:
            msg = f"cell Peclet number |w| dz / (2 k) is {abs(peclet[face]):.3e} >= 1"
            raise AssumptionError("A4", f"{msg} between nodes {face} and {face + 1}")
        # transport's scaling in log space: 0.5 log((1 + P) / (1 - P)) = arctanh(P)
        if np.abs(np.cumsum(np.arctanh(peclet))).max() >= np.log(np.finfo(float).max):
            raise AssumptionError("A4", "the symmetrizing scaling leaves the double range")
        k.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "epsilon", kmin)


def validate_profile(k, w, grid: ColumnGrid) -> CoefficientProfile:
    """Validate coefficient samples and build a profile.

    The A1 proxy caps the second divided differences of k and w at
    ``SMOOTHNESS_BOUND``: a testable surrogate for twice-differentiability,
    which cannot be decided from samples alone.

    Parameters
    ----------
    k, w : array_like
        Nodal samples of diffusion and velocity, one value per grid node.
    grid : ColumnGrid

    Returns
    -------
    CoefficientProfile
        With ``epsilon`` set to the attained minimum of k.

    Raises
    ------
    AssumptionError
        Tagged "A1" (non-finite data or smoothness proxy violated),
        "A2" (k not strictly positive), "A3" (w nonzero at a boundary), or
        "A4" (a cell Peclet number of 1 or more).
    """
    profile = CoefficientProfile(grid=grid, k=np.asarray(k, float), w=np.asarray(w, float))
    dz2 = grid.spacing**2
    for name, values in (("k", profile.k), ("w", profile.w)):
        second = np.abs(np.diff(values, n=2)) / dz2
        if second.size and float(second.max()) > SMOOTHNESS_BOUND:
            worst = int(second.argmax()) + 1
            raise AssumptionError(
                "A1",
                f"second divided difference of {name} is {second.max():.3e} "
                f"at node {worst}, above the bound {SMOOTHNESS_BOUND:.3e}",
            )
    return profile


def mu_weight(profile: CoefficientProfile) -> np.ndarray:
    """Density making the mode operator self-adjoint.

    Returns exp of the cumulative integral of w/k from the surface, so the
    value at z=0 is exactly 1 and the result is strictly positive. For w=0
    the weight is identically 1.
    """
    ratio = profile.w / profile.k
    inner = cumulative_trapezoid(ratio, profile.grid.spacing)
    return np.exp(inner)
