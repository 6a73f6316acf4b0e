"""Coefficient profiles of the column model and their admissibility checks.

A profile carries the diffusion coefficient k(z) and vertical velocity w(z)
sampled on a column grid. Its constructor checks four standing assumptions:

* A1, smoothness: k and w are finite, and their second divided differences
  (the sampled proxy for twice-differentiability) are bounded.
* A2, ellipticity: k is strictly positive (its minimum is ``epsilon``), and
  k / dz and k / dz**2 at every face have squares that are normal doubles.
* A3, closed boundaries: w vanishes at the surface and at the column top.
* A4, resolved advection: every cell Peclet number P = |w| dz / (2 k) is
  below 1; prod sqrt((1 + P) / (1 - P)), mu = exp(int w/k), k mu, k mu / dz
  and the mass weights times mu are finite, nonzero doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError
from .numerics import ColumnGrid, _frozen, _normal_square, cumulative_trapezoid

__all__ = ["CoefficientProfile", "mu_weight"]

#: Bound on second divided differences used as the A1 proxy.
SMOOTHNESS_BOUND = 1e6

#: Absolute tolerance (scaled by max(1, |w|_inf)) for the A3 boundary check.
BOUNDARY_W_TOL = 1e-12

#: Logs of the least normal double and of half the largest (room for a face
#: sum): the A4 range of mu, k mu, k mu / dz and the mass weights times mu.
_LOG_RANGE = (np.log(np.finfo(float).tiny), np.log(np.finfo(float).max / 2.0))


@dataclass(frozen=True)
class CoefficientProfile:
    """Diffusion/velocity profile on a column grid, checked against A1-A4.

    ``k`` and ``w`` take one sample per grid node and are stored as
    read-only float arrays.

    Raises
    ------
    ValueError
        If k or w does not have one value per grid node.
    AssumptionError
        Tagged with the first assumption violated, checked in the order A1
        (finiteness), A2, A3, A4, A1 (second divided differences above
        ``SMOOTHNESS_BOUND``); see the module docstring. No check warns: a
        quantity that overflows becomes inf or NaN, which its check rejects.
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
        dz = self.grid.spacing
        # what the solvers form from k, w and dz, with transport's and
        # mu_weight's arithmetic; an overflow gives inf or NaN, which fails
        # its check below without a warning
        with np.errstate(all="ignore"):
            kf = 0.5 * (k[:-1] + k[1:]) / dz
            faces = (kf, kf / dz)
            peclet = 0.25 * (w[:-1] + w[1:]) / kf
            log_mu = cumulative_trapezoid(w / k, dz)
            log_km = np.log(k) + log_mu
            logs = (log_mu, log_km, log_km - np.log(dz), np.log(self.grid.weights) + log_mu)
            second = [np.abs(np.diff(v, n=2)) / dz**2 for v in (k, w)]
        if not all(_normal_square(x) for x in faces):
            spans = [f"[{x.min():.3e}, {x.max():.3e}]" for x in faces]
            msg = f"k / dz at the faces ranges over {spans[0]} and k / dz**2 over {spans[1]}"
            raise AssumptionError(
                "A2", f"{msg}; both must lie in [2**-511, 2**512), where squares are normal"
            )
        wtol = BOUNDARY_W_TOL * max(1.0, float(np.abs(w).max()))
        if abs(w[0]) > wtol or abs(w[-1]) > wtol:
            raise AssumptionError(
                "A3",
                f"w must vanish at both boundaries; w(0)={w[0]}, w(h)={w[-1]}",
            )
        face = int(np.abs(peclet).argmax())
        if not abs(peclet[face]) < 1.0:
            msg = f"cell Peclet number |w| dz / (2 k) is {abs(peclet[face]):.3e} >= 1"
            raise AssumptionError("A4", f"{msg} between nodes {face} and {face + 1}")
        # transport's scaling in log space: 0.5 log((1 + P) / (1 - P)) = arctanh(P)
        if np.abs(np.cumsum(np.arctanh(peclet))).max() >= np.log(np.finfo(float).max):
            raise AssumptionError("A4", "the symmetrizing scaling leaves the double range")
        lo, hi = _LOG_RANGE
        if not all(((x >= lo) & (x < hi)).all() for x in logs):
            msg = f"log mu ranges over [{log_mu.min():.3e}, {log_mu.max():.3e}]"
            raise AssumptionError(
                "A4", f"mu = exp(int w/k), k mu / dz or the mass weights times mu "
                f"leave the double range; {msg}"
            )
        for name, values in zip("kw", second):  # a grid has 3 nodes or more
            if not values.max() <= SMOOTHNESS_BOUND:
                msg = f"second divided difference of {name} is {values.max():.3e} at node"
                bound = f"above the bound {SMOOTHNESS_BOUND:.3e}"
                raise AssumptionError("A1", f"{msg} {values.argmax() + 1}, {bound}")
        object.__setattr__(self, "k", _frozen(k))
        object.__setattr__(self, "w", _frozen(w))
        object.__setattr__(self, "epsilon", kmin)


def mu_weight(profile: CoefficientProfile) -> np.ndarray:
    """Density making the mode operator self-adjoint.

    Returns exp of the cumulative integral of w/k from the surface, so the
    value at z=0 is exactly 1 and the result is strictly positive. For w=0
    the weight is identically 1.
    """
    ratio = profile.w / profile.k
    inner = cumulative_trapezoid(ratio, profile.grid.spacing)
    return np.exp(inner)
