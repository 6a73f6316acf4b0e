"""Coefficient profiles of the column model and their admissibility checks.

A profile carries the diffusion coefficient k(z) and vertical velocity w(z)
sampled on a column grid, and the discrete column operator's arrays that
transport and spectral read, formed once: face coefficients kf = (k_j +
k_{j+1}) / (2 dz) and wf = (w_j + w_{j+1}) / 4, the scale d[0] = 1, d[j+1] =
d[j] sqrt((kf + wf) / (kf - wf)) that makes the transport step symmetric, and
the eigenproblem's weight mu = exp(int w/k). Its constructor checks four
standing assumptions:

* A1, smoothness: k and w are finite, and their second divided differences
  (the sampled proxy for twice-differentiability) are bounded.
* A2, ellipticity: k is strictly positive (its minimum is ``epsilon``), and
  k / dz and k / dz**2 at every face have squares that are normal doubles.
* A3, closed boundaries: w vanishes at the surface and at the column top.
* A4, resolved advection: every cell Peclet number P = |w| dz / (2 k) is
  below 1; d and 1 / d are finite, and mu, k mu, k mu / dz and the mass
  weights times mu are finite, nonzero doubles, all as formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError
from .numerics import ColumnGrid, _frozen, _normal_square, cumulative_trapezoid

__all__ = ["CoefficientProfile"]

#: Bound on second divided differences used as the A1 proxy.
SMOOTHNESS_BOUND = 1e6

#: Absolute tolerance (scaled by max(1, |w|_inf)) for the A3 boundary check.
BOUNDARY_W_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientProfile:
    """Diffusion/velocity profile on a column grid, checked against A1-A4.

    ``k`` and ``w`` take one sample per grid node. They are stored as
    read-only float arrays, and so are ``kf``, ``wf``, ``d`` and ``mu``
    (see the module docstring).

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
        # the arrays the solvers read; an overflow gives inf or NaN, which
        # fails its check below without a warning
        with np.errstate(all="ignore"):
            kf = 0.5 * (k[:-1] + k[1:]) / dz
            wf = 0.25 * (w[:-1] + w[1:])
            faces = (kf, kf / dz)
            peclet = wf / kf
            d = np.cumprod(np.append(1.0, np.sqrt((kf + wf) / (kf - wf))))
            scales = (d, 1.0 / d)
            log_mu = cumulative_trapezoid(w / k, dz)
            mu = np.exp(log_mu)
            weighted = (mu, k * mu, k * mu / dz, self.grid.weights * mu)
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
        if not all(np.isfinite(x).all() for x in scales):
            raise AssumptionError("A4", "the symmetrizing scaling leaves the double range")
        lo, hi = np.finfo(float).tiny, np.finfo(float).max / 2.0  # room for a face sum
        if not all(((x >= lo) & (x < hi)).all() for x in weighted):
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
        self.__dict__.update(kf=_frozen(kf), wf=_frozen(wf), d=_frozen(d), mu=_frozen(mu))

