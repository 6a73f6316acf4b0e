"""Adjoint Sturm-Liouville eigensystem of the column operator.

The observation side of the model is governed by the weighted eigenproblem

    -(k(z) mu(z) p')' = lambda * mu(z) * p,   p'(0) = p'(h) = 0,

whose modes evolve in time by pure exponential decay e^{-lambda t}. The
discretization mirrors the forward solver: a stiffness matrix with
face-averaged k*mu and the trapezoid/mu weights as the mass matrix, so the
generalized problem is symmetric and the modes come out orthogonal in the
discrete mu-inner product. The constant mode (lambda = 0) carries the
column total.

Modes are gauged so the surface value is exactly 1; weighted norms are
reported alongside so callers can form projections without re-deriving
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NormalizationError, NumericalError
from .model import CoefficientProfile, mu_weight
from .numerics import ColumnGrid, _flapack, _nodal

__all__ = [
    "EigenSystem",
    "MuntzSums",
    "check_n_modes",
    "eigensystem",
    "expand_weight",
    "expansion_residual",
    "muntz_partial_sums",
]

#: Modes above n/RESOLUTION_FACTOR oscillate too fast for the grid to carry.
RESOLUTION_FACTOR = 8

#: Surface values below this, in the unit-sup-norm gauge, cannot be rescaled
#: to the surface-one convention without blowing up.
SURFACE_GAUGE_TOL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Leading modes of the adjoint column operator.

    Attributes
    ----------
    profile : CoefficientProfile
    eigenvalues : numpy.ndarray
        Nonnegative, increasing; the first is the constant mode's 0.
    modes : numpy.ndarray
        Shape (nz, n_modes); column n is the n-th mode, surface value 1.
    mu_norms : numpy.ndarray
        Squared mu-weighted norms of the columns (trapezoid quadrature).
    mu : numpy.ndarray
        Nodal samples of the weight mu = exp(int w/k).
    """

    profile: CoefficientProfile
    eigenvalues: np.ndarray
    modes: np.ndarray
    mu_norms: np.ndarray
    mu: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]


class MuntzSums(NamedTuple):
    """Mode-density diagnostic built from the eigenvalue sequence.

    ``reciprocal_sums[m]`` is sum_{n<=m} 1/(1+lambda_n); its finite limit is
    the obstruction to the decay family spanning everything.
    ``root_sums[m]`` is sum_{1<=n<=m} 1/sqrt(lambda_n), divergent like
    log(m)/sqrt(growth_rate); ``growth_rate`` is the fitted c in
    lambda_n ~ c n^2 and ``limit_estimate`` extrapolates the reciprocal sum
    to n = infinity with the integral tail of the fit.
    """

    reciprocal_sums: np.ndarray
    root_sums: np.ndarray
    growth_rate: float
    limit_estimate: float


def check_n_modes(grid: ColumnGrid, n_modes) -> int:
    """``n_modes`` as an int, or DomainError unless it lies between 1 and an
    eighth of the grid's node count, so every kept mode stays well resolved."""
    n_modes = int(n_modes)
    if n_modes < 1 or n_modes > grid.n // RESOLUTION_FACTOR:
        msg = (
            f"n_modes must be between 1 and n//{RESOLUTION_FACTOR} = "
            f"{grid.n // RESOLUTION_FACTOR} for this grid, got {n_modes}"
        )
        raise DomainError(msg)
    return n_modes


def eigensystem(profile: CoefficientProfile, n_modes: int) -> EigenSystem:
    """Compute the lowest ``n_modes`` modes of the adjoint operator.

    Parameters
    ----------
    profile : CoefficientProfile
    n_modes : int
        How many modes to keep, counting the constant mode; see
        ``check_n_modes``.

    Returns
    -------
    EigenSystem

    Raises
    ------
    DomainError
        If ``n_modes`` is out of range for the grid.
    NumericalError
        NormalizationError if a computed mode (nearly) vanishes at the
        surface, so the surface-one gauge cannot be applied; NumericalError
        itself if LAPACK fails, finds too few eigenvalues or returns non-finite
        modes.
    """
    grid = profile.grid
    n_modes = check_n_modes(grid, n_modes)

    dz = grid.spacing
    mu = mu_weight(profile)
    km = profile.k * mu
    face = 0.5 * (km[:-1] + km[1:]) / dz

    # stiffness A (Neumann) and diagonal mass B = trapezoid weights * mu
    a_diag = np.zeros(grid.n)
    a_diag[:-1] += face
    a_diag[1:] += face
    a_off = -face
    b = grid.weights * mu

    # similarity transform to an ordinary symmetric tridiagonal problem
    sqrt_b = np.sqrt(b)
    d = _nodal(a_diag / b, (grid.n,), "eigenproblem diagonal")
    e = _nodal(a_off / (sqrt_b[:-1] * sqrt_b[1:]), (grid.n - 1,), "eigenproblem band")
    # eigh_tridiagonal(select="i")'s bisection, inverse iteration and sort in
    # one call, which drops the bisection's info: a short count shows it
    m, vals, vecs, info = _flapack.dstevx(d, e, n_modes)
    scale = f"largest diagonal {np.abs(d).max():.3e}; lower model.k or grid.nz"
    if info != 0 or m < n_modes:
        msg = f"LAPACK dstevx failed with info={info}, {m} of {n_modes} eigenvalues"
        raise NumericalError(f"{msg} found at {scale}")
    if not np.isfinite(vecs.sum()):  # NaN modes with info=0; unit columns sum finitely
        raise NumericalError(f"LAPACK dstevx gave non-finite modes at {scale}")

    # the operator is positive semidefinite with an exact null vector: the
    # stiffness rows sum to zero, so constants are annihilated in exact
    # arithmetic and the first eigenvalue is zero up to solver rounding.
    # Pin it, and treat anything beyond backward-error scale as a failure.
    tol = 100.0 * np.finfo(float).eps * max(float(np.abs(d).max()), 1.0)
    if not abs(vals[0]) <= tol:
        msg = f"constant-mode eigenvalue {float(vals[0])} exceeds rounding scale"
        raise NormalizationError(msg)
    vals = np.maximum(vals, 0.0)
    vals[0] = 0.0

    modes = vecs  # formed in place, in LAPACK's output buffer
    modes /= sqrt_b[:, None]
    sup = np.maximum(modes.max(axis=0), -modes.min(axis=0))
    surface = modes[0] / sup
    small = ~(np.abs(surface) >= SURFACE_GAUGE_TOL)
    if small.any():
        idx = int(np.argmax(small))
        msg = (
            f"mode {idx} has surface value {surface[idx]:.3e} of its sup "
            "norm; the surface-one gauge is ill-defined"
        )
        raise NormalizationError(msg)
    modes /= modes[0].copy()

    mu_norms = (grid.weights * mu) @ (modes**2)
    for arr in (vals, modes, mu_norms, mu):
        arr.setflags(write=False)
    return EigenSystem(
        profile=profile, eigenvalues=vals, modes=modes, mu_norms=mu_norms, mu=mu
    )


def _mu_dot(eig: EigenSystem, f, g) -> np.ndarray:
    """Trapezoid mu-inner product; g may have trailing mode columns."""
    w = eig.profile.grid.weights * eig.mu
    return (w * np.asarray(f, dtype=float)) @ np.asarray(g, dtype=float)


def expand_weight(rho, eig: EigenSystem) -> np.ndarray:
    """Coefficients of a nodal weight in the mode basis.

    Orthogonality of the modes in the mu-inner product makes this a plain
    projection: a_n = <rho, p_n>_mu / <p_n, p_n>_mu.
    """
    rho = _nodal(rho, (eig.profile.grid.n,), "weight")
    return _mu_dot(eig, rho, eig.modes) / eig.mu_norms


def expansion_residual(rho, eig: EigenSystem) -> float:
    """Relative mu-norm of the part of ``rho`` outside the kept modes."""
    rho = np.asarray(rho, dtype=float)
    a = expand_weight(rho, eig)
    resid = rho - eig.modes @ a
    denom = _mu_dot(eig, rho, rho)
    if denom == 0.0:
        return 0.0
    return float(np.sqrt(_mu_dot(eig, resid, resid) / denom))


def muntz_partial_sums(eig: EigenSystem) -> MuntzSums:
    """Density diagnostic for the family of modal decay exponentials.

    The reciprocal partial sums converge (quadratic eigenvalue growth), and
    the extrapolated limit quantifies how far the family is from total: a
    finite value certifies that generic time profiles cannot be matched by
    the observable decays alone. The square-root sums grow like
    log(m)/sqrt(growth_rate), confirming the quadratic growth law itself.
    """
    lam = eig.eigenvalues
    m = lam.shape[0]
    if m < 4:
        msg = f"need at least 4 modes for the density diagnostic, got {m}"
        raise DomainError(msg)
    reciprocal = np.cumsum(1.0 / (1.0 + lam))
    roots = np.zeros(m)
    roots[1:] = np.cumsum(1.0 / np.sqrt(lam[1:]))

    # least-squares fit of lambda_n = c n^2 over the upper half of the modes
    n_idx = np.arange(m, dtype=float)
    upper = slice(m // 2, m)
    c = float(
        np.dot(lam[upper], n_idx[upper] ** 2) / np.dot(n_idx[upper] ** 2, n_idx[upper] ** 2)
    )
    sqrt_c = np.sqrt(c)
    tail = (np.pi / 2.0 - np.arctan(sqrt_c * (m - 0.5))) / sqrt_c
    return MuntzSums(
        reciprocal_sums=reciprocal,
        root_sums=roots,
        growth_rate=c,
        limit_estimate=float(reciprocal[-1] + tail),
    )
