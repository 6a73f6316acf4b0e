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
from .model import CoefficientProfile
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

EPS = np.finfo(float).eps

#: Bisection's absolute tolerance on the tridiagonal scaled to a largest
#: diagonal in [1/2, 1): as far as inverse iteration needs to converge.
BISECTION_TOL = 2.0**12 * EPS


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
    mode_errors : numpy.ndarray
        Each mode's rounding: its residual plus eps times the operator's
        norm, over the gap to its nearest eigenvalue, which bounds the angle
        between the computed and the exact discrete mode (Davis-Kahan). That
        is the size of a smooth nodal error of the surface-one mode. The
        constant mode's is 0: it is set exactly.
    """

    profile: CoefficientProfile
    eigenvalues: np.ndarray
    modes: np.ndarray
    mu_norms: np.ndarray
    mu: np.ndarray
    mode_errors: np.ndarray

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

    Bisection brackets the lowest ``n_modes + 1`` eigenvalues only as
    tightly as inverse iteration needs; each eigenvalue is then its mode's
    Rayleigh quotient in the stiffness form, accurate to |r|^2/gap for the
    mode's residual r (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    The extra mode gives the top kept mode its gap for ``mode_errors``.

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
        itself if LAPACK fails or finds too few eigenvalues, a mode is not
        finite, or a quotient leaves its bisection bracket or its residual
        exceeds the bisection tolerance.
    """
    grid = profile.grid
    count = check_n_modes(grid, n_modes) + 1

    dz = grid.spacing
    mu = profile.mu
    km = profile.k * mu
    face = 0.5 * (km[:-1] + km[1:]) / dz

    # stiffness A (Neumann) and diagonal mass B = trapezoid weights * mu
    a_diag = np.zeros(grid.n)
    a_diag[:-1] += face
    a_diag[1:] += face
    b = grid.weights * mu

    # similarity transform to an ordinary symmetric tridiagonal problem,
    # scaled by a power of two (exact) to a largest diagonal in [1/2, 1)
    sqrt_b = np.sqrt(b)
    d = _nodal(a_diag / b, (grid.n,), "eigenproblem diagonal")
    where = f"largest diagonal {np.abs(d).max():.3e}; lower model.k or grid.nz"
    power = np.frexp(np.abs(d).max())[1]
    d, face = np.ldexp(d, -power), np.ldexp(face, -power)
    e = _nodal(-face / (sqrt_b[:-1] * sqrt_b[1:]), (grid.n - 1,), "eigenproblem band")
    bracket, modes = _eigenpairs(d, e, count, BISECTION_TOL, where)
    if not np.isfinite(modes.sum()):  # NaN modes with info=0; unit columns sum finitely
        raise NumericalError(f"LAPACK dstein gave non-finite modes at {where}")

    # the stiffness rows sum to zero, so the constants are the null space:
    # mode 0 is set to them exactly, and the others made B-orthogonal to it
    modes /= sqrt_b[:, None]
    modes[:, 0] = 1.0
    modes[:, 1:] -= (b @ modes[:, 1:]) / b.sum()
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

    # Rayleigh quotients and residual norms |T v - q v| of the unit vectors
    # v = sqrt(B) p, one column at a time: no n x count temporaries
    mu_norms, vals, residuals = np.empty((3, count))
    for k in range(count):
        p = modes[:, k]
        flux = face * np.diff(p)
        mu_norms[k] = b @ p**2
        vals[k] = flux @ np.diff(p) / mu_norms[k]
        r = vals[k] * b * p
        r[:-1] += flux
        r[1:] -= flux
        residuals[k] = np.linalg.norm(r / sqrt_b) / np.sqrt(mu_norms[k])
    outside = ~(np.abs(vals - bracket) <= BISECTION_TOL)
    loose = ~(residuals <= BISECTION_TOL)
    for bad, value, what in (
        (outside, vals, "Rayleigh quotient {:.6e} lies outside its bisection bracket"),
        (loose, residuals, "residual {:.3e} exceeds the bisection tolerance {:.3e}"),
    ):
        if bad.any():
            k = int(np.argmax(bad))
            what = what.format(*np.ldexp([value[k], BISECTION_TOL], power))
            raise NumericalError(f"mode {k}'s {what} at {where}")

    # each mode's angle bound: its residual and a rounding of the matrix
    # norm, over its distance to the neighbouring eigenvalues
    gaps = np.abs(np.diff(vals))
    rounding = EPS * (d.max() + 2.0 * np.abs(e).max())  # eps times a bound on |T|
    with np.errstate(divide="ignore"):  # a zero gap: the mode is undetermined
        errors = (residuals[1:-1] + rounding) / np.minimum(gaps[:-1], gaps[1:])
    vals = np.ldexp(vals[: count - 1], power)
    modes, mu_norms = modes[:, : count - 1], mu_norms[: count - 1]
    errors = np.concatenate(([0.0], errors))
    for arr in (vals, modes, mu_norms, errors):
        arr.setflags(write=False)
    return EigenSystem(profile, vals, modes, mu_norms, mu, errors)


def _eigenpairs(d, e, count, tol, where):
    """The ``count`` lowest eigenvalues of the symmetric tridiagonal (``d``,
    ``e``), increasing, bisected to within ``tol``, and their unit
    eigenvectors by inverse iteration: ``dstebz``, ``dstein`` and a sort,
    the calls of SciPy's ``eigh_tridiagonal(select="i", tol=tol)``.
    NumericalError, ending in ``where``, if either routine fails."""
    w, iblock, isplit, info = _flapack.dstebz(d, e, count, tol)
    if info != 0 or len(w) < count:
        msg = f"LAPACK dstebz failed with info={info}, {len(w)} of {count} eigenvalues"
        raise NumericalError(f"{msg} found at {where}")
    vecs, info = _flapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        msg = f"LAPACK dstein failed with info={info}: eigenvectors did not converge"
        raise NumericalError(f"{msg} at {where}")
    order = np.argsort(w)  # ordered within each block the matrix splits into
    if (order != np.arange(count)).any():  # split: a sorted copy
        w, vecs = w[order], vecs[:, order]
    return w, vecs


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
