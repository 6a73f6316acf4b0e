"""Uniform grids, trapezoid quadrature, exponentially weighted integrals,
tridiagonal solves, and the one CSV formatter every artifact goes through.

Everything downstream (time stepping, eigensolves, covariance updates)
reduces to the kernels in this module, so they are kept pure,
allocation-light, and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack

from .errors import SingularSystemError

__all__ = [
    "ColumnGrid",
    "TimeGrid",
    "trapezoid",
    "cumulative_trapezoid",
    "exp_inner",
    "exp_inner_coefficients",
    "factor_tridiagonal",
]

# lambda * dt below this uses the Taylor branch of the segment integrals;
# at the switch point both branches agree to better than rel. 1e-9.
SERIES_CUTOFF = 1e-6

# A time within this fraction of t_end of a node is that node.
NODE_RTOL = 1e-9

# Cells per block of a CSV write (341 rows of three columns): one block's
# text is all the formatter holds, whatever the file's size. Three times
# as many raised the peak RSS of a 16385-row `blind` run by about 0.15 MB.
_CSV_BLOCK_CELLS = 1024


def _frozen(values, shape: tuple | None = None, name: str = "array") -> np.ndarray:
    """``values`` as a read-only float64 C-contiguous array.

    No copy is made when ``values`` already is one, so the caller's array
    becomes read-only. With ``shape``, the array must have that shape and
    finite entries; the ValueError names the array.
    """
    out = np.ascontiguousarray(values, dtype=float)
    if shape is not None:
        if out.shape != shape:
            msg = f"{name} needs nodal values of shape {shape}, got shape {out.shape}"
            raise ValueError(msg)
        if not np.isfinite(out).all():
            raise ValueError(f"{name} values must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ColumnGrid:
    """Uniform vertical grid on the column [0, h].

    Nodes run from 0 (surface) to h (column top), inclusive, with at least
    three nodes. Spacing is h / (n - 1) by construction, which keeps the
    conservative stencils exact.

    Parameters
    ----------
    h : float
        Column height, strictly positive.
    n : int
        Node count, at least 3.
    """

    h: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h <= 0.0:
            msg = f"column height must be finite and positive, got {self.h}"
            raise ValueError(msg)
        if int(self.n) != self.n or self.n < 3:
            msg = f"column grid needs at least 3 nodes, got {self.n}"
            raise ValueError(msg)

    @property
    def spacing(self) -> float:
        return self.h / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.h, self.n))

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights (half spacing at both ends)."""
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return _frozen(w)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_end] with at least two nodes."""

    t_end: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end <= 0.0:
            msg = f"t_end must be finite and positive, got {self.t_end}"
            raise ValueError(msg)
        if int(self.n) != self.n or self.n < 2:
            msg = f"time grid needs at least 2 nodes, got {self.n}"
            raise ValueError(msg)

    @property
    def spacing(self) -> float:
        return self.t_end / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.t_end, self.n))

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return _frozen(w)

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t``, or ValueError if ``t`` is off-grid."""
        j = int(round(t / self.spacing))
        if j < 0 or j >= self.n or abs(t - j * self.spacing) > NODE_RTOL * self.t_end:
            msg = f"t={t} is not a node of the time grid (dt={self.spacing})"
            raise ValueError(msg)
        return j


def trapezoid(values, grid, axis: int = -1):
    """Trapezoid-rule integral of nodal values over a grid.

    Linear in ``values`` and exact for piecewise-linear integrands.

    Parameters
    ----------
    values : array_like
        Nodal samples; the length along ``axis`` must equal ``grid.n``.
    grid : ColumnGrid or TimeGrid
    axis : int, optional
        Axis of ``values`` running over the grid nodes (default last).

    Returns
    -------
    float or numpy.ndarray
        The integral, scalar for 1-D input.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[axis] != grid.n:
        msg = (
            f"values have {values.shape[axis]} entries along axis {axis}, "
            f"but the grid has {grid.n} nodes"
        )
        raise ValueError(msg)
    out = np.tensordot(values, grid.weights, axes=([axis], [0]))
    return float(out) if np.ndim(out) == 0 else out


def cumulative_trapezoid(values, dx: float) -> np.ndarray:
    """Running trapezoid integral of uniformly spaced samples, from 0.

    Entry j is the trapezoid-rule integral over the first j intervals, so
    the result has the length of ``values`` and starts at exactly 0. Same
    arithmetic as SciPy's ``cumulative_trapezoid(values, dx=dx, initial=0)``.
    """
    y = np.asarray(values, dtype=float)
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def _segment_shape_factors(x):
    # Per-segment factors for int_0^1 (g0 + (g1-g0) s) e^{x (s-1)} ds, written
    # as g0*phi + (g1-g0)*psi with phi = (1-e^{-x})/x, psi = (x-1+e^{-x})/x^2.
    # For x below the cutoff the closed forms cancel catastrophically, so a
    # 3-term Taylor expansion is used instead. Scalar in, scalar out; arrays
    # are handled elementwise.
    x = np.asarray(x, dtype=float)
    small = x < SERIES_CUTOFF
    xs = np.where(small, x, 1.0)
    phi_s = 1.0 - xs / 2.0 + xs * xs / 6.0
    psi_s = 0.5 - xs / 6.0 + xs * xs / 24.0
    xl = np.where(small, 1.0, x)
    em = -np.expm1(-xl)  # 1 - e^{-x}, stable for small and large x
    phi_l = em / xl
    psi_l = (xl - em) / (xl * xl)
    phi = np.where(small, phi_s, phi_l)
    psi = np.where(small, psi_s, psi_l)
    if phi.ndim == 0:
        return float(phi), float(psi)
    return phi, psi


def exp_inner(values, grid: TimeGrid, lam: float, t_obs: float) -> float:
    """Integral of a piecewise-linear signal against a decaying exponential.

    Computes ``int_0^t_obs g(s) exp(lam (s - t_obs)) ds`` where ``g`` is the
    piecewise-linear interpolant of ``values`` on ``grid``. Each segment is
    integrated in closed form, so there is no quadrature error; only the
    interpolation of ``g`` itself is an approximation.

    Parameters
    ----------
    values : array_like
        Nodal samples of g on the full grid.
    grid : TimeGrid
    lam : float
        Decay rate, must be nonnegative.
    t_obs : float
        Upper integration limit; must coincide with a grid node.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``t_obs`` is off-grid, ``lam`` is negative, or lengths mismatch.
    """
    g = np.asarray(values, dtype=float)
    if g.shape != (grid.n,):
        msg = f"expected {grid.n} nodal values, got shape {g.shape}"
        raise ValueError(msg)
    if not np.isfinite(lam) or lam < 0.0:
        msg = f"decay rate must be finite and nonnegative, got {lam}"
        raise ValueError(msg)
    j = grid.index_of(t_obs)
    if j == 0:
        return 0.0
    dt = grid.spacing
    x = lam * dt
    phi, psi = _segment_shape_factors(x)
    g0 = g[:j]
    g1 = g[1 : j + 1]
    # e^{lam (t_{i+1} - t_obs)} for segments i = 0 .. j-1; exact integer
    # exponent spacing avoids cancellation, underflow to 0 is harmless.
    decay = np.exp(x * np.arange(1 - j, 1, dtype=float))
    return dt * float(np.dot(decay, g0 * phi + (g1 - g0) * psi))


def exp_inner_coefficients(grid: TimeGrid, lam: float, t_obs: float) -> np.ndarray:
    """Nodal coefficient vector of the exp_inner functional.

    Returns ``c`` with ``exp_inner(g, grid, lam, t_obs) == c @ g`` for every
    nodal vector ``g``; entries beyond ``t_obs`` are zero. Used where the
    functional itself (not just its value) is needed, e.g. to orthogonalize
    against exponentials exactly.
    """
    j = grid.index_of(t_obs)
    if not np.isfinite(lam) or lam < 0.0:
        msg = f"decay rate must be finite and nonnegative, got {lam}"
        raise ValueError(msg)
    c = np.zeros(grid.n)
    if j == 0:
        return c
    dt = grid.spacing
    x = lam * dt
    phi, psi = _segment_shape_factors(x)
    decay = np.exp(x * np.arange(1 - j, 1, dtype=float))
    c[:j] += dt * decay * (phi - psi)
    c[1 : j + 1] += dt * decay * psi
    return c


def factor_tridiagonal(lower, diag, upper):
    """Factor a tridiagonal matrix once and return a solver for it.

    LU with partial pivoting (LAPACK ``dgttrf``); each call of the returned
    ``solve(rhs)`` is one ``dgttrs`` solve against the stored factors, so a
    sweep that solves the same matrix at every step factors it only once.

    Parameters
    ----------
    lower : array_like, shape (n-1,)
        Subdiagonal of A.
    diag : array_like, shape (n,)
        Main diagonal.
    upper : array_like, shape (n-1,)
        Superdiagonal.

    Returns
    -------
    callable
        ``solve(rhs)`` for ``rhs`` of shape (n,) or (n, k); the solution
        has the shape of ``rhs``.

    Raises
    ------
    SingularSystemError
        If the factorization hits a zero pivot (singular matrix).
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = diag.shape[0]
    if lower.shape != (n - 1,) or upper.shape != (n - 1,):
        msg = (
            f"off-diagonals must have length {n - 1}, "
            f"got {lower.shape[0]} and {upper.shape[0]}"
        )
        raise ValueError(msg)
    # the LAPACK wrappers need n >= 3; decoupled identity rows appended at
    # the end leave the arithmetic on the first n rows unchanged
    pad = max(0, 3 - n)
    if pad:
        diag = np.concatenate((diag, np.ones(pad)))
        lower = np.concatenate((lower, np.zeros(pad)))
        upper = np.concatenate((upper, np.zeros(pad)))
    dl, d, du, du2, ipiv, info = scipy.linalg.lapack.dgttrf(lower, diag, upper)
    if info > 0:
        raise SingularSystemError(f"singular matrix: zero pivot in row {info}")

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != n:
            msg = f"rhs has leading dimension {rhs.shape[0]}, expected {n}"
            raise ValueError(msg)
        b = rhs.reshape(n, -1)
        if pad:
            b = np.concatenate((b, np.zeros((pad, b.shape[1]))))
        x, _ = scipy.linalg.lapack.dgttrs(dl, d, du, du2, ipiv, b)
        return x[:n].reshape(rhs.shape)

    return solve


def _csv_text(column) -> list:
    """One column's CSV cells: the shortest round-trip ``repr`` of each entry.

    Float arrays give floats, integer arrays integers, and a 2-d array one
    comma-joined cell run per row. Anything else is taken as text already.
    """
    if not isinstance(column, np.ndarray):
        return column
    if column.ndim == 2:
        return [",".join(map(repr, row)) for row in column.tolist()]
    return list(map(repr, column.tolist()))


def _write_csv(path, header: str, columns) -> None:
    """Write ``columns`` under ``header`` as CSV, one block of rows at a time.

    ``path`` is a file path or an open text stream. Each column is a 1-d
    array, a 2-d array (several adjacent columns) or a list of cells
    already formatted by :func:`_csv_text`, for a column that several files
    share. All columns have the same number of rows.
    """
    if not hasattr(path, "write"):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            return _write_csv(fh, header, columns)
    width = sum(c.shape[1] if getattr(c, "ndim", 1) == 2 else 1 for c in columns)
    rows = max(1, _CSV_BLOCK_CELLS // max(1, width))
    path.write(header + "\n")
    for start in range(0, len(columns[0]), rows):
        cells = [_csv_text(c[start : start + rows]) for c in columns]
        path.write("\n".join(map(",".join, zip(*cells))))
        path.write("\n")
