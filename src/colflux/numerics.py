"""The nodal-function conventions: one uniform grid body, the one check of
nodal inputs, trapezoid quadrature and the one exponential-segment kernel;
plus tridiagonal solves and the one CSV formatter every artifact goes through.

Everything downstream (time stepping, eigensolves, covariance updates)
reduces to the kernels in this module, so they are kept pure,
allocation-light, and safe to call concurrently.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from sysconfig import get_config_var

import numpy as np
import scipy

from .errors import SingularSystemError

__all__ = [
    "ColumnGrid",
    "TimeGrid",
    "trapezoid",
    "cumulative_trapezoid",
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


def _load_flapack():
    """SciPy's LAPACK extension, without scipy.linalg's 0.2 s package import."""
    path = Path(scipy.__file__).parent / "linalg" / f"_flapack{get_config_var('EXT_SUFFIX')}"
    module = None
    if path.is_file():
        spec = importlib.util.spec_from_file_location("colflux._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    routines = {"dpotrf", "dpotri", "dpotrs", "dpttrf", "dpttrs", "dstebz", "dstein"}
    missing = sorted(routines - set(dir(module)))
    if missing:
        raise ImportError(f"{missing} not found in {path} (SciPy {scipy.__version__})")
    return module


_flapack = _load_flapack()


def _nodal(values, shape: tuple, name: str) -> np.ndarray:
    """``values`` as a float array of ``shape`` with finite entries.

    The one check of a nodal input; the ValueError names the array.
    """
    out = np.asarray(values, dtype=float)
    if out.shape != shape:
        msg = f"{name} needs nodal values of shape {shape}, got shape {out.shape}"
        raise ValueError(msg)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} values must be finite")
    return out


def _frozen(values, shape: tuple | None = None, name: str = "array") -> np.ndarray:
    """``values`` as a read-only float64 C-contiguous array.

    No copy is made when ``values`` already is one, so the caller's array
    becomes read-only. With ``shape``, the array is checked by
    :func:`_nodal`.
    """
    out = np.ascontiguousarray(values, dtype=float)
    if shape is not None:
        _nodal(out, shape, name)
    out.setflags(write=False)
    return out


def _normal_square(values) -> bool:
    """Whether every value x is positive with a square that is a normal
    double, which holds exactly when 2**-511 <= x < 2**512. Standard
    deviations (prior sigma, noise levels) enter squared; a square that
    underflows or overflows would end the estimate in NaN."""
    x = np.asarray(values, dtype=float)
    return bool(np.all((x >= 2.0**-511) & (x < 2.0**512)))


class _UniformGrid:
    """Uniform nodes on [0, length]: validation, spacing, nodes, trapezoid
    weights. A subclass is a dataclass of the length field named ``_LENGTH``
    and ``n``, with ``_MIN_NODES`` and the ``_WHAT`` of its error messages."""

    def __post_init__(self):
        length = getattr(self, self._LENGTH)
        if not np.isfinite(length) or length <= 0.0:
            msg = f"{self._WHAT[0]} must be finite and positive, got {length}"
            raise ValueError(msg)
        if int(self.n) != self.n or self.n < self._MIN_NODES:
            msg = f"{self._WHAT[1]} needs at least {self._MIN_NODES} nodes, got {self.n}"
            raise ValueError(msg)

    @property
    def spacing(self) -> float:
        return getattr(self, self._LENGTH) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, getattr(self, self._LENGTH), self.n))

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights (half spacing at both ends)."""
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return _frozen(w)


@dataclass(frozen=True)
class ColumnGrid(_UniformGrid):
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

    _LENGTH = "h"
    _MIN_NODES = 3
    _WHAT = ("column height", "column grid")

    h: float
    n: int


@dataclass(frozen=True)
class TimeGrid(_UniformGrid):
    """Uniform time grid on [0, t_end] with at least two nodes."""

    _LENGTH = "t_end"
    _MIN_NODES = 2
    _WHAT = ("t_end", "time grid")

    t_end: float
    n: int

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


def exp_inner_coefficients(grid: TimeGrid, lam: float, t_obs: float) -> np.ndarray:
    """Coefficients ``c`` with ``c @ g == int_0^t_obs g(s) exp(lam (s - t_obs)) ds``
    for the piecewise-linear interpolant of every nodal ``g`` on ``grid``:
    each segment in closed form, so no quadrature error; zero beyond
    ``t_obs``. ValueError if ``t_obs`` is off-grid or ``lam`` negative."""
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


def factor_tridiagonal(diag, off):
    """Factor an SPD tridiagonal matrix once and return a solver for it.

    LDL^T with no pivoting (LAPACK ``dpttrf``); each call of the returned
    ``solve(rhs)`` is one ``dpttrs`` solve against the stored factors, so a
    sweep that solves the same matrix at every step factors it only once.

    Parameters
    ----------
    diag : array_like, shape (n,)
        Main diagonal of A.
    off : array_like, shape (n-1,)
        Sub- and superdiagonal.

    Returns
    -------
    callable
        ``solve(rhs)`` for ``rhs`` of shape (n,) or (n, k); the solution
        has the shape of ``rhs``.

    Raises
    ------
    SingularSystemError
        If the matrix is not positive definite.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.shape[0]
    if off.shape != (n - 1,):
        msg = f"off-diagonal must have length {n - 1}, got {off.shape[0]}"
        raise ValueError(msg)
    # the LAPACK wrapper wants an off-diagonal of length 1 or more
    d, e, info = _flapack.dpttrf(diag, off if n > 1 else np.zeros(1))
    if info > 0:
        msg = f"matrix is not positive definite: leading minor {info} is not positive"
        raise SingularSystemError(msg)

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != n:
            msg = f"rhs has leading dimension {rhs.shape[0]}, expected {n}"
            raise ValueError(msg)
        return _flapack.dpttrs(d, e, rhs)[0]

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
