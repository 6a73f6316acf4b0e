"""The nodal-function conventions: one uniform grid body, the one check of
nodal inputs, trapezoid quadrature and the one exponential-segment kernel;
plus tridiagonal solves and the one CSV formatter every artifact goes through.

Everything downstream (time stepping, eigensolves, covariance updates)
reduces to the kernels in this module, so they are kept pure,
allocation-light, and safe to call concurrently.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

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


# LAPACK routine r in the ILP64 OpenBLAS of NumPy 2 and of NumPy 1 wheels
_NAMES = ("scipy_{}_64_", "{}_64_")
# Each routine's arguments before ``info``: c a character, i an integer, d a
# double, D and I arrays of doubles and integers, passed as they are (so the
# routine can write into them) where of that type and in Fortran order.
_SIGNATURES = {
    "dpotrf": "ciDi", "dpotri": "ciDi", "dpotrs": "ciiDiDi", "dpttrf": "iDD", "dpttrs": "iiDDDi",
    "dstevx": "cciDDddiidIDDiDII",
}
_CONVERT = {
    "c": lambda a: a,
    "i": lambda a: ctypes.byref(ctypes.c_int64(a)),
    "d": lambda a: ctypes.byref(ctypes.c_double(a)),
    "D": lambda a: np.require(a, float, "F").ctypes.data_as(ctypes.c_void_p),
    "I": lambda a: np.require(a, np.int64, "F").ctypes.data_as(ctypes.c_void_p),
}


class _Lapack:
    """LAPACK from the library NumPy links (``dlsym`` on its ``_umath_linalg``
    extension searches it). The Cholesky routines take ``scipy.linalg.lapack``'s
    argument order and the lower triangle; ``dpotrf`` and ``dpotri`` work in
    place on a float Fortran-order array. ``factor_tridiagonal`` binds
    ``dpttrf`` and ``dpttrs`` itself."""

    def __init__(self, path=_umath_linalg.__file__):
        lib = ctypes.CDLL(path)
        for name in _NAMES:  # the first naming the library uses
            self._fn = {r: getattr(lib, name.format(r), None) for r in _SIGNATURES}
            if any(self._fn.values()):
                break
        missing = [r for r, fn in self._fn.items() if fn is None]
        if missing:
            raise ImportError(f"LAPACK routines {missing} not found in {path}")
        for fn in self._fn.values():
            fn.restype = None  # subroutines: ``info`` comes back through its pointer
        # OpenBLAS's thread count; None from another LAPACK
        self.blas_threads = getattr(lib, name.format("openblas_get_num_threads"), lambda: None)

    def _bind(self, routine, *args):
        """A call of ``routine`` on ``args``, converted once, that returns ``info``.
        No ``argtypes``: ctypes would check each argument again on every call,
        1.7 us (15%) of a sweep's step at nz = 1001 on an x86-64 Xeon."""
        kinds, fn, info = _SIGNATURES[routine], self._fn[routine], ctypes.c_int64()
        refs = [_CONVERT[k](a) for k, a in zip(kinds, args, strict=True)]
        refs += [ctypes.byref(info)] + [ctypes.c_size_t(1)] * kinds.count("c")
        return lambda: fn(*refs) or info.value

    def dpotrf(self, a):
        c = np.asfortranarray(a, float)
        return c, self._bind("dpotrf", b"L", len(c), c, max(len(c), 1))()

    def dpotri(self, c):
        c = np.asfortranarray(c, float)
        return c, self._bind("dpotri", b"L", len(c), c, max(len(c), 1))()

    def dpotrs(self, c, b):
        x, n = np.array(b, float, order="F"), max(len(c), 1)
        return x, self._bind("dpotrs", b"L", len(c), x.size // n, c, n, x, n)()

    def dstevx(self, d, e, n_modes):
        """The ``n_modes`` smallest eigenvalues of the symmetric tridiagonal
        (``d``, ``e``), increasing, with unit eigenvectors: bisection to full
        accuracy, inverse iteration and a sort, on copies of ``d`` and ``e``
        (LAPACK may scale them). Returns the count found too."""
        n, m = len(d), np.zeros(1, np.int64)
        w, z, work = np.empty(n), np.empty((n, n_modes), order="F"), np.empty(5 * n)
        iwork, ifail = np.empty(5 * n, np.int64), np.empty(n, np.int64)
        d, e = np.array(d, float), np.array(e, float)
        args = (n, d, e, 0.0, 0.0, 1, n_modes, 0.0, m, w, z, max(n, 1), work, iwork, ifail)
        info = self._bind("dstevx", b"V", b"I", *args)()
        return int(m[0]), w[: m[0]], z[:, : m[0]], info


_flapack = _Lapack()


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
        has the shape of ``rhs``. ``solve.in_place(b)`` is a call, built once,
        that overwrites the Fortran-order float array ``b`` of shape (n,) or
        (n, k) with A^-1 b.

    Raises
    ------
    SingularSystemError
        If the matrix is not positive definite.
    """
    d, e = np.array(diag, dtype=float), np.array(off, dtype=float)
    n = d.shape[0]
    if e.shape != (n - 1,):
        msg = f"off-diagonal must have length {n - 1}, got {e.shape[0]}"
        raise ValueError(msg)
    info = _flapack._bind("dpttrf", n, d, e)()  # d and e become the LDL^T factors
    if info > 0:
        msg = f"matrix is not positive definite: leading minor {info} is not positive"
        raise SingularSystemError(msg)

    def solve(rhs):
        x = np.array(rhs, dtype=float, order="F")
        in_place(x)()
        return x

    def in_place(b):  # LAPACK writes through b's address: it must be the array itself
        if b.shape[:1] != (n,) or b.dtype != float or not b.flags.f_contiguous:
            msg = f"rhs needs leading dimension {n}, float entries and Fortran order"
            raise ValueError(f"{msg}; got shape {b.shape} of {b.dtype}")
        return _flapack._bind("dpttrs", n, b.size // n, d, e, b, n)

    solve.in_place = in_place
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
