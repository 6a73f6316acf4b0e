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


# Philox4x64-10 (Salmon et al., SC 2011): the multipliers of counter words 0
# and 2, their 32-bit halves, and the Weyl increments of the two key words.
# Every operand is a uint64: NumPy 1 turns uint64 with a Python int into float64.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_M64 = 2**64 - 1
_LOW32, _32, _11 = np.uint64(2**32 - 1), np.uint64(32), np.uint64(11)
_PHILOX_MLO, _PHILOX_MHI = _PHILOX_M & _LOW32, _PHILOX_M >> _32
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# LAPACK routine r in the ILP64 OpenBLAS of NumPy 2 and of NumPy 1 wheels
_NAMES = ("scipy_{}_64_", "{}_64_")
# Each routine's arguments before ``info``: c a character, i an integer, d a
# double, D and I arrays of doubles and integers, passed as they are (so the
# routine can write into them) where of that type and in Fortran order.
_SIGNATURES = {
    "dpftrf": "cciD", "dpftri": "cciD", "dpftrs": "cciiDDi", "dpttrf": "iDD", "dpttrs": "iiDDDi",
    "dsfrk": "ccciidDidD", "dstebz": "cciddiidDDIIDIIDI", "dstein": "iDDiDIIDiDII",
}
# A BLAS-like routine with no ``info`` argument
_NO_INFO = {"dsfrk"}
_CONVERT = {
    "c": lambda a: a,
    "i": lambda a: ctypes.byref(ctypes.c_int64(a)),
    "d": lambda a: ctypes.byref(ctypes.c_double(a)),
    "D": lambda a: np.require(a, float, "F").ctypes.data_as(ctypes.c_void_p),
    "I": lambda a: np.require(a, np.int64, "F").ctypes.data_as(ctypes.c_void_p),
}


def _rfp_array(a, n) -> np.ndarray:
    """``a`` as a contiguous float RFP array of order n (see :func:`_rfp_index`),
    the caller's array where it is one, so LAPACK can work in place."""
    a = np.asfortranarray(a, float)
    size = n * (n + 1) // 2
    if a.shape != (size,):
        raise ValueError(f"an RFP array of order {n} needs {size} entries, got shape {a.shape}")
    return a


class _Lapack:
    """LAPACK from the library NumPy links (``dlsym`` on its ``_umath_linalg``
    extension searches it). The routines on rectangular full packed (RFP)
    storage take ``scipy.linalg.lapack``'s argument order and its layout
    ``transr='N'``, ``uplo='L'`` (see :func:`_rfp_index`); ``dsfrk``,
    ``dpftrf`` and ``dpftri`` work in place on a contiguous float RFP array.
    ``factor_tridiagonal`` binds ``dpttrf`` and ``dpttrs`` itself."""

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
        # OpenBLAS's thread count (None from another LAPACK) and its setter
        self.blas_threads = getattr(lib, name.format("openblas_get_num_threads"), lambda: None)
        self._set_threads = getattr(lib, name.format("openblas_set_num_threads"), None)
        if self._set_threads is not None:  # a Fortran subroutine: the count by reference
            self._set_threads.argtypes = [ctypes.POINTER(ctypes.c_int64)]
            self._set_threads.restype = None

    def set_blas_threads(self, n):
        """Have OpenBLAS use ``n`` threads; a no-op for ``None`` or another LAPACK."""
        if n is not None and self._set_threads is not None:
            self._set_threads(_CONVERT["i"](n))

    def _bind(self, routine, *args):
        """A call of ``routine`` on ``args``, converted once, that returns ``info``.
        No ``argtypes``: ctypes would check each argument again on every call,
        1.7 us (15%) of a sweep's step at nz = 1001 on an x86-64 Xeon."""
        kinds, fn, info = _SIGNATURES[routine], self._fn[routine], ctypes.c_int64()
        refs = [_CONVERT[k](a) for k, a in zip(kinds, args, strict=True)]
        refs += [ctypes.byref(info)] * (routine not in _NO_INFO)
        refs += [ctypes.c_size_t(1)] * kinds.count("c")
        return lambda: fn(*refs) or info.value

    def dsfrk(self, n, k, alpha, a, beta, c):
        """c := alpha a a^T + beta c for the n x k matrix ``a``; no ``info``."""
        if np.shape(a) != (n, k):
            raise ValueError(f"a needs shape {(n, k)}, got {np.shape(a)}")
        c = _rfp_array(c, n)
        self._bind("dsfrk", b"N", b"L", b"N", n, k, alpha, a, max(n, 1), beta, c)()
        return c

    def dpftrf(self, n, a):
        a = _rfp_array(a, n)
        return a, self._bind("dpftrf", b"N", b"L", n, a)()

    def dpftri(self, n, a):
        a = _rfp_array(a, n)
        return a, self._bind("dpftri", b"N", b"L", n, a)()

    def dpftrs(self, n, a, b):
        x, ldb = np.array(b, float, order="F"), max(n, 1)
        if x.shape[:1] != (n,):
            raise ValueError(f"b needs leading dimension {n}, got shape {x.shape}")
        return x, self._bind("dpftrs", b"N", b"L", n, x.size // ldb, _rfp_array(a, n), x, ldb)()

    def dstebz(self, d, e, count, abstol):
        """Bisection for the ``count`` smallest eigenvalues of the symmetric
        tridiagonal (``d``, ``e``) to within ``abstol``, grouped by the blocks
        the matrix splits into (order ``'B'``, which ``dstein`` takes), with
        each one's block and the blocks' last rows; and ``info``. A short
        count shows as fewer eigenvalues."""
        n, m, nsplit = len(d), np.zeros(1, np.int64), np.zeros(1, np.int64)
        if np.shape(e) != (n - 1,):
            raise ValueError(f"e needs shape {(n - 1,)}, got {np.shape(e)}")
        w, iblock, isplit = np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)
        work, iwork = np.empty(4 * n), np.empty(3 * n, np.int64)
        args = (n, 0.0, 0.0, 1, count, abstol, d, e, m, nsplit, w, iblock, isplit, work, iwork)
        info = self._bind("dstebz", b"I", b"B", *args)()
        return w[: m[0]], iblock[: m[0]], isplit, info

    def dstein(self, d, e, w, iblock, isplit):
        """Unit eigenvectors of (``d``, ``e``) by inverse iteration, one per
        eigenvalue in ``w`` as ``dstebz`` returns them; and ``info``, the
        count of vectors that did not converge."""
        n, m = len(d), len(w)
        if np.shape(e) != (n - 1,) or np.shape(iblock) != (m,) or np.shape(isplit) != (n,):
            raise ValueError("dstein needs n - 1 off-diagonals, m blocks and n splits")
        z, ifail = np.empty((n, m), order="F"), np.empty(m, np.int64)
        args = (n, d, e, m, w, iblock, isplit, z, max(n, 1), np.empty(5 * n))
        return z, self._bind("dstein", *args, np.empty(n, np.int64), ifail)()


_flapack = _Lapack()


def _rfp_index(n, i, j):
    """Where the RFP array of a symmetric n x n matrix keeps its lower entry
    (i, j), i >= j: LAPACK's ``transr='N'``, ``uplo='L'`` layout
    (Gustavson et al., ACM TOMS 37(2), 2010), n(n+1)/2 doubles. With
    k = (n + 1) // 2, it is an (n + s) x k Fortran-order array, s = 1 for
    even n and 0 for odd: columns j < k of the lower triangle sit in its
    columns, s rows down, and the trailing triangle, rows and columns k on,
    transposed above them."""
    k, s = (n + 1) // 2, 1 - n % 2
    i, j = np.asarray(i), np.asarray(j)
    return np.where(j < k, i + s + j * (n + s), j - k + (i - k + 1 - s) * (n + s))


def _rfp_columns(a, n):
    """Views into the RFP array ``a`` of its matrix's columns on and below
    the diagonal, A[j:, j] for j = 0, ..., n - 1, one at a time."""
    j = np.arange(n)
    first = _rfp_index(n, j, j)
    step = _rfp_index(n, j + 1, j) - first  # 1, or the leading dimension
    for c in range(n):
        f, s = int(first[c]), int(step[c])
        yield a[f : f + s * (n - c) : s]


def _rfp_unpack(buffer, n) -> np.ndarray:
    """The symmetric n x n matrix whose RFP array is the prefix of the n * n
    float ``buffer``, expanded in place: ``buffer`` as a C-order n x n array."""
    k, s = (n + 1) // 2, 1 - n % 2
    rfp, full = buffer[: (n + s) * k].reshape(k, n + s), buffer.reshape(n, n)
    # row j of ``full`` is column j of the matrix, so its upper triangle takes
    # the lower one. The trailing triangle moves first: its place lies past
    # the RFP array's end. Column j < k of an odd order is in place already
    full[k:, k:] = rfp[1 - s : n - k + 1 - s, : n - k].T
    if s:  # even order: column j sits j + 1 entries on
        for j in range(k):
            full[j, j:] = rfp[j, j + 1 :]
    for i in range(1, n):
        full[i, :i] = full[:i, i]
    return full


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
        with np.errstate(all="ignore"):  # a far or non-finite t is just off the grid
            j = np.rint(np.float64(t) / self.spacing)
        if not 0 <= j < self.n or abs(t - j * self.spacing) > NODE_RTOL * self.t_end:
            msg = f"t={t} is not a node of the time grid (dt={self.spacing})"
            raise ValueError(msg)
        return int(j)


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
    # 3-term Taylor expansion is used instead. Elementwise: arrays out, 0-d
    # for a scalar.
    x = np.asarray(x, dtype=float)
    small = x < SERIES_CUTOFF
    xs = np.where(small, x, 1.0)
    phi_s = 1.0 - xs / 2.0 + xs * xs / 6.0
    psi_s = 0.5 - xs / 6.0 + xs * xs / 24.0
    xl = np.where(small, 1.0, x)
    em = -np.expm1(-xl)  # 1 - e^{-x}, stable for small and large x
    phi_l = em / xl
    psi_l = (xl - em) / (xl * xl)
    return np.where(small, phi_s, phi_l), np.where(small, psi_s, psi_l)


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


def _check_philox_key(key: int) -> None:
    """NumPy's ``Philox`` ValueError for a key outside [0, 2**128)."""
    if not 0 <= key < 2**128:
        raise ValueError("key must be positive and less than 2**128.")


def _philox_random(key: int, n: int, start: int = 0) -> np.ndarray:
    """Uniforms ``start``, ..., ``start + n - 1`` in [0, 1) of the stream
    ``Generator(Philox(key)).random`` draws: uniform 4b + j is word j of the
    Philox4x64-10 block at counter b + 1 (NumPy advances the counter before
    each block), as (word >> 11) * 2**-53. The key is split into two 64-bit
    words and the counter into four, low word first, as NumPy's ``Philox`` does.
    """
    _check_philox_key(key)
    first = start // 4
    blocks = -(-(start + n) // 4) - first
    counter = (first + 1) & (2**256 - 1)
    x = np.empty((4, blocks), np.uint64)
    x[0] = np.arange(blocks, dtype=np.uint64) + np.uint64(counter & _M64)
    x[1], x[2], x[3] = (np.uint64(counter >> 64 * i & _M64) for i in (1, 2, 3))
    x[1] += x[0] < np.uint64(counter & _M64)  # the carry of word 0
    for r in range(10):
        # a round: with (h0, l0) = M0 x0 and (h1, l1) = M1 x2 as 128-bit
        # products, the words become (h1 ^ x1 ^ k0, l1, h0 ^ x3 ^ k1, l0), where
        # the key (k0, k1) has taken r Weyl steps. The high words come from
        # 32-bit halves, in place: with temporaries a draw took 1.5x the time.
        a = x[0::2]
        low, lo, hi = a * _PHILOX_M, a & _LOW32, a >> _32
        mid = lo * _PHILOX_MLO
        mid >>= _32
        mid += hi * _PHILOX_MLO
        lo *= _PHILOX_MHI
        lo += mid & _LOW32
        hi *= _PHILOX_MHI
        hi += mid >> _32
        hi += lo >> _32
        k = [[(key >> 64 * i) + r * w & _M64] for i, w in enumerate(_PHILOX_W)]
        x[0::2], x[1::2] = hi[::-1] ^ x[1::2] ^ np.array(k, np.uint64), low[::-1]
    x >>= _11
    skip = start - 4 * first
    return np.multiply(x.T, 2.0**-53, order="C").ravel()[skip : skip + n]  # block after block


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
