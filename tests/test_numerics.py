"""Grids, quadrature, exponential inner products, tridiagonal solves, the
Philox stream, CSV."""

import _ctypes
import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.integrate
import scipy.linalg.lapack as scipy_lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

import colflux.numerics as numerics
from colflux.cli import _blind_weights
from colflux.errors import SingularSystemError
from colflux.model import CoefficientProfile
from colflux.numerics import (
    _CSV_BLOCK_CELLS,
    SERIES_CUTOFF,
    ColumnGrid,
    TimeGrid,
    cumulative_trapezoid,
    exp_inner_coefficients,
    factor_tridiagonal,
    _csv_text,
    _nodal,
    _normal_square,
    _philox_random,
    _write_csv,
    trapezoid,
)
from colflux.transport import _cn_sweep
from numpy.linalg import _umath_linalg

SRC = str(Path(numerics.__file__).resolve().parents[1])


class TestGrids:
    def test_column_grid_nodes_and_weights(self):
        grid = ColumnGrid(h=2.0, n=5)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(grid.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
        assert grid.spacing == 0.5

    def test_weights_sum_to_length(self):
        grid = ColumnGrid(h=3.7, n=41)
        assert abs(grid.weights.sum() - 3.7) < 1e-14

    @pytest.mark.parametrize("bad", [{"h": -1.0, "n": 5}, {"h": 1.0, "n": 2}])
    def test_column_grid_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            ColumnGrid(**bad)

    def test_time_grid_index_of(self):
        grid = TimeGrid(t_end=1.0, n=5)
        assert grid.index_of(0.5) == 2
        assert grid.index_of(1.0) == 4
        with pytest.raises(ValueError, match="node"):
            grid.index_of(0.3)

    @pytest.mark.parametrize("t", [1e308, -1e308, np.float64(1e308), np.inf, np.nan])
    def test_time_grid_index_of_a_far_time_is_off_grid_without_a_warning(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="is not a node of the time grid"):
                TimeGrid(t_end=1.0, n=17).index_of(t)

    def test_grids_are_immutable(self):
        grid = TimeGrid(t_end=1.0, n=4)
        with pytest.raises(ValueError):
            grid.nodes[0] = 7.0

    @pytest.mark.parametrize(
        "cls, fields, message",
        [
            (ColumnGrid, (-1.0, 5), "column height must be finite and positive, got -1.0"),
            (ColumnGrid, (math.inf, 5), "column height must be finite and positive, got inf"),
            (ColumnGrid, (1.0, 2), "column grid needs at least 3 nodes, got 2"),
            (ColumnGrid, (1.0, 4.5), "column grid needs at least 3 nodes, got 4.5"),
            (TimeGrid, (0.0, 5), "t_end must be finite and positive, got 0.0"),
            (TimeGrid, (1.0, 1), "time grid needs at least 2 nodes, got 1"),
        ],
    )
    def test_error_texts(self, cls, fields, message):
        with pytest.raises(ValueError) as err:
            cls(*fields)
        assert str(err.value) == message

    def test_both_grids_share_one_implementation(self):
        for name in ("__post_init__", "spacing", "nodes", "weights"):
            assert getattr(ColumnGrid, name) is getattr(TimeGrid, name), name
        assert "index_of" not in vars(ColumnGrid)

    def test_equality_and_hashing_follow_the_fields(self):
        assert ColumnGrid(1.0, 5) == ColumnGrid(h=1.0, n=5)
        assert hash(TimeGrid(2.0, 9)) == hash(TimeGrid(t_end=2.0, n=9))
        assert ColumnGrid(1.0, 5) != ColumnGrid(1.0, 6)
        assert ColumnGrid(1.0, 5) != TimeGrid(1.0, 5)
        assert len({ColumnGrid(1.0, 5), ColumnGrid(1.0, 5), TimeGrid(1.0, 5)}) == 2
        time = TimeGrid(t_end=2.0, n=9)
        assert time.spacing == 0.25 and time.nodes[-1] == 2.0
        np.testing.assert_array_equal(time.weights, [0.125] + [0.25] * 7 + [0.125])


class TestNodalInputs:
    def test_returns_a_float_array_and_names_the_array(self):
        out = _nodal([1, 2], (2,), "q0")
        assert out.dtype == np.float64 and out.flags.writeable
        expected = r"^seed needs nodal values of shape \(3,\), got shape \(2,\)$"
        with pytest.raises(ValueError, match=expected):
            _nodal(out, (3,), "seed")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^column values must be finite$"):
                _nodal([0.0, bad], (2,), "column")

    @pytest.mark.parametrize(
        "x, normal",
        [
            (1.0, True),
            (2.0**-511, True),
            (np.nextafter(2.0**-511, 0.0), False),
            (np.nextafter(2.0**512, 0.0), True),
            (2.0**512, False),
            (1e-300, False),
            (1e300, False),
            (0.0, False),
            (-1.0, False),
            (np.nan, False),
            (np.inf, False),
        ],
    )
    def test_normal_square_is_the_square_test(self, x, normal):
        with np.errstate(over="ignore", invalid="ignore"):
            square = np.float64(x) * np.float64(x)
        exact = bool(x > 0 and np.isfinite(square) and square >= np.finfo(float).tiny)
        assert exact == normal
        assert _normal_square(x) == normal
        assert _normal_square([0.5, x]) == normal
        assert _normal_square([])


class TestTrapezoid:
    def test_quadratic_error_is_the_classical_one(self):
        # composite trapezoid on f''=2 overshoots by h^2 (b-a) f'' / 12
        grid = ColumnGrid(h=1.0, n=101)
        value = trapezoid(grid.nodes**2, grid)
        assert abs(value - 1.0 / 3.0 - (0.01**2) * 2.0 / 12.0) < 1e-12
        assert abs(value - 1.0 / 3.0) <= 2e-5

    def test_exact_on_linear(self):
        grid = TimeGrid(t_end=2.0, n=17)
        assert abs(trapezoid(3.0 * grid.nodes - 1.0, grid) - 4.0) < 1e-13

    def test_axis_handling(self):
        grid = ColumnGrid(h=1.0, n=11)
        block = np.vstack([np.ones(11), grid.nodes])
        out = trapezoid(block, grid, axis=1)
        np.testing.assert_allclose(out, [1.0, 0.5], atol=1e-14)

    def test_length_mismatch_raises(self):
        grid = ColumnGrid(h=1.0, n=11)
        with pytest.raises(ValueError, match="nodes"):
            trapezoid(np.ones(10), grid)

    @given(
        coeffs=st.tuples(
            st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
        )
    )
    def test_linearity(self, coeffs):
        a, b = coeffs
        grid = TimeGrid(t_end=1.0, n=33)
        f = np.sin(grid.nodes)
        g = np.cos(3 * grid.nodes)
        lhs = trapezoid(a * f + b * g, grid)
        rhs = a * trapezoid(f, grid) + b * trapezoid(g, grid)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(a) + abs(b))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("n", [1, 2, 3, 1001, 16384])
    def test_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n))
        dx = 1.0 / max(n - 1, 1)
        expected = scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0.0)
        np.testing.assert_array_equal(cumulative_trapezoid(y, dx), expected)

    def test_last_entry_is_the_trapezoid_integral(self):
        grid = TimeGrid(t_end=2.0, n=33)
        y = np.cos(grid.nodes)
        running = cumulative_trapezoid(y, grid.spacing)
        assert running[0] == 0.0
        assert abs(running[-1] - trapezoid(y, grid)) <= 1e-14


class TestExpInner:
    """The exponential-segment functional, as its coefficients applied to g."""

    def test_zero_rate_reduces_to_plain_quadrature(self):
        grid = TimeGrid(t_end=1.0, n=65)
        g = np.sin(2.0 * grid.nodes) + 0.5
        assert abs(exp_inner_coefficients(grid, 0.0, 1.0) @ g - trapezoid(g, grid)) < 1e-14

    def test_constant_signal_closed_form(self):
        # int_0^T e^{lam (s-T)} ds = (1 - e^{-lam T}) / lam, exact for the
        # piecewise-linear representation of a constant
        grid = TimeGrid(t_end=1.0, n=129)
        for lam in (0.5, 4.0, 97.0):
            expected = (1.0 - np.exp(-lam)) / lam
            got = exp_inner_coefficients(grid, lam, 1.0) @ np.ones(grid.n)
            assert abs(got - expected) < 1e-14, f"lam={lam}"

    def test_linear_signal_closed_form(self):
        # int_0^T s e^{lam (s-T)} ds = T/lam - (1 - e^{-lam T})/lam^2
        grid = TimeGrid(t_end=2.0, n=257)
        lam = 3.0
        expected = 2.0 / lam - (1.0 - np.exp(-2.0 * lam)) / lam**2
        got = exp_inner_coefficients(grid, lam, 2.0) @ grid.nodes
        assert abs(got - expected) < 1e-13

    def test_partial_interval_upper_limit(self):
        grid = TimeGrid(t_end=1.0, n=9)
        lam = 2.0
        t_obs = 0.5
        expected = (1.0 - np.exp(-lam * t_obs)) / lam
        got = exp_inner_coefficients(grid, lam, t_obs) @ np.ones(grid.n)
        assert abs(got - expected) < 1e-14

    def test_huge_rate_localizes_at_the_end(self):
        # for lam >> 1 the integral is g(t_obs)/lam to leading order
        grid = TimeGrid(t_end=1.0, n=4097)
        g = 1.0 + grid.nodes
        lam = 4.0e4
        got = exp_inner_coefficients(grid, lam, 1.0) @ g
        assert abs(got - 2.0 / lam) < 1e-3 / lam

    def test_matches_fine_quadrature_for_smooth_signal(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(t_end=1.0, n=513)
        g = np.cos(5.0 * grid.nodes) + 0.3 * rng.standard_normal(1)[0]
        lam = 7.5
        s = np.linspace(0.0, 1.0, 200001)
        dense = np.trapezoid(
            np.interp(s, grid.nodes, g) * np.exp(lam * (s - 1.0)), s
        )
        assert abs(exp_inner_coefficients(grid, lam, 1.0) @ g - dense) < 1e-8

    def test_negative_rate_rejected(self):
        grid = TimeGrid(t_end=1.0, n=5)
        with pytest.raises(ValueError, match="nonneg"):
            exp_inner_coefficients(grid, -1.0, 1.0)

    def test_coefficients_vanish_beyond_the_limit(self):
        grid = TimeGrid(t_end=1.0, n=17)
        c = exp_inner_coefficients(grid, 2.0, 0.5)
        assert np.all(c[grid.index_of(0.5) + 1 :] == 0.0)

    def test_a_zero_limit_integrates_over_nothing(self):
        grid = TimeGrid(t_end=1.0, n=17)
        assert np.array_equal(exp_inner_coefficients(grid, 2.0, 0.0), np.zeros(17))

    def test_series_branch_accuracy_across_cutoff(self):
        # both branches must reproduce cancellation-free references: expm1
        # for a constant signal, the alternating series for a ramp
        grid = TimeGrid(t_end=1.0, n=5)
        t = grid.nodes
        for frac in (0.5, 0.99, 1.01, 10.0):
            lam = SERIES_CUTOFF * frac / grid.spacing
            const = exp_inner_coefficients(grid, lam, 1.0) @ np.ones(grid.n)
            assert abs(const - (-np.expm1(-lam)) / lam) < 1e-12
            ramp = exp_inner_coefficients(grid, lam, 1.0) @ t
            series = sum(
                (-lam) ** k / (math.factorial(k) * (k + 1) * (k + 2))
                for k in range(12)
            )
            # the slope factor subtracts x - (1 - e^{-x}) ~ x^2/2, so
            # rounding in the inputs floors its accuracy at ~eps/x just
            # above the cutoff; the constant has no such cancellation
            tol = 1e-12 + 4.0 * np.finfo(float).eps / lam
            assert abs(ramp - series) < tol


def spd_bands(rng, n):
    """Random symmetric, diagonally dominant (so positive definite) bands."""
    off = rng.standard_normal(n - 1)
    diag = 4.0 + rng.random(n) + 2.0 * np.abs(off).max(initial=0.0)
    return diag, off


def dense(diag, off):
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


class TestSolveTridiagonal:
    def test_frozen_three_node_case(self):
        # [[2,-1,0],[-1,2,-1],[0,-1,2]] x = (1,1,1) -> x = (1.5, 2, 1.5)
        x = factor_tridiagonal(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]))(
            np.array([1.0, 1.0, 1.0])
        )
        np.testing.assert_allclose(x, [1.5, 2.0, 1.5], atol=1e-14)

    def test_frozen_two_node_case(self):
        # [[2,-1],[-1,2]] x = (1,0) -> x = (2/3, 1/3)
        x = factor_tridiagonal(np.array([2.0, 2.0]), np.array([-1.0]))(
            np.array([1.0, 0.0])
        )
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(2)
        diag, off = spd_bands(rng, 20)
        rhs = rng.standard_normal((20, 4))
        x = factor_tridiagonal(diag, off)(rhs)
        np.testing.assert_allclose(dense(diag, off) @ x, rhs, atol=1e-10)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularSystemError):
            factor_tridiagonal(np.array([0.0, 1.0]), np.array([0.0]))(
                np.array([1.0, 1.0])
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 30))
    def test_matches_dense_solver(self, seed, n):
        rng = np.random.default_rng(seed)
        diag, off = spd_bands(rng, n)
        rhs = rng.standard_normal(n)
        x = factor_tridiagonal(diag, off)(rhs)
        expected = np.linalg.solve(dense(diag, off), rhs)
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-12)


def flux_difference_bands(profile):
    """Diagonal and off-diagonal of D^-1 S D for the flux-difference operator
    S, from the face coefficients the profile forms."""
    kf, wf = profile.kf, profile.wf
    diag = np.zeros(profile.grid.n)
    diag[:-1] -= kf + wf
    diag[1:] -= kf - wf
    return diag, np.sqrt((kf + wf) * (kf - wf))


def cn_left_bands(nz=201, nt=256):
    """Symmetrized left Crank-Nicolson bands of a variable, advective profile."""
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    w = 0.3 * np.sin(np.pi * z)
    profile = CoefficientProfile(grid=grid, k=0.5 + z * (1.0 - z), w=w)
    diag, off = flux_difference_bands(profile)
    half = 0.5 / (nt - 1)
    return grid.weights - half * diag, -half * off


class TestFactorTridiagonal:
    def test_one_and_two_dimensional_right_hand_sides(self):
        diag, off = cn_left_bands(nz=31)
        solve = factor_tridiagonal(diag, off)
        rng = np.random.default_rng(6)
        for shape in [(31,), (31, 1), (31, 4)]:
            rhs = rng.standard_normal(shape)
            x = solve(rhs)
            assert x.shape == shape
            np.testing.assert_allclose(dense(diag, off) @ x, rhs, atol=1e-12)

    def test_factors_are_reused_across_solves(self):
        # the solver keeps its own copy: later solves are unaffected by
        # changes to the bands or to earlier right-hand sides
        diag, off = (b.copy() for b in cn_left_bands(nz=17))
        solve = factor_tridiagonal(diag, off)
        rhs = np.linspace(-1.0, 1.0, 17)
        first = solve(rhs)
        diag[:] = 1.0
        again = solve(rhs)
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(rhs, np.linspace(-1.0, 1.0, 17))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_systems(self, n):
        rng = np.random.default_rng(n)
        diag, off = spd_bands(rng, n)
        rhs = rng.standard_normal((n, 2))
        x = factor_tridiagonal(diag, off)(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense(diag, off), rhs), rtol=1e-13)

    @pytest.mark.parametrize(
        "bands",
        [
            ([0.0, 1.0], [0.0]),
            # positive diagonal, but the second leading minor is 1 - 4 < 0
            ([1.0, 1.0, 1.0], [2.0, 0.0]),
            ([-1.0, -1.0], [0.0]),
            ([0.0], []),
        ],
        ids=["zero-pivot", "indefinite", "negative-definite", "one-node"],
    )
    def test_not_positive_definite_raises(self, bands):
        with pytest.raises(SingularSystemError, match="not positive definite"):
            factor_tridiagonal(*(np.array(b) for b in bands))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            factor_tridiagonal(np.ones(4), np.ones(2))
        solve = factor_tridiagonal(3.0 * np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="leading dimension"):
            solve(np.ones(4))


#: The routines colflux binds from the LAPACK NumPy links, sorted.
LAPACK_ROUTINES = [
    "dpftrf", "dpftri", "dpftrs", "dpttrf", "dpttrs", "dsfrk", "dstebz", "dstein", "zgtsv",
]


def openblas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


class HidingLibrary:
    """A loaded library that lacks every name in ``hidden`` and answers
    each name in ``renamed`` with the symbol it maps to."""

    CDLL = ctypes.CDLL  # the loader itself, before a test replaces it

    def __init__(self, path, hidden=(), renamed=None):
        self.lib, self.hidden, self.renamed = self.CDLL(path), set(hidden), renamed or {}

    def __getattr__(self, name):
        if name in self.hidden:
            raise AttributeError(name)
        return getattr(self.lib, self.renamed.get(name, name))


def assert_same_openblas_result(ours, ref, n, scale):
    """Bit for bit where NumPy and SciPy bundle the same OpenBLAS. Releases
    differ in their blocked kernels' rounding: within n eps of ``scale``."""
    if openblas_version(np) == openblas_version(scipy):
        np.testing.assert_array_equal(ours, ref)
    else:
        assert np.abs(ours - ref).max(initial=0.0) <= n * np.finfo(float).eps * scale


def assert_same_eigenpairs(lapack, diag, off, count, tol):
    """``lapack``'s dstebz and dstein give SciPy's answers, bit for bit."""
    w, iblock, isplit, info = lapack.dstebz(diag, off, count, tol)
    m, *ref, ref_info = scipy_lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, count, tol, "B")
    assert (len(w), info) == (m, ref_info) == (count, 0)
    for ours, theirs in zip((w, iblock), ref):
        np.testing.assert_array_equal(ours, theirs[:m])
    z, info = lapack.dstein(diag, off, w, iblock, isplit)
    ref_z, ref_info = scipy_lapack.dstein(diag, off, ref[0][:m], *ref[1:])
    assert info == ref_info == 0
    np.testing.assert_array_equal(z, ref_z)


def symmetric_bands(n, seed=14):
    rng = np.random.default_rng(seed)
    return 2.0 + rng.random(n), -rng.random(n - 1)


def complex_system(n, seed=15):
    """A complex tridiagonal system's three bands and three right-hand sides."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return draw(n - 1), draw(n), draw(n - 1), draw(n, 3)


def assert_same_complex_solve(lapack, dl, d, du, b):
    """``lapack``'s zgtsv gives SciPy's answer and ``info``, bit for bit, and
    leaves its arguments as they were."""
    kept = [a.copy() for a in (dl, d, du, b)]
    *_, ref, ref_info = scipy_lapack.zgtsv(dl, d, du, b)
    for rhs, expected in ((b, ref), (b[:, 0], ref[:, 0])):
        x, info = lapack.zgtsv(dl, d, du, rhs)
        assert info == ref_info and x.shape == rhs.shape
        if not info:
            np.testing.assert_array_equal(x, expected)
    for a, copy in zip((dl, d, du, b), kept):
        np.testing.assert_array_equal(a, copy)


class TestLapackModule:
    """``numerics._flapack`` binds LAPACK from the library NumPy links, in
    SciPy's argument order; ``scipy.linalg.lapack`` is the reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 1024, 1025])
    def test_rfp_routines_match_scipy(self, n):
        # the dense oracle's calls, each on the same input as SciPy's: the Gram
        # matrix of h^T, plus the identity, factored, solved with and inverted
        rng = np.random.default_rng(n)
        h = rng.standard_normal((3, n))  # C order: h.T is the n x 3 Fortran-order matrix
        size = n * (n + 1) // 2
        buffer = np.full(size, np.nan)  # beta = 0: its old entries are never read
        gram = numerics._flapack.dsfrk(n, 3, 1.0, h.T, 0.0, buffer)
        ref = scipy_lapack.dsfrk(n, 3, 1.0, h.T, 0.0, np.zeros(size), uplo="L")
        assert gram is buffer
        assert_same_openblas_result(gram, ref, n, 3 * np.abs(h).max() ** 2)
        ref[numerics._rfp_index(n, np.arange(n), np.arange(n))] += 1.0
        expected, info = scipy_lapack.dpftrf(n, ref, uplo="L")
        buffer = ref.copy()
        factor, our_info = numerics._flapack.dpftrf(n, buffer)
        assert info == our_info == 0 and factor is buffer
        assert_same_openblas_result(factor, expected, n, np.abs(ref).max())
        cond = 1.0 + (h**2).sum()  # bounds the condition number of I + h^T h
        rhs = rng.standard_normal((n, 3))
        for b in (rhs[:, 0], rhs):
            ours, info = numerics._flapack.dpftrs(n, expected, b)
            assert info == 0 and ours.shape == b.shape
            x = scipy_lapack.dpftrs(n, expected, b.reshape(n, -1), uplo="L")[0]
            assert_same_openblas_result(ours.reshape(n, -1), x, n, cond * np.abs(x).max())
        inverse = scipy_lapack.dpftri(n, expected, uplo="L")[0]
        buffer = expected.copy()
        ours, info = numerics._flapack.dpftri(n, buffer)
        assert info == 0 and ours is buffer
        assert_same_openblas_result(ours, inverse, n, cond * np.abs(inverse).max())

    @pytest.mark.parametrize("n", [2, 5, 1024])
    def test_rfp_factorization_names_the_failing_minor(self, n):
        a = scipy_lapack.dtrttf(np.eye(n), transr="N", uplo="L")[0]
        a[numerics._rfp_index(n, n // 2, n // 2)] = -1.0
        expected = scipy_lapack.dpftrf(n, a, uplo="L")[1]
        assert numerics._flapack.dpftrf(n, a)[1] == expected == n // 2 + 1

    def test_rfp_routines_refuse_arrays_of_the_wrong_size(self):
        # LAPACK would read or write past the end of a short array
        lapack, h = numerics._flapack, np.ones((4, 2))
        with pytest.raises(ValueError, match="RFP array of order 4 needs 10 entries, got shape"):
            lapack.dsfrk(4, 2, 1.0, h, 0.0, np.empty(9))
        with pytest.raises(ValueError, match=r"a needs shape \(4, 3\), got \(4, 2\)"):
            lapack.dsfrk(4, 3, 1.0, h, 0.0, np.empty(10))
        for call in (lapack.dpftrf, lapack.dpftri):
            with pytest.raises(ValueError, match="RFP array of order 5 needs 15 entries"):
                call(5, np.empty(10))
        with pytest.raises(ValueError, match="b needs leading dimension 4, got shape"):
            lapack.dpftrs(4, np.empty(10), np.ones(3))

    def test_eigen_routines_refuse_arrays_of_the_wrong_size(self):
        # LAPACK would read past the end of a short band or block list
        lapack, ones = numerics._flapack, np.ones(4)
        with pytest.raises(ValueError, match=r"e needs shape \(3,\), got \(4,\)"):
            lapack.dstebz(ones, ones, 2, 0.0)
        blocks, splits = np.ones(2, np.int64), np.full(4, 4)
        for e, iblock, isplit in [
            (ones, blocks, splits),
            (ones[:3], blocks[:1], splits),
            (ones[:3], blocks, splits[:1]),
        ]:
            with pytest.raises(ValueError, match="dstein needs n - 1 off-diagonals, m blocks"):
                lapack.dstein(ones, e, ones[:2], iblock, isplit)

    @pytest.mark.parametrize("n", [2, 3, 41, 1001])
    def test_complex_tridiagonal_solve_matches_scipy(self, n):
        dl, d, du, b = complex_system(n)
        assert_same_complex_solve(numerics._flapack, dl, d, du, b)
        # b in C order above, in Fortran order here: the same solve
        assert_same_complex_solve(numerics._flapack, dl, d, du, np.asfortranarray(b))
        # an exactly zero pivot in the first column: info names it
        dl[0] = d[0] = 0.0
        assert_same_complex_solve(numerics._flapack, dl, d, du, b)
        assert numerics._flapack.zgtsv(dl, d, du, b)[1] == 1

    def test_complex_tridiagonal_solve_refuses_arrays_of_the_wrong_size(self):
        dl, d, du, b = complex_system(5)
        for args in ((dl[:3], d, du, b), (dl, d, du[:3], b), (dl, d, du, b[:4])):
            with pytest.raises(ValueError, match="zgtsv needs n - 1 off-diagonals and b of"):
                numerics._flapack.zgtsv(*args)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rfp_index_is_lapacks_layout(self, n):
        # dtrttf packs the lower triangle; the helper must find every entry
        # there, each at its own place
        a = np.random.default_rng(n).standard_normal((n, n))
        rfp = scipy_lapack.dtrttf(a, transr="N", uplo="L")[0]
        i, j = np.tril_indices(n)
        at = numerics._rfp_index(n, i, j)
        np.testing.assert_array_equal(rfp[at], a[i, j])
        assert sorted(at.tolist()) == list(range(n * (n + 1) // 2))

    @pytest.mark.parametrize("n", [*range(1, 10), 1024, 1025])
    def test_rfp_columns_and_unpacking_are_lapacks(self, n):
        x = np.random.default_rng(n).standard_normal((n, n))
        a = x + x.T
        rfp = scipy_lapack.dtrttf(a, transr="N", uplo="L")[0]
        columns = list(numerics._rfp_columns(rfp, n))
        assert len(columns) == n
        for j, column in enumerate(columns):
            assert np.shares_memory(column, rfp)
            np.testing.assert_array_equal(column, a[j:, j])
        buffer = np.full(n * n, np.nan)
        buffer[: rfp.size] = rfp
        tracemalloc.start()
        try:  # in place: no n x n or half-size temporary
            full = numerics._rfp_unpack(buffer, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * n * n * 8 + 4096
        assert full.shape == (n, n) and np.shares_memory(full, buffer)
        np.testing.assert_array_equal(full, a)
        lower = scipy_lapack.dtfttr(n, rfp, transr="N", uplo="L")[0]
        np.testing.assert_array_equal(np.tril(full), np.tril(lower))

    @pytest.mark.parametrize("n", [41, 1001, 4001])
    def test_tridiagonal_routines_match_scipy(self, n):
        diag, off = symmetric_bands(n)
        d, e = diag.copy(), off.copy()
        info = numerics._flapack._bind("dpttrf", n, d, e)()
        ref = scipy_lapack.dpttrf(diag, off)
        assert info == ref[2] == 0
        np.testing.assert_array_equal(d, ref[0])
        np.testing.assert_array_equal(e, ref[1])
        solve = factor_tridiagonal(diag, off)  # dpttrf, then dpttrs per solve
        rhs = np.random.default_rng(n).standard_normal((n, 3))
        for b in (rhs[:, 1], rhs):
            x = solve(b)
            assert x.shape == b.shape
            np.testing.assert_array_equal(x, scipy_lapack.dpttrs(*ref[:2], b)[0])
        assert_same_eigenpairs(numerics._flapack, diag, off, min(n, 40), 2.0**-40)

    def test_eigen_routines_only_read_their_bands(self):
        # eigensystem scales its own copies of the bands; the routines must
        # leave them, even past the norm (about 8e76) where dstevx scaled in place
        for scale in (1.0, 1e150):
            diag, off = (scale * band for band in symmetric_bands(101))
            kept = diag.copy(), off.copy()
            assert_same_eigenpairs(numerics._flapack, diag, off, 8, 0.0)
            for band, copy in zip((diag, off), kept):
                np.testing.assert_array_equal(band, copy)

    def test_sweep_step_in_place_equals_the_solver(self):
        diag, off = cn_left_bands(nz=1001)
        solve = factor_tridiagonal(diag, off)
        buffer = np.empty(1001)
        step = solve.in_place(buffer)
        u = np.random.default_rng(9).standard_normal(1001)
        for _ in range(5):  # the arguments built once serve every step
            buffer[:] = u
            step()
            np.testing.assert_array_equal(buffer, solve(u))
            u = buffer - u
        block = np.asfortranarray(np.random.default_rng(10).standard_normal((1001, 3)))
        expected = solve(block)
        solve.in_place(block)()
        np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize(
        "buffer",
        [np.empty(40), np.empty(41, dtype=np.float32), np.empty(82)[::2], np.empty((41, 2))],
        ids=["short", "float32", "strided", "c-order"],
    )
    def test_in_place_step_takes_only_the_array_itself(self, buffer):
        solve = factor_tridiagonal(*cn_left_bands(nz=41))
        with pytest.raises(ValueError, match="leading dimension 41, float entries and Fortran"):
            solve.in_place(buffer)

    def test_sweep_equals_a_copying_loop(self):
        grid = ColumnGrid(h=1.0, n=201)
        z = grid.nodes
        profile = CoefficientProfile(grid=grid, k=0.5 + z * (1.0 - z), w=0.3 * np.sin(np.pi * z))
        (diag, off), d = flux_difference_bands(profile), profile.d
        dt, q0 = 1.0 / 255, np.cos(np.pi * z)
        solve = factor_tridiagonal(grid.weights - 0.5 * dt * diag, -0.5 * dt * off)

        def forcing(n, rhs):
            rhs[0] += 0.01 * (n + 1)

        for transpose in (False, True):
            sweep = _cn_sweep(profile, dt, q0, range(40), forcing, transpose)
            states = [u.copy() for _, u in sweep]  # the sweep overwrites u: keep copies
            u = q0 * d if transpose else q0 / d
            for n, state in enumerate(states):
                rhs = 2.0 * grid.weights * u
                forcing(n, rhs)
                u = solve(rhs) - u
                np.testing.assert_array_equal(state, u)

    @pytest.mark.parametrize("missing", LAPACK_ROUTINES)
    def test_missing_routine_is_named(self, monkeypatch, missing):
        hidden = [layout.format(missing) for layout in numerics._NAMES]
        monkeypatch.setattr(ctypes, "CDLL", lambda path: HidingLibrary(path, hidden))
        path = _umath_linalg.__file__
        with pytest.raises(ImportError) as exc:
            numerics._Lapack()
        assert str(exc.value) == f"LAPACK routines ['{missing}'] not found in {path}"

    def test_library_without_lapack_names_every_routine(self):
        path = _ctypes.__file__
        with pytest.raises(ImportError) as exc:
            numerics._Lapack(path)
        assert str(exc.value) == f"LAPACK routines {LAPACK_ROUTINES} not found in {path}"

    @pytest.mark.parametrize("layout", [0, 1], ids=["numpy2", "numpy1"])
    def test_each_naming_is_found(self, monkeypatch, layout):
        # present this NumPy's symbols under the names of ``layout`` only
        names = numerics._NAMES
        lib = HidingLibrary.CDLL(_umath_linalg.__file__)
        real = next(n for n in names if hasattr(lib, n.format("dpftrf")))
        symbols = ["openblas_get_num_threads", "openblas_set_num_threads", *LAPACK_ROUTINES]
        renamed = {names[layout].format(r): real.format(r) for r in symbols}
        hidden = {real.format(r) for r in symbols} - set(renamed)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: HidingLibrary(path, hidden, renamed))
        lapack = numerics._Lapack()
        threads = numerics._flapack.blas_threads()
        assert lapack.blas_threads() == threads
        try:  # the setter takes its count by reference under either name
            lapack.set_blas_threads(threads + 1)
            assert numerics._flapack.blas_threads() == threads + 1
        finally:
            numerics._flapack.set_blas_threads(threads)
        # the dense oracle's four calls, through each naming
        h, b = np.random.default_rng(41).standard_normal((2, 5, 41))

        def oracle_calls(bound):
            a = bound.dsfrk(41, 5, 1.0, h.T, 0.0, np.empty(41 * 21))
            a[numerics._rfp_index(41, np.arange(41), np.arange(41))] += 1.0
            factor = bound.dpftrf(41, a)[0]
            return bound.dpftrs(41, factor, b.T)[0], bound.dpftri(41, factor)[0]

        for ours, theirs in zip(oracle_calls(lapack), oracle_calls(numerics._flapack)):
            np.testing.assert_array_equal(ours, theirs)
        # the eigensolve's two, and the forward map check's one
        assert_same_eigenpairs(lapack, *symmetric_bands(41), 5, 2.0**-40)
        assert_same_complex_solve(lapack, *complex_system(41))

    def test_thread_count_is_openblas_own(self):
        code = "from colflux.numerics import _flapack; print(_flapack.blas_threads())"
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == threads

    def test_thread_count_is_none_without_openblas(self, monkeypatch):
        hidden = [
            layout.format(f"openblas_{verb}_num_threads")
            for layout in numerics._NAMES
            for verb in ("get", "set")
        ]
        monkeypatch.setattr(ctypes, "CDLL", lambda path: HidingLibrary(path, hidden))
        lapack = numerics._Lapack()
        assert lapack.blas_threads() is None
        threads = numerics._flapack.blas_threads()
        lapack.set_blas_threads(threads + 1)  # no setter: nothing changes
        assert numerics._flapack.blas_threads() == threads


PHILOX_KEYS = [0, 1, 2**64 - 1, 2**64 + 5, 2**128 - 1]


class TestPhiloxStream:
    # NumPy's Generator(Philox(...)) is the reference: every slice must be its
    # stream, word for word, since the noise, the sketch and the blind weights
    # of every artifact are slices of it

    @pytest.mark.parametrize("key", PHILOX_KEYS)
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 5, 13, 4002])
    def test_a_slice_is_numpys_stream(self, key, start):
        # starts inside a block, lengths that end inside one or cross several
        reference = Generator(Philox(key=key)).random(start + 4010)
        for n in [*range(0, 10), 4001]:
            got = _philox_random(key, n, start)
            assert np.array_equal(got, reference[start : start + n]), n

    @pytest.mark.parametrize("key", PHILOX_KEYS)
    def test_the_counter_carries_into_its_second_word(self, key):
        counter = 2**64 - 3
        for skip, n in [(0, 20), (3, 17)]:
            drawn = _philox_random(key, n, 4 * counter + skip)
            reference = Generator(Philox(key=key, counter=counter)).random(20)
            assert np.array_equal(drawn, reference[skip : skip + n])

    def test_known_answers(self):
        # Random123's known-answer vectors for Philox4x64-10 (counter, key,
        # the block's four words): block b of the stream is at counter b + 1
        vectors = [
            (0, 0, "16554d9eca36314c db20fe9d672d0fdc d7e772cee186176b 7e68b68aec7ba23b"),
            (
                2**256 - 1,
                2**128 - 1,
                "87b092c3013fe90b 438c3c67be8d0224 9cc7d7c69cd777b6 a09caebf594f0ba0",
            ),
            (
                0x082EFA98EC4E6C89A4093822299F31D013198A2E03707344243F6A8885A308D3,
                0xBE5466CF34E90C6C452821E638D01377,
                "a528f45403e61d95 38c72dbd566e9788 a5a1610e72fd18b5 57bd43b5e52b7fe6",
            ),
        ]
        for counter, key, words in vectors:
            expected = [(int(w, 16) >> 11) * 2.0**-53 for w in words.split()]
            got = _philox_random(key, 4, 4 * ((counter - 1) % 2**256))
            assert got.tolist() == expected

    @pytest.mark.parametrize("key", [-1, 2**128, 2**128 + 7])
    def test_keys_outside_the_range_raise_as_numpy_does(self, key):
        with pytest.raises(ValueError) as numpy_error:
            Philox(key=key)
        with pytest.raises(ValueError, match="less than 2\\*\\*128") as error:
            _philox_random(key, 4)
        assert str(error.value) == str(numpy_error.value)

    @pytest.mark.parametrize("width", [7, 4001, 5461, 20000])
    def test_rows_are_successive_draws(self, width):
        # the blind weights: 50 rows drawn several at a time, one row per
        # draw, or 50 at once, crossing block boundaries in every case; at
        # width 5461 a draw of three rows starts inside a block
        rows = np.array(list(_blind_weights(5, width)))
        assert np.array_equal(rows, Generator(Philox(key=5)).random((50, width)))

    def test_uniform_one_two_is_one_plus_the_draw(self):
        # the forward-map sketch's weights
        for n in (1, 3, 16, 1001):
            c = 1.0 + _philox_random(1, n)
            assert np.array_equal(c, Generator(Philox(key=1)).uniform(1.0, 2.0, n))

    def test_memory_of_the_blind_draws_stays_bounded(self):
        # 50 rows of the diagnose column (4001 nodes): about one draw's
        # worth is held at a time, never the 1.6 MB of all 200k uniforms
        tracemalloc.start()
        try:
            for _ in _blind_weights(3, 4001):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"the draws peaked at {peak / 1e6:.2f} MB"


def reference_csv(header, columns):
    """The per-element writer the block formatter replaced: one repr per value."""
    lines = [header]
    for i in range(len(columns[0])):
        cells = []
        for c in columns:
            if isinstance(c, list):
                cells.append(c[i])
            elif c.ndim == 2:
                cells.extend(repr(float(v)) for v in c[i])
            elif c.dtype.kind in "iu":
                cells.append(f"{int(c[i])}")
            else:
                cells.append(repr(float(c[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def formatted(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    _write_csv(path, header, columns)
    return path.read_bytes().decode("utf-8")


# shortest-repr edge cases: signed zero, the smallest subnormal, the switch
# to exponent notation on both sides, the largest double, non-finite values
# and integer-valued floats
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 1.0, -3.0, 2.0**52, 0.1, 1 / 3,
]


class TestCsvFormatter:
    def test_edge_values_match_the_per_element_writer(self, tmp_path):
        values = np.array(EDGE_VALUES)
        columns = (np.arange(values.size), values, values[::-1].copy())
        assert formatted(tmp_path, "n,a,b", columns) == reference_csv("n,a,b", columns)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("width", [1, 3])
    def test_block_edges(self, tmp_path, offset, width):
        block = _CSV_BLOCK_CELLS // (width + 1)
        lengths = [0, 1] if offset is None else [block + offset]
        rng = np.random.default_rng(width)
        for n in lengths:
            columns = (np.arange(n), *rng.standard_normal((width, n)) * 1e3)
            header = ",".join(f"c{i}" for i in range(width + 1))
            text = formatted(tmp_path, header, columns)
            assert text == reference_csv(header, columns)
            assert text.count("\n") == n + 1

    def test_wide_group_and_shared_text_columns(self, tmp_path):
        rng = np.random.default_rng(5)
        rows, cols = 7, _CSV_BLOCK_CELLS // 3 - 2  # three rows per block
        grid = rng.standard_normal((rows, cols))
        t = np.linspace(0.0, 1.0, rows)
        columns = (_csv_text(t), np.arange(rows), grid)
        assert _csv_text(t) == [repr(float(v)) for v in t]
        assert formatted(tmp_path, "h", columns) == reference_csv("h", columns)

    @pytest.mark.parametrize("rows", [16385, 163850])
    def test_memory_does_not_grow_with_the_row_count(self, rows):
        # the gains files' shape, and ten times it: only one block of text
        # is ever held, so the peak stays put
        rng = np.random.default_rng(rows)
        columns = (np.linspace(0.0, 1.0, rows), *rng.standard_normal((2, rows)))
        tracemalloc.start()
        try:
            _write_csv(os.devnull, "t,G,e", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"formatter peaked at {peak / 1e6:.2f} MB"
