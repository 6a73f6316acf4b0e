"""Grids, quadrature, exponential inner products, tridiagonal solves, CSV."""

import _ctypes
import ctypes
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.integrate
import scipy.linalg.lapack as scipy_lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import colflux.numerics as numerics
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
    _write_csv,
    trapezoid,
)
from colflux.transport import _cn_sweep, _symmetric_flux_divergence
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


def cn_left_bands(nz=201, nt=256):
    """Symmetrized left Crank-Nicolson bands of a variable, advective profile."""
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    w = 0.3 * np.sin(np.pi * z)
    profile = CoefficientProfile(grid=grid, k=0.5 + z * (1.0 - z), w=w)
    diag, off, _ = _symmetric_flux_divergence(profile)
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
LAPACK_ROUTINES = ["dpotrf", "dpotri", "dpotrs", "dpttrf", "dpttrs", "dstevx"]


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


def spd_matrix(n, seed=13):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def symmetric_bands(n, seed=14):
    rng = np.random.default_rng(seed)
    return 2.0 + rng.random(n), -rng.random(n - 1)


class TestLapackModule:
    """``numerics._flapack`` binds LAPACK from the library NumPy links, in
    SciPy's argument order; ``scipy.linalg.lapack`` is the reference."""

    @pytest.mark.parametrize("n", [513, 1023])
    def test_dpotrf_matches_scipy(self, n):
        a = spd_matrix(n)
        ref, info = scipy_lapack.dpotrf(a, lower=1, clean=0)
        buffer = np.array(a, order="F")  # the dense oracle's call: in place
        ours, our_info = numerics._flapack.dpotrf(buffer)
        assert info == our_info == 0 and ours is buffer
        if openblas_version(np) == openblas_version(scipy):
            np.testing.assert_array_equal(ours, ref)
        else:
            # SciPy and NumPy ship different OpenBLAS releases, whose blocked
            # factorizations may round differently: the backward-error bound
            eps = np.finfo(float).eps
            assert np.abs(ours - ref).max() <= n * eps * np.abs(a).max()

    @pytest.mark.parametrize("n", [513, 1023])
    def test_dpotrs_and_dpotri_match_scipy(self, n):
        factor = scipy_lapack.dpotrf(spd_matrix(n), lower=1)[0]
        rhs = np.random.default_rng(n).standard_normal((n, 3))
        for b in (rhs[:, 0], rhs):
            ours, info = numerics._flapack.dpotrs(factor, b)
            assert info == 0 and ours.shape == b.shape
            np.testing.assert_array_equal(ours, scipy_lapack.dpotrs(factor, b, lower=1)[0])
        expected = scipy_lapack.dpotri(factor, lower=1)[0]
        buffer = factor.copy(order="F")
        ours, info = numerics._flapack.dpotri(buffer)
        assert info == 0 and ours is buffer
        np.testing.assert_array_equal(ours, expected)

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
        modes = min(n, 40)  # one call for eigh_tridiagonal(select="i")'s three
        m, w, z, info = numerics._flapack.dstevx(diag, off, modes)
        ref_w, ref_z = eigh_tridiagonal(diag, off, select="i", select_range=(0, modes - 1))
        assert (m, info) == (modes, 0)
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(z, ref_z)

    def test_dstevx_scales_copies_of_its_bands(self):
        # past a norm of about 8e76 LAPACK scales the bands in place; the
        # caller's arrays must stay as they were
        diag, off = symmetric_bands(101)
        big = (1e150 * diag, 1e150 * off)
        kept = [band.copy() for band in big]
        m, w, z, info = numerics._flapack.dstevx(*big, 8)
        assert (m, info) == (8, 0)
        for band, copy in zip(big, kept):
            np.testing.assert_array_equal(band, copy)
        ref_w, ref_z = numerics._flapack.dstevx(diag, off, 8)[1:3]
        np.testing.assert_allclose(w, 1e150 * ref_w, rtol=1e-13)
        np.testing.assert_allclose(np.abs(z), np.abs(ref_z), rtol=0, atol=1e-12)

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
        diag, off, d = _symmetric_flux_divergence(profile)
        dt, q0 = 1.0 / 255, np.cos(np.pi * z)
        solve = factor_tridiagonal(grid.weights - 0.5 * dt * diag, -0.5 * dt * off)

        def forcing(n, rhs):
            rhs[0] += 0.01 * (n + 1)

        def visit(n, u):  # the sweep overwrites u: keep copies
            states.append(u.copy())

        for transpose in (False, True):
            states = []
            _cn_sweep(profile, dt, q0, range(40), forcing, visit, transpose)
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
        real = next(n for n in names if hasattr(lib, n.format("dpotrf")))
        symbols = ["openblas_get_num_threads", *LAPACK_ROUTINES]
        renamed = {names[layout].format(r): real.format(r) for r in symbols}
        hidden = {real.format(r) for r in symbols} - set(renamed)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: HidingLibrary(path, hidden, renamed))
        lapack = numerics._Lapack()
        assert lapack.blas_threads() == numerics._flapack.blas_threads()
        a = spd_matrix(41)
        np.testing.assert_array_equal(lapack.dpotrf(a)[0], numerics._flapack.dpotrf(a)[0])

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
        hidden = [layout.format("openblas_get_num_threads") for layout in numerics._NAMES]
        monkeypatch.setattr(ctypes, "CDLL", lambda path: HidingLibrary(path, hidden))
        assert numerics._Lapack().blas_threads() is None


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


def formatted(header, columns):
    text = io.StringIO()
    _write_csv(text, header, columns)
    return text.getvalue()


# shortest-repr edge cases: signed zero, the smallest subnormal, the switch
# to exponent notation on both sides, the largest double, non-finite values
# and integer-valued floats
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 1.0, -3.0, 2.0**52, 0.1, 1 / 3,
]


class TestCsvFormatter:
    def test_edge_values_match_the_per_element_writer(self):
        values = np.array(EDGE_VALUES)
        columns = (np.arange(values.size), values, values[::-1].copy())
        assert formatted("n,a,b", columns) == reference_csv("n,a,b", columns)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("width", [1, 3])
    def test_block_edges(self, offset, width):
        block = _CSV_BLOCK_CELLS // (width + 1)
        lengths = [0, 1] if offset is None else [block + offset]
        rng = np.random.default_rng(width)
        for n in lengths:
            columns = (np.arange(n), *rng.standard_normal((width, n)) * 1e3)
            header = ",".join(f"c{i}" for i in range(width + 1))
            text = formatted(header, columns)
            assert text == reference_csv(header, columns)
            assert text.count("\n") == n + 1

    def test_wide_group_and_shared_text_columns(self):
        rng = np.random.default_rng(5)
        rows, cols = 7, _CSV_BLOCK_CELLS // 3 - 2  # three rows per block
        grid = rng.standard_normal((rows, cols))
        t = np.linspace(0.0, 1.0, rows)
        columns = (_csv_text(t), np.arange(rows), grid)
        assert _csv_text(t) == [repr(float(v)) for v in t]
        assert formatted("h", columns) == reference_csv("h", columns)

    def test_path_and_stream_write_the_same_bytes(self, tmp_path):
        columns = (np.linspace(0.0, 1.0, 9), np.arange(9) / 7.0)
        _write_csv(tmp_path / "a.csv", "t,x", columns)
        assert (tmp_path / "a.csv").read_bytes() == formatted("t,x", columns).encode()

    @pytest.mark.parametrize("rows", [16385, 163850])
    def test_memory_does_not_grow_with_the_row_count(self, rows):
        # the gains files' shape, and ten times it: only one block of text
        # is ever held, so the peak stays put
        rng = np.random.default_rng(rows)
        columns = (np.linspace(0.0, 1.0, rows), *rng.standard_normal((2, rows)))
        sink = open(os.devnull, "w", encoding="utf-8")
        tracemalloc.start()
        try:
            _write_csv(sink, "t,G,e", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sink.close()
        assert peak < 1e6, f"formatter peaked at {peak / 1e6:.2f} MB"
