"""Adjoint eigensystem, weight expansions, and the mode-density sums."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import colflux.cli as cli
import colflux.spectral as spectral
from colflux.errors import DomainError
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, _flapack
from colflux.spectral import (
    check_n_modes,
    eigensystem,
    expand_weight,
    expansion_residual,
    muntz_partial_sums,
)


def constant_profile(nz, k=1.0):
    grid = ColumnGrid(h=1.0, n=nz)
    return CoefficientProfile(grid=grid, k=np.full(nz, k), w=np.zeros(nz))


def smooth_profile(seed, nz=161):
    rng = np.random.default_rng(seed)
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    k = 1.0 + rng.random() + 0.4 * rng.uniform(-1, 1) * np.cos(np.pi * z)
    w = rng.uniform(-1.5, 1.5) * np.sin(np.pi * z) ** 2
    return CoefficientProfile(grid=grid, k=k, w=w)


class TestConstantCoefficients:
    """With k constant and w = 0 the discrete modes are sampled cosines."""

    def test_discrete_eigenvalues_exact(self):
        nz, n_modes = 201, 12
        eig = eigensystem(constant_profile(nz), n_modes)
        dz = 1.0 / (nz - 1)
        n = np.arange(n_modes)
        expected = (2.0 - 2.0 * np.cos(n * np.pi * dz)) / dz**2
        np.testing.assert_allclose(eig.eigenvalues, expected, rtol=1e-10, atol=1e-9)

    def test_modes_are_sampled_cosines(self):
        nz = 201
        eig = eigensystem(constant_profile(nz), 8)
        z = eig.profile.grid.nodes
        for n in range(8):
            err = np.abs(eig.modes[:, n] - np.cos(n * np.pi * z)).max()
            assert err < 1e-9, f"mode {n}: max deviation {err:.2e}"

    def test_first_nonzero_eigenvalue_converges_to_pi_squared(self):
        eig = eigensystem(constant_profile(401), 4)
        assert abs(eig.eigenvalues[1] - np.pi**2) < 1e-4 * np.pi**2

    def test_diffusivity_scales_eigenvalues(self):
        base = eigensystem(constant_profile(161), 6)
        scaled = eigensystem(constant_profile(161, k=3.0), 6)
        np.testing.assert_allclose(
            scaled.eigenvalues[1:], 3.0 * base.eigenvalues[1:], rtol=1e-12
        )

    def test_mu_norms(self):
        # trapezoid integrates the sampled cos^2 exactly here: 1 for the
        # constant mode, 1/2 for the rest
        eig = eigensystem(constant_profile(161), 6)
        np.testing.assert_allclose(eig.mu_norms[0], 1.0, rtol=1e-13)
        np.testing.assert_allclose(eig.mu_norms[1:], 0.5, rtol=1e-12)


class TestGeneralProfiles:
    def test_constant_mode_and_gauge(self):
        eig = eigensystem(smooth_profile(7), 10)
        assert eig.eigenvalues[0] == 0.0
        np.testing.assert_allclose(eig.modes[:, 0], 1.0, atol=1e-12)
        np.testing.assert_array_equal(eig.modes[0], np.ones(10))

    def test_mu_orthogonality(self):
        eig = eigensystem(smooth_profile(19), 12)
        w = eig.profile.grid.weights * eig.mu
        gram = eig.modes.T @ (w[:, None] * eig.modes)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-10 * np.diag(gram).max()
        np.testing.assert_allclose(np.diag(gram), eig.mu_norms, rtol=1e-13)

    def test_advection_leaves_spectrum_nonnegative_increasing(self):
        eig = eigensystem(smooth_profile(23), 15)
        assert np.all(eig.eigenvalues >= 0.0)
        assert np.all(np.diff(eig.eigenvalues) > 0.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_profiles_keep_the_structure(self, seed):
        eig = eigensystem(smooth_profile(seed), 8)
        assert eig.eigenvalues[0] == 0.0
        assert np.all(np.diff(eig.eigenvalues) > 0.0)
        w = eig.profile.grid.weights * eig.mu
        gram = eig.modes.T @ (w[:, None] * eig.modes)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-9 * np.diag(gram).max()

    def test_mode_count_guard(self):
        profile = constant_profile(81)
        with pytest.raises(DomainError, match="n_modes"):
            eigensystem(profile, 11)  # 81 // 8 = 10
        with pytest.raises(DomainError, match="n_modes"):
            eigensystem(profile, 0)
        assert eigensystem(profile, 10).n_modes == 10

    def test_the_guard_is_one_check(self, monkeypatch):
        # eigensystem asks check_n_modes, the guard the CLI asks too
        grid = ColumnGrid(h=1.0, n=81)
        message = "^n_modes must be between 1 and n//8 = 10 for this grid, got 11$"
        with pytest.raises(DomainError, match=message):
            check_n_modes(grid, 11)
        assert check_n_modes(grid, 10.0) == 10 and check_n_modes(grid, 1) == 1
        asked = []
        monkeypatch.setattr(
            spectral, "check_n_modes", lambda grid, n: asked.append(n) or check_n_modes(grid, n)
        )
        eigensystem(constant_profile(81), 3)
        assert asked == [3]


def scipy_eigenpairs(d, e, count, tol, where):
    """Stands in for ``spectral._eigenpairs``: SciPy's
    ``eigh_tridiagonal(select="i")`` at the same tolerance, the slower,
    independent reference, makes the ``dstebz`` and ``dstein`` calls."""
    return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1), tol=tol)


class PatchedLapack:
    """The real routines, with one fault planted in what they return."""

    def __init__(self, fault):
        self.fault = fault

    def dstebz(self, d, e, count, abstol):
        w, iblock, isplit, info = _flapack.dstebz(d, e, count, abstol)
        if self.fault == "too few":  # what a failed bisection leaves
            w, iblock = w[:-1], iblock[:-1]
        return w, iblock, isplit, 1 if self.fault == "info" else info

    def dstein(self, d, e, w, iblock, isplit):
        vecs, info = _flapack.dstein(d, e, w, iblock, isplit)
        if self.fault == "nan eigenvalues":  # in the caller's array
            w[:] = np.nan
        if self.fault == "outside bracket":  # mode 3's bisection, 1e-6 off
            w[3] += 1e-6
        if self.fault == "nan mode":
            vecs[:, 2] = np.nan
        if self.fault == "flat surface":  # mode 2, less the mode 1 that cancels it at z = 0
            vecs[:, 2] -= vecs[0, 2] / vecs[0, 1] * vecs[:, 1]
        if self.fault == "residual":  # mode 3 turned 1e-7 towards mode 4
            vecs[:, 3] = np.cos(1e-7) * vecs[:, 3] + np.sin(1e-7) * vecs[:, 4]
        return vecs, 2 if self.fault == "dstein info" else info


def longdouble_quotients(eig):
    """The stiffness Rayleigh quotient of each mode, in extended precision."""
    mu = eig.mu.astype(np.longdouble)
    km = eig.profile.k.astype(np.longdouble) * mu
    face = (km[:-1] + km[1:]) / 2 / np.longdouble(eig.profile.grid.spacing)
    b = eig.profile.grid.weights.astype(np.longdouble) * mu
    modes = eig.modes.astype(np.longdouble)
    return (face @ np.diff(modes, axis=0) ** 2) / (b @ modes**2)


PROFILES = pytest.mark.parametrize(
    "profile, n_modes",
    [
        (lambda: constant_profile(65), 8),
        (lambda: smooth_profile(3), 20),
        (lambda: smooth_profile(11, nz=1001), 32),
        (lambda: smooth_profile(5, nz=4001), 40),
    ],
    ids=["constant-65", "advective-161", "advective-1001", "diagnose-4001"],
)


class TestLapackEigensolve:
    """``eigensystem`` makes SciPy's ``dstebz`` and ``dstein`` calls, and
    takes each eigenvalue from its mode's stiffness Rayleigh quotient."""

    @PROFILES
    def test_bit_identical_to_scipy_eigh_tridiagonal(self, monkeypatch, profile, n_modes):
        profile = profile()
        ours = eigensystem(profile, n_modes)
        monkeypatch.setattr(spectral, "_eigenpairs", scipy_eigenpairs)
        ref = eigensystem(profile, n_modes)
        for name in ("eigenvalues", "modes", "mu_norms", "mu", "mode_errors"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name

    @PROFILES
    def test_eigenvalues_are_the_quotients_to_rounding(self, profile, n_modes):
        eig = eigensystem(profile(), n_modes)
        assert eig.eigenvalues[0] == 0.0 and np.all(eig.modes[:, 0] == 1.0)
        exact = longdouble_quotients(eig)[1:]
        assert np.abs(eig.eigenvalues[1:] - exact).max() <= 1e-14 * exact.max()
        assert np.all(np.abs(eig.eigenvalues[1:] / exact - 1) <= 1e-14)

    def test_constant_coefficients_give_the_discrete_eigenvalues(self):
        # 4 sin^2(n pi dz / 2) / dz^2, with no cancellation
        nz, n_modes = 201, 12
        eig = eigensystem(constant_profile(nz), n_modes)
        dz = 1.0 / (nz - 1)
        expected = 4.0 * np.sin(np.arange(n_modes) * np.pi * dz / 2) ** 2 / dz**2
        np.testing.assert_allclose(eig.eigenvalues, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("power", [-40, 40])
    def test_a_power_of_two_in_k_scales_the_eigenvalues_exactly(self, power):
        # the tridiagonal is scaled to a largest diagonal in [1/2, 1) before
        # LAPACK sees it, so 2**power k gives the same bands, bit for bit
        base = eigensystem(constant_profile(161), 10)
        scaled = eigensystem(constant_profile(161, k=2.0**power), 10)
        assert np.array_equal(scaled.eigenvalues, 2.0**power * base.eigenvalues)
        for name in ("modes", "mu_norms", "mu", "mode_errors"):
            assert np.array_equal(getattr(scaled, name), getattr(base, name)), name

    def test_mode_errors_bound_the_rounding_of_the_modes(self):
        # against the sampled cosines, the exact discrete modes of constant k
        for nz, n_modes in [(1001, 2), (1001, 32), (4001, 2), (4001, 40)]:
            eig = eigensystem(constant_profile(nz), n_modes)
            z = eig.profile.grid.nodes
            exact = np.cos(np.arange(n_modes) * np.pi * z[:, None])
            errors = np.abs(eig.modes - exact).max(axis=0)
            assert eig.mode_errors[0] == errors[0] == 0.0
            assert np.all(errors[1:] <= eig.mode_errors[1:])
            # eps ||T|| / lambda_1: 1.5e-10 at nz = 1001, 2.3e-9 at nz = 4001
            assert eig.mode_errors[1] <= 1e-11 * nz

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            (
                "info",
                "NumericalError",
                "LAPACK dstebz failed with info=1, 7 of 7 eigenvalues found",
            ),
            (
                "too few",
                "NumericalError",
                "LAPACK dstebz failed with info=0, 6 of 7 eigenvalues found",
            ),
            (
                "dstein info",
                "NumericalError",
                "LAPACK dstein failed with info=2: eigenvectors did not converge",
            ),
            ("nan mode", "NumericalError", "LAPACK dstein gave non-finite modes"),
            (
                "nan eigenvalues",
                "NumericalError",
                "mode 0's Rayleigh quotient 0.000000e+00 lies outside its bisection bracket",
            ),
            (
                "outside bracket",
                "NumericalError",
                "mode 3's Rayleigh quotient 8.880076e+01 lies outside its bisection bracket",
            ),
            (
                "residual",
                "NumericalError",
                "mode 3's residual 6.903e-06 exceeds the bisection tolerance 5.960e-08",
            ),
            (
                "flat surface",
                "NormalizationError",
                "mode 2 has surface value <rounding> of its sup norm; "
                "the surface-one gauge is ill-defined",
            ),
        ],
        ids=[
            "info",
            "too-few",
            "dstein-info",
            "nan-mode",
            "nan-eigenvalues",
            "outside-bracket",
            "residual",
            "flat-surface",
        ],
    )
    def test_planted_fault_exits_3_naming_its_cause(
        self, tmp_path, capsys, monkeypatch, fault, error, message
    ):
        monkeypatch.setattr(spectral, "_flapack", PatchedLapack(fault))
        config = {"grid": {"nz": 161, "nt": 64}, "spectral": {"n_modes": 6}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["eigen", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == error
        if error == "NumericalError":  # with the eigenproblem's scale and what to change
            message += " at largest diagonal 5.120e+04; lower model.k or grid.nz"
        # a value that is zero but for rounding shows as some number below 1e-8
        pattern = re.escape(message).replace("<rounding>", r"-?\d\.\d{3}e-(09|[1-9]\d)")
        assert re.fullmatch(pattern, report["message"]), report["message"]

    def test_non_finite_bands_are_rejected(self, monkeypatch):
        # the profile's constructor rejects a weight that leaves the double
        # range, so plant one on a built profile: every band is then infinite
        profile = constant_profile(65)
        monkeypatch.setitem(profile.__dict__, "mu", np.full(65, np.inf))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="eigenproblem diagonal values must be finite"):
                eigensystem(profile, 4)


class TestExpansion:
    def test_round_trip_of_synthesized_weight(self):
        rng = np.random.default_rng(4)
        eig = eigensystem(smooth_profile(4), 10)
        a = rng.standard_normal(10)
        rho = eig.modes @ a
        np.testing.assert_allclose(expand_weight(rho, eig), a, atol=1e-11)
        assert expansion_residual(rho, eig) < 1e-10

    def test_constant_weight_hits_only_the_constant_mode(self):
        eig = eigensystem(smooth_profile(9), 8)
        a = expand_weight(np.ones(eig.profile.grid.n), eig)
        np.testing.assert_allclose(a, np.eye(8)[0], atol=1e-12)

    def test_unresolved_weight_has_large_residual(self):
        eig = eigensystem(constant_profile(401), 6)
        z = eig.profile.grid.nodes
        rho = np.cos(20 * np.pi * z)  # orthogonal to all six kept modes
        assert expansion_residual(rho, eig) > 0.99

    def test_zero_weight_has_zero_residual(self):
        # the residual is relative to the weight's norm, which is 0 here
        eig = eigensystem(constant_profile(161), 4)
        assert expansion_residual(np.zeros(161), eig) == 0.0

    def test_shape_checks(self):
        eig = eigensystem(constant_profile(161), 4)
        with pytest.raises(ValueError, match="nodal"):
            expand_weight(np.ones(7), eig)


class TestMuntzSums:
    def test_growth_rate_matches_the_quadratic_law(self):
        eig = eigensystem(constant_profile(401), 40)
        sums = muntz_partial_sums(eig)
        assert abs(sums.growth_rate - np.pi**2) < 0.02 * np.pi**2

    def test_reciprocal_sums_converge_to_the_closed_form(self):
        # sum_{n>=0} 1/(1 + n^2 pi^2) = 1 + (coth(1) - 1)/2
        eig = eigensystem(constant_profile(401), 50)
        sums = muntz_partial_sums(eig)
        expected = 1.0 + (1.0 / np.tanh(1.0) - 1.0) / 2.0
        assert abs(sums.limit_estimate - expected) < 1e-3
        assert np.all(np.diff(sums.reciprocal_sums) > 0.0)
        assert sums.reciprocal_sums[-1] < sums.limit_estimate

    def test_root_sums_grow_logarithmically(self):
        # doubling the mode count adds about log(2)/pi to the root sum
        eig = eigensystem(constant_profile(401), 48)
        sums = muntz_partial_sums(eig)
        increment = sums.root_sums[-1] - sums.root_sums[23]
        assert abs(increment - np.log((48 - 1) / (24 - 1)) / np.pi) < 0.01

    def test_needs_enough_modes(self):
        eig = eigensystem(constant_profile(161), 3)
        with pytest.raises(DomainError, match="4 modes"):
            muntz_partial_sums(eig)
