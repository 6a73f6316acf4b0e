"""Adjoint eigensystem, weight expansions, and the mode-density sums."""

import json

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


class ScipyEigensolver:
    """Stands in for the LAPACK module in ``spectral``: SciPy's
    ``eigh_tridiagonal(select="i")``, the slower, independent reference,
    answers the ``dstevx`` request."""

    def dstevx(self, d, e, n_modes):
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, n_modes - 1))
        return len(w), w, v, 0


class PatchedLapack:
    """The real routine, with one fault planted in what it returns."""

    def __init__(self, fault):
        self.fault = fault

    def dstevx(self, d, e, n_modes):
        m, w, vecs, info = _flapack.dstevx(d, e, n_modes)
        if self.fault == "nan eigenvalues":
            w[:] = np.nan
        if self.fault == "nan mode":
            vecs[:, 2] = np.nan
        if self.fault == "flat surface":  # mode 2 vanishes at z = 0
            vecs[0, 2] = 0.0
        if self.fault == "too few":  # what a failed bisection leaves
            m, w, vecs = m - 1, w[:-1], vecs[:, :-1]
        return m, w, vecs, 1 if self.fault == "info" else info


class TestLapackEigensolve:
    """``eigensystem`` makes SciPy's calls in one ``dstevx``."""

    @pytest.mark.parametrize(
        "profile, n_modes",
        [
            (lambda: constant_profile(65), 8),
            (lambda: smooth_profile(3), 20),
            (lambda: smooth_profile(11, nz=1001), 32),
            (lambda: smooth_profile(5, nz=4001), 40),
        ],
        ids=["constant-65", "advective-161", "advective-1001", "diagnose-4001"],
    )
    def test_bit_identical_to_scipy_eigh_tridiagonal(self, monkeypatch, profile, n_modes):
        profile = profile()
        ours = eigensystem(profile, n_modes)
        monkeypatch.setattr(spectral, "_flapack", ScipyEigensolver())
        ref = eigensystem(profile, n_modes)
        for name in ("eigenvalues", "modes", "mu_norms", "mu"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("info", "NumericalError", "failed with info=1, 6 of 6 eigenvalues found"),
            ("too few", "NumericalError", "failed with info=0, 5 of 6 eigenvalues found"),
            ("nan mode", "NumericalError", "gave non-finite modes"),
            (
                "nan eigenvalues",
                "NormalizationError",
                "constant-mode eigenvalue nan exceeds rounding scale",
            ),
            (
                "flat surface",
                "NormalizationError",
                "mode 2 has surface value 0.000e+00 of its sup norm; "
                "the surface-one gauge is ill-defined",
            ),
        ],
        ids=["info", "too-few", "nan-mode", "nan-eigenvalues", "flat-surface"],
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
            message = f"LAPACK dstevx {message} at largest diagonal 5.120e+04; "
            message += "lower model.k or grid.nz"
        assert report["message"] == message

    def test_non_finite_bands_are_rejected(self, monkeypatch):
        # the profile's constructor rejects a weight that leaves the double
        # range, so plant one: every band is then infinite
        monkeypatch.setattr(spectral, "mu_weight", lambda profile: np.full(65, np.inf))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="eigenproblem diagonal values must be finite"):
                eigensystem(constant_profile(65), 4)


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
