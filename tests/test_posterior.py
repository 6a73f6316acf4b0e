"""Gain directions, posterior forms, monotonicity, blind perturbations."""

import re
import tracemalloc

import numpy as np
import pytest

import colflux.posterior as posterior
from colflux.assimilate import PriorSpec, prior_quadratic_form
from colflux.errors import ConditioningError, DegenerateSeedError, DomainError
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, exp_inner_coefficients, trapezoid
from colflux.observe import Weight, apply_observation
from colflux.posterior import (
    PosteriorModel,
    analyze_gain,
    blind_direction,
    check_blind,
    gain_direction,
    gain_projections,
    monotone_weight_check,
    precision_apply,
    quadratic_form,
)
from colflux.spectral import eigensystem
from colflux.transport import FluxSignal, solve_forward

# continuum reference constants for the slowest nonzero decay pi^2:
# e^{-pi^2} and the derived two-mode gain values at t_obs = 1
EXP_NEG_PI2 = 5.172318620381234e-05
GAIN_PLUS_AT_ZERO = 1.0000517231862038
MEAN_PLUS = 1.1013159429878898
MEAN_MINUS = 0.8986840570121102


@pytest.fixture(scope="module")
def eig():
    grid = ColumnGrid(h=1.0, n=401)
    profile = CoefficientProfile(grid=grid, k=np.ones(401), w=np.zeros(401))
    return eigensystem(profile, 24)


def diagonal_prior(tgrid, sigma=1.0):
    return PriorSpec(
        mean=FluxSignal(grid=tgrid, values=np.zeros(tgrid.n)),
        kind="diagonal",
        sigma=sigma,
    )


class TestGainDirection:
    def test_two_mode_values(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        gain = gain_direction(eig, np.array([1.0, 1.0]), 1.0, 0.5, tgrid)
        lam1 = eig.eigenvalues[1]
        expected = 2.0 * (1.0 + np.exp(lam1 * (tgrid.nodes - 1.0)))
        np.testing.assert_allclose(gain.values, expected, rtol=1e-13)
        assert gain.prefactor == 2.0
        # jump value at the observation time is the one-sided limit
        assert gain.values[-1] == 2.0 * 2.0

    def test_start_value_matches_the_continuum(self, eig):
        gain = gain_direction(
            eig, np.array([1.0, 1.0]), 1.0, 1.0, TimeGrid(t_end=1.0, n=129)
        )
        assert abs(gain.values[0] - GAIN_PLUS_AT_ZERO) < 1e-8

    def test_support_ends_at_the_observation(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=65)
        gain = gain_direction(eig, np.array([1.0, -1.0]), 0.5, 1.0, tgrid)
        idx = tgrid.index_of(0.5)
        assert np.all(gain.values[idx + 1 :] == 0.0)
        assert gain.values[idx] == 0.0  # a * (1, ..., 1) = 1 - 1
        assert gain.values[idx - 1] != 0.0

    def test_truncation_envelope(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=65)
        a = np.ones(5)
        gain = gain_direction(eig, a, 0.5, 1.0, tgrid)
        idx = tgrid.index_of(0.5)
        env = gain.truncation_envelope
        assert env[idx] == 1.0
        assert np.all(env[idx + 1 :] == 0.0)
        expected = np.exp(eig.eigenvalues[4] * (tgrid.nodes[: idx + 1] - 0.5))
        np.testing.assert_allclose(env[: idx + 1], expected, rtol=1e-13)

    def test_argument_validation(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=65)
        with pytest.raises(ValueError, match="coefficient"):
            gain_direction(eig, np.array([]), 0.5, 1.0, tgrid)
        with pytest.raises(ValueError, match="modes"):
            gain_direction(eig, np.ones(25), 0.5, 1.0, tgrid)
        with pytest.raises(ValueError, match="noise"):
            gain_direction(eig, np.ones(2), 0.5, 0.0, tgrid)
        with pytest.raises(ValueError, match="node"):
            gain_direction(eig, np.ones(2), 0.503, 1.0, tgrid)
        # gain_projections shares the check: a vector, too many modes, no mode
        g = np.ones(tgrid.n)
        for shape in [(24,), (2, 25), (2, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                gain_projections(eig, np.ones(shape), 0.5, tgrid, g)


class TestStreamedDecay:
    # the decay kernel runs in row blocks; OpenBLAS's dgemv changes path
    # above 4096 rows, so t_obs sits on both sides of node 4096
    @pytest.mark.parametrize("idx", [3000, 4096, 7000])
    def test_matches_the_dense_product(self, eig, idx):
        tgrid = TimeGrid(t_end=1.0, n=8193)
        t_obs = tgrid.nodes[idx]
        decay = np.exp(np.outer(tgrid.nodes[: idx + 1] - t_obs, eig.eigenvalues))
        dense_a = np.random.default_rng(11).standard_normal(eig.n_modes)
        # trailing zero modes are left out, which changes no bit of the sum
        trimmed_a = np.zeros(eig.n_modes)
        trimmed_a[:2] = 1.0
        for a, tol in [(dense_a, 1e-14), (trimmed_a, 0.0)]:
            gain = gain_direction(eig, a, t_obs, 0.3, tgrid)
            dense = eig.profile.k[0] / 0.3 * (decay @ a)
            assert np.abs(gain.values[: idx + 1] - dense).max() <= tol * np.abs(dense).max()
            assert np.array_equal(gain.truncation_envelope[: idx + 1], decay[:, -1])
            assert not gain.values[idx + 1 :].any()
            assert not gain.truncation_envelope[idx + 1 :].any()

    def test_allocates_no_decay_matrix(self):
        grid = ColumnGrid(h=1.0, n=401)
        eig = eigensystem(CoefficientProfile(grid=grid, k=np.ones(401), w=np.zeros(401)), 40)
        tgrid = TimeGrid(t_end=1.0, n=16385)
        tgrid.nodes  # cached on the grid, not allocated by the gain
        # the whole nt x n_modes matrix would take 5.2 MB; with two modes
        # used, the kernel takes well under one 1024 x 40 block (320 KB)
        for used, bound in [(40, 5e5), (2, 1e5)]:
            a = np.zeros(40)
            a[:used] = 1.0
            tracemalloc.start()
            try:
                gain = gain_direction(eig, a, 1.0, 1.0, tgrid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = gain.values.nbytes + gain.truncation_envelope.nbytes
            assert peak - outputs < bound, f"{used} modes: peak {peak}, outputs {outputs}"

    def test_projections_match_each_gain(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=8193)
        rows = np.random.default_rng(12).standard_normal((5, 12))
        g = np.sin(7.0 * tgrid.nodes) + 0.5
        t_obs = tgrid.nodes[6000]
        got = gain_projections(eig, rows, t_obs, tgrid, g)
        g_norm = np.sqrt(trapezoid(g**2, tgrid))
        for a, projection in zip(rows, got):
            gain = gain_direction(eig, a, t_obs, 0.5, tgrid).values
            inner = trapezoid(g * gain, tgrid)
            expected = abs(inner) / (g_norm * np.sqrt(trapezoid(gain**2, tgrid)))
            assert projection == pytest.approx(expected, rel=1e-12)
        # a NaN counts as a nonzero coefficient, so its mode is not trimmed
        rows[:, 2:] = 0.0
        rows[0, -1] = np.nan
        got = gain_projections(eig, rows, t_obs, tgrid, g)
        assert np.isnan(got[0]) and np.isfinite(got[1:]).all()


def gain_pairing(gain, f):
    """<f, G_i> over [0, t_obs], each mode's exponential integrated against
    the piecewise-linear f in closed form, so the jump of G_i at t_obs costs
    no quadrature error."""
    rows = [exp_inner_coefficients(gain.grid, lam, gain.t_obs) for lam in gain.lambdas]
    return gain.prefactor * float(gain.coefficients @ (np.array(rows) @ f))


class TestGainInner:
    def test_matches_dense_quadrature(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        a = np.array([0.7, -0.4, 0.2])
        gain = gain_direction(eig, a, 0.75, 0.5, tgrid)
        f = np.sin(3.0 * tgrid.nodes) + 0.25
        s = np.linspace(0.0, 0.75, 400001)
        fs = np.interp(s, tgrid.nodes, f)
        series = sum(
            an * np.exp(lam * (s - 0.75))
            for an, lam in zip(a, eig.eigenvalues[:3])
        )
        dense = gain.prefactor * np.trapezoid(fs * series, s)
        assert abs(gain_pairing(gain, f) - dense) < 1e-8

    def test_ignores_values_after_the_observation(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        gain = gain_direction(eig, np.array([1.0, 1.0]), 0.5, 1.0, tgrid)
        f = np.ones(129)
        g = f.copy()
        g[tgrid.index_of(0.5) + 1 :] = 77.0
        assert gain_pairing(gain, f) == gain_pairing(gain, g)

    def test_against_the_forward_solver(self, eig):
        # duality oracle: for q(., 0) = 0 the observation of the forward
        # solution equals r times the gain pairing with the driving flux
        profile = eig.profile
        tgrid = TimeGrid(t_end=1.0, n=257)
        t_obs, r = 0.5, 0.3
        idx = tgrid.index_of(t_obs)
        rng = np.random.default_rng(8)
        for trial in range(5):
            a = rng.standard_normal(4)
            weight = Weight(grid=profile.grid, values=eig.modes[:, : a.size] @ a)
            gain = gain_direction(eig, a, t_obs, r, tgrid)
            f = np.cos(rng.uniform(1, 6) * tgrid.nodes) + rng.uniform(-1, 1)
            field = solve_forward(
                profile, FluxSignal(grid=tgrid, values=f), np.zeros(401)
            )
            u = apply_observation(weight, field[:, idx])
            inner = gain_pairing(gain, f)
            scale = max(abs(u / r), 1e-3)
            assert abs(inner - u / r) <= 1e-2 * scale, (
                f"trial {trial}: <G,F> = {inner}, u/r = {u / r}"
            )


class TestPosteriorForms:
    def make_model(self, eig, tgrid):
        g1 = gain_direction(eig, np.array([1.0, 1.0]), 0.5, 0.4, tgrid)
        g2 = gain_direction(eig, np.array([1.0, -1.0, 0.3]), 1.0, 0.7, tgrid)
        return PosteriorModel(prior=diagonal_prior(tgrid, 1.2), gains=(g1, g2))

    def test_form_is_prior_plus_squared_pairings(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        model = self.make_model(eig, tgrid)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(129)
        expected = prior_quadratic_form(model.prior, g)
        for gain in model.gains:
            expected += trapezoid(g * gain.values, tgrid) ** 2
        assert abs(quadratic_form(model, g) - expected) <= 1e-12 * abs(expected)

    def test_form_and_apply_are_consistent(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        model = self.make_model(eig, tgrid)
        rng = np.random.default_rng(2)
        for _ in range(4):
            g = rng.standard_normal(129)
            form = quadratic_form(model, g)
            paired = trapezoid(g * precision_apply(model, g), tgrid)
            assert abs(form - paired) <= 1e-12 * abs(form)

    def test_never_below_the_prior_form(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        model = self.make_model(eig, tgrid)
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.standard_normal(129)
            assert quadratic_form(model, g) >= prior_quadratic_form(
                model.prior, g
            ) - 1e-12

    def test_orthogonal_complement_sees_only_the_prior(self, eig):
        # remove the gain components from a random function; the posterior
        # form of the remainder must collapse to the prior form
        tgrid = TimeGrid(t_end=1.0, n=129)
        model = self.make_model(eig, tgrid)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(129)
        basis = []
        for gain in model.gains:
            v = gain.values.copy()
            for b in basis:
                v = v - trapezoid(v * b, tgrid) * b
            basis.append(v / np.sqrt(trapezoid(v * v, tgrid)))
        for b in basis:
            g = g - trapezoid(g * b, tgrid) * b
        post = quadratic_form(model, g)
        prior = prior_quadratic_form(model.prior, g)
        assert abs(post - prior) <= 1e-9 * prior

    def test_grid_mismatch_rejected(self, eig):
        g1 = gain_direction(
            eig, np.array([1.0]), 0.5, 1.0, TimeGrid(t_end=1.0, n=129)
        )
        with pytest.raises(ValueError, match="time grid"):
            PosteriorModel(prior=diagonal_prior(TimeGrid(t_end=1.0, n=65)), gains=(g1,))


class TestAnalyzeGain:
    def test_mean_projection_closed_form(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        lam1 = eig.eigenvalues[1]
        plus = analyze_gain(gain_direction(eig, np.array([1.0, 1.0]), 1.0, 1.0, tgrid))
        minus = analyze_gain(
            gain_direction(eig, np.array([1.0, -1.0]), 1.0, 1.0, tgrid)
        )
        ramp = (1.0 - np.exp(-lam1)) / lam1
        assert abs(plus.mean_projection - (1.0 + ramp)) < 1e-12
        assert abs(minus.mean_projection - (1.0 - ramp)) < 1e-12
        # and both sit on the continuum values for this fine column grid
        assert abs(plus.mean_projection - MEAN_PLUS) < 1e-5
        assert abs(minus.mean_projection - MEAN_MINUS) < 1e-5
        assert plus.mean_projection > 1.0 > minus.mean_projection > 0.0

    def test_mean_scales_with_prefactor_and_time(self, eig):
        tgrid = TimeGrid(t_end=2.0, n=129)
        gain = gain_direction(eig, np.array([1.0]), 2.0, 0.25, tgrid)
        # constant-mode gain: G = k0/r = 4 on [0, t_obs], mean = 4 * 2
        assert abs(analyze_gain(gain).mean_projection - 8.0) < 1e-12

    def test_monotone_verdicts(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        plus = gain_direction(eig, np.array([1.0, 1.0]), 1.0, 1.0, tgrid)
        minus = gain_direction(eig, np.array([1.0, -1.0]), 1.0, 1.0, tgrid)
        flat = gain_direction(eig, np.array([1.0]), 1.0, 1.0, tgrid)
        assert analyze_gain(plus).monotone == "increasing"
        assert analyze_gain(minus).monotone == "decreasing"
        assert analyze_gain(flat).monotone == "neither"


class TestMonotoneWeightCheck:
    def test_decreasing_weight_passes(self, eig):
        grid = eig.profile.grid
        rho = Weight(grid=grid, values=1.0 - grid.nodes)
        assert monotone_weight_check(eig.profile, eig, rho, 0.5)

    def test_constant_weight_passes(self, eig):
        grid = eig.profile.grid
        rho = Weight(grid=grid, values=np.ones(grid.n))
        assert monotone_weight_check(eig.profile, eig, rho, 0.5)

    def test_increasing_weight_with_variable_diffusivity(self):
        grid = ColumnGrid(h=1.0, n=401)
        profile = CoefficientProfile(grid=grid, k=1.0 + 0.5 * grid.nodes, w=np.zeros(401))
        eig = eigensystem(profile, 16)
        rho = Weight(grid=grid, values=grid.nodes)
        assert monotone_weight_check(profile, eig, rho, 0.75)

    @pytest.mark.parametrize(
        "n, shape, message",
        [
            (401, lambda z: np.sin(np.pi * z), "^weight is not monotone on the grid$"),
            (201, lambda z: 1.0 - z, "^weight and profile grids differ$"),
        ],
        ids=["non-monotone", "other-grid"],
    )
    def test_weight_rejected(self, eig, n, shape, message):
        grid = ColumnGrid(h=1.0, n=n)
        rho = Weight(grid=grid, values=shape(grid.nodes))
        with pytest.raises(ValueError, match=message):
            monotone_weight_check(eig.profile, eig, rho, 0.5)


def qr_blind(eig, t_obs, m, tgrid, seed):
    """seed - Q Q^T seed in the trapezoid inner product, Q from Householder QR
    of the sqrt(w)-scaled constraint rows; a row is kept when its QR
    diagonal entry beside the rows kept before it passes the 1e-12 drop rule."""
    idx = tgrid.index_of(t_obs)
    root = np.sqrt(tgrid.weights)
    support = np.arange(tgrid.n) <= idx
    kept = np.empty((tgrid.n, 0))
    for lam in eig.eigenvalues[:m]:
        nodal = np.where(support, np.exp(lam * (tgrid.nodes - t_obs)), 0.0)
        exact = exp_inner_coefficients(tgrid, lam, t_obs) / tgrid.weights
        for row in (nodal, exact):
            trial = np.column_stack([kept, root * row])
            r = np.linalg.qr(trial, mode="r")
            if abs(r[-1, -1]) > 1e-12 * np.linalg.norm(root * row):
                kept = trial
    q = np.linalg.qr(kept)[0]
    s = root * np.where(support, seed, 0.0)
    return (s - q @ (q.T @ s)) / root


class TestBlindDirection:
    @pytest.mark.parametrize(
        "t_obs, m, tol",
        [
            *((0.5, m, 1e-10) for m in (1, 2, 3, 4)),
            (1.0, 1, 1e-10),
            (1.0, 2, 1e-10),
            # at the window's end a third rate leaves a row 1e-6 of its norm
            # from the span of the others (family condition number ~2e7)
            (1.0, 3, 1e-8),
            (1.0, 4, 1e-8),
        ],
    )
    def test_matches_a_householder_projection(self, eig, t_obs, m, tol):
        tgrid = TimeGrid(t_end=1.0, n=257)
        seed = np.sin(5.0 * tgrid.nodes) + tgrid.nodes
        g = blind_direction(eig, t_obs, m, tgrid, seed)
        expected = qr_blind(eig, t_obs, m, tgrid, seed)
        assert np.linalg.norm(g - expected) <= tol * np.linalg.norm(expected)

    def test_a_leaking_direction_fails_the_final_check(self, eig, monkeypatch):
        # the check regenerates the family; one that differs from the family
        # orthogonalized (here by one more decay rate) must fail it
        original = posterior._blind_constraints
        calls = []

        def family(eig, t_obs, m, grid):
            calls.append(m)
            return original(eig, t_obs, m + len(calls) - 1, grid)

        monkeypatch.setattr(posterior, "_blind_constraints", family)
        tgrid = TimeGrid(t_end=1.0, n=257)
        with pytest.raises(ConditioningError, match="orthogonalization failed"):
            blind_direction(eig, 0.5, 4, tgrid, lambda t: np.cos(7.0 * t))
        assert calls == [4, 4]

    def test_single_rate_at_the_horizon_is_mean_removal(self, eig):
        # blinding only the constant mode with t_obs at the end of the
        # window reduces to removing the weighted time average
        tgrid = TimeGrid(t_end=1.0, n=257)
        seed = tgrid.nodes * (1.0 - tgrid.nodes) ** 2
        g = blind_direction(eig, 1.0, 1, tgrid, seed)
        expected = seed - trapezoid(seed, tgrid) / 1.0
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_annihilates_both_constraint_flavors(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        t_obs, m = 0.75, 8
        idx = tgrid.index_of(t_obs)
        g = blind_direction(
            eig, t_obs, m, tgrid, lambda t: np.sin(9.0 * t) + 0.3
        )
        norm = np.sqrt(trapezoid(g * g, tgrid))
        assert np.all(g[idx + 1 :] == 0.0)
        for lam in eig.eigenvalues[:m]:
            nodal = np.zeros(tgrid.n)
            sup = tgrid.nodes[: idx + 1] - t_obs
            nodal[: idx + 1] = np.exp(lam * sup)
            discrete = trapezoid(g * nodal, tgrid)
            exact = exp_inner_coefficients(tgrid, lam, t_obs) @ g
            assert abs(discrete) <= 1e-9 * norm, f"lambda={lam}"
            assert abs(exact) <= 1e-9 * norm, f"lambda={lam}"

    def test_invisible_to_resolved_gains(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        t_obs, m = 0.75, 10
        g = blind_direction(eig, t_obs, m, tgrid, lambda t: np.cos(7.0 * t))
        gnorm = np.sqrt(trapezoid(g * g, tgrid))
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal(m)
            gain = gain_direction(eig, a, t_obs, 0.5, tgrid)
            pairing = trapezoid(g * gain.values, tgrid)
            functional = gain_pairing(gain, g)
            scale = gnorm * np.sqrt(trapezoid(gain.values**2, tgrid))
            assert abs(pairing) <= 1e-8 * scale
            assert abs(functional) <= 1e-8 * scale

    def test_posterior_form_equals_prior_form(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        t_obs, m = 0.75, 8
        g = blind_direction(eig, t_obs, m, tgrid, lambda t: t * (1.0 - t))
        rng = np.random.default_rng(7)
        gains = tuple(
            gain_direction(eig, rng.standard_normal(m), t_obs, 0.5, tgrid)
            for _ in range(5)
        )
        model = PosteriorModel(prior=diagonal_prior(tgrid), gains=gains)
        post = quadratic_form(model, g)
        prior = prior_quadratic_form(model.prior, g)
        assert abs(post - prior) <= 1e-9 * prior

    def test_callable_and_array_seeds_agree(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=129)
        fn = lambda t: t * (1.0 - t)  # noqa: E731
        a = blind_direction(eig, 0.5, 4, tgrid, fn)
        b = blind_direction(eig, 0.5, 4, tgrid, fn(tgrid.nodes))
        np.testing.assert_array_equal(a, b)

    def test_seed_inside_the_span_is_degenerate(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        t_obs = 0.5
        idx = tgrid.index_of(t_obs)
        seed = np.zeros(tgrid.n)
        seed[: idx + 1] = np.exp(
            eig.eigenvalues[2] * (tgrid.nodes[: idx + 1] - t_obs)
        )
        with pytest.raises(DegenerateSeedError):
            blind_direction(eig, t_obs, 6, tgrid, seed)

    def test_seed_whose_squared_norm_overflows_is_rejected(self, eig):
        # its norm would be inf, and every relative check would pass on it
        tgrid = TimeGrid(t_end=1.0, n=129)
        seed = 1e160 * tgrid.nodes * (1.0 - tgrid.nodes)
        with pytest.raises(ValueError, match="seed's squared norm overflows"):
            blind_direction(eig, 0.5, 4, tgrid, seed)
        with pytest.raises(ValueError, match="^seed values must be finite"):
            blind_direction(eig, 0.5, 4, tgrid, lambda t: np.inf if t > 0.25 else t)

    def test_mode_count_guards(self, eig):
        tgrid = TimeGrid(t_end=1.0, n=257)
        with pytest.raises(DomainError, match="n_modes"):
            blind_direction(eig, 0.5, 25, tgrid, lambda t: t)
        with pytest.raises(DomainError, match="m must be"):
            blind_direction(eig, 0.5, 0, tgrid, lambda t: t)

    def test_conditioning_cap(self):
        grid = ColumnGrid(h=1.0, n=401)
        profile = CoefficientProfile(grid=grid, k=np.ones(401), w=np.zeros(401))
        eig = eigensystem(profile, 44)
        tgrid = TimeGrid(t_end=1.0, n=4097)
        with pytest.raises(DomainError, match="conditioning cap"):
            blind_direction(eig, 0.5, 44, tgrid, lambda t: t)

    def test_resolution_guard(self, eig):
        # lambda_19 ~ (19 pi)^2 ~ 3562; a 65-node grid has dt = 1/64, so
        # lambda * dt ~ 56 > 20 and the construction must refuse
        tgrid = TimeGrid(t_end=1.0, n=65)
        with pytest.raises(DomainError, match="too coarse"):
            blind_direction(eig, 0.5, 20, tgrid, lambda t: t)

    def test_check_blind_is_the_check_blind_direction_makes(self, eig):
        # the CLI refuses m and the seed with this check before the
        # eigensolve; blind_direction calls it too, so the two cannot disagree
        tgrid = TimeGrid(t_end=1.0, n=129)
        seed = tgrid.nodes * (1.0 - tgrid.nodes)
        g, norm = check_blind(eig.n_modes, 4, tgrid, 0.5, seed)
        np.testing.assert_array_equal(g[:65], seed[:65])
        assert not g[65:].any()
        assert norm == pytest.approx(np.sqrt(trapezoid(g**2, tgrid)), rel=1e-14)
        for m, bad in ((0, seed), (eig.n_modes + 1, seed), (4, 1e160 * seed)):
            with pytest.raises(ValueError) as plan:
                check_blind(eig.n_modes, m, tgrid, 0.5, bad)
            with pytest.raises(ValueError) as library:
                blind_direction(eig, 0.5, m, tgrid, bad)
            assert type(plan.value) is type(library.value)
            assert str(plan.value) == str(library.value)
