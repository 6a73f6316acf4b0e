"""Priors, cost/gradient consistency, the MAP solve, and the dense oracle."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from colflux import assimilate
from colflux.assimilate import (
    AssimilationProblem,
    PriorSpec,
    _forward_map_matrix_adjoint,
    _forward_map_rows,
    cost,
    gradient,
    hessian_form,
    map_estimate,
    oracle_bayes,
    prior_apply_inverse,
    prior_quadratic_form,
    representer_rows,
)
from colflux.errors import CapacityError, DomainError, NumericalError
from colflux.model import validate_profile
from colflux.numerics import ColumnGrid, TimeGrid, trapezoid
from colflux.observe import ObservationSet, Weight, apply_observation, synthesize_data
from colflux.transport import FluxSignal, solve_forward


def constant_profile(nz=65, k=1.0):
    g = ColumnGrid(h=1.0, n=nz)
    return validate_profile(np.full(nz, k), np.zeros(nz), g)


def dirichlet_prior(tgrid, sigma=1.0, mean=None):
    values = np.zeros(tgrid.n) if mean is None else mean
    return PriorSpec(mean=FluxSignal(grid=tgrid, values=values), sigma=sigma)


def admissible_bump(tgrid):
    """A smooth direction vanishing at both ends of the window."""
    return np.sin(np.pi * tgrid.nodes / tgrid.t_end) ** 2


def small_problem(n_obs=2, nt=65, nz=65, kind="dirichlet_inverse_laplacian"):
    profile = constant_profile(nz)
    tgrid = TimeGrid(t_end=1.0, n=nt)
    z = profile.grid.nodes
    weights = tuple(
        Weight(grid=profile.grid, values=1.0 + np.cos((i + 1) * np.pi * z))
        for i in range(n_obs)
    )
    times = np.round(np.linspace(0.25, 1.0, n_obs), 10)
    times = np.array([tgrid.nodes[tgrid.index_of(t)] for t in times])
    obs = ObservationSet(
        times=times,
        values=0.1 * np.arange(1.0, n_obs + 1.0),
        noise_levels=np.full(n_obs, 0.2),
    )
    if kind == "periodic_zero_mean_inverse_laplacian":
        mean = np.sin(2.0 * np.pi * tgrid.nodes)
    else:
        mean = np.zeros(tgrid.n)
    prior = PriorSpec(mean=FluxSignal(grid=tgrid, values=mean), kind=kind, sigma=0.7)
    return AssimilationProblem(
        profile=profile,
        q0=np.zeros(nz),
        observations=obs,
        weights=weights,
        prior=prior,
    )


def released_problem(kind):
    """small_problem(3) with a nonzero initial state and a nonzero prior mean."""
    base = small_problem(3, nt=65, nz=49, kind=kind)
    tgrid = base.prior.grid
    z = base.profile.grid.nodes
    # periodic in time, so every kind accepts it; its mean is not zero
    mean = 0.4 + 0.5 * np.cos(2.0 * np.pi * tgrid.nodes)
    prior = PriorSpec(mean=FluxSignal(grid=tgrid, values=mean), kind=kind, sigma=0.7)
    return AssimilationProblem(
        profile=base.profile,
        q0=1.0 + 0.5 * np.cos(np.pi * z),
        observations=base.observations,
        weights=base.weights,
        prior=prior,
    )


class TestPriorSpec:
    def test_unknown_kind_rejected(self):
        tgrid = TimeGrid(t_end=1.0, n=9)
        with pytest.raises(ValueError, match="kind"):
            PriorSpec(mean=FluxSignal(grid=tgrid, values=np.zeros(9)), kind="rbf")

    def test_sigma_must_be_positive(self):
        tgrid = TimeGrid(t_end=1.0, n=9)
        with pytest.raises(ValueError, match="sigma"):
            PriorSpec(mean=FluxSignal(grid=tgrid, values=np.zeros(9)), sigma=0.0)

    def test_periodic_mean_is_centered_on_construction(self):
        tgrid = TimeGrid(t_end=1.0, n=17)
        spec = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.full(17, 3.0)),
            kind="periodic_zero_mean_inverse_laplacian",
        )
        np.testing.assert_array_equal(spec.mean.values, np.zeros(17))

    def test_periodic_mean_must_be_periodic(self):
        tgrid = TimeGrid(t_end=1.0, n=17)
        with pytest.raises(ValueError, match="periodic"):
            PriorSpec(
                mean=FluxSignal(grid=tgrid, values=tgrid.nodes),
                kind="periodic_zero_mean_inverse_laplacian",
            )


class TestPriorOperators:
    def test_dirichlet_stencil_on_its_eigenvector(self):
        # sin(pi t) vanishes at both ends and is an exact eigenvector of
        # the 3-point stencil with value (2 - 2 cos(pi dt)) / dt^2
        tgrid = TimeGrid(t_end=1.0, n=129)
        spec = dirichlet_prior(tgrid, sigma=0.5)
        g = np.sin(np.pi * tgrid.nodes)
        out = prior_apply_inverse(spec, g)
        dt = tgrid.spacing
        lam = (2.0 - 2.0 * np.cos(np.pi * dt)) / dt**2
        assert out[0] == 0.0 and out[-1] == 0.0
        # the stencil subtracts nearly equal numbers, so rounding scales
        # like eps / (dt^2 sigma^2) near the sine's flat top
        atol = 4.0 * np.finfo(float).eps / (dt**2 * 0.25)
        np.testing.assert_allclose(
            out[1:-1], lam * g[1:-1] / 0.25, rtol=1e-9, atol=atol
        )
        assert abs(lam - np.pi**2) < np.pi**4 * dt**2 / 12.0 * 1.01

    def test_periodic_stencil_on_its_eigenvector(self):
        tgrid = TimeGrid(t_end=1.0, n=65)
        spec = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(65)),
            kind="periodic_zero_mean_inverse_laplacian",
        )
        g = np.cos(2.0 * np.pi * tgrid.nodes)
        out = prior_apply_inverse(spec, g)
        dt = tgrid.spacing
        lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * dt)) / dt**2
        np.testing.assert_allclose(out, lam * g, rtol=1e-10, atol=1e-10)
        assert out[-1] == out[0]

    def test_diagonal_is_a_scale(self):
        tgrid = TimeGrid(t_end=1.0, n=33)
        spec = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(33)),
            kind="diagonal",
            sigma=2.0,
        )
        g = np.sin(3.0 * tgrid.nodes)
        np.testing.assert_array_equal(prior_apply_inverse(spec, g), g / 4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_by_parts(self, seed):
        # with zero endpoints the form telescopes to sum (dg)^2 / (s^2 dt)
        rng = np.random.default_rng(seed)
        tgrid = TimeGrid(t_end=2.0, n=41)
        spec = dirichlet_prior(tgrid, sigma=1.3)
        g = np.zeros(41)
        g[1:-1] = rng.standard_normal(39)
        form = prior_quadratic_form(spec, g)
        expected = np.sum(np.diff(g) ** 2) / (1.3**2 * tgrid.spacing)
        assert abs(form - expected) <= 1e-12 * expected
        assert form > 0.0

    def test_form_domain_is_enforced(self):
        tgrid = TimeGrid(t_end=1.0, n=17)
        spec = dirichlet_prior(tgrid)
        with pytest.raises(DomainError, match="Dirichlet"):
            prior_apply_inverse(spec, np.ones(17))
        periodic = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(17)),
            kind="periodic_zero_mean_inverse_laplacian",
        )
        with pytest.raises(DomainError, match="mean"):
            prior_apply_inverse(periodic, np.cos(2 * np.pi * tgrid.nodes) + 1.0)
        with pytest.raises(DomainError, match="periodic"):
            prior_apply_inverse(periodic, tgrid.nodes - 0.5)


class TestProblemValidation:
    def test_weight_count_must_match(self):
        problem = small_problem(2)
        with pytest.raises(ValueError, match="per observation"):
            AssimilationProblem(
                profile=problem.profile,
                q0=problem.q0,
                observations=problem.observations,
                weights=problem.weights[:1],
                prior=problem.prior,
            )

    def test_positive_noise_required(self):
        problem = small_problem(1)
        obs = ObservationSet(
            times=problem.observations.times,
            values=problem.observations.values,
            noise_levels=np.zeros(1),
        )
        with pytest.raises(ValueError, match="positive noise"):
            AssimilationProblem(
                profile=problem.profile,
                q0=problem.q0,
                observations=obs,
                weights=problem.weights,
                prior=problem.prior,
            )

    def test_observation_times_must_be_grid_nodes(self):
        problem = small_problem(1)
        obs = ObservationSet(
            times=np.array([0.26]),
            values=np.zeros(1),
            noise_levels=np.ones(1),
        )
        with pytest.raises(ValueError, match="node"):
            AssimilationProblem(
                profile=problem.profile,
                q0=problem.q0,
                observations=obs,
                weights=problem.weights,
                prior=problem.prior,
            )


class TestCostAndGradient:
    def test_cost_vanishes_at_a_perfect_fit(self):
        problem = small_problem(2)
        truth = problem.prior.mean
        field = solve_forward(problem.profile, truth, problem.q0)
        y = np.array(
            [
                apply_observation(w, field.column(i))
                for w, i in zip(problem.weights, problem.obs_indices)
            ]
        )
        fitted = AssimilationProblem(
            profile=problem.profile,
            q0=problem.q0,
            observations=ObservationSet(
                times=problem.observations.times,
                values=y,
                noise_levels=problem.observations.noise_levels,
            ),
            weights=problem.weights,
            prior=problem.prior,
        )
        assert cost(fitted, truth) == 0.0

    def test_zero_observations_reduce_to_the_prior_form(self):
        problem = small_problem(0)
        tgrid = problem.prior.grid
        g = admissible_bump(tgrid)
        flux = FluxSignal(grid=tgrid, values=problem.prior.mean.values + g)
        assert abs(
            cost(problem, flux) - 0.5 * prior_quadratic_form(problem.prior, g)
        ) < 1e-14
        np.testing.assert_allclose(
            gradient(problem, flux),
            prior_apply_inverse(problem.prior, g),
            atol=1e-14,
        )

    @pytest.mark.parametrize("kind", [
        "dirichlet_inverse_laplacian",
        "periodic_zero_mean_inverse_laplacian",
        "diagonal",
    ])
    def test_cost_is_exactly_quadratic(self, kind):
        # the forward map is affine, so J(F0 + s G) must match its own
        # second-order expansion at every s
        problem = small_problem(2, kind=kind)
        tgrid = problem.prior.grid
        if kind == "periodic_zero_mean_inverse_laplacian":
            g = np.cos(4.0 * np.pi * tgrid.nodes)
        else:
            g = admissible_bump(tgrid)
        f0 = problem.prior.mean
        j0 = cost(problem, f0)
        slope = trapezoid(gradient(problem, f0) * g, tgrid)
        curvature = hessian_form(problem, g)
        for s in (-1.0, -0.1, 0.1, 1.0):
            flux = FluxSignal(grid=tgrid, values=f0.values + s * g)
            predicted = j0 + s * slope + 0.5 * s**2 * curvature
            actual = cost(problem, flux)
            assert abs(actual - predicted) <= 1e-8 * max(1.0, abs(actual)), (
                f"kind={kind}, s={s}: J={actual}, expansion={predicted}"
            )

    def test_gradient_matches_finite_differences(self):
        problem = small_problem(3, nt=65)
        tgrid = problem.prior.grid
        base = FluxSignal(
            grid=tgrid, values=0.3 * admissible_bump(tgrid)
        )
        grad = gradient(problem, base)
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(5):
            g = np.zeros(tgrid.n)
            g[1:-1] = rng.standard_normal(tgrid.n - 2)
            plus = cost(problem, FluxSignal(grid=tgrid, values=base.values + eps * g))
            minus = cost(problem, FluxSignal(grid=tgrid, values=base.values - eps * g))
            fd = (plus - minus) / (2.0 * eps)
            direct = trapezoid(grad * g, tgrid)
            assert abs(fd - direct) <= 1e-6 * max(1.0, abs(fd))

    def test_inadmissible_flux_is_rejected(self):
        problem = small_problem(1)
        tgrid = problem.prior.grid
        with pytest.raises(DomainError):
            cost(problem, FluxSignal(grid=tgrid, values=np.ones(tgrid.n)))


class TestRepresenters:
    def test_rows_realize_the_scaled_observation_map(self):
        # <rep_i, G> over [0, t_i] (with the restricted trapezoid weights)
        # must equal u_i(G)/r_i for the zero-initial forward map
        problem = small_problem(2, nt=33, nz=33)
        rep = representer_rows(problem)
        tgrid = problem.prior.grid
        dt = tgrid.spacing
        rng = np.random.default_rng(3)
        for _ in range(4):
            g = rng.standard_normal(tgrid.n)
            field = solve_forward(
                problem.profile, FluxSignal(grid=tgrid, values=g), np.zeros(33)
            )
            for i, n_i in enumerate(problem.obs_indices):
                u = apply_observation(problem.weights[i], field.column(n_i))
                w = np.full(n_i + 1, dt)
                w[0] = 0.5 * dt
                w[-1] = 0.5 * dt
                inner = np.dot(rep[i, : n_i + 1] * w, g[: n_i + 1])
                target = u / problem.observations.noise_levels[i]
                assert abs(inner - target) <= 1e-12 * max(1.0, abs(target))

    def test_rows_vanish_after_their_time(self):
        problem = small_problem(2, nt=33, nz=33)
        rep = representer_rows(problem)
        for i, n_i in enumerate(problem.obs_indices):
            assert np.all(rep[i, n_i + 1 :] == 0.0)
            assert np.abs(rep[i, : n_i + 1]).min() > 0.0


class TestMapEstimate:
    @pytest.mark.parametrize("kind", [
        "dirichlet_inverse_laplacian",
        "periodic_zero_mean_inverse_laplacian",
        "diagonal",
    ])
    def test_matches_the_dense_posterior_mean(self, kind):
        problem = small_problem(3, nt=65, nz=49, kind=kind)
        flux, report = map_estimate(problem)
        mean, _ = oracle_bayes(problem)
        assert report["converged"]
        scale = np.abs(mean).max()
        assert np.abs(flux.values - mean).max() <= 1e-6 * max(scale, 1.0), (
            f"kind={kind}: max deviation "
            f"{np.abs(flux.values - mean).max():.3e} at scale {scale:.3e}"
        )

    @pytest.mark.parametrize("nt", [2, 3, 4, 5])
    def test_smallest_time_grids(self, nt):
        # two nodes leave nothing free under the Dirichlet prior; three to
        # five leave the preconditioner a 1-, 2- or 3-node system
        profile = constant_profile(17)
        tgrid = TimeGrid(t_end=1.0, n=nt)
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(17),
            observations=ObservationSet(
                times=np.array([1.0]), values=np.array([0.3]), noise_levels=np.array([0.1])
            ),
            weights=(Weight(grid=profile.grid, values=np.ones(17)),),
            prior=dirichlet_prior(tgrid),
        )
        flux, report = map_estimate(problem)
        mean, _ = oracle_bayes(problem)
        assert report["converged"]
        np.testing.assert_allclose(flux.values, mean, rtol=0.0, atol=1e-9)
        if nt == 2:
            np.testing.assert_array_equal(flux.values, problem.prior.mean.values)

    def test_converges_in_about_rank_iterations(self):
        problem = small_problem(3, nt=129)
        _, report = map_estimate(problem)
        assert report["iterations"] <= 10
        assert report["relative_residual"] <= 1e-8

    def test_data_from_the_prior_mean_returns_it_exactly(self):
        problem = small_problem(2)
        field = solve_forward(problem.profile, problem.prior.mean, problem.q0)
        y = np.array(
            [
                apply_observation(w, field.column(i))
                for w, i in zip(problem.weights, problem.obs_indices)
            ]
        )
        fitted = AssimilationProblem(
            profile=problem.profile,
            q0=problem.q0,
            observations=ObservationSet(
                times=problem.observations.times,
                values=y,
                noise_levels=problem.observations.noise_levels,
            ),
            weights=problem.weights,
            prior=problem.prior,
        )
        flux, report = map_estimate(fitted)
        np.testing.assert_array_equal(flux.values, fitted.prior.mean.values)
        assert report["iterations"] == 0

    def test_stationarity_at_the_estimate(self):
        problem = small_problem(3, nt=65)
        flux, _ = map_estimate(problem)
        g_map = gradient(problem, flux)
        g_ref = gradient(problem, problem.prior.mean)
        tgrid = problem.prior.grid
        norm_map = np.sqrt(trapezoid(g_map**2, tgrid))
        norm_ref = np.sqrt(trapezoid(g_ref**2, tgrid))
        assert norm_map <= 1e-6 * norm_ref

    @pytest.mark.parametrize("kind", [
        "dirichlet_inverse_laplacian",
        "periodic_zero_mean_inverse_laplacian",
        "diagonal",
    ])
    def test_stationarity_with_initial_state_and_prior_mean(self, kind):
        # the reused map plus the free response must reproduce the cost that
        # the sweep-based gradient differentiates
        problem = released_problem(kind)
        flux, _ = map_estimate(problem)
        g_map = gradient(problem, flux)
        g_ref = gradient(problem, problem.prior.mean)
        tgrid = problem.prior.grid
        norm_map = np.sqrt(trapezoid(g_map**2, tgrid))
        norm_ref = np.sqrt(trapezoid(g_ref**2, tgrid))
        assert norm_ref > 0.0
        assert norm_map <= 1e-6 * norm_ref, f"kind={kind}: {norm_map / norm_ref:.3e}"

    def test_pulls_toward_noiseless_truth(self):
        # strong data (tiny r) should move the estimate most of the way
        # from the prior mean toward the generating flux's observations
        profile = constant_profile(49)
        tgrid = TimeGrid(t_end=1.0, n=65)
        z = profile.grid.nodes
        weights = tuple(
            Weight(grid=profile.grid, values=1.0 + np.cos(np.pi * z))
            for _ in range(3)
        )
        truth = FluxSignal(grid=tgrid, values=admissible_bump(tgrid))
        times = np.array([0.25, 0.5, 1.0])
        obs = synthesize_data(
            profile, truth, np.zeros(49), weights, times,
            np.zeros(3), seed=0,
        )
        strong = ObservationSet(
            times=times, values=obs.values, noise_levels=np.full(3, 1e-4)
        )
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(49),
            observations=strong,
            weights=weights,
            prior=dirichlet_prior(tgrid),
        )
        flux, _ = map_estimate(problem)
        field = solve_forward(profile, flux, np.zeros(49))
        for w, t, y in zip(weights, times, obs.values):
            u = apply_observation(w, field.column(tgrid.index_of(t)))
            assert abs(u - y) < 1e-4 * max(1.0, abs(y))


class TestForwardMapReuse:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of each sweep-running function, counted from here on."""
        calls = Counter()
        for name in ("_forward_map_rows", "_adjoint_flux_sensitivity", "solve_forward"):
            original = getattr(assimilate, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(assimilate, name, wrapper)
        return calls

    @pytest.mark.parametrize("released", [False, True], ids=["q0-zero", "q0-nonzero"])
    def test_estimators_share_one_build(self, counts, released):
        problem = (
            released_problem("dirichlet_inverse_laplacian")
            if released
            else small_problem(3, nt=65, nz=49)
        )
        for _ in range(2):
            map_estimate(problem)
            oracle_bayes(problem)
            representer_rows(problem)
        assert counts == Counter(
            _forward_map_rows=1,
            _adjoint_flux_sensitivity=len(problem.observations),
            solve_forward=1 if released else 0,
        )

    def test_rows_are_read_only(self):
        problem = small_problem(2, nt=33)
        for rows in (problem.forward_rows, problem.adjoint_rows, problem.free_response):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1.0

    def test_free_response_is_the_zero_flux_observation(self):
        problem = released_problem("diagonal")
        zero = FluxSignal(grid=problem.prior.grid, values=np.zeros(problem.prior.grid.n))
        field = solve_forward(problem.profile, zero, problem.q0)
        expected = [
            apply_observation(w, field.column(i))
            for w, i in zip(problem.weights, problem.obs_indices)
        ]
        np.testing.assert_array_equal(problem.free_response, expected)
        assert np.abs(problem.free_response).min() > 0.0


class TestOracleBayes:
    def test_zero_observations_return_the_prior(self):
        problem = small_problem(0, nt=49)
        mean, cov = oracle_bayes(problem)
        np.testing.assert_array_equal(mean, problem.prior.mean.values)
        # the covariance must invert the prior precision on admissible
        # functions: C (W C0^{-1} g) = g whenever g has zero endpoints
        g = admissible_bump(problem.prior.grid)
        back = cov @ (
            problem.prior.grid.weights
            * prior_apply_inverse(problem.prior, g)
        )
        np.testing.assert_allclose(back, g, atol=1e-10)

    def test_covariance_is_symmetric_psd_and_contracting(self):
        problem = small_problem(3, nt=65)
        _, cov = oracle_bayes(problem)
        assert np.abs(cov - cov.T).max() <= 1e-12 * np.abs(cov).max()
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-12 * eigs.max()
        _, cov_prior = oracle_bayes(small_problem(0, nt=65))
        assert np.all(np.diag(cov) <= np.diag(cov_prior) + 1e-12)

    def test_time_grid_capacity(self):
        profile = constant_profile(17)
        tgrid = TimeGrid(t_end=1.0, n=2049)
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(17),
            observations=ObservationSet(
                times=np.array([]), values=np.array([]), noise_levels=np.array([])
            ),
            weights=(),
            prior=dirichlet_prior(tgrid),
        )
        with pytest.raises(CapacityError, match="2048"):
            oracle_bayes(problem)

    def test_forward_and_adjoint_constructions_agree(self):
        # the two independent assemblies of the discrete forward map are
        # compared inside oracle_bayes; reproduce the comparison here
        problem = small_problem(3, nt=65)
        fwd = _forward_map_rows(problem)
        adj = _forward_map_matrix_adjoint(problem)
        scale = np.abs(fwd).max()
        assert np.abs(fwd - adj).max() <= 1e-10 * scale

    def test_disagreeing_constructions_raise(self, monkeypatch):
        problem = small_problem(2, nt=33)
        rows = _forward_map_rows(problem)
        bumped = rows + 1e-6 * np.abs(rows).max()
        monkeypatch.setattr(assimilate, "_forward_map_rows", lambda _: bumped)
        with pytest.raises(NumericalError, match="disagree"):
            oracle_bayes(problem)


def kernel_problem(obs_indices, nt=33, nz=17):
    """The fields the forward-map constructions read, for any node list.

    ObservationSet rejects a time at node 0 and repeated times, but a time
    within the grid tolerance of 0, or two times within it of each other,
    still map to such nodes, so the constructions must handle them.
    """
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    profile = validate_profile(1.0 + 0.5 * z, 0.2 * np.sin(np.pi * z), grid)
    weights = tuple(
        Weight(grid=grid, values=1.0 + np.cos((i + 1) * np.pi * z) + z)
        for i in range(len(obs_indices))
    )
    return SimpleNamespace(
        profile=profile,
        prior=SimpleNamespace(grid=TimeGrid(t_end=1.0, n=nt)),
        observations=tuple(obs_indices),
        weights=weights,
        obs_indices=tuple(obs_indices),
    )


def brute_force_rows(problem):
    """Row i, entry m: observation i of one forward solve driven by hat m."""
    tgrid = problem.prior.grid
    q0 = np.zeros(problem.profile.grid.n)
    rows = np.zeros((len(problem.obs_indices), tgrid.n))
    for m in range(tgrid.n):
        hat = FluxSignal(grid=tgrid, values=np.eye(tgrid.n)[m])
        field = solve_forward(problem.profile, hat, q0)
        for i, (w, n_i) in enumerate(zip(problem.weights, problem.obs_indices)):
            rows[i, m] = apply_observation(w, field.column(n_i))
    return rows


class TestForwardMapKernel:
    @pytest.mark.parametrize(
        ("obs_indices", "nt"),
        [
            ((0, 9, 20), 33),  # an observation at the first node
            ((5, 32), 33),  # one at the last node
            ((12, 12, 30), 33),  # two at the same node
            ((1,), 2),  # the smallest time grid
            ((0, 1), 2),
        ],
        ids=["first-node", "last-node", "same-node", "nt2", "nt2-both-nodes"],
    )
    def test_matches_one_forward_solve_per_hat(self, obs_indices, nt):
        problem = kernel_problem(obs_indices, nt=nt)
        brute = brute_force_rows(problem)
        scale = np.abs(brute).max()
        assert scale > 0.0
        kernel = _forward_map_rows(problem)
        assert np.abs(kernel - brute).max() <= 1e-12 * scale
        adjoint = _forward_map_matrix_adjoint(problem)
        assert np.abs(adjoint - brute).max() <= 1e-12 * scale

    def test_rows_vanish_beyond_the_observation_time(self):
        problem = kernel_problem((0, 9, 20))
        rows = _forward_map_rows(problem)
        for row, n_i in zip(rows, problem.obs_indices):
            assert not row[n_i + 1 :].any()
        assert not rows[0].any()
