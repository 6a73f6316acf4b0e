"""Priors, cost/gradient consistency, the MAP solve, and the dense oracle."""

import json
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from colflux import assimilate, cli, numerics, transport
from colflux.assimilate import (
    PRIOR_KINDS,
    AssimilationProblem,
    PriorSpec,
    cost,
    gradient,
    hessian_form,
    lowrank_posterior,
    map_estimate,
    oracle_bayes,
    oracle_covariance,
    prior_apply_inverse,
    prior_quadratic_form,
    representer_rows,
)
from colflux.errors import CapacityError, ConditioningError, DomainError, NumericalError
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, _rfp_index, factor_tridiagonal, trapezoid
from colflux.observe import (
    ObservationSet,
    Weight,
    add_noise,
    apply_observation,
    canonical_weights,
    synthesize_data,
)
from colflux.posterior import gain_direction
from colflux.spectral import eigensystem
from colflux.transport import FluxSignal, solve_forward


def constant_profile(nz=65, k=1.0):
    g = ColumnGrid(h=1.0, n=nz)
    return CoefficientProfile(grid=g, k=np.full(nz, k), w=np.zeros(nz))


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


def released_problem(kind, nodes=65):
    """small_problem(3) with a nonzero initial state and a nonzero prior mean.

    The observations sit on the nodes nearest t = 0.25, 0.625 and 1, so on
    a grid too coarse to hold three distinct nonzero nodes there are fewer.
    """
    base = small_problem(3, nt=65, nz=49, kind=kind)
    tgrid = TimeGrid(t_end=1.0, n=nodes)
    z = base.profile.grid.nodes
    idx = sorted({round(f * (nodes - 1)) for f in (0.25, 0.625, 1.0)} - {0})
    obs = ObservationSet(
        times=tgrid.nodes[idx],
        values=base.observations.values[: len(idx)],
        noise_levels=base.observations.noise_levels[: len(idx)],
    )
    # periodic in time, so every kind accepts it; its mean is not zero
    mean = 0.4 + 0.5 * np.cos(2.0 * np.pi * tgrid.nodes)
    prior = PriorSpec(mean=FluxSignal(grid=tgrid, values=mean), kind=kind, sigma=0.7)
    return AssimilationProblem(
        profile=base.profile,
        q0=1.0 + 0.5 * np.cos(np.pi * z),
        observations=obs,
        weights=base.weights[: len(idx)],
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

    @pytest.mark.parametrize("sigma", [1e-300, 1e-155, 1e155, 1e300])
    def test_sigma_square_must_be_a_normal_double(self, sigma):
        # sigma enters squared; 0 or inf there ends CG in NaN
        mean = FluxSignal(grid=TimeGrid(t_end=1.0, n=9), values=np.zeros(9))
        with pytest.raises(ValueError, match="sigma must be positive, with a normal-double"):
            PriorSpec(mean=mean, sigma=sigma)
        assert PriorSpec(mean=mean, sigma=1e-150).sigma == 1e-150

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


class TestPriorKinds:
    """What every kind's object promises the estimators."""

    @pytest.fixture(params=[2, 3, 4, 65])
    def case(self, request, kind):
        nodes = request.param
        tgrid = TimeGrid(t_end=1.0, n=nodes)
        spec = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(nodes)), kind=kind, sigma=0.7
        )
        x, y = np.random.default_rng(nodes).standard_normal((2, nodes))
        return spec, tgrid, x, y

    @pytest.fixture(params=PRIOR_KINDS)
    def kind(self, request):
        return request.param

    def test_projection_is_idempotent_and_orthogonal(self, case):
        # conjugate gradients relies on <P x, y> = <x, P y>
        prior, _, x, y = case
        px, py = prior.project(x), prior.project(y)
        assert max_rel(prior.project(px), px) <= 1e-14
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(np.dot(px, y) - np.dot(x, py)) <= 1e-14 * scale

    def test_projected_and_converted_vectors_are_admissible(self, case):
        prior, _, x, _ = case
        prior.check(prior.project(x))
        prior.check(prior.to_function(x))

    def test_covariance_inverts_the_weighted_precision(self, case):
        prior, tgrid, x, _ = case
        px = prior.project(x)
        restored = prior.covariance()(tgrid.weights * prior.apply_inverse(px))
        assert max_rel(restored, px) <= 1e-12


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

    @pytest.mark.parametrize("noise", [1e-300, 1e160])
    def test_noise_squares_must_be_normal_doubles(self, noise):
        problem = small_problem(2)
        obs = ObservationSet(
            times=problem.observations.times,
            values=problem.observations.values,
            noise_levels=np.array([0.2, noise]),
        )
        with pytest.raises(ValueError, match="positive noise levels with normal-double"):
            AssimilationProblem(
                profile=problem.profile,
                q0=problem.q0,
                observations=obs,
                weights=problem.weights,
                prior=problem.prior,
            )

    @pytest.mark.parametrize("weight", ["on-another-grid", "bare-array"])
    def test_weights_must_live_on_the_profile_grid(self, weight):
        problem = small_problem(2)
        values = problem.weights[1].values
        if weight == "on-another-grid":  # the same node count on a column twice as tall
            stray = Weight(grid=ColumnGrid(h=2.0, n=values.size), values=values)
        else:
            stray = values
        with pytest.raises(ValueError, match="^every weight must live on the profile's grid$"):
            AssimilationProblem(
                profile=problem.profile,
                q0=problem.q0,
                observations=problem.observations,
                weights=(problem.weights[0], stray),
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
                apply_observation(w, field[:, i])
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

    @pytest.mark.parametrize("name", ["cost", "gradient", "hessian_form"])
    def test_inadmissible_flux_is_rejected(self, name, monkeypatch):
        problem = small_problem(1)
        values = np.ones(problem.prior.grid.n)
        if name != "hessian_form":
            values = FluxSignal(grid=problem.prior.grid, values=values)

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before the admissibility check")

        monkeypatch.setattr(transport, "_cn_sweep", refuse)
        with pytest.raises(DomainError, match="Dirichlet"):
            getattr(assimilate, name)(problem, values)


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
                u = apply_observation(problem.weights[i], field[:, n_i])
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


    def test_the_gap_to_the_spectral_gains_falls_at_order_one_and_a_half(self):
        # the representers against the continuum gains on the default model:
        # a time-discretization error, 5.57e-3 at nt = 128 down to 2.54e-4 at
        # 1024; each halving of dt divides it by 2.78-2.82
        nz = 257
        profile = constant_profile(nz)
        eig = eigensystem(profile, 8)
        plus, minus = canonical_weights(eig)
        weights, times = (plus, minus, plus), (0.25, 0.5, 1.0)
        steps = np.array([128, 256, 512, 1024])
        gaps = []
        for nt in steps:
            tgrid = TimeGrid(t_end=1.0, n=nt + 1)
            problem = AssimilationProblem(
                profile=profile,
                q0=np.zeros(nz),
                observations=ObservationSet(
                    times=times, values=np.zeros(3), noise_levels=np.full(3, 0.1)
                ),
                weights=weights,
                prior=dirichlet_prior(tgrid),
            )
            rels = []
            for row, w, t in zip(representer_rows(problem), weights, times):
                gain = gain_direction(eig, w.coefficients, t, 0.1, tgrid).values
                rels.append(trapezoid((row - gain) ** 2, tgrid) / trapezoid(gain**2, tgrid))
            gaps.append(np.sqrt(max(rels)))
        ratios = np.array(gaps[:-1]) / gaps[1:]
        assert np.all((2.64 <= ratios) & (ratios <= 3.03)), ratios  # orders 1.4 to 1.6
        order = -np.polyfit(np.log2(steps), np.log2(gaps), 1)[0]
        assert 1.45 <= order <= 1.55, order
        assert 5e-3 <= gaps[0] <= 6e-3 and 2e-4 <= gaps[-1] <= 3e-4, gaps


class TestMapEstimate:
    @pytest.mark.parametrize("kind", [
        "dirichlet_inverse_laplacian",
        "periodic_zero_mean_inverse_laplacian",
        "diagonal",
    ])
    def test_matches_the_dense_posterior_mean(self, kind):
        problem = small_problem(3, nt=65, nz=49, kind=kind)
        flux, report = map_estimate(problem)
        mean = oracle_bayes(problem)
        assert report["converged"]
        scale = np.abs(mean).max()
        assert np.abs(flux.values - mean).max() <= 1e-6 * max(scale, 1.0), (
            f"kind={kind}: max deviation "
            f"{np.abs(flux.values - mean).max():.3e} at scale {scale:.3e}"
        )

    @staticmethod
    def scaled_problem(value, noise=0.2, sigma=0.7):
        """small_problem(2) with data ``value`` at both observations."""
        base = small_problem(2)
        obs = ObservationSet(
            times=base.observations.times,
            values=np.full(2, value),
            noise_levels=np.full(2, noise),
        )
        return AssimilationProblem(
            profile=base.profile,
            q0=base.q0,
            observations=obs,
            weights=base.weights,
            prior=dirichlet_prior(base.prior.grid, sigma=sigma),
        )

    @pytest.fixture
    def products(self, monkeypatch):
        """Counts map_estimate's Hessian products (one prior_apply_inverse each)."""
        counts = Counter()
        original = assimilate.prior_apply_inverse

        def counted(*args):
            counts["hessian"] += 1
            return original(*args)

        monkeypatch.setattr(assimilate, "prior_apply_inverse", counted)
        return counts

    @pytest.mark.parametrize(
        "noise, sigma, message",
        [
            (1e-150, 0.7, r"overflowed: \|b\| = inf$"),
            (0.2, 1e154, "overflowed: r.z = inf at iteration 1$"),
        ],
        ids=["norm-of-b", "r.z"],
    )
    def test_overflow_stops_before_a_hessian_product(self, products, noise, sigma, message):
        # CG scales the data to below 1, but a noise level near the normal
        # range's floor still overflows |b| = |G^T R^-1 d|, and a prior sigma
        # near its ceiling r.z = b^T C0 b. CG must say so at once, with no
        # warning, instead of running 2 nt iterations on NaN (whose products
        # would reach prior_apply_inverse as a bad input) or reading every
        # residual relative to |b| = inf as 0
        problem = self.scaled_problem(1.0, noise=noise, sigma=sigma)
        with pytest.raises(ConditioningError, match=message):
            map_estimate(problem)
        assert products["hessian"] == 0

    def test_an_overflowing_curvature_stops_at_the_first_product(self, products):
        # at a prior sigma of 1e150, p = C0 r is near 1e300 and p.Hp is inf:
        # alpha would read 0, and CG would stall for 2 nt products
        with pytest.raises(ConditioningError, match="overflowed: p.Hp = inf at iteration 1$"):
            map_estimate(self.scaled_problem(1.0, sigma=1e150))
        assert products["hessian"] == 1

    def test_data_near_the_double_range_scale_exactly(self):
        # CG is linear in the data and solves for them scaled by a power of
        # two, so data 2**900 times larger give the MAP flux 2**900 times
        # larger, bit for bit; unscaled, G^T R^-1 d overflowed at 1e300
        small, small_report = map_estimate(self.scaled_problem(1.0))
        big, big_report = map_estimate(self.scaled_problem(2.0**900))
        assert big_report == small_report and small_report["converged"]
        np.testing.assert_array_equal(big.values, np.ldexp(small.values, 900))

    def test_a_map_flux_beyond_the_double_range_fails_closed(self):
        # the scaled solve converges; the flux it scales back to does not fit
        with pytest.raises(ConditioningError, match="^the MAP flux overflows$"):
            map_estimate(self.scaled_problem(1e308, sigma=1e3))

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
        mean = oracle_bayes(problem)
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
                apply_observation(w, field[:, i])
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

    @staticmethod
    def rounding_only_problem(case):
        """Periodic priors whose right-hand side is a rounding residue that C0
        maps to zero: r.z = 0 before the first product on three time nodes,
        and after two steps on the two-observation CLI config."""
        if case == "released-3-nodes":
            return released_problem("periodic_zero_mean_inverse_laplacian", nodes=3)
        config = cli.parse_config(
            json.dumps(
                {
                    "scenario": "assimilate",
                    "grid": {"nz": 49, "nt": 2},
                    "spectral": {"n_modes": 4},
                    "observations": {
                        "times": [0.5, 1.0],
                        "noise": [0.2, 0.2],
                        "weights": ["uniform", "rho_plus"],
                    },
                    "prior": {"kind": "periodic_zero_mean_inverse_laplacian", "sigma": 0.7},
                }
            )
        )
        return cli._Workspace(config, Path("unused")).problem()

    @pytest.mark.parametrize("case", ["released-3-nodes", "cli-config"])
    def test_a_residual_the_prior_maps_to_zero_stops_cg(self, case):
        # r.z = 0 leaves p = 0 and p.Hp = 0: the next step would read 0/0
        problem = self.rounding_only_problem(case)
        flux, report = map_estimate(problem)
        mean = oracle_bayes(problem)
        assert report["converged"]
        scale = np.abs(mean).max()
        assert np.abs(flux.values - mean).max() <= 1e-6 * max(scale, 1.0)
        if case == "released-3-nodes":
            np.testing.assert_array_equal(flux.values, problem.prior.mean.values)
            assert report == {"iterations": 0, "relative_residual": 0.0, "converged": True}

    @staticmethod
    def blind_problem(nz):
        """One uniform weight at t_end under the periodic prior: it sees the
        column mass, k(0) times the integral of F, which vanishes on every
        admissible flux. The projected right-hand side is rounding alone,
        which grows with nz: 9e-16 of |G^T R^-1 d| at nz = 17, 2e-11 at 1001."""
        profile = constant_profile(nz)
        tgrid = TimeGrid(t_end=1.0, n=65)
        mean = FluxSignal(grid=tgrid, values=np.zeros(tgrid.n))
        return AssimilationProblem(
            profile=profile,
            q0=np.zeros(nz),
            observations=ObservationSet(
                times=np.array([1.0]), values=np.array([0.3]), noise_levels=np.array([0.1])
            ),
            weights=(Weight(grid=profile.grid, values=np.ones(nz)),),
            prior=PriorSpec(mean=mean, kind="periodic_zero_mean_inverse_laplacian"),
        )

    @pytest.mark.parametrize("nz", [17, 1001])
    def test_data_blind_to_the_prior_return_it(self, products, nz):
        # CG once stalled here after 2 nt products, its target below rounding
        problem = self.blind_problem(nz)
        flux, report = map_estimate(problem)
        np.testing.assert_array_equal(flux.values, problem.prior.mean.values)
        assert report == {"iterations": 0, "relative_residual": 0.0, "converged": True}
        assert products["hessian"] == 0
        # the dense oracle agrees: its mean is rounding about the prior's
        assert np.abs(oracle_bayes(problem)).max() <= 1e-9

    def test_a_true_stall_still_raises(self, monkeypatch):
        # a Hessian perturbed afresh at each product is no fixed operator, so
        # CG cannot converge on it; the data are not blind, and it must raise
        rng = np.random.default_rng(0)
        original = assimilate.prior_apply_inverse

        def perturbed(spec, g):
            return original(spec, g) * (1.0 + 0.5 * rng.standard_normal(g.shape))

        monkeypatch.setattr(assimilate, "prior_apply_inverse", perturbed)
        with pytest.raises(ConditioningError, match="stalled: .* after 34 iterations"):
            map_estimate(small_problem(3, nt=17))

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
            u = apply_observation(w, field[:, tgrid.index_of(t)])
            assert abs(u - y) < 1e-4 * max(1.0, abs(y))


@pytest.fixture
def bumped_impulse_rows(monkeypatch):
    """Impulse-response rows off by 1e-6 of their scale, 100 times the bound."""
    original = assimilate.impulse_response

    def bumped(*args):
        rows, states = original(*args)
        return rows + 1e-6 * np.abs(rows).max(), states

    monkeypatch.setattr(assimilate, "impulse_response", bumped)


def plant(monkeypatch, row, value):
    """Make entry (row, 5) of the impulse-response rows ``value`` times their scale."""
    original = assimilate.impulse_response

    def planted(*args):
        rows, states = original(*args)
        rows[row, 5] += value * np.abs(rows).max()
        return rows, states

    monkeypatch.setattr(assimilate, "impulse_response", planted)


@pytest.fixture
def counts(monkeypatch):
    """Runs of the one Crank-Nicolson loop, counted from here on by the
    sweep that started them."""
    calls = Counter()
    original = transport._cn_sweep

    def counted(*args, **kwargs):
        calls[sys._getframe(1).f_code.co_name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(transport, "_cn_sweep", counted)
    return calls


class TestForwardMapReuse:
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
        # one impulse sweep builds G, and its checked rows serve the
        # estimators and the representers
        assert counts == Counter(impulse_response=1, solve_forward=1 if released else 0)

    @pytest.mark.parametrize("released", [False, True], ids=["q0-zero", "q0-nonzero"])
    def test_the_estimators_take_one_sweep_and_the_oracle_none(self, counts, released):
        problem = (
            released_problem("dirichlet_inverse_laplacian")
            if released
            else small_problem(3, nt=65, nz=49)
        )
        map_estimate(problem)
        lowrank_posterior(problem)
        expected = Counter(impulse_response=1)
        if released:
            expected["solve_forward"] = 1
        assert counts == expected
        oracle_bayes(problem)
        representer_rows(problem)
        assert counts == expected

    @pytest.mark.parametrize("scenario", ["assimilate", "oracle_check"])
    def test_each_estimation_job_takes_one_sweep(self, tmp_path, counts, scenario):
        # q0 = 0: no free response; the data, CG, the low-rank posterior, the
        # dense oracle and the representers all read the one checked map,
        # and its check runs no sweep
        config = {
            "grid": {"nz": 161, "nt": 128},
            "spectral": {"n_modes": 10},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([scenario, "--config", str(path)]) == 0
        assert counts == Counter(impulse_response=1)

    def test_map_estimate_refuses_an_unchecked_map(self, bumped_impulse_rows):
        problem = small_problem(2, nt=33)
        with pytest.raises(NumericalError, match="disagree"):
            map_estimate(problem)
        assert problem.forward_map_sketch_rel_gap > 1e-8

    @pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
    def test_the_sketch_sees_one_wrong_entry(self, monkeypatch, counts, row):
        # 1e-6 of the scale in one entry reads at least that much of its
        # row's largest entry, at every frequency
        plant(monkeypatch, row, 1e-6)
        problem = small_problem(4, nt=33)
        with pytest.raises(NumericalError, match="disagree [(]sketched"):
            map_estimate(problem)
        assert problem.forward_map_sketch_rel_gap >= 0.99e-6
        assert counts == Counter(impulse_response=1)

    def test_a_nan_in_the_impulse_rows_fails_the_check(self, monkeypatch):
        # a NaN gap is not above the bound either; the check must still fail
        plant(monkeypatch, 1, np.nan)
        problem = small_problem(2, nt=33)
        with pytest.raises(NumericalError, match="disagree"):
            problem.forward_rows
        with pytest.raises(NumericalError, match="disagree"):
            map_estimate(problem)

    def test_the_representers_check_the_sketched_gap(self, counts, bumped_impulse_rows):
        # the representers are the checked rows: a bumped map never reaches them
        problem = small_problem(2, nt=33)
        with pytest.raises(NumericalError, match="disagree [(]sketched"):
            representer_rows(problem)
        assert counts == Counter(impulse_response=1)

    def test_rows_are_read_only(self):
        problem = small_problem(2, nt=33)
        for rows in (
            problem.functionals,
            problem.forward_rows,
            problem.free_response,
            problem.innovation,
        ):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1.0

    @pytest.mark.parametrize("path", ["synthesize_data", "free_response"])
    def test_observing_sweeps_store_no_field(self, path):
        # at nz=257, nt=4096 the whole field takes 8.4 MB; the observing
        # sweeps keep O(nz) state, the N observed states included
        nz, nt = 257, 4096
        profile = constant_profile(nz)
        tgrid = TimeGrid(t_end=1.0, n=nt + 1)
        flux = FluxSignal(grid=tgrid, values=np.sin(np.pi * tgrid.nodes))
        q0 = 0.3 + 0.1 * np.cos(np.pi * profile.grid.nodes)
        weights = [Weight(grid=profile.grid, values=np.ones(nz))] * 3
        times = [0.25, 0.5, 1.0]
        obs = synthesize_data(profile, flux, q0, weights, times, np.full(3, 0.1), 1)
        problem = AssimilationProblem(
            profile=profile, q0=q0, observations=obs, weights=weights,
            prior=dirichlet_prior(tgrid),
        )
        run = {
            "synthesize_data": lambda: synthesize_data(
                profile, flux, q0, weights, times, np.zeros(3), 1
            ),
            "free_response": lambda: problem.free_response,
        }[path]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"{path} peaked at {peak / 1e6:.1f} MB"

    def test_free_response_is_the_zero_flux_observation(self):
        problem = released_problem("diagonal")
        zero = FluxSignal(grid=problem.prior.grid, values=np.zeros(problem.prior.grid.n))
        field = solve_forward(problem.profile, zero, problem.q0)
        expected = [
            apply_observation(w, field[:, i])
            for w, i in zip(problem.weights, problem.obs_indices)
        ]
        np.testing.assert_array_equal(problem.free_response, expected)
        assert np.abs(problem.free_response).min() > 0.0


def synthesized_from(base, seed=3):
    """The problem of ``base`` with its data synthesized from a known flux."""
    tgrid = base.prior.grid
    truth = FluxSignal(grid=tgrid, values=np.sin(3.0 * tgrid.nodes) ** 2)
    obs = base.observations
    args = (base.profile, base.q0, base.weights, obs.times, obs.noise_levels)
    return args, truth, AssimilationProblem.synthesized(
        *args, prior=base.prior, true_flux=truth, seed=seed
    )


class TestSynthesized:
    @pytest.mark.parametrize("released", [False, True], ids=["q0-zero", "q0-nonzero"])
    def test_data_agree_with_the_sweep(self, released):
        base = released_problem("diagonal") if released else small_problem(3, nt=65, nz=49)
        args, truth, problem = synthesized_from(base)
        profile, q0, weights, times, noise = args
        swept = synthesize_data(profile, truth, q0, weights, times, noise, seed=3)
        y, ref = problem.observations.values, swept.values
        assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_array_equal(problem.observations.times, swept.times)
        np.testing.assert_array_equal(problem.observations.noise_levels, noise)
        assert problem.q0.any() == released

    @pytest.mark.parametrize("released", [False, True], ids=["q0-zero", "q0-nonzero"])
    def test_the_estimators_reuse_the_map_the_data_came_from(self, counts, released):
        base = released_problem("diagonal") if released else small_problem(3, nt=65, nz=49)
        _, _, problem = synthesized_from(base)
        map_estimate(problem)
        lowrank_posterior(problem)
        expected = Counter(impulse_response=1)
        if released:
            expected["solve_forward"] = 1
        assert counts == expected

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 7])
    @pytest.mark.parametrize("call", ["add_noise", "synthesize_data", "synthesized"])
    def test_seeds_outside_the_philox_key_range_raise(self, call, seed):
        # NumPy's Philox refuses these keys too; 2**128 + 7 must not wrap to 7
        base = small_problem(2, nt=33)
        args, truth, _ = synthesized_from(base)
        draw = {
            "add_noise": lambda: add_noise([0.0, 0.0], [1.0, 1.0], seed),
            "synthesize_data": lambda: synthesize_data(args[0], truth, *args[1:], seed=seed),
            "synthesized": lambda: AssimilationProblem.synthesized(
                *args, prior=base.prior, true_flux=truth, seed=seed
            ),
        }[call]
        with pytest.raises(ValueError, match=r"^key must be positive and less than 2\*\*128\.$"):
            draw()

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 7])
    def test_a_seed_outside_the_key_range_stops_before_any_sweep(self, counts, seed):
        base = small_problem(2, nt=33)
        args, truth, _ = synthesized_from(base)
        counts.clear()
        with pytest.raises(ValueError, match=r"^key must be positive and less than 2\*\*128\.$"):
            AssimilationProblem.synthesized(*args, prior=base.prior, true_flux=truth, seed=seed)
        assert counts == Counter()

    def test_the_true_flux_must_share_the_prior_grid(self, monkeypatch):
        base = small_problem(2, nt=33)
        tgrid = TimeGrid(t_end=2.0, n=33)
        truth = FluxSignal(grid=tgrid, values=np.zeros(33))

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before the grid check")

        monkeypatch.setattr(transport, "_cn_sweep", refuse)
        obs = base.observations
        with pytest.raises(ValueError, match="prior's time grid"):
            AssimilationProblem.synthesized(
                base.profile, base.q0, base.weights, obs.times, obs.noise_levels,
                prior=base.prior, true_flux=truth, seed=0,
            )

    def test_data_the_map_overflows_fail_closed(self):
        # G near 1e300 is finite and passes its check; G times the flux is not
        base = small_problem(2, nt=33)
        weights = [Weight(grid=w.grid, values=1e300 * w.values) for w in base.weights]
        truth = FluxSignal(grid=base.prior.grid, values=np.full(33, 1e10))
        obs = base.observations
        with pytest.raises(NumericalError, match="synthesized observations overflow"):
            AssimilationProblem.synthesized(
                base.profile, base.q0, weights, obs.times, obs.noise_levels,
                prior=base.prior, true_flux=truth, seed=0,
            )


KINDS = (
    "dirichlet_inverse_laplacian",
    "periodic_zero_mean_inverse_laplacian",
    "diagonal",
)


class TestOracleBayes:
    def test_an_overflowing_representer_product_raises(self):
        # G's rows hold about 1e300, so S = G C0 G^T + R overflows; its
        # Cholesky factor would hide that, so S itself is checked
        problem = small_problem(2, nt=33)
        grid = problem.profile.grid
        huge = Weight(grid=grid, values=np.full(grid.n, 1e300))
        problem = AssimilationProblem(
            profile=problem.profile,
            q0=problem.q0,
            observations=problem.observations,
            weights=(huge, problem.weights[1]),
            prior=problem.prior,
        )
        assert np.isfinite(problem.forward_rows).all()
        message = r"^the low-rank posterior overflows: G C0 G\^T is not finite$"
        with pytest.raises(NumericalError, match=message):
            lowrank_posterior(problem)

    def test_an_overflowing_result_raises_while_s_is_finite(self, monkeypatch):
        # a planted infinite diag(C0) leaves S = G C0 G^T + R finite, so
        # only the gate on the returned mean and variance can see it
        problem = small_problem(2, nt=33)
        monkeypatch.setattr(
            type(problem.prior), "variance", lambda prior: np.full(prior.n, np.inf)
        )
        with pytest.raises(NumericalError, match="^the low-rank posterior overflows$"):
            lowrank_posterior(problem)

    def test_zero_observations_return_the_prior(self):
        problem = small_problem(0, nt=49)
        mean = oracle_bayes(problem)
        cov = oracle_covariance(problem)
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
        cov = oracle_covariance(problem)
        assert np.abs(cov - cov.T).max() <= 1e-12 * np.abs(cov).max()
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-12 * eigs.max()
        cov_prior = oracle_covariance(small_problem(0, nt=65))
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
        # a sketch of the transposed rows is compared with the impulse rows
        # before any estimator reads them; compare every row, tighter, here
        problem = small_problem(3, nt=65)
        fwd = problem.forward_rows
        adj = transposed_rows(problem)
        scale = np.abs(fwd).max()
        assert np.abs(fwd - adj).max() <= 1e-10 * scale

    def test_disagreeing_constructions_raise(self, bumped_impulse_rows):
        problem = small_problem(2, nt=33)
        with pytest.raises(NumericalError, match="disagree"):
            oracle_bayes(problem)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mean_is_the_covariance_applied_to_the_dual_vector(self, kind):
        # the solve with the mean's right-hand side against the inverse
        problem = released_problem(kind)
        g = problem.forward_rows
        dual = g.T @ (problem.innovation / problem.observations.noise_levels**2)
        expected = problem.prior.mean.values + oracle_covariance(problem) @ dual
        assert max_rel(oracle_bayes(problem), expected) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("nodes", [65, 513])
    @pytest.mark.parametrize("scale", [1e-8, 1e8, 1e100])
    def test_mean_is_free_of_units(self, kind, nodes, scale):
        # sigma and the noise levels times `scale` divide the precision and
        # its right-hand side by scale^2 and leave the mean as it was; sigma
        # alone at 1e8 would leave a precision too ill-conditioned to compare
        base = released_problem(kind, nodes=nodes)
        obs = base.observations
        problem = AssimilationProblem(
            profile=base.profile,
            q0=base.q0,
            observations=ObservationSet(
                times=obs.times, values=obs.values, noise_levels=scale * obs.noise_levels
            ),
            weights=base.weights,
            prior=PriorSpec(mean=base.prior.mean, kind=kind, sigma=scale * base.prior.sigma),
        )
        f0 = base.prior.mean.values
        expected = oracle_bayes(base) - f0
        assert max_rel(oracle_bayes(problem) - f0, expected) <= 1e-10
        assert max_rel(oracle_bayes(problem) - f0, lowrank_posterior(problem)[0] - f0) <= 1e-10

    @pytest.mark.parametrize("kind", ["dirichlet_inverse_laplacian", "diagonal"])
    def test_precision_keeps_its_digits_at_large_sigma(self, kind, monkeypatch):
        # at sigma = 1e8 the prior's part of A is ~1e-14, the data's ~1e-2;
        # the matrix the oracle factors must still equal A on the admissible
        # nodes (the interior for Dirichlet, every node for the diagonal
        # kind), to an ulp
        base = released_problem(kind)
        prior = PriorSpec(mean=base.prior.mean, kind=kind, sigma=1e8)
        problem = AssimilationProblem(
            profile=base.profile,
            q0=base.q0,
            observations=base.observations,
            weights=base.weights,
            prior=prior,
        )
        factored = []

        class Factoring(Exception):
            pass

        def dpftrf(n, a):  # keep the block, and stop before factoring it
            factored.append(unpacked(a, n))
            raise Factoring

        lapack = SimpleNamespace(dsfrk=assimilate._flapack.dsfrk, dpftrf=dpftrf)
        monkeypatch.setattr(assimilate, "_flapack", lapack)
        with pytest.raises(Factoring):
            oracle_bayes(problem)
        h = problem.forward_rows / problem.observations.noise_levels[:, None]
        a = column_loop_prior_precision(problem) + h.T @ h
        kept = problem.prior.project(np.ones(len(a))) != 0.0
        block = a[np.ix_(kept, kept)]
        eps = np.finfo(float).eps
        assert factored[0].shape == a.shape
        factored_block = factored[0][np.ix_(kept, kept)]
        assert np.all(np.abs(factored_block - block) <= eps * np.abs(block))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "oracle, bound", [(oracle_bayes, 0.55), (oracle_covariance, 1.15)], ids=["mean", "cov"]
    )
    def test_holds_one_nt_x_nt_buffer(self, kind, oracle, bound):
        # at 1025 nodes the precision is formed, reduced and factored in its
        # packed lower triangle, n(n+1)/2 doubles; the covariance inverts it
        # in the prefix of the n x n result and unpacks it there. No n x n
        # temporaries beside either
        problem = released_problem(kind, nodes=1025)
        problem.innovation
        tracemalloc.start()
        try:
            oracle(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 1025**2 * 8, f"peaked at {peak / 1e6:.2f} MB"


def packed(a):
    """The RFP array of the symmetric matrix ``a``, entry by entry."""
    n = len(a)
    i, j = np.tril_indices(n)
    out = np.full(n * (n + 1) // 2, np.nan)
    out[_rfp_index(n, i, j)] = a[i, j]
    return out


def unpacked(rfp, n):
    """The symmetric n x n matrix whose RFP array is ``rfp``, entry by entry."""
    i, j = np.tril_indices(n)
    full = np.empty((n, n))
    full[i, j] = full[j, i] = rfp[_rfp_index(n, i, j)]
    return full


def column_loop_prior_precision(problem):
    """Dense W C0^{-1} one projected unit column at a time."""
    spec = problem.prior
    n = spec.grid.n
    p = np.zeros((n, n))
    basis = np.eye(n)
    for j in range(n):
        p[:, j] = spec.grid.weights * spec.apply_inverse(spec.project(basis[:, j]))
    return p


class TestDensePriorPrecision:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("nodes", [2, 3, 4, 65, 1025])
    def test_banded_form_is_the_column_loop_on_the_admissible_subspace(self, kind, nodes):
        # the oracle's tridiagonal form and the projected stencil columns
        # agree as forms on the admissible subspace
        problem = released_problem(kind, nodes=nodes)
        prior = problem.prior
        stored = np.zeros(nodes * (nodes + 1) // 2)
        prior.add_form(stored)
        banded = unpacked(stored, nodes)
        proj = prior.project(np.eye(nodes))
        expected = proj @ column_loop_prior_precision(problem) @ proj
        atol = 1e-13 * np.abs(expected).max(initial=0.0)
        np.testing.assert_allclose(proj @ banded @ proj, expected, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 65])
    def test_dirichlet_reduce_pins_the_end_nodes_and_keeps_the_interior(self, nodes):
        # P a P + c (I - P) zeroes the end rows and columns, puts c on their
        # diagonal, and touches no interior entry
        prior = released_problem(KINDS[0], nodes=nodes).prior
        x = np.random.default_rng(5).standard_normal((nodes, nodes))
        stored, before = packed(x + x.T), x + x.T
        prior.reduce(stored, 3.5)
        a = unpacked(stored, nodes)
        ends = np.zeros((2, nodes))
        ends[0, 0] = ends[1, -1] = 3.5
        assert a[1:-1, 1:-1].tobytes() == before[1:-1, 1:-1].tobytes()
        assert np.array_equal(a[[0, -1]], ends) and np.array_equal(a[:, [0, -1]], ends.T)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 65, 1024, 1025])
    def test_periodic_reduce_is_the_projection_on_the_stored_triangle(self, nodes):
        # P a P + c (I - P), made on the packed lower triangle alone
        prior = released_problem(KINDS[1], nodes=nodes).prior
        x = np.random.default_rng(7).standard_normal((nodes, nodes))
        stored = packed(x + x.T)
        prior.reduce(stored, 3.5)
        proj = prior.project(np.eye(nodes))
        expected = proj @ (x + x.T) @ proj + 3.5 * (np.eye(nodes) - proj)
        atol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(unpacked(stored, nodes), expected, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 65, 1025])
    def test_dirichlet_covariance_is_the_interior_solve_bit_for_bit(self, nodes):
        # the preconditioner solves all n nodes, with unit end rows decoupled
        # from the interior; it must give the interior block's solve, padded
        prior = released_problem(KINDS[0], nodes=nodes).prior
        coef = prior.w[1:-1] / (prior.s2 * prior.dt**2)
        apply = prior.covariance()
        for r in np.random.default_rng(6).standard_normal((3, nodes)):
            interior = r[1:-1]
            if interior.size:
                interior = factor_tridiagonal(2.0 * coef, -coef[1:])(interior)
            assert apply(r).tobytes() == np.pad(interior, 1).tobytes()

    @pytest.mark.parametrize("nodes", [2, 3, 257])
    def test_in_place_stencils_keep_their_rounding(self, nodes):
        # the stencils CG applies, bit-equal to their reference expressions
        rng = np.random.default_rng(8)
        dirichlet, periodic = (released_problem(kind, nodes).prior for kind in KINDS[:2])
        g = dirichlet.project(rng.standard_normal(nodes))
        expected = np.zeros(nodes)
        k = dirichlet.s2 * dirichlet.dt**2
        expected[1:-1] = -(g[2:] - 2.0 * g[1:-1] + g[:-2]) / k
        assert np.array_equal(dirichlet.apply_inverse(g), expected)
        h = periodic.project(rng.standard_normal(nodes))[:-1]
        lap = -(np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / k
        expected = np.append(lap, lap[0])
        assert np.array_equal(periodic.apply_inverse(np.append(h, h[0])), expected)


def dense_prior_variance(problem):
    """diag of the pseudo-inverse of the dense prior precision, taken on the
    admissible coordinates, glued as the periodic kind identifies them."""
    p = column_loop_prior_precision(problem)
    n = p.shape[0]
    kind = problem.prior.kind
    if kind == "diagonal":
        return np.diag(np.linalg.inv(p))
    out = np.zeros(n)
    if kind == "dirichlet_inverse_laplacian":
        out[1:-1] = np.diag(np.linalg.pinv(p[1:-1, 1:-1]))
        return out
    # periodic: glue the last node onto the first, keep zero-mean functions
    m = n - 1
    glued = p[:m, :m].copy()
    glued[:, 0] += p[:m, -1]
    glued[0, :] += p[-1, :m]
    glued[0, 0] += p[-1, -1]
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    out[:m] = np.diag(proj @ np.linalg.pinv(proj @ glued @ proj, hermitian=True) @ proj)
    out[-1] = out[0]
    return out


def max_rel(a, b):
    """Largest |a - b| over the largest |b|; 0 when both vanish."""
    scale = np.abs(b).max()
    return np.abs(a - b).max() / scale if scale else np.abs(a).max()


def periodic_green_posterior(problem):
    """Posterior mean and variance under the periodic prior, by the Woodbury
    form with C0 from the closed-form Green's function of the circulant
    second difference on zero-mean functions:

        C0[j, k] = s2 dt ((m^2 - 1) / (12 m) - d (m - d) / (2 m)),  d = |j - k|,

    so no nt x nt matrix is inverted and the result keeps its digits at any
    grid size.
    """
    n = problem.prior.grid.n
    m = n - 1
    s2 = problem.prior.sigma**2
    dt = problem.prior.grid.spacing
    d = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    c0 = s2 * dt * ((m * m - 1) / (12.0 * m) - d * (m - d) / (2.0 * m))
    g = problem.forward_rows
    glued = g[:, :m].copy()  # the last node is the first
    glued[:, 0] += g[:, -1]
    c0g = glued @ c0
    c0g = np.hstack([c0g, c0g[:, :1]])
    s = g @ c0g.T + np.diag(problem.observations.noise_levels**2)
    f0 = problem.prior.mean.values
    misfit = problem.observations.values - g @ f0 - problem.free_response
    mean = f0 + c0g.T @ np.linalg.solve(s, misfit)
    prior = np.append(np.diag(c0), c0[0, 0])
    return mean, prior - np.einsum("ij,ij->j", c0g, np.linalg.solve(s, c0g))


class TestLowRankPosterior:
    @pytest.mark.parametrize(
        ("kind", "nt"),
        [
            (kind, nt)
            for kind in KINDS
            for nt in (1, 2, 3, 256, 2047)
        ],
    )
    def test_matches_the_dense_oracle(self, kind, nt):
        # nt + 1 nodes; 2048 is the oracle's cap
        problem = released_problem(kind, nodes=nt + 1)
        mean, variance = lowrank_posterior(problem)
        dense_mean = oracle_bayes(problem)
        cov = oracle_covariance(problem)
        assert max_rel(mean, dense_mean) <= 1e-10
        assert max_rel(variance, np.diag(cov)) <= 1e-10

    @pytest.mark.parametrize("nt", [256, 1024, 2047])
    def test_periodic_matches_the_closed_form_greens_function(self, nt):
        problem = released_problem("periodic_zero_mean_inverse_laplacian", nodes=nt + 1)
        mean, variance = lowrank_posterior(problem)
        ref_mean, ref_variance = periodic_green_posterior(problem)
        assert max_rel(mean, ref_mean) <= 1e-10
        assert max_rel(variance, ref_variance) <= 1e-10
        # the dense oracle too, though it inverts the nt x nt precision
        dense_mean = oracle_bayes(problem)
        cov = oracle_covariance(problem)
        assert max_rel(dense_mean, ref_mean) <= 1e-10
        assert max_rel(np.diag(cov), ref_variance) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_observing_never_adds_uncertainty(self, kind):
        problem = released_problem(kind, nodes=257)
        _, variance = lowrank_posterior(problem)
        prior = problem.prior.variance()
        assert np.all(variance >= 0.0)
        assert np.all(variance <= prior)
        # and it removes some wherever the prior leaves the flux free
        free = prior > 0.0
        assert np.all(variance[free] < prior[free])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("nodes", [2, 3, 4, 65])
    def test_prior_variance_is_the_dense_pseudo_inverse_diagonal(self, kind, nodes):
        problem = released_problem(kind, nodes=nodes)
        prior = problem.prior.variance()
        assert max_rel(prior, dense_prior_variance(problem)) <= 1e-12

    def test_zero_observations_return_the_prior(self):
        problem = small_problem(0, nt=49)
        mean, variance = lowrank_posterior(problem)
        np.testing.assert_array_equal(mean, problem.prior.mean.values)
        np.testing.assert_array_equal(variance, problem.prior.variance())

    def test_disagreeing_constructions_raise(self, bumped_impulse_rows):
        problem = small_problem(2, nt=33)
        with pytest.raises(NumericalError, match="disagree"):
            lowrank_posterior(problem)

    def test_the_checked_map_reports_its_gap(self, monkeypatch):
        # the frequencies are key 1's first three uniforms, in the band of a
        # grid this far from stiff (rho = dt k / dz**2 = 36), and the gap is
        # the largest of the check's per-row gaps; the sweep's states are
        # dropped once it has read them
        seen = {}
        original = assimilate._impulse_transform_gap

        def spy(*args):
            *_, rows, states, seen["psi"], seen["share"] = args
            seen["rows"], seen["states"] = rows, weakref.ref(states)
            seen["gap"] = original(*args)
            return seen["gap"]

        monkeypatch.setattr(assimilate, "_impulse_transform_gap", spy)
        problem = released_problem("diagonal")
        fwd = problem.forward_rows
        gap = problem.forward_map_sketch_rel_gap
        hi = np.arctan(1.0 / np.tan(0.15))
        band = 5e-4 + Generator(Philox(key=1)).random(3) * (hi - 5e-4)
        np.testing.assert_array_equal(seen["psi"], band.astype(np.float32).astype(float))
        np.testing.assert_array_equal(seen["rows"], fwd)
        assert seen["share"] == 0.01 and seen["states"]() is None
        assert 0.0 <= gap <= 1e-12 and gap == seen["gap"].max()
        assert np.abs(fwd - transposed_rows(problem)).max() <= 1e-8 * np.abs(fwd).max()


def kernel_problem(obs_indices, nt=33, nz=17):
    """A problem observed at the given time nodes, node 0 and repeats too.

    ObservationSet rejects a time at node 0 and repeated times, but a time
    within the grid tolerance of 0, or two times within it of each other,
    still map to such nodes, so the constructions must handle them. Each
    time here sits 1e-12 past its node.
    """
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    profile = CoefficientProfile(grid=grid, k=1.0 + 0.5 * z, w=0.2 * np.sin(np.pi * z))
    tgrid = TimeGrid(t_end=1.0, n=nt)
    n_obs = len(obs_indices)
    weights = tuple(
        Weight(grid=grid, values=1.0 + np.cos((i + 1) * np.pi * z) + z)
        for i in range(n_obs)
    )
    times = [n * tgrid.spacing + 1e-12 * (i + 1) for i, n in enumerate(obs_indices)]
    obs = ObservationSet(
        times=times, values=np.zeros(n_obs), noise_levels=np.ones(n_obs)
    )
    problem = AssimilationProblem(
        profile=profile,
        q0=np.zeros(nz),
        observations=obs,
        weights=weights,
        prior=dirichlet_prior(tgrid),
    )
    assert problem.obs_indices == tuple(obs_indices)
    return problem


def brute_force_rows(problem):
    """Row i, entry m: observation i of one forward solve driven by hat m."""
    tgrid = problem.prior.grid
    q0 = np.zeros(problem.profile.grid.n)
    rows = np.zeros((len(problem.obs_indices), tgrid.n))
    for m in range(tgrid.n):
        hat = FluxSignal(grid=tgrid, values=np.eye(tgrid.n)[m])
        field = solve_forward(problem.profile, hat, q0)
        for i, (w, n_i) in enumerate(zip(problem.weights, problem.obs_indices)):
            rows[i, m] = apply_observation(w, field[:, n_i])
    return rows


def transposed_rows(problem):
    """G from one transposed sweep per observation: row i is e_i^T G."""
    eye = np.eye(len(problem.observations))
    return np.array([transport.flux_sensitivity(*problem._sweep_args, e) for e in eye])


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
        kernel = problem.forward_rows
        assert np.abs(kernel - brute).max() <= 1e-12 * scale
        adjoint = transposed_rows(problem)
        assert np.abs(adjoint - brute).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        ("obs_indices", "nt"),
        [((0, 9, 20), 33), ((5, 32), 33), ((12, 12, 30), 33), ((0,), 33), ((1,), 2)],
    )
    def test_adjoint_sweeps_start_at_the_latest_impulse(
        self, monkeypatch, obs_indices, nt
    ):
        # the sweep for an observation at node n_i takes n_i backward steps
        solves = Counter()
        original = transport.factor_tridiagonal

        def counting(*bands):
            solve = original(*bands)

            def counted(rhs):
                solves["n"] += 1
                return solve(rhs)

            def in_place(b):  # the sweep's step: one solve per call
                step = solve.in_place(b)
                return lambda: (solves.update(n=1), step())

            counted.in_place = in_place
            return counted

        monkeypatch.setattr(transport, "factor_tridiagonal", counting)
        transposed_rows(kernel_problem(obs_indices, nt=nt))
        assert solves["n"] == sum(obs_indices)

    @pytest.mark.parametrize(
        ("obs_indices", "nt"),
        [((0, 9, 20), 33), ((12, 12, 30), 33), ((0, 0), 33), ((0, 1), 2), ((1, 1), 2)],
        ids=["first-node", "same-node", "only-node-0", "nt2-both-nodes", "nt2-same-node"],
    )
    def test_the_z_transform_check_reads_rounding(self, obs_indices, nt):
        # a row at node 0 is zero, and so is its closed form: the form for
        # n_i >= 1 would give (f_i d)^T (Ls - (1 + i t) M)^-1 c0 there
        problem = kernel_problem(obs_indices, nt=nt)
        assert problem.forward_map_sketch_rel_gap <= 1e-13
        rows, states = transport.impulse_response(*problem._sweep_args)
        gap = numerics._impulse_transform_gap(*problem._sweep_args, rows, states, [0.3], 0.01)
        for value, n_i in zip(gap, obs_indices):
            assert value <= 1e-13 and (value == 0.0) == (n_i == 0)

    def test_rows_vanish_beyond_the_observation_time(self):
        problem = kernel_problem((0, 9, 20))
        rows = problem.forward_rows
        for row, n_i in zip(rows, problem.obs_indices):
            assert not row[n_i + 1 :].any()
        assert not rows[0].any()
