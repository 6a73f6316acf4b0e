"""Acceptance gate: one test per shipping criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion appears as
one PASSED/FAILED row, and each test also prints an explicit PASS/FAIL line
(visible with ``-s`` or in the captured output of a failing run) together
with its runtime. Budgets are enforced inside the tests.
"""

import contextlib
import json
import time

import numpy as np

from colflux.assimilate import (
    AssimilationProblem,
    PriorSpec,
    cost,
    gradient,
    hessian_form,
    map_estimate,
    oracle_bayes,
    oracle_covariance,
    prior_quadratic_form,
    representer_rows,
)
from colflux.cli import main
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, trapezoid
from colflux.observe import (
    ObservationSet,
    Weight,
    canonical_weights,
    synthesize_data,
)
from colflux.posterior import (
    PosteriorModel,
    analyze_gain,
    blind_direction,
    gain_direction,
    monotone_weight_check,
    precision_apply,
    quadratic_form,
)
from colflux.spectral import eigensystem, expand_weight, muntz_partial_sums
from colflux.transport import FluxSignal, mass_balance_residual, solve_forward


@contextlib.contextmanager
def criterion(label, budget=None):
    """Print one PASS/FAIL line for the enclosed checks; enforce the budget."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        if budget is not None:
            took = time.perf_counter() - start
            assert took < budget, (
                f"{label}: runtime {took:.1f}s exceeds the {budget:.0f}s budget"
            )
        ok = True
    finally:
        took = time.perf_counter() - start
        print(f"{label}: {'PASS' if ok else 'FAIL'} [{took:.1f}s]")


def constant_profile(nz):
    grid = ColumnGrid(h=1.0, n=nz)
    return CoefficientProfile(grid=grid, k=np.ones(nz), w=np.zeros(nz))


def sloped_profile(nz, slope=0.5, w_amp=0.0):
    grid = ColumnGrid(h=1.0, n=nz)
    z = grid.nodes
    return CoefficientProfile(
        grid=grid, k=1.0 + slope * z, w=w_amp * np.sin(np.pi * z) ** 2
    )


def time_weights(tgrid):
    wt = np.full(tgrid.n, tgrid.spacing)
    wt[0] = wt[-1] = 0.5 * tgrid.spacing
    return wt


def sine_basis(tgrid, n):
    t = tgrid.nodes
    basis = np.array([np.sin((k + 1) * np.pi * t / tgrid.t_end) for k in range(n)])
    basis[:, -1] = 0.0
    return basis


def test_ac01_constant_profile_eigensystem():
    with criterion("AC1 constant-profile eigensystem", budget=10.0):
        profile = constant_profile(2001)
        z = profile.grid.nodes
        eig = eigensystem(profile, 11)
        assert abs(eig.eigenvalues[0]) <= 1e-8
        assert np.abs(eig.modes[:, 0] - 1.0).max() <= 1e-8
        for n in range(1, 11):
            exact = (n * np.pi) ** 2
            assert abs(eig.eigenvalues[n] - exact) <= 1e-4 * exact, f"mode {n}"
            gap = np.abs(eig.modes[:, n] - np.cos(n * np.pi * z)).max()
            assert gap <= 1e-4, f"mode {n}: sup gap {gap:.2e}"
        wmu = profile.grid.weights * eig.mu
        gram = (eig.modes * wmu[:, None]).T @ eig.modes
        gram /= np.sqrt(np.outer(eig.mu_norms, eig.mu_norms))
        assert np.abs(gram - np.eye(11)).max() <= 1e-8


def test_ac02_column_mass_conservation():
    with criterion("AC2 discrete mass balance, 100 random cases", budget=60.0):
        zgrid = ColumnGrid(h=1.0, n=101)
        tgrid = TimeGrid(t_end=1.0, n=129)
        z, t = zgrid.nodes, tgrid.nodes
        for case in range(100):
            rng = np.random.default_rng(1000 + case)
            k = 0.4 + np.exp(rng.uniform(-1, 1) * np.sin(np.pi * z + rng.uniform(0, 6)))
            w = rng.uniform(-1.5, 1.5) * np.sin(np.pi * z) ** 2
            profile = CoefficientProfile(grid=zgrid, k=k, w=w)
            flux = FluxSignal(
                grid=tgrid,
                values=rng.normal(size=4)
                @ np.array([np.ones_like(t), t, np.sin(2 * np.pi * t), np.cos(np.pi * t)]),
            )
            q0 = rng.normal(size=3) @ np.array([np.ones_like(z), np.cos(np.pi * z), z**2])
            field = solve_forward(profile, flux, q0)
            resid = np.abs(mass_balance_residual(field, profile, flux)).max()
            scale = 1.0 + np.abs(q0).max() + np.abs(flux.values).max()
            assert resid <= 1e-10 * scale, f"case {case}: residual {resid:.2e}"


def test_ac03_gains_match_representers_and_dense_posterior():
    with criterion("AC3 spectral gains vs adjoint representers and dense posterior", budget=120.0):
        profile = sloped_profile(513, slope=0.5, w_amp=0.2)
        eig = eigensystem(profile, 64)
        tgrid = TimeGrid(t_end=1.0, n=512)
        times = np.array([128, 256, 511]) * tgrid.spacing
        noise = np.array([0.3, 0.2, 0.25])
        coeffs = np.array(
            [
                [1.0, 0.6, -0.3, 0.15, 0.1, -0.05],
                [1.0, -0.5, 0.25, -0.1, 0.05, 0.02],
                [0.8, 0.3, 0.3, -0.2, 0.05, 0.05],
            ]
        )
        weights = tuple(
            Weight(grid=profile.grid, values=eig.modes[:, :6] @ a) for a in coeffs
        )
        prior = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(tgrid.n)),
            kind="dirichlet_inverse_laplacian",
            sigma=0.8,
        )
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(profile.grid.n),
            observations=ObservationSet(
                times=times, values=np.zeros(3), noise_levels=noise
            ),
            weights=weights,
            prior=prior,
        )

        rows = representer_rows(problem)
        wt = time_weights(tgrid)
        gains = []
        for i in range(3):
            a = expand_weight(weights[i].values, eig)
            gain = gain_direction(eig, a, times[i], noise[i], tgrid)
            gains.append(gain)
            diff = rows[i] - gain.values
            rel = np.sqrt(wt @ diff**2 / (wt @ gain.values**2))
            assert rel <= 1e-2, f"observation {i}: relative L2 gap {rel:.2e}"

        cov = oracle_covariance(problem)
        model = PosteriorModel(prior=prior, gains=tuple(gains))
        basis = sine_basis(tgrid, 8)
        rng = np.random.default_rng(42)
        for trial in range(10):
            g = rng.standard_normal(8) @ basis
            back = cov @ (wt * precision_apply(model, g))
            rel = np.linalg.norm(back - g) / np.linalg.norm(g)
            assert rel <= 1e-2, f"function {trial}: covariance round trip {rel:.2e}"


def test_ac04_hessian_form_matches_low_rank_posterior_form():
    with criterion("AC4 assimilation Hessian vs low-rank posterior form", budget=60.0):
        profile = sloped_profile(401)
        eig = eigensystem(profile, 32)
        tgrid = TimeGrid(t_end=1.0, n=257)
        times = np.array([64, 128, 192]) * tgrid.spacing
        noise = np.array([0.25, 0.2, 0.3])
        coeffs = np.array(
            [
                [1.0, 0.5, -0.25, 0.1, 0.05, -0.02],
                [0.9, -0.4, 0.2, -0.1, 0.02, 0.01],
                [1.1, 0.2, 0.2, -0.15, -0.05, 0.03],
            ]
        )
        weights = tuple(
            Weight(grid=profile.grid, values=eig.modes[:, :6] @ a) for a in coeffs
        )
        prior = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(tgrid.n)),
            kind="dirichlet_inverse_laplacian",
            sigma=0.9,
        )
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(profile.grid.n),
            observations=ObservationSet(
                times=times, values=np.zeros(3), noise_levels=noise
            ),
            weights=weights,
            prior=prior,
        )
        gains = tuple(
            gain_direction(eig, expand_weight(w.values, eig), t_i, r_i, tgrid)
            for w, t_i, r_i in zip(weights, times, noise)
        )
        model = PosteriorModel(prior=prior, gains=gains)
        basis = sine_basis(tgrid, 8)
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = rng.standard_normal(8) @ basis
            dense = hessian_form(problem, g)
            low = quadratic_form(model, g)
            assert abs(dense - low) <= 1e-2 * abs(dense), (
                f"direction {trial}: Hessian {dense:.6e} vs posterior {low:.6e}"
            )


def test_ac05_surface_vs_top_mean_gain_gap():
    with criterion("AC5 canonical weight pair mean-gain gap", budget=10.0):
        eig = eigensystem(constant_profile(401), 8)
        tgrid = TimeGrid(t_end=1.0, n=257)
        plus, minus = canonical_weights(eig)
        g_plus = gain_direction(eig, plus.coefficients, 1.0, 1.0, tgrid)
        g_minus = gain_direction(eig, minus.coefficients, 1.0, 1.0, tgrid)
        gap = (
            analyze_gain(g_plus).mean_projection
            - analyze_gain(g_minus).mean_projection
        )
        lam1 = eig.eigenvalues[1]
        expected = 2.0 * (1.0 - np.exp(-lam1)) / lam1
        assert gap > 0.0
        assert abs(gap - expected) <= 1e-6 * expected
        # continuum limit 2 (1 - e^{-pi^2}) / pi^2
        assert abs(gap - 0.20263188597577972) <= 5e-4


def test_ac06_monotone_weights_give_counter_monotone_gains():
    with criterion("AC6 monotone weights classify counter-monotone", budget=60.0):
        zgrid = ColumnGrid(h=1.0, n=401)
        z = zgrid.nodes
        profiles = (
            CoefficientProfile(grid=zgrid, k=np.ones(401), w=np.zeros(401)),
            CoefficientProfile(grid=zgrid, k=1.0 + 0.5 * z, w=np.zeros(401)),
        )
        # smooth nondecreasing ramps: z itself plus z - sin(2 pi k z)/(2 pi k),
        # whose derivatives 1 - cos(2 pi k z) never go negative
        ramps = np.array(
            [z] + [z - np.sin(2 * np.pi * k * z) / (2 * np.pi * k) for k in (1, 2, 3)]
        )
        rng = np.random.default_rng(106)
        increasing = [
            0.5 + rng.uniform(0.05, 1.0, size=4) @ ramps for _ in range(20)
        ]
        decreasing = [
            (0.5 + rng.uniform(0.05, 1.0, size=4) @ ramps)[::-1].copy()
            for _ in range(20)
        ]
        for profile in profiles:
            eig = eigensystem(profile, 16)
            for i, v in enumerate(increasing + decreasing):
                rho = Weight(grid=zgrid, values=v)
                assert monotone_weight_check(profile, eig, rho, 1.0), f"weight {i}"


def test_ac07_blind_direction_is_invisible():
    with criterion("AC7 truncation-blind direction projections", budget=30.0):
        profile = constant_profile(401)
        eig = eigensystem(profile, 24)
        tgrid = TimeGrid(t_end=1.0, n=257)
        blind = blind_direction(eig, 1.0, 20, tgrid, lambda t: t * t)
        bnorm = np.sqrt(trapezoid(blind**2, tgrid))
        z = profile.grid.nodes
        cosines = np.array([np.cos(k * np.pi * z) for k in range(5)])
        rng = np.random.default_rng(77)
        gains = []
        for case in range(50):
            s = (rng.standard_normal(5) / (1.0 + np.arange(5) ** 2)) @ cosines
            rho = s**2 + 0.1
            a = expand_weight(rho, eig)[:20]
            gain = gain_direction(eig, a, 1.0, 0.4, tgrid)
            gains.append(gain)
            gnorm = np.sqrt(trapezoid(gain.values**2, tgrid))
            proj = abs(trapezoid(blind * gain.values, tgrid)) / (bnorm * gnorm)
            assert proj <= 1e-6, f"weight {case}: normalized projection {proj:.2e}"
        prior = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(tgrid.n)),
            kind="diagonal",
            sigma=1.0,
        )
        model = PosteriorModel(prior=prior, gains=tuple(gains))
        pf = prior_quadratic_form(prior, blind)
        qf = quadratic_form(model, blind)
        assert abs(qf - pf) <= 1e-9 * pf, f"forms differ: {qf!r} vs {pf!r}"


def test_ac08_adjoint_gradient_and_map_estimate():
    with criterion("AC8 gradient vs differences; MAP vs dense solve", budget=60.0):
        profile = sloped_profile(201, slope=0.25, w_amp=0.3)
        tgrid = TimeGrid(t_end=1.0, n=129)
        t = tgrid.nodes
        eig = eigensystem(profile, 8)
        plus, minus = canonical_weights(eig)
        weights = (plus, minus, plus)
        times = np.array([32, 64, 128]) * tgrid.spacing
        noise = np.array([0.1, 0.15, 0.1])
        true_flux = FluxSignal(grid=tgrid, values=np.sin(np.pi * t) ** 2)
        obs = synthesize_data(
            profile, true_flux, np.zeros(profile.grid.n), weights, times, noise, seed=11
        )
        prior = PriorSpec(
            mean=FluxSignal(grid=tgrid, values=np.zeros(tgrid.n)),
            kind="dirichlet_inverse_laplacian",
            sigma=0.7,
        )
        problem = AssimilationProblem(
            profile=profile,
            q0=np.zeros(profile.grid.n),
            observations=obs,
            weights=weights,
            prior=prior,
        )

        base = FluxSignal(grid=tgrid, values=0.4 * np.sin(np.pi * t) ** 2)
        grad = gradient(problem, base)
        rng = np.random.default_rng(8)
        eps = 1e-6
        for trial in range(10):
            d = np.zeros(tgrid.n)
            d[1:-1] = rng.standard_normal(tgrid.n - 2)
            up = cost(problem, FluxSignal(grid=tgrid, values=base.values + eps * d))
            down = cost(problem, FluxSignal(grid=tgrid, values=base.values - eps * d))
            fd = (up - down) / (2.0 * eps)
            direct = trapezoid(grad * d, tgrid)
            assert abs(direct - fd) <= 1e-5 * max(1.0, abs(fd)), f"direction {trial}"

        flux_map, report = map_estimate(problem)
        mean = oracle_bayes(problem)
        assert report["converged"]
        rel = np.linalg.norm(flux_map.values - mean) / np.linalg.norm(mean)
        assert rel <= 1e-6, f"MAP vs dense mean: rel {rel:.2e}"


def test_ac09_mode_density_diagnostic():
    with criterion("AC9 mode-density sums: convergent vs logarithmic", budget=5.0):
        eig = eigensystem(constant_profile(401), 50)
        sums = muntz_partial_sums(eig)
        # closed form of sum_{n>=0} 1/(1 + (n pi)^2) is 1 + (coth(1) - 1)/2
        assert abs(sums.limit_estimate - 1.1565176427496657) <= 1e-3
        assert sums.reciprocal_sums[-1] - sums.reciprocal_sums[-2] <= 1e-3
        grow = sums.root_sums[48] - sums.root_sums[24]
        prev = sums.root_sums[24] - sums.root_sums[12]
        assert abs(grow / prev - 1.0) <= 0.05, "doubling increments should match"


SCENARIOS = (
    "validate",
    "simulate",
    "eigen",
    "weights",
    "gains",
    "assimilate",
    "oracle_check",
    "blind",
    "compare_altitude",
)


def test_ac10_byte_identical_reruns(tmp_path):
    with criterion("AC10 deterministic scenario outputs"):
        for scenario in SCENARIOS:
            out = tmp_path / scenario
            config = {
                "scenario": scenario,
                "grid": {"nz": 161, "nt": 128},
                "spectral": {"n_modes": 10},
                "seed": 5,
                "out": str(out),
            }
            if scenario == "blind":
                config["blind"] = {"m": 8}
            path = tmp_path / f"{scenario}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            assert main([scenario, "--config", str(path)]) == 0
            first = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main([scenario, "--config", str(path)]) == 0
            second = {p.name: p.read_bytes() for p in out.iterdir()}
            assert first == second, f"{scenario}: outputs changed between runs"
            assert len(first) > 1
