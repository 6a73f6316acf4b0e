"""Forward solver: accuracy, exact mass accounting, energy envelope, I/O."""

import tracemalloc

import numpy as np
import pytest

import colflux.numerics as numerics
import colflux.transport as transport
from colflux.errors import DiagnosticError, StabilityError
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, trapezoid
from colflux.transport import (
    FluxSignal,
    MixingRatioField,
    energy_fit,
    mass_balance_residual,
    solve_forward,
    write_field_csv,
)


def constant_profile(nz, k=1.0, h=1.0):
    grid = ColumnGrid(h=h, n=nz)
    return CoefficientProfile(grid=grid, k=np.full(nz, k), w=np.zeros(nz))


def random_profile(rng, nz, h=1.0):
    """Smooth random coefficients respecting closed boundaries."""
    grid = ColumnGrid(h=h, n=nz)
    z = grid.nodes / h
    k = 1.0 + 0.5 * rng.random() + 0.3 * rng.random() * np.cos(np.pi * z)
    w = rng.uniform(-1.0, 1.0) * np.sin(np.pi * z) ** 2
    return CoefficientProfile(grid=grid, k=k, w=w)


class TestSolveForward:
    def test_pure_mode_decay(self):
        # with k=1, w=0, F=0 the initial profile cos(pi z) decays as
        # e^{-pi^2 t}; both boundary conditions are satisfied exactly
        nz, nt = 129, 128
        profile = constant_profile(nz)
        tgrid = TimeGrid(t_end=0.1, n=nt + 1)
        flux = FluxSignal(grid=tgrid, values=np.zeros(nt + 1))
        q0 = np.cos(np.pi * profile.grid.nodes)
        field = solve_forward(profile, flux, q0)
        expected = np.exp(-np.pi**2 * 0.1) * q0
        err = np.abs(field.column(nt) - expected).max()
        assert err < 2e-4, f"max error {err:.3e}"

    def test_pure_mode_second_order(self):
        errors = []
        for nz, nt in ((33, 32), (65, 64)):
            profile = constant_profile(nz)
            tgrid = TimeGrid(t_end=0.1, n=nt + 1)
            flux = FluxSignal(grid=tgrid, values=np.zeros(nt + 1))
            q0 = np.cos(np.pi * profile.grid.nodes)
            field = solve_forward(profile, flux, q0)
            expected = np.exp(-np.pi**2 * 0.1) * q0
            errors.append(np.abs(field.column(nt) - expected).max())
        order = np.log2(errors[0] / errors[1])
        assert order > 1.9, f"observed order {order:.2f}, errors {errors}"

    def test_zero_everything_stays_zero(self):
        profile = constant_profile(11)
        tgrid = TimeGrid(t_end=1.0, n=9)
        flux = FluxSignal(grid=tgrid, values=np.zeros(9))
        field = solve_forward(profile, flux, np.zeros(11))
        assert np.all(field.values == 0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_forcing_reports_the_step(self):
        profile = constant_profile(11)
        tgrid = TimeGrid(t_end=1.0, n=9)
        flux = FluxSignal(grid=tgrid, values=np.full(9, 1e308))
        with pytest.raises(StabilityError) as err:
            solve_forward(profile, flux, np.zeros(11))
        assert err.value.step == 1

    def test_a_non_finite_scale_fails_closed(self, monkeypatch):
        # the constructor refuses such a scale, so plant one on a built
        # profile: the sweep reads the profile's d, and its states turn NaN
        profile = constant_profile(11)
        monkeypatch.setitem(profile.__dict__, "d", np.full(11, np.inf))
        tgrid = TimeGrid(t_end=1.0, n=9)
        flux = FluxSignal(grid=tgrid, values=np.ones(9))
        with pytest.raises(StabilityError) as err:
            solve_forward(profile, flux, np.ones(11))
        assert err.value.step == 1

    def test_shape_validation(self):
        profile = constant_profile(11)
        tgrid = TimeGrid(t_end=1.0, n=9)
        flux = FluxSignal(grid=tgrid, values=np.zeros(9))
        with pytest.raises(ValueError, match="q0"):
            solve_forward(profile, flux, np.zeros(10))

    def test_kept_nodes_are_the_field_columns(self):
        # the observing solve stores no field, yet its states are the same
        # bits as the full field's columns, repeated nodes included
        nz, nt = 257, 4096
        profile = random_profile(np.random.default_rng(2), nz)
        tgrid = TimeGrid(t_end=1.0, n=nt + 1)
        flux = FluxSignal(grid=tgrid, values=np.sin(3.0 * tgrid.nodes))
        q0 = 0.3 + 0.1 * np.cos(np.pi * profile.grid.nodes)
        nodes = [0, 1500, 1500, nt]
        states = solve_forward(profile, flux, q0, nodes=nodes)
        full = solve_forward(profile, flux, q0)
        np.testing.assert_array_equal(states, full.values[:, nodes])

    def test_kept_nodes_validation(self):
        profile = constant_profile(11)
        flux = FluxSignal(grid=TimeGrid(t_end=1.0, n=9), values=np.zeros(9))
        assert solve_forward(profile, flux, np.zeros(11), nodes=[]).shape == (11, 0)
        with pytest.raises(ValueError, match="nodes"):
            solve_forward(profile, flux, np.zeros(11), nodes=[9])

    def test_flux_signal_validation(self):
        tgrid = TimeGrid(t_end=1.0, n=9)
        with pytest.raises(ValueError, match="nodal"):
            FluxSignal(grid=tgrid, values=np.zeros(8))
        with pytest.raises(ValueError, match="finite"):
            FluxSignal(grid=tgrid, values=np.full(9, np.inf))


class TestFluxSensitivity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_c_times_the_impulse_rows(self, seed):
        # two observations on node 20, and a zero coefficient on the latest node
        rng = np.random.default_rng(seed)
        profile = random_profile(rng, 49)
        tgrid = TimeGrid(t_end=0.5, n=65)
        nodes = (5, 20, 20, 40, 64)
        functionals = rng.random((len(nodes), 49)) * profile.grid.weights
        c = rng.standard_normal(len(nodes))
        c[-1] = 0.0
        expected = c @ transport.impulse_response(profile, tgrid, functionals, nodes)[0]
        got = transport.flux_sensitivity(profile, tgrid, functionals, nodes, c)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
        assert not got[41:].any()


class TestImpulseTransformGap:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_closed_form_is_the_z_transform_of_the_rows(self, seed):
        # rows at node 0, at a repeated node and at the last node; the sum
        # taken term by term, with z^k = exp(i k theta), against the closed
        # form in the unscaled state q = D u with the dense L and R
        rng = np.random.default_rng(seed)
        profile = random_profile(rng, 49)
        tgrid = TimeGrid(t_end=0.5, n=65)
        nodes = (0, 5, 20, 20, 64)
        functionals = rng.random((len(nodes), 49)) * profile.grid.weights
        rows, states = transport.impulse_response(profile, tgrid, functionals, nodes)
        # one state per distinct node, in ascending order
        assert states.shape == (4, 49) and not rows[0].any() and not states[0].any()
        left, right = dense_cn_matrices(profile, tgrid.spacing)
        c0 = np.eye(49)[0] * 0.5 * tgrid.spacing * profile.k[0]
        psi = np.float32([1e-3, 0.4, 1.4]).astype(float)
        lags = np.subtract.outer(nodes, np.arange(tgrid.n))
        scale = np.maximum(np.abs(rows).max(axis=1), 1e-300)
        for p in psi:
            z = np.exp(1j * (np.pi - 2.0 * p))
            expected = (rows * np.exp(1j * (np.pi - 2.0 * p) * lags)).sum(axis=1)
            for i, n_i in enumerate(nodes[1:], start=1):
                q = profile.d * states[[0, 5, 20, 64].index(n_i)]
                rhs = c0 - np.exp(1j * (np.pi - 2.0 * p) * n_i) * (right @ q)
                closed = (1.0 + z) * functionals[i] @ np.linalg.solve(left - z * right, rhs)
                assert abs(closed - expected[i]) <= 1e-12 * scale[i]
        gap = numerics._impulse_transform_gap(
            profile, tgrid, functionals, nodes, rows, states, psi, 0.01
        )
        assert gap.shape == (5,) and gap[0] == 0.0 and (gap <= 1e-12).all()

    @pytest.mark.parametrize("row", [1, 2, 3, 4])
    def test_one_wrong_entry_reads_its_size(self, row):
        # an entry off by d times its row's largest reads d at every
        # frequency: the response has reached each of these weights
        rng = np.random.default_rng(4)
        profile = random_profile(rng, 49)
        tgrid = TimeGrid(t_end=0.5, n=65)
        nodes = (0, 5, 20, 20, 64)
        functionals = rng.random((len(nodes), 49)) * profile.grid.weights
        rows, states = transport.impulse_response(profile, tgrid, functionals, nodes)
        rows[row, 3] += 1e-6 * np.abs(rows[row]).max()
        for p in (1e-3, 0.4, 1.4):
            gap = numerics._impulse_transform_gap(
                profile, tgrid, functionals, nodes, rows, states, [p], 0.01
            )
            assert abs(gap[row] - 1e-6) <= 1e-11
            assert np.delete(gap, row).max() <= 1e-12

    def test_a_weight_the_response_has_not_reached_reads_rounding(self):
        # a weight on the lowest 30% of a slow column, read at t = 0.25: its
        # row (largest entry about 1e-116) is the difference of two terms
        # about 1e6 times larger, which the sweep's rounding perturbs
        # relative to their own size. Over the row the gap is far past the
        # gate; over the closed form's size under rounding it is rounding
        grid = ColumnGrid(h=1.0, n=257)
        profile = CoefficientProfile(grid=grid, k=np.full(257, 1e-3), w=np.zeros(257))
        tgrid = TimeGrid(t_end=1.0, n=256)
        functionals = (grid.weights * (grid.nodes >= 0.7))[None, :]
        rows, states = transport.impulse_response(profile, tgrid, functionals, (64,))
        assert 0.0 < np.abs(rows).max() < 1e-100
        args = (profile, tgrid, functionals, (64,), rows, states, [1.2059179544448853])
        assert numerics._impulse_transform_gap(*args, 0.01)[0] <= 1e-13
        assert numerics._impulse_transform_gap(*args, 0.0)[0] > 1.0


def dense_cn_matrices(profile, dt):
    """Dense L = M - dt/2 S and R = M + dt/2 S, with S assembled face by
    face: face j+1/2 carries the flux kf (q[j+1] - q[j]) - wf (q[j] + q[j+1])
    out of node j and into node j+1."""
    n, dz = profile.grid.n, profile.grid.spacing
    kf = 0.5 * (profile.k[:-1] + profile.k[1:]) / dz
    wf = 0.25 * (profile.w[:-1] + profile.w[1:])
    s = np.zeros((n, n))
    for j in range(n - 1):
        flux = np.zeros(n)
        flux[j], flux[j + 1] = -kf[j] - wf[j], kf[j] - wf[j]
        s[j] += flux
        s[j + 1] -= flux
    m = np.diag(profile.grid.weights)
    return m - 0.5 * dt * s, m + 0.5 * dt * s


class TestCrankNicolsonStep:
    @pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transposed"])
    @pytest.mark.parametrize("peclet", [0.3, 0.95])
    def test_one_step_matches_the_dense_solve(self, transpose, peclet):
        # the symmetrized step without R against L q' = R q + b (or the
        # transposes) solved densely, with an advective, variable profile
        grid = ColumnGrid(h=1.0, n=41)
        z = grid.nodes
        k = 0.5 + z * (1.0 - z)
        w = peclet * (2.0 * 0.5 / grid.spacing) * np.sin(np.pi * z)
        profile = CoefficientProfile(grid=grid, k=k, w=w)
        rng = np.random.default_rng(3)
        q, b = rng.standard_normal((2, grid.n))
        left, right = dense_cn_matrices(profile, 0.01)
        if transpose:
            left, right = left.T, right.T
        expected = np.linalg.solve(left, right @ q + b)

        d = profile.d
        scale = d if transpose else 1.0 / d  # u = scale q

        def forcing(n, rhs):
            rhs += scale * b

        sweep = transport._cn_sweep(profile, 0.01, q, range(1), forcing, transpose)
        seen = [u / scale for _, u in sweep]
        assert np.abs(seen[0] - expected).max() <= 1e-12 * np.abs(expected).max()


class TestMassBalance:
    def test_constant_injection_grows_linearly(self):
        profile = constant_profile(51, k=2.0)
        tgrid = TimeGrid(t_end=1.0, n=65)
        flux = FluxSignal(grid=tgrid, values=np.full(65, 0.3))
        field = solve_forward(profile, flux, np.zeros(51))
        totals = trapezoid(field.values, profile.grid, axis=0)
        np.testing.assert_allclose(totals, 2.0 * 0.3 * tgrid.nodes, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_at_rounding_level(self, seed):
        rng = np.random.default_rng(seed)
        profile = random_profile(rng, 101)
        tgrid = TimeGrid(t_end=1.0, n=129)
        flux = FluxSignal(
            grid=tgrid,
            values=rng.uniform(-1, 1) + np.sin(2 * np.pi * rng.random() * tgrid.nodes),
        )
        q0 = 1.0 + np.cos(np.pi * profile.grid.nodes) * rng.uniform(-1, 1)
        field = solve_forward(profile, flux, q0)
        residual = mass_balance_residual(field, profile, flux)
        scale = 1.0 + np.abs(q0).max() + np.abs(flux.values).max()
        assert np.abs(residual).max() <= 1e-10 * scale
        assert residual[0] == 0.0


class TestEnergyFit:
    def test_decaying_mode_needs_exactly_one(self):
        # at t=0 the bound reads K * ||q0||^2 >= ||q0||^2, so K >= 1 with
        # equality attained; decay keeps later times below the envelope
        profile = constant_profile(65)
        tgrid = TimeGrid(t_end=0.5, n=33)
        flux = FluxSignal(grid=tgrid, values=np.zeros(33))
        q0 = np.cos(np.pi * profile.grid.nodes)
        field = solve_forward(profile, flux, q0)
        assert abs(energy_fit(field, flux, q0) - 1.0) < 1e-9

    def test_zero_solution_needs_zero(self):
        profile = constant_profile(11)
        tgrid = TimeGrid(t_end=1.0, n=5)
        flux = FluxSignal(grid=tgrid, values=np.zeros(5))
        field = solve_forward(profile, flux, np.zeros(11))
        assert energy_fit(field, flux, np.zeros(11)) == 0.0

    def test_forced_solve_admits_modest_constant(self):
        rng = np.random.default_rng(3)
        profile = random_profile(rng, 81)
        tgrid = TimeGrid(t_end=1.0, n=65)
        flux = FluxSignal(grid=tgrid, values=np.sin(4.0 * tgrid.nodes) + 0.5)
        q0 = np.ones(81)
        field = solve_forward(profile, flux, q0)
        assert energy_fit(field, flux, q0) < 10.0

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_column_blocks_match_the_whole_field(self, monkeypatch, block):
        rng = np.random.default_rng(4)
        profile = random_profile(rng, 81)
        tgrid = TimeGrid(t_end=1.0, n=201)
        flux = FluxSignal(grid=tgrid, values=np.cos(6.0 * tgrid.nodes) - 0.2)
        q0 = 0.5 + np.sin(np.pi * profile.grid.nodes)
        field = solve_forward(profile, flux, q0)
        monkeypatch.setattr(transport, "_ENERGY_BLOCK", tgrid.n)
        whole = energy_fit(field, flux, q0)
        monkeypatch.setattr(transport, "_ENERGY_BLOCK", block)
        assert abs(energy_fit(field, flux, q0) - whole) <= 1e-3 * whole

    def test_column_norms_need_no_squared_field(self):
        # squaring the whole field first took 32.9 MB beside this 32.8 MB one
        nz, nt = 1001, 4096
        grid = ColumnGrid(h=1.0, n=nz)
        tgrid = TimeGrid(t_end=1.0, n=nt + 1)
        q0 = np.cos(np.pi * grid.nodes)
        field = MixingRatioField(
            grid=grid, time_grid=tgrid, values=np.outer(q0, np.exp(-tgrid.nodes))
        )
        flux = FluxSignal(grid=tgrid, values=np.zeros(nt + 1))
        tracemalloc.start()
        try:
            constant = energy_fit(field, flux, q0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert constant == 1.0
        assert peak < 2e6, f"energy_fit peaked at {peak / 1e6:.1f} MB"

    def test_unbudgeted_energy_is_diagnosed(self):
        # a nonzero field with zero initial state and zero forcing has an
        # empty budget, so no finite constant can certify it
        grid = ColumnGrid(h=1.0, n=5)
        tgrid = TimeGrid(t_end=1.0, n=3)
        field = MixingRatioField(
            grid=grid, time_grid=tgrid, values=np.ones((5, 3))
        )
        flux = FluxSignal(grid=tgrid, values=np.zeros(3))
        with pytest.raises(DiagnosticError):
            energy_fit(field, flux, np.zeros(5))

    @pytest.mark.parametrize("where", ["field", "flux", "q0"])
    def test_overflowing_squares_are_diagnosed(self, where):
        # an infinite squared norm makes every K > 0 admissible, and the
        # bisection then never ended; no overflow warning may escape either
        grid = ColumnGrid(h=1.0, n=5)
        tgrid = TimeGrid(t_end=1.0, n=3)
        big = {name: 1e200 if name == where else 1.0 for name in ("field", "flux", "q0")}
        field = MixingRatioField(
            grid=grid, time_grid=tgrid, values=np.full((5, 3), big["field"])
        )
        flux = FluxSignal(grid=tgrid, values=np.full(3, big["flux"]))
        with pytest.raises(DiagnosticError, match="overflow"):
            energy_fit(field, flux, np.full(5, big["q0"]))


class TestFieldCsv:
    def test_round_trip_bytes(self, tmp_path):
        profile = constant_profile(5)
        tgrid = TimeGrid(t_end=1.0, n=3)
        flux = FluxSignal(grid=tgrid, values=np.array([0.0, 1.0, 0.5]))
        field = solve_forward(profile, flux, np.linspace(0, 1, 5))
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "z"
        assert len(lines) == 6
        header_times = [float(s) for s in lines[0].split(",")[1:]]
        np.testing.assert_array_equal(header_times, tgrid.nodes)
        row = lines[3].split(",")
        assert float(row[0]) == profile.grid.nodes[2]
        np.testing.assert_array_equal(
            [float(s) for s in row[1:]], field.values[2]
        )
