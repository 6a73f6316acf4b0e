"""Observation operator, canonical weights, and the synthetic data stream."""

import io

import numpy as np
import pytest

from colflux.errors import StabilityError
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, trapezoid
from colflux.observe import (
    ObservationSet,
    Weight,
    _standard_normals,
    add_noise,
    apply_observation,
    canonical_weights,
    synthesize_data,
    write_observations_csv,
    write_weight_csv,
)
from colflux.spectral import eigensystem
from colflux.transport import FluxSignal, solve_forward


@pytest.fixture
def grid():
    return ColumnGrid(h=1.0, n=201)


def constant_profile(nz=201, k=1.0):
    g = ColumnGrid(h=1.0, n=nz)
    return CoefficientProfile(grid=g, k=np.full(nz, k), w=np.zeros(nz))


class TestApplyObservation:
    def test_surface_pair_against_the_integral(self, grid):
        # int_0^1 (1 + cos(pi z)) cos(pi z) dz = 1/2, and the uniform
        # trapezoid rule hits it exactly for these sampled cosines
        rho = Weight(grid=grid, values=1.0 + np.cos(np.pi * grid.nodes))
        q = np.cos(np.pi * grid.nodes)
        assert abs(apply_observation(rho, q) - 0.5) < 1e-13

    def test_constant_column_measures_the_weight_mass(self, grid):
        rho = Weight(grid=grid, values=grid.nodes**2)
        got = apply_observation(rho, np.full(grid.n, 3.0))
        assert abs(got - 3.0 * trapezoid(grid.nodes**2, grid)) < 1e-14

    def test_shape_check(self, grid):
        rho = Weight(grid=grid, values=np.ones(grid.n))
        with pytest.raises(ValueError, match="shape"):
            apply_observation(rho, np.ones(7))


class TestCanonicalWeights:
    def test_values_and_coefficients(self):
        eig = eigensystem(constant_profile(), 6)
        plus, minus = canonical_weights(eig)
        z = eig.profile.grid.nodes
        np.testing.assert_allclose(plus.values, 1.0 + np.cos(np.pi * z), atol=1e-9)
        np.testing.assert_allclose(minus.values, 1.0 - np.cos(np.pi * z), atol=1e-9)
        np.testing.assert_array_equal(plus.coefficients, [1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(minus.coefficients, [1, -1, 0, 0, 0, 0])
        assert plus.label == "rho_plus" and minus.label == "rho_minus"

    def test_surface_values(self):
        eig = eigensystem(constant_profile(), 2)
        plus, minus = canonical_weights(eig)
        assert plus.values[0] == 2.0
        assert minus.values[0] == 0.0

    def test_nonnegative_for_pure_diffusion(self):
        eig = eigensystem(constant_profile(), 2)
        for w in canonical_weights(eig):
            assert w.is_nonnegative

    @pytest.mark.parametrize("nz, n_modes", [(1001, 2), (1001, 32), (4001, 2), (4001, 40)])
    def test_the_sign_allows_for_the_modes_rounding_only(self, nz, n_modes):
        # 1 + cos(pi z) is 0 at the bottom; its computed value may fall below
        # 0 by rounding, within the two modes' bound, and never further
        eig = eigensystem(constant_profile(nz), n_modes)
        plus, minus = canonical_weights(eig)
        assert plus.tolerance == minus.tolerance == eig.mode_errors[1] > 0.0
        assert plus.is_nonnegative and minus.is_nonnegative
        lower = plus.values - 2 * plus.tolerance  # below 0 by more than the bound
        assert not Weight(plus.grid, lower, tolerance=plus.tolerance).is_nonnegative
        assert not Weight(plus.grid, np.minimum(plus.values, -1e-300)).is_nonnegative

    def test_needs_two_modes(self):
        eig = eigensystem(constant_profile(), 1)
        with pytest.raises(ValueError, match="2 modes"):
            canonical_weights(eig)


class TestNoiseStream:
    def test_documented_recipe_reproduces_the_draw(self):
        # reimplement the documented construction: Philox 4x64 keyed by the
        # seed, counter [i, 0, 0, 0], Box-Muller cosine branch
        for seed, index in ((0, 0), (42, 3), (987654321, 17)):
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=[index, 0, 0, 0])
            )
            u = gen.random(2)
            expected = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])
            assert _standard_normals(seed, index + 1)[index] == expected

    def test_substreams_are_distinct_and_stable(self):
        draws = _standard_normals(7, 50).tolist()
        assert len(set(draws)) == 50
        assert draws == _standard_normals(7, 50).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 2**128 - 1])
    def test_an_added_observation_never_moves_earlier_noise(self, seed):
        # the draws for N observations are the first N of those for N + 5
        for n in (0, 1, 2, 3, 4, 5, 17, 40):
            more = _standard_normals(seed, n + 5)
            assert np.array_equal(_standard_normals(seed, n), more[:n]), n

    def test_moments_are_roughly_normal(self):
        draws = _standard_normals(123, 2000)
        assert abs(draws.mean()) < 0.08
        assert abs(draws.std() - 1.0) < 0.05

    def test_one_draw_for_all_observations_is_each_ones_recipe(self):
        # add_noise draws every observation's block at once; entry i is
        # still observation i's own (seed, i) draw, bit for bit, and a zero
        # noise level leaves its observation clean
        clean = np.linspace(-1.0, 1.0, 40)
        noise = np.where(np.arange(40) % 3, 0.3, 0.0)
        noisy = add_noise(clean, noise, 42)
        for i, (y, r) in enumerate(zip(clean, noise)):
            gen = np.random.Generator(np.random.Philox(key=42, counter=[i, 0, 0, 0]))
            u = gen.random(2)
            xi = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])
            assert noisy[i] == (y if r == 0.0 else y + r * xi)


class TestSynthesizeData:
    def setup_method(self):
        self.profile = constant_profile(101)
        self.tgrid = TimeGrid(t_end=1.0, n=65)
        self.flux = FluxSignal(
            grid=self.tgrid, values=np.sin(np.pi * self.tgrid.nodes)
        )
        self.q0 = np.zeros(101)
        eig = eigensystem(self.profile, 4)
        plus, minus = canonical_weights(eig)
        self.weights = [plus, minus, plus]
        self.times = np.array([0.25, 0.5, 1.0])

    def test_zero_noise_matches_the_forward_solve(self):
        obs = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            np.zeros(3), seed=5,
        )
        field = solve_forward(self.profile, self.flux, self.q0)
        for i, t in enumerate(self.times):
            idx = self.tgrid.index_of(t)
            clean = apply_observation(self.weights[i], field.column(idx))
            assert obs.values[i] == clean

    def test_noise_is_the_documented_stream(self):
        clean = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            np.zeros(3), seed=11,
        )
        noisy = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            np.full(3, 0.2), seed=11,
        )
        for i in range(3):
            expected = clean.values[i] + 0.2 * _standard_normals(11, 3)[i]
            assert noisy.values[i] == expected

    def test_seed_controls_the_bytes(self):
        kwargs = dict(noise_levels=np.full(3, 0.1))
        a = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            seed=1, **kwargs,
        )
        b = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            seed=1, **kwargs,
        )
        c = synthesize_data(
            self.profile, self.flux, self.q0, self.weights, self.times,
            seed=2, **kwargs,
        )
        assert csv_text(a) == csv_text(b)
        assert csv_text(a) != csv_text(c)

    def test_sweep_stops_at_the_latest_observation(self):
        # a flux that overflows the stepper only after the last observed
        # node never reaches the observing sweep
        late = np.where(self.tgrid.nodes > 0.6, 1e308, 0.0)
        flux = FluxSignal(grid=self.tgrid, values=late)
        obs = synthesize_data(
            self.profile, flux, self.q0, self.weights[:2], self.times[:2],
            np.zeros(2), seed=0,
        )
        assert np.isfinite(obs.values).all()
        with pytest.raises(StabilityError):
            solve_forward(self.profile, flux, self.q0)

    def test_off_grid_time_rejected(self):
        with pytest.raises(ValueError, match="node"):
            synthesize_data(
                self.profile, self.flux, self.q0, self.weights[:1],
                np.array([0.26]), np.zeros(1), seed=0,
            )

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must match"):
            synthesize_data(
                self.profile, self.flux, self.q0, self.weights[:2],
                self.times, np.zeros(3), seed=0,
            )


class TestObservationSet:
    def test_empty_set_is_allowed(self):
        obs = ObservationSet(
            times=np.array([]), values=np.array([]), noise_levels=np.array([])
        )
        assert len(obs) == 0

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ObservationSet(
                times=np.array([0.5, 0.25]),
                values=np.zeros(2),
                noise_levels=np.ones(2),
            )

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ObservationSet(
                times=np.array([0.0, 0.5]),
                values=np.zeros(2),
                noise_levels=np.ones(2),
            )

    def test_noise_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ObservationSet(
                times=np.array([0.5]),
                values=np.zeros(1),
                noise_levels=np.array([-0.1]),
            )

    @pytest.mark.parametrize(
        "field, message",
        [
            ("times", "observation time values must be finite"),
            ("values", "observed values must be finite"),
            ("noise_levels", "noise level values must be finite"),
        ],
    )
    def test_entries_must_be_finite(self, field, message):
        arrays = {"times": [0.5, 1.0], "values": [1.0, 2.0], "noise_levels": [0.1, 0.1]}
        arrays[field] = [arrays[field][0], np.nan]
        with pytest.raises(ValueError, match=f"^{message}$"):
            ObservationSet(**arrays)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="1-d"):
            ObservationSet(
                times=np.array([0.5]), values=np.zeros(2), noise_levels=np.ones(1)
            )


def csv_text(obs):
    stream = io.StringIO()
    write_observations_csv(obs, stream)
    return stream.getvalue()


class TestSerialization:
    def make(self):
        return ObservationSet(
            times=np.array([0.25, 0.5]),
            values=np.array([1.0 / 3.0, -2.5e-7]),
            noise_levels=np.array([0.1, 0.1]),
        )

    def test_csv_round_trips_floats(self):
        text = csv_text(self.make())
        lines = text.strip().split("\n")
        assert lines[0] == "t,y,r"
        t, y, r = (float(s) for s in lines[1].split(","))
        assert (t, y, r) == (0.25, 1.0 / 3.0, 0.1)

    def test_weight_csv(self, tmp_path, grid):
        w = Weight(grid=grid, values=np.cos(grid.nodes))
        path = tmp_path / "w.csv"
        write_weight_csv(w, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "z,rho"
        assert len(lines) == grid.n + 1
        z, v = (float(s) for s in lines[5].split(","))
        assert z == grid.nodes[4] and v == np.cos(grid.nodes[4])
