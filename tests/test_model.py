"""Profile validation and the self-adjointing density."""

import numpy as np
import pytest

from colflux.errors import AssumptionError
from colflux.model import CoefficientProfile, mu_weight
from colflux.numerics import ColumnGrid, TimeGrid
from colflux.spectral import eigensystem
from colflux.transport import FluxSignal, solve_forward


@pytest.fixture
def grid():
    return ColumnGrid(h=1.0, n=101)


def closed_w(grid, amplitude=1.0):
    """Velocity field vanishing at both boundaries."""
    return amplitude * np.sin(np.pi * grid.nodes) ** 2


class TestValidation:
    def test_accepts_constant_coefficients(self, grid):
        profile = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=np.zeros(grid.n))
        assert profile.epsilon == 1.0

    def test_epsilon_is_the_attained_minimum(self, grid):
        k = 2.0 + grid.nodes
        profile = CoefficientProfile(grid=grid, k=k, w=closed_w(grid))
        assert profile.epsilon == 2.0

    def test_epsilon_is_not_settable(self, grid):
        # it is always the attained minimum of k, so the constructor takes none
        with pytest.raises(TypeError, match="epsilon"):
            CoefficientProfile(
                grid=grid, k=np.ones(grid.n), w=np.zeros(grid.n), epsilon=0.5
            )

    def test_nonpositive_diffusivity_rejected(self, grid):
        k = 1.0 - 2.0 * grid.nodes
        with pytest.raises(AssumptionError) as err:
            CoefficientProfile(grid=grid, k=k, w=np.zeros(grid.n))
        assert err.value.assumption == "A2"

    def test_nonfinite_samples_rejected(self, grid):
        k = np.ones(grid.n)
        k[3] = np.nan
        with pytest.raises(AssumptionError) as err:
            CoefficientProfile(grid=grid, k=k, w=np.zeros(grid.n))
        assert err.value.assumption == "A1"

    def test_open_boundary_rejected(self, grid):
        with pytest.raises(AssumptionError) as err:
            CoefficientProfile(grid=grid, k=np.ones(grid.n), w=np.ones(grid.n))
        assert err.value.assumption == "A3"

    def test_smoothness_proxy_flags_a_kink(self, grid):
        k = np.ones(grid.n)
        k[50] += 100.0  # single-node spike: second divided difference 200/dz^2
        with pytest.raises(AssumptionError) as err:
            CoefficientProfile(grid=grid, k=k, w=np.zeros(grid.n))
        assert err.value.assumption == "A1"
        assert "second divided difference" in str(err.value)

    def test_smoothness_proxy_runs_last(self, grid):
        k = np.ones(grid.n)
        k[50] += 100.0
        for w, tag in ((np.ones(grid.n), "A3"), (np.zeros(grid.n), "A1")):
            with pytest.raises(AssumptionError) as err:
                CoefficientProfile(grid=grid, k=k, w=w)
            assert err.value.assumption == tag

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError, match="nodes"):
            CoefficientProfile(grid=grid, k=np.ones(7), w=np.zeros(7))

    def test_cell_peclet_of_one_or_more_names_the_worst_face(self):
        grid = ColumnGrid(h=1.0, n=65)
        w = 500.0 * np.sin(2.0 * np.pi * grid.nodes)
        with pytest.raises(AssumptionError, match="between nodes 16 and 17") as err:
            CoefficientProfile(grid=grid, k=np.ones(grid.n), w=w)
        assert err.value.assumption == "A4"
        assert "cell Peclet number |w| dz / (2 k) is 3.897e+00 >= 1" in str(err.value)

    def test_cell_peclet_just_below_one_is_accepted(self):
        grid = ColumnGrid(h=1.0, n=65)
        peak = 0.999 * 2.0 / grid.spacing  # |w| dz / (2 k) <= 0.999 at every face
        w = peak * np.sin(np.pi * grid.nodes)
        d = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=w).d
        assert d[0] == 1.0 and np.all(d[1:] / d[:-1] >= 1.0) and np.isfinite(d).all()

    def test_scaling_beyond_the_double_range_is_rejected(self):
        # cell Peclet 0.99 on 398 faces: d grows by sqrt(199) per face, to 1e458
        grid = ColumnGrid(h=1.0, n=401)
        w = np.full(grid.n, 0.99 * 2.0 / grid.spacing)
        w[[0, -1]] = 0.0
        with pytest.raises(AssumptionError, match="double range") as err:
            CoefficientProfile(grid=grid, k=np.ones(grid.n), w=w)
        assert err.value.assumption == "A4"

    @pytest.mark.parametrize("n", range(266, 274))
    def test_accepted_scalings_are_finite_both_ways(self, n):
        # the A4 check of the scaling the profile forms and transport reads:
        # at cell Peclet 0.99 it reaches 2.3e307 at 270 nodes, 3.3e308 at 271.
        # k and w carry a factor 2**-10, which leaves every Peclet number
        # bit for bit and keeps the step of w at the ends within the A1 bound
        grid = ColumnGrid(h=1.0, n=n)
        w = np.full(n, 2.0**-10 * 0.99 * 2.0 / grid.spacing)
        w[[0, -1]] = 0.0
        try:
            profile = CoefficientProfile(grid=grid, k=np.full(n, 2.0**-10), w=w)
        except AssumptionError as err:
            assert err.assumption == "A4" and n >= 271
            return
        assert np.isfinite(profile.d).all() and np.isfinite(1.0 / profile.d).all()

    @pytest.mark.parametrize("amplitude", [0.0, 1.0, 1e3, 1e6, 1e300])
    @pytest.mark.parametrize("k", [1e-300, 1e-10, 1.0, 1e300, 1e306, 1e307, 1e308])
    @pytest.mark.parametrize("n", [65, 1001])
    def test_rejected_or_runs_every_stage_without_warning(self, n, k, amplitude):
        # the suite turns warnings into errors, so any overflow fails the row
        grid = ColumnGrid(h=1.0, n=n)
        w = amplitude * np.sin(np.pi * grid.nodes)
        try:
            profile = CoefficientProfile(grid=grid, k=np.full(n, k), w=w)
        except AssumptionError:
            return
        mu_weight(profile)
        eigensystem(profile, 4)
        tgrid = TimeGrid(t_end=1.0, n=9)
        solve_forward(profile, FluxSignal(grid=tgrid, values=np.ones(9)), np.zeros(n))

    @pytest.mark.parametrize(
        "n, k, amplitude, tag, cause",
        [
            (65, 1e308, 0.0, "A2", "k / dz at the faces ranges over [inf, inf]"),
            (65, 1e-300, 1e300, "A2", "k / dz at the faces ranges over [6.400e-299"),
            (1001, 1e150, 0.0, "A2", "k / dz**2 over [1.000e+156, 1.000e+156]"),
            (1001, 1.0, 1200.0, "A4", "log mu ranges over [0.000e+00, 7.639e+02]"),
            # mu is a normal double, but k mu underflows
            (1001, 1e-100, -9.42e-98, "A4", "log mu ranges over [-5.997e+02, 0.000e+00]"),
        ],
    )
    def test_out_of_range_profiles_name_their_quantity(self, n, k, amplitude, tag, cause):
        grid = ColumnGrid(h=1.0, n=n)
        w = amplitude * np.sin(np.pi * grid.nodes)
        with pytest.raises(AssumptionError) as err:
            CoefficientProfile(grid=grid, k=np.full(n, k), w=w)
        assert err.value.assumption == tag
        assert cause in str(err.value)

    def test_arrays_are_frozen(self, grid):
        profile = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=np.zeros(grid.n))
        for values in (profile.k, profile.w, profile.kf, profile.wf, profile.d, profile.mu):
            with pytest.raises(ValueError):
                values[0] = 3.0


class TestMuWeight:
    def test_no_advection_gives_unit_density(self, grid):
        profile = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=np.zeros(grid.n))
        np.testing.assert_array_equal(mu_weight(profile), np.ones(grid.n))

    def test_surface_value_is_exactly_one(self, grid):
        profile = CoefficientProfile(grid=grid, k=1.0 + grid.nodes, w=closed_w(grid, 0.7))
        assert mu_weight(profile)[0] == 1.0

    def test_closed_form_for_sine_squared(self, grid):
        # w = sin(pi z)^2, k = 1: the antiderivative of w/k is
        # z/2 - sin(2 pi z)/(4 pi)
        profile = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=closed_w(grid))
        z = grid.nodes
        expected = np.exp(z / 2.0 - np.sin(2.0 * np.pi * z) / (4.0 * np.pi))
        # cumulative trapezoid error for this integrand peaks at
        # pi * dz^2 / 12; allow 10% headroom over the asymptotic bound
        rtol = 1.1 * np.pi * grid.spacing**2 / 12.0
        np.testing.assert_allclose(mu_weight(profile), expected, rtol=rtol)

    def test_is_the_profiles_array_that_the_eigensystem_reads(self, grid):
        profile = CoefficientProfile(grid=grid, k=1.0 + grid.nodes, w=closed_w(grid, 0.7))
        assert mu_weight(profile) is profile.mu
        assert np.shares_memory(eigensystem(profile, 4).mu, profile.mu)

    def test_positivity_under_downdraft(self, grid):
        profile = CoefficientProfile(grid=grid, k=np.ones(grid.n), w=-closed_w(grid, 3.0))
        mu = mu_weight(profile)
        assert np.all(mu > 0.0)
        assert mu[-1] < 1.0
