"""Profile validation and the self-adjointing density."""

import numpy as np
import pytest

from colflux.errors import AssumptionError
from colflux.model import CoefficientProfile, mu_weight, validate_profile
from colflux.numerics import ColumnGrid


@pytest.fixture
def grid():
    return ColumnGrid(h=1.0, n=101)


def closed_w(grid, amplitude=1.0):
    """Velocity field vanishing at both boundaries."""
    return amplitude * np.sin(np.pi * grid.nodes) ** 2


class TestValidation:
    def test_accepts_constant_coefficients(self, grid):
        profile = validate_profile(np.ones(grid.n), np.zeros(grid.n), grid)
        assert profile.epsilon == 1.0

    def test_epsilon_is_the_attained_minimum(self, grid):
        k = 2.0 + grid.nodes
        profile = validate_profile(k, closed_w(grid), grid)
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
            validate_profile(k, np.zeros(grid.n), grid)
        assert err.value.assumption == "A2"

    def test_nonfinite_samples_rejected(self, grid):
        k = np.ones(grid.n)
        k[3] = np.nan
        with pytest.raises(AssumptionError) as err:
            validate_profile(k, np.zeros(grid.n), grid)
        assert err.value.assumption == "A1"

    def test_open_boundary_rejected(self, grid):
        with pytest.raises(AssumptionError) as err:
            validate_profile(np.ones(grid.n), np.ones(grid.n), grid)
        assert err.value.assumption == "A3"

    def test_smoothness_proxy_flags_a_kink(self, grid):
        k = np.ones(grid.n)
        k[50] += 100.0  # single-node spike: second divided difference 200/dz^2
        with pytest.raises(AssumptionError) as err:
            validate_profile(k, np.zeros(grid.n), grid)
        assert err.value.assumption == "A1"
        assert "second divided difference" in str(err.value)

    def test_direct_construction_skips_smoothness_only(self, grid):
        k = np.ones(grid.n)
        k[50] += 1.0
        profile = CoefficientProfile(grid=grid, k=k, w=np.zeros(grid.n))
        assert profile.epsilon == 1.0

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError, match="nodes"):
            CoefficientProfile(grid=grid, k=np.ones(7), w=np.zeros(7))

    def test_arrays_are_frozen(self, grid):
        profile = validate_profile(np.ones(grid.n), np.zeros(grid.n), grid)
        with pytest.raises(ValueError):
            profile.k[0] = 3.0


class TestMuWeight:
    def test_no_advection_gives_unit_density(self, grid):
        profile = validate_profile(np.ones(grid.n), np.zeros(grid.n), grid)
        np.testing.assert_array_equal(mu_weight(profile), np.ones(grid.n))

    def test_surface_value_is_exactly_one(self, grid):
        profile = validate_profile(1.0 + grid.nodes, closed_w(grid, 0.7), grid)
        assert mu_weight(profile)[0] == 1.0

    def test_closed_form_for_sine_squared(self, grid):
        # w = sin(pi z)^2, k = 1: the antiderivative of w/k is
        # z/2 - sin(2 pi z)/(4 pi)
        profile = validate_profile(np.ones(grid.n), closed_w(grid), grid)
        z = grid.nodes
        expected = np.exp(z / 2.0 - np.sin(2.0 * np.pi * z) / (4.0 * np.pi))
        # cumulative trapezoid error for this integrand peaks at
        # pi * dz^2 / 12; allow 10% headroom over the asymptotic bound
        rtol = 1.1 * np.pi * grid.spacing**2 / 12.0
        np.testing.assert_allclose(mu_weight(profile), expected, rtol=rtol)

    def test_positivity_under_downdraft(self, grid):
        profile = validate_profile(np.ones(grid.n), -closed_w(grid, 3.0), grid)
        mu = mu_weight(profile)
        assert np.all(mu > 0.0)
        assert mu[-1] < 1.0
