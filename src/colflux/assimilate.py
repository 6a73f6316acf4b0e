"""Variational flux estimation: prior, cost, adjoint gradient, MAP solve,
the low-rank posterior, and a dense Gaussian oracle that cross-checks them.

The unknown is the surface flux F on the time grid. The cost is

    J(F) = 1/2 sum_i r_i^-2 |Hq^F(., t_i) - y_i|^2
         + 1/2 <F - F0, C0^{-1} (F - F0)>

with the data-misfit term evaluated by the forward solver and the prior an
inverse-Laplacian (Dirichlet or periodic zero-mean) or diagonal form on the
time grid. Each PriorSpec is an object of its kind's class (``_KINDS``),
which holds the kind's admissible set and projection, C0^{-1}, C0 and
diag(C0), and the estimators call it directly. Gradients come
from the exact discrete adjoint: the backward sweep uses the transposes of
the Crank-Nicolson step matrices, so the directional-derivative identity
holds to rounding and finite-difference checks are tight.

The estimators work on the discrete forward map G (observations per nodal
flux value), which each AssimilationProblem builds at most once by one
impulse-response sweep of ``transport``. ``forward_rows`` hands out G only
once one sketched transposed sweep agrees with it (Freivalds' check), so
neither an estimator, the representers nor the data of
``AssimilationProblem.synthesized`` can use an unchecked map.
``innovation`` forms the prior-mean misfit y - G F0 - free response once
for all estimators, and CG costs O(N nt) per iteration with no sweep.
``cost``, ``gradient`` and ``hessian_form`` keep their own forward and
adjoint sweeps, so they stay an independent check on the reused map.
Every sweep is the one Crank-Nicolson loop of ``transport``; the forward
solves (the free response and those of the cost) keep only the N observed
states, never the field.

The posterior is the prior minus a rank-N update (the representer form
with the Woodbury identity): with S = G C0 G^T + R,
``lowrank_posterior`` returns the mean F0 + C0 G^T S^-1 (y - G F0 - free
response) and the variance diag(C0) - diag(C0 G^T S^-1 G C0) in O(N nt),
applying C0 by the CG preconditioner and taking diag(C0) in closed form.
``oracle_bayes`` instead factors the dense nt x nt posterior precision, on
the subspace the kind's projection admits, by Cholesky, keeping its lower
triangle in rectangular full packed storage (nt (nt + 1) / 2 doubles), and
``oracle_covariance`` inverts it in the prefix of the nt x nt result; they
are the check, capped at 2048.

Conventions: arrays indexed by time nodes are "nodal functions"; the
Euclidean gradient (sensitivity per nodal value) is converted to a nodal
function by dividing by the trapezoid weights, so <grad, G> under the
trapezoid inner product is the directional derivative. For the Dirichlet
prior, admissible perturbations vanish at the endpoints and gradient
entries there are reported as zero (the projected gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConditioningError, DomainError, NumericalError
from .model import CoefficientProfile
from .numerics import (
    _check_philox_key,
    _flapack,
    _frozen,
    _nodal,
    _normal_square,
    _philox_random,
    _rfp_columns,
    _rfp_index,
    _rfp_unpack,
    factor_tridiagonal,
    trapezoid,
)
from .observe import ObservationSet, Weight, add_noise, apply_observation
from .transport import FluxSignal, flux_sensitivity, impulse_response, solve_forward

__all__ = [
    "PriorSpec",
    "AssimilationProblem",
    "PRIOR_KINDS",
    "prior_apply_inverse",
    "prior_quadratic_form",
    "cost",
    "gradient",
    "hessian_form",
    "map_estimate",
    "representer_rows",
    "check_oracle_capacity",
    "oracle_bayes",
    "oracle_covariance",
    "lowrank_posterior",
]

#: Admissibility checks (endpoint values, zero mean) pass below this times
#: the function's scale.
DOMAIN_TOL = 1e-10

#: Dense-oracle size cap; above this the nt x nt factorizations stop being
#: a desk-scale check.
ORACLE_MAX_NODES = 2048

#: The impulse rows and a sketched transposed sweep of the forward map
#: must agree to this, relative to the largest entry, before it is used.
FORWARD_MAP_TOL = 1e-8


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior on the flux: mean F0 and covariance family.

    ``kind`` selects the covariance: an inverse Laplacian with Dirichlet
    endpoint conditions, an inverse Laplacian on periodic zero-mean
    functions (the first and last node identified; the mean is removed
    from F0 on construction), or a diagonal with variance sigma^2 / w on
    each node. The spec is an object of its kind's class in ``_KINDS``:
    this class is the diagonal kind, where every nodal function is
    admissible, and the others override what their constraints change.
    """

    mean: FluxSignal
    kind: str = "dirichlet_inverse_laplacian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            msg = f"unknown prior kind {self.kind!r}; options are {PRIOR_KINDS}"
            raise ValueError(msg)
        if not _normal_square(self.sigma):
            msg = f"sigma must be positive, with a normal-double square, got {self.sigma!r}"
            raise ValueError(msg)
        object.__setattr__(self, "__class__", _KINDS[self.kind])
        grid = self.mean.grid
        self.__dict__.update(n=grid.n, dt=grid.spacing, w=grid.weights, s2=self.sigma**2)
        object.__setattr__(self, "mean", self._center(self.mean))

    @property
    def grid(self):
        return self.mean.grid

    def _center(self, mean: FluxSignal) -> FluxSignal:
        """F0, moved into the admissible set where the kind defines that."""
        return mean

    def check(self, g: np.ndarray) -> None:
        """Raise DomainError unless g is admissible to 1e-10 of its scale."""

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean-orthogonal projection onto the admissible subspace."""
        return x

    def to_function(self, e: np.ndarray) -> np.ndarray:
        """A Euclidean flux sensitivity as an admissible nodal function."""
        return self.project(e / self.w)

    def apply_inverse(self, g: np.ndarray) -> np.ndarray:
        """C0^{-1} g for an admissible nodal function g."""
        return g / self.s2

    def covariance(self):
        """C0 on the admissible subspace: a function solving (W C0^{-1}) z = r."""
        return lambda r: self.s2 * r / self.w

    def variance(self) -> np.ndarray:
        """diag(C0), the diagonal of what ``covariance`` applies."""
        return self.s2 / self.w

    def add_form(self, a: np.ndarray) -> None:
        """Add W C0^{-1}, the n x n Euclidean form matrix, onto the symmetric
        matrix whose RFP array (``numerics._rfp_index``) is a."""
        i = np.arange(self.n)
        a[_rfp_index(self.n, i, i)] += self.w / self.s2

    def reduce(self, a: np.ndarray, c: float) -> None:
        """P a P + c (I - P) in place, for the symmetric n x n matrix whose
        RFP array is a: a on the admissible subspace and c across it, so a
        solve with a projected right-hand side stays in the subspace."""


class _DirichletPrior(PriorSpec):
    """Inverse Laplacian -sigma^-2 d^2/dt^2 on functions vanishing at both ends."""

    def check(self, g):
        scale = max(1.0, float(np.abs(g).max()))
        if abs(g[0]) > DOMAIN_TOL * scale or abs(g[-1]) > DOMAIN_TOL * scale:
            msg = (
                "function is outside the Dirichlet form domain: endpoint "
                f"values ({g[0]:.3e}, {g[-1]:.3e}) are not zero"
            )
            raise DomainError(msg)

    def project(self, x):
        y = x.copy()
        y[[0, -1]] = 0.0
        return y

    def apply_inverse(self, g):
        out = np.zeros(g.shape)
        out[1:-1] = -(g[2:] - 2.0 * g[1:-1] + g[:-2]) / (self.s2 * self.dt**2)
        return out

    def covariance(self):
        # the interior weights are all dt, so the matrix is symmetric; its
        # end rows are unit rows decoupled from it, and their values dropped
        coef = self.w / (self.s2 * self.dt**2)
        diag, off = 2.0 * coef, -coef[1:]
        diag[[0, -1]], off[[0, -1]] = 1.0, 0.0
        solve = factor_tridiagonal(diag, off)
        return lambda r: self.project(solve(r))

    def variance(self):
        # inverse of the (m x m) second-difference matrix: i (m+1-i) / (m+1)
        # on the interior, vanishing at the pinned nodes i = 0 and m + 1
        m = self.n - 2
        i = np.arange(self.n, dtype=float)
        return self.s2 * self.dt * i * (m + 1 - i) / (m + 1)

    def add_form(self, a):
        # <g, W C0^{-1} g> = sum (delta g)^2 / (s2 dt) over the intervals:
        # tridiagonal, with one interval at each end node
        coef, n, i = 1.0 / (self.s2 * self.dt), self.n, np.arange(self.n)
        diag = np.full(n, 2.0 * coef)
        diag[[0, -1]] = coef
        a[_rfp_index(n, i, i)] += diag
        a[_rfp_index(n, i[1:], i[:-1])] -= coef

    def reduce(self, a, c):
        # P zeroes the end rows and columns: P a P + c (I - P) pins them
        # with no arithmetic, and leaves every interior entry as it is
        n, i = self.n, np.arange(self.n)
        a[_rfp_index(n, i, 0)] = a[_rfp_index(n, n - 1, i)] = 0.0
        a[_rfp_index(n, [0, n - 1], [0, n - 1])] = c


class _PeriodicPrior(PriorSpec):
    """Inverse Laplacian on periodic zero-mean functions; the last node is the first."""

    def _center(self, mean):
        v = mean.values
        scale = max(1.0, float(np.abs(v).max()))
        if abs(v[0] - v[-1]) > DOMAIN_TOL * scale:
            msg = (
                "periodic prior needs a periodic mean: endpoint values "
                f"differ by {abs(v[0] - v[-1]):.3e}"
            )
            raise ValueError(msg)
        return FluxSignal(grid=mean.grid, values=v - v[:-1].mean())

    def check(self, g):
        scale = max(1.0, float(np.abs(g).max()))
        if abs(g[0] - g[-1]) > DOMAIN_TOL * scale:
            msg = f"function is not periodic: endpoints differ by {abs(g[0] - g[-1]):.3e}"
            raise DomainError(msg)
        mean = float(g[:-1].mean())
        if abs(mean) > DOMAIN_TOL * scale:
            msg = f"periodic prior needs zero-mean functions, got mean {mean:.3e}"
            raise DomainError(msg)

    def project(self, x):
        # Euclidean-orthogonal projection onto the admissible subspace
        # {x[0] = x[-1], sum over the distinct nodes = 0}. Orthogonality
        # matters: conjugate gradients assumes a symmetric projected
        # operator, and an oblique reduction converges to a stationary
        # point of the wrong constraint pairing.
        m = x.shape[0] - 1
        glue = x[0] - x[-1]
        total = x[:-1].sum(axis=0)
        det = 2.0 * m - 1.0
        alpha = (m * glue - total) / det
        beta = (2.0 * total - glue) / det
        y = x.copy()
        y[:-1] -= beta
        y[0] -= alpha
        y[-1] += alpha
        return y

    def to_function(self, e):
        out = e / self.w
        out[0] = out[-1] = (e[0] + e[-1]) / (self.w[0] + self.w[-1])
        return out - out[:-1].mean()

    def apply_inverse(self, g):
        # circular stencil on the n-1 distinct nodes
        h = g[:-1]
        lap = -(np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / (self.s2 * self.dt**2)
        return np.append(lap, lap[0])

    def covariance(self):
        # the stencil is circulant on the distinct nodes, diagonal in the
        # Fourier basis; the zero frequency is projected out
        m = self.n - 1
        freqs = np.arange(m // 2 + 1)
        scale = self.dt / (self.s2 * self.dt**2)
        eig = (2.0 - 2.0 * np.cos(2.0 * np.pi * freqs / m)) * scale

        def apply(r):
            rr = r.copy()
            rr[0] = rr[0] + r[-1]
            spec_hat = np.fft.rfft(rr[:-1])
            spec_hat[0] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                spec_hat[1:] = spec_hat[1:] / eig[1:]
            z = np.fft.irfft(spec_hat, m)
            return np.append(z, z[0])

        return apply

    def variance(self):
        # (1/m) sum_{k=1}^{m-1} 1/lambda_k on every node, with
        # lambda_k = (2 - 2 cos(2 pi k/m)) / (s2 dt) and
        # sum_{k=1}^{m-1} 1 / (2 - 2 cos(2 pi k/m)) = (m^2 - 1) / 12
        m = self.n - 1
        return np.full(self.n, self.s2 * self.dt * (m * m - 1) / (12.0 * m))

    add_form = _DirichletPrior.add_form

    def reduce(self, a, c):
        # P = I - V G V^T with V = [e_0 - e_{n-1}, ones on the distinct
        # nodes] and G = (V^T V)^-1, as in ``project``. With Y = a V G,
        # P a P + c V G V^T = a - V Y^T - (Y - V (G V^T Y + c G)) V^T: a
        # rank-2 update, made on the stored lower triangle; no entry is
        # shifted. Entry (i, j), i >= j, loses row j of left times row i of
        # right, summed in order: the triangle the n x n code factored, and
        # no BLAS kernel's rounding. Off column 0 and row n - 1, where V
        # holds 0 and 1, that sum is Y[i, 1] + left[j, 3] bit for bit
        n, m = self.n, self.n - 1
        v = np.zeros((n, 2))
        v[[0, -1], 0] = 1.0, -1.0
        v[:-1, 1] = 1.0
        gram_inv = np.array([[m, -1.0], [-1.0, 2.0]]) / (2.0 * m - 1.0)
        i = np.arange(n)
        at_first, at_last = _rfp_index(n, i, 0), _rfp_index(n, m, i)  # column 0, row n - 1
        distinct = np.zeros(n)  # a times the ones on the distinct nodes
        for j, col in zip(range(m), _rfp_columns(a, n)):
            distinct[j:] += col
            distinct[j] += col[1:-1].sum()
        y = np.column_stack([a[at_first] - a[at_last], distinct]) @ gram_inv
        left = np.hstack([v, y - v @ (gram_inv @ (v.T @ y) + c * gram_inv)])
        right = np.hstack([y, v])
        for j, col in enumerate(_rfp_columns(a, n)):
            if 0 < j < m:
                col[:-1] -= y[j:-1, 1] + left[j, 3]
        for at, t in ((at_first[:-1], right[:-1] * left[0]), (at_last, right[-1] * left)):
            a[at] -= t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


_KINDS = {
    "dirichlet_inverse_laplacian": _DirichletPrior,
    "periodic_zero_mean_inverse_laplacian": _PeriodicPrior,
    "diagonal": PriorSpec,
}

PRIOR_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class AssimilationProblem:
    """Everything the estimation needs: physics, data, weights, prior."""

    profile: CoefficientProfile
    q0: np.ndarray
    observations: ObservationSet
    weights: tuple
    prior: PriorSpec
    obs_indices: tuple = field(init=False)

    def __post_init__(self):
        q0 = _frozen(self.q0, (self.profile.grid.n,), "q0")
        object.__setattr__(self, "q0", q0)
        weights = tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.observations):
            msg = (
                f"{len(weights)} weights for {len(self.observations)} "
                "observations; need one per observation"
            )
            raise ValueError(msg)
        for w in weights:
            if not isinstance(w, Weight) or w.grid != self.profile.grid:
                raise ValueError("every weight must live on the profile's grid")
        if not _normal_square(self.observations.noise_levels):
            msg = "assimilation requires positive noise levels with normal-double squares"
            raise ValueError(msg)
        # observation times must be nodes of the flux time grid
        idx = tuple(self.prior.grid.index_of(t) for t in self.observations.times)
        object.__setattr__(self, "obs_indices", idx)

    # The discrete forward map G (one row per observation, one column per
    # flux node) and the arrays built from it, each on first use and shared
    # by every estimator on this problem; the observations of a flux F are
    # G F + free_response.

    @cached_property
    def functionals(self) -> np.ndarray:
        """The N x nz trapezoid-weighted observation weights, one row each."""
        rows = [self.profile.grid.weights * w.values for w in self.weights]
        return _frozen(np.array(rows).reshape(len(rows), self.profile.grid.n))

    @property
    def _sweep_args(self) -> tuple:
        """The forward map's arguments to ``impulse_response`` and ``flux_sensitivity``."""
        return (self.profile, self.prior.grid, self.functionals, self.obs_indices)

    @cached_property
    def _impulse_rows(self) -> np.ndarray:
        return _frozen(impulse_response(*self._sweep_args))

    @cached_property
    def forward_rows(self) -> np.ndarray:
        """G from one impulse-response sweep, once its sketched check passes.

        Raises
        ------
        NumericalError
            If ``forward_map_sketch_rel_gap`` exceeds 1e-8 or is NaN.
        """
        gap = self.forward_map_sketch_rel_gap
        if not gap <= FORWARD_MAP_TOL:
            msg = "impulse-response and adjoint-solve maps disagree"
            raise NumericalError(f"{msg} (sketched relative gap {gap:.3e})")
        return self._impulse_rows

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a non-finite gap fails the check
    def forward_map_sketch_rel_gap(self) -> float:
        """Freivalds' check of the impulse rows, by one transposed sweep.

        For c = 1 + the first N uniforms of the Philox stream of key 1 (NumPy's
        ``Generator(Philox(key=1)).uniform(1.0, 2.0, N)``), ``flux_sensitivity``
        gives c^T G, so one entry wrong by d max|G| reads at least about d/2,
        whatever N is. The gap is the largest difference from c times the
        impulse rows over max(c) max|G|.
        """
        c = 1.0 + _philox_random(1, len(self.observations))
        swept = flux_sensitivity(*self._sweep_args, c)
        rows = self._impulse_rows
        if not rows.size:
            return 0.0
        gap = float(np.abs(swept - c @ rows).max())
        return gap / float(c.max()) / max(float(np.abs(rows).max()), 1e-300)

    @cached_property
    def free_response(self) -> np.ndarray:
        """Observations of the state released from q0 with zero flux.

        A zero state stays zero, so with q0 = 0 this takes no sweep.
        """
        if not self.q0.any():
            return _frozen(np.zeros(len(self.observations)))
        zero_flux = np.zeros(self.prior.grid.n)
        return _frozen(_forward_map(self, zero_flux))

    @cached_property
    def innovation(self) -> np.ndarray:
        """y - G F0 - free_response: the data the prior mean leaves unexplained."""
        u0 = self.forward_rows @ self.prior.mean.values + self.free_response
        return _frozen(self.observations.values - u0)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # non-finite data raise below
    def synthesized(cls, profile, q0, weights, times, noise_levels, prior, true_flux, seed):
        """The problem whose data are G ``true_flux`` + free_response plus the noise
        ``synthesize_data`` adds for ``seed``; G is built after every argument is
        checked, the seed included, checked itself, and kept."""
        _check_philox_key(seed)
        noise = np.asarray(noise_levels, dtype=float)
        blank = ObservationSet(times=times, values=np.zeros(noise.size), noise_levels=noise)
        problem = cls(profile=profile, q0=q0, observations=blank, weights=weights, prior=prior)
        if true_flux.grid != prior.grid:
            raise ValueError("the true flux must live on the prior's time grid")
        clean = problem.forward_rows @ true_flux.values + problem.free_response
        values = add_noise(clean, noise, seed)
        if not np.isfinite(values).all():
            raise NumericalError("the synthesized observations overflow")
        # the values are the one field replaced, and nothing cached reads them yet
        object.__setattr__(problem, "observations", replace(blank, values=values))
        return problem


def prior_apply_inverse(spec: PriorSpec, g) -> np.ndarray:
    """Apply the prior precision C0^{-1} to a nodal function.

    For the inverse-Laplacian kinds this is -sigma^-2 g'' by the 3-point
    stencil with the matching boundary handling; for the diagonal kind it
    is sigma^-2 g. Dirichlet output entries at the endpoints are zero by
    the projected-gradient convention.

    Raises
    ------
    DomainError
        If ``g`` violates the kind's admissibility (nonzero endpoints for
        Dirichlet, nonzero mean or aperiodicity for periodic) beyond
        1e-10 of its scale.
    """
    g = _nodal(g, (spec.grid.n,), "g")
    spec.check(g)
    return spec.apply_inverse(g)


def prior_quadratic_form(spec: PriorSpec, g) -> float:
    """The prior form <g, C0^{-1} g> under the trapezoid inner product.

    By summation by parts this equals sigma^-2 sum (delta g)^2 / dt for the
    inverse-Laplacian kinds, so it is nonnegative and vanishes only on the
    kind's null space.
    """
    g = np.asarray(g, dtype=float)
    return trapezoid(g * prior_apply_inverse(spec, g), spec.grid)


def _forward_map(problem: AssimilationProblem, flux_values: np.ndarray, q0=None):
    """Observations of the forward solution driven by nodal flux values."""
    flux = FluxSignal(grid=problem.prior.grid, values=flux_values)
    q0 = problem.q0 if q0 is None else q0
    states = solve_forward(problem.profile, flux, q0, nodes=problem.obs_indices)
    return np.array([apply_observation(w, u) for w, u in zip(problem.weights, states.T)])


def cost(problem: AssimilationProblem, flux: FluxSignal) -> float:
    """Evaluate the regularized cost J at a flux.

    Raises
    ------
    DomainError
        If flux - F0 is outside the prior's form domain.
    """
    df = flux.values - problem.prior.mean.values
    penalty = prior_quadratic_form(problem.prior, df)
    u = _forward_map(problem, flux.values)
    resid = (u - problem.observations.values) / problem.observations.noise_levels
    return float(0.5 * np.dot(resid, resid) + 0.5 * penalty)


def gradient(problem: AssimilationProblem, flux: FluxSignal) -> np.ndarray:
    """Gradient of the cost as a nodal function on the time grid.

    One forward solve, one backward adjoint solve, plus the prior term;
    <gradient, G> under the trapezoid form is the directional derivative
    along any admissible G.
    """
    df = flux.values - problem.prior.mean.values
    prior_term = prior_apply_inverse(problem.prior, df)
    u = _forward_map(problem, flux.values)
    resid = (u - problem.observations.values) / problem.observations.noise_levels**2
    euclid = flux_sensitivity(*problem._sweep_args, resid)
    return problem.prior.to_function(euclid) + prior_term


def hessian_form(problem: AssimilationProblem, g) -> float:
    """The Hessian form D^2 J (G, G): misfit curvature plus prior form.

    The misfit part propagates the perturbation through the zero-initial
    solver (q(., 0) = 0, flux G) and sums r_i^-2 |Hq(., t_i)|^2; the cost is
    quadratic, so this is exact, not a linearization.
    """
    g = np.asarray(g, dtype=float)
    penalty = prior_quadratic_form(problem.prior, g)
    u = _forward_map(problem, g, q0=np.zeros(problem.profile.grid.n))
    scaled = u / problem.observations.noise_levels
    return float(np.dot(scaled, scaled) + penalty)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises below
def map_estimate(problem: AssimilationProblem):
    """Minimize the cost by preconditioned conjugate gradients.

    The Hessian is the prior precision plus a rank-N observation term, so
    preconditioning with the prior covariance makes CG resolve one
    observation direction per iteration; convergence in about N+1 steps is
    the norm. The data term comes from the problem's forward map: the
    prior-mean observations are G F0 plus the free response to q0, and
    each Hessian product W C0^{-1} p + G^T R^{-1} G p costs O(N nt), with
    no solver sweep. CG returns F0 at once when the projected right-hand
    side is below eps / 1e-8 of G^T R^{-1} d, where rounding hides it, as
    for data blind to the prior's admissible subspace. It stops when
    r.z = 0: C0 has mapped a residual of rounding alone to zero, so p
    would be 0 and the step 0/0.

    Returns
    -------
    (FluxSignal, dict)
        The MAP flux and a report with iterations and final relative
        residual (0 if no step ran).

    Raises
    ------
    ConditioningError
        If |b|, r.z, p.Hp or the MAP flux overflows, or the relative
        residual has not reached 1e-8 within 2 * nt iterations.
    NumericalError
        If the forward map fails its sketched check.
    """
    spec = problem.prior
    project = spec.project
    n = spec.grid.n
    g = problem.forward_rows
    r2 = problem.observations.noise_levels**2
    # CG is linear in the innovation d: it solves for d scaled by a power of
    # two (exact) to below 1, so data near the double range do not overflow
    # b, and the increment is scaled back on return
    d = problem.innovation
    _, scale = np.frexp(np.abs(d).max(initial=0.0))
    b = g.T @ (np.ldexp(d, -scale) / r2)
    rhs = project(b)

    def hessian(x):  # W C0^{-1} x + G^T R^{-1} G x, for admissible x
        return spec.grid.weights * prior_apply_inverse(spec, x) + g.T @ (g @ x / r2)

    precond = spec.covariance()
    x = np.zeros(n)
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    report = {"iterations": 0, "relative_residual": 0.0, "converged": True}
    if not np.isfinite(rhs_norm):  # every relative residual would read 0
        raise ConditioningError(f"conjugate gradients overflowed: |b| = {rhs_norm}")
    # projecting vectors of |b|'s size leaves rounding of about eps |b|, so
    # CG's target tol |Pb| must lie above that or CG stalls; data blind to
    # the admissible subspace leave Pb that rounding alone, as good as b = 0
    tol = 1e-8
    if rhs_norm * tol <= np.finfo(float).eps * float(np.linalg.norm(b)):
        return FluxSignal(grid=spec.grid, values=spec.mean.values.copy()), report

    z = project(precond(r))
    p = z.copy()
    rz = float(np.dot(r, z))
    max_iter = 2 * n
    steps, rel = 0, 0.0
    while rz != 0.0:
        if steps == max_iter:
            msg = (
                f"conjugate gradients stalled: relative residual {rel:.3e} after "
                f"{max_iter} iterations (target {tol:g})"
            )
            raise ConditioningError(msg)
        if not np.isfinite(rz):  # stop before a Hessian product spreads it
            msg = f"conjugate gradients overflowed: r.z = {rz} at iteration {steps + 1}"
            raise ConditioningError(msg)
        hp = project(hessian(p))
        curvature = float(np.dot(p, hp))
        if not np.isfinite(curvature):  # alpha would read 0, and CG stall
            msg = f"conjugate gradients overflowed: p.Hp = {curvature} at iteration {steps + 1}"
            raise ConditioningError(msg)
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * hp
        steps += 1
        rel = float(np.linalg.norm(r)) / rhs_norm
        if rel <= tol:
            break
        z = project(precond(r))
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    report["iterations"] = steps
    report["relative_residual"] = rel
    values = spec.mean.values + np.ldexp(x, scale)
    if not np.isfinite(values).all():
        raise ConditioningError("the MAP flux overflows")
    return FluxSignal(grid=spec.grid, values=values), report


def representer_rows(problem: AssimilationProblem) -> np.ndarray:
    """Observation representers as nodal time functions, one row each.

    Row i is row i of the problem's checked forward map (``forward_rows``,
    shared with the estimators) divided by r_i and by the trapezoid weights
    of the interval [0, t_i] (so the node at t_i carries the half weight of
    a subinterval endpoint and the value there is the one-sided limit).
    Entries beyond t_i are zero. Raises NumericalError if the forward map
    fails its sketched check.
    """
    rows = problem.forward_rows
    dt = problem.prior.grid.spacing
    # the rows are exactly zero beyond t_i, whatever w holds there
    w = np.full(rows.shape, dt)
    w[:, 0] = w[np.arange(len(rows)), problem.obs_indices] = 0.5 * dt
    return rows / (problem.observations.noise_levels[:, None] * w)


def check_oracle_capacity(n: int) -> None:
    """Raise CapacityError if the dense oracle cannot take ``n`` time nodes."""
    if n > ORACLE_MAX_NODES:
        msg = f"dense oracle supports at most {ORACLE_MAX_NODES} time nodes, got {n}"
        raise CapacityError(msg)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises
def _dense_posterior(problem: AssimilationProblem, square: bool = False):
    """The posterior mean, by the Cholesky factor of the kind's ``reduce`` of
    A = W C0^{-1} + G^T R^{-1} G, solved with the projected
    G^T R^{-1} (y - G F0 - free response); and the buffer A was formed and
    factored in: its RFP array (``numerics._rfp_index``), n(n+1)/2 doubles,
    or with ``square`` the n * n doubles that array is the prefix of."""
    prior = problem.prior
    n = prior.grid.n
    check_oracle_capacity(n)
    g, noise = problem.forward_rows, problem.observations.noise_levels
    rhs = prior.project(g.T @ (problem.innovation / noise**2))
    h = g / noise[:, None]  # C order: h.T is the n x N Fortran-order matrix of h^T h
    buffer = np.empty(n * n if square else n * (n + 1) // 2)
    a = _flapack.dsfrk(n, len(h), 1.0, h.T, 0.0, buffer[: n * (n + 1) // 2])
    prior.add_form(a)
    # A is positive semidefinite, so no entry exceeds its diagonal's largest
    diagonal = a[_rfp_index(n, np.arange(n), np.arange(n))]
    if not (np.isfinite(diagonal).all() and np.isfinite(rhs).all()):
        raise NumericalError("the dense posterior precision overflows")
    prior.reduce(a, diagonal.min())
    factor, info = _flapack.dpftrf(n, a)
    if info > 0:
        msg = f"not positive definite: leading minor {info} is not positive"
        raise NumericalError(f"the dense posterior precision is {msg}")
    return prior.mean.values + _flapack.dpftrs(n, factor, rhs)[0], buffer


def oracle_bayes(problem: AssimilationProblem) -> np.ndarray:
    """Exact dense Gaussian posterior mean on the time grid.

    Takes the problem's checked forward map G, forms the posterior
    precision W C0^{-1} + G^T R^{-1} G on the admissible subspace and
    solves with its Cholesky factor. The prior-mean misfit is the
    problem's ``innovation``, as in ``map_estimate``.

    Raises
    ------
    CapacityError
        If the time grid exceeds 2048 nodes.
    NumericalError
        If the forward map fails its sketched check or the precision
        overflows or is not numerically positive definite.
    """
    return _dense_posterior(problem)[0]


def oracle_covariance(problem: AssimilationProblem) -> np.ndarray:
    """The dense nt x nt posterior covariance: the factor of ``oracle_bayes``,
    formed in the prefix of the result, inverted there in place and unpacked;
    it raises as ``oracle_bayes`` does."""
    n = problem.prior.grid.n
    buffer = _dense_posterior(problem, square=True)[1]
    factor = _flapack.dpftri(n, buffer[: n * (n + 1) // 2])[0]
    problem.prior.reduce(factor, 0.0)
    return _rfp_unpack(buffer, n)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises
def lowrank_posterior(problem: AssimilationProblem):
    """Posterior mean and pointwise variance from the representer form.

    With the prior covariance C0 (the preconditioner of ``map_estimate``,
    which applies it on the admissible subspace) and S = G C0 G^T + R, the
    Woodbury identity gives

        mean = F0 + C0 G^T S^-1 (y - G F0 - free response)
        var  = diag(C0) - diag(C0 G^T S^-1 G C0),

    the prior covariance minus a rank-N update. S is N x N, so every step
    costs O(N nt) and no nt x nt matrix is formed; G is the problem's
    checked forward map, as in ``oracle_bayes``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Posterior mean and posterior variance on the time grid (zero on
        constrained nodes).

    Raises
    ------
    NumericalError
        If the forward map fails its sketched check or the result overflows.
    """
    g = problem.forward_rows
    spec = problem.prior
    precond = spec.covariance()
    # rows C0 g_i; the reshape keeps the (0, nt) shape with no observations
    c0g = np.array([precond(row) for row in g]).reshape(g.shape)
    r2 = problem.observations.noise_levels**2
    s = g @ c0g.T + np.diag(r2)
    if not np.isfinite(s).all():  # its Cholesky factor would hide the overflow
        raise NumericalError("the low-rank posterior overflows: G C0 G^T is not finite")
    # S = L L^T; with V = L^-1 C0 G^T the update is V^T V, a sum of squares
    chol = np.linalg.cholesky(s)
    v = np.linalg.solve(chol, c0g)
    mean = spec.mean.values + v.T @ np.linalg.solve(chol, problem.innovation)
    variance = spec.variance() - np.einsum("ij,ij->j", v, v)
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise NumericalError("the low-rank posterior overflows")
    return mean, variance
