"""Variational flux estimation: prior, cost, adjoint gradient, MAP solve,
and a dense Gaussian oracle that cross-checks everything else.

The unknown is the surface flux F on the time grid. The cost is

    J(F) = 1/2 sum_i r_i^-2 |Hq^F(., t_i) - y_i|^2
         + 1/2 <F - F0, C0^{-1} (F - F0)>

with the data-misfit term evaluated by the forward solver and the prior an
inverse-Laplacian (Dirichlet or periodic zero-mean) or diagonal form on the
time grid. Gradients come from the exact discrete adjoint: the backward
sweep uses the transposes of the Crank-Nicolson step matrices, so the
directional-derivative identity holds to rounding and finite-difference
checks are tight.

The estimators work on the discrete forward map G (observations per nodal
flux value), which each AssimilationProblem builds at most once: one
impulse-response sweep gives every row, and N transposed backward sweeps
give them again for the oracle's agreement check and the representers.
CG then costs O(N nt) per iteration and sweeps the column no more.
``cost``, ``gradient`` and ``hessian_form`` keep their own forward and
adjoint sweeps, so they stay an independent check on the reused map.

Conventions: arrays indexed by time nodes are "nodal functions"; the
Euclidean gradient (sensitivity per nodal value) is converted to a nodal
function by dividing by the trapezoid weights, so <grad, G> under the
trapezoid inner product is the directional derivative. For the Dirichlet
prior, admissible perturbations vanish at the endpoints and gradient
entries there are reported as zero (the projected gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConditioningError, DomainError, NumericalError
from .model import CoefficientProfile
from .numerics import factor_tridiagonal, trapezoid
from .observe import ObservationSet, Weight, apply_observation
from .transport import FluxSignal, _band_matvec, _cn_bands, solve_forward

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
    "oracle_bayes",
]

PRIOR_KINDS = (
    "dirichlet_inverse_laplacian",
    "periodic_zero_mean_inverse_laplacian",
    "diagonal",
)

#: Admissibility checks (endpoint values, zero mean) pass below this times
#: the function's scale.
DOMAIN_TOL = 1e-10

#: Dense-oracle size cap; above this the nt x nt factorizations stop being
#: a desk-scale check.
ORACLE_MAX_NODES = 2048


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior on the flux: mean F0 and covariance family.

    ``kind`` selects the covariance: an inverse Laplacian with Dirichlet
    endpoint conditions, an inverse Laplacian on periodic zero-mean
    functions (the first and last node identified; the mean is removed
    from F0 on construction), or a diagonal with variance sigma^2.
    """

    mean: FluxSignal
    kind: str = "dirichlet_inverse_laplacian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            msg = f"unknown prior kind {self.kind!r}; options are {PRIOR_KINDS}"
            raise ValueError(msg)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            msg = f"sigma must be a positive real, got {self.sigma!r}"
            raise ValueError(msg)
        if self.kind == "periodic_zero_mean_inverse_laplacian":
            v = self.mean.values
            scale = max(1.0, float(np.abs(v).max()))
            if abs(v[0] - v[-1]) > DOMAIN_TOL * scale:
                msg = (
                    "periodic prior needs a periodic mean: endpoint values "
                    f"differ by {abs(v[0] - v[-1]):.3e}"
                )
                raise ValueError(msg)
            centered = v - v[:-1].mean()
            object.__setattr__(
                self, "mean", FluxSignal(grid=self.mean.grid, values=centered)
            )

    @property
    def grid(self):
        return self.mean.grid


@dataclass(frozen=True)
class AssimilationProblem:
    """Everything the estimation needs: physics, data, weights, prior."""

    profile: CoefficientProfile
    q0: np.ndarray
    observations: ObservationSet
    weights: tuple
    prior: PriorSpec

    def __post_init__(self):
        q0 = np.ascontiguousarray(self.q0, dtype=float)
        if q0.shape != (self.profile.grid.n,):
            msg = f"q0 needs {self.profile.grid.n} values, got shape {q0.shape}"
            raise ValueError(msg)
        if not np.isfinite(q0).all():
            raise ValueError("q0 must be finite")
        q0.setflags(write=False)
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
        if len(self.observations) and float(
            self.observations.noise_levels.min()
        ) <= 0.0:
            raise ValueError("assimilation requires strictly positive noise levels")
        # observation times must be nodes of the flux time grid
        idx = tuple(
            self.prior.grid.index_of(t) for t in self.observations.times
        )
        object.__setattr__(self, "_obs_indices", idx)

    @property
    def obs_indices(self) -> tuple:
        return self._obs_indices

    # The discrete forward map G (one row per observation, one column per
    # flux node) and the observed zero-flux response, each built on first
    # use and shared by every estimator on this problem; the observations
    # of a flux F are G F + free_response.

    @cached_property
    def forward_rows(self) -> np.ndarray:
        """G from one impulse-response sweep."""
        return _read_only(_forward_map_rows(self))

    @cached_property
    def adjoint_rows(self) -> np.ndarray:
        """G again, from one transposed backward sweep per observation."""
        return _read_only(_forward_map_matrix_adjoint(self))

    @cached_property
    def free_response(self) -> np.ndarray:
        """Observations of the state released from q0 with zero flux.

        A zero state stays zero, so with q0 = 0 this takes no sweep.
        """
        if not self.q0.any():
            return _read_only(np.zeros(len(self.observations)))
        zero_flux = np.zeros(self.prior.grid.n)
        return _read_only(_forward_map(self, zero_flux))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_admissible(spec: PriorSpec, g: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(g).max()))
    if spec.kind == "dirichlet_inverse_laplacian":
        if abs(g[0]) > DOMAIN_TOL * scale or abs(g[-1]) > DOMAIN_TOL * scale:
            msg = (
                "function is outside the Dirichlet form domain: endpoint "
                f"values ({g[0]:.3e}, {g[-1]:.3e}) are not zero"
            )
            raise DomainError(msg)
    elif spec.kind == "periodic_zero_mean_inverse_laplacian":
        if abs(g[0] - g[-1]) > DOMAIN_TOL * scale:
            msg = f"function is not periodic: endpoints differ by {abs(g[0] - g[-1]):.3e}"
            raise DomainError(msg)
        mean = float(g[:-1].mean())
        if abs(mean) > DOMAIN_TOL * scale:
            msg = f"periodic prior needs zero-mean functions, got mean {mean:.3e}"
            raise DomainError(msg)


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
    g = np.asarray(g, dtype=float)
    n = spec.grid.n
    if g.shape != (n,):
        msg = f"expected {n} nodal values, got shape {g.shape}"
        raise ValueError(msg)
    _check_admissible(spec, g)
    s2 = spec.sigma**2
    if spec.kind == "diagonal":
        return g / s2
    dt = spec.grid.spacing
    out = np.zeros(n)
    if spec.kind == "dirichlet_inverse_laplacian":
        out[1:-1] = -(g[2:] - 2.0 * g[1:-1] + g[:-2]) / (s2 * dt**2)
        return out
    # periodic: circular stencil on the n-1 distinct nodes
    h = g[:-1]
    lap = np.roll(h, -1) - 2.0 * h + np.roll(h, 1)
    out[:-1] = -lap / (s2 * dt**2)
    out[-1] = out[0]
    return out


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
    field = solve_forward(problem.profile, flux, q0)
    u = np.array(
        [
            apply_observation(w, field.column(i))
            for w, i in zip(problem.weights, problem.obs_indices)
        ]
    )
    return u


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


def _adjoint_flux_sensitivity(problem: AssimilationProblem, impulses) -> np.ndarray:
    """Backward sweep of the transposed stepper; returns dJ/dF per node.

    ``impulses`` maps observation index -> Euclidean cost gradient with
    respect to the state at that observation's time node. The return value
    is the Euclidean gradient with respect to the nodal flux values.
    """
    grid = problem.profile.grid
    tgrid = problem.prior.grid
    dt = tgrid.spacing
    left, right = _cn_bands(problem.profile, dt)
    # transposed bands: swap sub- and super-diagonals
    left_t = (left[2], left[1], left[0])
    right_t = (right[2], right[1], right[0])
    k0 = problem.profile.k[0]
    half = 0.5 * dt * k0

    g = {}
    for i, n_i in enumerate(problem.obs_indices):
        if i in impulses:
            vec = grid.weights * problem.weights[i].values * impulses[i]
            g[n_i] = g.get(n_i, 0.0) + vec

    out = np.zeros(tgrid.n)
    if not g:
        return out
    solve = factor_tridiagonal(*left_t)
    lam = np.zeros(grid.n)
    last = tgrid.n - 1
    if last in g:
        lam = lam + g[last]
    for n in range(tgrid.n - 2, -1, -1):
        psi = solve(lam)
        out[n] += half * psi[0]
        out[n + 1] += half * psi[0]
        lam = _band_matvec(right_t, psi)
        if n in g:
            lam = lam + g[n]
    return out


def _euclidean_to_function(problem: AssimilationProblem, e: np.ndarray) -> np.ndarray:
    """Convert a Euclidean flux sensitivity to a nodal function."""
    spec = problem.prior
    out = e / spec.grid.weights
    if spec.kind == "dirichlet_inverse_laplacian":
        out = out.copy()
        out[0] = 0.0
        out[-1] = 0.0
    elif spec.kind == "periodic_zero_mean_inverse_laplacian":
        out = out.copy()
        glue = (e[0] + e[-1]) / (spec.grid.weights[0] + spec.grid.weights[-1])
        out[0] = glue
        out[-1] = glue
        out = out - out[:-1].mean()
    return out


def gradient(problem: AssimilationProblem, flux: FluxSignal) -> np.ndarray:
    """Gradient of the cost as a nodal function on the time grid.

    One forward solve, one backward adjoint solve, plus the prior term;
    <gradient, G> under the trapezoid form is the directional derivative
    along any admissible G.
    """
    df = flux.values - problem.prior.mean.values
    _check_admissible(problem.prior, df)
    u = _forward_map(problem, flux.values)
    resid = (u - problem.observations.values) / problem.observations.noise_levels**2
    impulses = {i: resid[i] for i in range(len(problem.observations))}
    euclid = _adjoint_flux_sensitivity(problem, impulses)
    return _euclidean_to_function(problem, euclid) + prior_apply_inverse(
        problem.prior, df
    )


def hessian_form(problem: AssimilationProblem, g) -> float:
    """The Hessian form D^2 J (G, G): misfit curvature plus prior form.

    The misfit part propagates the perturbation through the zero-initial
    solver (q(., 0) = 0, flux G) and sums r_i^-2 |Hq(., t_i)|^2; the cost is
    quadratic, so this is exact, not a linearization.
    """
    g = np.asarray(g, dtype=float)
    _check_admissible(problem.prior, g)
    u = _forward_map(problem, g, q0=np.zeros(problem.profile.grid.n))
    scaled = u / problem.observations.noise_levels
    return float(np.dot(scaled, scaled) + prior_quadratic_form(problem.prior, g))


def _make_preconditioner(problem: AssimilationProblem):
    """Solve (W C0^{-1}) z = r on the admissible subspace, kind by kind."""
    spec = problem.prior
    n = spec.grid.n
    dt = spec.grid.spacing
    w = spec.grid.weights
    s2 = spec.sigma**2

    if spec.kind == "diagonal":

        def apply(r):
            return s2 * r / w

        return apply

    if spec.kind == "dirichlet_inverse_laplacian":
        if n == 2:  # both nodes pinned, nothing to solve
            return lambda r: np.zeros(n)
        coef = w[1:-1] / (s2 * dt**2)
        solve = factor_tridiagonal(-coef[1:], 2.0 * coef, -coef[:-1])

        def apply(r):
            z = np.zeros(n)
            z[1:-1] = solve(r[1:-1])
            return z

        return apply

    # periodic zero-mean: the stencil is circulant on the distinct nodes,
    # diagonal in the Fourier basis; the zero frequency is projected out
    m = n - 1
    freqs = np.arange(m // 2 + 1)
    eig = (2.0 - 2.0 * np.cos(2.0 * np.pi * freqs / m)) * (dt / (s2 * dt**2))

    def apply(r):
        rr = r.copy()
        rr[0] = rr[0] + r[-1]
        spec_hat = np.fft.rfft(rr[:-1])
        spec_hat[0] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            spec_hat[1:] = spec_hat[1:] / eig[1:]
        z = np.zeros(n)
        z[:-1] = np.fft.irfft(spec_hat, m)
        z[-1] = z[0]
        return z

    return apply


def _reduce(problem, x):
    if problem.prior.kind == "dirichlet_inverse_laplacian":
        y = x.copy()
        y[0] = 0.0
        y[-1] = 0.0
        return y
    if problem.prior.kind == "periodic_zero_mean_inverse_laplacian":
        # Euclidean-orthogonal projection onto the admissible subspace
        # {x[0] = x[-1], sum over the distinct nodes = 0}. Orthogonality
        # matters: conjugate gradients assumes a symmetric projected
        # operator, and an oblique reduction converges to a stationary
        # point of the wrong constraint pairing.
        m = x.shape[0] - 1
        glue = x[0] - x[-1]
        total = x[:-1].sum()
        det = 2.0 * m - 1.0
        alpha = (m * glue - total) / det
        beta = (2.0 * total - glue) / det
        y = x.copy()
        y[:-1] -= beta
        y[0] -= alpha
        y[-1] += alpha
        return y
    return x


def map_estimate(problem: AssimilationProblem):
    """Minimize the cost by preconditioned conjugate gradients.

    The Hessian is the prior precision plus a rank-N observation term, so
    preconditioning with the prior covariance makes CG resolve one
    observation direction per iteration; convergence in about N+1 steps is
    the norm. The data term comes from the problem's forward map: the
    prior-mean observations are G F0 plus the free response to q0, and
    each Hessian product W C0^{-1} p + G^T R^{-1} G p costs O(N nt), with
    no solver sweep.

    Returns
    -------
    (FluxSignal, dict)
        The MAP flux and a report with iterations and final relative
        residual.

    Raises
    ------
    ConditioningError
        If the relative residual has not reached 1e-8 within 2 * nt
        iterations.
    """
    spec = problem.prior
    n = spec.grid.n
    g = problem.forward_rows
    r2 = problem.observations.noise_levels**2
    u0 = g @ spec.mean.values + problem.free_response
    rhs = _reduce(problem, g.T @ ((problem.observations.values - u0) / r2))

    def hessian(x):  # W C0^{-1} x + G^T R^{-1} G x, for admissible x
        return spec.grid.weights * prior_apply_inverse(spec, x) + g.T @ (g @ x / r2)

    precond = _make_preconditioner(problem)
    x = np.zeros(n)
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    report = {"iterations": 0, "relative_residual": 0.0, "converged": True}
    if rhs_norm == 0.0:
        return FluxSignal(grid=spec.grid, values=spec.mean.values.copy()), report

    z = _reduce(problem, precond(r))
    p = z.copy()
    rz = float(np.dot(r, z))
    tol = 1e-8
    max_iter = 2 * n
    rel = 1.0
    for it in range(1, max_iter + 1):
        hp = _reduce(problem, hessian(p))
        alpha = rz / float(np.dot(p, hp))
        x = x + alpha * p
        r = r - alpha * hp
        rel = float(np.linalg.norm(r)) / rhs_norm
        if rel <= tol:
            report["iterations"] = it
            report["relative_residual"] = rel
            values = spec.mean.values + x
            return FluxSignal(grid=spec.grid, values=values), report
        z = _reduce(problem, precond(r))
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    msg = (
        f"conjugate gradients stalled: relative residual {rel:.3e} after "
        f"{max_iter} iterations (target {tol:g})"
    )
    raise ConditioningError(msg)


def _forward_map_rows(problem: AssimilationProblem) -> np.ndarray:
    """Rows of the discrete forward map from one impulse-response sweep.

    The stepper's matrices are constant and the state starts at zero, so
    a unit forcing 0.5 dt k(0) e_0 in step n, observed at node n_i, gives
    a_i[n_i - 1 - n], where a_i[k] observes the state k + 1 steps after the
    same forcing in step 0. The flux hat at node m forces steps m - 1 and
    m (only one of them at the two ends), hence

        row_i[m] = a_i[n_i - m] [m >= 1] + a_i[n_i - 1 - m] [m <= n_i - 1].
    """
    grid = problem.profile.grid
    tgrid = problem.prior.grid
    rows = np.zeros((len(problem.observations), tgrid.n))
    steps = max(problem.obs_indices, default=0)
    left, right = _cn_bands(problem.profile, tgrid.spacing)
    solve = factor_tridiagonal(*left)
    # one trapezoid-weighted observation functional per row
    obs = np.array([grid.weights * w.values for w in problem.weights])
    a = np.empty((len(obs), steps))
    q = np.zeros(grid.n)
    q[0] = 0.5 * tgrid.spacing * problem.profile.k[0]
    for k in range(steps):
        q = solve(q if k == 0 else _band_matvec(right, q))
        a[:, k] = obs @ q
    for i, n_i in enumerate(problem.obs_indices):
        response = a[i, :n_i][::-1]  # a_i[n_i - 1], ..., a_i[0]
        rows[i, 1 : n_i + 1] += response
        rows[i, :n_i] += response
    return rows


def _forward_map_matrix_adjoint(problem: AssimilationProblem) -> np.ndarray:
    """Same matrix, one transposed backward sweep per observation."""
    rows = np.empty((len(problem.observations), problem.prior.grid.n))
    for i in range(len(problem.observations)):
        rows[i] = _adjoint_flux_sensitivity(problem, {i: 1.0})
    return rows


def representer_rows(problem: AssimilationProblem) -> np.ndarray:
    """Observation representers as nodal time functions, one row each.

    Row i is the adjoint-solve row of the forward map (the problem's
    ``adjoint_rows``, shared with the oracle) divided by r_i and by the
    trapezoid weights of the interval [0, t_i] (so the node at t_i carries
    the half weight of a subinterval endpoint and the value there is the
    one-sided limit). Entries beyond t_i are zero.
    """
    rows = problem.adjoint_rows
    tgrid = problem.prior.grid
    dt = tgrid.spacing
    out = np.zeros_like(rows)
    for i, n_i in enumerate(problem.obs_indices):
        w = np.full(n_i + 1, dt)
        w[0] = 0.5 * dt
        w[-1] = 0.5 * dt
        out[i, : n_i + 1] = rows[i, : n_i + 1] / (
            problem.observations.noise_levels[i] * w
        )
    return out


def _dense_prior_precision(problem: AssimilationProblem) -> np.ndarray:
    """Dense W C0^{-1} on the full node set (Euclidean form matrix)."""
    spec = problem.prior
    n = spec.grid.n
    p = np.zeros((n, n))
    basis = np.eye(n)
    for j in range(n):
        g = _reduce(problem, basis[:, j])
        p[:, j] = spec.grid.weights * prior_apply_inverse(spec, g)
    return p


def oracle_bayes(problem: AssimilationProblem):
    """Exact dense Gaussian posterior on the time grid.

    Takes the problem's two constructions of the discrete forward map, by
    one impulse-response sweep and by per-observation adjoint sweeps, and
    insists they agree to 1e-8 relative before using it; then forms the
    posterior precision W C0^{-1} + G^T R^{-1} G on the admissible
    coordinates and factors it. The prior-mean observations are G F0 plus
    the free response to q0, as in ``map_estimate``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Posterior mean on the time grid and the nt x nt posterior
        covariance (rows and columns of constrained nodes are zero).

    Raises
    ------
    CapacityError
        If the time grid exceeds 2048 nodes.
    NumericalError
        If the two forward-map constructions disagree.
    """
    tgrid = problem.prior.grid
    if tgrid.n > ORACLE_MAX_NODES:
        msg = (
            f"dense oracle supports at most {ORACLE_MAX_NODES} time nodes, "
            f"got {tgrid.n}"
        )
        raise CapacityError(msg)

    fwd = problem.forward_rows
    adj = problem.adjoint_rows
    scale = max(float(np.abs(fwd).max()), 1e-300) if fwd.size else 1.0
    diff = (float(np.abs(fwd - adj).max()) / scale) if fwd.size else 0.0
    if diff > 1e-8:
        msg = (
            "impulse-response and adjoint-solve constructions of the discrete "
            f"forward map disagree (relative {diff:.3e})"
        )
        raise NumericalError(msg)
    ghat = fwd

    spec = problem.prior
    n = tgrid.n
    r2 = problem.observations.noise_levels**2
    prec = _dense_prior_precision(problem) + (ghat.T / r2) @ ghat

    if spec.kind == "dirichlet_inverse_laplacian":
        sub = slice(1, n - 1)
        prec_red = prec[sub, sub]
        cov_red = np.linalg.inv(prec_red)
        cov = np.zeros((n, n))
        cov[sub, sub] = cov_red
    elif spec.kind == "diagonal":
        cov = np.linalg.inv(prec)
    else:
        # periodic zero-mean: glue the identified endpoint, project out the
        # constant, and pseudo-invert on the distinct nodes
        m = n - 1
        pr = prec[:m, :m].copy()
        pr[:, 0] += prec[:m, -1]
        pr[0, :] += prec[-1, :m]
        pr[0, 0] += prec[-1, -1]
        proj = np.eye(m) - np.full((m, m), 1.0 / m)
        cov_red = np.linalg.pinv(proj @ pr @ proj, hermitian=True)
        cov_red = proj @ cov_red @ proj
        cov = np.zeros((n, n))
        cov[:m, :m] = cov_red
        cov[-1, :m] = cov_red[0]
        cov[:m, -1] = cov_red[:, 0]
        cov[-1, -1] = cov_red[0, 0]

    u0 = ghat @ spec.mean.values + problem.free_response
    rhs = ghat.T @ ((problem.observations.values - u0) / r2)
    # cov is the expanded dual-to-primal map (zero rows on pinned nodes,
    # glued rows on identified ones), so it consumes the raw dual vector
    mean = spec.mean.values + cov @ rhs
    return mean, cov
