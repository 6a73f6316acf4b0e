"""Forward solver for the column tracer equation with a prescribed surface
flux, plus the conservation and energy diagnostics attached to it.

The equation is q_t + (w q)_z = (k q_z)_z on [0, h] with boundary conditions
q_z(0, t) = -F(t) and q_z(h, t) = 0. The spatial discretization is a
node-centered finite-volume (flux-form) scheme: interface fluxes
k q_z - w q live at half-nodes, the two boundary fluxes are imposed
directly, and the cell sizes coincide with the trapezoid weights. As a
consequence the discrete column total obeys

    trapz(q(., t)) - trapz(q0) = k(0) * cumtrapz(F)(t)

exactly (to accumulation rounding), which is the model's physical anchor.
Time stepping is Crank-Nicolson, second order and unconditionally stable,
on the face coefficients and the symmetrizing scale the profile forms.

Every sweep of the package runs the one private loop ``_cn_sweep``:
``solve_forward`` (the whole field, or only the states at given nodes),
``impulse_response`` (the rows of the discrete forward map G, one impulse
sweep assembled by the flux hats, and the states at their nodes) and
``flux_sensitivity`` (c^T G for any coefficients c, one transposed backward
sweep of the adjoint, which serves the library's ``gradient`` only). The
loop keeps O(nz) state and yields each new state, which the next step
overwrites; its callers iterate it and store what they read.
``numerics._impulse_transform_gap`` checks G's rows against those states
in closed form, with no sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, SingularSystemError, StabilityError
from .model import CoefficientProfile
from .numerics import (
    ColumnGrid,
    TimeGrid,
    _cn_bands,
    _csv_text,
    _frozen,
    _nodal,
    _write_csv,
    cumulative_trapezoid,
    factor_tridiagonal,
    trapezoid,
)

__all__ = [
    "FluxSignal",
    "MixingRatioField",
    "solve_forward",
    "impulse_response",
    "flux_sensitivity",
    "mass_balance_residual",
    "energy_fit",
    "write_field_csv",
]

#: Bisection cap for the energy-bound constant; exceeding it is treated as a
#: diagnostic failure (the bound should hold with a modest constant).
ENERGY_CAP = 1e3

# Time columns squared at once by ``energy_fit``.
_ENERGY_BLOCK = 64


@dataclass(frozen=True)
class FluxSignal:
    """Surface flux F(t) sampled on a time grid.

    The defining continuous object is the piecewise-linear interpolant;
    positive values push tracer into the column.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values, (self.grid.n,), "flux")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class MixingRatioField:
    """Tracer field q(z, t) on the tensor grid, one column per time node."""

    grid: ColumnGrid
    time_grid: TimeGrid
    values: np.ndarray  # shape (nz, nt)

    def __post_init__(self):
        shape = (self.grid.n, self.time_grid.n)
        object.__setattr__(self, "values", _frozen(self.values, shape, "field"))

    def column(self, time_index: int) -> np.ndarray:
        return self.values[:, time_index]


def _cn_sweep(profile, dt, q, steps, forcing, transpose=False):
    """The one Crank-Nicolson loop: L q' = R q + b_n for each step n in ``steps``.

    L = M - dt/2 S and R = M + dt/2 S = 2M - L (transposed if ``transpose``),
    so q' = L^-1 (2 M q + b_n) - q. (S q)_j collects the interface fluxes
    k q_z - w q around node j, the two boundary fluxes excluded (they enter
    as forcing): S has the profile's kf + wf below the diagonal and kf - wf
    above it, and its columns sum to zero, which makes the discrete mass
    balance exact. With D = diag(profile.d), both off-diagonals of D^-1 S D
    are sqrt(kf^2 - wf^2), so L = D Ls D^-1 and L^T = D^-1 Ls D for one SPD
    Ls, factored once: the loop runs on u = D^-1 q (D q if ``transpose``),
    u' = Ls^-1 (2 M u + c_n) - u. ``forcing(n, rhs)`` adds c_n = D^-1 b_n
    (D b_n) in place. The loop yields ``(n, u')`` after each step, and the
    next step overwrites u': nothing is stored. d[0] = 1: surface entries
    are unscaled.
    """
    m, ls_diag, ls_off = _cn_bands(profile, dt)
    try:
        solve = factor_tridiagonal(ls_diag, ls_off)
    except SingularSystemError as exc:
        ratio = dt / profile.grid.spacing * float(np.max(profile.k)) / profile.grid.spacing
        msg = f"M - dt/2 S is not positive definite at dt k / dz**2 = {ratio:.3e}"
        msg += " (M rounds away above about 1e16); lower model.k or raise grid.nt"
        raise SingularSystemError(msg) from exc
    m2, rhs = 2.0 * m, np.empty_like(m)
    step = solve.in_place(rhs)
    u = q * profile.d if transpose else q / profile.d
    for n in steps:
        np.multiply(m2, u, out=rhs)
        forcing(n, rhs)
        step()
        np.subtract(rhs, u, out=u)
        yield n, u


def solve_forward(
    profile: CoefficientProfile,
    flux: FluxSignal,
    q0,
    nodes=None,
):
    """Integrate the tracer equation forward in time.

    Parameters
    ----------
    profile : CoefficientProfile
    flux : FluxSignal
        Surface forcing; the Crank-Nicolson step uses the average of the
        two endpoint values of each step (midpoint of the piecewise-linear
        interpolant).
    q0 : array_like
        Initial condition on the column grid.
    nodes : sequence of int, optional
        Time-node indices to keep. The solve then stops at the latest of
        them and stores only those states, in O(nz) memory per node.

    Returns
    -------
    MixingRatioField, or numpy.ndarray of shape (nz, len(nodes))
        The whole field, or the state at each of ``nodes``.

    Raises
    ------
    StabilityError
        If the solution turns non-finite (reports the offending step).
    """
    grid = profile.grid
    tgrid = flux.grid
    q0 = _nodal(q0, (grid.n,), "q0")
    kept = range(tgrid.n) if nodes is None else [int(n) for n in nodes]
    if not all(0 <= n < tgrid.n for n in kept):
        raise ValueError(f"nodes must lie in [0, {tgrid.n})")

    dt = tgrid.spacing
    k0 = profile.k[0]
    f = flux.values
    columns = {}
    for j, n in enumerate(kept):
        columns.setdefault(n, []).append(j)
    out = np.empty((grid.n, len(kept)))
    out[:, columns.get(0, [])] = q0[:, None]

    def forcing(n, rhs):
        rhs[0] += 0.5 * dt * k0 * (f[n] + f[n + 1])

    # overflow surfaces as a StabilityError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in _cn_sweep(profile, dt, q0, range(max(kept, default=0)), forcing):
            q = profile.d * u
            if not np.isfinite(q).all():
                raise StabilityError(step=n + 1)
            for j in columns.get(n + 1, ()):
                out[:, j] = q
    if nodes is None:
        return MixingRatioField(grid=grid, time_grid=tgrid, values=out)
    return out


def impulse_response(profile: CoefficientProfile, tgrid: TimeGrid, functionals, nodes):
    """Rows of the discrete forward map from one impulse-response sweep, and
    the sweep's scaled state u = D^-1 q at each distinct node of ``nodes``.

    Row i, entry m is ``functionals[i] @ q`` at time node ``nodes[i]`` for
    the state driven from zero by the flux hat at node m. The stepper's
    matrices are constant, so a unit forcing 0.5 dt k(0) e_0 in step n,
    seen at node n_i, gives a_i[n_i - 1 - n], where a_i[k] observes the
    state k + 1 steps after the same forcing in step 0: one sweep to the
    latest node gives every a_i. The hat at node m forces steps m - 1 and
    m (only one of them at the two ends), hence

        row_i[m] = a_i[n_i - m] [m >= 1] + a_i[n_i - 1 - m] [m <= n_i - 1].

    Row j of the states is the state at the j-th smallest distinct node
    (``sorted(set(nodes))[j]``), zero at node 0:
    ``numerics._impulse_transform_gap`` checks the rows against them.
    """
    dt = tgrid.spacing
    steps = max(nodes, default=0)
    a = np.empty((len(functionals), steps))
    kept = {n_i: j for j, n_i in enumerate(sorted(set(nodes)))}
    states = np.zeros((len(kept), profile.grid.n))
    observe = functionals * profile.d  # of u = D^-1 q

    def forcing(n, rhs):
        if n == 0:
            rhs[0] += 0.5 * dt * profile.k[0]

    for n, u in _cn_sweep(profile, dt, np.zeros(profile.grid.n), range(steps), forcing):
        a[:, n] = observe @ u
        if n + 1 in kept:
            states[kept[n + 1]] = u
    rows = np.zeros((len(functionals), tgrid.n))
    for i, n_i in enumerate(nodes):
        response = a[i, :n_i][::-1]  # a_i[n_i - 1], ..., a_i[0]
        rows[i, 1 : n_i + 1] += response
        rows[i, :n_i] += response
    return rows, states


def flux_sensitivity(profile: CoefficientProfile, tgrid: TimeGrid, functionals, nodes, c):
    """``c @ impulse_response(profile, tgrid, functionals, nodes)`` from one sweep.

    That is the gradient of sum_i c[i] functionals[i] . q(., t_n) at n =
    nodes[i] in the nodal flux values. The transposed stepper runs backward
    from the latest node with a nonzero coefficient, where the adjoint state
    starts (it is zero after it); each step's surface value feeds the flux
    at both of the step's nodes. A state at node 0 does not see the flux.
    """
    out = np.zeros(tgrid.n)
    half = 0.5 * tgrid.spacing * profile.k[0]
    impulses = {}
    for row, n_i, c_i in zip(functionals, nodes, c):
        if c_i != 0.0:
            impulses[n_i] = impulses.get(n_i, 0.0) + row * c_i

    def forcing(n, rhs):
        if n + 1 in impulses:
            rhs += profile.d * impulses[n + 1]

    steps = range(max(impulses, default=0) - 1, -1, -1)
    zero = np.zeros(profile.grid.n)
    for n, psi in _cn_sweep(profile, tgrid.spacing, zero, steps, forcing, transpose=True):
        out[n] += half * psi[0]
        out[n + 1] += half * psi[0]
    return out


def mass_balance_residual(
    field: MixingRatioField, profile: CoefficientProfile, flux: FluxSignal
) -> np.ndarray:
    """Residual of the discrete column-mass identity at every time node.

    Returns r(t) = trapz(q(., t)) - trapz(q(., 0)) - k(0) * int_0^t F, with
    the time integral taken by the cumulative trapezoid rule (the one the
    stepper conserves exactly). For fields produced by
    :func:`solve_forward`, every entry sits at the accumulation-rounding
    level, below 1e-10 * (1 + |q0| + |F|).
    """
    totals = trapezoid(field.values, field.grid, axis=0)
    injected = profile.k[0] * cumulative_trapezoid(flux.values, flux.grid.spacing)
    return totals - totals[0] - injected


def energy_fit(field: MixingRatioField, flux: FluxSignal, q0) -> float:
    """Smallest constant K certifying the energy envelope of the solution.

    Finds, by bisection to relative 1e-3, the smallest K >= 0 such that

        ||q(., t)||^2 <= K e^{K t} [(1+t) ||q0||^2 + (1+t^2) ||F||^2_{L2(0,t)}]

    holds at every grid time. The checked claim is existence of a finite K;
    its size is otherwise uninformative.

    Raises
    ------
    DiagnosticError
        If a squared norm overflows, or no K below the cap 1e3 satisfies
        the bound, which signals an unstable or inconsistent solve.
    """
    q0 = _nodal(q0, (field.grid.n,), "q0")
    t = field.time_grid.nodes
    # square a block of columns at a time: nz x _ENERGY_BLOCK extra memory,
    # not a squared copy of the whole field
    norms2 = np.empty(field.time_grid.n)
    # a square that overflows leaves every K admissible: stop on it instead
    with np.errstate(over="ignore"):
        for start in range(0, norms2.size, _ENERGY_BLOCK):
            block = field.values[:, start : start + _ENERGY_BLOCK] ** 2
            norms2[start : start + _ENERGY_BLOCK] = trapezoid(block, field.grid, axis=0)
        q0n2 = trapezoid(q0**2, field.grid)
        fcum2 = cumulative_trapezoid(flux.values**2, flux.grid.spacing)
        budget = (1.0 + t) * q0n2 + (1.0 + t**2) * fcum2
    if not (np.isfinite(norms2).all() and np.isfinite(budget).all()):
        raise DiagnosticError("squared norms of the field or the flux overflow")

    def admissible(kappa: float) -> bool:
        # e^{kappa t} overflows past kappa t = 709; inf admits every finite norm
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.all(norms2 <= kappa * np.exp(kappa * t) * budget))

    if admissible(0.0):
        return 0.0
    hi = 1.0
    while not admissible(hi):
        hi *= 2.0
        if hi > ENERGY_CAP:
            msg = f"no admissible energy constant below the cap {ENERGY_CAP:g}"
            raise DiagnosticError(msg)
    lo = 0.0
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def write_field_csv(field: MixingRatioField, path) -> None:
    """Write a field as CSV: header row of times, first column of heights."""
    header = ",".join(["z", *_csv_text(field.time_grid.nodes)])
    _write_csv(path, header, (field.grid.nodes, field.values))
