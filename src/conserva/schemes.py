"""Residual-distribution assembly of 1D schemes plus explicit time stepping.

Every scheme here produces a :class:`ResidualSet`: per element K a residual
Phi_sigma^K for each of its DOFs, together with the per-DOF share of the
element boundary flux.  Local conservation means the residuals of an element
sum to its boundary flux integral; the update then reads

    u_sigma^{n+1} = u_sigma^n - dt / |C_sigma| * sum_{K owning sigma} Phi_sigma^K.

A residual scheme is a base residual (finite volume or SUPG) followed by an
ordered tuple of corrections that keep every element's residual sum;
``residual_assembler`` builds one from its row of ``records.SCHEMES``.
Every residual scheme marches conserved states, the gas scheme posed in
internal energy included (the ``energy`` correction, ``TwoFieldGasScheme``).
``march`` is the one time-marching loop: ``integrate`` and the two-field
scheme's ``af_integrate`` hand it a step function.

Residuals are functions of node quantities, so the model is evaluated once
at the nodes (``models.NodeKernels``) and the cell ends are gathered from
that bundle.  Residuals, corrections and the update ``rd_step`` check
nothing: ``integrate`` alone admits states.  It admits the initial states
once through ``NodeKernels.of`` and checks the bundle it builds of each stage
state, which the next stage reads, or the CFL speed and the ledger on an
accepted state; a combined SSP stage checks its forward-Euler candidate too.

Residual assembly is element-local and pure; elements could be processed
concurrently.  The integrator is a single logical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corrections
from .errors import ConfigError, RunError, StepRejectedError
from .mesh import GAUSS_LEGENDRE, gather_cell_ends, scatter_cell_ends
from .models import NodeKernels, _first_rejected
from .records import ACTIVE_FLUX, SCHEMES, SSP_STAGES, SUPG, Ledger, SolutionRecord


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------


def _rusanov(left, right):
    """Rusanov (local Lax-Friedrichs) flux from the bundles of two states.

    0.5*(f(uL) + f(uR)) - 0.5*alpha*(uR - uL) with alpha the larger wave
    speed bound of the two states; every Rusanov evaluation applies it.
    """
    alpha = np.maximum(left.speed, right.speed)
    avg = 0.5 * (left.flux + right.flux)
    return avg - 0.5 * alpha[..., None] * (right.states - left.states)


def _central(left, right):
    """Dissipation-free average flux; entropy-unstable on purpose (control runs)."""
    return 0.5 * (left.flux + right.flux)


@dataclass(frozen=True)
class NumericalFlux:
    """A consistent two-point interface flux f_hat(uL, uR)."""

    kind: str

    _TABLE = {"rusanov": _rusanov, "central": _central}

    def __post_init__(self):
        if self.kind not in self._TABLE:
            raise ConfigError(f"unknown flux kind {self.kind!r}")

    def __call__(self, left, right):
        """f_hat(uL, uR) of the ``NodeKernels`` of two (stacks of) states."""
        return self._TABLE[self.kind](left, right)


# ---------------------------------------------------------------------------
# residual sets
# ---------------------------------------------------------------------------


@dataclass
class ResidualSet:
    """Residuals for every element of a 1D mesh, with the cell ends they were
    built from.

    phi: (2, ncell, p) in the layout of ``gather_cell_ends``: row d holds
    each cell's values at its DOF mesh.cell_dofs[:, d].
    ends: the (left, right) ``NodeKernels`` bundles at the cell ends, from
    which ``boundary_parts`` are formed where they are read.
    boundary_outflux: (p,), the net outward flux through the domain boundary,
    f(u_last) - f(u_first); zero on periodic meshes.
    """

    cell_dofs: np.ndarray
    phi: np.ndarray
    ends: tuple
    boundary_outflux: np.ndarray
    alpha_max: float = 0.0

    @property
    def ncell(self):
        return self.phi.shape[1]

    @property
    def boundary_parts(self):
        """The element boundary-flux shares (-f(u_left), f(u_right)), shape
        (2, ncell, p) like phi; a new array on every read."""
        left, right = self.ends
        return np.stack([-left.flux, right.flux])

    def with_phi(self, phi, alpha_max):
        """The set of corrected residuals phi, whose largest correction
        coefficient is alpha_max, on the same cell ends."""
        return ResidualSet(self.cell_dofs, phi, self.ends, self.boundary_outflux, alpha_max)

    def scatter_to_dofs(self, ndof):
        """Sum residuals over the elements owning each DOF, shape (ndof, p)."""
        return scatter_cell_ends(*self.phi, ndof)


def _boundary_outflux(mesh, flux):
    """Net outward flux f(u_last) - f(u_first) of the node fluxes; zero if periodic."""
    return np.zeros(flux.shape[1]) if mesh.periodic else flux[-1] - flux[0]


def fv_residuals_1d(mesh, nodes, flux):
    """Finite volume scheme rewritten as per-cell residuals.

    Cell [x_i, x_{i+1}] sends f_hat_{i+1/2} - f(u_i) to its left DOF and
    f(u_{i+1}) - f_hat_{i+1/2} to its right DOF, so the pair sums to the
    interpolated boundary flux f(u_{i+1}) - f(u_i).  ``nodes`` is the checked
    ``NodeKernels`` bundle of the (ndof, p) node states; ``flux(left, right)``
    receives its cell-end bundles.
    """
    left, right = nodes.cell_ends(mesh)
    fhat = flux(left, right)
    phi = np.empty((2,) + fhat.shape)
    np.subtract(fhat, left.flux, out=phi[0])
    np.subtract(right.flux, fhat, out=phi[1])
    return ResidualSet(mesh.cell_dofs, phi, (left, right), _boundary_outflux(mesh, nodes.flux))


def supg_residuals_1d(mesh, nodes, model, tau_scale=1.0):
    """Streamline-upwind Petrov-Galerkin residuals on P1 elements.

    Phi_sigma^K = -int_K dphi_sigma f(u^h) + [phi_sigma f(u^h) n]_{dK}
                  + h_K int_K (A dphi_sigma)^T tau (A du^h/dx),  A = df/du,
    with tau = tau_scale / (2 * max wave speed on K) and 3-point Gauss
    quadrature.  The volume and stabilisation terms cancel in the element sum
    (the basis sums to one), leaving exactly the interpolated boundary flux.
    ``nodes`` is the checked ``NodeKernels`` bundle of the (ndof, p) node
    states.
    """
    left, right = nodes.cell_ends(mesh)
    u_left, u_right = left.states, right.states
    h = mesh.cell_sizes[:, None]

    speed = np.maximum(left.speed, right.speed)
    tau = np.divide(tau_scale, 2.0 * speed, out=np.zeros_like(speed), where=speed > 1e-300)
    tau = tau[:, None]

    phi = np.stack([-left.flux, right.flux])  # boundary terms of each test function

    du_dx = (u_right - u_left) / h
    nodes_q, weights = GAUSS_LEGENDRE[3]
    for xi, wq in zip(0.5 * (nodes_q + 1.0), 0.5 * weights):
        u_q = u_left + xi * (u_right - u_left)
        f_q = model.flux(u_q)
        A_q = model.jacobian(u_q)
        advect = np.einsum("kij,kj->ki", A_q, du_dx)
        stab = np.einsum("kji,kj->ki", A_q, tau * advect)
        # volume term: -int dphi f, with dphi = -+ 1/h; measure w_q * h
        phi[0] += wq * f_q - wq * h * stab  # h_K * (w_q h) * (-1/h) * stab
        phi[1] += -wq * f_q + wq * h * stab

    return ResidualSet(mesh.cell_dofs, phi, (left, right), _boundary_outflux(mesh, nodes.flux))


# ---------------------------------------------------------------------------
# schemes by id
# ---------------------------------------------------------------------------


def _entropy_corrected(model, mesh):
    return lambda residuals, nodes, dt: corrections.entropy_correction(residuals, nodes, model)[0]


# name -> builder(model, mesh) of correct(residuals, nodes, dt) -> ResidualSet.
# ``energy`` replaces the whole energy column, so a row that combines it with
# other corrections lists it first.
_CORRECTIONS = {
    "entropy": _entropy_corrected,
    "energy": lambda model, mesh: TwoFieldGasScheme(mesh).assemble,
}


def residual_assembler(scheme_id, model, mesh, tau_scale=1.0):
    """``assemble(nodes, dt) -> ResidualSet`` of a residual scheme id, on the
    checked ``NodeKernels`` bundle of conserved node states;
    ``integrate(model, mesh, u0, assemble, ...)`` marches it.

    Reads the id's row of ``records.SCHEMES``: the base residual is Rusanov
    finite volume (``fv``) or SUPG with the given tau scale (``supg``); each
    correction then rewrites the residuals inside every element and keeps
    their sum at the element's boundary flux, so the base residual's
    conservation survives.  The base and every correction read the bundle.
    """
    row = SCHEMES.get(scheme_id)
    if row is None or row.base == ACTIVE_FLUX:
        known = [name for name, r in SCHEMES.items() if r.base != ACTIVE_FLUX]
        raise ConfigError(f"{scheme_id!r} is not a residual scheme; known: {', '.join(known)}")
    if row.base == SUPG:
        base = lambda nodes: supg_residuals_1d(mesh, nodes, model, tau_scale=tau_scale)
    else:
        flux = NumericalFlux("rusanov")
        base = lambda nodes: fv_residuals_1d(mesh, nodes, flux)
    steps = [_CORRECTIONS[name](model, mesh) for name in row.corrections]

    def assemble(nodes, dt):
        residuals = base(nodes)
        for correct in steps:
            residuals = correct(residuals, nodes, dt)
        return residuals

    return assemble


class TwoFieldGasScheme:
    """The ``energy`` correction of the Rusanov base: the gas equations posed
    in (rho, rho v, e), marched as a residual scheme in conserved (rho, rho v, E).

    Density and momentum keep the Rusanov residuals; the internal energy gets
    a centred non-conservative discretisation of
    e_t + (e v)_x + p v_x = 0 with matched Rusanov dissipation, phi_e.  In a
    forward Euler step of (rho, m, e), E = e + m v / 2 changes at every DOF
    by exactly the total-energy increment identity

        dE = de + (v_new + v_old)/2 * dm - (v_new v_old)/2 * drho,

    where v_new is the velocity after the density/momentum update, which does
    not depend on the energy residual.  The velocity weights are per DOF, so
    that step is the conserved-variable step whose energy residual is

        phi_E = phi_e + (v_new + v_old)/2 * phi_mom - (v_new v_old)/2 * phi_rho.

    The energy correction shifts it so that it sums to the element's boundary
    energy flux, the Rusanov base's: the non-conservative scheme, corrected,
    is a locally conservative residual scheme, and every SSP integrator
    combines its stages in conserved variables.
    """

    def __init__(self, mesh):
        self.mesh = mesh

    def assemble(self, base, nodes, dt):
        """The Rusanov residuals ``base`` of the states in the bundle ``nodes``,
        with their energy component rewritten in place as the corrected
        total-energy residual phi_E; the cell ends are kept.

        Each energy term is formed once, per cell end in the (2, ncell)
        layout of the residuals, so that products run along the cells.  The
        velocity, internal energy and pressure are the bundle's ``GasParts``;
        the wave speeds and energy fluxes at the cell ends are those of ``base``.
        """
        mesh = self.mesh
        phi = base.phi
        phi_rho, phi_mom = phi[..., 0], phi[..., 1]
        left, right = base.ends

        u = nodes.states
        dofs = mesh.cell_dofs
        gas = nodes.parts
        vel_l, vel_r = v_old = gather_cell_ends(gas.vel, dofs)
        e_l, e_r = gather_cell_ends(gas.e_int, dofs)
        p_l, p_r = gather_cell_ends(gas.pres, dofs)
        alpha = np.maximum(left.speed, right.speed)

        # centred total + Rusanov-type redistribution for the internal energy
        total = (e_r * vel_r - e_l * vel_l) + 0.5 * (p_l + p_r) * (vel_r - vel_l)
        half = 0.5 * total
        damping = 0.5 * alpha * (e_r - e_l)
        phi_e = np.empty(phi.shape[:2])
        np.subtract(half, damping, out=phi_e[0])
        np.add(half, damping, out=phi_e[1])

        # velocities after the density/momentum update; at dt = 0 it keeps m
        # and rho (a -0.0 momentum turns +0.0), so v_new is v_old bit for bit
        ratio = dt / mesh.volumes
        rho_new = u[:, 0] - ratio * scatter_cell_ends(*phi_rho, mesh.ndof)
        mom_new = u[:, 1] - ratio * scatter_cell_ends(*phi_mom, mesh.ndof)
        with np.errstate(all="ignore"):
            # a transient nonpositive rho_new poisons the step with nans and
            # the integrator then rejects and retries it with a smaller dt
            v_new = gather_cell_ends(mom_new / rho_new, dofs)

        # f_E(u_right) - f_E(u_left): the element's boundary energy flux
        phi[..., 2], _ = corrections.nonconservative_energy_correction(
            phi_rho, phi_mom, phi_e, 0.5 * (v_new + v_old), 0.5 * (v_new * v_old),
            right.flux[:, 2] - left.flux[:, 2],
        )
        return base


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def rd_step(mesh, states, residuals, dt):
    """One forward-Euler residual-distribution update of the (ndof, p) states,
    unchecked: ``integrate`` admits what it makes of the result."""
    if not 0.0 < dt < np.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    increments = residuals.scatter_to_dofs(mesh.ndof)
    return states - (dt / mesh.volumes)[:, None] * increments


def _reject_inadmissible(mask):
    """Raise StepRejectedError at the first DOF a step's admissibility mask rejects."""
    if not mask.all():
        where = _first_rejected(mask)[0]
        raise StepRejectedError(f"inadmissible state at DOF {where} after step", location=where)


def _totals(weights, states):
    """sum_k weights[k] * states[k] of C-contiguous (n, p) states, bit for bit
    (weights[:, None] * states).sum(axis=0): einsum adds the rows in the same
    order without the product; numpy sums an (n, 1) product pairwise, so p = 1 keeps it."""
    if states.shape[1] == 1:
        return (weights[:, None] * states).sum(axis=0)
    return np.einsum("k,kp->p", weights, states)


def _ssp_combine(a, u, b, x):
    """a * u + b * x; a (0, 1) stage returns x itself, with the same bits, as
    x = u -+ c * r (c >= 0) is -0.0 only where the finite u is, like 0.0 * u."""
    return x if a == 0.0 and b == 1.0 else a * u + b * x


MAX_STEPS = 10_000_000
MAX_RETRIES = 8  # dt halvings before a rejected step ends the run


def march(state, advance, *, speed, length, cfl, t_end, totals, entropy, snapshot,
          snapshot_every=0, stop_after_steps=None):
    """The time-marching loop shared by every integrator.

    Each step takes dt = cfl * length / speed(state), cut to land on t_end,
    and calls advance(state, dt) -> (state, boundary_flux, alpha_max,
    flagged_cells), where boundary_flux is the net outward flux through the
    domain boundary over the step.  An advance that raises
    StepRejectedError is retried with dt halved, up to MAX_RETRIES times.

    The ledger books totals(state), entropy(state), the accumulated boundary
    flux (so conservation can be checked exactly), alpha_max and
    flagged_cells for the initial state and after every step.
    snapshot(state) is kept every snapshot_every steps and at the end.
    A cfl or t_end that is not positive and finite raises ConfigError; a
    non-finite speed, persistent rejection or MAX_STEPS steps raise RunError
    with the step index.

    Returns (times, snapshots, ledger).
    """
    if not 0.0 < t_end < np.inf:
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 < cfl < np.inf:
        raise ConfigError(f"cfl must be positive and finite, got {cfl}")
    times = [0.0]
    snapshots = [snapshot(state)]
    first = totals(state)
    rows = [(0.0, first, entropy(state), np.zeros_like(first), 0.0, 0)]  # Ledger field order

    t = 0.0
    step = 0
    while t < t_end - 1e-13 * t_end:
        if stop_after_steps is not None and step >= stop_after_steps:
            break
        if step >= MAX_STEPS:
            raise RunError(f"step budget exhausted at t={t}", step=step)
        fastest = speed(state)
        if not np.isfinite(fastest):
            raise RunError(f"blow-up at step {step} (t={t:.6g})", step=step)
        dt = min(cfl * length / max(fastest, 1e-300), t_end - t)

        for attempt in range(MAX_RETRIES + 1):
            try:
                state, bflux, alpha_max, flagged = advance(state, dt)
                break
            except StepRejectedError as exc:
                if attempt == MAX_RETRIES:
                    raise RunError(
                        f"state stayed inadmissible after {MAX_RETRIES} dt halvings: {exc}",
                        step=step,
                    ) from exc
                dt *= 0.5

        t += dt
        step += 1
        rows.append((t, totals(state), entropy(state), rows[-1][3] + bflux, alpha_max, flagged))
        if snapshot_every and step % snapshot_every == 0:
            times.append(t)
            snapshots.append(snapshot(state))

    if times[-1] != t:
        times.append(t)
        snapshots.append(snapshot(state))

    return np.asarray(times), snapshots, Ledger(*map(np.asarray, zip(*rows)))


def integrate(
    model,
    mesh,
    u0,
    assemble,
    *,
    cfl,
    t_end,
    integrator="euler",
    snapshot_every=0,
    stop_after_steps=None,
):
    """March a residual-distribution scheme to t_end with CFL-chosen steps.

    assemble(nodes, dt) -> ResidualSet, on a checked ``NodeKernels`` bundle.
    u0 is admitted once, through ``NodeKernels.of``: an inadmissible initial
    state, non-finite ones included, raises DomainError carrying its DOF.
    march's state is the bundle each stage builds of its combined state at
    once (with its entropy on the last stage), which the next stage, the CFL
    speed and the ledger read; a stage state its mask rejects raises
    StepRejectedError.  Each stage is a forward Euler step and SSP stages
    combine them convexly, so residuals that sum to their boundary parts
    conserve with every integrator; a combined stage, (a, b) != (0, 1), also
    rejects an inadmissible forward-Euler candidate.  The ledger's totals are the
    volume-weighted sums of the states, which the record's snapshots copy;
    its boundary account is the net outflux each stage's residuals carry;
    alpha_max is the largest correction coefficient reported by the
    assembler.  See ``march`` for steps, retries and errors.
    """
    states = np.ascontiguousarray(u0, dtype=float)  # one order of additions in every total
    if states.ndim != 2 or states.shape[0] != mesh.ndof:
        raise ConfigError(f"u0 must be ({mesh.ndof}, p)")

    stages = SSP_STAGES.get(integrator)
    if stages is None:
        raise ConfigError(f"unknown integrator {integrator!r}")

    def advance(bundle, dt):
        u = bundle.states
        alpha_max = 0.0
        bflux = np.zeros(u.shape[1])
        for k, (a_coef, b_coef, w) in enumerate(stages, 1):
            residuals = assemble(bundle, dt)
            alpha_max = max(alpha_max, residuals.alpha_max)
            bflux = bflux + w * dt * residuals.boundary_outflux
            stage = rd_step(mesh, bundle.states, residuals, dt)
            if (a_coef, b_coef) != (0.0, 1.0):
                # the forward-Euler candidate of a combined stage: SSP rests on it
                _reject_inadmissible(model.admissible_mask(stage))
            bundle = model.node_kernels(_ssp_combine(a_coef, u, b_coef, stage),
                                        entropy=k == len(stages))
            _reject_inadmissible(bundle.admissible)
        return bundle, bflux, alpha_max, 0

    times, snapshots, ledger = march(
        NodeKernels.of(model, states, entropy=True),
        advance,
        speed=lambda b: float(b.speed.max()),
        length=float(mesh.volumes.min()),
        cfl=cfl,
        t_end=t_end,
        totals=lambda b: _totals(mesh.volumes, b.states),
        entropy=lambda b: float((mesh.volumes * b.entropy).sum()),
        snapshot=lambda b: np.copy(b.states),
        snapshot_every=snapshot_every,
        stop_after_steps=stop_after_steps,
    )
    return SolutionRecord(times=times, states=snapshots, ledger=ledger, mesh=mesh, model=model)
