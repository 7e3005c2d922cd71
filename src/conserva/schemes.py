"""Residual-distribution assembly of 1D schemes plus explicit time stepping.

Every scheme here produces a :class:`ResidualSet`: per element K a residual
Phi_sigma^K for each of its DOFs, together with the per-DOF share of the
element boundary flux.  Local conservation means the residuals of an element
sum to its boundary flux integral; the update then reads

    u_sigma^{n+1} = u_sigma^n - dt / |C_sigma| * sum_{K owning sigma} Phi_sigma^K.

A residual scheme is a base residual (finite volume or SUPG) followed by an
ordered tuple of zero-sum corrections; ``residual_assembler`` builds one from
its scheme id.  ``march`` is the one time-marching loop: ``integrate`` and
the two-field scheme's ``af_integrate`` hand it a step function.

Residual assembly is element-local and pure; elements could be processed
concurrently.  The integrator is a single logical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corrections
from .errors import ConfigError, GeometryError, RunError, StepRejectedError
from .records import Ledger, SolutionRecord

_GAUSS3 = np.polynomial.legendre.leggauss(3)


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------


def rusanov(n, u_left, u_right, model):
    """Rusanov (local Lax-Friedrichs) two-point flux in direction n = +-1.

    n * [0.5*(f(uL) + f(uR)) - 0.5*alpha*(uR - uL)] with alpha the larger
    wave speed bound of the two states, so negating n negates the flux with
    the arguments kept in place.  Broadcasts over stacked states.
    """
    u_left = model.require_admissible(u_left)
    u_right = model.require_admissible(u_right)
    return n * rusanov_unchecked(u_left, u_right, model)


def rusanov_unchecked(u_left, u_right, model):
    """The Rusanov flux in direction +1 without the admissibility checks.

    The active-flux fallback evaluates it on candidate states that its
    detector judges afterwards, so it must not raise; the checks would also
    double the cost of each call.
    """
    alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    avg = 0.5 * (model.flux(u_left) + model.flux(u_right))
    return avg - 0.5 * alpha[..., None] * (u_right - u_left)


def central(n, u_left, u_right, model):
    """Dissipation-free average flux; entropy-unstable on purpose (control runs)."""
    u_left = model.require_admissible(u_left)
    u_right = model.require_admissible(u_right)
    return n * 0.5 * (model.flux(u_left) + model.flux(u_right))


@dataclass(frozen=True)
class NumericalFlux:
    """A consistent two-point interface flux f_hat(n; uL, uR)."""

    kind: str
    model: object

    _TABLE = {"rusanov": rusanov, "central": central}

    def __post_init__(self):
        if self.kind not in self._TABLE:
            raise ConfigError(f"unknown flux kind {self.kind!r}")

    def __call__(self, n, u_left, u_right):
        return self._TABLE[self.kind](n, u_left, u_right, self.model)


# ---------------------------------------------------------------------------
# residual sets
# ---------------------------------------------------------------------------


@dataclass
class ResidualSet:
    """Residuals and boundary-flux shares for every element of a 1D mesh.

    phi, boundary_parts: (ncell, 2, p) arrays indexed like mesh.cell_dofs.
    domain_boundary_flux: (ndof, p), the outward boundary flux closing the
    update at domain-boundary DOFs; identically zero for interior DOFs and on
    periodic meshes.
    """

    cell_dofs: np.ndarray
    phi: np.ndarray
    boundary_parts: np.ndarray
    domain_boundary_flux: np.ndarray
    alpha_max: float = 0.0

    @property
    def ncell(self):
        return self.phi.shape[0]

    def element_defect(self):
        """Conservation defect per element: sum of residuals minus boundary flux."""
        return self.phi.sum(axis=1) - self.boundary_parts.sum(axis=1)

    def scatter_to_dofs(self, ndof):
        """Sum residuals over the elements owning each DOF, shape (ndof, p)."""
        out = np.zeros((ndof, self.phi.shape[2]))
        np.add.at(out, self.cell_dofs[:, 0], self.phi[:, 0])
        np.add.at(out, self.cell_dofs[:, 1], self.phi[:, 1])
        return out

    def net_boundary_outflux(self):
        """Net outward flux through the domain boundary, shape (p,)."""
        return self.domain_boundary_flux.sum(axis=0)


def _domain_closure(mesh, states, model):
    out = np.zeros((mesh.ndof, states.shape[1]))
    if not mesh.periodic:
        out[0] = -model.flux(states[0])
        out[-1] = model.flux(states[-1])
    return out


def fv_residuals_1d(mesh, states, flux, model):
    """Finite volume scheme rewritten as per-cell residuals.

    Cell [x_i, x_{i+1}] sends f_hat_{i+1/2} - f(u_i) to its left DOF and
    f(u_{i+1}) - f_hat_{i+1/2} to its right DOF, so the pair sums to the
    interpolated boundary flux f(u_{i+1}) - f(u_i).
    """
    states = np.asarray(states, dtype=float)
    if states.shape[0] != mesh.ndof:
        raise ConfigError(f"expected {mesh.ndof} states, got {states.shape[0]}")
    u_left = states[mesh.cell_dofs[:, 0]]
    u_right = states[mesh.cell_dofs[:, 1]]
    fhat = flux(+1, u_left, u_right)
    f_left = model.flux(u_left)
    f_right = model.flux(u_right)

    phi = np.stack([fhat - f_left, f_right - fhat], axis=1)
    bparts = np.stack([-f_left, f_right], axis=1)
    return ResidualSet(mesh.cell_dofs, phi, bparts, _domain_closure(mesh, states, model))


def supg_residuals_1d(mesh, states, model, tau_scale=1.0):
    """Streamline-upwind Petrov-Galerkin residuals on P1 elements.

    Phi_sigma^K = -int_K dphi_sigma f(u^h) + [phi_sigma f(u^h) n]_{dK}
                  + h_K int_K (A dphi_sigma)^T tau (A du^h/dx),  A = df/du,
    with tau = tau_scale / (2 * max wave speed on K) and 3-point Gauss
    quadrature.  The volume and stabilisation terms cancel in the element sum
    (the basis sums to one), leaving exactly the interpolated boundary flux.
    """
    states = np.asarray(states, dtype=float)
    if states.shape[0] != mesh.ndof:
        raise ConfigError(f"expected {mesh.ndof} states, got {states.shape[0]}")
    model.require_admissible(states)
    u_left = states[mesh.cell_dofs[:, 0]]
    u_right = states[mesh.cell_dofs[:, 1]]
    h = mesh.cell_sizes[:, None]

    speed = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    tau = np.divide(tau_scale, 2.0 * speed, out=np.zeros_like(speed), where=speed > 1e-300)
    tau = tau[:, None]

    f_left = model.flux(u_left)
    f_right = model.flux(u_right)
    phi = np.stack([-f_left, f_right], axis=1)  # boundary terms of each test function

    du_dx = (u_right - u_left) / h
    nodes, weights = _GAUSS3
    for xi, wq in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        u_q = u_left + xi * (u_right - u_left)
        f_q = model.flux(u_q)
        A_q = model.jacobian(u_q)
        advect = np.einsum("kij,kj->ki", A_q, du_dx)
        stab = np.einsum("kji,kj->ki", A_q, tau * advect)
        # volume term: -int dphi f, with dphi = -+ 1/h; measure w_q * h
        phi[:, 0] += wq * f_q - wq * h * stab  # h_K * (w_q h) * (-1/h) * stab
        phi[:, 1] += -wq * f_q + wq * h * stab

    bparts = np.stack([-f_left, f_right], axis=1)
    return ResidualSet(mesh.cell_dofs, phi, bparts, _domain_closure(mesh, states, model))


def triangle_fv_residuals(states, normals, numerical_flux, physical_flux):
    """Vertex residuals of the one-triangle finite volume scheme.

    states: (3, p) vertex states.  normals: (3, 2) scaled normals of the
    internal segments joining the edge midpoints to the centroid, ordered
    (n12, n23, n31) and oriented from the first to the second vertex region;
    a consistent orientation makes them sum to zero, which is enforced.

    numerical_flux(n, uA, uB) -> (p,) is any single-valued two-point flux,
    physical_flux(u) -> (p, 2) the flux tensor.  Returns (phi, node_flux_sum)
    where phi is (3, p) and node_flux_sum = sum_sigma f(u_sigma) . n_sigma/2
    (n_sigma the scaled inward normal of the opposite edge), which equals
    phi.sum(axis=0) up to rounding.
    """
    states = np.asarray(states, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if states.shape[0] != 3 or normals.shape != (3, 2):
        raise ConfigError("three vertex states and three internal normals required")
    scale = np.abs(normals).max()
    if np.abs(normals.sum(axis=0)).max() > 1e-12 * max(scale, 1.0):
        raise GeometryError(
            f"internal normals must close up (sum {normals.sum(axis=0)})"
        )

    n12, n23, n31 = normals
    u1, u2, u3 = states
    f1, f2, f3 = (physical_flux(u) for u in states)

    phi = np.empty_like(states)
    phi[0] = numerical_flux(n12, u1, u2) + numerical_flux(-n31, u1, u3) - f1 @ (n12 - n31)
    phi[1] = numerical_flux(n23, u2, u3) + numerical_flux(-n12, u2, u1) - f2 @ (n23 - n12)
    phi[2] = numerical_flux(n31, u3, u1) + numerical_flux(-n23, u3, u2) - f3 @ (n31 - n23)

    # opposite-edge inward normals, reconstructed from the internal ones
    half_n = np.stack([n31 - n12, n12 - n23, n23 - n31])
    node_flux_sum = sum(f @ h for f, h in zip((f1, f2, f3), half_n))
    return phi, node_flux_sum


def rusanov_2d(physical_flux, wave_speed):
    """Two-point Rusanov flux for a 2D flux tensor, for triangle elements."""

    def fhat(n, u_a, u_b):
        nn = float(np.hypot(n[0], n[1]))
        avg = 0.5 * (physical_flux(u_a) + physical_flux(u_b)) @ n
        alpha = max(wave_speed(u_a), wave_speed(u_b))
        return avg - 0.5 * alpha * nn * (u_b - u_a)

    return fhat


# ---------------------------------------------------------------------------
# schemes by id
# ---------------------------------------------------------------------------


def _entropy_corrected(residuals, states, model):
    return corrections.entropy_correction(residuals, states, model)[0]


_CORRECTIONS = {"entropy": _entropy_corrected}

# residual scheme id -> (base residual, corrections applied in this order)
RESIDUAL_SCHEMES = {
    "fv-rusanov": ("fv", ()),
    "fv-entropy-corrected": ("fv", ("entropy",)),
    "supg": ("supg", ()),
}


def residual_assembler(scheme_id, model, mesh, tau_scale=1.0):
    """assemble(states, dt) -> ResidualSet for a residual scheme id.

    The base residual is Rusanov finite volume (``fv``) or SUPG with the
    given tau scale (``supg``); each correction then redistributes the
    residuals inside every element with zero sum, so the base residual's
    conservation survives.
    """
    if scheme_id not in RESIDUAL_SCHEMES:
        raise ConfigError(
            f"{scheme_id!r} is not a residual scheme; known: {', '.join(RESIDUAL_SCHEMES)}"
        )
    base, steps = RESIDUAL_SCHEMES[scheme_id]
    flux = NumericalFlux("rusanov", model)

    def assemble(states, dt):
        if base == "fv":
            residuals = fv_residuals_1d(mesh, states, flux, model)
        else:
            residuals = supg_residuals_1d(mesh, states, model, tau_scale=tau_scale)
        for name in steps:
            residuals = _CORRECTIONS[name](residuals, states, model)
        return residuals

    return assemble


class TwoFieldGasScheme:
    """Residual assembly for the (rho, rho v, e) form of the gas equations.

    Density and momentum use the conservative Rusanov residuals; the internal
    energy gets a centred non-conservative discretisation of
    e_t + (e v)_x + p v_x = 0 with matched Rusanov dissipation, then the
    per-element energy correction makes total energy exactly conservative.
    Intended for forward Euler stepping: the discrete energy identity is an
    identity per Euler substep.

    The scheme is also the model ``integrate`` watches: admissibility, wave
    speeds, entropy and flux are those of the gas model, read through
    (rho, m, e).
    """

    def __init__(self, model, mesh):
        self.model = model
        self.mesh = mesh
        self.fv_flux = NumericalFlux("rusanov", model)

    # (rho, m, e) <-> conserved (rho, m, E)
    def to_conserved(self, w):
        out = np.array(w, dtype=float, copy=True)
        out[..., 2] = w[..., 2] + 0.5 * w[..., 1] ** 2 / w[..., 0]
        return out

    def from_conserved(self, u):
        out = np.array(u, dtype=float, copy=True)
        out[..., 2] = u[..., 2] - 0.5 * u[..., 1] ** 2 / u[..., 0]
        return out

    def assemble(self, w, dt):
        mesh, model = self.mesh, self.model
        u = self.to_conserved(w)
        base = fv_residuals_1d(mesh, u, self.fv_flux, model)
        phi_rho = base.phi[:, :, 0]
        phi_mom = base.phi[:, :, 1]

        dofs = mesh.cell_dofs
        w_left, w_right = w[dofs[:, 0]], w[dofs[:, 1]]
        u_left, u_right = u[dofs[:, 0]], u[dofs[:, 1]]
        vel_l, vel_r = w_left[:, 1] / w_left[:, 0], w_right[:, 1] / w_right[:, 0]
        e_l, e_r = w_left[:, 2], w_right[:, 2]
        p_l, p_r = model.pressure(u_left), model.pressure(u_right)
        alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))

        # centred total + Rusanov-type redistribution for the energy equation
        total = (e_r * vel_r - e_l * vel_l) + 0.5 * (p_l + p_r) * (vel_r - vel_l)
        phi_e = np.stack(
            [0.5 * total - 0.5 * alpha * (e_r - e_l), 0.5 * total + 0.5 * alpha * (e_r - e_l)],
            axis=1,
        )

        # velocities after the uncorrected density/momentum update
        incr = np.zeros((mesh.ndof, 2))
        np.add.at(incr, dofs[:, 0], base.phi[:, 0, :2])
        np.add.at(incr, dofs[:, 1], base.phi[:, 1, :2])
        rho_new = w[:, 0] - dt / mesh.volumes * incr[:, 0]
        mom_new = w[:, 1] - dt / mesh.volumes * incr[:, 1]
        v_old = w[:, 1] / w[:, 0]
        with np.errstate(all="ignore"):
            # a transient nonpositive rho_new poisons the step with nans and
            # the integrator then rejects and retries it with a smaller dt
            v_new = mom_new / rho_new if dt > 0 else v_old

        f_energy = (u[:, 2] + model.pressure(u)) * (u[:, 1] / u[:, 0])
        target = f_energy[dofs[:, 1]] - f_energy[dofs[:, 0]]
        phi_e, _ = corrections.nonconservative_energy_correction(
            phi_rho, phi_mom, phi_e, v_old, v_new, dofs, target
        )

        phi = np.concatenate([base.phi[:, :, :2], phi_e[:, :, None]], axis=2)
        # boundary share of the corrected internal-energy equation: the total
        # energy flux minus the velocity-weighted momentum/density residuals,
        # so the corrected residuals sum exactly to their boundary parts
        vh = (0.5 * (v_new + v_old))[dofs]
        vp = (0.5 * (v_new * v_old))[dofs]
        nodal_e_flux = np.stack([-f_energy[dofs[:, 0]], f_energy[dofs[:, 1]]], axis=1)
        bparts_e = nodal_e_flux - vh * phi_mom + vp * phi_rho
        bparts = np.concatenate(
            [base.boundary_parts[:, :, :2], bparts_e[:, :, None]], axis=2
        )
        closure = np.zeros((mesh.ndof, 3))
        if not mesh.periodic:
            full = model.flux(u)
            closure[0, :2] = -full[0, :2]
            closure[-1, :2] = full[-1, :2]
            closure[0, 2] = -f_energy[0]
            closure[-1, 2] = f_energy[-1]
        return ResidualSet(dofs, phi, bparts, closure)

    def conserved_totals(self, w):
        u = self.to_conserved(w)
        return (self.mesh.volumes[:, None] * u).sum(axis=0)

    # the model interface integrate() uses, on (rho, m, e) states
    def admissible_mask(self, w):
        finite = np.isfinite(w).all(axis=-1)
        safe = np.where(finite[..., None], w, 1.0)
        return finite & (safe[..., 0] > 1e-12) & (safe[..., 2] > 1e-12)

    def max_wave_speed(self, w):
        return self.model.max_wave_speed(self.to_conserved(w))

    def entropy(self, w):
        return self.model.entropy(self.to_conserved(w))

    def flux(self, w):
        return self.model.flux(self.to_conserved(w))


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def rd_step(mesh, states, residuals, dt, model=None):
    """One forward-Euler residual-distribution update."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    states = np.asarray(states, dtype=float)
    increments = residuals.scatter_to_dofs(mesh.ndof)
    new_states = states - (dt / mesh.volumes)[:, None] * increments
    if model is not None:
        mask = model.admissible_mask(new_states)
        if not mask.all():
            where = int(np.argwhere(~mask)[0][0])
            raise StepRejectedError(
                f"inadmissible state at DOF {where} after step", location=where
            )
    return new_states


def _ssp_stages(integrator):
    if integrator == "euler":
        return ((0.0, 1.0),)
    if integrator == "ssprk2":
        return ((0.0, 1.0), (0.5, 0.5))
    if integrator == "ssprk3":
        return ((0.0, 1.0), (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))
    raise ConfigError(f"unknown integrator {integrator!r}")


def _stage_flux_weights(stages):
    """Effective dt-weight of each stage's flux evaluation in the full step."""
    weights = []
    for _, beta in stages:
        weights = [beta * w for w in weights]
        weights.append(beta)
    return weights


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
    A non-finite speed, persistent rejection or MAX_STEPS steps raise
    RunError with the step index.

    Returns (times, snapshots, ledger).
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    times = [0.0]
    snapshots = [snapshot(state)]
    led_time = [0.0]
    led_totals = [totals(state)]
    led_entropy = [entropy(state)]
    led_bflux = [np.zeros_like(led_totals[0])]
    led_alpha = [0.0]
    led_flagged = [0]

    t = 0.0
    step = 0
    while t < t_end - 1e-13 * max(1.0, t_end):
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
        led_time.append(t)
        led_totals.append(totals(state))
        led_entropy.append(entropy(state))
        led_bflux.append(led_bflux[-1] + bflux)
        led_alpha.append(alpha_max)
        led_flagged.append(flagged)
        if snapshot_every and step % snapshot_every == 0:
            times.append(t)
            snapshots.append(snapshot(state))

    if times[-1] != t:
        times.append(t)
        snapshots.append(snapshot(state))

    ledger = Ledger(
        time=np.asarray(led_time),
        totals=np.asarray(led_totals),
        entropy=np.asarray(led_entropy),
        boundary_accum=np.asarray(led_bflux),
        alpha_max=np.asarray(led_alpha),
        fallback_cells=np.asarray(led_flagged, dtype=int),
    )
    return np.asarray(times), snapshots, ledger


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
    conserved_totals=None,
    stop_after_steps=None,
):
    """March a residual-distribution scheme to t_end with CFL-chosen steps.

    assemble(states, dt) -> ResidualSet.  model supplies the wave speeds, the
    admissibility test, the entropy and the physical flux closing the
    boundary account, all in the variables the states are kept in.  The
    ledger's totals come from conserved_totals(states), by default the
    volume-weighted sums; alpha_max is the largest correction coefficient
    reported by the assembler.  See ``march`` for steps, retries and errors.
    """
    states = np.asarray(u0, dtype=float)
    if states.ndim != 2 or states.shape[0] != mesh.ndof:
        raise ConfigError(f"u0 must be ({mesh.ndof}, p)")

    if conserved_totals is None:
        vols = mesh.volumes[:, None]
        conserved_totals = lambda u: (vols * u).sum(axis=0)

    def boundary_outflux(u):
        if mesh.periodic:
            return np.zeros(u.shape[1])
        return model.flux(u[-1]) - model.flux(u[0])

    stages = _ssp_stages(integrator)
    flux_weights = _stage_flux_weights(stages)

    def advance(u, dt):
        cur = u
        alpha_max = 0.0
        bflux = np.zeros(u.shape[1])
        for (a_coef, b_coef), w in zip(stages, flux_weights):
            residuals = assemble(cur, dt)
            alpha_max = max(alpha_max, residuals.alpha_max)
            bflux = bflux + w * dt * boundary_outflux(cur)
            stage_new = rd_step(mesh, cur, residuals, dt, model=model)
            cur = a_coef * u + b_coef * stage_new
        if not np.isfinite(cur).all():
            raise StepRejectedError("non-finite state", location=None)
        return cur, bflux, alpha_max, 0

    times, snapshots, ledger = march(
        states,
        advance,
        speed=lambda u: float(model.max_wave_speed(u).max()),
        length=float(mesh.volumes.min()),
        cfl=cfl,
        t_end=t_end,
        totals=conserved_totals,
        entropy=lambda u: float((mesh.volumes * model.entropy(u)).sum()),
        snapshot=np.copy,
        snapshot_every=snapshot_every,
        stop_after_steps=stop_after_steps,
    )
    return SolutionRecord(times=times, states=snapshots, ledger=ledger)
