"""Post-hoc residual corrections enforcing extra conservation statements.

All corrections redistribute residuals inside an element with zero sum, so
the original conservation relation (residual sum = boundary flux) survives
exactly.  The entropy correction pushes every element's entropy production
above its boundary entropy flux; the least-squares variant handles several
such linear constraints at once; the energy correction makes a scheme posed
in (density, momentum, internal energy) variables conserve total energy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, CorrectionError

log = logging.getLogger(__name__)

DEGENERATE_TOLERANCE = 1e-14
ALPHA_CLAMP_FACTOR = 1e3


def entropy_residuals(residuals, states, model):
    """Per-element, per-DOF entropy residuals v_sigma . Phi_sigma^K."""
    states = np.asarray(states, dtype=float)
    v = model.entropy_variables(states)
    v_cells = v[residuals.cell_dofs]  # (ncell, 2, p)
    return np.einsum("kdp,kdp->kd", v_cells, residuals.phi)


def rusanov_entropy_flux(n, u_left, u_right, model):
    """Consistent numerical entropy flux with Rusanov-type dissipation."""
    alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    avg = 0.5 * (model.entropy_flux(u_left) + model.entropy_flux(u_right))
    return n * (avg - 0.5 * alpha * (model.entropy(u_right) - model.entropy(u_left)))


@dataclass
class CorrectionReport:
    """What the entropy correction did, element by element."""

    alpha: np.ndarray
    corrections: np.ndarray
    pre_defect: np.ndarray
    post_defect: np.ndarray
    clamped: np.ndarray

    @property
    def alpha_max(self):
        return float(self.alpha.max()) if len(self.alpha) else 0.0


def entropy_correction(residuals, states, model, entropy_flux=None):
    """Shift residuals so each element produces at least its boundary entropy flux.

    The correction r_sigma = alpha_K (v_sigma - v_bar) is zero-sum, and
    alpha_K = max(0, deficit / sum |v_sigma - v_bar|^2) makes

        sum_sigma v_sigma . Phi~_sigma >= boundary entropy flux integral

    hold per element.  alpha is clamped at ALPHA_CLAMP_FACTOR times the local
    wave speed; clamping is reported and logged, never silent.  Elements that
    need a correction but have all entropy variables equal cannot be fixed
    this way and raise CorrectionError.
    """
    if entropy_flux is None:
        entropy_flux = lambda n, ul, ur: rusanov_entropy_flux(n, ul, ur, model)
    states = np.asarray(states, dtype=float)
    v = model.entropy_variables(states)
    v_cells = v[residuals.cell_dofs]
    u_left = states[residuals.cell_dofs[:, 0]]
    u_right = states[residuals.cell_dofs[:, 1]]

    # element boundary entropy flux; traces at element ends are single valued,
    # so the numerical flux reduces to its consistent value there
    g_bound = entropy_flux(+1, u_right, u_right) + entropy_flux(-1, u_left, u_left)

    production = np.einsum("kdp,kdp->k", v_cells, residuals.phi)
    deficit = g_bound - production

    v_bar = v_cells.mean(axis=1, keepdims=True)
    centered = v_cells - v_bar
    denom = np.einsum("kdp,kdp->k", centered, centered)

    vbar_scale = np.maximum(np.einsum("kdp,kdp->k", v_bar, v_bar), 1.0)
    degenerate = denom < DEGENERATE_TOLERANCE * vbar_scale
    needs_fix = deficit > 1e-12
    impossible = needs_fix & degenerate
    if impossible.any():
        bad = np.flatnonzero(impossible)
        raise CorrectionError(
            f"entropy correction impossible on elements {bad.tolist()}: "
            "all entropy variables equal but the deficit is positive",
            elements=bad,
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(needs_fix & ~degenerate, deficit / denom, 0.0)

    speed = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    cap = ALPHA_CLAMP_FACTOR * np.maximum(speed, 1e-300)
    clamped = alpha > cap
    if clamped.any():
        log.warning(
            "entropy correction clamped on %d element(s); alpha max %.3e",
            int(clamped.sum()),
            float(alpha.max()),
        )
        alpha = np.minimum(alpha, cap)

    r = alpha[:, None, None] * centered
    corrected = replace(
        residuals, phi=residuals.phi + r, alpha_max=float(alpha.max()) if len(alpha) else 0.0
    )
    post = np.einsum("kdp,kdp->k", v_cells, corrected.phi) - g_bound
    report = CorrectionReport(
        alpha=alpha,
        corrections=r,
        pre_defect=-deficit,
        post_defect=post,
        clamped=np.flatnonzero(clamped),
    )
    return corrected, report


@dataclass
class Constraint:
    """One linear condition sum_sigma w_sigma . Phi~_sigma = target."""

    weights: np.ndarray
    target: float

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))


def multi_constraint_correction(phi, constraints):
    """Zero-sum correction meeting several linear constraints at once.

    phi: (m, p) residuals of one element.  Each correction direction is the
    centred weight field of a constraint, r_sigma = sum_m alpha_m
    (w_sigma^m - w_bar^m), and the alphas solve the small Gram system in the
    least-squares sense (rank deficiencies fall back to the minimum-norm
    solution, with the residual norm reported).

    Returns (corrected_phi, alpha, lstsq_residual_norm).
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    m = phi.shape[0]
    if not constraints:
        return phi.copy(), np.zeros(0), 0.0
    if len(constraints) > m - 1:
        raise ConfigError(
            f"at most {m - 1} constraints fit an element with {m} DOFs, got {len(constraints)}"
        )
    centered = []
    rhs = np.empty(len(constraints))
    for i, con in enumerate(constraints):
        w = con.weights
        if w.shape != phi.shape:
            raise ConfigError(f"constraint {i} weights must be shaped like phi {phi.shape}")
        centered.append(w - w.mean(axis=0, keepdims=True))
        rhs[i] = con.target - float((w * phi).sum())
    W = np.stack(centered)  # (ncon, m, p)
    gram = np.einsum("aip,bip->ab", W, W)
    alpha, _, rank, _ = np.linalg.lstsq(gram, rhs, rcond=None)
    correction = np.einsum("a,aip->ip", alpha, W)
    residual_norm = float(np.linalg.norm(gram @ alpha - rhs))
    if rank < len(constraints):
        log.debug("constraint system rank %d < %d; lstsq residual %.3e",
                  rank, len(constraints), residual_norm)
    return phi + correction, alpha, residual_norm


def energy_update_identity(rho0, v0, e0, rho1, v1, e1):
    """Defect of the discrete total-energy increment identity.

    With E = e + rho v^2 / 2, the increment satisfies
    dE = de + (v1 + v0)/2 * d(rho v) - (v1 v0)/2 * d(rho)
    exactly; the returned |LHS - RHS| is zero to rounding for any inputs.
    """
    rho0, v0, e0, rho1, v1, e1 = map(np.asarray, (rho0, v0, e0, rho1, v1, e1))
    E0 = e0 + 0.5 * rho0 * v0**2
    E1 = e1 + 0.5 * rho1 * v1**2
    rhs = (e1 - e0) + 0.5 * (v1 + v0) * (rho1 * v1 - rho0 * v0) - 0.5 * (v1 * v0) * (rho1 - rho0)
    return np.abs((E1 - E0) - rhs)


def nonconservative_energy_correction(
    phi_rho, phi_mom, phi_e, v_old, v_new, cell_dofs, boundary_energy_flux
):
    """Make an internal-energy discretisation conserve total energy.

    phi_rho, phi_mom, phi_e: (ncell, 2) residual components; the density and
    momentum residuals stay untouched.  v_old, v_new: per-DOF velocities
    before and after the step (the momentum/density updates do not depend on
    the energy residual, so v_new is available first).  For each element the
    same amount r^K is added to every energy residual so that

        boundary_energy_flux_K = sum_sigma [ phi_e
                                             + (v_new + v_old)/2 * phi_mom
                                             - (v_new * v_old)/2 * phi_rho ]

    holds exactly, mirroring the total-energy increment identity; summing the
    updates then telescopes total energy to the domain boundary flux.

    Returns (corrected_phi_e, r) with r shaped (ncell,).
    """
    phi_rho = np.asarray(phi_rho, dtype=float)
    phi_mom = np.asarray(phi_mom, dtype=float)
    phi_e = np.asarray(phi_e, dtype=float)
    v_half = 0.5 * (v_new + v_old)
    v_prod = 0.5 * (v_new * v_old)
    vh_cells = v_half[cell_dofs]
    vp_cells = v_prod[cell_dofs]
    current = (phi_e + vh_cells * phi_mom - vp_cells * phi_rho).sum(axis=1)
    r = (np.asarray(boundary_energy_flux, dtype=float) - current) / phi_e.shape[1]
    return phi_e + r[:, None], r
