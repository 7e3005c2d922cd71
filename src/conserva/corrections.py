"""Post-hoc residual corrections enforcing extra conservation statements.

Each correction leaves an element's residuals summing to its boundary flux
integral.  The entropy correction redistributes them with zero sum and pushes
every element's entropy production above its boundary entropy flux, the
closed-form case of one linear constraint per element; the energy correction
turns the internal-energy residual of a scheme posed in (density, momentum,
internal energy) into a total-energy residual with that sum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CorrectionError
from .mesh import gather_cell_ends

log = logging.getLogger(__name__)

DEGENERATE_TOLERANCE = 1e-14
ALPHA_CLAMP_FACTOR = 1e3


@dataclass
class CorrectionReport:
    """What the entropy correction did per element; ``corrections`` is (2, ncell, p)."""

    alpha: np.ndarray
    corrections: np.ndarray
    pre_defect: np.ndarray
    clamped: np.ndarray


def entropy_correction(residuals, nodes, model):
    """Shift residuals so each element produces at least its boundary entropy flux.

    The correction r_sigma = alpha_K (v_sigma - v_bar) is zero-sum, and
    alpha_K = max(0, deficit / sum |v_sigma - v_bar|^2) makes

        sum_sigma v_sigma . Phi~_sigma >= boundary entropy flux integral

    hold per element.  alpha is clamped at ALPHA_CLAMP_FACTOR times the local
    wave speed; clamping is reported and logged, never silent.  Elements that
    need a correction but have all entropy variables equal cannot be fixed
    this way and raise CorrectionError.  ``nodes`` is the checked
    ``models.NodeKernels`` bundle of the node states: entropy variables and
    entropy fluxes are evaluated at the nodes from the bundle's decomposition
    and entropy, then gathered to the cell ends with the wave speeds.  Without
    an element to fix, the degeneracy and clamp tests are skipped.
    """
    dofs = residuals.cell_dofs
    v_cells = gather_cell_ends(model.entropy_variables(nodes.states, nodes), dofs)

    # element boundary entropy flux; traces at element ends are single valued,
    # so a consistent numerical entropy flux reduces to the model's there
    g_left, g_right = gather_cell_ends(model.entropy_flux(nodes.states, nodes), dofs)
    g_bound = g_right - g_left

    production = np.einsum("dkp,dkp->k", v_cells, residuals.phi)
    deficit = g_bound - production

    # the bits of v_cells.mean(axis=0), whose sum starts from +0.0, at a
    # tenth of its cost
    v_bar = (v_cells[0] + v_cells[1] + 0.0) / 2
    centered = v_cells - v_bar
    needs_fix = deficit > 1e-12
    # without an element to fix, r = centered * 0.0, the bits of
    # alpha[:, None] * centered at alpha = 0: phi + r keeps the full formula's
    # bits, which can turn a -0.0 residual into +0.0
    alpha, clamped, r = np.zeros(len(deficit)), needs_fix, centered * 0.0
    if needs_fix.any():
        denom = np.einsum("dkp,dkp->k", centered, centered)
        vbar_scale = np.maximum(np.einsum("kp,kp->k", v_bar, v_bar), 1.0)
        degenerate = denom < DEGENERATE_TOLERANCE * vbar_scale
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

        speed_left, speed_right = gather_cell_ends(nodes.speed, dofs)
        speed = np.maximum(speed_left, speed_right)
        cap = ALPHA_CLAMP_FACTOR * np.maximum(speed, 1e-300)
        clamped = alpha > cap
        if clamped.any():
            log.warning(
                "entropy correction clamped on %d element(s); alpha max %.3e",
                int(clamped.sum()),
                float(alpha.max()),
            )
            alpha = np.minimum(alpha, cap)
        r = alpha[:, None] * centered

    corrected = residuals.with_phi(residuals.phi + r, float(alpha.max()) if len(alpha) else 0.0)
    return corrected, CorrectionReport(alpha, r, -deficit, np.flatnonzero(clamped))


def nonconservative_energy_correction(
    phi_rho, phi_mom, phi_e, v_half_sum, v_half_prod, boundary_energy_flux
):
    """The total-energy residual of an internal-energy discretisation, made
    locally conservative.

    phi_rho, phi_mom, phi_e: (2, ncell) residual components, one row per
    element DOF as in ``ResidualSet.phi``.  v_half_sum = (v_new + v_old)/2
    and v_half_prod = (v_new * v_old)/2: (2, ncell) velocity weights at the
    element DOFs, from the velocities before and after the step (the
    momentum/density updates do not depend on the energy residual, so v_new
    is available first).  With E = e + rho v^2 / 2, the increment between
    any two states is exactly

        dE = de + (v_new + v_old)/2 * d(rho v) - (v_new v_old)/2 * d(rho),

    so each DOF's total-energy residual is its right-hand side,

        terms = phi_e + v_half_sum * phi_mom - v_half_prod * phi_rho,

    and the same amount r^K is added to every one in an element so that they
    sum exactly to boundary_energy_flux_K; summing the updates then
    telescopes total energy to the domain boundary flux.

    Returns (terms + r, r) with r shaped (ncell,).
    """
    phi_rho = np.asarray(phi_rho, dtype=float)
    phi_mom = np.asarray(phi_mom, dtype=float)
    phi_e = np.asarray(phi_e, dtype=float)
    terms = phi_e + v_half_sum * phi_mom - v_half_prod * phi_rho
    # from +0.0, so that a sum of -0.0 terms is +0.0
    current = terms.sum(axis=0, initial=0.0)
    r = (np.asarray(boundary_energy_flux, dtype=float) - current) / len(phi_e)
    return terms + r, r
