"""Two-field scheme: cell averages in flux form plus point values of mapped
variables in upwind non-conservative form, coupled through Simpson's rule.

Averages of the conserved variables evolve by exact flux differences of the
point values, which are single valued at the nodes, so no interface Riemann
problem appears and conservation of the averages is exact.  The point values
v = psi(u) evolve by v_t + J v_x = 0 with J = P (df/du) P^{-1}, P = dpsi/du,
split into J = J^+ + J^- through the eigenvalue signs; each side of a node is
differenced with the one-sided quadratic stencil built from the node values
and the mid value, giving third order on smooth data.  Simpson's relation
recovers the mid value in conserved variables from the average and the
conserved node states that the average rates also use; psi then maps it.

No flux-form rewrite of the point update is claimed anywhere; only the
average field carries conservation statements.

An optional a posteriori detector (off by default) re-does a step in flagged
cells with a first-order Rusanov finite volume fallback: NaN, positivity of
density/pressure (averages, points and recovered mid values) and a relaxed
discrete maximum principle on the averages decide the flags.  Faces touching
flagged cells switch to the robust flux on both sides, so the averages stay
exactly conservative with the detector active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepRejectedError
from .mesh import gather_cell_ends, scatter_cell_ends
from .models import NodeKernels
from .records import ACTIVE_FLUX, SCHEMES, SolutionRecord
from .schemes import _boundary_outflux, _rusanov, _ssp_combine, _ssp_stages, _stage_flux_weights
from .schemes import march

DMP_RELAX_REL = 0.05
DMP_RELAX_ABS = 1e-3
_GAUSS5 = np.polynomial.legendre.leggauss(5)  # for the initial cell averages
# ((a, b), flux weight) per stage: stage = a * u^n + b * (stage + dt * rate)
_SSP3 = tuple(zip(_ssp_stages("ssprk3"), _stage_flux_weights(_ssp_stages("ssprk3"))))


@dataclass
class AfState:
    """Cell averages of conserved variables plus point values of mapped ones."""

    averages: np.ndarray
    points: np.ndarray


def initialize(model, mesh, u0_of_x):
    """Exact point values and Gauss-quadrature cell averages of u0."""
    nodes = mesh.nodes
    mids = mesh.cell_centers
    half = 0.5 * mesh.cell_sizes
    gp, gw = _GAUSS5
    averages = np.zeros((mesh.ncell, model.p))
    for xi, w in zip(gp, gw):
        averages += 0.5 * w * u0_of_x(mids + half * xi)
    xs = nodes[:-1] if mesh.periodic else nodes
    points = model.to_aux(model.require_admissible(u0_of_x(xs)))
    return AfState(averages, points)


def recover_midpoint(averages, u_left, u_right):
    """Mid-cell conserved states from Simpson's relation.

    Solves ubar = (u_left + 4 u_mid + u_right) / 6 for u_mid, elementwise;
    exact for polynomial data of degree at most two.  The relation is linear
    in the conserved variables, so mid values of mapped variables are
    ``to_aux`` of the result for any invertible map.
    """
    return (6.0 * averages - u_left - u_right) / 4.0


def _apply_split(model, points, d, sign):
    """J^{sign} d at the nodes: the flux derivative at the points of a scalar
    law, whose map is the identity; Euler's analytic eigenstructure otherwise."""
    if model.p == 1:
        lam = model.jacobian(points)[..., 0, 0]
        lam = np.maximum(lam, 0.0) if sign > 0 else np.minimum(lam, 0.0)
        return lam[..., None] * d
    return model.primitive_split_apply(points, d, sign)


def point_update(mesh, state, model, u_nodes):
    """dv/dt at the nodes by upwind splitting of the mapped-variable system.

    One-sided quadratic derivatives: from the right cell of node i,
    dv/dx = (-3 v_i + 4 v_{i+1/2} - v_{i+1}) / dx, mirrored on the left; the
    missing side at a transmissive boundary contributes zero (constant
    extension).  J^+ takes the left-cell slope, J^- the right-cell slope.
    ``u_nodes`` are the conserved states of ``state.points``.
    """
    v_left, v_right = gather_cell_ends(state.points, mesh.cell_dofs)
    u_left, u_right = gather_cell_ends(u_nodes, mesh.cell_dofs)
    v_mid = model.to_aux(recover_midpoint(state.averages, u_left, u_right))
    dx = mesh.cell_sizes[:, None]
    slope_right = (-3.0 * v_left + 4.0 * v_mid - v_right) / dx  # at each cell's left node
    slope_left = (3.0 * v_right - 4.0 * v_mid + v_left) / dx  # at each cell's right node
    contrib = scatter_cell_ends(
        _apply_split(model, v_left, slope_right, -1),
        _apply_split(model, v_right, slope_left, +1),
        mesh.ndof,
    )
    return -contrib


# ---------------------------------------------------------------------------
# a posteriori fallback
# ---------------------------------------------------------------------------


def _neighbor_averages(mesh, averages, u_nodes, nodes):
    """Left/right neighbour states of the given nodes, stacked as (2, n, p).

    Interior nodes sit between two cells; a transmissive end node takes its
    own point state as the missing neighbour.
    """
    if mesh.periodic:
        ext = np.vstack([averages[-1:], averages])
    else:
        ext = np.vstack([u_nodes[:1], averages, u_nodes[-1:]])
    return np.take(ext, (nodes, nodes + 1), axis=0)


def _fallback_plan(mesh, flagged):
    """(flagged-node mask over all DOFs, its indices, their update widths) of
    the flagged cells, or None when no cell is flagged; fixed for a step."""
    if not flagged.any():
        return None
    mask = scatter_cell_ends(flagged, flagged, mesh.ndof)  # both nodes of each flagged cell
    nodes = np.flatnonzero(mask)
    width = mesh.volumes.copy()
    if not mesh.periodic:
        width[[0, -1]] *= 2.0  # whole end cells, not the half-width end volumes
    return mask, nodes, width[nodes, None]


def _fallback_point_rate(mesh, state, model, plan, u_nodes, face_flux):
    """First-order finite volume rates at the flagged nodes of ``plan``.

    Returns (point rates at the flagged nodes, the plan's flagged-node mask,
    robust fluxes at those nodes).  ``u_nodes`` and ``face_flux`` are the
    conserved states of ``state.points`` and their fluxes; the three Rusanov
    fluxes share one bundle of the node states and one of their neighbours,
    so the model is evaluated once per state.
    """
    mask, nodes, width = plan
    u_pts = u_nodes[nodes]
    pts = NodeKernels(u_pts, face_flux[nodes], model.max_wave_speed(u_pts))
    neighbors = _neighbor_averages(mesh, state.averages, u_nodes, nodes)
    left, right = NodeKernels(
        neighbors, model.flux(neighbors), model.max_wave_speed(neighbors)
    ).pair()
    du = -(_rusanov(pts, right) - _rusanov(left, pts)) / width
    # chain rule back to the mapped variables
    P = model.aux_jacobian(u_pts)
    dv = np.einsum("nij,nj->ni", P, du)
    return dv, mask, _rusanov(left, right)


def _base_rates(mesh, state, model):
    """Node states, node fluxes and point rates of a state, before any fallback."""
    u_nodes = model.from_aux(state.points)
    return u_nodes, model.flux(u_nodes), point_update(mesh, state, model, u_nodes)


def _rhs(mesh, state, model, plan, base=None):
    """Rates for averages and points; robust faces at the nodes of ``plan``.

    ``plan`` is ``_fallback_plan`` of the flagged cells, None when none is.
    ``base`` is ``_base_rates`` of ``state`` when already known; it is read,
    never written, so one base serves every step re-run from the same state.
    """
    u_nodes, face_flux, dv = _base_rates(mesh, state, model) if base is None else base
    if plan is not None:
        dv_fb, bad, robust = _fallback_point_rate(mesh, state, model, plan, u_nodes, face_flux)
        face_flux = face_flux.copy()
        face_flux[bad] = robust
        dv = dv.copy()
        dv[bad] = dv_fb
    f_left, f_right = gather_cell_ends(face_flux, mesh.cell_dofs)
    dub = -(f_right - f_left) / mesh.cell_sizes[:, None]
    return dub, dv, _boundary_outflux(mesh, face_flux)


def _detect(mesh, model, candidate, previous):
    """Flag cells whose candidate step is non-physical or oscillatory.

    Reads the raw arrays: a non-finite row fails ``admissible_mask``, and a
    non-finite node or average only reaches the mid values of cells it flags.
    """
    averages = candidate.averages
    with np.errstate(all="ignore"):
        bad = ~model.admissible_mask(averages)
        u_pts = model.from_aux(candidate.points)
        node_bad_left, node_bad_right = gather_cell_ends(
            ~model.admissible_mask(u_pts), mesh.cell_dofs
        )
        bad |= node_bad_left | node_bad_right
        u_mid = recover_midpoint(averages, *gather_cell_ends(u_pts, mesh.cell_dofs))
        bad |= ~model.admissible_mask(u_mid)

        # relaxed discrete maximum principle on the leading average component
        field_new = averages[:, 0]
        old = previous.averages[:, 0]
        # neighbours across the ends: wrapped, or the end cell itself
        ends = (old[-1:], old[:1]) if mesh.periodic else (old[:1], old[-1:])
        ext = np.concatenate([ends[0], old, ends[1]])
        lo = np.minimum(np.minimum(ext[:-2], ext[1:-1]), ext[2:])
        hi = np.maximum(np.maximum(ext[:-2], ext[1:-1]), ext[2:])
        slack = np.maximum(DMP_RELAX_ABS, DMP_RELAX_REL * (hi - lo))
        bad |= (field_new < lo - slack) | (field_new > hi + slack)
    return bad


def _ssp3_step(mesh, state, model, dt, flagged, base=None):
    """One SSPRK3 step; ``base`` holds the ``_base_rates`` of ``state`` if known."""
    boundary = np.zeros(model.p)
    plan = _fallback_plan(mesh, flagged)
    cur = state
    for (a, b), w in _SSP3:
        dub, dv, bflux = _rhs(mesh, cur, model, plan, base)
        base = None
        boundary = boundary + w * dt * bflux
        cur = AfState(
            _ssp_combine(a, state.averages, b, cur.averages + dt * dub),
            _ssp_combine(a, state.points, b, cur.points + dt * dv),
        )
    return cur, boundary


def af_integrate(
    model,
    mesh,
    state0,
    *,
    cfl=SCHEMES[ACTIVE_FLUX].cfl,
    t_end,
    detector=False,
    snapshot_every=0,
    stop_after_steps=None,
):
    """SSPRK3 time marching of the two-field scheme with optional fallback.

    Runs the shared ``schemes.march`` loop: conserved totals and entropy are
    computed from the averages, the accumulated boundary flux makes the
    conservation check exact, and fallback_cells counts how many cells were
    flagged each step.  With the detector on, a step is re-run at most twice,
    each time with the robust update in every cell flagged so far.
    """
    sizes = mesh.cell_sizes[:, None]

    def speed(s):
        with np.errstate(all="ignore"):
            return max(
                float(model.max_wave_speed(s.averages).max()),
                float(model.max_wave_speed(model.from_aux(s.points)).max()),
            )

    def entropy(s):
        # without the detector a finite but inadmissible state can reach the
        # ledger; entropy is then meaningless and recorded as nan
        with np.errstate(all="ignore"):
            return float((mesh.cell_sizes * model.entropy(s.averages)).sum())

    def advance(state, dt):
        flagged = np.zeros(mesh.ncell, dtype=bool)
        with np.errstate(all="ignore"):
            base = _base_rates(mesh, state, model)
            candidate, boundary = _ssp3_step(mesh, state, model, dt, flagged, base)
            if detector:
                for _ in range(2):
                    bad = _detect(mesh, model, candidate, state)
                    if not (bad & ~flagged).any():
                        break
                    flagged |= bad
                    candidate, boundary = _ssp3_step(mesh, state, model, dt, flagged, base)
        if not (
            np.isfinite(candidate.averages).all() and np.isfinite(candidate.points).all()
        ):
            raise StepRejectedError("non-finite state", location=None)
        return candidate, boundary, 0.0, int(flagged.sum())

    times, snapshots, ledger = march(
        state0,
        advance,
        speed=speed,
        length=float(mesh.cell_sizes.min()),
        cfl=cfl,
        t_end=t_end,
        totals=lambda s: (sizes * s.averages).sum(axis=0),
        entropy=entropy,
        snapshot=lambda s: (s.points.copy(), s.averages.copy()),
        snapshot_every=snapshot_every,
        stop_after_steps=stop_after_steps,
    )
    return SolutionRecord(
        times=times,
        states=[points for points, _ in snapshots],
        ledger=ledger,
        mesh=mesh,
        averages=[averages for _, averages in snapshots],
    )
