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
from .mesh import GAUSS_LEGENDRE, gather_cell_ends, scatter_cell_ends
from .models import NodeKernels
from .records import ACTIVE_FLUX, SCHEMES, SSP_STAGES, SolutionRecord, require_stable_cfl
from .schemes import _boundary_outflux, _rusanov, _ssp_combine, _totals, march

DMP_RELAX_REL = 0.05
DMP_RELAX_ABS = 1e-3


@dataclass
class AfState:
    """Cell averages of conserved variables plus point values of mapped ones."""

    averages: np.ndarray
    points: np.ndarray


def initialize(model, mesh, u0_of_x):
    """Exact point values and Gauss-quadrature cell averages of u0; the point
    states pass ``NodeKernels.of``, which names an inadmissible node."""
    mids = mesh.cell_centers
    half = 0.5 * mesh.cell_sizes
    gp, gw = GAUSS_LEGENDRE[5]
    averages = np.zeros((mesh.ncell, model.p))
    for xi, w in zip(gp, gw):
        averages += 0.5 * w * u0_of_x(mids + half * xi)
    points = model.to_aux(NodeKernels.of(model, u0_of_x(mesh.dof_x)).states)
    return AfState(averages, points)


def recover_midpoint(averages, u_left, u_right):
    """Mid-cell conserved states from Simpson's relation.

    Solves ubar = (u_left + 4 u_mid + u_right) / 6 for u_mid, elementwise;
    exact for polynomial data of degree at most two.  The relation is linear
    in the conserved variables, so mid values of mapped variables are
    ``to_aux`` of the result for any invertible map.
    """
    return (6.0 * averages - u_left - u_right) / 4.0


def point_update(mesh, state, model, u_nodes):
    """dv/dt at the nodes by upwind splitting of the mapped-variable system.

    One-sided quadratic derivatives: from the right cell of node i,
    dv/dx = (-3 v_i + 4 v_{i+1/2} - v_{i+1}) / dx, mirrored on the left; the
    missing side at a transmissive boundary contributes zero (constant
    extension).  J^+ takes the left-cell slope, J^- the right-cell slope.
    ``u_nodes`` are the conserved states of ``state.points``.  The split's
    quantities are computed once per node and read at both cell ends.
    """
    points = state.points
    if mesh.periodic:  # the last cell ends at node 0
        points = np.concatenate([points, points[:1]])
    v_left, v_right = points[:-1], points[1:]
    u_left, u_right = gather_cell_ends(u_nodes, mesh.cell_dofs)
    four_mid = 4.0 * model.to_aux(recover_midpoint(state.averages, u_left, u_right))
    dx = mesh.cell_sizes[:, None]
    slope_right = (-3.0 * v_left + four_mid - v_right) / dx  # at each cell's left node
    slope_left = (3.0 * v_right - four_mid + v_left) / dx  # at each cell's right node
    chars = model.characteristics(points)
    contrib = scatter_cell_ends(
        model.split_apply([q[:-1] for q in chars], slope_right, -1),
        model.split_apply([q[1:] for q in chars], slope_left, +1),
        mesh.ndof,
    )
    return -contrib


# ---------------------------------------------------------------------------
# a posteriori fallback
# ---------------------------------------------------------------------------


def _fallback_plan(mesh, flagged):
    """(flagged-node mask over all DOFs, its indices, their update widths, and
    (left, left, node, right, right) rows of each in [averages; node states])
    of the flagged cells, or None when no cell is flagged; fixed for a step.
    A transmissive end node is its own missing neighbour."""
    if not flagged.any():
        return None
    mask = scatter_cell_ends(flagged, flagged, mesh.ndof)  # both nodes of each flagged cell
    nodes = np.flatnonzero(mask)
    ncell = mesh.ncell
    width = mesh.volumes[nodes, None]
    if not mesh.periodic:  # whole end cells, not the half-width end volumes
        width[(nodes == 0) | (nodes == ncell)] *= 2.0
    rows = nodes + np.array([[-1], [-1], [ncell], [0], [0]])
    if nodes[0] == 0:  # the wrapped last cell, or node 0's own state
        rows[:2, 0] = ncell - 1 if mesh.periodic else ncell
    if nodes[-1] == ncell:  # transmissive: the last node's own state
        rows[3:, -1] = 2 * ncell
    return mask, nodes, width, rows


def _fallback_point_rate(state, model, plan, u_nodes):
    """First-order finite volume rates at the flagged nodes of ``plan``.

    Returns (point rates at the flagged nodes, the plan's flagged-node mask,
    robust fluxes at those nodes).  ``u_nodes`` are the conserved states of
    ``state.points``.  The model is evaluated once on the plan's rows, and
    one Rusanov flux of rows [0:3] against rows [2:5] gives the faces
    (left, node), (left, right) and (node, right).
    """
    mask, _, width, rows = plan
    states = np.take(np.concatenate([state.averages, u_nodes]), rows, axis=0)
    flux, speed = model.flux(states), model.max_wave_speed(states)
    f_left, robust, f_right = _rusanov(
        NodeKernels(states[:3], flux[:3], speed[:3]), NodeKernels(states[2:], flux[2:], speed[2:])
    )
    du = -(f_right - f_left) / width
    # chain rule back to the mapped variables
    P = model.aux_jacobian(states[2])
    dv = np.einsum("nij,nj->ni", P, du)
    return dv, mask, robust


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
        dv_fb, _, robust = _fallback_point_rate(state, model, plan, u_nodes)
        face_flux = face_flux.copy()
        face_flux[plan[1]] = robust
        dv = dv.copy()
        dv[plan[1]] = dv_fb
    f_left, f_right = gather_cell_ends(face_flux, mesh.cell_dofs)
    dub = -(f_right - f_left) / mesh.cell_sizes[:, None]
    return dub, dv, _boundary_outflux(mesh, face_flux)


def _dmp_bounds(mesh, averages):
    """(lower, upper) bounds of the relaxed discrete maximum principle on the
    leading average component, from the averages a step starts from."""
    old = averages[:, 0]
    # neighbours across the ends: wrapped, or the end cell itself
    ends = (old[-1:], old[:1]) if mesh.periodic else (old[:1], old[-1:])
    ext = np.concatenate([ends[0], old, ends[1]])
    lo = np.minimum(np.minimum(ext[:-2], ext[1:-1]), ext[2:])
    hi = np.maximum(np.maximum(ext[:-2], ext[1:-1]), ext[2:])
    slack = np.maximum(DMP_RELAX_ABS, DMP_RELAX_REL * (hi - lo))
    return lo - slack, hi + slack


def _detect(mesh, model, candidate, nodes, bounds):
    """Flag cells whose candidate step is non-physical or oscillatory.

    ``nodes`` is the ``model.node_kernels`` bundle of the candidate's points
    in conserved variables, ``bounds`` the step's ``_dmp_bounds``.  Reads the
    raw arrays: a non-finite row fails the admissibility masks, and a
    non-finite node or average only reaches the mid values of cells it flags.
    """
    averages, ncell = candidate.averages, mesh.ncell
    with np.errstate(all="ignore"):
        node_ok_left, node_ok_right = gather_cell_ends(nodes.admissible, mesh.cell_dofs)
        u_mid = recover_midpoint(averages, *gather_cell_ends(nodes.states, mesh.cell_dofs))
        ok = model.admissible_mask(np.concatenate([averages, u_mid]))  # averages, then mids
        bad = ~(ok[:ncell] & ok[ncell:] & node_ok_left & node_ok_right)
        lower, upper = bounds
        bad |= (averages[:, 0] < lower) | (averages[:, 0] > upper)
    return bad


def _ssp3_step(mesh, state, model, dt, flagged, base):
    """One SSPRK3 step; ``base`` holds the ``_base_rates`` of ``state``."""
    boundary = np.zeros(model.p)
    plan = _fallback_plan(mesh, flagged)
    cur = state
    for a, b, w in SSP_STAGES["ssprk3"]:
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
    each time with the robust update in every cell flagged so far.  A cfl
    above ``SCHEMES["active-flux"].cfl`` raises ConfigError before the first
    step, as ``RunConfig.validate`` does.
    """
    require_stable_cfl(ACTIVE_FLUX, cfl)
    # C-contiguous averages, so that every ledger total adds its rows in one order
    state0 = AfState(np.ascontiguousarray(state0.averages, dtype=float), state0.points)

    def accepted(state):
        # march's state: the points' one bundle, which the CFL speed, the next
        # step's base rates and the detector's node test read
        with np.errstate(all="ignore"):
            return state, model.node_kernels(model.from_aux(state.points))

    def speed(s):
        with np.errstate(all="ignore"):
            # np.maximum, not max(): a NaN speed on either side is a blow-up
            return float(np.maximum(model.max_wave_speed(s[0].averages).max(), s[1].speed.max()))

    def entropy(s):
        # without the detector a finite but inadmissible state can reach the
        # ledger; entropy is then meaningless and recorded as nan
        with np.errstate(all="ignore"):
            return float((mesh.cell_sizes * model.entropy(s[0].averages)).sum())

    def advance(s, dt):
        state, nodes = s
        flagged = np.zeros(mesh.ncell, dtype=bool)
        with np.errstate(all="ignore"):
            base = nodes.states, nodes.flux, point_update(mesh, state, model, nodes.states)
            bounds = _dmp_bounds(mesh, state.averages) if detector else None
            for attempt in range(3):  # the step, then at most two re-runs
                candidate, boundary = _ssp3_step(mesh, state, model, dt, flagged, base)
                checked = accepted(candidate)
                if not detector or attempt == 2:
                    break
                bad = _detect(mesh, model, candidate, checked[1], bounds)
                if not (bad & ~flagged).any():
                    break
                flagged |= bad
        if not (np.isfinite(candidate.averages).all() and np.isfinite(candidate.points).all()):
            raise StepRejectedError("non-finite state", location=None)
        return checked, boundary, 0.0, int(flagged.sum())

    times, snapshots, ledger = march(
        accepted(state0),
        advance,
        speed=speed,
        length=float(mesh.cell_sizes.min()),
        cfl=cfl,
        t_end=t_end,
        totals=lambda s: _totals(mesh.cell_sizes, s[0].averages),
        entropy=entropy,
        snapshot=lambda s: (s[0].points.copy(), s[0].averages.copy()),
        snapshot_every=snapshot_every,
        stop_after_steps=stop_after_steps,
    )
    return SolutionRecord(
        times=times,
        states=[points for points, _ in snapshots],
        ledger=ledger,
        mesh=mesh,
        model=model,
        averages=[averages for _, averages in snapshots],
    )
