"""Two-field scheme: cell averages in flux form plus point values of mapped
variables in upwind non-conservative form, coupled through Simpson's rule.

Averages of the conserved variables evolve by exact flux differences of the
point values, which are single valued at the nodes, so no interface Riemann
problem appears and conservation of the averages is exact.  The point values
v = psi(u) evolve by v_t + J v_x = 0 with J = P (df/du) P^{-1}, P = dpsi/du,
split into J = J^+ + J^- through the eigenvalue signs; each side of a node is
differenced with the one-sided quadratic stencil built from the node values
and the Simpson-recovered mid value, giving third order on smooth data.

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

from .errors import RecoveryError, SplittingError, StepRejectedError
from .records import SolutionRecord
from .schemes import _ssp_stages, _stage_flux_weights, march, rusanov_unchecked

DEFAULT_CFL = 0.4  # SSPRK3 point-average coupling is unstable by CFL 0.5
DMP_RELAX_REL = 0.05
DMP_RELAX_ABS = 1e-3
# ((a, b), flux weight) per stage: stage = a * u^n + b * (stage + dt * rate)
_SSP3 = tuple(zip(_ssp_stages("ssprk3"), _stage_flux_weights(_ssp_stages("ssprk3"))))


@dataclass
class AfState:
    """Cell averages of conserved variables plus point values of mapped ones."""

    averages: np.ndarray
    points: np.ndarray


def initialize(model, mesh, u0_of_x, quad_points=5):
    """Exact point values and Gauss-quadrature cell averages of u0."""
    nodes = mesh.nodes
    mids = mesh.cell_centers
    half = 0.5 * mesh.cell_sizes
    gp, gw = np.polynomial.legendre.leggauss(quad_points)
    averages = np.zeros((mesh.ncell, model.p))
    for xi, w in zip(gp, gw):
        averages += 0.5 * w * u0_of_x(mids + half * xi)
    xs = nodes[:-1] if mesh.periodic else nodes
    points = model.to_aux(model.require_admissible(u0_of_x(xs)))
    return AfState(averages, points)


def _point_states(model, points):
    return model.from_aux(points)


def _cell_point_values(mesh, points):
    """Point values at the left/right nodes of every cell."""
    left = points[mesh.cell_dofs[:, 0]]
    right = points[mesh.cell_dofs[:, 1]]
    return left, right


def recover_midpoint(model, averages, v_left, v_right, check=True):
    """Mid-cell mapped values from Simpson's relation.

    Solves ubar = (psi^{-1}(vL) + 4 psi^{-1}(v_mid) + psi^{-1}(vR)) / 6 for
    v_mid; the relation is linear in psi^{-1}(v_mid), so the solve is exact
    in one shot for any invertible map.  Exact for polynomial data of degree
    at most two under the identity map.
    """
    u_left = model.from_aux(np.asarray(v_left, dtype=float))
    u_right = model.from_aux(np.asarray(v_right, dtype=float))
    u_mid = (6.0 * np.asarray(averages, dtype=float) - u_left - u_right) / 4.0
    if check:
        mask = model.admissible_mask(u_mid)
        if not mask.all():
            cells = np.flatnonzero(~mask)
            raise RecoveryError(
                f"mid-value recovery left the admissible set in cells {cells.tolist()}",
                cells=cells,
            )
    return model.to_aux(u_mid)


def average_update(mesh, state, model):
    """d(ubar)/dt from the single-valued point fluxes at the cell ends."""
    u_nodes = model.require_admissible(_point_states(model, state.points))
    f = model.flux(u_nodes)
    f_left = f[mesh.cell_dofs[:, 0]]
    f_right = f[mesh.cell_dofs[:, 1]]
    return -(f_right - f_left) / mesh.cell_sizes[:, None]


def _apply_split(model, points, d, sign):
    """J^{sign} d at the nodes for the mapped-variable system."""
    if model.p == 1:
        u = model.from_aux(points)
        lam = model.jacobian(u)[..., 0, 0]
        lam = np.maximum(lam, 0.0) if sign > 0 else np.minimum(lam, 0.0)
        return lam[..., None] * d
    split = getattr(model, "primitive_split_apply", None)
    if split is not None:
        return split(points, d, sign)
    # generic route: J = P (df/du) P^{-1} at each node, eigendecomposition
    u = model.from_aux(points)
    P = model.aux_jacobian(u)
    J = P @ model.jacobian(u) @ np.linalg.inv(P)
    lam, R = np.linalg.eig(J)
    if np.abs(lam.imag).max() > 1e-9 * max(np.abs(lam.real).max(), 1.0):
        raise SplittingError("mapped Jacobian has complex eigenvalues")
    lam = lam.real
    lam = np.maximum(lam, 0.0) if sign > 0 else np.minimum(lam, 0.0)
    R = R.real
    try:
        amp = np.linalg.solve(R, d[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SplittingError(f"mapped Jacobian is defective: {exc}") from exc
    cond = np.linalg.cond(R)
    if not np.isfinite(cond).all() or cond.max() > 1e12:
        raise SplittingError("mapped Jacobian is not numerically diagonalisable")
    return np.einsum("...ij,...j->...i", R, lam * amp)


def point_update(mesh, state, model, flagged=None):
    """dv/dt at the nodes by upwind splitting of the mapped-variable system.

    One-sided quadratic derivatives: from the right cell of node i,
    dv/dx = (-3 v_i + 4 v_{i+1/2} - v_{i+1}) / dx, mirrored on the left; the
    missing side at a transmissive boundary contributes zero (constant
    extension).  J^+ takes the left-cell slope, J^- the right-cell slope.
    """
    points = state.points
    v_left, v_right = _cell_point_values(mesh, points)
    v_mid = recover_midpoint(model, state.averages, v_left, v_right, check=False)
    dx = mesh.cell_sizes[:, None]
    slope_right = (-3.0 * v_left + 4.0 * v_mid - v_right) / dx  # at each cell's left node
    slope_left = (3.0 * v_right - 4.0 * v_mid + v_left) / dx  # at each cell's right node

    contrib = np.zeros_like(points)
    np.add.at(contrib, mesh.cell_dofs[:, 0], _apply_split(model, v_left, slope_right, -1))
    np.add.at(contrib, mesh.cell_dofs[:, 1], _apply_split(model, v_right, slope_left, +1))
    dv = -contrib

    if flagged is not None and flagged.any():
        dv_fb, bad_nodes = _fallback_point_rate(mesh, state, model, flagged)
        dv = np.where(bad_nodes[:, None], dv_fb, dv)
    return dv


# ---------------------------------------------------------------------------
# a posteriori fallback
# ---------------------------------------------------------------------------


def _neighbor_averages(mesh, averages, points, model):
    """Left/right neighbour states of every node for the robust updates."""
    if mesh.periodic:
        left = averages[np.arange(mesh.ndof) - 1]
        right = averages
        return left, right
    u_pts = _point_states(model, points)
    left = np.vstack([u_pts[:1], averages])
    right = np.vstack([averages, u_pts[-1:]])
    return left, right


def _flagged_faces(mesh, flagged):
    faces = np.zeros(mesh.ndof, dtype=bool)
    np.logical_or.at(faces, mesh.cell_dofs[:, 0], flagged)
    np.logical_or.at(faces, mesh.cell_dofs[:, 1], flagged)
    return faces


def _fallback_point_rate(mesh, state, model, flagged):
    """First-order finite volume rate for the point values at flagged nodes."""
    bad_nodes = _flagged_faces(mesh, flagged)
    u_pts = _point_states(model, state.points)
    left, right = _neighbor_averages(mesh, state.averages, state.points, model)
    width = np.empty(mesh.ndof)
    if mesh.periodic:
        width[:] = 0.5 * (mesh.cell_sizes + np.roll(mesh.cell_sizes, 1))
    else:
        width[0] = mesh.cell_sizes[0]
        width[-1] = mesh.cell_sizes[-1]
        width[1:-1] = 0.5 * (mesh.cell_sizes[:-1] + mesh.cell_sizes[1:])
    f_right = rusanov_unchecked(u_pts, right, model)
    f_left = rusanov_unchecked(left, u_pts, model)
    du = -(f_right - f_left) / width[:, None]
    # chain rule back to the mapped variables
    P = model.aux_jacobian(u_pts)
    dv = np.einsum("nij,nj->ni", P, du)
    return dv, bad_nodes


def _rhs(mesh, state, model, flagged):
    """Rates for averages and points; robust faces when cells are flagged."""
    u_nodes = _point_states(model, state.points)
    face_flux = model.flux(u_nodes)
    if flagged is not None and flagged.any():
        bad_faces = _flagged_faces(mesh, flagged)
        left, right = _neighbor_averages(mesh, state.averages, state.points, model)
        robust = rusanov_unchecked(left, right, model)
        face_flux = np.where(bad_faces[:, None], robust, face_flux)
    f_left = face_flux[mesh.cell_dofs[:, 0]]
    f_right = face_flux[mesh.cell_dofs[:, 1]]
    dub = -(f_right - f_left) / mesh.cell_sizes[:, None]
    dv = point_update(mesh, state, model, flagged=flagged)
    if mesh.periodic:
        boundary = np.zeros(model.p)
    else:
        boundary = face_flux[-1] - face_flux[0]
    return dub, dv, boundary


def _detect(mesh, model, candidate, previous):
    """Flag cells whose candidate step is non-physical or oscillatory."""
    averages = candidate.averages
    points = candidate.points
    bad = ~np.isfinite(averages).all(axis=1)
    ok_avg = np.where(bad[:, None], 1.0, averages)
    bad |= ~model.admissible_mask(ok_avg)

    node_bad = ~np.isfinite(points).all(axis=1)
    safe_pts = np.where(node_bad[:, None], 1.0, points)
    node_bad |= ~model.admissible_mask(model.from_aux(safe_pts))
    bad |= node_bad[mesh.cell_dofs[:, 0]] | node_bad[mesh.cell_dofs[:, 1]]

    with np.errstate(all="ignore"):
        v_left, v_right = _cell_point_values(mesh, safe_pts)
        u_mid = (
            6.0 * np.where(np.isfinite(averages), averages, 1.0)
            - model.from_aux(v_left)
            - model.from_aux(v_right)
        ) / 4.0
    bad |= ~model.admissible_mask(u_mid)

    # relaxed discrete maximum principle on the leading average component
    field_new = averages[:, 0]
    field_old = previous.averages[:, 0]
    if mesh.periodic:
        lo = np.minimum(np.minimum(np.roll(field_old, 1), field_old), np.roll(field_old, -1))
        hi = np.maximum(np.maximum(np.roll(field_old, 1), field_old), np.roll(field_old, -1))
    else:
        ext = np.concatenate([field_old[:1], field_old, field_old[-1:]])
        lo = np.minimum(np.minimum(ext[:-2], ext[1:-1]), ext[2:])
        hi = np.maximum(np.maximum(ext[:-2], ext[1:-1]), ext[2:])
    slack = np.maximum(DMP_RELAX_ABS, DMP_RELAX_REL * (hi - lo))
    with np.errstate(invalid="ignore"):
        bad |= (field_new < lo - slack) | (field_new > hi + slack)
    return bad


def _ssp3_step(mesh, state, model, dt, flagged):
    boundary = np.zeros(model.p)
    cur = state
    for (a, b), w in _SSP3:
        dub, dv, bflux = _rhs(mesh, cur, model, flagged)
        boundary = boundary + w * dt * bflux
        cur = AfState(
            a * state.averages + b * (cur.averages + dt * dub),
            a * state.points + b * (cur.points + dt * dv),
        )
    return cur, boundary


def af_integrate(
    model,
    mesh,
    state0,
    *,
    cfl=DEFAULT_CFL,
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
                float(model.max_wave_speed(_point_states(model, s.points)).max()),
            )

    def entropy(s):
        # without the detector a finite but inadmissible state can reach the
        # ledger; entropy is then meaningless and recorded as nan
        with np.errstate(all="ignore"):
            return float((mesh.cell_sizes * model.entropy(s.averages)).sum())

    def advance(state, dt):
        flagged = np.zeros(mesh.ncell, dtype=bool)
        with np.errstate(all="ignore"):
            candidate, boundary = _ssp3_step(mesh, state, model, dt, flagged)
            if detector:
                for _ in range(2):
                    bad = _detect(mesh, model, candidate, state)
                    if not (bad & ~flagged).any():
                        break
                    flagged |= bad
                    candidate, boundary = _ssp3_step(mesh, state, model, dt, flagged)
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
        averages=[averages for _, averages in snapshots],
    )
