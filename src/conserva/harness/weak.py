"""Weak-form residual diagnostic for computed space-time solutions.

A weak solution satisfies, for every smooth compactly supported phi,

    iint (phi_t u + phi_x f(u)) dx dt + int phi(x, 0) u0(x) dx = 0.

Discretising this integral with the stored snapshots of a run measures how
far the computed field is from being a weak solution; for a conservative,
consistent scheme the defect vanishes under refinement, while schemes in a
non-conservative form stall at the shocks they mispropagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DiagnosticError
from ..mesh import GAUSS_LEGENDRE, gather_cell_ends

BUMP_TIME_FRACTIONS = (0.35, 0.55, 0.75)  # bump time levels, as fractions of t_final
BUMP_OFFSETS = 3  # bumps per time level


def _bump(s):
    """b(s) = exp(1 - 1/(1 - s^2)) for |s| < 1, zero elsewhere, and b'(s)."""
    b = np.zeros_like(s)
    db = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    b[inside] = np.exp(1.0 - 1.0 / q)
    db[inside] = b[inside] * (-2.0 * si / q**2)
    return b, db


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensor bump b((x - x0)/rx) b((t - t0)/rt), b(s) = exp(1 - 1/(1 - s^2)) on |s| < 1."""

    x0: float
    t0: float
    rx: float
    rt: float

    def space(self, x):
        """The space factor and its x-derivative at x."""
        b, db = _bump((np.asarray(x) - self.x0) / self.rx)
        return b, db / self.rx

    def time(self, t):
        """The time factor and its t-derivative at t."""
        b, db = _bump((np.asarray(t) - self.t0) / self.rt)
        return b, db / self.rt


def default_bumps(mesh, t_final, shock_path=None):
    """A tile of bump placements straddling the shock path when one is known.

    Per time level one bump sits on the path (or mid-domain) with one more on
    each side; summing their absolute defects keeps a single accidental sign
    cancellation from masking a genuine weak-form residual.
    """
    a, b = float(mesh.nodes[0]), float(mesh.nodes[-1])
    width = b - a
    rx = 0.1 * width
    spread = np.linspace(-1.0, 1.0, BUMP_OFFSETS) * 0.117 * width
    bumps = []
    for frac in BUMP_TIME_FRACTIONS:
        t0 = frac * t_final
        rt = 0.85 * min(t0, t_final - t0)
        center = shock_path(t0) if shock_path is not None else 0.5 * (a + b)
        for dx0 in spread:
            x0 = float(np.clip(center + dx0, a + 1.05 * rx, b - 1.05 * rx))
            bumps.append(BumpTestFunction(x0=x0, t0=t0, rx=rx, rt=rt))
    return bumps


MIN_TIME_SAMPLES = 8  # snapshots inside each bump's time support


def weak_residual_diagnostic(record, bumps=None):
    """Total absolute weak-form defect of a run of a case over a family of
    bumps, by default ``default_bumps`` around the case's shock path, or
    mid-domain for a record that carries no case.

    The field is the record's conserved snapshots (``record.conserved``) on
    its mesh, with its model's flux.  Space is integrated cell by cell with
    3-point Gauss quadrature of the piecewise-linear nodal representation,
    time with the trapezoid rule on the stored snapshots, with the flux
    evaluated once per snapshot for all bumps together; each bump's time
    support must contain at least MIN_TIME_SAMPLES snapshots, otherwise the
    record is too sparse to trust and DiagnosticError is raised, naming the
    snapshots found and needed and how to get more.
    """
    times = np.asarray(record.times, dtype=float)
    # at a fixed CFL number, a later end time or more cells give more steps
    remedy = "run to a later end time (--tend) or on more cells (--nx)"
    if record.ledger is not None and record.ledger.nsteps >= len(times):
        remedy = "keep a snapshot every step (snapshot_every=1)"
    if len(times) < 3:
        raise DiagnosticError(f"record holds {len(times)} snapshots, need at least 3; {remedy}")
    model, mesh = record.model, record.mesh
    if bumps is None:
        shock_path = None if record.case is None else record.case.shock_path
        bumps = default_bumps(mesh, float(times[-1]), shock_path)

    gp, gw = GAUSS_LEGENDRE[3]
    x_left = mesh.nodes[:-1]
    x_right = mesh.nodes[1:]
    xq = (0.5 * (x_left + x_right)[:, None] + 0.5 * (x_right - x_left)[:, None] * gp).ravel()
    wq = (0.5 * (x_right - x_left)[:, None] * gw).ravel()
    frac = 0.5 * (gp + 1.0)

    tw = np.zeros_like(times)
    tw[1:] += 0.5 * np.diff(times)
    tw[:-1] += 0.5 * np.diff(times)

    # phi = b_x(x) b_t(t): each bump's quadrature-weighted space rows (nb, nq)
    # and trapezoid-weighted time columns (nb, nt), zero off its time support
    space = np.empty((len(bumps), len(xq)))
    space_x = np.empty_like(space)
    time_t = np.zeros((len(bumps), len(times)))
    time_x = np.zeros_like(time_t)
    start = np.zeros(len(bumps))
    seen = np.zeros(len(times), dtype=bool)  # snapshots inside some bump's support
    for i, bump in enumerate(bumps):
        inside = np.abs(times - bump.t0) < bump.rt
        if inside.sum() < MIN_TIME_SAMPLES:
            raise DiagnosticError(
                f"only {int(inside.sum())} snapshots inside the bump at t0={bump.t0}, "
                f"need {MIN_TIME_SAMPLES}; {remedy}"
            )
        b_x, db_x = bump.space(xq)
        space[i] = wq * b_x
        space_x[i] = wq * db_x
        b_t, db_t = bump.time(times)
        time_t[i, inside] = tw[inside] * db_t[inside]
        time_x[i, inside] = tw[inside] * b_t[inside]
        seen |= inside
        if bump.t0 - bump.rt < times[0]:  # bump sees the initial slice
            start[i] = b_t[0]

    def quadrature_states(u):
        u_l, u_r = gather_cell_ends(u, mesh.cell_dofs)
        u_q = u_l[:, None, :] + (u_r - u_l)[:, None, :] * frac[None, :, None]
        return u_q.reshape(len(xq), -1)

    # iint (phi_t u + phi_x f(u)): one flux evaluation per snapshot, all bumps at once
    defect = np.zeros((len(bumps), record.states[0].shape[1]))
    for k in np.flatnonzero(seen):
        u_q = quadrature_states(record.conserved(k))
        f_q = model.flux(u_q)
        defect += time_t[:, k, None] * (space @ u_q) + time_x[:, k, None] * (space_x @ f_q)
    # + int phi(x, 0) u0 dx
    if start.any():
        defect += start[:, None] * (space @ quadrature_states(record.conserved(0)))
    return float(np.abs(defect).sum())
