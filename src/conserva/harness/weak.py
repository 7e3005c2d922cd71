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
from ..mesh import gather_cell_ends


def _bump(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _bump_prime(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si)) * (-2.0 * si / (1.0 - si * si) ** 2)
    return out


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensor bump exp(1 - 1/(1 - s^2)) in x and t, truncated at |s| = 1."""

    x0: float
    t0: float
    rx: float
    rt: float

    def value(self, x, t):
        return _bump((np.asarray(x) - self.x0) / self.rx) * _bump(
            (np.asarray(t) - self.t0) / self.rt
        )

    def dt(self, x, t):
        return (
            _bump((np.asarray(x) - self.x0) / self.rx)
            * _bump_prime((np.asarray(t) - self.t0) / self.rt)
            / self.rt
        )

    def dx(self, x, t):
        return (
            _bump_prime((np.asarray(x) - self.x0) / self.rx)
            * _bump((np.asarray(t) - self.t0) / self.rt)
            / self.rx
        )


def default_bumps(
    mesh, t_final, shock_path=None, t_fractions=(0.35, 0.55, 0.75), offset_count=3
):
    """A tile of bump placements straddling the shock path when one is known.

    Per time level one bump sits on the path (or mid-domain) with one more on
    each side; summing their absolute defects keeps a single accidental sign
    cancellation from masking a genuine weak-form residual.
    """
    a, b = float(mesh.nodes[0]), float(mesh.nodes[-1])
    width = b - a
    rx = 0.1 * width
    spread = np.linspace(-1.0, 1.0, offset_count) * 0.117 * width
    bumps = []
    for frac in t_fractions:
        t0 = frac * t_final
        rt = 0.85 * min(t0, t_final - t0)
        center = shock_path(t0) if shock_path is not None else 0.5 * (a + b)
        for dx0 in spread:
            x0 = float(np.clip(center + dx0, a + 1.05 * rx, b - 1.05 * rx))
            bumps.append(BumpTestFunction(x0=x0, t0=t0, rx=rx, rt=rt))
    return bumps


_GAUSS3 = np.polynomial.legendre.leggauss(3)


def weak_residual_diagnostic(record, model, mesh, bumps=None, min_time_samples=8):
    """Total absolute weak-form defect of a run over a family of bumps.

    Space is integrated cell by cell with 3-point Gauss quadrature of the
    piecewise-linear nodal representation, time with the trapezoid rule on
    the stored snapshots; each bump's time support must contain at least
    ``min_time_samples`` snapshots, otherwise the record is too sparse to
    trust and DiagnosticError is raised (rerun with snapshot_every=1).
    """
    times = np.asarray(record.times, dtype=float)
    if len(times) < 3:
        raise DiagnosticError("record holds too few snapshots; rerun with snapshot_every=1")
    if bumps is None:
        bumps = default_bumps(mesh, float(times[-1]))

    gp, gw = _GAUSS3
    x_left = mesh.nodes[:-1]
    x_right = mesh.nodes[1:]
    xq = 0.5 * (x_left + x_right)[:, None] + 0.5 * (x_right - x_left)[:, None] * gp
    wq = 0.5 * (x_right - x_left)[:, None] * gw
    frac = 0.5 * (gp + 1.0)

    tw = np.zeros_like(times)
    tw[1:] += 0.5 * np.diff(times)
    tw[:-1] += 0.5 * np.diff(times)

    total = 0.0
    for bump in bumps:
        inside = np.abs(times - bump.t0) < bump.rt
        if inside.sum() < min_time_samples:
            raise DiagnosticError(
                f"only {int(inside.sum())} snapshots inside the bump at t0={bump.t0}; "
                f"need {min_time_samples}"
            )
        defect = np.zeros(record.states[0].shape[1])
        for t, w_t, u in zip(times, tw, record.states):
            if abs(t - bump.t0) >= bump.rt:
                continue
            u_l, u_r = gather_cell_ends(u, mesh.cell_dofs)
            u_q = u_l[:, None, :] + (u_r - u_l)[:, None, :] * frac[None, :, None]
            f_q = model.flux(u_q)
            phi_t = bump.dt(xq, t)[..., None]
            phi_x = bump.dx(xq, t)[..., None]
            defect += w_t * (wq[..., None] * (phi_t * u_q + phi_x * f_q)).sum(axis=(0, 1))
        if bump.t0 - bump.rt < times[0]:  # bump sees the initial slice
            u0 = record.states[0]
            u_l, u_r = gather_cell_ends(u0, mesh.cell_dofs)
            u_q = u_l[:, None, :] + (u_r - u_l)[:, None, :] * frac[None, :, None]
            phi0 = bump.value(xq, times[0])[..., None]
            defect += (wq[..., None] * phi0 * u_q).sum(axis=(0, 1))
        total += float(np.abs(defect).sum())
    return total
