"""Exact-solution oracles: ideal-gas Riemann problems and Burgers solutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BranchError, ConfigError, VacuumError

# Newton stopping rules of the two oracles
RIEMANN_TOL, RIEMANN_MAX_ITER = 1e-12, 200
SINE_TOL, SINE_MAX_ITER = 1e-14, 100
# sin(pi x) data first shock at t = 1/pi
BURGERS_SINE_BREAKDOWN = 1.0 / np.pi


@dataclass
class RiemannSolution:
    """Self-similar solution of a 1D ideal-gas Riemann problem.

    Sampling is by the similarity variable xi = (x - x0)/t and returns
    primitive states (rho, v, p).
    """

    left: tuple
    right: tuple
    gamma: float
    p_star: float
    u_star: float
    pressure_residual: float

    def wave_speeds(self):
        """The similarity speeds of the edges of the two outer waves, left to
        right: (left head, left tail, right tail, right head).  A shock's two
        edges are both its speed."""
        g, ps, us = self.gamma, self.p_star, self.u_star
        edges = []
        for (rho, v, p), sign in ((self.left, -1.0), (self.right, 1.0)):
            c = np.sqrt(g * p / rho)
            if ps > p:  # shock
                s = v + sign * c * np.sqrt(0.5 * (g + 1.0) / g * ps / p + 0.5 * (g - 1.0) / g)
                edges.append((s, s))
            else:  # rarefaction: head, then tail at the star sound speed
                edges.append((v + sign * c, us + sign * c * (ps / p) ** (0.5 * (g - 1.0) / g)))
        (head_l, tail_l), (head_r, tail_r) = edges
        return head_l, tail_l, tail_r, head_r

    def sample(self, xi):
        """Primitive states at similarity speeds xi.

        Both outer waves use one side-symmetric formula (Toro, Riemann Solvers
        and Numerical Methods for Fluid Dynamics, ch. 4), written in the
        outward coordinate z = sign * xi, sign = -1 on the left of the contact
        xi = u* (which belongs to the left) and +1 on its right: the data lie
        ahead of the head, z > sign * head, and a fan's tail is at sign * tail.
        A nan xi lies on no side of any wave and samples as a nan row.
        """
        xi = np.asarray(xi, dtype=float)
        g, ps, us = self.gamma, self.p_star, self.u_star
        gm, gp = g - 1.0, g + 1.0
        head_l, tail_l, tail_r, head_r = self.wave_speeds()
        out = np.full(xi.shape + (3,), np.nan)
        left_side = xi <= us
        for (rho, v, p), sign, side, head, tail in (
            (self.left, -1.0, left_side, head_l, tail_l),
            (self.right, 1.0, ~left_side, head_r, tail_r),
        ):
            z = sign * xi
            ahead = z > sign * head
            behind = z <= sign * head  # not ~ahead, which a nan z would pass
            out[side & ahead] = (rho, v, p)
            if ps > p:  # shock
                rho_star = rho * (ps / p + gm / gp) / (gm / gp * ps / p + 1.0)
                out[side & behind] = (rho_star, us, ps)
                continue
            # rarefaction: the fan, then the star state behind its tail
            c_k = np.sqrt(g * p / rho)
            fan = side & behind & (z > sign * tail)
            c = 2.0 / gp * (c_k + 0.5 * gm * (z[fan] - sign * v))
            u = 2.0 / gp * (-sign * c_k + 0.5 * gm * v + xi[fan])
            out[fan] = np.stack(
                [rho * (c / c_k) ** (2.0 / gm), u, p * (c / c_k) ** (2.0 * g / gm)], axis=-1
            )
            out[side & (z <= sign * tail)] = (rho * (ps / p) ** (1.0 / g), us, ps)
        return out


def _wave_function(p, rho_k, p_k, c_k, gamma):
    """Velocity jump across one wave and its pressure derivative."""
    gm, gp = gamma - 1.0, gamma + 1.0
    if p > p_k:  # shock branch
        a = 2.0 / (gp * rho_k)
        b = gm / gp * p_k
        f = (p - p_k) * np.sqrt(a / (p + b))
        df = np.sqrt(a / (p + b)) * (1.0 - 0.5 * (p - p_k) / (p + b))
    else:  # rarefaction branch
        f = 2.0 * c_k / gm * ((p / p_k) ** (0.5 * gm / gamma) - 1.0)
        df = (p / p_k) ** (-0.5 * gp / gamma) / (rho_k * c_k)
    return f, df


def exact_riemann_euler(left, right, gamma=1.4):
    """Star-region solve of the ideal-gas Riemann problem.

    left, right: primitive states (rho, v, p).  Newton iteration on the
    pressure function starting from the two-rarefaction guess; converges to
    ``RIEMANN_TOL`` relative.  Raises VacuumError when the data generate vacuum.
    """
    rl, ul, pl = map(float, left)
    rr, ur, pr = map(float, right)
    if min(rl, rr, pl, pr) <= 0:
        raise ConfigError("Riemann data must have positive density and pressure")
    g = gamma
    cl = np.sqrt(g * pl / rl)
    cr = np.sqrt(g * pr / rr)
    if 2.0 * (cl + cr) / (g - 1.0) <= ur - ul:
        raise VacuumError("initial states generate vacuum; oracle does not cover it")

    # two-rarefaction initial guess
    z = 0.5 * (g - 1.0) / g
    p = ((cl + cr - 0.5 * (g - 1.0) * (ur - ul)) / (cl / pl**z + cr / pr**z)) ** (1.0 / z)
    p = max(p, 1e-14)
    for _ in range(RIEMANN_MAX_ITER):
        fl, dfl = _wave_function(p, rl, pl, cl, g)
        fr, dfr = _wave_function(p, rr, pr, cr, g)
        delta = (fl + fr + (ur - ul)) / (dfl + dfr)
        p_new = max(p - delta, 1e-14)
        if abs(p_new - p) < RIEMANN_TOL * p_new:
            p = p_new
            break
        p = p_new
    fl, _ = _wave_function(p, rl, pl, cl, g)
    fr, _ = _wave_function(p, rr, pr, cr, g)
    u_star = 0.5 * (ul + ur) + 0.5 * (fr - fl)
    return RiemannSolution(
        left=(rl, ul, pl),
        right=(rr, ur, pr),
        gamma=g,
        p_star=p,
        u_star=u_star,
        pressure_residual=abs(fl + fr + (ur - ul)),
    )


def burgers_riemann(u_left, u_right, x, t):
    """Entropy solution of the Burgers Riemann problem with jump at x = 0."""
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ConfigError("t must be nonnegative")
    if t == 0:
        return np.where(x < 0, u_left, u_right)
    if u_left > u_right:  # shock with the Rankine-Hugoniot speed
        s = 0.5 * (u_left + u_right)
        return np.where(x < s * t, u_left, u_right)
    out = np.clip(x / t, u_left, u_right)  # rarefaction fan
    return out


def burgers_sine_exact(x, t):
    """Smooth solution of u_t + (u^2/2)_x = 0 with u(x, 0) = sin(pi x).

    Characteristics give u = sin(pi (x - u t)): for t < 1/pi the residual
    g(u) = u - sin(pi (x - u t)) increases (g' >= 1 - pi t > 0) and changes
    sign on [-1, 1].  Newton finds its root on most rows; the rows it leaves
    near the breakdown are bisected on [-1, 1].  A row with no bracket there
    (x not finite) and times t >= 1/pi, past the first shock, raise BranchError.
    """
    t = float(t)
    if t >= BURGERS_SINE_BREAKDOWN:
        raise BranchError(
            f"sine data shocks at t = 1/pi ~ {BURGERS_SINE_BREAKDOWN:.6f}; requested t = {t}"
        )
    x = np.asarray(x, dtype=float)

    def g(u):
        return u - np.sin(np.pi * (x - u * t))

    u = np.sin(np.pi * x)
    for _ in range(SINE_MAX_ITER):
        du = g(u) / (1.0 + np.pi * t * np.cos(np.pi * (x - u * t)))
        u = u - du
        if np.abs(du).max() < SINE_TOL:
            return u
    # the rows Newton left start from [-1, 1]; the others from [u, u], kept
    unsettled = ~(np.abs(du) < SINE_TOL)
    lo, hi = np.where(unsettled, -1.0, u), np.where(unsettled, 1.0, u)
    if not (((g(lo) <= 0.0) & (g(hi) >= 0.0)) | ~unsettled).all():
        raise BranchError(f"no root of the sine characteristics in [-1, 1] at t = {t}")
    for _ in range(SINE_MAX_ITER):  # 2^-99 wide: down to adjacent doubles
        mid = 0.5 * (lo + hi)
        above = g(mid) > 0.0
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    return 0.5 * (lo + hi)
