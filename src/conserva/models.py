"""Hyperbolic systems: fluxes, entropy pairs, variable maps, wave speed bounds.

A state is a length-p array of conserved quantities; batches of states use
shape (..., p) with the component axis last.  All model operations broadcast
over leading axes and are pure, so model instances are safe to share between
threads.

Admissibility: scalar laws accept any finite state; the ideal-gas model
requires density and internal energy above ``ADMISSIBLE_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

ADMISSIBLE_FLOOR = 1e-12


def _first_bad(mask):
    idx = np.argwhere(mask)
    return tuple(idx[0]) if idx.size else None


@dataclass(frozen=True)
class PhysicsModel:
    """Common interface; concrete systems subclass and fill in the physics.

    Attributes
    ----------
    p : component count
    names : CSV-friendly component names
    """

    @property
    def p(self):
        raise NotImplementedError

    @property
    def names(self):
        raise NotImplementedError

    # -- admissibility ------------------------------------------------
    def admissible_mask(self, u):
        """Boolean mask over leading axes: True where the state is usable."""
        return np.isfinite(u).all(axis=-1)

    def require_admissible(self, u):
        u = np.asarray(u, dtype=float)
        mask = self.admissible_mask(u)
        if not mask.all():
            where = _first_bad(~mask)
            state = u[where] if where is not None else None
            raise DomainError(
                f"inadmissible state {state} at index {where}", state=state, index=where
            )
        return u

    # -- variable map (identity unless overridden) ---------------------
    def to_aux(self, u):
        return np.array(u, dtype=float, copy=True)

    def from_aux(self, w):
        return np.array(w, dtype=float, copy=True)

    def aux_jacobian(self, u):
        """d(aux)/d(u), shape (..., p, p)."""
        u = np.asarray(u, dtype=float)
        eye = np.eye(self.p)
        return np.broadcast_to(eye, u.shape[:-1] + (self.p, self.p)).copy()


@dataclass(frozen=True)
class Advection(PhysicsModel):
    """Linear advection u_t + a u_x = 0 with the square entropy."""

    a: float = 1.0

    @property
    def p(self):
        return 1

    @property
    def names(self):
        return ("u",)

    def flux(self, u):
        return self.a * np.asarray(u, dtype=float)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1] + (1, 1), self.a)

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_variables(self, u):
        return np.array(u, dtype=float, copy=True)

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.a * u[..., 0] ** 2

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], abs(self.a))


@dataclass(frozen=True)
class Burgers(PhysicsModel):
    """Inviscid Burgers u_t + (u^2/2)_x = 0 with eta = u^2/2, g = u^3/3."""

    @property
    def p(self):
        return 1

    @property
    def names(self):
        return ("u",)

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., None]

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_variables(self, u):
        return np.array(u, dtype=float, copy=True)

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 3 / 3.0

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u[..., 0])


@dataclass(frozen=True)
class Euler(PhysicsModel):
    """1D ideal-gas Euler equations in conserved variables (rho, rho*v, E).

    Pressure closure p = (gamma - 1) * (E - rho v^2 / 2).  The entropy used
    throughout is the convex member eta = rho * (gamma*log(rho) - log(p)) with
    entropy flux v * eta; its gradient (the entropy variables) is analytic.
    Auxiliary variables are the primitives (rho, v, p).
    """

    gamma: float = 1.4

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def p(self):
        return 3

    @property
    def names(self):
        return ("density", "momentum", "total_energy")

    # -- internals -----------------------------------------------------
    def _decompose(self, u):
        rho = u[..., 0]
        mom = u[..., 1]
        ene = u[..., 2]
        vel = mom / rho
        e_int = ene - 0.5 * mom * vel
        return rho, vel, e_int

    def pressure(self, u):
        u = np.asarray(u, dtype=float)
        _, _, e_int = self._decompose(u)
        return (self.gamma - 1.0) * e_int

    def sound_speed(self, u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        return np.sqrt(self.gamma * self.pressure(u) / rho)

    def admissible_mask(self, u):
        finite = np.isfinite(u).all(axis=-1)
        safe = np.where(finite[..., None], u, 1.0)
        rho, _, e_int = self._decompose(safe)
        return finite & (rho > ADMISSIBLE_FLOOR) & (e_int > ADMISSIBLE_FLOOR)

    # -- physics --------------------------------------------------------
    def flux(self, u):
        u = np.asarray(u, dtype=float)
        rho, vel, e_int = self._decompose(u)
        pres = (self.gamma - 1.0) * e_int
        out = np.empty_like(u)
        out[..., 0] = u[..., 1]
        out[..., 1] = u[..., 1] * vel + pres
        out[..., 2] = (u[..., 2] + pres) * vel
        return out

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        rho, vel, _ = self._decompose(u)
        ene = u[..., 2]
        J = np.zeros(u.shape[:-1] + (3, 3))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -0.5 * (3.0 - g) * vel**2
        J[..., 1, 1] = (3.0 - g) * vel
        J[..., 1, 2] = g - 1.0
        J[..., 2, 0] = (g - 1.0) * vel**3 - g * ene * vel / rho
        J[..., 2, 1] = g * ene / rho - 1.5 * (g - 1.0) * vel**2
        J[..., 2, 2] = g * vel
        return J

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        pres = self.pressure(u)
        return rho * (self.gamma * np.log(rho) - np.log(pres))

    def entropy_variables(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        rho, vel, _ = self._decompose(u)
        pres = self.pressure(u)
        s = np.log(pres) - g * np.log(rho)
        v = np.empty_like(u)
        v[..., 0] = g - s - 0.5 * (g - 1.0) * rho * vel**2 / pres
        v[..., 1] = (g - 1.0) * rho * vel / pres
        v[..., 2] = -(g - 1.0) * rho / pres
        return v

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        vel = u[..., 1] / u[..., 0]
        return vel * self.entropy(u)

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        vel = u[..., 1] / u[..., 0]
        return np.abs(vel) + self.sound_speed(u)

    # -- primitive map ---------------------------------------------------
    def to_aux(self, u):
        u = np.asarray(u, dtype=float)
        rho, vel, e_int = self._decompose(u)
        w = np.empty_like(u)
        w[..., 0] = rho
        w[..., 1] = vel
        w[..., 2] = (self.gamma - 1.0) * e_int
        return w

    def from_aux(self, w):
        w = np.asarray(w, dtype=float)
        rho = w[..., 0]
        vel = w[..., 1]
        pres = w[..., 2]
        u = np.empty_like(w)
        u[..., 0] = rho
        u[..., 1] = rho * vel
        u[..., 2] = pres / (self.gamma - 1.0) + 0.5 * rho * vel**2
        return u

    def aux_jacobian(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        rho, vel, _ = self._decompose(u)
        P = np.zeros(u.shape[:-1] + (3, 3))
        P[..., 0, 0] = 1.0
        P[..., 1, 0] = -vel / rho
        P[..., 1, 1] = 1.0 / rho
        P[..., 2, 0] = 0.5 * (g - 1.0) * vel**2
        P[..., 2, 1] = -(g - 1.0) * vel
        P[..., 2, 2] = g - 1.0
        return P

    # -- characteristic splitting of the primitive-variables system ------
    def primitive_split_apply(self, w, d, sign):
        """Apply J^+ or J^- (sign = +1/-1) of the primitive system to d.

        ``w`` holds primitive states (rho, v, p), ``d`` vectors of the same
        shape.  Uses the analytic eigenstructure (v-c, v, v+c), so no batched
        eigendecomposition is needed.
        """
        w = np.asarray(w, dtype=float)
        d = np.asarray(d, dtype=float)
        rho = w[..., 0]
        vel = w[..., 1]
        pres = w[..., 2]
        c = np.sqrt(self.gamma * pres / rho)
        lam = (vel - c, vel, vel + c)
        if sign > 0:
            lam = tuple(np.maximum(l, 0.0) for l in lam)
        else:
            lam = tuple(np.minimum(l, 0.0) for l in lam)
        # characteristic amplitudes of d
        a1 = -0.5 * rho / c * d[..., 1] + 0.5 / c**2 * d[..., 2]
        a2 = d[..., 0] - d[..., 2] / c**2
        a3 = 0.5 * rho / c * d[..., 1] + 0.5 / c**2 * d[..., 2]
        b1, b2, b3 = lam[0] * a1, lam[1] * a2, lam[2] * a3
        out = np.empty_like(d)
        out[..., 0] = b1 + b2 + b3
        out[..., 1] = (b3 - b1) * c / rho
        out[..., 2] = (b1 + b3) * c**2
        return out


def flux(model, u):
    """Physical flux f(u); raises DomainError on inadmissible input."""
    u = model.require_admissible(u)
    return model.flux(u)


def entropy_pair(model, u):
    """Return (eta, entropy variables, entropy flux) at u."""
    u = model.require_admissible(u)
    return model.entropy(u), model.entropy_variables(u), model.entropy_flux(u)


def max_wave_speed(model, u):
    """Upper bound for the spectral radius of the flux Jacobian at u."""
    u = model.require_admissible(u)
    return model.max_wave_speed(u)


def convert(model, values, direction):
    """Map between conserved and auxiliary variables.

    direction: "to_aux" maps conserved -> auxiliary (primitive for the gas
    model, identity for scalar laws); "from_aux" is the inverse.
    """
    if direction == "to_aux":
        u = model.require_admissible(values)
        return model.to_aux(u)
    if direction == "from_aux":
        u = model.from_aux(values)
        return model.require_admissible(u)
    raise ConfigError(f"unknown direction {direction!r}; use 'to_aux' or 'from_aux'")
