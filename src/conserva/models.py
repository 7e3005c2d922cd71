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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

ADMISSIBLE_FLOOR = 1e-12


def _first_rejected(mask):
    """The index, a tuple of ints, of the first state a mask rejects."""
    return tuple(int(i) for i in np.argwhere(~mask)[0])


@dataclass(frozen=True)
class PhysicsModel:
    """A scalar law with the square entropy eta = u^2/2 and the identity map.

    A scalar law states its ``flux``, ``jacobian``, ``entropy_flux`` and
    ``max_wave_speed``; a system overrides the defaults below as well.

    Attributes
    ----------
    p : component count
    names : CSV-friendly component names
    """

    p = 1
    names = ("u",)

    # -- entropy pair (the square entropy unless overridden) -------------
    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_variables(self, u, nodes=None):
        """The entropy gradient at states u; ``nodes``, the ``NodeKernels`` of u,
        lends a model what its bundle already holds."""
        return np.array(u, dtype=float, copy=True)

    # -- admissibility ------------------------------------------------
    def admissible_mask(self, u):
        """Boolean mask over leading axes: True where the state is usable."""
        return np.isfinite(u).all(axis=-1)

    def node_kernels(self, u, entropy=False):
        """The unchecked ``NodeKernels`` of states u, with their entropy if asked;
        one hook, so that a model can share work between the kernels."""
        eta = self.entropy(u) if entropy else None
        return NodeKernels(u, self.flux(u), self.max_wave_speed(u), self.admissible_mask(u), eta)

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

    # -- upwind split of the mapped-variable system (scalar laws) ---------
    def characteristics(self, w):
        """The flux derivative at states w of a scalar law (its map is the identity)."""
        return (self.jacobian(w)[..., 0, 0],)

    @staticmethod
    def split_apply(chars, d, sign):
        """Apply J^+ or J^- (sign = +1/-1) to d at states of ``characteristics``."""
        (lam,) = chars
        lam = np.maximum(lam, 0.0) if sign > 0 else np.minimum(lam, 0.0)
        return lam[..., None] * d


@dataclass(frozen=True)
class Advection(PhysicsModel):
    """Linear advection u_t + a u_x = 0 with the square entropy."""

    a: float = 1.0

    def flux(self, u):
        return self.a * np.asarray(u, dtype=float)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1] + (1, 1), self.a)

    def entropy_flux(self, u, nodes=None):
        """The entropy flux; a closed form in u, so the bundle ``nodes`` is not read."""
        u = np.asarray(u, dtype=float)
        return 0.5 * self.a * u[..., 0] ** 2

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], abs(self.a))


@dataclass(frozen=True)
class Burgers(PhysicsModel):
    """Inviscid Burgers u_t + (u^2/2)_x = 0 with eta = u^2/2, g = u^3/3."""

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., None]

    def entropy_flux(self, u, nodes=None):
        """The entropy flux; a closed form in u, so the bundle ``nodes`` is not read."""
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 3 / 3.0

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u[..., 0])


class GasParts(NamedTuple):
    """The decomposition of gas states that ``Euler.node_kernels`` keeps in its
    bundle: density, velocity m/rho, internal energy e per unit volume,
    pressure (gamma - 1) e and, with the entropy, the log ratio
    gamma log(rho) - log(p), so that eta = rho * log_ratio (else None)."""

    rho: np.ndarray
    vel: np.ndarray
    e_int: np.ndarray
    pres: np.ndarray
    log_ratio: np.ndarray | None


@dataclass(frozen=True)
class Euler(PhysicsModel):
    """1D ideal-gas Euler equations in conserved variables (rho, rho*v, E).

    Pressure closure p = (gamma - 1) * (E - rho v^2 / 2).  The entropy used
    throughout is the convex member eta = rho * (gamma*log(rho) - log(p)) with
    entropy flux v * eta; its gradient (the entropy variables) is analytic.
    Auxiliary variables are the primitives (rho, v, p).
    """

    gamma: float = 1.4
    p = 3
    names = ("density", "momentum", "total_energy")

    def __post_init__(self):
        if not 1.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and exceed 1, got {self.gamma}")

    def _decompose(self, u):
        """The ``GasParts`` of conserved states u, without the log ratio: the
        density, the velocity m/rho, the internal energy e = E - m v/2 per unit
        volume and the pressure p = (gamma - 1) e.

        Unchecked and elementwise: inadmissible rows give nonpositive, infinite
        or nan entries, which callers mask or silence.
        """
        rho = u[..., 0]
        mom = u[..., 1]
        ene = u[..., 2]
        vel = mom / rho
        e_int = ene - 0.5 * mom * vel
        return GasParts(rho, vel, e_int, (self.gamma - 1.0) * e_int, None)

    @staticmethod
    def _admissible(u, rho, e_int):
        # one component at a time: several times faster than reducing
        # isfinite(u) over the size-3 axis; `finite` masks the rows whose
        # inputs are already non-finite
        finite = np.isfinite(u[..., 0]) & np.isfinite(u[..., 1]) & np.isfinite(u[..., 2])
        return finite & (rho > ADMISSIBLE_FLOOR) & (e_int > ADMISSIBLE_FLOOR)

    def admissible_mask(self, u):
        u = np.asarray(u, dtype=float)
        # a zero density or an overflowing mom/rho makes e_int -inf or nan,
        # which compares False: an answer, not a warning
        with np.errstate(all="ignore"):
            parts = self._decompose(u)
        return self._admissible(u, parts.rho, parts.e_int)

    def node_kernels(self, u, entropy=False):
        """Mask, flux and wave speed from one ``_decompose``, bit for bit those of
        the separate methods, and like the mask silent on inadmissible rows;
        the bundle keeps that decomposition as its ``GasParts``."""
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            parts = self._parts(u, entropy)
            rho, vel, e_int, pres, log_ratio = parts
            flux = self._flux(u, vel, pres)
            speed = self._speed(rho, vel, pres)
            eta = rho * log_ratio if entropy else None
        return NodeKernels(u, flux, speed, self._admissible(u, rho, e_int), eta, parts)

    def _parts(self, u, entropy, nodes=None):
        """The ``GasParts`` of states u, with their log ratio if ``entropy``;
        read off ``nodes``, the bundle of u, when the caller has it."""
        parts = self._decompose(u) if nodes is None else nodes.parts
        if entropy and parts.log_ratio is None:
            parts = parts._replace(log_ratio=self.gamma * np.log(parts.rho) - np.log(parts.pres))
        return parts

    # -- physics --------------------------------------------------------
    @staticmethod
    def _flux(u, vel, pres):
        out = np.empty_like(u)
        out[..., 0] = u[..., 1]
        out[..., 1] = u[..., 1] * vel + pres
        out[..., 2] = (u[..., 2] + pres) * vel
        return out

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        parts = self._decompose(u)
        return self._flux(u, parts.vel, parts.pres)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        rho, vel = self._decompose(u)[:2]
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
        parts = self._parts(np.asarray(u, dtype=float), True)
        return parts.rho * parts.log_ratio

    def entropy_variables(self, u, nodes=None):
        """The entropy gradient at states u, reading their decomposition off
        ``nodes``, the bundle of u, when the caller has it."""
        u = np.asarray(u, dtype=float)
        g = self.gamma
        rho, vel, _, pres, log_ratio = self._parts(u, True, nodes)
        v = np.empty_like(u)
        # g - s for the specific entropy s = log p - g log rho = -log_ratio,
        # bit for bit, as rounding is symmetric and g - (+-0.0) is g
        v[..., 0] = g + log_ratio - 0.5 * (g - 1.0) * rho * vel**2 / pres
        v[..., 1] = (g - 1.0) * rho * vel / pres
        v[..., 2] = -(g - 1.0) * rho / pres
        return v

    def entropy_flux(self, u, nodes=None):
        """v * eta, reading v and eta off ``nodes``, the bundle of u, when the
        caller has it."""
        if nodes is not None and nodes.entropy is not None:
            return nodes.parts.vel * nodes.entropy
        rho, vel, _, _, log_ratio = self._parts(np.asarray(u, dtype=float), True, nodes)
        return vel * (rho * log_ratio)

    def max_wave_speed(self, u):
        u = np.asarray(u, dtype=float)
        rho, vel, _, pres, _ = self._decompose(u)
        return self._speed(rho, vel, pres)

    def _speed(self, rho, vel, pres):
        """|v| + c, the wave speed bound, with c^2 = gamma p / rho."""
        return np.abs(vel) + np.sqrt(self.gamma * pres / rho)

    # -- primitive map ---------------------------------------------------
    def to_aux(self, u):
        u = np.asarray(u, dtype=float)
        rho, vel, _, pres, _ = self._decompose(u)
        w = np.empty_like(u)
        w[..., 0] = rho
        w[..., 1] = vel
        w[..., 2] = pres
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
        rho, vel = self._decompose(u)[:2]
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
        return self.split_apply(self.characteristics(w), d, sign)

    def characteristics(self, w):
        """Per-state quantities of the primitive split of states w, each
        elementwise: (rho, c, c^2, rho/(2c), 1/(2c^2), v-c, v, v+c)."""
        w = np.asarray(w, dtype=float)
        rho, vel = w[..., 0], w[..., 1]
        c = np.sqrt(self.gamma * w[..., 2] / rho)
        c2 = c**2
        return rho, c, c2, 0.5 * rho / c, 0.5 / c2, vel - c, vel, vel + c

    @staticmethod
    def split_apply(chars, d, sign):
        """Apply J^+ or J^- (sign = +1/-1) to d at states of ``characteristics``."""
        rho, c, c2, half_rho_c, half_c2, lam1, lam2, lam3 = chars
        clip = np.maximum if sign > 0 else np.minimum
        d = np.asarray(d, dtype=float)
        # characteristic amplitudes of d (x - y is x + (-y) bit for bit)
        acoustic = half_rho_c * d[..., 1]
        thermal = half_c2 * d[..., 2]
        b1 = clip(lam1, 0.0) * (thermal - acoustic)
        b2 = clip(lam2, 0.0) * (d[..., 0] - d[..., 2] / c2)
        b3 = clip(lam3, 0.0) * (acoustic + thermal)
        out = np.empty_like(d)
        out[..., 0] = b1 + b2 + b3
        out[..., 1] = (b3 - b1) * c / rho
        out[..., 2] = (b1 + b3) * c2
        return out


@dataclass(frozen=True)
class NodeKernels:
    """The model kernels read on a set of states, evaluated once at its nodes.

    states (n, p), their fluxes f(states) (n, p) and wave speed bounds (n,);
    ``model.node_kernels`` adds the admissibility mask, if asked the entropy
    (n,), and ``parts``, the model's own decomposition of the states (the
    ``GasParts`` of ``Euler``, None for a scalar law), which its entropy
    methods and the gas scheme read instead of forming it again.  Every
    kernel is elementwise, so a row gathered from the bundle equals the
    kernel of the gathered state bit for bit: residuals gather cell ends
    from one bundle instead of evaluating the model on every cell end.

    Raw states enter through ``of``, which checks them once; residuals and
    corrections take a bundle and check nothing.
    """

    states: np.ndarray
    flux: np.ndarray
    speed: np.ndarray
    admissible: np.ndarray | None = None
    entropy: np.ndarray | None = None
    parts: tuple | None = None

    @classmethod
    def of(cls, model, states, entropy=False):
        """The bundle of admissible states, with their entropy if asked.

        An inadmissible state raises DomainError carrying its row index, the
        DOF index for node states.
        """
        nodes = model.node_kernels(np.asarray(states, dtype=float), entropy=entropy)
        if not nodes.admissible.all():
            where = _first_rejected(nodes.admissible)
            state = nodes.states[where]
            raise DomainError(
                f"inadmissible state {state} at index {where}", state=state, index=where
            )
        return nodes

    def cell_ends(self, mesh):
        """(left, right) bundles at the two end nodes of every cell of mesh, the
        slices [:-1] and [1:] of the node arrays (row 0 appended if periodic);
        a bundle that does not hold one state per DOF raises ConfigError."""
        if len(self.states) != mesh.ndof:
            raise ConfigError(f"expected {mesh.ndof} states, got {len(self.states)}")
        states, flux, speed = self.states, self.flux, self.speed
        if mesh.periodic:
            states, flux, speed = (np.concatenate([a, a[:1]]) for a in (states, flux, speed))
        return (NodeKernels(states[:-1], flux[:-1], speed[:-1]),
                NodeKernels(states[1:], flux[1:], speed[1:]))
