"""Canned test cases: initial data, domains, defaults and exact solutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..models import Advection, Burgers, Euler
from . import exact


@dataclass
class Case:
    """One benchmark problem.

    u0(x) returns conserved states, vectorised over x with shape (..., p).
    exact_solution(x, t), when available, returns conserved states of the
    reference solution; shock_path(t), when set, is used to place the weak
    diagnostic's test bumps around the moving discontinuity.
    """

    name: str
    model: object
    domain: tuple
    boundary: str
    t_end: float
    u0: callable
    exact_solution: callable | None = None
    shock_path: callable | None = None


def _advection_sine(gamma):
    model = Advection(a=1.0)

    def u0(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))[..., None]

    def sol(x, t):
        return np.sin(np.pi * (np.asarray(x, dtype=float) - t))[..., None]

    return Case(
        name="advection-sine",
        model=model,
        domain=(-1.0, 1.0),
        boundary="periodic",
        t_end=2.0,
        u0=u0,
        exact_solution=sol,
    )


def _burgers_sine(gamma):
    model = Burgers()

    def u0(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))[..., None]

    def sol(x, t):
        return exact.burgers_sine_exact(x, t)[..., None]

    return Case(
        name="burgers-sine",
        model=model,
        domain=(-1.0, 1.0),
        boundary="periodic",
        t_end=0.25 / np.pi,
        u0=u0,
        exact_solution=sol,
    )


def _burgers_riemann(gamma):
    model = Burgers()

    def u0(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, 0.0)[..., None]

    def sol(x, t):
        return exact.burgers_riemann(1.0, 0.0, x, t)[..., None]

    return Case(
        name="burgers-riemann",
        model=model,
        domain=(-1.0, 2.0),
        boundary="transmissive",
        t_end=1.0,
        u0=u0,
        exact_solution=sol,
        shock_path=lambda t: 0.5 * t,  # Rankine-Hugoniot speed (1 + 0)/2
    )


SOD_LEFT = (1.0, 0.0, 1.0)
SOD_RIGHT = (0.125, 0.0, 0.1)


def _sod(gamma):
    model = Euler(gamma=gamma)
    split = 0.5  # diaphragm at the domain midpoint

    def u0(x):
        x = np.asarray(x, dtype=float)
        w = np.empty(x.shape + (3,))
        left = x < split
        w[..., 0] = np.where(left, SOD_LEFT[0], SOD_RIGHT[0])
        w[..., 1] = 0.0
        w[..., 2] = np.where(left, SOD_LEFT[2], SOD_RIGHT[2])
        return model.from_aux(w)

    solution = exact.exact_riemann_euler(SOD_LEFT, SOD_RIGHT, gamma=gamma)
    shock_speed = solution.wave_speeds()[-1]  # the right wave is a shock

    def sol(x, t):
        x = np.asarray(x, dtype=float)
        if t == 0:
            return u0(x)
        return model.from_aux(solution.sample((x - split) / t))

    return Case(
        name="sod",
        model=model,
        domain=(0.0, 1.0),
        boundary="transmissive",
        t_end=0.2,
        u0=u0,
        exact_solution=sol,
        shock_path=lambda t: split + shock_speed * t,
    )


SHU_OSHER_LEFT = (3.857143, 2.629369, 10.3333333)


def _shu_osher(gamma):
    model = Euler(gamma=gamma)

    def u0(x):
        x = np.asarray(x, dtype=float)
        w = np.empty(x.shape + (3,))
        left = x < -4.0
        w[..., 0] = np.where(left, SHU_OSHER_LEFT[0], 1.0 + 0.2 * np.sin(5.0 * x))
        w[..., 1] = np.where(left, SHU_OSHER_LEFT[1], 0.0)
        w[..., 2] = np.where(left, SHU_OSHER_LEFT[2], 1.0)
        return model.from_aux(w)

    return Case(
        name="shu-osher",
        model=model,
        domain=(-5.0, 5.0),
        boundary="transmissive",
        t_end=1.8,
        u0=u0,
    )


_BUILDERS = {
    "advection-sine": _advection_sine,
    "burgers-sine": _burgers_sine,
    "burgers-riemann": _burgers_riemann,
    "sod": _sod,
    "shu-osher": _shu_osher,
}


def case_library(case_id, gamma=1.4):
    """Initial data plus exact/reference solution handle for a known case."""
    try:
        builder = _BUILDERS[case_id]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise ConfigError(f"unknown case {case_id!r}; known cases: {known}") from None
    return builder(gamma)
