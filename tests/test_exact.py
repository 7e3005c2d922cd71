import numpy as np
import pytest

from conserva.errors import BranchError, VacuumError
from conserva.harness.exact import (
    BURGERS_SINE_BREAKDOWN,
    burgers_riemann,
    burgers_sine_exact,
    exact_riemann_euler,
)


def test_riemann_equal_states_constant_solution():
    state = (1.0, 0.3, 2.0)
    sol = exact_riemann_euler(state, state)
    sampled = sol.sample(np.linspace(-3, 3, 41))
    np.testing.assert_allclose(sampled, np.tile(state, (41, 1)), rtol=1e-12)


def test_riemann_sod_star_values():
    sol = exact_riemann_euler((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), gamma=1.4)
    assert sol.p_star == pytest.approx(0.30313, abs=2e-5)
    assert sol.u_star == pytest.approx(0.92745, abs=2e-5)
    assert sol.pressure_residual < 1e-12


def test_riemann_mirrored_data_mirrors_solution():
    sol = exact_riemann_euler((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    mirrored = exact_riemann_euler((0.125, 0.0, 0.1), (1.0, 0.0, 1.0))
    xi = np.linspace(-2.5, 2.5, 101)
    a = sol.sample(xi)
    b = mirrored.sample(-xi)
    np.testing.assert_allclose(a[:, 0], b[:, 0], rtol=1e-10)  # density even
    np.testing.assert_allclose(a[:, 1], -b[:, 1], atol=1e-10)  # velocity odd
    np.testing.assert_allclose(a[:, 2], b[:, 2], rtol=1e-10)


def test_riemann_shock_satisfies_rankine_hugoniot():
    gamma = 1.4
    sol = exact_riemann_euler((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), gamma=gamma)
    # right shock speed from the solver's jump data
    rr, ur, pr = sol.right
    cr = np.sqrt(gamma * pr / rr)
    s = ur + cr * np.sqrt(
        0.5 * (gamma + 1) / gamma * sol.p_star / pr + 0.5 * (gamma - 1) / gamma
    )
    ahead, behind = sol.sample(np.array([s + 1e-9, s - 1e-9]))

    def conserved(w):
        rho, v, p = w
        return np.array([rho, rho * v, p / (gamma - 1) + 0.5 * rho * v**2])

    def fluxvec(w):
        rho, v, p = w
        E = p / (gamma - 1) + 0.5 * rho * v**2
        return np.array([rho * v, rho * v**2 + p, (E + p) * v])

    jump_u = conserved(ahead) - conserved(behind)
    jump_f = fluxvec(ahead) - fluxvec(behind)
    np.testing.assert_allclose(jump_f, s * jump_u, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "gamma, speed", [(1.4, 1.752156), (1.67, 1.845619), (1.2, 1.682899)]
)
def test_riemann_sod_right_shock_speed(gamma, speed):
    sol = exact_riemann_euler((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), gamma=gamma)
    head_l, tail_l, tail_r, head_r = sol.wave_speeds()
    assert tail_r == head_r == pytest.approx(speed, abs=1e-6)  # a shock
    assert head_l < tail_l < sol.u_star < tail_r  # a rarefaction, then the contact


def test_riemann_vacuum_detected():
    with pytest.raises(VacuumError):
        exact_riemann_euler((1.0, -10.0, 1.0), (1.0, 10.0, 1.0))


def test_burgers_exact_initial_time():
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(burgers_sine_exact(x, 0.0), np.sin(np.pi * x), atol=1e-12)
    np.testing.assert_array_equal(burgers_riemann(1.0, 0.0, x, 0.0), np.where(x < 0, 1.0, 0.0))


def test_burgers_riemann_shock_position():
    x = np.linspace(-1, 2, 3001)
    u = burgers_riemann(1.0, 0.0, x, 1.0)
    jump = x[np.nonzero(np.diff(u))[0][0]]
    assert jump == pytest.approx(0.5, abs=1e-3)  # shock speed 1/2


def test_burgers_riemann_rarefaction_fan():
    x = np.array([-0.5, 0.25, 0.5, 0.75, 1.5])
    u = burgers_riemann(0.0, 1.0, x, 1.0)
    np.testing.assert_allclose(u, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-14)


def test_burgers_sine_post_shock_rejected():
    with pytest.raises(BranchError):
        burgers_sine_exact(np.zeros(3), BURGERS_SINE_BREAKDOWN + 0.01)


def test_burgers_sine_solves_characteristics():
    x = np.linspace(-1, 1, 201)
    t = 0.2
    u = burgers_sine_exact(x, t)
    np.testing.assert_allclose(u, np.sin(np.pi * (x - u * t)), atol=1e-12)
