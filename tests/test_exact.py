import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


def _two_block_sample(sol, xi):
    """The sampler as it was, one mirrored block per wave."""
    xi = np.asarray(xi, dtype=float)
    g = sol.gamma
    rl, ul, pl = sol.left
    rr, ur, pr = sol.right
    cl = np.sqrt(g * pl / rl)
    cr = np.sqrt(g * pr / rr)
    ps, us = sol.p_star, sol.u_star
    gm, gp = g - 1.0, g + 1.0
    head_l, tail_l, tail_r, head_r = sol.wave_speeds()

    out = np.empty(xi.shape + (3,))
    left_side = xi <= us

    # left wave
    ahead = xi < head_l
    if ps > pl:  # shock
        rho_star = rl * (ps / pl + gm / gp) / (gm / gp * ps / pl + 1.0)
        out[left_side & ahead] = (rl, ul, pl)
        out[left_side & ~ahead] = (rho_star, us, ps)
    else:  # rarefaction
        inside = (~ahead) & (xi < tail_l)
        behind = left_side & (xi >= tail_l)
        out[left_side & ahead] = (rl, ul, pl)
        xif = xi[left_side & inside]
        c = 2.0 / gp * (cl + 0.5 * gm * (ul - xif))
        u = 2.0 / gp * (cl + 0.5 * gm * ul + xif)
        fan = np.stack(
            [rl * (c / cl) ** (2.0 / gm), u, pl * (c / cl) ** (2.0 * g / gm)], axis=-1
        )
        out[left_side & inside] = fan
        out[behind] = (rl * (ps / pl) ** (1.0 / g), us, ps)

    right_side = ~left_side
    ahead = xi > head_r
    if ps > pr:  # shock
        rho_star = rr * (ps / pr + gm / gp) / (gm / gp * ps / pr + 1.0)
        out[right_side & ahead] = (rr, ur, pr)
        out[right_side & ~ahead] = (rho_star, us, ps)
    else:
        inside = (~ahead) & (xi > tail_r)
        behind = right_side & (xi <= tail_r)
        out[right_side & ahead] = (rr, ur, pr)
        xif = xi[right_side & inside]
        c = 2.0 / gp * (cr - 0.5 * gm * (ur - xif))
        u = 2.0 / gp * (-cr + 0.5 * gm * ur + xif)
        fan = np.stack(
            [rr * (c / cr) ** (2.0 / gm), u, pr * (c / cr) ** (2.0 * g / gm)], axis=-1
        )
        out[right_side & inside] = fan
        out[behind] = (rr * (ps / pr) ** (1.0 / g), us, ps)
    return out


_PRIMITIVE = st.tuples(st.floats(0.05, 10.0), st.floats(-3.0, 3.0), st.floats(0.05, 10.0))


@settings(max_examples=300, deadline=None)
@given(_PRIMITIVE, _PRIMITIVE, st.floats(1.1, 1.9), st.lists(st.floats(0.0, 1.0), max_size=20))
@example((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), 1.4, [])  # fan, then shock (Sod)
@example((0.125, 0.0, 0.1), (1.0, 0.0, 1.0), 1.4, [])  # shock, then fan
@example((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), 1.4, [])  # two shocks
@example((1.0, -1.0, 1.0), (1.0, 1.0, 1.0), 1.4, [])  # two fans
@example((1.0, 0.0, 1.0), (1.0, 2.0, 1.0), 1.67, [])  # two fans, velocity 0 at the left head
def test_side_loop_sampler_equals_the_two_block_sampler_bitwise(left, right, gamma, fractions):
    try:
        sol = exact_riemann_euler(left, right, gamma=gamma)
    except VacuumError:
        assume(False)
    # the wave edges and the contact, one ulp either side of each, and
    # points spread over every region
    edges = np.array(sol.wave_speeds() + (sol.u_star,))
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    lo, hi = edges.min() - 1.0, edges.max() + 1.0
    spread = np.concatenate([np.linspace(lo, hi, 101), lo + (hi - lo) * np.array(fractions)])
    xi = np.concatenate([near, spread])
    want = _two_block_sample(sol, xi)
    got = sol.sample(xi)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "left,right",
    [
        ((1.0, -1.0, 1.0), (1.0, 1.0, 1.0)),  # two fans: no branch writes a nan row
        ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),  # Sod: a nan passes behind the right shock
        ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0)),  # two shocks
        ((0.125, 0.0, 0.1), (1.0, 0.0, 1.0)),  # shock, then fan
    ],
)
def test_nan_similarity_speed_samples_a_nan_row(left, right):
    sol = exact_riemann_euler(left, right)
    xi = np.array([np.nan, np.nan, -2.0, -0.5, np.nan, 0.0, 0.5, 2.0, np.nan])
    got = sol.sample(xi)
    nan = np.isnan(xi)
    assert np.isnan(got[nan]).all()
    # the finite speeds keep the bits they have without the nans beside them
    assert got[~nan].tobytes() == sol.sample(xi[~nan]).tobytes()


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


@pytest.mark.parametrize("t", [0.317, 0.318, 0.3183])
@pytest.mark.parametrize("nx", [400, 800, 1000, 2000])
def test_burgers_sine_solves_characteristics_near_the_breakdown(nx, t):
    # Newton cycles or diverges on a few rows here; their roots are bisected
    x = np.linspace(-1.0, 1.0, nx + 1)[:-1]  # the DOFs of the periodic mesh
    u = burgers_sine_exact(x, t)
    assert np.abs(u).max() <= 1.0
    assert np.abs(u - np.sin(np.pi * (x - u * t))).max() <= 1e-13


def test_burgers_sine_raises_without_a_root_bracket():
    with pytest.raises(BranchError):
        burgers_sine_exact(np.array([0.5, np.nan]), 0.2)
