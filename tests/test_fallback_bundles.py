"""The active-flux detector path evaluates the model once per state and still
matches the formulas it replaced bit for bit.

The references below are the fallback, detector and kernels as written
before the shared bundles: each of the three Rusanov fluxes of a flagged
stage evaluates the model on its own two states, the detector reduces
finiteness and replaces non-finite rows by 1.0 before converting, and the
primitive split and the wave speed use their longhand expressions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conserva.active_flux import (
    DMP_RELAX_ABS,
    DMP_RELAX_REL,
    AfState,
    _base_rates,
    _detect,
    _dmp_bounds,
    _fallback_plan,
    _rhs,
    point_update,
    recover_midpoint,
)
from conserva.mesh import scatter_cell_ends, uniform_mesh
from conserva.models import Burgers, Euler

from conftest import random_euler_states, same_bits

# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def _ends(mesh, values):
    return values[mesh.cell_dofs[:, 0]], values[mesh.cell_dofs[:, 1]]


def _rusanov_reference(u_left, u_right, model):
    alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    avg = 0.5 * (model.flux(u_left) + model.flux(u_right))
    return avg - 0.5 * alpha[..., None] * (u_right - u_left)


def _neighbors_reference(mesh, averages, u_nodes, nodes):
    if mesh.periodic:
        ext = np.vstack([averages[-1:], averages])
    else:
        ext = np.vstack([u_nodes[:1], averages, u_nodes[-1:]])
    return ext[nodes], ext[nodes + 1]


def _rhs_reference(mesh, state, model, flagged):
    u_nodes = model.from_aux(state.points)
    face_flux = model.flux(u_nodes)
    dv = point_update(mesh, state, model, u_nodes)
    if flagged.any():
        bad = scatter_cell_ends(flagged, flagged, mesh.ndof)
        nodes = np.flatnonzero(bad)
        width = mesh.volumes.copy()
        if not mesh.periodic:
            width[[0, -1]] *= 2.0
        u_pts = u_nodes[nodes]
        left, right = _neighbors_reference(mesh, state.averages, u_nodes, nodes)
        f_right = _rusanov_reference(u_pts, right, model)
        f_left = _rusanov_reference(left, u_pts, model)
        du = -(f_right - f_left) / width[nodes, None]
        dv_fb = np.einsum("nij,nj->ni", model.aux_jacobian(u_pts), du)
        left, right = _neighbors_reference(mesh, state.averages, u_nodes, nodes)
        face_flux = face_flux.copy()
        face_flux[nodes] = _rusanov_reference(left, right, model)
        dv = dv.copy()
        dv[nodes] = dv_fb
    f_left, f_right = _ends(mesh, face_flux)
    dub = -(f_right - f_left) / mesh.cell_sizes[:, None]
    boundary = np.zeros(model.p) if mesh.periodic else face_flux[-1] - face_flux[0]
    return dub, dv, boundary


def _detect_reference(mesh, model, candidate, previous):
    averages = candidate.averages
    points = candidate.points
    bad = ~np.isfinite(averages).all(axis=1)
    ok_avg = np.where(bad[:, None], 1.0, averages)
    bad |= ~model.admissible_mask(ok_avg)
    node_bad = ~np.isfinite(points).all(axis=1)
    safe_pts = np.where(node_bad[:, None], 1.0, points)
    u_pts = model.from_aux(safe_pts)
    node_bad |= ~model.admissible_mask(u_pts)
    node_bad_left, node_bad_right = _ends(mesh, node_bad)
    bad |= node_bad_left | node_bad_right
    u_mid = recover_midpoint(ok_avg, *_ends(mesh, u_pts))
    bad |= ~model.admissible_mask(u_mid)
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
    bad |= (field_new < lo - slack) | (field_new > hi + slack)
    return bad


def _split_reference(model, w, d, sign):
    rho, vel, pres = w[..., 0], w[..., 1], w[..., 2]
    c = np.sqrt(model.gamma * pres / rho)
    lam = (vel - c, vel, vel + c)
    if sign > 0:
        lam = tuple(np.maximum(l, 0.0) for l in lam)
    else:
        lam = tuple(np.minimum(l, 0.0) for l in lam)
    a1 = -0.5 * rho / c * d[..., 1] + 0.5 / c**2 * d[..., 2]
    a2 = d[..., 0] - d[..., 2] / c**2
    a3 = 0.5 * rho / c * d[..., 1] + 0.5 / c**2 * d[..., 2]
    b1, b2, b3 = lam[0] * a1, lam[1] * a2, lam[2] * a3
    out = np.empty_like(d)
    out[..., 0] = b1 + b2 + b3
    out[..., 1] = (b3 - b1) * c / rho
    out[..., 2] = (b1 + b3) * c**2
    return out


def _wave_speed_reference(model, u):
    rho = u[..., 0]
    vel = u[..., 1] / rho
    e_int = u[..., 2] - 0.5 * u[..., 1] * vel
    pres = (model.gamma - 1.0) * e_int
    return np.abs(u[..., 1] / u[..., 0]) + np.sqrt(model.gamma * pres / rho)


# ---------------------------------------------------------------------------
# random two-field states
# ---------------------------------------------------------------------------


@st.composite
def _af_states(draw):
    """(model, mesh, state, flagged): admissible averages and points, with
    signed zeros and near-zero velocities where the upwind split switches."""
    model_name = draw(st.sampled_from(["burgers", "euler"]))
    boundary = draw(st.sampled_from(["periodic", "transmissive"]))
    mesh = uniform_mesh(-1.0, 1.0, draw(st.integers(2, 60)), boundary=boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model_name == "burgers":
        model = Burgers()
        averages = rng.uniform(-2.0, 2.0, (mesh.ncell, 1))
        points = rng.uniform(-2.0, 2.0, (mesh.ndof, 1))
        points[rng.random(mesh.ndof) < 0.2] = 0.0
        points[rng.random(mesh.ndof) < 0.1] = -0.0
    else:
        model = Euler(draw(st.floats(1.1, 3.0)))
        averages = random_euler_states(rng, mesh.ncell, gamma=model.gamma)
        points = model.to_aux(random_euler_states(rng, mesh.ndof, gamma=model.gamma))
        points[rng.random(mesh.ndof) < 0.2, 1] = 0.0
        points[rng.random(mesh.ndof) < 0.1, 1] = -0.0
        points[rng.random(mesh.ndof) < 0.1, 1] = 1e-300
    flagged = rng.random(mesh.ncell) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    return model, mesh, AfState(averages, points), flagged


# ---------------------------------------------------------------------------
# the fallback with shared bundles
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_af_states())
def test_flagged_rhs_equals_three_fresh_bundles_bitwise(problem):
    model, mesh, state, flagged = problem
    want = _rhs_reference(mesh, state, model, flagged)
    plan = _fallback_plan(mesh, flagged)
    assert (plan is None) == (not flagged.any())
    for base in (None, _base_rates(mesh, state, model)):
        got = _rhs(mesh, state, model, plan, base)
        assert all(same_bits(g, w) for g, w in zip(got, want))


def test_flagged_rhs_evaluates_the_model_once_per_state(monkeypatch):
    # with the base known, the fallback adds one flux call and one wave-speed
    # call, both on the stacked rows of the flagged nodes and their neighbours
    rng = np.random.default_rng(8)
    model = Euler(1.4)
    mesh = uniform_mesh(-1.0, 1.0, 40, boundary="transmissive")
    state = AfState(
        random_euler_states(rng, mesh.ncell), model.to_aux(random_euler_states(rng, mesh.ndof))
    )
    flagged = rng.random(mesh.ncell) < 0.3
    base = _base_rates(mesh, state, model)
    calls = {"flux": 0, "max_wave_speed": 0}
    for name in calls:
        original = getattr(Euler, name)

        def counting(self, u, name=name, original=original):
            calls[name] += 1
            return original(self, u)

        monkeypatch.setattr(Euler, name, counting)
    _rhs(mesh, state, model, _fallback_plan(mesh, flagged), base)
    assert calls == {"flux": 1, "max_wave_speed": 1}
    _rhs(mesh, state, model, _fallback_plan(mesh, flagged))
    assert calls == {"flux": 3, "max_wave_speed": 2}


# ---------------------------------------------------------------------------
# the detector on raw arrays
# ---------------------------------------------------------------------------

BAD_VALUES = [np.nan, np.inf, -np.inf, "negative"]


@settings(max_examples=200, deadline=None)
@given(
    _af_states(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 2),
                       st.sampled_from(BAD_VALUES)), max_size=6),
)
def test_detector_on_raw_arrays_equals_its_safe_copy_form(problem, injections):
    model, mesh, previous, _ = problem
    # a candidate near the previous state, then non-finite or inadmissible
    # entries in the averages and the points
    averages = previous.averages * 1.01
    points = previous.points.copy()
    for in_points, row, component, value in injections:
        target = points if in_points else averages
        row %= len(target)
        component %= model.p
        if value == "negative":
            if model.p == 1:
                continue  # every finite Burgers state is admissible
            # density, or pressure (points) / total energy (averages)
            component = 0 if component < 2 else 2
            value = -abs(target[row, component]) - 1.0
        target[row, component] = value
    candidate = AfState(averages, points)
    with np.errstate(all="ignore"):
        want = _detect_reference(mesh, model, candidate, previous)
        # the bundle of the candidate's points, as af_integrate builds it
        nodes = model.node_kernels(model.from_aux(candidate.points))
    got = _detect(mesh, model, candidate, nodes, _dmp_bounds(mesh, previous.averages))
    assert same_bits(got, want)  # and quiet on its own


# ---------------------------------------------------------------------------
# leaner split and wave-speed kernels
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1.1, 3.0))
def test_primitive_split_and_wave_speed_equal_their_longhand_bitwise(n, seed, gamma):
    rng = np.random.default_rng(seed)
    model = Euler(gamma)
    w = model.to_aux(random_euler_states(rng, n, gamma=gamma))
    near_zero = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324])
    pick = rng.random(n) < 0.5
    w[pick, 1] = rng.choice(near_zero, size=int(pick.sum()))
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < 0.3] = 0.0
    d[rng.random((n, 3)) < 0.3] = -0.0
    for sign in (+1, -1):
        assert same_bits(model.primitive_split_apply(w, d, sign), _split_reference(model, w, d, sign))
    u = model.from_aux(w)
    u[rng.random(n) < 0.2, 2] *= -1.0  # negative pressure: NaN speeds on both sides
    with np.errstate(all="ignore"):
        assert same_bits(model.max_wave_speed(u), _wave_speed_reference(model, u))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1.1, 3.0))
def test_split_at_both_cell_ends_of_one_node_set_equals_the_longhand_bitwise(n, seed, gamma):
    # point_update computes the characteristics once on n + 1 node rows and
    # reads them as rows [:-1] (J^- at left cell ends) and rows [1:] (J^+ at
    # right cell ends)
    rng = np.random.default_rng(seed)
    model = Euler(gamma)
    w = model.to_aux(random_euler_states(rng, n + 1, gamma=gamma))
    near_zero = np.array([0.0, -0.0, 1e-300, -1e-300])
    pick = rng.random(n + 1) < 0.5
    w[pick, 1] = rng.choice(near_zero, size=int(pick.sum()))
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < 0.3] = -0.0
    chars = model.characteristics(w)
    for rows, sign in ((slice(None, -1), -1), (slice(1, None), +1)):
        got = model.split_apply(tuple(q[rows] for q in chars), d, sign)
        assert same_bits(got, _split_reference(model, w[rows], d, sign))
    # a scalar law's split scales d by its clipped flux derivative
    burgers = Burgers()
    chars = burgers.characteristics(w[:, 1:2])
    for rows, clip, sign in ((slice(None, -1), np.minimum, -1), (slice(1, None), np.maximum, +1)):
        got = burgers.split_apply(tuple(q[rows] for q in chars), d[:, :1], sign)
        assert same_bits(got, clip(w[rows, 1], 0.0)[:, None] * d[:, :1])
