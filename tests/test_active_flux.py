import numpy as np
import pytest

from conserva.active_flux import (
    AfState,
    _base_rates,
    _fallback_plan,
    _fallback_point_rate,
    _rhs,
    af_integrate,
    initialize,
    point_update,
    recover_midpoint,
)
from conserva.errors import ConfigError, RunError
from conserva.harness import case_library
from conserva.mesh import uniform_mesh
from conserva.models import Advection, Burgers, Euler
from conserva.records import RunConfig

from conftest import random_euler_states, same_bits


def test_midpoint_recovery_constant_data():
    model = Burgers()
    v = np.full((4, 1), 3.0)
    avg = np.full((4, 1), 3.0)
    np.testing.assert_allclose(model.to_aux(recover_midpoint(avg, v, v)), 3.0)


def test_midpoint_recovery_linear_exactness():
    mid = recover_midpoint(np.array([[0.5]]), np.array([[0.0]]), np.array([[1.0]]))
    assert mid[0, 0] == pytest.approx(0.5)


def test_midpoint_recovery_quadratic():
    # u = x^2 on [0, 1]: average 1/3, endpoints 0 and 1 -> midpoint value 1/4
    mid = recover_midpoint(np.array([[1.0 / 3.0]]), np.array([[0.0]]), np.array([[1.0]]))
    assert mid[0, 0] == pytest.approx(0.25)


def test_midpoint_recovery_roundtrips_primitive_map(rng):
    model = Euler(1.4)
    u = random_euler_states(rng, 32)
    v = model.to_aux(u)
    # constant data: averages equal the (constant) state per cell
    u_nodes = model.from_aux(v)
    mid = model.to_aux(recover_midpoint(u, u_nodes, u_nodes))
    np.testing.assert_allclose(mid, v, rtol=1e-13)


def _average_update(mesh, state, model):
    return _rhs(mesh, state, model, None)[0]


def test_average_update_constant_state():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 4, boundary="periodic")
    state = AfState(np.full((4, 1), 2.0), np.full((4, 1), 2.0))
    np.testing.assert_allclose(_average_update(mesh, state, model), 0.0, atol=1e-15)


def test_average_update_hand_value():
    # Burgers, u_i = 1, u_{i+1} = 0, dx = 1: d(ubar)/dt = -(0 - 1/2) = 1/2
    model = Burgers()
    mesh = uniform_mesh(0.0, 2.0, 2, boundary="transmissive")
    state = AfState(np.array([[0.5], [0.0]]), np.array([[1.0], [0.0], [0.0]]))
    rate = _average_update(mesh, state, model)
    assert rate[0, 0] == pytest.approx(0.5)
    assert rate[1, 0] == pytest.approx(0.0)


def test_average_update_telescopes(rng):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 32, boundary="transmissive")
    points = rng.uniform(0.1, 1.0, (mesh.ndof, 1))
    averages = 0.5 * (points[:-1] + points[1:])
    state = AfState(averages, points)
    rate = _average_update(mesh, state, model)
    total = (mesh.cell_sizes[:, None] * rate).sum(axis=0)
    expected = -(model.flux(points[-1]) - model.flux(points[0]))
    np.testing.assert_allclose(total, expected, atol=1e-14)


def test_point_update_upwind_sides_for_advection():
    model = Advection(a=1.0)
    mesh = uniform_mesh(0.0, 1.0, 4, boundary="periodic")
    x = mesh.dof_x[:, None]
    state = AfState(np.sin(2 * np.pi * mesh.cell_centers)[:, None], np.sin(2 * np.pi * x))
    rate = point_update(mesh, state, model, state.points)
    # a > 0: only the left-cell slope feeds the node
    mids = recover_midpoint(
        state.averages, state.points[mesh.cell_dofs[:, 0]], state.points[mesh.cell_dofs[:, 1]]
    )
    dx = mesh.cell_sizes[:, None]
    left_slope = (3.0 * state.points[mesh.cell_dofs[:, 1]] - 4.0 * mids + state.points[mesh.cell_dofs[:, 0]]) / dx
    expected = np.zeros_like(state.points)
    np.add.at(expected, mesh.cell_dofs[:, 1], -1.0 * left_slope)
    np.testing.assert_allclose(rate, expected, atol=1e-14)


def test_point_update_exact_for_quadratic_data():
    # v = x^2 at x = 0 has one-sided derivatives exactly zero
    model = Advection(a=1.0)
    mesh = uniform_mesh(-1.0, 1.0, 2, boundary="transmissive")
    xs = mesh.nodes
    points = (xs**2)[:, None]
    averages = np.array([[(xs[1] ** 3 - xs[0] ** 3) / 3.0], [(xs[2] ** 3 - xs[1] ** 3) / 3.0]])
    state = AfState(averages, points)
    rate = point_update(mesh, state, model, points)
    assert rate[1, 0] == pytest.approx(0.0, abs=1e-14)  # derivative of x^2 at x=0


def test_point_update_constant_data():
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 4, boundary="periodic")
    u = np.tile(np.array([1.0, 0.2, 2.5]), (4, 1))
    state = AfState(u.copy(), model.to_aux(u))
    np.testing.assert_allclose(point_update(mesh, state, model, u), 0.0, atol=1e-14)


def test_euler_split_matches_primitive_system_matrix(rng):
    # J = P (df/du) P^{-1} must be the primitive coefficient matrix
    # [[v, rho, 0], [0, v, 1/rho], [0, gamma p, v]]; check J+ + J- = J
    model = Euler(1.4)
    u = random_euler_states(rng, 40)
    w = model.to_aux(u)
    P = model.aux_jacobian(u)
    J = P @ model.jacobian(u) @ np.linalg.inv(P)
    rho, vel, pres = w[:, 0], w[:, 1], w[:, 2]
    expected = np.zeros_like(J)
    expected[:, 0, 0] = vel
    expected[:, 0, 1] = rho
    expected[:, 1, 1] = vel
    expected[:, 1, 2] = 1.0 / rho
    expected[:, 2, 1] = model.gamma * pres
    expected[:, 2, 2] = vel
    np.testing.assert_allclose(J, expected, atol=1e-10)

    d = rng.normal(size=w.shape)
    plus = model.primitive_split_apply(w, d, +1)
    minus = model.primitive_split_apply(w, d, -1)
    np.testing.assert_allclose(plus + minus, np.einsum("nij,nj->ni", J, d), rtol=1e-9, atol=1e-10)


def test_euler_split_agrees_with_eigendecomposition(rng):
    model = Euler(1.4)
    u = random_euler_states(rng, 25)
    w = model.to_aux(u)
    d = rng.normal(size=w.shape)
    fast = model.primitive_split_apply(w, d, +1)
    P = model.aux_jacobian(u)
    J = P @ model.jacobian(u) @ np.linalg.inv(P)
    lam, R = np.linalg.eig(J)
    lam_plus = np.maximum(lam.real, 0.0)
    amp = np.linalg.solve(R.real, d[..., None])[..., 0]
    slow = np.einsum("nij,nj->ni", R.real, lam_plus * amp)
    np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-10)


def test_af_integrate_conserves_averages_periodic():
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 64, boundary="periodic")
    state0 = initialize(model, mesh, lambda x: np.sin(np.pi * np.asarray(x))[..., None])
    record = af_integrate(model, mesh, state0, t_end=0.3)
    assert record.ledger.conservation_drift() <= 1e-13
    assert record.averages is not None


def test_af_integrate_sod_mass_ledger():
    from conserva.harness.cases import case_library

    case = case_library("sod")
    mesh = uniform_mesh(0.0, 1.0, 200, boundary="transmissive")
    state0 = initialize(case.model, mesh, case.u0)
    record = af_integrate(case.model, mesh, state0, t_end=0.1, detector=True)
    assert record.ledger.conservation_drift() <= 1e-12
    assert record.ledger.fallback_cells.sum() > 0  # the jump trips the detector


def test_a_library_record_converts_its_points_with_its_own_model():
    # a record made outside the harness carries no case, only the model it ran
    case = case_library("sod")
    mesh = uniform_mesh(0.0, 1.0, 20, boundary="transmissive")
    record = af_integrate(case.model, mesh, initialize(case.model, mesh, case.u0), t_end=0.01)
    assert record.case is None and record.model is case.model
    assert same_bits(record.conserved(-1), case.model.from_aux(record.final_state))


# ---------------------------------------------------------------------------
# detector path: base rates shared by re-runs, fallback at flagged nodes only
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["transmissive", "periodic"])
def sod_flagged(request):
    """Sod at nx=200 a few detector steps in, with cells flagged at both ends
    and around the diaphragm; the periodic variant drops the last node."""
    case = case_library("sod")
    mesh = uniform_mesh(*case.domain, 200, boundary="transmissive")
    state0 = initialize(case.model, mesh, case.u0)
    record = af_integrate(
        case.model, mesh, state0, t_end=case.t_end, detector=True, stop_after_steps=5
    )
    state = AfState(record.final_averages, record.final_state)
    if request.param == "periodic":
        mesh = uniform_mesh(*case.domain, 200, boundary="periodic")
        state = AfState(state.averages, state.points[:-1])
    flagged = np.zeros(mesh.ncell, dtype=bool)
    flagged[[0, 97, 98, 99, 100, 101, 150, 199]] = True
    return case.model, mesh, state, flagged


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_rhs_with_reused_base_equals_fresh_rhs(sod_flagged):
    model, mesh, state, flagged = sod_flagged
    base = _base_rates(mesh, state, model)
    for mask in (flagged, np.zeros_like(flagged)):
        plan = _fallback_plan(mesh, mask)
        fresh = _rhs(mesh, state, model, plan)
        reused = _rhs(mesh, state, model, plan, base)
        assert _bytes(reused) == _bytes(fresh)


def test_flagged_rhs_leaves_the_base_untouched(sod_flagged):
    model, mesh, state, flagged = sod_flagged
    base = _base_rates(mesh, state, model)
    before = _bytes(base)
    dub, dv, _ = _rhs(mesh, state, model, _fallback_plan(mesh, flagged), base)
    assert _bytes(base) == before
    assert not np.shares_memory(dv, base[2])


def test_fallback_at_flagged_nodes_equals_all_node_evaluation(sod_flagged):
    model, mesh, state, flagged = sod_flagged
    u_nodes, _, _ = _base_rates(mesh, state, model)
    plan = _fallback_plan(mesh, flagged)
    dv, bad_nodes, robust = _fallback_point_rate(state, model, plan, u_nodes)
    # the observer of the fallback reads a full DOF mask
    assert bad_nodes.shape == (mesh.ndof,) and bad_nodes.dtype == bool
    assert 0 < bad_nodes.sum() < mesh.ndof
    assert dv.shape == robust.shape == (bad_nodes.sum(), model.p)
    all_plan = _fallback_plan(mesh, np.ones(mesh.ncell, dtype=bool))
    dv_all, all_nodes, robust_all = _fallback_point_rate(state, model, all_plan, u_nodes)
    assert all_nodes.all()
    assert dv.tobytes() == dv_all[bad_nodes].tobytes()
    assert robust.tobytes() == robust_all[bad_nodes].tobytes()


def test_flagged_rhs_overrides_exactly_the_flagged_nodes(sod_flagged):
    model, mesh, state, flagged = sod_flagged
    u_nodes, _, dv_base = _base_rates(mesh, state, model)
    plan = _fallback_plan(mesh, flagged)
    _, dv, _ = _rhs(mesh, state, model, plan)
    dv_fb, bad_nodes, _ = _fallback_point_rate(state, model, plan, u_nodes)
    assert dv[bad_nodes].tobytes() == dv_fb.tobytes()
    assert dv[~bad_nodes].tobytes() == dv_base[~bad_nodes].tobytes()


def test_point_update_hands_its_node_states_to_the_split(monkeypatch):
    # burgers-sine nx=100 with the detector, 10 steps: 30 point updates, each
    # splitting both cell ends; the split reads the conserved states that
    # point_update gathered instead of converting the points again
    case = case_library("burgers-sine")
    mesh = uniform_mesh(*case.domain, 100, boundary=case.boundary)
    state0 = initialize(case.model, mesh, case.u0)
    counts = {"splits": 0, "from_aux": 0, "from_aux_in_split": 0}
    inside = []
    split, from_aux = Burgers.split_apply, Burgers.from_aux

    def counting_split(*args, **kwargs):
        counts["splits"] += 1
        inside.append(True)
        try:
            return split(*args, **kwargs)
        finally:
            inside.pop()

    def counting_from_aux(self, w):
        counts["from_aux"] += 1
        counts["from_aux_in_split"] += bool(inside)
        return from_aux(self, w)

    monkeypatch.setattr(Burgers, "split_apply", staticmethod(counting_split))
    monkeypatch.setattr(Burgers, "from_aux", counting_from_aux)
    record = af_integrate(
        case.model, mesh, state0, t_end=case.t_end, detector=True, stop_after_steps=10
    )
    assert len(record.ledger.time) == 11
    assert counts["splits"] == 60
    assert counts["from_aux_in_split"] == 0
    assert counts["from_aux"] > 0


def test_nan_point_speed_is_a_blow_up_not_a_failed_step(monkeypatch):
    # periodic shu-osher nx=32 without the detector: after the first step the
    # averages' speeds are finite but a point speed is NaN, which the CFL
    # speed must report instead of taking a dt and failing every halving
    import conserva.active_flux as af

    case = case_library("shu-osher")
    mesh = uniform_mesh(*case.domain, 32, boundary="periodic")
    state0 = initialize(case.model, mesh, case.u0)
    steps = []
    ssp3_step = af._ssp3_step

    def counting_step(*args, **kwargs):
        steps.append(1)
        return ssp3_step(*args, **kwargs)

    monkeypatch.setattr(af, "_ssp3_step", counting_step)
    with pytest.raises(RunError, match="blow-up at step 1") as excinfo:
        af_integrate(case.model, mesh, state0, t_end=case.t_end)
    assert excinfo.value.step == 1
    # the first step's non-finite attempt and its halved retry; none at step 1
    assert len(steps) == 2


@pytest.mark.parametrize("case_id, detector", [
    ("advection-sine", False), ("burgers-sine", False),
    ("sod", True), ("shu-osher", True), ("burgers-sine", True),
])
def test_each_ssp_run_admits_its_candidate_once(case_id, detector, monkeypatch):
    # one node bundle per SSPRK3 run of a step, re-runs included, plus the
    # initial point check and the initial state's bundle; 30 steps take
    # burgers-sine past its first shock
    import conserva.active_flux as active_flux

    case = case_library(case_id)
    mesh = uniform_mesh(*case.domain, 64, boundary=case.boundary)
    model = case.model
    calls = {"node_kernels": 0, "ssp3": 0}
    node_kernels, ssp3_step = type(model).node_kernels, active_flux._ssp3_step

    def counting_bundle(self, *args, **kwargs):
        calls["node_kernels"] += 1
        return node_kernels(self, *args, **kwargs)

    def counting_step(*args):
        calls["ssp3"] += 1
        return ssp3_step(*args)

    monkeypatch.setattr(type(model), "node_kernels", counting_bundle)
    monkeypatch.setattr(active_flux, "_ssp3_step", counting_step)
    state0 = initialize(model, mesh, case.u0)
    steps = 30
    record = af_integrate(model, mesh, state0, t_end=10 * case.t_end, detector=detector,
                          stop_after_steps=steps)
    assert record.ledger.nsteps == steps
    assert calls["node_kernels"] == calls["ssp3"] + 2
    # with the detector on, each of these runs re-runs some step
    assert (calls["ssp3"] > steps) if detector else (calls["ssp3"] == steps)


def test_af_integrate_rejects_a_cfl_above_the_scheme_limit_before_the_first_step(monkeypatch):
    # the library call used to accept any positive CFL: at 0.415 advection-sine
    # nx=100 ran 1928 steps to t = 16 and returned an L1 error of ~1e18
    import conserva.active_flux as active_flux

    case = case_library("advection-sine")
    mesh = uniform_mesh(*case.domain, 100, boundary=case.boundary)
    state0 = initialize(case.model, mesh, case.u0)
    steps = []
    ssp3_step = active_flux._ssp3_step
    monkeypatch.setattr(active_flux, "_ssp3_step",
                        lambda *args: steps.append(1) or ssp3_step(*args))
    with pytest.raises(ConfigError) as excinfo:
        af_integrate(case.model, mesh, state0, cfl=0.415, t_end=16.0)
    assert steps == []
    # one rule with the run configuration, which says the same
    with pytest.raises(ConfigError) as config_error:
        RunConfig(case="advection-sine", scheme="active-flux", cfl=0.415).validate()
    assert str(excinfo.value) == str(config_error.value)

    record = af_integrate(case.model, mesh, state0, cfl=0.4, t_end=16.0, stop_after_steps=20)
    assert record.ledger.nsteps == 20 and len(steps) == 20
