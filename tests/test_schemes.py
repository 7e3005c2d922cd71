import numpy as np
import pytest

from conserva.active_flux import af_integrate, initialize
from conserva.errors import ConfigError, GeometryError, RunError
from conserva.harness import build_problem
from conserva.mesh import uniform_mesh
from conserva.models import Advection, Burgers, Euler
from conserva.records import RunConfig
from conserva.schemes import (
    NumericalFlux,
    fv_residuals_1d,
    integrate,
    rd_step,
    rusanov,
    rusanov_2d,
    supg_residuals_1d,
    triangle_fv_residuals,
)

from conftest import random_euler_states


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------


def test_rusanov_burgers_riemann_value():
    model = Burgers()
    f = rusanov(+1, np.array([1.0]), np.array([0.0]), model)
    assert f == pytest.approx(0.75)  # (0.5 + 0)/2 + (1/2)*1*1
    assert rusanov(-1, np.array([1.0]), np.array([0.0]), model) == pytest.approx(-0.75)


@pytest.mark.parametrize("kind", ["rusanov", "central"])
def test_flux_consistency_and_antisymmetry(kind, rng):
    model = Euler(1.4)
    flux = NumericalFlux(kind, model)
    states = random_euler_states(rng, 1000)
    np.testing.assert_allclose(flux(+1, states, states), model.flux(states), rtol=1e-13)
    pairs = random_euler_states(rng, 2000).reshape(2, 1000, 3)
    forward = flux(+1, pairs[0], pairs[1])
    # antisymmetry in the normal with the arguments kept in place
    np.testing.assert_array_equal(flux(-1, pairs[0], pairs[1]), -forward)


def test_flux_lipschitz_spot_check(rng):
    model = Burgers()
    flux = NumericalFlux("rusanov", model)
    u = rng.uniform(-1, 1, (500, 1))
    v = rng.uniform(-1, 1, (500, 1))
    eps = 1e-6
    base = flux(+1, u, v)
    bumped = flux(+1, u + eps, v)
    assert np.abs(bumped - base).max() <= 5.0 * eps  # bounded sensitivity


def test_unknown_flux_kind():
    with pytest.raises(ConfigError):
        NumericalFlux("wild", Burgers())


# ---------------------------------------------------------------------------
# finite volume as residual distribution
# ---------------------------------------------------------------------------


def test_fv_residuals_constant_states_vanish():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="periodic")
    states = np.full((mesh.ndof, 1), 0.7)
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    np.testing.assert_allclose(res.phi, 0.0, atol=1e-15)


def test_fv_residuals_hand_values():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[1.0], [0.0], [0.0]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    assert res.phi[0, 0, 0] == pytest.approx(0.25)  # 0.75 - f(1)
    assert res.phi[0, 1, 0] == pytest.approx(-0.75)  # f(0) - 0.75
    assert res.phi[0].sum() == pytest.approx(-0.5)  # f(uR) - f(uL)


def test_fv_residuals_conservation_defect(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 64, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    scale = np.abs(res.phi).max()
    assert np.abs(res.element_defect()).max() <= 1e-12 * max(scale, 1.0)


def test_fv_residual_update_equals_flux_form(rng):
    # residual-form step == direct flux-form finite volume update
    model = Burgers()
    for boundary in ("periodic", "transmissive"):
        mesh = uniform_mesh(-1.0, 1.0, 50, boundary=boundary)
        states = rng.uniform(-1.0, 1.0, (mesh.ndof, 1))
        flux = NumericalFlux("rusanov", model)
        res = fv_residuals_1d(mesh, states, flux, model)
        dt = 1e-3
        updated = rd_step(mesh, states, res, dt)

        fhat = flux(+1, states[mesh.cell_dofs[:, 0]], states[mesh.cell_dofs[:, 1]])
        expected = states.copy()
        if boundary == "periodic":
            diff = fhat - np.roll(fhat, 1, axis=0)
            expected -= dt / mesh.volumes[:, None] * diff
        else:
            full = np.vstack([model.flux(states[0])[None], fhat, model.flux(states[-1])[None]])
            expected -= dt / mesh.volumes[:, None] * (full[1:] - full[:-1])
        np.testing.assert_allclose(updated, expected, atol=1e-13)


def test_fv_size_mismatch():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 4, boundary="periodic")
    with pytest.raises(ConfigError):
        fv_residuals_1d(mesh, np.zeros((9, 1)), NumericalFlux("rusanov", model), model)


# ---------------------------------------------------------------------------
# SUPG
# ---------------------------------------------------------------------------


def test_supg_constant_state_zero_residuals():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 6, boundary="periodic")
    states = np.full((mesh.ndof, 1), 2.0)
    res = supg_residuals_1d(mesh, states, model)
    np.testing.assert_allclose(res.phi, 0.0, atol=1e-13)


def test_supg_element_sum_is_boundary_flux(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 32, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    res = supg_residuals_1d(mesh, states, model)
    f = model.flux(states)
    expected = f[mesh.cell_dofs[:, 1]] - f[mesh.cell_dofs[:, 0]]
    np.testing.assert_allclose(res.phi.sum(axis=1), expected, rtol=1e-12, atol=1e-12)


def test_supg_advection_reduces_to_upwind():
    # tau = 1/(2|a|) makes the scheme fully upwind: hand-assembled oracle
    model = Advection(a=1.0)
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[0.3], [0.9], [0.1]])
    res = supg_residuals_1d(mesh, states, model)
    for cell in range(2):
        u_l, u_r = states[cell, 0], states[cell + 1, 0]
        assert res.phi[cell, 0, 0] == pytest.approx(0.0, abs=1e-14)
        assert res.phi[cell, 1, 0] == pytest.approx(u_r - u_l)


# ---------------------------------------------------------------------------
# single-triangle identity
# ---------------------------------------------------------------------------


def _triangle_normals(vertices):
    """Internal mid-edge-to-centroid normals (n12, n23, n31), rotated tangents."""
    centroid = vertices.mean(axis=0)
    mids = [0.5 * (vertices[i] + vertices[(i + 1) % 3]) for i in range(3)]
    normals = []
    for mid in mids:
        tangent = centroid - mid
        normals.append(np.array([tangent[1], -tangent[0]]))
    return np.stack(normals)


def _advection2d(a):
    phys = lambda u: np.stack([a[0] * u, a[1] * u], axis=-1)
    speed = lambda u: float(np.hypot(a[0], a[1]))
    return phys, rusanov_2d(phys, speed)


def test_triangle_constant_states_zero_total():
    phys, num = _advection2d((1.0, 0.5))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    normals = _triangle_normals(verts)
    states = np.full((3, 1), 2.0)
    phi, total = triangle_fv_residuals(states, normals, num, phys)
    assert abs(total).max() <= 1e-14
    np.testing.assert_allclose(phi.sum(axis=0), 0.0, atol=1e-14)


def test_triangle_identity_equilateral_distinct_states():
    phys, num = _advection2d((0.8, -0.3))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    normals = _triangle_normals(verts)
    states = np.array([[1.0], [-0.4], [2.5]])
    phi, total = triangle_fv_residuals(states, normals, num, phys)
    np.testing.assert_allclose(phi.sum(axis=0), total, atol=1e-13)


def test_triangle_state_swap_permutes_residuals():
    phys, num = _advection2d((0.8, -0.3))
    verts = np.array([[0.2, 0.1], [1.3, -0.2], [0.4, 1.1]])
    n12, n23, n31 = _triangle_normals(verts)
    states = np.array([[1.0], [-0.4], [2.5]])
    phi, _ = triangle_fv_residuals(states, np.stack([n12, n23, n31]), num, phys)
    # relabel vertices 2 <-> 3: the internal edges swap and flip orientation
    swapped = states[[0, 2, 1]]
    phi_s, _ = triangle_fv_residuals(swapped, np.stack([-n31, -n23, -n12]), num, phys)
    np.testing.assert_allclose(phi_s, phi[[0, 2, 1]], atol=1e-14)


def test_triangle_rejects_open_polygon():
    phys, num = _advection2d((1.0, 0.0))
    bad = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(GeometryError):
        triangle_fv_residuals(np.ones((3, 1)), bad, num, phys)


# ---------------------------------------------------------------------------
# stepping and integration
# ---------------------------------------------------------------------------


def test_rd_step_zero_residuals_is_identity():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="periodic")
    states = np.linspace(-1, 1, mesh.ndof)[:, None]
    res = fv_residuals_1d(mesh, np.full_like(states, 0.5), NumericalFlux("rusanov", model), model)
    np.testing.assert_allclose(rd_step(mesh, states, res, 0.1), states, atol=1e-16)


def test_rd_step_total_update_telescopes(rng):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 40, boundary="transmissive")
    states = rng.uniform(-1, 1, (mesh.ndof, 1))
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    dt = 2e-3
    updated = rd_step(mesh, states, res, dt)
    change = (mesh.volumes[:, None] * (updated - states)).sum(axis=0)
    boundary = -dt * (model.flux(states[-1]) - model.flux(states[0]))
    np.testing.assert_allclose(change, boundary, atol=1e-14)


def test_rd_step_single_riemann_cell_matches_hand_update():
    model = Burgers()
    mesh = uniform_mesh(0.0, 2.0, 2, boundary="transmissive")
    states = np.array([[1.0], [1.0], [0.0]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    dt = 0.1
    updated = rd_step(mesh, states, res, dt)
    # middle DOF: fhat(1,0) - fhat(1,1) = 0.75 - 0.5, volume 1
    assert updated[1, 0] == pytest.approx(1.0 - 0.1 * (0.75 - 0.5))
    # right DOF: f(0) - fhat(1,0) over half volume
    assert updated[2, 0] == pytest.approx(0.0 - 0.1 / 0.5 * (0.0 - 0.75))


def _advection_setup(n, cfl=0.4):
    model = Advection(a=1.0)
    mesh = uniform_mesh(-1.0, 1.0, n, boundary="periodic")
    u0 = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("rusanov", model)
    assemble = lambda states, dt: fv_residuals_1d(mesh, states, flux, model)
    return model, mesh, u0, assemble


def test_integrate_advection_one_period_returns_profile():
    model, mesh, u0, assemble = _advection_setup(100)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=2.0)
    err = (mesh.volumes[:, None] * np.abs(record.final_state - u0)).sum()
    assert err < 0.5  # first-order scheme, coarse bound on the periodic return
    drift = record.ledger.conservation_drift()
    assert drift <= 1e-12 * np.abs(u0).sum()


def test_integrate_constant_data_stays_constant():
    model, mesh, _, assemble = _advection_setup(32)
    u0 = np.full((mesh.ndof, 1), 0.3)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=1.0)
    np.testing.assert_allclose(record.final_state, u0, atol=1e-14)


def test_integrate_dt_halving_keeps_mass_ledger():
    model, mesh, u0, assemble = _advection_setup(64)
    rec_a = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.5)
    rec_b = integrate(model, mesh, u0, assemble, cfl=0.2, t_end=0.5)
    mass_a = rec_a.ledger.totals[-1]
    mass_b = rec_b.ledger.totals[-1]
    assert abs(mass_a - mass_b).max() <= 1e-12


def test_integrate_blowup_raises_run_error():
    # central flux on a shock finally produces non-finite values
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 50, boundary="periodic")
    u0 = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("central", model)
    assemble = lambda states, dt: fv_residuals_1d(mesh, states, flux, model)
    with pytest.raises(RunError) as excinfo:
        with np.errstate(all="ignore"):
            integrate(model, mesh, u0, assemble, cfl=0.9, t_end=50.0)
    assert excinfo.value.step is not None


def _rd_problem(blowup):
    """(march(**kwargs) -> record, t_end) for the residual integrator."""
    if blowup:  # central flux on a Burgers shock, as in the test above
        model = Burgers()
        mesh = uniform_mesh(-1.0, 1.0, 50, boundary="periodic")
        u0 = np.sin(np.pi * mesh.dof_x)[:, None]
        flux = NumericalFlux("central", model)
        assemble = lambda states, dt: fv_residuals_1d(mesh, states, flux, model)
        return lambda **kw: integrate(model, mesh, u0, assemble, cfl=0.9, **kw), 50.0
    model, mesh, u0, assemble = _advection_setup(32)
    return lambda **kw: integrate(model, mesh, u0, assemble, cfl=0.4, **kw), 0.5


def _af_problem(blowup):
    """(march(**kwargs) -> record, t_end) for the two-field integrator."""
    if blowup:  # Sod without the detector
        case, mesh, _ = build_problem(RunConfig(case="sod", scheme="active-flux", nx=100))
        state0 = initialize(case.model, mesh, case.u0)
        return lambda **kw: af_integrate(case.model, mesh, state0, **kw), 0.05
    model = Advection(a=1.0)
    mesh = uniform_mesh(-1.0, 1.0, 32, boundary="periodic")
    state0 = initialize(model, mesh, lambda x: np.sin(np.pi * x)[:, None])
    return lambda **kw: af_integrate(model, mesh, state0, **kw), 0.5


@pytest.mark.parametrize("problem", [_rd_problem, _af_problem], ids=["integrate", "af_integrate"])
def test_marching_loop_steps_snapshots_and_blowup(problem):
    march, t_end = problem(blowup=False)
    assert march(t_end=t_end, stop_after_steps=4).ledger.nsteps == 4

    record = march(t_end=t_end, snapshot_every=3)
    led_time = record.ledger.time
    expected = list(led_time[::3])
    if record.ledger.nsteps % 3:
        expected.append(led_time[-1])
    np.testing.assert_array_equal(record.times, expected)
    assert len(record.states) == len(record.times)
    assert record.times[-1] == t_end

    march, t_end = problem(blowup=True)
    with pytest.raises(RunError) as excinfo:
        with np.errstate(all="ignore"):
            march(t_end=t_end)
    assert excinfo.value.step is not None


@pytest.mark.parametrize("integrator", ["euler", "ssprk2", "ssprk3"])
def test_integrate_boundary_accounting_transmissive(integrator, rng):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 2.0, 60, boundary="transmissive")
    u0 = np.where(mesh.dof_x < 0, 1.0, 0.0)[:, None]
    flux = NumericalFlux("rusanov", model)
    assemble = lambda states, dt: fv_residuals_1d(mesh, states, flux, model)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.5, integrator=integrator)
    assert record.ledger.conservation_drift() <= 1e-12


def test_rd_step_rejects_inadmissible_result():
    from conserva.errors import StepRejectedError
    from conserva.schemes import ResidualSet

    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.tile(np.array([1.0, 0.0, 2.5]), (3, 1))
    # a residual large enough to drive the middle density negative
    phi = np.zeros((2, 2, 3))
    phi[0, 1, 0] = 100.0
    res = ResidualSet(mesh.cell_dofs, phi, phi.copy(), np.zeros((3, 3)))
    with pytest.raises(StepRejectedError) as excinfo:
        rd_step(mesh, states, res, 0.1, model=model)
    assert excinfo.value.location == 1


def test_rusanov_rejects_inadmissible_states():
    from conserva.errors import DomainError

    model = Euler(1.4)
    with pytest.raises(DomainError):
        rusanov(+1, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 2.5]), model)
