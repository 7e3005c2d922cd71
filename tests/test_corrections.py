import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conserva.corrections import entropy_correction, nonconservative_energy_correction
from conserva.errors import CorrectionError
from conserva.mesh import uniform_mesh
from conserva.models import Burgers, Euler, NodeKernels
from conserva.schemes import (
    NumericalFlux,
    fv_residuals_1d,
    integrate,
    residual_assembler,
)

from conftest import element_defect, energy_identity_defect, post_defect, random_euler_states


def _burgers_residuals(states, boundary="transmissive"):
    model = Burgers()
    mesh = uniform_mesh(0.0, float(len(states) - 1), len(states) - 1, boundary=boundary)
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    return model, mesh, res


def test_entropy_residuals_zero_for_zero_residuals():
    # pre_defect: production sum_sigma v_sigma . Phi_sigma minus the boundary
    # entropy flux, both zero on constant states
    states = np.array([[0.4], [0.4], [0.4]])
    model, _, res = _burgers_residuals(states)
    _, report = entropy_correction(res, NodeKernels.of(model, states), model)
    np.testing.assert_allclose(report.pre_defect, 0.0, atol=1e-15)


def test_entropy_residuals_hand_value():
    # Riemann cell (1, 0): v_L * Phi_L = 1 * (0.75 - 0.5) = 0.25 and
    # v_R * Phi_R = 0 * (0 - 0.75), so the production is 0.25; the boundary
    # entropy flux is g(0) - g(1) = -1/3 with g = u^3 / 3
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[1.0], [1.0], [0.0]])
    nodes = NodeKernels.of(model, states)
    res = fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov"))
    _, report = entropy_correction(res, nodes, model)
    assert report.pre_defect[1] == pytest.approx(0.25 - (0.0 - 1.0 / 3.0))


def test_entropy_correction_inactive_when_defect_nonpositive():
    states = np.array([[1.0], [1.0], [0.0]])
    model, _, res = _burgers_residuals(states)
    corrected, report = entropy_correction(res, NodeKernels.of(model, states), model)
    np.testing.assert_array_equal(corrected.phi, res.phi)  # Rusanov already stable
    np.testing.assert_array_equal(report.alpha, 0.0)


def test_entropy_correction_formula_value():
    # one element with deficit 0.3 and direction norm delta^2 / 2 = 0.1 -> alpha 3
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    delta = np.sqrt(0.2)
    states = np.array([[-delta / 2], [delta / 2], [delta / 2]])
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("central"))
    # entropy production v . phi on element 0 is g_bound - 0.3; element 1 has
    # equal end states, so its boundary entropy flux and production are zero
    g = model.entropy_flux(states)
    res.phi[...] = 0.0
    res.phi[1, 0] = (g[1] - g[0] - 0.3) / (delta / 2)

    corrected, report = entropy_correction(res, NodeKernels.of(model, states), model)
    assert report.alpha[0] == pytest.approx(3.0)
    assert report.alpha[1] == 0.0
    assert post_defect(corrected, states, model)[0] == pytest.approx(0.0, abs=1e-12)
    # correction keeps the element conservation relation intact
    np.testing.assert_allclose(element_defect(corrected), element_defect(res), atol=1e-13)
    np.testing.assert_allclose(corrected.phi.sum(axis=0), res.phi.sum(axis=0), atol=1e-13)


def test_entropy_correction_constant_states_alpha_zero():
    states = np.full((5, 1), 0.8)
    model, _, res = _burgers_residuals(states)
    corrected, report = entropy_correction(res, NodeKernels.of(model, states), model)
    np.testing.assert_array_equal(report.alpha, 0.0)
    np.testing.assert_array_equal(corrected.phi, res.phi)


def test_entropy_correction_degenerate_direction_raises():
    # equal entropy variables on element 0, whose production -0.5 leaves a
    # deficit 0.5 below its zero boundary entropy flux
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[0.5], [0.5], [0.5]])
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    res.phi[:, 0] = [[-1.0], [0.0]]

    with pytest.raises(CorrectionError) as excinfo:
        entropy_correction(res, NodeKernels.of(model, states), model)
    np.testing.assert_array_equal(excinfo.value.elements, [0])


def test_entropy_correction_zero_sum_per_element(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 32, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    nodes = NodeKernels.of(model, states)
    res = fv_residuals_1d(mesh, nodes, NumericalFlux("central"))
    corrected, report = entropy_correction(res, nodes, model)
    np.testing.assert_allclose(report.corrections.sum(axis=0), 0.0, atol=1e-13)
    assert post_defect(corrected, states, model).min() >= -1e-12


# ---------------------------------------------------------------------------
# energy identity and the two-field correction
# ---------------------------------------------------------------------------


def test_energy_identity_no_change():
    assert energy_identity_defect(1.0, 0.5, 2.0, 1.0, 0.5, 2.0) == pytest.approx(0.0)


def test_energy_identity_hand_case():
    # (rho, v, e): (1, 0, 1) -> (2, 1, 1): dE = 1, rhs = 0 + 0.5*2 - 0 = 1
    assert energy_identity_defect(1.0, 0.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_energy_identity_random_sweep(rng):
    n = 10_000
    rho0, rho1 = rng.uniform(0.1, 5.0, (2, n))
    v0, v1 = rng.uniform(-3.0, 3.0, (2, n))
    e0, e1 = rng.uniform(0.1, 5.0, (2, n))
    defect = energy_identity_defect(rho0, v0, e0, rho1, v1, e1)
    scale = np.abs(e1 - e0) + 0.5 * np.abs(rho1 * v1**2 - rho0 * v0**2) + 1.0
    assert (defect / scale).max() <= 1e-14


def test_nc_energy_correction_identity_already_satisfied():
    phi_rho = np.zeros((2, 1))
    phi_mom = np.zeros((2, 1))
    phi_e = np.array([[0.25], [0.75]])
    v = np.zeros((2, 1))
    corrected, r = nonconservative_energy_correction(
        phi_rho, phi_mom, phi_e, v, v, np.array([1.0])
    )
    assert r[0] == pytest.approx(0.0)
    np.testing.assert_array_equal(corrected, phi_e)


def test_nc_energy_correction_uniform_share():
    # three-DOF element, target - current = 0.6 -> r = 0.2 on every DOF
    phi_rho = np.zeros((3, 1))
    phi_mom = np.zeros((3, 1))
    phi_e = np.array([[0.1], [0.2], [0.3]])
    v = np.zeros((3, 1))
    corrected, r = nonconservative_energy_correction(
        phi_rho, phi_mom, phi_e, v, v, np.array([1.2])
    )
    assert r[0] == pytest.approx(0.2)
    np.testing.assert_allclose(corrected, [[0.3], [0.4], [0.5]])


def test_nc_energy_correction_returns_the_total_energy_residual():
    # terms = phi_e + v_half_sum * phi_mom - v_half_prod * phi_rho = (1.5, -0.5)
    # sum to 1 against a boundary flux of 3 -> r = 1 on both DOFs
    corrected, r = nonconservative_energy_correction(
        np.array([[1.0], [1.0]]), np.array([[2.0], [0.0]]), np.zeros((2, 1)),
        np.ones((2, 1)), np.full((2, 1), 0.5), np.array([3.0]),
    )
    np.testing.assert_array_equal(r, [1.0])
    np.testing.assert_array_equal(corrected, [[2.5], [0.5]])


def test_nc_scheme_total_energy_moves_only_through_boundaries():
    # full Sod run vs the ledger's boundary account
    from conserva.harness.runner import run
    from conserva.records import RunConfig

    config = RunConfig(case="sod", scheme="nc-energy-corrected", nx=120, t_end=0.15)
    record = run(config)
    assert record.ledger.conservation_drift() <= 1e-11


def test_nc_scheme_residual_set_is_locally_conservative():
    from conserva.harness.runner import build_problem
    from conserva.records import RunConfig

    config = RunConfig(case="sod", scheme="nc-energy-corrected", nx=64)
    case, mesh, u0 = build_problem(config)
    assemble = residual_assembler(config.scheme, case.model, mesh)
    res = assemble(NodeKernels.of(case.model, u0), 1e-4)
    defect = np.abs(element_defect(res)).max()
    assert defect <= 1e-12 * max(np.abs(res.phi).max(), 1.0)


# ---------------------------------------------------------------------------
# zero-sum guarantees, property-based
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


@st.composite
def _node_states(draw, models=("burgers", "euler")):
    model_name = draw(st.sampled_from(models))
    boundary = draw(st.sampled_from(["periodic", "transmissive"]))
    mesh = uniform_mesh(-1.0, 1.0, draw(st.integers(2, 40)), boundary=boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model_name == "burgers":
        model = Burgers()
        states = rng.uniform(-2.0, 2.0, (mesh.ndof, 1))
        states[rng.random(mesh.ndof) < 0.2] = 0.5  # flat stretches
    else:
        model = Euler(draw(st.floats(1.1, 3.0)))
        states = random_euler_states(rng, mesh.ndof, gamma=model.gamma)
    return model, mesh, states


@settings(max_examples=150, deadline=None)
@given(_node_states(), st.sampled_from(["rusanov", "central"]))
def test_entropy_correction_sums_to_zero_in_every_element(problem, kind):
    model, mesh, states = problem
    nodes = NodeKernels.of(model, states)
    base = fv_residuals_1d(mesh, nodes, NumericalFlux(kind))
    corrected, report = entropy_correction(base, nodes, model)
    v = model.entropy_variables(states)[mesh.cell_dofs.T]  # (2, ncell, p)
    # r = alpha (v - v_bar): each entry carries one rounding of v - v_bar
    scale = report.alpha[:, None] * np.abs(v).sum(axis=0)
    assert (np.abs(report.corrections.sum(axis=0)) <= 4 * EPS * scale).all()
    # so the element sums, and with them conservation, are unchanged up to
    # that sum and the roundings of phi + r and of the defects, which
    # subtract the boundary parts
    terms = np.abs(base.phi) + np.abs(report.corrections) + np.abs(base.boundary_parts)
    shift = element_defect(corrected) - element_defect(base)
    assert (np.abs(shift) <= 8 * EPS * terms.sum(axis=0) + 4 * EPS * scale).all()


@settings(max_examples=150, deadline=None)
@given(_node_states(models=("euler",)), st.floats(0.0, 1e-3))
def test_energy_correction_closes_every_element(problem, dt):
    model, mesh, states = problem
    res = residual_assembler("nc-energy-corrected", model, mesh)(NodeKernels.of(model, states), dt)
    # every component's residuals sum to their boundary parts, the total
    # energy's included; its terms are the internal-energy residuals and the
    # density/momentum ones weighted by the velocities before and after the
    # density/momentum update
    incr = res.scatter_to_dofs(mesh.ndof)
    v_old = states[:, 1] / states[:, 0]
    v_new = ((states[:, 1] - dt / mesh.volumes * incr[:, 1])
             / (states[:, 0] - dt / mesh.volumes * incr[:, 0]))
    vh = np.abs(0.5 * (v_new + v_old))[mesh.cell_dofs.T]
    vp = np.abs(0.5 * v_new * v_old)[mesh.cell_dofs.T]
    terms = np.abs(res.phi) + np.abs(res.boundary_parts)
    terms[..., 2] += (np.abs(_internal_energy_residuals(model, mesh, _to_internal(states)))
                      + vh * np.abs(res.phi[..., 1]) + vp * np.abs(res.phi[..., 0]))
    assert (np.abs(element_defect(res)) <= 16 * EPS * terms.sum(axis=0)).all()


# ---------------------------------------------------------------------------
# the corrected internal-energy scheme is a conserved-variable residual scheme
# ---------------------------------------------------------------------------


def _to_internal(u):
    """(rho, m, E) -> (rho, m, e) with e = E - m^2 / (2 rho)."""
    w = u.copy()
    w[:, 2] = u[:, 2] - 0.5 * u[:, 1] ** 2 / u[:, 0]
    return w


def _to_total(w):
    u = w.copy()
    u[:, 2] = w[:, 2] + 0.5 * w[:, 1] ** 2 / w[:, 0]
    return u


def _internal_energy_residuals(model, mesh, w):
    """Centred residuals of e_t + (e v)_x + p v_x = 0 with Rusanov damping, (2, ncell)."""
    left, right = mesh.cell_dofs.T
    vel = w[:, 1] / w[:, 0]
    e = w[:, 2]
    pres = (model.gamma - 1.0) * e
    alpha = np.maximum(*model.max_wave_speed(_to_total(w))[mesh.cell_dofs.T])
    total = (e[right] * vel[right] - e[left] * vel[left]) + 0.5 * (pres[left] + pres[right]) * (
        vel[right] - vel[left]
    )
    damping = 0.5 * alpha * (e[right] - e[left])
    return np.stack([0.5 * total - damping, 0.5 * total + damping])


def _scatter(mesh, phi):
    out = np.zeros((mesh.ndof,) + phi.shape[2:])
    np.add.at(out, mesh.cell_dofs[:, 0], phi[0])
    np.add.at(out, mesh.cell_dofs[:, 1], phi[1])
    return out


def _internal_energy_march(model, mesh, u0, cfl, t_end, steps):
    """The scheme marched in (rho, m, e) with forward Euler: Rusanov density
    and momentum residuals, the internal-energy residuals plus the energy
    correction's shift.  Returns (times, final conserved states)."""
    w = _to_internal(u0)
    flux = NumericalFlux("rusanov")
    h = float(mesh.volumes.min())
    times = [0.0]
    while len(times) <= steps and times[-1] < t_end:
        u = _to_total(w)
        dt = min(cfl * h / float(model.max_wave_speed(u).max()), t_end - times[-1])
        base = fv_residuals_1d(mesh, NodeKernels.of(model, u), flux)
        phi_rho, phi_mom = base.phi[..., 0], base.phi[..., 1]
        phi_e = _internal_energy_residuals(model, mesh, w)
        drho_dmom = _scatter(mesh, base.phi[..., :2]) * (dt / mesh.volumes)[:, None]
        v_old = w[:, 1] / w[:, 0]
        v_new = (w[:, 1] - drho_dmom[:, 1]) / (w[:, 0] - drho_dmom[:, 0])
        v_sum = (0.5 * (v_new + v_old))[mesh.cell_dofs.T]
        v_prod = (0.5 * v_new * v_old)[mesh.cell_dofs.T]
        e_flux = base.boundary_parts[..., 2].sum(axis=0)
        _, r = nonconservative_energy_correction(phi_rho, phi_mom, phi_e, v_sum, v_prod, e_flux)
        phi = np.concatenate([base.phi[..., :2], (phi_e + r)[..., None]], axis=2)
        w = w - (dt / mesh.volumes)[:, None] * _scatter(mesh, phi)
        times.append(times[-1] + dt)
    return np.array(times), _to_total(w)


@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
@pytest.mark.parametrize("case_id", ["sod", "shu-osher"])
def test_conserved_march_equals_the_corrected_internal_energy_march(case_id, boundary):
    # the paper's point: a scheme posed in non-conservative variables is, once
    # corrected, a locally conservative residual scheme; marching (rho, m, E)
    # with the total-energy residual takes the steps of the (rho, m, e) march
    from conserva.harness.runner import build_problem
    from conserva.records import RunConfig

    steps = 200
    config = RunConfig(case=case_id, scheme="nc-energy-corrected", nx=200, boundary=boundary)
    case, mesh, u0 = build_problem(config)
    assemble = residual_assembler(config.scheme, case.model, mesh)
    record = integrate(case.model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end,
                       stop_after_steps=steps)
    got = record.final_state
    times, want = _internal_energy_march(case.model, mesh, u0, 0.4, case.t_end, steps)
    assert record.ledger.nsteps == len(times) - 1 == steps
    np.testing.assert_allclose(record.ledger.time, times, rtol=1e-12, atol=0.0)
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got - want) / scale).max() <= 1e-12
    # and the conserved march keeps every total to rounding
    totals_scale = np.abs(record.ledger.totals[0]).max()
    assert record.ledger.conservation_drift() <= 1e-12 * totals_scale


# ---------------------------------------------------------------------------
# early exit when no element needs a fix
# ---------------------------------------------------------------------------


def _full_entropy_correction(residuals, states, model):
    """The whole formula, every step taken: (phi, alpha, r, pre, post, clamped, alpha_max).

    It runs on (2, ncell, p) stacks of the two cell ends, the layout of the
    residuals."""
    from conserva.corrections import ALPHA_CLAMP_FACTOR, DEGENERATE_TOLERANCE

    dofs = residuals.cell_dofs
    v = model.entropy_variables(states)
    v_cells = np.stack([v[dofs[:, 0]], v[dofs[:, 1]]])
    g = model.entropy_flux(states)
    g_bound = g[dofs[:, 1]] - g[dofs[:, 0]]
    deficit = g_bound - np.einsum("dkp,dkp->k", v_cells, residuals.phi)
    v_bar = v_cells.mean(axis=0)
    centered = v_cells - v_bar
    denom = np.einsum("dkp,dkp->k", centered, centered)
    vbar_scale = np.maximum(np.einsum("kp,kp->k", v_bar, v_bar), 1.0)
    degenerate = denom < DEGENERATE_TOLERANCE * vbar_scale
    needs_fix = deficit > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(needs_fix & ~degenerate, deficit / denom, 0.0)
    speed = model.max_wave_speed(states)
    cap = ALPHA_CLAMP_FACTOR * np.maximum(np.maximum(speed[dofs[:, 0]], speed[dofs[:, 1]]), 1e-300)
    clamped = alpha > cap
    alpha = np.minimum(alpha, cap) if clamped.any() else alpha
    r = alpha[:, None] * centered
    phi = residuals.phi + r
    post = np.einsum("dkp,dkp->k", v_cells, phi) - g_bound
    alpha_max = float(alpha.max()) if len(alpha) else 0.0
    return phi, alpha, r, -deficit, post, np.flatnonzero(clamped), alpha_max


def _no_fix_problem(model_name, seed):
    """Rusanov residuals that need no fix, with -0.0 entries among them."""
    rng = np.random.default_rng(seed)
    mesh = uniform_mesh(0.0, 1.0, int(rng.integers(4, 40)), boundary="periodic")
    if model_name == "burgers":
        model = Burgers()
        # plateaus give elements with equal ends, whose residuals are zero
        states = np.repeat(rng.uniform(-2.0, 2.0, mesh.ndof // 2 + 1), 2)[: mesh.ndof, None]
    else:
        model = Euler(1.4)
        states = random_euler_states(rng, mesh.ndof)
        states[rng.random(mesh.ndof) < 0.3] = states[0]
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    res.phi[res.phi == 0.0] = -0.0
    return model, states, res


@pytest.mark.parametrize("model_name", ["burgers", "euler"])
@pytest.mark.parametrize("seed", range(8))
def test_entropy_correction_early_exit_keeps_the_full_formula_bits(model_name, seed):
    from conftest import same_bits

    model, states, res = _no_fix_problem(model_name, seed)
    phi, alpha, r, pre, post, clamped, alpha_max = _full_entropy_correction(res, states, model)
    assert not alpha.any()  # the early exit's precondition: no element needs a fix
    for nodes in (NodeKernels.of(model, states), NodeKernels.of(model, states, entropy=True)):
        corrected, report = entropy_correction(res, nodes, model)
        # residuals and both defects keep the full formula's bits, signed zeros
        # included: the post-correction defect is measured on the corrected
        # residuals, so a zero there carries the sign the full formula gives it
        assert same_bits(corrected.phi, phi)
        assert same_bits(report.pre_defect, pre)
        assert same_bits(post_defect(corrected, states, model), post)
        assert same_bits(report.corrections, r)
        assert same_bits(report.alpha, alpha) and not report.alpha.any()
        assert report.clamped.size == 0 and same_bits(report.clamped, clamped)
        assert corrected.alpha_max == alpha_max == 0.0


def test_entropy_correction_early_exit_turns_minus_zero_residuals_into_plus_zero():
    # phi + 0 * (v - v_bar): an element with equal ends has v - v_bar = +0.0
    model, states, res = _no_fix_problem("burgers", 0)
    minus_zero = (res.phi == 0.0) & np.signbit(res.phi)
    assert minus_zero.any()
    corrected, _ = entropy_correction(res, NodeKernels.of(model, states), model)
    assert (~np.signbit(corrected.phi[minus_zero])).any()
