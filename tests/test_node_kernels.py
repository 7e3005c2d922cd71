"""Residuals read one checked node bundle per stage and still match the
per-cell formulas.

The reference functions below evaluate the model on gathered cell ends, as
the residuals did before ``NodeKernels``; every kernel is elementwise, so the
bundle path must agree with them bit for bit, not just to rounding.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conserva import corrections
from conserva.errors import DomainError
from conserva.harness import build_problem
from conserva.mesh import gather_cell_ends, scatter_cell_ends, uniform_mesh
from conserva.models import ADMISSIBLE_FLOOR, Burgers, Euler, NodeKernels
from conserva.records import RunConfig
from conserva.schemes import (
    NumericalFlux,
    fv_residuals_1d,
    integrate,
    residual_assembler,
    supg_residuals_1d,
)

from conftest import post_defect, random_euler_states, same_bits

BOUNDARIES = ("periodic", "transmissive")
SEEDS = range(6)

# ---------------------------------------------------------------------------
# reference formulas on gathered cell ends
# ---------------------------------------------------------------------------


def _ends(mesh, values):
    return values[mesh.cell_dofs[:, 0]], values[mesh.cell_dofs[:, 1]]


def _closure_reference(mesh, states, model):
    if mesh.periodic:
        return np.zeros(states.shape[1])
    return model.flux(states[-1]) - model.flux(states[0])


def _fhat_reference(kind, u_left, u_right, model):
    if kind == "rusanov":
        alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
        avg = 0.5 * (model.flux(u_left) + model.flux(u_right))
        return +1 * (avg - 0.5 * alpha[..., None] * (u_right - u_left))
    return +1 * 0.5 * (model.flux(u_left) + model.flux(u_right))


def _fv_reference(mesh, states, kind, model):
    u_left, u_right = _ends(mesh, states)
    fhat = _fhat_reference(kind, u_left, u_right, model)
    f_left = model.flux(u_left)
    f_right = model.flux(u_right)
    phi = np.stack([fhat - f_left, f_right - fhat])
    bparts = np.stack([-f_left, f_right])
    return phi, bparts, _closure_reference(mesh, states, model)


def _supg_reference(mesh, states, model, tau_scale=1.0):
    u_left, u_right = _ends(mesh, states)
    h = mesh.cell_sizes[:, None]
    speed = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    tau = np.divide(tau_scale, 2.0 * speed, out=np.zeros_like(speed), where=speed > 1e-300)
    tau = tau[:, None]
    f_left = model.flux(u_left)
    f_right = model.flux(u_right)
    phi = np.stack([-f_left, f_right])
    du_dx = (u_right - u_left) / h
    nodes, weights = np.polynomial.legendre.leggauss(3)
    for xi, wq in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        u_q = u_left + xi * (u_right - u_left)
        f_q = model.flux(u_q)
        A_q = model.jacobian(u_q)
        advect = np.einsum("kij,kj->ki", A_q, du_dx)
        stab = np.einsum("kji,kj->ki", A_q, tau * advect)
        phi[0] += wq * f_q - wq * h * stab
        phi[1] += -wq * f_q + wq * h * stab
    bparts = np.stack([-f_left, f_right])
    return phi, bparts, _closure_reference(mesh, states, model)


def _entropy_reference(residuals, states, model):
    """(corrected phi, alpha, r, pre_defect, post_defect, clamped elements).

    The formulas run per cell on (2, ncell, p) stacks of the two cell ends,
    the layout of the residuals."""
    dofs = residuals.cell_dofs
    v = model.entropy_variables(states)
    v_cells = np.stack([v[dofs[:, 0]], v[dofs[:, 1]]])
    u_left = states[dofs[:, 0]]
    u_right = states[dofs[:, 1]]
    g_bound = model.entropy_flux(u_right) - model.entropy_flux(u_left)
    production = np.einsum("dkp,dkp->k", v_cells, residuals.phi)
    deficit = g_bound - production
    v_bar = v_cells.mean(axis=0)
    centered = v_cells - v_bar
    denom = np.einsum("dkp,dkp->k", centered, centered)
    vbar_scale = np.maximum(np.einsum("kp,kp->k", v_bar, v_bar), 1.0)
    degenerate = denom < corrections.DEGENERATE_TOLERANCE * vbar_scale
    needs_fix = deficit > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(needs_fix & ~degenerate, deficit / denom, 0.0)
    speed = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    cap = corrections.ALPHA_CLAMP_FACTOR * np.maximum(speed, 1e-300)
    clamped = alpha > cap
    alpha = np.minimum(alpha, cap) if clamped.any() else alpha
    r = alpha[:, None] * centered
    phi = residuals.phi + r
    post = np.einsum("dkp,dkp->k", v_cells, phi) - g_bound
    return phi, alpha, r, -deficit, post, np.flatnonzero(clamped)


def _gas_reference(mesh, model, u, dt):
    phi_b, bparts, closure = _fv_reference(mesh, u, "rusanov", model)
    phi_rho = phi_b[..., 0]
    phi_mom = phi_b[..., 1]
    dofs = mesh.cell_dofs
    u_left, u_right = _ends(mesh, u)
    vel_l, vel_r = u_left[:, 1] / u_left[:, 0], u_right[:, 1] / u_right[:, 0]
    e_l = u_left[:, 2] - 0.5 * u_left[:, 1] * vel_l
    e_r = u_right[:, 2] - 0.5 * u_right[:, 1] * vel_r
    p_l, p_r = (model.gamma - 1.0) * e_l, (model.gamma - 1.0) * e_r
    alpha = np.maximum(model.max_wave_speed(u_left), model.max_wave_speed(u_right))
    total = (e_r * vel_r - e_l * vel_l) + 0.5 * (p_l + p_r) * (vel_r - vel_l)
    phi_e = np.stack(
        [0.5 * total - 0.5 * alpha * (e_r - e_l), 0.5 * total + 0.5 * alpha * (e_r - e_l)],
    )
    incr = np.zeros((mesh.ndof, 2))
    np.add.at(incr, dofs[:, 0], phi_b[0, :, :2])
    np.add.at(incr, dofs[:, 1], phi_b[1, :, :2])
    rho_new = u[:, 0] - dt / mesh.volumes * incr[:, 0]
    mom_new = u[:, 1] - dt / mesh.volumes * incr[:, 1]
    v_old = u[:, 1] / u[:, 0]
    v_new = mom_new / rho_new if dt > 0 else v_old
    f_energy = model.flux(u)[:, 2]
    target = f_energy[dofs[:, 1]] - f_energy[dofs[:, 0]]
    vh = (0.5 * (v_new + v_old))[dofs.T]
    vp = (0.5 * (v_new * v_old))[dofs.T]
    # the total-energy residual: the increment identity's right-hand side,
    # shifted per element to sum to the boundary energy flux
    terms = phi_e + vh * phi_mom - vp * phi_rho
    phi_energy = terms + (target - terms.sum(axis=0)) / phi_e.shape[0]
    phi = np.concatenate([phi_b[..., :2], phi_energy[..., None]], axis=2)
    return phi, bparts, closure


def _admissible_reference(u):
    finite = np.isfinite(u).all(axis=-1)
    safe = np.where(finite[..., None], u, 1.0)
    rho = safe[..., 0]
    vel = safe[..., 1] / rho
    e_int = safe[..., 2] - 0.5 * safe[..., 1] * vel
    return finite & (rho > ADMISSIBLE_FLOOR) & (e_int > ADMISSIBLE_FLOOR)


# ---------------------------------------------------------------------------
# random admissible node states
# ---------------------------------------------------------------------------


def _problem(model_name, boundary, seed):
    rng = np.random.default_rng(seed)
    mesh = uniform_mesh(-1.0, 1.0, int(rng.integers(2, 60)), boundary=boundary)
    if model_name == "burgers":
        model = Burgers()
        states = rng.uniform(-2.0, 2.0, (mesh.ndof, 1))
        # repeated neighbours and signed zeros, where the entropy correction is degenerate
        states[rng.random(mesh.ndof) < 0.2] = 0.0
        states[rng.random(mesh.ndof) < 0.1] = -0.0
    else:
        model = Euler(1.4)
        states = random_euler_states(rng, mesh.ndof)
    return mesh, model, states


def _assert_residuals_equal(got, want):
    phi, bparts, closure = want
    assert same_bits(got.phi, phi)
    assert same_bits(got.boundary_parts, bparts)
    assert same_bits(got.boundary_outflux, closure)


CASES = [(m, b, s) for m in ("burgers", "euler") for b in BOUNDARIES for s in SEEDS]


@pytest.mark.parametrize("kind", ["rusanov", "central"])
@pytest.mark.parametrize("model_name,boundary,seed", CASES)
def test_fv_residuals_match_per_cell_formulas_bitwise(kind, model_name, boundary, seed):
    mesh, model, states = _problem(model_name, boundary, seed)
    flux = NumericalFlux(kind)
    want = _fv_reference(mesh, states, kind, model)
    _assert_residuals_equal(fv_residuals_1d(mesh, NodeKernels.of(model, states), flux), want)
    # the two-state call applies the same expression
    u_left, u_right = states[mesh.cell_dofs[:, 0]], states[mesh.cell_dofs[:, 1]]
    fhat = flux(NodeKernels.of(model, u_left), NodeKernels.of(model, u_right))
    assert same_bits(fhat, _fhat_reference(kind, u_left, u_right, model))


@pytest.mark.parametrize("model_name,boundary,seed", CASES)
def test_supg_residuals_match_per_cell_formulas_bitwise(model_name, boundary, seed):
    mesh, model, states = _problem(model_name, boundary, seed)
    want = _supg_reference(mesh, states, model, tau_scale=0.7)
    nodes = NodeKernels.of(model, states)
    _assert_residuals_equal(supg_residuals_1d(mesh, nodes, model, tau_scale=0.7), want)


@pytest.mark.parametrize("kind", ["rusanov", "central"])
@pytest.mark.parametrize("model_name,boundary,seed", CASES)
def test_entropy_correction_matches_per_cell_formulas_bitwise(kind, model_name, boundary, seed):
    mesh, model, states = _problem(model_name, boundary, seed)
    nodes = NodeKernels.of(model, states)
    base = fv_residuals_1d(mesh, nodes, NumericalFlux(kind))
    phi, alpha, r, pre, post, clamped = _entropy_reference(base, states, model)
    corrected, report = corrections.entropy_correction(base, nodes, model)
    assert same_bits(corrected.phi, phi)
    assert same_bits(report.alpha, alpha)
    assert same_bits(report.corrections, r)
    assert same_bits(report.pre_defect, pre)
    assert same_bits(post_defect(corrected, states, model), post)
    assert same_bits(report.clamped, clamped)
    assert corrected.alpha_max == (float(alpha.max()) if len(alpha) else 0.0)


def test_entropy_correction_fires_in_the_oracle_cases():
    # the oracle above must see the correction act, not only alpha = 0
    active = 0
    for model_name, boundary, seed in CASES:
        mesh, model, states = _problem(model_name, boundary, seed)
        nodes = NodeKernels.of(model, states)
        base = fv_residuals_1d(mesh, nodes, NumericalFlux("central"))
        active += int((corrections.entropy_correction(base, nodes, model)[1].alpha > 0).sum())
    assert active > 0


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dt", [0.0, 1e-3, 10.0])
def test_gas_scheme_assembly_matches_per_cell_formulas_bitwise(boundary, seed, dt):
    # dt = 10 drives rho_new negative somewhere: the nan path must agree too
    mesh, model, states = _problem("euler", boundary, seed)
    nodes = NodeKernels.of(model, states)
    with np.errstate(all="ignore"):
        want = _gas_reference(mesh, model, states, dt)
        got = residual_assembler("nc-energy-corrected", model, mesh)(nodes, dt)
    _assert_residuals_equal(got, want)


def _gas_unshared_reference(mesh, model, u, dt):
    """The two-field assembly with every energy term formed where it is used:
    phi_e through np.stack and the new density and momentum each with its
    own dt / volumes."""
    nodes = model.node_kernels(u)
    base = fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov"))
    phi_rho = base.phi[..., 0]
    phi_mom = base.phi[..., 1]
    dofs = mesh.cell_dofs
    v_old = u[:, 1] / u[:, 0]
    e_int = u[:, 2] - 0.5 * u[:, 1] * v_old
    v_old_cells = gather_cell_ends(v_old, dofs)
    vel_l, vel_r = v_old_cells
    e_l, e_r = gather_cell_ends(e_int, dofs)
    p_l, p_r = gather_cell_ends((model.gamma - 1.0) * e_int, dofs)
    speed_l, speed_r = gather_cell_ends(nodes.speed, dofs)
    alpha = np.maximum(speed_l, speed_r)
    total = (e_r * vel_r - e_l * vel_l) + 0.5 * (p_l + p_r) * (vel_r - vel_l)
    phi_e = np.stack(
        [0.5 * total - 0.5 * alpha * (e_r - e_l), 0.5 * total + 0.5 * alpha * (e_r - e_l)],
    )
    incr = scatter_cell_ends(base.phi[0, :, :2], base.phi[1, :, :2], mesh.ndof)
    rho_new = u[:, 0] - dt / mesh.volumes * incr[:, 0]
    mom_new = u[:, 1] - dt / mesh.volumes * incr[:, 1]
    with np.errstate(all="ignore"):
        v_new = mom_new / rho_new if dt > 0 else v_old
    nodal_e_flux = base.boundary_parts[..., 2]
    v_new_cells = gather_cell_ends(v_new, dofs)
    vh_cells = 0.5 * (v_new_cells + v_old_cells)
    vp_cells = 0.5 * (v_new_cells * v_old_cells)
    terms = phi_e + vh_cells * phi_mom - vp_cells * phi_rho
    r = (nodal_e_flux[1] + nodal_e_flux[0] - terms.sum(axis=0)) / phi_e.shape[0]
    phi = base.phi
    phi[..., 2] = terms + r
    return phi, base.boundary_parts, base.boundary_outflux


@st.composite
def _gas_problems(draw):
    """(mesh, model, states): random admissible gas states, some at rest with
    a signed zero momentum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boundary = draw(st.sampled_from(BOUNDARIES))
    mesh = uniform_mesh(-1.0, 1.0, int(rng.integers(2, 60)), boundary=boundary)
    model = Euler(draw(st.floats(1.1, 3.0)))
    states = random_euler_states(rng, mesh.ndof, model.gamma)
    resting = rng.random(mesh.ndof) < 0.3
    states[resting, 1] = np.copysign(0.0, rng.choice([1.0, -1.0], size=resting.sum()))
    return mesh, model, states


@settings(max_examples=80, deadline=None)
@given(problem=_gas_problems(), dt=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
def test_gas_assembly_equals_its_unshared_formulas_bitwise(problem, dt):
    # large dt drives the new density negative somewhere: the nan path too
    mesh, model, states = problem
    assemble = residual_assembler("nc-energy-corrected", model, mesh)
    with np.errstate(all="ignore"):
        want = _gas_unshared_reference(mesh, model, states, dt)
        _assert_residuals_equal(assemble(NodeKernels.of(model, states), dt), want)


def _entropy_pair_from_states(model, u):
    """The entropy variables and entropy flux of gas states u, each formed from
    the states alone, as the model did before its bundle kept its decomposition."""
    g = model.gamma
    rho = u[:, 0]
    vel = u[:, 1] / rho
    pres = (g - 1.0) * (u[:, 2] - 0.5 * u[:, 1] * vel)
    s = np.log(pres) - g * np.log(rho)
    v = np.empty_like(u)
    v[:, 0] = g - s - 0.5 * (g - 1.0) * rho * vel**2 / pres
    v[:, 1] = (g - 1.0) * rho * vel / pres
    v[:, 2] = -(g - 1.0) * rho / pres
    return v, vel * (rho * (g * np.log(rho) - np.log(pres)))


@settings(max_examples=80, deadline=None)
@given(problem=_gas_problems(), dt=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_property_bundle_fed_kernels_equal_their_from_states_formulas(problem, dt):
    # what the entropy correction and the gas assembly read off the bundle,
    # with and without its entropy, against formulas from the states alone
    mesh, model, u = problem
    v_want, g_want = _entropy_pair_from_states(model, u)
    for nodes in (NodeKernels.of(model, u, entropy=True), NodeKernels.of(model, u)):
        assert same_bits(model.entropy_variables(u, nodes), v_want)
        assert same_bits(model.entropy_flux(u, nodes), g_want)
        with np.errstate(all="ignore"):
            got = residual_assembler("nc-energy-corrected", model, mesh)(nodes, dt)
            want = _gas_reference(mesh, model, u, dt)
        _assert_residuals_equal(got, want)

    # the boundary parts that FV and SUPG sets form where they are read
    u_left, u_right = _ends(mesh, u)
    bparts = np.stack([-model.flux(u_left), model.flux(u_right)])
    nodes = NodeKernels.of(model, u)
    for residuals in (fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov")),
                      supg_residuals_1d(mesh, nodes, model)):
        assert same_bits(residuals.boundary_parts, bparts)


@pytest.mark.parametrize("scheme_id", ["fv-rusanov", "fv-entropy-corrected", "nc-energy-corrected"])
def test_a_residual_stage_decomposes_its_states_once(scheme_id, monkeypatch):
    # the rd-sod schemes: the stage bundle's decomposition is the only one, as
    # the entropy correction and the gas assembly read theirs off the bundle
    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme=scheme_id, nx=50))
    model = case.model
    assemble = residual_assembler(scheme_id, model, mesh)
    calls = []
    decompose = Euler._decompose
    monkeypatch.setattr(Euler, "_decompose",
                        lambda self, u: calls.append(np.shape(u)) or decompose(self, u))
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end, stop_after_steps=1)
    assert record.ledger.nsteps == 1
    # the initial states' admission, then one forward-Euler stage
    assert calls == [(mesh.ndof, 3)] * 2


def test_an_unfired_entropy_correction_makes_one_einsum_reduction(monkeypatch):
    # the production v . phi and nothing else: without an element to fix there
    # is no denominator, and the report holds no post-correction defect
    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme="fv-entropy-corrected", nx=50))
    model = case.model
    assemble = residual_assembler("fv-entropy-corrected", model, mesh)
    calls = []
    einsum, correction = np.einsum, corrections.entropy_correction.__code__

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code is correction:
            calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end, stop_after_steps=1)
    assert record.ledger.nsteps == 1 and record.ledger.alpha_max[1] == 0.0
    assert calls == ["dkp,dkp->k"]


@pytest.mark.parametrize(
    "scheme_id", ["fv-rusanov", "fv-entropy-corrected", "supg", "nc-energy-corrected"]
)
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_assembler_hands_one_bundle_to_base_and_corrections(scheme_id, boundary, monkeypatch):
    mesh, model, states = _problem("euler", boundary, 3)
    assemble = residual_assembler(scheme_id, model, mesh, 0.7)
    nodes = NodeKernels.of(model, states)
    want = assemble(nodes, 1e-3)
    # every model evaluation at a set of states: a bundle, or a bare flux
    calls = []
    for name in ("node_kernels", "flux"):
        original = getattr(Euler, name)
        monkeypatch.setattr(
            Euler, name,
            lambda self, u, *args, _name=name, _fn=original: (
                calls.append((_name, np.shape(u))) or _fn(self, u, *args)
            ),
        )
    got = assemble(nodes, 1e-3)
    assert same_bits(got.phi, want.phi)
    # the assembler reads the bundle it is handed and builds none: fv and the
    # gas scheme evaluate the model nowhere else, supg at three quadrature points
    if scheme_id == "supg":
        assert calls == [("flux", (mesh.ncell, 3))] * 3
    else:
        assert calls == []


@pytest.mark.parametrize("leading", [(), (7,), (5, 4)])
@pytest.mark.parametrize("component", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_euler_admissible_mask_equals_its_reduction_form(leading, component, bad):
    rng = np.random.default_rng(component)
    u = random_euler_states(rng, int(np.prod(leading, dtype=int))).reshape(leading + (3,))
    u[..., 0] *= rng.choice([1.0, -1.0], size=leading)  # some finite but inadmissible
    flat = u.reshape(-1, 3)
    flat[::2, component] = bad
    flat[1::3, (component + 1) % 3] = -bad
    got = Euler(1.4).admissible_mask(u)
    want = _admissible_reference(u)
    assert np.shape(got) == np.shape(want) == leading
    assert same_bits(got, want)
    assert not np.asarray(got).reshape(-1)[0]


def _gas_admissible_reference(w):
    finite = np.isfinite(w).all(axis=-1)
    safe = np.where(finite[..., None], w, 1.0)
    return finite & (safe[..., 0] > ADMISSIBLE_FLOOR) & (safe[..., 2] > ADMISSIBLE_FLOOR)


@pytest.mark.parametrize("leading", [(), (7,), (5, 4)])
@pytest.mark.parametrize("component", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gas_scheme_admissible_mask_equals_its_reduction_form(leading, component, bad):
    # the gas scheme marches conserved states with its model watched: that
    # model's mask must admit exactly the states whose (rho, m, e) form has a
    # finite, positive density and internal energy
    rng = np.random.default_rng(component)
    model = Euler(1.4)
    u = random_euler_states(rng, int(np.prod(leading, dtype=int))).reshape(leading + (3,))
    w = u.copy()
    w[..., 2] = u[..., 2] - 0.5 * u[..., 1] ** 2 / u[..., 0]
    w[..., 0] *= rng.choice([1.0, -1.0], size=leading)  # some finite but inadmissible
    flat = w.reshape(-1, 3)
    flat[::2, component] = bad
    flat[1::3, (component + 1) % 3] = -bad
    with np.errstate(all="ignore"):
        u = w.copy()
        u[..., 2] = w[..., 2] + 0.5 * w[..., 1] ** 2 / w[..., 0]
    got = model.node_kernels(u).admissible
    want = _gas_admissible_reference(w)
    assert np.shape(got) == np.shape(want) == leading
    assert same_bits(got, want)
    assert same_bits(got, model.admissible_mask(u))
    assert not np.asarray(got).reshape(-1)[0]


# ---------------------------------------------------------------------------
# raw states pass one door, which names the DOF of an inadmissible one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_id", ["fv-rusanov", "supg"], ids=["fv", "supg"])
def test_domain_error_carries_the_dof_index(scheme_id):
    # the last DOF of a transmissive mesh is only a right cell end: its cell
    # row is ndof - 2, its DOF index ndof - 1
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="transmissive")
    states = random_euler_states(np.random.default_rng(0), mesh.ndof)
    states[-1, 0] = -1.0
    assemble = residual_assembler(scheme_id, model, mesh)
    for admit in (
        lambda: NodeKernels.of(model, states),
        lambda: integrate(model, mesh, states, assemble, cfl=0.4, t_end=0.1),
    ):
        with pytest.raises(DomainError) as excinfo:
            admit()
        assert excinfo.value.index == (mesh.ndof - 1,)
        assert same_bits(excinfo.value.state, states[-1])


def test_node_kernels_of_rejects_inadmissible_states():
    # a negative density and a negative internal energy, each named by its row
    model = Euler(1.4)
    for bad, row in (([-1.0, 0.0, 1.0], 1), ([1.0, 0.0, -1.0], 0)):
        states = np.array([[1.0, 0.0, 2.5], [1.0, 0.0, 2.5]])
        states[row] = bad
        with pytest.raises(DomainError) as excinfo:
            NodeKernels.of(model, states)
        assert excinfo.value.index == (row,)


@pytest.mark.parametrize("row", [[np.nan, 0.0, 1.0], [1.0, 0.0, -1.0]], ids=["nan", "pressure"])
def test_integrate_names_an_inadmissible_initial_row(row):
    # a nan density or a negative pressure makes march's first wave speed nan:
    # the door must name the row before march reports a blow-up at step 0
    from conserva.harness.runner import build_problem
    from conserva.records import RunConfig

    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme="fv-rusanov", nx=32))
    u0[10] = row
    assemble = residual_assembler("fv-rusanov", case.model, mesh)
    with pytest.raises(DomainError) as excinfo:
        integrate(case.model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end)
    assert excinfo.value.index == (10,)


# ---------------------------------------------------------------------------
# integrate evaluates each accepted state once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_id, integrator", [
    ("fv-rusanov", "euler"), ("fv-entropy-corrected", "euler"), ("nc-energy-corrected", "euler"),
    ("fv-rusanov", "ssprk2"), ("fv-rusanov", "ssprk3"),
])
def test_integrate_evaluates_each_accepted_state_once(scheme_id, integrator, monkeypatch):
    from conserva.harness.runner import build_problem
    from conserva.records import SSP_STAGES, RunConfig
    from conserva.schemes import integrate

    steps = 12
    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme=scheme_id, nx=64))
    model = case.model
    calls = {"node_kernels": 0, "max_wave_speed": 0, "entropy": 0, "admissible_mask": 0}
    for name in calls:
        original = getattr(Euler, name)

        def counting(self, *args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(Euler, name, counting)

    assemble = residual_assembler(scheme_id, model, mesh)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end,
                       integrator=integrator, stop_after_steps=steps)
    assert record.ledger.nsteps == steps
    # the initial state and every stage state: one bundle each, read by the
    # CFL speed, the ledger's entropy and the next stage's assembly alike
    nstages = len(SSP_STAGES[integrator])
    assert calls["node_kernels"] == steps * nstages + 1
    assert calls["max_wave_speed"] == calls["entropy"] == 0
    # a (0, 1) stage's state is its forward-Euler candidate, checked by its
    # bundle's mask alone; a combined stage also masks its candidate
    assert calls["admissible_mask"] == steps * (nstages - 1)
