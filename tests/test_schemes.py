import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conserva import corrections
from conserva.active_flux import AfState, af_integrate, initialize
from conserva.errors import ConfigError, RunError
from conserva.harness import build_problem
from conserva.mesh import uniform_mesh
from conserva.models import Advection, Burgers, Euler, NodeKernels
from conserva.records import ACTIVE_FLUX, INTEGRATORS, SCHEMES, SSP_STAGES, RunConfig
from conserva.schemes import (
    NumericalFlux,
    _ssp_combine,
    _totals,
    fv_residuals_1d,
    integrate,
    rd_step,
    residual_assembler,
    supg_residuals_1d,
)

from conftest import element_defect, random_euler_states, same_bits


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------


def test_rusanov_burgers_riemann_value():
    model = Burgers()
    left, right = NodeKernels.of(model, [1.0]), NodeKernels.of(model, [0.0])
    f = NumericalFlux("rusanov")(left, right)
    assert f == pytest.approx(0.75)  # (0.5 + 0)/2 + (1/2)*1*1


@pytest.mark.parametrize("kind", ["rusanov", "central"])
def test_flux_consistency(kind, rng):
    model = Euler(1.4)
    flux = NumericalFlux(kind)
    nodes = NodeKernels.of(model, random_euler_states(rng, 1000))
    np.testing.assert_allclose(flux(nodes, nodes), nodes.flux, rtol=1e-13)


def test_flux_lipschitz_spot_check(rng):
    model = Burgers()
    flux = NumericalFlux("rusanov")
    u = rng.uniform(-1, 1, (500, 1))
    v = NodeKernels.of(model, rng.uniform(-1, 1, (500, 1)))
    eps = 1e-6
    base = flux(NodeKernels.of(model, u), v)
    bumped = flux(NodeKernels.of(model, u + eps), v)
    assert np.abs(bumped - base).max() <= 5.0 * eps  # bounded sensitivity


def test_unknown_flux_kind():
    with pytest.raises(ConfigError):
        NumericalFlux("wild")


# ---------------------------------------------------------------------------
# finite volume as residual distribution
# ---------------------------------------------------------------------------


def test_fv_residuals_constant_states_vanish():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="periodic")
    states = np.full((mesh.ndof, 1), 0.7)
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    np.testing.assert_allclose(res.phi, 0.0, atol=1e-15)


def test_fv_residuals_hand_values():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[1.0], [0.0], [0.0]])
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    assert res.phi[0, 0, 0] == pytest.approx(0.25)  # 0.75 - f(1)
    assert res.phi[1, 0, 0] == pytest.approx(-0.75)  # f(0) - 0.75
    assert res.phi[:, 0].sum() == pytest.approx(-0.5)  # f(uR) - f(uL)


def test_fv_residuals_conservation_defect(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 64, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    scale = np.abs(res.phi).max()
    assert np.abs(element_defect(res)).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
@pytest.mark.parametrize(
    "scheme_id", [name for name, row in SCHEMES.items() if row.base != ACTIVE_FLUX]
)
def test_residual_sets_hold_one_cell_end_layout(scheme_id, boundary, rng):
    # (2, ncell, p), as gather_cell_ends returns and scatter_cell_ends takes
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 17, boundary=boundary)
    nodes = NodeKernels.of(model, random_euler_states(rng, mesh.ndof))
    res = residual_assembler(scheme_id, model, mesh)(nodes, 1e-3)
    for array in (res.phi, res.boundary_parts):
        assert array.shape == (2, mesh.ncell, 3) and array.flags.c_contiguous
    assert res.ncell == mesh.ncell
    want = np.zeros((mesh.ndof, 3))
    np.add.at(want, mesh.cell_dofs[:, 0], res.phi[0])
    np.add.at(want, mesh.cell_dofs[:, 1], res.phi[1])
    assert same_bits(res.scatter_to_dofs(mesh.ndof), want)


@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
def test_entropy_correction_keeps_the_cell_end_layout(boundary, rng):
    # the corrected residuals and the report's corrections are (2, ncell, p)
    # arrays of their own, not views of a per-cell copy
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 17, boundary=boundary)
    nodes = NodeKernels.of(model, random_euler_states(rng, mesh.ndof))
    res = fv_residuals_1d(mesh, nodes, NumericalFlux("central"))
    corrected, report = corrections.entropy_correction(res, nodes, model)
    assert (report.alpha > 0).any()
    for array in (corrected.phi, report.corrections):
        assert array.shape == (2, mesh.ncell, 3) and array.flags.c_contiguous
        assert array.base is None


def test_fv_residual_update_equals_flux_form(rng):
    # residual-form step == direct flux-form finite volume update
    model = Burgers()
    for boundary in ("periodic", "transmissive"):
        mesh = uniform_mesh(-1.0, 1.0, 50, boundary=boundary)
        states = rng.uniform(-1.0, 1.0, (mesh.ndof, 1))
        flux = NumericalFlux("rusanov")
        res = fv_residuals_1d(mesh, NodeKernels.of(model, states), flux)
        dt = 1e-3
        updated = rd_step(mesh, states, res, dt)

        left, right = (NodeKernels.of(model, states[mesh.cell_dofs[:, k]]) for k in (0, 1))
        fhat = flux(left, right)
        expected = states.copy()
        if boundary == "periodic":
            diff = fhat - np.roll(fhat, 1, axis=0)
            expected -= dt / mesh.volumes[:, None] * diff
        else:
            full = np.vstack([model.flux(states[0])[None], fhat, model.flux(states[-1])[None]])
            expected -= dt / mesh.volumes[:, None] * (full[1:] - full[:-1])
        np.testing.assert_allclose(updated, expected, atol=1e-13)


@pytest.mark.parametrize("extra", [-1, 1, 4])
@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
def test_a_row_count_other_than_ndof_raises_config_error(boundary, extra):
    # the cell-end gather reads rows by stride: unchecked, extra rows are
    # ignored and ncell rows on a transmissive mesh take the periodic layout
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 4, boundary=boundary)
    states = np.linspace(0.1, 0.9, mesh.ndof + extra)[:, None]
    nodes = NodeKernels.of(model, states)
    with pytest.raises(ConfigError, match=f"expected {mesh.ndof} states"):
        fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov"))
    with pytest.raises(ConfigError, match=f"expected {mesh.ndof} states"):
        supg_residuals_1d(mesh, nodes, model)
    assemble = residual_assembler("fv-rusanov", model, mesh)
    with pytest.raises(ConfigError, match=rf"u0 must be \({mesh.ndof}, p\)"):
        integrate(model, mesh, states, assemble, cfl=0.4, t_end=0.1)


# ---------------------------------------------------------------------------
# SUPG
# ---------------------------------------------------------------------------


def test_supg_constant_state_zero_residuals():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 6, boundary="periodic")
    states = np.full((mesh.ndof, 1), 2.0)
    res = supg_residuals_1d(mesh, NodeKernels.of(model, states), model)
    np.testing.assert_allclose(res.phi, 0.0, atol=1e-13)


def test_supg_element_sum_is_boundary_flux(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 32, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    res = supg_residuals_1d(mesh, NodeKernels.of(model, states), model)
    f = model.flux(states)
    expected = f[mesh.cell_dofs[:, 1]] - f[mesh.cell_dofs[:, 0]]
    np.testing.assert_allclose(res.phi.sum(axis=0), expected, rtol=1e-12, atol=1e-12)


def test_supg_advection_reduces_to_upwind():
    # tau = 1/(2|a|) makes the scheme fully upwind: hand-assembled oracle
    model = Advection(a=1.0)
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[0.3], [0.9], [0.1]])
    res = supg_residuals_1d(mesh, NodeKernels.of(model, states), model)
    for cell in range(2):
        u_l, u_r = states[cell, 0], states[cell + 1, 0]
        assert res.phi[0, cell, 0] == pytest.approx(0.0, abs=1e-14)
        assert res.phi[1, cell, 0] == pytest.approx(u_r - u_l)


# ---------------------------------------------------------------------------
# stepping and integration
# ---------------------------------------------------------------------------


def test_rd_step_zero_residuals_is_identity():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="periodic")
    states = np.linspace(-1, 1, mesh.ndof)[:, None]
    nodes = NodeKernels.of(model, np.full_like(states, 0.5))
    res = fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov"))
    np.testing.assert_allclose(rd_step(mesh, states, res, 0.1), states, atol=1e-16)


def test_rd_step_total_update_telescopes(rng):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 40, boundary="transmissive")
    states = rng.uniform(-1, 1, (mesh.ndof, 1))
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    dt = 2e-3
    updated = rd_step(mesh, states, res, dt)
    change = (mesh.volumes[:, None] * (updated - states)).sum(axis=0)
    boundary = -dt * (model.flux(states[-1]) - model.flux(states[0]))
    np.testing.assert_allclose(change, boundary, atol=1e-14)


def test_rd_step_single_riemann_cell_matches_hand_update():
    model = Burgers()
    mesh = uniform_mesh(0.0, 2.0, 2, boundary="transmissive")
    states = np.array([[1.0], [1.0], [0.0]])
    res = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    dt = 0.1
    updated = rd_step(mesh, states, res, dt)
    # middle DOF: fhat(1,0) - fhat(1,1) = 0.75 - 0.5, volume 1
    assert updated[1, 0] == pytest.approx(1.0 - 0.1 * (0.75 - 0.5))
    # right DOF: f(0) - fhat(1,0) over half volume
    assert updated[2, 0] == pytest.approx(0.0 - 0.1 / 0.5 * (0.0 - 0.75))


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf"), -float("inf")],
                         ids=["zero", "negative", "nan", "inf", "minus-inf"])
def test_rd_step_rejects_a_dt_that_is_not_positive_and_finite(dt):
    # nan and inf used to pass the dt <= 0 test and return non-finite states
    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme="fv-rusanov", nx=16))
    nodes = NodeKernels.of(case.model, u0)
    res = fv_residuals_1d(mesh, nodes, NumericalFlux("rusanov"))
    with pytest.raises(ConfigError, match="dt must be positive and finite"):
        rd_step(mesh, u0, res, dt)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=500, deadline=None)
@given(u=_FINITE, r=_FINITE, c=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
@example(u=-0.0, r=0.0, c=1.0)
@example(u=-0.0, r=-0.0, c=0.0)
@example(u=0.0, r=0.0, c=2.0)
@example(u=5e-324, r=5e-324, c=1.0)
@example(u=-5e-324, r=-5e-324, c=1.0)
def test_a_zero_one_stage_is_its_new_states_bitwise(u, r, c):
    # a stage's new states are x = u - c * r (residual update, c = dt / volume)
    # or u + c * r (active flux); the (0, 1) combination must keep their bits
    u, r, c = np.float64(u), np.float64(r), np.float64(c)
    with np.errstate(over="ignore"):
        for x in (u - c * r, u + c * r):
            assert same_bits(0.0 * u + 1.0 * x, x)
            assert _ssp_combine(0.0, u, 1.0, x) is x


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(min_value=2, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decades=st.integers(min_value=0, max_value=8),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
@example(p=1, n=2, seed=0, decades=0, zero_share=1.0)
@example(p=3, n=2, seed=0, decades=0, zero_share=1.0)
def test_ledger_totals_are_the_bits_of_the_weighted_row_sum(p, n, seed, decades, zero_share):
    # _totals(w, x) books every ledger row; it must keep the bits of
    # (w[:, None] * x).sum(axis=0), the row-by-row sum for p > 1 and the
    # pairwise one numpy takes for p = 1, signed zeros included
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-decades, decades + 1, n)
    states = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-decades, decades + 1, (n, p))
    zeros = rng.random((n, p)) < zero_share
    states[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    assert same_bits(_totals(weights, states), (weights[:, None] * states).sum(axis=0))


def _layouts(u0):
    """u0 C-ordered, Fortran-ordered and as a view of every other row."""
    return [np.ascontiguousarray(u0), np.asfortranarray(u0), np.repeat(u0, 2, axis=0)[::2]]


def _assert_same_runs(records):
    first, *others = records
    for record in others:
        for name, want in vars(first.ledger).items():
            assert same_bits(getattr(record.ledger, name), want), name
        assert len(record.states) == len(first.states)
        assert all(same_bits(got, want) for got, want in zip(record.states, first.states))
        assert record.averages is None or all(
            same_bits(got, want) for got, want in zip(record.averages, first.averages)
        )


@pytest.mark.parametrize("nx", [200, 333, 1000])
def test_the_ledger_does_not_depend_on_the_memory_layout_of_u0(nx):
    # numpy sums an F-ordered (ndof, 3) product pairwise and a C-ordered one
    # row by row, so the first ledger row used to follow the layout of u0
    case, mesh, u0 = build_problem(RunConfig(case="sod", scheme="fv-rusanov", nx=nx))
    u0 = u0 * (1.0 + 1e-3 * np.random.default_rng(nx).standard_normal(u0.shape))
    assemble = residual_assembler("fv-rusanov", case.model, mesh)
    _assert_same_runs([integrate(case.model, mesh, u, assemble, cfl=0.4, t_end=0.01)
                       for u in _layouts(u0)])


def test_the_two_field_ledger_does_not_depend_on_the_memory_layout_of_the_state():
    case, mesh, _ = build_problem(RunConfig(case="sod", scheme="active-flux", nx=333))
    state0 = initialize(case.model, mesh, case.u0)
    rng = np.random.default_rng(333)
    averages = state0.averages * (1.0 + 1e-3 * rng.standard_normal(state0.averages.shape))
    _assert_same_runs([
        af_integrate(case.model, mesh, AfState(a, v), t_end=0.01, detector=True)
        for a, v in zip(_layouts(averages), _layouts(state0.points))
    ])


def _shu_osher_flux_weights(stages):
    """Each stage's rate weight in the whole step, derived from the (a, b)
    coefficients: every later stage scales the rates before it by its b."""
    weights = []
    for _, b, _ in stages:
        weights = [b * w for w in weights]
        weights.append(b)
    return weights


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_ssp_table_flux_weights_are_the_shu_osher_derivation(integrator):
    # the ledger books boundary flux with these weights, so they must equal the
    # derived ones bit for bit, and a consistent step weighs its rates to 1
    weights = [w for _, _, w in SSP_STAGES[integrator]]
    assert weights == _shu_osher_flux_weights(SSP_STAGES[integrator])
    assert sum(weights) == 1.0


def _advection_setup(n, cfl=0.4):
    model = Advection(a=1.0)
    mesh = uniform_mesh(-1.0, 1.0, n, boundary="periodic")
    u0 = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("rusanov")
    assemble = lambda nodes, dt: fv_residuals_1d(mesh, nodes, flux)
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


def test_integrate_rejects_an_unknown_integrator():
    model, mesh, u0, assemble = _advection_setup(16)
    with pytest.raises(ConfigError, match="rk4"):
        integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.1, integrator="rk4")


def test_integrate_blowup_raises_run_error():
    # central flux on a shock finally produces non-finite values
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 50, boundary="periodic")
    u0 = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("central")
    assemble = lambda nodes, dt: fv_residuals_1d(mesh, nodes, flux)
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
        flux = NumericalFlux("central")
        assemble = lambda nodes, dt: fv_residuals_1d(mesh, nodes, flux)
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


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("problem", [_rd_problem, _af_problem], ids=["integrate", "af_integrate"])
def test_marching_loop_rejects_a_non_finite_end_time(problem, t_end):
    # both used to return after 0 steps: the loop test t < t_end - 1e-13 * t_end
    # is false when either side is nan
    march, _ = problem(blowup=False)
    with pytest.raises(ConfigError):
        march(t_end=t_end)


@pytest.mark.parametrize(
    "cfl", [0.0, -0.4, float("inf"), float("nan")], ids=["zero", "negative", "inf", "nan"]
)
@pytest.mark.parametrize("scheme", ["fv-rusanov", "active-flux"])
def test_marching_loop_rejects_a_cfl_that_is_not_positive_and_finite(scheme, cfl):
    # zero took steps of dt = 0 up to MAX_STEPS, a negative number marched
    # backwards, inf took all of t_end in one step and nan ended in RunError
    # after every dt halving; the step limit keeps a loop that accepts them short
    case, mesh, u0 = build_problem(RunConfig(case="burgers-sine", scheme=scheme, nx=16))
    settings = dict(cfl=cfl, t_end=case.t_end, stop_after_steps=5)
    with pytest.raises(ConfigError, match="cfl"):
        with np.errstate(all="ignore"):
            if scheme == "active-flux":
                af_integrate(case.model, mesh, initialize(case.model, mesh, case.u0), **settings)
            else:
                assemble = residual_assembler(scheme, case.model, mesh)
                integrate(case.model, mesh, u0, assemble, **settings)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_integrate_boundary_accounting_transmissive(integrator, rng):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 2.0, 60, boundary="transmissive")
    u0 = np.where(mesh.dof_x < 0, 1.0, 0.0)[:, None]
    flux = NumericalFlux("rusanov")
    assemble = lambda nodes, dt: fv_residuals_1d(mesh, nodes, flux)
    record = integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.5, integrator=integrator)
    assert record.ledger.conservation_drift() <= 1e-12


def test_integrate_rejects_an_inadmissible_forward_euler_stage():
    from conserva.schemes import ResidualSet

    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    u0 = np.tile(np.array([1.0, 0.0, 2.5]), (3, 1))

    def assemble(nodes, dt):
        # a residual large enough to drive the middle density negative at any dt
        phi = np.zeros((2, 2, 3))
        phi[0, 1, 0] = 10.0 * mesh.volumes[1] / dt
        return ResidualSet(mesh.cell_dofs, phi, phi.copy(), np.zeros(3))

    with pytest.raises(RunError, match="inadmissible state at DOF 1") as excinfo:
        integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.1, integrator="euler")
    assert excinfo.value.step == 0
    assert excinfo.value.__cause__.location == 1


class _GappedBurgers(Burgers):
    """Burgers whose admissible set leaves out (0.4, 0.6): not convex, so an
    SSP stage can combine two admissible states into an inadmissible one."""

    def admissible_mask(self, u):
        u = np.asarray(u, dtype=float)
        gap = (u[..., 0] > 0.4) & (u[..., 0] < 0.6)
        return super().admissible_mask(u) & ~gap


@pytest.mark.parametrize("target", [
    # every forward-Euler stage lands on u = 1; SSPRK2's second stage
    # averages that with u^n = 0 into 0.5, whatever the dt
    lambda u: 1.0,
    # stage 1 lands on u = 1 and stage 2's forward-Euler candidate on 0.5,
    # which SSPRK2 would combine into the admissible 0.25: SSP rests on
    # every candidate being admissible, not only on the combination
    lambda u: np.where(u < 0.25, 1.0, 0.5),
], ids=["combination", "candidate"])
def test_integrate_rejects_an_inadmissible_combined_stage(target):
    from conserva.schemes import ResidualSet

    model = _GappedBurgers()
    mesh = uniform_mesh(0.0, 1.0, 4)
    u0 = np.zeros((mesh.ndof, 1))

    def assemble(nodes, dt):
        u = nodes.states
        phi = np.zeros((2, mesh.ncell, 1))
        phi[0] = (u - target(u)) * (mesh.volumes / dt)[:, None]
        return ResidualSet(mesh.cell_dofs, phi, np.zeros_like(phi), np.zeros(1))

    with pytest.raises(RunError, match="inadmissible state at DOF 0") as excinfo:
        integrate(model, mesh, u0, assemble, cfl=0.4, t_end=0.1, integrator="ssprk2")
    assert excinfo.value.step == 0

