import numpy as np
import pytest

from conserva.corrections import (
    Constraint,
    energy_update_identity,
    entropy_correction,
    entropy_residuals,
    multi_constraint_correction,
    nonconservative_energy_correction,
)
from conserva.errors import ConfigError, CorrectionError
from conserva.mesh import uniform_mesh
from conserva.models import Burgers, Euler
from conserva.schemes import NumericalFlux, ResidualSet, fv_residuals_1d

from conftest import random_euler_states


def _burgers_residuals(states, boundary="transmissive"):
    model = Burgers()
    mesh = uniform_mesh(0.0, float(len(states) - 1), len(states) - 1, boundary=boundary)
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    return model, mesh, res


def test_entropy_residuals_zero_for_zero_residuals():
    states = np.array([[0.4], [0.4], [0.4]])
    model, _, res = _burgers_residuals(states)
    np.testing.assert_allclose(entropy_residuals(res, states, model), 0.0, atol=1e-15)


def test_entropy_residuals_hand_value():
    # Riemann cell (1, 0): Psi_L = v_L * Phi_L = 1 * (0.75 - 0.5) = 0.25
    states = np.array([[1.0], [0.0]])
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[1.0], [1.0], [0.0]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    psi = entropy_residuals(res, states, model)
    assert psi[1, 0] == pytest.approx(0.25)


def test_entropy_correction_inactive_when_defect_nonpositive():
    states = np.array([[1.0], [1.0], [0.0]])
    model, _, res = _burgers_residuals(states)
    corrected, report = entropy_correction(res, states, model)
    np.testing.assert_array_equal(corrected.phi, res.phi)  # Rusanov already stable
    np.testing.assert_array_equal(report.alpha, 0.0)


def test_entropy_correction_formula_value():
    # one element with engineered deficit 0.3 and direction norm 0.1 -> alpha 3
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    delta = np.sqrt(0.2)
    states = np.array([[-delta / 2], [delta / 2], [delta / 2]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("central", model), model)
    res.phi[...] = 0.0  # production = 0 on both elements
    res.boundary_parts[...] = 0.0

    def fabricated_entropy_flux(n, u_left, u_right):
        # element boundary integral becomes 0.3 on element 0 and 0 on element 1
        return n * np.where(np.asarray(u_left)[..., 0] > 0, 0.3, 0.0)

    corrected, report = entropy_correction(res, states, model, fabricated_entropy_flux)
    assert report.alpha[0] == pytest.approx(3.0)
    assert report.post_defect[0] == pytest.approx(0.0, abs=1e-12)
    # correction keeps the element conservation relation intact
    np.testing.assert_allclose(corrected.element_defect(), res.element_defect(), atol=1e-13)
    np.testing.assert_allclose(corrected.phi.sum(axis=1), res.phi.sum(axis=1), atol=1e-13)


def test_entropy_correction_constant_states_alpha_zero():
    states = np.full((5, 1), 0.8)
    model, _, res = _burgers_residuals(states)
    corrected, report = entropy_correction(res, states, model)
    np.testing.assert_array_equal(report.alpha, 0.0)
    np.testing.assert_array_equal(corrected.phi, res.phi)


def test_entropy_correction_degenerate_direction_raises():
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 2, boundary="transmissive")
    states = np.array([[0.5], [0.5], [0.5]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)

    def inflating_flux(n, u_left, u_right):
        return np.where(n > 0, 1.0, 0.0)  # fake positive boundary entropy flux

    with pytest.raises(CorrectionError) as excinfo:
        entropy_correction(res, states, model, inflating_flux)
    assert excinfo.value.elements is not None


def test_entropy_correction_zero_sum_per_element(rng):
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 32, boundary="periodic")
    states = random_euler_states(rng, mesh.ndof)
    res = fv_residuals_1d(mesh, states, NumericalFlux("central", model), model)
    corrected, report = entropy_correction(res, states, model)
    np.testing.assert_allclose(report.corrections.sum(axis=1), 0.0, atol=1e-13)
    assert report.post_defect.min() >= -1e-12


# ---------------------------------------------------------------------------
# multi-constraint least squares
# ---------------------------------------------------------------------------


def test_single_entropy_constraint_matches_entropy_correction():
    model = Burgers()
    mesh = uniform_mesh(0.0, 2.0, 2, boundary="transmissive")
    states = np.array([[0.2], [1.0], [1.0]])
    res = fv_residuals_1d(mesh, states, NumericalFlux("central", model), model)
    # engineered boundary entropy flux: 5.0 on element 0, zero on element 1
    fabricated = lambda n, ul, ur: n * np.where(np.asarray(ul)[..., 0] > 0.5, 5.0, 0.0)
    corrected, report = entropy_correction(res, states, model, fabricated)
    assert report.alpha[0] > 0  # the engineered target forces a real correction

    v = model.entropy_variables(states[:2])
    phi_c, alpha, _ = multi_constraint_correction(
        res.phi[0], [Constraint(weights=v, target=5.0)]
    )
    np.testing.assert_allclose(phi_c, corrected.phi[0], atol=1e-13)
    assert alpha[0] == pytest.approx(report.alpha[0])


def test_duplicate_constraints_collapse():
    phi = np.array([[0.3, -0.1], [-0.2, 0.4], [0.6, 0.0]])
    w = np.array([[1.0, 0.0], [0.5, 1.0], [-1.0, 0.3]])
    single, _, _ = multi_constraint_correction(phi, [Constraint(w, 2.0)])
    double, _, _ = multi_constraint_correction(phi, [Constraint(w, 2.0), Constraint(w, 2.0)])
    np.testing.assert_allclose(double, single, atol=1e-12)


def test_two_constraints_match_bruteforce_least_squares(rng):
    phi = rng.normal(size=(3, 3))
    w_entropy = rng.normal(size=(3, 3))
    w_quad = rng.normal(size=(3, 3)) ** 2  # kinetic-energy-like positive weights
    cons = [Constraint(w_entropy, 0.7), Constraint(w_quad, -0.2)]
    phi_c, alpha, _ = multi_constraint_correction(phi, cons)

    # dense oracle built straight from the definition
    centered = [w - w.mean(axis=0, keepdims=True) for w in (w_entropy, w_quad)]
    M = np.array([[float((wc * c).sum()) for c in centered] for wc in (w_entropy, w_quad)])
    d = np.array([0.7 - float((w_entropy * phi).sum()), -0.2 - float((w_quad * phi).sum())])
    alpha_oracle = np.linalg.lstsq(M, d, rcond=None)[0]
    np.testing.assert_allclose(alpha, alpha_oracle, atol=1e-10)
    for con, target in zip(cons, (0.7, -0.2)):
        assert float((con.weights * phi_c).sum()) == pytest.approx(target, abs=1e-10)
    np.testing.assert_allclose(phi_c.sum(axis=0), phi.sum(axis=0), atol=1e-12)


def test_constraint_count_capped_by_dofs():
    phi = np.zeros((2, 1))
    cons = [Constraint(np.ones((2, 1)), 0.0)] * 2
    with pytest.raises(ConfigError):
        multi_constraint_correction(phi, cons)


# ---------------------------------------------------------------------------
# energy identity and the two-field correction
# ---------------------------------------------------------------------------


def test_energy_identity_no_change():
    assert energy_update_identity(1.0, 0.5, 2.0, 1.0, 0.5, 2.0) == pytest.approx(0.0)


def test_energy_identity_hand_case():
    # (rho, v, e): (1, 0, 1) -> (2, 1, 1): dE = 1, rhs = 0 + 0.5*2 - 0 = 1
    assert energy_update_identity(1.0, 0.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_energy_identity_random_sweep(rng):
    n = 10_000
    rho0, rho1 = rng.uniform(0.1, 5.0, (2, n))
    v0, v1 = rng.uniform(-3.0, 3.0, (2, n))
    e0, e1 = rng.uniform(0.1, 5.0, (2, n))
    defect = energy_update_identity(rho0, v0, e0, rho1, v1, e1)
    scale = np.abs(e1 - e0) + 0.5 * np.abs(rho1 * v1**2 - rho0 * v0**2) + 1.0
    assert (defect / scale).max() <= 1e-14


def test_nc_energy_correction_identity_already_satisfied():
    dofs = np.array([[0, 1]])
    phi_rho = np.zeros((1, 2))
    phi_mom = np.zeros((1, 2))
    phi_e = np.array([[0.25, 0.75]])
    v = np.zeros(2)
    corrected, r = nonconservative_energy_correction(
        phi_rho, phi_mom, phi_e, v, v, dofs, np.array([1.0])
    )
    assert r[0] == pytest.approx(0.0)
    np.testing.assert_array_equal(corrected, phi_e)


def test_nc_energy_correction_uniform_share():
    # three-DOF element, target - current = 0.6 -> r = 0.2 on every DOF
    dofs = np.array([[0, 1, 2]])
    phi_rho = np.zeros((1, 3))
    phi_mom = np.zeros((1, 3))
    phi_e = np.array([[0.1, 0.2, 0.3]])
    v = np.zeros(3)
    corrected, r = nonconservative_energy_correction(
        phi_rho, phi_mom, phi_e, v, v, dofs, np.array([1.2])
    )
    assert r[0] == pytest.approx(0.2)
    np.testing.assert_allclose(corrected, [[0.3, 0.4, 0.5]])


def test_nc_scheme_total_energy_moves_only_through_boundaries():
    # full Sod run in (rho, m, e) variables vs the ledger's boundary account
    from conserva.harness.runner import run
    from conserva.records import RunConfig

    config = RunConfig(case="sod", scheme="nc-energy-corrected", nx=120, t_end=0.15)
    record = run(config)
    assert record.ledger.conservation_drift() <= 1e-11


def test_nc_scheme_residual_set_is_locally_conservative():
    from conserva.harness.runner import build_problem
    from conserva.records import RunConfig
    from conserva.schemes import TwoFieldGasScheme

    config = RunConfig(case="sod", scheme="nc-energy-corrected", nx=64)
    case, mesh, u0 = build_problem(config)
    scheme = TwoFieldGasScheme(case.model, mesh)
    res = scheme.assemble(scheme.from_conserved(u0), 1e-4)
    defect = np.abs(res.element_defect()).max()
    assert defect <= 1e-12 * max(np.abs(res.phi).max(), 1.0)
