import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conserva.errors import ConservationError, GraphStructureError
from conserva.mesh import ElementGraph, element_graph, uniform_mesh
from conserva.models import Burgers
from conserva.recovery import (
    RecoveryProblem,
    build_laplacian,
    recover_fluxes,
    reconstruct_scheme,
)
from conserva.schemes import NumericalFlux, ResidualSet, fv_residuals_1d, supg_residuals_1d


def test_laplacian_segment():
    L = build_laplacian(element_graph("segment"))
    np.testing.assert_array_equal(L.matrix, [[1, -1], [-1, 1]])


def test_laplacian_triangle():
    L = build_laplacian(element_graph("triangle"))
    np.testing.assert_array_equal(L.matrix, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_path3_degrees_minus_adjacency():
    L = build_laplacian(element_graph("path", 3)).matrix
    expected = np.diag([1.0, 2.0, 1.0]) - np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float
    )
    np.testing.assert_array_equal(L, expected)


def test_laplacian_rejects_disconnected_graph():
    graph = ElementGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(GraphStructureError):
        build_laplacian(graph)


def test_recover_segment_forced_solution():
    graph = element_graph("segment")
    fluxes = recover_fluxes(graph, RecoveryProblem(np.array([[3.5], [-3.5]])))
    np.testing.assert_allclose(fluxes.values, [[3.5]])


def test_recover_segment_reads_1d_psi_as_one_component():
    graph = element_graph("segment")
    fluxes = recover_fluxes(graph, RecoveryProblem(np.array([3.5, -3.5])))
    np.testing.assert_array_equal(fluxes.values, [[3.5]])


def test_recover_fluxes_rejects_non_finite_psi():
    graph = element_graph("segment")
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(graph, RecoveryProblem(np.array([[np.nan], [1.0]])))
    np.testing.assert_array_equal(excinfo.value.elements, [0])


def test_recover_path3_tree_telescoping():
    graph = element_graph("path", 3)
    a, b = 1.25, -0.5
    fluxes = recover_fluxes(graph, RecoveryProblem(np.array([[a], [b], [-a - b]])))
    np.testing.assert_allclose(fluxes.values[:, 0], [a, a + b], atol=1e-14)


def test_recover_triangle_reference_values():
    graph = element_graph("triangle")
    psi = np.array([[1.0], [-1.0], [0.0]])
    fluxes = recover_fluxes(graph, RecoveryProblem(psi))
    np.testing.assert_allclose(fluxes.values[:, 0], [2 / 3, -1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(graph.incidence @ fluxes.values, psi, atol=1e-13)


def test_recover_matches_dense_pseudo_inverse(rng):
    # independent oracle: full Moore-Penrose solve of A fhat = psi
    for graph in (element_graph("triangle"), element_graph("path", 5)):
        psi = rng.normal(size=(graph.ndof, 3))
        psi -= psi.mean(axis=0, keepdims=True)
        fluxes = recover_fluxes(graph, RecoveryProblem(psi))
        oracle = np.linalg.pinv(graph.incidence) @ psi
        np.testing.assert_allclose(fluxes.values, oracle, atol=1e-12)


@pytest.mark.parametrize(
    "graph",
    [element_graph("segment"), element_graph("triangle")]
    + [element_graph("path", n) for n in (3, 4, 6)],
)
def test_recovery_residual_property(graph, rng):
    laplacian = build_laplacian(graph)
    for _ in range(200):
        psi = rng.normal(size=(graph.ndof, 2))
        psi -= psi.mean(axis=0, keepdims=True)
        fluxes = recover_fluxes(graph, RecoveryProblem(psi), laplacian)
        err = np.abs(graph.incidence @ fluxes.values - psi).max()
        assert err <= 1e-11 * max(np.abs(psi).max(), 1e-300)


def test_recover_rejects_shifted_residuals(rng):
    graph = element_graph("path", 4)
    psi = rng.normal(size=(graph.ndof, 1))
    psi -= psi.mean(axis=0, keepdims=True)
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(graph, RecoveryProblem(psi + 0.3))
    assert excinfo.value.defect is not None
    recover_fluxes(graph, RecoveryProblem(psi))  # unshifted passes


def test_zero_residuals_give_zero_fluxes():
    graph = element_graph("triangle")
    fluxes = recover_fluxes(graph, RecoveryProblem(np.zeros((3, 2))))
    np.testing.assert_array_equal(fluxes.values, 0.0)


def _burgers_setup(n, boundary="periodic"):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, n, boundary=boundary)
    states = np.sin(np.pi * mesh.dof_x)[:, None] + 0.1
    return model, mesh, states


def test_reconstruct_fv_recovers_original_interface_fluxes():
    model, mesh, states = _burgers_setup(24)
    flux = NumericalFlux("rusanov", model)
    residuals = fv_residuals_1d(mesh, states, flux, model)
    increments, edge_fluxes = reconstruct_scheme(mesh, states, residuals)
    original = flux(+1, states[mesh.cell_dofs[:, 0]], states[mesh.cell_dofs[:, 1]])
    np.testing.assert_allclose(edge_fluxes, original, atol=1e-13)
    np.testing.assert_allclose(increments, residuals.scatter_to_dofs(mesh.ndof), atol=1e-12)


def test_reconstruct_supg_flux_form_reproduces_updates():
    model, mesh, states = _burgers_setup(24)
    residuals = supg_residuals_1d(mesh, states, model)
    increments, _ = reconstruct_scheme(mesh, states, residuals)
    np.testing.assert_allclose(increments, residuals.scatter_to_dofs(mesh.ndof), atol=1e-12)


def test_reconstruct_shared_face_fluxes_agree_up_to_sign():
    model, mesh, states = _burgers_setup(16, boundary="transmissive")
    residuals = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    # at the shared node of cells k and k+1 the two boundary shares cancel
    right_shares = residuals.boundary_parts[:-1, 1]
    left_shares = residuals.boundary_parts[1:, 0]
    np.testing.assert_allclose(right_shares, -left_shares, atol=1e-15)


def test_reconstruct_zero_residuals_zero_fluxes():
    model, mesh, _ = _burgers_setup(8)
    states = np.zeros((mesh.ndof, 1))
    residuals = fv_residuals_1d(mesh, states, NumericalFlux("rusanov", model), model)
    increments, edge_fluxes = reconstruct_scheme(mesh, states, residuals)
    np.testing.assert_array_equal(edge_fluxes, 0.0)
    np.testing.assert_array_equal(increments, 0.0)


# ---------------------------------------------------------------------------
# batched recovery: R = A^T L^+ applied to stacks of elements
# ---------------------------------------------------------------------------


def test_laplacian_operator_is_read_only():
    laplacian = build_laplacian(element_graph("segment"))
    np.testing.assert_array_equal(laplacian.operator, [[0.5, -0.5]])
    with pytest.raises(ValueError):
        laplacian.operator[0, 0] = 1.0


def test_recover_fluxes_error_names_element_zero():
    graph = element_graph("triangle")
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(graph, RecoveryProblem(np.array([[1.0], [0.0], [0.0]])))
    np.testing.assert_array_equal(excinfo.value.elements, [0])


def _supg_residuals(n=24):
    model, mesh, states = _burgers_setup(n)
    return mesh, states, supg_residuals_1d(mesh, states, model)


def _with_phi(residuals, phi, bparts=None):
    bparts = residuals.boundary_parts if bparts is None else bparts
    return ResidualSet(residuals.cell_dofs, phi, bparts, residuals.domain_boundary_flux)


def test_reconstruct_names_exactly_the_shifted_element():
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    phi[5, 1] += 1e-3
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi))
    np.testing.assert_array_equal(excinfo.value.elements, [5])
    assert excinfo.value.defect.shape == (1, 1)


def test_reconstruct_names_exactly_the_non_finite_element():
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    phi[7, 0] = np.nan
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi))
    np.testing.assert_array_equal(excinfo.value.elements, [7])


def test_reconstruct_judges_each_element_against_its_own_scale():
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    bparts = residuals.boundary_parts.copy()
    phi[3] *= 1e8
    bparts[3] *= 1e8
    big = max(np.abs(phi[3]).max(), np.abs(bparts[3]).max())
    phi[3, 0] += 1e-14 * big  # rounding-sized on its own scale: accepted
    reconstruct_scheme(mesh, states, _with_phi(residuals, phi, bparts))

    # 1e-6 is below 1e-10 of the largest element but far above the tolerance
    # of an O(1) element, so only a per-element scale catches it
    phi[9, 0] += 1e-6
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi, bparts))
    np.testing.assert_array_equal(excinfo.value.elements, [9])


@st.composite
def connected_graphs(draw):
    """Random spanning tree plus extra edges, random orientation and order."""
    ndof = draw(st.integers(2, 8))
    undirected = {(draw(st.integers(0, i - 1)), i) for i in range(1, ndof)}
    extra = draw(st.sets(st.tuples(st.integers(0, ndof - 1), st.integers(0, ndof - 1)),
                         max_size=ndof))
    undirected |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in sorted(undirected)]
    return ElementGraph(ndof, tuple(draw(st.permutations(edges))))


@st.composite
def psi_stacks(draw):
    """A graph, a zero-sum Psi stack (k, ndof, p) and per-element scales."""
    graph = draw(connected_graphs())
    k, p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = draw(hnp.arrays(float, (k, graph.ndof, p), elements=unit))
    raw *= 10.0 ** draw(hnp.arrays(int, (k, 1, 1), elements=st.integers(-50, 50)))
    scale = np.maximum(np.abs(raw).max(axis=(1, 2)), 1e-300)
    return graph, raw - raw.mean(axis=1, keepdims=True), scale


@settings(max_examples=150, deadline=None)
@given(psi_stacks())
def test_property_recovered_fluxes_reproduce_psi(case):
    graph, psi, scale = case
    fhat = build_laplacian(graph).recover(psi, scale)
    err = np.abs(graph.incidence @ fhat - psi).max(axis=(1, 2))
    assert (err <= 1e-11 * scale).all()


@settings(max_examples=150, deadline=None)
@given(psi_stacks())
def test_property_operator_matches_solve_and_pseudo_inverse(case):
    graph, psi, scale = case
    laplacian = build_laplacian(graph)
    pinv = np.linalg.pinv(graph.incidence)
    for k in range(len(psi)):
        got = laplacian.operator @ psi[k]
        via_solve = graph.incidence.T @ laplacian.solve(psi[k])
        np.testing.assert_allclose(got, via_solve, rtol=0, atol=1e-11 * scale[k])
        np.testing.assert_allclose(got, pinv @ psi[k], rtol=0, atol=1e-11 * scale[k])


@settings(max_examples=150, deadline=None)
@given(psi_stacks())
def test_property_batched_recovery_equals_single_calls(case):
    graph, psi, scale = case
    laplacian = build_laplacian(graph)
    batched = laplacian.recover(psi, scale)
    for k in range(len(psi)):
        single = recover_fluxes(graph, RecoveryProblem(psi[k], scale=scale[k]), laplacian)
        np.testing.assert_array_equal(batched[k], single.values)
