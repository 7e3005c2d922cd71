import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conserva import corrections, recovery
from conserva.errors import ConfigError, ConservationError, GraphStructureError
from conserva.mesh import ElementGraph, uniform_mesh
from conserva.models import Burgers, Euler, NodeKernels
from conserva.records import ACTIVE_FLUX, SCHEMES
from conserva.recovery import (
    SUM_TOLERANCE,
    GraphLaplacian,
    recover_fluxes,
    reconstruct_scheme,
)
from conserva.schemes import (
    NumericalFlux,
    ResidualSet,
    fv_residuals_1d,
    residual_assembler,
    supg_residuals_1d,
)

from conftest import SEGMENT, TRIANGLE, element_defect, path_graph, same_bits


def test_importing_conserva_loads_no_polynomial_module_and_builds_no_laplacian():
    # no Gauss rule is computed and no LAPACK solve runs in a process that
    # only imports the package and the entry points
    src = str(Path(recovery.__file__).resolve().parents[1])
    code = (
        "import sys, conserva, conserva.harness.cli, conserva.active_flux\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'\n"
        "size = conserva.recovery._segment_laplacian.cache_info().currsize\n"
        "assert size == 0, f'{size} segment Laplacian(s) built at import'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_reconstruct_scheme_builds_one_segment_operator():
    recovery._segment_laplacian.cache_clear()
    model = Burgers()
    mesh = uniform_mesh(0.0, 1.0, 8, boundary="transmissive")
    u = np.linspace(1.0, 2.0, mesh.ndof)[:, None]
    residuals = fv_residuals_1d(mesh, NodeKernels.of(model, u), NumericalFlux("rusanov"))
    first = reconstruct_scheme(mesh, u, residuals)
    second = reconstruct_scheme(mesh, u, residuals)
    info = recovery._segment_laplacian.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    want = GraphLaplacian(SEGMENT).operator
    assert same_bits(recovery._segment_laplacian().operator, want)
    for got, again in zip(first, second):
        assert same_bits(got, again)


def test_laplacian_segment():
    L = GraphLaplacian(SEGMENT)
    np.testing.assert_array_equal(L.matrix, [[1, -1], [-1, 1]])


def test_laplacian_triangle():
    L = GraphLaplacian(TRIANGLE)
    np.testing.assert_array_equal(L.matrix, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_path3_degrees_minus_adjacency():
    L = GraphLaplacian(path_graph(3)).matrix
    expected = np.diag([1.0, 2.0, 1.0]) - np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float
    )
    np.testing.assert_array_equal(L, expected)


def test_laplacian_rejects_disconnected_graph():
    graph = ElementGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(GraphStructureError):
        GraphLaplacian(graph)
    with pytest.raises(TypeError):  # nor can a matrix be handed in unchecked
        GraphLaplacian(graph, np.eye(4))


def _bfs_connected(graph):
    """Whether a breadth-first search from DOF 0 reaches every DOF."""
    adjacent = [[] for _ in range(graph.ndof)]
    for a, b in graph.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, frontier = {0}, [0]
    while frontier:
        for nxt in adjacent[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == graph.ndof


@st.composite
def _element_graphs(draw):
    """Graphs of 1 to 8 DOFs, often split into several components."""
    ndof = draw(st.integers(1, 8))
    if ndof == 1:
        return ElementGraph(1, ())
    # edges inside the blocks of a random partition, plus a few across them
    cuts = draw(st.sets(st.integers(1, ndof - 1), max_size=3))
    block = np.searchsorted(sorted(cuts), np.arange(ndof), side="right")
    pairs = [(a, b) for a in range(ndof) for b in range(ndof) if a != b]
    inside = [(a, b) for a, b in pairs if block[a] == block[b]]
    edges = draw(st.lists(st.sampled_from(inside), max_size=12)) if inside else []
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    return ElementGraph(ndof, tuple(edges))


@settings(max_examples=400, deadline=None)
@given(_element_graphs())
@example(ElementGraph(1, ()))
@example(ElementGraph(2, ()))
@example(ElementGraph(5, ((0, 1), (1, 0), (3, 4), (4, 2))))
def test_laplacian_rejects_exactly_the_graphs_a_search_finds_disconnected(graph):
    if _bfs_connected(graph):
        laplacian = GraphLaplacian(graph)
        A = graph.incidence
        np.testing.assert_array_equal(laplacian.matrix, A @ A.T)
    else:
        with pytest.raises(GraphStructureError):
            GraphLaplacian(graph)


def test_one_dof_graph_recovers_no_fluxes():
    laplacian = GraphLaplacian(ElementGraph(1, ()))
    assert laplacian.operator.shape == (0, 1)
    assert recover_fluxes(ElementGraph(1, ()), np.zeros((1, 2))).shape == (0, 2)


def test_recover_segment_forced_solution():
    fluxes = recover_fluxes(SEGMENT, np.array([[3.5], [-3.5]]))
    np.testing.assert_allclose(fluxes, [[3.5]])


@pytest.mark.parametrize(
    "graph,psi",
    [
        # unchecked, these end in numpy's AxisError, a matmul ValueError and
        # a misleading ConservationError
        (SEGMENT, [3.5, -3.5]),
        (SEGMENT, [[1.0], [-1.0], [0.0]]),
        (SEGMENT, [[[1.0], [-1.0]], [[0.0], [0.0]]]),
        (TRIANGLE, np.zeros((2, 1))),
    ],
    ids=["1d", "rows", "stack", "triangle-rows"],
)
def test_recover_fluxes_names_the_expected_psi_shape(graph, psi):
    with pytest.raises(ConfigError, match=rf"\({graph.ndof}, p\)"):
        recover_fluxes(graph, np.array(psi))


@pytest.mark.parametrize(
    "psi",
    # an infinite Psi whose sum is infinite passes the closure test against
    # its own infinite scale, so the scale itself must be refused
    [[[np.nan], [1.0]], [[np.inf], [np.inf]], [[np.inf], [1.0]], [[-np.inf], [-np.inf]],
     [[np.inf], [-np.inf]], [[1e308], [1e308]]],
    ids=["nan", "inf-inf", "inf-finite", "minus-inf", "inf-minus-inf", "overflowing-sum"],
)
def test_recover_fluxes_rejects_non_finite_psi(psi):
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(SEGMENT, np.array(psi))
    np.testing.assert_array_equal(excinfo.value.elements, [0])


def test_recover_path3_tree_telescoping():
    graph = path_graph(3)
    a, b = 1.25, -0.5
    fluxes = recover_fluxes(graph, np.array([[a], [b], [-a - b]]))
    np.testing.assert_allclose(fluxes[:, 0], [a, a + b], atol=1e-14)


def test_recover_triangle_reference_values():
    psi = np.array([[1.0], [-1.0], [0.0]])
    fluxes = recover_fluxes(TRIANGLE, psi)
    np.testing.assert_allclose(fluxes[:, 0], [2 / 3, -1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(TRIANGLE.incidence @ fluxes, psi, atol=1e-13)


def test_recover_matches_dense_pseudo_inverse(rng):
    # independent oracle: full Moore-Penrose solve of A fhat = psi
    for graph in (TRIANGLE, path_graph(5)):
        psi = rng.normal(size=(graph.ndof, 3))
        psi -= psi.mean(axis=0, keepdims=True)
        fluxes = recover_fluxes(graph, psi)
        oracle = np.linalg.pinv(graph.incidence) @ psi
        np.testing.assert_allclose(fluxes, oracle, atol=1e-12)


@pytest.mark.parametrize(
    "graph",
    [SEGMENT, TRIANGLE] + [path_graph(n) for n in (3, 4, 6)],
)
def test_recovery_residual_property(graph, rng):
    for _ in range(200):
        psi = rng.normal(size=(graph.ndof, 2))
        psi -= psi.mean(axis=0, keepdims=True)
        fluxes = recover_fluxes(graph, psi)
        err = np.abs(graph.incidence @ fluxes - psi).max()
        assert err <= 1e-11 * max(np.abs(psi).max(), 1e-300)


def test_recover_rejects_shifted_residuals(rng):
    graph = path_graph(4)
    psi = rng.normal(size=(graph.ndof, 1))
    psi -= psi.mean(axis=0, keepdims=True)
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(graph, psi + 0.3)
    assert excinfo.value.defect is not None
    recover_fluxes(graph, psi)  # unshifted passes


def test_zero_residuals_give_zero_fluxes():
    fluxes = recover_fluxes(TRIANGLE, np.zeros((3, 2)))
    np.testing.assert_array_equal(fluxes, 0.0)


def _burgers_setup(n, boundary="periodic"):
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, n, boundary=boundary)
    states = np.sin(np.pi * mesh.dof_x)[:, None] + 0.1
    return model, mesh, states


def test_reconstruct_fv_recovers_original_interface_fluxes():
    model, mesh, states = _burgers_setup(24)
    flux = NumericalFlux("rusanov")
    residuals = fv_residuals_1d(mesh, NodeKernels.of(model, states), flux)
    increments, edge_fluxes = reconstruct_scheme(mesh, states, residuals)
    left, right = (NodeKernels.of(model, states[mesh.cell_dofs[:, k]]) for k in (0, 1))
    original = flux(left, right)
    np.testing.assert_allclose(edge_fluxes, original, atol=1e-13)
    np.testing.assert_allclose(increments, residuals.scatter_to_dofs(mesh.ndof), atol=1e-12)


def test_reconstruct_supg_flux_form_reproduces_updates():
    model, mesh, states = _burgers_setup(24)
    residuals = supg_residuals_1d(mesh, NodeKernels.of(model, states), model)
    increments, _ = reconstruct_scheme(mesh, states, residuals)
    np.testing.assert_allclose(increments, residuals.scatter_to_dofs(mesh.ndof), atol=1e-12)


def test_reconstruct_shared_face_fluxes_agree_up_to_sign():
    model, mesh, states = _burgers_setup(16, boundary="transmissive")
    residuals = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    # at the shared node of cells k and k+1 the two boundary shares cancel
    right_shares = residuals.boundary_parts[1, :-1]
    left_shares = residuals.boundary_parts[0, 1:]
    np.testing.assert_allclose(right_shares, -left_shares, atol=1e-15)


def test_reconstruct_zero_residuals_zero_fluxes():
    model, mesh, _ = _burgers_setup(8)
    states = np.zeros((mesh.ndof, 1))
    residuals = fv_residuals_1d(mesh, NodeKernels.of(model, states), NumericalFlux("rusanov"))
    increments, edge_fluxes = reconstruct_scheme(mesh, states, residuals)
    np.testing.assert_array_equal(edge_fluxes, 0.0)
    np.testing.assert_array_equal(increments, 0.0)


# ---------------------------------------------------------------------------
# batched recovery: R = A^T L^+ applied to stacks of elements
# ---------------------------------------------------------------------------


def test_laplacian_arrays_and_graph_incidence_are_read_only():
    # the cached segment Laplacian is shared by every reconstruct_scheme call
    # in the process, and its solve reads the matrix
    for laplacian in (GraphLaplacian(SEGMENT), recovery._segment_laplacian()):
        np.testing.assert_array_equal(laplacian.operator, [[0.5, -0.5]])
        for array in (laplacian.matrix, laplacian.operator, laplacian.graph.incidence):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def test_recover_fluxes_error_names_element_zero():
    with pytest.raises(ConservationError) as excinfo:
        recover_fluxes(TRIANGLE, np.array([[1.0], [0.0], [0.0]]))
    np.testing.assert_array_equal(excinfo.value.elements, [0])


def _supg_residuals(n=24):
    model, mesh, states = _burgers_setup(n)
    return mesh, states, supg_residuals_1d(mesh, NodeKernels.of(model, states), model)


def _with_phi(residuals, phi, bparts=None):
    """The residuals with phi, on cell ends whose boundary parts are bparts if given."""
    ends = residuals.ends
    if bparts is not None:
        # boundary parts are (-f(u_left), f(u_right)), and -(-x) is x bit for bit
        ends = tuple(NodeKernels(end.states, flux, end.speed)
                     for end, flux in zip(ends, (-bparts[0], bparts[1])))
    return ResidualSet(residuals.cell_dofs, phi, ends, residuals.boundary_outflux)


def test_reconstruct_names_exactly_the_shifted_element():
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    phi[1, 5] += 1e-3
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi))
    np.testing.assert_array_equal(excinfo.value.elements, [5])
    assert excinfo.value.defect.shape == (1, 1)


@pytest.mark.parametrize(
    "phi_value,bpart_value",
    [(np.nan, None), (np.inf, None), (-np.inf, None), (np.inf, np.inf), (1e308, -1e308)],
    ids=["nan", "inf", "minus-inf", "inf-minus-inf", "overflowing-psi"],
)
def test_reconstruct_names_exactly_the_non_finite_element(phi_value, bpart_value):
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    bparts = residuals.boundary_parts.copy()
    phi[0, 7] = phi_value
    if bpart_value is not None:
        bparts[0, 7] = bpart_value
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi, bparts))
    np.testing.assert_array_equal(excinfo.value.elements, [7])


def test_reconstruct_judges_each_element_against_its_own_scale():
    mesh, states, residuals = _supg_residuals()
    phi = residuals.phi.copy()
    bparts = residuals.boundary_parts.copy()
    phi[:, 3] *= 1e8
    bparts[:, 3] *= 1e8
    big = max(np.abs(phi[:, 3]).max(), np.abs(bparts[:, 3]).max())
    phi[0, 3] += 1e-14 * big  # rounding-sized on its own scale: accepted
    reconstruct_scheme(mesh, states, _with_phi(residuals, phi, bparts))

    # 1e-6 is below 1e-10 of the largest element but far above the tolerance
    # of an O(1) element, so only a per-element scale catches it
    phi[0, 9] += 1e-6
    with pytest.raises(ConservationError) as excinfo:
        reconstruct_scheme(mesh, states, _with_phi(residuals, phi, bparts))
    np.testing.assert_array_equal(excinfo.value.elements, [9])


# sign-flipped zeros, subnormals, the extremes, infinities and NaN
_MAX_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan]
_max_entries = st.one_of(st.sampled_from(_MAX_AWKWARD), st.floats(allow_nan=False))


@st.composite
def _end_stacks(draw):
    """(2, n, p) stacks, p = 1, 2 or 3, as phi and the boundary parts are laid out."""
    shape = (2, draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3])))
    return draw(hnp.arrays(float, shape, elements=_max_entries))


@settings(max_examples=300, deadline=None)
@given(_end_stacks())
@example(np.array([[[np.nan, 1.0, -0.0]], [[np.inf, -0.0, 5e-324]]]))
def test_property_elementwise_maxima_have_the_bits_of_the_reductions(x):
    assert same_bits(recovery._end_scale(x), np.abs(x).max(axis=(0, 2)))
    for d in x:
        assert same_bits(recovery._row_max(np.abs(d)), np.abs(d).max(axis=1))


def _old_closure_verdict(psi, scale):
    """The elements, and their defect rows, that GraphLaplacian.recover
    refused when its closure test was a reduction over the p columns, and
    every element whose scale is infinite."""
    defect = psi.sum(axis=0)
    closed = np.abs(defect).max(axis=1) <= SUM_TOLERANCE * scale
    bad = np.flatnonzero(~closed | np.isinf(scale))
    return bad, defect[bad]


@st.composite
def _unclosed_stacks(draw):
    """Closing (2, n, p) Psi stacks with some entries shifted, by amounts
    from rounding-sized to non-finite, and the old per-element scale."""
    n, p = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3]))
    half = draw(hnp.arrays(float, (n, p), elements=st.floats(-1e3, 1e3)))
    psi = np.stack([half, -half])
    for _ in range(draw(st.integers(1, 2 * n))):
        at = (draw(st.integers(0, 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            psi[at] += draw(st.one_of(_max_entries, st.floats(-1e-6, 1e-6)))
    scale = np.maximum(np.abs(psi).max(axis=(0, 2)), 1e-300)
    return psi, scale


@settings(max_examples=300, deadline=None)
@given(_unclosed_stacks())
def test_property_closure_test_refuses_the_elements_the_old_test_refused(case):
    psi, scale = case
    laplacian = GraphLaplacian(SEGMENT)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle's sums may overflow
        elements, defect = _old_closure_verdict(psi, scale)
    # recover itself lets no RuntimeWarning escape
    if not elements.size:
        laplacian.recover(psi, scale)
        return
    with pytest.raises(ConservationError) as excinfo:
        laplacian.recover(psi, scale)
    assert same_bits(excinfo.value.elements, elements)
    assert same_bits(excinfo.value.defect, defect)


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
    """A graph, a zero-sum DOF-major Psi stack (ndof, k, p) and per-element scales."""
    graph = draw(connected_graphs())
    k, p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = draw(hnp.arrays(float, (graph.ndof, k, p), elements=unit))
    raw *= 10.0 ** draw(hnp.arrays(int, (1, k, 1), elements=st.integers(-50, 50)))
    scale = np.maximum(np.abs(raw).max(axis=(0, 2)), 1e-300)
    return graph, raw - raw.mean(axis=0, keepdims=True), scale


@settings(max_examples=150, deadline=None)
@given(psi_stacks())
def test_property_recovered_fluxes_reproduce_psi(case):
    graph, psi, scale = case
    fhat = GraphLaplacian(graph).recover(psi, scale)
    err = np.abs(np.tensordot(graph.incidence, fhat, axes=1) - psi).max(axis=(0, 2))
    assert (err <= 1e-11 * scale).all()


@settings(max_examples=150, deadline=None)
@given(psi_stacks())
def test_property_operator_matches_solve_and_pseudo_inverse(case):
    graph, psi, scale = case
    laplacian = GraphLaplacian(graph)
    pinv = np.linalg.pinv(graph.incidence)
    for k in range(psi.shape[1]):
        got = laplacian.operator @ psi[:, k]
        via_solve = graph.incidence.T @ laplacian.solve(psi[:, k])
        np.testing.assert_allclose(got, via_solve, rtol=0, atol=1e-11 * scale[k])
        np.testing.assert_allclose(got, pinv @ psi[:, k], rtol=0, atol=1e-11 * scale[k])


RESIDUAL_IDS = [name for name, row in SCHEMES.items() if row.base != ACTIVE_FLUX]


@st.composite
def scheme_psi_stacks(draw):
    """The segment graph and the DOF-major Psi = phi - boundary_parts stack
    that ``reconstruct_scheme`` recovers, of a residual scheme id."""
    model, mesh, states, dt = draw(gas_meshes_and_states())
    assemble = residual_assembler(draw(st.sampled_from(RESIDUAL_IDS)), model, mesh)
    residuals = assemble(NodeKernels.of(model, states), dt)
    return SEGMENT, residuals.phi - residuals.boundary_parts, None


@settings(max_examples=150, deadline=None)
@given(st.one_of(psi_stacks(), scheme_psi_stacks()))
def test_property_batched_recovery_equals_single_calls(case):
    # a single call judges its element's sum against the size of its own Psi:
    # it returns the element's batched column, bit for bit, or raises
    # ConservationError
    graph, psi, _ = case
    laplacian = GraphLaplacian(graph)
    own = np.maximum(np.abs(psi).max(axis=(0, 2)), 1e-300)
    closed = np.abs(psi.sum(axis=0)).max(axis=1) <= SUM_TOLERANCE * own
    batched = laplacian.recover(psi[:, closed], own[closed])
    for column, k in enumerate(np.flatnonzero(closed)):
        assert same_bits(recover_fluxes(graph, psi[:, k]), batched[:, column])
    for k in np.flatnonzero(~closed):
        with pytest.raises(ConservationError):
            recover_fluxes(graph, psi[:, k])


@st.composite
def gas_meshes_and_states(draw):
    """A small mesh, admissible gas states on its DOFs and a dt up to CFL 0.4."""
    nx = draw(st.integers(2, 12))
    mesh = uniform_mesh(0.0, 1.0, nx, boundary=draw(st.sampled_from(["transmissive", "periodic"])))
    model = Euler(gamma=draw(st.floats(1.1, 5.0 / 3.0)))
    aux = np.column_stack([
        draw(hnp.arrays(float, mesh.ndof, elements=st.floats(lo, hi)))
        for lo, hi in ((0.1, 10.0), (-3.0, 3.0), (0.1, 10.0))  # rho, v, p
    ])
    states = model.from_aux(aux)
    speed = float(model.max_wave_speed(states).max())
    dt = draw(st.floats(0.0, 0.4)) * float(mesh.volumes.min()) / speed
    return model, mesh, states, dt


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RESIDUAL_IDS), gas_meshes_and_states())
def test_property_every_residual_scheme_has_a_flux_form(scheme_id, case):
    # residual form equals flux form for every id the CLI accepts as a
    # residual scheme
    model, mesh, states, dt = case
    residuals = residual_assembler(scheme_id, model, mesh)(NodeKernels.of(model, states), dt)
    _assert_flux_form(mesh, states, residuals)


def _assert_flux_form(mesh, states, residuals):
    scale = np.maximum(
        np.abs(residuals.phi).max(axis=(0, 2)), np.abs(residuals.boundary_parts).max(axis=(0, 2))
    )
    defect = np.abs(element_defect(residuals)).max(axis=1)
    assert (defect <= SUM_TOLERANCE * scale).all()

    increments, _ = reconstruct_scheme(mesh, states, residuals)
    np.testing.assert_allclose(
        increments, residuals.scatter_to_dofs(mesh.ndof), rtol=0, atol=1e-12 * scale.max()
    )


@settings(max_examples=100, deadline=None)
@given(gas_meshes_and_states())
def test_property_entropy_correction_of_the_central_base_has_a_flux_form(case):
    # the correction never fires on the shipped Rusanov base; on the central
    # flux it fires on almost every draw, so a shift that is not zero-sum in
    # an element breaks the identity here
    model, mesh, states, _ = case
    nodes = NodeKernels.of(model, states)
    base = fv_residuals_1d(mesh, nodes, NumericalFlux("central"))
    corrected, _ = corrections.entropy_correction(base, nodes, model)
    _assert_flux_form(mesh, states, corrected)
