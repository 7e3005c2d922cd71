import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conserva.errors import ConfigError
from conserva.mesh import (
    GAUSS_LEGENDRE,
    Mesh1D,
    gather_cell_ends,
    scatter_cell_ends,
    uniform_mesh,
)

from conftest import SEGMENT, TRIANGLE, path_graph, same_bits


def test_uniform_mesh_nodes_and_volumes():
    mesh = uniform_mesh(-1.0, 1.0, 4, boundary="transmissive")
    np.testing.assert_allclose(mesh.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(mesh.volumes, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert mesh.ndof == 5


def test_periodic_mesh_wraps_and_covers_domain():
    mesh = uniform_mesh(-1.0, 1.0, 4, boundary="periodic")
    assert mesh.ndof == 4
    np.testing.assert_allclose(mesh.volumes, 0.5)
    assert mesh.volumes.sum() == pytest.approx(2.0)
    # last cell connects back to DOF 0
    assert tuple(mesh.cell_dofs[-1]) == (3, 0)


def test_mesh_validation():
    with pytest.raises(ConfigError):
        uniform_mesh(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        uniform_mesh(1.0, 0.0, 4)


def test_segment_graph_incidence():
    np.testing.assert_array_equal(SEGMENT.incidence, [[1.0], [-1.0]])


def test_triangle_graph_rows_sum_to_zero():
    assert TRIANGLE.incidence.shape == (3, 3)
    np.testing.assert_array_equal(TRIANGLE.incidence.sum(axis=1), 0.0)


def test_path_graph_middle_node_touches_both_edges():
    g = path_graph(3)
    assert len(g.edges) == 2
    assert np.count_nonzero(g.incidence[1]) == 2


@pytest.mark.parametrize(
    "graph",
    [SEGMENT, TRIANGLE] + [path_graph(n) for n in range(2, 9)],
)
def test_incidence_columns_sum_to_zero(graph):
    np.testing.assert_array_equal(graph.incidence.sum(axis=0), 0.0)


@pytest.mark.parametrize(
    "graph",
    [SEGMENT, TRIANGLE] + [path_graph(n) for n in range(2, 9)],
)
def test_laplacian_has_one_zero_eigenvalue(graph):
    L = graph.incidence @ graph.incidence.T
    eig = np.sort(np.abs(np.linalg.eigvalsh(L)))
    assert eig[0] <= 1e-10
    assert eig[1] > 1e-10  # connected: single zero mode


def _add_at_reference(mesh, left, right):
    out = np.zeros((mesh.ndof,) + left.shape[1:], dtype=left.dtype)
    ufunc = np.logical_or if left.dtype == bool else np.add
    ufunc.at(out, mesh.cell_dofs[:, 0], left)
    ufunc.at(out, mesh.cell_dofs[:, 1], right)
    return out


@st.composite
def _cell_end_values(draw):
    ncell = draw(st.integers(2, 50))
    boundary = draw(st.sampled_from(["periodic", "transmissive"]))
    mesh = uniform_mesh(0.0, 1.0, ncell, boundary=boundary)
    if draw(st.booleans()):
        shape, elements = (ncell,), st.booleans()
        dtype = bool
    else:
        shape = (ncell, draw(st.integers(1, 3)))
        # finite values, signed zeros and subnormals included
        elements = st.floats(allow_nan=False, allow_infinity=False, width=64)
        dtype = float
    left = draw(hnp.arrays(dtype, shape, elements=elements))
    right = draw(hnp.arrays(dtype, shape, elements=elements))
    return mesh, left, right


@settings(max_examples=300, deadline=None)
@given(_cell_end_values())
def test_scatter_cell_ends_matches_add_at_bitwise(case):
    mesh, left, right = case
    with np.errstate(over="ignore"):  # sums of two large finite values may overflow
        got = scatter_cell_ends(left, right, mesh.ndof)
        want = _add_at_reference(mesh, left, right)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_scatter_cell_ends_sums_negative_zero_like_add_at():
    mesh = uniform_mesh(0.0, 1.0, 3, boundary="transmissive")
    values = np.full((3, 1), -0.0)
    got = scatter_cell_ends(values, values, mesh.ndof)
    assert got.tobytes() == _add_at_reference(mesh, values, values).tobytes()
    assert not np.signbit(got).any()  # 0.0 + -0.0 is +0.0 in both


@st.composite
def _dof_values(draw):
    ncell = draw(st.integers(2, 50))
    boundary = draw(st.sampled_from(["periodic", "transmissive"]))
    mesh = uniform_mesh(0.0, 1.0, ncell, boundary=boundary)
    if draw(st.booleans()):
        values = draw(hnp.arrays(bool, (mesh.ndof, 2), elements=st.booleans()))
    else:
        shape = draw(st.sampled_from([(mesh.ndof, p) for p in (1, 2, 3, 4)]))
        # signed zeros, NaN and infinities included
        elements = st.one_of(
            st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]), st.floats(width=64)
        )
        values = draw(hnp.arrays(float, shape, elements=elements))
    # the whole rows (contiguous), one column, or every other column (strided)
    columns = draw(st.sampled_from([slice(None), 0, slice(None, None, 2)]))
    return mesh, values[:, columns]


@settings(max_examples=300, deadline=None)
@given(_dof_values())
def test_gather_cell_ends_matches_fancy_indexing_bitwise(case):
    mesh, values = case
    before = values.tobytes()
    ends = gather_cell_ends(values, mesh.cell_dofs)
    assert len(ends) == 2
    for k in range(2):
        want = values[mesh.cell_dofs[:, k]]
        assert ends[k].dtype == want.dtype
        assert ends[k].shape == want.shape
        assert ends[k].tobytes() == want.tobytes()
    # a read-only view: writing into it raises and leaves the values alone
    with pytest.raises(ValueError):
        ends[0, 0] = ends[1, 0]
    assert values.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(1e-2, 1e3),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=60),
    st.sampled_from(["periodic", "transmissive"]),
)
def test_volumes_sum_to_domain_length(a, length, fractions, boundary):
    b = a + length
    inner = a + (b - a) * np.asarray(fractions, dtype=float)
    nodes = np.unique(np.concatenate([[a, b], inner[(inner > a) & (inner < b)]]))
    assume(len(nodes) >= 3)
    # node differences telescope to b - a up to one rounding per cell
    tol = 4 * len(nodes) * np.finfo(float).eps * max(abs(a), abs(b))
    for mesh in (Mesh1D(nodes, boundary=boundary), uniform_mesh(a, b, len(nodes) - 1, boundary)):
        assert abs(mesh.volumes.sum() - (b - a)) <= tol


def _two_branch_mesh_reference(nodes, boundary):
    """(ndof, dof_x, volumes, cell_dofs) built one way per boundary kind."""
    dx = np.diff(nodes)
    ncell = len(dx)
    dofs = np.arange(ncell)
    if boundary == "periodic":
        volumes = 0.5 * (np.roll(dx, 1) + dx)
        return ncell, nodes[:-1], volumes, np.stack([dofs, (dofs + 1) % ncell], axis=1)
    volumes = np.empty(ncell + 1)
    volumes[0] = 0.5 * dx[0]
    volumes[-1] = 0.5 * dx[-1]
    volumes[1:-1] = 0.5 * (dx[:-1] + dx[1:])
    return ncell + 1, nodes, volumes, np.stack([dofs, dofs + 1], axis=1)


@st.composite
def _jittered_nodes(draw):
    ncell = draw(st.integers(2, 60))
    a = draw(st.floats(-1e3, 1e3))
    h = draw(st.floats(1e-3, 10.0))
    jitter = draw(hnp.arrays(float, ncell + 1, elements=st.floats(-0.3, 0.3)))
    return a + h * (np.arange(ncell + 1) + jitter)  # steps of at least 0.4 h


@settings(max_examples=300, deadline=None)
@given(_jittered_nodes(), st.sampled_from(["periodic", "transmissive"]))
def test_mesh_dual_volumes_equal_the_two_branch_construction_bitwise(nodes, boundary):
    assume((np.diff(nodes) > 0).all())
    mesh = Mesh1D(nodes, boundary=boundary)
    ndof, dof_x, volumes, cell_dofs = _two_branch_mesh_reference(mesh.nodes, boundary)
    assert mesh.ndof == ndof
    for got, want in ((mesh.dof_x, dof_x), (mesh.volumes, volumes), (mesh.cell_dofs, cell_dofs)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 5])
def test_gauss_legendre_table_has_the_bits_of_leggauss(n):
    # the table stands in for leggauss so that importing conserva loads no
    # numpy.polynomial; +0.0 middle node included
    nodes, weights = GAUSS_LEGENDRE[n]
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert same_bits(nodes, want_nodes)
    assert same_bits(weights, want_weights)
