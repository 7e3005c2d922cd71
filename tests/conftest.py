import numpy as np
import pytest

from conserva.mesh import ElementGraph

# element graphs: the 1D element, the cyclic triangle and n-DOF chains
SEGMENT = ElementGraph(2, ((0, 1),))
TRIANGLE = ElementGraph(3, ((0, 1), (1, 2), (2, 0)))


def path_graph(n):
    """n DOFs chained by the edges i -> i + 1."""
    return ElementGraph(n, tuple((i, i + 1) for i in range(n - 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_euler_states(rng, n, gamma=1.4):
    """Admissible conserved states with O(1) density/velocity/pressure."""
    rho = rng.uniform(0.2, 3.0, n)
    vel = rng.uniform(-2.0, 2.0, n)
    pres = rng.uniform(0.2, 3.0, n)
    u = np.empty((n, 3))
    u[:, 0] = rho
    u[:, 1] = rho * vel
    u[:, 2] = pres / (gamma - 1.0) + 0.5 * rho * vel**2
    return u


def same_bits(got, want):
    """np.array_equal, and equal bytes too: signed zeros and NaNs included."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def element_defect(residuals):
    """Conservation defect per element of a ``ResidualSet``: the sum of its
    residuals minus the sum of its boundary parts, shape (ncell, p)."""
    return residuals.phi.sum(axis=0) - residuals.boundary_parts.sum(axis=0)


def post_defect(corrected, states, model):
    """Each element's entropy production on the corrected residuals minus its
    boundary entropy flux, sum_sigma v_sigma . Phi~_sigma - g_bound, shape
    (ncell,); by the per-cell formula on (2, ncell, p) stacks of the two cell
    ends of the (ndof, p) node states."""
    dofs = corrected.cell_dofs
    v = model.entropy_variables(states)
    v_cells = np.stack([v[dofs[:, 0]], v[dofs[:, 1]]])
    g = model.entropy_flux(states)
    g_bound = g[dofs[:, 1]] - g[dofs[:, 0]]
    return np.einsum("dkp,dkp->k", v_cells, corrected.phi) - g_bound


def energy_identity_defect(rho0, v0, e0, rho1, v1, e1):
    """|dE - rhs| of the total-energy increment identity, E = e + rho v^2 / 2:

        dE = de + (v1 + v0)/2 * d(rho v) - (v1 v0)/2 * d(rho)

    holds exactly for any two states, so the defect is zero to rounding."""
    rho0, v0, e0, rho1, v1, e1 = map(np.asarray, (rho0, v0, e0, rho1, v1, e1))
    E0 = e0 + 0.5 * rho0 * v0**2
    E1 = e1 + 0.5 * rho1 * v1**2
    rhs = (e1 - e0) + 0.5 * (v1 + v0) * (rho1 * v1 - rho0 * v0) - 0.5 * (v1 * v0) * (rho1 - rho0)
    return np.abs((E1 - E0) - rhs)
