"""Recover antisymmetric edge fluxes from conservative residuals.

Given per-DOF residuals Phi_sigma and boundary-flux shares fhat_sigma^b on an
element whose DOFs form a connected graph, set Psi = Phi - fhat^b.  If the
Psi sum to zero there exist edge fluxes with A fhat = Psi (A the incidence
matrix); the minimum-norm choice is fhat = A^T L^+ Psi with L = A A^T the
graph Laplacian.  This exhibits an equivalent flux-form update for any
locally conservative residual scheme.  R = A^T L^+ is built once per graph
and applied to a whole stack of elements in one product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConservationError, GraphStructureError
from .mesh import ElementGraph, scatter_cell_ends

SUM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GraphLaplacian:
    """L = A A^T of a connected element graph and its recovery operator
    R = A^T L^+, both read-only.  L != 0 is the adjacency plus each DOF with an
    edge, so the graph is connected, and L of rank ndof-1 (Fiedler 1973), when
    row 0 of the boolean power (L != 0)^(ndof-1) is all true; otherwise
    GraphStructureError."""

    graph: ElementGraph
    matrix: np.ndarray = field(init=False)
    operator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = self.graph.incidence
        L = A @ A.T
        reach = np.eye(self.graph.ndof, dtype=bool)[0]
        for _ in range(self.graph.ndof - 1):
            reach = reach @ (L != 0)
        if not reach.all():
            raise GraphStructureError("flux recovery needs a connected element graph")
        L.setflags(write=False)
        object.__setattr__(self, "matrix", L)
        operator = A.T @ self.solve(np.eye(self.graph.ndof))
        operator.setflags(write=False)
        object.__setattr__(self, "operator", operator)

    def solve(self, rhs):
        """Apply L^+ to the columns of a 2-D rhs (each orthogonal to the ones vector).

        Projects, solves the grounded system with DOF 0 pinned to zero, then
        re-projects; exact on the image space without an eigendecomposition.
        """
        rhs = np.asarray(rhs, dtype=float)
        rhs = rhs - rhs.mean(axis=0, keepdims=True)
        y = np.zeros_like(rhs)
        y[1:] = np.linalg.solve(self.matrix[1:, 1:], rhs[1:])
        return y - y.mean(axis=0, keepdims=True)

    def recover(self, psi, scale):
        """Edge fluxes R Psi, shape (nedges, n, p), of a DOF-major Psi stack
        (ndof, n, p): Psi[:, k] is element k's.

        Element k's scale must be finite and its largest |defect| over the p
        columns at most SUM_TOLERANCE * scale[k]; otherwise ConservationError
        names every element that is not, every element with a NaN defect or
        scale included.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums are refused
            defect = psi.sum(axis=0)
        closed = (_row_max(np.abs(defect)) <= SUM_TOLERANCE * scale) & np.isfinite(scale)
        bad = np.flatnonzero(~closed)
        if bad.size:
            raise ConservationError(
                f"residuals of {bad.size} element(s), first {bad[:5].tolist()}, do not sum "
                "to zero; no flux form exists", defect=defect[bad], elements=bad,
            )
        # one product per DOF, summed in DOF order: each element gets a lone
        # call's bits, where BLAS and einsum order sums by shape and strides
        return sum(self.operator[:, dof, None, None] * psi[dof] for dof in range(self.graph.ndof))


def _row_max(a):
    """a.max(axis=1) of an (n, p) array as np.maximum over its columns, the
    same bits, NaN included, without numpy's slow short-axis reduction."""
    out = a[:, 0]
    for j in range(1, a.shape[1]):
        out = np.maximum(out, a[:, j])
    return out


def _end_scale(x):
    """np.abs(x).max(axis=(0, 2)) of a (2, n, p) cell-end stack, as
    np.maximum over the two ends, then over the columns."""
    ends = np.abs(x)
    return _row_max(np.maximum(ends[0], ends[1], out=ends[0]))


def recover_fluxes(graph, psi):
    """Minimum-norm edge fluxes (nedges, p) with A fhat = Psi, componentwise,
    of one element's Psi = Phi - fhat^b, shape (graph.ndof, p).

    Raises ConfigError when Psi has another shape, and ConservationError when
    the residual sum exceeds the tolerance relative to the size of Psi: such
    residuals admit no flux form at all.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != graph.ndof:
        raise ConfigError(f"psi must be ({graph.ndof}, p), got shape {psi.shape}")
    scale = max(float(np.abs(psi).max()), 1e-300)
    return GraphLaplacian(graph).recover(psi[:, None], np.array([scale]))[:, 0]


@functools.cache
def _segment_laplacian():
    """The 1D elements' Laplacian, built on first use, so that a process that
    never recovers fluxes makes no LAPACK call."""
    return GraphLaplacian(ElementGraph(2, ((0, 1),)))


def reconstruct_scheme(mesh, states, residuals):
    """Rewrite a conservative residual set in flux form and return its update.

    Recovers one edge flux per 1D element (segment graphs) and rebuilds the
    per-DOF increments as sum over owning elements of (signed edge fluxes +
    boundary shares).  The result equals residuals.scatter_to_dofs up to the
    recovery tolerance; each returned interface flux is shared by the two
    adjacent elements up to sign through the boundary parts.  Each element's
    recovery scale is its largest |phi| or |boundary part|, as elementwise
    maxima over the cell ends and components.

    Returns (increments, edge_fluxes) with increments shaped (ndof, p) and
    edge_fluxes (ncell, p).
    """
    phi, bparts = residuals.phi, residuals.boundary_parts
    scale = np.maximum(_end_scale(phi), _end_scale(bparts))
    # recover refuses a non-finite Psi, and a closed finite one's fluxes are finite
    with np.errstate(over="ignore", invalid="ignore"):
        edge_fluxes = _segment_laplacian().recover(phi - bparts, np.maximum(scale, 1e-300))[0]

    increments = scatter_cell_ends(edge_fluxes + bparts[0], -edge_fluxes + bparts[1], mesh.ndof)
    return increments, edge_fluxes
