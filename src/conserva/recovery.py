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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConservationError, GraphStructureError
from .mesh import EdgeFluxSet, ElementGraph, element_graph

SUM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GraphLaplacian:
    """L = A A^T with its recovery operator R = A^T L^+ (read-only)."""

    graph: ElementGraph
    matrix: np.ndarray
    operator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        operator = self.graph.incidence.T @ self.solve(np.eye(self.graph.ndof))
        operator.setflags(write=False)
        object.__setattr__(self, "operator", operator)

    def solve(self, rhs):
        """Apply L^+ to rhs columns (rhs must be orthogonal to the ones vector).

        Projects, solves the grounded system with DOF 0 pinned to zero, then
        re-projects; exact on the image space without an eigendecomposition.
        """
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        rhs = rhs - rhs.mean(axis=0, keepdims=True)
        y = np.zeros_like(rhs)
        if self.graph.ndof > 1:
            y[1:] = np.linalg.solve(self.matrix[1:, 1:], rhs[1:])
        y = y - y.mean(axis=0, keepdims=True)
        return y[:, 0] if squeeze else y

    def recover(self, psi, scale):
        """Edge fluxes R Psi_k, shape (n, nedges, p), of a Psi stack (n, ndof, p).

        Element k must sum to zero within SUM_TOLERANCE * scale[k]; otherwise
        ConservationError names every element that does not, including every
        element whose Psi or scale is not finite.
        """
        defect = psi.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(defect).max(axis=1) <= SUM_TOLERANCE * scale))
        if bad.size:
            raise ConservationError(
                f"residuals of {bad.size} element(s), first {bad[:5].tolist()}, do not sum "
                "to zero; no flux form exists", defect=defect[bad], elements=bad,
            )
        return self.operator @ psi


def build_laplacian(graph):
    """Graph Laplacian of an element graph; rank ndof-1 when connected."""
    if not graph.is_connected():
        raise GraphStructureError("flux recovery needs a connected element graph")
    A = graph.incidence
    return GraphLaplacian(graph, A @ A.T)


@dataclass
class RecoveryProblem:
    """Right-hand side Psi_sigma = Phi_sigma - fhat_sigma^b of one element.

    ``psi`` is (ndof, p); a 1-D Psi is one component, shape (ndof, 1).
    ``scale`` is the magnitude the conservation precondition is judged
    against (by default the size of Psi itself).
    """

    psi: np.ndarray
    scale: float | None = None

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        self.psi = psi[:, None] if psi.ndim == 1 else psi
        if self.scale is None:
            self.scale = max(float(np.abs(self.psi).max()), 1e-300)


def recover_fluxes(graph, problem, laplacian=None):
    """Minimum-norm edge fluxes with A fhat = Psi (componentwise).

    Raises ConservationError when the residual sum exceeds the relative
    tolerance: such residuals admit no flux form at all.
    """
    if laplacian is None:
        laplacian = build_laplacian(graph)
    return EdgeFluxSet(graph, laplacian.recover(problem.psi[None], np.array([problem.scale]))[0])


_SEGMENT_LAPLACIAN = build_laplacian(element_graph("segment"))


def reconstruct_scheme(mesh, states, residuals):
    """Rewrite a conservative residual set in flux form and return its update.

    Recovers one edge flux per 1D element (segment graphs) and rebuilds the
    per-DOF increments as sum over owning elements of (signed edge fluxes +
    boundary shares).  The result equals residuals.scatter_to_dofs up to the
    recovery tolerance; each returned interface flux is shared by the two
    adjacent elements up to sign through the boundary parts.

    Returns (increments, edge_fluxes) with increments shaped (ndof, p) and
    edge_fluxes (ncell, p).
    """
    phi, bparts = residuals.phi, residuals.boundary_parts
    scale = np.maximum(np.abs(phi).max(axis=(1, 2)), np.abs(bparts).max(axis=(1, 2)))
    edge_fluxes = _SEGMENT_LAPLACIAN.recover(phi - bparts, np.maximum(scale, 1e-300))[:, 0]

    increments = np.zeros((mesh.ndof, phi.shape[2]))
    np.add.at(increments, residuals.cell_dofs[:, 0], edge_fluxes + bparts[:, 0])
    np.add.at(increments, residuals.cell_dofs[:, 1], -edge_fluxes + bparts[:, 1])
    return increments, edge_fluxes
