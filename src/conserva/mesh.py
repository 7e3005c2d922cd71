"""1D meshes with dual control volumes, per-element DOF graphs, and the
Gauss-Legendre rules that integrate over their cells.

Meshes and graphs are immutable after construction and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Gauss-Legendre (nodes, weights) on [-1, 1] by point count, written out with
# the bits of numpy.polynomial.legendre.leggauss(n), +0.0 middle node
# included, so that no import loads numpy.polynomial or runs its eigensolver
GAUSS_LEGENDRE = {
    3: (np.array([-0.7745966692414834, 0.0, 0.7745966692414834]),
        np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])),
    5: (np.array([-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
                  0.906179845938664]),
        np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                  0.4786286704993663, 0.23692688505618928])),
}


@dataclass
class Mesh1D:
    """Nodes, cells and node-centred dual control volumes.

    ``boundary`` is "periodic" or "transmissive".  Each DOF's control volume
    is half of each cell it ends.  Periodic meshes identify the last node
    with the first, so the DOF count equals the cell count; transmissive
    meshes keep every node as a DOF, so the two end volumes are half cells.
    """

    nodes: np.ndarray
    boundary: str = "periodic"

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 3:
            raise ConfigError("need at least 3 nodes (2 cells)")
        dx = np.diff(self.nodes)
        if not (dx > 0).all():
            raise ConfigError("nodes must be strictly increasing")
        if self.boundary not in ("periodic", "transmissive"):
            raise ConfigError(f"unknown boundary kind {self.boundary!r}")

        self.ncell = len(self.nodes) - 1
        self.cell_sizes = dx
        # the cells left and right of each DOF: wrapped on a periodic mesh, and
        # none (width zero) beyond the end nodes of a transmissive one
        if self.boundary == "periodic":
            left, right = np.roll(dx, 1), dx
        else:
            left, right = np.append(0.0, dx), np.append(dx, 0.0)
        self.ndof = len(left)
        self.dof_x = self.nodes[: self.ndof]
        self.volumes = 0.5 * (left + right)
        dofs = np.arange(self.ncell)
        self.cell_dofs = np.stack([dofs, (dofs + 1) % self.ndof], axis=1)

    @property
    def cell_centers(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def periodic(self):
        return self.boundary == "periodic"


def scatter_cell_ends(left, right, ndof):
    """Sum per-cell values onto the DOFs of a ``Mesh1D``, shape (ndof, ...).

    Cell i hands ``left[i]`` to DOF i and ``right[i]`` to DOF i + 1, which
    wraps to DOF 0 when ndof equals the cell count (periodic meshes).  Each
    DOF receives 0, then its left value, then its right value: the order of
    two ``np.add.at`` calls into zeros, so the sums agree bit for bit, -0.0
    included.  Boolean values are combined with logical or.
    """
    ncell = len(left)
    out = np.zeros((ndof,) + left.shape[1:], dtype=left.dtype)
    out[:ncell] += left
    out[1:] += right[: ndof - 1]
    if ndof == ncell:
        out[0] += right[-1]
    return out


def gather_cell_ends(values, cell_dofs):
    """Per-DOF values at the two ends of every cell, shape (2, ncell, ...).

    The counterpart of ``scatter_cell_ends`` for the cells of a ``Mesh1D``:
    ``left, right = gather_cell_ends(values, cell_dofs)`` equal
    ``values[cell_dofs[:, 0]]`` and ``values[cell_dofs[:, 1]]`` byte for byte.
    Cell i ends at DOF rows i and i + 1, so the result is a read-only view
    of the rows, with row 0 appended on a periodic mesh.
    """
    ncell = len(cell_dofs)
    if len(values) == ncell:  # periodic: the last cell ends at DOF 0
        values = np.concatenate([values, values[:1]])
    values = np.ascontiguousarray(values)  # one buffer of rows
    step = values.strides[:1]
    ends = np.ndarray((2, ncell) + values.shape[1:], values.dtype, values, 0, step + values.strides)
    ends.flags.writeable = False
    return ends


def uniform_mesh(a, b, n, boundary="periodic"):
    """Equispaced mesh of n cells on [a, b]."""
    if not b > a:
        raise ConfigError(f"need a < b, got [{a}, {b}]")
    if n < 2:
        raise ConfigError(f"need at least 2 cells, got {n}")
    return Mesh1D(np.linspace(a, b, n + 1), boundary=boundary)


@dataclass
class ElementGraph:
    """DOF set of one element plus its directed-edge incidence structure.

    ``edges`` lists the direct edges (tail, head); the read-only incidence
    matrix has one row per DOF and one column per direct edge, +1 at the tail
    and -1 at the head.
    """

    ndof: int
    edges: tuple
    incidence: np.ndarray = field(init=False)

    def __post_init__(self):
        self.edges = tuple((int(a), int(b)) for a, b in self.edges)
        A = np.zeros((self.ndof, len(self.edges)))
        for k, (a, b) in enumerate(self.edges):
            if a == b or not (0 <= a < self.ndof and 0 <= b < self.ndof):
                raise ConfigError(f"bad edge ({a}, {b}) for {self.ndof} DOFs")
            A[a, k] = 1.0
            A[b, k] = -1.0
        A.setflags(write=False)
        self.incidence = A

