"""Structured triangulations of the unit square with classified edges and ridges.

The domain is the unit square (0, 1) x (0, 1), the only domain of the
paper's experiments.  Its top and bottom sides carry the dynamic boundary
condition (``gamma1``) and its left and right sides are either identified
periodically or treated as a weak Dirichlet boundary (``gamma2``).  Meshes
are uniform N x N grids of cells (N = 2**level), each cell split along the
lower-left to upper-right diagonal.

Every face set is one ``Faces`` type: a face has one side (gamma1, the
Dirichlet walls, the corners) or two (``two_sided``: the interior edges,
then the periodic pairs; the ridges).  On a one-sided face jump and
average are the trace.  The vertices of gamma1 are the faces of the 1D
surface mesh on it: point faces with unit weight and the outward tangent
of gamma1 as normal, two-sided ridges where two gamma1 edges meet and, in
dirichlet_lateral mode, one-sided corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

PERIODIC = "periodic"
DIRICHLET_LATERAL = "dirichlet_lateral"

BC_MODES = (PERIODIC, DIRICHLET_LATERAL)

# The nested conforming-P1 grids of a mesh go down to this level's 8 x 8 cells.
COARSEST_LEVEL = 3


class MeshError(Exception):
    """Raised for a mesh whose triangles are not the structured ones of its level."""


@dataclass(eq=False)
class Mesh:
    """Immutable triangulation.

    vertices are enumerated row-major on the (N+1) x (N+1) grid of nodes,
    triangles are counterclockwise vertex index triples, and ``h`` is the
    mesh size (the cell diagonal, i.e. the longest edge).
    """

    level: int
    vertices: np.ndarray  # (n_vertices, 2)
    triangles: np.ndarray  # (n_triangles, 3) int
    h: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_cells_per_side(self) -> int:
        return 2**self.level

    # Affine geometry, shared by assembly and error evaluation.  The map
    # from the reference triangle (0,0)-(1,0)-(0,1) to triangle t is
    # x = v0[t] + J[t] @ x_ref.

    @cached_property
    def v0(self) -> np.ndarray:
        return self.vertices[self.triangles[:, 0]]

    @cached_property
    def jacobians(self) -> np.ndarray:
        p0 = self.vertices[self.triangles[:, 0]]
        p1 = self.vertices[self.triangles[:, 1]]
        p2 = self.vertices[self.triangles[:, 2]]
        return np.stack([p1 - p0, p2 - p0], axis=-1)  # columns are the edges

    @cached_property
    def det_jacobians(self) -> np.ndarray:
        J = self.jacobians
        return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]

    @cached_property
    def inv_jacobians(self) -> np.ndarray:
        """[[d, -b], [-c, a]] / det for J = [[a, b], [c, d]], with -b taken
        as 0 - b: a zero entry stays +0, as in LAPACK's inverse, whose
        values this is bitwise on the structured meshes."""
        (a, b), (c, d) = self.jacobians.transpose(1, 2, 0)
        adjugate = np.stack([d, 0.0 - b, 0.0 - c, a], axis=-1).reshape(-1, 2, 2)
        return adjugate / self.det_jacobians[:, None, None]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


def build_structured_mesh(level: int) -> Mesh:
    """Uniformly refined structured triangular grid of the unit square.

    N = 2**level cells per side; each cell is split by its lower-left to
    upper-right diagonal into a lower triangle (v00, v10, v11) and an upper
    triangle (v00, v11, v01), both counterclockwise.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    n = 2**level
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)  # row-major: index = j*(n+1) + i
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    h = float(np.hypot(1.0 / n, 1.0 / n))
    return Mesh(level=level, vertices=vertices, triangles=_structured_triangles(n), h=h)


def _structured_triangles(n: int) -> np.ndarray:
    """Cell (i, j) of the n x n grid owns triangles 2*(j*n+i) (lower) and
    2*(j*n+i)+1 (upper)."""
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return triangles


def _p1_number(i, j, n: int, periodic: bool):
    """The conforming-P1 unknown of vertex (i, j) of the n x n cell grid:
    row-major, with the right seam vertex (n, j) being (0, j) if periodic."""
    m = n if periodic else n + 1
    return j * m + i % m


def p1_vertices(mesh: Mesh, bc_mode: str) -> np.ndarray:
    """The conforming-P1 unknown of each mesh vertex: its own number, or in
    periodic mode the folded one, which leaves n (n + 1) unknowns."""
    n = mesh.n_cells_per_side
    j, i = np.divmod(np.arange(mesh.n_vertices), n + 1)
    return _p1_number(i, j, n, bc_mode == PERIODIC)


def p1_prolongation(n: int, bc_mode: str) -> sp.csr_matrix:
    """Interpolation of conforming P1 functions from the n x n cell grid
    onto the 2n x 2n grid of its refinement, on the unknowns of
    ``p1_vertices``.  A fine vertex is a coarse vertex or the midpoint of a
    coarse edge: horizontal, vertical, or the lower-left to upper-right
    diagonal of a cell.  It takes the mean of that edge's two ends, which
    for a coarse vertex are itself twice."""
    periodic = bc_mode == PERIODIC
    m = 2 * n + (not periodic)  # fine unknowns per grid row
    j, i = np.divmod(np.arange(m * (2 * n + 1)), m)
    ends = _p1_number(np.stack([i // 2, (i + 1) // 2]), np.stack([j // 2, (j + 1) // 2]), n, periodic)
    shape = (len(i), (n + (not periodic)) * (n + 1))
    return sp.csr_matrix((np.full(ends.size, 0.5), (np.tile(np.arange(len(i)), 2), ends.ravel())), shape=shape)


def p1_prolongations(mesh: Mesh, bc_mode: str) -> list[sp.csr_matrix]:
    """The prolongations of the nested conforming-P1 spaces below the
    mesh's, finest first: entry k maps level mesh.level - k - 1 onto level
    mesh.level - k, down to COARSEST_LEVEL."""
    return [p1_prolongation(2 ** (level - 1), bc_mode) for level in range(mesh.level, COARSEST_LEVEL, -1)]


@dataclass(eq=False)
class Faces:
    """A batch of faces with one or two sides each: edges, or point faces
    (``p0 == p1``, ``length`` 1, their counting measure).

    Column k of ``elem`` (n, sides) is the element of side k.  The
    endpoints ``p0``/``p1`` lie on the first side's realization of the
    face; ``shift``, set on two-sided faces only, moves them onto the
    second side's (zero unless the face is across a periodic seam).  The
    normal is unit length and points out of the first side: on an edge
    away from its element, on a point face along the outward tangent of
    the first side's edge.
    """

    p0: np.ndarray
    p1: np.ndarray
    elem: np.ndarray
    normal: np.ndarray
    length: np.ndarray
    shift: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.elem)


@dataclass(eq=False)
class EdgeClassification:
    """All mesh edges, each in exactly one face set, and the vertices of
    gamma1 as point faces: the ridges and, if Dirichlet, the corners.
    ``two_sided`` holds the interior edges, then in periodic mode the
    pairs of lateral edges."""

    bc_mode: str
    two_sided: Faces
    gamma1: Faces
    dirichlet: Faces | None
    ridges: Faces
    corners: Faces | None


def classify_edges(mesh: Mesh, bc_mode: str = PERIODIC) -> EdgeClassification:
    """Classify every geometric edge of a structured mesh.

    The face sets follow from the cell indices.  Every edge runs from a
    vertex lo to a vertex hi > lo; the interior edges are listed by (lo, hi),
    gamma1 bottom then top and the lateral edges left then right, each from
    left to right or bottom to top.  In periodic mode the lateral edges are
    paired by grid row, the right edge's element first, and follow the
    interior edges in ``two_sided``; the four corner vertices fuse into one
    ridge per boundary component.  In dirichlet_lateral mode the lateral
    edges form a separate Dirichlet set and the corners become one-sided
    faces.
    """
    if bc_mode not in BC_MODES:
        raise ValueError(f"unknown bc_mode {bc_mode!r}")
    n = mesh.n_cells_per_side
    if not np.array_equal(mesh.triangles, _structured_triangles(n)):
        raise MeshError(f"the triangles are not those of the structured level-{mesh.level} mesh")

    # from vertex v = j*(n+1) + i, in key order: the horizontal, vertical and
    # diagonal edge, with the triangle below/left as first side and the one
    # above/right as second
    v = np.arange(mesh.n_vertices)
    j, i = np.divmod(v, n + 1)
    cell = 2 * (j * n + i)  # lower triangle of cell (i, j); the upper is cell + 1
    hi = np.column_stack([v + 1, v + n + 1, v + n + 2])
    first = np.column_stack([cell - 2 * n + 1, cell - 2, cell])
    second = np.column_stack([cell, cell + 1, cell + 1])
    sides = np.stack([first, second], axis=-1)
    inside = np.column_stack([(0 < j) & (j < n) & (i < n), (0 < i) & (i < n) & (j < n), (i < n) & (j < n)])
    lo, hi, sides = np.broadcast_to(v[:, None], hi.shape)[inside], hi[inside], sides[inside]

    k = np.arange(n)
    g1, g1_elem = np.concatenate([k, n * (n + 1) + k]), np.concatenate([2 * k, 2 * (n - 1) * n + 2 * k + 1])
    gamma1 = _build_faces(mesh, g1, g1 + 1, g1_elem[:, None])
    left, right = k * (n + 1), k * (n + 1) + n
    left_elem, right_elem = 2 * k * n + 1, 2 * (k * n + n - 1)

    shift = np.zeros((len(lo), 2))
    dirichlet = None
    if bc_mode == PERIODIC:
        lo, hi = np.concatenate([lo, right]), np.concatenate([hi, right + n + 1])
        sides = np.concatenate([sides, np.column_stack([right_elem, left_elem])])
        shift = np.concatenate([shift, np.tile([-1.0, 0.0], (n, 1))])
    else:
        lateral = np.concatenate([left, right])
        dirichlet = _build_faces(mesh, lateral, lateral + n + 1, np.concatenate([left_elem, right_elem])[:, None])

    two_sided = _build_faces(mesh, lo, hi, sides, shift)
    return EdgeClassification(bc_mode, two_sided, gamma1, dirichlet, *_build_point_faces(gamma1, bc_mode))


def _build_faces(mesh, lo, hi, elem, shift=None) -> Faces:
    """Faces on the edges lo-hi with the sides ``elem`` (n, sides), their
    normal pointing away from the first side's element."""
    p0 = mesh.vertices[lo]
    p1 = mesh.vertices[hi]
    tang = p1 - p0
    length = np.linalg.norm(tang, axis=1)
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    flip = np.einsum("ei,ei->e", normal, 0.5 * (p0 + p1) - mesh.centroids[elem[:, 0]]) < 0
    normal[flip] *= -1.0
    return Faces(p0=p0, p1=p1, elem=elem, normal=normal, length=length, shift=shift)


def _build_point_faces(gamma1: Faces, bc_mode: str) -> tuple[Faces, Faces | None]:
    """The vertices of gamma1 as point faces: the ridges and the corners.
    gamma1 is sorted by component, then by x, so row c of ``e`` lists the
    edges of component c from left to right.  A ridge takes the edge on its
    left as first side, at that edge's right end, and the edge on its right
    as second, so its normal is +x."""
    e = np.arange(len(gamma1)).reshape(2, -1)
    corners = None
    if bc_mode == PERIODIC:
        # the corner vertex, listed first, fuses the last edge with the first
        first, second = np.roll(e, 1, axis=1).ravel(), e.ravel()
    else:
        first, second = e[:, :-1].ravel(), e[:, 1:].ravel()
        # one-sided corners: the first edge's left end, the last edge's right end
        ends, left = e[:, [0, -1]].ravel(), np.tile([True, False], 2)[:, None]
        point = np.where(left, gamma1.p0[ends], gamma1.p1[ends])
        normal = np.where(left, [-1.0, 0.0], [1.0, 0.0])
        corners = Faces(p0=point, p1=point, elem=gamma1.elem[ends], normal=normal, length=np.ones(len(ends)))
    point, elem = gamma1.p1[first], gamma1.elem[np.column_stack([first, second]), 0]
    normal = np.tile([1.0, 0.0], (len(first), 1))
    ridges = Faces(p0=point, p1=point, elem=elem, normal=normal, length=np.ones(len(first)), shift=gamma1.p0[second] - point)
    return ridges, corners
