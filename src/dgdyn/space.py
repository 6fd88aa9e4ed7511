"""Lagrange basis on the reference triangle, DG dof layout and quadrature.

The quadrature rules are products of tabulated Gauss rules: fixed data for
the degrees supported, and a table keeps scipy.special out of every run,
with the scipy.linalg it computes the rules with (about 12 MB of peak RSS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import ceil

import numpy as np
import scipy.sparse as sp

from .mesh import EdgeClassification, Mesh, p1_vertices

MAX_QUADRATURE_DEGREE = 10

# The n-point Gauss rules on [-1, 1] for n = 1..6 (the most that
# MAX_QUADRATURE_DEGREE needs) in row n - 1: Gauss-Jacobi of weight (1 - t)
# and Gauss-Legendre, each value the repr of scipy 1.17's roots_jacobi(n, 1, 0)
# or roots_legendre(n), so it reads back bitwise.  Rules computed afresh (by
# Golub-Welsch on numpy's eigh, say) move the nodes by up to 2e-15: enough to
# turn operator entries that cancel to exactly zero into stored ones.
_JACOBI_NODES = (
    (-0.3333333333333333,),
    (-0.6898979485566357, 0.2898979485566358),
    (-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
    (-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
    (-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223, 0.8029298284023472),
    (-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003, 0.538467724060109, 0.8538913426394822),
)
_JACOBI_WEIGHTS = (
    (2.0,),
    (1.2721655269759087, 0.7278344730240913),
    (0.8037276549558384, 0.9169644254383448, 0.2793079196058167),
    (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234),
    (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667, 0.0629916580867692),
    (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208, 0.17582066220203585, 0.034953207254438116),
)
_LEGENDRE_NODES = (
    (0.0,),
    (-0.5773502691896257, 0.5773502691896257),
    (-0.7745966692414834, 0.0, 0.7745966692414834),
    (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526),
    (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
    (-0.932469514203152, -0.6612093864662645, -0.23861918608319693, 0.23861918608319693, 0.6612093864662645, 0.932469514203152),
)
_LEGENDRE_WEIGHTS = (
    (2.0,),
    (1.0, 1.0),
    (0.5555555555555558, 0.8888888888888883, 0.5555555555555558),
    (0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538),
    (0.23692688505618897, 0.4786286704993665, 0.568888888888889, 0.4786286704993665, 0.23692688505618897),
    (0.17132449237917016, 0.36076157304813855, 0.4679139345726912, 0.4679139345726912, 0.36076157304813855, 0.17132449237917016),
)


@dataclass(eq=False)
class QuadratureRule:
    points: np.ndarray  # (n, 2) on the reference triangle or (n,) on [0, 1]
    weights: np.ndarray


def triangle_quadrature(exact_degree: int) -> QuadratureRule:
    """Quadrature on the reference triangle {x, y >= 0, x + y <= 1}.

    Collapsed Gauss-Jacobi x Gauss-Legendre product rule: positive weights,
    exact for all polynomials up to ``exact_degree``.
    """
    if not 1 <= exact_degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {exact_degree}")
    n = ceil((exact_degree + 1) / 2)
    tj, wj = np.array(_JACOBI_NODES[n - 1]), np.array(_JACOBI_WEIGHTS[n - 1])  # weight (1 - t) on [-1, 1]
    tl, wl = np.array(_LEGENDRE_NODES[n - 1]), np.array(_LEGENDRE_WEIGHTS[n - 1])
    xi = 0.5 * (tj + 1.0)
    eta = 0.5 * (tl + 1.0)
    X = np.repeat(xi, n)
    Y = np.tile(eta, n) * (1.0 - X)
    W = np.repeat(wj / 4.0, n) * np.tile(wl / 2.0, n)
    return QuadratureRule(points=np.column_stack([X, Y]), weights=W)


def edge_quadrature(exact_degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]."""
    if not 1 <= exact_degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {exact_degree}")
    n = ceil((exact_degree + 1) / 2)
    t, w = np.array(_LEGENDRE_NODES[n - 1]), np.array(_LEGENDRE_WEIGHTS[n - 1])
    return QuadratureRule(points=0.5 * (t + 1.0), weights=0.5 * w)


def _lattice_nodes(p: int) -> np.ndarray:
    """Lagrange node set: vertices, then edge nodes, then interior nodes."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    edge = []
    for (ax, ay), (bx, by) in ((verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])):
        for k in range(1, p):
            t = k / p
            edge.append((ax + t * (bx - ax), ay + t * (by - ay)))
    inner = [(i / p, j / p) for i in range(1, p) for j in range(1, p) if i + j < p]
    return np.array(verts + edge + inner)


class ReferenceBasis:
    """Degree-p Lagrange basis on the reference triangle.

    Values and gradients are evaluated through the monomial expansion
    phi_k = sum_m C[m, k] x**i_m y**j_m with C the inverse of the
    node-monomial Vandermonde, so the Lagrange property holds by
    construction.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.p = p
        self.nodes = _lattice_nodes(p)
        self.n_local = len(self.nodes)
        self.exponents = np.array([(i, j) for i in range(p + 1) for j in range(p + 1 - i)])
        V = self._monomials(self.nodes)
        self.coeff = np.linalg.inv(V)

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        i = self.exponents[:, 0]
        j = self.exponents[:, 1]
        return pts[..., 0, None] ** i * pts[..., 1, None] ** j

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape pts.shape[:-1] + (n_local,)."""
        return self._monomials(pts) @ self.coeff

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Reference gradients, shape pts.shape[:-1] + (n_local, 2)."""
        pts = np.asarray(pts, dtype=float)
        i = self.exponents[:, 0]
        j = self.exponents[:, 1]
        x = pts[..., 0, None]
        y = pts[..., 1, None]
        dx = i * x ** np.maximum(i - 1, 0) * y**j  # a zero exponent zeroes its term
        dy = j * x**i * y ** np.maximum(j - 1, 0)
        return np.stack([dx @ self.coeff, dy @ self.coeff], axis=-1)


@lru_cache(maxsize=8)
def reference_basis(p: int) -> ReferenceBasis:
    return ReferenceBasis(p)


@dataclass(eq=False)
class DGSpace:
    """Discontinuous space of element-wise degree-p polynomials.

    Dofs are laid out block-per-element, so the domain mass matrix is block
    diagonal and the local L2 projection is an exact small solve.  The
    space owns what is built once on it (``kept``, filled through
    ``keep``: the quadrature point sets, a source's load vectors, the
    projections and inverse masses, the energy error's tables and exact
    parts, the P1 coarse parts), so they are freed with it.
    """

    mesh: Mesh
    p: int
    kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.basis = reference_basis(self.p)
        self.n_local = self.basis.n_local
        self.n_dofs = self.mesh.n_triangles * self.n_local

    @cached_property
    def dofs(self) -> np.ndarray:
        """Global dof indices per element, shape (n_triangles, n_local)."""
        offsets = np.arange(self.mesh.n_triangles) * self.n_local
        return offsets[:, None] + np.arange(self.n_local)

    def keep(self, build, *args):
        """``build(self, *args)``, made once and kept under (build's name,
        *args).  The rule: ``args`` are everything the value reads beyond
        the space (edges, a face set, a degree, a field, lambda, the form
        coefficients), so no two values share a key.  A value not to keep
        is made by calling its builder directly."""
        key = (build.__name__, *args)
        if key not in self.kept:
            self.kept[key] = build(self, *args)
        return self.kept[key]


@dataclass(frozen=True, eq=False)
class P1Embedding:
    """The embedding P of the conforming P1 vertex space into the DG space,
    held as each element's corner unknowns and the barycentric table, and
    its transpose P' as CSR: no (n_dofs x number of P1 unknowns) matrix.

    ``prolong`` is P c, a gather and a product with the table: at p = 1
    and 2, where each Lagrange node's value takes at most two nonzero
    halves, bitwise the CSR product of P, and faster.  P' stays CSR: its
    CSC view gives the same bits more slowly, a gathered ``bincount`` is
    five times slower, and summing element by element would reorder
    p = 2's sums (see README, Linear solver)."""

    corners: np.ndarray  # (n_triangles, 3) the P1 unknown of each element vertex
    bary: np.ndarray | None  # (n_local, 3) barycentric coordinates of the nodes; None where the identity (p = 1)
    restriction: sp.csr_matrix  # P', (number of P1 unknowns, n_dofs)

    def prolong(self, c: np.ndarray) -> np.ndarray:
        """P c: the DG coefficients of the P1 function with unknowns ``c``."""
        if self.bary is None:
            return c.take(self.corners.ravel())
        return (c[self.corners] @ self.bary.T).ravel()


def conforming_p1_embedding(space: DGSpace, edges: EdgeClassification) -> P1Embedding:
    """The embedding of the conforming P1 vertex space into the DG space.

    Column v of P holds the hat function of P1 unknown v (see
    ``p1_vertices``) at every element's Lagrange nodes (its barycentric
    coordinates there).  On a periodic mesh the seam vertices are one
    unknown, so its hat function spans the seam.  P' is that matrix's
    transpose with its zeros eliminated, built directly: P is never held.
    """
    mesh = space.mesh
    bary = reference_basis(1).eval(space.basis.nodes)  # (n_local, 3)
    vertices = p1_vertices(mesh, edges.bc_mode)
    corners = vertices[mesh.triangles]
    shape = (mesh.n_triangles, space.n_local, 3)
    rows = np.broadcast_to(corners[:, None, :], shape)
    cols = np.broadcast_to(space.dofs[:, :, None], shape)
    vals = np.broadcast_to(bary, shape)
    keep = (vals != 0).ravel()  # P2 edge nodes are off the opposite vertex's support
    entries = vals.ravel()[keep], (rows.ravel()[keep], cols.ravel()[keep])
    restriction = sp.csr_matrix(entries, shape=(vertices.max() + 1, space.n_dofs))
    return P1Embedding(corners, None if np.array_equal(bary, np.eye(3)) else bary, restriction)
