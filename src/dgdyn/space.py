"""Lagrange basis on the reference triangle, DG dof layout and quadrature."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import ceil

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from .mesh import EdgeClassification, Mesh, p1_vertices

MAX_QUADRATURE_DEGREE = 10


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
    tj, wj = roots_jacobi(n, 1, 0)  # weight (1 - t) on [-1, 1]
    tl, wl = roots_legendre(n)
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
    t, w = roots_legendre(n)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(i > 0, i * x ** np.maximum(i - 1, 0) * y**j, 0.0)
            dy = np.where(j > 0, j * x**i * y ** np.maximum(j - 1, 0), 0.0)
        return np.stack([dx @ self.coeff, dy @ self.coeff], axis=-1)


@lru_cache(maxsize=8)
def reference_basis(p: int) -> ReferenceBasis:
    return ReferenceBasis(p)


@dataclass(eq=False)
class DGSpace:
    """Discontinuous space of element-wise degree-p polynomials.

    Dofs are laid out block-per-element, so the domain mass matrix is block
    diagonal and the local L2 projection is an exact small solve.  The
    space owns the quadrature point sets built on it (``tables``, filled
    by ``assembly``), so they are freed with it.
    """

    mesh: Mesh
    p: int
    tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.basis = reference_basis(self.p)
        self.n_local = self.basis.n_local
        self.n_dofs = self.mesh.n_triangles * self.n_local

    @cached_property
    def dofs(self) -> np.ndarray:
        """Global dof indices per element, shape (n_triangles, n_local)."""
        offsets = np.arange(self.mesh.n_triangles) * self.n_local
        return offsets[:, None] + np.arange(self.n_local)


def conforming_p1_embedding(space: DGSpace, edges: EdgeClassification) -> sp.csr_matrix:
    """Embedding of the conforming P1 vertex space into the DG space.

    Column v holds the hat function of P1 unknown v (see ``p1_vertices``)
    at every element's Lagrange nodes (its barycentric coordinates there),
    shape (n_dofs, number of P1 unknowns).  On a periodic mesh the seam
    vertices are one unknown, so its hat function spans the seam.
    """
    mesh = space.mesh
    bary = reference_basis(1).eval(space.basis.nodes)  # (n_local, 3)
    shape = (mesh.n_triangles, space.n_local, 3)
    rows = np.broadcast_to(space.dofs[:, :, None], shape)
    vertices = p1_vertices(mesh, edges.bc_mode)
    cols = np.broadcast_to(vertices[mesh.triangles][:, None, :], shape)
    vals = np.broadcast_to(bary, shape)
    keep = (vals != 0).ravel()  # P2 edge nodes are off the opposite vertex's support
    entries = vals.ravel()[keep], (rows.ravel()[keep], cols.ravel()[keep])
    return sp.csr_matrix(entries, shape=(space.n_dofs, vertices.max() + 1))


def interpolate(mesh: Mesh, space: DGSpace, u, t: float = 0.0) -> np.ndarray:
    """Piecewise Lagrange interpolant of the field u(t, x, y).

    Returns the DG coefficient vector whose entries are the field values at
    the physical images of the reference nodes.
    """
    nodes = space.basis.nodes  # (n_local, 2)
    X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, nodes)
    vals = u(t, X[..., 0], X[..., 1])
    return np.asarray(vals, dtype=float).reshape(-1)
