"""Sparse operators of the interior-penalty discretization.

Assembles the bulk form (volume gradients plus jump/flux terms on interior
and periodic edges), the surface form on the top/bottom boundary (tangential
stiffness on the boundary edges plus point couplings at the ridges), the
mass matrices and time-dependent load vectors.  Every form is a sum of
quadrature over point sets: the triangles, the edges and the ridges (the
point faces of the surface mesh).  A point set is built once per geometry
and cached.  It keeps an inverse Jacobian per entry and the reference basis
values and gradients once per point pattern, the entries whose points share
reference positions (one for the cells, at most six per edge side).  One
evaluator on it serves assembly, loads, projection and norms: ``field``
maps coefficients to point values or physical gradients, ``test`` is its
weighted transpose, and ``basis`` gives the per-entry arrays from which
the operator blocks are built once.  Every operator is a sum of dense
element blocks: they are keyed by element pair, summed into one block
matrix and converted to CSR once.

Quadrature degrees follow a single convention: matrix assembly uses rules
exact to degree 2p, data-dependent vectors (loads, projections) and error
norms use 2p + 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET_LATERAL, BoundaryFaces, EdgeClassification, Mesh, TwoSidedFaces
from .space import DGSpace, edge_quadrature, triangle_quadrature

RIDGE_TANGENT = np.array([1.0, 0.0])  # gamma1 is horizontal


@dataclass(eq=False)
class FormParams:
    """Coefficients of the bilinear forms.

    sigma is the jump penalty; in the default ``gamma_over_h`` mode it is
    gamma / h with the single global mesh size (the mesh is quasi-uniform),
    in ``fixed_sigma`` mode it is the level-independent value gamma.
    """

    alpha: float
    beta: float
    lam: float
    gamma: float
    sigma: float
    penalty_mode: str = "gamma_over_h"

    def __post_init__(self):
        if self.gamma <= 0 or self.sigma <= 0:
            raise ValueError("penalty parameters must be positive")
        if min(self.alpha, self.beta, self.lam) < 0:
            raise ValueError("alpha, beta, lambda must be non-negative")

    @classmethod
    def for_mesh(cls, mesh: Mesh, *, alpha, beta, lam, gamma, penalty_mode="gamma_over_h"):
        if penalty_mode == "gamma_over_h":
            sigma = gamma / mesh.h
        elif penalty_mode == "fixed_sigma":
            sigma = gamma
        else:
            raise ValueError(f"unknown penalty_mode {penalty_mode!r}")
        return cls(alpha=alpha, beta=beta, lam=lam, gamma=gamma, sigma=sigma, penalty_mode=penalty_mode)


# ---------------------------------------------------------------------------
# quadrature point sets


@dataclass(eq=False)
class _Points:
    """Quadrature points on one side of a batch of cells, edges or ridges,
    with the reference basis tables of each point pattern."""

    elem: np.ndarray  # (nE,) element whose basis is evaluated
    w: np.ndarray  # (nE, nq) rule weight times cell area or edge length; 1 at a ridge
    x: np.ndarray  # (nE, nq) physical points on this side's realization
    y: np.ndarray
    inv_j: np.ndarray  # (nE, 2, 2) inverse Jacobian of each entry's element
    groups: tuple  # entries of each pattern: index arrays, or (slice(None),)
    phi: np.ndarray  # (n_patterns, nq, n_local) reference basis values
    grad: np.ndarray  # (n_patterns, nq, n_local, 2) reference gradients

    def field(self, c: np.ndarray, grad: bool = False) -> np.ndarray:
        """Values (nE, nq), or physical gradients (nE, nq, 2) if ``grad``, of
        the functions with local coefficients ``c`` (nE, n_local)."""
        tables = self.grad if grad else self.phi
        if len(tables) == 1:
            out = np.tensordot(c, tables[0], axes=(1, 1))
        else:
            out = np.empty(self.w.shape + ((2,) if grad else ()))
            for idx, table in zip(self.groups, tables):
                out[idx] = np.tensordot(c[idx], table, axes=(1, 1))
        return out @ self.inv_j if grad else out

    def test(self, values: np.ndarray) -> np.ndarray:
        """The weighted transpose of ``field``: local vectors (nE, n_local) of
        sum_q w values v, for values (nE, nq), or w values . grad v (nE, nq, 2)."""
        grad = values.ndim == 3
        wv = (self.w[..., None] * values) @ self.inv_j.transpose(0, 2, 1) if grad else self.w * values
        out = np.empty((len(self.elem), self.phi.shape[2]))
        for idx, table in zip(self.groups, self.grad if grad else self.phi):
            out[idx] = np.tensordot(wv[idx], table, axes=([1, 2], [0, 2]) if grad else (1, 0))
        return out

    def basis(self, grad: bool = False) -> np.ndarray:
        """Per-entry basis values (nE, nq, n_local), or physical gradients
        (nE, nq, n_local, 2) if ``grad``, for blocks built once per operator."""
        out = np.empty(self.w.shape + (self.grad if grad else self.phi).shape[2:])
        for idx, table in zip(self.groups, self.grad if grad else self.phi):
            out[idx] = table
        return out @ self.inv_j[:, None] if grad else out


@dataclass(eq=False)
class _FaceTables:
    plus: _Points
    minus: _Points | None
    normal: np.ndarray  # (nE, 2)


def _points(mesh, space, elems, points, w) -> _Points:
    """The side of ``elems`` at the physical ``points`` (nE, nq, 2).  Entries
    share a pattern when their reference positions agree within 1e-10, far
    above the rounding of the affine maps and far below any rule's spacing."""
    inv_j = mesh.inv_jacobians[elems]
    ref = (points - mesh.v0[elems][:, None, :]) @ inv_j.transpose(0, 2, 1)
    groups, rest = [], np.arange(len(ref))
    while len(rest):
        same = np.abs(ref[rest] - ref[rest[0]]).max(axis=(1, 2)) <= 1e-10
        groups.append(rest[same])
        rest = rest[~same]
    first = ref[[g[0] for g in groups]]
    groups = (slice(None),) if len(groups) == 1 else tuple(groups)
    x, y = points[..., 0], points[..., 1]
    return _Points(elems, w, x, y, inv_j, groups, space.basis.eval(first), space.basis.grad(first))


@lru_cache(maxsize=16)
def _cell_points(mesh: Mesh, space: DGSpace, degree: int) -> _Points:
    """Every triangle."""
    rule = triangle_quadrature(degree)
    X = mesh.v0[:, None, :] + rule.points @ mesh.jacobians.transpose(0, 2, 1)
    return _points(mesh, space, np.arange(mesh.n_triangles), X, mesh.det_jacobians[:, None] * rule.weights)


@lru_cache(maxsize=16)
def _face_tables(mesh: Mesh, space: DGSpace, faces: TwoSidedFaces | BoundaryFaces, degree: int) -> _FaceTables:
    """Both sides of two-sided faces, the one side of boundary faces."""
    rule = edge_quadrature(degree)
    pts = faces.p0[:, None, :] + rule.points[None, :, None] * (faces.p1 - faces.p0)[:, None, :]
    w = rule.weights[None, :] * faces.length[:, None]
    if isinstance(faces, TwoSidedFaces):
        minus = _points(mesh, space, faces.elem_minus, pts + faces.minus_shift[:, None, :], w)
        return _FaceTables(_points(mesh, space, faces.elem_plus, pts, w), minus, faces.normal)
    return _FaceTables(_points(mesh, space, faces.elem, pts, w), None, faces.normal)


@lru_cache(maxsize=16)
def _ridge_tables(mesh: Mesh, edges: EdgeClassification, space: DGSpace) -> tuple[_FaceTables, _FaceTables]:
    """The ridges as the faces of the 1D mesh on gamma1: one point each, unit
    weight, normal the outward tangent of the plus side.  Returns the
    two-sided ridges and the one-sided Dirichlet corners (plus side only)."""
    r = edges.ridges

    def faces(mask, two_sided):
        w = np.ones((int(mask.sum()), 1))

        def side(elem, point):
            return _points(mesh, space, elem[mask], point[mask][:, None, :], w)

        minus = side(r.elem_minus, r.point_minus) if two_sided else None
        return _FaceTables(side(r.elem_plus, r.point_plus), minus, r.sign_plus[mask][:, None] * RIDGE_TANGENT)

    return faces(r.two_sided, True), faces(~r.two_sided, False)


# ---------------------------------------------------------------------------
# kernels


def _csr(space: DGSpace, triples) -> sp.csr_matrix:
    """Sum (row elements, column elements, element blocks) triples into a
    canonical CSR matrix.  Each block is keyed by its element pair, the
    blocks of equal keys are summed in place, triple by triple, and the
    block matrix is converted to CSR once: no index is held per entry."""
    n_el = space.mesh.n_triangles
    keys = [np.asarray(el_a, dtype=np.int64) * n_el + el_b for el_a, el_b, _ in triples]
    pattern, slot = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros((len(pattern), space.n_local, space.n_local))
    for part, (_, _, blocks) in zip(np.split(slot, np.cumsum([len(k) for k in keys])[:-1]), triples):
        np.add.at(data, part, blocks)
    indptr = np.searchsorted(pattern, np.arange(n_el + 1) * n_el)
    return sp.bsr_matrix((data, pattern % n_el, indptr), shape=(space.n_dofs,) * 2).tocsr()


def _mass_block(pts: _Points) -> np.ndarray:
    """(v, w) over the points of each element or face, shape (nE, n_local, n_local)."""
    phi = pts.basis()
    return np.einsum("eq,eql,eqm->elm", pts.w, phi, phi)


def _integrate(space: DGSpace, pts: _Points, values: np.ndarray) -> np.ndarray:
    """The vector (values, v) over a point set, one entry per dof.  Values
    of shape (nE, nq, 2) are tested against grad v instead of v."""
    return np.bincount(space.dofs[pts.elem].ravel(), weights=pts.test(values).ravel(), minlength=space.n_dofs)


def _penalty_blocks(ft: _FaceTables, sigma: float):
    """The (test side, trial side) blocks of the interior-penalty terms

        -([v], {grad w . n}) - ([w], {grad v . n}) + sigma ([v], [w])

    on a batch of faces.  The average weighs each side by one over the
    number of sides, so on one-sided faces jump and average are the trace."""
    sides = [(ft.plus, 1.0)] + ([] if ft.minus is None else [(ft.minus, -1.0)])
    avg = 1.0 / len(sides)
    w = ft.plus.w
    traces = [(st.elem, s, st.basis(), np.einsum("eqli,ei->eql", st.basis(grad=True), ft.normal)) for st, s in sides]
    out = []
    for el_a, s_a, phi_a, gn_a in traces:
        for el_b, s_b, phi_b, gn_b in traces:
            block = (
                -avg * s_a * np.einsum("eq,eql,eqm->elm", w, phi_a, gn_b)
                - avg * s_b * np.einsum("eq,eql,eqm->elm", w, gn_a, phi_b)
                + sigma * s_a * s_b * np.einsum("eq,eql,eqm->elm", w, phi_a, phi_b)
            )
            out.append((el_a, el_b, block))
    return out


# ---------------------------------------------------------------------------
# public assembly entry points


def assemble_Bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Bulk bilinear form: broken gradients plus symmetric interior-penalty
    terms on interior edges and periodic pairs.  Constants lie in the
    kernel; the matrix is symmetric."""
    vol = _cell_points(mesh, space, 2 * space.p)
    grad = vol.basis(grad=True)
    stiff = np.einsum("eq,eqli,eqmi->elm", vol.w, grad, grad)
    ft = _face_tables(mesh, space, edges.two_sided_faces, 2 * space.p)
    return _csr(space, [(vol.elem, vol.elem, stiff), *_penalty_blocks(ft, params.sigma)])


def assemble_bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Surface form on gamma1: tangential stiffness along the boundary edges
    plus the interior-penalty terms of the 1D surface mesh, whose faces are
    the two-sided ridges.

    One-sided corner ridges of the Dirichlet variant are excluded here;
    they enter through assemble_dirichlet_terms."""
    g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p).plus
    dt = g1.basis(grad=True) @ RIDGE_TANGENT
    stiff = np.einsum("eq,eql,eqm->elm", g1.w, dt, dt)
    ridges, _ = _ridge_tables(mesh, edges, space)
    return _csr(space, [(g1.elem, g1.elem, stiff), *_penalty_blocks(ridges, params.sigma)])


def assemble_boundary_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace) -> sp.csr_matrix:
    """L2(gamma1) mass matrix."""
    g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p).plus
    return _csr(space, [(g1.elem, g1.elem, _mass_block(g1))])


def assemble_domain_mass(mesh: Mesh, space: DGSpace) -> sp.csr_matrix:
    """L2(Omega) mass matrix (block diagonal for the DG dof layout)."""
    vol = _cell_points(mesh, space, 2 * space.p)
    return _csr(space, [(vol.elem, vol.elem, _mass_block(vol))])


def assemble_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace, lam: float) -> sp.csr_matrix:
    """Weighted mass matrix (u, v)_Omega + lam (u, v)_gamma1."""
    return assemble_domain_mass(mesh, space) + lam * assemble_boundary_mass(mesh, edges, space)


def assemble_Ah(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Full stationary operator: bulk form + alpha boundary mass + beta
    surface form.  Positive definite for gamma large enough when alpha > 0."""
    return (
        assemble_Bh(mesh, edges, space, params)
        + params.alpha * assemble_boundary_mass(mesh, edges, space)
        + params.beta * assemble_bh(mesh, edges, space, params)
    )


def assemble_load(mesh: Mesh, edges: EdgeClassification, space: DGSpace, f, g, t: float = 0.0) -> np.ndarray:
    """Load vector (f, v)_Omega + (g, v)_gamma1 at time t.

    f and g are callables (t, x, y) -> array; either may be None for a zero
    source."""
    load = np.zeros(space.n_dofs)
    if f is not None:
        vol = _cell_points(mesh, space, 2 * space.p + 4)
        load += _integrate(space, vol, np.asarray(f(t, vol.x, vol.y), dtype=float))
    if g is not None:
        g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p + 4).plus
        load += _integrate(space, g1, np.asarray(g(t, g1.x, g1.y), dtype=float))
    return load


def assemble_dirichlet_terms(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    u_D=None,
    t: float = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Weak Dirichlet coupling for the lateral boundary (Example 3 variant).

    Returns the symmetric matrix delta to add to the full operator and the
    matching right-hand-side contribution for the boundary datum u_D
    (zero vector for homogeneous data).  The matrix carries the Nitsche
    terms on the lateral edges and, scaled by beta, the one-sided endpoint
    terms of the surface operator at the corner ridges."""
    if edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError("Dirichlet terms require bc_mode='dirichlet_lateral'")
    _, corners = _ridge_tables(mesh, edges, space)

    def faces(degree):  # (tables, weight); the corners are points, so degree-free
        return ((_face_tables(mesh, space, edges.dirichlet, degree), 1.0), (corners, params.beta))

    blocks = [
        (el_a, el_b, weight * block)
        for ft, weight in faces(2 * space.p)
        for el_a, el_b, block in _penalty_blocks(ft, params.sigma)
    ]
    rhs = np.zeros(space.n_dofs)
    if u_D is not None:
        for ft, weight in faces(2 * space.p + 4):
            ud = np.asarray(u_D(t, ft.plus.x, ft.plus.y), dtype=float)
            flux = _integrate(space, ft.plus, ud[..., None] * ft.normal[:, None, :])  # (u_D, grad v . n)
            rhs += weight * (_integrate(space, ft.plus, params.sigma * ud) - flux)
    return _csr(space, blocks), rhs


def dump_matrix(A: sp.spmatrix, path) -> None:
    """Write a matrix as text: header line ``n nnz`` then one
    ``row col value`` line per stored entry (0-based indices)."""
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    coo = A.tocoo()
    table = np.column_stack([coo.row, coo.col, coo.data])
    np.savetxt(path, table, fmt="%d %d %.17e", header=f"{A.shape[0]} {A.nnz}", comments="")
