"""Sparse operators of the interior-penalty discretization.

Assembles the bulk form (volume gradients plus jump/flux terms on interior
and periodic edges), the surface form on the top/bottom boundary (tangential
stiffness on the boundary edges plus point couplings at the ridges), the
mass matrices and time-dependent load vectors.  Every form is a sum of
quadrature over point sets: the triangles, the edges and the ridges (the
point faces of the surface mesh).  A point set is one type, built once per
geometry and cached, and each job (a sparse matrix, a mass block, a vector
of integrals) has one kernel that takes any point set, so repeated assembly
(one load vector per time step) stays vectorized.

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
    """Quadrature points on one side of a batch of cells, edges or ridges."""

    elem: np.ndarray  # (nE,) element whose basis is evaluated
    w: np.ndarray  # (nE, nq) rule weight times cell area or edge length; 1 at a ridge
    phi: np.ndarray  # (nE, nq, n_local)
    gphi: np.ndarray  # (nE, nq, n_local, 2) physical gradients
    x: np.ndarray  # (nE, nq) physical points on this side's realization
    y: np.ndarray


@dataclass(eq=False)
class _FaceTables:
    plus: _Points
    minus: _Points | None
    normal: np.ndarray  # (nE, 2)


def _points(mesh, space, elems, points, w) -> _Points:
    """The side of ``elems`` at the physical ``points`` (nE, nq, 2)."""
    ref = mesh.to_reference(elems, points)
    phi = space.basis.eval(ref)
    gref = space.basis.grad(ref)
    gphi = np.einsum("eqli,eij->eqlj", gref, mesh.inv_jacobians[elems])
    return _Points(elem=elems, w=w, phi=phi, gphi=gphi, x=points[..., 0], y=points[..., 1])


@lru_cache(maxsize=16)
def _cell_points(mesh: Mesh, space: DGSpace, degree: int) -> _Points:
    """Every triangle; the basis values are the reference ones, shared."""
    rule = triangle_quadrature(degree)
    phi = space.basis.eval(rule.points)
    gphi = np.einsum("qli,eij->eqlj", space.basis.grad(rule.points), mesh.inv_jacobians)
    X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, rule.points)
    return _Points(
        elem=np.arange(mesh.n_triangles),
        w=mesh.det_jacobians[:, None] * rule.weights,
        phi=np.broadcast_to(phi, X.shape[:2] + phi.shape[1:]),
        gphi=gphi,
        x=X[..., 0],
        y=X[..., 1],
    )


@lru_cache(maxsize=16)
def _face_tables(mesh: Mesh, space: DGSpace, faces: TwoSidedFaces | BoundaryFaces, degree: int) -> _FaceTables:
    """Both sides of two-sided faces, the one side of boundary faces."""
    rule = edge_quadrature(degree)
    pts = faces.p0[:, None, :] + rule.points[None, :, None] * (faces.p1 - faces.p0)[:, None, :]
    w = rule.weights[None, :] * faces.length[:, None]
    if isinstance(faces, TwoSidedFaces):
        plus = _points(mesh, space, faces.elem_plus, pts, w)
        minus = _points(mesh, space, faces.elem_minus, pts + faces.minus_shift[:, None, :], w)
        return _FaceTables(plus=plus, minus=minus, normal=faces.normal)
    return _FaceTables(plus=_points(mesh, space, faces.elem, pts, w), minus=None, normal=faces.normal)


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

        return _FaceTables(
            plus=side(r.elem_plus, r.point_plus),
            minus=side(r.elem_minus, r.point_minus) if two_sided else None,
            normal=r.sign_plus[mask][:, None] * RIDGE_TANGENT,
        )

    return faces(r.two_sided, True), faces(~r.two_sided, False)


# ---------------------------------------------------------------------------
# kernels


def _csr(space: DGSpace, triples) -> sp.csr_matrix:
    """Sum (row elements, column elements, element blocks) triples into a
    CSR matrix."""
    rows, cols, data = [], [], []
    for el_a, el_b, blocks in triples:
        rows.append(np.broadcast_to(space.dofs[el_a][:, :, None], blocks.shape).ravel())
        cols.append(np.broadcast_to(space.dofs[el_b][:, None, :], blocks.shape).ravel())
        data.append(blocks.ravel())
    n = space.n_dofs
    A = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def _mass_block(pts: _Points) -> np.ndarray:
    """(v, w) over the points of each element or face, shape (nE, n_local, n_local)."""
    return np.einsum("eq,eql,eqm->elm", pts.w, pts.phi, pts.phi)


def _integrate(space: DGSpace, pts: _Points, values: np.ndarray) -> np.ndarray:
    """The vector (values, v) over a point set, one entry per dof.  Values
    of shape (nE, nq, 2) are tested against grad v instead of v."""
    if values.ndim == 3:
        local = np.einsum("eq,eqi,eqli->el", pts.w, values, pts.gphi)
    else:
        local = np.einsum("eq,eq,eql->el", pts.w, values, pts.phi)
    return np.bincount(space.dofs[pts.elem].ravel(), weights=local.ravel(), minlength=space.n_dofs)


def _two_sided_penalty_blocks(ft: _FaceTables, sigma: float):
    """The four (test side, trial side) blocks of the interior-penalty terms

        -([v], {grad w}) - ([w], {grad v}) + sigma ([v], [w])

    on a batch of two-sided faces."""
    sides = ((ft.plus, 1.0), (ft.minus, -1.0))
    w = ft.plus.w
    gn = {id(st): np.einsum("eqli,ei->eql", st.gphi, ft.normal) for st, _ in sides}
    out = []
    for st_a, s_a in sides:
        for st_b, s_b in sides:
            block = (
                -0.5 * s_a * np.einsum("eq,eql,eqm->elm", w, st_a.phi, gn[id(st_b)])
                - 0.5 * s_b * np.einsum("eq,eql,eqm->elm", w, gn[id(st_a)], st_b.phi)
                + sigma * s_a * s_b * np.einsum("eq,eql,eqm->elm", w, st_a.phi, st_b.phi)
            )
            out.append((st_a.elem, st_b.elem, block))
    return out


def _one_sided_penalty_block(ft: _FaceTables, sigma: float) -> np.ndarray:
    """The Nitsche block -(v, grad w . n) - (w, grad v . n) + sigma (v, w) on
    a batch of one-sided faces."""
    pts = ft.plus
    gn = np.einsum("eqli,ei->eql", pts.gphi, ft.normal)
    flux = np.einsum("eq,eql,eqm->elm", pts.w, pts.phi, gn)
    return sigma * _mass_block(pts) - flux - flux.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# public assembly entry points


def assemble_Bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Bulk bilinear form: broken gradients plus symmetric interior-penalty
    terms on interior edges and periodic pairs.  Constants lie in the
    kernel; the matrix is symmetric."""
    vol = _cell_points(mesh, space, 2 * space.p)
    stiff = np.einsum("eq,eqli,eqmi->elm", vol.w, vol.gphi, vol.gphi)
    ft = _face_tables(mesh, space, edges.two_sided_faces, 2 * space.p)
    return _csr(space, [(vol.elem, vol.elem, stiff), *_two_sided_penalty_blocks(ft, params.sigma)])


def assemble_bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Surface form on gamma1: tangential stiffness along the boundary edges
    plus the interior-penalty terms of the 1D surface mesh, whose faces are
    the two-sided ridges.

    One-sided corner ridges of the Dirichlet variant are excluded here;
    they enter through assemble_dirichlet_terms."""
    g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p).plus
    dt = np.einsum("eqli,i->eql", g1.gphi, RIDGE_TANGENT)
    stiff = np.einsum("eq,eql,eqm->elm", g1.w, dt, dt)
    ridges, _ = _ridge_tables(mesh, edges, space)
    return _csr(space, [(g1.elem, g1.elem, stiff), *_two_sided_penalty_blocks(ridges, params.sigma)])


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
    M = assemble_domain_mass(mesh, space) + lam * assemble_boundary_mass(mesh, edges, space)
    M.sum_duplicates()
    M.sort_indices()
    return M


def assemble_Ah(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Full stationary operator: bulk form + alpha boundary mass + beta
    surface form.  Positive definite for gamma large enough when alpha > 0."""
    A = (
        assemble_Bh(mesh, edges, space, params)
        + params.alpha * assemble_boundary_mass(mesh, edges, space)
        + params.beta * assemble_bh(mesh, edges, space, params)
    )
    A.sum_duplicates()
    A.sort_indices()
    return A


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
        (ft.plus.elem, ft.plus.elem, weight * _one_sided_penalty_block(ft, params.sigma))
        for ft, weight in faces(2 * space.p)
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
