"""Sparse operators of the interior-penalty discretization.

Assembles the bulk form (volume gradients plus jump/flux terms on interior
and periodic edges), the surface form on the top/bottom boundary (tangential
stiffness on the boundary edges plus point couplings at the ridges), the
mass matrices and time-dependent load vectors.  Everything is built from
batched per-face tables so repeated assembly (one load vector per time
step) stays vectorized.

Quadrature degrees follow a single convention: matrix assembly uses rules
exact to degree 2p, data-dependent vectors (loads, projections) and error
norms use 2p + 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh
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
# precomputed evaluation tables


@dataclass(eq=False)
class _VolumeTables:
    w: np.ndarray  # (nq,)
    phi: np.ndarray  # (nq, n_local)
    gphi: np.ndarray  # (n_el, nq, n_local, 2) physical gradients
    x: np.ndarray  # (n_el, nq)
    y: np.ndarray


@dataclass(eq=False)
class _SideTables:
    elem: np.ndarray  # (nE,)
    phi: np.ndarray  # (nE, nq, n_local)
    gphi: np.ndarray  # (nE, nq, n_local, 2)
    x: np.ndarray  # (nE, nq) physical points on this side's realization
    y: np.ndarray


@dataclass(eq=False)
class _FaceTables:
    plus: _SideTables
    minus: _SideTables | None
    normal: np.ndarray  # (nE, 2)
    wl: np.ndarray  # (nE, nq) quadrature weights times edge length


def _side_tables(mesh, space, elems, points) -> _SideTables:
    ref = mesh.to_reference(elems, points)
    phi = space.basis.eval(ref)
    gref = space.basis.grad(ref)
    gphi = np.einsum("eqli,eij->eqlj", gref, mesh.inv_jacobians[elems])
    return _SideTables(elem=elems, phi=phi, gphi=gphi, x=points[..., 0], y=points[..., 1])


@lru_cache(maxsize=16)
def _volume_tables(mesh: Mesh, space: DGSpace, degree: int) -> _VolumeTables:
    rule = triangle_quadrature(degree)
    phi = space.basis.eval(rule.points)
    gref = space.basis.grad(rule.points)
    gphi = np.einsum("qli,eij->eqlj", gref, mesh.inv_jacobians)
    X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, rule.points)
    return _VolumeTables(w=rule.weights, phi=phi, gphi=gphi, x=X[..., 0], y=X[..., 1])


def _edge_points(p0, p1, srule):
    return p0[:, None, :] + srule.points[None, :, None] * (p1 - p0)[:, None, :]


@lru_cache(maxsize=16)
def _interior_face_tables(mesh: Mesh, edges: EdgeClassification, space: DGSpace, degree: int) -> _FaceTables:
    """Interior edges and periodic pairs combined (both are two-sided)."""
    srule = edge_quadrature(degree)
    groups = [edges.interior]
    if edges.gamma2_pairs is not None and len(edges.gamma2_pairs):
        groups.append(edges.gamma2_pairs)
    p0 = np.concatenate([g.p0 for g in groups])
    p1 = np.concatenate([g.p1 for g in groups])
    ep = np.concatenate([g.elem_plus for g in groups])
    em = np.concatenate([g.elem_minus for g in groups])
    normal = np.concatenate([g.normal for g in groups])
    length = np.concatenate([g.length for g in groups])
    shift = np.concatenate([g.minus_shift for g in groups])
    pts = _edge_points(p0, p1, srule)
    plus = _side_tables(mesh, space, ep, pts)
    minus = _side_tables(mesh, space, em, pts + shift[:, None, :])
    wl = srule.weights[None, :] * length[:, None]
    return _FaceTables(plus=plus, minus=minus, normal=normal, wl=wl)


@lru_cache(maxsize=16)
def _gamma1_face_tables(mesh: Mesh, edges: EdgeClassification, space: DGSpace, degree: int) -> _FaceTables:
    srule = edge_quadrature(degree)
    g1 = edges.gamma1
    pts = _edge_points(g1.p0, g1.p1, srule)
    plus = _side_tables(mesh, space, g1.elem, pts)
    wl = srule.weights[None, :] * g1.length[:, None]
    return _FaceTables(plus=plus, minus=None, normal=g1.normal, wl=wl)


@lru_cache(maxsize=16)
def _dirichlet_face_tables(mesh: Mesh, edges: EdgeClassification, space: DGSpace, degree: int) -> _FaceTables:
    srule = edge_quadrature(degree)
    de = edges.dirichlet
    pts = _edge_points(de.p0, de.p1, srule)
    plus = _side_tables(mesh, space, de.elem, pts)
    wl = srule.weights[None, :] * de.length[:, None]
    return _FaceTables(plus=plus, minus=None, normal=de.normal, wl=wl)


@lru_cache(maxsize=16)
def _ridge_tables(mesh: Mesh, edges: EdgeClassification, space: DGSpace) -> tuple[_FaceTables, _FaceTables]:
    """The ridges as the faces of the 1D mesh on gamma1: one point each, unit
    weight, normal the outward tangent of the plus side.  Returns the
    two-sided ridges and the one-sided Dirichlet corners (plus side only)."""
    r = edges.ridges

    def faces(mask, two_sided):
        def side(elem, point):
            return _side_tables(mesh, space, elem[mask], point[mask][:, None, :])

        return _FaceTables(
            plus=side(r.elem_plus, r.point_plus),
            minus=side(r.elem_minus, r.point_minus) if two_sided else None,
            normal=r.sign_plus[mask][:, None] * RIDGE_TANGENT,
            wl=np.ones((int(mask.sum()), 1)),
        )

    return faces(r.two_sided, True), faces(~r.two_sided, False)


# ---------------------------------------------------------------------------
# scatter helpers


class _CooBuilder:
    def __init__(self, n):
        self.n = n
        self.rows = []
        self.cols = []
        self.data = []

    def add_blocks(self, dofs_row, dofs_col, blocks):
        shape = blocks.shape
        self.rows.append(np.broadcast_to(dofs_row[:, :, None], shape).ravel())
        self.cols.append(np.broadcast_to(dofs_col[:, None, :], shape).ravel())
        self.data.append(blocks.ravel())

    def tocsr(self) -> sp.csr_matrix:
        if not self.data:
            return sp.csr_matrix((self.n, self.n))
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        data = np.concatenate(self.data)
        A = sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsr()
        A.sum_duplicates()
        A.sort_indices()
        return A


def _two_sided_penalty_blocks(ft: _FaceTables, sigma: float):
    """The four (test side, trial side) blocks of the interior-penalty terms

        -([v], {grad w}) - ([w], {grad v}) + sigma ([v], [w])

    on a batch of two-sided faces."""
    sides = ((ft.plus, 1.0), (ft.minus, -1.0))
    gn = {id(st): np.einsum("eqli,ei->eql", st.gphi, ft.normal) for st, _ in sides}
    out = []
    for st_a, s_a in sides:
        for st_b, s_b in sides:
            block = (
                -0.5 * s_a * np.einsum("eq,eql,eqm->elm", ft.wl, st_a.phi, gn[id(st_b)])
                - 0.5 * s_b * np.einsum("eq,eql,eqm->elm", ft.wl, gn[id(st_a)], st_b.phi)
                + sigma * s_a * s_b * np.einsum("eq,eql,eqm->elm", ft.wl, st_a.phi, st_b.phi)
            )
            out.append((st_a.elem, st_b.elem, block))
    return out


def _one_sided_penalty_block(ft: _FaceTables, sigma: float) -> np.ndarray:
    """The Nitsche block -(v, grad w . n) - (w, grad v . n) + sigma (v, w) on
    a batch of one-sided faces."""
    gn = np.einsum("eqli,ei->eql", ft.plus.gphi, ft.normal)
    return (
        -np.einsum("eq,eql,eqm->elm", ft.wl, ft.plus.phi, gn)
        - np.einsum("eq,eql,eqm->elm", ft.wl, gn, ft.plus.phi)
        + sigma * np.einsum("eq,eql,eqm->elm", ft.wl, ft.plus.phi, ft.plus.phi)
    )


# ---------------------------------------------------------------------------
# public assembly entry points


def assemble_Bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Bulk bilinear form: broken gradients plus symmetric interior-penalty
    terms on interior edges and periodic pairs.  Constants lie in the
    kernel; the matrix is symmetric."""
    builder = _CooBuilder(space.n_dofs)
    vol = _volume_tables(mesh, space, 2 * space.p)
    stiff = np.einsum("q,e,eqli,eqmi->elm", vol.w, mesh.det_jacobians, vol.gphi, vol.gphi)
    builder.add_blocks(space.dofs, space.dofs, stiff)

    ft = _interior_face_tables(mesh, edges, space, 2 * space.p)
    for el_a, el_b, block in _two_sided_penalty_blocks(ft, params.sigma):
        builder.add_blocks(space.dofs[el_a], space.dofs[el_b], block)
    return builder.tocsr()


def assemble_bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.csr_matrix:
    """Surface form on gamma1: tangential stiffness along the boundary edges
    plus the interior-penalty terms of the 1D surface mesh, whose faces are
    the two-sided ridges.

    One-sided corner ridges of the Dirichlet variant are excluded here;
    they enter through assemble_dirichlet_terms."""
    builder = _CooBuilder(space.n_dofs)
    ft = _gamma1_face_tables(mesh, edges, space, 2 * space.p)
    dt = np.einsum("eqli,i->eql", ft.plus.gphi, RIDGE_TANGENT)
    builder.add_blocks(
        space.dofs[ft.plus.elem],
        space.dofs[ft.plus.elem],
        np.einsum("eq,eql,eqm->elm", ft.wl, dt, dt),
    )

    ridges, _ = _ridge_tables(mesh, edges, space)
    for el_a, el_b, block in _two_sided_penalty_blocks(ridges, params.sigma):
        builder.add_blocks(space.dofs[el_a], space.dofs[el_b], block)
    return builder.tocsr()


def assemble_boundary_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace) -> sp.csr_matrix:
    """L2(gamma1) mass matrix."""
    builder = _CooBuilder(space.n_dofs)
    ft = _gamma1_face_tables(mesh, edges, space, 2 * space.p)
    block = np.einsum("eq,eql,eqm->elm", ft.wl, ft.plus.phi, ft.plus.phi)
    builder.add_blocks(space.dofs[ft.plus.elem], space.dofs[ft.plus.elem], block)
    return builder.tocsr()


def assemble_domain_mass(mesh: Mesh, space: DGSpace) -> sp.csr_matrix:
    """L2(Omega) mass matrix (block diagonal for the DG dof layout)."""
    builder = _CooBuilder(space.n_dofs)
    vol = _volume_tables(mesh, space, 2 * space.p)
    ref = np.einsum("q,ql,qm->lm", vol.w, vol.phi, vol.phi)
    builder.add_blocks(space.dofs, space.dofs, mesh.det_jacobians[:, None, None] * ref)
    return builder.tocsr()


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
        vol = _volume_tables(mesh, space, 2 * space.p + 4)
        fv = np.asarray(f(t, vol.x, vol.y), dtype=float)
        local = np.einsum("q,e,eq,ql->el", vol.w, mesh.det_jacobians, fv, vol.phi)
        load += local.ravel()  # dofs are contiguous per element
    if g is not None:
        ft = _gamma1_face_tables(mesh, edges, space, 2 * space.p + 4)
        gv = np.asarray(g(t, ft.plus.x, ft.plus.y), dtype=float)
        local = np.einsum("eq,eq,eql->el", ft.wl, gv, ft.plus.phi)
        np.add.at(load, space.dofs[ft.plus.elem], local)
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
        return ((_dirichlet_face_tables(mesh, edges, space, degree), 1.0), (corners, params.beta))

    builder = _CooBuilder(space.n_dofs)
    for ft, weight in faces(2 * space.p):
        dofs = space.dofs[ft.plus.elem]
        builder.add_blocks(dofs, dofs, weight * _one_sided_penalty_block(ft, params.sigma))
    rhs = np.zeros(space.n_dofs)
    if u_D is not None:
        for ft, weight in faces(2 * space.p + 4):
            gn = np.einsum("eqli,ei->eql", ft.plus.gphi, ft.normal)
            ud = np.asarray(u_D(t, ft.plus.x, ft.plus.y), dtype=float)
            local = np.einsum("eq,eq,eql->el", ft.wl, ud, params.sigma * ft.plus.phi - gn)
            np.add.at(rhs, space.dofs[ft.plus.elem], weight * local)
    return builder.tocsr(), rhs


def dump_matrix(A: sp.spmatrix, path) -> None:
    """Write a matrix as text: header line ``n nnz`` then one
    ``row col value`` line per stored entry (0-based indices)."""
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    coo = A.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} {A.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17e}\n")
