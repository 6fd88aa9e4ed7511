"""Sparse operators of the interior-penalty discretization.

Assembles the bulk form (volume gradients plus jump/flux terms on interior
and periodic edges), the surface form on the top/bottom boundary (tangential
stiffness on the boundary edges plus point couplings at the ridges), the
mass matrices and time-dependent load vectors.  With Dirichlet walls the
full operator A_h also holds the Nitsche terms of the lateral edges and,
scaled by beta, the one-sided corner terms of the surface form; the wall
datum enters through a vector alone.  Every form is a sum of
quadrature over point sets: the triangles and the faces.  Edges, ridges
and corners are all faces from the mesh on; the edge rule on a ridge or a
corner (a point face of unit length) puts every point at the vertex with
weights summing to 1.  A point set is built once per geometry and cached.
It keeps an inverse Jacobian per entry and the reference basis values and
gradients once per point pattern, the entries whose points share reference
positions (one for the cells, at most three per face side on the
structured meshes).  One evaluator on it serves assembly, loads,
projection and norms: ``field`` maps coefficients to point values or
physical gradients, ``test`` is its weighted transpose, and ``basis``
gives the per-entry arrays from which the operator blocks are built
once.  ``exact`` gives a closed-form field at the points: a time-separable
field's snapshots at its time nodes are evaluated once per point set and
kept on it, so every later time is a weighted sum of them, and a load is a
weighted sum of per-node vectors, each integrated once.  The point sets
are cached on the space, which owns them, and the degree-2p ones are
released once the operators are built.  Every
operator is a sum of dense element blocks: they are keyed by element pair
and summed into one block (BSR) matrix, which the operators stay in.

Quadrature degrees follow a single convention: matrix assembly uses rules
exact to degree 2p, data-dependent vectors (loads, projections) and error
norms use 2p + 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .manufactured import SeparableField
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Faces, Mesh
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
        return cls(alpha=alpha, beta=beta, lam=lam, gamma=gamma, sigma=sigma)


# ---------------------------------------------------------------------------
# quadrature point sets


@dataclass(eq=False)
class _Points:
    """Quadrature points on one side of a batch of cells or faces, with the
    reference basis tables of each point pattern."""

    elem: np.ndarray  # (nE,) element whose basis is evaluated
    w: np.ndarray  # (nE, nq) rule weight times cell area or face length (1 at a point face)
    x: np.ndarray  # (nE, nq) physical points on this side's realization
    y: np.ndarray
    inv_j: np.ndarray  # (nE, 2, 2) inverse Jacobian of each entry's element
    groups: tuple  # entries of each pattern: index arrays, or (slice(None),)
    phi: np.ndarray  # (n_patterns, nq, n_local) reference basis values
    grad: np.ndarray  # (n_patterns, nq, n_local, 2) reference gradients
    kept: dict = field(default_factory=dict)  # per-node snapshots and load vectors of separable fields

    def part(self, sl: slice) -> _Points:
        """The entries ``sl``, a slice of step 1, as a point set sharing this
        one's tables; it keeps nothing of its own."""
        start, stop, _ = sl.indices(len(self.elem))
        if start == 0 and stop == len(self.elem):
            return self
        groups = self.groups
        if len(self.phi) > 1:  # index arrays, ascending
            groups = tuple(idx[np.searchsorted(idx, start) : np.searchsorted(idx, stop)] - start for idx in groups)
        return _Points(self.elem[sl], self.w[sl], self.x[sl], self.y[sl], self.inv_j[sl], groups, self.phi, self.grad)

    def exact(self, fn, t: float) -> list:
        """``fn`` at time t on the points, as (weight, values) terms that sum
        to it: one term per time node of a ``SeparableField``, whose snapshot
        is evaluated once and kept, ``(1, fn(t, x, y))`` for a plain
        callable, and none for None.  Values are what ``fn`` returns: an
        array, or a pair of arrays for a gradient."""
        if fn is None:
            return []
        if not isinstance(fn, SeparableField):
            return [(1.0, fn(t, self.x, self.y))]
        snapshots = [self._keep((fn.fn, s), lambda s=s: fn.fn(s, self.x, self.y)) for s in fn.nodes]
        return list(zip(fn.weights(t), snapshots))

    def load(self, fn, t: float) -> np.ndarray:
        """Local load vectors (nE, n_local) of sum_q w fn(t) v: for a
        ``SeparableField``, the weighted sum of its per-node vectors, each
        integrated once and kept without its point values."""
        if not isinstance(fn, SeparableField):
            return self.test(np.asarray(fn(t, self.x, self.y), dtype=float))
        vectors = [
            self._keep((fn.fn, s, "load"), lambda s=s: self.test(np.asarray(fn.fn(s, self.x, self.y), dtype=float)))
            for s in fn.nodes
        ]
        return sum(w * v for w, v in zip(fn.weights(t), vectors))

    def _keep(self, key, make):
        if key not in self.kept:
            self.kept[key] = make()
        return self.kept[key]

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
    sides: list  # the _Points of each side
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


def _per_space(build):
    """Cache ``build(mesh, space, *key, degree)`` in ``space.tables``."""

    def cached(mesh, space, *key):
        name = (build.__name__, *key)
        if name not in space.tables:
            space.tables[name] = build(mesh, space, *key)
        return space.tables[name]

    return cached


def release_tables(space: DGSpace, degree: int) -> None:
    """Drop the cached point sets of ``space`` built for ``degree``."""
    for name in [name for name in space.tables if name[-1] == degree]:
        del space.tables[name]


@_per_space
def _cell_points(mesh: Mesh, space: DGSpace, degree: int) -> _Points:
    """Every triangle."""
    rule = triangle_quadrature(degree)
    X = mesh.v0[:, None, :] + rule.points @ mesh.jacobians.transpose(0, 2, 1)
    return _points(mesh, space, np.arange(mesh.n_triangles), X, mesh.det_jacobians[:, None] * rule.weights)


@_per_space
def _face_tables(mesh: Mesh, space: DGSpace, faces: Faces, degree: int) -> _FaceTables:
    """Each side of a batch of faces, the second at the points moved by ``shift``."""
    rule = edge_quadrature(degree)
    pts = faces.p0[:, None, :] + rule.points[None, :, None] * (faces.p1 - faces.p0)[:, None, :]
    w = rule.weights[None, :] * faces.length[:, None]
    points = [pts] if faces.shift is None else [pts, pts + faces.shift[:, None, :]]
    return _FaceTables([_points(mesh, space, el, x, w) for el, x in zip(faces.elem.T, points)], faces.normal)


# ---------------------------------------------------------------------------
# kernels


def _bsr(space: DGSpace, triples) -> sp.bsr_matrix:
    """Sum (row elements, column elements, element blocks) triples into a
    canonical block matrix, one n_local x n_local block per element pair.
    Each block is keyed by its element pair and the blocks of equal keys
    are summed in place, triple by triple: no index is held per entry."""
    n_el = space.mesh.n_triangles
    keys = [np.asarray(el_a, dtype=np.int64) * n_el + el_b for el_a, el_b, _ in triples]
    pattern, slot = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros((len(pattern), space.n_local, space.n_local))
    for part, (_, _, blocks) in zip(np.split(slot, np.cumsum([len(k) for k in keys])[:-1]), triples):
        np.add.at(data, part, blocks)
    indptr = np.searchsorted(pattern, np.arange(n_el + 1) * n_el)
    return sp.bsr_matrix((data, pattern % n_el, indptr), shape=(space.n_dofs,) * 2)


def _mass_block(pts: _Points) -> np.ndarray:
    """(v, w) over the points of each element or face, shape (nE, n_local, n_local)."""
    out = np.empty((len(pts.elem),) + pts.phi.shape[2:] * 2)
    for idx, table in zip(pts.groups, pts.phi):
        out[idx] = np.einsum("eq,ql,qm->elm", pts.w[idx], table, table)
    return out


def _scatter(space: DGSpace, pts: _Points, local: np.ndarray) -> np.ndarray:
    """Local vectors (nE, n_local) of a point set summed into one entry per dof."""
    return np.bincount(space.dofs[pts.elem].ravel(), weights=local.ravel(), minlength=space.n_dofs)


def _integrate(space: DGSpace, pts: _Points, values: np.ndarray) -> np.ndarray:
    """The vector (values, v) over a point set, one entry per dof.  Values
    of shape (nE, nq, 2) are tested against grad v instead of v."""
    return _scatter(space, pts, pts.test(values))


def _penalty_blocks(ft: _FaceTables, sigma: float):
    """The (test side, trial side) blocks of the interior-penalty terms

        -([v], {grad w . n}) - ([w], {grad v . n}) + sigma ([v], [w])

    on a batch of faces.  The average weighs each side by one over the
    number of sides, so on one-sided faces jump and average are the trace."""
    sides = list(zip(ft.sides, (1.0, -1.0)))
    avg = 1.0 / len(sides)
    w = ft.sides[0].w
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


def assemble_Bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.bsr_matrix:
    """Bulk bilinear form: broken gradients plus symmetric interior-penalty
    terms on interior edges and periodic pairs.  Constants lie in the
    kernel; the matrix is symmetric."""
    vol = _cell_points(mesh, space, 2 * space.p)
    grad = vol.basis(grad=True)
    stiff = np.einsum("eq,eqli,eqmi->elm", vol.w, grad, grad)
    ft = _face_tables(mesh, space, edges.two_sided, 2 * space.p)
    return _bsr(space, [(vol.elem, vol.elem, stiff), *_penalty_blocks(ft, params.sigma)])


def assemble_bh(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.bsr_matrix:
    """Surface form on gamma1: tangential stiffness along the boundary edges
    plus the interior-penalty terms of the 1D surface mesh, whose faces are
    the ridges.

    The one-sided corners of the Dirichlet variant are not part of b_h;
    assemble_Ah adds them, scaled by beta, with the Nitsche wall terms."""
    (g1,) = _face_tables(mesh, space, edges.gamma1, 2 * space.p).sides
    dt = g1.basis(grad=True) @ RIDGE_TANGENT
    stiff = np.einsum("eq,eql,eqm->elm", g1.w, dt, dt)
    ridges = _face_tables(mesh, space, edges.ridges, 2 * space.p)
    return _bsr(space, [(g1.elem, g1.elem, stiff), *_penalty_blocks(ridges, params.sigma)])


def assemble_boundary_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace) -> sp.bsr_matrix:
    """L2(gamma1) mass matrix."""
    (g1,) = _face_tables(mesh, space, edges.gamma1, 2 * space.p).sides
    return _bsr(space, [(g1.elem, g1.elem, _mass_block(g1))])


def assemble_domain_mass(mesh: Mesh, space: DGSpace) -> sp.bsr_matrix:
    """L2(Omega) mass matrix (block diagonal for the DG dof layout)."""
    vol = _cell_points(mesh, space, 2 * space.p)
    return _bsr(space, [(vol.elem, vol.elem, _mass_block(vol))])


def assemble_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace, lam: float) -> sp.bsr_matrix:
    """Weighted mass matrix (u, v)_Omega + lam (u, v)_gamma1."""
    return assemble_domain_mass(mesh, space) + lam * assemble_boundary_mass(mesh, edges, space)


def _walls(edges: EdgeClassification, params: FormParams):
    """The one-sided faces of the Dirichlet variant with their weights: the
    lateral edges, and the corners of the surface form scaled by beta."""
    return ((edges.dirichlet, 1.0), (edges.corners, params.beta))


def assemble_Ah(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> sp.bsr_matrix:
    """Full stationary operator: bulk form + alpha boundary mass + beta
    surface form, and with Dirichlet walls their Nitsche terms plus beta
    times the one-sided corner terms of the surface form.  Positive
    definite for gamma large enough when alpha > 0 or the walls are
    Dirichlet."""
    A = (
        assemble_Bh(mesh, edges, space, params)
        + params.alpha * assemble_boundary_mass(mesh, edges, space)
        + params.beta * assemble_bh(mesh, edges, space, params)
    )
    if edges.bc_mode == DIRICHLET_LATERAL:
        walls = [
            (el_a, el_b, weight * block)
            for faces, weight in _walls(edges, params)
            for el_a, el_b, block in _penalty_blocks(_face_tables(mesh, space, faces, 2 * space.p), params.sigma)
        ]
        A = A + _bsr(space, walls)
    return A


def assemble_load(mesh: Mesh, edges: EdgeClassification, space: DGSpace, f, g, t: float = 0.0) -> np.ndarray:
    """Load vector (f, v)_Omega + (g, v)_gamma1 at time t.

    f and g are callables (t, x, y) -> array or ``SeparableField``s, whose
    per-node vectors are integrated once per space; either may be None for
    a zero source."""
    load = np.zeros(space.n_dofs)
    if f is not None:
        vol = _cell_points(mesh, space, 2 * space.p + 4)
        load += _scatter(space, vol, vol.load(f, t))
    if g is not None:
        (g1,) = _face_tables(mesh, space, edges.gamma1, 2 * space.p + 4).sides
        load += _scatter(space, g1, g1.load(g, t))
    return load


def assemble_dirichlet_terms(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    u_D,
    t: float = 0.0,
) -> np.ndarray:
    """Right-hand side of the weak Dirichlet walls (Example 3 variant) for
    the datum u_D at time t: sigma (u_D, v) - (u_D, grad v . n) on the
    lateral edges plus beta times the same one-sided terms at the corners
    of the surface form.  The matching matrix terms are part of
    assemble_Ah."""
    if edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError("Dirichlet terms require bc_mode='dirichlet_lateral'")
    rhs = np.zeros(space.n_dofs)
    for faces, weight in _walls(edges, params):
        ft = _face_tables(mesh, space, faces, 2 * space.p + 4)
        (pts,) = ft.sides
        ud = np.asarray(u_D(t, pts.x, pts.y), dtype=float)
        flux = _integrate(space, pts, ud[..., None] * ft.normal[:, None, :])  # (u_D, grad v . n)
        rhs += weight * (_integrate(space, pts, params.sigma * ud) - flux)
    return rhs
