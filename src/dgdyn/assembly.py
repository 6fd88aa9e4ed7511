"""Sparse operators of the interior-penalty discretization.

Assembles the full operator A_h, the weighted mass M and time-dependent
load vectors.  A_h is the bulk form (volume gradients plus jump/flux terms
on interior and periodic edges) plus alpha times the boundary mass and beta
times the surface form on the top/bottom boundary (tangential stiffness on
the boundary edges plus point couplings at the ridges).  With Dirichlet
walls it also holds the Nitsche terms of the lateral edges and, scaled by
beta, the one-sided corner terms of the surface form; the wall datum enters
through a vector alone.  One table, ``stiffness_terms`` and ``mass_terms``,
lists each ``Term``: its face set (or the cells), weight (1, alpha, beta or
lambda), derivative directions and, if it is an interior-penalty term,
sigma.  A_h and M are each one sparse product of their terms' blocks (no
sparse matrix is added), the wall data takes the one-sided penalty terms,
and the projection and both norms read the same table.  Every term is a
sum of quadrature over a point set: the triangles or faces (edges, ridges
and corners; a ridge or corner is a point face of unit length).  A point
set is built once per geometry and cached on the space, which releases the
degree-2p ones once the operators are built.

A point set is stored in geometry-class order.  A class is the entries
whose point pattern (the reference positions of their points), inverse
Jacobian, weight scale and (on faces) normal are bitwise equal, a handful
on the structured meshes; the order is found from per-element and
per-face data, before the points are built in it, and each class is one
run of entries.  Each class keeps its basis values and physical
gradients, the reference gradients folded with its inverse Jacobian.  One
evaluator on it serves loads, projection and norms: ``field`` maps the
coefficients of a run of entries to point values or one derivative with
one small product per class run, and ``test`` is its weighted transpose.
``exact`` evaluates a time-separable field once per time node and keeps
the snapshots, so a later time or load is a weighted sum of them.

Element blocks are built once per class, and an operator is a
``BlockTable``: its block pattern, a type per element pair (pairs with
equal counts of each class share one) and a block per type, a handful on
the structured meshes.  The solvers read it; CG multiplies its CSR form,
expanded from the table without a block per pair.  Its own blocks are a
``BlockDiagonal``, the distinct blocks and a kind per element, applied
over the mesh's cell pairs: M (block diagonal in full), block Jacobi and
the projection's mass are never held as a block per element.

Quadrature degrees follow a single convention: matrix assembly uses rules
exact to degree 2p, data-dependent vectors (loads, projections) and error
norms use 2p + 4.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .manufactured import SeparableField
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Faces, Mesh
from .space import DGSpace, edge_quadrature, triangle_quadrature

AXES = np.eye(2)  # columns: the derivatives whose squares sum to |grad w|^2
TANGENT = np.array([[1.0], [0.0]])  # column: the tangent of gamma1, which is horizontal


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
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
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
        return cls(alpha=alpha, beta=beta, lam=lam, sigma=sigma)


# ---------------------------------------------------------------------------
# quadrature point sets


@dataclass(eq=False)
class _Points:
    """Quadrature points on one side of a batch of cells or faces, stored in
    geometry-class order: the entries of class k are the run bounds[k] to
    bounds[k + 1], and each class keeps its basis tables."""

    elem: np.ndarray  # (nE,) element whose basis is evaluated
    w: np.ndarray  # (nE, nq) rule weight times cell area or face length (1 at a point face)
    x: np.ndarray  # (nE, nq) physical points on this side's realization
    y: np.ndarray
    bounds: np.ndarray  # (n_classes + 1,) first entry of each class, then nE
    phi: np.ndarray  # (n_classes, nq, n_local) basis values
    grad: np.ndarray  # (n_classes, nq, n_local, 2) physical gradients, folded with the class's inverse Jacobian
    kept: dict = field(default_factory=dict)  # per-node snapshots and load vectors of separable fields, projections

    def exact(self, fn, t: float, keep: bool = True) -> list:
        """``fn`` at time t on the points, as (weight, values) terms that sum
        to it: one term per time node of a ``SeparableField``, whose snapshot
        is evaluated once and kept, ``(1, fn(t, x, y))`` for a plain
        callable or without ``keep``, and none for None.  Values are what
        ``fn`` returns: an array, or a pair of arrays for a gradient."""
        if fn is None:
            return []
        if not (keep and isinstance(fn, SeparableField)):
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

    def runs(self, sl: slice):
        """(class, start, stop) of each class's run among the entries ``sl``,
        a slice of step 1, with start and stop counted from ``sl.start``."""
        b = self.bounds.tolist()
        k = bisect_right(b, sl.start) - 1
        while b[k] < sl.stop:
            yield k, max(b[k], sl.start) - sl.start, min(b[k + 1], sl.stop) - sl.start
            k += 1

    def field(self, c: np.ndarray, sl: slice, d: np.ndarray | None = None) -> np.ndarray:
        """Values (m, nq) at the entries ``sl`` of the functions with local
        coefficients ``c`` (m, n_local), or their derivatives along ``d``
        (2,): one product with its class's table per run."""
        runs = list(self.runs(sl))
        first, last = runs[0][0], runs[-1][0] + 1
        # the tables of these classes, (n_local, nq) each and contiguous: BLAS's fast layout here
        tables = np.swapaxes(self.phi[first:last] if d is None else self.grad[first:last] @ d, 1, 2).copy()
        out = np.empty((len(c), self.w.shape[1]))
        for k, a, b in runs:
            np.matmul(c[a:b], tables[k - first], out=out[a:b])
        return out

    def test(self, values: np.ndarray) -> np.ndarray:
        """The weighted transpose of ``field`` over every entry: local vectors
        (nE, n_local) of sum_q w values v, for values (nE, nq), or of
        w values . grad v, for values (nE, nq, 2)."""
        grad = values.ndim == 3
        wv = (self.w[..., None] if grad else self.w) * values
        n = self.phi.shape[2]
        out = np.empty((len(self.elem), n))
        for k, a, b in self.runs(slice(0, len(self.elem))):
            table = self.grad[k].transpose(0, 2, 1).reshape(-1, n) if grad else self.phi[k]
            out[a:b] = wv[a:b].reshape(b - a, -1) @ table
        return out

    @cached_property
    def classes(self) -> tuple:
        """(class of each entry, first entry of each class): the entries of a
        class share every element block."""
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds)), self.bounds[:-1]


@dataclass(eq=False)
class _FaceTables:
    sides: list  # the _Points of each side, all with the same class runs
    normal: np.ndarray  # (nE, 2); a face's class fixes each side's classes and its normal


def _class_order(*keys) -> tuple:
    """(order, bounds): the order of the rows of the key columns ``keys``
    that makes each class, the rows whose keys are all bitwise equal, one
    run, and the first row of each run followed by the number of rows.  One
    lexsort over the columns: far faster than ``np.unique(axis=0)``."""
    keys = np.column_stack(keys)
    order = np.lexsort(keys.T)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    return order, np.append(np.flatnonzero(first), len(order))


def _patterns(ref: np.ndarray) -> tuple:
    """(pattern of each row, first row of each pattern) of the reference
    positions ``ref`` (n, k, 2): rows share a pattern when they agree within
    1e-10, far above the rounding of the affine maps and far below any
    rule's spacing."""
    pattern, first, rest = np.zeros(len(ref), dtype=np.intp), [], np.arange(len(ref))
    while len(rest):
        same = np.abs(ref[rest] - ref[rest[0]]).max(axis=(1, 2)) <= 1e-10
        pattern[rest[same]] = len(first)
        first.append(rest[0])
        rest = rest[~same]
    return pattern, np.array(first, dtype=np.intp)


def _points(mesh, space, elems, points, w, bounds, ref) -> _Points:
    """The side of ``elems`` at the physical ``points`` (nE, nq, 2), in class
    order with the runs ``bounds``.  ``ref`` (n_classes, nq, 2) holds the
    reference positions of each class's points: those of its pattern's
    first entry in input order, so the classes of a pattern share their
    reference tables to the bit."""
    inv_j = mesh.inv_jacobians[elems[bounds[:-1]]]
    phi, grad = space.basis.eval(ref), space.basis.grad(ref) @ inv_j[:, None]
    return _Points(elems, w, points[..., 0], points[..., 1], bounds, phi, grad)


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
    """Every triangle, ordered by class: its inverse Jacobian and determinant."""
    rule = triangle_quadrature(degree)
    elems, bounds = _class_order(mesh.inv_jacobians.reshape(-1, 4), mesh.det_jacobians)
    X = mesh.v0[elems][:, None, :] + rule.points @ mesh.jacobians[elems].transpose(0, 2, 1)
    # the one pattern's reference positions: element 0's points mapped back
    first = np.argmin(elems)
    ref = np.broadcast_to((X[first] - mesh.v0[0]) @ mesh.inv_jacobians[0].T, (len(bounds) - 1, *rule.points.shape))
    return _points(mesh, space, elems, X, mesh.det_jacobians[elems][:, None] * rule.weights, bounds, ref)


@_per_space
def _face_tables(mesh: Mesh, space: DGSpace, faces: Faces, degree: int) -> _FaceTables:
    """Each side of a batch of faces, the second at the points moved by
    ``shift``, ordered by class: the normal and, on each side, the pattern of
    the face's endpoints in its element's reference triangle, the element's
    inverse Jacobian and the face's length.  The order is found from the
    endpoints, so the points are built in it."""
    shifts = [0.0] if faces.shift is None else [0.0, faces.shift[:, None, :]]
    ends = np.stack([faces.p0, faces.p1], axis=1)
    keys, patterns = [], []
    for el, shift in zip(faces.elem.T, shifts):
        inv_j = mesh.inv_jacobians[el]
        ref_ends = (ends + shift - mesh.v0[el][:, None, :]) @ inv_j.transpose(0, 2, 1)
        pattern, first = _patterns(ref_ends)
        keys += [pattern, inv_j.reshape(-1, 4), faces.length]
        patterns.append((pattern, ref_ends[first]))  # each pattern's endpoints: its first face's
    order, bounds = _class_order(*keys, faces.normal)
    rule = edge_quadrature(degree)
    p0 = faces.p0[order]
    pts = p0[:, None, :] + rule.points[None, :, None] * (faces.p1[order] - p0)[:, None, :]
    w = rule.weights[None, :] * faces.length[order][:, None]
    points = [pts] if faces.shift is None else [pts, pts + faces.shift[order][:, None, :]]
    sides = []
    for el, x, (pattern, pattern_ends) in zip(faces.elem.T, points, patterns):
        e = pattern_ends[pattern[order[bounds[:-1]]]]  # (n_classes, 2, 2)
        ref = e[:, :1] + rule.points[:, None] * (e[:, 1:] - e[:, :1])
        sides.append(_points(mesh, space, el[order], x, w, bounds, ref))
    return _FaceTables(sides, faces.normal[order])


# ---------------------------------------------------------------------------
# kernels


@dataclass(eq=False)
class BlockTable:
    """A block matrix: its canonical BSR pattern, a type per stored block, a block per type."""

    indices: np.ndarray  # (n_blocks,) column element of each stored block
    indptr: np.ndarray  # (n_elements + 1,)
    types: np.ndarray  # (n_blocks,)
    table: np.ndarray  # (n_types, n_local, n_local)

    def tobsr(self) -> sp.bsr_matrix:
        n = (len(self.indptr) - 1) * self.table.shape[1]
        return sp.bsr_matrix((self.table[self.types], self.indices, self.indptr), shape=(n, n))

    def tocsr(self) -> sp.csr_matrix:
        """As CSR without the blocks' zeros, in arrays of its own size:
        bitwise ``tobsr().tocsr()`` after ``eliminate_zeros``, built a few
        thousand element rows at a time, so no block is held per pair.  Each
        element row's blocks are padded with a zero block to the longest
        row's count, so its (local row, block, column) entries, read off
        the types' rows, are its CSR rows in order, all of one length: scipy
        drops their zeros as it drops those of the expanded matrix."""
        n, n_el, n_blocks = self.table.shape[1], len(self.indptr) - 1, len(self.types)
        index = np.int32 if max(n * n * n_blocks, n * n_el) <= np.iinfo(np.int32).max else np.int64  # scipy's choice
        count = np.diff(self.indptr)
        row = np.repeat(np.arange(n_el), count)
        slot = np.arange(n_blocks) - self.indptr[row]
        local = np.concatenate([self.table, np.zeros_like(self.table[:1])]).reshape(-1, n)  # type t's row r at n t + r
        first = np.full((n_el, count.max()), n * len(self.table))  # each slot's first row of local: the zero block's if empty
        first[row, slot] = n * self.types
        col = np.zeros((n_el, count.max()), dtype=index)
        col[row, slot] = n * self.indices
        nnz = int(np.count_nonzero(self.table, axis=(1, 2))[self.types].sum())
        data, indices, indptr = np.empty(nnz), np.empty(nnz, dtype=index), np.zeros(n * n_el + 1, dtype=index)
        step = max(1, (1 << 17) // (n * n * first.shape[1]))  # element rows of 2^17 entries, padding included
        for a in range(0, n_el, step):
            b = min(a + step, n_el)
            values = np.take(local, first[a:b, None, :] + np.arange(n)[:, None], axis=0)  # (element, local row, slot, column)
            cols = np.empty(values.shape, dtype=index)
            np.add(col[a:b, None, :, None], np.arange(n, dtype=index), out=cols)
            chunk = sp.csr_matrix(
                (values.ravel(), cols.ravel(), np.arange(0, values.size + 1, values[0, 0].size, dtype=index)),
                shape=(n * (b - a), n * n_el),
            )
            chunk.eliminate_zeros()
            start = indptr[n * a]
            data[start : start + chunk.nnz] = chunk.data
            indices[start : start + chunk.nnz] = chunk.indices
            indptr[n * a + 1 : n * b + 1] = start + chunk.indptr[1:]
        return sp.csr_matrix((data, indices, indptr), shape=(n * n_el, n * n_el))

    def own(self) -> BlockDiagonal:
        """The block diagonal: the own block every element stores."""
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        used, kind = np.unique(self.types[self.indices == rows], return_inverse=True)
        return BlockDiagonal(self.table[used], kind)

    def plus(self, scale: float, other: BlockTable) -> BlockTable:
        """self + scale * other as scipy sums the expanded matrices, once per
        pair of types: a block stored in one of them only meets a zero block."""
        m = len(self.table) + 1  # a block-level sum codes each pair's two types, 0 for none
        codes = [sp.csr_matrix((w * (t.types + 1.0), t.indices, t.indptr)) for w, t in ((1, self), (m, other))]
        union = codes[0] + codes[1]
        kinds, types = np.unique(union.data.astype(np.intp), return_inverse=True)
        a, b = (np.concatenate([t.table, np.zeros_like(t.table[:1])]) for t in (self, other))
        return BlockTable(union.indices, union.indptr, types, a[kinds % m - 1] + scale * b[kinds // m - 1])


@dataclass(eq=False)
class BlockDiagonal:
    """A matrix with one block per element and none between elements, held
    as its distinct blocks and each element's index among them.  ``D @ x``
    runs over the mesh's cells, cell c owning triangles 2c and 2c + 1: on
    each side the most common block is one strided product over all cells,
    and the elements of other kinds (the gamma1 rows and the wall columns
    of a structured mesh, almost every element of a distorted one) are one
    gathered product written over it."""

    blocks: np.ndarray  # (n_kinds, n_local, n_local)
    kind: np.ndarray  # (n_elements,)

    def __post_init__(self):
        cells = self.kind.reshape(-1, 2)
        common = [np.bincount(side).argmax() for side in cells.T]
        self._sides = [self.blocks[k].T.copy() for k in common]  # contiguous: BLAS's fast layout
        self._rest = np.flatnonzero((cells != common).ravel())
        self._rest_blocks = self.blocks[self.kind[self._rest]]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.blocks.shape[1]
        cells = x.reshape(-1, 2, n)
        out = np.empty_like(cells)
        for side, table in enumerate(self._sides):
            np.matmul(cells[:, side], table, out=out[:, side])
        out = out.reshape(-1, n)
        out[self._rest] = (self._rest_blocks @ x.reshape(-1, n)[self._rest, :, None])[..., 0]
        return out.ravel()

    def inverse(self) -> BlockDiagonal:
        """Its inverse, each distinct block inverted once."""
        return BlockDiagonal(np.linalg.inv(self.blocks), self.kind)


def _row_types(C: sp.csr_matrix, key: np.ndarray) -> tuple:
    """(type of each row, first row of each type) of the canonical CSR matrix
    C: rows grouped by ``key`` are compared with their group's first row and
    those that differ grouped again, so colliding keys never merge two rows."""
    types, first, rest = np.empty(C.shape[0], dtype=np.intp), [], np.arange(C.shape[0])
    while len(rest):
        _, rep, group = np.unique(key[rest], return_index=True, return_inverse=True)
        same = np.diff((C[rest] != C[rest[rep][group]]).indptr) == 0
        types[rest[same]] = len(first) + group[same]
        first.extend(rest[rep])
        rest = rest[~same]
    return types, np.array(first, dtype=np.intp)


def _bsr(space: DGSpace, terms) -> BlockTable:
    """Sum (row elements, column elements, class of each entry, class
    blocks) terms into a ``BlockTable``.  A pair's block is its row of the
    matrix of element pairs by classes, counting its entries of each class,
    times the class blocks; pairs with equal rows share a type, and one
    sparse product builds each type's block.  No block is held per pair."""
    n_el, n = space.mesh.n_triangles, space.n_local
    keys = np.concatenate([np.asarray(el_a, dtype=np.int64) * n_el + el_b for el_a, el_b, _, _ in terms])
    pattern, slot = np.unique(keys, return_inverse=True)
    offsets = np.cumsum([0] + [len(blocks) for *_, blocks in terms])
    cls = np.concatenate([c + offset for (_, _, c, _), offset in zip(terms, offsets)])
    counts = sp.csr_matrix((np.ones(len(cls)), (slot, cls)), shape=(len(pattern), offsets[-1]))
    types, first = _row_types(counts, counts @ np.random.default_rng(0).random(offsets[-1]))
    table = counts[first] @ np.concatenate([blocks for *_, blocks in terms]).reshape(offsets[-1], n * n)
    indptr = np.searchsorted(pattern, np.arange(n_el + 1) * n_el)
    return BlockTable(pattern % n_el, indptr, types, table.reshape(-1, n, n))


def _gram_blocks(pts: _Points, d: np.ndarray | None = None, scale: float = 1.0) -> tuple:
    """The term scale (D v, D w) over the points of each element or face,
    D v the value if ``d`` is None and the gradient times ``d`` (2, k)
    otherwise: the mass or a stiffness, its blocks once per class."""
    cls, rep = pts.classes
    dv = pts.phi[..., None] if d is None else pts.grad @ d
    return pts.elem, pts.elem, cls, scale * np.einsum("cq,cqlk,cqmk->clm", pts.w[rep], dv, dv)


def _scatter(space: DGSpace, pts: _Points, local: np.ndarray) -> np.ndarray:
    """Local vectors (nE, n_local) of a point set summed into one entry per dof."""
    return np.bincount(space.dofs[pts.elem].ravel(), weights=local.ravel(), minlength=space.n_dofs)


def _integrate(space: DGSpace, pts: _Points, values: np.ndarray) -> np.ndarray:
    """The vector (values, v) over a point set, one entry per dof.  Values
    of shape (nE, nq, 2) are tested against grad v instead of v."""
    return _scatter(space, pts, pts.test(values))


def _penalty_blocks(ft: _FaceTables, sigma: float, weight: float = 1.0) -> list:
    """The (test side, trial side) terms of weight times the interior-penalty
    terms

        -([v], {grad w . n}) - ([w], {grad v . n}) + sigma ([v], [w])

    on a batch of faces, blocks once per class.  The average weighs each
    side by one over the number of sides, so on one-sided faces jump and
    average are the trace."""
    cls, rep = ft.sides[0].classes
    avg = 1.0 / len(ft.sides)
    w = ft.sides[0].w[rep]
    traces = [
        (st.elem, s, st.phi, np.einsum("cqli,ci->cql", st.grad, ft.normal[rep]))
        for st, s in zip(ft.sides, (1.0, -1.0))
    ]
    out = []
    for el_a, s_a, phi_a, gn_a in traces:
        for el_b, s_b, phi_b, gn_b in traces:
            block = (
                -avg * s_a * np.einsum("cq,cql,cqm->clm", w, phi_a, gn_b)
                - avg * s_b * np.einsum("cq,cql,cqm->clm", w, gn_a, phi_b)
                + sigma * s_a * s_b * np.einsum("cq,cql,cqm->clm", w, phi_a, phi_b)
            )
            out.append((el_a, el_b, cls, weight * block))
    return out


# ---------------------------------------------------------------------------
# the terms of A_h and M: one table, read by the operators, the wall data,
# the projection and the norms


@dataclass(frozen=True, eq=False)
class Term:
    """One term of A_h or M on the cells (``faces`` None) or a face set:
    weight (D u, D v), D the value if ``dirs`` is None and the derivatives
    along the columns of ``dirs`` (2, k) otherwise, or, with ``sigma`` set,
    weight times the interior-penalty terms, whose average the energy norm
    measures along ``dirs``.  ``names`` are the ``energy_norm_terms`` it
    adds to: weight sum w |D e|^2, or weight sigma sum w [e]^2 and
    weight / sigma sum w |{D e}|^2."""

    faces: Faces | None
    weight: float
    dirs: np.ndarray | None
    sigma: float | None = None
    names: tuple = ()

    def points(self, mesh: Mesh, space: DGSpace, degree: int):
        """The cells' ``_Points``, the one side of a Gram term's faces, or
        the ``_FaceTables`` of a penalty term's faces."""
        if self.faces is None:
            return _cell_points(mesh, space, degree)
        ft = _face_tables(mesh, space, self.faces, degree)
        return ft if self.sigma is not None else ft.sides[0]

    def blocks(self, mesh: Mesh, space: DGSpace) -> list:
        """Its terms of an operator's sparse product, blocks once per class."""
        pts = self.points(mesh, space, 2 * space.p)
        if self.sigma is None:
            return [_gram_blocks(pts, self.dirs, self.weight)]
        return _penalty_blocks(pts, self.sigma, self.weight)


def stiffness_terms(edges: EdgeClassification, params: FormParams) -> list:
    """The terms of A_h in their summation order: the bulk form B_h (broken
    gradients, then the interior penalty of the interior edges and periodic
    pairs), alpha times the L2(gamma1) mass, beta times the surface form b_h
    on gamma1 (tangential stiffness, then the interior penalty of the
    ridges, the faces of the 1D surface mesh) and, with Dirichlet walls,
    the one-sided Nitsche terms of the lateral edges and beta times those
    of the corners of the surface form."""
    beta, sigma = params.beta, params.sigma
    edge_names, ridge_names = ("jump_penalty", "grad_average"), ("ridge_jump", "ridge_average")
    terms = [
        Term(None, 1.0, AXES, names=("h1_broken",)),
        Term(edges.two_sided, 1.0, AXES, sigma, edge_names),
        Term(edges.gamma1, params.alpha, None, names=("alpha_boundary",)),
        Term(edges.gamma1, beta, TANGENT, names=("beta_tangential",)),
        Term(edges.ridges, beta, TANGENT, sigma, ridge_names),
    ]
    if edges.bc_mode == DIRICHLET_LATERAL:
        terms += [Term(edges.dirichlet, 1.0, AXES, sigma, edge_names), Term(edges.corners, beta, TANGENT, sigma, ridge_names)]
    return terms


def mass_terms(edges: EdgeClassification, lam: float) -> list:
    """The terms of M: the L2(Omega) mass, block diagonal in the DG dof
    layout, and lam times the L2(gamma1) mass."""
    return [Term(None, 1.0, None), Term(edges.gamma1, lam, None)]


# ---------------------------------------------------------------------------
# public assembly entry points


def assemble_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace, lam: float) -> BlockTable:
    """Weighted mass matrix (u, v)_Omega + lam (u, v)_gamma1."""
    return _bsr(space, [block for term in mass_terms(edges, lam) for block in term.blocks(mesh, space)])


def assemble_Ah(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> BlockTable:
    """Full stationary operator, the sum of ``stiffness_terms``.  Positive
    definite for gamma large enough when alpha > 0 or the walls are
    Dirichlet."""
    return _bsr(space, [block for term in stiffness_terms(edges, params) for block in term.blocks(mesh, space)])


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
    the datum u_D at time t: weight times sigma (u_D, v) - (u_D, grad v . n)
    for each one-sided penalty term of A_h, the lateral edges and, scaled
    by beta, the corners of the surface form.  The matching matrix terms
    are part of assemble_Ah."""
    if edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError("Dirichlet terms require bc_mode='dirichlet_lateral'")
    rhs = np.zeros(space.n_dofs)
    for term in stiffness_terms(edges, params):
        if term.sigma is None or term.faces.shift is not None:
            continue
        ft = term.points(mesh, space, 2 * space.p + 4)
        (pts,) = ft.sides
        ud = np.asarray(u_D(t, pts.x, pts.y), dtype=float)
        flux = _integrate(space, pts, ud[..., None] * ft.normal[:, None, :])  # (u_D, grad v . n)
        rhs += term.weight * (_integrate(space, pts, term.sigma * ud) - flux)
    return rhs
