"""Sparse operators of the interior-penalty discretization.

Assembles the full operator A_h, the weighted mass M and time-dependent
load vectors.  A_h is the bulk form (volume gradients plus jump/flux terms
on interior and periodic edges) plus alpha times the boundary mass and beta
times the surface form on the top/bottom boundary (tangential stiffness on
the boundary edges plus point couplings at the ridges).  With Dirichlet
walls it also holds the Nitsche terms of the lateral edges and, scaled by
beta, the one-sided corner terms of the surface form; the wall datum enters
through a vector alone.  One table, ``stiffness_terms`` and ``mass_terms``,
lists each ``Term``: its set of simplices (the cells or a face set),
weight (1, alpha, beta or lambda), derivative directions and, if it is an
interior-penalty term, sigma.  A_h and M are each one sparse product of
their terms' blocks (no sparse matrix is added), the wall data takes the
one-sided penalty terms, and the loads, the projection and both norms read
the same table.  Every term is a sum of quadrature over point sets, which
each reader gets as the term's sides (``Term.sides``): one side of each
simplex of a ``Faces`` batch (triangles, edges, ridges and corners; a
ridge or corner is a point face of unit measure).  One builder makes them
all, with the triangle rule on triangles and the edge rule otherwise; a
point set is built once per face set and degree and kept on the space for
as long as it lives.

A point set is stored in geometry-class order.  A class is the entries
whose point pattern (the rule interpolating the reference vertices their
simplex's vertices map to), inverse Jacobian, weight scale and (on faces)
normal are bitwise equal, a handful on the structured meshes; the order is
found from per-simplex data once per geometry, for every degree, and each
class is one run of entries.  Each class keeps its weight row, basis
values and physical gradients, the reference gradients folded with its
inverse Jacobian; a point set makes the physical points v0 + J xi of a
block of entries from the mesh only when a field is evaluated (on a face
set's first side alone, whose entries match the second's), so it holds no
array per entry and point.
One evaluator on it serves loads, projection and norms: ``field`` maps the
coefficients of a run of entries to point values or one derivative with
one small product per class run, and ``test`` is its weighted transpose.
What is built once is kept on the space (``DGSpace.keep``) by the builder
that reads it: point sets, class orders, projections, inverse masses and
a source's load vectors per time node (``manufactured.time_nodes``),
which a later load sums weighted.

Element blocks are built once per class, and an operator is a
``BlockTable``: its block pattern, a type per element pair (pairs with
equal counts of each class share one) and a block per type, a handful on
the structured meshes.  The solvers read it; CG multiplies its CSR form,
which scipy expands from the table a few thousand element rows at a time,
so no block is held per pair.  Its cell blocks (a cell's two triangles'
four blocks) are a ``BlockDiagonal``, the distinct blocks and a kind per
cell applied as one strided product: M (block diagonal in full), block
Jacobi and the projection's mass are never held as a block per cell.

Quadrature degrees follow a single convention: matrix assembly uses rules
exact to degree 2p, data-dependent vectors (loads, projections) and error
norms use 2p + 4.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .manufactured import time_nodes
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Faces, Mesh
from .solver import SolverError
from .space import DGSpace, edge_quadrature, triangle_quadrature

AXES = np.eye(2)  # columns: the derivatives whose squares sum to |grad w|^2
TANGENT = np.array([[1.0], [0.0]])  # column: the tangent of gamma1, which is horizontal


@dataclass(frozen=True)
class FormParams:
    """Coefficients of the bilinear forms, equal when all four are.

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


BLOCK_POINTS = 2**15  # points in one block of an evaluation: its temporaries (256 KB an array) stay small


@dataclass(eq=False)
class _Points:
    """Quadrature points on one side of a batch of simplices, stored in
    geometry-class order: the entries of class k are the run bounds[k] to
    bounds[k + 1], and each class keeps its weights and basis tables.  The
    points of a block of entries are made from the mesh on demand, and a
    field's values on them live only while that block is summed: what is
    integrated from them is kept on the space, never values per point."""

    elem: np.ndarray  # (nE,) element whose basis is evaluated
    w: np.ndarray  # (n_classes, nq) rule weight times the simplex's measure (1 at a point face)
    bounds: np.ndarray  # (n_classes + 1,) first entry of each class, then nE
    phi: np.ndarray  # (n_classes, nq, n_local) basis values
    grad: np.ndarray  # (n_classes, nq, n_local, 2) physical gradients, folded with the class's inverse Jacobian
    points: callable | None  # slice -> (x, y), each (m, nq): those entries' physical points; None on a second side
    normal: np.ndarray | None = None  # (n_classes, 2) on faces: a face's class fixes its normal
    field_tables: dict = field(default_factory=dict)  # direction -> ``field``'s class tables (``_table``)

    def blocks(self, width: int | None = None) -> list:
        """Slices of the entries, BLOCK_POINTS points, or numbers of ``width``
        per entry, each but the last."""
        n, size = len(self.elem), max(1, BLOCK_POINTS // (width or self.w.shape[1]))
        return [slice(i, min(i + size, n)) for i in range(0, n, size)]

    def integrate(self, fn, whole: bool = False) -> np.ndarray:
        """``test`` of fn(x, y): local vectors (nE, n_local), one block of
        entries at a time, or with ``whole`` on all of them at once."""
        out = np.empty((len(self.elem), self.phi.shape[2]))
        for sl in [slice(0, len(self.elem))] if whole else self.blocks():
            out[sl] = self.test(np.asarray(fn(*self.points(sl)), dtype=float), sl)
        return out

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
        tables = self._table(d)
        out = np.empty((len(c), self.w.shape[1]))
        for k, a, b in self.runs(sl):
            np.matmul(c[a:b], tables[k], out=out[a:b])
        return out

    def test(self, values: np.ndarray, sl: slice, d: np.ndarray | None = None) -> np.ndarray:
        """The weighted transpose of ``field``: local vectors (m, n_local) at
        the entries ``sl`` of sum_q w values v, or with ``d`` of sum_q w
        values (grad v . d), for values (m, nq), or of w values . grad v,
        for values (m, nq, 2)."""
        grad = values.ndim == 3
        n = self.phi.shape[2]
        out = np.empty((len(values), n))
        for k, a, b in self.runs(sl):
            if grad:
                table = self.grad[k].transpose(0, 2, 1).reshape(-1, n)
            else:
                table = self.phi[k] if d is None else self._table(d)[k].T
            wv = (self.w[k][:, None] if grad else self.w[k]) * values[a:b]
            out[a:b] = wv.reshape(b - a, -1) @ table
        return out

    def _table(self, d: np.ndarray | None) -> np.ndarray:
        """``field``'s class tables (n_classes, n_local, nq) of the values,
        or of the derivatives along ``d``, made on first use: contiguous,
        BLAS's fast layout for its products."""
        key = None if d is None else d.tobytes()
        if key not in self.field_tables:
            self.field_tables[key] = np.swapaxes(self.phi if d is None else self.grad @ d, 1, 2).copy()
        return self.field_tables[key]

    @cached_property
    def classes(self) -> tuple:
        """(class of each entry, first entry of each class): the entries of a
        class share every element block."""
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds)), self.bounds[:-1]


def _class_order(*keys) -> tuple:
    """(order, bounds): the order of the rows of the key arrays ``keys`` (1-D,
    or 2-D with a column per key) that makes each class, the rows whose keys
    are all bitwise equal, one run, and the first row of each run followed
    by the number of rows.  One lexsort over the key columns that are not
    the same in every row (a stable sort does not move on those), stacked
    one per row: far faster than ``np.unique(axis=0)``."""
    varying = [c for key in keys for c in np.atleast_2d(key.T) if (c != c[:1]).any()]
    keys = np.array(varying or [np.zeros(len(keys[0]))])  # one constant key if none varies
    order = np.lexsort(keys)
    keys = keys[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, np.append(np.flatnonzero(first), len(order))


def _points(space, elems, points, w, bounds, ref, normal=None) -> _Points:
    """The side of ``elems`` whose points ``points`` makes, in class order
    with the runs ``bounds``.  ``ref`` (n_classes, nq, 2) holds the
    reference positions of each class's points, the same for every class
    of one pattern, so those classes share their reference tables to the
    bit."""
    inv_j = space.mesh.inv_jacobians[elems[bounds[:-1]]]
    phi, grad = space.basis.eval(ref), space.basis.grad(ref) @ inv_j[:, None]
    return _Points(elems, w, bounds, phi, grad, points, normal)


def _on_simplices(faces, order, xi, sl) -> tuple:
    """(x, y) at the simplices ``order[sl]``, on the first side's
    realization: v0 + J times the rule's points ``xi`` (nq, d), with one
    product for all of them."""
    f = order[sl]
    X = (faces.jacobian[f].reshape(-1, xi.shape[1]) @ xi.T).reshape(len(f), 2, len(xi))
    X += faces.v0[f][:, :, None]
    return X[:, 0], X[:, 1]


def _order(space: DGSpace, faces: Faces) -> tuple:
    """(order, bounds, refs) of a batch of simplices by class, the same at
    every degree: the normal (on faces) and, on each side, the reference
    vertices the simplex's vertices (the second side's moved by ``shift``)
    map to in its element, the element's inverse Jacobian and the simplex's
    measure.  Each vertex is a vertex of its element, so rounding its
    mapped-back position gives the reference vertex exactly, and the
    elementwise products here need no more precision; ``refs`` holds each
    class's d + 1 of them, (n_classes, d + 1, 2) per side."""
    mesh, shifts = space.mesh, [0.0] if faces.shift is None else [0.0, faces.shift]
    keys, refs = [], []
    for el, shift in zip(faces.elem.T, shifts):
        inv_j = mesh.inv_jacobians[el]
        x = (faces.v0 + shift - mesh.v0[el])[:, None, :]  # the vertices from the element's v0
        x = np.concatenate([x, x + faces.jacobian.transpose(0, 2, 1)], axis=1)
        refs.append(np.rint(x[..., :1] * inv_j[:, None, :, 0] + x[..., 1:] * inv_j[:, None, :, 1]))
        keys += [refs[-1].reshape(-1, 2 * x.shape[1]), inv_j.reshape(-1, 4), faces.measure]
    order, bounds = _class_order(*keys, *([] if faces.normal is None else [faces.normal]))
    return order, bounds, [ref[order[bounds[:-1]]] for ref in refs]


def _sides(space: DGSpace, faces: Faces, degree: int) -> tuple:
    """Each side of a batch of simplices, in ``_order``, with the triangle
    rule on triangles and the edge rule on edges and point faces: each
    class's points are the rule's interpolation of its reference vertices,
    on a triangle the rule's own points.  The first side alone makes
    points."""
    order, bounds, refs = space.keep(_order, faces)
    first, d = order[bounds[:-1]], faces.jacobian.shape[2]
    rule = triangle_quadrature(degree) if d == 2 else edge_quadrature(degree)
    xi = rule.points.reshape(len(rule.weights), d)
    w = faces.measure[first][:, None] * rule.weights
    normal = None if faces.normal is None else faces.normal[first]
    points = [partial(_on_simplices, faces, order, xi), None]
    sides = zip(faces.elem.T, points, [r[:, :1] + xi @ (r[:, 1:] - r[:, :1]) for r in refs])
    return tuple(_points(space, el[order], pts, w, bounds, ref, normal) for el, pts, ref in sides)


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
        ``tobsr().tocsr()`` after ``eliminate_zeros``, which scipy computes
        a few thousand element rows at a time, so no block is held per
        pair."""
        n, n_el, n_blocks = self.table.shape[1], len(self.indptr) - 1, len(self.types)
        index = np.int32 if max(n * n * n_blocks, n * n_el) <= np.iinfo(np.int32).max else np.int64  # scipy's choice
        nnz = int(np.count_nonzero(self.table, axis=(1, 2))[self.types].sum())
        data, indices, indptr = np.empty(nnz), np.empty(nnz, dtype=index), np.zeros(n * n_el + 1, dtype=index)
        step = max(1, (1 << 17) // (n * n * np.diff(self.indptr).max()))  # element rows of at most 2^17 entries
        for a in range(0, n_el, step):
            b = min(a + step, n_el)
            lo, hi = self.indptr[a], self.indptr[b]
            blocks = (self.table[self.types[lo:hi]], self.indices[lo:hi], self.indptr[a : b + 1] - lo)
            chunk = sp.bsr_matrix(blocks, shape=(n * (b - a), n * n_el)).tocsr()
            chunk.eliminate_zeros()
            start = indptr[n * a]
            data[start : start + chunk.nnz] = chunk.data
            indices[start : start + chunk.nnz] = chunk.indices
            indptr[n * a + 1 : n * b + 1] = start + chunk.indptr[1:]
        return sp.csr_matrix((data, indices, indptr), shape=(n * n_el, n * n_el))

    def cells(self) -> np.ndarray:
        """Each grid cell's block types, (n_cells, 4): (2c + i, 2c + j) at [c, 2 i + j], -1 if not stored."""
        pair = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr)) ^ self.indices  # 0: own, 1: partner's
        at = np.flatnonzero(pair <= 1)
        place = 2 * (self.indices[at] ^ pair[at]) + (self.indices[at] & 1)  # 4 c + 2 i + j
        slots = np.full(2 * (len(self.indptr) - 1), -1)
        slots[place] = self.types[at]
        return slots.reshape(-1, 4)

    def own(self) -> BlockDiagonal:
        """The block diagonal over the grid cells: cell c's block is the four
        blocks between triangles 2c and 2c + 1, zero where none is stored."""
        slots = self.cells()  # grouped exactly: a cell's four types as one item of raw bytes
        _, first, kind = np.unique(slots.view(f"V{4 * slots.itemsize}").ravel(), return_index=True, return_inverse=True)
        n, padded = self.table.shape[1], np.concatenate([self.table, np.zeros_like(self.table[:1])])  # type -1: zero
        blocks = padded[slots[first]].reshape(-1, 2, 2, n, n).swapaxes(2, 3)
        return BlockDiagonal(blocks.reshape(-1, 2 * n, 2 * n), kind)

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
    """A matrix with one block per grid cell (triangles 2c and 2c + 1, whose
    dofs are one run) and none between cells, held as its distinct blocks
    and each cell's index among them.  ``D @ x`` is one strided product with
    the most common block, and the cells of other kinds (the gamma1 rows and
    wall columns of a structured mesh, almost every cell of a distorted one)
    are one gathered product written over it."""

    blocks: np.ndarray  # (n_kinds, 2 n_local, 2 n_local)
    kind: np.ndarray  # (n_cells,)

    def __post_init__(self):
        common = np.bincount(self.kind).argmax()
        self._common = self.blocks[common].T.copy()  # contiguous: BLAS's fast layout
        self._rest = np.flatnonzero(self.kind != common)
        self._rest_blocks = self.blocks[self.kind[self._rest]]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        cells = x.reshape(len(self.kind), -1)
        out = cells @ self._common
        out[self._rest] = (self._rest_blocks @ cells[self._rest, :, None])[..., 0]
        return out.ravel()

    def inverse(self) -> BlockDiagonal:
        """Its inverse, each distinct block inverted once; SolverError if one
        term swamps another in a block (lambda's boundary mass the element's)."""
        try:
            return BlockDiagonal(np.linalg.inv(self.blocks), self.kind)
        except np.linalg.LinAlgError:
            msg = "a cell block is singular in floating point: one term swamps the others (lower --lambda or --gamma)"
            raise SolverError(msg) from None


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
    dv = pts.phi[..., None] if d is None else pts.grad @ d
    return pts.elem, pts.elem, pts.classes[0], scale * np.einsum("cq,cqlk,cqmk->clm", pts.w, dv, dv)


def _scatter(space: DGSpace, pts: _Points, local: np.ndarray) -> np.ndarray:
    """Local vectors (nE, n_local) of a point set summed into one entry per dof."""
    return np.bincount(space.dofs[pts.elem].ravel(), weights=local.ravel(), minlength=space.n_dofs)


def _penalty_blocks(sides: tuple, sigma: float, weight: float = 1.0) -> list:
    """The (test side, trial side) terms of weight times the interior-penalty
    terms

        -([v], {grad w . n}) - ([w], {grad v . n}) + sigma ([v], [w])

    on the ``sides`` of a batch of faces, blocks once per class.  The
    average weighs each side by one over the number of sides, so on
    one-sided faces jump and average are the trace."""
    cls = sides[0].classes[0]
    avg = 1.0 / len(sides)
    w, normal = sides[0].w, sides[0].normal
    traces = [(st.elem, s, st.phi, np.einsum("cqli,ci->cql", st.grad, normal)) for st, s in zip(sides, (1.0, -1.0))]
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
    """One term of A_h or M on a batch of simplices, the cells or a face
    set: weight (D u, D v), D the value if ``dirs`` is None and the derivatives
    along the columns of ``dirs`` (2, k) otherwise, or, with ``sigma`` set,
    weight times the interior-penalty terms, whose average the energy norm
    measures along ``dirs``.  ``names`` are the ``energy_norm_terms`` it
    adds to: weight sum w |D e|^2, or weight sigma sum w [e]^2 and
    weight / sigma sum w |{D e}|^2."""

    faces: Faces
    weight: float
    dirs: np.ndarray | None
    sigma: float | None = None
    names: tuple = ()

    def sides(self, space: DGSpace, degree: int) -> tuple:
        """The ``_Points`` it reads, one per side: the cells, the first side
        of a Gram term's faces, or every side of a penalty term's faces."""
        sides = space.keep(_sides, self.faces, degree)
        return sides if self.sigma is not None else sides[:1]

    def blocks(self, space: DGSpace) -> list:
        """Its terms of an operator's sparse product, blocks once per class."""
        sides = self.sides(space, 2 * space.p)
        if self.sigma is None:
            return [_gram_blocks(sides[0], self.dirs, self.weight)]
        return _penalty_blocks(sides, self.sigma, self.weight)


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
        Term(edges.cells, 1.0, AXES, names=("h1_broken",)),
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
    return [Term(edges.cells, 1.0, None), Term(edges.gamma1, lam, None)]


# ---------------------------------------------------------------------------
# public assembly entry points


def assemble_mass(mesh: Mesh, edges: EdgeClassification, space: DGSpace, lam: float) -> BlockTable:
    """Weighted mass matrix (u, v)_Omega + lam (u, v)_gamma1."""
    return _bsr(space, [block for term in mass_terms(edges, lam) for block in term.blocks(space)])


def assemble_Ah(mesh: Mesh, edges: EdgeClassification, space: DGSpace, params: FormParams) -> BlockTable:
    """Full stationary operator, the sum of ``stiffness_terms``.  Positive
    definite for gamma large enough when alpha > 0 or the walls are
    Dirichlet."""
    return _bsr(space, [block for term in stiffness_terms(edges, params) for block in term.blocks(space)])


def assemble_load(mesh: Mesh, edges: EdgeClassification, space: DGSpace, f, g, t: float = 0.0) -> np.ndarray:
    """Load vector (f, v)_Omega + (g, v)_gamma1 at time t.

    f and g are callables (t, x, y) -> array or ``SeparableField``s;
    either may be None for a zero source.  Each is the weighted sum of its
    ``time_nodes``' load vectors (``_node_loads``): a separable field's are
    kept on the space, any other field's are made at each call.  Sums are
    made in place of their first part: a dof-sized temporary more raised
    the run's RSS by its size (1.5 MB at level 7, p = 2)."""
    load = None
    for term, fn in zip(mass_terms(edges, 1.0), (f, g)):  # the domain's, then gamma1's
        if fn is not None:
            (field,), weights, separable = time_nodes(t, fn)
            vectors = space.keep(_node_loads, term.faces, field) if separable else _node_loads(space, term.faces, field, False)
            (pts,) = term.sides(space, 2 * space.p + 4)
            local = weights[0] * vectors[0]  # a new array, summed into: the kept vectors stay as they are
            for w, v in zip(weights[1:], vectors[1:]):
                local += w * v
            part = _scatter(space, pts, local)
            load = part if load is None else np.add(load, part, out=load)
    return np.zeros(space.n_dofs) if load is None else load


def _node_loads(space: DGSpace, faces: Faces, field, whole: bool = True) -> list:
    """The local vectors (nE, n_local) of ``field``, a ``SeparableField``,
    at each time node on the first side of ``faces`` at degree 2p + 4: a
    node evaluated on all the points at once, or one block at a time."""
    pts = space.keep(_sides, faces, 2 * space.p + 4)[0]
    return [pts.integrate(partial(field.fn, s), whole) for s in field.nodes]


def l2_lambda_project(mesh: Mesh, space: DGSpace, edges: EdgeClassification, lam: float, u0) -> np.ndarray:
    """Projection of u0(x, y) in the lambda-weighted norm (domain plus lam *
    gamma1), kept on the space (``_project``); each call returns a copy.

    This is the initial datum the time stepper uses: unlike the plain
    domain projection, its boundary trace is accurate to the same order as
    the interior, which the boundary-error convergence rates require.  With
    lam = 0 it is the plain L2(Omega) projection."""
    return space.keep(_project, edges, lam, u0).copy()


def _project(space: DGSpace, edges: EdgeClassification, lam: float, u0) -> np.ndarray:
    """The projection: the inverse weighted mass (``_inverse_mass``) times
    ``assemble_load`` of (u0, lam u0), which evaluates u0 block by block."""
    rhs = assemble_load(space.mesh, edges, space, lambda t, x, y: u0(x, y), lambda t, x, y: lam * u0(x, y))
    return space.keep(_inverse_mass, edges, lam) @ rhs


def _inverse_mass(space: DGSpace, edges: EdgeClassification, lam: float) -> BlockDiagonal:
    """The inverse of the weighted mass on the degree-2p + 4 tables, exact
    for its blocks, so M's up to rounding: a ``BlockDiagonal``."""
    terms = mass_terms(edges, lam)
    grams = [_gram_blocks(term.sides(space, 2 * space.p + 4)[0], term.dirs, term.weight) for term in terms]
    return _bsr(space, grams).own().inverse()


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
        (pts,) = term.sides(space, 2 * space.p + 4)
        penalty, flux = np.empty((2, len(pts.elem), space.n_local))
        for sl in pts.blocks():
            ud = np.asarray(u_D(t, *pts.points(sl)), dtype=float)
            penalty[sl] = pts.test(term.sigma * ud, sl)
            flux[sl] = pts.test(ud[..., None] * pts.normal[pts.classes[0][sl], None, :], sl)  # (u_D, grad v . n)
        rhs += term.weight * (_scatter(space, pts, penalty) - _scatter(space, pts, flux))
    return rhs
