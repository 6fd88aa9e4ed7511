"""Error norms and convergence rates.

The energy norm is built term by term from the table of A_h's terms
(``assembly.stiffness_terms``): a Gram term weight (D u, D v) gives weight
times the sum of w |D e|^2, an interior-penalty term gives weight sigma
times its squared jumps and weight / sigma times its squared averages.  So
it combines the broken H1 seminorm, the penalty-scaled jumps and averaged
gradients on the two-sided (and Dirichlet) edges, the weighted boundary
terms on gamma1 and the point jump/average terms at the ridges (and
corners), the faces of the surface mesh.  One weighted sum over a term's
sides (``Term.sides``), the jump (the first side minus the others) or
the mean, serves every term: on the cells or one-sided faces both are
the trace.  Arguments may be a DG coefficient vector, an exact field
(value and gradient callables, or a ``ManufacturedCase``) or both, in
which case the norm of the difference ``exact - u_h`` is computed.

The energy error is measured in two parts.  Let u = sum_k tau_k(t) U_k
be the field's ``manufactured.time_nodes`` (a case's time-separable field
declares them; any other field is one node at the call's time), P_k the
projection ``assembly.l2_lambda_project`` of U_k and delta = sum_k tau_k
P_k - u_h, a DG vector (for a separable field, the P_k the initial state
sums: one kept projection per node).  Then

    |||u - u_h|||^2 = sum_jk tau_j tau_k C_jk + 2 sum_k tau_k r_k . delta
                      + |||delta|||^2,

C_jk = (U_j - P_j, U_k - P_k)_E and r_k the vector of (U_k - P_k,
phi_i)_E.  The exact part, the P_k, C and r, is summed at degree 2p + 4
and, for a separable field, kept on the space (``_exact_part``, by the
edges, the form coefficients and the field), so each later call costs the
sums of delta, a polynomial of degree 2p on each affine simplex, which
the operators' own rule sums exactly.  The three terms
are of the error's size, so none cancels the others' digits.  An exact
field has no jumps: a jump of two sides is u_h's alone and takes no
exact part (as the jump of -P_k, three terms of the projection's jump
would cancel to u_h's: three digits lost on a conforming u_h).  The L2
errors, measured once per run, sum exact - u_h on the points of the
terms of M (``assembly.mass_terms``) at degree 2p + 4, the exact value
evaluated block by block, and keep nothing.

The sums of delta and u_h read tables kept on the space by the edges and
the form coefficients: one per geometry class and pass
(``_energy_passes``), made from the degree-2p point sets' basis tables,
so a class run's squares are one product.  The exact part
and the L2 errors run on the point sets' one evaluator: a point set is
stored in geometry-class order, so in each block of entries a class is
one run, and a field's values or one derivative on the run are one small
product of its local coefficients with the class's table, whose
gradients are already folded with the class's inverse Jacobian.  A
gradient norm sums its squared derivatives along the axes, a tangential
one along gamma1 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import FormParams, _project, _scatter, mass_terms, stiffness_terms
from .manufactured import FieldAt, ManufacturedCase, time_nodes
from .mesh import EdgeClassification, Mesh
from .space import DGSpace


@dataclass
class ErrorRecord:
    """One row of a convergence table."""

    h: float
    dt: float
    l2_domain: float
    l2_gamma1: float
    energy: float  # (dt * sum_k |||e^k|||^2)^(1/2) accumulated over the run
    rate_l2_domain: float | None = None
    rate_l2_gamma1: float | None = None
    rate_energy: float | None = None
    # what the run's states showed of A_h (``TransientResult``): how many had
    # u'A_h u < 0, and the smallest u'A_h u / u'Mu
    negative_states: int = 0
    min_quotient: float = math.inf


def rate(err_coarse: float, err_fine: float) -> float:
    """log(err_coarse / err_fine) / log(2), the order over one halving of h or dt."""
    if err_coarse <= 0 or err_fine <= 0:
        raise ValueError("errors must be positive to compute a rate")
    return math.log(err_coarse / err_fine) / math.log(2.0)


def _as_field(exact):
    if exact is None:
        return None, None
    if isinstance(exact, ManufacturedCase):
        return exact.u, exact.grad_u
    if isinstance(exact, tuple):
        return exact
    return exact, None


def _local(space, u_h):
    """u_h as local coefficients, one row per element, or None."""
    if u_h is None:
        return None
    u_h = np.asarray(u_h)
    if u_h.shape != (space.n_dofs,):
        raise ValueError(f"u_h has shape {u_h.shape}; a coefficient vector has shape (space.n_dofs,) = ({space.n_dofs},)")
    return u_h.reshape(-1, space.n_local)


def _parts(term, sides) -> list:
    """(name, coefficient, directions, factors) of each sum of squares a
    term of the table adds to a norm on its ``sides``: weight times its
    values' or derivatives' squares, or for a penalty term weight sigma
    times its squared jumps and weight / sigma times its squared averaged
    derivatives.  ``factors`` weigh each side's function: a jump is the
    first side minus the others, a mean 1 / len(sides) of each, and on one
    side both are the trace.  An exact field enters with the factors' sum,
    so not a jump of two sides: it has no jumps."""
    dirs = (None,) if term.dirs is None else term.dirs.T
    n = len(sides)
    mean = (1.0 / n,) * n
    if term.sigma is None:
        return [(term.names[0], term.weight, dirs, mean)]
    jump, average = term.names
    return [
        (jump, term.weight * term.sigma, (None,), (1.0,) + (-1.0,) * (n - 1)),
        (average, term.weight / term.sigma, dirs, mean),
    ]


def _l2_sum(pts, u, exact) -> float:
    """The sum over the point set ``pts`` of w |u_h - exact|^2, u_h of local
    coefficients u and ``exact`` a callable (x, y) or None, one block of
    entries at a time."""
    total = 0.0
    for sl in pts.blocks():
        e = pts.field(u.take(pts.elem[sl], axis=0), sl)
        if exact is not None:
            e -= exact(*pts.points(sl))
        total += float(np.vdot(pts.w.take(pts.classes[0][sl], axis=0), np.square(e, out=e)))
    return total


def _exact_sums(space, terms, nodes, projections, by_name) -> tuple:
    """The exact field's part of a norm's error.  For u = sum_k tau_k U_k,
    ``nodes`` the (value, gradient) callables (x, y) of the U_k and
    ``projections`` DG vectors P_k near them, w_k = U_k - P_k on the parts
    of the terms that an exact field enters (``_parts``), at degree 2p + 4:
    (C, r) with C_jk = (w_j, w_k) and r_k the vector of (w_k, phi_i), each
    a dict by part name if ``by_name``, else under None for their sum; r_k
    tests each side with its factor.  U and its gradient are evaluated once
    per term and block of entries."""
    K, n = len(nodes), space.n_local
    P = [p.reshape(-1, n) for p in projections]
    C, r = {}, {}
    for term in terms:
        sides = term.sides(space, 2 * space.p + 4)
        parts = [part for part in _parts(term, sides) if sum(part[-1])]
        first, local = sides[0], {}  # (name, side, node) -> local vectors of r
        for sl in first.blocks():
            c = [[p.take(side.elem[sl], axis=0) for side in sides] for p in P]
            w = first.w.take(first.classes[0][sl], axis=0)
            exact = {}
            for name, coef, dirs, factors in parts:
                key = name if by_name else None
                for d in dirs:
                    W = []
                    for k, (value, grad) in enumerate(nodes):
                        if (d is None, k) not in exact:
                            exact[d is None, k] = np.asarray((value if d is None else grad)(*first.points(sl)))
                        U = exact[d is None, k]
                        e = sum(f * side.field(cs, sl, d) for side, f, cs in zip(sides, factors, c[k]))
                        W.append(np.subtract(U if d is None else np.tensordot(d, U, 1), e, out=e))  # U - P_k
                    Cd = coef * np.array([[np.vdot(w, Wj * Wk) for Wk in W] for Wj in W])
                    C[key] = C.get(key, 0.0) + Cd
                    for s, (side, f) in enumerate(zip(sides, factors)):
                        for k in range(K):
                            if (key, s, k) not in local:
                                local[key, s, k] = np.zeros((len(first.elem), n))
                            local[key, s, k][sl] += (coef * f) * side.test(W[k], sl, d)
        for (key, s, k), loc in local.items():
            if key not in r:
                r[key] = np.zeros((K, space.n_dofs))
            r[key][k] += _scatter(space, sides[s], loc)
    return C, r


def _energy_passes(space, edges, params) -> list:
    """The discrete sums' tables, one pass per set of simplices, count of
    sides and vector read (0: delta, 1: u_h, for a jump of two sides), as
    (vector, blocks, names, columns): each block of entries as its elements
    (m, sides) and class runs (start, stop, T_k), and each part's name and
    columns.  T_k (sides n_local, columns) stacks the pass's parts and
    directions on the degree-2p rule: side s's basis values or derivatives
    times the part's factor (``_parts``), each column scaled by
    sqrt(coef w_q), so a part's sum is that of the squares of x T_k over
    its columns, x the sides' local coefficients on the entries."""
    passes = {}
    for term in stiffness_terms(edges, params):
        sides = term.sides(space, 2 * space.p)
        for name, coef, dirs, factors in _parts(term, sides):
            scale = np.sqrt(coef * sides[0].w)[..., None]
            columns = [
                scale * np.concatenate([f * (side.phi if d is None else side.grad @ d) for side, f in zip(sides, factors)], axis=2)
                for d in dirs
            ]  # (n_classes, nq, sides n_local) each
            parts = passes.setdefault((term.faces, len(sides), not sum(factors)), (sides, []))[1]
            parts.append((name, np.concatenate(columns, axis=1)))
    out, elements = [], {}  # (faces, sides) -> the entries' elements, shared by the face set's passes
    for (faces, n, vector), (sides, parts) in passes.items():
        first, ends = sides[0], np.cumsum([part.shape[1] for _, part in parts]).tolist()
        if (faces, n) not in elements:
            elements[faces, n] = np.stack([side.elem for side in sides], axis=1) if n > 1 else first.elem[:, None]
        el, tables = elements[faces, n], np.concatenate([part for _, part in parts], axis=1).transpose(0, 2, 1).copy()
        blocks = [(el[sl], [(a, b, tables[k]) for k, a, b in first.runs(sl)]) for sl in first.blocks(max(tables.shape[1:]))]
        names = [(name, slice(end - part.shape[1], end)) for (name, part), end in zip(parts, ends)]
        out.append((int(vector), blocks, names, ends[-1]))
    return out


def _error_sums(space, passes, u_h, taus, projections, C, r, by_name) -> dict:
    """The squared norm of u - u_h, by part name or summed as ``by_name``
    says: sum_jk tau_j tau_k C_jk + 2 sum_k tau_k r_k . delta + |||delta|||^2
    for delta = sum_k tau_k P_k - u_h, since u - u_h = sum_k tau_k w_k +
    delta with C, r and w_k as ``_exact_sums`` gives them; a part no exact
    field enters, a jump of two sides, sums u_h's jumps alone.  The
    discrete sums read the ``passes`` (``_energy_passes``): per block of
    entries one gather, and per class run one product with its table.
    Their degree-2p rule is exact for them: on affine simplices they are
    polynomials of degree 2p."""
    delta = np.zeros(space.n_dofs) if u_h is None else -np.asarray(u_h, dtype=float)
    for tau, p in zip(taus, projections):
        delta += tau * p
    taus = np.asarray(taus, dtype=float)
    sums = {key: float(taus @ Ck @ taus + 2.0 * (taus @ (r[key] @ delta))) for key, Ck in C.items()}
    local = [v.reshape(-1, space.n_local) for v in (delta, np.zeros(space.n_dofs) if u_h is None else u_h)]
    for vector, blocks, names, columns in passes:
        for elements, runs in blocks:
            x = local[vector].take(elements, axis=0).reshape(len(elements), -1)
            e = np.empty((len(elements), columns))
            for a, b, table in runs:
                np.matmul(x[a:b], table, out=e[a:b])
            for key, cols in names if by_name else ((None, slice(None)),):
                sums[key] = sums.get(key, 0.0) + float(np.vdot(e[:, cols], e[:, cols]))
    return sums


def _exact_part(space, edges, params, fields, by_name=False, kept=True) -> tuple:
    """(projections, C, r) of the exact value and gradient ``fields``, ``SeparableField``s
    of one set of time nodes: the projections P_k of the value at each node, ``kept`` on the
    space as ``l2_lambda_project`` keeps them or made afresh, and ``_exact_sums``."""
    keep = space.keep if kept else lambda build, *args: build(space, *args)
    nodes = [tuple(FieldAt(field, s) for field in fields) for s in fields[0].nodes]
    projections = [keep(_project, edges, params.lam, value) for value, _ in nodes]
    return projections, *_exact_sums(space, stiffness_terms(edges, params), nodes, projections, by_name)


def _energy_sums(edges, space, params, u_h, exact, t, by_name) -> dict:
    """``_error_sums`` of the energy norm, the exact field taken as its
    ``time_nodes``.  The first call makes and keeps the tables of its discrete
    part and, summed (not ``by_name``), a separable field's exact part, which
    every later call reads; by name, or for another field, it is made afresh."""
    value_fn, grad_fn = _as_field(exact)
    if value_fn is not None and grad_fn is None:
        raise ValueError("exact field needs a gradient for the energy norm")
    if u_h is None and value_fn is None:
        raise ValueError("nothing to measure")
    _local(space, u_h)
    passes = space.keep(_energy_passes, edges, params)
    if value_fn is None:
        return _error_sums(space, passes, u_h, [], [], {}, {}, by_name)
    fields, taus, separable = time_nodes(t, value_fn, grad_fn)
    kept = separable and not by_name
    part = space.keep(_exact_part, edges, params, fields) if kept else _exact_part(space, edges, params, fields, by_name, False)
    return _error_sums(space, passes, u_h, taus, *part, by_name)


def energy_norm_terms(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    u_h: np.ndarray | None = None,
    exact=None,
    t: float = 0.0,
) -> dict[str, float]:
    """Squared contributions of every term of the energy norm; nothing is
    kept."""
    sums = _energy_sums(edges, space, params, u_h, exact, t, by_name=True)
    return {name: sums.get(name, 0.0) for term in stiffness_terms(edges, params) for name in term.names}


def energy_norm(mesh, edges, space, params, u_h=None, exact=None, t: float = 0.0) -> float:
    """Mesh-dependent energy norm of u_h, an exact field, or exact - u_h.
    A time-separable exact field keeps its exact part per space, beside
    the discrete sums' tables (``_energy_sums``), so every call after the
    first costs one product per class run and pass and one dot product
    per time node."""
    sums = _energy_sums(edges, space, params, u_h, exact, t, by_name=False)
    return math.sqrt(max(sums.get(None, 0.0), 0.0))  # rounding may leave a zero error below 0


def l2_errors(mesh, edges, space, lam, u_h, exact, t: float = 0.0) -> tuple[float, float, float]:
    """(L2(Omega), L2(gamma1), L2_lambda) norms of exact - u_h.

    Either argument may be None to measure the other alone; the lambda-
    weighted norm satisfies l2_lambda^2 = l2_domain^2 + lam * l2_gamma1^2.
    A run measures them once, at its final time, so the exact field is
    evaluated on the points block by block and nothing is kept.
    """
    value_fn = _as_field(exact)[0]
    if u_h is None and value_fn is None:
        raise ValueError("nothing to measure")
    u = np.zeros((space.mesh.n_triangles, space.n_local)) if u_h is None else _local(space, u_h)
    exact = None if value_fn is None else partial(value_fn, t)
    terms = mass_terms(edges, lam)  # the domain's, then gamma1's
    sums = [_l2_sum(term.sides(space, 2 * space.p + 4)[0], u, exact) for term in terms]
    l2_dom, l2_g1 = map(math.sqrt, sums)
    return l2_dom, l2_g1, math.sqrt(sum(term.weight * s for term, s in zip(terms, sums)))
