"""Error norms and convergence rates.

The energy norm is built term by term from the table of A_h's terms
(``assembly.stiffness_terms``): a Gram term weight (D u, D v) gives weight
times the sum of w |D e|^2, an interior-penalty term gives weight sigma
times its squared jumps and weight / sigma times its squared averages.  So
it combines the broken H1 seminorm, the penalty-scaled jumps and averaged
gradients on the two-sided (and Dirichlet) edges, the weighted boundary
terms on gamma1 and the point jump/average terms at the ridges (and
corners), the faces of the surface mesh.  One sum over a term's sides
(``Term.sides``), of their jump or their mean, serves every term: on the
cells or one-sided faces both are the trace.  Arguments may be a DG
coefficient vector, an exact field (value and gradient callables, or a
``ManufacturedCase``) or both, in which case the norm of the difference
``exact - u_h`` is computed.

The energy error is measured in two parts.  Let u = sum_k tau_k(t) U_k
be the field's ``manufactured.time_nodes`` (a case's time-separable field
declares them; any other field is one node at the call's time), P_k the
projection ``assembly.l2_lambda_project`` of U_k and delta = sum_k tau_k
P_k - u_h, a DG vector.  Then

    |||u - u_h|||^2 = sum_jk tau_j tau_k C_jk + 2 sum_k tau_k r_k . delta
                      + |||delta|||^2,

C_jk = (U_j - P_j, U_k - P_k)_E and r_k the vector of (U_k - P_k,
phi_i)_E.  The exact part, the P_k, C and r, is summed at degree 2p + 4
and, if the nodes have a key, kept on the space by it, so each later
call costs the sums of delta, a polynomial of degree 2p on each affine
simplex, which the operators' own rule sums exactly.  The three terms
are of the error's size, so none cancels the others' digits.  An exact
field has no jumps: a jump of two sides is u_h's alone and takes no
exact part.  The L2 errors, measured once per run, sum exact - u_h on
the points of the terms of M (``assembly.mass_terms``) at degree 2p + 4,
the exact value evaluated block by block, and keep nothing.

The norms run on the point sets' one evaluator.  A point set is stored in
geometry-class order, so in each block of entries a class is one run, and
u_h's values or one derivative on the run are one small product of its
local coefficients with the class's table, whose gradients are already
folded with the class's inverse Jacobian.  A gradient norm sums its
squared derivatives along the axes, a tangential one along gamma1 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import FormParams, _project, _scatter, l2_lambda_project, mass_terms, stiffness_terms
from .manufactured import ManufacturedCase, time_nodes
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
    """(name, coefficient, directions, mean, exact) of each sum of squares a
    term of the table adds to a norm on its ``sides``: weight times its
    values' or derivatives' squares, or for a penalty term weight sigma
    times its squared jumps and weight / sigma times its squared averaged
    derivatives.  ``exact`` says whether an exact field enters it: it
    cancels in a jump of two sides, as exact fields have no jumps."""
    dirs = (None,) if term.dirs is None else term.dirs.T
    if term.sigma is None:
        return [(term.names[0], term.weight, dirs, False, True)]
    jump, average = term.names
    return [
        (jump, term.weight * term.sigma, (None,), False, len(sides) == 1),
        (average, term.weight / term.sigma, dirs, True, True),
    ]


def _combine(sides, c, sl, d, mean) -> np.ndarray:
    """At the entries ``sl``, the jump (the first side minus the others) or
    with ``mean`` the average over the ``sides`` of the values, or the
    derivatives along ``d``, of the local coefficients ``c``, one array per
    side.  On one side jump and average are both the trace."""
    first, *others = sides
    out = first.field(c[0], sl, d)
    for side, cs in zip(others, c[1:]):
        (np.add if mean else np.subtract)(out, side.field(cs, sl, d), out=out)
    if mean:
        out *= 1.0 / len(sides)
    return out


def _norm2(w, a):
    """Sum of w a^2; overwrites a."""
    return float(np.vdot(w, np.square(a, out=a)))


def _sum_sq(sides, parts, exact=None) -> list:
    """For each (u, directions, mean) of ``parts``, the sum over the
    ``sides`` of a set of simplices of w |e|^2, e the jump or average
    (``_combine``) of the functions of local coefficients u, or of their
    derivatives along each direction (the axes, or the tangent of gamma1),
    in one pass over blocks of entries.  ``exact``, a callable (x, y) for a
    one-sided part of values, is subtracted on the points."""
    first = sides[0]
    totals = [0.0] * len(parts)
    for sl in first.blocks():
        c = {id(u): [u.take(side.elem[sl], axis=0) for side in sides] for u, _, _ in parts}
        w = first.w.take(first.classes[0][sl], axis=0)
        for i, (u, dirs, mean) in enumerate(parts):
            for d in dirs:
                e = _combine(sides, c[id(u)], sl, d, mean)
                if exact is not None:
                    e -= exact(*first.points(sl))
                totals[i] += _norm2(w, e)
    return totals


def _exact_sums(mesh, space, terms, nodes, projections, by_name) -> tuple:
    """The exact field's part of a norm's error.  For u = sum_k tau_k U_k,
    ``nodes`` the (value, gradient) callables (x, y) of the U_k and
    ``projections`` DG vectors P_k near them, w_k = U_k - P_k on the parts
    of the terms that an exact field enters, at degree 2p + 4: (C, r) with
    C_jk = (w_j, w_k) and r_k the vector of (w_k, phi_i), each a dict by
    part name if ``by_name``, else under None for their sum.  U and its
    gradient are evaluated once per term and block of entries."""
    K, n = len(nodes), space.n_local
    P = [p.reshape(-1, n) for p in projections]
    C, r = {}, {}
    for term in terms:
        sides = term.sides(mesh, space, 2 * space.p + 4)
        parts = [part for part in _parts(term, sides) if part[-1]]
        first, local = sides[0], {}  # (name, side, node) -> local vectors of r
        for sl in first.blocks() if parts else ():
            c = [[p.take(side.elem[sl], axis=0) for side in sides] for p in P]
            w = first.w.take(first.classes[0][sl], axis=0)
            exact = {}
            for name, coef, dirs, mean, _ in parts:
                key = name if by_name else None
                for d in dirs:
                    W = []
                    for k, (value, grad) in enumerate(nodes):
                        if (d is None, k) not in exact:
                            exact[d is None, k] = np.asarray((value if d is None else grad)(*first.points(sl)))
                        U = exact[d is None, k]
                        e = _combine(sides, c[k], sl, d, mean)
                        W.append(np.subtract(U if d is None else np.tensordot(d, U, 1), e, out=e))  # U - P_k
                    Cd = coef * np.array([[np.vdot(w, Wj * Wk) for Wk in W] for Wj in W])
                    C[key] = C.get(key, 0.0) + Cd
                    for s, side in enumerate(sides):  # the mean, or the trace of one side
                        for k in range(K):
                            if (key, s, k) not in local:
                                local[key, s, k] = np.zeros((len(first.elem), n))
                            local[key, s, k][sl] += (coef / len(sides)) * side.test(W[k], sl, d)
        for (key, s, k), loc in local.items():
            if key not in r:
                r[key] = np.zeros((K, space.n_dofs))
            r[key][k] += _scatter(space, sides[s], loc)
    return C, r


def _error_sums(mesh, space, terms, u_h, taus, projections, C, r, by_name) -> dict:
    """The squared norm of u - u_h, by part name or summed as ``by_name``
    says: sum_jk tau_j tau_k C_jk + 2 sum_k tau_k r_k . delta + |delta|^2
    for delta = sum_k tau_k P_k - u_h, since u - u_h = sum_k tau_k w_k +
    delta with C, r and w_k as ``_exact_sums`` gives them; a part no exact
    field enters sums u_h's jumps alone.  The discrete sums take the
    degree-2p rule, which is exact for them: on affine simplices they are
    polynomials of degree 2p."""
    delta = np.zeros(space.n_dofs) if u_h is None else -np.asarray(u_h, dtype=float)
    for tau, p in zip(taus, projections):
        delta += tau * p
    taus = np.asarray(taus, dtype=float)
    sums = {key: float(taus @ Ck @ taus + 2.0 * (taus @ (r[key] @ delta))) for key, Ck in C.items()}
    local = {True: delta.reshape(-1, space.n_local), False: None if u_h is None else u_h.reshape(-1, space.n_local)}
    passes = {}  # one pass over each set of simplices: gamma1's two terms share one
    for term in terms:
        sides = term.sides(mesh, space, 2 * space.p)
        for name, coef, dirs, mean, exact in _parts(term, sides):
            if local[exact] is not None:
                passes.setdefault((term.faces, len(sides)), (sides, []))[1].append((name, coef, local[exact], dirs, mean))
    for sides, parts in passes.values():
        for (name, coef, *_), total in zip(parts, _sum_sq(sides, [part[2:] for part in parts])):
            key = name if by_name else None
            sums[key] = sums.get(key, 0.0) + coef * total
    return sums


def _energy_sums(mesh, edges, space, params, u_h, exact, t, by_name) -> dict:
    """``_error_sums`` of the energy norm, the exact field taken as its
    ``time_nodes``.  Summed (not ``by_name``), nodes with a key keep their
    exact part, the projections, C and r, on the space: the first call
    makes it (a case's node at 0 is its u0, whose projection a run keeps)
    and every later one reads it.  By name, or with no key, it is made
    afresh and not kept."""
    value_fn, grad_fn = _as_field(exact)
    if value_fn is not None and grad_fn is None:
        raise ValueError("exact field needs a gradient for the energy norm")
    if u_h is None and value_fn is None:
        raise ValueError("nothing to measure")
    _local(space, u_h)
    terms = stiffness_terms(edges, params)
    if value_fn is None:
        return _error_sums(mesh, space, terms, u_h, [], [], {}, {}, by_name)
    nodes, taus, key = time_nodes(t, value_fn, grad_fn)
    kept = None if by_name or key is None else ("energy", *key, params.alpha, params.beta, params.lam, params.sigma)

    def exact_part():
        projections = [
            l2_lambda_project(mesh, space, edges, params.lam, exact.u0)
            if kept and isinstance(exact, ManufacturedCase) and value_fn.nodes[k] == 0.0
            else _project(mesh, space, edges, params.lam, value)
            for k, (value, _) in enumerate(nodes)
        ]
        return projections, *_exact_sums(mesh, space, terms, nodes, projections, by_name)

    projections, C, r = space.keep(kept, exact_part)
    return _error_sums(mesh, space, terms, u_h, taus, projections, C, r, by_name)


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
    sums = _energy_sums(mesh, edges, space, params, u_h, exact, t, by_name=True)
    return {name: sums.get(name, 0.0) for term in stiffness_terms(edges, params) for name in term.names}


def energy_norm(mesh, edges, space, params, u_h=None, exact=None, t: float = 0.0) -> float:
    """Mesh-dependent energy norm of u_h, an exact field, or exact - u_h.
    A time-separable exact field keeps its exact part per space
    (``_energy_sums``), so every call after the first costs the sums of
    delta on the degree-2p rule and one dot product per time node."""
    sums = _energy_sums(mesh, edges, space, params, u_h, exact, t, by_name=False)
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
    sums = [_sum_sq(term.sides(mesh, space, 2 * space.p + 4), [(u, (None,), False)], exact)[0] for term in terms]
    l2_dom, l2_g1 = map(math.sqrt, sums)
    return l2_dom, l2_g1, math.sqrt(sum(term.weight * s for term, s in zip(terms, sums)))
