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
cells or one-sided faces both are the trace.  The L2 errors read the terms
of M (``assembly.mass_terms``) the same way.  Arguments may be a DG coefficient
vector, an exact field (value and gradient callables, or a
``ManufacturedCase``) or both, in which case the norm of the difference
``exact - u_h`` is computed; exact fields contribute no jumps.  The energy
norm, evaluated at every step, keeps each point set's snapshots of a
case's time-separable fields; the L2 errors, measured once, keep none.

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

import numpy as np

from .assembly import FormParams, mass_terms, stiffness_terms
from .manufactured import ManufacturedCase
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


def _trace(pts, sl, c, exact, d=None):
    """u_h - exact, the error up to a sign no norm sees, on the entries
    ``sl`` of a point set, or its derivative along ``d`` (2,): ``c`` holds
    u_h's local coefficients on those entries and ``exact`` the terms of the
    exact value or gradient on the whole set, or on a face set's first side
    (``_Points.exact``).  A missing u_h or exact field counts as zero."""
    out = np.zeros((sl.stop - sl.start, pts.w.shape[1])) if c is None else pts.field(c, sl, d)
    for weight, values in exact:
        if d is None:
            out -= weight * values[sl]
        else:
            for i in d.nonzero()[0]:
                out -= (weight * d[i]) * values[i][sl]
    return out


def _norm2(w, a):
    """Sum of w a^2; overwrites a."""
    return float(np.vdot(w, np.square(a, out=a)))


def _sum_sq(sides, u, exact, dirs=(None,), mean=False) -> float:
    """Sum over a term's ``sides`` of w |e|^2, e the jump of exact - u_h
    (the first side minus the others) or with ``mean`` its average over the
    sides, or with ``dirs`` of its squared derivatives along each direction
    (the axes, or the tangent of gamma1), one block of entries at a time.
    On one side jump and average are both the trace.  As in
    ``_penalty_blocks``, the sides' entries match, so ``exact``, on the
    first side, serves each; ``u`` is u_h's local coefficients."""
    first, *others = sides
    combine = np.add if mean else np.subtract
    total = 0.0
    for sl in first.blocks():
        c = [None if u is None else u.take(side.elem[sl], axis=0) for side in sides]
        w = first.w.take(first.classes[0][sl], axis=0)
        sums = []
        for d in dirs:
            e = _trace(first, sl, c[0], exact, d)
            for side, cs in zip(others, c[1:]):
                combine(e, _trace(side, sl, cs, exact, d), out=e)
            if mean:
                e *= 1.0 / len(sides)
            sums.append(_norm2(w, e))
        total += sum(sums)
    return total


def energy_norm_terms(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    u_h: np.ndarray | None = None,
    exact=None,
    t: float = 0.0,
) -> dict[str, float]:
    """Squared contributions of every term of the energy norm."""
    value_fn, grad_fn = _as_field(exact)
    if value_fn is not None and grad_fn is None:
        raise ValueError("exact field needs a gradient for the energy norm")
    if u_h is None and value_fn is None:
        raise ValueError("nothing to measure")
    u = _local(space, u_h)
    terms: dict[str, float] = {}
    for term in stiffness_terms(edges, params):
        sides = term.sides(mesh, space, 2 * space.p + 4)
        if term.sigma is None:
            fn, dirs = (value_fn, (None,)) if term.dirs is None else (grad_fn, term.dirs.T)
            sums = [(term.weight, _sum_sq(sides, u, sides[0].exact(fn, t), dirs))]
        else:  # the exact value cancels in a jump of two sides
            jump2 = _sum_sq(sides, u, [] if len(sides) > 1 else sides[0].exact(value_fn, t))
            avg2 = _sum_sq(sides, u, sides[0].exact(grad_fn, t), term.dirs.T, mean=True)
            sums = [(term.weight * term.sigma, jump2), (term.weight / term.sigma, avg2)]
        for name, (coef, total) in zip(term.names, sums):
            terms[name] = terms.get(name, 0.0) + coef * total
    return terms


def energy_norm(mesh, edges, space, params, u_h=None, exact=None, t: float = 0.0) -> float:
    """Mesh-dependent energy norm of u_h, an exact field, or exact - u_h."""
    terms = energy_norm_terms(mesh, edges, space, params, u_h=u_h, exact=exact, t=t)
    return math.sqrt(sum(terms.values()))


def l2_errors(mesh, edges, space, lam, u_h, exact, t: float = 0.0) -> tuple[float, float, float]:
    """(L2(Omega), L2(gamma1), L2_lambda) norms of exact - u_h.

    Either argument may be None to measure the other alone; the lambda-
    weighted norm satisfies l2_lambda^2 = l2_domain^2 + lam * l2_gamma1^2.
    """
    # a run measures the field at one time, so no snapshot is kept
    value_fn = _as_field(exact)[0]
    if u_h is None and value_fn is None:
        raise ValueError("nothing to measure")
    u = _local(space, u_h)
    terms = mass_terms(edges, lam)  # the domain's, then gamma1's
    sides = [term.sides(mesh, space, 2 * space.p + 4) for term in terms]
    sums = [_sum_sq(s, u, s[0].exact(value_fn, t, keep=False)) for s in sides]
    l2_dom, l2_g1 = map(math.sqrt, sums)
    return l2_dom, l2_g1, math.sqrt(sum(term.weight * s for term, s in zip(terms, sums)))
