"""Error norms and convergence rates.

The energy norm combines the broken H1 seminorm, the penalty-scaled jumps
and averaged gradients on the two-sided (and Dirichlet) edges, the
weighted boundary terms on gamma1 and the point jump/average terms at the
ridges (and corners), the faces of the surface mesh.  One face sum serves
every face set, one-sided or two-sided.  Arguments may be a DG coefficient
vector, an exact field (value and gradient callables, or a
``ManufacturedCase``) or both, in which case the norm of the difference
``exact - u_h`` is computed; exact fields contribute no jumps.  The energy
norm, evaluated at every step, takes a case's declared time-separable
fields, whose snapshots each point set evaluates once per time node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import RIDGE_TANGENT, FormParams, _cell_points, _face_tables
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


def rate(err_coarse: float, err_fine: float, factor: float = 2.0) -> float:
    """log(err_coarse / err_fine) / log(factor)."""
    if err_coarse <= 0 or err_fine <= 0:
        raise ValueError("errors must be positive to compute a rate")
    return math.log(err_coarse / err_fine) / math.log(factor)


def _as_field(exact):
    if exact is None:
        return None, None
    if isinstance(exact, ManufacturedCase):
        return exact.declared("u"), exact.declared("grad_u")
    if isinstance(exact, tuple):
        value, grad = exact
        return value, grad
    return exact, None


# Points per block of a norm's sums over a point set: the temporaries of
# one block (512 KB per gradient array) stay small next to the snapshots
# kept on the point sets.
BLOCK_POINTS = 2**15


def _blocks(pts):
    n, nq = pts.w.shape
    size = max(1, BLOCK_POINTS // nq)
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _trace(pts, sl, space, u_h, exact, grad=False):
    """exact - u_h on the entries ``sl`` of a point set, or its gradient if
    ``grad``: ``exact`` holds the terms of the exact value or gradient on
    the whole set (``_Points.exact``).  A missing u_h or exact field counts as zero."""
    part = pts.part(sl)
    if u_h is None:
        out = np.zeros(part.w.shape + ((2,) if grad else ()))
    else:
        out = part.field(u_h[space.dofs[part.elem]], grad)
        np.negative(out, out=out)
    for weight, values in exact:
        if grad:
            out[..., 0] += weight * values[0][sl]
            out[..., 1] += weight * values[1][sl]
        else:
            out += weight * values[sl]
    return out


def _norm2(pts, sl, a):
    """Sum over the points of the entries ``sl`` of w |a|^2, for values
    (nE, nq) or vectors (nE, nq, 2)."""
    a2 = a * a if a.ndim == 2 else np.einsum("eqi,eqi->eq", a, a)
    return float(np.einsum("eq,eq->", pts.w[sl], a2))


def _sum_sq(pts, space, u_h, exact, grad=False):
    """Sum over a point set of w |exact - u_h|^2, or of w |grad (exact - u_h)|^2,
    one block of entries at a time."""
    return sum(_norm2(pts, sl, _trace(pts, sl, space, u_h, exact, grad)) for sl in _blocks(pts))


def _face_sums(ft, space, u_h, value_fn, grad_fn, t, tangential):
    """Sums of w |[w]|^2 and w |{grad w}|^2 (its component along gamma1 alone
    if ``tangential``) over a batch of faces, w = exact - u_h.  As in
    ``_penalty_blocks``, the sides enter the jump with signs 1 and -1 and
    the average with one over their number: on one side, both are the trace.
    The exact value cancels in a jump of two sides; the exact gradient,
    evaluated on the first side, serves each side, whose entries match."""
    first, *others = ft.sides
    value = [] if others else first.exact(value_fn, t)
    grad = first.exact(grad_fn, t)
    jump2 = avg2 = 0.0
    for sl in _blocks(first):
        jump = _trace(first, sl, space, u_h, value)
        avg = _trace(first, sl, space, u_h, grad, grad=True)
        for side in others:
            jump -= _trace(side, sl, space, u_h, [])
            avg += _trace(side, sl, space, u_h, grad, grad=True)
        avg *= 1.0 / len(ft.sides)
        jump2 += _norm2(first, sl, jump)
        avg2 += _norm2(first, sl, avg @ RIDGE_TANGENT if tangential else avg)
    return jump2, avg2


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
    sigma = params.sigma
    degree = 2 * space.p + 4
    terms: dict[str, float] = {}

    vol = _cell_points(mesh, space, degree)
    terms["h1_broken"] = _sum_sq(vol, space, u_h, vol.exact(grad_fn, t), grad=True)

    def face_sums(*face_sets, tangential=False):
        """The sums of ``_face_sums`` over the face sets that are not None."""
        tables = [_face_tables(mesh, space, faces, degree) for faces in face_sets if faces is not None]
        sums = [_face_sums(ft, space, u_h, value_fn, grad_fn, t, tangential) for ft in tables]
        return [sum(s) for s in zip(*sums)]

    # two-sided edges: sigma |[w]|^2 + (1/sigma) |{grad w}|^2; ridges, the
    # faces of the surface mesh: beta sigma [w]^2 + (beta/sigma) {d_t w}^2;
    # on Dirichlet edges and corners, one-sided, both count w itself
    jump2, avg2 = face_sums(edges.two_sided, edges.dirichlet)
    terms["jump_penalty"] = sigma * jump2
    terms["grad_average"] = avg2 / sigma

    # gamma1, one-sided: alpha ||w||^2 + beta |w|_H1^2 along the boundary
    g2, gt2 = face_sums(edges.gamma1, tangential=True)
    terms["alpha_boundary"] = params.alpha * g2
    terms["beta_tangential"] = params.beta * gt2
    rj2, ra2 = face_sums(edges.ridges, edges.corners, tangential=True)
    terms["ridge_jump"] = params.beta * sigma * rj2
    terms["ridge_average"] = params.beta / sigma * ra2
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
    # a case's plain u: a run measures it at one time, so no snapshot is kept
    value_fn = exact.u if isinstance(exact, ManufacturedCase) else _as_field(exact)[0]
    degree = 2 * space.p + 4
    vol = _cell_points(mesh, space, degree)
    l2_dom = math.sqrt(_sum_sq(vol, space, u_h, vol.exact(value_fn, t)))
    (g1,) = _face_tables(mesh, space, edges.gamma1, degree).sides
    l2_g1 = math.sqrt(_sum_sq(g1, space, u_h, g1.exact(value_fn, t)))
    return l2_dom, l2_g1, math.sqrt(l2_dom**2 + lam * l2_g1**2)
