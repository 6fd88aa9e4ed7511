"""Error norms and convergence rates.

The energy norm combines the broken H1 seminorm, the penalty-scaled jumps
and averaged gradients on interior/periodic (or Dirichlet) edges, the
weighted boundary terms on gamma1 and the point jump/average terms at the
ridges (or corners), the faces of the surface mesh.  Arguments may be a DG
coefficient vector, an exact field (value and gradient callables) or both,
in which case the norm of the difference ``exact - u_h`` is computed;
exact fields contribute no jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import RIDGE_TANGENT, FormParams, _cell_points, _face_tables
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
    if hasattr(exact, "u"):
        return exact.u, getattr(exact, "grad_u", None)
    if isinstance(exact, tuple):
        value, grad = exact
        return value, grad
    return exact, None


def _trace(pts, space, u_h, fn, t, grad=False):
    """exact - u_h at a point set, or its gradient if ``grad``: ``fn`` is the
    exact value or gradient callable.  A missing u_h or fn counts as zero."""
    if u_h is None:
        out = np.zeros(pts.x.shape + ((2,) if grad else ()))
    else:
        out = pts.field(u_h[space.dofs[pts.elem]], grad)
        np.negative(out, out=out)
    if fn is not None:
        exact = fn(t, pts.x, pts.y)
        if grad:
            out[..., 0] += exact[0]
            out[..., 1] += exact[1]
        else:
            out += exact
    return out


def _two_sided(ft, space, u_h, grad_fn, t):
    """Jump and average gradient of exact - u_h on two-sided faces.  The
    exact field has no jumps, so the jump is that of u_h and the exact
    gradient is evaluated once, on the plus side."""
    jump = _trace(ft.plus, space, u_h, None, t) - _trace(ft.minus, space, u_h, None, t)
    gp = _trace(ft.plus, space, u_h, None, t, grad=True)
    gm = _trace(ft.minus, space, u_h, None, t, grad=True)
    return jump, _trace(ft.plus, space, None, grad_fn, t, grad=True) + 0.5 * (gp + gm)


def _norm2(pts, a):
    """Sum over the points of w |a|^2, for values (nE, nq) or vectors (nE, nq, 2)."""
    a2 = a * a if a.ndim == 2 else np.einsum("eqi,eqi->eq", a, a)
    return float(np.einsum("eq,eq->", pts.w, a2))


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
    terms["h1_broken"] = _norm2(vol, _trace(vol, space, u_h, grad_fn, t, grad=True))

    def face_sums(two_sided, one_sided, tangential):
        """Weighted sums of |[w]|^2 and |{grad w}|^2 over a two-sided face set
        and an optional one-sided one, where w counts itself; ``tangential``
        keeps only the gradient's component along gamma1."""
        ft = _face_tables(mesh, space, two_sided, degree)
        parts = [(ft.plus, *_two_sided(ft, space, u_h, grad_fn, t))]
        if one_sided is not None:
            pts = _face_tables(mesh, space, one_sided, degree).plus
            parts.append((pts, _trace(pts, space, u_h, value_fn, t), _trace(pts, space, u_h, grad_fn, t, grad=True)))
        jump2 = sum(_norm2(pts, jump) for pts, jump, _ in parts)
        return jump2, sum(_norm2(pts, avg @ RIDGE_TANGENT if tangential else avg) for pts, _, avg in parts)

    # interior and periodic edges: sigma |[w]|^2 + (1/sigma) |{grad w}|^2;
    # ridges, the faces of the surface mesh: beta sigma [w]^2 +
    # (beta/sigma) {d_t w}^2; Dirichlet edges and corners count w itself
    jump2, avg2 = face_sums(edges.two_sided_faces, edges.dirichlet, tangential=False)
    rj2, ra2 = face_sums(edges.ridges, edges.corners, tangential=True)
    terms["jump_penalty"] = sigma * jump2
    terms["grad_average"] = avg2 / sigma

    # gamma1: alpha ||w||^2 + beta |w|_H1^2 along the boundary
    g1 = _face_tables(mesh, space, edges.gamma1, degree).plus
    terms["alpha_boundary"] = params.alpha * _norm2(g1, _trace(g1, space, u_h, value_fn, t))
    terms["beta_tangential"] = params.beta * _norm2(g1, _trace(g1, space, u_h, grad_fn, t, grad=True) @ RIDGE_TANGENT)
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
    value_fn, _ = _as_field(exact)
    degree = 2 * space.p + 4
    vol = _cell_points(mesh, space, degree)
    l2_dom = math.sqrt(_norm2(vol, _trace(vol, space, u_h, value_fn, t)))
    g1 = _face_tables(mesh, space, edges.gamma1, degree).plus
    l2_g1 = math.sqrt(_norm2(g1, _trace(g1, space, u_h, value_fn, t)))
    return l2_dom, l2_g1, math.sqrt(l2_dom**2 + lam * l2_g1**2)
