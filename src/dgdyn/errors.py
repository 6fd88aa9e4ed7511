"""Error norms and convergence rates.

The energy norm combines the broken H1 seminorm, the penalty-scaled jumps
and averaged gradients on interior/periodic (or Dirichlet) edges, the
weighted boundary terms on gamma1 and the point jump/average terms at the
ridges.  Arguments may be a DG coefficient vector, an exact field (value
and gradient callables) or both, in which case the norm of the difference
``exact - u_h`` is computed; exact fields contribute no jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    RIDGE_TANGENT,
    FormParams,
    _dirichlet_face_tables,
    _gamma1_face_tables,
    _interior_face_tables,
    _ridge_tables,
    _volume_tables,
)
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh
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


def _trace(side, space, u_h, value_fn, grad_fn, t):
    """Value and gradient of exact - u_h at the points of one face side; a
    missing u_h or exact callable counts as zero."""
    val = np.zeros(side.x.shape)
    grad = np.zeros(side.x.shape + (2,))
    if value_fn is not None:
        val += value_fn(t, side.x, side.y)
    if grad_fn is not None:
        gx, gy = grad_fn(t, side.x, side.y)
        grad[..., 0] += gx
        grad[..., 1] += gy
    if u_h is not None:
        coeffs = u_h[space.dofs[side.elem]]
        val -= np.einsum("eql,el->eq", side.phi, coeffs)
        grad -= np.einsum("eqli,el->eqi", side.gphi, coeffs)
    return val, grad


def _two_sided(ft, space, u_h, grad_fn, t):
    """Jump and average gradient of exact - u_h on two-sided faces.  The
    exact field has no jumps, so the jump is that of u_h and the exact
    gradient is evaluated once, on the plus side."""
    vp, gp = _trace(ft.plus, space, u_h, None, None, t)
    vm, gm = _trace(ft.minus, space, u_h, None, None, t)
    _, grad = _trace(ft.plus, space, None, None, grad_fn, t)
    return vp - vm, grad + 0.5 * (gp + gm)


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

    vol = _volume_tables(mesh, space, degree)
    grad_vol = np.zeros(vol.x.shape + (2,))
    if grad_fn is not None:
        gx, gy = grad_fn(t, vol.x, vol.y)
        grad_vol += np.stack([np.asarray(gx, float), np.asarray(gy, float)], axis=-1)
    if u_h is not None:
        dg = np.einsum("eqli,el->eqi", vol.gphi, u_h[space.dofs])
        grad_vol = grad_vol - dg if grad_fn is not None else dg
    terms["h1_broken"] = float(
        np.einsum("q,e,eqi,eqi->", vol.w, mesh.det_jacobians, grad_vol, grad_vol)
    )

    # interior and periodic edges: sigma |[w]|^2 + (1/sigma) |{grad w}|^2;
    # ridges, the faces of the surface mesh: beta sigma [w]^2 +
    # (beta/sigma) {d_t w}^2; Dirichlet edges and corners count w itself
    ft = _interior_face_tables(mesh, edges, space, degree)
    jump, avg = _two_sided(ft, space, u_h, grad_fn, t)
    jump2 = float(np.einsum("eq,eq->", ft.wl, jump**2))
    avg2 = float(np.einsum("eq,eqi,eqi->", ft.wl, avg, avg))
    ridges, corners = _ridge_tables(mesh, edges, space)
    jump_r, avg_r = _two_sided(ridges, space, u_h, grad_fn, t)
    rj2 = float((jump_r**2).sum())
    ra2 = float(((avg_r @ RIDGE_TANGENT) ** 2).sum())
    if edges.bc_mode == DIRICHLET_LATERAL:
        fd = _dirichlet_face_tables(mesh, edges, space, degree)
        vd, gd = _trace(fd.plus, space, u_h, value_fn, grad_fn, t)
        jump2 += float(np.einsum("eq,eq->", fd.wl, vd**2))
        avg2 += float(np.einsum("eq,eqi,eqi->", fd.wl, gd, gd))
        vc, gc = _trace(corners.plus, space, u_h, value_fn, grad_fn, t)
        rj2 += float((vc**2).sum())
        ra2 += float(((gc @ RIDGE_TANGENT) ** 2).sum())
    terms["jump_penalty"] = sigma * jump2
    terms["grad_average"] = avg2 / sigma

    # gamma1: alpha ||w||^2 + beta |w|_H1^2 along the boundary
    fg = _gamma1_face_tables(mesh, edges, space, degree)
    vg, gg = _trace(fg.plus, space, u_h, value_fn, grad_fn, t)
    terms["alpha_boundary"] = params.alpha * float(np.einsum("eq,eq->", fg.wl, vg**2))
    terms["beta_tangential"] = params.beta * float(np.einsum("eq,eq->", fg.wl, (gg @ RIDGE_TANGENT) ** 2))
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
    vol = _volume_tables(mesh, space, degree)
    diff = np.zeros_like(vol.x)
    if value_fn is not None:
        diff = diff + np.asarray(value_fn(t, vol.x, vol.y), float)
    if u_h is not None:
        dg = np.einsum("ql,el->eq", vol.phi, u_h[space.dofs])
        diff = diff - dg if value_fn is not None else dg
    l2_dom = math.sqrt(float(np.einsum("q,e,eq->", vol.w, mesh.det_jacobians, diff**2)))

    fg = _gamma1_face_tables(mesh, edges, space, degree)
    diffb, _ = _trace(fg.plus, space, u_h, value_fn, None, t)
    l2_g1 = math.sqrt(float(np.einsum("eq,eq->", fg.wl, diffb**2)))
    return l2_dom, l2_g1, math.sqrt(l2_dom**2 + lam * l2_g1**2)
