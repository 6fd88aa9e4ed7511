import dataclasses
from collections import Counter

import numpy as np
import pytest

from dgdyn.assembly import FormParams
from dgdyn.errors import ErrorRecord, energy_norm, energy_norm_terms, l2_errors, rate
from dgdyn.manufactured import example1, example3
from dgdyn.mesh import DIRICHLET_LATERAL, PERIODIC, build_structured_mesh, classify_edges
from dgdyn.space import DGSpace, interpolate


def setup(level, p, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0, bc=PERIODIC):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=alpha, beta=beta, lam=lam, gamma=gamma)
    return mesh, edges, space, params


def constant_field(c):
    return (
        lambda t, x, y: c * np.ones_like(x),
        lambda t, x, y: (np.zeros_like(x), np.zeros_like(x)),
    )


def test_rate_reference_table_values():
    assert round(rate(1.836048e-01, 5.455936e-02), 2) == 1.75
    assert round(rate(2.470397e-02, 3.027272e-03), 2) == 3.03
    assert round(rate(2.682138e-02, 1.487984e-02), 2) == 0.85
    assert rate(1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        rate(0.0, 1.0)
    with pytest.raises(ValueError):
        rate(1.0, -2.0)


def test_energy_norm_of_constant_exact_field():
    mesh, edges, space, params = setup(2, 1, alpha=2.0)
    for c in (1.0, 3.5):
        val = energy_norm(mesh, edges, space, params, exact=constant_field(c))
        # only the alpha boundary term survives: sqrt(alpha * c^2 * |gamma1|)
        assert np.isclose(val, c * np.sqrt(2.0 * params.alpha), rtol=1e-13)


@pytest.mark.parametrize("bc, n_corners", [(PERIODIC, 0), (DIRICHLET_LATERAL, 2)], ids=[PERIODIC, DIRICHLET_LATERAL])
def test_energy_norm_single_element_indicator(bc, n_corners):
    # level 0, p=1, w = 1 on the lower triangle: hand evaluation of every
    # term gives sigma * (sqrt(2) + 1) + alpha, plus beta * sigma for each
    # one-sided corner of its gamma1 edge; the periodic ridge joins that
    # edge to itself and has no jump
    mesh, edges, space, params = setup(0, 1, bc=bc)
    w = np.zeros(space.n_dofs)
    w[space.dofs[0]] = 1.0
    terms = energy_norm_terms(mesh, edges, space, params, u_h=w)
    sigma = params.sigma
    ridge_jump = n_corners * params.beta * sigma
    assert np.isclose(terms["h1_broken"], 0.0, atol=1e-14)
    assert np.isclose(terms["jump_penalty"], sigma * (np.sqrt(2.0) + 1.0), rtol=1e-13)
    assert np.isclose(terms["grad_average"], 0.0, atol=1e-14)
    assert np.isclose(terms["alpha_boundary"], params.alpha, rtol=1e-13)
    assert terms["beta_tangential"] == 0.0
    assert np.isclose(terms["ridge_jump"], ridge_jump, rtol=1e-13, atol=1e-14)
    assert np.isclose(terms["ridge_average"], 0.0, atol=1e-14)
    total = energy_norm(mesh, edges, space, params, u_h=w)
    assert np.isclose(total, np.sqrt(sigma * (np.sqrt(2.0) + 1.0) + params.alpha + ridge_jump), rtol=1e-13)


@pytest.mark.parametrize("make_case, grad_calls, value_calls", [(example1, 4, 1), (example3, 6, 3)])
def test_energy_norm_exact_field_calls(make_case, grad_calls, value_calls):
    # exact fields have no jumps: on two-sided faces and ridges the norm
    # evaluates the exact gradient once, on the plus side, and no exact value.
    # Both cases' u and grad_u have one time node, whose snapshots the point
    # sets keep: a later call at another time evaluates nothing
    case = make_case()
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    case = dataclasses.replace(case, u=counted("u", case.u), grad_u=counted("grad_u", case.grad_u))
    mesh, edges, space, params = setup(3, 1, bc=case.bc_mode)
    energy_norm(mesh, edges, space, params, u_h=np.zeros(space.n_dofs), exact=case, t=0.1)
    assert (calls["grad_u"], calls["u"]) == (grad_calls, value_calls)
    energy_norm(mesh, edges, space, params, u_h=np.zeros(space.n_dofs), exact=case, t=0.3)
    assert (calls["grad_u"], calls["u"]) == (grad_calls, value_calls)


def test_l2_errors_of_interpolated_polynomial():
    mesh, edges, space, params = setup(2, 1)
    field = lambda t, x, y: 1.0 + 2.0 * x - y
    u_h = interpolate(mesh, space, field)
    dom, g1, lamn = l2_errors(mesh, edges, space, 10.0, u_h, field)
    assert dom <= 1e-12 and g1 <= 1e-12 and lamn <= 1e-11


def test_l2_errors_of_measures():
    mesh, edges, space, _ = setup(2, 1)
    one = lambda t, x, y: np.ones_like(x)
    lam = 10.0
    dom, g1, lamn = l2_errors(mesh, edges, space, lam, None, one)
    assert np.isclose(dom, 1.0, rtol=1e-13)
    assert np.isclose(g1, np.sqrt(2.0), rtol=1e-13)
    assert np.isclose(lamn, np.sqrt(1.0 + 2.0 * lam), rtol=1e-13)
    dom0, _, lamn0 = l2_errors(mesh, edges, space, 0.0, None, one)
    assert lamn0 == dom0


def test_norm_homogeneity():
    mesh, edges, space, params = setup(2, 1)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(space.n_dofs)
    c = -2.75
    assert np.isclose(
        energy_norm(mesh, edges, space, params, u_h=c * w),
        abs(c) * energy_norm(mesh, edges, space, params, u_h=w),
        rtol=1e-12,
    )
    lam = 4.0
    d1 = l2_errors(mesh, edges, space, lam, c * w, None)
    d0 = l2_errors(mesh, edges, space, lam, w, None)
    assert np.allclose(np.array(d1), abs(c) * np.array(d0), rtol=1e-12)


def test_energy_norm_triangle_inequality():
    mesh, edges, space, params = setup(2, 2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = rng.standard_normal(space.n_dofs)
        v = rng.standard_normal(space.n_dofs)
        nu = energy_norm(mesh, edges, space, params, u_h=u)
        nv = energy_norm(mesh, edges, space, params, u_h=v)
        nuv = energy_norm(mesh, edges, space, params, u_h=u + v)
        assert nuv <= nu + nv + 1e-12


def test_continuous_periodic_interpolant_has_no_jumps():
    # the p=1 interpolant of a smooth 1-periodic function is globally
    # continuous including across the periodic seam and at fused ridges
    mesh, edges, space, params = setup(3, 1)
    case = example1()
    u_h = interpolate(mesh, space, case.u, t=0.0)
    terms = energy_norm_terms(mesh, edges, space, params, u_h=u_h)
    assert terms["jump_penalty"] <= 1e-20
    assert terms["ridge_jump"] <= 1e-20


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_linear_field_on_distorted_mesh(bc, p):
    # interior vertices moved by up to 0.2 / N, the boundary fixed, so every
    # triangle has its own shape; the interpolant reproduces a linear field
    # (periodic in x in periodic mode), so every term of the difference
    # vanishes, and its broken H1 seminorm is |grad|^2 times the area
    mesh = build_structured_mesh(2)
    v = mesh.vertices
    inside = ((v > 0.0) & (v < 1.0)).all(axis=1)
    jitter = np.random.default_rng(11).uniform(-0.2, 0.2, v.shape) / mesh.n_cells_per_side
    mesh = dataclasses.replace(mesh, vertices=v + jitter * inside[:, None])
    edges = classify_edges(mesh, bc)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0)
    a, b = (0.0 if bc == PERIODIC else 0.6), -1.3
    field = (lambda t, x, y: a * x + b * y, lambda t, x, y: (np.full_like(x, a), np.full_like(x, b)))
    u_h = interpolate(mesh, space, field[0])
    terms = energy_norm_terms(mesh, edges, space, params, u_h=u_h, exact=field)
    assert max(terms.values()) <= 1e-25, terms
    h1 = energy_norm_terms(mesh, edges, space, params, u_h=u_h)["h1_broken"]
    assert h1 == pytest.approx(a * a + b * b, rel=1e-13)  # the unit square has area 1


def test_interpolant_energy_error_rate_p1():
    # the oscillatory datum is barely resolved at level 2, so the first pair
    # is preasymptotic; the converged rate (last pair) is the one to pin
    case = example1()
    norms = []
    for level in range(2, 6):
        mesh, edges, space, params = setup(level, 1)
        u_h = interpolate(mesh, space, case.u, t=0.0)
        norms.append(energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=0.0))
    slopes = [rate(a, b) for a, b in zip(norms, norms[1:])]
    assert (np.diff(norms) < 0).all()
    assert abs(slopes[-1] - 1.0) < 0.15


def test_error_record_fields():
    rec = ErrorRecord(h=0.1, dt=1e-3, l2_domain=1.0, l2_gamma1=2.0, energy=3.0)
    assert rec.rate_l2_domain is None
    rec2 = ErrorRecord(h=0.05, dt=1e-3, l2_domain=0.25, l2_gamma1=0.5, energy=1.5, rate_l2_domain=2.0)
    assert rec2.rate_l2_domain == 2.0
