import dataclasses
from collections import Counter

import numpy as np
import pytest

from test_assembly import cell_entries, face_entries, jittered, nodal, per_entry_tables, point_sets

from dgdyn.assembly import (
    TANGENT,
    FormParams,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
)
from dgdyn.errors import ErrorRecord, energy_norm, energy_norm_terms, l2_errors, rate
from dgdyn.manufactured import example1, example3
from dgdyn.mesh import DIRICHLET_LATERAL, PERIODIC, build_structured_mesh, classify_edges
from dgdyn.space import DGSpace, conforming_p1_embedding
from dgdyn.timestepper import l2_lambda_project


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


@pytest.mark.parametrize("make_case, grad_calls, value_calls", [(example1, 4, 3), (example3, 6, 5)])
def test_energy_norm_exact_field_calls(make_case, grad_calls, value_calls):
    # exact fields have no jumps: on two-sided faces and ridges the norm
    # evaluates the exact gradient once, on the plus side, and no exact value.
    # Both cases' u and grad_u have one time node, whose exact part the
    # first call computes and keeps: the gradient on each point set, the
    # value on the one-sided ones and, for its projection, on the cells and
    # gamma1.  A later call at another time evaluates nothing
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


@pytest.mark.parametrize("make_case", [example1, example3])
def test_l2_errors_keep_no_snapshot(make_case):
    # a run measures its L2 errors once, at its final time: they evaluate the
    # case's u there and add no entry but point sets to what the space
    # keeps, before or after the energy norm has kept its own
    case = make_case()
    mesh, edges, space, params = setup(3, 1, bc=case.bc_mode)
    u_h = nodal(mesh, space, case.u, 0.5)

    def kept():
        return {key for key in space.kept if key[0] not in ("_sides", "_order")}

    l2_errors(mesh, edges, space, case.lam, u_h, case, t=0.5)
    assert point_sets(space) and not kept()
    energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=0.5)
    before = kept()
    assert before
    l2_errors(mesh, edges, space, case.lam, u_h, case, t=0.7)
    assert kept() == before


def test_l2_errors_of_interpolated_polynomial():
    mesh, edges, space, params = setup(2, 1)
    field = lambda t, x, y: 1.0 + 2.0 * x - y
    u_h = nodal(mesh, space, field)
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
    u_h = nodal(mesh, space, case.u, t=0.0)
    terms = energy_norm_terms(mesh, edges, space, params, u_h=u_h)
    assert terms["jump_penalty"] <= 1e-20
    assert terms["ridge_jump"] <= 1e-20


@pytest.mark.parametrize("level", [2, 4])
@pytest.mark.parametrize("p", [1, 2])
def test_operator_and_norm_share_their_terms(p, level):
    # a conforming function has no jumps on the edges or at the ridges, so
    # u' A_h u keeps only the Gram terms of the table, and they are the
    # norm's broken gradient, alpha boundary and tangential terms
    mesh, edges, space, params = setup(level, p)
    P = conforming_p1_embedding(space, edges)
    u = P @ np.random.default_rng(level).standard_normal(P.shape[1])
    terms = energy_norm_terms(mesh, edges, space, params, u_h=u)
    gram = terms["h1_broken"] + terms["alpha_boundary"] + terms["beta_tangential"]
    assert u @ (assemble_Ah(mesh, edges, space, params).tobsr() @ u) == pytest.approx(gram, rel=1e-12)
    assert terms["jump_penalty"] <= 1e-12 * gram
    assert terms["ridge_jump"] <= 1e-12 * gram


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
    u_h = nodal(mesh, space, field[0])
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
        u_h = nodal(mesh, space, case.u, t=0.0)
        norms.append(energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=0.0))
    slopes = [rate(a, b) for a, b in zip(norms, norms[1:])]
    assert (np.diff(norms) < 0).all()
    assert abs(slopes[-1] - 1.0) < 0.15


def test_l2_errors_refuse_nothing_to_measure():
    mesh, edges, space, params = setup(2, 1)
    with pytest.raises(ValueError, match="nothing to measure"):
        l2_errors(mesh, edges, space, 10.0, None, None)
    with pytest.raises(ValueError, match="nothing to measure"):
        energy_norm(mesh, edges, space, params)


@pytest.mark.parametrize("shape", ["longer", "shorter", "column"])
def test_norms_refuse_a_vector_that_is_not_one_coefficient_per_dof(shape):
    # a longer vector was once truncated to its first n_dofs entries
    mesh, edges, space, params = setup(2, 1)
    n = space.n_dofs
    u_h = {"longer": np.ones(n + 1), "shorter": np.ones(n - 1), "column": np.ones((n, 1))}[shape]
    with pytest.raises(ValueError, match=r"space\.n_dofs"):
        energy_norm(mesh, edges, space, params, u_h=u_h)
    with pytest.raises(ValueError, match=r"space\.n_dofs"):
        energy_norm(mesh, edges, space, params, u_h=u_h, exact=example1())
    with pytest.raises(ValueError, match=r"space\.n_dofs"):
        l2_errors(mesh, edges, space, 10.0, u_h, None)


# ---------------------------------------------------------------------------
# the class-run evaluator against one that treats every entry on its own


def per_entry_error(space, pts, u_h, exact, t, grad, at=None):
    """exact - u_h at the points of the batch ``pts`` (``cell_entries``, a
    side of ``face_entries``) from per-entry tables: values
    (nE, nq), or gradients (nE, nq, 2) if ``grad``; the exact field (plain
    callables, or None) is taken at the points of ``at``, by default ``pts``."""
    phi, dphi = per_entry_tables(space, pts)
    c = np.zeros((len(pts.elem), space.n_local)) if u_h is None else u_h[space.dofs[pts.elem]]
    at = at or pts
    if grad:
        out = -np.einsum("el,eqli->eqi", c, dphi)
        return out + np.stack(exact[1](t, at.x, at.y), axis=-1) if exact else out
    out = -np.einsum("el,eql->eq", c, phi)
    return out + exact[0](t, at.x, at.y) if exact else out


def per_entry_terms(mesh, edges, space, params, u_h, exact, t):
    """Every term of ``energy_norm_terms``, each side's error taken on its own
    entries and the exact gradient of two-sided faces on the first side,
    the points and weights of every cell and face from the mesh."""
    degree = 2 * space.p + 4

    def sq(w, a):
        return float(np.sum(w[..., None] * a * a) if a.ndim == 3 else np.sum(w * a * a))

    def face_terms(face_sets, tangential):
        jump2 = avg2 = 0.0
        for faces in face_sets:
            if faces is None:
                continue
            sides = face_entries(faces, degree)
            first, *others = sides
            value = exact if not others else None  # the exact value cancels in a jump
            jump = per_entry_error(space, first, u_h, value, t, False)
            avg = per_entry_error(space, first, u_h, exact, t, True)
            for side in others:
                jump -= per_entry_error(space, side, u_h, None, t, False)
                avg += per_entry_error(space, side, u_h, exact, t, True, at=first)
            avg /= len(sides)
            jump2 += sq(first.w, jump)
            avg2 += sq(first.w, avg @ TANGENT[:, 0] if tangential else avg)
        return jump2, avg2

    vol = cell_entries(mesh, degree)
    sigma, beta = params.sigma, params.beta
    jump2, avg2 = face_terms([edges.two_sided, edges.dirichlet], False)
    g2, gt2 = face_terms([edges.gamma1], True)
    rj2, ra2 = face_terms([edges.ridges, edges.corners], True)
    return {
        "h1_broken": sq(vol.w, per_entry_error(space, vol, u_h, exact, t, True)),
        "jump_penalty": sigma * jump2,
        "grad_average": avg2 / sigma,
        "alpha_boundary": params.alpha * g2,
        "beta_tangential": beta * gt2,
        "ridge_jump": beta * sigma * rj2,
        "ridge_average": beta / sigma * ra2,
    }


def per_entry_vector(space, pts, values):
    """The vector (values, v) over a point set, one entry per dof."""
    phi, _ = per_entry_tables(space, pts)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.dofs[pts.elem], np.einsum("eq,eql->el", pts.w * values, phi))
    return out


def close(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    return np.abs(value - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_class_runs_give_the_per_entry_norms_loads_and_projection_on_a_distorted_mesh(bc, p):
    mesh, edges, space = jittered(2, bc, p)
    case = example1() if bc == PERIODIC else example3()
    params = FormParams.for_mesh(mesh, alpha=case.alpha, beta=case.beta, lam=case.lam, gamma=10.0)
    degree, t = 2 * p + 4, 0.3
    plain = (case.u, case.grad_u)
    u_h = nodal(mesh, space, case.u, t) + 0.1 * np.random.default_rng(5).standard_normal(space.n_dofs)
    # every point set the norms, the loads and the projection use holds
    # almost one class per entry
    l2_lambda_project(mesh, space, edges, case.lam, case.u0)
    energy_norm_terms(mesh, edges, space, params, u_h=u_h)
    for sides in point_sets(space).values():
        cls, rep = sides[0].classes
        if len(rep) > 1:
            assert len(rep) >= 0.9 * len(cls)

    for u, exact in ((u_h, None), (None, plain), (u_h, plain)):
        got = energy_norm_terms(mesh, edges, space, params, u_h=u, exact=case if exact else None, t=t)
        want = per_entry_terms(mesh, edges, space, params, u, exact, t)
        assert close(list(got.values()), [want[name] for name in got]), (got, want)

    vol = cell_entries(mesh, degree)
    (g1,) = face_entries(edges.gamma1, degree)
    dom2, g12 = (np.sum(pts.w * per_entry_error(space, pts, u_h, plain, t, False) ** 2) for pts in (vol, g1))
    assert close(l2_errors(mesh, edges, space, case.lam, u_h, case, t=t), np.sqrt([dom2, g12, dom2 + case.lam * g12]))

    load = per_entry_vector(space, vol, case.f(t, vol.x, vol.y)) + per_entry_vector(space, g1, case.g(t, g1.x, g1.y))
    for f, g in ((case.f.fn, case.g.fn), (case.f, case.g)):  # plain, then separable
        assert close(assemble_load(mesh, edges, space, f, g, t), load)

    mass = np.zeros((space.n_dofs, space.n_dofs))
    for pts, weight in ((vol, 1.0), (g1, case.lam)):
        phi, _ = per_entry_tables(space, pts)
        dofs = space.dofs[pts.elem]
        np.add.at(mass, (dofs[:, :, None], dofs[:, None, :]), weight * np.einsum("eq,eql,eqm->elm", pts.w, phi, phi))
    rhs = per_entry_vector(space, vol, case.u0(vol.x, vol.y)) + case.lam * per_entry_vector(space, g1, case.u0(g1.x, g1.y))
    assert close(l2_lambda_project(mesh, space, edges, case.lam, case.u0), np.linalg.solve(mass, rhs))

    if bc == DIRICHLET_LATERAL:  # a wall datum's vector tests grad v . n as well; the case's is 0 on the walls
        u_D = lambda t, x, y: np.cos(3.0 * y) + x * t
        walls = np.zeros(space.n_dofs)
        for faces, weight in ((edges.dirichlet, 1.0), (edges.corners, params.beta)):
            (pts,) = face_entries(faces, degree)
            ud = u_D(t, pts.x, pts.y)
            _, dphi = per_entry_tables(space, pts)
            flux = np.zeros(space.n_dofs)
            np.add.at(flux, space.dofs[pts.elem], np.einsum("eq,eqli,ei->el", pts.w * ud, dphi, faces.normal))
            walls += weight * (params.sigma * per_entry_vector(space, pts, ud) - flux)
        assert close(assemble_dirichlet_terms(mesh, edges, space, params, u_D, t), walls)


@pytest.mark.parametrize("mesh_kind", ["structured", "jittered"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
@pytest.mark.parametrize("make_case", [example1, example3])
def test_split_energy_error_is_the_pointwise_one(make_case, bc, p, mesh_kind):
    # the norm splits exact - u_h into the exact field's part, kept per
    # space (energy_norm) or made at the call's time (energy_norm_terms),
    # and the discrete error delta on the degree-2p rule; the sum is the
    # error evaluated point by point at degree 2p + 4, for a u_h close to
    # the exact field as a run's is, whose exact part dominates
    case = make_case()
    if mesh_kind == "structured":
        mesh, edges, space, _ = setup(3, p, bc=bc)
    else:
        mesh, edges, space = jittered(3, bc, p)
    params = FormParams.for_mesh(mesh, alpha=case.alpha, beta=case.beta, lam=case.lam, gamma=10.0)
    rng = np.random.default_rng(p)
    plain = (case.u, case.grad_u)
    for t in (0.3, 0.7):  # the second call reads what the first kept
        u_h = nodal(mesh, space, case.u, t)
        u_h += 1e-3 * np.abs(u_h).max() * rng.standard_normal(space.n_dofs)
        want = per_entry_terms(mesh, edges, space, params, u_h, plain, t)
        got = energy_norm_terms(mesh, edges, space, params, u_h=u_h, exact=case, t=t)
        assert list(got) == list(want)
        for name in got:
            assert got[name] == pytest.approx(want[name], rel=1e-12, abs=0.0), name
        total = energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=t)
        assert total == pytest.approx(np.sqrt(sum(want.values())), rel=1e-12, abs=0.0)


def test_energy_norm_of_fields_without_shared_weights_keeps_nothing():
    # a value and a gradient declared with time weights that are not one
    # function take the plain path, one node at the call's time, and keep
    # no exact part; the norm is the one the case's shared weights give
    case = example1()
    decay = lambda t: (np.exp(-10.0 * t),)
    other = dataclasses.replace(case, grad_u=case.grad_u.fn, time_factors={**case.time_factors, "grad_u": ((0.0,), decay)})
    mesh, edges, space, params = setup(3, 1)
    u_h = nodal(mesh, space, case.u, 0.3)

    def kept():
        return [key for key in space.kept if key[0] == "energy"]

    plain = energy_norm(mesh, edges, space, params, u_h=u_h, exact=other, t=0.3)
    assert not kept()
    assert plain == pytest.approx(energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=0.3), rel=1e-12)
    assert len(kept()) == 1


def test_error_record_fields():
    rec = ErrorRecord(h=0.1, dt=1e-3, l2_domain=1.0, l2_gamma1=2.0, energy=3.0)
    assert rec.rate_l2_domain is None
    rec2 = ErrorRecord(h=0.05, dt=1e-3, l2_domain=0.25, l2_gamma1=0.5, energy=1.5, rate_l2_domain=2.0)
    assert rec2.rate_l2_domain == 2.0
