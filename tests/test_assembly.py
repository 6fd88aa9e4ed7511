import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dgdyn.assembly import (
    FormParams,
    assemble_Ah,
    assemble_Bh,
    assemble_bh,
    assemble_boundary_mass,
    assemble_dirichlet_terms,
    assemble_domain_mass,
    assemble_load,
    assemble_mass,
)
from dgdyn.errors import energy_norm_terms
from dgdyn.manufactured import get_case
from dgdyn.mesh import DIRICHLET_LATERAL, PERIODIC, build_structured_mesh, classify_edges
from dgdyn.space import DGSpace, interpolate
from dgdyn.timestepper import cg_matrix


def setup(level, p, bc=PERIODIC, gamma=10.0, alpha=2.0, beta=5.0, lam=10.0, penalty_mode="gamma_over_h"):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=alpha, beta=beta, lam=lam, gamma=gamma, penalty_mode=penalty_mode)
    return mesh, edges, space, params


# ---------------------------------------------------------------------------
# brute-force oracle for the level-0 periodic mesh, p=1
#
# Everything below is hand-coded: per-triangle linear shape functions from a
# plane fit, tensor Gauss integration, explicit edge and ridge enumeration.
# It shares no code path with dgdyn.assembly.

TRI_L = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])  # lower triangle, elem 0
TRI_U = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])  # upper triangle, elem 1

GL_PTS, GL_WTS = np.polynomial.legendre.leggauss(8)
GL_PTS = 0.5 * (GL_PTS + 1.0)
GL_WTS = 0.5 * GL_WTS


def plane_basis(tri):
    V = np.array([[1.0, x, y] for x, y in tri])
    C = np.linalg.inv(V)

    def value(i, x, y):
        return C[0, i] + C[1, i] * x + C[2, i] * y

    def grad(i):
        return np.array([C[1, i], C[2, i]])

    return value, grad


VAL_L, GRAD_L = plane_basis(TRI_L)
VAL_U, GRAD_U = plane_basis(TRI_U)
VALUES = (VAL_L, VAL_U)
GRADS = (GRAD_L, GRAD_U)


def tri_integral(tri, f):
    """Duffy-mapped tensor Gauss integration of f(x, y) over the triangle."""
    p0, p1, p2 = tri
    total = 0.0
    for u, wu in zip(GL_PTS, GL_WTS):
        for v, wv in zip(GL_PTS, GL_WTS):
            r, s = u, v * (1.0 - u)
            x = p0 + r * (p1 - p0) + s * (p2 - p0)
            e1, e2 = p1 - p0, p2 - p0
            jac = abs(e1[0] * e2[1] - e1[1] * e2[0]) * (1.0 - u)
            total += wu * wv * jac * f(x[0], x[1])
    return total


def edge_integral(a, b, f):
    a, b = np.asarray(a, float), np.asarray(b, float)
    length = np.linalg.norm(b - a)
    return sum(w * length * f(*(a + s * (b - a))) for s, w in zip(GL_PTS, GL_WTS))


def oracle_operators(gamma, alpha, beta):
    """All level-0 periodic p=1 operators, entry by entry from the form
    definitions.  Returns a dict of dense 6x6 arrays."""
    sigma = gamma / np.sqrt(2.0)
    n_dofs = 6

    def dof(elem, i):
        return 3 * elem + i

    B = np.zeros((n_dofs, n_dofs))
    for elem, tri in ((0, TRI_L), (1, TRI_U)):
        area = 0.5
        for i in range(3):
            for j in range(3):
                B[dof(elem, i), dof(elem, j)] += area * GRADS[elem](i) @ GRADS[elem](j)

    # two-sided edges: (endpoints on plus side, plus elem, minus elem,
    # normal from plus to minus, shift mapping plus points to minus points)
    two_sided = [
        ((0.0, 0.0), (1.0, 1.0), 0, 1, np.array([-1.0, 1.0]) / np.sqrt(2.0), np.zeros(2)),  # diagonal
        ((1.0, 0.0), (1.0, 1.0), 0, 1, np.array([1.0, 0.0]), np.array([-1.0, 0.0])),  # periodic pair
    ]
    for a, b, ep, em, n, shift in two_sided:
        for i in range(3):
            for j in range(3):
                for sa, ea in ((1.0, ep), (-1.0, em)):
                    for sb, eb in ((1.0, ep), (-1.0, em)):

                        def integrand(x, y, i=i, j=j, sa=sa, sb=sb, ea=ea, eb=eb):
                            xa, ya = (x, y) if ea == ep else (x + shift[0], y + shift[1])
                            xb, yb = (x, y) if eb == ep else (x + shift[0], y + shift[1])
                            va = VALUES[ea](i, xa, ya)
                            vb = VALUES[eb](j, xb, yb)
                            gna = GRADS[ea](i) @ n
                            gnb = GRADS[eb](j) @ n
                            return -0.5 * sa * va * gnb - 0.5 * sb * vb * gna + sigma * sa * sb * va * vb

                        B[dof(ea, i), dof(eb, j)] += edge_integral(a, b, integrand)

    C = np.zeros((n_dofs, n_dofs))
    gamma1 = [((0.0, 0.0), (1.0, 0.0), 0), ((0.0, 1.0), (1.0, 1.0), 1)]
    for a, b, elem in gamma1:
        for i in range(3):
            for j in range(3):
                C[dof(elem, i), dof(elem, j)] += edge_integral(
                    a, b, lambda x, y, i=i, j=j: VALUES[elem](i, x, y) * VALUES[elem](j, x, y)
                )

    bh = np.zeros((n_dofs, n_dofs))
    for a, b, elem in gamma1:
        for i in range(3):
            for j in range(3):
                bh[dof(elem, i), dof(elem, j)] += edge_integral(
                    a, b, lambda x, y, i=i, j=j: GRADS[elem](i)[0] * GRADS[elem](j)[0]
                )
    # fused periodic ridges: both slots live on the single gamma1 edge of the
    # component; plus slot at x=1 (tangent +1), minus slot at x=0 (tangent -1)
    ridges = [
        (0, (1.0, 0.0), 1.0, 0, (0.0, 0.0), -1.0),
        (1, (1.0, 1.0), 1.0, 1, (0.0, 1.0), -1.0),
    ]
    for ep, pp, sp_, em, pm, sm in ridges:
        slots = ((ep, pp, sp_), (em, pm, sm))
        for ea, pa, sa in slots:
            for eb, pb, sb in slots:
                for i in range(3):
                    for j in range(3):
                        va = VALUES[ea](i, *pa)
                        vb = VALUES[eb](j, *pb)
                        da = GRADS[ea](i)[0]
                        db = GRADS[eb](j)[0]
                        bh[dof(ea, i), dof(eb, j)] += (
                            -0.5 * sa * va * db - 0.5 * sb * vb * da + sigma * sa * sb * va * vb
                        )

    M = np.zeros((n_dofs, n_dofs))
    for elem, tri in ((0, TRI_L), (1, TRI_U)):
        for i in range(3):
            for j in range(3):
                M[dof(elem, i), dof(elem, j)] += tri_integral(
                    tri, lambda x, y, i=i, j=j: VALUES[elem](i, x, y) * VALUES[elem](j, x, y)
                )

    return {"B": B, "C": C, "b": bh, "M": M, "A": B + alpha * C + beta * bh}


def oracle_dirichlet(gamma, beta, u_D):
    """Level-0 dirichlet_lateral delta matrix and datum right-hand side."""
    sigma = gamma / np.sqrt(2.0)
    delta = np.zeros((6, 6))
    rhs = np.zeros(6)
    lateral = [((1.0, 0.0), (1.0, 1.0), 0, np.array([1.0, 0.0])), ((0.0, 0.0), (0.0, 1.0), 1, np.array([-1.0, 0.0]))]
    for a, b, elem, n in lateral:
        for i in range(3):
            gni = GRADS[elem](i) @ n
            for j in range(3):
                gnj = GRADS[elem](j) @ n

                def integrand(x, y, i=i, j=j, gni=gni, gnj=gnj):
                    vi = VALUES[elem](i, x, y)
                    vj = VALUES[elem](j, x, y)
                    return -vi * gnj - vj * gni + sigma * vi * vj

                delta[3 * elem + i, 3 * elem + j] += edge_integral(a, b, integrand)
            rhs[3 * elem + i] += edge_integral(
                a, b, lambda x, y, i=i, gni=gni: u_D(x, y) * (sigma * VALUES[elem](i, x, y) - gni)
            )
    corners = [
        (0, (1.0, 0.0), 1.0),
        (0, (0.0, 0.0), -1.0),
        (1, (1.0, 1.0), 1.0),
        (1, (0.0, 1.0), -1.0),
    ]
    for elem, pt, s in corners:
        for i in range(3):
            vi = VALUES[elem](i, *pt)
            di = GRADS[elem](i)[0]
            for j in range(3):
                vj = VALUES[elem](j, *pt)
                dj = GRADS[elem](j)[0]
                delta[3 * elem + i, 3 * elem + j] += beta * (-s * vi * dj - s * vj * di + sigma * vi * vj)
            rhs[3 * elem + i] += beta * u_D(*pt) * (sigma * vi - s * di)
    return delta, rhs


# ---------------------------------------------------------------------------


def test_form_params():
    mesh = build_structured_mesh(3)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0)
    assert params.sigma == 10.0 / mesh.h
    fixed = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0, penalty_mode="fixed_sigma")
    assert fixed.sigma == 10.0
    with pytest.raises(ValueError):
        FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=-1.0)
    with pytest.raises(ValueError):
        FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0, penalty_mode="bogus")


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_constants_in_kernel(p, bc):
    mesh, edges, space, params = setup(2, p, bc)
    ones = np.ones(space.n_dofs)
    B = assemble_Bh(mesh, edges, space, params)
    b = assemble_bh(mesh, edges, space, params)
    scale_B = np.abs(B.data).max()
    scale_b = np.abs(b.data).max()
    assert np.abs(B @ ones).max() <= 1e-12 * scale_B
    assert np.abs(b @ ones).max() <= 1e-12 * scale_b


def both_bc(*cases):
    """Parameter tuples ``cases`` with each bc mode appended; periodic cases
    keep the plain id, Dirichlet ones add '-dirichlet_lateral'."""
    return [
        pytest.param(*case, bc, id="-".join(map(str, case + (() if bc == PERIODIC else (bc,)))))
        for bc in (PERIODIC, DIRICHLET_LATERAL)
        for case in cases
    ]


@pytest.mark.parametrize("p, bc", both_bc((1,), (2,)))
def test_matrices_symmetric(p, bc):
    mesh, edges, space, params = setup(2, p, bc)
    for A in (
        assemble_Bh(mesh, edges, space, params),
        assemble_bh(mesh, edges, space, params),
        assemble_boundary_mass(mesh, edges, space),
        assemble_Ah(mesh, edges, space, params),
    ):
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() <= 1e-12 * max(np.abs(A.data).max(), 1.0)


def test_bh_couples_only_gamma1_elements():
    mesh, edges, space, params = setup(2, 1)
    b = assemble_bh(mesh, edges, space, params).tocsr()
    touching = set(edges.gamma1.elem.ravel().tolist())
    rows = np.repeat(np.arange(space.n_dofs), np.diff(b.indptr))
    nz_rows = rows[b.data != 0]
    assert set((nz_rows // space.n_local).tolist()) <= touching


def test_mass_totals():
    mesh, edges, space, _ = setup(2, 1)
    ones = np.ones(space.n_dofs)
    C = assemble_boundary_mass(mesh, edges, space)
    assert np.isclose(ones @ (C @ ones), 2.0, rtol=1e-12)
    M = assemble_mass(mesh, edges, space, lam=10.0)
    assert np.isclose(ones @ (M @ ones), 21.0, rtol=1e-12)


def test_domain_mass_block_diagonal():
    mesh, edges, space, _ = setup(2, 2)
    M = assemble_domain_mass(mesh, space).tocoo()
    assert np.array_equal(M.row // space.n_local, M.col // space.n_local)


def test_Ah_degenerate_parameters():
    mesh, edges, space, _ = setup(1, 1)
    params0 = FormParams.for_mesh(mesh, alpha=0.0, beta=0.0, lam=0.0, gamma=10.0)
    A = assemble_Ah(mesh, edges, space, params0)
    B = assemble_Bh(mesh, edges, space, params0)
    assert np.allclose(A.toarray(), B.toarray(), atol=1e-14)


def test_Ah_constants_leave_only_boundary_mass():
    mesh, edges, space, params = setup(2, 1)
    ones = np.ones(space.n_dofs)
    A = assemble_Ah(mesh, edges, space, params)
    C = assemble_boundary_mass(mesh, edges, space)
    assert np.allclose(A @ ones, params.alpha * (C @ ones), atol=1e-11)


@pytest.mark.parametrize("level, p, bc", both_bc(*[(level, p) for level in (0, 1, 2) for p in (1, 2)]))
def test_Ah_positive_definite_dense(level, p, bc):
    mesh, edges, space, params = setup(level, p, bc)
    A = assemble_Ah(mesh, edges, space, params).toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() > 0


def test_Ah_random_quadratic_form_positive():
    mesh, edges, space, params = setup(3, 1)
    A = assemble_Ah(mesh, edges, space, params)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(space.n_dofs)
        assert v @ (A @ v) > 0


def test_load_totals():
    mesh, edges, space, _ = setup(2, 1)
    ones = np.ones(space.n_dofs)
    load_f = assemble_load(mesh, edges, space, lambda t, x, y: np.ones_like(x), None)
    assert np.isclose(ones @ load_f, 1.0, rtol=1e-12)
    load_g = assemble_load(mesh, edges, space, None, lambda t, x, y: np.ones_like(x))
    assert np.isclose(ones @ load_g, 2.0, rtol=1e-12)
    assert not assemble_load(mesh, edges, space, None, None).any()


def test_brute_force_oracle_level0():
    mesh, edges, space, params = setup(0, 1, gamma=10.0, alpha=2.0, beta=5.0)
    oracle = oracle_operators(gamma=10.0, alpha=2.0, beta=5.0)
    computed = {
        "B": assemble_Bh(mesh, edges, space, params),
        "C": assemble_boundary_mass(mesh, edges, space),
        "b": assemble_bh(mesh, edges, space, params),
        "M": assemble_domain_mass(mesh, space),
        "A": assemble_Ah(mesh, edges, space, params),
    }
    for name, A in computed.items():
        assert np.abs(A.toarray() - oracle[name]).max() < 1e-10, name


def test_brute_force_oracle_level0_dirichlet():
    mesh, edges, space, params = setup(0, 1, bc=DIRICHLET_LATERAL, gamma=10.0, beta=5.0)
    u_D = lambda x, y: x + 2.0 * y
    A = assemble_Ah(mesh, edges, space, params)
    without_walls = (
        assemble_Bh(mesh, edges, space, params)
        + params.alpha * assemble_boundary_mass(mesh, edges, space)
        + params.beta * assemble_bh(mesh, edges, space, params)
    )
    rhs = assemble_dirichlet_terms(mesh, edges, space, params, lambda t, x, y: u_D(x, y))
    odelta, orhs = oracle_dirichlet(gamma=10.0, beta=5.0, u_D=u_D)
    assert np.abs((A - without_walls).toarray() - odelta).max() < 1e-10
    assert np.abs(rhs - orhs).max() < 1e-10


def test_dirichlet_terms_contract():
    mesh, edges, space, params = setup(2, 1, bc=DIRICHLET_LATERAL)
    assert not assemble_dirichlet_terms(mesh, edges, space, params, lambda t, x, y: np.zeros_like(x)).any()
    _, edges_per, _, _ = setup(2, 1, bc=PERIODIC)
    with pytest.raises(ValueError):
        assemble_dirichlet_terms(mesh, edges_per, space, params, lambda t, x, y: x)


# Beyond level 0, where Dirichlet mode has no interior ridge: an interpolant
# continuous along gamma1 has no jump at any ridge, so every ridge term
# vanishes and v' b_h v is its tangential seminorm on gamma1 (both
# components).  The Dirichlet corners are not part of b_h.
SURFACE_SEMINORMS = [
    (DIRICHLET_LATERAL, 1, lambda t, x, y: x, 2.0),
    (DIRICHLET_LATERAL, 2, lambda t, x, y: x**2 + y, 8.0 / 3.0),
    (PERIODIC, 2, lambda t, x, y: x * (1.0 - x) + y, 2.0 / 3.0),
]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("bc, p, u, seminorm", SURFACE_SEMINORMS, ids=["dirichlet-p1", "dirichlet-p2", "periodic-p2"])
def test_bh_continuous_interpolant_is_tangential_seminorm(level, bc, p, u, seminorm):
    mesh, edges, space, params = setup(level, p, bc)
    v = interpolate(mesh, space, u)
    b = assemble_bh(mesh, edges, space, params)
    assert v @ (b @ v) == pytest.approx(seminorm, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_bh_fused_periodic_corner_by_hand(level, p):
    # v = x jumps by 1 across the fused corner of each component (1 on the
    # plus side at x = 1, 0 on the minus side at x = 0) with d_t v = 1, so
    # each corner adds sigma - 2 to the tangential seminorm 2: 2 sigma - 2
    mesh, edges, space, params = setup(level, p)
    v = interpolate(mesh, space, lambda t, x, y: x)
    b = assemble_bh(mesh, edges, space, params)
    assert v @ (b @ v) == pytest.approx(2.0 * params.sigma - 2.0, rel=1e-12)


def test_level0_volume_gradients_by_hand():
    # lower triangle (0,0),(1,0),(1,1): the vertex-0 basis is 1 - x, so its
    # broken H1 seminorm squared is |grad|^2 * area = 1 * 1/2
    from dgdyn.errors import energy_norm_terms

    mesh, edges, space, params = setup(0, 1)
    e0 = np.zeros(space.n_dofs)
    e0[space.dofs[0, 0]] = 1.0
    terms = energy_norm_terms(mesh, edges, space, params, u_h=e0)
    assert np.isclose(terms["h1_broken"], 0.5, rtol=1e-14)


def test_coercivity_surrogate_monotone_in_gamma():
    # v' A v >= c |||v|||^2 with c > 0, growing with the penalty parameter
    from dgdyn.errors import energy_norm

    rng = np.random.default_rng(17)
    mesh, edges, space, _ = setup(2, 1)
    samples = [rng.standard_normal(space.n_dofs) for _ in range(40)]
    c_of_gamma = []
    for gamma in (10.0, 20.0, 40.0):
        params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=gamma)
        A = assemble_Ah(mesh, edges, space, params)
        c = min(
            (v @ (A @ v)) / energy_norm(mesh, edges, space, params, u_h=v) ** 2 for v in samples
        )
        c_of_gamma.append(c)
    assert c_of_gamma[0] > 0.5
    assert c_of_gamma[0] < c_of_gamma[1] < c_of_gamma[2]


def test_continuity_surrogate_stable_across_levels():
    # |v' A w| <= C |||v||| |||w||| with C bounded and stable under refinement
    from dgdyn.errors import energy_norm

    rng = np.random.default_rng(23)
    C_of_level = []
    for level in (2, 3):
        mesh, edges, space, params = setup(level, 1)
        A = assemble_Ah(mesh, edges, space, params)
        C = 0.0
        for _ in range(40):
            v = rng.standard_normal(space.n_dofs)
            w = rng.standard_normal(space.n_dofs)
            nv = energy_norm(mesh, edges, space, params, u_h=v)
            nw = energy_norm(mesh, edges, space, params, u_h=w)
            C = max(C, abs(v @ (A @ w)) / (nv * nw))
        C_of_level.append(C)
    assert all(C <= 1.5 for C in C_of_level)
    assert C_of_level[1] <= 1.5 * C_of_level[0]


def test_csr_structure_invariants():
    # the operators are canonical block matrices (one block per element
    # pair), and the matrix CG multiplies is canonical CSR
    mesh, edges, space, params = setup(2, 1)
    A = assemble_Ah(mesh, edges, space, params)
    assert A.format == "bsr" and A.blocksize == (space.n_local,) * 2
    S = cg_matrix(assemble_mass(mesh, edges, space, params.lam) + 1e-3 * A)
    assert S.format == "csr" and (S.data != 0).all()
    for X in (A, S):
        assert X.has_sorted_indices
        for r in range(len(X.indptr) - 1):
            idx = X.indices[X.indptr[r] : X.indptr[r + 1]]
            assert (np.diff(idx) > 0).all()


def test_assembly_memory_proportional_to_output():
    # blocks are keyed per element pair, so no index is held per matrix
    # entry: the peak stays a small multiple of the CSR that is returned
    mesh, edges, space, params = setup(5, 2)
    assemble_Bh(mesh, edges, space, params)  # builds and caches the point tables
    tracemalloc.start()
    try:
        B = assemble_Bh(mesh, edges, space, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


def with_given_normals(edges):
    """The classification with the normals that enter the operators and
    the norm set as they were given before every edge normal came from the
    one orientation rule: (1, 0) on the periodic pairs, (-1, 0) and (1, 0)
    on the left and right walls."""
    two_sided = replace(edges.two_sided, normal=edges.two_sided.normal.copy())
    two_sided.normal[np.any(two_sided.shift != 0.0, axis=1)] = [1.0, 0.0]
    dirichlet = edges.dirichlet
    if dirichlet is not None:
        dirichlet = replace(dirichlet, normal=np.repeat([[-1.0, 0.0], [1.0, 0.0]], len(dirichlet) // 2, axis=0))
    return replace(edges, two_sided=two_sided, dirichlet=dirichlet)


def same_bits(a, b):
    """Equal sparse structure and bit-identical values."""
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip((a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data))
    )


@pytest.mark.parametrize("penalty_mode", ["gamma_over_h", "fixed_sigma"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc, case", [(PERIODIC, "example1"), (DIRICHLET_LATERAL, "example3")])
def test_computed_normals_give_the_operators_and_norms_of_given_ones(bc, case, p, penalty_mode):
    # A_h, M and every energy-norm term are bitwise those of the exact
    # normals, so computing the normals changes no operator and no norm
    for level in range(4):
        mesh, edges, space, params = setup(level, p, bc, penalty_mode=penalty_mode)
        given = with_given_normals(edges)
        assert same_bits(assemble_Ah(mesh, edges, space, params), assemble_Ah(mesh, given, space, params))
        assert same_bits(assemble_mass(mesh, edges, space, 10.0), assemble_mass(mesh, given, space, 10.0))
        u = np.random.default_rng(level).standard_normal(space.n_dofs)
        for exact in (None, get_case(case)):
            terms = [energy_norm_terms(mesh, e, space, params, u_h=u, exact=exact, t=0.3) for e in (edges, given)]
            assert [v.hex() for v in terms[0].values()] == [v.hex() for v in terms[1].values()]
