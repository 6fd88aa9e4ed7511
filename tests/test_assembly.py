import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import dgdyn.assembly
from dgdyn.assembly import (
    TANGENT,
    BlockDiagonal,
    FormParams,
    _bsr,
    _gram_blocks,
    _penalty_blocks,
    _row_types,
    _sides,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
    assemble_mass,
    mass_terms,
    release_tables,
    stiffness_terms,
)
from dgdyn.errors import energy_norm_terms
from dgdyn.manufactured import get_case
from dgdyn.mesh import DIRICHLET_LATERAL, PERIODIC, build_structured_mesh, classify_edges
from dgdyn.space import DGSpace, edge_quadrature, triangle_quadrature
from dgdyn.timestepper import l2_lambda_project


def setup(level, p, bc=PERIODIC, gamma=10.0, alpha=2.0, beta=5.0, lam=10.0, penalty_mode="gamma_over_h"):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=alpha, beta=beta, lam=lam, gamma=gamma, penalty_mode=penalty_mode)
    return mesh, edges, space, params


def nodal(mesh, space, u, t=0.0):
    """The DG vector of the field u(t, x, y) whose entries are its values at
    the physical images of the reference nodes: its piecewise Lagrange
    interpolant."""
    X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, space.basis.nodes)
    return np.asarray(u(t, X[..., 0], X[..., 1]), dtype=float).reshape(-1)


def operator(mesh, space, terms):
    """The matrix of ``terms`` of the term table on their own."""
    return _bsr(space, [block for term in terms for block in term.blocks(mesh, space)]).tobsr()


def form(name, mesh, edges, space, params):
    """One form's matrix on its own, from its terms in the table of A_h,
    with unit alpha and beta, or of M: the bulk form B (broken gradients
    and the two-sided edges), the boundary mass C, the surface form b
    (tangential stiffness and the ridges) or the domain mass M."""
    stiffness = stiffness_terms(edges, replace(params, alpha=1.0, beta=1.0))
    first_names = ["h1_broken", "jump_penalty", "alpha_boundary", "beta_tangential", "ridge_jump"]
    assert [term.names[0] for term in stiffness[:5]] == first_names
    terms = {"B": stiffness[0:2], "C": stiffness[2:3], "b": stiffness[3:5], "M": mass_terms(edges, 1.0)[0:1]}[name]
    return operator(mesh, space, terms)


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
    B = form("B", mesh, edges, space, params)
    b = form("b", mesh, edges, space, params)
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
    for A in (*(form(name, mesh, edges, space, params) for name in "BbC"), assemble_Ah(mesh, edges, space, params).tobsr()):
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() <= 1e-12 * max(np.abs(A.data).max(), 1.0)


def test_bh_couples_only_gamma1_elements():
    mesh, edges, space, params = setup(2, 1)
    b = form("b", mesh, edges, space, params).tocsr()
    touching = set(edges.gamma1.elem.ravel().tolist())
    rows = np.repeat(np.arange(space.n_dofs), np.diff(b.indptr))
    nz_rows = rows[b.data != 0]
    assert set((nz_rows // space.n_local).tolist()) <= touching


def test_mass_totals():
    mesh, edges, space, params = setup(2, 1)
    ones = np.ones(space.n_dofs)
    C = form("C", mesh, edges, space, params)
    assert np.isclose(ones @ (C @ ones), 2.0, rtol=1e-12)
    M = assemble_mass(mesh, edges, space, lam=10.0).tobsr()
    assert np.isclose(ones @ (M @ ones), 21.0, rtol=1e-12)


def test_domain_mass_block_diagonal():
    mesh, edges, space, params = setup(2, 2)
    M = form("M", mesh, edges, space, params).tocoo()
    assert np.array_equal(M.row // space.n_local, M.col // space.n_local)


def test_Ah_degenerate_parameters():
    mesh, edges, space, _ = setup(1, 1)
    params0 = FormParams.for_mesh(mesh, alpha=0.0, beta=0.0, lam=0.0, gamma=10.0)
    A = assemble_Ah(mesh, edges, space, params0).tobsr()
    B = form("B", mesh, edges, space, params0)
    assert np.allclose(A.toarray(), B.toarray(), atol=1e-14)


def test_Ah_constants_leave_only_boundary_mass():
    mesh, edges, space, params = setup(2, 1)
    ones = np.ones(space.n_dofs)
    A = assemble_Ah(mesh, edges, space, params).tobsr()
    C = form("C", mesh, edges, space, params)
    assert np.allclose(A @ ones, params.alpha * (C @ ones), atol=1e-11)


@pytest.mark.parametrize("level, p, bc", both_bc(*[(level, p) for level in (0, 1, 2) for p in (1, 2)]))
def test_Ah_positive_definite_dense(level, p, bc):
    mesh, edges, space, params = setup(level, p, bc)
    A = assemble_Ah(mesh, edges, space, params).tobsr().toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() > 0


def test_Ah_random_quadratic_form_positive():
    mesh, edges, space, params = setup(3, 1)
    A = assemble_Ah(mesh, edges, space, params).tobsr()
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
    computed = {name: form(name, mesh, edges, space, params) for name in "BCbM"}
    computed["A"] = assemble_Ah(mesh, edges, space, params).tobsr()
    for name, A in computed.items():
        assert np.abs(A.toarray() - oracle[name]).max() < 1e-10, name


def test_brute_force_oracle_level0_dirichlet():
    mesh, edges, space, params = setup(0, 1, bc=DIRICHLET_LATERAL, gamma=10.0, beta=5.0)
    u_D = lambda x, y: x + 2.0 * y
    A = assemble_Ah(mesh, edges, space, params).tobsr()
    without_walls = (
        form("B", mesh, edges, space, params)
        + params.alpha * form("C", mesh, edges, space, params)
        + params.beta * form("b", mesh, edges, space, params)
    )
    rhs = assemble_dirichlet_terms(mesh, edges, space, params, lambda t, x, y: u_D(x, y))
    odelta, orhs = oracle_dirichlet(gamma=10.0, beta=5.0, u_D=u_D)
    assert np.abs((A - without_walls).toarray() - odelta).max() < 1e-10
    assert np.abs(rhs - orhs).max() < 1e-10


@pytest.mark.parametrize("penalty_mode", ["gamma_over_h", "fixed_sigma"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_operators_are_the_sums_of_their_forms(bc, p, penalty_mode):
    # A_h and M, each one sparse product of all their forms' terms, are the
    # scipy sums of the forms' separately built matrices, the way they were
    # once assembled, up to the rounding of the sums' order
    for level in range(4):
        mesh, edges, space, params = setup(level, p, bc, penalty_mode=penalty_mode)
        B, b, C, M = (form(name, mesh, edges, space, params) for name in "BbCM")
        A = B + params.alpha * C + params.beta * b
        if bc == DIRICHLET_LATERAL:
            walls = stiffness_terms(edges, params)[5:]  # the lateral edges, then the corners
            assert [term.faces for term in walls] == [edges.dirichlet, edges.corners]
            A = A + operator(mesh, space, walls)
        for got, expected in (
            (assemble_Ah(mesh, edges, space, params).tobsr(), A),
            (assemble_mass(mesh, edges, space, params.lam).tobsr(), M + params.lam * C),
        ):
            assert np.abs((got - expected).toarray()).max() <= 1e-15 * np.abs(expected.data).max()


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
    v = nodal(mesh, space, u)
    b = form("b", mesh, edges, space, params)
    assert v @ (b @ v) == pytest.approx(seminorm, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_bh_fused_periodic_corner_by_hand(level, p):
    # v = x jumps by 1 across the fused corner of each component (1 on the
    # plus side at x = 1, 0 on the minus side at x = 0) with d_t v = 1, so
    # each corner adds sigma - 2 to the tangential seminorm 2: 2 sigma - 2
    mesh, edges, space, params = setup(level, p)
    v = nodal(mesh, space, lambda t, x, y: x)
    b = form("b", mesh, edges, space, params)
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
        A = assemble_Ah(mesh, edges, space, params).tobsr()
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
        A = assemble_Ah(mesh, edges, space, params).tobsr()
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
    S = assemble_mass(mesh, edges, space, params.lam).plus(1e-3, A).tocsr()
    # in arrays of its own size: eliminating the zeros keeps those of every entry
    assert all(getattr(x.base, "size", x.size) == S.nnz for x in (S.data, S.indices))
    A = A.tobsr()
    assert A.format == "bsr" and A.blocksize == (space.n_local,) * 2
    assert S.format == "csr" and (S.data != 0).all()
    for X in (A, S):
        assert X.has_sorted_indices
        for r in range(len(X.indptr) - 1):
            idx = X.indices[X.indptr[r] : X.indptr[r + 1]]
            assert (np.diff(idx) > 0).all()


def test_csr_expansion_memory_proportional_to_output():
    # the step system is expanded to CSR by scipy a few thousand element
    # rows at a time, with no block per pair: at level 7, p = 2 with walls
    # the peak is 1.07 times the CSR bytes (2.09 through a BSR copy of a
    # block per pair, scipy's CSR with the blocks' zeros and a compacting
    # copy)
    mesh, edges, space, params = setup(7, 2, DIRICHLET_LATERAL)
    step = assemble_mass(mesh, edges, space, params.lam).plus(1e-4, assemble_Ah(mesh, edges, space, params))
    tracemalloc.start()
    try:
        S = step.tocsr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)


def test_assembly_memory_proportional_to_output():
    # blocks are keyed per element pair, so no index is held per matrix
    # entry, A_h is one sparse product of every form's terms, so no form is
    # held as a matrix of its own, and the product builds one block per
    # type, not per pair: the peak is 0.62 times the BSR matrix the table
    # stands for (0.76 when first measured so; 1.30 while the product built
    # every pair's block; 2.03 when the forms were built as matrices and
    # added pairwise)
    mesh, edges, space, params = setup(5, 2)
    assemble_Ah(mesh, edges, space, params)  # builds and caches the point tables
    tracemalloc.start()
    try:
        A = assemble_Ah(mesh, edges, space, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = A.tobsr()
    assert peak <= 0.72 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


@pytest.mark.parametrize("name, level, p", [("example3", 5, 2), ("example1", 6, 1)])
def test_first_load_peaks_at_the_points_and_two_work_arrays(name, level, p):
    # the first load on a fresh space builds its point sets and calls each
    # source once per time node on every cell point at once: above the
    # call's entry the peak is those points, the source's two work arrays
    # and the load vectors, 4.5 to 5.0 arrays of the degree-2p + 4 cell
    # points (7.4 to 7.8 while the sources made a temporary per operation
    # and f evaluated u again).  The mesh's own geometry, which it keeps
    # once made, is made by a load on another space first.
    case = get_case(name)
    mesh, edges, space, _ = setup(level, p, case.bc_mode)
    assemble_load(mesh, edges, DGSpace(mesh, p), case.f, case.g, 0.1)
    array = mesh.n_triangles * len(triangle_quadrature(2 * p + 4).weights) * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assemble_load(mesh, edges, space, case.f, case.g, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * array


def counted_points(calls, fn):
    """fn(t, x, y), recording the number of points of each call in ``calls``."""

    def counted(t, x, y):
        calls.append(x.size)
        return fn(t, x, y)

    return counted


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_plain_source_is_evaluated_block_by_block_and_kept_nowhere(monkeypatch, name):
    # a source that is not time-separable is one node at the call's time,
    # with no key: evaluated one block of entries at a time, on every point
    # once a call, with nothing kept on the space.  Blocks of 1000 points
    # cut the level-5 cells (and gamma1's faces at p = 2) into several, and
    # the load is the one the whole set gives, up to rounding
    case = get_case(name)
    mesh, edges, space, _ = setup(5, 2, case.bc_mode)
    whole = assemble_load(mesh, edges, space, case.f.fn, case.g.fn, 0.3)
    monkeypatch.setattr(dgdyn.assembly, "BLOCK_POINTS", 1000)
    before = set(space.kept)
    calls = {"f": [], "g": []}
    f, g = (counted_points(calls[k], fn) for k, fn in (("f", case.f.fn), ("g", case.g.fn)))
    for _ in range(2):
        load = assemble_load(mesh, edges, space, f, g, 0.3)
        assert np.abs(load - whole).max() <= 1e-14 * np.abs(whole).max()
    assert set(space.kept) == before
    for term, key in zip(mass_terms(edges, 1.0), ("f", "g")):
        (pts,) = term.sides(mesh, space, 2 * space.p + 4)
        points = pts.w.shape[1] * len(pts.elem)
        assert len(calls[key]) == 2 * len(pts.blocks()) and sum(calls[key]) == 2 * points
        assert max(calls[key]) <= 1000
    assert len(calls["f"]) > 2


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_separable_source_is_evaluated_once_per_node_on_all_points(monkeypatch, name):
    # a case's f and g are time-separable: each node's load vectors are
    # integrated on all the points of their set at once, whatever the block
    # size, kept on the space, and every later load is their weighted sum
    case = get_case(name)
    mesh, edges, space, _ = setup(5, 2, case.bc_mode)
    monkeypatch.setattr(dgdyn.assembly, "BLOCK_POINTS", 1000)
    calls = {"f": [], "g": []}
    counted = replace(case, f=counted_points(calls["f"], case.f.fn), g=counted_points(calls["g"], case.g.fn))
    loads = [assemble_load(mesh, edges, space, counted.f, counted.g, t) for t in (0.1, 0.4, 0.7)]
    for term, key in zip(mass_terms(edges, 1.0), ("f", "g")):
        (pts,) = term.sides(mesh, space, 2 * space.p + 4)
        assert calls[key] == [pts.w.shape[1] * len(pts.elem)] * len(case.time_factors[key][0])
    for t, load in zip((0.1, 0.4, 0.7), loads):
        plain = assemble_load(mesh, edges, DGSpace(mesh, 2), case.f.fn, case.g.fn, t)
        assert np.abs(load - plain).max() <= 1e-12 * np.abs(plain).max()


def test_release_tables_drops_only_point_sets():
    # at p = 1 the degree-2p point sets are released after assembly; what
    # else the space keeps stays, also an entry whose key ends in 2.0, the
    # inverse mass of lambda = 2, as do the class orders
    mesh, edges, space, params = setup(3, 1)
    assemble_Ah(mesh, edges, space, params)
    projection = l2_lambda_project(mesh, space, edges, 2.0, lambda x, y: x * y)
    kept = dict(space.kept)
    assert ("inverse mass", 2.0) in kept and any(key[0] == "_order" for key in kept)
    release_tables(space, 2 * space.p)
    released = {key for key in kept if key[0] == "_sides" and key[-1] == 2}
    assert released and set(space.kept) == set(kept) - released
    assert all(space.kept[key] is kept[key] for key in space.kept)
    assert l2_lambda_project(mesh, space, edges, 2.0, lambda x, y: x * y).tobytes() == projection.tobytes()


@pytest.mark.parametrize("bc, name", [(PERIODIC, "example1"), (DIRICHLET_LATERAL, "example3")])
def test_class_order_is_found_once_per_geometry(monkeypatch, bc, name):
    # the cells and each face set are sorted into classes once: assembly's
    # degree-2p point sets and the degree-2p + 4 ones of the loads and the
    # energy norm share the order, which releasing the first keeps
    calls = []
    class_order = dgdyn.assembly._class_order
    monkeypatch.setattr(dgdyn.assembly, "_class_order", lambda *keys: calls.append(len(keys)) or class_order(*keys))
    case = get_case(name)
    mesh, edges, space, params = setup(4, 2, bc)
    assemble_Ah(mesh, edges, space, params)
    assemble_mass(mesh, edges, space, params.lam)
    release_tables(space, 2 * space.p)
    assemble_load(mesh, edges, space, case.f, case.g, 0.1)
    energy_norm_terms(mesh, edges, space, params, u_h=np.zeros(space.n_dofs), exact=case, t=0.1)
    assert len(calls) == (6 if bc == DIRICHLET_LATERAL else 4)
    # the degree-2p + 4 ones, and the degree-2p ones the norm's discrete part reads again
    assert len(point_sets(space)) == (12 if bc == DIRICHLET_LATERAL else 8)


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
        assert same_bits(assemble_Ah(mesh, edges, space, params).tobsr(), assemble_Ah(mesh, given, space, params).tobsr())
        assert same_bits(assemble_mass(mesh, edges, space, 10.0).tobsr(), assemble_mass(mesh, given, space, 10.0).tobsr())
        u = np.random.default_rng(level).standard_normal(space.n_dofs)
        for exact in (None, get_case(case)):
            terms = [energy_norm_terms(mesh, e, space, params, u_h=u, exact=exact, t=0.3) for e in (edges, given)]
            assert [v.hex() for v in terms[0].values()] == [v.hex() for v in terms[1].values()]


# ---------------------------------------------------------------------------
# blocks once per geometry class against blocks once per entry


def jittered(level, bc, p):
    """The mesh of ``level`` with its interior vertices moved by up to
    0.2 / N, so almost every triangle and face has its own geometry."""
    mesh = build_structured_mesh(level)
    v = mesh.vertices
    inside = ((v > 0.0) & (v < 1.0)).all(axis=1)
    jitter = np.random.default_rng(11).uniform(-0.2, 0.2, v.shape) / mesh.n_cells_per_side
    mesh = replace(mesh, vertices=v + jitter * inside[:, None])
    return mesh, classify_edges(mesh, bc), DGSpace(mesh, p)


def entries(elem, X, w):
    """A batch of entries on one side: elements (nE,), physical points X
    (nE, nq, 2) as x and y, and weights w (nE, nq)."""
    return SimpleNamespace(elem=elem, x=X[..., 0], y=X[..., 1], w=w)


def cell_entries(mesh, degree):
    """Every triangle in mesh order, its points and weights from the mesh
    alone: v0 + J times the rule's points, det J times its weights."""
    rule = triangle_quadrature(degree)
    X = mesh.v0[:, None, :] + rule.points @ mesh.jacobians.transpose(0, 2, 1)
    return entries(np.arange(mesh.n_triangles), X, mesh.det_jacobians[:, None] * rule.weights)


def face_entries(faces, degree):
    """Each side of ``faces`` in the mesh's face order, from the faces alone:
    points v0 + s times the Jacobian column, the second side's moved by the
    shift, and weights the face length times the rule's."""
    rule = edge_quadrature(degree)
    X = faces.v0[:, None, :] + rule.points[None, :, None] * faces.jacobian[:, None, :, 0]
    w = faces.measure[:, None] * rule.weights
    shifts = [0.0] if faces.shift is None else [0.0, faces.shift[:, None, :]]
    return [entries(el, X + shift, w) for el, shift in zip(faces.elem.T, shifts)]


def point_sets(space):
    """The point sets kept on ``space``, by (builder, simplices, degree),
    without the class orders that every degree shares."""
    return {name: sides for name, sides in space.kept.items() if name[0] == "_sides"}


def per_entry_tables(space, pts):
    """Basis values (nE, nq, n_local) and physical gradients (nE, nq,
    n_local, 2) of every entry of a batch at its own points, which are
    mapped back to its element's reference triangle."""
    mesh = space.mesh
    inv_j = mesh.inv_jacobians[pts.elem]
    ref = (np.stack([pts.x, pts.y], axis=-1) - mesh.v0[pts.elem][:, None, :]) @ inv_j.transpose(0, 2, 1)
    return space.basis.eval(ref), space.basis.grad(ref) @ inv_j[:, None]


def per_entry_operators(mesh, edges, space, params, lam):
    """A_h and M as dense matrices, every block computed for its own cell or
    face from the mesh's geometry and summed into place."""
    degree = 2 * space.p
    dense = [np.zeros((space.n_dofs, space.n_dofs)) for _ in range(2)]

    def add(which, el_a, el_b, blocks):
        np.add.at(dense[which], (space.dofs[el_a][:, :, None], space.dofs[el_b][:, None, :]), blocks)

    def penalty(faces, weight):
        sides = face_entries(faces, degree)
        avg = 1.0 / len(sides)
        w = sides[0].w
        traces = []
        for side, sign in zip(sides, (1.0, -1.0)):
            phi, grad = per_entry_tables(space, side)
            traces.append((side.elem, sign, phi, np.einsum("eqli,ei->eql", grad, faces.normal)))
        for el_a, s_a, phi_a, gn_a in traces:
            for el_b, s_b, phi_b, gn_b in traces:
                block = (
                    -avg * s_a * np.einsum("eq,eql,eqm->elm", w, phi_a, gn_b)
                    - avg * s_b * np.einsum("eq,eql,eqm->elm", w, gn_a, phi_b)
                    + params.sigma * s_a * s_b * np.einsum("eq,eql,eqm->elm", w, phi_a, phi_b)
                )
                add(0, el_a, el_b, weight * block)

    vol = cell_entries(mesh, degree)
    phi, grad = per_entry_tables(space, vol)
    add(0, vol.elem, vol.elem, np.einsum("eq,eqli,eqmi->elm", vol.w, grad, grad))
    add(1, vol.elem, vol.elem, np.einsum("eq,eql,eqm->elm", vol.w, phi, phi))
    penalty(edges.two_sided, 1.0)
    (g1,) = face_entries(edges.gamma1, degree)
    phi, grad = per_entry_tables(space, g1)
    tangential = grad @ TANGENT[:, 0]
    add(0, g1.elem, g1.elem, params.beta * np.einsum("eq,eql,eqm->elm", g1.w, tangential, tangential))
    g1_mass = np.einsum("eq,eql,eqm->elm", g1.w, phi, phi)
    add(0, g1.elem, g1.elem, params.alpha * g1_mass)
    add(1, g1.elem, g1.elem, lam * g1_mass)
    penalty(edges.ridges, params.beta)
    if edges.bc_mode == DIRICHLET_LATERAL:
        penalty(edges.dirichlet, 1.0)
        penalty(edges.corners, params.beta)
    return dense


@pytest.mark.parametrize("penalty_mode", ["gamma_over_h", "fixed_sigma"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_class_blocks_give_the_per_entry_operators_on_a_distorted_mesh(bc, p, penalty_mode):
    mesh, edges, space = jittered(2, bc, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0, penalty_mode=penalty_mode)
    A = assemble_Ah(mesh, edges, space, params).tobsr().toarray()
    M = assemble_mass(mesh, edges, space, 10.0).tobsr().toarray()
    # the jitter leaves few entries sharing a class
    (vol,), (face, _) = _sides(mesh, space, edges.cells, 2 * p), _sides(mesh, space, edges.two_sided, 2 * p)
    assert len(vol.classes[1]) >= 0.9 * len(vol.elem) and len(face.classes[1]) >= 0.9 * len(face.elem)
    A_ref, M_ref = per_entry_operators(mesh, edges, space, params, 10.0)
    assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
    assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()


# ---------------------------------------------------------------------------
# operators as tables of distinct blocks against a block per element pair


def per_pair_bsr(space, terms):
    """The operator of ``terms`` with every element pair's block built as
    its row of the pairs-by-classes count matrix times the class blocks."""
    n_el, n = space.mesh.n_triangles, space.n_local
    keys = np.concatenate([np.asarray(el_a, dtype=np.int64) * n_el + el_b for el_a, el_b, _, _ in terms])
    pattern, slot = np.unique(keys, return_inverse=True)
    offsets = np.cumsum([0] + [len(blocks) for *_, blocks in terms])
    cls = np.concatenate([c + offset for (_, _, c, _), offset in zip(terms, offsets)])
    counts = sp.csr_matrix((np.ones(len(cls)), (slot, cls)), shape=(len(pattern), offsets[-1]))
    data = counts @ np.concatenate([blocks for *_, blocks in terms]).reshape(offsets[-1], n * n)
    indptr = np.searchsorted(pattern, np.arange(n_el + 1) * n_el)
    return sp.bsr_matrix((data.reshape(-1, n, n), pattern % n_el, indptr), shape=(space.n_dofs,) * 2)


def assert_tables_expand_to_per_pair_blocks(mesh, edges, space, params, dt=1e-3):
    """A_h, M and the step system M + dt A_h from their tables are bitwise
    the operators with a block per pair, and the system's CSR is scipy's
    sum of them without its zeros."""
    expected = []
    for blocks, terms in (
        (assemble_Ah(mesh, edges, space, params), stiffness_terms(edges, params)),
        (assemble_mass(mesh, edges, space, params.lam), mass_terms(edges, params.lam)),
    ):
        expected.append(per_pair_bsr(space, [block for term in terms for block in term.blocks(mesh, space)]))
        assert same_bits(blocks.tobsr(), expected[-1])
    system = (expected[1] + dt * expected[0]).tocsr()
    system.eliminate_zeros()
    step = assemble_mass(mesh, edges, space, params.lam).plus(dt, assemble_Ah(mesh, edges, space, params))
    assert same_bits(step.tocsr(), system)
    return step


@pytest.mark.parametrize("penalty_mode", ["gamma_over_h", "fixed_sigma"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_tables_expand_to_the_per_pair_operators(bc, p, penalty_mode):
    # at most 20 types of blocks for A_h and the step system, 4 for M
    for level in range(6):
        mesh, edges, space, params = setup(level, p, bc, penalty_mode=penalty_mode)
        step = assert_tables_expand_to_per_pair_blocks(mesh, edges, space, params)
        assert len(step.table) <= 20 and len(assemble_mass(mesh, edges, space, params.lam).table) <= 4
        assert len(step.own().blocks) <= 10


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_csr_expansion_in_chunks_of_their_own_width(bc, p):
    # at level 7 the CSR expansion runs in a dozen chunks or more, and the
    # element rows differ in length: the gamma1 rows hold one block more
    # than the interior ones.  Each matrix is bitwise scipy's whole
    # expansion without its zeros.
    mesh, edges, space, params = setup(7, p, bc)
    A, M = assemble_Ah(mesh, edges, space, params), assemble_mass(mesh, edges, space, params.lam)
    count = np.diff(A.indptr)
    assert (count == count.max()).mean() <= 0.1
    for table in (A, M, M.plus(1e-4, A)):
        expected = table.tobsr().tocsr()
        expected.eliminate_zeros()
        assert same_bits(table.tocsr(), expected)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_tables_expand_to_the_per_pair_operators_on_a_distorted_mesh(bc, p):
    mesh, edges, space = jittered(3, bc, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0)
    step = assert_tables_expand_to_per_pair_blocks(mesh, edges, space, params)
    assert len(step.table) >= 0.9 * len(step.types)  # almost every pair its own type


def test_colliding_row_keys_never_merge_two_types(monkeypatch):
    # every row gets one key, so each type is split off its first row by the
    # exact check: rows share a type exactly when they are equal
    rows = np.array([[1, 0, 2], [0, 3, 0], [1, 0, 2], [2, 0, 1], [0, 3, 0], [1, 0, 0], [1, 0, 2]])
    types, first = _row_types(sp.csr_matrix(rows.astype(float)), np.zeros(len(rows)))
    assert np.array_equal(types[first], np.arange(len(first)))
    same_row = (rows[:, None] == rows[None, :]).all(axis=2)
    assert np.array_equal(types[:, None] == types[None, :], same_row) and len(first) == 4
    # and the operators of a whole mesh, every pair's key colliding
    row_types = dgdyn.assembly._row_types
    monkeypatch.setattr(dgdyn.assembly, "_row_types", lambda C, key: row_types(C, np.zeros_like(key)))
    mesh, edges, space, params = setup(2, 1, DIRICHLET_LATERAL)
    assert_tables_expand_to_per_pair_blocks(mesh, edges, space, params)


@pytest.mark.parametrize("distorted", [False, True])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_face_endpoints_map_back_to_reference_vertices(bc, distorted):
    # the point sets round each side's mapped-back simplex vertices (a
    # triangle's three, an edge's two ends, a point face's point twice) to
    # name its reference vertices, and place the class's points by the
    # rule between those: exact only if every vertex, the second side's
    # moved by the periodic shift, is a vertex of its element
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    meshes = [jittered(level, bc, 1)[0] for level in range(1, 5)] if distorted else map(build_structured_mesh, range(7))
    for mesh in meshes:
        edges = classify_edges(mesh, bc)
        face_sets = [edges.cells, edges.two_sided, edges.gamma1, edges.ridges, edges.dirichlet, edges.corners]
        face_sets = [faces for faces in face_sets if faces is not None]
        assert len(face_sets) == (6 if bc == DIRICHLET_LATERAL else 4)
        assert (edges.two_sided.shift != 0.0).any() == (bc == PERIODIC)
        for faces in face_sets:
            shifts = [0.0] if faces.shift is None else [0.0, faces.shift]
            ends = [faces.v0] + [faces.v0 + column for column in faces.jacobian.transpose(2, 0, 1)]
            for el, shift in zip(faces.elem.T, shifts):
                for end in ends:
                    ref = np.einsum("eij,ej->ei", mesh.inv_jacobians[el], end + shift - mesh.v0[el])
                    assert np.abs(ref[:, None, :] - vertices).max(axis=2).min(axis=1).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("distorted", [False, True])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_cell_tables_are_the_basis_at_the_rule_points(bc, p, distorted):
    # a triangle's points are the rule's interpolation of its reference
    # vertices (0, 0), (1, 0), (0, 1): the rule's own points, so every cell
    # class's basis values, and its gradients before the fold with its
    # inverse Jacobian, are the basis at the rule's points to the bit
    mesh, edges, space = jittered(2, bc, p) if distorted else setup(4, p, bc)[:3]
    for degree in (2 * p, 2 * p + 4):
        rule = triangle_quadrature(degree)
        (pts,) = mass_terms(edges, 1.0)[0].sides(mesh, space, degree)
        inv_j = mesh.inv_jacobians[pts.elem[pts.bounds[:-1]]]
        assert len(pts.bounds) - 1 == (len(pts.elem) if distorted else 2)
        phi, grad = space.basis.eval(rule.points), space.basis.grad(rule.points)
        assert np.array_equal(pts.phi, np.broadcast_to(phi, pts.phi.shape))
        assert np.array_equal(pts.grad, grad @ inv_j[:, None])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_structured_point_sets_hold_at_most_four_classes(bc, p):
    # every point set the operators and the initial projection use: the
    # cells, each face set and each of its sides, at degree 2p and 2p + 4
    mesh, edges, space, params = setup(5, p, bc)
    assemble_Ah(mesh, edges, space, params)
    assemble_mass(mesh, edges, space, params.lam)
    l2_lambda_project(mesh, space, edges, params.lam, lambda x, y: x * y)
    cached = list(point_sets(space).values())
    assert len(cached) == (8 if bc == DIRICHLET_LATERAL else 6)
    for sides in cached:
        for each in sides:
            cls, rep = each.classes
            assert len(rep) <= 4
            assert np.array_equal(cls[rep], np.arange(len(rep)))
        # and the blocks are built once per class, not once per entry
        terms = _penalty_blocks(sides, params.sigma) if sides[0].normal is not None else [_gram_blocks(sides[0])]
        assert all(len(blocks) <= 4 for *_, blocks in terms)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_point_sets_are_stored_in_class_order(bc, p):
    # every cached point set, degrees 2p and 2p + 4: each class, the
    # entries whose per-entry geometry is equal, is one run of entries, the
    # runs are those the set stores, and the set is a permutation of its
    # cells or faces that keeps each face's sides together.  The geometry,
    # each class's weight row and normal are checked against every entry of
    # its run, computed from the mesh, and the points the first side makes
    # against the mesh's own
    mesh, edges, space, params = setup(5, p, bc)
    assemble_Ah(mesh, edges, space, params)
    assemble_mass(mesh, edges, space, params.lam)
    case = get_case("example1" if bc == PERIODIC else "example3")
    energy_norm_terms(mesh, edges, space, params, u_h=np.zeros(space.n_dofs), exact=case)
    assert len(point_sets(space)) == (12 if bc == DIRICHLET_LATERAL else 8)
    for (_, faces, degree), sides in point_sets(space).items():
        bounds = sides[0].bounds
        assert all(np.array_equal(side.bounds, bounds) for side in sides)
        run = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        every = slice(0, len(run))
        if faces is edges.cells:
            want = [cell_entries(mesh, degree)]
            index = sides[0].elem  # the mesh's triangle of each entry
            assert np.array_equal(np.sort(index), np.arange(mesh.n_triangles))
            geometry = []
        else:
            want = face_entries(faces, degree)
            face_of = {tuple(e): i for i, e in enumerate(faces.elem.tolist())}
            assert len(face_of) == len(faces)  # at level 5 a face's elements name it
            index = np.array([face_of[e] for e in zip(*(side.elem.tolist() for side in sides))])
            assert np.array_equal(np.sort(index), np.arange(len(faces)))
            assert all(np.array_equal(side.normal[run], faces.normal[index]) for side in sides)
            geometry = [faces.normal[index]]
        for side, mine in zip(sides, want):
            X = np.stack([mine.x, mine.y], axis=-1)[index]
            if side is sides[0]:
                assert np.abs(np.stack(side.points(every), axis=-1) - X).max() <= 1e-15
            else:  # fields are evaluated on the first side alone
                assert side.points is None
            assert np.array_equal(side.w[run], mine.w[index])
            inv_j = mesh.inv_jacobians[side.elem]
            ref = (X - mesh.v0[side.elem][:, None, :]) @ inv_j.transpose(0, 2, 1)
            geometry += [inv_j.reshape(-1, 4), mine.w[index], np.round(ref, 9).reshape(len(ref), -1)]
        geometry = np.column_stack(geometry)
        same = (geometry[1:] == geometry[:-1]).all(axis=1)
        assert np.array_equal(same, run[1:] == run[:-1])
        assert len(np.unique(geometry, axis=0)) == len(bounds) - 1


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_point_sets_hold_no_array_per_entry_and_point(bc):
    # every degree-2p + 4 point set of A_h's and M's terms at level 5, p = 2,
    # once the norm, the loads and the projection have kept what they keep:
    # a point set holds class rows and integer arrays per entry, its points
    # made on demand from the mesh, and the space keeps no field's values on them
    mesh, edges, space, params = setup(5, 2, bc)
    case = get_case("example1" if bc == PERIODIC else "example3")
    energy_norm_terms(mesh, edges, space, params, u_h=nodal(mesh, space, case.u, 0.1), exact=case, t=0.1)
    assemble_load(mesh, edges, space, case.f, case.g, 0.1)
    l2_lambda_project(mesh, space, edges, params.lam, case.u0)
    checked, snapshots = 0, 0
    for term in stiffness_terms(edges, params) + mass_terms(edges, params.lam):
        for pts in term.sides(mesh, space, 2 * space.p + 4):
            n, nq = len(pts.elem), pts.w.shape[1]
            snapshots += sum(getattr(v, "shape", ())[-2:] == (n, nq) for v in space.kept.values())
            if len(pts.bounds) - 1 == n:
                continue  # a class per entry: its rows are its entries'
            checked += 1
            makes = pts.points.args if pts.points else ()  # a second side makes no points
            held = [*vars(pts).values(), *pts.classes, *makes]
            for a in (v for v in held if isinstance(v, np.ndarray)):
                assert a.shape[:2] != (n, nq)
                assert len(a) != n or np.issubdtype(a.dtype, np.integer), a.dtype
    assert checked >= (10 if bc == DIRICHLET_LATERAL else 8) and snapshots == 0


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_points_made_block_by_block_equal_a_whole_evaluation(monkeypatch, bc):
    # blocks of 1000 points cut the class runs (of 1024 triangles, or 32 to
    # 1024 faces) at level 5, p = 2; the points made block by block, on
    # which every field is evaluated, are those of the whole set, and the
    # norms, the projection and the wall data do not see the block size
    # beyond rounding
    mesh, edges, space, params = setup(5, 2, bc)
    case = get_case("example1" if bc == PERIODIC else "example3")
    u_h = nodal(mesh, space, case.u, 0.5)
    u_D = lambda t, x, y: np.cos(3.0 * y) + x * t

    def measured(space):
        walls = assemble_dirichlet_terms(mesh, edges, space, params, u_D, 0.4) if bc == DIRICHLET_LATERAL else [1.0]
        norm = energy_norm_terms(mesh, edges, space, params, u_h=u_h, exact=case, t=0.5)
        return [*([v] for v in norm.values()), l2_lambda_project(mesh, space, edges, params.lam, case.u0), walls]

    whole = measured(space)
    space = DGSpace(mesh, 2)
    monkeypatch.setattr(dgdyn.assembly, "BLOCK_POINTS", 1000)
    for pts in (*_sides(mesh, space, edges.cells, 8), _sides(mesh, space, edges.two_sided, 8)[0]):
        starts = {sl.start for sl in pts.blocks()}
        assert len(starts) > 2 and not starts <= set(pts.bounds.tolist())
        every = pts.points(slice(0, len(pts.elem)))
        for got, want in zip(zip(*(pts.points(sl) for sl in pts.blocks())), every):
            got = np.concatenate(got)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    for got, want in zip(measured(space), whole):
        assert np.abs(np.subtract(got, want)).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# block-diagonal operators applied over the cells against their BSR product


def per_element_bsr(D: BlockDiagonal) -> sp.bsr_matrix:
    """The block-diagonal matrix with each element's block stored on its own."""
    n_el = len(D.kind)
    return sp.bsr_matrix((D.blocks[D.kind], np.arange(n_el), np.arange(n_el + 1)))


def assert_applies_as_bsr(D: BlockDiagonal, expected: sp.bsr_matrix, seed: int) -> None:
    """D and its inverse against the BSR products of ``expected`` and of the
    inverse of each element's block, to 1e-15 relative."""
    n_el = len(D.kind)
    inverse = sp.bsr_matrix((np.linalg.inv(expected.data), np.arange(n_el), np.arange(n_el + 1)))
    x = np.random.default_rng(seed).standard_normal(expected.shape[0])
    for op, want in ((D, expected @ x), (D.inverse(), inverse @ x)):
        assert np.abs(op @ x - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_block_diagonal_applies_as_its_bsr_product(bc, p):
    # M is all of its own blocks; the step system's own blocks are block
    # Jacobi's.  The gathered product covers the gamma1 rows and the wall
    # columns only: 2n and, with walls, 2n - 2 more of the 2n^2 elements
    for level in range(6):
        mesh, edges, space, params = setup(level, p, bc)
        M = assemble_mass(mesh, edges, space, params.lam)
        step = M.plus(1e-3, assemble_Ah(mesh, edges, space, params))
        n = mesh.n_cells_per_side
        for table, expected in ((M, M.tobsr()), (step, per_element_bsr(step.own()))):
            D = table.own()
            assert_applies_as_bsr(D, expected, level)
            assert level < 2 or len(D._rest) <= 2 * n + (2 * n - 2) * (bc == DIRICHLET_LATERAL)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_block_diagonal_applies_as_its_bsr_product_on_a_distorted_mesh(bc, p):
    # almost every element its own block: all but one a side go through the gathered product
    mesh, edges, space = jittered(3, bc, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0)
    M = assemble_mass(mesh, edges, space, params.lam)
    step = M.plus(1e-3, assemble_Ah(mesh, edges, space, params))
    for table, expected in ((M, M.tobsr()), (step, per_element_bsr(step.own()))):
        D = table.own()
        assert len(D._rest) >= len(D.kind) - 2
        assert_applies_as_bsr(D, expected, p)
