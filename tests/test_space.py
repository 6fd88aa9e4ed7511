import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

import dgdyn.space
from dgdyn.mesh import build_structured_mesh, classify_edges, p1_vertices
from dgdyn.space import (
    MAX_QUADRATURE_DEGREE,
    DGSpace,
    ReferenceBasis,
    conforming_p1_embedding,
    edge_quadrature,
    reference_basis,
    triangle_quadrature,
)

from test_assembly import nodal


def exact_triangle_monomial(a, b):
    """Integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_p1_values_at_barycenter():
    basis = reference_basis(1)
    vals = basis.eval(np.array([1 / 3, 1 / 3]))
    assert np.allclose(vals, 1 / 3, rtol=1e-14)


def test_p1_gradients_are_the_analytic_constants():
    basis = reference_basis(1)
    g = basis.grad(np.array([[0.2, 0.3], [0.7, 0.1]]))
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(g, expected[None, :, :], atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lagrange_property(p):
    basis = reference_basis(p)
    vals = basis.eval(basis.nodes)
    assert np.allclose(vals, np.eye(basis.n_local), atol=1e-12)


def test_p2_nodes_are_vertices_plus_midpoints():
    basis = reference_basis(2)
    expected = {(0, 0), (1, 0), (0, 1), (0.5, 0), (0.5, 0.5), (0, 0.5)}
    assert {tuple(n) for n in basis.nodes} == expected


@pytest.mark.parametrize("p", [1, 2])
def test_partition_of_unity(p):
    basis = reference_basis(p)
    rng = np.random.default_rng(7)
    pts = rng.random((50, 2)) * 0.5
    assert np.allclose(basis.eval(pts).sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(basis.grad(pts).sum(axis=1), 0.0, atol=1e-12)
    # pushed to physical coordinates the gradients still sum to zero
    mesh = build_structured_mesh(1)
    phys = np.einsum("qli,eij->eqlj", basis.grad(pts), mesh.inv_jacobians)
    assert np.allclose(phys.sum(axis=2), 0.0, atol=1e-12)


def test_reference_basis_rejects_p0():
    with pytest.raises(ValueError):
        ReferenceBasis(0)


def test_triangle_quadrature_basic_integrals():
    rule = triangle_quadrature(2)
    assert np.isclose(rule.weights.sum(), 0.5, rtol=1e-14)
    xy = rule.points[:, 0] * rule.points[:, 1]
    assert np.isclose(rule.weights @ xy, 1 / 24, rtol=1e-13)
    rule4 = triangle_quadrature(4)
    assert np.isclose(rule4.weights @ rule4.points[:, 0] ** 4, 1 / 30, rtol=1e-13)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_quadrature_exactness_sweep(degree):
    rule = triangle_quadrature(degree)
    assert (rule.weights > 0).all()
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert np.isclose(approx, exact_triangle_monomial(a, b), rtol=1e-12), (a, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_gauss_rule_tables_are_scipys_bitwise(n):
    # the rules are a table, so that no run loads scipy.special: its rows
    # are scipy 1.17's rules, and the last row is the most points that
    # MAX_QUADRATURE_DEGREE needs
    assert len(dgdyn.space._JACOBI_NODES) == math.ceil((MAX_QUADRATURE_DEGREE + 1) / 2) == 6
    for (nodes, weights), (t, w) in (
        ((dgdyn.space._JACOBI_NODES, dgdyn.space._JACOBI_WEIGHTS), roots_jacobi(n, 1, 0)),
        ((dgdyn.space._LEGENDRE_NODES, dgdyn.space._LEGENDRE_WEIGHTS), roots_legendre(n)),
    ):
        assert np.array(nodes[n - 1]).tobytes() == t.tobytes()
        assert np.array(weights[n - 1]).tobytes() == w.tobytes()


def test_triangle_quadrature_rejects_unsupported():
    for d in (0, 11):
        with pytest.raises(ValueError):
            triangle_quadrature(d)


def test_edge_quadrature():
    assert np.isclose(edge_quadrature(1).weights.sum(), 1.0, rtol=1e-14)
    r2 = edge_quadrature(2)
    assert len(r2.points) == 2
    assert np.isclose(r2.weights @ r2.points**2, 1 / 3, rtol=1e-14)
    r5 = edge_quadrature(5)
    assert len(r5.points) == 3
    assert np.isclose(r5.weights @ r5.points**5, 1 / 6, rtol=1e-14)
    with pytest.raises(ValueError):
        edge_quadrature(0)


def test_physical_polynomial_integration():
    # push a quadrature rule to a physical triangle and integrate a
    # polynomial exactly
    mesh = build_structured_mesh(1)
    rule = triangle_quadrature(3)
    X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, rule.points)
    f = X[..., 0] ** 2 * X[..., 1]  # integral over (0,1)^2 is 1/6
    total = np.einsum("q,e,eq->", rule.weights, mesh.det_jacobians, f)
    assert np.isclose(total, 1 / 6, rtol=1e-13)


def test_dof_layout():
    mesh = build_structured_mesh(1)
    space = DGSpace(mesh, 2)
    assert space.n_local == 6
    assert space.n_dofs == mesh.n_triangles * 6
    flat = space.dofs.ravel()
    assert np.array_equal(np.sort(flat), np.arange(space.n_dofs))


def test_interpolate_reproduces_polynomials():
    mesh = build_structured_mesh(2)
    for p in (1, 2):
        space = DGSpace(mesh, p)
        coeffs = nodal(mesh, space, lambda t, x, y: 2.0 + x - 3.0 * y)
        # evaluate at random in-element points through the basis
        rng = np.random.default_rng(3)
        pts = rng.random((4, 2)) * 0.4
        vals = space.basis.eval(pts)  # (4, n_local)
        X = mesh.v0[:, None, :] + np.einsum("eij,qj->eqi", mesh.jacobians, pts)
        uh = np.einsum("ql,el->eq", vals, coeffs.reshape(mesh.n_triangles, -1))
        assert np.allclose(uh, 2.0 + X[..., 0] - 3.0 * X[..., 1], atol=1e-13)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc_mode", ["periodic", "dirichlet_lateral"])
def test_p1_embedding_is_its_nonzero_values_in_arrays_of_its_size(p, bc_mode):
    # bitwise the matrix of every node's barycentric value with its zeros
    # eliminated, whose arrays kept the length of every value: 7.08 MB for a
    # 3.54 MB matrix at level 7, p = 2.  From level 1 up, where no triangle
    # has two vertices folded into one unknown, so no entries are summed.
    for level in range(1, 5):
        mesh = build_structured_mesh(level)
        edges = classify_edges(mesh, bc_mode)
        space = DGSpace(mesh, p)
        P = conforming_p1_embedding(space, edges)
        bary = reference_basis(1).eval(space.basis.nodes)
        rows = np.repeat(space.dofs.ravel(), 3)
        cols = np.repeat(p1_vertices(mesh, bc_mode)[mesh.triangles], space.n_local, axis=0).ravel()
        want = sp.csr_matrix((np.tile(bary.ravel(), mesh.n_triangles), (rows, cols)), shape=P.shape)
        want.eliminate_zeros()
        for x, y in zip((P.indptr, P.indices, P.data), (want.indptr, want.indices, want.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert all(getattr(x.base, "size", x.size) == P.nnz for x in (P.data, P.indices))
