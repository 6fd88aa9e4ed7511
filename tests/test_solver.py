import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgdyn.assembly import FormParams, assemble_Ah, assemble_mass
from dgdyn.config import ProblemConfig
from dgdyn.mesh import build_structured_mesh, classify_edges
from dgdyn.solver import (
    SolverError,
    block_jacobi_preconditioner,
    cg_solve,
    element_blocks,
    two_level_preconditioner,
)
from dgdyn.space import DGSpace, conforming_p1_embedding
from dgdyn.timestepper import build_operators


def be_system(level, p=1, dt=1e-3, lam=10.0):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=lam, gamma=10.0)
    A = assemble_Ah(mesh, edges, space, params)
    M = assemble_mass(mesh, edges, space, lam)
    return (M + dt * A).tocsr(), space


def two_level(S, space):
    P = conforming_p1_embedding(space)
    return two_level_preconditioner(block_jacobi_preconditioner(S, space.n_local), P, P.T @ S @ P)


def test_element_blocks_match_dense_slicing():
    b, n_el = 3, 4
    dense = np.random.default_rng(5).integers(-9, 10, size=(b * n_el, b * n_el)).astype(float)
    dense[b : 2 * b] = 0.0  # element 1's block row stores nothing
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    # element 0's own entries are each stored twice, as v - 0.5 and 0.5
    dup = (rows < b) & (cols < b)
    vals[dup] -= 0.5
    rows, cols = np.concatenate([rows, rows[dup]]), np.concatenate([cols, cols[dup]])
    vals = np.concatenate([vals, np.full(dup.sum(), 0.5)])
    order = np.lexsort((-cols, rows))  # columns descending within each row
    indptr = np.searchsorted(rows[order], np.arange(b * n_el + 1))
    A = sp.csr_matrix((vals[order], cols[order], indptr), shape=dense.shape)
    assert not A.has_canonical_format
    expected = np.stack([dense[e * b : (e + 1) * b, e * b : (e + 1) * b] for e in range(n_el)])
    assert not expected[1].any()
    np.testing.assert_array_equal(element_blocks(A, b), expected)
    with pytest.raises(SolverError, match="multiple of the block size"):
        element_blocks(sp.identity(10, format="csr"), b)


def test_identity_one_iteration():
    A = sp.identity(5, format="csr")
    b = np.arange(1.0, 6.0)
    x, report = cg_solve(A, b)
    assert np.allclose(x, b, atol=1e-14)
    assert report.iterations == 1
    assert report.converged


def test_2x2_exact():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, report = cg_solve(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
    assert report.converged


def test_zero_rhs():
    A = sp.identity(4, format="csr")
    x, report = cg_solve(A, np.zeros(4))
    assert not x.any()
    assert report.iterations == 0
    assert report.converged


def test_dimension_mismatch():
    A = sp.identity(4, format="csr")
    with pytest.raises(SolverError):
        cg_solve(A, np.zeros(3))


def test_indefinite_detected():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(SolverError):
        cg_solve(A, np.array([1.0, 1.0]))


def test_non_finite_detected():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(SolverError):
        cg_solve(A, np.array([1.0, 1.0]))


@pytest.mark.parametrize("prec", ["two_level", "block"])
def test_backward_euler_system_monotone_preconditioned_residual(prec):
    # the preconditioned residual norm sqrt(r' z) decreases monotonically on
    # these systems; without preconditioning plain CG oscillates (only the
    # A-norm of the error is guaranteed monotone), so the identity is excluded
    S, space = be_system(3)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(S.shape[0])
    preconditioner = block_jacobi_preconditioner(S, space.n_local) if prec == "block" else two_level(S, space)
    x, report = cg_solve(S, rhs, tol=1e-12, preconditioner=preconditioner)
    assert report.converged
    hist = np.asarray(report.residual_history)
    assert (np.diff(hist) <= 1e-10 * hist[0]).all()


def test_unpreconditioned_cg_converges():
    S, _ = be_system(3)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(S.shape[0])
    _, report = cg_solve(S, rhs, tol=1e-12)
    assert report.converged


@pytest.mark.parametrize("level", [1, 2])
def test_matches_dense_direct_solve(level):
    S, space = be_system(level, dt=1e-2)
    rng = np.random.default_rng(level)
    rhs = rng.standard_normal(S.shape[0])
    x, report = cg_solve(S, rhs, tol=1e-13, preconditioner=block_jacobi_preconditioner(S, space.n_local))
    x_dense = np.linalg.solve(S.toarray(), rhs)
    assert report.converged
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8


def test_max_iter_reports_failure():
    S, _ = be_system(2)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(S.shape[0])
    x, report = cg_solve(S, rhs, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert report.final_relative_residual > 1e-14


def test_attainable_accuracy_below_tol_is_converged():
    # tol below the rounding floor of evaluating rhs - A x: restarts stop once
    # they no longer reduce the true residual, and the solve is converged with
    # its true residual reported, not failed
    S, space = be_system(2, dt=1e-2)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(S.shape[0])
    x, report = cg_solve(S, rhs, tol=1e-20, preconditioner=block_jacobi_preconditioner(S, space.n_local))
    floor = np.finfo(float).eps * np.linalg.norm(np.abs(rhs) + abs(S) @ np.abs(x)) / np.linalg.norm(rhs)
    true_rel = np.linalg.norm(rhs - S @ x) / np.linalg.norm(rhs)
    assert report.converged
    assert report.final_relative_residual == true_rel
    assert 1e-20 < true_rel <= floor
    assert report.iterations < 10 * S.shape[0]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc_mode", ["periodic", "dirichlet_lateral"])
@pytest.mark.parametrize(
    "penalty_mode, dt",
    # fixed_sigma at criterion 3's level and dt: its A_h is indefinite, M + dt A is not
    [("gamma_over_h", 0.1), ("fixed_sigma", 1e-5)],
)
def test_two_level_preconditioner_spd(p, bc_mode, penalty_mode, dt):
    ops = build_operators(ProblemConfig(level=4, p=p, bc_mode=bc_mode, penalty_mode=penalty_mode, dt=dt))
    S = (ops.M + dt * ops.A).tocsr()
    B = two_level(S, ops.space)
    rng = np.random.default_rng(p)
    for _ in range(5):
        x, y = rng.standard_normal((2, S.shape[0]))
        Bx, By = B(x), B(y)
        assert abs(x @ By - y @ Bx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)
        assert x @ Bx > 0.0


def test_two_level_iterations_bounded_in_h():
    # at dt = 0.1 the system is stiffness dominated: block-Jacobi CG needs
    # more iterations on every refinement, the coarse solve keeps them flat
    block_iters, two_level_iters = [], []
    for level in (3, 4, 5, 6):
        S, space = be_system(level, dt=0.1)
        rhs = np.random.default_rng(level).standard_normal(S.shape[0])
        _, block = cg_solve(S, rhs, preconditioner=block_jacobi_preconditioner(S, space.n_local))
        x, report = cg_solve(S, rhs, preconditioner=two_level(S, space))
        x_direct = spla.splu(S.tocsc()).solve(rhs)
        assert block.converged and report.converged
        assert np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) < 1e-8
        block_iters.append(block.iterations)
        two_level_iters.append(report.iterations)
    assert all(a < b for a, b in zip(block_iters, block_iters[1:])), block_iters
    assert max(two_level_iters) < 60, two_level_iters
