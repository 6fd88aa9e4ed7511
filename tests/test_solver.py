import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgdyn.assembly import BlockTable, FormParams, assemble_Ah, assemble_mass
from dgdyn.config import ProblemConfig
from dgdyn.mesh import PERIODIC, build_structured_mesh, classify_edges, p1_prolongation, p1_prolongations, p1_vertices
from dgdyn.solver import (
    JACOBI_WEIGHT,
    SolverError,
    _rounding_floor,
    block_jacobi_preconditioner,
    cg_solve,
    two_level_preconditioner,
    v_cycle,
)
from dgdyn.space import DGSpace, conforming_p1_embedding
from dgdyn.timestepper import build_operators

BC_MODES = ("periodic", "dirichlet_lateral")


def be_system(level, p=1, dt=1e-3, lam=10.0, bc_mode=PERIODIC):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc_mode)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=lam, gamma=10.0)
    step = assemble_mass(mesh, edges, space, lam).plus(dt, assemble_Ah(mesh, edges, space, params))
    return step.tocsr(), step.own(), space


def two_level(S, own, space, bc_mode=PERIODIC):
    P = conforming_p1_embedding(space, classify_edges(space.mesh, bc_mode))
    smoother = block_jacobi_preconditioner(S, own)
    return two_level_preconditioner(smoother, S, P, p1_prolongations(space.mesh, bc_mode))


def test_own_blocks_match_dense_slicing():
    # four elements, blocks of size 3 of four types, of which elements 0
    # and 2 own type 1 and elements 1 and 3 type 2
    b = 3
    table = np.random.default_rng(5).integers(-9, 10, size=(4, b, b)).astype(float)
    indices, indptr = np.array([0, 2, 1, 0, 2, 3, 1, 3]), np.array([0, 2, 3, 6, 8])
    blocks = BlockTable(indices, indptr, np.array([1, 0, 2, 3, 1, 0, 3, 2]), table)
    dense = blocks.tobsr().toarray()
    diagonal = blocks.own()
    own, kind = diagonal.blocks, diagonal.kind
    expected = np.stack([dense[e * b : (e + 1) * b, e * b : (e + 1) * b] for e in range(4)])
    np.testing.assert_array_equal(own[kind], expected)
    np.testing.assert_array_equal(own, table[[1, 2]])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc_mode", BC_MODES)
def test_block_jacobi_solves_each_element_block(p, bc_mode):
    # the preconditioner applies the inverse of each element's own block of
    # the backward Euler system, read off the dense matrix
    S, own, space = be_system(3, p=p, bc_mode=bc_mode)
    b = space.n_local
    dense = S.toarray()
    r = np.random.default_rng(p).standard_normal(S.shape[0])
    want = np.concatenate([np.linalg.solve(dense[i : i + b, i : i + b], r[i : i + b]) for i in range(0, len(r), b)])
    got = block_jacobi_preconditioner(S, own)(r)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_rounding_floor_reads_the_system_in_place():
    # eps || |rhs| + |A| |x| || / ||rhs|| with |A| on A's own index arrays:
    # bitwise the floor with scipy's abs(A), which copies them
    S, _, _ = be_system(4, p=2, bc_mode="dirichlet_lateral")
    rhs, x = np.random.default_rng(8).standard_normal((2, S.shape[0]))
    want = np.finfo(float).eps * np.linalg.norm(np.abs(rhs) + abs(S) @ np.abs(x)) / np.linalg.norm(rhs)
    tracemalloc.start()
    try:
        floor = _rounding_floor(S, rhs, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert floor.hex() == float(want).hex()
    # |data| and a few vectors: no copy of the indices (half of data's bytes here)
    assert peak <= S.data.nbytes + 6 * rhs.nbytes < S.data.nbytes + S.indices.nbytes


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
    for x0 in (None, np.ones(4)):  # the start is ignored
        x, report = cg_solve(A, np.zeros(4), x0=x0)
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


def test_unpreconditioned_cg_converges():
    S, _, _ = be_system(3)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(S.shape[0])
    _, report = cg_solve(S, rhs, tol=1e-12)
    assert report.converged


def test_exact_start_converges_in_no_iterations():
    S, own, space = be_system(2, dt=1e-2)
    rhs = np.random.default_rng(4).standard_normal(S.shape[0])
    x0 = spla.spsolve(S.tocsc(), rhs)
    kept = x0.copy()
    x, report = cg_solve(S, rhs, preconditioner=block_jacobi_preconditioner(S, own), x0=x0)
    assert report.converged and report.iterations == 0
    assert np.array_equal(x, x0) and x is not x0
    assert np.array_equal(x0, kept)


def test_perturbed_start_meets_the_rhs_relative_bound():
    # the stopping rule stays relative to ||rhs||, not to the first residual
    S, own, space = be_system(2, dt=1e-2)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(S.shape[0])
    x0 = spla.spsolve(S.tocsc(), rhs) + 1e-3 * rng.standard_normal(S.shape[0])
    kept = x0.copy()
    x, report = cg_solve(S, rhs, tol=1e-12, preconditioner=block_jacobi_preconditioner(S, own), x0=x0)
    assert report.converged and report.iterations > 0
    assert np.linalg.norm(rhs - S @ x) <= 1e-12 * np.linalg.norm(rhs)
    assert np.array_equal(x0, kept)


def test_start_dimension_mismatch():
    with pytest.raises(SolverError):
        cg_solve(sp.identity(4, format="csr"), np.ones(4), x0=np.ones(3))


@pytest.mark.parametrize("level", [1, 2])
def test_matches_dense_direct_solve(level):
    S, own, space = be_system(level, dt=1e-2)
    rng = np.random.default_rng(level)
    rhs = rng.standard_normal(S.shape[0])
    x, report = cg_solve(S, rhs, tol=1e-13, preconditioner=block_jacobi_preconditioner(S, own))
    x_dense = np.linalg.solve(S.toarray(), rhs)
    assert report.converged
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8


def test_max_iter_reports_failure():
    S, _, _ = be_system(2)
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
    S, own, space = be_system(2, dt=1e-2)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(S.shape[0])
    x, report = cg_solve(S, rhs, tol=1e-20, preconditioner=block_jacobi_preconditioner(S, own))
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
    # block Jacobi alone and with the coarse correction: both are SPD
    step = ops.M_blocks.plus(dt, ops.A_blocks)
    S, own = step.tocsr(), step.own()
    rng = np.random.default_rng(p)
    for B in (block_jacobi_preconditioner(S, own), two_level(S, own, ops.space, bc_mode)):
        for _ in range(5):
            x, y = rng.standard_normal((2, S.shape[0]))
            Bx, By = B(x), B(y)
            assert abs(x @ By - y @ Bx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)
            assert x @ Bx > 0.0


def test_two_level_iterations_bounded_in_h():
    # at dt = 0.1 the system is stiffness dominated: block-Jacobi CG needs
    # more iterations on every refinement, the coarse solve keeps them flat.
    # The periodic P1 space folds the seam, so no coarse grid carries the
    # finest grid's seam penalty: its counts (31 to 32 here) are flat and
    # within 2 of the walls' (32 to 34).
    two_level_iters = {}
    for bc_mode in BC_MODES:
        block_iters, two_level_iters[bc_mode] = [], []
        for level in (3, 4, 5, 6):
            S, own, space = be_system(level, dt=0.1, bc_mode=bc_mode)
            rhs = np.random.default_rng(level).standard_normal(S.shape[0])
            _, block = cg_solve(S, rhs, preconditioner=block_jacobi_preconditioner(S, own))
            x, report = cg_solve(S, rhs, preconditioner=two_level(S, own, space, bc_mode))
            x_direct = spla.splu(S.tocsc()).solve(rhs)
            assert block.converged and report.converged
            assert np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) < 1e-8
            block_iters.append(block.iterations)
            two_level_iters[bc_mode].append(report.iterations)
        assert all(a < b for a, b in zip(block_iters, block_iters[1:])), block_iters
        assert max(two_level_iters[bc_mode]) < 60, two_level_iters
    periodic, walls = two_level_iters["periodic"], two_level_iters["dirichlet_lateral"]
    assert max(periodic) - min(periodic) <= 2, two_level_iters
    assert all(abs(a - b) <= 2 for a, b in zip(periodic, walls)), two_level_iters


@pytest.mark.parametrize("bc_mode", BC_MODES)
def test_p1_prolongation_is_nested_interpolation(bc_mode):
    # level l - 1's P1 space lies in level l's: linear functions (periodic
    # ones, linear in y, if the seam is folded) are reproduced, and the
    # Galerkin product of the fine P1 mass (domain plus gamma1) is the
    # coarse one, which bilinear interpolation, the other diagonal or an
    # unfolded seam would not give
    rng = np.random.default_rng(4)

    def p1_mass(mesh):
        space = DGSpace(mesh, 1)
        edges = classify_edges(mesh, bc_mode)
        P = conforming_p1_embedding(space, edges)
        return (P.T @ assemble_mass(mesh, edges, space, 10.0).tobsr() @ P).toarray()

    def linear(mesh):
        numbers = p1_vertices(mesh, bc_mode)
        values = np.empty(numbers.max() + 1)
        values[numbers] = a + b * mesh.vertices[:, 0] + c * mesh.vertices[:, 1]
        return values

    for level in range(1, 6):
        coarse, fine = build_structured_mesh(level - 1), build_structured_mesh(level)
        R = p1_prolongation(2 ** (level - 1), bc_mode)
        a, b, c = rng.standard_normal(3)
        if bc_mode == PERIODIC:
            b = 0.0
        np.testing.assert_allclose(R @ linear(coarse), linear(fine), rtol=0, atol=1e-14)
        M_coarse = p1_mass(coarse)
        np.testing.assert_allclose(R.T @ (R.T @ p1_mass(fine)).T, M_coarse, rtol=0, atol=1e-14 * np.abs(M_coarse).max())


def test_v_cycle_without_coarser_levels_is_the_exact_solve():
    S, own, space = be_system(3, dt=0.1)
    P = conforming_p1_embedding(space, classify_edges(space.mesh))
    C = P.T @ S @ P
    r = np.random.default_rng(6).standard_normal(C.shape[0])
    expected = np.linalg.solve(C.toarray(), r)
    assert np.linalg.norm(v_cycle(C, [])(r) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_v_cycle_is_spd_and_contracts_on_the_periodic_seam():
    # with the seam folded every level's Galerkin matrix has row ratio
    # sum_j |a_ij| / a_ii <= 2 / JACOBI_WEIGHT, so by Gershgorin each
    # smoothing sweep contracts and every eigenvalue of V C lies in (0, 1]:
    # V is SPD and I - V C an energy-norm contraction
    for bc_mode in BC_MODES:
        S, own, space = be_system(5, dt=0.1, bc_mode=bc_mode)
        P = conforming_p1_embedding(space, classify_edges(space.mesh, bc_mode))
        prolongations = p1_prolongations(space.mesh, bc_mode)
        C = (P.T @ S @ P).toarray()
        levels = [C]
        for R in prolongations:
            levels.append(R.T @ levels[-1] @ R)
        for C_k in levels:
            assert (np.abs(C_k).sum(axis=1) / np.diag(C_k)).max() <= 2.0 / JACOBI_WEIGHT, bc_mode
        V = v_cycle(C, prolongations)
        V_matrix = np.column_stack([V(e) for e in np.eye(len(C))])
        assert np.abs(V_matrix - V_matrix.T).max() <= 1e-12 * np.abs(V_matrix).max()
        L = np.linalg.cholesky(C)
        eig = np.linalg.eigvalsh(L.T @ V_matrix @ L)
        assert eig.min() > 0.1 and eig.max() <= 1.0 + 1e-10, (bc_mode, eig.min(), eig.max())


def test_non_positive_galerkin_diagonal_is_a_solver_error():
    # gamma = 0.5 is not coercive with Dirichlet walls: the P1 hat function
    # of each corner vertex has p' A p < 0, a proof that A is not SPD, which
    # the V-cycle reports instead of dividing by it
    config = ProblemConfig(level=3, p=1, bc_mode="dirichlet_lateral", gamma=0.5)
    ops = build_operators(config)
    A, own = ops.A_blocks.tocsr(), ops.A_blocks.own()
    P = conforming_p1_embedding(ops.space, ops.edges)
    assert (P.T @ A @ P).diagonal().min() <= 0.0
    with pytest.raises(SolverError, match="coarse matrix not positive definite"):
        two_level(A, own, ops.space, "dirichlet_lateral")
