import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgdyn.assembly import BlockTable, FormParams, assemble_Ah, assemble_mass
from dgdyn.config import ProblemConfig
from dgdyn.mesh import PERIODIC, build_structured_mesh, classify_edges, p1_prolongation, p1_prolongations, p1_vertices
from dgdyn.solver import (
    FLOOR_ROWS,
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
    # four elements in two cells, blocks of size 3 of four types: elements
    # 0 and 2 own type 1 and elements 1 and 3 type 2; cell 0 stores no
    # block between its elements, cell 1 one (element 2's row, element 3's
    # column), so its block differs from cell 0's by that block alone
    b = 3
    table = np.random.default_rng(5).integers(-9, 10, size=(4, b, b)).astype(float)
    indices, indptr = np.array([0, 2, 1, 0, 2, 3, 1, 3]), np.array([0, 2, 3, 6, 8])
    blocks = BlockTable(indices, indptr, np.array([1, 0, 2, 3, 1, 0, 3, 2]), table)
    dense = blocks.tobsr().toarray()
    diagonal = blocks.own()
    own, kind = diagonal.blocks, diagonal.kind
    expected = np.stack([dense[c * 2 * b : (c + 1) * 2 * b, c * 2 * b : (c + 1) * 2 * b] for c in range(2)])
    np.testing.assert_array_equal(own[kind], expected)
    np.testing.assert_array_equal(own[kind[0]], np.block([[table[1], np.zeros((b, b))], [np.zeros((b, b)), table[2]]]))
    np.testing.assert_array_equal(own[kind[1]], np.block([[table[1], table[0]], [np.zeros((b, b)), table[2]]]))
    assert len(own) == 2


def test_own_blocks_group_cells_exactly_with_many_types():
    # 1 x 1 blocks of 60001 types, more than a distorted mesh's step system
    # holds: each element stores its own block, its cell partner's and one
    # in the next cell; every second cell differs from the one before in
    # its first element's own type alone, and cells 0 to 99 come twice
    n_cells, n_types = 400, 60001
    rng = np.random.default_rng(7)
    slots = rng.integers(0, n_types, size=(n_cells, 4))
    slots[1::2] = slots[::2] + [1, 0, 0, 0]
    slots[300:] = slots[:100]
    n_el = 2 * n_cells
    rows = np.repeat(np.arange(n_el), 3)
    cols = np.stack([np.arange(n_el), np.arange(n_el) ^ 1, (np.arange(n_el) + 2) % n_el], axis=1).ravel()
    types = np.stack([slots[:, [0, 3]].ravel(), slots[:, [1, 2]].ravel(), rng.integers(0, n_types, n_el)], axis=1).ravel()
    order = np.lexsort((cols, rows))
    table = rng.standard_normal((n_types, 1, 1))
    blocks = BlockTable(cols[order], np.arange(0, 3 * n_el + 1, 3), types[order], table)
    diagonal, dense = blocks.own(), blocks.tobsr().toarray()
    expected = np.stack([dense[2 * c : 2 * c + 2, 2 * c : 2 * c + 2] for c in range(n_cells)])
    np.testing.assert_array_equal(diagonal.blocks[diagonal.kind], expected)
    np.testing.assert_array_equal(blocks.cells(), slots)
    assert len(diagonal.blocks) == len(np.unique(slots, axis=0)) == n_cells - 100


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc_mode", BC_MODES)
def test_block_jacobi_solves_each_cell_block(p, bc_mode):
    # the preconditioner applies the inverse of each cell's own block of
    # the backward Euler system, its two elements' blocks and the coupling
    # across their shared diagonal, read off the dense matrix
    S, own, space = be_system(3, p=p, bc_mode=bc_mode)
    b = 2 * space.n_local
    dense = S.toarray()
    r = np.random.default_rng(p).standard_normal(S.shape[0])
    want = np.concatenate([np.linalg.solve(dense[i : i + b, i : i + b], r[i : i + b]) for i in range(0, len(r), b)])
    got = block_jacobi_preconditioner(S, own)(r)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("level", [4, 6])
def test_rounding_floor_reads_the_system_in_place(level):
    # eps || |rhs| + |A| |x| || / ||rhs|| with |A| on A's own index arrays,
    # FLOOR_ROWS rows at a time (level 6 takes six chunks): bitwise the
    # floor with scipy's abs(A), which copies all of them
    S, _, _ = be_system(level, p=2, bc_mode="dirichlet_lateral")
    rhs, x = np.random.default_rng(8).standard_normal((2, S.shape[0]))
    want = np.finfo(float).eps * np.linalg.norm(np.abs(rhs) + abs(S) @ np.abs(x)) / np.linalg.norm(rhs)
    tracemalloc.start()
    try:
        floor = _rounding_floor(S, rhs, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert floor.hex() == float(want).hex()
    # one chunk's |data|, its indices if it is a slice (scipy copies those)
    # and a few vectors: at level 6 never |A| whole, and never a copy of
    # all the indices
    chunk = np.diff(np.append(S.indptr[::FLOOR_ROWS], S.nnz)).max()
    assert peak <= min(12 * chunk, S.data.nbytes) + 6 * rhs.nbytes < S.data.nbytes + S.indices.nbytes
    assert level < 6 or peak < S.data.nbytes


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
    for x0, r0 in ((None, None), (np.ones(4), None), (np.ones(4), -np.ones(4))):  # the start is ignored
        x, report = cg_solve(A, np.zeros(4), x0=x0, r0=r0)
        assert not x.any() and not report.residual.any()
        assert report.iterations == 0
        assert report.converged


def test_given_start_residual_replaces_the_first_product():
    # with r0 = rhs - S x0 the solve makes one product per iteration and
    # one for the final check, where from x0 alone it makes one more; the
    # report carries the final true residual, and convergence is proven by
    # it even when r0 already meets the tolerance
    S, own, _ = be_system(3)
    products = []

    class Counted(sp.csr_matrix):
        def __matmul__(self, other):
            products.append(1)
            return super().__matmul__(other)

    rng = np.random.default_rng(4)
    rhs, x0 = rng.standard_normal((2, S.shape[0]))
    r0 = rhs - S @ x0
    prec = block_jacobi_preconditioner(S, own)
    x, report = cg_solve(Counted(S), rhs, preconditioner=prec, x0=x0, r0=r0.copy())
    assert report.converged and len(products) == report.iterations + 1
    assert np.array_equal(report.residual, rhs - S @ x)
    products.clear()
    _, plain = cg_solve(Counted(S), rhs, preconditioner=prec, x0=x0)
    assert len(products) == plain.iterations + 2
    # an r0 within the tolerance still ends with one true product
    products.clear()
    x, report = cg_solve(Counted(S), rhs, preconditioner=prec, x0=x, r0=np.zeros_like(rhs))
    assert report.iterations == 0 and len(products) == 1 and report.converged


def test_in_place_updates_make_the_textbook_iterates():
    # CG's in-place updates give bitwise the values of the textbook PCG,
    # which forms every update in temporaries: the same residual handed to
    # the preconditioner at each iteration, the same solution and count, on
    # a level-3 two-level system; the given start is never written
    S, own, space = be_system(3, dt=0.1)
    B = two_level(S, own, space)
    rng = np.random.default_rng(11)
    rhs, x0 = rng.standard_normal((2, S.shape[0]))
    start = x0.copy()

    def recording(residuals):
        def apply(r):
            residuals.append(r.copy())
            return B(r)

        return apply

    textbook_residuals = []
    prec = recording(textbook_residuals)
    x = x0.copy()
    r = rhs - S @ x
    z = prec(r)
    p, rz, iterations = z, r @ z, 0
    while np.linalg.norm(r) > 1e-12 * np.linalg.norm(rhs):
        Ap = S @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        z = prec(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1

    residuals = []
    got, report = cg_solve(S, rhs, preconditioner=recording(residuals), x0=x0)
    assert report.converged and report.iterations == iterations > 10
    assert got.tobytes() == x.tobytes()
    assert len(residuals) == len(textbook_residuals)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(residuals, textbook_residuals))
    assert x0.tobytes() == start.tobytes()


@pytest.mark.parametrize("preconditioner", ["none", "two-level"])
def test_cg_never_writes_a_callers_start_unless_told_to(preconditioner):
    # from a given x0 (with or without its residual r0) CG works in a copy,
    # so the caller's x0 keeps its bytes; with overwrite_x0 it works in x0
    # itself and returns it, with bitwise the same solution and count
    S, own, space = be_system(3, dt=0.1)
    B = None if preconditioner == "none" else two_level(S, own, space)
    rng = np.random.default_rng(12)
    rhs, start = rng.standard_normal((2, S.shape[0]))
    r_start = rhs - S @ start
    solutions = []
    for r0 in (None, r_start):
        x0 = start.copy()
        x, report = cg_solve(S, rhs, preconditioner=B, x0=x0, r0=None if r0 is None else r0.copy())
        assert report.converged and x is not x0 and x0.tobytes() == start.tobytes()
        own_x, own_report = cg_solve(S, rhs, preconditioner=B, x0=x0, r0=None if r0 is None else r0.copy(), overwrite_x0=True)
        assert own_x is x0 and own_x.tobytes() == x.tobytes() and own_report.iterations == report.iterations
        solutions.append(x)
    assert solutions[0].tobytes() == solutions[1].tobytes()


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bc_mode", BC_MODES)
def test_two_level_apply_is_bitwise_the_one_with_the_matrix_p(p, bc_mode):
    # the gathered P, the Galerkin matrix set up as P' S (P')' and the
    # correction added in place give bitwise B r = smoother(r) + P V P' r
    # with P the CSR matrix and P' S P
    S, own, space = be_system(4, p=p, dt=0.1, bc_mode=bc_mode)
    embedding = conforming_p1_embedding(space, classify_edges(space.mesh, bc_mode))
    PT = embedding.restriction
    P = PT.T.tocsr()
    smoother = block_jacobi_preconditioner(S, own)
    prolongations = p1_prolongations(space.mesh, bc_mode)
    V = v_cycle(PT @ S @ P, prolongations)
    B = two_level_preconditioner(smoother, S, embedding, prolongations)
    for r in np.random.default_rng(p).standard_normal((3, S.shape[0])):
        assert B(r).tobytes() == (smoother(r) + P @ V(PT @ r)).tobytes()


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
    # finest grid's seam penalty: its counts (28 to 29 here) are flat and
    # within 2 of the walls' (28 to 29).
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
        PT = conforming_p1_embedding(space, edges).restriction
        return (PT @ assemble_mass(mesh, edges, space, 10.0).tobsr() @ PT.T).toarray()

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
    PT = conforming_p1_embedding(space, classify_edges(space.mesh)).restriction
    C = PT @ S @ PT.T
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
        PT = conforming_p1_embedding(space, classify_edges(space.mesh, bc_mode)).restriction
        prolongations = p1_prolongations(space.mesh, bc_mode)
        C = (PT @ S @ PT.T).toarray()
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
    PT = conforming_p1_embedding(ops.space, ops.edges).restriction
    assert (PT @ A @ PT.T).diagonal().min() <= 0.0
    with pytest.raises(SolverError, match="coarse matrix not positive definite"):
        two_level(A, own, ops.space, "dirichlet_lateral")
