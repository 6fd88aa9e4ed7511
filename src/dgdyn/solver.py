"""Preconditioned conjugate gradients for the SPD systems of the scheme."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt

import numpy as np
import scipy.sparse as sp

# The V-cycle solves its coarsest grid, at most 9 x 9 vertices (level 3),
# exactly.  Its smoother is damped Jacobi, z_i = r_i / d_i with
# d_i = max(a_ii / 0.8, sum_j |a_ij| / 1.9): weight 0.8 wherever
# sum_j |a_ij| / a_ii <= 2.375 (2 for the P1 stiffness), less on the
# periodic seam of the coarser grids, whose Galerkin matrices keep the
# finest grid's penalty (ratio 2.95, lambda_max(D^-1 A) 2.86 from level 7,
# dt = 0.1).  By Gershgorin lambda_max(R A) <= 1.9 < 2, so every sweep
# contracts in the energy norm and the symmetric cycle is positive definite.
COARSEST_VERTICES = 81
JACOBI_WEIGHT = 0.8
GERSHGORIN_BOUND = 1.9
JACOBI_SWEEPS = 2


class SolverError(Exception):
    """Raised on dimension mismatch, breakdown or non-finite arithmetic."""


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def element_blocks(A: sp.spmatrix, block_size: int) -> np.ndarray:
    """The diagonal blocks of A in the block-per-element dof layout, shape
    (n // block_size, block_size, block_size): element e's own block.  A
    block matrix of that block size is read as it is, without a copy."""
    n = A.shape[0]
    if n % block_size:
        raise SolverError("matrix size is not a multiple of the block size")
    B = sp.bsr_matrix(A, blocksize=(block_size, block_size))  # sums duplicate entries
    rows = np.repeat(np.arange(n // block_size), np.diff(B.indptr))
    own = B.indices == rows
    out = np.zeros((n // block_size, block_size, block_size))
    out[rows[own]] = B.data[own]
    return out


def block_jacobi_preconditioner(A: sp.spmatrix, block_size: int):
    """Inverse of the element-block diagonal of A.

    With the block-per-element dof layout this captures the full mass block
    and the local stiffness/penalty couplings, which keeps iteration counts
    bounded for stiffness-dominated steps where plain Jacobi degrades."""
    inv = np.linalg.inv(element_blocks(A, block_size))
    nb = len(inv)

    def apply(r):
        return np.einsum("bij,bj->bi", inv, r.reshape(nb, block_size)).ravel()

    return apply


def p1_prolongation(n: int) -> sp.csr_matrix:
    """Interpolation of conforming P1 functions from the row-major (n+1)^2
    vertex grid of a structured mesh onto the (2n+1)^2 grid of its
    refinement.  A fine vertex is a coarse vertex or the midpoint of a
    coarse edge: horizontal, vertical, or the lower-left to upper-right
    diagonal of a cell.  It takes the mean of that edge's two ends, which
    for a coarse vertex are itself twice."""
    m = 2 * n + 1
    j, i = np.divmod(np.arange(m * m), m)
    ends = np.column_stack([(j // 2) * (n + 1) + i // 2, ((j + 1) // 2) * (n + 1) + (i + 1) // 2])
    rows = np.repeat(np.arange(m * m), 2)
    return sp.csr_matrix((np.full(2 * m * m, 0.5), (rows, ends.ravel())), shape=(m * m, (n + 1) ** 2))


def v_cycle(A: sp.spmatrix, prolongations):
    """One symmetric V-cycle for the SPD matrix A, as a callable r -> z.

    ``prolongations[k]`` maps level k + 1 onto level k, level 0 being A's.
    Each level below takes the Galerkin matrix P' A_k P; each level above
    the coarsest smooths with damped Jacobi before and after its coarse
    correction, and the coarsest is solved exactly.  With no prolongation
    the cycle is the exact solve.
    """
    mats = [sp.csr_matrix(A)]
    for P in prolongations:
        mats.append((P.T @ mats[-1] @ P).tocsr())
    restrictions = [P.T.tocsr() for P in prolongations]
    weights = [
        1.0 / np.maximum(M.diagonal() / JACOBI_WEIGHT, abs(M) @ np.ones(M.shape[0]) / GERSHGORIN_BOUND)
        for M in mats[:-1]
    ]
    coarsest = np.linalg.inv(mats[-1].toarray())

    def cycle(k, r):
        if k == len(prolongations):
            return coarsest @ r
        A_k, d = mats[k], weights[k]
        x = d * r
        for _ in range(JACOBI_SWEEPS - 1):
            x += d * (r - A_k @ x)
        x += prolongations[k] @ cycle(k + 1, restrictions[k] @ (r - A_k @ x))
        for _ in range(JACOBI_SWEEPS):
            x += d * (r - A_k @ x)
        return x

    return lambda r: cycle(0, r)


def two_level_preconditioner(smoother, P: sp.spmatrix, coarse: sp.spmatrix):
    """Additive two-level preconditioner B r = smoother(r) + P V P' r.

    ``P`` embeds the conforming-P1 space of a structured mesh, its
    row-major (N+1)^2 vertex grid, into the unknowns and ``coarse`` is the
    Galerkin matrix P' A P.  V is one V-cycle for ``coarse`` on the nested
    P1 grids, down to at most COARSEST_VERTICES (Gopalakrishnan & Kanschat,
    Numer. Math. 95, 2003).  The block-Jacobi smoother alone needs a
    number of iterations growing like 1/h when the system is stiffness
    dominated; the coarse correction removes the smooth error it cannot
    reach (Dobrev, Lazarov, Vassilevski & Zikatanov, Numer. Linear Algebra
    Appl. 13, 2006).  The additive form is SPD whenever the smoother, V and
    A are, so it preconditions CG as it is.
    """
    n = isqrt(coarse.shape[0]) - 1
    prolongations = []
    while (n + 1) ** 2 > COARSEST_VERTICES:
        n //= 2
        prolongations.append(p1_prolongation(n))
    V = v_cycle(coarse, prolongations)
    PT = P.T.tocsr()
    return lambda r: smoother(r) + P @ V(PT @ r)


def cg_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner=None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs for symmetric positive definite A.

    ``preconditioner`` is a callable r -> z, the identity when None.  Returns
    the solution and a report; convergence means the true residual satisfies
    ||A x - rhs|| <= tol ||rhs||, or, once restarts stop reducing it, lies
    within the rounding floor eps || |rhs| + |A| |x| || / ||rhs||.  Running
    out of iterations is never convergence.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or rhs.shape != (n,):
        raise SolverError(f"dimension mismatch: A {A.shape}, rhs {rhs.shape}")
    if max_iter is None:
        max_iter = 10 * n

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    apply_prec = (lambda r: r) if preconditioner is None else preconditioner

    x = np.zeros(n)
    history: list[float] = []
    iterations = 0
    previous_rel = np.inf

    # The inner loop drives the recursive residual below tol; after long
    # solves the recursive and true residuals drift apart by rounding, so
    # the true residual is verified and the iteration restarted from the
    # current iterate (which resets the drift) while that reduces it.  A
    # restart that does not has reached the attainable accuracy (Greenbaum,
    # SIAM J. Matrix Anal. Appl. 18, 1997): the solve converged if the true
    # residual lies within the rounding of rhs - A x itself.  That floor can
    # exceed tol: about 1.8e-12 for the level-7 backward Euler system, where
    # even a direct solve leaves 1.0e-12.
    for restart in itertools.count():
        r = rhs - A @ x if restart else rhs.copy()
        true_rel = float(np.linalg.norm(r) / rhs_norm)
        if true_rel <= tol:
            return x, SolveReport(iterations, true_rel, True, history)
        if true_rel >= previous_rel:
            floor = np.finfo(float).eps * np.linalg.norm(np.abs(rhs) + abs(A) @ np.abs(x)) / rhs_norm
            return x, SolveReport(iterations, true_rel, bool(true_rel <= floor), history)
        previous_rel = true_rel
        z = apply_prec(r)
        p = z.copy()
        rz = r @ z
        history.append(np.sqrt(abs(rz)))
        while iterations < max_iter:
            Ap = A @ p
            pAp = p @ Ap
            if not np.isfinite(pAp):
                raise SolverError("non-finite value in CG (corrupted matrix?)")
            if pAp <= 0.0:
                raise SolverError("non-positive curvature in CG; matrix is not SPD")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            z = apply_prec(r)
            rz_new = r @ z
            history.append(np.sqrt(abs(rz_new)))
            p = z + (rz_new / rz) * p
            rz = rz_new
            iterations += 1
            if np.linalg.norm(r) <= tol * rhs_norm:
                break
        else:
            break  # max_iter exhausted

    true_rel = float(np.linalg.norm(rhs - A @ x) / rhs_norm)
    return x, SolveReport(iterations, true_rel, bool(true_rel <= tol), history)
