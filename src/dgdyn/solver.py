"""Preconditioned conjugate gradients for the SPD systems of the scheme."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# The V-cycle's smoother is damped Jacobi, z_i = JACOBI_WEIGHT r_i / a_ii.
# On the conforming-P1 Galerkin matrices of the SPD systems measured,
# sum_j |a_ij| / a_ii <= 2 < 2 / JACOBI_WEIGHT, so by Gershgorin every
# sweep contracts in the energy norm and the symmetric cycle is SPD.
JACOBI_WEIGHT = 0.8
JACOBI_SWEEPS = 2


class SolverError(Exception):
    """Raised on dimension mismatch, breakdown or non-finite arithmetic."""


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def block_jacobi_preconditioner(A: sp.spmatrix, own):
    """Inverse of the element-block diagonal of the system A, given as
    ``own`` (a ``BlockDiagonal``, see ``BlockTable.own``): each distinct
    block is inverted once, and A itself is not read.

    With the block-per-element dof layout this captures the full mass block
    and the local stiffness/penalty couplings, which keeps iteration counts
    bounded for stiffness-dominated steps where plain Jacobi degrades.  The
    inverse is applied over the mesh's cells, never expanded per element."""
    inv = own.inverse()
    return lambda r: inv @ r


def v_cycle(A: sp.spmatrix, prolongations):
    """One symmetric V-cycle for the SPD matrix A, as a callable r -> z.

    ``prolongations[k]`` maps level k + 1 onto level k, level 0 being A's.
    Each level below takes the Galerkin matrix P' A_k P; each level above
    the coarsest smooths with damped Jacobi before and after its coarse
    correction, and the coarsest is solved exactly.  With no prolongation
    the cycle is the exact solve.  A non-positive diagonal entry on any
    level proves A is not SPD and raises SolverError.
    """
    mats = [sp.csr_matrix(A)]
    for P in prolongations:
        mats.append((P.T @ mats[-1] @ P).tocsr())
    diagonals = [M.diagonal() for M in mats]
    if any((d <= 0.0).any() for d in diagonals):
        raise SolverError("coarse matrix not positive definite; penalty too small?")
    restrictions = [P.T.tocsr() for P in prolongations]
    weights = [JACOBI_WEIGHT / d for d in diagonals[:-1]]
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


def two_level_preconditioner(smoother, S: sp.spmatrix, P: sp.spmatrix, prolongations):
    """Additive two-level preconditioner B r = smoother(r) + P V P' r for S.

    ``P`` embeds a coarse space into the unknowns, and V is one V-cycle for
    P' S P over ``prolongations``.  With a structured mesh's conforming P1
    space and its nested grids, the coarse correction removes the smooth
    error that block Jacobi alone needs O(1/h) iterations for once the
    system is stiffness dominated (Gopalakrishnan & Kanschat, Numer. Math.
    95, 2003; Dobrev, Lazarov, Vassilevski & Zikatanov, Numer. Linear
    Algebra Appl. 13, 2006).  B is SPD whenever the smoother, V and S are.
    """
    PT = P.T.tocsr()
    V = v_cycle(PT @ S @ P, prolongations)
    return lambda r: smoother(r) + P @ V(PT @ r)


def cg_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner=None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs for symmetric positive definite A.

    ``preconditioner`` is a callable r -> z, the identity when None.  CG
    starts from a copy of ``x0`` (zero when None), which is never written.
    Returns the solution and a report; convergence means the true residual
    satisfies ||A x - rhs|| <= tol ||rhs||, relative to rhs whatever the
    start, or, once restarts stop reducing it, lies within the rounding
    floor eps || |rhs| + |A| |x| || / ||rhs||.  Running out of iterations is
    never convergence.  A zero rhs returns zero at once.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if A.shape != (n, n) or rhs.shape != (n,) or x.shape != (n,):
        raise SolverError(f"dimension mismatch: A {A.shape}, rhs {rhs.shape}, x0 {x.shape}")
    if max_iter is None:
        max_iter = 10 * n

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    apply_prec = (lambda r: r) if preconditioner is None else preconditioner
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
    while True:
        r = rhs - A @ x
        true_rel = float(np.linalg.norm(r) / rhs_norm)
        if true_rel <= tol:
            return x, SolveReport(iterations, true_rel, True)
        if true_rel >= previous_rel:
            return x, SolveReport(iterations, true_rel, bool(true_rel <= _rounding_floor(A, rhs, x)))
        previous_rel = true_rel
        z = apply_prec(r)
        p = z.copy()
        rz = r @ z
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
            p = z + (rz_new / rz) * p
            rz = rz_new
            iterations += 1
            if np.linalg.norm(r) <= tol * rhs_norm:
                break
        else:
            break  # max_iter exhausted

    true_rel = float(np.linalg.norm(rhs - A @ x) / rhs_norm)
    return x, SolveReport(iterations, true_rel, bool(true_rel <= tol))


def _rounding_floor(A: sp.spmatrix, rhs: np.ndarray, x: np.ndarray) -> float:
    """eps || |rhs| + |A| |x| || / ||rhs||, the rounding of rhs - A x.  |A|
    is the absolute values on A's own index arrays, which scipy's ``abs``
    would copy as well: 18 MB of the 52.5 MB system at level 7, p = 2."""
    A = sp.csr_matrix(A)
    abs_A = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    return float(np.finfo(float).eps * np.linalg.norm(np.abs(rhs) + abs_A @ np.abs(x)) / np.linalg.norm(rhs))
