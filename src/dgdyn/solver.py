"""Preconditioned conjugate gradients for the SPD systems of the scheme."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    (n // block_size, block_size, block_size): element e's own block."""
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


def two_level_preconditioner(smoother, P: sp.spmatrix, coarse: sp.spmatrix):
    """Additive two-level preconditioner B r = smoother(r) + P coarse^-1 P' r.

    ``P`` embeds a coarse space into the unknowns and ``coarse`` is the
    Galerkin matrix P' A P, factored here once.  The block-Jacobi smoother
    alone needs a number of iterations growing like 1/h when the system is
    stiffness dominated; the exact coarse solve removes the smooth error it
    cannot reach (Dobrev, Lazarov, Vassilevski & Zikatanov, Numer. Linear
    Algebra Appl. 13, 2006).  The additive form is SPD whenever the smoother
    and A are, so it preconditions CG as it is.
    """
    # minimum degree on coarse' + coarse: 1.34 M nonzeros in the level-7
    # P1 factors against 2.26 M with the default COLAMD ordering
    lu = spla.splu(sp.csc_matrix(coarse), permc_spec="MMD_AT_PLUS_A")
    PT = P.T.tocsr()
    return lambda r: smoother(r) + P @ lu.solve(PT @ r)


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
