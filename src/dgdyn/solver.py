"""Preconditioned CG for the SPD systems of the scheme: cell-block Jacobi and a one-sweep V-cycle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# The V-cycle smooths with one damped-Jacobi sweep, z_i = JACOBI_WEIGHT r_i /
# a_ii, before and one after each coarse correction.  On the conforming-P1
# Galerkin matrices of the SPD systems measured, sum_j |a_ij| / a_ii <= 2 <
# 2 / JACOBI_WEIGHT, so by Gershgorin every sweep contracts in the energy
# norm and the symmetric cycle is SPD.
JACOBI_WEIGHT = 0.8
FLOOR_ROWS = 2**13  # rows of |A| that ``_rounding_floor`` holds at once
# A hint names every flag that scales the system; a command's error line
# keeps those it accepts (``cli.accepted_hints``).
NON_FINITE = "non-finite value in CG: the system or data overflow floating point (lower --gamma, --alpha, --beta, --lambda or --dt)"


class SolverError(Exception):
    """Raised on dimension mismatch, breakdown or non-finite arithmetic."""


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual: np.ndarray | None = None  # the final true residual rhs - A x


def block_jacobi_preconditioner(A: sp.spmatrix, own):
    """Inverse of the cell-block diagonal of the system A, given as
    ``own`` (a ``BlockDiagonal``, see ``BlockTable.own``): each distinct
    block is inverted once, and A itself is not read.

    A cell's block holds its two elements' own blocks and the coupling
    across their shared diagonal, which keeps iteration counts bounded for
    stiffness-dominated steps where plain Jacobi degrades.  The inverse is
    applied over the mesh's cells, never expanded per cell."""
    inv = own.inverse()
    return lambda r: inv @ r


def v_cycle(A: sp.spmatrix, prolongations):
    """One symmetric V-cycle for the SPD matrix A, as a callable r -> z.

    ``prolongations[k]`` maps level k + 1 onto level k, level 0 being A's.
    Each level below takes the Galerkin matrix P' A_k P; each level above
    the coarsest smooths with one damped-Jacobi sweep before and one after
    its coarse correction, and the coarsest is solved exactly.  With no
    prolongation the cycle is the exact solve.  A non-positive diagonal
    entry on any level proves A is not SPD and raises SolverError, as does
    a coarsest matrix that is singular in floating point.
    """
    mats = [sp.csr_matrix(A)]
    for P in prolongations:
        mats.append((P.T @ mats[-1] @ P).tocsr())
    diagonals = [M.diagonal() for M in mats]
    if any((d <= 0.0).any() for d in diagonals):
        raise SolverError(
            "coarse matrix not positive definite: either the penalty is too small for coercivity (raise --gamma) "
            "or the system is too stiff for floating point (lower --gamma or --dt)"
        )
    restrictions = [P.T.tocsr() for P in prolongations]
    weights = [JACOBI_WEIGHT / d for d in diagonals[:-1]]
    try:
        coarsest = np.linalg.inv(mats[-1].toarray())
    except np.linalg.LinAlgError:  # one term swamps the others
        raise SolverError("coarsest matrix singular in floating point (lower --gamma, --alpha, --beta or --dt)") from None

    def cycle(k, r):
        if k == len(prolongations):
            return coarsest @ r
        A_k, d = mats[k], weights[k]
        x = d * r
        x += prolongations[k] @ cycle(k + 1, restrictions[k] @ (r - A_k @ x))
        x += d * (r - A_k @ x)
        return x

    return lambda r: cycle(0, r)


def two_level_preconditioner(smoother, S: sp.spmatrix, embedding, prolongations):
    """Additive two-level preconditioner B r = smoother(r) + P V P' r for S.

    ``embedding`` (a ``P1Embedding``) is P, which embeds a coarse space
    into the unknowns, held as a gather (``prolong``) and its transpose P'
    as CSR, and V is one V-cycle for the Galerkin matrix P' S P, set up as
    P' S (P')' with the same bits, over ``prolongations``.  With a
    structured mesh's conforming P1 space and its nested grids, the coarse
    correction removes the smooth error that block Jacobi alone needs
    O(1/h) iterations for once the system is stiffness dominated
    (Gopalakrishnan & Kanschat, Numer. Math. 95, 2003; Dobrev, Lazarov,
    Vassilevski & Zikatanov, Numer. Linear Algebra Appl. 13, 2006).  B is
    SPD whenever the smoother, V and S are.  The correction is added in
    place to the smoother's result, which must be a new array, so an apply
    holds two fine vectors beyond r.
    """
    PT = embedding.restriction
    V = v_cycle(PT @ S @ PT.T, prolongations)

    def apply(r):
        z = smoother(r)
        z += embedding.prolong(V(PT @ r))
        return z

    return apply


def cg_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner=None,
    x0: np.ndarray | None = None,
    r0: np.ndarray | None = None,
    overwrite_x0: bool = False,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs for symmetric positive definite A.

    ``preconditioner`` is a callable r -> z, the identity when None, which
    returns a new array.  CG starts from ``x0`` (zero when None) and works
    in a copy of it, so a caller's x0 is never written, unless
    ``overwrite_x0``: then a float x0 is itself the iterate and the
    solution returned.  ``r0``, if given, is the residual rhs - A x0, which
    CG takes in place of its first product and then updates in place.
    Returns the solution and a report, which carries the final true
    residual; convergence means the true residual satisfies
    ||A x - rhs|| <= tol ||rhs||, relative to rhs whatever the start, or,
    once restarts stop reducing it, lies within the rounding floor
    eps || |rhs| + |A| |x| || / ||rhs||.  So convergence is always proven
    by a true product, never by ``r0``.  Running out of iterations is
    never convergence.  A zero rhs returns zero at once.  Overflow and
    non-positive curvature raise a SolverError naming the flags.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else (np.asarray if overwrite_x0 else np.array)(x0, dtype=float)
    if A.shape != (n, n) or rhs.shape != (n,) or x.shape != (n,) or (r0 is not None and r0.shape != (n,)):
        shapes = f"A {A.shape}, rhs {rhs.shape}, x0 {x.shape}" + ("" if r0 is None else f", r0 {r0.shape}")
        raise SolverError(f"dimension mismatch: {shapes}")
    if max_iter is None:
        max_iter = 10 * n
    apply_prec = (lambda r: r.copy()) if preconditioner is None else preconditioner
    iterations, previous_rel = 0, np.inf

    # The inner loop drives the recursive residual below tol; after long
    # solves the recursive and true residuals drift apart by rounding, so
    # the true residual is verified and the iteration restarted from the
    # current iterate (which resets the drift) while that reduces it.  A
    # restart that does not has reached the attainable accuracy (Greenbaum,
    # SIAM J. Matrix Anal. Appl. 18, 1997): the solve converged if the true
    # residual lies within the rounding of rhs - A x itself.  That floor can
    # exceed tol: about 1.8e-12 for the level-7 backward Euler system, where
    # even a direct solve leaves 1.0e-12.  A given r0 is not a true
    # residual: it only starts the first pass.  Updates are made in place,
    # bitwise their textbook values, and a vector is dropped once it is
    # spent (z once added to p, A p's buffer once it has taken alpha p into
    # x), so the preconditioner, the solve's peak, runs beside x, r and p
    # alone.
    try:  # an overflow, or an invalid or zero divide, anywhere in the solve
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rhs_norm = np.linalg.norm(rhs)
            if rhs_norm == 0.0:
                return np.zeros(n), SolveReport(0, 0.0, True, np.zeros(n))
            r, checked = (_residual(A, rhs, x), True) if r0 is None else (r0, False)
            while True:
                rel = float(np.linalg.norm(r) / rhs_norm)
                if checked:
                    if rel <= tol:
                        return x, SolveReport(iterations, rel, True, r)
                    if rel >= previous_rel:
                        return x, SolveReport(iterations, rel, bool(rel <= _rounding_floor(A, rhs, x)), r)
                    previous_rel = rel
                if not rel <= tol:  # a NaN residual goes on to be refused
                    p = apply_prec(r)  # z, which the first direction is
                    rz = r @ p
                    while iterations < max_iter:
                        Ap = A @ p
                        pAp = p @ Ap
                        if not np.isfinite(pAp):
                            raise SolverError(NON_FINITE)
                        if pAp <= 0.0:
                            raise SolverError("non-positive curvature in CG: penalty too small for coercivity (raise --gamma)")
                        alpha = rz / pAp
                        Ap *= alpha
                        r -= Ap
                        x += np.multiply(p, alpha, out=Ap)
                        del Ap
                        z = apply_prec(r)
                        rz_new = r @ z
                        p *= rz_new / rz
                        p += z
                        del z
                        rz = rz_new
                        iterations += 1
                        if np.sqrt(r @ r) <= tol * rhs_norm:
                            break
                    else:
                        break  # max_iter exhausted
                r, checked = _residual(A, rhs, x), True

            r = _residual(A, rhs, x)
            true_rel = float(np.linalg.norm(r) / rhs_norm)
    except FloatingPointError:
        raise SolverError(NON_FINITE) from None
    return x, SolveReport(iterations, true_rel, bool(true_rel <= tol), r)


def _residual(A: sp.spmatrix, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rhs - A x, formed in the product's buffer."""
    r = A @ x
    return np.subtract(rhs, r, out=r)


def _rounding_floor(A: sp.spmatrix, rhs: np.ndarray, x: np.ndarray) -> float:
    """eps || |rhs| + |A| |x| || / ||rhs||, the rounding of rhs - A x.  |A|
    is the absolute values on A's own index arrays, FLOOR_ROWS rows at a
    time: |A| whole (scipy's ``abs`` copies the indices too) set the peak of
    the time-step table's first solve at level 7."""
    A, n, bound, x = sp.csr_matrix(A), len(x), np.abs(rhs), np.abs(x)
    for a in range(0, n, FLOOR_ROWS):
        b = min(a + FLOOR_ROWS, n)
        lo, hi = A.indptr[a], A.indptr[b]
        bound[a:b] += sp.csr_matrix((np.abs(A.data[lo:hi]), A.indices[lo:hi], A.indptr[a : b + 1] - lo), shape=(b - a, n)) @ x
    return float(np.finfo(float).eps * np.linalg.norm(bound) / np.linalg.norm(rhs))
