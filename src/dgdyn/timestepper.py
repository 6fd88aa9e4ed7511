"""Initial projection, stationary solve and the backward Euler loop."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import (
    BlockTable,
    FormParams,
    _bsr,
    _gram_blocks,
    _scatter,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
    assemble_mass,
    mass_terms,
    release_tables,
)
from .config import ProblemConfig
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh, build_structured_mesh, classify_edges, p1_prolongations
from .solver import SolverError, block_jacobi_preconditioner, cg_solve, two_level_preconditioner
from .space import DGSpace, conforming_p1_embedding

# Stiffness ratio rho = dt * max_e 1'A_e 1 / 1'M_e 1 above which backward
# Euler adds the conforming-P1 V-cycle to block Jacobi.  Measured per solve,
# started from zero, on example1's first step at level 7, p = 1 (median of
# 15, one BLAS thread): block Jacobi alone takes 34 / 40 / 58 / 85
# iterations at rho = 6 / 8 / 16 / 32, the two-level preconditioner
# 20 / 20 / 20 / 22 and 0.04 s of set-up once per dt.  It is faster in 11
# of 15 runs at rho = 6, by 3% of the median (less than its set-up), in 14
# of 15 at rho = 8, and at rho = 32 takes 0.17 s against 0.40 s.
TWO_LEVEL_STIFFNESS = 8.0


def l2_lambda_project(mesh: Mesh, space: DGSpace, edges: EdgeClassification, lam: float, u0) -> np.ndarray:
    """Projection in the lambda-weighted norm (domain plus lam * gamma1).

    This is the initial datum the time stepper uses: unlike the plain
    domain projection, its boundary trace is accurate to the same order as
    the interior, which the boundary-error convergence rates require.  The
    weighted mass matrix is still block diagonal, so the solve is exact: one
    product with its inverse, a ``BlockDiagonal``.  With lam = 0 it is the
    plain L2(Omega) projection.  Blocks and data both use the degree-2p + 4
    tables of the loads and norms; the rule is exact for the blocks, so they
    are those of M up to rounding.  The result is kept on the boundary's
    point set by (u0, lam); each call returns a copy.
    """
    terms = mass_terms(edges, lam)
    points = [term.sides(mesh, space, 2 * space.p + 4)[0] for term in terms]

    def project():
        grams = [_gram_blocks(pts, term.dirs, term.weight) for term, pts in zip(terms, points)]
        tested = [pts.integrate(lambda x, y, w=term.weight: w * np.asarray(u0(x, y))) for term, pts in zip(terms, points)]
        rhs = sum(_scatter(space, pts, local) for pts, local in zip(points, tested))
        return _bsr(space, grams).own().inverse() @ rhs

    return points[-1]._keep(("projection", u0, lam), project).copy()


@dataclass(eq=False)
class Operators:
    """Assembled discretization of one configuration: the tables of A_h and M,
    which the runs and solves read, and their scipy BSR matrices, built on
    first read for outside readers (the benchmark's reference, the tests);
    no run expands them.  What the runs need and no dt changes (M's block
    diagonal, the two-level preconditioner's P1 parts) is built on first
    use and kept for every run on them."""

    mesh: Mesh
    edges: EdgeClassification
    space: DGSpace
    params: FormParams
    A_blocks: BlockTable  # full stationary operator (Dirichlet terms included)
    M_blocks: BlockTable  # domain mass + lam * boundary mass
    dirichlet_rhs: object = None  # callable t -> vector, or None
    A = cached_property(lambda self: self.A_blocks.tobsr())
    M = cached_property(lambda self: self.M_blocks.tobsr())
    M_diagonal = cached_property(lambda self: self.M_blocks.own())  # M is block diagonal: its own blocks are all of it

    @cached_property
    def stiffness_per_dt(self) -> float:
        """max_e 1'A_e 1 / 1'M_e 1 over the elements' own blocks: the
        stiffness ratio of M + dt A divided by dt."""
        A, M = self.A_blocks.own(), self.M_diagonal
        return float(np.max(A.blocks.sum(axis=(1, 2))[A.kind] / M.blocks.sum(axis=(1, 2))[M.kind]))

    @cached_property
    def p1_coarse(self) -> tuple:
        """The conforming-P1 embedding and its prolongations."""
        return conforming_p1_embedding(self.space, self.edges), p1_prolongations(self.mesh, self.edges.bc_mode)


def build_operators(config: ProblemConfig, u_D=None) -> Operators:
    """Assemble the operators of ``config``, with the wall-data vector of
    ``u_D(t, x, y)`` as ``dirichlet_rhs`` if it is given."""
    mesh = build_structured_mesh(config.level)
    edges = classify_edges(mesh, config.bc_mode)
    _refuse_wall_data(edges, u_D)
    space = DGSpace(mesh, config.p)
    params = FormParams.for_mesh(
        mesh, alpha=config.alpha, beta=config.beta, lam=config.lam, gamma=config.gamma, penalty_mode=config.penalty_mode
    )
    ops = Operators(
        mesh=mesh,
        edges=edges,
        space=space,
        params=params,
        A_blocks=assemble_Ah(mesh, edges, space, params),
        M_blocks=assemble_mass(mesh, edges, space, config.lam),
    )
    if u_D is not None:
        ops.dirichlet_rhs = lambda t: assemble_dirichlet_terms(mesh, edges, space, params, u_D, t)
    release_tables(space, 2 * space.p)  # the loads and norms use 2p + 4
    return ops


def _refuse_wall_data(edges: EdgeClassification, u_D) -> None:
    if u_D is not None and edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError(f"wall data u_D requires bc_mode='{DIRICHLET_LATERAL}', not {edges.bc_mode!r}")


def _cg_solver(blocks: BlockTable, p1_coarse: tuple | None):
    """``solve(rhs, what, x0=None)``: CG on ``blocks`` as CSR from ``x0``
    under block Jacobi, with the conforming-P1 V-cycle if ``p1_coarse``
    (the P1 embedding and its prolongations) is given; a SolverError names
    ``what``."""
    system = blocks.tocsr()
    prec = block_jacobi_preconditioner(system, blocks.own())
    if p1_coarse is not None:
        prec = two_level_preconditioner(prec, system, *p1_coarse)

    def solve(rhs: np.ndarray, what: str, x0: np.ndarray | None = None) -> np.ndarray:
        x, report = cg_solve(system, rhs, preconditioner=prec, x0=x0)
        if not report.converged:
            raise SolverError(
                f"{what} failed: residual {report.final_relative_residual:.3e} after {report.iterations} iterations"
            )
        return x

    return solve


def solve_stationary(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    f,
    g,
    u_D=None,
) -> np.ndarray:
    """Solve the stationary problem A_h u = (f, v) + (g, v)_gamma1, plus
    the wall-data vector of ``u_D(t, x, y)`` at t = 0 if it is given."""
    _refuse_wall_data(edges, u_D)
    if params.alpha == 0.0 and edges.bc_mode != DIRICHLET_LATERAL:
        raise SolverError("stationary operator is singular: alpha = 0 leaves constants in the kernel")
    A = assemble_Ah(mesh, edges, space, params)
    rhs = assemble_load(mesh, edges, space, f, g, t=0.0)
    if u_D is not None:
        rhs += assemble_dirichlet_terms(mesh, edges, space, params, u_D)
    # no mass term: the stiff limit, where the coarse correction always pays
    p1_coarse = conforming_p1_embedding(space, edges), p1_prolongations(mesh, edges.bc_mode)
    return _cg_solver(A, p1_coarse)(rhs, "stationary solve")


@dataclass(eq=False)
class TransientResult:
    coeffs: np.ndarray  # final state u_h^K
    l2lambda_norms: np.ndarray  # ||u_h^k||_{L2_lambda}, k = 0..K


def run_backward_euler(
    config: ProblemConfig,
    f,
    g,
    u0,
    on_step=None,
    ops: Operators | None = None,
) -> TransientResult:
    """Backward Euler loop: (M + dt A) u^{k+1} = M u^k + dt load(t_{k+1}).

    Sources are evaluated at t_{k+1}.  ``on_step(k, t_k, u_h^k)`` is invoked
    for every state including the initial one; only the current state is
    stored.  Each solve starts from the extrapolated state 2 u^k - u^(k-1),
    or u^0 at the first step, formed in a buffer of the loop's own: arrays
    given to ``on_step`` are never written.  f and g may be
    ``SeparableField``s (see ``assemble_load``).  Wall data enters through
    the operators, as ``build_operators(config, u_D=)`` gave it to them.
    """
    n_steps = config.num_steps()
    dt = config.dt
    if ops is None:
        ops = build_operators(config)
    mesh, edges, space = ops.mesh, ops.edges, ops.space

    system = ops.M_blocks.plus(dt, ops.A_blocks)
    solve = _cg_solver(system, ops.p1_coarse if dt * ops.stiffness_per_dt > TWO_LEVEL_STIFFNESS else None)
    M = ops.M_diagonal

    u = l2_lambda_project(mesh, space, edges, config.lam, u0)
    guess = u.copy()
    norms = []
    if on_step is not None:
        on_step(0, 0.0, u)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        rhs = M @ u  # the norm of u^k, then the right-hand side
        norms.append(float(np.sqrt(u @ rhs)))
        rhs += dt * assemble_load(mesh, edges, space, f, g, t=t_next)
        if ops.dirichlet_rhs is not None:
            rhs += dt * ops.dirichlet_rhs(t_next)
        u_next = solve(rhs, f"backward Euler step {k + 1}", guess)
        del rhs  # during on_step the loop holds u^(k+1) and the guess only
        np.subtract(u_next, u, out=guess)  # the next start, 2 u^(k+1) - u^k
        guess += u_next
        u = u_next
        if on_step is not None:
            on_step(k + 1, t_next, u)
    norms.append(float(np.sqrt(u @ (M @ u))))

    return TransientResult(coeffs=u, l2lambda_norms=np.array(norms))
