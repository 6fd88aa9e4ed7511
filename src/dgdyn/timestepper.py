"""Initial projection, stationary solve and the backward Euler loop."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import (
    FormParams,
    _cell_points,
    _face_tables,
    _integrate,
    _mass_block,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
    assemble_mass,
    release_tables,
)
from .config import ProblemConfig
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh, build_structured_mesh, classify_edges, p1_prolongations
from .solver import SolverError, block_jacobi_preconditioner, cg_solve, element_blocks, two_level_preconditioner
from .space import DGSpace, conforming_p1_embedding

# Stiffness ratio rho = dt * max_e 1'A_e 1 / 1'M_e 1 above which backward
# Euler adds the conforming-P1 V-cycle to block Jacobi.  Measured per solve
# on example1's first step at level 7, p = 1 (median of 15, one BLAS
# thread): block Jacobi alone takes 34 / 40 / 58 / 85 iterations at
# rho = 6 / 8 / 16 / 32, the two-level preconditioner 20 / 20 / 20 / 22 and
# 0.04 s of set-up once per dt.  It is faster in 11 of 15 runs at rho = 6,
# by 3% of the median (less than its set-up), in 14 of 15 at rho = 8, and
# at rho = 32 takes 0.17 s against 0.40 s.
TWO_LEVEL_STIFFNESS = 8.0


def l2_lambda_project(mesh: Mesh, space: DGSpace, edges: EdgeClassification, lam: float, u0) -> np.ndarray:
    """Projection in the lambda-weighted norm (domain plus lam * gamma1).

    This is the initial datum the time stepper uses: unlike the plain
    domain projection, its boundary trace is accurate to the same order as
    the interior, which the boundary-error convergence rates require.  The
    weighted mass matrix is still block diagonal, so the solve is exact.
    With lam = 0 it is the plain L2(Omega) projection.  Blocks and data
    both use the degree-2p + 4 tables of the loads and norms; the rule is
    exact for the blocks, so they are those of M up to rounding.
    """
    vol = _cell_points(mesh, space, 2 * space.p + 4)
    (g1,) = _face_tables(mesh, space, edges.gamma1, 2 * space.p + 4).sides
    blocks = _mass_block(vol)
    np.add.at(blocks, g1.elem, lam * _mass_block(g1))
    rhs = _integrate(space, vol, u0(vol.x, vol.y)) + _integrate(space, g1, lam * np.asarray(u0(g1.x, g1.y)))
    return np.linalg.solve(blocks, rhs.reshape(blocks.shape[:2] + (1,)))[..., 0].ravel()


@dataclass(eq=False)
class Operators:
    """Assembled discretization of one configuration."""

    mesh: Mesh
    edges: EdgeClassification
    space: DGSpace
    params: FormParams
    A: sp.bsr_matrix  # full stationary operator (Dirichlet terms included)
    M: sp.bsr_matrix  # domain mass + lam * boundary mass
    dirichlet_rhs: object = None  # callable t -> vector, or None

    @cached_property
    def stiffness_per_dt(self) -> float:
        """max_e 1'A_e 1 / 1'M_e 1 over the elements' own blocks: the
        stiffness ratio of M + dt A divided by dt."""
        n = self.space.n_local
        own_A = element_blocks(self.A, n).sum(axis=(1, 2))
        own_M = element_blocks(self.M, n).sum(axis=(1, 2))
        return float(np.max(own_A / own_M))


def build_operators(config: ProblemConfig, u_D=None) -> Operators:
    """Assemble the operators of ``config``, with the wall-data vector of
    ``u_D(t, x, y)`` as ``dirichlet_rhs`` if it is given."""
    mesh = build_structured_mesh(config.level)
    edges = classify_edges(mesh, config.bc_mode)
    if u_D is not None and edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError(f"wall data u_D requires bc_mode='{DIRICHLET_LATERAL}', not {edges.bc_mode!r}")
    space = DGSpace(mesh, config.p)
    params = FormParams.for_mesh(
        mesh,
        alpha=config.alpha,
        beta=config.beta,
        lam=config.lam,
        gamma=config.gamma,
        penalty_mode=config.penalty_mode,
    )
    ops = Operators(
        mesh=mesh,
        edges=edges,
        space=space,
        params=params,
        A=assemble_Ah(mesh, edges, space, params),
        M=assemble_mass(mesh, edges, space, config.lam),
    )
    if u_D is not None:
        ops.dirichlet_rhs = lambda t: assemble_dirichlet_terms(mesh, edges, space, params, u_D, t)
    release_tables(space, 2 * space.p)  # the loads and norms use 2p + 4
    return ops


def cg_matrix(A: sp.spmatrix) -> sp.csr_matrix:
    """A as CSR without the element blocks' structural zeros, which every
    product would carry; scipy's CSR product beats its BSR one at p = 1."""
    A = A.tocsr()
    A.eliminate_zeros()
    return A


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
    if params.alpha == 0.0 and edges.bc_mode != DIRICHLET_LATERAL:
        raise SolverError("stationary operator is singular: alpha = 0 leaves constants in the kernel")
    A = cg_matrix(assemble_Ah(mesh, edges, space, params))
    rhs = assemble_load(mesh, edges, space, f, g, t=0.0)
    if u_D is not None:
        rhs += assemble_dirichlet_terms(mesh, edges, space, params, u_D)
    # no mass term: the stiff limit, where the coarse correction always pays
    P, prolongations = conforming_p1_embedding(space, edges), p1_prolongations(mesh, edges.bc_mode)
    prec = two_level_preconditioner(block_jacobi_preconditioner(A, space.n_local), A, P, prolongations)
    x, report = cg_solve(A, rhs, preconditioner=prec)
    if not report.converged:
        raise SolverError(
            f"stationary solve failed: residual {report.final_relative_residual:.3e} "
            f"after {report.iterations} iterations (gamma too small?)"
        )
    return x


@dataclass(eq=False)
class TransientResult:
    coeffs: np.ndarray  # final state u_h^K
    l2lambda_norms: np.ndarray  # ||u_h^k||_{L2_lambda}, k = 0..K
    n_steps: int
    dt: float
    ops: Operators


def run_backward_euler(
    config: ProblemConfig,
    f,
    g,
    u0,
    u_D=None,
    on_step=None,
    ops: Operators | None = None,
) -> TransientResult:
    """Backward Euler loop: (M + dt A) u^{k+1} = M u^k + dt load(t_{k+1}).

    Sources are evaluated at t_{k+1}.  ``on_step(k, t_k, u_h^k)`` is invoked
    for every state including the initial one; only the current state is
    stored.  Each solve starts from zero, so results do not depend on the
    step history through the solver.  f and g may be ``SeparableField``s
    (see ``assemble_load``).  Wall data ``u_D`` enters through the
    operators: it is given to ``build_operators``, here or before ``ops``
    is passed.
    """
    n_steps = config.num_steps()
    dt = config.dt
    if ops is None:
        ops = build_operators(config, u_D=u_D)
    elif u_D is not None and ops.dirichlet_rhs is None:
        raise ValueError("u_D is given but ops were built without it; pass u_D to build_operators")
    mesh, edges, space = ops.mesh, ops.edges, ops.space

    system = cg_matrix(ops.M + dt * ops.A)
    prec = block_jacobi_preconditioner(system, space.n_local)
    if dt * ops.stiffness_per_dt > TWO_LEVEL_STIFFNESS:
        P = conforming_p1_embedding(space, edges)
        prec = two_level_preconditioner(prec, system, P, p1_prolongations(mesh, edges.bc_mode))

    u = l2_lambda_project(mesh, space, edges, config.lam, u0)
    Mu = ops.M @ u  # the norm of u and the next step's right-hand side
    norms = [float(np.sqrt(u @ Mu))]
    if on_step is not None:
        on_step(0, 0.0, u)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        rhs = Mu  # taken over as the right-hand side: one vector less during the solve
        rhs += dt * assemble_load(mesh, edges, space, f, g, t=t_next)
        if ops.dirichlet_rhs is not None:
            rhs += dt * ops.dirichlet_rhs(t_next)
        u, report = cg_solve(system, rhs, tol=1e-12, preconditioner=prec)
        if not report.converged:
            raise SolverError(
                f"backward Euler step {k + 1} failed: residual "
                f"{report.final_relative_residual:.3e} after {report.iterations} iterations"
            )
        Mu = ops.M @ u
        norms.append(float(np.sqrt(u @ Mu)))
        if on_step is not None:
            on_step(k + 1, t_next, u)

    return TransientResult(
        coeffs=u,
        l2lambda_norms=np.array(norms),
        n_steps=n_steps,
        dt=dt,
        ops=ops,
    )
