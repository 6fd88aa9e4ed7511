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
)
from .config import ProblemConfig
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh, build_structured_mesh, classify_edges
from .solver import SolverError, block_jacobi_preconditioner, cg_solve, element_blocks, two_level_preconditioner
from .space import DGSpace, conforming_p1_embedding

# Stiffness ratio rho = dt * max_e 1'A_e 1 / 1'M_e 1 above which backward
# Euler adds the conforming-P1 coarse solve to block Jacobi.  Measured per
# solve at level 7, p = 1: block Jacobi alone wins at rho = 8 (40 iterations,
# 0.14 s, against 22 and 0.21 s), the two-level preconditioner at rho = 32
# (23 iterations, 0.19 s, against 85 and 0.26 s); they tie near rho = 20.
TWO_LEVEL_STIFFNESS = 16.0


def l2_lambda_project(mesh: Mesh, space: DGSpace, edges: EdgeClassification, lam: float, u0) -> np.ndarray:
    """Projection in the lambda-weighted norm (domain plus lam * gamma1).

    This is the initial datum the time stepper uses: unlike the plain
    domain projection, its boundary trace is accurate to the same order as
    the interior, which the boundary-error convergence rates require.  The
    weighted mass matrix is still block diagonal, so the solve is exact.
    With lam = 0 it is the plain L2(Omega) projection.
    """
    vol = _cell_points(mesh, space, 2 * space.p)
    g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p).plus
    blocks = _mass_block(vol)
    np.add.at(blocks, g1.elem, lam * _mass_block(g1))
    # the data, like every load, to degree 2p + 4
    vol = _cell_points(mesh, space, 2 * space.p + 4)
    g1 = _face_tables(mesh, space, edges.gamma1, 2 * space.p + 4).plus
    rhs = _integrate(space, vol, u0(vol.x, vol.y)) + _integrate(space, g1, lam * np.asarray(u0(g1.x, g1.y)))
    return np.linalg.solve(blocks, rhs.reshape(blocks.shape[:2] + (1,)))[..., 0].ravel()


@dataclass(eq=False)
class Operators:
    """Assembled discretization of one configuration."""

    mesh: Mesh
    edges: EdgeClassification
    space: DGSpace
    params: FormParams
    A: sp.csr_matrix  # full stationary operator (Dirichlet terms included)
    M: sp.csr_matrix  # domain mass + lam * boundary mass
    dirichlet_rhs: object = None  # callable t -> vector, or None

    @cached_property
    def stiffness_per_dt(self) -> float:
        """max_e 1'A_e 1 / 1'M_e 1 over the elements' own blocks: the
        stiffness ratio of M + dt A divided by dt."""
        n = self.space.n_local
        own_A = element_blocks(self.A, n).sum(axis=(1, 2))
        own_M = element_blocks(self.M, n).sum(axis=(1, 2))
        return float(np.max(own_A / own_M))

    @cached_property
    def coarse_p1(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """(P, P'MP, P'AP) for the conforming-P1 coarse space, so that a new
        dt costs one sparse sum and one factorization."""
        P = conforming_p1_embedding(self.space)
        PT = P.T.tocsr()
        return P, (PT @ self.M @ P).tocsr(), (PT @ self.A @ P).tocsr()


def build_operators(config: ProblemConfig, u_D=None) -> Operators:
    mesh = build_structured_mesh(config.level)
    edges = classify_edges(mesh, config.bc_mode)
    space = DGSpace(mesh, config.p)
    params = FormParams.for_mesh(
        mesh,
        alpha=config.alpha,
        beta=config.beta,
        lam=config.lam,
        gamma=config.gamma,
        penalty_mode=config.penalty_mode,
    )
    A = assemble_Ah(mesh, edges, space, params)
    ops = Operators(
        mesh=mesh,
        edges=edges,
        space=space,
        params=params,
        A=A,
        M=assemble_mass(mesh, edges, space, config.lam),
    )
    if config.bc_mode == DIRICHLET_LATERAL:
        delta, _ = assemble_dirichlet_terms(mesh, edges, space, params)
        ops.A = A + delta
        if u_D is not None:
            ops.dirichlet_rhs = lambda t: assemble_dirichlet_terms(
                mesh, edges, space, params, u_D=u_D, t=t
            )[1]
    return ops


def solve_stationary(
    mesh: Mesh,
    edges: EdgeClassification,
    space: DGSpace,
    params: FormParams,
    f,
    g,
    u_D=None,
) -> np.ndarray:
    """Solve the stationary problem A_h u = (f, v) + (g, v)_gamma1."""
    A = assemble_Ah(mesh, edges, space, params)
    rhs = assemble_load(mesh, edges, space, f, g, t=0.0)
    if edges.bc_mode == DIRICHLET_LATERAL:
        delta, drhs = assemble_dirichlet_terms(mesh, edges, space, params, u_D=u_D, t=0.0)
        A = A + delta
        rhs = rhs + drhs
    elif params.alpha == 0.0:
        raise SolverError("stationary operator is singular: alpha = 0 leaves constants in the kernel")
    # no mass term: the stiff limit, where the coarse solve always pays
    P = conforming_p1_embedding(space)
    prec = two_level_preconditioner(block_jacobi_preconditioner(A, space.n_local), P, P.T @ A @ P)
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
    step history through the solver.
    """
    n_steps = config.num_steps()
    dt = config.dt
    if ops is None:
        ops = build_operators(config, u_D=u_D)
    mesh, edges, space = ops.mesh, ops.edges, ops.space

    system = (ops.M + dt * ops.A).tocsr()
    prec = block_jacobi_preconditioner(system, space.n_local)
    if dt * ops.stiffness_per_dt > TWO_LEVEL_STIFFNESS:
        P, PtMP, PtAP = ops.coarse_p1
        prec = two_level_preconditioner(prec, P, PtMP + dt * PtAP)

    u = l2_lambda_project(mesh, space, edges, config.lam, u0)
    norms = [float(np.sqrt(u @ (ops.M @ u)))]
    if on_step is not None:
        on_step(0, 0.0, u)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        rhs = ops.M @ u + dt * assemble_load(mesh, edges, space, f, g, t=t_next)
        if ops.dirichlet_rhs is not None:
            rhs += dt * ops.dirichlet_rhs(t_next)
        u, report = cg_solve(system, rhs, tol=1e-12, preconditioner=prec)
        if not report.converged:
            raise SolverError(
                f"backward Euler step {k + 1} failed: residual "
                f"{report.final_relative_residual:.3e} after {report.iterations} iterations"
            )
        norms.append(float(np.sqrt(u @ (ops.M @ u))))
        if on_step is not None:
            on_step(k + 1, t_next, u)

    return TransientResult(
        coeffs=u,
        l2lambda_norms=np.array(norms),
        n_steps=n_steps,
        dt=dt,
        ops=ops,
    )
