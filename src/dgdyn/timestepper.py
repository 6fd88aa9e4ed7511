"""Operators, stationary solve and the backward Euler loop."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import (
    BlockTable,
    FormParams,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
    assemble_mass,
    l2_lambda_project,
    stiffness_terms,
)
from .config import ProblemConfig
from .mesh import DIRICHLET_LATERAL, EdgeClassification, Mesh, build_structured_mesh, classify_edges, p1_prolongations
from .solver import SolverError, block_jacobi_preconditioner, cg_solve, two_level_preconditioner
from .space import DGSpace, conforming_p1_embedding

# Stiffness ratio rho = dt * max_e 1'A_e 1 / 1'M_e 1 above which backward
# Euler adds the conforming-P1 V-cycle to block Jacobi.  Measured per solve,
# started from zero, on example1's first step at level 7, p = 1 (median of
# 15, one BLAS thread): cell-block Jacobi alone takes 28 / 34 / 44 / 62
# iterations at rho = 6 / 8 / 16 / 32, the two-level preconditioner
# 18 / 19 / 19 / 19 and 0.012 s of set-up once per dt.  It is slower in all
# 15 runs at rho = 6, faster in 13 of 15 at rho = 8, by 3% of the median
# (less than its set-up), and at rho = 32 takes 0.042 s against 0.075 s.
TWO_LEVEL_STIFFNESS = 8.0

# The time loop's CG starts from the best mix of its last HISTORY solutions
# (``_start``).  Traced iterations on the paper's spatial table (levels 2
# to 6, dt = 1e-5), with element-block Jacobi: 2428 from the extrapolation
# 2 u^k - u^(k-1), 1466 from three solutions (1327 with cell blocks), 953
# from four.  Where CG stops moves the level-6 l2_domain: four put it
# 7.6e-7 relative off the direct solver's value, near the benchmark's
# tolerance of 1e-6, three 3.4e-7 (1.7e-7 with cell blocks).
HISTORY = 3
# 1 - cos^2 of the angle between the two image differences below which
# the second is dropped as parallel to the first.
DEGENERATE = 1e-8
# The flag of the weight of a term of A_h by its first name; --gamma for weight 1.
TERM_FLAGS = {"alpha_boundary": "--alpha", "beta_tangential": "--beta", "ridge_jump": "--beta"}


@dataclass(eq=False)
class Operators:
    """Assembled discretization of one configuration: the tables of A_h and M,
    which the runs and solves read, and their scipy BSR matrices, built on
    first read for outside readers (the benchmark's reference, the tests);
    no run expands them.  What the runs need and no dt changes (M's block
    diagonal here, the two-level preconditioner's P1 parts on the space)
    is built on first use and kept for every run on them."""

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
        """max_e 1'A_e 1 / 1'M_e 1 over the blocks the elements store for
        themselves: the stiffness ratio of M + dt A divided by dt."""
        A, M = (t.table.sum(axis=(1, 2))[t.cells()[:, [0, 3]].ravel()] for t in (self.A_blocks, self.M_blocks))
        return float(np.max(A / M))


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
        A_blocks=_finite(lambda: assemble_Ah(mesh, edges, space, params), "A_h", "--gamma, --alpha or --beta"),
        M_blocks=_finite(lambda: assemble_mass(mesh, edges, space, config.lam), "M", "--lambda"),
    )
    if u_D is not None:
        ops.dirichlet_rhs = lambda t: assemble_dirichlet_terms(mesh, edges, space, params, u_D, t)
    return ops


def _finite(assemble, what: str, flags: str) -> BlockTable:
    """``assemble()``, an operator's table, or a SolverError naming ``flags``
    if a product in it overflows or a distinct block is not finite."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            blocks = assemble()
            if np.isfinite(blocks.table).all():
                return blocks
        except FloatingPointError:
            pass
    raise SolverError(f"assembling {what} overflows floating point (lower {flags})")


def _refuse_wall_data(edges: EdgeClassification, u_D) -> None:
    if u_D is not None and edges.bc_mode != DIRICHLET_LATERAL:
        raise ValueError(f"wall data u_D requires bc_mode='{DIRICHLET_LATERAL}', not {edges.bc_mode!r}")


def _p1_coarse(space: DGSpace, edges: EdgeClassification) -> tuple:
    """The conforming-P1 embedding and its prolongations: each element's
    corner unknowns, the barycentric table and P' as CSR (a
    ``P1Embedding``), and the coarse grids' CSR prolongations.  P, one
    entry per DG dof at p = 1 and 1.5 a dof at p = 2 (4.13 MB at level 7,
    p = 2), is not held."""
    return conforming_p1_embedding(space, edges), p1_prolongations(space.mesh, edges.bc_mode)


def _largest_term_flag(space: DGSpace, edges: EdgeClassification, params: FormParams) -> str:
    """The flag to lower for the term of A_h with the largest entry: its weight's,
    or --gamma for a penalty term whose sigma is the larger factor."""
    entry = lambda term: max(np.abs(block).max(initial=0.0) for *_, block in term.blocks(space))
    term = max(stiffness_terms(edges, params), key=entry)
    return "--gamma" if term.sigma is not None and term.sigma >= term.weight else TERM_FLAGS.get(term.names[0], "--gamma")


def _cg_solver(blocks: BlockTable, p1_coarse: tuple | None, flags):
    """``solve(rhs, what, start=None)``: CG on ``blocks`` as CSR under block
    Jacobi, with the conforming-P1 V-cycle if ``p1_coarse`` (the P1
    embedding and its prolongations) is given; a SolverError names
    ``what`` and, if CG stalls, the ``flags()`` to lower.  The solver
    holds the CSR system, not ``blocks``.  A solve starts from zero unless
    ``start``, the state before it, has opened a history: the solver then
    keeps the last HISTORY solutions x_j with their images S x_j, newest
    first (``start``'s by its one product, or +0.0s if it is zero, bitwise
    S 0), starts each solve from their minimal-residual mix (``_start``), a
    new array CG works in, and takes each solution's image as rhs - r,
    formed in place of CG's final residual r.  It returns (x, report,
    image), the image None without a history; the report then carries no
    residual, whose buffer is the image."""
    system = blocks.tocsr()
    prec = block_jacobi_preconditioner(system, blocks.own())
    if p1_coarse is not None:
        prec = two_level_preconditioner(prec, system, *p1_coarse)
    history = []

    def solve(rhs: np.ndarray, what: str, start: np.ndarray | None = None) -> tuple:
        if start is not None and not history:
            history.append((start, system @ start if start.any() else np.zeros_like(start)))
        x0, r0 = _start(history, rhs) if history else (None, None)
        x, report = cg_solve(system, rhs, preconditioner=prec, x0=x0, r0=r0, overwrite_x0=True)
        if not report.converged:
            raise SolverError(
                f"{what} failed: residual {report.final_relative_residual:.3e} after {report.iterations} iterations "
                f"(lower {flags()})"
            )
        if not history:
            return x, report, None
        image, report.residual = np.subtract(rhs, report.residual, out=report.residual), None
        history[:] = [(x, image), *history[: HISTORY - 1]]
        return x, report, image

    return solve


def _differences(vectors: list) -> list:
    """The first and second backward differences at the newest of
    ``vectors`` (newest first), v0 - v1 and v0 - 2 v1 + v2, as many as
    they allow, each formed explicitly."""
    out = [vectors[0] - vectors[1]] if len(vectors) > 1 else []
    if len(vectors) > 2:
        second = np.subtract(vectors[2], vectors[1])
        out.append(np.add(second, out[0], out=second))
    return out


def _start(history: list, rhs: np.ndarray) -> tuple:
    """(x0, rhs - S x0), both new arrays, for x0 = x_k + a dx_k + b d2x_k,
    the first and second differences of the solutions kept in ``history``
    ((x_j, S x_j), newest first), with (a, b) minimizing the residual: the
    least-squares fit of rhs - S x_k by the same differences of the images,
    from its 2x2 normal equations scaled to a unit diagonal.  No product:
    the start's residual is made from the images.  A zero difference, or a
    second one (nearly) parallel to the first, is dropped.  The images'
    differences are formed before any inner product, as a Gram matrix of
    the images themselves would lose the differences' digits to
    cancellation."""
    (x, image), *_ = history
    r0 = rhs - image
    d_images = _differences([s for _, s in history])
    norms = [float(np.linalg.norm(d)) for d in d_images]
    used = [i for i, norm in enumerate(norms) if norm > 0.0]
    if len(used) == 2:
        c = float(d_images[0] @ d_images[1]) / (norms[0] * norms[1])  # the scaled matrix's off-diagonal
        used = used if 1.0 - c * c > DEGENERATE else used[:1]
    g = [float(d_images[i] @ r0) / norms[i] for i in used]  # the scaled right-hand side
    coef = [0.0] * len(d_images)
    if len(used) == 2:
        coef = [(g[0] - c * g[1]) / (1.0 - c * c) / norms[0], (g[1] - c * g[0]) / (1.0 - c * c) / norms[1]]
    elif used:
        coef[used[0]] = g[0] / norms[used[0]]
    for a, d in zip(coef, d_images):
        r0 -= np.multiply(d, a, out=d)
    del d_images
    x0 = x.copy()  # CG's iterate: the history's solutions stay as they are
    if any(coef):
        for a, d in zip(coef, _differences([x for x, _ in history])):
            x0 += np.multiply(d, a, out=d)
    return x0, r0


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
    solve = _cg_solver(A, space.keep(_p1_coarse, edges), lambda: _largest_term_flag(space, edges, params))
    return solve(rhs, "stationary solve")[0]


@dataclass(eq=False)
class TransientResult:
    """A run's final state and norms, and per step what its solve showed:
    CG's iterations and final true relative residual, and the Rayleigh
    quotient u'A_h u / u'Mu of the state it gave.  With S = M + dt A_h,
    that is (u'Su - u'Mu) / (dt u'Mu), where u'Su = u'(rhs - r) comes from
    CG's final residual r and u'Mu from the norm the next step takes, so
    the quotient costs one dot product a step and no matrix product.  A
    negative quotient proves that A_h is not positive definite: the
    penalty is too small for coercivity.  A state with u'Mu = 0 has none
    (NaN)."""

    coeffs: np.ndarray  # final state u_h^K
    l2lambda_norms: np.ndarray  # ||u_h^k||_{L2_lambda}, k = 0..K
    cg_iterations: np.ndarray  # (K,) CG iterations of each step's solve
    true_residuals: np.ndarray  # (K,) each solve's final ||rhs - S u|| / ||rhs||
    rayleigh_quotients: np.ndarray  # (K,) u'A_h u / u'Mu of u_h^k, k = 1..K

    @property
    def negative_states(self) -> int:
        """The number of states with u'A_h u < 0."""
        return int(np.count_nonzero(self.rayleigh_quotients < 0.0))

    @property
    def min_quotient(self) -> float:
        """The smallest u'A_h u / u'Mu of the run's states (inf if none has one)."""
        return float(np.fmin.reduce(self.rayleigh_quotients, initial=np.inf))


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
    for every state including the initial one.  Each solve starts from the
    combination of the last HISTORY states (u^0 and one product with it at
    first) that leaves the smallest residual, made from their images
    S u^j, which CG's final residuals give, so the start costs no product
    (``_cg_solver``).  The loop keeps those states, CG's own solutions, and
    never writes an array given to ``on_step``.  f and g may be
    ``SeparableField``s (see ``assemble_load``).  Wall data enters through
    the operators, as ``build_operators(config, u_D=)`` gave it to them.
    Each step's solve report and its state's Rayleigh quotient go to the
    result (``TransientResult``).
    """
    n_steps = config.num_steps()
    dt = config.dt
    if ops is None:
        ops = build_operators(config)
    mesh, edges, space = ops.mesh, ops.edges, ops.space

    p1_coarse = space.keep(_p1_coarse, edges) if dt * ops.stiffness_per_dt > TWO_LEVEL_STIFFNESS else None
    flags = lambda: f"{_largest_term_flag(space, edges, ops.params)} or --dt"
    solve = _cg_solver(ops.M_blocks.plus(dt, ops.A_blocks), p1_coarse, flags)  # the blocks go once S is CSR
    M = ops.M_diagonal

    u = l2_lambda_project(mesh, space, edges, config.lam, u0)
    mass, stiff, iterations, residuals = [], [], [], []  # u'Mu of each state; u'Su and the report of each step
    if on_step is not None:
        on_step(0, 0.0, u)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        load = assemble_load(mesh, edges, space, f, g, t=t_next)  # before M u^k: the first load sets the run's peak
        load *= dt
        rhs = M @ u  # u'Mu, then the right-hand side
        mass.append(float(u @ rhs))
        rhs += load
        del load
        if ops.dirichlet_rhs is not None:
            rhs += dt * ops.dirichlet_rhs(t_next)
        u, report, image = solve(rhs, f"backward Euler step {k + 1}", start=u if k == 0 else None)
        stiff.append(float(u @ image))
        iterations.append(report.iterations)
        residuals.append(report.final_relative_residual)
        del rhs, image  # during on_step the loop holds the solver's history alone
        if on_step is not None:
            on_step(k + 1, t_next, u)
    mass.append(float(u @ (M @ u)))

    mass = np.array(mass)
    with np.errstate(all="ignore"):  # a witness: an overflow in it is no error of the run
        quotients = np.divide(np.subtract(stiff, mass[1:]), dt * mass[1:], out=np.full(n_steps, np.nan), where=mass[1:] > 0.0)
    return TransientResult(u, np.sqrt(mass), np.array(iterations), np.array(residuals), quotients)
