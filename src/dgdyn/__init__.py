"""Interior-penalty DG solver for a 2D parabolic problem whose top and
bottom boundary carry a dynamic (time-derivative) condition with a surface
diffusion term, with periodic or weakly-imposed Dirichlet lateral walls."""

from .assembly import (
    FormParams,
    assemble_Ah,
    assemble_dirichlet_terms,
    assemble_load,
    assemble_mass,
    l2_lambda_project,
)
from .config import ProblemConfig
from .errors import ErrorRecord, energy_norm, energy_norm_terms, l2_errors, rate
from .manufactured import ManufacturedCase, example1, example3, get_case
from .mesh import (
    DIRICHLET_LATERAL,
    PERIODIC,
    EdgeClassification,
    Mesh,
    MeshError,
    build_structured_mesh,
    classify_edges,
)
from .solver import SolveReport, SolverError, block_jacobi_preconditioner, cg_solve
from .space import DGSpace, QuadratureRule, edge_quadrature, reference_basis, triangle_quadrature
from .timestepper import Operators, TransientResult, build_operators, run_backward_euler, solve_stationary

__version__ = "0.1.0"

__all__ = [
    "DGSpace",
    "DIRICHLET_LATERAL",
    "EdgeClassification",
    "ErrorRecord",
    "FormParams",
    "ManufacturedCase",
    "Mesh",
    "MeshError",
    "Operators",
    "PERIODIC",
    "ProblemConfig",
    "QuadratureRule",
    "SolveReport",
    "SolverError",
    "TransientResult",
    "assemble_Ah",
    "assemble_dirichlet_terms",
    "assemble_load",
    "assemble_mass",
    "block_jacobi_preconditioner",
    "build_operators",
    "build_structured_mesh",
    "cg_solve",
    "classify_edges",
    "edge_quadrature",
    "energy_norm",
    "energy_norm_terms",
    "example1",
    "example3",
    "get_case",
    "l2_errors",
    "l2_lambda_project",
    "rate",
    "reference_basis",
    "run_backward_euler",
    "solve_stationary",
    "triangle_quadrature",
]
