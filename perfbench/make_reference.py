"""Write reference.json: every benchmark row computed with a direct solve.

Each row is stepped with the same backward Euler recurrence as
``run_backward_euler`` -- (M + dt A) u^{k+1} = M u^k + dt load(t_{k+1}),
started from ``l2_lambda_project`` -- built through the public
``build_operators``, ``l2_lambda_project`` and ``assemble_load``, but each
system is solved by a sparse LU factorization (``scipy.sparse.linalg.splu``)
instead of block-Jacobi CG.  So a row the CG solver cannot finish still has
a reference, and the check does not trust the solver it checks.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

The run takes a few minutes and about 2 GB of memory (the level-7 p=2 LU).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import splu

import dgdyn
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "reference.json"


def direct_row(cfg, case, ops, with_energy: bool) -> dict:
    if ops.dirichlet_rhs is not None:
        raise ValueError("rows with Dirichlet data are not covered by this reference")
    mesh, edges, space = ops.mesh, ops.edges, ops.space
    lu = splu((ops.M + cfg.dt * ops.A).tocsc(), permc_spec="MMD_AT_PLUS_A")
    u = dgdyn.l2_lambda_project(mesh, space, edges, cfg.lam, case.u0)
    energy_sq = 0.0
    for k in range(cfg.num_steps()):
        t = (k + 1) * cfg.dt
        u = lu.solve(ops.M @ u + cfg.dt * dgdyn.assemble_load(mesh, edges, space, case.f, case.g, t=t))
        if with_energy:
            e = dgdyn.energy_norm(mesh, edges, space, ops.params, u_h=u, exact=case, t=t)
            energy_sq += cfg.dt * e * e
    dom, g1, _ = dgdyn.l2_errors(mesh, edges, space, cfg.lam, u, case, t=cfg.t_final)
    values = {"h": mesh.h, "dt": cfg.dt, "l2_domain": dom, "l2_gamma1": g1, "energy": float(np.sqrt(energy_sq))}
    return values


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        configs = [(label, dgdyn.ProblemConfig(**kw).validate()) for label, kw in workload.rows]
        shared_ops = dgdyn.build_operators(configs[0][1]) if workload.kind == "converge_dt" else None
        rows = {}
        for label, cfg in configs:
            case = dgdyn.get_case(cfg.case)
            ops = shared_ops or dgdyn.build_operators(cfg)
            values = direct_row(cfg, case, ops, with_energy=workload.kind != "converge_dt")
            rows[label] = {field: values[field] for field in workload.fields()}
            print(name, label, rows[label], file=sys.stderr, flush=True)
        reference[name] = rows
    OUT.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
