"""The benchmark's workloads: fixed convergence tables, one row per public call.

Importing this module imports nothing from numpy or dgdyn, so the parent
process can read the row lists without pinning BLAS threads first.

Each workload is a list of rows.  A row is one ``ProblemConfig`` (as keyword
arguments) plus the label its reference values are stored under.  ``kind``
names the call every row makes:

* ``converge_h`` -- ``dgdyn.cli.run_converge_h`` on a single level, the
  call the ``converge-h`` subcommand makes once per level;
* ``solve`` -- ``dgdyn.cli.run_solve``, the ``solve`` subcommand;
* ``converge_dt`` -- acceptance criterion 4: ``build_operators`` once for
  the table, then ``run_backward_euler`` and ``l2_errors`` per dt.
"""

from __future__ import annotations

from dataclasses import dataclass

# Spans every workload must call when traced (see tracer.py for the names).
_COMMON_SPANS = (
    "manufactured.get_case",
    "manufactured.source",
    "manufactured.exact",
    "timestepper.build_ops",
    "timestepper.run",
    "timestepper.project",
    "mesh.build",
    "mesh.classify",
    "space.build",
    "assembly.operator",
    "assembly.load",
    "solver.prec",
    "solver.cg",
    "errors.l2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    rows: tuple  # ((label, config kwargs), ...), in table order
    spans: tuple  # span names a traced pass must see called

    def fields(self) -> tuple[str, ...]:
        """Row values checked against the reference."""
        if self.kind == "converge_dt":
            return ("dt", "l2_domain", "l2_gamma1")
        return ("h", "l2_domain", "l2_gamma1", "energy")


_TABLE_DT_BASE = dict(case="example2", mode="converge_dt", p=1, level=7, dt=0.1, t_final=0.1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table-h",
            kind="converge_h",
            rows=tuple(
                (
                    f"level={lv}",
                    dict(case="example1", mode="converge_h", p=1, level=lv, levels=(lv,), dt=1e-5, t_final=1e-3),
                )
                for lv in range(2, 7)
            ),
            spans=_COMMON_SPANS + ("cli.run_converge_h", "cli.transient_errors", "errors.energy"),
        ),
        Workload(
            name="table-dt",
            kind="converge_dt",
            rows=tuple((f"dt={dt}", dict(_TABLE_DT_BASE, dt=dt)) for dt in (0.1, 0.05, 0.025)),
            spans=_COMMON_SPANS,
        ),
        Workload(
            name="fine-p2",
            kind="solve",
            rows=(
                (
                    "level=7",
                    dict(
                        case="example3", mode="transient", p=2, level=7, dt=1e-4, t_final=5e-4,
                        bc_mode="dirichlet_lateral",
                    ),
                ),
            ),
            spans=_COMMON_SPANS + ("cli.run_solve", "cli.transient_errors", "errors.energy"),
        ),
    )
}
