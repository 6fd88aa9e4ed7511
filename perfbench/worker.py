"""One pass of one workload, in a process of its own.

The parent (run.py) starts this script with the BLAS thread variables set
and ``src`` on ``PYTHONPATH``.  It runs the workload's rows in table order,
records the time marks of each row, and prints one JSON record as its last
line of standard output.  Interpreter start-up and ``import dgdyn``
happen before the clock starts.

    python3 perfbench/worker.py --workload table-h --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from time import perf_counter

from tracer import Tracer, max_rss_mb
from workloads import WORKLOADS


class RowClock:
    """Marks where a row's set-up ends -- the call ``on_step(0, ...)`` -- and
    where its last completed step ends, by chaining the row's ``on_step``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.step0 = None
        self.last = None
        self.steps_done = 0
        self.dofs = 0

    def chain(self, on_step):
        def marked(k, t, u):
            if k == 0:
                self.step0 = perf_counter()
                self.dofs = u.size
            if on_step is not None:
                on_step(k, t, u)
            self.steps_done = k
            self.last = perf_counter()

        return marked

    def install(self, module):
        run_backward_euler = module.run_backward_euler

        def marked_run(*args, on_step=None, **kwargs):
            return run_backward_euler(*args, on_step=self.chain(on_step), **kwargs)

        module.run_backward_euler = marked_run


def _row_runner(dgdyn, workload):
    """Returns (prepare, run_row): ``prepare()`` does the table's shared work,
    ``run_row(config)`` makes the row's public call and returns its values."""
    cli, ts, errors, manufactured = dgdyn.cli, dgdyn.timestepper, dgdyn.errors, dgdyn.manufactured

    def values(rec):
        return {"h": rec.h, "l2_domain": rec.l2_domain, "l2_gamma1": rec.l2_gamma1, "energy": rec.energy}

    if workload.kind == "converge_h":
        return lambda: None, lambda cfg: values(cli.run_converge_h(cfg)[0])
    if workload.kind == "solve":
        return lambda: None, lambda cfg: values(cli.run_solve(cfg))

    shared = {}

    def prepare():
        base = dgdyn.ProblemConfig(**workload.rows[0][1]).validate()
        shared["case"] = manufactured.get_case(base.case)
        shared["ops"] = ts.build_operators(base)

    def run_row(cfg):
        case, ops = shared["case"], shared["ops"]
        res = ts.run_backward_euler(cfg, case.f, case.g, case.u0, ops=ops)
        dom, g1, _ = errors.l2_errors(ops.mesh, ops.edges, ops.space, cfg.lam, res.coeffs, case, t=cfg.t_final)
        return {"dt": cfg.dt, "l2_domain": dom, "l2_gamma1": g1}

    return prepare, run_row


def run_pass(workload, trace: bool) -> dict:
    import dgdyn.cli

    clock = RowClock()
    for module in (dgdyn.cli, dgdyn.timestepper):
        clock.install(module)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(dgdyn)
    prepare, run_row = _row_runner(dgdyn, workload)
    configs = [dgdyn.ProblemConfig(**kwargs).validate() for _, kwargs in workload.rows]

    rows = []
    sink = io.StringIO()  # the tables the CLI functions print
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        try:
            prepare()
            shared_error = None
        except Exception as exc:  # every row of the table fails with it
            shared_error = f"{type(exc).__name__}: {exc}"
        prepare_s = perf_counter() - start
        for (label, _), cfg in zip(workload.rows, configs):
            clock.reset()
            row = {"label": label}
            t0 = perf_counter()
            try:
                if shared_error is not None:
                    raise RuntimeError(f"shared set-up failed: {shared_error}")
                row["values"] = run_row(cfg)
            except Exception as exc:  # a failed row is recorded; the next one still runs
                row["error"] = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            setup_end = clock.step0 if clock.step0 is not None else t1
            steps = clock.steps_done
            if "error" in row and clock.step0 is not None:
                steps = min(steps + 1, cfg.num_steps())  # the step that raised was attempted
            step_end = t1 if "error" in row or clock.last is None else clock.last
            row.update(
                setup_s=setup_end - t0,
                step_s=step_end - setup_end,
                steps=steps,
                dofs=clock.dofs,
            )
            rows.append(row)
        wall_s = perf_counter() - start

    record = {
        "wall_s": wall_s,
        "setup_s": prepare_s + sum(r["setup_s"] for r in rows),
        "step_s": sum(r["step_s"] for r in rows),
        "dof_steps": sum(r["dofs"] * r["steps"] for r in rows),
        "peak_rss_mb": max_rss_mb(),
        "rows": rows,
    }
    if tracer is not None:
        record["missing_spans"] = tracer.missing(workload.spans)
        record["layers"] = tracer.layer_metrics(wall_s)
        record["layers"]["dofs"] = sum(r["dofs"] for r in rows)
    return record


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_pass(WORKLOADS[args.workload], bool(args.trace))
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
