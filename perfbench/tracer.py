"""Per-layer timing installed from outside the package.

``dgdyn`` modules bind names with ``from .x import y``, so a wrapper must be
installed in the namespace that makes the call (``dgdyn.timestepper.cg_solve``,
``dgdyn.cli.energy_norm``), not in the module that defines the function.
Installing a wrapper whose target is missing raises at once.

Each wrapper records one span: inclusive time and a call count per span
name, and self time (duration minus the time covered by nested spans) per
layer, the part of the span name before the dot.  Timing sits in
``try/finally``, so a call that raises is still timed.  The root of the
stack is the benchmark's own code; its self time is reported as ``bench``.
"""

from __future__ import annotations

import dataclasses
import resource
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "timestepper", "mesh", "space", "assembly", "solver", "errors", "manufactured", "bench")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def csr_spmv_bytes(A) -> int:
    """Bytes one CSR product y = A x must move at least: values, column
    indices and row pointers once, x read and y written once."""
    n = A.shape[0]
    return A.nnz * (A.data.itemsize + A.indices.itemsize) + (n + 1) * A.indptr.itemsize + 2 * n * 8


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self._covered = [0.0]  # time covered by finished child spans, per open span
        self.cg_iters = 0
        self.unconverged = 0
        self.true_residual_max = 0.0
        self.spmv_bytes = 0
        self.nnz = 0
        self.rss_delta_mb = 0.0

    def wrap(self, name, fn, after=None):
        layer = name.partition(".")[0]

        def traced(*args, **kwargs):
            self._covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                covered = self._covered.pop()
                self._covered[-1] += elapsed
                self.calls[name] += 1
                self.incl[name] += elapsed
                self.self_s[layer] += elapsed - covered
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module, attr, name, after=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), after))

    def install(self, dgdyn):
        """Wrap every public call a workload makes, in the calling namespace."""
        cli, ts, errors, manufactured = dgdyn.cli, dgdyn.timestepper, dgdyn.errors, dgdyn.manufactured
        for attr, name in (
            ("run_converge_h", "cli.run_converge_h"),
            ("run_solve", "cli.run_solve"),
            ("_transient_errors", "cli.transient_errors"),
            ("energy_norm", "errors.energy"),
        ):
            self.patch(cli, attr, name)
        for module in (cli, ts):
            self.patch(module, "build_operators", "timestepper.build_ops")
            self.patch(module, "run_backward_euler", "timestepper.run")
        for module in (cli, errors):
            self.patch(module, "l2_errors", "errors.l2")
        for module in (cli, manufactured):
            self.patch(module, "get_case", "manufactured.get_case")
            module.get_case = self._traced_cases(module.get_case)
        for attr, name in (
            ("l2_lambda_project", "timestepper.project"),
            ("build_structured_mesh", "mesh.build"),
            ("classify_edges", "mesh.classify"),
            ("DGSpace", "space.build"),
            ("assemble_Ah", "assembly.operator"),
            ("assemble_mass", "assembly.operator"),
            ("assemble_dirichlet_terms", "assembly.operator"),
            ("assemble_load", "assembly.load"),
        ):
            self.patch(ts, attr, name)
        self.patch(ts, "block_jacobi_preconditioner", "solver.prec", after=self._count_system)
        self.patch(ts, "cg_solve", "solver.cg", after=self._count_solve)
        # build_operators is wrapped last so the high-water mark is read
        # outside its span: the gain across the call is what it allocated.
        for module in (cli, ts):
            module.build_operators = self._rss_gain(module.build_operators)

    def _traced_cases(self, get_case):
        def traced_get_case(name):
            case = get_case(name)
            return dataclasses.replace(
                case,
                f=self.wrap("manufactured.source", case.f),
                g=self.wrap("manufactured.source", case.g),
                u=self.wrap("manufactured.exact", case.u),
                grad_u=self.wrap("manufactured.exact", case.grad_u),
            )

        return traced_get_case

    def _rss_gain(self, build_operators):
        def measured(*args, **kwargs):
            before = max_rss_mb()
            try:
                return build_operators(*args, **kwargs)
            finally:
                self.rss_delta_mb += max_rss_mb() - before

        return measured

    def _count_system(self, args, _prec):
        self.nnz += args[0].nnz

    def _count_solve(self, args, result):
        _, report = result
        self.cg_iters += report.iterations
        self.unconverged += not report.converged
        self.true_residual_max = max(self.true_residual_max, report.final_relative_residual)
        # one product per iteration plus the final true-residual check
        self.spmv_bytes += (report.iterations + 1) * csr_spmv_bytes(args[0])

    def missing(self, expected) -> list[str]:
        return [name for name in expected if self.calls[name] == 0]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced pass; ``bench`` takes the time no
        wrapped call covers, so the self times sum to ``wall_s``."""
        self.self_s["bench"] = wall_s - self._covered[0]
        metrics = {
            "solver.cg_s": self.incl["solver.cg"],
            "solver.cg_iters": self.cg_iters,
            "solver.solves": self.calls["solver.cg"],
            "solver.unconverged": self.unconverged,
            "solver.true_residual_max": self.true_residual_max,
            "solver.spmv_gb_computed": self.spmv_bytes / 1e9,
            "solver.prec_s": self.incl["solver.prec"],
            "errors.energy_s": self.incl["errors.energy"],
            "errors.energy_calls": self.calls["errors.energy"],
            "errors.l2_s": self.incl["errors.l2"],
            "manufactured.source_s": self.incl["manufactured.source"],
            "manufactured.source_calls": self.calls["manufactured.source"],
            "manufactured.exact_s": self.incl["manufactured.exact"],
            "assembly.load_s": self.incl["assembly.load"],
            "assembly.load_calls": self.calls["assembly.load"],
            "assembly.operator_s": self.incl["assembly.operator"],
            "assembly.rss_delta_mb": self.rss_delta_mb,
            "mesh.build_s": self.incl["mesh.build"],
            "mesh.classify_s": self.incl["mesh.classify"],
            "space.build_s": self.incl["space.build"],
            "timestepper.build_ops_s": self.incl["timestepper.build_ops"],
            "timestepper.project_s": self.incl["timestepper.project"],
            "nnz": self.nnz,
        }
        metrics.update({f"{layer}.self_s": self.self_s[layer] for layer in LAYERS})
        return metrics
