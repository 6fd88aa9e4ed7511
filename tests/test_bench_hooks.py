"""The benchmark still runs on the current API.

``perfbench/tracer.py`` raises when a function it wraps is missing, the
workload rows must be valid configurations, and the direct-solve reference
rows must agree with the solve they check.  A rename or deletion in
``dgdyn`` that the benchmark depends on fails here in seconds instead of in
a full benchmark pass."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgdyn.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def bench_module(name):
    """A perfbench script imported as a module; its own imports need perfbench on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


workloads = bench_module("workloads")
make_reference = bench_module("make_reference")
bench_run = bench_module("run")


def test_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    code = "import dgdyn.cli\nfrom tracer import Tracer\nTracer().install(dgdyn)\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_one_traced_pass_calls_every_span():
    # one traced table-h pass, as the benchmark's worker makes it: every
    # row is computed, every span the workload names is called, and a
    # case's f and g are evaluated once per time node and level (5 x 2)
    env = dict(os.environ, **bench_run.PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", "table-h", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [(row["label"], row["error"]) for row in record["rows"] if "error" in row] == []
    assert record["missing_spans"] == []
    assert record["layers"]["manufactured.source_calls"] == 10


ROWS = [(w.name, label, kwargs) for w in workloads.WORKLOADS.values() for label, kwargs in w.rows]


@pytest.mark.parametrize("name, label, kwargs", ROWS, ids=[f"{name}-{label}" for name, label, _ in ROWS])
def test_workload_rows_are_valid_configs(name, label, kwargs):
    dgdyn.ProblemConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "name, label",
    [("table-h", "level=2"), ("fine-p2", "level=7")],
    ids=["example1-p1-periodic", "example3-p2-dirichlet_lateral"],
)
def test_direct_reference_matches_the_solve(name, label, capsys):
    # the workload's row moved to level 2, where both paths take well under a second
    workload = workloads.WORKLOADS[name]
    config = dgdyn.ProblemConfig(**dict(dict(workload.rows)[label], level=2, levels=None)).validate()
    case = dgdyn.get_case(config.case)
    reference = make_reference.direct_row(config, case, dgdyn.build_operators(config), with_energy=True)
    record = dgdyn.cli.run_solve(config)
    dev = max(abs(getattr(record, f) - reference[f]) / abs(reference[f]) for f in workload.fields())
    assert dev <= bench_run.RTOL


# The stored entries of the CG systems that CI's bench-smoke expects the
# traced pass to count, summed over a pass's rows.
BENCH_SMOKE_NNZ = {"table-h": 359600, "table-dt": 3242496, "fine-p2": 4309996}


@pytest.mark.parametrize("name", list(BENCH_SMOKE_NNZ))
def test_cg_systems_store_the_entries_bench_smoke_counts(name):
    # the traced nnz sums each row's step system M + dt A_h in its CSR form,
    # which drops the blocks' zero entries (the dt rows share one set of
    # operators): an entry that moves into or out of exact zero fails here
    workload = workloads.WORKLOADS[name]
    configs = [dgdyn.ProblemConfig(**kwargs).validate() for _, kwargs in workload.rows]
    shared = dgdyn.build_operators(configs[0]) if workload.kind == "converge_dt" else None
    nnz = 0
    for config in configs:
        ops = shared or dgdyn.build_operators(config)
        nnz += ops.M_blocks.plus(config.dt, ops.A_blocks).tocsr().nnz
    assert nnz == BENCH_SMOKE_NNZ[name]
