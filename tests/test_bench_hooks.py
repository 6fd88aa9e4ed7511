"""The benchmark still runs on the current API.

``perfbench/tracer.py`` raises when a function it wraps is missing, the
workload rows must be valid configurations, and the direct-solve reference
rows must agree with the solve they check.  A rename or deletion in
``dgdyn`` that the benchmark depends on fails here in seconds instead of in
a full benchmark pass."""

import importlib
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
