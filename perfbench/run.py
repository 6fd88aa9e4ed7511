"""dgdyn benchmark: time one convergence-table workload end to end, or trace
it per layer, and check every table row against stored reference values.

    python3 perfbench/run.py --workload table-h --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  Each
pass of the workload runs in a fresh worker process (worker.py) with
OMP/OPENBLAS/MKL threads pinned to 1 before numpy is imported, so caches
from one pass never reach the next.  Passes are repeated while another one
fits in ``--seconds`` (at least one; with ``--trace 1`` at least one plain
and two traced passes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, medians over the passes; with
``--trace 1`` they are the per-layer ones, medians over the traced passes.
Lines before it give quartiles, row results and the environment.

Exit status 1 means a benchmark error, not a slow or failing program: a
worker crashed, a traced call was never made, or a count that must repeat
across passes drifted.  No result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Relative tolerance of the row check, set from measurement: at the seed,
# CG rows differ from the direct-solve reference by up to 1.0e-7 relative
# (table-h level 6, l2_domain; 2.4e-8 at level 5, 1.5e-9 on fine-p2), since
# each CG solve stops at a 1e-12 relative residual.  A wrong discretization
# moves the values by orders of magnitude more.
RTOL = 1e-6

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "mdofsteps_per_s": "Mdofsteps/s", "peak_rss_mb": "MB"}
# Counts that must repeat exactly between traced passes at pinned threads.
STEADY_COUNTS = ("solver.cg_iters", "solver.solves", "solver.unconverged", "dofs", "nnz")


class BenchmarkError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_gb_computed"):
        return "GB"
    if name.endswith("residual_max"):
        return "ratio"
    return "count"


def run_worker(workload, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload.name, "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def run_passes(workload, seconds: float, trace: bool) -> list[dict]:
    """Plain passes, or in trace mode the cycle plain, traced, traced."""
    pattern = (False, True, True) if trace else (False,)
    t0 = time.monotonic()
    longest = 0.0
    passes = []
    while True:
        started = time.monotonic()
        timeout = RUN_LIMIT_S - (started - t0)
        passes.append(run_worker(workload, pattern[len(passes) % len(pattern)], timeout))
        longest = max(longest, time.monotonic() - started)
        elapsed = time.monotonic() - t0
        if elapsed + longest > RUN_LIMIT_S:
            if len(passes) < len(pattern):
                raise BenchmarkError(f"{len(pattern)} passes do not fit in {RUN_LIMIT_S:.0f} s")
            return passes
        if len(passes) >= len(pattern) and elapsed + longest > seconds:
            return passes


def check_rows(workload, passes, reference) -> tuple[int, int, bool, list[str]]:
    """Count attempted and failed rows; a row fails if it raised or if a value
    misses its reference by more than RTOL."""
    attempted = failed = 0
    correct = True
    notes = {}
    for record in passes:
        for row in record["rows"]:
            attempted += 1
            if "error" in row:
                failed += 1
                notes[row["label"]] = f"raised {row['error']}"
                continue
            ref = reference[workload.name][row["label"]]
            dev = max(abs(row["values"][f] - ref[f]) / abs(ref[f]) for f in workload.fields())
            if dev > RTOL:
                failed += 1
                correct = False
                notes[row["label"]] = f"WRONG: {dev:.2e} relative off the reference (tolerance {RTOL:g})"
            elif row["label"] not in notes:
                notes[row["label"]] = f"ok, {dev:.1e} relative off the reference"
    lines = [f"row {label}: {note}" for label, note in notes.items()]
    return attempted, failed, correct, lines


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def end_to_end(record: dict) -> dict[str, float]:
    return {
        "wall_s": record["wall_s"],
        "setup_s": record["setup_s"],
        # no step attempted (every row failed in set-up) counts as no throughput
        "mdofsteps_per_s": record["dof_steps"] / record["step_s"] / 1e6 if record["step_s"] > 0 else 0.0,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def check_steady(workload, passes: list[dict]) -> None:
    """The work done must repeat exactly between passes; traced passes must
    also make every call the workload names and repeat the solver counts."""
    traced = [p for p in passes if p["traced"]]
    for record in traced:
        if record["missing_spans"]:
            raise BenchmarkError(f"{workload.name}: traced calls never made: {record['missing_spans']}")
    counts = [("dof_steps", [p["dof_steps"] for p in passes])]
    counts += [(key, [p["layers"][key] for p in traced]) for key in STEADY_COUNTS]
    for key, seen in counts:
        if len(set(seen)) > 1:
            raise BenchmarkError(f"{workload.name}: {key} drifted between passes: {seen}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="accepted for a uniform command line; the tables are fixed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measure while another pass fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dgdyn" / "__init__.py").is_file():
        print(f"error: no dgdyn sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())

    try:
        passes = run_passes(workload, args.seconds, bool(args.trace))
        check_steady(workload, passes)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed, correct, row_lines = check_rows(workload, passes, reference)
    print(f"workload {workload.name}")
    print("environment: " + json.dumps(passes[0]["environment"], sort_keys=True))
    print("\n".join(row_lines))
    per_pass = [end_to_end(p) for p in plain]
    for name, unit in E2E_UNITS.items():
        print(summarize(name, [m[name] for m in per_pass], unit))
    print(f"fail_frac: {failed / attempted:.6g} fraction ({failed} of {attempted} rows failed)")

    if traced:
        for i, p in enumerate(traced):
            unwrapped = p["layers"]["bench.self_s"]
            layered = sum(v for k, v in p["layers"].items() if k.endswith(".self_s")) - unwrapped
            print(
                f"traced pass {i}: layer self times {layered:.4f} s + outside any wrapped call "
                f"{unwrapped:.4f} s = wall_s {p['wall_s']:.4f} s"
            )
        for key in traced[0]["layers"]:
            print(summarize(key, [p["layers"][key] for p in traced], layer_unit(key)))
        layers = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        layers["traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["tracing_overhead_s"] = layers["traced_wall_s"] - statistics.median(m["wall_s"] for m in per_pass)
        print(f"tracing_overhead_s: {layers['tracing_overhead_s']:.6g} s (traced minus plain median wall_s)")
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in layers.items()}
    else:
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
