import dataclasses
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dgdyn
import dgdyn.cli

from dgdyn.cli import (
    CONVERGE_H_HEADER,
    StabilityViolation,
    build_config,
    main,
    parse_levels,
    read_config_file,
    run_converge_h,
    run_stability,
)
from dgdyn.config import ProblemConfig
from dgdyn.manufactured import get_case
from dgdyn.mesh import DIRICHLET_LATERAL
from dgdyn.timestepper import cg_matrix

DATA = Path(__file__).resolve().parent / "data"


def test_parse_levels():
    assert parse_levels("2..5") == (2, 3, 4, 5)
    assert parse_levels("1,3,4") == (1, 3, 4)
    assert parse_levels("3") == (3,)


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(p=3).validate()
    with pytest.raises(ValueError):
        ProblemConfig(dt=3e-4, t_final=1e-3).validate()
    with pytest.raises(ValueError):
        ProblemConfig(levels=(3, 2)).validate()
    with pytest.raises(ValueError):
        ProblemConfig(case="nope").validate()
    assert ProblemConfig(dt=1e-3, t_final=1e-2).num_steps() == 10


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        case = example1
        p = 2
        t-final = 1e-2
        dt = 1e-3
        gamma = 12.5
        """
    )
    values = read_config_file(cfg)
    assert values["t_final"] == "1e-2"

    import argparse

    args = argparse.Namespace(
        command="solve", config=str(cfg), case=None, p=None, level=None, levels=None,
        gamma=20.0, alpha=None, beta=None, lam=None, dt=None, t_final=None,
        penalty_mode=None, dt_steps=None, out=None, fmt=None,
    )
    config = build_config(args)
    assert config.p == 2  # from file
    assert config.gamma == 20.0  # flag overrides file
    assert config.t_final == 1e-2
    assert config.mode == "transient"


def test_case_sets_bc_mode():
    import argparse

    args = argparse.Namespace(
        command="solve", config=None, case="example3", p=None, level=2, levels=None,
        gamma=None, alpha=None, beta=None, lam=None, dt=1e-2, t_final=1e-1,
        penalty_mode=None, dt_steps=None, out=None, fmt=None,
    )
    config = build_config(args)
    assert config.bc_mode == "dirichlet_lateral"


def small_converge_config(tmp_path, fmt="csv"):
    return ProblemConfig(
        case="example1",
        mode="converge_h",
        p=1,
        levels=(1, 2),
        dt=2e-4,
        t_final=1e-3,
        out=str(tmp_path / f"table.{fmt}"),
        fmt=fmt,
    ).validate()


def test_converge_h_csv_output(tmp_path):
    config = small_converge_config(tmp_path)
    records = run_converge_h(config)
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CONVERGE_H_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == "" and first[6] == ""  # no coarser record
    second = lines[2].split(",")
    assert second[2] != ""
    assert float(second[0]) == pytest.approx(records[1].h)


def test_reruns_are_byte_identical(tmp_path):
    config = small_converge_config(tmp_path)
    run_converge_h(config)
    first = (tmp_path / "table.csv").read_bytes()
    run_converge_h(config)
    assert (tmp_path / "table.csv").read_bytes() == first


def test_csv_and_markdown_agree(tmp_path):
    csv_cfg = small_converge_config(tmp_path, "csv")
    run_converge_h(csv_cfg)
    md_cfg = csv_cfg.with_(fmt="markdown", out=str(tmp_path / "table.markdown"))
    run_converge_h(md_cfg)
    csv_rows = [
        line.split(",") for line in (tmp_path / "table.csv").read_text().strip().splitlines()[1:]
    ]
    md_lines = (tmp_path / "table.markdown").read_text().strip().splitlines()[2:]
    md_rows = [[c.strip() for c in line.strip("|").split("|")] for line in md_lines]
    for crow, mrow in zip(csv_rows, md_rows):
        for c, m in zip(crow, mrow):
            if c == "":
                assert m == "-"
            else:
                assert float(c) == float(m)


def test_single_level_has_empty_rates(tmp_path):
    config = ProblemConfig(
        mode="converge_h", levels=(2,), dt=5e-4, t_final=1e-3, out=str(tmp_path / "t.csv")
    ).validate()
    records = run_converge_h(config)
    assert len(records) == 1
    assert records[0].rate_l2_domain is None


def test_stability_log_monotone(tmp_path):
    config = ProblemConfig(
        mode="stability", level=2, dt=1e-3, t_final=1e-2, out=str(tmp_path / "s.csv")
    ).validate()
    rows = run_stability(config)
    norms = [n for _, _, n in rows]
    assert len(rows) == 11
    assert all(b <= a + 1e-12 * norms[0] for a, b in zip(norms, norms[1:]))
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "k,t,l2_lambda_norm"


def test_main_entry_point(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        [
            "solve",
            "--case", "example1",
            "--level", "1",
            "--p", "1",
            "--dt", "5e-4",
            "--t-final", "1e-3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,dt,l2_domain,l2_gamma1,energy"
    vals = lines[1].split(",")
    assert float(vals[0]) == pytest.approx(np.sqrt(2.0) / 2.0)


def coefficient_args(command, **overrides):
    import argparse

    values = dict(
        command=command, config=None, case="example1", p=None, level=2, levels=None,
        gamma=None, alpha=None, beta=None, lam=None, dt=1e-2, t_final=1e-1,
        penalty_mode=None, dt_steps=None, out=None, fmt=None,
    )
    values.update(overrides)
    return argparse.Namespace(**values)


@pytest.mark.parametrize("command", ["solve", "converge-h", "converge-dt"])
@pytest.mark.parametrize(
    "key, flag, value", [("alpha", "--alpha", 20.0), ("beta", "--beta", 1.0), ("lam", "--lambda", 0.0)]
)
def test_coefficient_override_without_matching_sources_rejected(command, key, flag, value):
    # the manufactured sources carry alpha = 2, beta = 5, lam = 10: any
    # other value would solve a problem whose exact solution is unknown
    with pytest.raises(ValueError) as info:
        build_config(coefficient_args(command, **{key: value}))
    message = str(info.value)
    assert f"{key} = {value:g}" in message and flag in message and "example1" in message


def test_coefficient_matching_sources_accepted():
    config = build_config(coefficient_args("solve", alpha=2.0, beta=5.0, lam=10.0))
    assert (config.alpha, config.beta, config.lam) == (2.0, 5.0, 10.0)


def test_stability_accepts_any_coefficients(tmp_path):
    # zero sources: every coefficient set is a consistent problem
    out = tmp_path / "s.csv"
    argv = ["stability", "--level", "1", "--dt", "1e-2", "--t-final", "5e-2", "--alpha", "20", "--lambda", "1"]
    code = main(argv + ["--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 7


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--alpha", "20"], "alpha = 20 differs from alpha = 2"),
        (["solve", "--p", "3"], "p must be 1 or 2"),
        (["solve", "--dt", "3e-4", "--t-final", "1e-3"], "is not an integer number of steps"),
        (["solve", "--config", "{cfg}"], "unknown config key 'colour'"),
        (["solve", "--config", "{missing}"], "No such file"),
        (["stability", "--case", "example3", "--dt", "1e-4", "--t-final", "1e-3"], "projects to zero"),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, args, message):
    # the dgdyn command as a user runs it: argparse's one-line error and
    # exit status 2, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("colour = blue\n")
    argv = [a.format(cfg=cfg, missing=tmp_path / "missing.cfg") for a in args]
    src = str(Path(dgdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dgdyn.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("dgdyn: error: ") and message in last, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ["converge-h", "--case", "example1", "--levels", "2..4", "--format", "csv", "--dt", "1e-4", "--t-final", "1e-3"],
            "converge_h_example1.csv",
        ),
        (
            ["converge-dt", "--case", "example2", "--level", "4", "--dt", "0.1", "--t-final", "0.1", "--dt-steps", "3"],
            "converge_dt_example2.csv",
        ),
        (["solve", "--case", "example3", "--level", "3", "--p", "2", "--format", "markdown"], "solve_example3.md"),
        (
            ["stability", "--case", "example1", "--format", "markdown", "--dt", "1e-4", "--t-final", "1e-3"],
            "stability_example1.md",
        ),
    ],
)
def test_printed_tables_match_golden(argv, golden, capsys):
    # the stored tables fix every printed digit of these commands; they
    # were printed when every step evaluated the manufactured fields afresh
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


@pytest.mark.parametrize("name, nodes", [("example1", 1), ("example3", 2)])
def test_sources_evaluated_once_per_node_and_space(monkeypatch, capsys, name, nodes):
    # a level-2 run of 100 steps: each source is evaluated at its time nodes
    # once (example1: exp(-10 t) times the field at 0; example3: the fields
    # at 0 and 1), and every step's load is a weighted sum of the results
    calls = Counter()

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    case = get_case(name)
    case = dataclasses.replace(case, f=counted("f", case.f), g=counted("g", case.g))
    monkeypatch.setattr(dgdyn.cli, "get_case", lambda _: case)
    config = ProblemConfig(case=name, bc_mode=case.bc_mode, levels=(2,), dt=1e-5, t_final=1e-3).validate()
    assert config.num_steps() == 100
    run_converge_h(config)
    assert calls == {"f": nodes, "g": nodes}


def test_energy_norm_step_memory_proportional_to_operator(monkeypatch):
    # the per-step energy norms keep the exact fields' snapshots on the
    # point sets and sum each point set in blocks of 2^15 points: two
    # steps, their norms and the final L2 errors peak at 4.25 times the CSR
    # bytes of A, in the second norm.  When every norm evaluated the fields
    # afresh, without blocks, the peak was 4.25 times as well.
    case = get_case("example3")
    config = ProblemConfig(case="example3", level=5, p=2, bc_mode=DIRICHLET_LATERAL, dt=1e-3, t_final=2e-3)
    dgdyn.cli._transient_errors(config.with_(level=1), case)  # module-level caches
    built = []

    def recording_build_operators(*args, **kwargs):
        built.append(dgdyn.timestepper.build_operators(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dgdyn.cli, "build_operators", recording_build_operators)
    tracemalloc.start()
    try:
        dgdyn.cli._transient_errors(config, case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = cg_matrix(built[0].A)
    assert peak <= 4.3 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
