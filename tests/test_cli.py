import contextlib
import dataclasses
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgdyn
import dgdyn.cli
import dgdyn.timestepper

from dgdyn.cli import (
    COMMANDS,
    CONVERGE_H_HEADER,
    KEYS,
    StabilityViolation,
    build_config,
    build_parser,
    main,
    parse_levels,
    read_config_file,
    run_converge_h,
    run_stability,
)
from dgdyn.config import CASES, FORMATS, PENALTY_MODES, ProblemConfig
from dgdyn.errors import ErrorRecord
from dgdyn.manufactured import get_case
from dgdyn.mesh import DIRICHLET_LATERAL

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def config_of(argv):
    """The ProblemConfig of a dgdyn command line, through the parser of ``main``."""
    return build_config(build_parser().parse_args(argv))


def error_line(argv, capsys):
    """The last stderr line of a command line that ``main`` refuses with exit status 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.strip().splitlines()[-1]


def test_parse_levels():
    assert parse_levels("2..5") == (2, 3, 4, 5)
    assert parse_levels("1,3,4") == (1, 3, 4)
    assert parse_levels("3") == (3,)


# the range rules of ProblemConfig.validate: a config breaking one, and its message
RANGE_RULES = [
    (dict(level=-1), "mesh levels must be >= 0"),
    (dict(levels=(-1, 2)), "mesh levels must be >= 0"),
    (dict(gamma=0.0), "gamma = 0: the penalty gamma must be positive"),
    (dict(gamma=-1.0), "gamma = -1: the penalty gamma must be positive"),
    (dict(alpha=-1.0), "alpha = -1"),
    (dict(beta=-0.5), "beta = -0.5"),
    (dict(lam=-1.0), "lambda = -1"),
    (dict(dt_steps=0), "dt_steps = 0"),
    (dict(dt_steps=-2), "dt_steps = -2"),
]


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(p=3).validate()
    with pytest.raises(ValueError):
        ProblemConfig(dt=3e-4, t_final=1e-3).validate()
    with pytest.raises(ValueError):
        ProblemConfig(levels=(3, 2)).validate()
    with pytest.raises(ValueError):
        ProblemConfig(case="nope").validate()
    for values, message in RANGE_RULES:
        with pytest.raises(ValueError, match=message):
            ProblemConfig(**values).validate()
    # the edges of each range are valid
    ProblemConfig(level=0, levels=(0, 1), gamma=1e-3, alpha=0.0, beta=0.0, lam=0.0, dt_steps=1).validate()
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

    config = config_of(["solve", "--config", str(cfg), "--gamma", "20"])
    assert config.p == 2  # from file
    assert config.gamma == 20.0  # flag overrides file
    assert config.t_final == 1e-2
    assert config.mode == "transient"


def test_case_sets_bc_mode():
    config = config_of(["solve", "--case", "example3", "--level", "2", "--dt", "1e-2", "--t-final", "1e-1"])
    assert config.bc_mode == "dirichlet_lateral"


# a valid value of each key other than its default, as given and as parsed
KEY_VALUES = {
    "case": ("example2", "example2"),
    "p": ("2", 2),
    "level": ("3", 3),
    "levels": ("3..4", (3, 4)),
    "gamma": ("12.5", 12.5),
    "alpha": ("3", 3.0),
    "beta": ("4", 4.0),
    "lam": ("7", 7.0),
    "dt": ("1e-4", 1e-4),
    "t_final": ("2e-3", 2e-3),
    "penalty_mode": ("fixed_sigma", "fixed_sigma"),
    "bc_mode": ("dirichlet_lateral", "dirichlet_lateral"),
    "dt_steps": ("3", 3),
    "out": ("{tmp}/t.csv", "{tmp}/t.csv"),
    "fmt": ("markdown", "markdown"),
}
READ = [(command, key) for command, (*_, keys) in COMMANDS.items() for key in keys]
UNREAD = [(command, key) for command, (*_, keys) in COMMANDS.items() for key in KEYS if key not in keys]


def test_key_tables():
    # 44 settable keys, none of them twice; solve, converge-h and
    # converge-dt take the coefficients from the case
    assert set(KEY_VALUES) == set(KEYS)
    assert len(READ) == 44 and len(UNREAD) == 16
    assert all(len(set(keys)) == len(keys) for *_, keys in COMMANDS.values())
    assert {command for command, key in READ if key == "alpha"} == {"stability"}


@pytest.mark.parametrize("command, key", READ)
def test_every_key_read_reaches_the_config(tmp_path, command, key):
    text, value = (v.format(tmp=tmp_path) if isinstance(v, str) else v for v in KEY_VALUES[key])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert getattr(config_of([command, "--config", str(cfg)]), key) == value
    flag = KEYS[key][0]
    if flag is not None:
        assert getattr(config_of([command, flag, text]), key) == value


@pytest.mark.parametrize("command, key", UNREAD)
def test_every_key_not_read_is_refused(tmp_path, capsys, command, key):
    # a flag or config-file key the command does not read is an error, not
    # a setting silently dropped
    text = KEY_VALUES[key][0].format(tmp=tmp_path)
    flag = KEYS[key][0]
    assert error_line([command, flag, text], capsys) == f"dgdyn: error: unrecognized arguments: {flag} {text}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert error_line([command, "--config", str(cfg)], capsys).startswith(f"dgdyn: error: unknown config key {key!r}")


@pytest.mark.parametrize("key, text", [("p", "two"), ("gamma", "ten"), ("levels", "2..x"), ("dt_steps", "3.5")])
def test_unparsable_config_value_names_the_key_and_the_file(tmp_path, capsys, key, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    command = "converge-dt" if key == "dt_steps" else "converge-h" if key == "levels" else "solve"
    assert error_line([command, "--config", str(cfg)], capsys) == f"dgdyn: error: {cfg}: invalid value for {key}: {text!r}"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve", "--level", "2", "--t-final", "inf"], "t_final = inf"),
        (["solve", "--dt", "nan"], "dt = nan"),
        (["converge-dt", "--dt", "inf"], "dt = inf"),
        (["solve", "--gamma", "nan"], "gamma = nan"),
        (["stability", "--alpha", "nan"], "alpha = nan"),
        (["stability", "--beta=-inf"], "beta = -inf"),
        (["stability", "--lambda", "inf"], "lambda = inf"),
    ],
)
def test_non_finite_values_are_refused_before_the_mesh(monkeypatch, capsys, argv, key):
    # nan passes every sign check and inf every check for a positive value:
    # refused by name before any mesh is built, not as a traceback in the
    # step count or a CG failure after assembly
    def build_structured_mesh(level):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(dgdyn.timestepper, "build_structured_mesh", build_structured_mesh)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("dgdyn: error:")]
    assert errors == [f"dgdyn: error: {key}: {key.split()[0]} must be a finite number"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--level", "2", "--dt", "1e-300", "--t-final", "1"], "1e+300 steps of 96 dofs exceed the budget of 1e+12 dof-steps; dt >= 9.6e-11 fits"),
        (["converge-dt", "--level", "7", "--dt", "1e-4", "--t-final", "1", "--dt-steps", "20"], "5.24e+09 steps of 98304 dofs exceed the budget of 1e+12 dof-steps; dt >= 0.0515 fits"),
        (["converge-h", "--levels", "2..9", "--p", "2", "--dt", "1e-7", "--t-final", "1"], "1e+07 steps of 3145728 dofs exceed the budget of 1e+12 dof-steps; dt >= 3.15e-06 fits"),
        (["solve", "--level", "20", "--dt", "1", "--t-final", "1"], "1 steps of 6597069766656 dofs exceed the budget of 1e+12 dof-steps; no dt fits at level 20"),
    ],
)
def test_absurd_step_counts_are_refused_before_the_mesh(monkeypatch, capsys, argv, message):
    # a dt of 1e-300 asks for 1e300 steps: refused with the step count and
    # the dt that fits the budget, counting the finest level of a level
    # range and the finest row of a dt table, before any mesh is built
    def build_structured_mesh(level):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(dgdyn.timestepper, "build_structured_mesh", build_structured_mesh)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("dgdyn: error:")] == [f"dgdyn: error: {message}"]
    assert captured.out == ""


def test_step_budget_admits_a_run_just_under_it():
    # 98304 dofs at level 7, p = 1: 1e7 steps fit the budget of 1e12, 1e8 do not
    assert ProblemConfig(level=7, dt=1e-7, t_final=1.0).validate().num_steps() == 10**7
    with pytest.raises(ValueError, match=r"1e\+08 steps of 98304 dofs"):
        ProblemConfig(level=7, dt=1e-8, t_final=1.0).validate()


def test_converge_h_budget_counts_its_default_levels(monkeypatch, capsys):
    # without --levels converge-h runs levels 2..5, so the budget counts
    # level 5 (6144 dofs, 1.8e12 dof-steps at this dt), not level 4
    def build_structured_mesh(level):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(dgdyn.timestepper, "build_structured_mesh", build_structured_mesh)
    argv = ["converge-h", "--dt", "3.3333333333333334e-09", "--t-final", "1"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    message = "3e+08 steps of 6144 dofs exceed the budget of 1e+12 dof-steps; dt >= 6.14e-09 fits"
    assert [line for line in captured.err.splitlines() if line.startswith("dgdyn: error:")] == [f"dgdyn: error: {message}"]
    assert captured.out == ""
    assert config_of([*argv, "--levels", "2..4"]).run_levels == (2, 3, 4)


def test_an_out_that_is_a_directory_is_refused_before_the_mesh(monkeypatch, capsys, tmp_path):
    # the table is written after the run: a directory as --out is refused
    # by name before any work, not as an IsADirectoryError at the end
    def build_structured_mesh(level):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(dgdyn.timestepper, "build_structured_mesh", build_structured_mesh)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--level", "2", "--dt", "1e-4", "--t-final", "2e-4", "--out", str(tmp_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("dgdyn: error:")]
    assert errors == [f"dgdyn: error: out = {tmp_path}: it is a directory; name a file in it to write the table to"]
    assert captured.out == ""


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("dgdyn ")]
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line)[1:]
        assert config_of(argv).mode == COMMANDS[argv[0]][2]


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
    md_cfg = dataclasses.replace(csv_cfg, fmt="markdown", out=str(tmp_path / "table.markdown"))
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


@pytest.mark.parametrize("command", ["solve", "converge-h", "converge-dt", "stability"])
@pytest.mark.parametrize("key, flag, value", [("alpha", "--alpha", "20"), ("beta", "--beta", "1"), ("lam", "--lambda", "0")])
def test_coefficient_flags_only_on_stability(capsys, command, key, flag, value):
    # get_case builds every case with alpha = 2, beta = 5, lam = 10, and
    # the commands take the case as get_case gives it: a flag's value would
    # reach A_h and M but not the sources, which example1(alpha, beta, lam)
    # and example3(...) would build consistently.  So only stability, which
    # runs without sources, has the flags
    argv = [command, "--case", "example3", flag, value]
    if command == "stability":
        assert getattr(config_of(argv), key) == float(value)
    else:
        assert error_line(argv, capsys) == f"dgdyn: error: unrecognized arguments: {flag} {value}"


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_coefficients_come_from_the_case(command, name):
    case = get_case(name)
    config = config_of([command, "--case", name])
    assert (config.alpha, config.beta, config.lam, config.bc_mode) == (case.alpha, case.beta, case.lam, case.bc_mode)


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
        (["solve", "--alpha", "20"], "unrecognized arguments: --alpha 20"),
        (["solve", "--p", "3"], "p must be 1 or 2"),
        (["solve", "--dt", "3e-4", "--t-final", "1e-3"], "is not an integer number of steps"),
        (["solve", "--config", "{cfg}"], "unknown config key 'colour'"),
        (["solve", "--config", "{missing}"], "No such file"),
        (["stability", "--case", "example3", "--dt", "1e-4", "--t-final", "1e-3"], "projects to zero"),
        (["solve", "--level", "-1"], "mesh levels must be >= 0"),
        (["solve", "--gamma", "0"], "gamma = 0: the penalty gamma must be positive"),
        (["solve", "--gamma", "-1"], "gamma = -1: the penalty gamma must be positive"),
        (["stability", "--lambda", "-1", "--level", "2"], "lambda = -1"),
        (["converge-dt", "--dt-steps", "0"], "dt_steps = 0"),
        (["converge-dt", "--dt-steps", "-2"], "dt_steps = -2"),
        # refused before the run, not after the whole table
        (["solve", "--level", "2", "--out", "{missing}/x.csv"], "does not exist"),
        # solver failures of a non-coercive penalty: the walls' coarse
        # V-cycle matrix, and CG on an indefinite periodic system
        (
            ["solve", "--case", "example3", "--level", "3", "--gamma", "0.5", "--dt", "0.1", "--t-final", "0.1"],
            "coarse matrix not positive definite: either the penalty is too small for coercivity (raise --gamma)",
        ),
        # the other direction: a penalty of 1e300 is coercive, but the
        # system's rounding is not
        (
            ["solve", "--level", "1", "--dt", "1e-3", "--t-final", "1e-3", "--gamma", "1e300"],
            "or the system is too stiff for floating point (lower --gamma or --dt)",
        ),
        # a non-coercive penalty that CG still solves: the log's energy
        # rises, and the error names the step and the flag, with no log
        (
            ["stability", "--level", "4", "--penalty-mode", "fixed_sigma"],
            "energy increased at step 67, so the penalty is too small for a stable scheme: raise --gamma (norm ",
        ),
        (
            ["stability", "--level", "4", "--gamma", "0.5", "--dt", "1e-3", "--t-final", "1e-2"],
            "non-positive curvature in CG: penalty too small for coercivity (raise --gamma)",
        ),
        # CG's two failures name the flags that move each: a penalty far
        # too small for coercivity, and an overflow, which names every
        # coefficient that scales the system and the command accepts (once a
        # RuntimeWarning from the dot products, then an error naming no
        # flag, then one naming --alpha and --beta, which converge-dt refuses)
        (
            ["solve", "--case", "example1", "--level", "1", "--gamma", "1e-300", "--dt", "1", "--t-final", "1"],
            "non-positive curvature in CG: penalty too small for coercivity (raise --gamma)",
        ),
        (
            ["converge-dt", "--case", "example1", "--p", "2", "--gamma", "1e300", "--dt", "0.001", "--t-final", "0.003"]
            + ["--level", "0", "--dt-steps", "2"],
            "non-finite value in CG: the system or data overflow floating point (lower --gamma or --dt)",
        ),
        # CG that stalls short of its tolerance names the flags that fix it:
        # here --gamma 1e7 or --dt 0.01 does
        (
            ["solve", "--case", "example1", "--p", "2", "--gamma", "1e8", "--level", "1", "--dt", "1", "--t-final", "1"],
            "iterations (lower --gamma or --dt)",
        ),
        # ... and name the coefficient of the term of A_h with the largest
        # entry: alpha's boundary mass, or beta's surface form, whose ridge
        # penalty beta sigma is beta's where beta is the larger factor
        (
            ["stability", "--case", "example1", "--p", "1", "--gamma", "6.55391788086188e-42", "--dt", "0.015068908613435456"]
            + ["--t-final", "0.03013781722687091", "--penalty-mode", "fixed_sigma", "--level", "1"]
            + ["--alpha", "1.2827280923140416e+40", "--beta", "1.913370019759178e-210"],
            "iterations (lower --alpha or --dt)",
        ),
        (
            ["stability", "--case", "example1", "--gamma", "1e3", "--dt", "0.01", "--t-final", "0.02", "--level", "1", "--beta", "1e76"],
            "iterations (lower --beta or --dt)",
        ),
        # beta swamps the conforming-P1 coarse matrix, which the V-cycle inverts
        (
            ["stability", "--dt", "1", "--t-final", "1", "--beta", "1e16", "--level", "1"],
            "coarsest matrix singular in floating point (lower --gamma, --alpha, --beta or --dt)",
        ),
        # beta times the penalty overflows in A_h's blocks: refused as the
        # operator is assembled, once a RuntimeWarning before the CG error
        (
            ["stability", "--gamma", "1e300", "--beta", "1e300", "--level", "0", "--dt", "1", "--t-final", "1"],
            "assembling A_h overflows floating point (lower --gamma, --alpha or --beta)",
        ),
        # lambda times the boundary mass swamps the element mass in floating
        # point, so block Jacobi meets a singular block
        (
            ["stability", "--p", "2", "--level", "0", "--lambda", "1e150"],
            "a cell block is singular in floating point: one term swamps the others (lower --lambda or --gamma)",
        ),
        # the subcommand sets the mode: a file's mode would be overwritten
        (["solve", "--config", "{mode_cfg}"], "unknown config key 'mode'"),
        # keys a command does not read, as flags and in a file: once
        # dropped without a word, or (--level for --levels) taken for another
        (["converge-h", "--level", "6", "--levels", "2..3", "--dt-steps", "9"], "unrecognized arguments: --level 6 --dt-steps 9"),
        (["converge-dt", "--levels", "5..6"], "unrecognized arguments: --levels 5..6"),
        (["solve", "--levels", "9..10"], "unrecognized arguments: --levels 9..10"),
        (["stability", "--level", "2", "--dt-steps", "7", "--levels", "3..4"], "unrecognized arguments: --dt-steps 7 --levels 3..4"),
        (["converge-h", "--level", "6", "--dt", "1e-5", "--t-final", "2e-5"], "unrecognized arguments: --level 6"),
        (["solve", "--config", "{levels_cfg}"], "unknown config key 'levels'; solve reads"),
        # a key set twice, also in its two spellings: once the last value won
        (["solve", "--config", "{twice_cfg}"], "twice.cfg:3: level is set twice, on lines 1 and 3"),
        (["solve", "--config", "{spelt_cfg}"], "spelt.cfg:2: t_final is set twice, on lines 1 and 2"),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, args, message):
    # the dgdyn command as a user runs it: argparse's one-line error and
    # exit status 2, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("colour = blue\n")
    mode_cfg = tmp_path / "mode.cfg"
    mode_cfg.write_text("mode = steady\n")
    levels_cfg = tmp_path / "levels.cfg"
    levels_cfg.write_text("levels = 9..10\n")
    twice_cfg = tmp_path / "twice.cfg"
    twice_cfg.write_text("level = 2\np = 1\nlevel = 3\n")
    spelt_cfg = tmp_path / "spelt.cfg"
    spelt_cfg.write_text("t-final = 1e-3\nt_final = 2e-3\n")
    names = dict(
        cfg=cfg, mode_cfg=mode_cfg, levels_cfg=levels_cfg, twice_cfg=twice_cfg, spelt_cfg=spelt_cfg, missing=tmp_path / "missing.cfg"
    )
    argv = [a.format(**names) for a in args]
    src = str(Path(dgdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dgdyn.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("dgdyn: error: ") and message in last, proc.stderr
    assert proc.stdout == ""
    # a hint names only flags the command accepts
    accepted = {KEYS[key][0] for key in COMMANDS[argv[0]][3]}
    for hint in re.findall(r"\((?:lower|raise) (--[^()]*)\)", last):
        assert set(re.split(", | or ", hint)) <= accepted, last


def magnitudes(low, high):
    """Floats log-uniform between 10^low and 10^high."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def command_lines(draw):
    """A command and values for the keys it reads (``cli.KEYS``): levels 0
    to 1, at most three steps in all, every coefficient from 0 or 1e-300
    to 1e300, and sometimes a value the command must refuse."""
    command = draw(st.sampled_from(list(COMMANDS)))
    keys, dt = COMMANDS[command][3], draw(magnitudes(-3, 4))
    steps = 1 if command == "converge-dt" else draw(st.integers(1, 3))  # converge-dt's rows take 1 + 2 steps
    values = {
        "case": st.sampled_from(CASES),
        "p": st.sampled_from([1, 2, 1, 2, 3]),
        "level": st.sampled_from([0, 1, 0, 1, -1]),
        "levels": st.sampled_from(["0", "1", "0..1"]),
        "gamma": st.one_of(magnitudes(-300, 300), st.sampled_from([0.0, -1.0])),
        "penalty_mode": st.sampled_from(PENALTY_MODES),
        "dt_steps": st.integers(0, 2),
        "fmt": st.sampled_from(FORMATS),
        **{key: st.one_of(st.just(0.0), magnitudes(-300, 300)) for key in ("alpha", "beta", "lam")},
    }
    argv = [command, "--dt", repr(dt), "--t-final", repr(steps * dt)]
    for key in keys:
        if key in values and (key == "levels" or draw(st.booleans())):
            argv += [KEYS[key][0], str(draw(values[key]))]
    if "level" in keys and "--level" not in argv:
        argv += ["--level", "1"]  # not the default level 4
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_any_command_line_is_a_run_or_one_error_line(argv):
    # levels 0 and 1, at most three steps: a command either prints finite
    # values and returns 0, or exits with status 2 and one error line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        numbers = [float(token) for token in re.split(r"[\s,|]+", out.getvalue()) if re.fullmatch(r"[-+]?(nan|inf|\d[\d.]*(e[-+]?\d+)?)", token, re.I)]
        assert numbers and all(map(math.isfinite, numbers)), (argv, out.getvalue())
    else:
        assert code == 2 and out.getvalue() == "", (argv, out.getvalue())
        assert [line.startswith("dgdyn: error: ") for line in err.getvalue().splitlines()].count(True) == 1, (argv, err.getvalue())


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
    captured = capsys.readouterr()
    assert captured.out == (DATA / golden).read_text()
    assert captured.err == ""  # no run of theirs shows an indefinite A_h


@pytest.mark.parametrize(
    "message, command, want",
    [
        ("overflow (lower --gamma, --alpha, --beta, --lambda or --dt)", "stability", None),
        ("overflow (lower --gamma, --alpha, --beta, --lambda or --dt)", "converge-dt", "overflow (lower --gamma or --dt)"),
        ("singular (lower --gamma, --alpha, --beta or --dt)", "solve", "singular (lower --gamma or --dt)"),
        ("block singular (lower --lambda or --gamma)", "converge-h", "block singular (lower --gamma)"),
        ("assembling M overflows floating point (lower --lambda)", "solve", "assembling M overflows floating point"),
        ("too small (raise --gamma) or too stiff (lower --gamma or --dt)", "solve", None),
        ("residual 1e-3 after 9 iterations (lower --beta or --dt)", "converge-h", "residual 1e-3 after 9 iterations (lower --dt)"),
    ],
)
def test_hints_name_only_the_flags_a_command_accepts(message, command, want):
    # the solver names every flag that scales a system; a command's error
    # line keeps those it accepts, and drops a hint that names none
    assert dgdyn.cli.accepted_hints(message, command) == (want or message)


@pytest.mark.parametrize(
    "argv, lines",
    [
        # criterion 3: fixed_sigma's A_h is indefinite, and at level 4 the
        # run shows it in its states and in the negative rates
        (
            ["converge-h", "--case", "example1", "--levels", "2..4", "--penalty-mode", "fixed_sigma", "--dt", "1e-5", "--t-final", "1e-3"],
            [
                "dgdyn: warning: level 4: u'A_h u < 0 in 35 states (smallest u'A_h u / u'Mu -8.613e+02), "
                "so A_h is not positive definite: raise --gamma",
                "dgdyn: warning: level 4: l2_domain and energy above level 3's, a negative rate the error estimate "
                "rules out for a coercive penalty: raise --gamma",
            ],
        ),
        (
            ["solve", "--case", "example1", "--level", "4", "--gamma", "0.5", "--dt", "1e-5", "--t-final", "1e-3"],
            [
                "dgdyn: warning: level 4: u'A_h u < 0 in 43 states (smallest u'A_h u / u'Mu -3.856e+03), "
                "so A_h is not positive definite: raise --gamma",
            ],
        ),
        (
            ["converge-dt", "--case", "example1", "--level", "4", "--penalty-mode", "fixed_sigma", "--dt", "2e-5"]
            + ["--t-final", "1e-3", "--dt-steps", "2"],
            [
                "dgdyn: warning: level 4, dt 2e-05: u'A_h u < 0 in 19 states (smallest u'A_h u / u'Mu -1.281e+03), "
                "so A_h is not positive definite: raise --gamma",
                "dgdyn: warning: level 4, dt 1e-05: u'A_h u < 0 in 35 states (smallest u'A_h u / u'Mu -8.613e+02), "
                "so A_h is not positive definite: raise --gamma",
            ],
        ),
    ],
)
def test_an_indefinite_operator_is_one_line_after_the_table(argv, lines, capsys):
    # a run whose states have u'A_h u < 0, or whose finer row's error is
    # above the coarser row's, still prints every row and exits 0, then
    # names --gamma on stderr, as printed lines rather than warnings
    assert main(argv) == 0
    captured = capsys.readouterr()
    n_rows = {"converge-h": 3, "solve": 1, "converge-dt": 2}[argv[0]]
    assert len(captured.out.splitlines()) == 1 + n_rows
    assert captured.err.splitlines() == lines


def test_a_growing_error_is_one_line_per_finer_row(capsys):
    # each finer row with an error above the coarser row's gets one line
    # naming those errors; equal errors (converge-dt's zero energy) do not
    records = [
        ErrorRecord(h=0.1, dt=0.1, l2_domain=1.0, l2_gamma1=1.0, energy=0.0),
        ErrorRecord(h=0.1, dt=0.05, l2_domain=0.5, l2_gamma1=2.0, energy=0.0),
        ErrorRecord(h=0.1, dt=0.025, l2_domain=0.25, l2_gamma1=1.0, energy=0.0),
    ]
    dgdyn.cli._warn_non_coercive(records, ["dt 0.1", "dt 0.05", "dt 0.025"])
    assert capsys.readouterr().err.splitlines() == [
        "dgdyn: warning: dt 0.05: l2_gamma1 above dt 0.1's, a negative rate the error estimate rules out for a "
        "coercive penalty: raise --gamma"
    ]


def test_commands_use_scipy_through_scipy_sparse_only():
    # the quadrature rules are a table: no run loads scipy.special, nor the
    # scipy.linalg it computes Gauss rules with (about 12 MB of peak memory)
    runs = [
        ["converge-h", "--levels", "2..3", "--dt", "1e-3", "--t-final", "1e-2"],
        ["converge-dt", "--level", "3", "--dt", "1e-2", "--t-final", "2e-2", "--dt-steps", "2"],
        ["solve", "--case", "example3", "--level", "3", "--p", "2", "--dt", "1e-2", "--t-final", "2e-2"],
        ["stability", "--level", "2", "--dt", "1e-3", "--t-final", "1e-2"],
    ]
    code = (
        "import sys\n"
        "from dgdyn.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    main(argv)\n"
        "print(sorted(m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = str(Path(dgdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    # point sets and sum each point set in blocks of 2^15 points, and the
    # run expands neither A nor M: two steps, their norms and the final L2
    # errors peak at 2.97 times the CSR bytes of the system CG multiplies
    # (3.38 while M and block Jacobi were block matrices of a block per
    # element and the system was expanded through one; 4.10 while the run
    # held A as a block matrix).  The step loop holds u^k and the next
    # solve's start, not M u^k.  While the norms evaluated their
    # point sets entry by entry, the peak was 4.25 (4.263 while A_h's forms
    # were added pairwise), which the bound, then 4.3, was set above.
    case = get_case("example3")
    config = ProblemConfig(case="example3", level=5, p=2, bc_mode=DIRICHLET_LATERAL, dt=1e-3, t_final=2e-3)
    dgdyn.cli._transient_errors(dataclasses.replace(config, level=1), case)  # module-level caches
    built, systems = [], []

    def recording_build_operators(*args, **kwargs):
        built.append(dgdyn.timestepper.build_operators(*args, **kwargs))
        return built[-1]

    def recording_cg_solve(system, rhs, **kwargs):
        systems.append(system)
        return dgdyn.solver.cg_solve(system, rhs, **kwargs)

    monkeypatch.setattr(dgdyn.cli, "build_operators", recording_build_operators)
    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    tracemalloc.start()
    try:
        dgdyn.cli._transient_errors(config, case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "A" not in vars(built[0]) and "M" not in vars(built[0])
    S = systems[0]
    assert peak <= 3.11 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)
