"""Run orchestration and table emission.

Subcommands: ``solve`` (one transient run), ``converge-h`` (spatial
refinement study), ``converge-dt`` (time-step study at fixed level) and
``stability`` (zero-source energy decay log).  Each reads only its own
keys, from defaults, an optional ``key = value`` config file and
command-line flags, in increasing precedence; any other key or flag is an
error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .config import CASES, CONVERGE_H_LEVELS, FORMATS, PENALTY_MODES, ProblemConfig
from .errors import ErrorRecord, energy_norm, l2_errors, rate
from .manufactured import get_case
from .solver import SolverError
from .timestepper import build_operators, run_backward_euler


class StabilityViolation(RuntimeError):
    pass


class InputError(ValueError):
    """Bad input that shows only once the run has started."""


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def _fmt_rate(r) -> str:
    return "" if r is None else f"{r:.2f}"


def _write_table(header: list[str], rows: list[list[str]], config: ProblemConfig) -> None:
    """Write a table as CSV or markdown to ``config.out``, or to standard output."""
    if config.fmt == "csv":
        lines = [",".join(header), *(",".join(row) for row in rows)]
    else:
        lines = [
            "| " + " | ".join(h or "-" for h in header) + " |",
            "|" + "|".join(["---"] * len(header)) + "|",
            *("| " + " | ".join(c or "-" for c in row) + " |" for row in rows),
        ]
    text = "".join(line + "\n" for line in lines)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_records(columns: list[str], records: list[ErrorRecord], config: ProblemConfig) -> None:
    """Write the ``columns`` of ``records``, which are ErrorRecord field names, as a table."""
    rows = [[(_fmt_rate if c.startswith("rate_") else _fmt)(getattr(r, c)) for c in columns] for r in records]
    _write_table(columns, rows, config)


def _transient_errors(config: ProblemConfig, case) -> ErrorRecord:
    """One transient run with accumulated energy error."""
    ops = build_operators(config)
    acc = [0.0]

    def on_step(k, t, u):
        if k == 0:
            return
        e = energy_norm(ops.mesh, ops.edges, ops.space, ops.params, u_h=u, exact=case, t=t)
        acc[0] += config.dt * e * e

    res = run_backward_euler(config, case.f, case.g, case.u0, on_step=on_step, ops=ops)
    dom, g1, _ = l2_errors(ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, case, t=config.t_final)
    return ErrorRecord(
        h=ops.mesh.h, dt=config.dt, l2_domain=dom, l2_gamma1=g1, energy=float(np.sqrt(acc[0])),
        negative_states=res.negative_states, min_quotient=res.min_quotient,
    )


def _warn_non_coercive(records: list[ErrorRecord], labels: list[str]) -> None:
    """One stderr line, after the table, for each row whose run had states
    with u'A_h u < 0, and for each finer row with an error above the
    coarser row's, a negative rate the paper's estimate rules out: either
    shows a penalty too small for coercivity.  Printed, not a ``warnings``
    warning, which the test suite turns into an error."""
    for label, rec in zip(labels, records):
        if rec.negative_states:
            print(
                f"dgdyn: warning: {label}: u'A_h u < 0 in {rec.negative_states} states (smallest u'A_h u / u'Mu "
                f"{rec.min_quotient:.3e}), so A_h is not positive definite: raise --gamma",
                file=sys.stderr,
            )
    rows = list(zip(labels, records))
    for (coarse, prev), (label, rec) in zip(rows, rows[1:]):
        grown = [name for name in ("l2_domain", "l2_gamma1", "energy") if getattr(rec, name) > getattr(prev, name)]
        if grown:
            print(
                f"dgdyn: warning: {label}: {' and '.join(grown)} above {coarse}'s, a negative rate the error "
                "estimate rules out for a coercive penalty: raise --gamma",
                file=sys.stderr,
            )


def _attach_rates(records: list[ErrorRecord]) -> None:
    for prev, rec in zip(records, records[1:]):
        rec.rate_l2_domain = rate(prev.l2_domain, rec.l2_domain)
        rec.rate_l2_gamma1 = rate(prev.l2_gamma1, rec.l2_gamma1)
        if prev.energy > 0 and rec.energy > 0:
            rec.rate_energy = rate(prev.energy, rec.energy)


CONVERGE_H_HEADER = ["h", "l2_domain", "rate_l2_domain", "l2_gamma1", "rate_l2_gamma1", "energy", "rate_energy"]


def run_converge_h(config: ProblemConfig) -> list[ErrorRecord]:
    """Transient convergence study over a level range; rows in Table order
    (h, L2 domain error, rate, L2 boundary error, rate, energy error, rate)."""
    case = get_case(config.case)
    records = [_transient_errors(replace(config, level=lv, levels=(lv,)), case) for lv in config.run_levels]
    _attach_rates(records)
    _write_records(CONVERGE_H_HEADER, records, config)
    _warn_non_coercive(records, [f"level {lv}" for lv in config.run_levels])
    return records


CONVERGE_DT_HEADER = ["dt", "l2_domain", "rate_l2_domain", "l2_gamma1", "rate_l2_gamma1"]


def run_converge_dt(config: ProblemConfig) -> list[ErrorRecord]:
    """Halving-dt study at a fixed spatial level; operators are assembled
    once and reused across the dt sequence."""
    case = get_case(config.case)
    ops = build_operators(config)
    records = []
    for j in range(config.dt_steps):
        dt = config.dt * 0.5**j
        res = run_backward_euler(replace(config, dt=dt), case.f, case.g, case.u0, ops=ops)
        dom, g1, _ = l2_errors(ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, case, t=config.t_final)
        records.append(
            ErrorRecord(
                h=ops.mesh.h, dt=dt, l2_domain=dom, l2_gamma1=g1, energy=0.0,
                negative_states=res.negative_states, min_quotient=res.min_quotient,
            )
        )
    _attach_rates(records)
    _write_records(CONVERGE_DT_HEADER, records, config)
    _warn_non_coercive(records, [f"level {config.level}, dt {rec.dt:g}" for rec in records])
    return records


def run_stability(config: ProblemConfig) -> list[tuple[int, float, float]]:
    """Zero-source run; logs k, t_k, the lambda-weighted L2 norm, and checks
    the step-wise energy decay: a step that raises the norm is a
    StabilityViolation, raised before the log is written.  An initial datum
    that projects to zero is an InputError, raised before the first step:
    its log would be zeros."""
    case = get_case(config.case)

    def refuse_zero_datum(k, t, u):
        if k == 0 and not u.any():
            raise InputError(
                f"the initial datum of {config.case} projects to zero, so every norm of the log would be 0; "
                "use a case whose u(0) is not zero, such as example1"
            )

    res = run_backward_euler(config, None, None, case.u0, on_step=refuse_zero_datum)
    norms = res.l2lambda_norms
    rows = [(k, k * config.dt, norms[k]) for k in range(len(norms))]
    slack = 1e-12 * max(norms[0], 1.0)
    for k in range(1, len(norms)):
        if norms[k] > norms[k - 1] + slack:
            raise StabilityViolation(
                f"energy increased at step {k}, so the penalty is too small for a stable scheme: raise --gamma "
                f"(norm {norms[k - 1]:.15e} -> {norms[k]:.15e})"
            )
    _write_table(["k", "t", "l2_lambda_norm"], [[str(k), _fmt(t), _fmt(n)] for k, t, n in rows], config)
    return rows


def run_solve(config: ProblemConfig) -> ErrorRecord:
    """Single transient run; emits one row of final errors."""
    case = get_case(config.case)
    rec = _transient_errors(config, case)
    _write_records(["h", "dt", "l2_domain", "l2_gamma1", "energy"], [rec], config)
    _warn_non_coercive([rec], [f"level {config.level}"])
    return rec


# ---------------------------------------------------------------------------
# argument and config-file handling


def parse_levels(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def read_config_file(path: str) -> dict:
    """The ``key = value`` lines of ``path``; a key set twice, in either spelling, is refused."""
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key} is set twice, on lines {lines[key]} and {lineno}; keep one")
            values[key], lines[key] = val.strip(), lineno
    return values


# key -> (its flag, or None for a key only a config file sets; the flag's
# argparse keywords).  A config file's value is parsed with the flag's type.
KEYS = {
    "case": ("--case", dict(choices=CASES)),
    "p": ("--p", dict(type=int)),
    "level": ("--level", dict(type=int)),
    "levels": ("--levels", dict(type=parse_levels, help=f"range like 2..5 or list 2,3,4; default {CONVERGE_H_LEVELS}")),
    "gamma": ("--gamma", dict(type=float)),
    "alpha": ("--alpha", dict(type=float)),
    "beta": ("--beta", dict(type=float)),
    "lam": ("--lambda", dict(type=float)),
    "dt": ("--dt", dict(type=float)),
    "t_final": ("--t-final", dict(type=float)),
    "penalty_mode": ("--penalty-mode", dict(choices=PENALTY_MODES)),
    "bc_mode": (None, {}),
    "dt_steps": ("--dt-steps", dict(type=int)),
    "out": ("--out", {}),
    "fmt": ("--format", dict(choices=FORMATS)),
}

_COMMON_KEYS = ("case", "p", "gamma", "dt", "t_final", "penalty_mode", "bc_mode", "out", "fmt")

# command -> (help, runner, its ProblemConfig.mode, the keys it reads): the
# common keys and its own.  Only stability, which runs without sources,
# reads the coefficients; the other commands take them from the case, like
# bc_mode.
COMMANDS = {
    name: (help_text, runner, mode, (*_COMMON_KEYS, *own))
    for name, help_text, runner, mode, own in (
        ("solve", "single transient run, report final errors", run_solve, "transient", ("level",)),
        ("converge-h", "spatial convergence study over a level range", run_converge_h, "converge_h", ("levels",)),
        ("converge-dt", "temporal convergence study at a fixed level", run_converge_dt, "converge_dt", ("level", "dt_steps")),
        ("stability", "zero-source energy decay log", run_stability, "stability", ("level", "alpha", "beta", "lam")),
    )
}


def build_config(args: argparse.Namespace) -> ProblemConfig:
    """The run of ``args.command``: defaults, then the config file, then the
    flags, each setting only the keys the command reads."""
    _, _, mode, keys = COMMANDS[args.command]
    values: dict = {}
    if args.config:
        for key, text in read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}; {args.command} reads {', '.join(keys)}")
            try:
                values[key] = KEYS[key][1].get("type", str)(text)
            except ValueError:
                raise ValueError(f"{args.config}: invalid value for {key}: {text!r}") from None
    values.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    case = get_case(values.get("case", "example1"))
    for key in ("bc_mode", "alpha", "beta", "lam"):
        values.setdefault(key, getattr(case, key))
    config = ProblemConfig(mode=mode, **values).validate()
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"out = {config.out}: its directory does not exist; create it or write elsewhere")
    if config.out and os.path.isdir(config.out):
        raise ValueError(f"out = {config.out}: it is a directory; name a file in it to write the table to")
    return config


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the flags of the keys it reads; no
    abbreviations, so ``--level`` is not taken for ``--levels``."""
    parser = argparse.ArgumentParser(prog="dgdyn", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, keys) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="key = value configuration file")
        for key, (flag, kwargs) in KEYS.items():
            if flag and key in keys:
                sub.add_argument(flag, dest=key, **kwargs)
    return parser


HINT = re.compile(r" \((lower|raise) (--[a-z-]+(?:(?:, | or )--[a-z-]+)*)\)")


def accepted_hints(message: str, command: str) -> str:
    """``message`` with each hint, such as "(lower --gamma, --alpha or
    --dt)", naming only the flags ``command`` accepts, and a hint that
    names none of them dropped: the solver names every flag that scales a
    system, and only stability takes the coefficients."""
    flags = {KEYS[key][0] for key in COMMANDS[command][3]}

    def accepted(hint: re.Match) -> str:
        named = [flag for flag in re.split(", | or ", hint[2]) if flag in flags]
        listed = " or ".join([", ".join(named[:-1]), named[-1]] if len(named) > 1 else named)
        return f" ({hint[1]} {listed})" if named else ""

    return HINT.sub(accepted, message)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (OSError, ValueError) as exc:  # bad input: one line, exit status 2
        parser.error(str(exc))
    try:
        COMMANDS[args.command][1](config)
    except (InputError, SolverError, StabilityViolation) as exc:  # one line, exit status 2, no log
        parser.error(accepted_hints(str(exc), args.command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
