"""Run orchestration and table emission.

Subcommands: ``solve`` (one transient run), ``converge-h`` (spatial
refinement study), ``converge-dt`` (time-step study at fixed level) and
``stability`` (zero-source energy decay log).  Configuration comes from
defaults, an optional ``key = value`` config file and command-line flags,
in increasing precedence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import CASES, FORMATS, PENALTY_MODES, ProblemConfig
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

    res = run_backward_euler(config, case.declared("f"), case.declared("g"), case.u0, on_step=on_step, ops=ops)
    dom, g1, _ = l2_errors(
        ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, case, t=config.t_final
    )
    return ErrorRecord(
        h=ops.mesh.h, dt=config.dt, l2_domain=dom, l2_gamma1=g1, energy=float(np.sqrt(acc[0]))
    )


def _attach_rates(records: list[ErrorRecord], factor: float = 2.0) -> None:
    for prev, rec in zip(records, records[1:]):
        rec.rate_l2_domain = rate(prev.l2_domain, rec.l2_domain, factor)
        rec.rate_l2_gamma1 = rate(prev.l2_gamma1, rec.l2_gamma1, factor)
        if prev.energy > 0 and rec.energy > 0:
            rec.rate_energy = rate(prev.energy, rec.energy, factor)


CONVERGE_H_HEADER = ["h", "l2_domain", "rate_l2_domain", "l2_gamma1", "rate_l2_gamma1", "energy", "rate_energy"]


def run_converge_h(config: ProblemConfig) -> list[ErrorRecord]:
    """Transient convergence study over a level range; rows in Table order
    (h, L2 domain error, rate, L2 boundary error, rate, energy error, rate)."""
    case = get_case(config.case)
    levels = config.levels or (2, 3, 4, 5)
    records = [_transient_errors(config.with_(level=lv, levels=None), case) for lv in levels]
    _attach_rates(records)
    _write_records(CONVERGE_H_HEADER, records, config)
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
        cfg = config.with_(dt=dt)
        res = run_backward_euler(cfg, case.declared("f"), case.declared("g"), case.u0, ops=ops)
        dom, g1, _ = l2_errors(
            ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, case, t=config.t_final
        )
        records.append(ErrorRecord(h=ops.mesh.h, dt=dt, l2_domain=dom, l2_gamma1=g1, energy=0.0))
    _attach_rates(records)
    _write_records(CONVERGE_DT_HEADER, records, config)
    return records


def run_stability(config: ProblemConfig) -> list[tuple[int, float, float]]:
    """Zero-source run; logs k, t_k, the lambda-weighted L2 norm, and checks
    the step-wise energy decay.  An initial datum that projects to zero is
    an InputError, raised before the first step: its log would be zeros."""
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
                f"energy increased at step {k}: {norms[k - 1]:.15e} -> {norms[k]:.15e}"
            )
    _write_table(["k", "t", "l2_lambda_norm"], [[str(k), _fmt(t), _fmt(n)] for k, t, n in rows], config)
    return rows


def run_solve(config: ProblemConfig) -> ErrorRecord:
    """Single transient run; emits one row of final errors."""
    case = get_case(config.case)
    rec = _transient_errors(config, case)
    _write_records(["h", "dt", "l2_domain", "l2_gamma1", "energy"], [rec], config)
    return rec


# ---------------------------------------------------------------------------
# argument and config-file handling


def parse_levels(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_FIELD_PARSERS = {
    "case": str,
    "p": int,
    "level": int,
    "levels": parse_levels,
    "gamma": float,
    "alpha": float,
    "beta": float,
    "lam": float,
    "dt": float,
    "t_final": float,
    "penalty_mode": str,
    "bc_mode": str,
    "dt_steps": int,
    "out": str,
    "fmt": str,
}

_MODE_OF_COMMAND = {
    "solve": "transient",
    "converge-h": "converge_h",
    "converge-dt": "converge_dt",
    "stability": "stability",
}


def _add_common_flags(sub):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--case", choices=CASES)
    sub.add_argument("--p", type=int)
    sub.add_argument("--level", type=int)
    sub.add_argument("--levels", type=parse_levels, help="range like 2..5 or list 2,3,4")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--lambda", dest="lam", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--t-final", dest="t_final", type=float)
    sub.add_argument("--penalty-mode", dest="penalty_mode", choices=PENALTY_MODES)
    sub.add_argument("--dt-steps", dest="dt_steps", type=int)
    sub.add_argument("--out")
    sub.add_argument("--format", dest="fmt", choices=FORMATS)


def build_config(args: argparse.Namespace) -> ProblemConfig:
    values: dict = {}
    if args.config:
        raw = read_config_file(args.config)
        for key, text in raw.items():
            if key not in _FIELD_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _FIELD_PARSERS[key](text)
    for key in _FIELD_PARSERS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            values[key] = flag_val
    values["mode"] = _MODE_OF_COMMAND[args.command]
    case = get_case(values.get("case", "example1"))
    values.setdefault("bc_mode", case.bc_mode)
    config = ProblemConfig(**values).validate()
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"out = {config.out}: its directory does not exist; create it or write elsewhere")
    if args.command != "stability":  # stability runs without sources
        for key, flag in (("alpha", "--alpha"), ("beta", "--beta"), ("lam", "--lambda")):
            asked, built = getattr(config, key), getattr(case, key)
            if asked != built:
                raise ValueError(
                    f"{key} = {asked:g} differs from {key} = {built:g} in the {config.case} sources, "
                    f"so the run would not solve the manufactured problem; drop the {flag} / {key} setting, "
                    f"or use the stability command, which runs without sources"
                )
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dgdyn", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "single transient run, report final errors"),
        ("converge-h", "spatial convergence study over a level range"),
        ("converge-dt", "temporal convergence study at a fixed level"),
        ("stability", "zero-source energy decay log"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_flags(sub)
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (OSError, ValueError) as exc:  # bad input: one line, exit status 2
        parser.error(str(exc))
    runner = {
        "solve": run_solve,
        "converge-h": run_converge_h,
        "converge-dt": run_converge_dt,
        "stability": run_stability,
    }[args.command]
    try:
        runner(config)
    except (InputError, SolverError) as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
