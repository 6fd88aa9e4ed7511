"""Run configuration shared by the time stepper and the command line."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mesh import BC_MODES, PERIODIC

CASES = ("example1", "example2", "example3")
MODES = ("transient", "converge_h", "converge_dt", "stability")
FORMATS = ("csv", "markdown")
PENALTY_MODES = ("gamma_over_h", "fixed_sigma")
CONVERGE_H_LEVELS = (2, 3, 4, 5)  # converge_h's levels unless ``levels`` is given

REL_STEP_TOL = 1e-9  # t_final / dt must be integral to this tolerance
# Most dof-steps (finest mesh's dofs times finest dt's steps) a run may take:
# 1e12 is days at 1-3 million a second, so more is a mistyped dt or level.
DOF_STEP_BUDGET = 1e12


@dataclass
class ProblemConfig:
    """Full description of one run (one experiment row of the harness)."""

    case: str = "example1"
    mode: str = "transient"
    p: int = 1
    level: int = 4
    levels: tuple[int, ...] | None = None
    gamma: float = 10.0
    alpha: float = 2.0
    beta: float = 5.0
    lam: float = 10.0
    dt: float = 1e-5
    t_final: float = 1e-3
    penalty_mode: str = "gamma_over_h"
    bc_mode: str = PERIODIC
    dt_steps: int = 5  # rows of the converge_dt table: dt, dt/2, ..., dt/2^(dt_steps-1)
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> "ProblemConfig":
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.penalty_mode not in PENALTY_MODES:
            raise ValueError(f"unknown penalty_mode {self.penalty_mode!r}")
        if self.bc_mode not in BC_MODES:
            raise ValueError(f"unknown bc_mode {self.bc_mode!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.levels is not None:
            if len(self.levels) == 0 or any(b <= a for a, b in zip(self.levels, self.levels[1:])):
                raise ValueError("levels must be a nonempty increasing sequence")
        if min((self.level, *(self.levels or ()))) < 0:
            raise ValueError("mesh levels must be >= 0; level 0 is one cell split in two triangles")
        coefficients = {"alpha": self.alpha, "beta": self.beta, "lambda": self.lam}
        for name, value in {"gamma": self.gamma, **coefficients, "dt": self.dt, "t_final": self.t_final}.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value:g}: {name} must be a finite number")
        if self.gamma <= 0:
            raise ValueError(f"gamma = {self.gamma:g}: the penalty gamma must be positive")
        for name, value in coefficients.items():
            if value < 0:
                raise ValueError(f"{name} = {value:g}: alpha, beta and lambda must be >= 0")
        if self.dt_steps < 1:
            raise ValueError(f"dt_steps = {self.dt_steps}: the dt table needs at least one row")
        top, rows = max(self.run_levels), 2 ** (self.dt_steps - 1) if self.mode == "converge_dt" else 1
        dofs, steps = 4**top * (self.p + 1) * (self.p + 2), self.num_steps() * rows  # raises if not integral
        if dofs * steps > DOF_STEP_BUDGET:
            fit = self.t_final * dofs * rows / DOF_STEP_BUDGET
            fits = f"dt >= {fit:.3g} fits" if fit <= self.t_final else f"no dt fits at level {top}"
            raise ValueError(f"{steps:.3g} steps of {dofs} dofs exceed the budget of {DOF_STEP_BUDGET:.0e} dof-steps; {fits}")
        return self

    @property
    def run_levels(self) -> tuple[int, ...]:
        """The mesh levels the run builds: ``levels``, else converge_h's default, else ``level``."""
        return self.levels or (CONVERGE_H_LEVELS if self.mode == "converge_h" else (self.level,))

    def num_steps(self) -> int:
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        ratio = self.t_final / self.dt
        k = round(ratio)
        if k < 1 or abs(ratio - k) > REL_STEP_TOL * max(1.0, k):
            raise ValueError(f"t_final/dt = {ratio} is not an integer number of steps")
        return k
