"""CLI, canned cases, exact-solution oracles and weak-solution diagnostics."""

from .cases import Case, case_library
from .exact import (
    BURGERS_SINE_BREAKDOWN,
    RiemannSolution,
    burgers_riemann,
    burgers_sine_exact,
    exact_riemann_euler,
)
from .runner import build_problem, convergence_study, l1_error, run
from .weak import BumpTestFunction, default_bumps, weak_residual_diagnostic

__all__ = [
    "BURGERS_SINE_BREAKDOWN",
    "BumpTestFunction",
    "Case",
    "RiemannSolution",
    "build_problem",
    "burgers_riemann",
    "burgers_sine_exact",
    "case_library",
    "convergence_study",
    "default_bumps",
    "exact_riemann_euler",
    "l1_error",
    "run",
    "weak_residual_diagnostic",
]
