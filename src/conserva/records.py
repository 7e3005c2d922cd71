"""Run configuration and solution records shared by schemes and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCHEME_IDS = ("fv-rusanov", "supg", "fv-entropy-corrected", "nc-energy-corrected", "active-flux")
CASE_IDS = ("advection-sine", "burgers-sine", "burgers-riemann", "sod", "shu-osher")
EULER_CASES = ("sod", "shu-osher")
INTEGRATORS = ("euler", "ssprk2", "ssprk3")

# stable defaults: 0.4 for forward Euler and for the two-field scheme,
# 0.8 for SSPRK3-driven residual schemes
_DEFAULT_INTEGRATOR = {
    "fv-rusanov": "euler",
    "fv-entropy-corrected": "euler",
    "nc-energy-corrected": "euler",
    "supg": "ssprk3",
    "active-flux": "ssprk3",
}
# schemes whose guarantees hold for one integrator only: active flux is an
# SSPRK3 scheme, and the energy identity of nc-energy-corrected holds per
# forward Euler step (SSP stages combined in (rho, m, e) lose total energy)
_ONLY_INTEGRATOR = {"active-flux": "ssprk3", "nc-energy-corrected": "euler"}
_DEFAULT_CFL = {
    "fv-rusanov": 0.4,
    "fv-entropy-corrected": 0.4,
    "nc-energy-corrected": 0.4,
    "supg": 0.8,
    "active-flux": 0.4,
}


@dataclass
class RunConfig:
    """Everything needed to reproduce one run."""

    case: str
    scheme: str
    nx: int = 100
    cfl: float | None = None
    t_end: float | None = None
    boundary: str | None = None
    gamma: float = 1.4
    detector: bool = False
    tau_scale: float = 1.0
    integrator: str | None = None
    snapshot_every: int = 0
    out: str | None = None

    def validate(self):
        if self.case not in CASE_IDS:
            raise ConfigError(f"unknown case {self.case!r}; known: {', '.join(CASE_IDS)}")
        if self.scheme not in SCHEME_IDS:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {', '.join(SCHEME_IDS)}")
        if self.nx < 2:
            raise ConfigError(f"nx must be at least 2, got {self.nx}")
        if self.cfl is not None and not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end is not None and self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.boundary is not None and self.boundary not in ("periodic", "transmissive"):
            raise ConfigError(f"unknown boundary kind {self.boundary!r}")
        if self.integrator is not None and self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        only = _ONLY_INTEGRATOR.get(self.scheme)
        if self.integrator is not None and only is not None and self.integrator != only:
            raise ConfigError(
                f"{self.scheme} runs with integrator {only} only, got {self.integrator!r}"
            )
        if self.scheme == "nc-energy-corrected" and self.case not in EULER_CASES:
            raise ConfigError("nc-energy-corrected needs a gas-dynamics case (sod, shu-osher)")
        if self.gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {self.gamma}")
        return self

    def resolved_integrator(self):
        return self.integrator or _DEFAULT_INTEGRATOR[self.scheme]

    def resolved_cfl(self):
        return self.cfl if self.cfl is not None else _DEFAULT_CFL[self.scheme]


@dataclass
class Ledger:
    """Per-step conservation bookkeeping.

    Row k describes the state after k steps (row 0 is the initial state).
    ``boundary_accum`` integrates the net boundary flux, so for a conservative
    scheme ``totals[k] - totals[0] + boundary_accum[k]`` vanishes to rounding.
    """

    time: np.ndarray
    totals: np.ndarray
    entropy: np.ndarray
    boundary_accum: np.ndarray
    alpha_max: np.ndarray
    fallback_cells: np.ndarray

    @property
    def nsteps(self):
        return len(self.time) - 1

    def conservation_drift(self):
        """Max over steps/components of |totals change + boundary accumulation|."""
        defect = self.totals - self.totals[0] + self.boundary_accum
        return float(np.abs(defect).max())


@dataclass
class SolutionRecord:
    """Time series of states plus the conservation/entropy ledgers.

    ``states`` holds per-DOF arrays (point values for the two-field scheme,
    whose cell averages then appear in ``averages``).
    """

    times: np.ndarray
    states: list
    ledger: Ledger
    averages: list | None = None
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_averages(self):
        return None if self.averages is None else self.averages[-1]
