"""The scheme table, run configuration and solution records shared by schemes
and the harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

CASE_IDS = ("advection-sine", "burgers-sine", "burgers-riemann", "sod", "shu-osher")
EULER_CASES = ("sod", "shu-osher")
# Shu-Osher form of each SSP integrator, one (a, b, w) per stage:
# stage = a * u^n + b * (stage + dt * rate), and w is the dt-weight of the
# stage's rate in the whole step, with which the ledger books boundary flux
SSP_STAGES = {
    "euler": ((0.0, 1.0, 1.0),),
    "ssprk2": ((0.0, 1.0, 0.5), (0.5, 0.5, 0.5)),
    "ssprk3": ((0.0, 1.0, 1.0 / 6.0), (0.75, 0.25, 1.0 / 6.0), (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)),
}
INTEGRATORS = tuple(SSP_STAGES)

# base residuals a scheme id can build on
FV, SUPG, ACTIVE_FLUX = "fv", "supg", "active-flux"


@dataclass(frozen=True)
class SchemeRow:
    """One scheme id: a base residual plus zero-sum corrections applied in
    order, the integrators that keep its guarantees (the default first) and
    its default CFL number."""

    base: str
    corrections: tuple
    integrators: tuple
    cfl: float


# every per-scheme decision reads this table
SCHEMES = {
    "fv-rusanov": SchemeRow(FV, (), INTEGRATORS, 0.4),
    "fv-entropy-corrected": SchemeRow(FV, ("entropy",), INTEGRATORS, 0.4),
    "supg": SchemeRow(SUPG, (), ("ssprk3", "euler", "ssprk2"), 0.8),
    "nc-energy-corrected": SchemeRow(FV, ("energy",), INTEGRATORS, 0.4),
    # an SSPRK3 scheme throughout; its point-average coupling holds up to
    # CFL 0.41 and blows up from 0.415 (advection-sine to t = 16), so its
    # default CFL is also the largest it accepts
    "active-flux": SchemeRow(ACTIVE_FLUX, (), ("ssprk3",), 0.4),
}


def require_stable_cfl(scheme_id, cfl):
    """Raise ConfigError for a cfl above the largest that the scheme id
    accepts: active flux's default CFL number is also its stability limit."""
    row = SCHEMES[scheme_id]
    if row.base == ACTIVE_FLUX and cfl > row.cfl:
        raise ConfigError(f"{scheme_id} is stable up to cfl {row.cfl} only, got {cfl}")


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
        row = SCHEMES.get(self.scheme)
        if row is None:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {', '.join(SCHEMES)}")
        if self.nx < 2:
            raise ConfigError(f"nx must be at least 2, got {self.nx}")
        if self.cfl is not None and not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.cfl is not None:
            require_stable_cfl(self.scheme, self.cfl)
        if self.t_end is not None and not 0.0 < self.t_end < np.inf:
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if self.boundary is not None and self.boundary not in ("periodic", "transmissive"):
            raise ConfigError(f"unknown boundary kind {self.boundary!r}")
        if self.integrator is not None and self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.integrator is not None and self.integrator not in row.integrators:
            raise ConfigError(
                f"{self.scheme} runs with integrator {' or '.join(row.integrators)} only, "
                f"got {self.integrator!r}"
            )
        if "energy" in row.corrections and self.case not in EULER_CASES:
            raise ConfigError(
                f"{self.scheme} needs a gas-dynamics case ({', '.join(EULER_CASES)})"
            )
        if self.detector and row.base != ACTIVE_FLUX:
            raise ConfigError(f"the detector applies to {ACTIVE_FLUX} only, not {self.scheme}")
        if not 0.0 <= self.tau_scale <= 1.0:
            raise ConfigError(f"tau_scale must lie in [0, 1], got {self.tau_scale}")
        if self.tau_scale != 1.0 and row.base != SUPG:
            raise ConfigError(f"tau_scale applies to the {SUPG} base only, not {self.scheme}")
        if not self.snapshot_every >= 0:
            raise ConfigError(f"snapshot_every must be at least 0, got {self.snapshot_every}")
        if not 1.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if self.gamma != 1.4 and self.case not in EULER_CASES:
            raise ConfigError(
                f"gamma applies to the gas cases ({', '.join(EULER_CASES)}) only, not {self.case}"
            )
        return self

    def resolved_integrator(self):
        return self.integrator or SCHEMES[self.scheme].integrators[0]

    def resolved_cfl(self):
        return self.cfl if self.cfl is not None else SCHEMES[self.scheme].cfl


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
    """Time series of states plus the conservation/entropy ledgers, with the
    mesh and model they ran on and, for a run of a configured case, that case.

    ``states`` holds per-DOF arrays: conserved states for a residual scheme,
    point values of the mapped variables for the two-field scheme, whose
    conserved cell averages then appear in ``averages``.  ``conserved`` is
    the one reader that undoes this.
    """

    times: np.ndarray
    states: list
    ledger: Ledger
    mesh: object
    model: object
    averages: list | None = None
    case: object = None

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_averages(self):
        return None if self.averages is None else self.averages[-1]

    def conserved(self, k):
        """Snapshot k's conserved states at the DOFs."""
        state = self.states[k]
        return state if self.averages is None else self.model.from_aux(state)
