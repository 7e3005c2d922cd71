"""Resolve a RunConfig into model, mesh and scheme, then run it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import active_flux, schemes
from ..errors import ConfigError
from ..mesh import uniform_mesh
from ..records import ACTIVE_FLUX, SCHEMES, RunConfig, SolutionRecord
from ..schemes import TwoFieldGasScheme  # noqa: F401; perfbench traces it here
from . import cases


def build_problem(config):
    """Case, mesh and initial nodal states for a validated config."""
    config.validate()
    case = cases.case_library(config.case, gamma=config.gamma)
    boundary = config.boundary or case.boundary
    mesh = uniform_mesh(case.domain[0], case.domain[1], config.nx, boundary=boundary)
    u0 = case.u0(mesh.dof_x)
    return case, mesh, u0


def run(config: RunConfig) -> SolutionRecord:
    """Execute one configured run and return its record, which carries the
    case and mesh it ran on."""
    return _run_problem(config, *build_problem(config))


def _run_problem(config, case, mesh, u0):
    settings = dict(
        cfl=config.resolved_cfl(),
        t_end=config.t_end if config.t_end is not None else case.t_end,
        snapshot_every=config.snapshot_every,
    )
    if SCHEMES[config.scheme].base == ACTIVE_FLUX:
        state0 = active_flux.initialize(case.model, mesh, case.u0)
        record = active_flux.af_integrate(
            case.model, mesh, state0, detector=config.detector, **settings
        )
    else:
        assemble = schemes.residual_assembler(config.scheme, case.model, mesh, config.tau_scale)
        record = schemes.integrate(
            case.model, mesh, u0, assemble, integrator=config.resolved_integrator(), **settings
        )
    record.case = case
    return record


def l1_error(record):
    """L1 distance between a finished run of a case and its exact solution."""
    case, mesh = record.case, record.mesh
    if case is None:
        raise ConfigError("the record carries no case, so no exact solution to compare with")
    if case.exact_solution is None:
        raise ConfigError(f"case {case.name!r} has no exact solution")
    reference = case.exact_solution(mesh.dof_x, float(record.times[-1]))
    # conserved point values at the nodes for active flux too: comparing its
    # averages against point samples of the exact solution would stall at order 2
    diff = np.abs(record.conserved(-1) - reference)
    return float((mesh.volumes[:, None] * diff).sum())


def convergence_study(config, resolutions):
    """L1 errors and observed orders across a list of resolutions."""
    rows = []
    previous = None
    for nx in resolutions:
        config_nx = replace(config, nx=int(nx))
        case, mesh, u0 = build_problem(config_nx)
        if case.exact_solution is None:  # before the first run, not after it
            raise ConfigError(f"case {case.name!r} has no exact solution")
        err = l1_error(_run_problem(config_nx, case, mesh, u0))
        order = None
        if previous is not None and err > 0:
            n_prev, e_prev = previous
            order = np.log(e_prev / err) / np.log(nx / n_prev)
        rows.append((int(nx), err, order))
        previous = (nx, err)
    return rows
