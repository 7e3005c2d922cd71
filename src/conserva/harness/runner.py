"""Resolve a RunConfig into model, mesh and scheme, then run it."""

from __future__ import annotations

import numpy as np

from .. import active_flux, schemes
from ..errors import ConfigError
from ..mesh import uniform_mesh
from ..records import RunConfig, SolutionRecord
from ..schemes import TwoFieldGasScheme
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
    """Execute one configured run and return its record."""
    case, mesh, u0 = build_problem(config)
    model = case.model
    cfl = config.resolved_cfl()
    t_end = config.t_end if config.t_end is not None else case.t_end
    integrator = config.resolved_integrator()

    if config.scheme == "active-flux":
        state0 = active_flux.initialize(model, mesh, case.u0)
        record = active_flux.af_integrate(
            model,
            mesh,
            state0,
            cfl=cfl,
            t_end=t_end,
            detector=config.detector,
            snapshot_every=config.snapshot_every,
        )
    elif config.scheme == "nc-energy-corrected":
        gas = TwoFieldGasScheme(model, mesh)
        record = schemes.integrate(
            gas,
            mesh,
            gas.from_conserved(u0),
            gas.assemble,
            cfl=cfl,
            t_end=t_end,
            integrator=integrator,
            snapshot_every=config.snapshot_every,
            conserved_totals=gas.conserved_totals,
        )
        record.states = [gas.to_conserved(w) for w in record.states]
    else:
        record = schemes.integrate(
            model,
            mesh,
            u0,
            schemes.residual_assembler(config.scheme, model, mesh, config.tau_scale),
            cfl=cfl,
            t_end=t_end,
            integrator=integrator,
            snapshot_every=config.snapshot_every,
        )
    record.meta.update(
        case=config.case,
        scheme=config.scheme,
        nx=config.nx,
        cfl=cfl,
        t_end=t_end,
        boundary=mesh.boundary,
        gamma=config.gamma,
    )
    return record


def l1_error(record, config):
    """L1 distance between a finished run and the case's exact solution."""
    case, mesh, _ = build_problem(config)
    if case.exact_solution is None:
        raise ConfigError(f"case {config.case!r} has no exact solution")
    t = float(record.times[-1])
    reference = case.exact_solution(mesh.dof_x, t)
    if config.scheme == "active-flux":
        # compare the conserved point values at the nodes; comparing averages
        # against point samples of the exact solution would stall at order 2
        state = case.model.from_aux(record.final_state)
    else:
        state = record.final_state
    diff = np.abs(state - reference)
    return float((mesh.volumes[:, None] * diff).sum())


def convergence_study(config, resolutions):
    """L1 errors and observed orders across a list of resolutions."""
    rows = []
    previous = None
    for nx in resolutions:
        cfg = RunConfig(**{**config.__dict__, "nx": int(nx)})
        record = run(cfg)
        err = l1_error(record, cfg)
        order = None
        if previous is not None and err > 0:
            n_prev, e_prev = previous
            order = np.log(e_prev / err) / np.log(nx / n_prev)
        rows.append((int(nx), err, order))
        previous = (nx, err)
    return rows
