"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the assertions.
"""

import time

import numpy as np
import pytest

from conserva import active_flux, corrections, recovery, schemes
from conserva.harness import case_library, runner, weak
from conserva.mesh import uniform_mesh
from conserva.models import Burgers, Euler, NodeKernels
from conserva.records import RunConfig
from conserva.schemes import NumericalFlux, fv_residuals_1d, rd_step, supg_residuals_1d

from conftest import SEGMENT, TRIANGLE, energy_identity_defect, path_graph, post_defect


def _report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _smooth_euler_states(model, x):
    w = np.empty(x.shape + (3,))
    w[..., 0] = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    w[..., 1] = 0.2 * np.cos(2 * np.pi * x)
    w[..., 2] = 1.0 + 0.2 * np.sin(4 * np.pi * x + 1.0)
    return model.from_aux(w)


def test_criterion_1_fv_residual_form_equals_flux_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (50, 200):
        for model, make_u0 in (
            (Burgers(), lambda m, x: np.sin(np.pi * x)[:, None]),
            (Euler(1.4), _smooth_euler_states),
        ):
            for boundary in ("periodic", "transmissive"):
                mesh = uniform_mesh(-1.0, 1.0, n, boundary=boundary)
                states = make_u0(model, mesh.dof_x)
                flux = NumericalFlux("rusanov")
                res = fv_residuals_1d(mesh, NodeKernels.of(model, states), flux)
                dt = 0.2 * float(mesh.volumes.min()) / float(
                    model.max_wave_speed(states).max()
                )
                via_residuals = rd_step(mesh, states, res, dt)

                left, right = (NodeKernels.of(model, states[mesh.cell_dofs[:, k]]) for k in (0, 1))
                fhat = flux(left, right)
                if boundary == "periodic":
                    diff = fhat - np.roll(fhat, 1, axis=0)
                else:
                    closed = np.vstack(
                        [model.flux(states[0])[None], fhat, model.flux(states[-1])[None]]
                    )
                    diff = closed[1:] - closed[:-1]
                direct = states - dt / mesh.volumes[:, None] * diff
                worst = max(worst, float(np.abs(via_residuals - direct).max()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-13 and elapsed < 1.0,
        f"max |residual-form - flux-form| = {worst:.2e} (tol 1e-13), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_flux_recovery_lemma():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    graphs = [SEGMENT] + [path_graph(n) for n in (3, 4, 5, 6)] + [TRIANGLE]
    worst = 0.0
    for graph in graphs:
        for _ in range(1000):
            psi = rng.normal(size=(graph.ndof, 3))
            psi -= psi.mean(axis=0, keepdims=True)
            fluxes = recovery.recover_fluxes(graph, psi)
            err = np.abs(graph.incidence @ fluxes - psi).max()
            worst = max(worst, err / np.abs(psi).max())

    psi0 = np.array([[1.0], [-1.0], [0.0]])
    got = recovery.recover_fluxes(TRIANGLE, psi0)[:, 0]
    oracle = (np.linalg.pinv(TRIANGLE.incidence) @ psi0)[:, 0]
    ref_err = np.abs(got - np.array([2 / 3, -1 / 3, -1 / 3])).max()
    oracle_err = np.abs(got - oracle).max()
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 1e-11 and ref_err <= 1e-12 and oracle_err <= 1e-12 and elapsed < 5.0,
        f"worst |A f - psi|/|psi| = {worst:.2e} (tol 1e-11), triangle case off by "
        f"{ref_err:.2e} from (2/3,-1/3,-1/3), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_supg_and_corrected_residuals_admit_flux_form():
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 50, boundary="periodic")
    states = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("rusanov")

    worst = 0.0
    dt = 0.4 * float(mesh.volumes.min())
    for _ in range(40):  # march and re-check the rewriting along the way
        nodes = NodeKernels.of(model, states)
        supg = supg_residuals_1d(mesh, nodes, model)
        corrected, _ = corrections.entropy_correction(
            fv_residuals_1d(mesh, nodes, flux), nodes, model
        )
        for residuals in (supg, corrected):
            increments, _ = recovery.reconstruct_scheme(mesh, states, residuals)
            worst = max(
                worst,
                float(np.abs(increments - residuals.scatter_to_dofs(mesh.ndof)).max()),
            )
        states = rd_step(mesh, states, corrected, dt)
    _report(
        3,
        worst <= 1e-12,
        f"max |flux-form update - residual update| = {worst:.2e} (tol 1e-12) "
        "for SUPG and entropy-corrected residuals on a 50-cell run",
    )


def _mass_scale(mesh, u0):
    return float((mesh.volumes[:, None] * np.abs(u0)).sum(axis=0).max())


def test_criterion_4_conservation_ledgers_500_steps():
    details = []
    ok = True

    # periodic Burgers for every residual scheme id plus active flux
    case = case_library("burgers-sine")
    for scheme_id in ("fv-rusanov", "supg", "fv-entropy-corrected"):
        config = RunConfig(case="burgers-sine", scheme=scheme_id, nx=100).validate()
        mesh = uniform_mesh(-1.0, 1.0, 100, boundary="periodic")
        u0 = case.u0(mesh.dof_x)
        if scheme_id == "supg":
            assemble = lambda nodes, dt: supg_residuals_1d(mesh, nodes, case.model)
        elif scheme_id == "fv-rusanov":
            flux = NumericalFlux("rusanov")
            assemble = lambda nodes, dt: fv_residuals_1d(mesh, nodes, flux)
        else:
            flux = NumericalFlux("rusanov")
            assemble = lambda nodes, dt: corrections.entropy_correction(
                fv_residuals_1d(mesh, nodes, flux), nodes, case.model
            )[0]
        record = schemes.integrate(
            case.model, mesh, u0, assemble,
            cfl=config.resolved_cfl(), t_end=1e9,
            integrator=config.resolved_integrator(), stop_after_steps=500,
        )
        drift = record.ledger.conservation_drift() / _mass_scale(mesh, u0)
        details.append(f"{scheme_id}: {drift:.2e}")
        ok &= record.ledger.nsteps == 500 and drift <= 1e-11

    mesh = uniform_mesh(-1.0, 1.0, 100, boundary="periodic")
    u0 = case.u0(mesh.dof_x)
    state0 = active_flux.initialize(case.model, mesh, case.u0)
    record = active_flux.af_integrate(
        case.model, mesh, state0, t_end=1e9, detector=True, stop_after_steps=500
    )
    drift = record.ledger.conservation_drift() / _mass_scale(mesh, u0)
    details.append(f"active-flux: {drift:.2e}")
    ok &= record.ledger.nsteps == 500 and drift <= 1e-11

    # corrected two-field gas scheme: total-energy drift on a periodic run,
    # with forward Euler and with SSPRK3 stages combined in conserved variables
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 64, boundary="periodic")
    u0 = _smooth_euler_states(model, mesh.dof_x)
    assemble = schemes.residual_assembler("nc-energy-corrected", model, mesh)
    for integrator in ("euler", "ssprk3"):
        record = schemes.integrate(
            model, mesh, u0, assemble,
            cfl=0.4, t_end=1e9, integrator=integrator, stop_after_steps=500,
        )
        defect = record.ledger.totals - record.ledger.totals[0] + record.ledger.boundary_accum
        energy_scale = abs(record.ledger.totals[0][2])
        energy_drift = float(np.abs(defect[:, 2]).max()) / energy_scale
        details.append(f"nc-energy ({integrator}): {energy_drift:.2e}")
        ok &= record.ledger.nsteps == 500 and energy_drift <= 1e-10

    _report(4, ok, "relative drifts over 500 steps: " + ", ".join(details))


def test_criterion_5_entropy_correction_and_negative_control():
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 100, boundary="periodic")
    states = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("rusanov")

    worst_post = np.inf
    max_rise = -np.inf
    entropy_prev = float((mesh.volumes * model.entropy(states)).sum())
    for _ in range(500):
        dt = 0.1 * float(mesh.volumes.min()) / max(
            float(model.max_wave_speed(states).max()), 1e-300
        )
        nodes = NodeKernels.of(model, states)
        base = fv_residuals_1d(mesh, nodes, flux)
        corrected, _ = corrections.entropy_correction(base, nodes, model)
        worst_post = min(worst_post, float(post_defect(corrected, states, model).min()))
        states = rd_step(mesh, states, corrected, dt)
        entropy_now = float((mesh.volumes * model.entropy(states)).sum())
        max_rise = max(max_rise, entropy_now - entropy_prev)
        entropy_prev = entropy_now

    # negative control: the dissipation-free central flux must violate the
    # per-element inequality somewhere
    central = NumericalFlux("central")
    states_c = np.sin(np.pi * mesh.dof_x)[:, None]
    violations = 0
    for _ in range(100):
        dt = 0.1 * float(mesh.volumes.min()) / max(
            float(model.max_wave_speed(states_c).max()), 1e-300
        )
        nodes = NodeKernels.of(model, states_c)
        base = fv_residuals_1d(mesh, nodes, central)
        # pre_defect: each element's entropy production minus its boundary
        # entropy flux, before the correction acts
        pre_defect = corrections.entropy_correction(base, nodes, model)[1].pre_defect
        violations += int((pre_defect < -1e-12).sum())
        states_c = rd_step(mesh, states_c, base, dt)

    ok = worst_post >= -1e-12 and max_rise <= 1e-13 and violations >= 1
    _report(
        5,
        ok,
        f"corrected: min element margin {worst_post:.2e} (>= -1e-12), max entropy "
        f"rise/step {max_rise:.2e} (<= 0); central control violations: {violations} (>= 1)",
    )


def test_criterion_6_shock_location_and_weak_residual():
    config = RunConfig(case="burgers-riemann", scheme="fv-rusanov", nx=400, t_end=1.0)
    record = runner.run(config)
    mesh = record.mesh
    u = record.final_state[:, 0]
    x = mesh.dof_x
    crossing = None
    for i in range(len(u) - 1):
        if (u[i] - 0.5) * (u[i + 1] - 0.5) <= 0 and u[i] != u[i + 1]:
            crossing = x[i] + (0.5 - u[i]) * (x[i + 1] - x[i]) / (u[i + 1] - u[i])
            break
    dx = mesh.cell_sizes[0]
    loc_ok = crossing is not None and abs(crossing - 0.5) <= 2 * dx

    defects = []
    for nx in (100, 200, 400):
        cfg = RunConfig(
            case="burgers-riemann", scheme="fv-rusanov", nx=nx, t_end=1.0, snapshot_every=1
        )
        defects.append(weak.weak_residual_diagnostic(runner.run(cfg)))
    monotone = defects[0] > defects[1] > defects[2]
    _report(
        6,
        loc_ok and monotone,
        f"shock at x = {crossing:.4f} (target 0.5 +- {2 * dx:.4f}); weak defects "
        + " > ".join(f"{d:.3e}" for d in defects),
    )


def test_criterion_7_sod_against_exact_riemann():
    t0 = time.perf_counter()
    cfg_fv = RunConfig(case="sod", scheme="fv-rusanov", nx=1000, t_end=0.2)
    rec_fv = runner.run(cfg_fv)
    case, mesh = rec_fv.case, rec_fv.mesh
    exact_nodes = case.exact_solution(mesh.dof_x, 0.2)
    err_fv = float(
        (mesh.volumes * np.abs(rec_fv.final_state[:, 0] - exact_nodes[:, 0])).sum()
    )

    cfg_af = RunConfig(case="sod", scheme="active-flux", nx=1000, t_end=0.2, detector=True)
    rec_af = runner.run(cfg_af)
    centers = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    exact_centers = case.exact_solution(centers, 0.2)
    err_af = float(
        (mesh.cell_sizes * np.abs(rec_af.final_averages[:, 0] - exact_centers[:, 0])).sum()
    )
    elapsed = time.perf_counter() - t0
    _report(
        7,
        err_fv <= 2e-2 and err_af <= 5e-3 and elapsed < 30.0,
        f"L1(rho) first-order FV {err_fv:.4f} (<= 2e-2), active-flux+detector "
        f"{err_af:.5f} (<= 5e-3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_active_flux_third_order():
    results = {}
    for case_id, t_end in (("advection-sine", 2.0), ("burgers-sine", 0.25 / np.pi)):
        config = RunConfig(case=case_id, scheme="active-flux", t_end=t_end)
        rows = runner.convergence_study(config, (40, 80, 160))
        orders = [row[2] for row in rows[1:]]
        results[case_id] = (rows, orders)
    ok = all(all(o >= 2.7 for o in orders) for _, orders in results.values())
    detail = "; ".join(
        f"{cid}: orders " + ", ".join(f"{o:.2f}" for o in orders)
        for cid, (_, orders) in results.items()
    )
    _report(8, ok, detail + " (all >= 2.7)")


def test_criterion_9_shu_osher_with_detector():
    case = case_library("shu-osher")
    records = {}
    for nx in (400, 800, 1600):
        mesh = uniform_mesh(-5.0, 5.0, nx, boundary="transmissive")
        state0 = active_flux.initialize(case.model, mesh, case.u0)
        records[nx] = active_flux.af_integrate(
            case.model, mesh, state0, t_end=1.8, detector=True
        )
    mesh400 = uniform_mesh(-5.0, 5.0, 400, boundary="transmissive")
    u0 = case.u0(mesh400.dof_x)
    mass_scale = float((mesh400.volumes * np.abs(u0[:, 0])).sum())
    drift = records[400].ledger.conservation_drift() / mass_scale

    reference = records[1600].final_averages
    errors = {}
    for nx in (400, 800):
        factor = 1600 // nx
        projected = reference.reshape(nx, factor, 3).mean(axis=1)
        errors[nx] = float(
            (10.0 / nx) * np.abs(records[nx].final_averages[:, 0] - projected[:, 0]).sum()
        )
    ok = drift <= 1e-11 and errors[400] > errors[800]
    _report(
        9,
        ok,
        f"run complete, mass ledger drift {drift:.2e} (<= 1e-11); self-convergence "
        f"L1 vs n=1600: {errors[400]:.4f} (n=400) > {errors[800]:.4f} (n=800)",
    )


def test_criterion_10_algebraic_identities():
    rng = np.random.default_rng(11)
    n = 100_000
    rho0, rho1 = rng.uniform(0.05, 10.0, (2, n))
    v0, v1 = rng.uniform(-5.0, 5.0, (2, n))
    e0, e1 = rng.uniform(0.05, 10.0, (2, n))
    defect = energy_identity_defect(rho0, v0, e0, rho1, v1, e1)
    scale = np.abs(e1 + 0.5 * rho1 * v1**2) + np.abs(e0 + 0.5 * rho0 * v0**2) + 1.0
    energy_worst = float((defect / scale).max())
    _report(
        10,
        energy_worst <= 1e-14,
        f"energy identity defect {energy_worst:.2e} (<= 1e-14, 1e5 tuples)",
    )


def _energy_shift_dropped(phi_rho, phi_mom, phi_e, v_half_sum, v_half_prod, boundary_energy_flux):
    """``nonconservative_energy_correction`` without its per-element shift r:
    the internal-energy scheme's total-energy residual, not in flux form."""
    terms = phi_e + v_half_sum * phi_mom - v_half_prod * phi_rho
    return terms, np.zeros(terms.shape[1])


def test_criterion_11_lax_wendroff_control(monkeypatch):
    # Sod, forward Euler, CFL 0.4, t = 0.2: the shipped energy correction
    # against the same scheme with its shift dropped.  The shock is the last
    # node whose density exceeds 0.195, the mean of the post-shock and right
    # states; the weak defect's bumps sit on the exact shock path.
    # Measured: shock x 0.8500 corrected, 0.8450-0.8463 uncorrected (exact
    # 0.8504); relative energy drift <= 4.5e-14 against >= 2.7e-3; weak
    # defect ratio per doubling 0.52-0.53 against 0.68-0.79.
    def measure(nx):
        config = RunConfig(case="sod", scheme="nc-energy-corrected", nx=nx, t_end=0.2,
                           integrator="euler", cfl=0.4, snapshot_every=1)
        record = runner.run(config)
        shock = record.mesh.dof_x[np.flatnonzero(record.final_state[:, 0] > 0.195)[-1]]
        ledger = record.ledger
        energy = ledger.totals[:, 2]
        drift = abs(energy[-1] - energy[0] + ledger.boundary_accum[-1, 2]) / abs(energy[0])
        offset = abs(shock - record.case.shock_path(0.2))
        return offset, drift, weak.weak_residual_diagnostic(record)

    resolutions = (400, 800, 1600)
    shipped = np.array([measure(nx) for nx in resolutions])
    monkeypatch.setattr(corrections, "nonconservative_energy_correction", _energy_shift_dropped)
    control = np.array([measure(nx) for nx in resolutions])

    def ratios(rows):
        return rows[1:, 2] / rows[:-1, 2]

    # (what, shipped values, their upper bound, control values, their lower bound)
    checks = [
        ("shock offset", shipped[:, 0], 1e-3, control[:, 0], 3e-3),
        ("relative energy drift", shipped[:, 1], 1e-12, control[:, 1], 1e-3),
        ("weak defect ratio per doubling", ratios(shipped), 0.58, ratios(control), 0.64),
    ]
    _report(
        11,
        all(ours.max() <= upper and theirs.min() >= lower
            for _, ours, upper, theirs, lower in checks),
        "nx 400/800/1600, shipped vs shift dropped: " + "; ".join(
            f"{what} {'/'.join(f'{v:.2g}' for v in ours)} (<= {upper:g}) vs "
            f"{'/'.join(f'{v:.2g}' for v in theirs)} (>= {lower:g})"
            for what, ours, upper, theirs, lower in checks
        ),
    )
