"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the assertions.
"""

import time

import numpy as np
import pytest

from conserva import active_flux, corrections, recovery, schemes
from conserva.harness import build_problem, case_library, runner, weak
from conserva.mesh import element_graph, uniform_mesh
from conserva.models import Burgers, Euler
from conserva.records import RunConfig
from conserva.schemes import NumericalFlux, fv_residuals_1d, rd_step, supg_residuals_1d


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
                flux = NumericalFlux("rusanov", model)
                res = fv_residuals_1d(mesh, states, flux, model)
                dt = 0.2 * float(mesh.volumes.min()) / float(
                    model.max_wave_speed(states).max()
                )
                via_residuals = rd_step(mesh, states, res, dt)

                fhat = flux(+1, states[mesh.cell_dofs[:, 0]], states[mesh.cell_dofs[:, 1]])
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
    graphs = [element_graph("segment")] + [
        element_graph("path", n) for n in (3, 4, 5, 6)
    ] + [element_graph("triangle")]
    worst = 0.0
    for graph in graphs:
        laplacian = recovery.build_laplacian(graph)
        for _ in range(1000):
            psi = rng.normal(size=(graph.ndof, 3))
            psi -= psi.mean(axis=0, keepdims=True)
            fluxes = recovery.recover_fluxes(graph, recovery.RecoveryProblem(psi), laplacian)
            err = np.abs(graph.incidence @ fluxes.values - psi).max()
            worst = max(worst, err / np.abs(psi).max())

    triangle = element_graph("triangle")
    psi0 = np.array([[1.0], [-1.0], [0.0]])
    got = recovery.recover_fluxes(triangle, recovery.RecoveryProblem(psi0)).values[:, 0]
    oracle = (np.linalg.pinv(triangle.incidence) @ psi0)[:, 0]
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
    flux = NumericalFlux("rusanov", model)

    worst = 0.0
    dt = 0.4 * float(mesh.volumes.min())
    for _ in range(40):  # march and re-check the rewriting along the way
        supg = supg_residuals_1d(mesh, states, model)
        corrected, _ = corrections.entropy_correction(
            fv_residuals_1d(mesh, states, flux, model), states, model
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
            assemble = lambda u, dt: supg_residuals_1d(mesh, u, case.model)
        elif scheme_id == "fv-rusanov":
            flux = NumericalFlux("rusanov", case.model)
            assemble = lambda u, dt: fv_residuals_1d(mesh, u, flux, case.model)
        else:
            flux = NumericalFlux("rusanov", case.model)
            assemble = lambda u, dt: corrections.entropy_correction(
                fv_residuals_1d(mesh, u, flux, case.model), u, case.model
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

    # corrected two-field gas scheme: total-energy drift on a periodic run
    model = Euler(1.4)
    mesh = uniform_mesh(0.0, 1.0, 64, boundary="periodic")
    gas = schemes.TwoFieldGasScheme(model, mesh)
    u0 = _smooth_euler_states(model, mesh.dof_x)
    record = schemes.integrate(
        gas, mesh, gas.from_conserved(u0), gas.assemble,
        cfl=0.4, t_end=1e9, integrator="euler", stop_after_steps=500,
        conserved_totals=gas.conserved_totals,
    )
    defect = record.ledger.totals - record.ledger.totals[0] + record.ledger.boundary_accum
    energy_scale = abs(record.ledger.totals[0][2])
    energy_drift = float(np.abs(defect[:, 2]).max()) / energy_scale
    details.append(f"nc-energy: {energy_drift:.2e}")
    ok &= record.ledger.nsteps == 500 and energy_drift <= 1e-10

    _report(4, ok, "relative drifts over 500 steps: " + ", ".join(details))


def test_criterion_5_entropy_correction_and_negative_control():
    model = Burgers()
    mesh = uniform_mesh(-1.0, 1.0, 100, boundary="periodic")
    states = np.sin(np.pi * mesh.dof_x)[:, None]
    flux = NumericalFlux("rusanov", model)

    worst_post = np.inf
    max_rise = -np.inf
    entropy_prev = float((mesh.volumes * model.entropy(states)).sum())
    for _ in range(500):
        dt = 0.1 * float(mesh.volumes.min()) / max(
            float(model.max_wave_speed(states).max()), 1e-300
        )
        base = fv_residuals_1d(mesh, states, flux, model)
        corrected, report = corrections.entropy_correction(base, states, model)
        worst_post = min(worst_post, float(report.post_defect.min()))
        states = rd_step(mesh, states, corrected, dt)
        entropy_now = float((mesh.volumes * model.entropy(states)).sum())
        max_rise = max(max_rise, entropy_now - entropy_prev)
        entropy_prev = entropy_now

    # negative control: the dissipation-free central flux must violate the
    # per-element inequality somewhere
    central = NumericalFlux("central", model)
    states_c = np.sin(np.pi * mesh.dof_x)[:, None]
    violations = 0
    for _ in range(100):
        dt = 0.1 * float(mesh.volumes.min()) / max(
            float(model.max_wave_speed(states_c).max()), 1e-300
        )
        base = fv_residuals_1d(mesh, states_c, central, model)
        production = corrections.entropy_residuals(base, states_c, model).sum(axis=1)
        g = model.entropy_flux(states_c)
        boundary = (
            g[mesh.cell_dofs[:, 1], ...] - g[mesh.cell_dofs[:, 0], ...]
        )
        violations += int(((production - boundary) < -1e-12).sum())
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
    case, mesh, _ = build_problem(config)
    record = runner.run(config)
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
        rec = runner.run(cfg)
        _, m, _ = build_problem(cfg)
        bumps = weak.default_bumps(m, 1.0, shock_path=case.shock_path)
        defects.append(weak.weak_residual_diagnostic(rec, case.model, m, bumps))
    monotone = defects[0] > defects[1] > defects[2]
    _report(
        6,
        loc_ok and monotone,
        f"shock at x = {crossing:.4f} (target 0.5 +- {2 * dx:.4f}); weak defects "
        + " > ".join(f"{d:.3e}" for d in defects),
    )


def test_criterion_7_sod_against_exact_riemann():
    t0 = time.perf_counter()
    case = case_library("sod")

    cfg_fv = RunConfig(case="sod", scheme="fv-rusanov", nx=1000, t_end=0.2)
    rec_fv = runner.run(cfg_fv)
    _, mesh, _ = build_problem(cfg_fv)
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
    defect = corrections.energy_update_identity(rho0, v0, e0, rho1, v1, e1)
    scale = np.abs(e1 + 0.5 * rho1 * v1**2) + np.abs(e0 + 0.5 * rho0 * v0**2) + 1.0
    energy_worst = float((defect / scale).max())

    worst_triangle = 0.0
    rng2 = np.random.default_rng(13)
    count = 0
    while count < 1000:
        verts = rng2.uniform(-1.0, 1.0, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        if area < 0.05:
            continue
        count += 1
        a = rng2.uniform(-1.0, 1.0, 2)
        phys = lambda u: np.stack([0.5 * u * u + a[0] * u, a[1] * u], axis=-1)
        speed = lambda u: float(np.abs(u).max() + np.hypot(a[0], a[1]) + 1.0)
        num = schemes.rusanov_2d(phys, speed)
        centroid = verts.mean(axis=0)
        normals = []
        for i in range(3):
            mid = 0.5 * (verts[i] + verts[(i + 1) % 3])
            tangent = centroid - mid
            normals.append([tangent[1], -tangent[0]])
        states = rng2.uniform(-2.0, 2.0, (3, 1))
        phi, node_sum = schemes.triangle_fv_residuals(
            states, np.asarray(normals), num, phys
        )
        worst_triangle = max(worst_triangle, float(np.abs(phi.sum(axis=0) - node_sum).max()))

    _report(
        10,
        energy_worst <= 1e-14 and worst_triangle <= 1e-13,
        f"energy identity defect {energy_worst:.2e} (<= 1e-14, 1e5 tuples); "
        f"triangle identity defect {worst_triangle:.2e} (<= 1e-13, 1e3 triangles)",
    )
