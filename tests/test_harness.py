import re
import warnings

import numpy as np
import pytest

from conserva.active_flux import af_integrate, initialize
from conserva.errors import ConfigError, DiagnosticError
from conserva.harness import case_library, cases, runner, weak_residual_diagnostic
from conserva.harness.cases import SHU_OSHER_LEFT
from conserva.harness.cli import main
from conserva.harness.runner import build_problem, l1_error, run
from conserva.harness.weak import BumpTestFunction, default_bumps
from conserva.mesh import uniform_mesh
from conserva.records import (
    CASE_IDS,
    EULER_CASES,
    INTEGRATORS,
    SCHEMES,
    RunConfig,
    SolutionRecord,
)
from conserva.schemes import integrate, residual_assembler


# ---------------------------------------------------------------------------
# case library
# ---------------------------------------------------------------------------


def test_case_library_rejects_unknown_id():
    with pytest.raises(ConfigError):
        case_library("kelvin-helmholtz")


def test_burgers_riemann_shock_path():
    case = case_library("burgers-riemann")
    assert case.shock_path(1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("gamma", [1.4, 1.67, 1.2])
def test_sod_shock_path_follows_the_exact_density_jump(gamma):
    case = case_library("sod", gamma=gamma)
    x = case.shock_path(0.2)
    rho_behind, rho_ahead = case.exact_solution(np.array([x - 1e-9, x + 1e-9]), 0.2)[:, 0]
    assert rho_ahead == cases.SOD_RIGHT[0] and rho_behind > 0.2


def test_advection_exact_is_translation():
    case = case_library("advection-sine")
    x = np.linspace(-1, 1, 33)
    np.testing.assert_allclose(
        case.exact_solution(x, 0.25), case.u0(x - 0.25), atol=1e-14
    )


def test_shu_osher_initial_profile():
    case = case_library("shu-osher")
    u = case.u0(np.array([-4.5, 0.0]))
    w = case.model.to_aux(u)
    np.testing.assert_allclose(w[0], SHU_OSHER_LEFT, rtol=1e-12)
    assert w[1, 0] == pytest.approx(1.0 + 0.2 * np.sin(0.0))


# ---------------------------------------------------------------------------
# weak diagnostic
# ---------------------------------------------------------------------------


def test_weak_diagnostic_constant_solution_defect_tiny():
    config = RunConfig(
        case="advection-sine", scheme="fv-rusanov", nx=200, t_end=1.0, snapshot_every=1
    )
    record = run(config)
    # overwrite with the exact constant solution: defect is pure quadrature
    record.states = [np.full_like(s, 0.7) for s in record.states]
    defect = weak_residual_diagnostic(record)
    assert defect <= 5e-5  # time-trapezoid floor; scheme defects sit near 1e-2


@pytest.mark.parametrize("scheme", ["fv-rusanov", "active-flux"])
def test_library_records_without_a_case(scheme):
    # integrate and af_integrate return records whose case is None: the weak
    # diagnostic then centres its bumps mid-domain, and there is no exact
    # solution to measure an L1 error against
    config = RunConfig(case="burgers-riemann", scheme=scheme, nx=50, snapshot_every=1)
    case, mesh, u0 = build_problem(config)
    settings = dict(cfl=config.resolved_cfl(), t_end=case.t_end, snapshot_every=1)
    if scheme == "active-flux":
        state0 = initialize(case.model, mesh, case.u0)
        record = af_integrate(case.model, mesh, state0, **settings)
    else:
        assemble = residual_assembler(scheme, case.model, mesh)
        record = integrate(case.model, mesh, u0, assemble, **settings)
    assert record.case is None
    bumps = default_bumps(mesh, float(record.times[-1]), None)
    assert weak_residual_diagnostic(record) == weak_residual_diagnostic(record, bumps)
    with pytest.raises(ConfigError, match="carries no case"):
        l1_error(record)


def test_weak_diagnostic_needs_dense_snapshots():
    config = RunConfig(case="burgers-riemann", scheme="fv-rusanov", nx=50, t_end=0.5)
    record = run(config)  # only initial and final snapshots stored
    with pytest.raises(DiagnosticError, match=r"2 snapshots, need at least 3; .*snapshot_every=1"):
        weak_residual_diagnostic(record)


@pytest.mark.parametrize("tend, found", [
    ("0.001", r"record holds 2 snapshots, need at least 3; "),
    ("0.01", r"only 0 snapshots inside the bump at t0=\S+, need 8; "),
], ids=["too-few", "none-in-a-bump"])
def test_cli_diagnose_weak_names_a_remedy_its_command_can_follow(tend, found, capsys):
    # diagnose-weak already keeps every step: only more steps give more snapshots
    argv = ["diagnose-weak", "--case", "sod", "--scheme", "fv-rusanov", "--nx-list", "20",
            "--tend", tend]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.search(found + r"run to a later end time \(--tend\) or on more cells \(--nx\)", err)
    assert "snapshot_every" not in err


def test_bump_derivatives_match_finite_differences():
    bump = BumpTestFunction(x0=0.3, t0=0.5, rx=0.2, rt=0.25)
    x = np.linspace(0.15, 0.45, 7)
    t = np.full_like(x, 0.45)
    h = 1e-6

    def value(x, t):
        return bump.space(x)[0] * bump.time(t)[0]

    (b_x, db_x), (b_t, db_t) = bump.space(x), bump.time(t)
    np.testing.assert_allclose(
        db_x * b_t, (value(x + h, t) - value(x - h, t)) / (2 * h), atol=1e-5
    )
    np.testing.assert_allclose(
        b_x * db_t, (value(x, t + h) - value(x, t - h)) / (2 * h), atol=1e-5
    )


def _per_bump_weak_defect(record, model, mesh, bumps):
    """The weak diagnostic as one pass per (bump, snapshot) pair with phi_t and
    phi_x evaluated at every quadrature point: the oracle of the contraction."""
    times = np.asarray(record.times, dtype=float)
    gp, gw = np.polynomial.legendre.leggauss(3)
    x_left, x_right = mesh.nodes[:-1], mesh.nodes[1:]
    xq = 0.5 * (x_left + x_right)[:, None] + 0.5 * (x_right - x_left)[:, None] * gp
    wq = (0.5 * (x_right - x_left)[:, None] * gw)[..., None]
    frac = 0.5 * (gp + 1.0)
    tw = np.zeros_like(times)
    tw[1:] += 0.5 * np.diff(times)
    tw[:-1] += 0.5 * np.diff(times)

    def quadrature_states(u):
        u_l, u_r = u[mesh.cell_dofs[:, 0]], u[mesh.cell_dofs[:, 1]]
        return u_l[:, None, :] + (u_r - u_l)[:, None, :] * frac[None, :, None]

    total = 0.0
    for bump in bumps:
        b_x, db_x = bump.space(xq)
        defect = np.zeros(record.states[0].shape[1])
        for t, w_t, u in zip(times, tw, record.states):
            if abs(t - bump.t0) >= bump.rt:
                continue
            b_t, db_t = bump.time(np.full_like(xq, t))
            u_q = quadrature_states(u)
            phi_t = (b_x * db_t)[..., None]
            phi_x = (db_x * b_t)[..., None]
            defect += w_t * (wq * (phi_t * u_q + phi_x * model.flux(u_q))).sum(axis=(0, 1))
        if bump.t0 - bump.rt < times[0]:
            phi0 = (b_x * bump.time(np.full_like(xq, times[0]))[0])[..., None]
            defect += (wq * phi0 * quadrature_states(record.states[0])).sum(axis=(0, 1))
        total += float(np.abs(defect).sum())
    return total


@pytest.mark.parametrize(
    "case_id, nx, t_end", [("burgers-riemann", 100, 1.0), ("sod", 100, 0.2)]
)
def test_weak_diagnostic_matches_per_bump_loop(case_id, nx, t_end):
    # the contraction reorders the sums, so agreement is to rounding, not bits
    config = RunConfig(case=case_id, scheme="fv-rusanov", nx=nx, t_end=t_end, snapshot_every=1)
    record = run(config)
    case, mesh = record.case, record.mesh
    bumps = default_bumps(mesh, t_end, shock_path=case.shock_path)
    got = weak_residual_diagnostic(record, bumps)
    want = _per_bump_weak_defect(record, case.model, mesh, bumps)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_weak_diagnostic_initial_slice_term():
    # a bump reaching back past t = 0 picks up int phi(x, 0) u0 dx
    config = RunConfig(
        case="burgers-riemann", scheme="fv-rusanov", nx=100, t_end=1.0, snapshot_every=1
    )
    record = run(config)
    bumps = [
        BumpTestFunction(x0=0.0, t0=0.1, rx=0.3, rt=0.2),
        BumpTestFunction(x0=0.5, t0=0.5, rx=0.3, rt=0.3),
    ]
    assert bumps[0].t0 - bumps[0].rt < record.times[0]
    got = weak_residual_diagnostic(record, bumps)
    want = _per_bump_weak_defect(record, record.case.model, record.mesh, bumps)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # for a constant field the time integral equals -int phi(x, 0) u dx, so
    # only the initial-slice term brings the defect down to the quadrature floor
    record.states = [np.full_like(s, 0.7) for s in record.states]
    x = np.linspace(-1.0, 2.0, 30001)
    slice_term = 0.7 * np.trapezoid(bumps[0].space(x)[0], x) * bumps[0].time(np.zeros(1))[0][0]
    assert slice_term > 0.1
    assert weak_residual_diagnostic(record, bumps[:1]) <= 1e-3 * slice_term


def test_default_bumps_straddle_shock_path():
    mesh = uniform_mesh(-1.0, 2.0, 10, boundary="transmissive")
    bumps = default_bumps(mesh, 1.0, shock_path=lambda t: 0.5 * t)
    times = sorted({bump.t0 for bump in bumps})
    assert len(times) == 3
    for t0 in times:
        centers = sorted(bump.x0 for bump in bumps if bump.t0 == t0)
        assert centers[0] < 0.5 * t0 < centers[-1]  # placements straddle the path
        assert any(x0 == pytest.approx(0.5 * t0) for x0 in centers)
    for bump in bumps:
        assert bump.t0 - bump.rt > 0 and bump.t0 + bump.rt < 1.0
        assert mesh.nodes[0] <= bump.x0 - bump.rx and bump.x0 + bump.rx <= mesh.nodes[-1]


def _broken_advective_run(case, mesh, t_end):
    # upwind differencing of the advective form u_t + u u_x = 0: stable, but
    # not in flux form, so the (1, 0) shock freezes instead of moving at 1/2
    dx = mesh.cell_sizes[0]
    u = case.u0(mesh.dof_x)[:, 0]
    t, times, states = 0.0, [0.0], [u[:, None].copy()]
    while t < t_end - 1e-12:
        dt = min(0.4 * dx / max(np.abs(u).max(), 1e-12), t_end - t)
        dudx = np.zeros_like(u)
        dudx[1:] = (u[1:] - u[:-1]) / dx
        u = u - dt * u * dudx
        t += dt
        times.append(t)
        states.append(u[:, None].copy())
    assert np.isfinite(u).all()
    return SolutionRecord(
        times=np.asarray(times), states=states, ledger=None, mesh=mesh, model=case.model,
        case=case,
    )


def test_weak_diagnostic_flags_nonconservative_scheme():
    defects = {}
    for nx in (100, 400):
        config = RunConfig(
            case="burgers-riemann", scheme="fv-rusanov", nx=nx, t_end=1.0, snapshot_every=1
        )
        record = run(config)
        good = weak_residual_diagnostic(record)
        bad = weak_residual_diagnostic(_broken_advective_run(record.case, record.mesh, 1.0))
        defects[nx] = (good, bad)
    # conservative defect falls under refinement; the broken one stagnates
    assert defects[400][0] < 0.5 * defects[100][0]
    assert defects[400][1] > 0.8 * defects[100][1]
    assert defects[400][1] > 20 * defects[400][0]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_run_writes_solution_and_ledger(tmp_path):
    out = tmp_path / "sod.csv"
    code = main(
        [
            "run", "--case", "sod", "--scheme", "fv-rusanov",
            "--nx", "100", "--cfl", "0.4", "--tend", "0.05", "--out", str(out),
        ]
    )
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x,density,momentum,total_energy"
    ledger = out.with_suffix(".ledger.csv").read_text(encoding="utf-8").splitlines()
    assert ledger[0] == "step,time,mass,momentum,energy,entropy,alpha_max,fallback_cells"
    assert len(ledger) > 2


@pytest.mark.parametrize("tend", ["1e-14", "3e-300"])
def test_cli_run_steps_to_a_tiny_end_time(tmp_path, tend):
    # the loop's end test is relative to t_end: an absolute 1e-13 slack once
    # ended these runs after zero steps, with exit 0 and a one-row ledger
    out = tmp_path / "tiny.csv"
    code = main(["run", "--case", "sod", "--scheme", "fv-rusanov", "--nx", "10",
                 "--tend", tend, "--out", str(out)])
    assert code == 0
    ledger = out.with_suffix(".ledger.csv").read_text(encoding="utf-8").splitlines()
    assert len(ledger) == 1 + 2
    assert float(ledger[-1].split(",")[1]) == float(tend)


def test_cli_unknown_case_is_usage_error(capsys):
    assert main(["run", "--case", "unknown", "--scheme", "fv-rusanov"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_golden_determinism(tmp_path):
    args = [
        "run", "--case", "burgers-sine", "--scheme", "fv-entropy-corrected",
        "--nx", "64", "--tend", "0.1",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".ledger.csv").read_bytes() == out_b.with_suffix(
        ".ledger.csv"
    ).read_bytes()


def test_cli_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CONSERVA_OUT_DIR", str(tmp_path))
    code = main(
        ["run", "--case", "advection-sine", "--scheme", "fv-rusanov",
         "--nx", "32", "--tend", "0.05", "--out", "adv.csv"]
    )
    assert code == 0
    assert (tmp_path / "adv.csv").exists()


def test_cli_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "case=advection-sine\nscheme=fv-rusanov\nnx=32\ntend=0.05\n# comment\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfged.csv"
    code = main(["run", "--config", str(cfg), "--nx", "16", "--out", str(out)])
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 16  # header plus one row per periodic DOF (--nx wins)


@pytest.mark.parametrize("line", ["t_end=0.01", "interator=ssprk3", "seed=3", "snapshot-every=4"])
def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case=advection-sine\nscheme=fv-rusanov\n{line}\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert line.split("=")[0] in err
    assert "known: case, scheme, nx" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tend", "--gamma"])
def test_cli_rejects_nan_values(tmp_path, capsys, flag):
    # NaN compares false both ways, so a range test written as "x <= bound"
    # lets it through
    out = tmp_path / "never.csv"
    code = main(["run", "--case", "sod", "--scheme", "fv-rusanov", "--nx", "20",
                 flag, "nan", "--out", str(out)])
    assert code == 2
    assert "nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", ["tend", "gamma"])
def test_cli_rejects_infinite_values(tmp_path, capsys, key, source):
    # inf - 1e-13 * inf is nan, so an infinite end time used to end the run
    # after 0 steps with exit 0; an infinite gamma blew up at step 0
    cfg = tmp_path / "run.cfg"
    line = f"{key}=inf\n" if source == "file" else ""
    cfg.write_text(f"case=sod\nscheme=fv-rusanov\nnx=20\n{line}", encoding="utf-8")
    out = tmp_path / "never.csv"
    flags = [f"--{key}", "inf"] if source == "flag" else []
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert "inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, runs", [("ture", False), ("ON", True), ("No", True)])
def test_cli_config_detector_accepts_only_switch_words(tmp_path, capsys, value, runs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case=sod\nscheme=active-flux\nnx=20\ntend=0.01\ndetector={value}\n",
                   encoding="utf-8")
    out = tmp_path / "af.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    if runs:
        assert code == 0 and out.exists()
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert "detector" in err and value in err
        assert not out.exists()


def test_cli_config_file_rejects_unparsable_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=advection-sine\nscheme=fv-rusanov\nnx=abc\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "nx" in err and "abc" in err
    assert not out.exists()


def test_cli_has_no_seed_flag(tmp_path):
    # nor a flag to thin the stored snapshots: no command writes them
    for flag in ("--seed", "--snapshot-every"):
        code = main(["run", "--case", "advection-sine", "--scheme", "fv-rusanov", "--nx", "16",
                     flag, "3", "--out", str(tmp_path / "never.csv")])
        assert code == 2


def test_cli_convergence_table(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code = main(
        ["convergence", "--case", "advection-sine", "--scheme", "fv-rusanov",
         "--nx-list", "20,40", "--tend", "0.25", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "order" in text.splitlines()[0]
    assert len(text.splitlines()) == 3


@pytest.mark.parametrize("command", ["convergence", "diagnose-weak"])
def test_cli_nx_list_rejects_repeated_resolutions(tmp_path, capsys, command):
    # a repeated resolution made convergence print a nan order
    out = tmp_path / "never.txt"
    code = main([command, "--case", "advection-sine", "--scheme", "fv-rusanov",
                 "--nx-list", "20,20", "--out", str(out)])
    assert code == 2
    assert "20,20" in capsys.readouterr().err
    assert not out.exists()


def test_cli_recover_fluxes(tmp_path):
    out = tmp_path / "fluxes.csv"
    code = main(
        ["recover-fluxes", "--case", "burgers-sine", "--scheme", "supg",
         "--nx", "16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "element,dof_a,dof_b,fhat_u"
    assert len(lines) == 17


def test_cli_recover_fluxes_nc_scheme(tmp_path):
    out = tmp_path / "nc-fluxes.csv"
    code = main(
        ["recover-fluxes", "--case", "sod", "--scheme", "nc-energy-corrected",
         "--nx", "32", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 33


def test_cli_config_tau_scale_reaches_supg(tmp_path):
    config = tmp_path / "tau.cfg"
    config.write_text("tau-scale = 0.5\n", encoding="utf-8")
    texts = []
    for name, extra in (("default.csv", []), ("tau05.csv", ["--config", str(config)])):
        out = tmp_path / name
        code = main(["recover-fluxes", "--case", "burgers-sine", "--scheme", "supg",
                     "--nx", "16", "--out", str(out)] + extra)
        assert code == 0
        texts.append(out.read_text(encoding="utf-8"))
    assert texts[0] != texts[1]


def test_cli_supg_run_emits_no_runtime_warning(tmp_path):
    # zero wave speeds on the Riemann plateaus used to overflow tau = 1/(2 speed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--case", "burgers-riemann", "--scheme", "supg", "--nx", "100",
                     "--out", str(tmp_path / "supg.csv")])
    assert code == 0


def test_cli_diagnose_weak(tmp_path):
    out = tmp_path / "weak.csv"
    code = main(
        ["diagnose-weak", "--case", "burgers-riemann", "--scheme", "fv-rusanov",
         "--nx-list", "40,80", "--tend", "1.0", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "nx,defect"
    assert len(lines) == 3


def test_cli_diagnose_weak_reads_the_conserved_states_of_active_flux(monkeypatch, capsys):
    # active flux keeps its points in (rho, v, p); the weak form is stated in
    # the conserved variables, whose defect falls with nx
    records = []
    original = runner.run
    monkeypatch.setattr(runner, "run", lambda config: records.append(original(config)) or records[-1])
    assert main(["diagnose-weak", "--case", "sod", "--scheme", "active-flux", "--detector",
                 "--nx-list", "100,200,400"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    defects = [float(defect) for _, defect in rows]
    assert defects[0] > defects[1] > defects[2]
    assert defects[0] < 1e-2
    for (_, printed), record in zip(rows, records):
        conserved = SolutionRecord(
            times=record.times, states=[record.case.model.from_aux(s) for s in record.states],
            ledger=record.ledger, mesh=record.mesh, model=record.model, case=record.case,
        )
        assert printed == f"{weak_residual_diagnostic(conserved):.17g}"


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["run", "--case", "sod", "--scheme", "nc-energy-corrected", "--nx", "16",
          "--tend", "0.02"], 1),
        (["run", "--case", "sod", "--scheme", "active-flux", "--detector", "--nx", "16",
          "--tend", "0.02"], 1),
        (["convergence", "--case", "burgers-sine", "--scheme", "fv-rusanov",
          "--nx-list", "8,16,32"], 3),
        (["diagnose-weak", "--case", "burgers-riemann", "--scheme", "fv-rusanov",
          "--nx-list", "32,48,64"], 3),
    ],
    ids=["run", "run-active-flux", "convergence", "diagnose-weak"],
)
def test_cli_builds_each_problem_once(tmp_path, monkeypatch, argv, builds):
    # every reader of a run takes its case and mesh from the record
    counts = {"build_problem": 0, "case_library": 0}
    for module, name in ((runner, "build_problem"), (cases, "case_library")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert counts == {"build_problem": builds, "case_library": builds}


def test_convergence_without_exact_solution_fails_before_any_run(monkeypatch, capsys):
    # shu-osher has no exact solution: the error comes before the first
    # resolution is marched, not after it
    from conserva import schemes

    marched = []
    monkeypatch.setattr(runner, "run", lambda config: marched.append(config))
    monkeypatch.setattr(schemes, "integrate", lambda *args, **kwargs: marched.append(args))
    code = main(["convergence", "--case", "shu-osher", "--scheme", "fv-rusanov",
                 "--nx-list", "2000"])
    assert code == 2
    assert "has no exact solution" in capsys.readouterr().err
    assert marched == []
    with pytest.raises(ConfigError, match="no exact solution"):
        runner.convergence_study(RunConfig(case="shu-osher", scheme="fv-rusanov"), [2000, 4000])
    assert marched == []


def test_cli_blowup_returns_one(tmp_path):
    # the two-field scheme cannot survive the diaphragm without its detector
    code = main(
        ["run", "--case", "sod", "--scheme", "active-flux", "--nx", "100",
         "--tend", "0.2", "--out", str(tmp_path / "never.csv")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "scheme, integrator", [(s, i) for s in SCHEMES for i in INTEGRATORS]
)
def test_single_integrator_schemes_reject_the_others(tmp_path, scheme, integrator):
    # every row of the scheme table against every integrator: a combination
    # the row rejects is a usage error, one it accepts keeps conservation
    case = "sod" if "energy" in SCHEMES[scheme].corrections else "burgers-sine"
    config = RunConfig(case=case, scheme=scheme, nx=40, t_end=0.05, integrator=integrator)
    if integrator not in SCHEMES[scheme].integrators:
        with pytest.raises(ConfigError):
            config.validate()
        code = main(["run", "--case", case, "--scheme", scheme, "--nx", "20",
                     "--integrator", integrator, "--out", str(tmp_path / "never.csv")])
        assert code == 2
        return
    _, mesh, u0 = build_problem(config)
    ledger = run(config).ledger
    assert ledger.nsteps > 0
    # relative to the size of the conserved field: the sine's mass is zero
    scale = (mesh.volumes[:, None] * np.abs(u0)).sum(axis=0).max()
    assert ledger.conservation_drift() <= 1e-11 * scale


@pytest.mark.parametrize(
    "scheme, args, config_line",
    [
        pytest.param("fv-rusanov", ["--detector"], "", id="detector-fv"),
        pytest.param("nc-energy-corrected", ["--detector"], "", id="detector-nc-energy"),
        pytest.param("fv-rusanov", [], "tau-scale = 7", id="tau-fv"),
        pytest.param("fv-entropy-corrected", [], "tau-scale = 0.5", id="tau-fv-entropy"),
        pytest.param("supg", [], "tau-scale = -2", id="tau-negative"),
        pytest.param("supg", [], "tau-scale = nan", id="tau-nan"),
        pytest.param("supg", [], "tau-scale = inf", id="tau-inf"),
    ],
)
@pytest.mark.parametrize("command", ["run", "recover-fluxes"])
def test_cli_rejects_settings_the_scheme_ignores(tmp_path, capsys, command, scheme, args,
                                                  config_line):
    # a setting the scheme would drop, or a tau scale that is negative or not
    # finite, is a usage error rather than a silent or misleading run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line + "\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    code = main([command, "--case", "sod", "--scheme", scheme, "--nx", "20",
                 "--config", str(cfg), "--out", str(out)] + args)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config-key"])
@pytest.mark.parametrize("flag, value", [("--tend", "0.5"), ("--cfl", "0.3"),
                                         ("--integrator", "ssprk3")])
def test_recover_fluxes_rejects_time_marching_settings(tmp_path, capsys, flag, value, source):
    # the command writes the t = 0 fluxes, which no end time, CFL number or
    # integrator changes: each is a usage error naming the flag, not a no-op
    out = tmp_path / "never.csv"
    argv = ["recover-fluxes", "--case", "sod", "--scheme", "supg", "--nx", "10",
            "--out", str(out)]
    if source == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err
    assert list(tmp_path.iterdir()) == ([] if source == "flag" else [tmp_path / "run.cfg"])


@pytest.mark.parametrize("key, value", [("nx", "0"), ("gamma", "0")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_zero_values_are_not_replaced_by_defaults(tmp_path, capsys, key, value, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n" if source == "config" else "\n", encoding="utf-8")
    flag = [f"--{key}", value] if source == "flag" else []
    out = tmp_path / "never.csv"
    code = main(["run", "--case", "sod", "--scheme", "fv-rusanov", "--config", str(cfg),
                 "--out", str(out)] + flag)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", [case for case in CASE_IDS if case not in EULER_CASES])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_gamma_on_a_scalar_case(tmp_path, capsys, case, source):
    # a scalar law has no equation of state, so the run would drop gamma
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1.67\n" if source == "config" else "\n", encoding="utf-8")
    flag = ["--gamma", "1.67"] if source == "flag" else []
    out = tmp_path / "never.csv"
    code = main(["run", "--case", case, "--scheme", "fv-rusanov", "--nx", "16", "--tend", "0.1",
                 "--config", str(cfg), "--out", str(out)] + flag)
    assert code == 2
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


def test_active_flux_rejects_a_cfl_above_its_stable_bound(tmp_path, capsys):
    # the point-average coupling blows up from CFL ~0.415: at 0.5 advection-sine
    # once ran to an L1 error of 7e54 and exited 0
    bound = SCHEMES["active-flux"].cfl
    with pytest.raises(ConfigError, match=f"up to cfl {bound}"):
        RunConfig(case="advection-sine", scheme="active-flux", cfl=0.5).validate()
    out = tmp_path / "never.csv"
    code = main(["run", "--case", "advection-sine", "--scheme", "active-flux", "--nx", "100",
                 "--cfl", "0.5", "--out", str(out)])
    assert code == 2
    assert f"up to cfl {bound}" in capsys.readouterr().err
    assert not out.exists()
    record = run(RunConfig(case="advection-sine", scheme="active-flux", nx=32, cfl=bound,
                           t_end=0.5))
    assert l1_error(record) < 1e-2


def test_supg_rejects_a_tau_scale_above_one(tmp_path, capsys):
    # tau-scale 2 once ran advection-sine nx=100 to values of 1e34 and exited 0
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        RunConfig(case="advection-sine", scheme="supg", tau_scale=2.0).validate()
    for tau, code in (("2", 2), ("1", 0), ("0.5", 0)):
        cfg = tmp_path / f"tau{tau}.cfg"
        cfg.write_text(f"tau-scale = {tau}\n", encoding="utf-8")
        out = tmp_path / f"tau{tau}.csv"
        got = main(["run", "--case", "advection-sine", "--scheme", "supg", "--nx", "100",
                    "--config", str(cfg), "--out", str(out)])
        assert got == code
        assert out.exists() == (code == 0)
    assert "[0, 1]" in capsys.readouterr().err


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(case="sod", scheme="fv-rusanov", cfl=1.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(case="advection-sine", scheme="nc-energy-corrected").validate()
    with pytest.raises(ConfigError):
        RunConfig(case="sod", scheme="fv-rusanov", nx=1).validate()
    RunConfig(case="sod", scheme="supg", tau_scale=0.0).validate()
    RunConfig(case="sod", scheme="active-flux", detector=True).validate()
    for bad in (
        RunConfig(case="sod", scheme="supg", tau_scale=-0.5),
        RunConfig(case="sod", scheme="supg", tau_scale=float("nan")),
        RunConfig(case="sod", scheme="fv-rusanov", tau_scale=2.0),
        RunConfig(case="sod", scheme="supg", detector=True),
        RunConfig(case="sod", scheme="fv-rusanov", snapshot_every=-1),
        RunConfig(case="sod", scheme="fv-rusanov", t_end=float("inf")),
        RunConfig(case="sod", scheme="fv-rusanov", gamma=float("inf")),
        RunConfig(case="burgers-sine", scheme="fv-rusanov", gamma=1.67),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


_OUT_COMMANDS = {
    "run": ["run", "--case", "sod", "--scheme", "fv-rusanov", "--nx", "10", "--tend", "0.01"],
    "recover-fluxes": ["recover-fluxes", "--case", "sod", "--scheme", "supg", "--nx", "10"],
    "convergence": ["convergence", "--case", "advection-sine", "--scheme", "fv-rusanov",
                    "--nx-list", "8,16", "--tend", "0.05"],
    "diagnose-weak": ["diagnose-weak", "--case", "burgers-riemann", "--scheme", "fv-rusanov",
                      "--nx-list", "40"],
}


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_an_out_path_that_cannot_be_a_file_is_a_usage_error(tmp_path, capsys, command, kind):
    # exit 2 with one error line naming the path, before any run prints or writes
    if kind == "directory":
        out = tmp_path / "out.csv"
        out.mkdir()
    else:
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out = tmp_path / "afile" / "out.csv"
    assert main(_OUT_COMMANDS[command] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv" if kind == "directory" else "afile"]


@pytest.mark.parametrize("scheme, suffix", [("fv-rusanov", ".ledger.csv"),
                                            ("active-flux", ".averages.csv")])
def test_a_run_whose_other_output_is_a_directory_is_a_usage_error(tmp_path, capsys, scheme,
                                                                  suffix):
    out = tmp_path / "out.csv"
    (tmp_path / f"out{suffix}").mkdir()
    argv = ["run", "--case", "sod", "--scheme", scheme, "--nx", "10", "--tend", "0.01"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(tmp_path / f"out{suffix}") in captured.err
    assert not out.exists()
