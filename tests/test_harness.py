import warnings

import numpy as np
import pytest

from conserva.errors import ConfigError, DiagnosticError
from conserva.harness import case_library, weak_residual_diagnostic
from conserva.harness.cases import SHU_OSHER_LEFT
from conserva.harness.cli import main
from conserva.harness.runner import build_problem, run
from conserva.harness.weak import BumpTestFunction, default_bumps
from conserva.mesh import uniform_mesh
from conserva.records import INTEGRATORS, RunConfig, SolutionRecord


# ---------------------------------------------------------------------------
# case library
# ---------------------------------------------------------------------------


def test_case_library_rejects_unknown_id():
    with pytest.raises(ConfigError):
        case_library("kelvin-helmholtz")


def test_burgers_sine_breakdown_time_documented():
    case = case_library("burgers-sine")
    assert "0.3183" in case.notes  # 1/pi


def test_burgers_riemann_shock_path():
    case = case_library("burgers-riemann")
    assert case.shock_path(1.0) == pytest.approx(0.5)


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


def test_sod_case_alternate_domain():
    from conserva.harness.cases import _sod

    case = _sod(1.4, domain=(-0.5, 0.5))
    u = case.u0(np.array([-0.25, 0.25]))
    assert u[0, 0] == pytest.approx(1.0)
    assert u[1, 0] == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# weak diagnostic
# ---------------------------------------------------------------------------


def test_weak_diagnostic_constant_solution_defect_tiny():
    config = RunConfig(
        case="advection-sine", scheme="fv-rusanov", nx=200, t_end=1.0, snapshot_every=1
    )
    case, mesh, _ = build_problem(config)
    record = run(config)
    # overwrite with the exact constant solution: defect is pure quadrature
    record.states = [np.full_like(s, 0.7) for s in record.states]
    defect = weak_residual_diagnostic(record, case.model, mesh)
    assert defect <= 5e-5  # time-trapezoid floor; scheme defects sit near 1e-2


def test_weak_diagnostic_needs_dense_snapshots():
    config = RunConfig(case="burgers-riemann", scheme="fv-rusanov", nx=50, t_end=0.5)
    case, mesh, _ = build_problem(config)
    record = run(config)  # only initial and final snapshots stored
    with pytest.raises(DiagnosticError):
        weak_residual_diagnostic(record, case.model, mesh)


def test_bump_derivatives_match_finite_differences():
    bump = BumpTestFunction(x0=0.3, t0=0.5, rx=0.2, rt=0.25)
    x = np.linspace(0.15, 0.45, 7)
    t = np.full_like(x, 0.45)
    h = 1e-6
    np.testing.assert_allclose(
        bump.dx(x, t), (bump.value(x + h, t) - bump.value(x - h, t)) / (2 * h), atol=1e-5
    )
    np.testing.assert_allclose(
        bump.dt(x, t), (bump.value(x, t + h) - bump.value(x, t - h)) / (2 * h), atol=1e-5
    )


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


def _broken_advective_run(mesh, u0, t_end):
    # upwind differencing of the advective form u_t + u u_x = 0: stable, but
    # not in flux form, so the (1, 0) shock freezes instead of moving at 1/2
    dx = mesh.cell_sizes[0]
    u = u0[:, 0].copy()
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
    return SolutionRecord(times=np.asarray(times), states=states, ledger=None)


def test_weak_diagnostic_flags_nonconservative_scheme():
    defects = {}
    for nx in (100, 400):
        config = RunConfig(
            case="burgers-riemann", scheme="fv-rusanov", nx=nx, t_end=1.0, snapshot_every=1
        )
        case, mesh, u0 = build_problem(config)
        record = run(config)
        bumps = default_bumps(mesh, 1.0, shock_path=case.shock_path)
        good = weak_residual_diagnostic(record, case.model, mesh, bumps)
        broken = _broken_advective_run(mesh, u0, 1.0)
        bad = weak_residual_diagnostic(broken, case.model, mesh, bumps)
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


@pytest.mark.parametrize("line", ["t_end=0.01", "interator=ssprk3", "seed=3"])
def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case=advection-sine\nscheme=fv-rusanov\n{line}\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert line.split("=")[0] in err
    assert "known: case, scheme, nx" in err
    assert not out.exists()


def test_cli_has_no_seed_flag(tmp_path):
    code = main(["run", "--case", "advection-sine", "--scheme", "fv-rusanov", "--nx", "16",
                 "--seed", "3", "--out", str(tmp_path / "never.csv")])
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
    config.write_text("tau-scale = 3\n", encoding="utf-8")
    texts = []
    for name, extra in (("default.csv", []), ("tau3.csv", ["--config", str(config)])):
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


def test_cli_blowup_returns_one(tmp_path):
    # the two-field scheme cannot survive the diaphragm without its detector
    code = main(
        ["run", "--case", "sod", "--scheme", "active-flux", "--nx", "100",
         "--tend", "0.2", "--out", str(tmp_path / "never.csv")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "scheme, accepted", [("active-flux", "ssprk3"), ("nc-energy-corrected", "euler")]
)
def test_single_integrator_schemes_reject_the_others(tmp_path, scheme, accepted):
    # active flux is SSPRK3 throughout; the energy identity of the two-field
    # gas scheme holds per forward Euler step only
    for integrator in INTEGRATORS:
        config = RunConfig(case="sod", scheme=scheme, integrator=integrator)
        if integrator == accepted:
            config.validate()
            continue
        with pytest.raises(ConfigError):
            config.validate()
        code = main(["run", "--case", "sod", "--scheme", scheme, "--nx", "20",
                     "--integrator", integrator, "--out", str(tmp_path / "never.csv")])
        assert code == 2


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(case="sod", scheme="fv-rusanov", cfl=1.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(case="advection-sine", scheme="nc-energy-corrected").validate()
    with pytest.raises(ConfigError):
        RunConfig(case="sod", scheme="fv-rusanov", nx=1).validate()
