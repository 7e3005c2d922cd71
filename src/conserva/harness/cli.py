"""Command line entry point.

Subcommands:
  run             integrate one case/scheme pair, write solution + ledger CSV
  convergence     run a case across resolutions and tabulate L1 orders
  recover-fluxes  dump the per-element recovered edge fluxes at t = 0
  diagnose-weak   weak-form residual defect across resolutions

Exit codes: 0 success, 1 run failure (blow-up and friends), 2 usage error.
CSV files are UTF-8 with LF line endings and %.17g numbers, so identical
configurations produce byte-identical output.  Relative --out paths land in
$CONSERVA_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .. import recovery, schemes
from ..errors import ConfigError, ConservaError
from ..records import RunConfig
from . import runner, weak


def _fmt(x):
    return format(float(x), ".17g")


def _out_path(name):
    path = Path(name)
    if not path.is_absolute():
        base = os.environ.get("CONSERVA_OUT_DIR", "")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_solution(path, mesh, model, record):
    header = ["x"] + list(model.names)
    state = record.final_state
    if record.averages is not None:
        state = model.from_aux(state)  # point values are kept in mapped variables
    rows = [[x] + list(u) for x, u in zip(mesh.dof_x, state)]
    _write_csv(path, header, rows)
    if record.averages is not None:
        avg_path = path.with_suffix(".averages.csv")
        rows = [[x] + list(u) for x, u in zip(mesh.cell_centers, record.final_averages)]
        _write_csv(avg_path, header, rows)


def _write_ledger(path, names, record):
    led = record.ledger
    if len(names) == 3:
        header = ["step", "time", "mass", "momentum", "energy", "entropy", "alpha_max", "fallback_cells"]
    else:
        header = ["step", "time", "mass", "entropy", "alpha_max", "fallback_cells"]
    rows = []
    for k in range(len(led.time)):
        row = [str(k), led.time[k]]
        row.extend(led.totals[k])
        row.extend([led.entropy[k], led.alpha_max[k], str(int(led.fallback_cells[k]))])
        rows.append(row)
    _write_csv(path, header, rows)


def _parse_nx_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigError(f"cannot parse resolution list {text!r}") from None
    if not values:
        raise ConfigError("empty resolution list")
    return values


def _read_config_file(path):
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {raw!r}; expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


# every key a config file may set, with its parser
_CONFIG_KEYS = {
    "case": str,
    "scheme": str,
    "nx": int,
    "cfl": float,
    "tend": float,
    "gamma": float,
    "boundary": str,
    "detector": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "integrator": str,
    "snapshot-every": int,
    "tau-scale": float,
    "out": str,
}


def _build_run_config(args):
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(unknown)}; known: {', '.join(_CONFIG_KEYS)}"
        )
    merged = {}
    for key, value in file_values.items():
        merged[key.replace("-", "_")] = _CONFIG_KEYS[key](value)

    def pick(name, cli_value):
        return cli_value if cli_value is not None else merged.get(name)

    case = pick("case", args.case)
    scheme = pick("scheme", args.scheme)
    if case is None or scheme is None:
        raise ConfigError("both --case and --scheme are required (flag or config file)")
    # --detector is a plain store_true flag: set means on, unset defers to file
    detector = True if args.detector else bool(merged.get("detector", False))
    config = RunConfig(
        case=case,
        scheme=scheme,
        nx=pick("nx", args.nx) or 100,
        cfl=pick("cfl", args.cfl),
        t_end=pick("tend", args.tend),
        boundary=pick("boundary", args.boundary),
        gamma=pick("gamma", args.gamma) or 1.4,
        detector=detector,
        integrator=pick("integrator", args.integrator),
        snapshot_every=pick("snapshot_every", args.snapshot_every) or 0,
        out=pick("out", args.out),
        tau_scale=merged.get("tau_scale", 1.0),
    )
    return config.validate()


def _add_common(parser):
    parser.add_argument("--case", help="case id")
    parser.add_argument("--scheme", help="scheme id")
    parser.add_argument("--nx", type=int, help="number of cells")
    parser.add_argument("--cfl", type=float, help="CFL number in (0, 1]")
    parser.add_argument("--tend", type=float, help="final time (case default otherwise)")
    parser.add_argument("--gamma", type=float, help="heat-capacity ratio for gas cases")
    parser.add_argument("--boundary", choices=["periodic", "transmissive"])
    parser.add_argument("--integrator", choices=["euler", "ssprk2", "ssprk3"])
    parser.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    parser.add_argument("--config", help="key=value file; explicit flags win")
    parser.add_argument("--out", help="output path (CSV or text)")
    parser.add_argument("--detector", action="store_true", default=False,
                        help="enable the a posteriori fallback (active-flux)")


def build_parser():
    parser = argparse.ArgumentParser(prog="conserva", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "convergence", "recover-fluxes", "diagnose-weak"):
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("convergence", "diagnose-weak"):
            p.add_argument("--nx-list", dest="nx_list", help="comma list, e.g. 40,80,160")
    return parser


def _cmd_run(config):
    case, mesh, _ = runner.build_problem(config)
    record = runner.run(config)
    out = config.out or f"{config.case}-{config.scheme}.csv"
    path = _out_path(out)
    _write_solution(path, mesh, case.model, record)
    _write_ledger(path.with_suffix(".ledger.csv"), case.model.names, record)
    print(f"wrote {path} and {path.with_suffix('.ledger.csv')}")
    return 0


def _cmd_convergence(config, nx_list):
    rows = runner.convergence_study(config, nx_list)
    lines = [f"{'nx':>6s} {'L1_error':>24s} {'order':>8s}"]
    for nx, err, order in rows:
        lines.append(f"{nx:6d} {err:24.16e} {'' if order is None else f'{order:8.3f}'}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.out:
        _out_path(config.out).write_text(text, encoding="utf-8", newline="\n")
    return 0


def _cmd_recover_fluxes(config):
    case, mesh, u0 = runner.build_problem(config)
    if config.scheme == "active-flux":
        raise ConfigError("recover-fluxes applies to residual schemes, not active-flux")
    if config.scheme == "nc-energy-corrected":
        gas = schemes.TwoFieldGasScheme(case.model, mesh)
        residuals = gas.assemble(gas.from_conserved(u0), 0.0)
    else:
        assemble = schemes.residual_assembler(config.scheme, case.model, mesh, config.tau_scale)
        residuals = assemble(u0, 0.0)
    _, edge_fluxes = recovery.reconstruct_scheme(mesh, u0, residuals)
    out = config.out or f"{config.case}-{config.scheme}-fluxes.csv"
    path = _out_path(out)
    header = ["element", "dof_a", "dof_b"] + [f"fhat_{n}" for n in case.model.names]
    rows = [
        [str(k), str(int(mesh.cell_dofs[k, 0])), str(int(mesh.cell_dofs[k, 1]))] + list(f)
        for k, f in enumerate(edge_fluxes)
    ]
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def _cmd_diagnose_weak(config, nx_list):
    case = runner.cases.case_library(config.case, gamma=config.gamma)
    lines = ["nx,defect"]
    for nx in nx_list:
        cfg = RunConfig(**{**config.__dict__, "nx": int(nx), "snapshot_every": 1})
        record = runner.run(cfg)
        _, mesh, _ = runner.build_problem(cfg)
        bumps = weak.default_bumps(mesh, float(record.times[-1]), shock_path=case.shock_path)
        defect = weak.weak_residual_diagnostic(record, case.model, mesh, bumps)
        lines.append(f"{nx},{_fmt(defect)}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.out:
        _out_path(config.out).write_text(text, encoding="utf-8", newline="\n")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _build_run_config(args)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "convergence":
            nx_list = _parse_nx_list(args.nx_list or str(config.nx))
            return _cmd_convergence(config, nx_list)
        if args.command == "recover-fluxes":
            return _cmd_recover_fluxes(config)
        if args.command == "diagnose-weak":
            nx_list = _parse_nx_list(args.nx_list or str(config.nx))
            return _cmd_diagnose_weak(config, nx_list)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConservaError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
