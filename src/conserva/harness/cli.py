"""Command line entry point.

Subcommands:
  run             integrate one case/scheme pair, write solution + ledger CSV
  convergence     run a case across resolutions and tabulate L1 orders
  recover-fluxes  dump the per-element recovered edge fluxes at t = 0
  diagnose-weak   weak-form residual defect across resolutions

Exit codes: 0 success, 1 run failure (blow-up and friends), 2 usage error;
an --out that cannot be a file is a usage error before any run starts.
CSV files are UTF-8 with LF line endings, %d integer columns and %.17g
numbers, so identical configurations produce byte-identical output.  Rows
are formatted and written in blocks of CSV_BLOCK_ROWS, one % format per
block, so a large file is never held whole in memory; the bytes are those
of one % per row and a single write.
Relative --out paths land in $CONSERVA_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import recovery, schemes
from ..errors import ConfigError, ConservaError
from ..models import NodeKernels
from ..records import ACTIVE_FLUX, INTEGRATORS, SCHEMES, RunConfig
from . import runner, weak

CSV_BLOCK_ROWS = 4096  # rows held as Python objects at a time


def _check_file(path):
    if path.is_dir():
        raise ConfigError(f"cannot write {str(path)!r}: it is a directory")
    return path


def _out_path(name):
    """An output's path, relative ones under $CONSERVA_OUT_DIR, with its
    directory made; ConfigError when no file can be written there."""
    path = Path(name)
    if not path.is_absolute():
        base = os.environ.get("CONSERVA_OUT_DIR", "")
        if base:
            path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {str(path)!r}: cannot make {str(path.parent)!r} ({exc.strerror})"
        ) from None
    return _check_file(path)


def _write_csv(path, header, columns):
    """One line per row: integer columns as %d, the others as %.17g floats.

    Each block of up to CSV_BLOCK_ROWS rows is one % of the row format
    repeated per row, applied to the block's values in row-major order.
    ValueError, before the file is opened, when the columns differ in length.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    ints = [c.dtype.kind in "iu" for c in columns]
    row = ",".join("%d" if i else "%.17g" for i in ints) + "\n"
    nrows, ncol = (lengths[0] if lengths else 0), len(columns)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, nrows, CSV_BLOCK_ROWS):
            m = min(CSV_BLOCK_ROWS, nrows - start)
            cells = [None] * (m * ncol)
            for j, (c, i) in enumerate(zip(columns, ints)):
                block = c[start:start + m]
                cells[j::ncol] = block.tolist() if i else block.astype(float).tolist()
            out.write(row * m % tuple(cells))


def _write_solution(path, record):
    mesh = record.mesh
    header = ["x"] + list(record.model.names)
    _write_csv(path, header, [mesh.dof_x, *record.conserved(-1).T])
    if record.averages is not None:
        avg_path = path.with_suffix(".averages.csv")
        _write_csv(avg_path, header, [mesh.cell_centers, *record.final_averages.T])


def _write_ledger(path, record):
    led = record.ledger
    totals = ("mass", "momentum", "energy")[: record.model.p]
    header = ["step", "time", *totals, "entropy", "alpha_max", "fallback_cells"]
    step = np.arange(len(led.time))
    columns = [step, led.time, *led.totals.T, led.entropy, led.alpha_max, led.fallback_cells]
    _write_csv(path, header, columns)


def _parse_nx_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigError(f"cannot parse resolution list {text!r}") from None
    if not values:
        raise ConfigError("empty resolution list")
    if len(set(values)) < len(values):
        raise ConfigError(f"resolution list {text!r} repeats a resolution")
    return values


def _read_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's own text repeats the path
        raise ConfigError(f"cannot read config file {path!r}: {reason}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {raw!r}; expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _parse_switch(text):
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(text)
    return value in ("1", "true", "yes", "on")


# every key a config file may set, with its parser
_CONFIG_KEYS = {
    "case": str,
    "scheme": str,
    "nx": int,
    "cfl": float,
    "tend": float,
    "gamma": float,
    "boundary": str,
    "detector": _parse_switch,
    "integrator": str,
    "tau-scale": float,
    "out": str,
}
# config keys spelled differently from their RunConfig field
_FIELDS = {"tend": "t_end", "tau-scale": "tau_scale"}


def _build_run_config(args):
    """Config-file values, overridden by every flag that is set, over RunConfig's defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(unknown)}; known: {', '.join(_CONFIG_KEYS)}"
        )
    values = {}
    for key, value in file_values.items():
        try:
            values[_FIELDS.get(key, key)] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"cannot parse config value {key}={value!r}") from None
    for key in _CONFIG_KEYS:  # a flag's dest is its key with _ for -; tau-scale has none
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            values[_FIELDS.get(key, key)] = flag
    if "case" not in values or "scheme" not in values:
        raise ConfigError("both --case and --scheme are required (flag or config file)")
    return RunConfig(**values).validate()


def _add_common(parser):
    parser.add_argument("--case", help="case id")
    parser.add_argument("--scheme", help="scheme id")
    parser.add_argument("--nx", type=int, help="number of cells")
    parser.add_argument("--cfl", type=float, help="CFL number in (0, 1]")
    parser.add_argument("--tend", type=float, help="final time (case default otherwise)")
    parser.add_argument("--gamma", type=float, help="heat-capacity ratio for gas cases")
    parser.add_argument("--boundary", choices=["periodic", "transmissive"])
    parser.add_argument("--integrator", choices=INTEGRATORS)
    parser.add_argument("--config", help="key=value file; explicit flags win")
    parser.add_argument("--out", help="output path (CSV or text)")
    # unset (None) defers to the config file; set means on
    parser.add_argument("--detector", action="store_true", default=None,
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
    path = _out_path(config.out or f"{config.case}-{config.scheme}.csv")
    ledger = _check_file(path.with_suffix(".ledger.csv"))
    if SCHEMES[config.scheme].base == ACTIVE_FLUX:
        _check_file(path.with_suffix(".averages.csv"))
    record = runner.run(config)
    _write_solution(path, record)
    _write_ledger(ledger, record)
    print(f"wrote {path} and {ledger}")
    return 0


def _print_table(out, lines):
    """Write the table's lines to stdout, and to the path ``out`` unless it is None."""
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write_text(text, encoding="utf-8", newline="\n")
    return 0


def _cmd_convergence(config, nx_list):
    out = _out_path(config.out) if config.out else None
    rows = runner.convergence_study(config, nx_list)
    lines = [f"{'nx':>6s} {'L1_error':>24s} {'order':>8s}"]
    for nx, err, order in rows:
        lines.append(f"{nx:6d} {err:24.16e} {'' if order is None else f'{order:8.3f}'}")
    return _print_table(out, lines)


def _cmd_recover_fluxes(config):
    for flag, value in (("--tend", config.t_end), ("--cfl", config.cfl),
                        ("--integrator", config.integrator)):
        if value is not None:  # the t = 0 fluxes depend on none of them
            raise ConfigError(f"{flag} (or its config key) does not apply to recover-fluxes")
    path = _out_path(config.out or f"{config.case}-{config.scheme}-fluxes.csv")
    case, mesh, u0 = runner.build_problem(config)
    assemble = schemes.residual_assembler(config.scheme, case.model, mesh, config.tau_scale)
    residuals = assemble(NodeKernels.of(case.model, u0), 0.0)
    _, edge_fluxes = recovery.reconstruct_scheme(mesh, u0, residuals)
    header = ["element", "dof_a", "dof_b"] + [f"fhat_{n}" for n in case.model.names]
    columns = [np.arange(len(edge_fluxes)), *mesh.cell_dofs.T, *edge_fluxes.T]
    _write_csv(path, header, columns)
    print(f"wrote {path}")
    return 0


def _cmd_diagnose_weak(config, nx_list):
    out = _out_path(config.out) if config.out else None
    lines = ["nx,defect"]
    for nx in nx_list:
        record = runner.run(replace(config, nx=int(nx), snapshot_every=1))
        lines.append(f"{nx},{weak.weak_residual_diagnostic(record):.17g}")
        del record  # its snapshots go before the next resolution runs
    return _print_table(out, lines)


_parser = functools.cache(build_parser)  # one argparse tree per process


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _build_run_config(args)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "recover-fluxes":
            return _cmd_recover_fluxes(config)
        nx_list = _parse_nx_list(args.nx_list or str(config.nx))
        if args.command == "convergence":
            return _cmd_convergence(config, nx_list)
        return _cmd_diagnose_weak(config, nx_list)
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
