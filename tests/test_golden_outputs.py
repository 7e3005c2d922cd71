"""Every accepted run configuration writes the bytes recorded in golden_outputs.json.

The configurations come from the scheme table, not from a hand list: every
(case, scheme) pair that ``RunConfig.validate`` accepts, under each
integrator its row allows, on both boundary kinds, and for active flux with
and without the detector.  Each runs at nx=32 to a quarter of its case's end
time.  A finished run is recorded as the sha256 of its final state (and
final averages) and of every ledger array; a run that ends in ``RunError``
as the error class and step.  One inadmissible initial Euler state records
the index its ``DomainError`` carries.

The command line is pinned too: for a fixed list of commands, covering each
residual scheme and active flux on a scalar and a gas case, the sha256 of
its stdout and of every file it writes.

The digests hold for the numpy version they were made with; under another
one the test skips.  Regenerate them, after a change that is meant to move
outputs, with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints the keys it added, changed or removed against the file it
replaces, so that each moved pin can be declared.
"""

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conserva.errors import ConfigError, DomainError, RunError
from conserva.harness import case_library
from conserva.harness.cli import main
from conserva.harness.runner import build_problem, run
from conserva.records import ACTIVE_FLUX, CASE_IDS, SCHEMES, RunConfig
from conserva.schemes import integrate, residual_assembler

GOLDEN = Path(__file__).with_name("golden_outputs.json")
NX = 32
T_FRACTION = 0.25
LEDGER_FIELDS = ("time", "totals", "entropy", "boundary_accum", "alpha_max", "fallback_cells")


def _configs():
    for case, (scheme, row) in itertools.product(CASE_IDS, SCHEMES.items()):
        detectors = (False, True) if row.base == ACTIVE_FLUX else (False,)
        for integrator, boundary, detector in itertools.product(
            row.integrators, ("periodic", "transmissive"), detectors
        ):
            config = RunConfig(
                case=case, scheme=scheme, nx=NX, boundary=boundary,
                integrator=integrator, detector=detector,
                t_end=T_FRACTION * case_library(case).t_end,
            )
            try:
                yield config.validate()
            except ConfigError:
                continue


def _key(config):
    return "/".join(
        [config.case, config.scheme, config.integrator, config.boundary]
        + (["detector"] if config.detector else [])
    )


def _sha(array):
    array = np.ascontiguousarray(array)
    return hashlib.sha256(str((array.dtype.str, array.shape)).encode() + array.tobytes()).hexdigest()


def _outcome(config):
    try:
        record = run(config)
    except RunError as exc:
        return {"error": type(exc).__name__, "step": exc.step}
    digests = {"final_state": _sha(record.final_state)}
    if record.final_averages is not None:
        digests["final_averages"] = _sha(record.final_averages)
    for name in LEDGER_FIELDS:
        digests[f"ledger.{name}"] = _sha(getattr(record.ledger, name))
    return digests


def _domain_error_index(scheme):
    """The DOF index of an inadmissible initial Sod state, through integrate."""
    config = RunConfig(case="sod", scheme=scheme, nx=NX)
    case, mesh, u0 = build_problem(config)
    u0 = u0.copy()
    # negative density and internal energy: integrate admits u0 through
    # NodeKernels.of, whose admissibility check names the DOF
    u0[NX // 3] = [-1.0, 0.0, -1.0]
    assemble = residual_assembler(scheme, case.model, mesh)
    try:
        integrate(case.model, mesh, u0, assemble, cfl=0.4, t_end=case.t_end)
    except DomainError as exc:
        return [int(i) for i in exc.index]
    return None


def outcomes():
    with np.errstate(all="ignore"):
        results = {_key(config): _outcome(config) for config in _configs()}
        for scheme in ("fv-rusanov", "fv-entropy-corrected", "nc-energy-corrected"):
            results[f"domain-error/sod/{scheme}"] = {"index": _domain_error_index(scheme)}
    return results


# each writes to its own directory; nx <= 64 keeps them quick
CLI_COMMANDS = (
    "run --case sod --scheme fv-rusanov --nx 32 --tend 0.05",
    "run --case sod --scheme fv-entropy-corrected --nx 32 --tend 0.05",
    "run --case sod --scheme supg --nx 32 --tend 0.05",
    "run --case sod --scheme nc-energy-corrected --nx 32 --tend 0.05",
    "run --case sod --scheme active-flux --detector --nx 32 --tend 0.05",
    "run --case burgers-sine --scheme active-flux --nx 32",
    "run --case advection-sine --scheme fv-entropy-corrected --nx 32 --tend 0.5"
    " --integrator ssprk2",
    "run --case burgers-riemann --scheme supg --nx 32 --tend 0.25",
    "recover-fluxes --case sod --scheme fv-rusanov --nx 32",
    "recover-fluxes --case sod --scheme fv-entropy-corrected --nx 32",
    "recover-fluxes --case sod --scheme supg --nx 32",
    "recover-fluxes --case sod --scheme nc-energy-corrected --nx 32",
    "recover-fluxes --case shu-osher --scheme nc-energy-corrected --nx 32",
    "recover-fluxes --case burgers-sine --scheme supg --nx 32",
    "convergence --case burgers-sine --scheme fv-rusanov --nx-list 16,32,64",
    "convergence --case sod --scheme supg --nx-list 16,32 --tend 0.05",
    "convergence --case sod --scheme nc-energy-corrected --nx-list 16,32 --tend 0.05",
    "convergence --case advection-sine --scheme active-flux --nx-list 16,32 --tend 0.5",
    "convergence --case sod --scheme active-flux --detector --nx-list 16,32 --tend 0.05",
    "diagnose-weak --case burgers-riemann --scheme fv-rusanov --nx-list 32,64",
    "diagnose-weak --case sod --scheme fv-entropy-corrected --nx-list 32",
    "diagnose-weak --case sod --scheme supg --nx-list 32,64",
    "diagnose-weak --case sod --scheme nc-energy-corrected --nx-list 32,64",
    "diagnose-weak --case burgers-riemann --scheme active-flux --detector --nx-list 32,64",
    "diagnose-weak --case sod --scheme active-flux --detector --nx-list 32,64",
)


def _cli_outcome(command, out_dir):
    """Exit code and digests of stdout (with out_dir masked) and of each written file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(command.split() + ["--out", str(out_dir / "out.csv")])
    text = stdout.getvalue().replace(str(out_dir), "<out>")
    digests = {"exit": code, "stdout": hashlib.sha256(text.encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def cli_outcomes():
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for i, command in enumerate(CLI_COMMANDS):
            out_dir = Path(tmp) / str(i)
            out_dir.mkdir()
            results[command] = _cli_outcome(command, out_dir)
    return results


def _recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_accepted_configuration_writes_the_recorded_bytes():
    recorded = _recorded()
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded['numpy']}, running {np.__version__}")
    got = outcomes()
    assert sorted(got) == sorted(recorded["outcomes"])
    changed = [key for key in got if got[key] != recorded["outcomes"][key]]
    assert changed == []


def test_every_pinned_command_writes_the_recorded_bytes():
    recorded = _recorded()
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded['numpy']}, running {np.__version__}")
    got = cli_outcomes()
    assert all(outcome["exit"] == 0 for outcome in got.values())
    assert sorted(got) == sorted(recorded["cli"])
    changed = [key for key in got if got[key] != recorded["cli"][key]]
    assert changed == []


def test_the_recorded_space_holds_the_known_failures():
    # the nine accepted configurations that end in RunError, and the
    # DomainError locations, are part of the record, not filtered out
    outcomes_ = _recorded()["outcomes"]
    errors = {key: value for key, value in outcomes_.items() if "error" in value}
    assert len(errors) == 9
    assert all(value["error"] == "RunError" and value["step"] >= 1 for value in errors.values())
    domain = [value["index"] for key, value in outcomes_.items() if key.startswith("domain-error")]
    assert domain == [[NX // 3]] * 3


def moved_keys(old, new):
    """(added, changed, removed) lines of the pins in new against those in old."""
    lines = ([], [], [])
    for section in ("outcomes", "cli"):
        before, after = old.get(section, {}), new[section]
        lines[0].extend(f"{section}: {key}" for key in sorted(after.keys() - before.keys()))
        lines[1].extend(f"{section}: {key}" for key in sorted(after.keys() & before.keys())
                        if after[key] != before[key])
        lines[2].extend(f"{section}: {key}" for key in sorted(before.keys() - after.keys()))
    return lines


if __name__ == "__main__":
    fresh = {"numpy": np.__version__, "nx": NX, "outcomes": outcomes(), "cli": cli_outcomes()}
    previous = _recorded() if GOLDEN.exists() else {}
    for verb, keys in zip(("added", "changed", "removed"), moved_keys(previous, fresh)):
        print(f"{verb}: {len(keys)}", *keys, sep="\n  ")
    GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
