"""The four benchmark workloads: seeded inputs, jobs and output checks.

A workload is a list of jobs.  Each job makes one timed call into conserva
through a user entry point (``conserva.harness.cli.main`` or the active-flux
functions) and then checks what that call produced.  The checks are the
correctness gates: a job that raises or fails a gate counts as failed.

Seeds fold onto ``DOCUMENTED_SEEDS`` documented inputs (``seed % 16``), for
which the seed commit's reference data are stored under ``data/``.  Seed 0
is the canned configuration at gamma = 1.4; other seeds draw gamma from
``GAMMA_RANGE`` and, for ``af-smooth``, the wave's amplitudes and phases.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from conserva import active_flux, recovery
from conserva.harness import cases, cli, runner
from conserva.mesh import uniform_mesh
from conserva.models import Euler

DATA = Path(__file__).resolve().parent / "data"
REFERENCE_FILE = DATA / "af_shock_reference.npz"
BASELINE_FILE = DATA / "seed_commit.json"

DOCUMENTED_SEEDS = 16  # seed 13 is held out for checking claims
GAMMA_RANGE = (1.37, 1.43)  # narrow, so a seed barely changes the work; see README

# gates, from the acceptance criteria of tests/test_acceptance.py
DRIFT_BOUND = 1e-11  # criteria 4 and 9: relative conservation drift
NC_ENERGY_DRIFT_BOUND = 1e-10  # criterion 4: total energy of nc-energy-corrected
SOD_L1_RHO_BOUND = 2e-2  # criterion 7: L1(rho) of a first-order scheme on Sod
AF_MIN_ORDER = 2.7  # criterion 8: observed order of the two-field scheme
RECOVERY_RTOL = 1e-12  # flux-form update equals the residual update

SOD_SCHEMES = ("fv-rusanov", "fv-entropy-corrected", "nc-energy-corrected")
RECOVERY_JOBS = (
    ("burgers-sine", "supg"),
    ("sod", "fv-rusanov"),
    ("sod", "fv-entropy-corrected"),
    ("sod", "nc-energy-corrected"),
)
SMOOTH_MODES = (1, 2, 3)
SMOOTH_AMPLITUDE = 0.2  # sum of the three density amplitudes
SMOOTH_VELOCITY = 1.0

# problem sizes: "full" is measured, "smoke" checks the plumbing quickly and
# "warmup" runs once per process before timing starts
SIZES = {
    "full": dict(
        sod_nx=1000, sod_tend=None, sod_l1_bound=SOD_L1_RHO_BOUND, shock_nx=400, shock_tend=None,
        smooth_nx=(400, 800), smooth_tend=0.4, recover_nx=20000, weak_nx=(100, 200, 400),
    ),
    "smoke": dict(
        sod_nx=100, sod_tend=None, sod_l1_bound=4e-2, shock_nx=100, shock_tend=None,
        smooth_nx=(50, 100), smooth_tend=0.4, recover_nx=200, weak_nx=(100, 200, 400),
    ),
    "warmup": dict(
        sod_nx=40, sod_tend=0.01, sod_l1_bound=1.0, shock_nx=40, shock_tend=0.05,
        smooth_nx=(20, 40), smooth_tend=0.02, recover_nx=40, weak_nx=(20, 40),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides."""

    seed: int  # the documented seed the requested seed folds onto
    gamma: float
    amplitudes: tuple
    phases: tuple


def draw_inputs(seed):
    doc = seed % DOCUMENTED_SEEDS
    if doc == 0:
        return Inputs(0, 1.4, (0.1, 0.06, 0.04), (0.0, 0.0, 0.0))
    rng = random.Random(doc)
    gamma = rng.uniform(*GAMMA_RANGE)
    weights = [rng.uniform(0.5, 1.5) for _ in SMOOTH_MODES]
    amplitudes = tuple(SMOOTH_AMPLITUDE * w / sum(weights) for w in weights)
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in SMOOTH_MODES)
    return Inputs(doc, gamma, amplitudes, phases)


@dataclass
class Outcome:
    """What checking one job found."""

    cell_steps: int = 0  # ncell x accepted steps, 0 when the job is not counted
    l1: float | None = None  # the job's accuracy figure, None when it has none
    failures: list = field(default_factory=list)
    digest: str | None = None


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed call into conserva
    check: Callable[[object], Outcome]


def _no_workload_gate(outcomes):
    return []


@dataclass
class Workload:
    inputs: Inputs
    jobs: list
    # workload-level gate over the per-job outcomes: a list of failures
    finish: Callable[[list], list] = _no_workload_gate


@dataclass
class Rep:
    """One repetition of a workload's jobs, in seconds per job.

    Wall times (``*_s``) and the process's CPU times (``*_cpu_s``) are both
    kept: the program is single-threaded and does no waiting, so CPU time is
    wall time less the time the host gave the CPU to other work.  ``speed``
    holds each job's speed factor (see speed.py), 1.0 when unsampled.
    """

    job_s: list  # call plus checks: time to a checked solution
    call_s: list  # the entry-point call alone
    job_cpu_s: list
    call_cpu_s: list
    speed: list
    outcomes: list

    @property
    def wall(self):
        return sum(self.job_s)

    @property
    def cpu(self):
        return sum(self.job_cpu_s)

    @property
    def ref_cpu(self):
        """CPU time at the reference speed."""
        return sum(c * f for c, f in zip(self.job_cpu_s, self.speed))


def run_rep(workload, tracer=None, label="", probe=None):
    """Run every job once, timing each entry-point call, then check it.

    With a tracer, recording is on only inside the entry-point calls, so the
    checks never show up in the spans.  With a started SpeedProbe, CPU times
    leave out its samples and each job gets its speed factor.
    """
    cpu = process_time if probe is None else probe.cpu
    outcomes, call_s, job_s, call_cpu_s, job_cpu_s, speed = [], [], [], [], [], []
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = f"{label}{job.name}"
            tracer.recording = True
        error = None
        first_sample = len(probe.samples) if probe is not None else 0
        c0, t0 = cpu(), perf_counter()
        try:
            output = job.call()
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = exc
        c1, t1 = cpu(), perf_counter()
        if tracer is not None:
            tracer.recording = False
        if error is not None:
            outcomes.append(Outcome(failures=[f"{type(error).__name__}: {error}"]))
        else:
            try:
                outcomes.append(job.check(output))
            except Exception as exc:
                outcomes.append(Outcome(failures=[f"check raised {type(exc).__name__}: {exc}"]))
        call_s.append(t1 - t0)
        job_s.append(perf_counter() - t0)
        call_cpu_s.append(c1 - c0)
        job_cpu_s.append(cpu() - c0)
        speed.append(probe.factor(first_sample) if probe is not None else 1.0)
    outcomes[-1].failures.extend(workload.finish(outcomes))
    return Rep(job_s, call_s, job_cpu_s, call_cpu_s, speed, outcomes)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _cli(argv):
    """conserva's command line, in process, with its chatter swallowed.

    ``cli.main`` is looked up at call time so traced runs see the wrapper.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _admissible(model, u, what, failures):
    if not (np.isfinite(u).all() and model.admissible_mask(u).all()):
        failures.append(f"{what}: non-finite or inadmissible state")


def _drift(ledger, names, failures, energy_bound=DRIFT_BOUND):
    """Relative conservation drift per component, gated (criteria 4 and 9).

    The ledger's accumulated boundary flux makes the check exact for
    transmissive and periodic runs alike; the scale is the largest initial
    total, as in the acceptance tests.
    """
    defect = ledger.totals - ledger.totals[0] + ledger.boundary_accum
    drift = np.abs(defect).max(axis=0) / np.abs(ledger.totals[0]).max()
    bounds = np.full(len(names), DRIFT_BOUND)
    bounds[-1] = energy_bound
    for name, value, bound in zip(names, drift, bounds):
        if not value <= bound:
            failures.append(f"{name} drift {value:.2e} > {bound:.0e}")


def _solution_csv_matches(path, expected, failures):
    """The solution CSV holds exactly the given states (x column skipped)."""
    if not np.array_equal(_load_csv(path)[:, 1:], expected):
        failures.append(f"{Path(path).name} does not hold the final solution")


def _run_argv(case, scheme, nx, gamma, tend, out, detector=False):
    argv = ["run", "--case", case, "--scheme", scheme, "--nx", str(nx),
            "--gamma", repr(gamma), "--out", out.name]
    if tend is not None:
        argv += ["--tend", repr(tend)]
    if detector:
        argv.append("--detector")
    return argv


def _exit_ok(code, failures, captured=True):
    if code != 0:
        failures.append(f"conserva exited with {code}")
    elif captured is None:
        failures.append("the expected library call was not made")
    return code == 0 and captured is not None


# ---------------------------------------------------------------------------
# rd-sod: the residual-distribution path on the Sod tube
# ---------------------------------------------------------------------------


def _sod_job(scheme, inputs, size, out_dir, captures):
    nx = size["sod_nx"]
    out = out_dir / f"rd-sod-{scheme}.csv"
    case = cases.case_library("sod", gamma=inputs.gamma)

    def check(code):
        result = Outcome()
        captured = captures.run.take()
        if not _exit_ok(code, result.failures, captured):
            return result
        _, record = captured
        u = record.final_state
        _admissible(case.model, u, scheme, result.failures)
        energy_bound = NC_ENERGY_DRIFT_BOUND if scheme == "nc-energy-corrected" else DRIFT_BOUND
        _drift(record.ledger, case.model.names, result.failures, energy_bound)
        _solution_csv_matches(out, u, result.failures)
        mesh = uniform_mesh(*case.domain, nx, boundary=case.boundary)
        exact = case.exact_solution(mesh.dof_x, float(record.times[-1]))
        result.l1 = float((mesh.volumes * np.abs(u[:, 0] - exact[:, 0])).sum())
        if not result.l1 <= size["sod_l1_bound"]:
            result.failures.append(f"L1(rho) {result.l1:.3e} > {size['sod_l1_bound']}")
        result.cell_steps = nx * record.ledger.nsteps
        result.digest = _digest(out)
        return result

    argv = _run_argv("sod", scheme, nx, inputs.gamma, size["sod_tend"], out)
    return Job(f"sod/{scheme}", lambda: _cli(argv), check)


# ---------------------------------------------------------------------------
# af-shock: Shu-Osher with the a posteriori detector
# ---------------------------------------------------------------------------


def shock_reference(seed, nx):
    """Stored seed-commit density averages of the 4x run, projected to nx."""
    if not REFERENCE_FILE.is_file():
        return None
    with np.load(REFERENCE_FILE) as data:
        key = f"{seed}-{nx}"
        return data[key].copy() if key in data.files else None


def _shock_job(inputs, size, out_dir, captures, reference):
    nx = size["shock_nx"]
    out = out_dir / "af-shock.csv"
    model = cases.case_library("shu-osher", gamma=inputs.gamma).model

    def check(code):
        result = Outcome()
        captured = captures.run.take()
        if not _exit_ok(code, result.failures, captured):
            return result
        _, record = captured
        points = model.from_aux(record.final_state)
        averages = record.final_averages
        _admissible(model, points, "point values", result.failures)
        _admissible(model, averages, "cell averages", result.failures)
        _drift(record.ledger, model.names, result.failures)
        _solution_csv_matches(out, points, result.failures)
        _solution_csv_matches(out.with_suffix(".averages.csv"), averages, result.failures)
        if reference is not None:
            result.l1 = float((10.0 / nx) * np.abs(averages[:, 0] - reference).sum())
        result.cell_steps = nx * record.ledger.nsteps
        result.digest = _digest(out, out.with_suffix(".averages.csv"))
        return result

    argv = _run_argv("shu-osher", "active-flux", nx, inputs.gamma, size["shock_tend"], out,
                     detector=True)
    return Job("shu-osher/active-flux", lambda: _cli(argv), check)


# ---------------------------------------------------------------------------
# af-smooth: a periodic entropy wave, exact solution a translation
# ---------------------------------------------------------------------------


def smooth_wave(inputs):
    """Conserved states of the seeded entropy wave at (x, t).

    Density is 1 plus three Fourier modes; velocity and pressure are uniform,
    with the pressure chosen so the sound speed is 1 at unit density.
    """
    model = Euler(gamma=inputs.gamma)
    pressure = 1.0 / inputs.gamma

    def state(x, t=0.0):
        s = np.asarray(x, dtype=float) - SMOOTH_VELOCITY * t
        rho = np.ones_like(s)
        for m, a, phi in zip(SMOOTH_MODES, inputs.amplitudes, inputs.phases):
            rho = rho + a * np.sin(2.0 * np.pi * m * s + phi)
        w = np.stack([rho, np.full_like(s, SMOOTH_VELOCITY), np.full_like(s, pressure)], axis=-1)
        return model.from_aux(w)

    return model, state


def _smooth_job(inputs, nx, tend):
    model, state = smooth_wave(inputs)

    def call():
        mesh = uniform_mesh(0.0, 1.0, nx, boundary="periodic")
        state0 = active_flux.initialize(model, mesh, state)
        return mesh, active_flux.af_integrate(model, mesh, state0, t_end=tend, detector=True)

    def check(output):
        mesh, record = output
        result = Outcome()
        points = model.from_aux(record.final_state)
        averages = record.final_averages
        _admissible(model, points, "point values", result.failures)
        _admissible(model, averages, "cell averages", result.failures)
        drift = record.ledger.conservation_drift() / np.abs(record.ledger.totals[0]).max()
        if not drift <= DRIFT_BOUND:
            result.failures.append(f"drift {drift:.2e} > {DRIFT_BOUND:.0e}")
        exact = state(mesh.dof_x, float(record.times[-1]))
        result.l1 = float((mesh.volumes[:, None] * np.abs(points - exact)).sum())
        result.cell_steps = nx * record.ledger.nsteps
        h = hashlib.sha256(np.ascontiguousarray(averages).tobytes())
        h.update(np.ascontiguousarray(record.final_state).tobytes())
        result.digest = h.hexdigest()[:16]
        return result

    return Job(f"entropy-wave/nx={nx}", call, check)


def _finish_order(outcomes):
    """Third order between the two resolutions."""
    coarse, fine = outcomes[0].l1, outcomes[-1].l1
    if coarse is None or fine is None:
        return []
    order = math.log2(coarse / fine) if fine > 0 else math.inf
    if not order >= AF_MIN_ORDER:
        return [f"observed order {order:.2f} < {AF_MIN_ORDER}"]
    return []


# ---------------------------------------------------------------------------
# verify: graph flux recovery and the weak-form diagnostic
# ---------------------------------------------------------------------------


class Capture:
    """Wraps one conserva function to keep the arguments and result of its
    last call, so checks can read what the command line does not print."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.last = None
        self._original = None

    def install(self):
        original = self._original = getattr(self.module, self.attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.last = (args, result)
            return result

        setattr(self.module, self.attr, wrapper)

    def uninstall(self):
        if self._original is not None:
            setattr(self.module, self.attr, self._original)
            self._original = None

    def take(self):
        last, self.last = self.last, None
        return last


class Captures:
    """The captures the checks rely on: run records and flux recoveries."""

    def __init__(self):
        self.run = Capture(runner, "run")
        self.recovery = Capture(recovery, "reconstruct_scheme")

    def install(self):
        self.run.install()
        self.recovery.install()

    def uninstall(self):
        self.run.uninstall()
        self.recovery.uninstall()


def _recovery_job(case_id, scheme, inputs, size, out_dir, captures):
    nx = size["recover_nx"]
    out = out_dir / f"verify-{case_id}-{scheme}.csv"
    argv = ["recover-fluxes", "--case", case_id, "--scheme", scheme, "--nx", str(nx),
            "--out", out.name]
    if case_id == "sod":
        argv += ["--gamma", repr(inputs.gamma)]

    def check(code):
        result = Outcome()
        captured = captures.recovery.take()
        if not _exit_ok(code, result.failures, captured):
            return result
        (mesh, _, residuals), (increments, edge_fluxes) = captured
        expected = residuals.scatter_to_dofs(mesh.ndof)
        scale = max(float(np.abs(residuals.phi).max()),
                    float(np.abs(residuals.boundary_parts).max()), 1e-300)
        gap = float(np.abs(increments - expected).max()) / scale
        if not gap <= RECOVERY_RTOL:
            result.failures.append(f"flux-form update differs by {gap:.2e} (relative)")
        if not np.isfinite(edge_fluxes).all():
            result.failures.append("non-finite recovered fluxes")
        rows = _load_csv(out)
        if rows.shape[0] != nx or not np.array_equal(rows[:, 3:], edge_fluxes):
            result.failures.append("flux CSV does not hold the recovered fluxes")
        result.cell_steps = nx  # one residual evaluation and recovery per cell
        result.digest = _digest(out)
        return result

    return Job(f"recover-fluxes/{case_id}/{scheme}", lambda: _cli(argv), check)


def _weak_job(size, out_dir):
    nx_list = size["weak_nx"]
    out = out_dir / "verify-weak.txt"
    argv = ["diagnose-weak", "--case", "burgers-riemann", "--scheme", "fv-rusanov",
            "--nx-list", ",".join(map(str, nx_list)), "--out", out.name]

    def check(code):
        result = Outcome()
        if not _exit_ok(code, result.failures):
            return result
        rows = _load_csv(out)
        defects = rows[:, 1]
        if list(rows[:, 0].astype(int)) != list(nx_list) or not np.isfinite(defects).all():
            result.failures.append("weak diagnostic table is malformed")
        elif not (np.diff(defects) < 0).all():
            result.failures.append(f"weak defects do not decrease: {defects.tolist()}")
        result.l1 = float(defects[-1])
        result.digest = _digest(out)
        return result

    return Job("diagnose-weak/burgers-riemann", lambda: _cli(argv), check)


# ---------------------------------------------------------------------------


def build(name, seed, size_name, captures):
    """The workload ``name`` for ``seed`` at one of the SIZES.

    ``captures`` must be installed while the jobs run; the checks read the
    run records and flux recoveries from it.  The jobs pass relative --out
    names, so conserva writes its CSVs to $CONSERVA_OUT_DIR.
    """
    inputs = draw_inputs(seed)
    size = SIZES[size_name]
    out_dir = Path(os.environ["CONSERVA_OUT_DIR"])
    if name == "rd-sod":
        jobs = [_sod_job(s, inputs, size, out_dir, captures) for s in SOD_SCHEMES]
        return Workload(inputs, jobs)
    if name == "af-shock":
        reference = shock_reference(inputs.seed, size["shock_nx"])
        if reference is None and size_name != "warmup":
            raise FileNotFoundError(f"no stored af-shock reference for seed {inputs.seed}")
        job = _shock_job(inputs, size, out_dir, captures, reference)
        return Workload(inputs, [job])
    if name == "af-smooth":
        jobs = [_smooth_job(inputs, nx, size["smooth_tend"]) for nx in size["smooth_nx"]]
        return Workload(inputs, jobs, _finish_order)
    if name == "verify":
        jobs = [_recovery_job(c, s, inputs, size, out_dir, captures) for c, s in RECOVERY_JOBS]
        jobs.append(_weak_job(size, out_dir))
        return Workload(inputs, jobs)
    raise ValueError(f"unknown workload {name!r}")


def seed_commit_baseline():
    """Stored seed-commit accuracy figures and output digests, per job."""
    if not BASELINE_FILE.is_file():
        return {}
    return json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
