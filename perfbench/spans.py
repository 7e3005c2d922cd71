"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces conserva's public functions and methods, module
and class attributes alike, with wrappers that record a span per call:
(layer, start, end, parent span, job).  Self time is a span's duration minus
the time its child spans cover.  A few wrappers also read counters off the
arguments and results (dt halvings, correction activity, fallback usage).
Spans stay in memory until ``write_spans`` is called at the end of a run.

A target that no longer exists is reported as ``null`` with a warning, so
moving a function breaks neither the run nor its other numbers.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODEL_CLASSES = ("PhysicsModel", "Advection", "Burgers", "Euler")

# layer -> (module, owning classes or None for a module function, attribute)
TARGETS = {
    **{
        f"models.{name}": ("conserva.models", MODEL_CLASSES, name)
        for name in (
            "flux", "max_wave_speed", "entropy", "entropy_variables", "admissible_mask",
            "from_aux", "to_aux", "primitive_split_apply", "jacobian",
        )
    },
    "schemes.fv_residuals_1d": ("conserva.schemes", None, "fv_residuals_1d"),
    "schemes.supg_residuals_1d": ("conserva.schemes", None, "supg_residuals_1d"),
    "schemes.NumericalFlux.__call__": ("conserva.schemes", ("NumericalFlux",), "__call__"),
    "schemes.rd_step": ("conserva.schemes", None, "rd_step"),
    "schemes.ResidualSet.scatter_to_dofs": ("conserva.schemes", ("ResidualSet",), "scatter_to_dofs"),
    "schemes.integrate": ("conserva.schemes", None, "integrate"),
    "corrections.entropy_correction": ("conserva.corrections", None, "entropy_correction"),
    "corrections.nonconservative_energy_correction": (
        "conserva.corrections", None, "nonconservative_energy_correction",
    ),
    "active_flux.point_update": ("conserva.active_flux", None, "point_update"),
    "active_flux.recover_midpoint": ("conserva.active_flux", None, "recover_midpoint"),
    "active_flux.af_integrate": ("conserva.active_flux", None, "af_integrate"),
    "active_flux._detect": ("conserva.active_flux", None, "_detect"),
    "active_flux._fallback_point_rate": ("conserva.active_flux", None, "_fallback_point_rate"),
    "active_flux._ssp3_step": ("conserva.active_flux", None, "_ssp3_step"),
    "recovery.reconstruct_scheme": ("conserva.recovery", None, "reconstruct_scheme"),
    "recovery.recover_fluxes": ("conserva.recovery", None, "recover_fluxes"),
    "recovery.GraphLaplacian.solve": ("conserva.recovery", ("GraphLaplacian",), "solve"),
    "harness.cli.main": ("conserva.harness.cli", None, "main"),
    "harness.run": ("conserva.harness.runner", None, "run"),
    "harness.build_problem": ("conserva.harness.runner", None, "build_problem"),
    "harness.TwoFieldGasScheme.assemble": (
        "conserva.harness.runner", ("TwoFieldGasScheme",), "assemble",
    ),
    "harness.weak_residual_diagnostic": (
        "conserva.harness.weak", None, "weak_residual_diagnostic",
    ),
}

# reported layers: both call count and self time, unless listed below
CALLS_ONLY = ("recovery.recover_fluxes", "recovery.GraphLaplacian.solve")
SELF_ONLY = ("harness.build_problem", "harness.weak_residual_diagnostic")
UNREPORTED = ("harness.cli.main", "harness.run")

DERIVED = (
    ("schemes.rd_step.rejected", "count"),
    ("corrections.entropy_correction.active_share", "ratio"),
    ("corrections.entropy_correction.clamped", "count"),
    ("active_flux.ssp_evals_per_step", "ratio"),
    ("active_flux.fallback_useful_share", "ratio"),
    ("active_flux.flagged_cell_share", "ratio"),
    ("recovery.cells_per_s", "1/s"),
    ("harness.cli.io_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in TARGETS:
        if layer in UNREPORTED:
            continue
        if layer not in SELF_ONLY:
            units[f"{layer}.calls"] = "count"
        if layer not in CALLS_ONLY:
            units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


# -- counters read off arguments and results --------------------------------


def _observe_rd_step(c, args, result, exc):
    if exc is not None and type(exc).__name__ == "StepRejectedError":
        c["rd_step.rejected"] += 1


def _observe_entropy_correction(c, args, result, exc):
    if exc is None:
        report = result[1]
        c["entropy.active"] += int((report.alpha > 0).sum())
        c["entropy.elements"] += len(report.alpha)
        c["entropy.clamped"] += len(report.clamped)


def _observe_fallback(c, args, result, exc):
    if exc is None:
        bad_nodes = result[1]
        c["fallback.flagged_nodes"] += int(bad_nodes.sum())
        c["fallback.nodes"] += len(bad_nodes)


def _observe_af_integrate(c, args, result, exc):
    if exc is None:
        ledger = result.ledger
        c["af.steps"] += ledger.nsteps
        c["af.flagged_cells"] += int(ledger.fallback_cells[1:].sum())
        c["af.cell_steps"] += args[1].ncell * ledger.nsteps


def _observe_reconstruct(c, args, result, exc):
    if exc is None:
        c["recovery.cells"] += args[2].ncell


OBSERVERS = {
    "schemes.rd_step": _observe_rd_step,
    "corrections.entropy_correction": _observe_entropy_correction,
    "active_flux._fallback_point_rate": _observe_fallback,
    "active_flux.af_integrate": _observe_af_integrate,
    "recovery.reconstruct_scheme": _observe_reconstruct,
}


class Tracer:
    """Installs the wrappers and accumulates spans and per-layer totals."""

    def __init__(self):
        self.recording = False
        self.job = None
        self.spans = []
        self.missing = []
        self._warned = False
        self._saved = []  # (owner, attribute, original) to restore
        self._stack = []  # [span index, child seconds] of the open spans
        self.reset()

    def reset(self):
        """Start a new repetition's totals; spans are kept."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.root_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        self.missing = []
        for layer, (module_name, classes, attr) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(layer)
                continue
            if classes is None:
                owners = [module] if callable(getattr(module, attr, None)) else []
            else:
                owners = [
                    cls for cls in (getattr(module, name, None) for name in classes)
                    if cls is not None and callable(vars(cls).get(attr))
                ]
            if not owners:
                self.missing.append(layer)
                continue
            for owner in owners:
                original = getattr(owner, attr) if classes is None else vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
        if not self._warned:
            self._warned = True
            for layer in self.missing:
                print(f"warning: trace target {layer} not found; reported as null", file=sys.stderr)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn):
        observe = OBSERVERS.get(layer)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = stack[-1][0] if stack else -1
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            exc = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                self.total_s[layer] += duration
                self.spans[index] = (layer, start, end, parent, self.job)
                if observe is not None:
                    observe(self.counters, args, result, exc)

        return wrapper

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
            "root_s": self.root_s,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("layer,start,end,parent,job\n")
            for layer, start, end, parent, job in self.spans:
                fh.write(f"{layer},{start:.9f},{end:.9f},{parent},{job}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(snapshots, missing, traced_walls, untraced_walls, call_walls):
    """Per-layer values from the traced repetitions.

    Counts come from the first traced repetition (they repeat exactly), times
    are medians over the traced repetitions.  ``call_walls`` holds, per traced
    repetition, the summed wall time of the jobs' entry-point calls.
    """
    first = snapshots[0]
    med = lambda values: statistics.median(values)
    out = {}
    units = metric_units()
    for name, unit in units.items():
        layer, _, kind = name.rpartition(".")
        if layer in missing:
            out[name] = None
        elif kind == "calls":
            out[name] = first["calls"].get(layer, 0)
        elif kind == "self_s" and layer in TARGETS:
            out[name] = med([s["self_s"].get(layer, 0.0) for s in snapshots])
    c = first["counters"]
    out["schemes.rd_step.rejected"] = c.get("rd_step.rejected", 0)
    out["corrections.entropy_correction.active_share"] = _ratio(
        c.get("entropy.active", 0), c.get("entropy.elements", 0))
    out["corrections.entropy_correction.clamped"] = c.get("entropy.clamped", 0)
    out["active_flux.ssp_evals_per_step"] = _ratio(
        first["calls"].get("active_flux._ssp3_step", 0), c.get("af.steps", 0))
    out["active_flux.fallback_useful_share"] = _ratio(
        c.get("fallback.flagged_nodes", 0), c.get("fallback.nodes", 0))
    out["active_flux.flagged_cell_share"] = _ratio(
        c.get("af.flagged_cells", 0), c.get("af.cell_steps", 0))
    out["recovery.cells_per_s"] = med([
        _ratio(s["counters"].get("recovery.cells", 0), s["total_s"].get("recovery.reconstruct_scheme", 0.0))
        for s in snapshots
    ])
    out["harness.cli.io_s"] = med([s["self_s"].get("harness.cli.main", 0.0) for s in snapshots])
    out["trace.overhead_share"] = med(traced_walls) / med(untraced_walls) - 1.0
    out["trace.unattributed_s"] = med([w - s["root_s"] for w, s in zip(call_walls, snapshots)])
    # derived figures that rest on a missing target are null too
    needs = {
        "schemes.rd_step.rejected": ("schemes.rd_step",),
        "corrections.entropy_correction.active_share": ("corrections.entropy_correction",),
        "corrections.entropy_correction.clamped": ("corrections.entropy_correction",),
        "active_flux.ssp_evals_per_step": ("active_flux._ssp3_step", "active_flux.af_integrate"),
        "active_flux.fallback_useful_share": ("active_flux._fallback_point_rate",),
        "active_flux.flagged_cell_share": ("active_flux.af_integrate",),
        "recovery.cells_per_s": ("recovery.reconstruct_scheme",),
        "harness.cli.io_s": ("harness.cli.main",),
    }
    for name, layers in needs.items():
        if any(layer in missing for layer in layers):
            out[name] = None
    return {name: {"value": out[name], "unit": unit} for name, unit in units.items()}
