"""The benchmark's per-layer trace targets name functions that exist, and
the calls its checks capture still go through them.

``perfbench/spans.py`` wraps library functions by module and attribute name
and reports a vanished one as ``null``; renaming a function would otherwise
show up only in a full benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


# ``perfbench/workloads.py`` captures these two calls by wrapping the module
# attributes and reads their arguments and results; a call that bypasses the
# attribute, or a changed signature, would otherwise fail only a full
# benchmark run.


def _captured(monkeypatch, module, attr, argv):
    """The (args, result) of the one call ``cli.main(argv)`` makes to
    ``module.attr``, seen through the benchmark's own ``Capture``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from conserva.harness import cli

    capture = workloads.Capture(module, attr)
    capture.install()
    try:
        assert cli.main(argv) == 0
    finally:
        capture.uninstall()
    return capture.take()


def test_recover_fluxes_calls_reconstruct_scheme_through_its_module(monkeypatch, tmp_path):
    from conserva import recovery
    from conserva.mesh import Mesh1D
    from conserva.schemes import ResidualSet

    monkeypatch.setenv("CONSERVA_OUT_DIR", str(tmp_path))
    argv = ["recover-fluxes", "--case", "sod", "--scheme", "supg", "--nx", "16",
            "--out", "fluxes.csv"]
    (mesh, states, residuals), (increments, edge_fluxes) = _captured(
        monkeypatch, recovery, "reconstruct_scheme", argv
    )
    assert isinstance(mesh, Mesh1D)
    assert isinstance(residuals, ResidualSet)
    assert states.shape == increments.shape == (mesh.ndof, 3)
    assert edge_fluxes.shape == (mesh.ncell, 3)


def test_run_calls_runner_run_through_its_module(monkeypatch, tmp_path):
    from conserva.harness import runner
    from conserva.records import SolutionRecord

    monkeypatch.setenv("CONSERVA_OUT_DIR", str(tmp_path))
    argv = ["run", "--case", "burgers-sine", "--scheme", "active-flux", "--nx", "16",
            "--tend", "0.01", "--out", "af.csv"]
    (config,), record = _captured(monkeypatch, runner, "run", argv)
    assert config.scheme == "active-flux"
    assert isinstance(record, SolutionRecord)
    assert record.final_averages is not None
