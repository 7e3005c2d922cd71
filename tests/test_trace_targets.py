"""The benchmark's per-layer trace targets name functions that exist.

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
