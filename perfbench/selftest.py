"""Self-test of the benchmark: metric names, units and layer separation.

    python3 perfbench/selftest.py           # small sizes, about a minute
    python3 perfbench/selftest.py --full    # measured sizes

For every workload it runs run.py with --trace 0 and --trace 1 and checks
that the run passes its gates and emits exactly the metrics BENCHMARK.json
names, each with its unit and a numeric value.  From the traced runs it
asserts that the layers stay apart as the workloads intend:

  - corrections and schemes.fv_residuals_1d are never called on af-*
  - active_flux is never called on rd-sod
  - recovery is called only on verify
  - the active-flux fallback runs on af-shock and never on af-smooth

Last, it checks that run.py fails without printing a result in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checkout import OUT, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def _check_metrics(spec, metrics, where, problems):
    expected = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, not {expected[name]!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value ({entry.get('value')!r})")


def _calls(metrics, prefix):
    return {
        name: entry["value"] for name, entry in metrics.items()
        if name.startswith(prefix) and name.endswith(".calls")
    }


def _check_layers(traced, problems):
    def expect(workload, calls, wanted, what):
        for name, value in calls.items():
            if not wanted(value):
                problems.append(f"{workload}: {name} = {value}, expected {what}")

    for workload, metrics in traced.items():
        if workload.startswith("af-"):
            expect(workload, _calls(metrics, "corrections."), lambda v: v == 0, "0")
            expect(workload, _calls(metrics, "schemes.fv_residuals_1d"), lambda v: v == 0, "0")
        if workload == "rd-sod":
            expect(workload, _calls(metrics, "active_flux."), lambda v: v == 0, "0")
        if workload != "verify":
            expect(workload, _calls(metrics, "recovery."), lambda v: v == 0, "0")
    fallback = "active_flux._fallback_point_rate"
    if "af-smooth" in traced:
        expect("af-smooth", _calls(traced["af-smooth"], fallback), lambda v: v == 0, "0")
    if "af-shock" in traced:
        expect("af-shock", _calls(traced["af-shock"], fallback), lambda v: v > 0, "> 0")


def _check_bare_directory(problems):
    """run.py must fail, printing no result, next to nothing but its own files."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy2(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _run(tmp, "--workload", "rd-sod", "--seed", "0",
                              "--seconds", "1", "--trace", "0")
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        problems.append(f"bare directory: exit {code}, output {lines[-1:]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="measured sizes, not the small ones")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    size = [] if args.full else ["--smoke"]
    problems = []
    traced = {}
    for workload in WORKLOADS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{workload} --trace {trace}"
            code, lines, stderr = _run(ROOT, "--workload", workload, "--seed", "0",
                                       "--seconds", "1", "--trace", str(trace), *size)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: exit {code}, no result line\n{stderr}")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, {result['failed']} failed job(s)\n{stderr}")
            _check_metrics(spec, result["metrics"], where, problems)
            if trace:
                traced[workload] = result["metrics"]
            print(f"{where}: {result['attempted']} job(s) checked", flush=True)
    _check_layers(traced, problems)
    _check_bare_directory(problems)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
