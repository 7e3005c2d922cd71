"""conserva benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload rd-sod --seed 0 --seconds 20 --trace 0

Each run starts fresh worker processes with single-threaded BLAS and a
private CONSERVA_OUT_DIR under .bench_out/.  With --trace 0 it first starts
SETUP_PROBES workers that only set up, then one that also measures; set-up
time is the median over all of them, from process start to ``ready``.  With
--trace 1 the measuring worker alternates plain and traced repetitions and
reports the per-layer metrics instead.  --smoke runs the small sizes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the run's context
(inputs, versions, CPU, digests, failed share).  The exit code is 0 when
every correctness gate passed, 1 when one failed, 3 when the checkout holds
no conserva sources and 4 when a worker crashed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter

from checkout import OUT, THREAD_ENV, WORKLOADS, has_sources

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 4
TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _launch(argv, env, deadline):
    """Run one worker; return (seconds to its ``ready`` line, remaining stdout)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, env=env, text=True
    )
    timer = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited with {code}")
    return setup, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small problem sizes")
    args = parser.parse_args(argv)

    if not has_sources():
        print("error: no conserva sources in this checkout (src/conserva)", file=sys.stderr)
        return 3
    deadline = monotonic() + TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    env = {**os.environ, **THREAD_ENV, "CONSERVA_OUT_DIR": out_dir}
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", "smoke" if args.smoke else "full"]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_launch([*common, "--seconds", "0", "--setup-only"], env, deadline)[0])
        setup, output = _launch(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        setups.append(setup)
        result = json.loads(output.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    info = result.pop("info")
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
