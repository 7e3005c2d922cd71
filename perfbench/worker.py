"""One benchmark process: set a workload up, then time or trace it.

Prints ``ready`` once imports, input generation and warm-up are done (run.py
times set-up up to that line), then repeats the workload's jobs for the given
number of seconds and prints one JSON line with the outcome.  While it
times, a SpeedProbe (speed.py) samples the host's speed, and the timing
metrics are CPU times scaled to the reference speed.  Start it through
run.py, which owns the environment and the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from checkout import OUT, CheckoutError, use_checkout_sources


def _us_per_cell_step(rep):
    """Entry-point CPU time at the reference speed per cell-step, in us."""
    cell_steps = sum(o.cell_steps for o in rep.outcomes)
    seconds = sum(t * f for t, f, o in zip(rep.call_cpu_s, rep.speed, rep.outcomes)
                  if o.cell_steps)
    return 1e6 * seconds / cell_steps if cell_steps else None


def _l1_ratio(rep, jobs, base_l1):
    """Largest ratio of a job's accuracy figure to the seed commit's."""
    ratios = [o.l1 / base_l1[job.name] for job, o in zip(jobs, rep.outcomes) if o.l1 is not None]
    return max(ratios) if ratios else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        use_checkout_sources()
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    import numpy as np

    import spans
    import workloads
    from speed import SpeedProbe

    Path(os.environ.setdefault("CONSERVA_OUT_DIR", str(OUT / "worker"))).mkdir(
        parents=True, exist_ok=True)
    captures = workloads.Captures()
    captures.install()
    workload = workloads.build(args.workload, args.seed, args.size, captures)
    workloads.run_rep(workloads.build(args.workload, args.seed, "warmup", captures))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    reps, traced, snapshots = [], [], []
    rounds = []
    if probe is not None:
        probe.start()
    start = perf_counter()
    while True:
        t0 = perf_counter()
        reps.append(workloads.run_rep(workload, probe=probe))
        if tracer is not None:
            tracer.install()
            tracer.reset()
            traced.append(workloads.run_rep(workload, tracer, f"rep{len(traced)}/"))
            tracer.uninstall()
            snapshots.append(tracer.snapshot())
        rounds.append(perf_counter() - t0)
        # stop where the run ends nearest to --seconds, one more round or not
        if perf_counter() - start + statistics.median(rounds) / 2 > args.seconds:
            break
    if probe is not None:
        probe.stop()
    captures.uninstall()

    everything = [o for rep in reps + traced for o in rep.outcomes]
    failed = [o for o in everything if o.failures]
    for outcome in failed[:10]:
        print("gate failed: " + "; ".join(outcome.failures), file=sys.stderr)

    baseline = workloads.seed_commit_baseline().get(args.size, {}).get(args.workload, {})
    base = baseline.get(str(workload.inputs.seed))
    l1 = {
        job.name: _median(rep.outcomes[i].l1 for rep in reps)
        for i, job in enumerate(workload.jobs) if reps[0].outcomes[i].l1 is not None
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
        metrics = spans.per_layer_metrics(
            snapshots, tracer.missing,
            [rep.wall for rep in traced], [rep.wall for rep in reps],
            [sum(rep.call_s) for rep in traced],
        )
    else:
        ratio = _median(_l1_ratio(rep, workload.jobs, base["l1"]) for rep in reps) if base else None
        metrics = {
            "ref_cpu_s": {"value": _median([rep.ref_cpu for rep in reps]), "unit": "s"},
            "us_per_cell_step": {"value": _median(map(_us_per_cell_step, reps)), "unit": "us"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "l1_error_ratio": {"value": ratio, "unit": "ratio"},
        }
    digests = {job.name: o.digest for job, o in zip(workload.jobs, reps[0].outcomes)}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "documented_seed": workload.inputs.seed,
        "inputs": asdict(workload.inputs),
        "size": args.size,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "failed_share": len(failed) / len(everything),
        "l1_per_job": l1,
        "job_call_s": {
            job.name: statistics.median(rep.call_s[i] for rep in reps)
            for i, job in enumerate(workload.jobs)
        },
        "job_call_cpu_s": {
            job.name: statistics.median(rep.call_cpu_s[i] for rep in reps)
            for i, job in enumerate(workload.jobs)
        },
        "wall_s": _median([rep.wall for rep in reps]),
        "cpu_s": _median([rep.cpu for rep in reps]),
        "rep_cpu_s": [rep.cpu for rep in reps],
        "rep_speed": [statistics.median(rep.speed) for rep in reps],
        "digests_match_seed_commit": digests == base["digests"] if base else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
