"""Build the stored reference data under perfbench/data/ (run on the seed commit).

Two stages, for every documented seed and for the "full" and "smoke" sizes:

  references  af-shock density averages of a run at 4x resolution, projected
              to the benchmark's resolution  -> data/af_shock_reference.npz
  baseline    one repetition of every workload: each job's accuracy figure,
              which later runs are divided by, and the digest of every
              output -> data/seed_commit.json

    python3 perfbench/make_reference.py references
    python3 perfbench/make_reference.py baseline

The data describe the commit they were built on; rebuilding them on a later
commit would move the benchmark's yardstick, so only do that on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from checkout import OUT, WORKLOADS, use_checkout_sources

use_checkout_sources()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import DOCUMENTED_SEEDS, SIZES, _cli, draw_inputs  # noqa: E402

REFINEMENT = 4
SIZES_BUILT = ("smoke", "full")


def build_references():
    arrays = {}
    if workloads.REFERENCE_FILE.is_file():
        with np.load(workloads.REFERENCE_FILE) as data:
            arrays = {key: data[key] for key in data.files}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for size_name in SIZES_BUILT:
            nx = SIZES[size_name]["shock_nx"]
            for seed in range(DOCUMENTED_SEEDS):
                key = f"{seed}-{nx}"
                if key in arrays:
                    continue
                gamma = draw_inputs(seed).gamma
                out = Path(tmp) / "reference.csv"
                argv = ["run", "--case", "shu-osher", "--scheme", "active-flux", "--detector",
                        "--nx", str(REFINEMENT * nx), "--gamma", repr(gamma), "--out", str(out)]
                if _cli(argv) != 0:
                    raise SystemExit(f"reference run failed for seed {seed}")
                rho = np.loadtxt(out.with_suffix(".averages.csv"), delimiter=",", skiprows=1)[:, 1]
                arrays[key] = rho.reshape(nx, REFINEMENT).mean(axis=1)
                print(f"reference {key} (gamma {gamma:.4f}) done", flush=True)
                workloads.DATA.mkdir(exist_ok=True)
                partial = workloads.REFERENCE_FILE.with_suffix(".partial.npz")
                np.savez_compressed(partial, **arrays)
                partial.replace(workloads.REFERENCE_FILE)


def build_baseline():
    table = workloads.seed_commit_baseline()
    captures = workloads.Captures()
    captures.install()
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            os.environ["CONSERVA_OUT_DIR"] = tmp
            for size_name in SIZES_BUILT:
                for name in WORKLOADS:
                    for seed in range(DOCUMENTED_SEEDS):
                        workload = workloads.build(name, seed, size_name, captures)
                        rep = workloads.run_rep(workload)
                        failures = [f for o in rep.outcomes for f in o.failures]
                        if failures:
                            raise SystemExit(f"{name} seed {seed}: {failures}")
                        jobs = list(zip(workload.jobs, rep.outcomes))
                        l1 = {j.name: o.l1 for j, o in jobs if o.l1 is not None}
                        table.setdefault(size_name, {}).setdefault(name, {})[str(seed)] = {
                            "l1": l1,
                            "digests": {j.name: o.digest for j, o in jobs},
                        }
                        print(f"baseline {size_name} {name} seed {seed}: l1 {l1}", flush=True)
                        workloads.BASELINE_FILE.write_text(
                            json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
                        )
    finally:
        captures.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=["references", "baseline"])
    args = parser.parse_args(argv)
    if args.stage == "references":
        build_references()
    else:
        build_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
