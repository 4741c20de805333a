"""Record the sha256 of every data output into ``reference.json``.

    python3 perfbench/record_reference.py [--seeds 0,1] [--sizes full,smoke]

Run from the root of a pagl checkout whose outputs are the reference.  A
later run of ``run.py`` on a recorded (workload, size, seed) fails any
stage whose outputs drift from these digests.  Seed 0 is the default
seed; seed 1 is held out from tuning.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import OUT, PipelineRunner, input_seeds
from checks import REFERENCE, load_reference, reference_key
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0,1")
    ap.add_argument("--sizes", default="full,smoke")
    args = ap.parse_args(argv)
    reference = load_reference() if REFERENCE.exists() else {}
    OUT.mkdir(exist_ok=True)
    for size in args.sizes.split(","):
        for run_seed in (int(s) for s in args.seeds.split(",")):
            for seed in input_seeds(run_seed):
                for name, workload in WORKLOADS.items():
                    work_dir = OUT / f"record-{os.getpid()}"
                    work_dir.mkdir()
                    try:
                        runner = PipelineRunner(workload, size, work_dir)
                        runner.reference = {}  # this pass is the reference
                        result = runner.run_pass(seed)
                    finally:
                        shutil.rmtree(work_dir, ignore_errors=True)
                    if not result["ok"]:
                        print("\n".join(runner.problems), file=sys.stderr)
                        return 1
                    reference[reference_key(name, size, seed)] = \
                        runner.digests[seed]
                    print(f"{name} {size} seed {seed}: "
                          f"{result['pipeline_s']:.2f} s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
