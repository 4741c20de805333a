"""Run every workload once and print every metric with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 34] [--trace 0|1]
                                [--size full|smoke]

Each workload runs as its own ``run.py`` process, exactly as a single
benchmark run.  With ``--trace 0`` the table holds the end-to-end
metrics, ``failed_frac`` (failed / attempted stages) and the median
wall time of each CLI stage; with ``--trace 1`` the per-layer metrics.
Exits 1 when any workload's outputs fail their checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", default="34")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", args.seconds,
             "--trace", args.trace, "--size", args.size],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}")
            all_correct = False
            continue
        lines = proc.stdout.strip().splitlines()
        context, result = json.loads(lines[-2]), json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"== {name} (seed {args.seed}, correct={result['correct']})")
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"],
                     f"of {result['attempted']}"))
        if args.trace == "0":
            rows += [(f"{stage}_s", wall, "s")
                     for stage, wall in context["stage_s"].items()]
        for key, value, unit in rows:
            print(f"  {key:<48} {value:>14.6g} {unit}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
