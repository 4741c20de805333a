"""End-to-end benchmark of the pagl CLI.

    python3 perfbench/run.py --workload bo-text --seed 0 --seconds 34 --trace 0

Run from the root of a pagl checkout; the package is taken from ``src``.
With ``--trace 0`` the workload's CLI stages run as separate
``python -m pagl.cli`` processes, back to back, on the run's five inputs,
and again while ``--seconds`` allow; the end-to-end metrics are medians
over the inputs.  With ``--trace 1`` one untraced CLI pass is followed by
an in-process pass that calls each layer's public functions with spans
around them (see ``traced.py``); the per-layer metrics come from that
pass.  Every data output is checked (see ``checks.py``).  The last stdout
line is the result object; the line before it is the environment record.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()  # a run's --seconds count from here
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from checks import graph_edges, load_reference, reference_key, sha256, \
    stage_invariants  # noqa: E402
from workloads import THREADS, WORKLOADS  # noqa: E402

INPUTS_PER_RUN = 5

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("PAGL_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, cwd: Path, env: dict, log: Path):
    """Run one `pagl` process; returns (exit code, wall s, peak RSS MiB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pagl.cli", *argv],
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no stage process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(work_dir: Path, env: dict) -> float:
    """Wall time of one `pagl --version` (interpreter + imports)."""
    code, wall, _rss = run_cli(["--version"], work_dir, env,
                               work_dir / "setup.log")
    if code != 0:
        raise RuntimeError("pagl --version failed: "
                           + (work_dir / "setup.log").read_text())
    return wall


class PipelineRunner:
    """Runs a workload's CLI stages and checks every data output.

    Outputs of an input seed recorded in ``reference.json`` must match
    the recorded digests; a repeated pass of any input must match its
    first pass.
    """

    def __init__(self, workload, size: str, work_dir: Path):
        self.workload = workload
        self.size = size
        self.params = workload.sizes[size]
        self.work_dir = work_dir
        self.env = cli_env()
        self.reference = load_reference()
        self.digests = {}  # input seed -> stage -> file -> sha256
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, seed: int) -> dict:
        for path in self.work_dir.iterdir():
            if path.is_file():
                path.unlink()
        stages = self.workload.stages(self.size, seed)
        key = reference_key(self.workload.name, self.size, seed)
        expected = self.digests.setdefault(seed, self.reference.get(key, {}))
        stage_s, rss, ok = {}, [], True
        for stage in stages:
            self.attempted += 1
            if not ok:  # an earlier stage failed: its inputs are missing
                self.failed += 1
                continue
            code, wall, peak = run_cli(stage.argv, self.work_dir, self.env,
                                       self.work_dir / f"{stage.name}.log")
            stage_s[stage.name] = wall
            rss.append(peak)
            ok = self._check(stage, code, expected, seed)
        edges = None
        if ok and self.workload.name != "multiplicity":
            edges = graph_edges(self.work_dir / stages[0].outputs[0])
        return {"stage_s": stage_s,
                "pipeline_s": sum(stage_s.values()),
                "peak_rss_mib": max(rss), "ok": ok,
                "work": self.workload.work(self.size, edges) if ok else None}

    def _check(self, stage, code: int, expected: dict, seed: int) -> bool:
        bad = []
        if code != 0:
            log = (self.work_dir / f"{stage.name}.log").read_text().strip()
            bad.append(f"exit {code}: {log}")
        else:
            digests = {name: sha256(self.work_dir / name)
                       for name in stage.outputs}
            want = expected.setdefault(stage.name, digests)
            bad += [f"{name} differs from its reference digest"
                    for name in stage.outputs if digests[name] != want.get(name)]
            if not bad:
                bad += stage_invariants(self.workload.name, stage.name,
                                        self.params, self.work_dir)
        if bad:
            self.failed += 1
            self.problems += [f"{stage.name} (input seed {seed}): {msg}"
                              for msg in bad]
        return not bad


def environment() -> dict:
    import numpy
    import scipy

    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": THREADS,
    }


def input_seeds(seed: int) -> list:
    """The distinct inputs of one run; disjoint for distinct run seeds."""
    return [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]


def run_untraced(runner: PipelineRunner, seed: int, seconds: float):
    """End-to-end metrics: the median over the run's inputs.

    After one warm-up `--version`, the inputs run in turn, again and
    again, each pass preceded by one timed `--version` (a `setup_s`
    sample), so that set-up and pipeline samples span the whole run.
    Passes go on while the next one is projected to end within `seconds`
    of the benchmark process's start; every input runs at least once.
    Each input's passes reduce to their median.
    """
    measure_setup(runner.work_dir, runner.env)  # warm-up, not a sample
    seeds = input_seeds(seed)
    by_input = {s: [] for s in seeds}
    setup = []
    done = 0
    while True:
        setup.append(measure_setup(runner.work_dir, runner.env))
        by_input[seeds[done % len(seeds)]].append(
            runner.run_pass(seeds[done % len(seeds)]))
        done += 1
        now = time.perf_counter()
        if done >= len(seeds) and now + (now - START) / done > START + seconds:
            break

    def per_input(value) -> list:
        out = []
        for passes in by_input.values():
            good = [value(p) for p in passes if p["ok"]]
            if good:
                out.append(statistics.median(good))
        return out or [0.0]

    stage_names = [st.name for st in runner.workload.stages(runner.size, seed)]
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(per_input(lambda p: p["pipeline_s"])),
        "edges_per_s": statistics.median(
            per_input(lambda p: p["work"] / p["pipeline_s"])),
        "peak_rss_mib": statistics.median(per_input(lambda p: p["peak_rss_mib"])),
    }
    detail = {
        "passes": done, "setup_samples": setup,
        "pipeline_samples": {s: [p["pipeline_s"] for p in ps]
                             for s, ps in by_input.items()},
        "stage_s": {name: statistics.median(per_input(
            lambda p, name=name: p["stage_s"][name])) for name in stage_names},
    }
    return metrics, END_TO_END, detail


def emit(metrics: dict, units: dict, runner, env: dict, detail: dict,
         record: Path):
    failed = runner.failed
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for msg in runner.problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    record.write_text(json.dumps({"env": env, "detail": detail,
                                  "result": result}, indent=1) + "\n")
    print(json.dumps({"env": env, "stage_s": detail.get("stage_s")}))
    print(json.dumps(result))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs that run in seconds")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pagl" / "cli.py").is_file():
        print(f"perfbench: no pagl sources under {SRC}; run from a pagl "
              f"checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir()
    # on SIGTERM unwind normally: kill the running stage, remove work_dir
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        runner = PipelineRunner(workload, args.size, work_dir)
        env = environment()
        if args.trace:
            sys.path.insert(0, str(SRC))
            from traced import run_traced

            metrics, units, detail = run_traced(
                runner, input_seeds(args.seed)[0], OUT / f"spans-{tag}.json")
        else:
            metrics, units, detail = run_untraced(runner, args.seed,
                                                  args.seconds)
        emit(metrics, units, runner, env, detail, OUT / f"result-{tag}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
