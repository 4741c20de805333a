"""Smoke tests of the benchmark harness at the small input size.

    python3 -m pytest -q perfbench

Each workload runs untraced and traced at ``--size smoke`` with seed 0,
whose outputs are recorded in ``reference.json``, and must print a
correct result line carrying every metric that BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, *args):
    proc = subprocess.run([sys.executable, str(root / HERE.name / "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_bench(dest: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / HERE.name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_result_line(workload, trace):
    code, lines = bench(ROOT, "--workload", workload, "--seed", "0",
                        "--seconds", "1", "--trace", str(trace),
                        "--size", "smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(lines[-2])["env"]
    assert env["threads"] == 2 and "numba" in env


def test_workloads_match_spec():
    assert sorted(w["name"] for w in spec()["workloads"]) == sorted(WORKLOADS)


def test_fails_without_sources(tmp_path):
    copy_bench(tmp_path)
    code, lines = bench(tmp_path, "--workload", "bo-text", "--seconds", "1")
    assert code != 0 and not lines


def test_output_drift_fails_the_run(tmp_path):
    bench_dir = copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = bench_dir / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["multiplicity/smoke/0"]["theory"]["T.multiplicity.tsv"] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    code, lines = bench(tmp_path, "--workload", "multiplicity", "--seed", "0",
                        "--seconds", "1", "--size", "smoke")
    result = json.loads(lines[-1])
    assert code == 0 and not result["correct"] and result["failed"] >= 1
