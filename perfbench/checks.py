"""Output checks: reference digests and invariants read back from the files.

Data outputs of a stage must be byte-identical to the digests stored in
``reference.json`` when the (workload, size, seed) triple is recorded
there, and to the first pass of the same run otherwise.  The invariants
below hold for every seed and are read with plain parsing, not through
pagl, so they also catch a change in what a file means.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as stream:
        return json.load(stream)


def graph_edges(path: Path) -> int:
    """Edge count of a generated graph file (binary header or text lines)."""
    with open(path, "rb") as stream:
        head = stream.read(21)
        if head[:4] == b"PAGL":
            return int.from_bytes(head[13:21], "little")
        stream.seek(0)
        return sum(1 for line in stream if not line.startswith(b"#"))


def _rows(path: Path) -> list:
    with open(path, encoding="ascii") as stream:
        return [line.rstrip("\n").split("\t") for line in stream][1:]


def expected_edges(workload: str, p: dict, work_dir: Path) -> int:
    if workload == "bo-text":
        return p["m"] * p["n"]
    if workload == "hk-binary":
        m, n = p["m"], p["n"]
        return m * (n - m - 1) + m * (m + 1) // 2
    degrees = sum(int(d) for _v, d in _rows(work_dir / "g.bin.degrees.tsv"))
    return degrees // 2


def stage_invariants(workload: str, stage: str, p: dict, work_dir: Path) -> list:
    """Violated invariants of one finished stage, as messages."""
    bad = []
    if stage == "generate":
        graph = work_dir / ("g.tsv" if workload == "bo-text" else "g.bin")
        got, want = graph_edges(graph), expected_edges(workload, p, work_dir)
        if got != want:
            bad.append(f"graph has {got} edges, expected {want}")
    elif stage == "analyze":
        degrees = _rows(work_dir / "A.degrees.tsv")
        n = p["n"]
        if sum(int(c) for _d, c, _cum in degrees) != n:
            bad.append("degree counts do not sum to the vertex count")
        stubs = sum(int(d) * int(c) for d, c, _cum in degrees)
        edges = sum(int(x) for _a, _b, x in _rows(work_dir / "A.xcells.tsv"))
        if stubs != 2 * edges:
            bad.append(f"degree sum {stubs} != 2 x xcells edges {edges}")
    elif stage == "fit":
        report = json.loads((work_dir / "F.fit.json").read_text())
        for kind in ("degree", "edge"):
            if not report[kind].get("converged"):
                bad.append(f"{kind} fit did not converge")
        for target in ("degrees", "edges"):
            boot = report.get("bootstrap", {}).get(target, {})
            if not (math.isfinite(boot.get("sigma_s2", math.nan))
                    and boot.get("diverged", 1) < boot.get("iterations", 0)):
                bad.append(f"{target} bootstrap missing or all refits diverged")
    elif stage == "theory":
        report = json.loads((work_dir / "T.multiplicity.json").read_text())
        if report["n_list"] != p["n_list"] or report["samples"] != p["samples"]:
            bad.append("multiplicity report does not echo its sizes")
        values = report["mean_loops"] + report["mean_multi"]
        if not all(math.isfinite(v) and v >= 0 for v in values):
            bad.append("negative or non-finite multiplicity means")
        if not math.isfinite(report["multi_slope"]):
            bad.append("multi-edge slope is not finite")
    return bad
