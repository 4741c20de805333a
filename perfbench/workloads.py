"""The four benchmark workloads: CLI stage lists, sizes and work counts.

Every workload is what a pagl user types, one `pagl` process per stage.
An input seed becomes the `--seed` of every stage that takes one, so the
same seed gives the same inputs and byte-identical outputs.  Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

THREADS = 2  # fixed, never os.cpu_count() or PAGL_THREADS
_THREADS = ("--threads", str(THREADS))

# CLI defaults the traced run must mirror
ALPHA = 1.01
WINDOW = 3.0
RATIO_CUTOFF = 10.0


@dataclass(frozen=True)
class Stage:
    name: str       # generate / analyze / fit / theory
    argv: tuple     # arguments after `python -m pagl.cli`
    outputs: tuple  # data outputs; the manifest is excluded (it holds timings)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict     # size name ("full" or "smoke") -> parameters

    def stages(self, size: str, seed: int) -> list:
        return _STAGES[self.name](self.sizes[size], seed)

    def work(self, size: str, graph_edges: int | None) -> int:
        """Input edges (pipelines) or chain steps (multiplicity) of one pass."""
        p = self.sizes[size]
        if self.name == "multiplicity":
            return p["samples"] * p["m"] * sum(p["n_list"])
        return graph_edges


def _analyze_fit(graph: str, seed: int, bootstrap: int) -> list:
    return [
        Stage("analyze", ("analyze", "--graph", graph) + _THREADS
              + ("--out-prefix", "A"),
              ("A.degrees.tsv", "A.edges.tsv", "A.dnn.tsv", "A.xcells.tsv")),
        Stage("fit", ("fit", "--degrees", "A.degrees.tsv", "--edges", "A.edges.tsv",
                      "--xcells", "A.xcells.tsv", "--auto-range",
                      "--bootstrap", str(bootstrap), "--seed", str(seed))
              + _THREADS + ("--out-prefix", "F"),
              ("F.fit.json", "F.fit.tsv")),
    ]


def _bo_text(p, seed):
    gen = Stage("generate", ("generate", "--model", "bo", "--a", str(p["a"]),
                             "--m", str(p["m"]), "--n", str(p["n"]),
                             "--seed", str(seed)) + _THREADS
                + ("--out", "g.tsv"), ("g.tsv",))
    return [gen] + _analyze_fit("g.tsv", seed, p["bootstrap"])


def _gds_binary(p, seed):
    gen = Stage("generate", ("generate", "--model", "gds", "--gamma", str(p["gamma"]),
                             "--n", str(p["n"]), "--seed", str(seed)) + _THREADS
                + ("--out", "g.bin"), ("g.bin", "g.bin.degrees.tsv"))
    return [gen] + _analyze_fit("g.bin", seed, p["bootstrap"])


def _hk_binary(p, seed):
    gen = Stage("generate", ("generate", "--model", "hk", "--m", str(p["m"]),
                             "--pt", str(p["pt"]), "--n", str(p["n"]),
                             "--seed", str(seed)) + _THREADS
                + ("--out", "g.bin"), ("g.bin",))
    return [gen] + _analyze_fit("g.bin", seed, p["bootstrap"])


def _multiplicity(p, seed):
    return [Stage("theory", ("theory", "multiplicity", "--a", str(p["a"]),
                             "--m", str(p["m"]),
                             "--n-list", ",".join(str(n) for n in p["n_list"]),
                             "--samples", str(p["samples"]), "--seed", str(seed))
                  + _THREADS + ("--out-prefix", "T"),
                  ("T.multiplicity.tsv", "T.multiplicity.json"))]


_STAGES = {
    "bo-text": _bo_text,
    "gds-binary": _gds_binary,
    "hk-binary": _hk_binary,
    "multiplicity": _multiplicity,
}

WORKLOADS = {
    "bo-text": Workload(
        "bo-text",
        {"full": {"a": 0.5, "m": 5, "n": 60_000, "bootstrap": 50},
         "smoke": {"a": 0.5, "m": 5, "n": 4_000, "bootstrap": 10}}),
    "gds-binary": Workload(
        "gds-binary",
        {"full": {"gamma": 2.276, "n": 70_000, "bootstrap": 250},
         "smoke": {"gamma": 2.276, "n": 5_000, "bootstrap": 10}}),
    "hk-binary": Workload(
        "hk-binary",
        {"full": {"m": 12, "pt": 0.5, "n": 16_000, "bootstrap": 50},
         "smoke": {"m": 12, "pt": 0.5, "n": 1_500, "bootstrap": 10}}),
    "multiplicity": Workload(
        "multiplicity",
        {"full": {"a": 0.5, "m": 2, "n_list": [30, 300, 3000, 30000], "samples": 40},
         "smoke": {"a": 0.5, "m": 2, "n_list": [30, 300], "samples": 6}}),
}
