"""Traced run: each layer's public functions called in-process, in the order
the CLI stage calls them, with a span around every call.

Spans (name, start, end, parent, counts) are kept in memory and written
to one JSON file at the end.  The traced pass reads and writes the same
files as the CLI pass before it and must reproduce its data outputs, so a
span measures the work the CLI does.  A thread probe then times
``bootstrap_edges`` and ``multiplicity_scaling_report`` at 1 and at 2
threads.  On the multiplicity workload a sequential pass repeats the
report's per-sample calls (chain, merge, multiplicity count) with a span
each, since those calls happen inside the report.
"""

from __future__ import annotations

import io
import json
import resource
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from workloads import ALPHA, RATIO_CUTOFF, THREADS, WINDOW

MIB = float(1 << 20)
PROBE_MAX_ITERATIONS = 200

# per-layer metric -> unit; a layer that a workload does not run reports 0
PER_LAYER = {
    "stage.generate_s": "s",
    "stage.analyze_s": "s",
    "stage.fit_s": "s",
    "stage.theory_s": "s",
    "buckley_osthus.generate_bo_chain.s": "s",
    "buckley_osthus.generate_bo_chain.steps_per_s": "1/s",
    "buckley_osthus.merge_blocks.s": "s",
    "baselines.generate_holme_kim.s": "s",
    "baselines.generate_holme_kim.edges_per_s": "1/s",
    "baselines.sample_power_law_degrees.s": "s",
    "baselines.generate_configuration.s": "s",
    "graphs.save_edge_list.s": "s",
    "graphs.save_edge_list.mib_per_s": "MiB/s",
    "graphs.load_edge_list.s": "s",
    "graphs.load_edge_list.mib_per_s": "MiB/s",
    "graphs.save_binary.s": "s",
    "graphs.load_binary.s": "s",
    "graphs.simplify.s": "s",
    "graphs.simplify.edges_in": "count",
    "graphs.simplify.kept_ratio": "ratio",
    "graphs.count_multiplicities.s": "s",
    "stats.degree_histogram.s": "s",
    "stats.edge_degree_matrix.s": "s",
    "stats.edge_degree_matrix.cells": "count",
    "stats.rho_surface.s": "s",
    "stats.grid_points": "count",
    "stats.d_nn_profile.s": "s",
    "stats.write_edges_tsv.s": "s",
    "stats.write_degrees_tsv.s": "s",
    "cli.load_degrees_tsv.s": "s",
    "cli.surface_from_tables.s": "s",
    "cli.load_xcells_tsv.s": "s",
    "fitting.select_range.s": "s",
    "fitting.select_range.window": "log10",
    "fitting.pair_domain.pairs": "count",
    "fitting.fit_degree.iterations": "count",
    "fitting.fit_edges.iterations": "count",
    "bootstrap.bootstrap_vertices.per_iter_ms": "ms",
    "bootstrap.bootstrap_vertices.converged_ratio": "ratio",
    "bootstrap.bootstrap_edges.per_iter_ms": "ms",
    "bootstrap.bootstrap_edges.converged_ratio": "ratio",
    "bootstrap.bootstrap_edges.thread_speedup": "x",
    "bootstrap.bootstrap_edges.threads1_s": "s",
    "bootstrap.bootstrap_edges.threads2_s": "s",
    "bootstrap.bootstrap_edges.probe_iterations": "count",
    "theory.multiplicity_scaling_report.s": "s",
    "theory.multiplicity_scaling_report.thread_speedup": "x",
    "theory.multiplicity_scaling_report.threads1_s": "s",
    "theory.multiplicity_scaling_report.threads2_s": "s",
    "trace.pipeline_s": "s",
    "trace.layers_s": "s",
    "trace.unaccounted_s": "s",
    "trace.peak_rss_mib": "MiB",
}


class Tracer:
    """In-memory spans; ``span`` yields a dict for the span's counts."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.trace = "main"

    @contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace, "id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def select(self, name: str, trace: str = "main") -> list:
        return [s for s in self.spans if s["name"] == name and s["trace"] == trace]

    def seconds(self, name: str, trace: str = "main") -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, trace))

    def count(self, name: str, key: str, trace: str = "main") -> float:
        return sum(s["counts"].get(key, 0) for s in self.select(name, trace))

    def layers_s(self) -> float:
        """Time inside layer spans: the children of the stage spans."""
        stages = {s["id"] for s in self.spans
                  if s["trace"] == "main" and s["parent"] is None}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] in stages)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def _text(writer, *args) -> bytes:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue().encode()


def _traced_generate(tr, name, p, seed, out_dir: Path) -> Path:
    from pagl import GDSParams, HKParams, generate_bo_chain, \
        generate_configuration, generate_holme_kim, merge_blocks, \
        sample_power_law_degrees, save_binary, save_edge_list

    with tr.span("stage.generate"):
        if name == "bo-text":
            with tr.span("buckley_osthus.generate_bo_chain") as c:
                chain = generate_bo_chain(p["a"], p["m"] * p["n"], seed)
                c["steps"] = p["m"] * p["n"]
            with tr.span("buckley_osthus.merge_blocks"):
                g = merge_blocks(chain, p["m"])
            path = out_dir / "g.tsv"
            with tr.span("graphs.save_edge_list") as c:
                save_edge_list(g, path)
            c["bytes"] = path.stat().st_size
            return path
        if name == "gds-binary":
            params = GDSParams(n=p["n"], gamma=p["gamma"], seed=seed)
            with tr.span("baselines.sample_power_law_degrees"):
                degrees = sample_power_law_degrees(params)
            with tr.span("baselines.generate_configuration"):
                g = generate_configuration(degrees, seed=params.seed + 1)
        else:
            params = HKParams(n=p["n"], m=p["m"], p_t=p["pt"], seed=seed)
            with tr.span("baselines.generate_holme_kim") as c:
                g = generate_holme_kim(params)
                c["edges"] = g.num_edges
        path = out_dir / "g.bin"
        with tr.span("graphs.save_binary"):
            save_binary(g, path)
        return path


def _traced_analyze(tr, graph: Path) -> dict:
    import numpy as np
    from pagl import d_nn_profile, degree_histogram, edge_degree_matrix, \
        load_binary, load_edge_list, log_grid, rho_surface, simplify, \
        write_degrees_tsv, write_dnn_tsv, write_edges_tsv

    with tr.span("stage.analyze"):
        if graph.suffix == ".tsv":
            with tr.span("graphs.load_edge_list") as c:
                g = load_edge_list(graph)
            c["bytes"] = graph.stat().st_size
        else:
            with tr.span("graphs.load_binary"):
                g = load_binary(graph)
        with tr.span("graphs.simplify") as c:
            s = simplify(g)
        c["edges_in"], c["edges_kept"] = g.num_edges, s.num_edges
        with tr.span("stats.degree_histogram"):
            hist = degree_histogram(s)
        with tr.span("stats.edge_degree_matrix") as c:
            mat = edge_degree_matrix(s)
        c["cells"] = int(mat.x.size)
        with tr.span("stats.log_grid"):
            deg = np.diff(s.indptr)
            grid = log_grid(ALPHA, max(int(deg.max()) if deg.size else 1, 1))
        with tr.span("stats.rho_surface") as c:
            surface = rho_surface(hist, mat, grid)
        c["grid_points"] = len(grid)
        with tr.span("stats.d_nn_profile"):
            profile = d_nn_profile(mat)
        with tr.span("stats.write_degrees_tsv"):
            degrees_tsv = _text(write_degrees_tsv, hist)
        with tr.span("stats.write_edges_tsv"):
            edges_tsv = _text(write_edges_tsv, surface)
        with tr.span("stats.write_dnn_tsv"):
            dnn_tsv = _text(write_dnn_tsv, profile)
    return {"A.degrees.tsv": degrees_tsv, "A.edges.tsv": edges_tsv,
            "A.dnn.tsv": dnn_tsv}


def _traced_fit(tr, cli_dir: Path, p: dict, seed: int) -> dict:
    from pagl import bootstrap_edges, bootstrap_vertices, cumulative_degree, \
        log_grid, select_range
    from pagl.cli import load_degrees_tsv, load_xcells_tsv, surface_from_tables

    B = p["bootstrap"]
    with tr.span("stage.fit"):
        with tr.span("cli.load_degrees_tsv"):
            hist = load_degrees_tsv(str(cli_dir / "A.degrees.tsv"))
        with tr.span("stats.cumulative_degree"):
            tails = cumulative_degree(hist)
        with tr.span("stats.log_grid"):
            grid = log_grid(ALPHA, int(hist.arrays()[0].max()))
        with tr.span("cli.surface_from_tables"):
            surface = surface_from_tables(hist, str(cli_dir / "A.edges.tsv"), grid)
        with tr.span("fitting.select_range") as c:
            sel = select_range(tails, surface, WINDOW, grid,
                               ratio_cutoff=RATIO_CUTOFF)
        c.update(window=sel.window, pairs=len(sel.domain),
                 degree_iterations=sel.degree_fit.iterations,
                 edge_iterations=sel.edge_fit.iterations)
        with tr.span("bootstrap.bootstrap_vertices") as c:
            vert = bootstrap_vertices(hist, sel.range, B=B, seed=seed,
                                      threads=THREADS)
        c.update(iterations=B, converged=B - vert.diverged)
        with tr.span("cli.load_xcells_tsv"):
            matrix = load_xcells_tsv(str(cli_dir / "A.xcells.tsv"))
        with tr.span("bootstrap.bootstrap_edges") as c:
            edge = bootstrap_edges(hist, matrix, sel.domain, grid, B=B,
                                   seed=seed, threads=THREADS)
        c.update(iterations=B, converged=B - edge.diverged)

    tr.trace = "probe"
    probe_b = min(B, PROBE_MAX_ITERATIONS)
    for threads in (1, 2):
        with tr.span(f"bootstrap.bootstrap_edges.threads{threads}") as c:
            bootstrap_edges(hist, matrix, sel.domain, grid, B=probe_b,
                            seed=seed, threads=threads)
        c["iterations"] = probe_b
    tr.trace = "main"
    return {"degree_a": sel.degree_fit.a, "edge_a": sel.edge_fit.a,
            "degrees_sigma_s2": vert.sigma_s2, "edges_sigma_s2": edge.sigma_s2}


def _traced_multiplicity(tr, p: dict, seed: int):
    import numpy as np
    from pagl import count_multiplicities, generate_bo_chain, merge_blocks, \
        multiplicity_scaling_report

    args = (p["samples"], p["n_list"], p["a"], p["m"])
    with tr.span("stage.theory"):
        with tr.span("theory.multiplicity_scaling_report"):
            report = multiplicity_scaling_report(*args, seed=seed, threads=THREADS)

    tr.trace = "probe"
    for threads in (1, 2):
        with tr.span(f"theory.multiplicity_scaling_report.threads{threads}"):
            multiplicity_scaling_report(*args, seed=seed, threads=threads)

    # the report's per-sample calls, one span each, in the report's order
    tr.trace = "calls"
    base = np.random.SeedSequence(seed)
    loops, multi = [], []
    for n in p["n_list"]:
        counts = []
        for child in base.spawn(1)[0].spawn(p["samples"]):
            with tr.span("buckley_osthus.generate_bo_chain") as c:
                chain = generate_bo_chain(p["a"], p["m"] * n, child)
            c["steps"] = p["m"] * n
            with tr.span("buckley_osthus.merge_blocks"):
                g = merge_blocks(chain, p["m"])
            with tr.span("graphs.count_multiplicities"):
                rep = count_multiplicities(g)
            counts.append((rep.loops, rep.multi_edges))
        loops.append(float(np.mean([c[0] for c in counts])))
        multi.append(float(np.mean([c[1] for c in counts])))
    tr.trace = "main"
    return report, loops, multi


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(runner, seed: int, spans_path: Path):
    """One untraced CLI pass on input `seed`, then the traced pass on the
    same input; returns the per-layer metrics."""
    cli = runner.run_pass(seed)
    name, p = runner.workload.name, runner.params
    tr = Tracer()
    traced_dir = runner.work_dir / "traced"
    traced_dir.mkdir()
    mismatches = []
    runner.attempted += 1
    try:
        if name == "multiplicity":
            report, loops, multi = _traced_multiplicity(tr, p, seed)
            cli_report = json.loads(
                (runner.work_dir / "T.multiplicity.json").read_text())
            if ([float(v) for v in report.mean_loops] != cli_report["mean_loops"]
                    or [float(v) for v in report.mean_multi] != cli_report["mean_multi"]
                    or loops != cli_report["mean_loops"]
                    or multi != cli_report["mean_multi"]):
                mismatches.append("traced multiplicity means differ from the CLI")
        else:
            graph = _traced_generate(tr, name, p, seed, traced_dir)
            cli_graph = runner.work_dir / graph.name
            if graph.read_bytes() != cli_graph.read_bytes():
                mismatches.append(f"traced {graph.name} differs from the CLI")
            tables = _traced_analyze(tr, graph)
            mismatches += [f"traced {f} differs from the CLI"
                           for f, blob in tables.items()
                           if blob != (runner.work_dir / f).read_bytes()]
            fits = _traced_fit(tr, runner.work_dir, p, seed)
            cli_fit = json.loads((runner.work_dir / "F.fit.json").read_text())
            got = (fits["degree_a"], fits["edge_a"], fits["degrees_sigma_s2"],
                   fits["edges_sigma_s2"])
            want = (cli_fit["degree"]["a"], cli_fit["edge"]["a"],
                    cli_fit["bootstrap"]["degrees"]["sigma_s2"],
                    cli_fit["bootstrap"]["edges"]["sigma_s2"])
            if got != want:
                mismatches.append(f"traced fits {got} differ from the CLI {want}")
    except Exception as exc:  # report the failure, keep the result line
        traceback.print_exc()
        mismatches.append(f"traced pass raised {exc!r}")
    if mismatches:
        runner.failed += 1
        runner.problems += mismatches
    tr.dump(spans_path)
    return metrics_from_spans(tr, cli), PER_LAYER, {"stage_s": cli["stage_s"],
                                                   "spans": str(spans_path)}


def metrics_from_spans(tr: Tracer, cli: dict) -> dict:
    s, n = tr.seconds, tr.count
    m = {key: 0.0 for key in PER_LAYER}
    for stage in ("generate", "analyze", "fit", "theory"):
        m[f"stage.{stage}_s"] = cli["stage_s"].get(stage, 0.0)
    calls = "calls" if tr.select("theory.multiplicity_scaling_report") else "main"
    for layer in ("buckley_osthus.generate_bo_chain", "buckley_osthus.merge_blocks",
                  "graphs.count_multiplicities"):
        m[f"{layer}.s"] = s(layer, calls)
    m["buckley_osthus.generate_bo_chain.steps_per_s"] = _ratio(
        n("buckley_osthus.generate_bo_chain", "steps", calls),
        s("buckley_osthus.generate_bo_chain", calls))
    for layer in ("baselines.generate_holme_kim", "baselines.sample_power_law_degrees",
                  "baselines.generate_configuration", "graphs.save_edge_list",
                  "graphs.load_edge_list", "graphs.save_binary", "graphs.load_binary",
                  "graphs.simplify", "stats.degree_histogram",
                  "stats.edge_degree_matrix", "stats.rho_surface", "stats.d_nn_profile",
                  "stats.write_edges_tsv", "stats.write_degrees_tsv",
                  "cli.load_degrees_tsv", "cli.surface_from_tables",
                  "cli.load_xcells_tsv", "fitting.select_range",
                  "theory.multiplicity_scaling_report"):
        m[f"{layer}.s"] = s(layer)
    m["baselines.generate_holme_kim.edges_per_s"] = _ratio(
        n("baselines.generate_holme_kim", "edges"), s("baselines.generate_holme_kim"))
    for layer in ("graphs.save_edge_list", "graphs.load_edge_list"):
        m[f"{layer}.mib_per_s"] = _ratio(n(layer, "bytes") / MIB, s(layer))
    m["graphs.simplify.edges_in"] = n("graphs.simplify", "edges_in")
    m["graphs.simplify.kept_ratio"] = _ratio(n("graphs.simplify", "edges_kept"),
                                             n("graphs.simplify", "edges_in"))
    m["stats.edge_degree_matrix.cells"] = n("stats.edge_degree_matrix", "cells")
    m["stats.grid_points"] = n("stats.rho_surface", "grid_points")
    m["fitting.select_range.window"] = n("fitting.select_range", "window")
    m["fitting.pair_domain.pairs"] = n("fitting.select_range", "pairs")
    m["fitting.fit_degree.iterations"] = n("fitting.select_range", "degree_iterations")
    m["fitting.fit_edges.iterations"] = n("fitting.select_range", "edge_iterations")
    for layer in ("bootstrap.bootstrap_vertices", "bootstrap.bootstrap_edges"):
        iters = n(layer, "iterations")
        m[f"{layer}.per_iter_ms"] = _ratio(1000.0 * s(layer), iters)
        m[f"{layer}.converged_ratio"] = _ratio(n(layer, "converged"), iters)
    for layer in ("bootstrap.bootstrap_edges", "theory.multiplicity_scaling_report"):
        t1 = s(f"{layer}.threads1", "probe")
        t2 = s(f"{layer}.threads2", "probe")
        m[f"{layer}.threads1_s"], m[f"{layer}.threads2_s"] = t1, t2
        m[f"{layer}.thread_speedup"] = _ratio(t1, t2)
    m["bootstrap.bootstrap_edges.probe_iterations"] = n(
        "bootstrap.bootstrap_edges.threads1", "iterations", "probe")
    m["trace.pipeline_s"] = cli["pipeline_s"]
    m["trace.layers_s"] = tr.layers_s()
    m["trace.unaccounted_s"] = cli["pipeline_s"] - m["trace.layers_s"]
    m["trace.peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m
