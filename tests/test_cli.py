import ast
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pagl
from oracles import binary_bytes
from pagl._limits import MAX_SEEDS, MAX_SHAPE_D1, MAX_SHAPE_PAIRS, \
    MAX_SHAPE_TERMS, MAX_THREADS
from pagl.cli import main
from pagl.fitting import _PowerLaw
from pagl.graphs import Graph, load_binary, load_edge_list
from pagl.stats import DegreeHistogram, EdgeDegreeMatrix, degree_grid, \
    rho_surface
from pagl.tables import write_degrees_tsv, write_edges_tsv


NO_EDGES = EdgeDegreeMatrix(*[np.empty(0, np.int64)] * 3)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generate -> analyze run shared by the fit/bootstrap tests."""
    root = tmp_path_factory.mktemp("pipeline")
    g = root / "g.tsv"
    assert run("generate", "--model", "bo", "--a", 0.5, "--m", 3,
               "--n", 20000, "--seed", 7, "--out", g) == 0
    assert run("analyze", "--graph", g, "--out-prefix", root / "A") == 0
    return root


@pytest.fixture(scope="module")
def gds_run(tmp_path_factory):
    """A generate -> analyze run of the gds baseline, from a binary graph."""
    root = tmp_path_factory.mktemp("gds")
    g = root / "g.bin"
    assert run("generate", "--model", "gds", "--gamma", 2.276, "--n", 20000,
               "--seed", 1, "--out", g) == 0
    assert run("analyze", "--graph", g, "--out-prefix", root / "A") == 0
    return root


class TestGenerate:
    def test_bo_text(self, tmp_path):
        out = tmp_path / "bo.tsv"
        assert run("generate", "--model", "bo", "--a", 1.0, "--m", 2,
                   "--n", 500, "--seed", 1, "--out", out) == 0
        g = load_edge_list(out)
        assert g.n == 500 and g.num_edges == 1000

    def test_bo_binary_by_extension(self, tmp_path):
        out = tmp_path / "bo.bin"
        assert run("generate", "--model", "bo", "--a", 1.0, "--m", 2,
                   "--n", 400, "--seed", 1, "--out", out) == 0
        assert load_binary(out).n == 400

    def test_format_override(self, tmp_path):
        out = tmp_path / "bo.dat"
        assert run("generate", "--model", "bo", "--a", 1.0, "--m", 1,
                   "--n", 50, "--seed", 0, "--format", "binary",
                   "--out", out) == 0
        assert load_binary(out).n == 50

    def test_hk_edge_count(self, tmp_path):
        out = tmp_path / "hk.bin"
        n, m = 100_000, 12
        assert run("generate", "--model", "hk", "--m", m, "--n", n,
                   "--seed", 3, "--out", out) == 0
        g = load_binary(out)
        assert g.num_edges == m * (n - m - 1) + m * (m + 1) // 2

    def test_gds_writes_degree_sidecar(self, tmp_path):
        out = tmp_path / "gds.tsv"
        assert run("generate", "--model", "gds", "--gamma", 2.5,
                   "--n", 3000, "--seed", 2, "--out", out) == 0
        sidecar = tmp_path / "gds.tsv.degrees.tsv"
        lines = sidecar.read_text().splitlines()
        assert lines[0] == "vertex\tdegree"
        assert len(lines) == 3001

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ("generate", "--model", "bo", "--a", 0.5, "--m", 2,
                "--n", 300, "--seed", 9)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 1,
                   "--n", 60, "--seed", 4, "--out", out, "--verify") == 0
        manifest = json.loads((tmp_path / "g.tsv.manifest.json").read_text())
        assert manifest["command"][0] == "pagl"
        assert manifest["seeds"] == {"seed": 4}
        assert manifest["parameters"]["model"] == "bo"
        assert manifest["outputs"] == [str(out)]
        assert manifest["wall_clock_s"] >= 0

    def test_verify_binary_output(self, tmp_path):
        # the writer's blocks are compared with the file, and so must be bytes
        args = ("generate", "--model", "hk", "--m", 3, "--n", 3000,
                "--seed", 2, "--out")
        assert run(*args, tmp_path / "g.bin", "--verify") == 0
        assert run(*args, tmp_path / "h.bin") == 0
        assert (tmp_path / "g.bin").read_bytes() \
            == (tmp_path / "h.bin").read_bytes()

    @pytest.mark.parametrize("change", [
        lambda data: data[:-2] + b"9\n",
        lambda data: data[:-1],
        lambda data: data + b"0 0\n",
    ], ids=["a-byte-differs", "shorter", "longer"])
    def test_verify_compares_the_rederivation(self, tmp_path, monkeypatch,
                                              capsys, change):
        # the second derivation of the graph, the one --verify compares
        # with the file, is changed
        out = tmp_path / "g.tsv"
        save, calls = pagl.cli.save_edge_list, []

        def changed_on_second_call(g, stream):
            buf = io.BytesIO()
            save(g, buf)
            calls.append(g)
            data = buf.getvalue()
            stream.write(change(data) if len(calls) == 2 else data)

        monkeypatch.setattr(pagl.cli, "save_edge_list", changed_on_second_call)
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 1,
                   "--n", 60, "--seed", 4, "--out", out, "--verify") == 2
        assert len(calls) == 2
        assert capsys.readouterr().err == \
            f"pagl: verify: {out} is not byte-reproducible\n"

    def test_manifest_records_peak_memory(self, pipeline, tmp_path):
        # each run in a fresh process: one that forks no worker, and one
        # whose bootstrap forks one
        runs = {"g.tsv": ["generate", "--model", "bo", "--a", 0.5, "--m", 1,
                          "--n", 60, "--out", "g.tsv"],
                "B": ["bootstrap", "--target", "degrees", "--degrees",
                      pipeline / "A.degrees.tsv", "--d1-lo", 3, "--d1-hi",
                      100, "--iterations", 4, "--threads", 2,
                      "--out-prefix", "B"]}
        for prefix, argv in runs.items():
            subprocess.run([sys.executable, "-m", "pagl.cli", *map(str, argv)],
                           env=child_env(), cwd=tmp_path, check=True,
                           timeout=120)
        peaks = {prefix: json.loads((tmp_path / f"{prefix}.manifest.json")
                                    .read_text())["peak_rss_mib"]
                 for prefix in runs}
        assert peaks["g.tsv"]["workers_ru_maxrss"] is None
        assert peaks["B"]["workers_ru_maxrss"] > 0
        for peak in peaks.values():
            if os.path.exists("/proc/self/status"):
                assert peak["process_vmhwm"] > 0
            else:
                assert peak["process_vmhwm"] is None

    def test_missing_model_params(self, tmp_path):
        assert run("generate", "--model", "bo", "--m", 2, "--n", 10,
                   "--out", tmp_path / "x.tsv") == 2
        assert run("generate", "--model", "gds", "--n", 10,
                   "--out", tmp_path / "x.tsv") == 2


class TestAnalyze:
    def test_path_graph_golden(self, tmp_path):
        g = tmp_path / "p.tsv"
        g.write_text("#n 3\n0 1\n1 2\n")
        assert run("analyze", "--graph", g, "--alpha", 1.5,
                   "--out-prefix", tmp_path / "P", "--verify") == 0
        assert (tmp_path / "P.degrees.tsv").read_text() == (
            "d\tcount\tcumulative\n1\t2\t1\n2\t1\t0\n"
        )
        assert (tmp_path / "P.dnn.tsv").read_text() == (
            "d\tdnn\n1\t2.0\n2\t1.0\n"
        )
        assert (tmp_path / "P.edges.tsv").read_text() == (
            "d1\td2\tX\tXcum\trho\n1\t1\t0\t0\t0.0\n"
        )
        assert (tmp_path / "P.xcells.tsv").read_text() == (
            "d1\td2\tx\n2\t1\t2\n"
        )

    def test_outputs_reproducible(self, pipeline, tmp_path):
        assert run("analyze", "--graph", pipeline / "g.tsv",
                   "--out-prefix", tmp_path / "B") == 0
        for name in ("degrees", "edges", "dnn", "xcells"):
            assert (tmp_path / f"B.{name}.tsv").read_bytes() == (
                pipeline / f"A.{name}.tsv"
            ).read_bytes()

    def test_grid_without_points(self, tmp_path):
        # alpha 2.5 puts no grid point at or below the maximum degree 1
        g = tmp_path / "e.tsv"
        g.write_text("#n 2\n0 1\n")
        assert run("analyze", "--graph", g, "--alpha", 2.5,
                   "--out-prefix", tmp_path / "E", "--verify") == 0
        assert (tmp_path / "E.edges.tsv").read_text() == "d1\td2\tX\tXcum\trho\n"
        assert (tmp_path / "E.xcells.tsv").read_text() == "d1\td2\tx\n1\t1\t1\n"

    @pytest.mark.parametrize("name, given, fmt", [
        ("g.tsv", [], "text"), ("g.bin", [], "binary"),
        ("g.dat", ["--format", "binary"], "binary"),
    ])
    def test_manifest_records_format(self, tmp_path, name, given, fmt):
        g = tmp_path / name
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 2,
                   "--n", 300, "--format", fmt, "--out", g) == 0
        assert run("analyze", "--graph", g, *given,
                   "--out-prefix", tmp_path / "A") == 0
        manifest = json.loads((tmp_path / "A.manifest.json").read_text())
        assert manifest["parameters"] == {"alpha": 1.01, "format": fmt}

    def test_missing_graph(self, tmp_path):
        assert run("analyze", "--graph", tmp_path / "absent.tsv",
                   "--out-prefix", tmp_path / "X") == 4


class TestFit:
    def test_explicit_range_report(self, pipeline, tmp_path):
        q = tmp_path / "F"
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--d1-lo", 3, "--d1-hi", 100, "--out-prefix", q) == 0
        report = json.loads((q.parent / "F.fit.json").read_text())
        for side in ("degree", "edge"):
            entry = report[side]
            assert entry["converged"] is True
            assert entry["iterations"] >= 1
            assert entry["sigma2"] >= 0
        assert 0.0 < report["degree"]["a"] < 2.0
        assert 0.0 < report["edge"]["a"] < 2.0
        assert report["range"] == {
            "lo": 3, "hi": 100, "auto": False, "window": None,
            "grid_points": report["range"]["grid_points"],
            "pair_count": report["range"]["pair_count"],
        }

    def test_tsv_report_shape(self, pipeline, tmp_path):
        q = tmp_path / "F"
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--d1-lo", 3, "--d1-hi", 100, "--out-prefix", q) == 0
        lines = (tmp_path / "F.fit.tsv").read_text().splitlines()
        assert lines[0] == "parameter\testimate\tsigma2\titerations\tconverged"
        names = [ln.split("\t")[0] for ln in lines[1:]]
        assert names == ["a1", "b1", "a2", "b2"]
        for ln in lines[1:]:
            fields = ln.split("\t")
            assert len(fields) == 5
            float(fields[1]), float(fields[2])
            assert fields[4] in ("true", "false")

    def test_auto_range_with_bootstrap(self, pipeline, tmp_path):
        q = tmp_path / "FB"
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--xcells", pipeline / "A.xcells.tsv",
                   "--auto-range", "--window", 1.5,
                   "--bootstrap", 25, "--seed", 3,
                   "--out-prefix", q, "--verify") == 0
        report = json.loads((tmp_path / "FB.fit.json").read_text())
        assert report["range"]["auto"] is True
        for side in ("degrees", "edges"):
            assert report["bootstrap"][side]["sigma_s2"] > 0
            assert report["bootstrap"][side]["iterations"] == 25

    def test_auto_range_needs_convergent_window(self, tmp_path):
        g = tmp_path / "p.tsv"
        g.write_text("#n 5\n0 1\n1 2\n2 3\n3 4\n")
        assert run("analyze", "--graph", g, "--out-prefix", tmp_path / "P") == 0
        assert run("fit", "--degrees", tmp_path / "P.degrees.tsv",
                   "--edges", tmp_path / "P.edges.tsv",
                   "--auto-range", "--out-prefix", tmp_path / "Q") == 3

    def test_alpha_mismatch_rejected(self, pipeline, tmp_path):
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--alpha", 1.3,
                   "--d1-lo", 3, "--d1-hi", 100,
                   "--out-prefix", tmp_path / "Z") == 2

    def test_range_flags_required(self, pipeline, tmp_path):
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--out-prefix", tmp_path / "Z") == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--d1-lo", 2, "--d1-hi", 50],
        ["bootstrap", "--target", "degrees", "--d1-lo", 2, "--iterations", 5],
    ], ids=["fit", "bootstrap"])
    def test_auto_range_with_bounds_is_2(self, pipeline, tmp_path, capsys,
                                         argv):
        a = pipeline / "A"
        assert run(*argv, "--auto-range", "--degrees", f"{a}.degrees.tsv",
                   "--edges", f"{a}.edges.tsv",
                   "--out-prefix", tmp_path / "Z") == 2
        err = capsys.readouterr().err
        assert err == ("pagl: --auto-range chooses the window; it conflicts "
                       "with --d1-lo and --d1-hi\n")
        assert not list(tmp_path.glob("Z.*"))

    @pytest.mark.parametrize("analysis", ["pipeline", "gds_run"],
                             ids=["bo-text", "gds-binary"])
    def test_explicit_window_fits_as_the_selected_one(self, request, tmp_path,
                                                      analysis):
        a = request.getfixturevalue(analysis) / "A"
        given = ["--degrees", f"{a}.degrees.tsv", "--edges", f"{a}.edges.tsv"]
        assert run("fit", *given, "--auto-range",
                   "--out-prefix", tmp_path / "auto") == 0
        auto = json.loads((tmp_path / "auto.fit.json").read_text())
        assert run("fit", *given, "--d1-lo", auto["range"]["lo"],
                   "--d1-hi", auto["range"]["hi"],
                   "--out-prefix", tmp_path / "explicit") == 0
        explicit = json.loads((tmp_path / "explicit.fit.json").read_text())
        for side in ("degree", "edge"):
            assert auto[side]["converged"]
            assert json.dumps(explicit[side]) == json.dumps(auto[side])
        assert ((tmp_path / "explicit.fit.tsv").read_bytes()
                == (tmp_path / "auto.fit.tsv").read_bytes())


class TestBootstrapCommand:
    def test_degrees_target(self, pipeline, tmp_path):
        q = tmp_path / "B"
        assert run("bootstrap", "--target", "degrees",
                   "--degrees", pipeline / "A.degrees.tsv",
                   "--d1-lo", 3, "--d1-hi", 100,
                   "--iterations", 20, "--seed", 9,
                   "--out-prefix", q, "--verify") == 0
        lines = (tmp_path / "B.bootstrap.tsv").read_text().splitlines()
        assert lines[0] == "iteration\testimate"
        assert len(lines) == 22
        assert lines[-1].startswith("sigma_s2\t")
        report = json.loads((tmp_path / "B.bootstrap.json").read_text())
        assert report["target"] == "degrees"
        assert report["iterations"] == 20

    def test_edges_target_auto_range(self, pipeline, tmp_path):
        q = tmp_path / "B"
        assert run("bootstrap", "--target", "edges",
                   "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv",
                   "--xcells", pipeline / "A.xcells.tsv",
                   "--auto-range", "--window", 1.5,
                   "--iterations", 15, "--seed", 9, "--out-prefix", q) == 0
        report = json.loads((tmp_path / "B.bootstrap.json").read_text())
        assert report["target"] == "edges"
        assert report["range"]["auto"] is True
        assert report["sigma_s2"] > 0

    @pytest.mark.parametrize("argv", [
        ["--d1-lo", 3, "--d1-hi", 100],
        ["--auto-range", "--window", 1.5],
    ], ids=["explicit", "auto"])
    def test_manifest_lists_edges(self, pipeline, tmp_path, argv):
        a = pipeline / "A"
        assert run("bootstrap", "--target", "edges", *argv,
                   "--degrees", f"{a}.degrees.tsv",
                   "--edges", f"{a}.edges.tsv", "--xcells", f"{a}.xcells.tsv",
                   "--iterations", 5, "--out-prefix", tmp_path / "B") == 0
        manifest = json.loads((tmp_path / "B.manifest.json").read_text())
        assert manifest["inputs"] == sorted(
            f"{a}.{kind}.tsv" for kind in ("degrees", "edges", "xcells"))

    def test_manifest_records_window(self, pipeline, tmp_path):
        a = pipeline / "A"
        assert run("bootstrap", "--target", "degrees", "--auto-range",
                   "--window", 1.5, "--degrees", f"{a}.degrees.tsv",
                   "--edges", f"{a}.edges.tsv", "--iterations", 5,
                   "--out-prefix", tmp_path / "B") == 0
        manifest = json.loads((tmp_path / "B.manifest.json").read_text())
        assert manifest["parameters"]["window"] == 1.5
        assert manifest["parameters"]["auto_range"] is True

    def test_missing_edges_is_4(self, pipeline, tmp_path, capsys):
        a = pipeline / "A"
        assert run("bootstrap", "--target", "edges",
                   "--degrees", f"{a}.degrees.tsv",
                   "--edges", tmp_path / "absent.edges.tsv",
                   "--xcells", f"{a}.xcells.tsv", "--d1-lo", 3, "--d1-hi", 100,
                   "--iterations", 5, "--out-prefix", tmp_path / "B") == 4
        err = capsys.readouterr().err
        assert "absent.edges.tsv" in err and "Traceback" not in err
        assert not list(tmp_path.glob("B.*"))

    def test_edges_target_needs_xcells(self, pipeline, tmp_path):
        assert run("bootstrap", "--target", "edges",
                   "--degrees", pipeline / "A.degrees.tsv",
                   "--d1-lo", 3, "--d1-hi", 100,
                   "--iterations", 5, "--out-prefix", tmp_path / "B") == 2


@pytest.fixture(scope="module")
def other_run(tmp_path_factory):
    """A second analyze run of the pipeline's model, from another seed."""
    root = tmp_path_factory.mktemp("other")
    g = root / "g.tsv"
    assert run("generate", "--model", "bo", "--a", 0.5, "--m", 3,
               "--n", 20000, "--seed", 8, "--out", g) == 0
    assert run("analyze", "--graph", g, "--out-prefix", root / "A") == 0
    return root


class TestOneAnalysisPerRun:
    """The edge bootstrap reads ``--xcells`` and its window comes from
    ``--edges``; both must come from one analyze run."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--d1-lo", 3, "--d1-hi", 100, "--bootstrap", 5],
        ["fit", "--auto-range", "--window", 1.5, "--bootstrap", 5],
        ["bootstrap", "--target", "edges", "--auto-range", "--window", 1.5,
         "--iterations", 5],
        ["bootstrap", "--target", "edges", "--d1-lo", 3, "--d1-hi", 100,
         "--iterations", 5],
    ], ids=["fit-explicit", "fit-auto", "bootstrap-auto", "bootstrap-explicit"])
    def test_mixed_runs_exit_2(self, pipeline, other_run, tmp_path, argv,
                               capsys):
        a, other = pipeline / "A", other_run / "A"
        assert run(*argv, "--degrees", f"{a}.degrees.tsv",
                   "--edges", f"{a}.edges.tsv",
                   "--xcells", f"{other}.xcells.tsv",
                   "--out-prefix", tmp_path / "M") == 2
        err = capsys.readouterr().err
        assert (f"--edges {a}.edges.tsv and --xcells {other}.xcells.tsv do "
                f"not come from one analyze run") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("M.*"))

    def test_edge_fit_error_on_edges_exits_2(self, pipeline, tmp_path,
                                             monkeypatch, capsys):
        # the fit to --edges raises where the fit to --xcells converges
        def fails(surface, domain):
            raise ValueError("no edge fit")

        monkeypatch.setattr(pagl.fitting, "fit_edges", fails)
        a = pipeline / "A"
        assert run("bootstrap", "--target", "edges", *tables(pipeline),
                   "--iterations", 5, "--out-prefix", tmp_path / "M") == 2
        err = capsys.readouterr().err
        assert (f"--edges {a}.edges.tsv and --xcells {a}.xcells.tsv do not "
                f"come from one analyze run: the edge fit gives the error "
                f"'no edge fit' on --edges") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("M.*"))

    def test_one_run_reports_one_edge_fit(self, pipeline, tmp_path):
        a = pipeline / "A"
        given = ["--degrees", f"{a}.degrees.tsv", "--edges", f"{a}.edges.tsv",
                 "--auto-range", "--window", 1.5]
        assert run("fit", *given, "--out-prefix", tmp_path / "F") == 0
        assert run("fit", *given, "--xcells", f"{a}.xcells.tsv",
                   "--bootstrap", 5, "--out-prefix", tmp_path / "FB") == 0
        assert run("bootstrap", "--target", "edges", *given,
                   "--xcells", f"{a}.xcells.tsv", "--iterations", 5,
                   "--out-prefix", tmp_path / "B") == 0
        fit = json.loads((tmp_path / "F.fit.json").read_text())
        with_boot = json.loads((tmp_path / "FB.fit.json").read_text())
        assert with_boot.pop("bootstrap")["edges"]["iterations"] == 5
        assert with_boot == fit
        assert ((tmp_path / "FB.fit.tsv").read_bytes()
                == (tmp_path / "F.fit.tsv").read_bytes())
        boot = json.loads((tmp_path / "B.bootstrap.json").read_text())
        assert boot["original"] == fit["edge"]


class TestTheoryCommands:
    def test_expected_degree_closed_form(self, tmp_path):
        q = tmp_path / "T"
        assert run("theory", "expected", "--a", 1.0, "--m", 1, "--n", 600,
                   "--d", "1,2", "--out-prefix", q, "--verify") == 0
        lines = (tmp_path / "T.expected_degrees.tsv").read_text().splitlines()
        assert lines[0] == "d\texpected"
        d1 = float(lines[1].split("\t")[1])
        d2 = float(lines[2].split("\t")[1])
        assert d1 == pytest.approx(400.0, rel=1e-9)
        assert d2 == pytest.approx(100.0, rel=1e-9)

    def test_expected_pairs(self, tmp_path):
        q = tmp_path / "T"
        assert run("theory", "expected", "--a", 1.0, "--m", 1, "--n", 100,
                   "--pairs", "5:2,40:3", "--out-prefix", q) == 0
        lines = (tmp_path / "T.expected_edges.tsv").read_text().splitlines()
        assert lines[0] == "d1\td2\texpected"
        assert float(lines[1].split("\t")[2]) == pytest.approx(400.0 / 100.0)

    @pytest.mark.parametrize("pairs", ["a:3", "30:1.5", "5", "1:2:3"])
    def test_pairs_error_names_the_flag(self, tmp_path, capsys, pairs):
        assert run("theory", "expected", "--a", 0.5, "--m", 2, "--n", 100,
                   "--pairs", f"5:2,{pairs}", "--out-prefix", tmp_path / "T") == 2
        assert capsys.readouterr().err == (
            f"pagl: --pairs expects d1:d2 integer items, got {pairs!r}\n")

    @pytest.mark.parametrize("targets, at", [
        (["--d", 3], "degree 3"), (["--pairs", "3:4"], "degree 3:4"),
    ], ids=["degree", "pair"])
    def test_expected_count_not_finite_is_2(self, tmp_path, targets, at):
        # the gamma function overflows at a = 1e308, so no count is finite
        rc, err = run_limited("theory", "expected", "--a", 1e308, "--m", 2,
                              "--n", 10, *targets,
                              "--out-prefix", tmp_path / "T")
        assert rc == 2 and "Traceback" not in err
        assert err == f"pagl: expected count at {at} is not finite for a=1e+308\n"
        assert not list(tmp_path.iterdir())

    def test_expected_needs_targets(self, tmp_path):
        assert run("theory", "expected", "--a", 1.0, "--m", 1, "--n", 10,
                   "--out-prefix", tmp_path / "T") == 2

    def test_rho_shape(self, tmp_path):
        q = tmp_path / "T"
        assert run("theory", "rho-shape", "--a2", 0.5,
                   "--out-prefix", q, "--verify") == 0
        report = json.loads((tmp_path / "T.rho_shape.json").read_text())
        assert report["a"] == 0.5
        assert 0 < report["max_rel_deviation"] < 0.10
        assert report["constant"] > 0

    def test_multiplicity(self, tmp_path):
        q = tmp_path / "T"
        assert run("theory", "multiplicity", "--a", 0.5, "--m", 2,
                   "--n-list", "200,400,800", "--samples", 4, "--seed", 1,
                   "--out-prefix", q, "--verify") == 0
        lines = (tmp_path / "T.multiplicity.tsv").read_text().splitlines()
        assert lines[0] == "n\tmean_loops\tmean_multi\tloop_fraction\tmulti_fraction"
        assert len(lines) == 4
        report = json.loads((tmp_path / "T.multiplicity.json").read_text())
        assert report["n_list"] == [200, 400, 800]


class TestExitCodesAndEnv:
    def test_io_error_is_4(self, tmp_path):
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 1,
                   "--n", 10, "--out", tmp_path / "no_dir" / "x.tsv") == 4

    def test_malformed_table_is_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("wrong\theader\n1\t2\n")
        assert run("fit", "--degrees", bad, "--edges", bad,
                   "--d1-lo", 3, "--d1-hi", 100,
                   "--out-prefix", tmp_path / "Z") == 2

    @pytest.mark.parametrize("cut, tail, message", [
        (0, bytes(16), "trailing bytes: expected 53 bytes, got 69"),
        (8, (2**63).to_bytes(8, "little"),
         f"vertex id {2**63} exceeds the 32-bit id limit"),
        # a bare header whose edge count no memory holds
        *[(40, edges.to_bytes(8, "little"),
           f"truncated file: expected {21 + 16 * edges} bytes, got 21")
          for edges in (2**59, 2**40)],
    ], ids=["trailing-bytes", "id-2**63", "header-2**59-edges",
            "header-2**40-edges"])
    def test_bad_binary_graph_is_2(self, tmp_path, capsys, cut, tail, message):
        # the last ``cut`` bytes of a valid file replaced by ``tail``
        raw = binary_bytes(Graph(3, [(0, 1), (1, 2)]))
        g = tmp_path / "g.bin"
        g.write_bytes(raw[:len(raw) - cut] + tail)
        assert run("analyze", "--graph", g, "--out-prefix", tmp_path / "A") == 2
        assert capsys.readouterr().err == f"pagl: {message}\n"
        assert list(tmp_path.iterdir()) == [g]

    def test_failed_checks_write_nothing(self, pipeline, tmp_path):
        # every check runs before the first output is opened
        g = tmp_path / "g.tsv"
        g.write_text("#n 3\n0 1\n1 x\n")
        assert run("analyze", "--graph", g, "--out-prefix", tmp_path / "A") == 2
        assert run("fit", "--degrees", pipeline / "A.degrees.tsv",
                   "--edges", pipeline / "A.edges.tsv", "--auto-range",
                   "--d1-lo", 3, "--out-prefix", tmp_path / "F") == 2
        assert list(tmp_path.iterdir()) == [g]

    @settings(max_examples=60, deadline=None)
    # a tail that a fit matches only with ln b above the float range
    @example({1000: 10**15, **dict.fromkeys(range(1001, 1100), 1)}, 0, 990, 1010)
    @given(st.dictionaries(st.integers(1, 10**5), st.integers(1, 10**15),
                           min_size=1, max_size=30),
           st.sampled_from([0, 1, 10**15]),
           st.integers(-2, 2 * 10**5), st.integers(-2, 2 * 10**5))
    def test_fit_on_valid_tables(self, counts, isolated, lo, hi):
        # any valid degrees table, with the complete edges table of a
        # graph without edges (on a coarse grid, so a degree of 10**5
        # gives a few hundred rows), fits, is refused or diverges: never
        # an exception
        degrees = sorted(counts)
        hist = DegreeHistogram(np.array(degrees, np.int64),
                               np.array([counts[d] for d in degrees], np.int64),
                               sum(counts.values()) + isolated)
        with tempfile.TemporaryDirectory() as root:
            write_degrees_tsv(hist, f"{root}/A.degrees.tsv")
            write_edges_tsv(rho_surface(hist, NO_EDGES, degree_grid(hist, 2.0)),
                            f"{root}/A.edges.tsv")
            code = run("fit", "--degrees", f"{root}/A.degrees.tsv",
                       "--edges", f"{root}/A.edges.tsv", "--alpha", 2.0,
                       "--d1-lo", lo, "--d1-hi", hi,
                       "--out-prefix", f"{root}/F")
        assert code in (0, 2, 3)

    def test_fit_scale_overflow_is_3(self, tmp_path):
        # the tail of the @example above, with its complete edges table of
        # a graph without edges: the degree fit needs ln b above the
        # float range and is refused, and the edge fit diverges on zeros
        counts = {1000: 10**15, **dict.fromkeys(range(1001, 1100), 1)}
        degrees = sorted(counts)
        hist = DegreeHistogram(np.array(degrees, np.int64),
                               np.array([counts[d] for d in degrees], np.int64),
                               sum(counts.values()))
        write_degrees_tsv(hist, tmp_path / "A.degrees.tsv")
        write_edges_tsv(rho_surface(hist, NO_EDGES, degree_grid(hist, 1.01)),
                        tmp_path / "A.edges.tsv")
        assert run("fit", "--degrees", tmp_path / "A.degrees.tsv",
                   "--edges", tmp_path / "A.edges.tsv", "--d1-lo", 990,
                   "--d1-hi", 1010, "--out-prefix", tmp_path / "F") == 3
        report = json.loads((tmp_path / "F.fit.json").read_text())
        assert "is not a positive finite float" in report["degree"]["error"]
        assert report["edge"]["converged"] is False

    def test_one_grid_point_range_is_2(self, tmp_path):
        # [1, 3] holds only the grid point 1 of this table at alpha 2, and
        # a fit of two parameters needs two points
        hist = DegreeHistogram(np.array([1, 2, 4], np.int64),
                               np.array([5, 3, 1], np.int64), 9)
        write_degrees_tsv(hist, tmp_path / "A.degrees.tsv")
        write_edges_tsv(rho_surface(hist, NO_EDGES, degree_grid(hist, 2.0)),
                        tmp_path / "A.edges.tsv")
        rc, err = run_limited("fit", "--degrees", tmp_path / "A.degrees.tsv",
                              "--edges", tmp_path / "A.edges.tsv",
                              "--alpha", 2, "--d1-lo", 1, "--d1-hi", 3,
                              "--out-prefix", tmp_path / "F")
        assert rc == 2
        assert err == "pagl: need at least 2 grid points inside [1, 3], got 1\n"
        assert not list(tmp_path.glob("F.*"))

    def test_threads_default_is_cores(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 1,
                   "--n", 20, "--seed", 0, "--out", out) == 0
        manifest = json.loads((tmp_path / "g.tsv.manifest.json").read_text())
        assert manifest["threads"] == (os.cpu_count() or 1)

    def test_threads_flag_recorded(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 1,
                   "--n", 20, "--seed", 0, "--threads", 3, "--out", out) == 0
        manifest = json.loads((tmp_path / "g.tsv.manifest.json").read_text())
        assert manifest["threads"] == 3


def child_env():
    """The environment of a child Python that imports this pagl."""
    src = str(Path(pagl.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def run_limited(*argv, stdin=b""):
    """Run the CLI in a child process whose address space is capped at
    1 GiB, so an oversized allocation fails fast instead of paging.
    ``stdin`` is written to the child through a pipe."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "pagl.cli", *map(str, argv)],
                          env=child_env(), capture_output=True, input=stdin,
                          preexec_fn=cap, timeout=120)
    return proc.returncode, proc.stderr.decode()


class TestBootstrapWorkers:
    """``--threads`` sets the bootstrap's worker processes, never its bytes."""

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--target", "edges", "--iterations", 2],
        ["fit", "--bootstrap", 5],
    ], ids=["bootstrap-B2", "fit-B5"])
    def test_outputs_do_not_depend_on_threads(self, pipeline, tmp_path, argv):
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"T{threads}"
            assert run(*argv, *tables(pipeline), "--threads", threads,
                       "--out-prefix", out) == 0
            outputs.append({p.name.split(".", 1)[1]: p.read_bytes()
                            for p in tmp_path.glob(f"T{threads}.*")
                            if not p.name.endswith(".manifest.json")})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    def test_outputs_do_not_depend_on_blas_threads(self, pipeline, tmp_path):
        a = pipeline / "A"
        argv = ["fit", "--degrees", f"{a}.degrees.tsv",
                "--edges", f"{a}.edges.tsv", "--xcells", f"{a}.xcells.tsv",
                "--auto-range", "--bootstrap", 5, "--threads", 2]
        env = {key: value for key, value in child_env().items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        outputs = []
        for name, blas in (("one", {"OPENBLAS_NUM_THREADS": "1",
                                    "OMP_NUM_THREADS": "1"}), ("all", {})):
            out = tmp_path / name
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "pagl.cli", *map(str, argv),
                 "--out-prefix", out / "F"],
                env={**env, **blas}, capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / f"F.fit.{ext}").read_bytes()
                            for ext in ("json", "tsv")])
        assert outputs[0] == outputs[1]

    def test_worker_failure_is_4(self, pipeline, tmp_path, monkeypatch, capsys):
        caller, refit = os.getpid(), _PowerLaw.refit

        def worker_fails(law, y, start):
            if os.getpid() != caller:
                raise RuntimeError("worker fault")
            return refit(law, y, start)

        monkeypatch.setattr(_PowerLaw, "refit", worker_fails)
        assert run("bootstrap", "--target", "degrees", *tables(pipeline),
                   "--iterations", 4, "--threads", 2,
                   "--out-prefix", tmp_path / "W") == 4
        err = capsys.readouterr().err
        assert "pagl: worker failure: worker for iterations" in err
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestOversizedInputs:
    def test_gds_degree_cap(self, tmp_path):
        rc, err = run_limited("generate", "--model", "gds", "--gamma", 1.5,
                              "--n", 1_000_000, "--out", tmp_path / "g.bin")
        assert rc == 2 and "Traceback" not in err
        assert "degree cap" in err

    def test_declared_vertex_count(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("#n 100000000000\n0 1\n")
        rc, err = run_limited("analyze", "--graph", g,
                              "--out-prefix", tmp_path / "A")
        assert rc == 2 and "Traceback" not in err
        assert "vertex count" in err

    def test_vertex_id_beyond_64_bits(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("0 1\n99999999999999999999 1\n")
        rc, err = run_limited("analyze", "--graph", g,
                              "--out-prefix", tmp_path / "A")
        assert rc == 2 and "Traceback" not in err
        assert "line 2" in err and "32-bit id limit" in err

    # inside the 32-bit limits, but larger than the 1 GiB cap allows
    def test_declared_vertex_count_beyond_memory(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("#n 4000000000\n0 1\n")
        rc, err = run_limited("analyze", "--graph", g,
                              "--out-prefix", tmp_path / "A")
        assert rc == 2 and "Traceback" not in err
        assert "pagl: not enough memory: " in err

    def test_gds_support_beyond_memory(self, tmp_path):
        rc, err = run_limited("generate", "--model", "gds", "--gamma", 1.5,
                              "--n", 40_000, "--out", tmp_path / "g.bin")
        assert rc == 2 and "Traceback" not in err
        assert "pagl: not enough memory: " in err
        assert not list(tmp_path.iterdir())

    def test_hk_ids_beyond_memory(self, tmp_path):
        # the 2 x 119999922 ids are allocated before the first draw, so
        # the run fails at once: the kernel alone would take minutes
        start = time.perf_counter()
        rc, err = run_limited("generate", "--model", "hk", "--m", 12,
                              "--n", 10_000_000, "--out", tmp_path / "g.bin")
        assert time.perf_counter() - start < 30
        assert rc == 2 and "Traceback" not in err
        assert "pagl: not enough memory: " in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("edges", [2**40, 3])
    def test_binary_header_beyond_pipe(self, tmp_path, edges):
        # a pipe's length is unknown, so its ids are read as they arrive
        raw = binary_bytes(Graph(3, [(0, 1), (1, 2)]))
        raw[13:21] = edges.to_bytes(8, "little")
        rc, err = run_limited("analyze", "--graph", "/dev/stdin", "--format",
                              "binary", "--out-prefix", tmp_path / "A",
                              stdin=bytes(raw))
        assert rc == 2
        assert err == (f"pagl: truncated file: expected {21 + 16 * edges} "
                       f"bytes, got 53\n")
        assert not list(tmp_path.iterdir())

    def test_binary_graph_from_pipe(self, tmp_path):
        g = tmp_path / "g.bin"
        assert run("generate", "--model", "hk", "--m", 3, "--n", 3000,
                   "--seed", 1, "--out", g) == 0
        assert run("analyze", "--graph", g, "--out-prefix", tmp_path / "F") == 0
        rc, err = run_limited("analyze", "--graph", "/dev/stdin", "--format",
                              "binary", "--out-prefix", tmp_path / "P",
                              stdin=g.read_bytes())
        assert rc == 0, err
        for table in ("degrees", "edges", "dnn", "xcells"):
            assert (tmp_path / f"P.{table}.tsv").read_bytes() \
                == (tmp_path / f"F.{table}.tsv").read_bytes()

    def test_hk_edge_slots(self, tmp_path):
        rc, err = run_limited("generate", "--model", "hk", "--m", 12,
                              "--n", 100_000_000, "--out", tmp_path / "g.bin")
        assert rc == 2 and "Traceback" not in err
        assert "slot limit" in err


def tables(root):
    a = root / "A"
    return ["--degrees", f"{a}.degrees.tsv", "--edges", f"{a}.edges.tsv",
            "--xcells", f"{a}.xcells.tsv", "--d1-lo", 3, "--d1-hi", 100]


MULTIPLICITY = ["theory", "multiplicity", "--a", 0.5, "--m", 2]
RHO_SHAPE = ["theory", "rho-shape", "--a2", 0.5]
# each count flag, its upper limit, and a command line it is added to
COUNT_FLAGS = [
    ("--iterations", MAX_SEEDS,
     lambda r: ["bootstrap", "--target", "degrees", *tables(r)]),
    ("--bootstrap", MAX_SEEDS, lambda r: ["fit", *tables(r)]),
    ("--samples", MAX_SEEDS, lambda r: [*MULTIPLICITY, "--n-list", "200,400"]),
    ("--d2-min", MAX_SHAPE_D1, lambda r: RHO_SHAPE),
    ("--d2-max", MAX_SHAPE_D1, lambda r: RHO_SHAPE),
    ("--grid-size", math.isqrt(MAX_SHAPE_PAIRS), lambda r: RHO_SHAPE),
    ("--threads", MAX_THREADS, lambda r: ["analyze", "--graph", r / "g.tsv"]),
]


class TestCountsBelowOne:
    """A bad numeric flag exits 2 naming it."""

    @pytest.mark.parametrize("argv, flag", [
        (lambda r: ["bootstrap", "--target", "degrees", *tables(r),
                    "--iterations", -3], "--iterations"),
        (lambda r: ["bootstrap", "--target", "edges", *tables(r),
                    "--iterations", 0], "--iterations"),
        (lambda r: ["fit", *tables(r), "--bootstrap", -3], "--bootstrap"),
        (lambda r: ["fit", *tables(r), "--bootstrap", 0], "--bootstrap"),
        (lambda r: [*MULTIPLICITY, "--n-list", "200,400", "--samples", -2],
         "--samples"),
        (lambda r: [*MULTIPLICITY, "--n-list", "200,400", "--samples", 0],
         "--samples"),
        (lambda r: [*MULTIPLICITY, "--n-list", "30"], "--n-list"),
        (lambda r: ["analyze", "--graph", r / "g.tsv", "--threads", 0],
         "--threads"),
        *[(lambda r, w=w: ["fit", *tables(r), "--auto-range", "--window", w],
           "--window") for w in ("inf", "1e300", "nan", "0.5")],
        (lambda r: ["bootstrap", "--target", "degrees", *tables(r),
                    "--auto-range", "--window", "inf"], "--window"),
        *[(lambda r, c=c: ["bootstrap", "--target", "edges", *tables(r),
                           "--ratio-cutoff", c], "--ratio-cutoff")
          for c in ("0.5", "nan")],
        (lambda r: ["fit", *tables(r), "--alpha", "inf"], "--alpha"),
        (lambda r: ["analyze", "--graph", r / "g.tsv", "--alpha", "inf"],
         "--alpha"),
        *[(lambda r, v=v: ["theory", "rho-shape", "--a2", v], "--a2")
          for v in ("inf", "nan", "0")],
        # the tail sums under- or overflow: the message names a2
        (lambda r: ["theory", "rho-shape", "--a2", 50], "a2=50.0"),
        (lambda r: ["theory", "rho-shape", "--a2", "1e308"], "a2=1e+308"),
        *[(lambda r, f=f, v=v: [*RHO_SHAPE, f, v], f)
          for f, v in (("--ratio-min", "nan"), ("--ratio-min", "inf"),
                       ("--ratio-max", "inf"), ("--ratio-min", "0.5"),
                       ("--grid-size", "0"), ("--grid-size", "100000"),
                       ("--d2-min", "0"), ("--d2-min", "-5"),
                       ("--d2-max", "0"))],
        *[(lambda r, f=f, base=base, v=v: [*base(r), f, v], f)
          for f, top, base in COUNT_FLAGS for v in (top + 1, 2**63, 10**20)],
        *[(lambda r, base=base: [*base(r), "--seed", -1], "--seed")
          for _, _, base in COUNT_FLAGS[:3]],
        # d1 = ratio * d2 is far past the limit on the pairs it may take
        (lambda r: [*RHO_SHAPE, "--ratio-min", "1e9", "--ratio-max", "1e9",
                    "--d2-min", 1000, "--d2-max", 1000, "--grid-size", 1],
         "pair 1000000000000:1000"),
        # each d1 is within its limit, but the 100 pairs near d1 = 10**6
        # sum about 10**8 terms
        (lambda r: [*RHO_SHAPE, "--ratio-min", 990, "--ratio-max", 1000,
                    "--d2-min", 990, "--d2-max", 1000, "--grid-size", 10],
         f"above the limit of {MAX_SHAPE_TERMS}"),
    ], ids=["iterations-neg", "iterations-0", "bootstrap-neg", "bootstrap-0",
            "samples-neg", "samples-0", "one-size", "threads-0",
            "window-inf", "window-1e300", "window-nan", "window-0.5",
            "bootstrap-window-inf", "ratio-cutoff-0.5", "ratio-cutoff-nan",
            "fit-alpha-inf", "analyze-alpha-inf", "a2-inf", "a2-nan", "a2-0",
            "a2-50", "a2-1e308",
            "ratio-min-nan", "ratio-min-inf", "ratio-max-inf",
            "ratio-min-0.5", "grid-size-0", "grid-size-100000", "d2-min-0",
            "d2-min-neg", "d2-max-0",
            *[f"{f[2:]}-{v}" for f, *_ in COUNT_FLAGS
              for v in ("limit+1", "2**63", "1e20")],
            "seed-neg-bootstrap", "seed-neg-fit", "seed-neg-multiplicity",
            "rho-shape-d1-limit", "rho-shape-terms-limit"])
    def test_exit_2(self, pipeline, tmp_path, argv, flag):
        rc, err = run_limited(*argv(pipeline),
                              "--out-prefix", tmp_path / "Z")
        assert rc == 2 and "Traceback" not in err
        assert flag in err
        assert not list(tmp_path.iterdir())


class TestImportCost:
    """pagl loads no scipy.  It runs its workers as forked processes, so no
    thread pool is loaded."""

    def test_import(self):
        code = ("import sys, pagl, pagl.cli; "
                "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "False False"

    def test_version(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pagl.cli", "--version"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "numpy" in imported and "pagl.graphs" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]


def loaded_modules(*argv, cwd):
    """Exit code and the modules loaded by ``pagl *argv`` in a child
    process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pagl.cli", *map(str, argv)],
        env=child_env(), cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, {line.rsplit("|", 1)[-1].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


class TestModuleSets:
    """Each subcommand loads the modules it runs and none of the others,
    and no subcommand loads scipy."""

    @pytest.mark.parametrize("argv, runs, skips", [
        (["--version"], "graphs",
         "fitting bootstrap stats tables theory baselines buckley_osthus"),
        (["analyze", "--graph", "p.tsv", "--out-prefix", "A"], "tables",
         "fitting bootstrap theory baselines buckley_osthus"),
        ([*MULTIPLICITY, "--n-list", "30,60", "--samples", 2, "--threads", 1,
          "--out-prefix", "T"], "theory",
         "fitting bootstrap stats tables baselines"),
        (["generate", "--model", "bo", "--a", 0.5, "--m", 2, "--n", 50,
          "--out", "g.tsv"], "buckley_osthus",
         "stats tables fitting bootstrap theory"),
        (["generate", "--model", "gds", "--gamma", 2.5, "--n", 50,
          "--out", "g.bin"], "baselines",
         "buckley_osthus _workers stats tables fitting bootstrap theory"),
        (["theory", "expected", "--a", 0.5, "--m", 2, "--n", 100, "--d", 3,
          "--pairs", "5:2", "--out-prefix", "T"], "theory",
         "buckley_osthus _workers stats tables fitting bootstrap baselines"),
        ([*RHO_SHAPE, "--grid-size", 2, "--out-prefix", "T"], "theory",
         "buckley_osthus _workers stats tables fitting bootstrap baselines"),
        (["fit", "--degrees", "{A}.degrees.tsv", "--edges", "{A}.edges.tsv",
          "--auto-range", "--out-prefix", "F"], "stats tables fitting",
         "theory baselines buckley_osthus"),
    ], ids=["version", "analyze", "theory-multiplicity", "generate-bo",
            "generate-gds", "theory-expected", "theory-rho-shape",
            "fit-auto-range"])
    def test_loads_only_its_modules(self, pipeline, tmp_path, argv, runs,
                                    skips):
        (tmp_path / "p.tsv").write_text("#n 5\n0 1\n1 2\n2 3\n3 4\n")
        argv = [str(arg).format(A=pipeline / "A") for arg in argv]
        rc, modules = loaded_modules(*argv, cwd=tmp_path)
        assert rc == 0
        assert {"numpy", "pagl.graphs",
                *(f"pagl.{name}" for name in runs.split())} <= modules
        assert not {f"pagl.{name}" for name in skips.split()} & modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"]


# `pagl *argv` in a child Python where `import scipy` raises ImportError
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked in this process")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported past the block")
from pagl.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestWithoutScipy:
    """numpy is pagl's only runtime dependency: every subcommand runs where
    scipy cannot be imported, and writes the same data bytes."""

    STEPS = [
        ["generate", "--model", "bo", "--a", 0.5, "--m", 3, "--n", 3000,
         "--seed", 1, "--out", "g.tsv"],
        ["analyze", "--graph", "g.tsv", "--out-prefix", "A"],
        ["fit", "--degrees", "A.degrees.tsv", "--edges", "A.edges.tsv",
         "--xcells", "A.xcells.tsv", "--auto-range", "--bootstrap", 3,
         "--threads", 1, "--out-prefix", "F"],
        ["bootstrap", "--target", "edges", "--degrees", "A.degrees.tsv",
         "--edges", "A.edges.tsv", "--xcells", "A.xcells.tsv",
         "--auto-range", "--iterations", 3, "--threads", 1,
         "--out-prefix", "B"],
        ["theory", "expected", "--a", 0.5, "--m", 2, "--n", 100, "--d", 3,
         "--pairs", "5:2", "--out-prefix", "T"],
        [*RHO_SHAPE, "--grid-size", 2, "--out-prefix", "R"],
        [*MULTIPLICITY, "--n-list", "30,60", "--samples", 2, "--threads", 1,
         "--out-prefix", "M"],
    ]

    def test_every_subcommand(self, tmp_path):
        data = []
        for name, python in (("plain", ["-m", "pagl.cli"]),
                             ("no-scipy", ["-c", NO_SCIPY])):
            root = tmp_path / name
            root.mkdir()
            for argv in self.STEPS:
                proc = subprocess.run(
                    [sys.executable, *python, *map(str, argv)],
                    env=child_env(), cwd=root, capture_output=True, text=True,
                    timeout=120)
                assert (proc.returncode, proc.stderr) == (0, ""), argv
            data.append({p.name: p.read_bytes() for p in root.iterdir()
                         if not p.name.endswith(".manifest.json")})
        assert {n.split(".")[0] for n in data[0]} == set("gAFBTRM")
        assert data[0] == data[1]


class TestPackageRoot:
    """``import pagl`` loads no submodule; every public name loads its own
    on first use."""

    def test_names_are_their_submodules_objects(self):
        for module, names in pagl._EXPORTS.items():
            home = importlib.import_module(f"pagl.{module}")
            for name in names:
                assert name in home.__all__
                assert getattr(pagl, name) is getattr(home, name)
        assert pagl.__all__ == [n for ns in pagl._EXPORTS.values() for n in ns]
        assert pagl.DivergenceError is pagl.fitting.DivergenceError

    def test_every_public_definition_is_listed(self):
        # read from the source, so a public function or class that
        # _EXPORTS forgets fails here
        src = Path(pagl.__file__).parent
        for module, names in pagl._EXPORTS.items():
            tree = ast.parse((src / f"{module}.py").read_text())
            defined = {node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")}
            assert defined - set(names) == set(), module

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pagl.no_such_name
        with pytest.raises(AttributeError, match="no_such_name"):
            pagl.cli.no_such_name
        with pytest.raises(ImportError):
            from pagl import no_such_name  # noqa: F401

    def test_star_and_benchmark_imports_in_a_fresh_process(self):
        # the `from pagl... import` lines of the benchmark's traced run
        traced = Path(__file__).resolve().parents[1] / "perfbench/traced.py"
        tree = ast.parse(traced.read_text())
        lines = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module in ("pagl", "pagl.cli")]
        assert len(lines) >= 5
        code = "\n".join([
            "import sys",
            "import pagl",
            "assert [m for m in sys.modules if m.startswith('pagl.')] == []",
            "assert pagl.stats.log_grid is pagl.log_grid",
            "from pagl import *",
            "assert all(name in globals() for name in pagl.__all__)",
            *lines])
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_divergence_exits_3_in_a_fresh_process(self, tmp_path):
        (tmp_path / "p.tsv").write_text("#n 5\n0 1\n1 2\n2 3\n3 4\n")
        assert run("analyze", "--graph", tmp_path / "p.tsv",
                   "--out-prefix", tmp_path / "P") == 0
        rc, modules = loaded_modules(
            "fit", "--degrees", "P.degrees.tsv", "--edges", "P.edges.tsv",
            "--auto-range", "--out-prefix", "Q", cwd=tmp_path)
        assert rc == 3 and "pagl.fitting" in modules
