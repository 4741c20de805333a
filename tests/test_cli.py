import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pagl
from pagl.cli import main
from pagl.fitting import _PowerLaw
from pagl.graphs import load_binary, load_edge_list


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

    def test_edges_target_needs_xcells(self, pipeline, tmp_path):
        assert run("bootstrap", "--target", "edges",
                   "--degrees", pipeline / "A.degrees.tsv",
                   "--d1-lo", 3, "--d1-hi", 100,
                   "--iterations", 5, "--out-prefix", tmp_path / "B") == 2


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


def run_limited(*argv):
    """Run the CLI in a child process whose address space is capped at
    1 GiB, so an oversized allocation fails fast instead of paging."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "pagl.cli", *map(str, argv)],
                          env=child_env(), capture_output=True, text=True,
                          preexec_fn=cap, timeout=120)
    return proc.returncode, proc.stderr


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
        assert "pagl: worker failure: bootstrap worker" in err
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
        *[(lambda r, f=f, v=v: [*RHO_SHAPE, f, v], f)
          for f, v in (("--ratio-min", "nan"), ("--ratio-min", "inf"),
                       ("--ratio-max", "inf"), ("--ratio-min", "0.5"),
                       ("--grid-size", "0"))],
    ], ids=["iterations-neg", "iterations-0", "bootstrap-neg", "bootstrap-0",
            "samples-neg", "samples-0", "one-size", "threads-0",
            "window-inf", "window-1e300", "window-nan", "window-0.5",
            "bootstrap-window-inf", "ratio-cutoff-0.5", "ratio-cutoff-nan",
            "fit-alpha-inf", "analyze-alpha-inf", "a2-inf", "a2-nan", "a2-0",
            "ratio-min-nan", "ratio-min-inf", "ratio-max-inf",
            "ratio-min-0.5", "grid-size-0"])
    def test_exit_2(self, pipeline, tmp_path, argv, flag):
        rc, err = run_limited(*argv(pipeline),
                              "--out-prefix", tmp_path / "Z")
        assert rc == 2 and "Traceback" not in err
        assert flag in err
        assert not list(tmp_path.iterdir())


class TestImportCost:
    """scipy serves `theory rho-shape` alone; no other use of pagl loads it."""

    def test_import(self):
        code = "import sys, pagl, pagl.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

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
