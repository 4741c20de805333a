"""Memory bounds of graph generation, graph files, and the analyze and
fit layers.

Each bound is the tracemalloc peak of one call as a multiple of the size
of its file, of the arrays it returns (for the rho surface, its three
packed columns; for simplify, one 8-byte key per kept edge), or (for the
edge fit and bootstrap) of one float64 per domain pair, with about 25% headroom
over the peak measured when the bound was set (BO a = 0.5, m = 5,
n = 60000, seed 0, numpy 2.4, unless a test names its own input); the
edges writer may hold the bytes it wrote and the surface's packed
columns once more.
Reading a file or a table whole, or building the whole of a table's text
at once, takes several times more and fails the bound.

The other bounds are on whole processes: the peak resident memory of a
``pagl`` stage over that of ``pagl --version``, each read by the child
itself (:func:`process_peak`).
"""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pagl
from pagl.baselines import HKParams, generate_holme_kim
from pagl.bootstrap import bootstrap_edges
from pagl.buckley_osthus import BOParams, generate_bo
from pagl.fitting import degree_range, fit_edges, pair_domain
from pagl.graphs import load_binary, load_edge_list, save_binary, \
    save_edge_list, simplify
from pagl.stats import edge_degree_matrix, graph_tables, rho_surface
from pagl.tables import surface_from_tables, write_edges_tsv


def peak(call, *args):
    """``call(*args)``'s result and the most memory it held at once."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bo(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    save_edge_list(generate_bo(BOParams(a=0.5, m=5, n=60_000, seed=0)),
                   root / "g.tsv")
    s = simplify(load_edge_list(root / "g.tsv"))
    t = graph_tables(s, 1.01)
    write_edges_tsv(t.surface, root / "A.edges.tsv")
    return root, s, t


def test_load_edge_list(bo):
    root = bo[0]
    path = root / "g.tsv"
    # the file's bytes and 16 bytes of ids per line: 3.3 x the file
    _, used = peak(load_edge_list, path)
    assert used < 4.2 * path.stat().st_size


def test_save_edge_list(bo):
    root = bo[0]
    g = load_edge_list(root / "g.tsv")
    path = root / "h.tsv"
    # one block of lines at a time: 0.07 x the file; joining the blocks
    # into the whole text before writing takes 2.00
    _, used = peak(save_edge_list, g, path)
    assert used < 0.5 * path.stat().st_size
    assert path.read_bytes() == (root / "g.tsv").read_bytes()


def test_load_binary(bo):
    root = bo[0]
    path = root / "l.bin"
    save_binary(load_edge_list(root / "g.tsv"), path)
    # the ids read into the graph's array, grown in place: 1.00 x the
    # file; reading the file's bytes and then casting them to int64 takes
    # 2.00
    g, used = peak(load_binary, path)
    assert used < 1.25 * path.stat().st_size
    assert g == load_edge_list(root / "g.tsv")


def test_load_binary_stream(bo):
    root = bo[0]
    g = load_edge_list(root / "g.tsv")
    buf = io.BytesIO()
    save_binary(g, buf)
    raw = buf.getvalue()
    del buf
    # from a stream of unknown length the id array grows as the ids
    # arrive, resized in place: 1.00 x the file; a new array per doubling
    # takes 1.87
    back, used = peak(load_binary, io.BytesIO(raw))
    assert used < 1.25 * len(raw)
    assert back == g


def test_save_binary(bo):
    root = bo[0]
    g = load_edge_list(root / "g.tsv")
    path = root / "g.bin"
    # the header, then the graph's own ids: 0.002 x the file; building
    # the file's bytes in one buffer first takes 1.00
    _, used = peak(save_binary, g, path)
    assert used < 0.05 * path.stat().st_size


def test_generate_holme_kim():
    # the edges, written once into their final array, each vertex's
    # neighbours after its first m as an array('i') object, and a block
    # of uniforms: 1.99 x the edges (16 bytes each); every neighbour list
    # in full, an int32 endpoint list and the int64 copy of it took 1.85
    # under tracemalloc but more resident memory (13.8 MiB against 10.8
    # over pagl --version), as freed lists stayed resident
    g, used = peak(generate_holme_kim, HKParams(n=16000, m=12, p_t=0.5, seed=0))
    assert used < 2.3 * g.edges.nbytes


def test_simplify(bo):
    root = bo[0]
    g = load_edge_list(root / "g.tsv")
    # the packed non-loop keys, their copy without loops and the distinct
    # pairs kept: 2.40 x 8 bytes per kept edge; keying both orientations
    # of every pair and sorting them again takes 4.20
    s, used = peak(simplify, g)
    assert used < 3.0 * 8 * s.num_edges
    assert s == bo[1]


def test_edge_degree_matrix(bo):
    s = bo[1]
    # one 8-byte key per edge and block-sized temporaries: 1.64 x the keys
    _, used = peak(edge_degree_matrix, s)
    assert used < 2.2 * 8 * s.num_edges


def packed(surface) -> int:
    """The bytes of the surface's three packed columns."""
    return surface.X.nbytes + surface.Xcum.nbytes + surface.rho.nbytes


def test_rho_surface(bo):
    t = bo[2]
    # the packed columns, the packed pairs' grid indices and their tail
    # products, or the square block of tails: 2.78 x the columns
    surface, used = peak(rho_surface, t.hist, t.matrix, t.grid)
    assert used < 3.5 * packed(surface)
    assert surface.rho.tobytes() == t.surface.rho.tobytes()


def test_write_edges_tsv(bo):
    surface = bo[2].surface
    buf = io.BytesIO()
    # the bytes written and one block of rows, which takes 0.21 x the
    # packed columns; gathering a whole column of pairs takes more
    _, used = peak(write_edges_tsv, surface, buf)
    assert used < len(buf.getvalue()) + packed(surface)


def test_surface_from_tables(bo):
    root, _, t = bo
    # the three packed columns kept and one block of rows: 1.32 x the
    # columns; a K x K array of each takes twice the columns more
    back, used = peak(surface_from_tables, t.hist, root / "A.edges.tsv",
                      t.grid)
    assert used < 1.7 * packed(back)
    assert back.rho.tobytes() == t.surface.rho.tobytes()


def domain_of(t):
    """The pair domain bo-text's fit selects: 54,922 pairs."""
    return pair_domain(degree_range(t.grid, 9, 10_000), 10.0)


def test_fit_edges(bo):
    t = bo[2]
    domain = domain_of(t)
    # rho at the pairs, the covariates and np.polyfit's start: 11.1
    # float64 per pair; keeping the degrees as floats for the scale model
    # and the pair positions while the fit runs takes 15.3
    fit, used = peak(fit_edges, t.surface, domain)
    assert fit.converged
    assert used < 14 * 8 * len(domain)


def test_bootstrap_edges(bo):
    t = bo[2]
    domain = domain_of(t)
    # the tail block, the categories and the Gauss-Newton buffers over
    # the domain, with the tails summed in place and the pair indices
    # dropped before the original fit: 13.8 float64 per pair; keeping
    # them, and the degrees as floats in each edge law, takes 21.3
    rep, used = peak(bootstrap_edges, t.hist, t.matrix, domain, t.grid,
                     8, 0, 1)
    assert rep.diverged == 0
    assert used < 17.5 * 8 * len(domain)


# runs the CLI on the arguments that follow ``-c``, then prints the
# process's own peak resident set at exit
_PEAK_WRAPPER = """\
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM:")))

atexit.register(peak)
runpy.run_module("pagl.cli", run_name="__main__", alter_sys=True)
"""


def process_peak(cwd, *argv) -> int:
    """The peak resident memory, in KiB, of ``pagl *argv`` run in a child.

    The child reads ``VmHWM`` of its own address space, which starts
    fresh at exec; ``ru_maxrss`` of a child can report a large parent's
    peak instead, such as this test process's.
    """
    src = str(Path(pagl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_WRAPPER, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=src), cwd=cwd, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = [x for x in proc.stdout.splitlines() if x.startswith("VmHWM:")][-1]
    kib, unit = line.split()[1:]
    assert unit == "kB"
    return int(kib)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_generate_hk_process_peak(tmp_path):
    # over the interpreter with numpy and pagl loaded: 10.8 MiB (Linux,
    # numpy 2.4); every neighbour list in full, an int32 endpoint list
    # copied to int64 ids, and the file built in one buffer took 13.8
    base = process_peak(tmp_path, "--version")
    used = process_peak(tmp_path, "generate", "--model", "hk", "--m", 12,
                        "--pt", 0.5, "--n", 16000, "--out", "g.bin")
    assert used - base < 12.5 * 1024


# a BO graph at n = 60000 through the stages of a text pipeline, with
# each stage's budget in MiB over ``pagl --version``
BO_STAGES = {
    "generate": (("generate", "--model", "bo", "--a", 0.5, "--m", 5,
                  "--n", 60_000, "--out", "g.tsv"), 18.5),
    "analyze": (("analyze", "--graph", "g.tsv", "--out-prefix", "A"), 18),
    "fit": (("fit", "--degrees", "A.degrees.tsv", "--edges", "A.edges.tsv",
             "--xcells", "A.xcells.tsv", "--auto-range", "--bootstrap", 50,
             "--threads", 1, "--out-prefix", "F"), 19.5),
}


@pytest.fixture(scope="module")
def bo_stage_peaks(tmp_path_factory):
    """KiB over ``pagl --version`` of each stage of :data:`BO_STAGES`,
    run in order in one directory."""
    root = tmp_path_factory.mktemp("stages")
    base = process_peak(root, "--version")
    return {name: process_peak(root, *argv) - base
            for name, (argv, _) in BO_STAGES.items()}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
@pytest.mark.parametrize("stage", list(BO_STAGES))
def test_bo_stage_process_peak(bo_stage_peaks, stage):
    # over the interpreter with numpy and pagl loaded (Linux, numpy 2.4):
    # generate 16.0, analyze 14.6, fit 17.3 MiB.  Building each output
    # whole before writing it, keeping the uniforms of the chain kernel
    # through its pointer jumping, the simple graph through the rho
    # surface, and the degrees as floats in each edge law took 20.8,
    # 22.1 and 21.6
    assert bo_stage_peaks[stage] < BO_STAGES[stage][1] * 1024
