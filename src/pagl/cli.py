"""Command-line pipelines over the library: generate, analyze, fit,
bootstrap, and theory oracles.

At its top this module loads only numpy and :mod:`pagl.graphs`; each
subcommand imports the modules it runs, so a process loads only what its
subcommand needs.

Every command runs all its checks, then writes each data output into its
file a block at a time, plus a ``*.manifest.json`` recording the command
line, seeds, parameters, inputs/outputs, tool version, wall-clock time
(from the parsed command line to the written outputs, so loading the
subcommand's modules counts) and peak memory (``peak_rss_mib``).  Data
outputs are byte-deterministic for fixed seeds and inputs; the manifest
is the only artifact carrying timing.  The ``--verify`` flag re-derives
every data output and compares it with the file as it goes.

Exit codes: 0 success, 2 validation or format error, or a size this
machine cannot hold, 3 fit divergence (all fits requested by the command
diverged), 4 I/O failure or a failed worker process.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from ._format import _lines, _slices
from ._limits import _MAX_WINDOW, _MIN_WINDOW, MAX_SHAPE_PAIRS, \
    DivergenceError
from .graphs import load_binary, load_edge_list, save_binary, \
    save_edge_list, simplify


def __getattr__(name):
    """A public name of pagl, looked up in the package, so that imports
    such as ``from pagl.cli import load_degrees_tsv`` work while this
    module loads only what its subcommands run."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# small helpers

def _graph_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "binary" if path.endswith((".bin", ".pagl")) else "text"


# a payload writes one output into the open byte stream it is given
def _table(header: str, *columns):
    """A TSV table, written a block of rows at a time."""
    return lambda stream: stream.writelines(_lines(header, _slices(columns)))


def _json(obj):
    data = (json.dumps(obj, indent=2) + "\n").encode()
    return lambda stream: stream.write(data)


def _peak_rss_mib() -> dict:
    """In MiB: this process's ``VmHWM``, its workers' largest ``ru_maxrss``."""
    status = "/proc/self/status"
    with open(status if os.path.exists(status) else os.devnull) as lines:
        own = next((int(line.split()[1]) / 1024 for line in lines
                    if line.startswith("VmHWM:")), None)
    reaped = getattr(sys.modules.get(f"{__package__}._workers"), "reaped", [])
    top = max((usage.ru_maxrss for *_, usage in reaped), default=0)
    return {"process_vmhwm": own, "workers_ru_maxrss": top / 1024 or None}


def _manifest(args, argv, seeds, params, inputs, outputs, t0) -> dict:
    return {
        "command": ["pagl"] + list(argv),
        "version": __version__,
        "seeds": seeds,
        "parameters": params,
        "inputs": sorted(str(p) for p in inputs),
        "outputs": sorted(str(p) for p in outputs),
        "threads": getattr(args, "threads", None),
        "wall_clock_s": round(time.perf_counter() - t0, 6),
        "peak_rss_mib": _peak_rss_mib(),
    }


# ---------------------------------------------------------------------------
# generate

def _build_generate(args):
    fmt = _graph_format(args.out, args.format)
    save = save_binary if fmt == "binary" else save_edge_list
    payloads = {}
    if args.model == "bo":
        from .buckley_osthus import BOParams, generate_bo

        if args.a is None or args.m is None or args.n is None:
            raise ValueError("generate --model bo needs --a, --m and --n")
        params = BOParams(a=args.a, m=args.m, n=args.n, seed=args.seed)
        payloads[args.out] = partial(save, generate_bo(params))
        shown = {"a": args.a, "m": args.m, "n": args.n}
    elif args.model == "gds":
        from .baselines import GDSParams, generate_configuration, \
            sample_power_law_degrees

        if args.gamma is None or args.n is None:
            raise ValueError("generate --model gds needs --gamma and --n")
        params = GDSParams(n=args.n, gamma=args.gamma,
                           target_edges=args.target_edges, seed=args.seed)
        degrees = sample_power_law_degrees(params)
        g = generate_configuration(degrees, seed=params.seed + 1)
        payloads[args.out] = partial(save, g)
        payloads[args.out + ".degrees.tsv"] = _table(
            "vertex\tdegree", np.arange(degrees.size), degrees)
        shown = {"gamma": args.gamma, "n": args.n,
                 "target_edges": args.target_edges}
    else:
        from .baselines import HKParams, generate_holme_kim

        if args.m is None or args.n is None:
            raise ValueError("generate --model hk needs --m and --n")
        params = HKParams(n=args.n, m=args.m, p_t=args.pt, seed=args.seed)
        payloads[args.out] = partial(save, generate_holme_kim(params))
        shown = {"m": args.m, "n": args.n, "p_t": args.pt}
    shown["model"] = args.model
    shown["format"] = fmt
    return payloads, {"seed": args.seed}, shown, [], None


# ---------------------------------------------------------------------------
# analyze

def _build_analyze(args):
    from .stats import graph_tables
    from .tables import write_degrees_tsv, write_dnn_tsv, write_edges_tsv, \
        write_xcells_tsv

    fmt = _graph_format(args.graph, args.format)
    load = load_binary if fmt == "binary" else load_edge_list
    t = graph_tables(simplify(load(args.graph)), args.alpha)
    p = args.out_prefix
    payloads = {
        p + ".degrees.tsv": partial(write_degrees_tsv, t.hist),
        p + ".edges.tsv": partial(write_edges_tsv, t.surface),
        p + ".dnn.tsv": partial(write_dnn_tsv, t.profile),
        p + ".xcells.tsv": partial(write_xcells_tsv, t.matrix),
    }
    shown = {"alpha": args.alpha, "format": fmt}
    return payloads, {}, shown, [args.graph], None


# ---------------------------------------------------------------------------
# fit and bootstrap

def _fit_entry(fit) -> dict:
    if fit.error is not None:
        return {"converged": False, "error": fit.error}
    return {
        "a": float(fit.a), "b": float(fit.b),
        "sigma2": float(fit.sigma2), "objective": float(fit.objective),
        "iterations": int(fit.iterations), "converged": bool(fit.converged),
        "domain_size": int(fit.domain_size),
    }


def _fit_tsv(degree_fit, edge_fit):
    """One row per parameter; a fit that raised has NaNs and 0 iterations."""
    rows = [(name, value, fit.sigma2, fit.iterations,
             "true" if fit.converged else "false")
            for names, fit in ((("a1", "b1"), degree_fit),
                               (("a2", "b2"), edge_fit))
            for name, value in zip(names, (fit.a, fit.b))]
    return _table("parameter\testimate\tsigma2\titerations\tconverged",
                  *zip(*rows))


def _window(args):
    """The degrees table, its ``--alpha`` grid, and the window's
    :class:`RangeSelection`, whose fits are None without ``--edges``.

    ``--edges`` is read whenever it is given.  ``--auto-range`` chooses
    the window by :func:`select_range`; else ``--d1-lo`` and ``--d1-hi``
    give it, fitted by :func:`fit_range`."""
    from .fitting import RangeSelection, degree_range, fit_range, \
        pair_domain, select_range
    from .stats import cumulative_degree, degree_grid
    from .tables import load_degrees_tsv, surface_from_tables

    if args.auto_range and (args.d1_lo, args.d1_hi) != (None, None):
        raise ValueError("--auto-range chooses the window; it conflicts "
                         "with --d1-lo and --d1-hi")
    hist = load_degrees_tsv(args.degrees)
    if hist.degrees.size == 0:
        raise ValueError(f"{args.degrees}: no positive-degree vertices")
    grid = degree_grid(hist, args.alpha)
    tails = cumulative_degree(hist)
    surface = (None if args.edges is None
               else surface_from_tables(hist, args.edges, grid))
    if args.auto_range:
        if surface is None:
            raise ValueError("--auto-range needs --edges")
        return hist, grid, select_range(tails, surface, args.window, grid,
                                        ratio_cutoff=args.ratio_cutoff)
    if args.d1_lo is None or args.d1_hi is None:
        raise ValueError("pass --d1-lo and --d1-hi, or --auto-range")
    rng = degree_range(grid, args.d1_lo, args.d1_hi)
    if surface is None:
        dom = pair_domain(rng, args.ratio_cutoff)
        return hist, grid, RangeSelection(rng, dom, None, math.nan, None, None)
    return hist, grid, fit_range(tails, surface, rng, args.ratio_cutoff)


def _bootstrap(args, target, hist, grid, sel, B, inputs):
    """Bootstrap one target over the window of :func:`_window`; returns
    the report and its JSON entry.

    Whenever ``--edges`` gave an edge fit, the edge bootstrap's original
    fit to ``--xcells`` must equal it bit for bit, as it does when both
    tables come from one analyze run.
    """
    from .bootstrap import bootstrap_edges, bootstrap_vertices
    from .tables import load_xcells_tsv

    if target == "degrees":
        rep = bootstrap_vertices(hist, sel.range, B=B, seed=args.seed,
                                 threads=args.threads)
    else:
        if not args.xcells:
            raise ValueError("the edge bootstrap needs --xcells")
        inputs.append(args.xcells)
        rep = bootstrap_edges(hist, load_xcells_tsv(args.xcells), sel.domain,
                              grid, B=B, seed=args.seed, threads=args.threads)
        fit, edge = rep.original, sel.edge_fit
        if edge is not None and (edge.a, edge.b) != (fit.a, fit.b):
            got = (f"the error {edge.error!r}" if edge.error is not None
                   else f"a2={edge.a!r}")
            raise ValueError(
                f"--edges {args.edges} and --xcells {args.xcells} do not come "
                f"from one analyze run: the edge fit gives {got} on --edges "
                f"but a2={float(fit.a)!r} on --xcells")
    return rep, {"sigma_s2": float(rep.sigma_s2),
                 "iterations": rep.iterations, "diverged": rep.diverged}


def _build_fit(args):
    hist, grid, sel = _window(args)
    auto = args.auto_range
    report = {
        "degree": _fit_entry(sel.degree_fit),
        "edge": _fit_entry(sel.edge_fit),
        "range": {"lo": sel.range.lo, "hi": sel.range.hi, "auto": auto,
                  "window": args.window if auto else None,
                  "grid_points": len(sel.range.grid_points),
                  "pair_count": len(sel.domain)},
        "alpha": args.alpha,
        "ratio_cutoff": args.ratio_cutoff,
    }

    inputs = [args.degrees, args.edges]
    if args.bootstrap is not None:
        boot = {}
        for target, kind in (("degrees", "degree"), ("edges", "edge")):
            if report[kind]["converged"]:
                boot[target] = _bootstrap(args, target, hist, grid, sel,
                                          args.bootstrap, inputs)[1]
            else:
                boot[target] = {
                    "error": f"original {kind} fit did not converge"}
        report["bootstrap"] = boot

    p = args.out_prefix
    payloads = {
        p + ".fit.json": _json(report),
        p + ".fit.tsv": _fit_tsv(sel.degree_fit, sel.edge_fit),
    }
    all_diverged = not (sel.degree_fit.converged or sel.edge_fit.converged)
    error = "all requested fits diverged" if all_diverged else None
    shown = {"alpha": args.alpha, "ratio_cutoff": args.ratio_cutoff,
             "auto_range": auto, "window": args.window,
             "d1_lo": args.d1_lo, "d1_hi": args.d1_hi,
             "bootstrap": args.bootstrap}
    return payloads, {"seed": args.seed}, shown, inputs, error


def _build_bootstrap(args):
    hist, grid, sel = _window(args)
    inputs = [path for path in (args.degrees, args.edges) if path is not None]
    rep, entry = _bootstrap(args, args.target, hist, grid, sel,
                            args.iterations, inputs)

    table = _table(
        "iteration\testimate", [*range(rep.iterations), "sigma_s2"],
        [*rep.estimates.tolist(), float(rep.sigma_s2)])
    report = {
        "target": rep.target,
        "original": _fit_entry(rep.original),
        **entry,
        "range": {"lo": sel.range.lo, "hi": sel.range.hi,
                  "auto": args.auto_range},
    }
    p = args.out_prefix
    payloads = {
        p + ".bootstrap.tsv": table,
        p + ".bootstrap.json": _json(report),
    }
    shown = {"target": args.target, "iterations": args.iterations,
             "alpha": args.alpha, "ratio_cutoff": args.ratio_cutoff,
             "auto_range": args.auto_range, "window": args.window,
             "d1_lo": args.d1_lo, "d1_hi": args.d1_hi}
    return payloads, {"seed": args.seed}, shown, inputs, None


# ---------------------------------------------------------------------------
# theory

def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _parse_pairs(text: str) -> list:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            d1, d2 = map(int, part.split(":"))
        except ValueError:
            raise ValueError(f"--pairs expects d1:d2 integer items, "
                             f"got {part!r}")
        pairs.append((d1, d2))
    if not pairs:
        raise ValueError("--pairs is empty")
    return pairs


def _build_theory_expected(args):
    from .theory import TheoryParams, expected_degree_count, \
        expected_edge_count

    if not args.d and not args.pairs:
        raise ValueError("pass --d and/or --pairs")
    params = TheoryParams(a=args.a, m=args.m, n=args.n)
    payloads = {}
    p = args.out_prefix
    if args.d:
        ds = _parse_int_list(args.d, "--d")
        payloads[p + ".expected_degrees.tsv"] = _table(
            "d\texpected", ds,
            [float(expected_degree_count(params, d)) for d in ds])
    if args.pairs:
        d1s, d2s = zip(*_parse_pairs(args.pairs))
        payloads[p + ".expected_edges.tsv"] = _table(
            "d1\td2\texpected", d1s, d2s,
            [float(expected_edge_count(params, d1, d2))
             for d1, d2 in zip(d1s, d2s)])
    shown = {"a": args.a, "m": args.m, "n": args.n,
             "d": args.d, "pairs": args.pairs}
    return payloads, {}, shown, [], None


def _build_theory_rho_shape(args):
    from .theory import edge_model_shape_check

    report = edge_model_shape_check(
        args.a2, ratio_range=(args.ratio_min, args.ratio_max),
        d2_range=(args.d2_min, args.d2_max), grid_size=args.grid_size)
    payload = {
        "a": float(report.a),
        "constant": float(report.constant),
        "max_rel_deviation": float(report.max_rel_deviation),
        "pairs": [[int(d1), int(d2)] for d1, d2 in report.pairs],
    }
    payloads = {args.out_prefix + ".rho_shape.json": _json(payload)}
    shown = {"a2": args.a2, "ratio_range": [args.ratio_min, args.ratio_max],
             "d2_range": [args.d2_min, args.d2_max],
             "grid_size": args.grid_size}
    return payloads, {}, shown, [], None


def _build_theory_multiplicity(args):
    from .theory import multiplicity_scaling_report

    n_list = _parse_int_list(args.n_list, "--n-list")
    if len(n_list) < 2:
        raise ValueError("--n-list needs at least 2 sizes to fit a slope")
    report = multiplicity_scaling_report(
        args.samples, n_list, args.a, args.m,
        seed=args.seed, threads=args.threads)
    columns = {"mean_loops": report.mean_loops,
               "mean_multi": report.mean_multi,
               "loop_fractions": report.loop_fractions,
               "multi_fractions": report.multi_fractions}
    table = _table(
        "n\tmean_loops\tmean_multi\tloop_fraction\tmulti_fraction",
        report.n_list, *columns.values())
    payload = {
        "a": args.a, "m": args.m, "samples": args.samples,
        "n_list": [int(n) for n in report.n_list],
        "multi_slope": float(report.multi_slope),
        "loops_slope": float(report.loops_slope),
        **{key: values.tolist() for key, values in columns.items()},
    }
    p = args.out_prefix
    payloads = {
        p + ".multiplicity.tsv": table,
        p + ".multiplicity.json": _json(payload),
    }
    shown = {"a": args.a, "m": args.m, "samples": args.samples,
             "n_list": n_list}
    return payloads, {"seed": args.seed}, shown, [], None


# ---------------------------------------------------------------------------
# parser

def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return int(text)


def _grid_size(text: str) -> int:
    """A grid size whose grid_size**2 pairs stay within MAX_SHAPE_PAIRS."""
    size = _positive_int(text)
    top = math.isqrt(MAX_SHAPE_PAIRS)
    if size > top:
        raise argparse.ArgumentTypeError(
            f"need at most {top} (a {top} x {top} pair grid), got {text!r}")
    return size


def _float_where(ok, need: str):
    """An argparse type: a float for which ``ok`` holds."""
    def number(text: str) -> float:
        if not ok(float(text)):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return float(text)
    return number


_ALPHA = _float_where(lambda a: 1.0 < a < math.inf, "a finite number > 1")
_CUTOFF = _float_where(lambda r: 1.0 <= r < math.inf, "a finite number >= 1")
_EXPONENT = _float_where(lambda a: 0.0 < a < math.inf, "a finite number > 0")
_WINDOW = _float_where(lambda w: _MIN_WINDOW <= w <= _MAX_WINDOW,
                       f"a log10 length from {_MIN_WINDOW} to {_MAX_WINDOW:.0f}")


def _add_common(sub, out_flag):
    sub.add_argument("--threads", type=_positive_int,
                     default=os.cpu_count() or 1,
                     help="worker processes for theory multiplicity and the "
                          "bootstraps (default: cores); data outputs do not "
                          "depend on it")
    sub.add_argument("--verify", action="store_true",
                     help="re-derive outputs and byte-compare them")
    if out_flag == "out":
        sub.add_argument("--out", required=True, help="output path")
    else:
        sub.add_argument("--out-prefix", required=True,
                         help="prefix for output files")


def _add_range_flags(sub):
    sub.add_argument("--d1-lo", type=int, default=None)
    sub.add_argument("--d1-hi", type=int, default=None)
    sub.add_argument("--auto-range", action="store_true",
                     help="slide a log window and keep the objective-product minimum")
    sub.add_argument("--window", type=_WINDOW, default=3.0,
                     help="log10 window length for --auto-range")
    sub.add_argument("--ratio-cutoff", type=_CUTOFF, default=10.0)
    sub.add_argument("--alpha", type=_ALPHA, default=1.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagl",
        description="Preferential-attachment graph generation and "
                    "attractiveness estimation.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a random graph")
    gen.add_argument("--model", choices=("bo", "gds", "hk"), required=True)
    gen.add_argument("--a", type=float, default=None,
                     help="bo: attachment strength")
    gen.add_argument("--m", type=int, default=None,
                     help="bo/hk: edges per vertex")
    gen.add_argument("--n", type=int, default=None, help="vertex count")
    gen.add_argument("--gamma", type=float, default=None,
                     help="gds: degree-law exponent")
    gen.add_argument("--target-edges", type=int, default=None,
                     help="gds: calibrate the degree cutoff to this edge count")
    gen.add_argument("--pt", type=float, default=0.5,
                     help="hk: triad-step probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("text", "binary"), default=None,
                     help="default: binary for .bin/.pagl paths, else text")
    _add_common(gen, "out")
    gen.set_defaults(func=_build_generate)

    an = commands.add_parser("analyze",
                             help="degree/edge/neighbor tables from a graph")
    an.add_argument("--graph", required=True)
    an.add_argument("--format", choices=("text", "binary"), default=None)
    an.add_argument("--alpha", type=_ALPHA, default=1.01,
                    help="log-grid ratio")
    _add_common(an, "out_prefix")
    an.set_defaults(func=_build_analyze)

    fit = commands.add_parser("fit", help="fit power-law models to tables")
    fit.add_argument("--degrees", required=True, help="analyze degrees TSV")
    fit.add_argument("--edges", required=True, help="analyze edges TSV")
    fit.add_argument("--xcells", default=None,
                     help="analyze xcells TSV (edge bootstrap input)")
    _add_range_flags(fit)
    fit.add_argument("--bootstrap", type=_positive_int, metavar="B",
                     help="also estimate bootstrap errors with B iterations")
    fit.add_argument("--seed", type=int, default=0)
    _add_common(fit, "out_prefix")
    fit.set_defaults(func=_build_fit)

    boot = commands.add_parser("bootstrap",
                               help="resampling spread of one fit target")
    boot.add_argument("--target", choices=("degrees", "edges"), required=True)
    boot.add_argument("--degrees", required=True)
    boot.add_argument("--edges", default=None,
                      help="needed with --auto-range")
    boot.add_argument("--xcells", default=None,
                      help="needed with --target edges")
    _add_range_flags(boot)
    boot.add_argument("--iterations", type=_positive_int, default=1000)
    boot.add_argument("--seed", type=int, default=0)
    _add_common(boot, "out_prefix")
    boot.set_defaults(func=_build_bootstrap)

    theory = commands.add_parser("theory", help="closed-form oracles")
    tsub = theory.add_subparsers(dest="subcommand", required=True)

    texp = tsub.add_parser("expected",
                           help="expected degree / edge-pair counts")
    texp.add_argument("--a", type=float, required=True)
    texp.add_argument("--m", type=int, required=True)
    texp.add_argument("--n", type=int, required=True)
    texp.add_argument("--d", default=None,
                      help="comma-separated degrees")
    texp.add_argument("--pairs", default=None,
                      help="comma-separated d1:d2 pairs")
    _add_common(texp, "out_prefix")
    texp.set_defaults(func=_build_theory_expected)

    tshape = tsub.add_parser("rho-shape",
                             help="tail-ratio shape vs the edge model")
    tshape.add_argument("--a2", type=_EXPONENT, required=True)
    tshape.add_argument("--ratio-min", type=_CUTOFF, default=10.0)
    tshape.add_argument("--ratio-max", type=_CUTOFF, default=1000.0)
    tshape.add_argument("--d2-min", type=_positive_int, default=10)
    tshape.add_argument("--d2-max", type=_positive_int, default=100)
    tshape.add_argument("--grid-size", type=_grid_size, default=5,
                        help="d2 and ratio grid points (at most "
                             f"{math.isqrt(MAX_SHAPE_PAIRS)})")
    _add_common(tshape, "out_prefix")
    tshape.set_defaults(func=_build_theory_rho_shape)

    tmult = tsub.add_parser("multiplicity",
                            help="loop/multi-edge scaling report")
    tmult.add_argument("--a", type=float, required=True)
    tmult.add_argument("--m", type=int, required=True)
    tmult.add_argument("--n-list", required=True,
                       help="comma-separated sample sizes")
    tmult.add_argument("--samples", type=_positive_int, default=20)
    tmult.add_argument("--seed", type=int, default=0)
    _add_common(tmult, "out_prefix")
    tmult.set_defaults(func=_build_theory_multiplicity)

    return parser


# ---------------------------------------------------------------------------
# driver

class _Compare(io.BufferedReader):
    """A file read as it is written to: ``same`` holds while each chunk it
    is given is what it reads."""
    same = True

    def write(self, chunk):
        self.same = self.same and self.read(len(chunk)) == chunk
        return len(chunk)


def _verify_payloads(build, args, paths) -> None:
    rebuilt = build(args)[0]
    if rebuilt.keys() != paths.keys():
        raise ValueError("verify: output path set changed between derivations")
    for path, write in rebuilt.items():
        with _Compare(io.FileIO(path)) as sink:
            write(sink)
            if not sink.same or sink.read(1):  # differs, or goes on
                raise ValueError(f"verify: {path} is not byte-reproducible")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        build = args.func
        payloads, seeds, params, inputs, deferred = build(args)
        for path, write in payloads.items():
            with open(path, "wb") as stream:
                write(stream)
        payloads = dict.fromkeys(payloads)  # frees what they wrote from
        if args.verify:
            _verify_payloads(build, args, payloads)
        prefix = getattr(args, "out_prefix", None) or args.out
        manifest = _manifest(args, argv, seeds, params, inputs, payloads, t0)
        with open(prefix + ".manifest.json", "wb") as stream:
            _json(manifest)(stream)
    except DivergenceError as exc:
        print(f"pagl: fit divergence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"pagl: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"pagl: not enough memory: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:
        print(f"pagl: worker failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"pagl: i/o error: {exc}", file=sys.stderr)
        return 4
    if deferred:
        print(f"pagl: fit divergence: {deferred}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
