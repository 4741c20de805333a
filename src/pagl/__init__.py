"""pagl: preferential-attachment graph lab.

Generators for Buckley-Osthus and baseline random graphs, degree and
edge-degree statistics for edge-list graphs, and estimation of the
initial-attractiveness parameter from either distribution.

Importing pagl loads none of its submodules: each public name loads its
submodule the first time it is looked up, so a program pays only for
the parts of pagl it uses.

``_EXPORTS`` is the one list of public names: each submodule's
``__all__`` is read from its entry, so a new public name is listed once.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule it is read from
_EXPORTS = {
    "graphs": (
        "Graph", "SimpleGraph", "MultiplicityReport", "load_edge_list",
        "save_edge_list", "edge_list_chunks", "load_binary", "save_binary",
        "binary_bytes", "simplify", "count_multiplicities",
        "GraphFormatError", "GraphValidationError",
    ),
    "buckley_osthus": (
        "BOParams", "generate_bo_chain", "generate_bo", "merge_blocks",
        "generate_bo_samples",
    ),
    "baselines": (
        "GDSParams", "HKParams", "power_law_cap", "sample_power_law_degrees",
        "generate_configuration", "generate_holme_kim",
    ),
    "stats": (
        "DegreeHistogram", "EdgeDegreeMatrix", "LogGrid", "RhoSurface",
        "NeighborDegreeProfile", "TailCounts", "degree_histogram",
        "histogram_from_degrees", "edge_degree_matrix", "cumulative_degree",
        "log_grid", "rho_surface", "d_nn_profile", "GraphTables",
        "graph_tables", "degree_grid",
    ),
    "tables": (
        "write_degrees_tsv", "write_edges_tsv", "write_dnn_tsv",
        "write_xcells_tsv", "load_degrees_tsv", "surface_from_tables",
        "load_dnn_tsv", "load_xcells_tsv", "format_rows",
    ),
    "theory": (
        "TheoryParams", "log_gamma", "log_beta", "expected_degree_count",
        "expected_edge_count", "MultiplicityScalingReport",
        "multiplicity_scaling_report", "ShapeCheckReport", "tail_ratio",
        "edge_model_shape_check", "MAX_SHAPE_PAIRS", "MAX_SHAPE_D1",
    ),
    "fitting": (
        "FitResult", "GNResult", "DivergenceError", "DegreeRange",
        "PairDomain", "RangeSelection", "degree_model", "edge_model",
        "loglog_regression", "gauss_newton", "degree_range", "pair_domain",
        "fit_degree", "fit_edges", "fit_range", "select_range",
    ),
    "bootstrap": (
        "BootstrapReport", "bootstrap_vertices", "bootstrap_edges",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """A public name or a submodule, loading its submodule on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
