"""The benchmark's traced pass (``perfbench/traced.py``) calls the library
directly, and only ``pytest perfbench`` runs it.  These tests read that
file without running it and check each of its calls of a pagl name
against the name's signature, and each attribute it reads from what such
a call returns, so a changed library signature fails here too."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def pagl_names(tree) -> dict:
    """Every name the file imports from pagl or a pagl module, bound to
    the object it names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "pagl":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def tuple_length(func: ast.FunctionDef, name: str) -> int:
    """The length of the tuple literal ``name`` is assigned in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple) \
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets):
            return len(node.value.elts)
    raise AssertionError(f"{func.name}: cannot count the items of *{name}")


def positional_count(func: ast.FunctionDef, call: ast.Call) -> int:
    count = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            assert isinstance(arg.value, ast.Name), ast.unparse(call)
            count += tuple_length(func, arg.value.id)
        else:
            count += 1
    return count


def returned_type(obj):
    """The class ``obj`` returns when called, or None if it does not say."""
    if inspect.isclass(obj):
        return obj
    return typing.get_type_hints(obj).get("return")


def has_member(cls, attr: str) -> bool:
    fields = {f.name for f in dataclasses.fields(cls)} \
        if dataclasses.is_dataclass(cls) else set()
    return attr in fields or hasattr(cls, attr)


TREE = ast.parse(TRACED.read_text(), str(TRACED))
NAMES = pagl_names(TREE)
FUNCTIONS = [node for node in TREE.body if isinstance(node, ast.FunctionDef)]


def pagl_calls(func: ast.FunctionDef):
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in NAMES:
            yield node


def test_the_file_calls_pagl():
    assert {"select_range", "bootstrap_edges", "surface_from_tables",
            "rho_surface", "write_edges_tsv", "log_grid",
            "generate_bo_chain", "simplify", "degree_histogram",
            "edge_degree_matrix"} <= set(NAMES)


@pytest.mark.parametrize("func", FUNCTIONS, ids=lambda f: f.name)
def test_calls_bind(func):
    for call in pagl_calls(func):
        assert all(kw.arg for kw in call.keywords), ast.unparse(call)
        signature = inspect.signature(NAMES[call.func.id])
        try:
            signature.bind(*[None] * positional_count(func, call),
                           **{kw.arg: None for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{func.name}: {ast.unparse(call)}: {exc}")


def results_read(func: ast.FunctionDef) -> dict:
    """Variable -> the classes that pagl calls in ``func`` assign to it."""
    types = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id in NAMES:
            cls = returned_type(NAMES[node.value.func.id])
            for target in node.targets:
                if isinstance(target, ast.Name) and cls is not None:
                    types.setdefault(target.id, set()).add(cls)
    return types


def test_results_read_include_the_selection():
    read = {}
    for func in FUNCTIONS:
        read.update(results_read(func))
    assert [cls.__name__ for cls in read["sel"]] == ["RangeSelection"]


@pytest.mark.parametrize("func", FUNCTIONS, ids=lambda f: f.name)
def test_attributes_of_results_exist(func):
    types = results_read(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            for cls in types.get(node.value.id, ()):
                assert has_member(cls, node.attr), \
                    f"{func.name}: {cls.__name__} has no {node.attr!r}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "len" and isinstance(node.args[0], ast.Name):
            for cls in types.get(node.args[0].id, ()):
                assert hasattr(cls, "__len__"), f"{func.name}: len({cls.__name__})"
