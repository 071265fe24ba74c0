"""What the benchmark's traced child reaches in propb by name.

bench/tracer.py wraps the functions listed in its TRACED table, imports
others with `from propb.<module> import ...`, replaces the cached
`Hypergraph.edge_set` property and calls `find_proper_coloring(hypergraph,
26)`.  Renaming or reshaping any of these breaks only a `--trace 1`
benchmark run, so this test reads tracer.py as text (with `ast`, importing
no benchmark code) and checks each name against the package.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from propb.construction import Hypergraph
from propb.witness import find_proper_coloring

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_tree() -> ast.Module:
    return ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))


def test_traced_names_exist():
    tree = tracer_tree()
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    table = ast.literal_eval(traced)
    assert table
    for module, names in table.items():
        loaded = importlib.import_module(f"propb.{module}")
        for name in names:
            assert callable(getattr(loaded, name, None)), f"propb.{module}.{name}"


def test_imported_names_exist():
    imports = [
        node
        for node in ast.walk(tracer_tree())
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "propb"
    ]
    assert imports
    for node in imports:
        for alias in node.names:
            if node.module == "propb":
                importlib.import_module(f"propb.{alias.name}")
            else:
                module = importlib.import_module(node.module)
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_edge_set_is_a_cached_property():
    assert isinstance(Hypergraph.__dict__["edge_set"], functools.cached_property)


def test_find_proper_coloring_takes_a_vertex_limit_positionally():
    inspect.signature(find_proper_coloring).bind(None, 26)
