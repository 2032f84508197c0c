"""The layering of the package: every import of a gor3 module sits at the
top of its module, the graph of those imports has no cycle, pieces sits
below ideals, poly below linalg, and no module takes a private name from
ideals or pieces.

An import inside a function hides a dependency from the reader and is the
usual way a cycle gets in, so both are checked on the source with ``ast``,
function-level imports included in the graph.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gor3"


def _package_imports(node):
    """The gor3 modules an import statement names (``from .x import y``,
    ``from gor3.x import y``, ``import gor3.x``, ``from . import x``)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "gor3":
                return []
            parts = parts[1:]
        else:
            parts = (node.module or "").split(".") if node.module else []
        if parts:
            return [parts[0]]
        return [alias.name for alias in node.names]
    return [alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("gor3.")]


def _graph():
    """module -> (imported gor3 modules, lines of imports below module top)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        edges, nested = set(), []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            edges.update(_package_imports(node))
            if id(node) not in top:
                nested.append(node.lineno)
        graph[path.stem] = (edges - {path.stem}, nested)
    return graph


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(module, path):
        state[module] = "open"
        for nxt in sorted(graph.get(module, ((), ()))[0]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return None


def test_the_graph_sees_every_module():
    graph = _graph()
    assert {"ideals", "pieces", "apolarity", "cli", "linalg", "poly"} <= set(graph)
    assert graph["apolarity"][0] >= {"ideals", "pieces", "poly"}
    assert graph["ideals"][0] >= {"linalg", "pieces"}


def test_no_import_inside_a_function():
    nested = {module: lines for module, (_, lines) in _graph().items() if lines}
    assert nested == {}


def test_the_import_graph_is_acyclic():
    assert _cycle(_graph()) is None


def test_ideals_does_not_import_apolarity():
    assert "apolarity" not in _graph()["ideals"][0]


def test_pieces_sits_below_ideals():
    above = {"ideals", "apolarity", "criteria", "betti", "pfaffians", "cases", "cli"}
    assert _graph()["pieces"][0] & above == set()


def test_poly_sits_below_linalg():
    assert _graph()["poly"][0] == {"fields", "monomials"}


def _private_imports(source, modules):
    """(module, name) for every name starting with "_" that an import in
    source takes from one of the gor3 modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((module, alias.name) for module in _package_imports(node)
                         if module in modules for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_private_name_is_imported_from_ideals_or_pieces():
    taken = {path.stem: _private_imports(path.read_text(encoding="utf-8"),
                                         {"ideals", "pieces"})
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in taken.items() if names} == {}


def test_the_private_import_finder_finds_one():
    source = ("from .ideals import GradedIdeal, _product_span\n"
              "from gor3.pieces import _helper\nfrom .linalg import _residual\n")
    assert _private_imports(source, {"ideals", "pieces"}) == [
        ("ideals", "_product_span"), ("pieces", "_helper")]


def test_the_cycle_finder_finds_a_cycle():
    graph = {"a": ({"b"}, []), "b": ({"c"}, []), "c": ({"a"}, []), "d": (set(), [])}
    assert _cycle(graph) == ["a", "b", "c", "a"]
