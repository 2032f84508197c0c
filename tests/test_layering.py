"""The layering of the package: every import of a gor3 module sits at the
top of its module, the graph of those imports has no cycle, pieces sits
below ideals, poly below linalg, no module takes a private name from
ideals or pieces, the row-reduction kernels import nothing but math, only
linalg.row_profile calls the GF(p) forward pass, no module but
__init__ imports a name it never reads, no module but fields and __init__
imports a field class (the others tell the fields apart by
field.characteristic), and a bare start of the CLI loads neither
dataclasses, inspect nor typing.

An import inside a function hides a dependency from the reader and is the
usual way a cycle gets in, so both are checked on the source with ``ast``,
function-level imports included in the graph.
"""

import ast
import subprocess
import sys
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


def _imported_modules(source):
    """The top-level names of every module an import in source takes from,
    relative imports as "." plus their module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "").split(".")[0])
    return names


def test_the_kernels_import_only_math():
    # one pure-stdlib kernel, no second backend behind it
    source = (PACKAGE / "_rowred_py.py").read_text(encoding="utf-8")
    assert _imported_modules(source) == {"math"}


def test_the_import_lister_sees_every_form():
    source = ("import numpy.linalg\nfrom math import gcd\nfrom . import fields\n"
              "from .linalg import row_rank\ndef f():\n    import gmpy2\n")
    assert _imported_modules(source) == {"numpy", "math", ".", ".linalg", "gmpy2"}


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


def _callers(source, name):
    """The names of the functions in source whose body calls name, as a
    bare name or an attribute; a call at module level counts as "<module>"."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_row_profile_takes_the_forward_pass_mod_p():
    # every rank, profile and RREF mod p starts from linalg.row_profile
    callers = {(path.stem, fn) for path in sorted(PACKAGE.glob("*.py"))
               for fn in _callers(path.read_text(encoding="utf-8"), "rank_profile_mod")}
    assert callers == {("linalg", "row_profile")}


def test_the_caller_finder_finds_one():
    source = ("def rref_mod(rows, p):\n    return rank_profile_mod(rows, p, 3)\n"
              "def row_profile(rows):\n    def inner():\n"
              "        return _rowred_py.rank_profile_mod(rows, 2, 1)\n"
              "    return inner()\nrank_profile_mod([], 2, 0)\n"
              "def unrelated(rows):\n    return rank_profile_mod\n")
    assert _callers(source, "rank_profile_mod") == {"rref_mod", "inner", "<module>"}


def test_the_cycle_finder_finds_a_cycle():
    graph = {"a": ({"b"}, []), "b": ({"c"}, []), "c": ({"a"}, []), "d": (set(), [])}
    assert _cycle(graph) == ["a", "b", "c", "a"]


def _unused_imports(source):
    """The names an import in source binds that no line reads as a Name
    (the base of an attribute included); __future__ imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    unused = {path.stem: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_the_unused_import_finder_finds_one():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from .ideals import GradedIdeal, NotArtinianError as NA\n"
              "from .poly import MultiPoly\n"
              "def f(x) -> GradedIdeal:\n    return os.path.join(x)\n")
    assert _unused_imports(source) == ["json", "NA", "MultiPoly"]


def _field_class_imports(source):
    """The names PrimeField and RationalField wherever an import in source
    takes them."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name in ("PrimeField", "RationalField"))


def test_only_fields_and_init_import_the_field_classes():
    # 0 over QQ, p over GF(p): every other module tests field.characteristic
    taken = {path.stem: _field_class_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem not in ("fields", "__init__")}
    assert {module: names for module, names in taken.items() if names} == {}


def test_the_field_class_finder_finds_both():
    source = ("from .fields import QQ, PrimeField\nfrom gor3 import RationalField\n"
              "def f():\n    from gor3.fields import GF\n")
    assert _field_class_imports(source) == ["PrimeField", "RationalField"]


# Imports a bare interpreter, without site and its .pth files (which may
# preload typing), to start the CLI, and prints which of the heavy stdlib
# modules that loaded.
BARE_START = """
import sys
sys.path.insert(0, {src!r})
import gor3, gor3.cli
gor3.cli.build_parser()
print(" ".join(name for name in ("dataclasses", "inspect", "typing")
               if name in sys.modules))
"""


def test_a_bare_start_loads_no_dataclasses_inspect_or_typing():
    # each costs milliseconds of every one-query process (README, Layout)
    code = BARE_START.format(src=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []
