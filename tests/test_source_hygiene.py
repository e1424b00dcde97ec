"""Checks on the package's own source, read as syntax trees."""

import ast
import importlib
from pathlib import Path

import hpindex

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SRC = Path(hpindex.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def parsed_sources() -> list[tuple[str, ast.AST]]:
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def self_referring_nested_functions(module: ast.AST) -> list[str]:
    """`outer.inner` for each function defined inside another function
    whose own body names it.

    Such a closure refers to itself through its cell, a reference cycle, so
    every call of the outer function leaves garbage that only the cycle
    collector frees, and the inner function recurses.
    """
    found = set()
    for outer in ast.walk(module):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCTIONS):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for stmt in inner.body for node in ast.walk(stmt)):
                found.add(f"{outer.name}.{inner.name}")
    return sorted(found)


def self_calling_functions(module: ast.AST) -> list[str]:
    """Each function, module-level or nested, whose body calls it by bare
    name: a recursion, which a deep enough input turns into a
    RecursionError.

    Functions defined directly in a class body are skipped: there a bare
    name means the module global, as when `ExplorerRecord.graph_key` calls
    `canon.graph_key`.
    """
    methods = {id(stmt) for node in ast.walk(module)
               if isinstance(node, ast.ClassDef) for stmt in node.body}
    return sorted(
        fn.name for fn in ast.walk(module)
        if isinstance(fn, FUNCTIONS) and id(fn) not in methods
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == fn.name
                for stmt in fn.body for node in ast.walk(stmt)))


def test_no_nested_function_refers_to_itself():
    found = [f"{name}:{fn}" for name, module in parsed_sources()
             for fn in self_referring_nested_functions(module)]
    assert found == []


def test_no_function_calls_itself():
    found = [f"{name}:{fn}" for name, module in parsed_sources()
             for fn in self_calling_functions(module)]
    assert found == []


def test_the_check_finds_recursion_but_not_a_method_calling_a_global():
    module = ast.parse(
        "def key(g):\n"
        "    return g\n"
        "def walk(v, adj):\n"
        "    return [walk(w, adj) for w in adj[v]]\n"
        "def outer(adj):\n"
        "    def inner(v):\n"
        "        return inner(v - 1) if v else 0\n"
        "    return inner(3)\n"
        "class Record:\n"
        "    def key(self):\n"
        "        return key(self)\n")
    assert self_calling_functions(module) == ["inner", "walk"]


def test_every_traced_target_exists():
    # read with ast so the bench is never imported by the tests
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    assert targets
    missing = [f"{mod}.{fn}" for mod, fn, _ in targets
               if not hasattr(importlib.import_module(f"hpindex.{mod}"), fn)]
    assert missing == []


def test_the_check_finds_a_recursive_closure():
    module = ast.parse(
        "def outer(adj):\n"
        "    def walk(v):\n"
        "        return [walk(w) for w in adj[v]]\n"
        "    def flat(v):\n"
        "        return adj[v]\n"
        "    return walk(0), flat(0)\n")
    assert self_referring_nested_functions(module) == ["outer.walk"]
