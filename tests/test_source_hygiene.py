"""Checks on the package's own source, read as syntax trees."""

import ast
from pathlib import Path

import hpindex

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def test_no_nested_function_refers_to_itself():
    src = Path(hpindex.__file__).parent
    found = [f"{path.name}:{name}"
             for path in sorted(src.glob("*.py"))
             for name in self_referring_nested_functions(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_the_check_finds_a_recursive_closure():
    module = ast.parse(
        "def outer(adj):\n"
        "    def walk(v):\n"
        "        return [walk(w) for w in adj[v]]\n"
        "    def flat(v):\n"
        "        return adj[v]\n"
        "    return walk(0), flat(0)\n")
    assert self_referring_nested_functions(module) == ["outer.walk"]
