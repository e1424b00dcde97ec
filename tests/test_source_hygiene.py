"""Checks on the package's own source, read as syntax trees."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import hpindex

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SRC = Path(hpindex.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def private_definitions(module: ast.AST) -> list[str]:
    """Module-level functions and classes whose names start with `_`."""
    return [node.name for node in module.body
            if isinstance(node, (*FUNCTIONS, ast.ClassDef))
            and node.name.startswith("_")]


def used_names(modules: list[ast.AST]) -> set[str]:
    """Every name the modules mention: as a bare name, as an attribute or as
    an imported name. A definition is not a mention."""
    used = set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def unused_private_definitions(modules: list[tuple[str, ast.AST]]) -> list[str]:
    """`module:name` for each private module-level function or class that
    no module names again: a handler or helper its last caller left behind."""
    used = used_names([module for _, module in modules])
    return sorted(f"{name}:{fn}" for name, module in modules
                  for fn in private_definitions(module) if fn not in used)


def modules_naming_attribute(modules: list[tuple[str, ast.AST]],
                             attr: str) -> list[str]:
    """The modules that read `attr` off anything, such as `Graph._trusted`."""
    return sorted(name for name, module in modules
                  if any(isinstance(node, ast.Attribute) and node.attr == attr
                         for node in ast.walk(module)))


def assertions(module: ast.AST) -> list[int]:
    """Line numbers of each `assert` statement and each mention of
    `AssertionError`, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(module)
                  if isinstance(node, ast.Assert)
                  or getattr(node, "id", getattr(node, "attr", None))
                  == "AssertionError")


def scoped_nodes(module: ast.AST):
    """Each node of the module with the dotted name of the class or function
    it sits in, such as `Graph.blocks`, or `<module>` at the top level."""
    stack = [(module, "")]
    while stack:
        node, scope = stack.pop()
        yield scope or "<module>", node
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def scopes_calling(modules: list[tuple[str, ast.AST]], name: str) -> list[str]:
    """`module:scope` for each scope that calls `name`, bare or as an
    attribute, such as `BlockDecomposition(...)` or
    `graphs.BlockDecomposition(...)`."""
    return sorted({f"{mod}:{scope}" for mod, module in modules
                   for scope, node in scoped_nodes(module)
                   if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))})


def sets_attribute(node: ast.AST, attrs: set[str]) -> bool:
    """True when the node stores one of `attrs` on anything: as an
    assignment target, plain, augmented, annotated or unpacked, or through
    `setattr(obj, "name", value)` or `object.__setattr__`."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.ctx, ast.Store) and node.attr in attrs
    return (isinstance(node, ast.Call)
            and bool({"setattr", "__setattr__"}
                     & {getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)})
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in attrs)


def scopes_assigning(modules: list[tuple[str, ast.AST]],
                     attrs: set[str]) -> list[str]:
    """`module:scope` for each scope that sets one of the attributes `attrs`."""
    return sorted({f"{mod}:{scope}" for mod, module in modules
                   for scope, node in scoped_nodes(module)
                   if sets_attribute(node, attrs)})


def main_guarded(module: ast.AST) -> set[int]:
    """The ids of the nodes inside the module's `if __name__ == "__main__":`."""
    return {id(node) for stmt in module.body
            if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Compare)
            and getattr(stmt.test.left, "id", None) == "__name__"
            and [getattr(c, "value", None) for c in stmt.test.comparators]
            == ["__main__"]
            for node in ast.walk(stmt)}


def stray_raises(modules: list[tuple[str, ast.AST]],
                 taxonomy: set[str]) -> list[str]:
    """`module:line name` for each `raise` that names neither a class of
    `taxonomy`, nor a private class of its own module, nor `SystemExit`
    under a `__main__` guard. A bare `raise` re-raises and is not listed."""
    found = []
    for mod, module in modules:
        own = {node.name for node in module.body
               if isinstance(node, ast.ClassDef) and node.name.startswith("_")}
        guarded = main_guarded(module)
        for node in ast.walk(module):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if (name in taxonomy or name in own
                    or (name == "SystemExit" and id(node) in guarded)):
                continue
            found.append(f"{mod}:{node.lineno} {name}")
    return found


def traced_targets() -> tuple[tuple[str, str, str], ...]:
    """The tracer's `TARGETS`, read with ast so the bench is never imported
    by the tests."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets))


def program_sources() -> list[tuple[str, ast.AST]]:
    """The package's modules but `__init__.py`, then `scripts/` and
    `perfbench/`: every program that calls the package."""
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [(str(path), ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def public_names_without_caller(public: list[str],
                                modules: list[tuple[str, ast.AST]],
                                traced: set[str]) -> list[str]:
    """The public names that the tracer does not wrap and that no program
    module mentions outside the name's own top-level definition, so a
    function calling itself is no caller: names only the tests use."""
    used = set(traced)
    for _, module in modules:
        for stmt in module.body:
            names = used_names([stmt])
            if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return sorted(name for name in public if name not in used)


def exported_names(package: ModuleType) -> list[str]:
    """The public names the package binds, submodules left out, plus
    `__version__`: what its `__all__` should list."""
    return sorted({name for name, value in vars(package).items()
                   if not name.startswith("_")
                   and not isinstance(value, ModuleType)} | {"__version__"})


def test_all_lists_every_public_name_once():
    # a name taken out of the imports but left in __all__, or the reverse,
    # would otherwise go unnoticed
    assert len(set(hpindex.__all__)) == len(hpindex.__all__)
    assert sorted(hpindex.__all__) == exported_names(hpindex)


def test_the_check_finds_the_public_names():
    package = ModuleType("package")
    package.graphs = ModuleType("package.graphs")
    package.Graph = type("Graph", (), {})
    package.iterate = len
    package._cap = 80
    assert exported_names(package) == ["Graph", "__version__", "iterate"]


def test_every_public_name_has_a_program_caller():
    # code that only the tests use belongs in the tests
    traced = {fn for _, fn, _ in traced_targets()}
    assert public_names_without_caller(
        hpindex.__all__, program_sources(), traced) == []


def test_the_check_finds_a_public_name_only_the_tests_use():
    modules = [
        ("graphs.py", ast.parse(
            "class Graph:\n"
            "    def copy(self) -> 'Graph':\n"
            "        return Graph(self.labels, self.edges)\n"
            "def is_tree(g: Graph) -> bool:\n"
            "    return g.m == g.n - 1\n"
            "def star_graph(leaves):\n"
            "    return star_graph(leaves - 1)\n")),
        ("io.py", ast.parse(
            "from .graphs import Graph\n"
            "def from_edge_list(text):\n"
            "    return Graph((), ())\n")),
        ("workloads.py", ast.parse(
            "import hpindex\n"
            "tree = hpindex.from_edge_list('a b')\n")),
    ]
    public = ["Graph", "endpaths", "from_edge_list", "is_tree", "star_graph"]
    assert public_names_without_caller(public, modules, {"endpaths"}) == [
        "is_tree", "star_graph"]


def test_no_nested_function_refers_to_itself():
    found = [f"{name}:{fn}" for name, module in parsed_sources()
             for fn in self_referring_nested_functions(module)]
    assert found == []


def test_no_function_calls_itself():
    found = [f"{name}:{fn}" for name, module in parsed_sources()
             for fn in self_calling_functions(module)]
    assert found == []


def test_every_private_definition_is_used():
    assert unused_private_definitions(parsed_sources()) == []


def test_internal_faults_raise_internal_check_errors():
    # `python -O` strips assert statements, and an AssertionError escapes
    # `except HPIndexError`; an internal fault raises InternalCheckError
    found = [f"{name}:{line}" for name, module in parsed_sources()
             for line in assertions(module)]
    assert found == []


def test_the_check_finds_assertions():
    module = ast.parse(
        "def pick(walk, ends):\n"
        "    assert walk, 'empty walk'\n"
        "    if not ends:\n"
        "        raise AssertionError('no end')\n"
        "    try:\n"
        "        return walk[ends[0]]\n"
        "    except builtins.AssertionError:\n"
        "        raise InternalCheckError('bad end') from None\n")
    assert assertions(module) == [2, 4, 7]


def test_every_raise_is_in_the_taxonomy():
    # callers tell outcomes apart by the classes of errors.py, and the CLI
    # maps each to an exit code; any other class slips past
    # `except HPIndexError`
    sources = parsed_sources()
    errors = next(module for name, module in sources if name == "errors.py")
    taxonomy = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert stray_raises(sources, taxonomy) == []


def test_the_check_finds_a_stray_raise():
    modules = [
        ("rng.py", ast.parse(
            "def below(n):\n"
            "    if n <= 0:\n"
            "        raise ValueError('needs n >= 1')\n"
            "    raise errors.ValidationError('fine')\n")),
        ("oracles.py", ast.parse(
            "class _Inconclusive(Exception):\n"
            "    pass\n"
            "def search(g):\n"
            "    try:\n"
            "        raise _Inconclusive\n"
            "    except KeyError:\n"
            "        raise\n"
            "    raise _Elsewhere()\n")),
        ("cli.py", ast.parse(
            "def main():\n"
            "    raise SystemExit(2)\n"
            "if __name__ == '__main__':\n"
            "    raise SystemExit(main())\n")),
    ]
    assert stray_raises(modules, {"ValidationError"}) == [
        "rng.py:3 ValueError", "oracles.py:8 _Elsewhere", "cli.py:2 SystemExit"]


def test_only_the_line_graph_builds_unchecked_graphs():
    # Graph._trusted skips every check of Graph.__init__, so code that
    # builds graphs from input must never reach it
    assert modules_naming_attribute(parsed_sources(), "_trusted") == [
        "linegraph.py"]


def test_the_check_finds_an_unchecked_construction():
    modules = [
        ("graphs.py", ast.parse(
            "class Graph:\n"
            "    @classmethod\n"
            "    def _trusted(cls, labels, adj, edges):\n"
            "        return cls.__new__(cls)\n")),
        ("linegraph.py", ast.parse("lg = Graph._trusted((), (), ())\n")),
        ("io.py", ast.parse("make = graphs.Graph._trusted\n")),
    ]
    assert modules_naming_attribute(modules, "_trusted") == [
        "io.py", "linegraph.py"]


def test_only_the_graph_module_builds_block_decompositions():
    # the 2-blocks, cut vertices and pieces are decided in one place;
    # every other function reads them off `Graph.blocks`
    assert scopes_calling(parsed_sources(), "BlockDecomposition") == [
        "graphs.py:blocks_and_cuts"]


def test_the_check_finds_a_block_decomposition_built_elsewhere():
    modules = [
        ("graphs.py", ast.parse(
            "def blocks_and_cuts(g):\n"
            "    if g.n == 1:\n"
            "        return BlockDecomposition((), frozenset(), (0,))\n"
            "    return BlockDecomposition(two_blocks, cuts, up)\n"
            "def block_graph(g, block):\n"
            "    h = Graph(labels, pairs)\n"
            "    h._blocks = BlockDecomposition((frozenset(range(h.n)),),\n"
            "                                   frozenset(), (0,) * h.n)\n"
            "    return h\n")),
        ("formula.py", ast.parse(
            "dec = graphs.BlockDecomposition(g.blocks.two_blocks, x, y)\n")),
        ("oracles.py", ast.parse(
            "from .graphs import BlockDecomposition\n"
            "def pieces(dec: BlockDecomposition) -> tuple:\n"
            "    return dec.piece_of\n")),
        ("branches.py", ast.parse(
            "class Walk:\n"
            "    def fill(self, h):\n"
            "        h._blocks = BlockDecomposition(*fields)\n")),
    ]
    assert scopes_calling(modules, "BlockDecomposition") == [
        "branches.py:Walk.fill", "formula.py:<module>",
        "graphs.py:block_graph", "graphs.py:blocks_and_cuts"]


MEMO_SLOTS = {"_blocks", "_connected"}


def test_only_their_accessors_fill_the_memo_slots():
    # a value stored from outside would skip the decomposer and the
    # connectivity search that the slots stand for
    assert scopes_assigning(parsed_sources(), MEMO_SLOTS) == [
        "graphs.py:Graph._fill", "graphs.py:Graph.blocks",
        "graphs.py:is_connected"]


def test_the_check_finds_a_memo_slot_filled_elsewhere():
    modules = [
        ("graphs.py", ast.parse(
            "class Graph:\n"
            "    def _fill(self, labels, adj, edges):\n"
            "        self._blocks: BlockDecomposition | None = None\n"
            "        self._connected: bool | None = None\n"
            "    @property\n"
            "    def blocks(self):\n"
            "        if self._blocks is None:\n"
            "            self._blocks = blocks_and_cuts(self)\n"
            "        return self._blocks\n"
            "def is_connected(g):\n"
            "    if g._connected is None:\n"
            "        g._connected = _reaches_every_vertex(g)\n"
            "    return g._connected\n"
            "def block_graph(g, block):\n"
            "    h = Graph(labels, pairs)\n"
            "    h._blocks = BlockDecomposition(*fields)\n"
            "    h._connected = True\n"
            "    return h\n")),
        ("formula.py", ast.parse(
            "def glue(h, dec):\n"
            "    h._blocks, n = dec, 3\n"
            "    return h._connected\n")),
        ("oracles.py", ast.parse(
            "def trust(h):\n"
            "    setattr(h, '_connected', True)\n"
            "def index(h):\n"
            "    object.__setattr__(h, '_index', {})\n"
            "def preset(h, dec):\n"
            "    object.__setattr__(h, '_blocks', dec)\n")),
    ]
    assert scopes_assigning(modules, MEMO_SLOTS) == [
        "formula.py:glue", "graphs.py:Graph._fill", "graphs.py:Graph.blocks",
        "graphs.py:block_graph", "graphs.py:is_connected", "oracles.py:preset",
        "oracles.py:trust"]


def test_the_check_finds_an_unused_private_definition():
    modules = [
        ("a.py", ast.parse(
            "def _called():\n"
            "    return 1\n"
            "def _imported():\n"
            "    return 2\n"
            "def _left_behind():\n"
            "    return _called()\n"
            "class _Record:\n"
            "    def _method(self):\n"
            "        return 3\n"
            "def public():\n"
            "    return 3\n")),
        ("b.py", ast.parse(
            "from .a import _imported\n"
            "import a\n"
            "record = a._Record()\n")),
    ]
    assert unused_private_definitions(modules) == ["a.py:_left_behind"]


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
    targets = traced_targets()
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
