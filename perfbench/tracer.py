"""Span tracer that wraps hpindex's public functions from outside the package.

Each wrapped function gets a span per call (per `next()` for generators):
name, start, end, parent span and instance id. Spans stay in memory and are
written out once, when the run ends. A span's self time is its duration minus
the time its child spans cover. Spans nest strictly in one thread, so self
times never overlap, and their sum is at most the traced pass.

A function is wrapped in every hpindex module namespace that binds it, so a
call through `formula.hp_oracle` is traced the same as one through
`oracles.hp_oracle`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from timing import CALIBRATION_SPAN

CAP_BUCKETS = ("vertex_cap", "node_budget", "iteration_budget", "stage_cap",
               "time_limit")

# Vertex-count bands that pick today's search tiers: Python DP, numpy DP,
# prepass plus DP, backtracking, refusal. Fixed here so they stay comparable
# when the tiers are retuned.
BANDS = (("v1-12", 12), ("v13-16", 16), ("v17-24", 24), ("v25-40", 40),
         ("v41-up", None))


def cap_bucket(reason: str) -> str:
    """Map an IndexResult.capped_reason or CappedError message to its bucket."""
    if "time limit" in reason:
        return "time_limit"
    if "node budget" in reason:
        return "node_budget"
    if "exceed the search cap" in reason or "exceed the trail search cap" in reason:
        return "vertex_cap"
    if "predicted size" in reason:
        return "iteration_budget"
    if "stage cap" in reason:
        return "stage_cap"
    return "other"


def rebind(orig, wrapper) -> list[tuple[object, str, object]]:
    """Bind `wrapper` wherever an hpindex module binds `orig`; return the undo list."""
    undo = []
    for key, m in list(sys.modules.items()):
        if m is None or not (key == "hpindex" or key.startswith("hpindex.")):
            continue
        for attr, val in list(vars(m).items()):
            if val is orig:
                undo.append((m, attr, orig))
                setattr(m, attr, wrapper)
    return undo


def unbind(undo: list[tuple[object, str, object]]) -> None:
    for m, attr, orig in reversed(undo):
        setattr(m, attr, orig)
    undo.clear()


def band(n: int) -> str:
    for name, top in BANDS:
        if top is None or n <= top:
            return name
    raise AssertionError("unreachable")


# (module, function, kind); kind "gen" marks generator functions
TARGETS = (
    ("campaigns", "explore_conclusion", "call"),
    ("campaigns", "verify_trees", "call"),
    ("formula", "compare_formula_oracle", "call"),
    ("formula", "hp_tree", "call"),
    ("formula", "hp_blockchain_conjecture", "call"),
    ("formula", "bridge_reduction", "call"),
    ("canon", "graph_key", "call"),
    ("graphs", "blocks_and_cuts", "call"),
    ("generators", "enumerate_free_trees", "gen"),
    ("generators", "gen_hamiltonian_2block_family", "gen"),
    ("io", "from_edge_list", "call"),
    ("branches", "branches", "call"),
    ("branches", "endpaths", "call"),
    ("linegraph", "line_graph", "call"),
    ("oracles", "has_hamiltonian_path", "call"),
    ("oracles", "has_hamiltonian_cycle", "call"),
    ("oracles", "has_dominating_trail", "call"),
    ("oracles", "hp_oracle", "call"),
    ("oracles", "h_oracle", "call"),
)

_BANDED = ("oracles.has_hamiltonian_path", "oracles.has_hamiltonian_cycle")


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in a fixed order."""
    names = []
    for mod, fn, kind in TARGETS:
        base = f"{mod}.{fn}"
        if base in _BANDED:
            for b, _ in BANDS:
                names += [f"{base}.{b}.{s}" for s in ("calls", "self_s", "yes", "no", "capped")]
            continue
        if kind == "gen":
            names += [f"{base}.yielded", f"{base}.self_s"]
            continue
        if mod == "campaigns":
            names.append(f"{base}.self_s")
            continue
        names += [f"{base}.calls", f"{base}.self_s"]
        if base in ("canon.graph_key", "graphs.blocks_and_cuts"):
            names.append(f"{base}.per_instance")
        elif base == "branches.endpaths":
            names.append(f"{base}.paths")
        elif base == "linegraph.line_graph":
            names.append(f"{base}.vertices_built")
        elif base == "oracles.has_dominating_trail":
            names.append(f"{base}.capped")
        elif base in ("oracles.hp_oracle", "oracles.h_oracle"):
            names.append(f"{base}.stages")
    names.append("generators.family.keep_frac")
    names += [f"oracles.capped.{b}" for b in CAP_BUCKETS]
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"]
    return names


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, instance id)
        self.spans: list = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.instance: object = None
        self._stack: list[list] = []  # [span index, name, parent, start, child time]
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)  # filled on exit, so parents precede children
        self._stack.append([len(self.spans) - 1, name, parent, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its self time."""
        end = time.perf_counter()
        idx, name, parent, start, child = self._stack.pop()
        dur = end - start
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.spans[idx] = (nid, start, end, parent, self.instance)
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        return dur - child

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every hpindex namespace that binds it."""
        for mod, fn, kind in TARGETS:
            orig = getattr(sys.modules[f"hpindex.{mod}"], fn)
            name = f"{mod}.{fn}"
            wrapper = (self._wrap_gen(name, orig) if kind == "gen"
                       else self._wrap_call(name, orig))
            self._installed += rebind(orig, wrapper)

    def uninstall(self) -> None:
        unbind(self._installed)

    def _wrap_call(self, name, fn):
        tracer = self
        boundary = name == "formula.compare_formula_oracle"

        def wrapper(*args, **kwargs):
            outer = tracer.instance
            if boundary:
                tracer.instance = args[2] if len(args) > 2 else kwargs.get("family_tag")
            tracer.counts[name + ".calls"] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self_time = tracer.exit()
                tracer.instance = outer
                tracer._observe(name, args, None, exc, self_time)
                raise
            self_time = tracer.exit()
            tracer.instance = outer
            tracer._observe(name, args, result, None, self_time)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts[name + ".yielded"] += 1
                    yield item
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result, exc, self_time) -> None:
        capped = exc is not None and type(exc).__name__ == "CappedError"
        c = self.counts
        if name in _BANDED:
            key = f"{name}.{band(args[0].n)}"
            c[key + ".calls"] += 1
            self.self_s[key] += self_time
            if capped:
                c[key + ".capped"] += 1
            elif exc is None:
                c[key + (".yes" if result[0] else ".no")] += 1
        elif name == "canon.graph_key":
            if self._stack and self._stack[-1][1] == "generators.gen_hamiltonian_2block_family":
                c["generators.family.graph_key_calls"] += 1
        elif name == "branches.endpaths" and exc is None:
            c["branches.endpaths.paths"] += len(result)
        elif name == "linegraph.line_graph" and exc is None:
            c["linegraph.line_graph.vertices_built"] += result.graph.n
        elif name == "oracles.has_dominating_trail" and capped:
            c["oracles.has_dominating_trail.capped"] += 1
        elif name in ("oracles.hp_oracle", "oracles.h_oracle") and exc is None:
            c[name + ".stages"] += len(result.stages)
            if result.value is None:
                c["oracles.capped." + cap_bucket(result.capped_reason)] += 1
        elif name == "formula.hp_blockchain_conjecture" and capped:
            c["oracles.capped." + cap_bucket(str(exc))] += 1

    # -- results -------------------------------------------------------------

    def metrics(self, instances: int, scale: float, wall_s: float,
                untraced_wall_s: float, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of `per_layer_names()` for this pass.

        `scale` turns the pass's raw seconds into the reference seconds of
        `wall_s`, the traced pass's own time (see timing.py).
        """
        out: dict[str, float] = {}
        c = self.counts
        for name in per_layer_names():
            head, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = self.self_s[head] * scale
            elif stat == "per_instance":
                out[name] = c[head + ".calls"] / instances if instances else 0.0
            else:
                out[name] = c[name]
        calls = c["generators.family.graph_key_calls"]
        out["generators.family.keep_frac"] = (
            c["generators.gen_hamiltonian_2block_family.yielded"] / calls if calls else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = overhead_s
        cal = self._name_id.get(CALIBRATION_SPAN)
        out["trace.spans"] = sum(1 for span in self.spans if span[0] != cal)
        return out

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a name table, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, start, end, parent, inst in self.spans:
                fh.write(json.dumps([nid, round(start, 7), round(end, 7), parent,
                                     inst]) + "\n")
