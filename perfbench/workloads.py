"""The benchmark's workloads, run inside one fresh workload process.

Each workload builds its inputs from the seed, checks the program's answers
and times them. A run makes a fixed number of passes over the same work, set
by `--seconds` and the workload's `PASS_S`, never by how fast the passes go.
Each pass is split into units: a query, for the query workloads
(`big-trees`, `oracle-queries`), timed around its public call; for the
campaign workloads (`explore`, `verify-trees`), each instance the campaign
runs through `compare_formula_oracle` and each stretch of campaign code
between instances. Unit times are corrected for the host's speed (see
timing.py). A pass's time is the sum of its units; `wall_s` is the median
over the passes, and a unit's latency is its median over the passes.

A traced run alternates untraced and traced passes, so the tracer's overhead
is the difference of two medians taken over the same stretch of time.

Answers are checked against `reference/<workload>-<seed>.json` where one was
recorded, and against invariants that hold for every seed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import statistics
from collections import Counter
from pathlib import Path

import hpindex

from timing import Timeline, clock
from tracer import Tracer, cap_bucket, rebind, unbind

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Run:
    """What one run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.settled = 0
        self.capped = 0
        self.caps: Counter = Counter()
        self.wall_s = 0.0
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.step_s = 0.0  # median calibration step over the untraced passes
        self.latency_s: list[float] = []
        self.notes: list[str] = []
        self.per_layer: dict[str, float] | None = None
        self.reference: str | None = None

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def to_json(self) -> dict:
        return {k: (dict(v) if isinstance(v, Counter) else v)
                for k, v in vars(self).items()}


class Pass:
    """One pass over the workload: its answers and its timeline."""

    def __init__(self, outcome, timeline: Timeline, tracer: Tracer | None):
        self.outcome = outcome
        self.timeline = timeline
        self.tracer = tracer
        self.units = timeline.reference_units()
        self.wall_s = sum(self.units)
        self.raw_wall_s = sum(timeline.units)


def reference_path(workload: str, seed: int | None) -> Path:
    suffix = "" if seed is None else f"-{seed}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def _load_reference(workload: str, seed: int | None) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _same(a, b) -> bool:
    """Values agree, or at least one side is capped (None)."""
    return a is None or b is None or a == b


class Workload:
    """The run loop every workload shares; subclasses say what a pass is."""

    name: str
    seeded = True
    PASS_S: float  # nominal length of one pass; sets the pass count

    def inputs(self, seed: int):
        raise NotImplementedError

    def one_pass(self, inputs, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError

    def check(self, run: Run, outcome, ref: dict | None):
        """Count and check the first pass; return its values for rechecks."""
        raise NotImplementedError

    def values(self, outcome):
        raise NotImplementedError

    def latency_units(self, units: list[float]) -> list[float]:
        return units

    def warm_up(self, inputs) -> None:
        pass

    def pass_count(self, seconds: float) -> int:
        return max(2, int(seconds // self.PASS_S))

    def run(self, seed: int, seconds: float, trace: bool) -> Run:
        run = Run()
        inputs = self.inputs(seed)
        ref = _load_reference(self.name, seed if self.seeded else None)
        run.reference = None if ref is None else "checked"
        self.warm_up(inputs)
        n = self.pass_count(seconds)
        plain: list[Pass] = []
        traced: list[Pass] = []
        for i, with_tracer in enumerate([False, True] * n if trace else [False] * n):
            p = self.one_pass(inputs, Tracer() if with_tracer else None)
            if i == 0:
                values = self.check(run, p.outcome, ref)
            elif self.values(p.outcome) != values:
                run.fail("a rerun gave different answers")
            (traced if with_tracer else plain).append(p)

        run.pass_s = [p.wall_s for p in plain]
        run.raw_pass_s = [p.raw_wall_s for p in plain]
        run.wall_s = statistics.median(run.pass_s)
        run.step_s = statistics.median(s for p in plain for s in p.timeline.steps)
        run.latency_s = self.latency_units(
            [statistics.median(u) for u in zip(*(p.units for p in plain))])
        if trace:
            last = traced[-1]
            self.tracer = last.tracer
            traced_wall_s = statistics.median(p.wall_s for p in traced)
            run.per_layer = last.tracer.metrics(
                run.attempted, scale=last.wall_s / last.raw_wall_s, wall_s=last.wall_s,
                untraced_wall_s=run.wall_s, overhead_s=traced_wall_s - run.wall_s)
        return run

    def reference(self, seed: int) -> dict:
        run = Run()
        p = self.one_pass(self.inputs(seed))
        self.check(run, p.outcome, None)
        if run.failed:
            raise SystemExit(f"not recording a failing run: {run.notes}")
        return self.reference_of(p.outcome)

    def reference_of(self, outcome) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------- campaigns


def _sha(report) -> str:
    return hashlib.sha256(report.body_bytes()).hexdigest()


class Campaign(Workload):
    """One campaign call per pass, timed piece by piece at instance boundaries."""

    def call(self, params):
        raise NotImplementedError

    @staticmethod
    def is_tree_instance(tag: str) -> bool:
        raise NotImplementedError

    def one_pass(self, params, tracer: Tracer | None = None) -> Pass:
        """Run the campaign once.

        The outcome is the report and every instance record by tag. The units
        are the stretch before each instance, the instance itself, and after
        the last instance the stretch until the campaign returns. They cover
        the whole campaign call, less its calibration steps.
        """
        import hpindex.campaigns as campaigns

        timeline = Timeline(tracer)
        records = {}
        last = 0.0

        def instance(inner):
            def clocked(*args, **kwargs):
                nonlocal last
                step = timeline.mark()
                t0 = clock()
                timeline.unit(t0 - last - step)
                rec = inner(*args, **kwargs)
                last = clock()
                timeline.unit(last - t0)
                records[rec.family_tag] = rec
                return rec
            return clocked

        if tracer is not None:
            tracer.install()
        inner = campaigns.compare_formula_oracle
        undo = rebind(inner, instance(inner))
        try:
            timeline.mark(force=True)
            last = clock()
            report = self.call(params)
            timeline.unit(clock() - last)
            timeline.close()
        finally:
            unbind(undo)
            if tracer is not None:
                tracer.uninstall()
        return Pass((report, records), timeline, tracer)

    def values(self, outcome) -> tuple[str, dict]:
        report, records = outcome
        return _sha(report), {t: [r.formula_value, r.oracle_value]
                              for t, r in records.items()}

    def latency_units(self, units: list[float]) -> list[float]:
        return units[1::2]

    def check(self, run: Run, outcome, ref: dict | None):
        report, records = outcome
        if report.instances != len(records):
            run.fail("report instance count differs from the instances run")
        expected = ref["instances"] if ref else {}
        for tag in sorted(set(expected) - set(records)):
            run.attempted += 1
            run.fail(f"{tag}: in the reference but not produced")
        for tag, rec in records.items():
            run.attempted += 1
            got = [rec.formula_value, rec.oracle_value]
            if rec.verdict == "mismatch" and self.is_tree_instance(tag):
                run.fail(f"{tag}: tree formula {got[0]} != oracle {got[1]}")
                continue
            if ref is not None:
                want = expected.get(tag)
                if want is None:
                    run.fail(f"{tag}: not in the reference")
                    continue
                if not (_same(want[0], got[0]) and _same(want[1], got[1])):
                    run.fail(f"{tag}: values {got} differ from reference {want}")
                    continue
            if rec.verdict == "capped":
                run.capped += 1
                if rec.oracle_value is None:
                    run.caps[cap_bucket(rec.oracle.capped_reason)] += 1
            else:
                run.settled += 1
        if ref is not None and ref["body_sha256"] != _sha(report):
            run.notes.append("report body differs from the reference body")
        return self.values(outcome)

    def reference_of(self, outcome) -> dict:
        body, values = self.values(outcome)
        return {"body_sha256": body, "instances": values}


class Explore(Campaign):
    """Glued-cycle explorer over seeded random base trees."""

    name = "explore"
    PASS_S = 7.5

    def inputs(self, seed: int):
        return hpindex.FamilyParams(max_vertices=12, cycle_sizes=(3, 4, 5),
                                    base_tree_source="random", random_bases=12,
                                    seed=seed)

    def call(self, params):
        return hpindex.explore_conclusion(params)

    @staticmethod
    def is_tree_instance(tag: str) -> bool:
        return "+C" not in tag


class VerifyTrees(Campaign):
    """Tree formula against the oracle on every free tree with n <= 12."""

    name = "verify-trees"
    seeded = False
    PASS_S = 5.0

    def inputs(self, seed: int):
        return 12

    def call(self, params):
        return hpindex.verify_trees(params)

    @staticmethod
    def is_tree_instance(tag: str) -> bool:
        return True


# ----------------------------------------------------------------- queries


def random_tree_text(n: int, rng: random.Random) -> str:
    """Edge-list text of a uniform random labeled tree on "1".."n" (Pruefer)."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    lines = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        lines.append(f"{leaf + 1} {v + 1}")
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    lines.append(f"{heapq.heappop(leaves) + 1} {heapq.heappop(leaves) + 1}")
    return "\n".join(lines) + "\n"


def hamiltonian_text(n: int, rng: random.Random) -> str:
    """Edge-list text of the cycle 1..n plus seeded random chords, 1.6n edges."""
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    while len(edges) < n * 8 // 5:
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    return "".join(f"{a} {b}\n" for a, b in sorted(edges))


def stratified_sizes(lo: int, hi: int, per_round: int, rounds: int) -> list[int]:
    """`rounds` copies of `per_round` sizes spread evenly over lo..hi.

    Every seed gets the same multiset of sizes, so seeds differ in tree shape
    only; for costs that grow like n^3 this keeps run totals comparable.
    """
    step = (hi - lo) / max(per_round - 1, 1)
    one = [lo + round(i * step) for i in range(per_round)]
    return one * rounds


class Queries(Workload):
    """Independent queries, each timed around its public call."""

    def query(self, item: dict):
        raise NotImplementedError

    def answer(self, item: dict, out):
        """(value to compare with the reference, settled?, failure note or None)."""
        raise NotImplementedError

    def capped_reason(self, out) -> str:
        raise NotImplementedError

    def warm_up(self, items: list[dict]) -> None:
        for item in items[:3]:
            self.query(item)

    def one_pass(self, items: list[dict], tracer: Tracer | None = None) -> Pass:
        """Run every query once; the outcome is each query's result or exception."""
        timeline = Timeline(tracer)
        outs = []
        if tracer is not None:
            tracer.install()
        try:
            for item in items:
                timeline.mark()
                if tracer is not None:
                    tracer.instance = item["tag"]
                t0 = clock()
                try:
                    out = self.query(item)
                except Exception as exc:  # a failed query is counted, not fatal
                    out = exc
                timeline.unit(clock() - t0)
                outs.append(out)
            timeline.close()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Pass(list(zip(items, outs)), timeline, tracer)

    def _value(self, item: dict, out):
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        return self.answer(item, out)[0]

    def values(self, outcome) -> list:
        return [self._value(item, out) for item, out in outcome]

    def check(self, run: Run, outcome, ref: dict | None) -> list:
        expected = ref["values"] if ref else []
        if ref is not None and len(expected) != len(outcome):
            raise SystemExit(f"reference for {self.name} has {len(expected)} items, "
                             f"the workload {len(outcome)}")
        run.attempted = len(outcome)
        for i, (item, out) in enumerate(outcome):
            if isinstance(out, Exception):
                run.fail(f"{item['tag']}: {self._value(item, out)}")
                continue
            value, settled, problem = self.answer(item, out)
            if problem is None and expected and not _matches(expected[i], value):
                problem = f"value {value} differs from reference {expected[i]}"
            if problem is not None:
                run.fail(f"{item['tag']}: {problem}")
            elif settled:
                run.settled += 1
            else:
                run.capped += 1
                run.caps[cap_bucket(self.capped_reason(out))] += 1
        return self.values(outcome)

    def reference_of(self, outcome) -> dict:
        return {"values": self.values(outcome)}


def _matches(want, got) -> bool:
    if isinstance(want, list):
        return all(_same(w, g) for w, g in zip(want, got))
    return _same(want, got)


class BigTrees(Queries):
    """Closed form on seeded random trees of 50..200 vertices, parsed from text."""

    name = "big-trees"
    PASS_S = 5.5
    ROUNDS = 10

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"big-trees:{seed}")
        sizes = stratified_sizes(50, 200, 12, self.ROUNDS)
        return [{"tag": f"b{i}.n{n}", "text": random_tree_text(n, rng)}
                for i, n in enumerate(sizes)]

    def query(self, item: dict):
        return hpindex.hp_tree(hpindex.from_edge_list(item["text"]))

    def answer(self, item: dict, out):
        if any(v != out.value for _, v in out.per_pair):
            return out.value, True, "per_pair values differ from the index"
        return out.value, True, None


class OracleQueries(Queries):
    """Exact searches and stage-loop oracles on seeded graphs, in this order.

    - One fixed graph of each order 17..24, the same for every seed, a
      hamiltonian cycle plus random chords, gets one traceability (even
      orders) or hamiltonicity (odd orders) query under the default table
      cap with the pre-pass given a single node, so each goes through the
      numpy subset table. The 24-vertex table sets the workload's peak
      memory.
    - Trees with 14..24 vertices get one formula-versus-oracle comparison
      each, and non-path trees with 8..12 vertices one hamiltonian-index
      query each. Their budget caps every search by counts: the subset table
      stops at 16 vertices, larger stages go to backtracking with a node
      budget, and the clock limit is far beyond any run.
    """

    name = "oracle-queries"
    PASS_S = 6.5
    HP_ROUNDS = 80
    H_ROUNDS = 25

    def __init__(self):
        self.budget = hpindex.SearchBudget(dp_vertex_cap=16, node_budget=2_000,
                                           time_limit_s=3600.0)
        self.table_budget = hpindex.SearchBudget(prepass_nodes=1, time_limit_s=3600.0)

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random("oracle-queries:table")
        items = [{"tag": f"t{n}", "kind": "path" if n % 2 == 0 else "cycle",
                  "graph": hpindex.from_edge_list(hamiltonian_text(n, rng))}
                 for n in range(17, 25)]
        rng = random.Random(f"oracle-queries:{seed}")
        for i, n in enumerate(stratified_sizes(14, 24, 11, self.HP_ROUNDS)):
            text = random_tree_text(n, rng)
            items.append({"tag": f"p{i}.n{n}", "kind": "hp",
                          "graph": hpindex.from_edge_list(text)})
        for i, n in enumerate(stratified_sizes(8, 12, 5, self.H_ROUNDS)):
            g = hpindex.from_edge_list(random_tree_text(n, rng))
            while hpindex.is_path(g):  # h is undefined on paths
                g = hpindex.from_edge_list(random_tree_text(n, rng))
            items.append({"tag": f"h{i}.n{n}", "kind": "h", "graph": g,
                          "hp": hpindex.hp_tree(g).value})
        return items

    def query(self, item: dict):
        kind, g = item["kind"], item["graph"]
        if kind == "hp":
            return hpindex.compare_formula_oracle(g, self.budget, item["tag"])
        if kind == "h":
            return hpindex.h_oracle(g, self.budget)
        if kind == "path":
            return hpindex.has_hamiltonian_path(g, self.table_budget)
        return hpindex.has_hamiltonian_cycle(g, self.table_budget)

    def answer(self, item: dict, out):
        kind = item["kind"]
        if kind == "hp":
            value = [out.formula_value, out.oracle_value]
            if out.verdict == "mismatch":
                return value, True, f"tree formula {value[0]} != oracle {value[1]}"
            return value, out.verdict != "capped", None
        if kind == "h":
            if out.value is not None and out.value < item["hp"]:
                return out.value, True, f"h {out.value} below hp {item['hp']}"
            return out.value, out.value is not None, None
        # the graph holds the cycle 1..n by construction
        return out[0], True, None if out[0] else f"no hamiltonian {kind} found"

    def capped_reason(self, out) -> str:
        return (out.oracle if hasattr(out, "oracle") else out).capped_reason or ""


WORKLOADS = {w.name: w for w in (Explore, VerifyTrees, BigTrees, OracleQueries)}
