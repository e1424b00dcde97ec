"""Command-line surface.

Exit codes: 0 success, 1 computational cap (budget or size limit), 2 usage,
parse, or precondition error. Results go to stdout, diagnostics to stderr.

Graphs are read from FILE ("-" for stdin) as edge-list text by default or
graph6 with --format graph6. Output takes one of three paths: graphs
(`_cmd_graphs`, edge-list text unless --json or --dot asks otherwise;
`enum trees` streams one graph6 line per tree so large batches stay
greppable), values (`_cmd_value`, every `hp` and `h` query) and reports
(`_cmd_report`, every `verify` and `explore` campaign). `branches` and
`domtrail` print shapes of their own.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .branches import absorption_time, branches
from .campaigns import (
    VERDICTS,
    CampaignReport,
    explore_conclusion,
    verify_hnw,
    verify_trees,
    verify_xiongzong,
)
from .errors import CappedError, EdgeListParseError, PreconditionError, ValidationError
from .formula import hp_blockchain_conjecture, hp_tree
from .generators import FamilyParams, enumerate_free_trees, random_tree
from .graphs import Graph
from .io import from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from .linegraph import DEFAULT_ITERATION_BUDGET, IterationBudget, iterate
from .oracles import h_oracle, has_dominating_trail, hp_oracle
from .version import __version__


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.file).read_text()
    if args.format == "graph6":
        return from_graph6(text)
    return from_edge_list(text)


def _graph_json(g: Graph) -> dict:
    return {
        "vertex_count": g.n,
        "edge_count": g.m,
        "vertices": list(g.labels),
        "edges": [list(e) for e in g.label_edges()],
    }


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_graphs(args: argparse.Namespace) -> int:
    for name, g in args.graphs(args):
        if args.json:
            _print_json(_graph_json(g))
        elif args.dot:
            sys.stdout.write(to_dot(g, name))
        else:
            sys.stdout.write(args.text(g))
    return 0


def _iterated(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    budget = IterationBudget(max_vertices=args.max_v, max_edges=args.max_e)
    return [("G", iterate(_read_graph(args), args.n, budget))]


def _emit_report(report: CampaignReport, args: argparse.Namespace) -> None:
    if args.json:
        _print_json(report.to_json_dict())
        return
    print(f"campaign {report.campaign} (version {__version__})")
    for key, value in sorted(report.parameters.items()):
        print(f"  {key} = {value}")
    if report.seed is not None:
        print(f"  seed = {report.seed}")
    print(f"instances {report.instances}")
    print("  " + "  ".join(f"{v} {report.counts[v]}" for v in VERDICTS))
    if report.witnesses:
        print("witnesses:")
        for w in report.witnesses:
            if "formula_value" in w:
                values = f"formula={w['formula_value']} oracle={w['oracle_value']}"
            else:  # a trail campaign's witness
                kind = next(k for k in w if k.startswith("dominating_"))
                values = f"{kind}={w[kind]} line_graph_ok={w['line_graph_ok']}"
            print(f"  {w['family_tag']}: {values}")
    print(f"wall clock {report.wall_clock_s:.2f}s")


def _cmd_report(args: argparse.Namespace) -> int:
    _emit_report(args.report(args), args)
    return 0


def _explore_report(args: argparse.Namespace) -> CampaignReport:
    try:
        sizes = tuple(int(tok) for tok in args.cycles.split(",") if tok)
    except ValueError as exc:
        raise ValidationError(f"bad --cycles value {args.cycles!r}") from exc
    return explore_conclusion(FamilyParams(max_vertices=args.max_v, cycle_sizes=sizes))


def _cmd_branches(args: argparse.Namespace) -> int:
    found = branches(_read_graph(args))
    if args.json:
        _print_json([
            {
                "vertices": list(b.vertices),
                "edge_count": b.edge_count,
                "is_bridge_branch": b.is_bridge_branch,
                "is_pendant_branch": b.is_pendant_branch,
                "absorption_time": absorption_time(b) if b.is_bridge_branch else None,
            }
            for b in found
        ])
        return 0
    for b in found:
        line = f"{'-'.join(b.vertices)} edges={b.edge_count}"
        if b.is_bridge_branch:
            line += f" bridge k={absorption_time(b)}"
            if b.is_pendant_branch:
                line += " pendant"
        print(line)
    return 0


def _cmd_value(args: argparse.Namespace) -> int:
    res = args.compute(_read_graph(args))
    if args.json:
        _print_json(res.to_json_dict())
    else:
        print("capped" if res.value is None else res.value)
    return 1 if res.value is None else 0


def _cmd_domtrail(args: argparse.Namespace) -> int:
    ok, walk = has_dominating_trail(_read_graph(args), closed=args.closed)
    if args.json:
        _print_json({
            "exists": ok,
            "closed": args.closed,
            "witness": None if walk is None else list(walk),
        })
    elif ok:
        print("yes: " + " ".join(walk))
    else:
        print("no")
    return 0


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", metavar="FILE", help="input graph, '-' for stdin")
    p.add_argument("--format", choices=("edgelist", "graph6"),
                   default="edgelist", help="input format")


def _add_output_args(p: argparse.ArgumentParser, dot: bool = False) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    if dot:
        group.add_argument("--dot", action="store_true", help="emit DOT text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpindex",
        description="hamiltonian path index of iterated line graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse, validate, and reserialize a graph")
    _add_input_args(p)
    _add_output_args(p, dot=True)
    p.set_defaults(func=_cmd_graphs, graphs=lambda args: [("G", _read_graph(args))],
                   text=to_edge_list)

    # `line` is `iterate` with n fixed at 1, under the same budget; `iterate`
    # requires -n, which overrides that default
    for name, blurb in (("line", "line graph"), ("iterate", "n-fold line graph")):
        p = sub.add_parser(name, help=blurb)
        if name == "iterate":
            p.add_argument("-n", type=int, required=True, help="iteration count")
        p.add_argument("--max-v", type=int, default=DEFAULT_ITERATION_BUDGET.max_vertices,
                       help="vertex budget per stage")
        p.add_argument("--max-e", type=int, default=DEFAULT_ITERATION_BUDGET.max_edges,
                       help="edge budget per stage")
        _add_input_args(p)
        _add_output_args(p, dot=True)
        p.set_defaults(func=_cmd_graphs, graphs=_iterated, text=to_edge_list, n=1)

    p = sub.add_parser("branches", help="branch decomposition")
    _add_input_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_branches)

    for group, group_blurb, queries in (
            ("hp", "hamiltonian path index", (
                ("tree", hp_tree, "closed-form value for trees"),
                ("oracle", hp_oracle, "exact value by iterated search"),
                ("conjecture", hp_blockchain_conjecture,
                 "conjectural value for graphs with spanning-cycle 2-blocks"))),
            ("h", "hamiltonian index", (
                ("oracle", h_oracle, "exact value by iterated search"),))):
        group_sub = sub.add_parser(group, help=group_blurb).add_subparsers(
            dest="subcommand", required=True)
        for name, compute, blurb in queries:
            p = group_sub.add_parser(name, help=blurb)
            _add_input_args(p)
            _add_output_args(p)
            p.set_defaults(func=_cmd_value, compute=compute)

    p = sub.add_parser("domtrail", help="dominating trail search")
    p.add_argument("--closed", action="store_true", help="require a closed trail")
    _add_input_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_domtrail)

    verify = sub.add_parser("verify", help="verification campaigns")
    verify_sub = verify.add_subparsers(dest="family", required=True)
    for name, campaign, blurb in (
            ("trees", verify_trees,
             "tree formula versus oracle, all trees up to --max-n"),
            ("xiongzong", verify_xiongzong,
             "dominating trail iff line graph traceable"),
            ("hnw", verify_hnw,
             "dominating closed trail iff line graph hamiltonian")):
        p = verify_sub.add_parser(name, help=blurb)
        p.add_argument("--max-n", type=int, required=True, dest="max_n")
        _add_output_args(p)
        p.set_defaults(func=_cmd_report,
                       report=lambda args, campaign=campaign: campaign(args.max_n))

    explore = sub.add_parser("explore", help="counterexample hunts")
    explore_sub = explore.add_subparsers(dest="subcommand", required=True)
    p = explore_sub.add_parser(
        "conclusion", help="formula versus oracle over the glued-cycle family")
    p.add_argument("--max-v", type=int, required=True, help="vertex cap")
    p.add_argument("--cycles", required=True, help="comma-separated cycle sizes")
    _add_output_args(p)
    p.set_defaults(func=_cmd_report, report=_explore_report)

    gen = sub.add_parser("gen", help="seeded random instances")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    p = gen_sub.add_parser("tree", help="uniform random labeled tree")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, dot=True)
    p.set_defaults(func=_cmd_graphs, text=to_edge_list,
                   graphs=lambda args: [("G", random_tree(args.n, args.seed))])

    enum = sub.add_parser("enum", help="exhaustive streams")
    enum_sub = enum.add_subparsers(dest="subcommand", required=True)
    p = enum_sub.add_parser("trees", help="one tree per isomorphism class")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    _add_output_args(p, dot=True)
    p.set_defaults(func=_cmd_graphs, text=lambda tree: to_graph6(tree) + "\n",
                   graphs=lambda args: ((f"T{i}", tree) for i, tree
                                        in enumerate(enumerate_free_trees(args.n))))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, ValidationError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CappedError as exc:
        print(f"capped: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
