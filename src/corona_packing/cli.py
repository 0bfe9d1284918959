"""Command-line surface: generate, solve, check, color, verify, export.

Exit codes: 0 success, 1 property failure, 2 input error, 3 indeterminate.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import closed_form
from .closed_form import FamilyQuery, construct_coloring, family_graph
from .graphs import (
    Graph,
    GraphError,
    OrientedGraph,
    distances,
    find_corona_conflict,
    orient,
    weak_directed_distances,
)
from .oriented import (
    WitnessError,
    classify_oriented_cycle_corona,
    color_oriented_path_corona,
    color_oriented_tree,
    pcn_oriented_cycle,
    pcn_oriented_path,
)
from .patterns import PatternError, is_compatible, is_valid_pattern, parse_pattern
from .solver import Outcome, SearchBudget, first_packing_conflict, packing_chromatic_number
from .textio import (
    TextFormatError,
    format_coloring,
    format_graph,
    parse_coloring,
    parse_graph,
    to_dot,
)
from .verify import SUITES, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INDET = 0, 1, 2, 3
# largest graph file accepted; pcn, check and export-dot are O(V^2) in memory
MAX_VERTICES = 5000

FAMILIES = {family.replace("_", "-"): family for family in closed_form.FAMILIES}


def _read(path_arg: str) -> str:
    if path_arg == "-":
        return sys.stdin.read()
    return Path(path_arg).read_text()


def _read_graph(path_arg: str) -> Graph | OrientedGraph:
    g = parse_graph(_read(path_arg))
    if g.vertex_count > MAX_VERTICES:
        raise ValueError(
            f"graph has {g.vertex_count} vertices; the limit is {MAX_VERTICES}"
        )
    return g


def _build_graph(args) -> Graph | OrientedGraph:
    family = FAMILIES[args.family]
    q = FamilyQuery(family, args.n, args.p if family.endswith("corona") else 0)
    g = family_graph(q)
    if not args.oriented:
        if args.dirs:
            raise ValueError("--dirs needs --oriented")
        return g
    if args.dirs is None:
        raise ValueError("--oriented needs --dirs (a 0/1 string per edge)")
    if len(args.dirs) != g.edge_count or set(args.dirs) - {"0", "1"}:
        raise ValueError(f"--dirs must be {g.edge_count} characters of 0/1")
    return orient(g, [c == "1" for c in args.dirs])


def cmd_gen(args) -> int:
    sys.stdout.write(format_graph(_build_graph(args)))
    return EXIT_OK


def cmd_pcn(args) -> int:
    start = time.perf_counter()
    budget = SearchBudget(
        max_color=args.max_color,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )
    g = _read_graph(args.graph)
    dm = weak_directed_distances(g) if isinstance(g, OrientedGraph) else distances(g)
    if budget.time_limit is not None:  # the limit covers reading and distances too
        spent = time.perf_counter() - start
        budget = replace(budget, time_limit=max(0.0, budget.time_limit - spent))
    res = packing_chromatic_number(dm, budget)
    if res.outcome is not Outcome.YES:
        print("INDETERMINATE: search budget exhausted")
        return EXIT_INDET
    print(f"pcn={res.value}")
    sys.stdout.write(format_coloring(res.witness))
    return EXIT_OK


def cmd_check(args) -> int:
    g = _read_graph(args.graph)
    coloring = parse_coloring(_read(args.coloring), g.vertex_count)
    dm = weak_directed_distances(g) if isinstance(g, OrientedGraph) else distances(g)
    conflict = first_packing_conflict(dm, coloring)
    if conflict is None:
        print("valid")
        return EXIT_OK
    u, v, d = conflict
    print(f"invalid: vertices {u} and {v} share color {coloring[u]} at distance {d}")
    return EXIT_FAIL


def cmd_color(args) -> int:
    if args.family == "tree":
        if not args.oriented or not args.input:
            raise ValueError("tree coloring needs --oriented and --input FILE")
        g = _read_graph(args.input)
        if not isinstance(g, OrientedGraph):
            raise ValueError("tree input must be an oriented graph file")
        sys.stdout.write(format_coloring(color_oriented_tree(g)))
        return EXIT_OK
    if args.n is None:
        raise ValueError("n is required for this family")
    g = _build_graph(args)
    if isinstance(g, OrientedGraph):
        family = FAMILIES[args.family]
        if family == "path_corona":
            coloring = color_oriented_path_corona(g)
        elif family == "cycle_corona":
            coloring = classify_oriented_cycle_corona(g)[1]
        elif family == "path":
            coloring = pcn_oriented_path(g)[1]
        else:
            coloring = pcn_oriented_cycle(g)[1]
    else:
        family = FAMILIES[args.family]
        q = FamilyQuery(family, args.n, args.p if family.endswith("corona") else 0)
        coloring = construct_coloring(q)
        conflict = find_corona_conflict(q.layout, coloring)
        if conflict is not None:
            raise WitnessError(f"construction failed validation: {conflict}")
    sys.stdout.write(format_coloring(coloring))
    return EXIT_OK


def cmd_pattern(args) -> int:
    defaults = tuple(int(c) for c in args.defaults) if args.defaults else None
    if args.mode == "validate":
        pat = parse_pattern(args.text[0])
        ok = is_valid_pattern(pat, args.p, defaults)
    else:
        if len(args.text) != 2:
            raise ValueError("compatible mode takes two patterns")
        u = parse_pattern(args.text[0])
        v = parse_pattern(args.text[1])
        ok = is_compatible(u, v, args.p, defaults)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.suite == "all":
        suites.remove("stretch")
    worst = EXIT_OK
    for sid in suites:
        result = run_suite(sid, max_n=args.max_n, seed=args.seed)
        for point in result.points:
            line = f"{point.status} {sid}: {point.point}"
            if point.detail:
                line += f" ({point.detail})"
            print(line)
        print(
            f"suite {sid}: {len(result.points)} points, "
            f"{result.failed} failed, {result.indeterminate} indeterminate"
        )
        if result.failed:
            worst = EXIT_FAIL
        elif result.indeterminate and worst == EXIT_OK:
            worst = EXIT_INDET
    return worst


def cmd_export_dot(args) -> int:
    g = _read_graph(args.graph)
    coloring = None
    if args.coloring:
        coloring = parse_coloring(_read(args.coloring), g.vertex_count)
    sys.stdout.write(to_dot(g, coloring))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corona-packing",
        description="Packing colorings of coronae of paths and cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a graph file")
    gen.add_argument("family", choices=sorted(FAMILIES))
    gen.add_argument("n", type=int)
    gen.add_argument("p", type=int, nargs="?", default=1)
    gen.add_argument("--oriented", action="store_true")
    gen.add_argument("--dirs", help="edge direction bits, canonical edge order")
    gen.set_defaults(func=cmd_gen)

    pcn = sub.add_parser("pcn", help="exact packing chromatic number of a file")
    pcn.add_argument("graph")
    pcn.add_argument("--max-color", type=int, default=None)
    pcn.add_argument("--node-limit", type=int, default=10**9)
    pcn.add_argument("--time-limit", type=float, default=None)
    pcn.set_defaults(func=cmd_pcn)

    chk = sub.add_parser("check", help="validate a coloring file against a graph")
    chk.add_argument("graph")
    chk.add_argument("coloring")
    chk.set_defaults(func=cmd_check)

    col = sub.add_parser("color", help="emit a constructed coloring")
    col.add_argument("family", choices=sorted(FAMILIES) + ["tree"])
    col.add_argument("n", type=int, nargs="?")
    col.add_argument("p", type=int, nargs="?", default=1)
    col.add_argument("--oriented", action="store_true")
    col.add_argument("--dirs")
    col.add_argument("--input", help="graph file (tree coloring)")
    col.set_defaults(func=cmd_color)

    pat = sub.add_parser("pattern", help="validate or compare patterns")
    pat.add_argument("mode", choices=["validate", "compatible"])
    pat.add_argument("text", nargs="+")
    pat.add_argument("-p", type=int, required=True, dest="p")
    pat.add_argument("--defaults", help="pendant colors for bare 1-tokens")
    pat.set_defaults(func=cmd_pattern)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", help="suite id or 'all'")
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    dot = sub.add_parser("export-dot", help="emit DOT, optionally colored")
    dot.add_argument("graph")
    dot.add_argument("--coloring")
    dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TextFormatError, PatternError, GraphError, ValueError, KeyError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WitnessError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
