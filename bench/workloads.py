"""The benchmark's three workloads: instance generation and per-instance checks.

Every instance is one graph taken through a whole check, calling only the
public functions of ``corona_packing``, each through ``t.call`` so that a
traced run attributes its time to a layer.  Each check compares the answer
with an independent reference (classifier against solver, closed form
against solver or construction, witness against the packing checker) and
raises ``CheckFailure`` on any disagreement.

A check returns ``(nodes, witnesses, text_bytes)``: solver nodes of its
unbudgeted ``packing_chromatic_number`` calls, the colorings it produced
(for the witness digest) and the bytes it formatted or parsed.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

from corona_packing import (
    FamilyQuery,
    Outcome,
    SearchBudget,
    classify_oriented_cycle_corona,
    construct_coloring,
    distances,
    enumerate_orientations,
    family_graph,
    find_corona_conflict,
    first_packing_conflict,
    is_compatible,
    is_packing_coloring,
    is_valid_pattern,
    orient,
    packing_chromatic_number,
    parse_pattern,
    pcn_closed_form,
    pcn_oriented_cycle,
    weak_directed_distances,
)
from corona_packing.closed_form import TABLE1, TABLE1_DEFAULTS, pattern_registry
from corona_packing.patterns import Pattern
from corona_packing.textio import (
    format_coloring,
    format_graph,
    parse_coloring,
    parse_graph,
)


class CheckFailure(Exception):
    """An output disagreed with its reference."""


class Instance(NamedTuple):
    label: str
    core: bool  # the same for every seed; its invariants go in the baseline
    check: Callable
    args: tuple


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _build(t, family: str, n: int, p: int):
    q = FamilyQuery(family, n, p)
    return q, t.call("graphs.build", family_graph, q)


def _exact(t, dm, want: int):
    """Unbudgeted exact search; the value must equal ``want`` and the
    witness must pass the packing checker."""
    res = t.call("solver.pcn", packing_chromatic_number, dm)
    expect(res.outcome is Outcome.YES, "solver did not decide")
    expect(res.value == want, f"solver {res.value} != reference {want}")
    expect(t.call("solver.validate", is_packing_coloring, dm, res.witness),
           "solver witness invalid")
    expect(max(res.witness) == res.value, "solver witness uses too many colors")
    return res


# --- oriented-sweep -----------------------------------------------------------

ORIENTED_EXHAUSTIVE = (
    [("cycle", n, 0) for n in range(3, 13)]
    + [("cycle_corona", n, 1) for n in range(3, 7)]
    + [("cycle_corona", 3, 2)]
)
ORIENTED_SAMPLE = 400


def check_orientation(t, og, p: int):
    if p == 0:
        value, witness = t.call("oriented.cycle", pcn_oriented_cycle, og)
    else:
        cls, witness = t.call("oriented.classify", classify_oriented_cycle_corona, og)
        value = cls.value
    dm = t.call("graphs.weak_distances", weak_directed_distances, og)
    expect(t.call("solver.validate", is_packing_coloring, dm, witness),
           "classifier witness invalid")
    expect(max(witness) <= value, "classifier witness uses too many colors")
    res = _exact(t, dm, value)
    return res.nodes, (witness, res.witness), 0


def _random_orientation(t, rng: random.Random, family: str, n: int, p: int):
    """A seeded orientation and its label (direction bits, canonical order)."""
    _, g = _build(t, family, n, p)
    dirs = [rng.random() < 0.5 for _ in range(g.edge_count)]
    og = t.call("graphs.build", orient, g, dirs)
    bits = "".join("1" if d else "0" for d in dirs)
    return og, f"{family}-{n}-{p}:{bits}"


def oriented_sweep(seed: int, t) -> list[Instance]:
    """Every orientation of C_3..C_12, C_3oK1..C_6oK1 and C_3o2K1, plus
    seeded orientations of C_13..C_40 and C_7oK1..C_16oK1."""
    rng = random.Random(seed)
    out = []
    for family, n, p in ORIENTED_EXHAUSTIVE:
        _, g = _build(t, family, n, p)
        ogs = t.call("graphs.build", list, enumerate_orientations(g))
        m = g.edge_count
        out.extend(  # bit e of the counter i flips canonical edge e
            Instance(f"or-{family}-{n}-{p}:{format(i, f'0{m}b')[::-1]}", True,
                     check_orientation, (og, p))
            for i, og in enumerate(ogs)
        )
    for i in range(ORIENTED_SAMPLE):
        # fixed sizes, evenly spread; the seed draws the orientations
        if i % 2:
            family, n, p = "cycle", 13 + (i // 2) % 28, 0
        else:
            family, n, p = "cycle_corona", 7 + (i // 2) % 10, 1
        og, label = _random_orientation(t, rng, family, n, p)
        out.append(Instance(f"or-{label}", False, check_orientation, (og, p)))
    rng.shuffle(out)
    return out


# --- corona-search ------------------------------------------------------------

# Undirected coronae where proving pcn-1 impossible takes a real search.
SEARCH_GRID = (
    [("path_corona", n, 1) for n in range(1, 15)]
    + [("path_corona", n, 2) for n in range(1, 12)]
    + [("path_corona", n, 3) for n in range(1, 10)]
    + [("path_corona", n, p) for p in (4, 5, 6) for n in range(1, 9)]
    + [("cycle_corona", n, 1) for n in range(3, 10)]
    + [("cycle_corona", n, p) for p in (2, 3, 4) for n in range(3, 9)]
    + [("cycle_corona", n, 5) for n in range(3, 8)]
    + [("cycle_corona", n, 6) for n in range(3, 7)]
)
SEARCH_SAMPLE = 24


def check_corona_search(t, q: FamilyQuery, g):
    dm = t.call("graphs.distances", distances, g)
    want = t.call("closed_form.value", pcn_closed_form, q)
    res = _exact(t, dm, want)
    return res.nodes, (res.witness,), 0


def corona_search(seed: int, t) -> list[Instance]:
    """The fixed search grid plus a seeded draw of mid-cost coronae.

    The drawn coronae cost more than the grid's median instance and less
    than its 90th percentile, so both percentiles stay on grid instances.
    """
    rng = random.Random(seed)
    points = [(spec, True) for spec in SEARCH_GRID]
    for i in range(SEARCH_SAMPLE):
        kind = i % 4
        if kind == 0:
            spec = ("path_corona", rng.randint(20, 30), 1)
        elif kind == 1:
            spec = ("cycle_corona", rng.randint(20, 30), 1)
        elif kind == 2:
            spec = ("path_corona", 6, rng.randint(5, 7))
        else:
            spec = ("cycle_corona", 5, rng.randint(5, 7))
        points.append((spec, False))
    out = []
    for (family, n, p), core in points:
        q, g = _build(t, family, n, p)
        out.append(Instance(f"cs-{family}-{n}-{p}", core, check_corona_search, (q, g)))
    rng.shuffle(out)
    return out


# --- cli-pipeline -------------------------------------------------------------

CLI_COLOR = 392  # gen + color on graphs of up to 2,100 vertices
CLI_CHECK = 16  # ... plus check, on graphs of at most CHECK_MAX_V vertices
CLI_PCN = 8  # ... plus pcn where the search is trivial
CLI_ORIENTED = 12  # gen --oriented + pcn + color --oriented on C_n o K1
CLI_COMPAT = 40  # ordered pairs of Table 1 patterns checked for compatibility
CHECK_MAX_V = 600
KINDS = [("path", 0), ("cycle", 0)] + [
    (family, p) for family in ("path_corona", "cycle_corona") for p in range(1, 7)
]
# exact pcn only where the search is trivial: plain, or one pendant
PCN_KINDS = (("path", 0), ("cycle", 0), ("path_corona", 1), ("cycle_corona", 1))
CLI_PCN_CORE = (
    [("path", n, 0) for n in (40, 97)]
    + [("cycle", n, 0) for n in (41, 96)]
    + [("path_corona", n, 1) for n in (13, 30)]
    + [("cycle_corona", n, 1) for n in (14, 29)]
)


def _mutant(colors) -> tuple:
    """Give vertex 1 the color of its neighbor 0: always a packing conflict."""
    return (colors[0], colors[0]) + tuple(colors[2:])


def check_cli_graph(t, q: FamilyQuery, g, check: bool, exact: bool):
    """``gen`` then ``color``; optionally ``check`` (file round trip and BFS
    distances) and ``pcn`` (exact search on the parsed file)."""
    text = t.call("textio.format", format_graph, g)
    nbytes = len(text)
    colors = t.call("closed_form.construct", construct_coloring, q)
    want = t.call("closed_form.value", pcn_closed_form, q)
    expect(t.call("graphs.corona_check", find_corona_conflict, q.layout, colors)
           is None, "construction has a conflict")
    expect(max(colors) == want and len(set(colors)) == want,
           "construction does not use exactly the closed-form colors")
    bad = _mutant(colors)
    expect(t.call("graphs.corona_check", find_corona_conflict, q.layout, bad)
           is not None, "corona checker missed a conflict")
    ctext = t.call("textio.format", format_coloring, colors)
    nbytes += len(ctext)
    witnesses = [colors]
    nodes = 0
    if check or exact:
        g2 = t.call("textio.parse", parse_graph, text)
        nbytes += len(text)
        expect(g2.edges == g.edges, "graph file round trip changed the graph")
        dm = t.call("graphs.distances", distances, g2)
    if check:
        c2 = t.call("textio.parse", parse_coloring, ctext, g.vertex_count)
        nbytes += len(ctext)
        expect(c2 == colors, "coloring file round trip changed the coloring")
        expect(t.call("solver.validate", first_packing_conflict, dm, c2) is None,
               "packing checker rejects the construction")
        expect(t.call("solver.validate", first_packing_conflict, dm, bad)
               is not None, "packing checker missed a conflict")
    if exact:
        res = _exact(t, dm, want)
        nodes = res.nodes
        out = t.call("textio.format", format_coloring, res.witness)
        nbytes += len(out)
        witnesses.append(res.witness)
    return nodes, tuple(witnesses), nbytes


def check_cli_oriented(t, og):
    """``gen --oriented`` | ``pcn -`` against ``color --oriented``."""
    text = t.call("textio.format", format_graph, og)
    og2 = t.call("textio.parse", parse_graph, text)
    expect(og2.arcs == og.arcs, "oriented file round trip changed the arcs")
    dm = t.call("graphs.weak_distances", weak_directed_distances, og2)
    cls, witness = t.call("oriented.classify", classify_oriented_cycle_corona, og)
    expect(t.call("solver.validate", is_packing_coloring, dm, witness),
           "classifier witness invalid")
    res = _exact(t, dm, cls.value)
    out = t.call("textio.format", format_coloring, res.witness)
    return res.nodes, (witness, res.witness), 2 * len(text) + len(out)


def check_pattern_valid(t, pat: Pattern, p: int, defaults, bad):
    expect(t.call("patterns.check", is_valid_pattern, pat, p, defaults),
           "stored pattern rejected")
    if bad is not None:
        expect(not t.call("patterns.check", is_valid_pattern, bad, p, defaults),
               "pattern check missed a conflict")
    return 0, (), 0


def check_pattern_compatible(t, u: Pattern, v: Pattern, p: int, defaults):
    expect(t.call("patterns.check", is_compatible, u, v, p, defaults),
           "stored pair reported incompatible")
    return 0, (), 0


def _color_queries(rng: random.Random) -> list[tuple[str, int, int]]:
    """Every kind, at n drawn from each of CLI_COLOR // len(KINDS) equal
    bands of 3..300."""
    bands = CLI_COLOR // len(KINDS)
    width = 298 / bands
    return [
        (family, 3 + int(b * width + rng.random() * width), p)
        for family, p in KINDS
        for b in range(bands)
    ]


def _check_queries(rng: random.Random) -> list[tuple[str, int, int]]:
    """Vertex counts spread over 150..600, each within 10% below its target."""
    out = []
    for i in range(CLI_CHECK):
        family, p = KINDS[i % len(KINDS)]
        target = 150 + (CHECK_MAX_V - 150) * i // (CLI_CHECK - 1)
        n = max(3, int(target / (1 + p) * rng.uniform(0.9, 1.0)))
        out.append((family, n, p))
    return out


def cli_pipeline(seed: int, t) -> list[Instance]:
    """The README's CLI flows on large graphs, plus the stored pattern
    library (every pattern valid, sampled Table 1 pairs compatible)."""
    rng = random.Random(seed)
    out = []
    graphs = [(spec, False, True, True) for spec in CLI_PCN_CORE]
    graphs += [(spec, False, False, False) for spec in _color_queries(rng)]
    graphs += [(spec, True, False, False) for spec in _check_queries(rng)]
    for i in range(CLI_PCN):
        family, p = PCN_KINDS[i % len(PCN_KINDS)]
        n = rng.randint(60, 100) if p == 0 else rng.randint(20, 30)
        graphs.append(((family, n, p), False, True, False))
    for (family, n, p), check, exact, core in graphs:
        q, g = _build(t, family, n, p)
        out.append(Instance(f"cli-{family}-{n}-{p}", core, check_cli_graph,
                            (q, g, check, exact)))
    for i in range(CLI_ORIENTED):
        og, label = _random_orientation(t, rng, "cycle_corona", 8 + 3 * i, 1)
        out.append(Instance(f"cli-or-{label}", False, check_cli_oriented, (og,)))
    for name, text, p, defaults in pattern_registry():
        pat = parse_pattern(text)
        bad = None
        if len(pat) >= 2:
            bad = Pattern((pat.tokens[1],) + pat.tokens[1:], pat.circular)
        out.append(Instance(f"pat-{name}", True, check_pattern_valid,
                            (pat, p, defaults, bad)))
    table = {n: parse_pattern(f"[{text}]") for n, text in TABLE1.items()}
    for a, b in rng.sample([(a, b) for a in table for b in table], CLI_COMPAT):
        out.append(Instance(f"compat-table1-{a}-{b}", False,
                            check_pattern_compatible,
                            (table[a], Pattern(table[b].tokens), 3, TABLE1_DEFAULTS)))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "oriented-sweep": oriented_sweep,
    "corona-search": corona_search,
    "cli-pipeline": cli_pipeline,
}


# --- budget probe -------------------------------------------------------------

PROBE = ("cycle_corona", 150, 3)
PROBE_LIMIT_S = 0.25
PROBE_CALLS = 9


def probe_matrix():
    """The intractable corona the budget probe searches, and its distances."""
    q = FamilyQuery(*PROBE)
    return q, distances(family_graph(q))


def probe_call(q: FamilyQuery, dm) -> tuple[float, bool]:
    """One budgeted search: seconds past ``time_limit``, and whether the
    answer is right (INDETERMINATE, or a validated optimal coloring).

    Not an instance: kept out of throughput, latency and node counts.
    """
    budget = SearchBudget(time_limit=PROBE_LIMIT_S)
    start = time.perf_counter()
    res = packing_chromatic_number(dm, budget)
    overrun = time.perf_counter() - start - PROBE_LIMIT_S
    if res.outcome is Outcome.YES:
        ok = res.value == pcn_closed_form(q) and is_packing_coloring(dm, res.witness)
    else:
        ok = res.outcome is Outcome.INDETERMINATE
    return overrun, ok
