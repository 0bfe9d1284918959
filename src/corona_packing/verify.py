"""Desk-scale verification suites for every stored closed form and
classification: constructive colorings re-checked, exact search compared
against the tables, exhaustive orientation sweeps on small coronae."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import closed_form as cf
from .closed_form import FamilyQuery, construct_coloring, family_graph, pcn_closed_form
from .graphs import (
    Graph,
    corona,
    cycle,
    distances,
    enumerate_orientations,
    find_corona_conflict,
    orient,
    path,
    weak_directed_distances,
)
from .oriented import (
    ScpConfig,
    classify_oriented_cycle_corona,
    color_oriented_path_corona,
    color_oriented_tree,
    is_pcn_two,
    pcn_oriented_cycle,
    pcn_oriented_path,
    property_p_holds,
    scp,
    scp_endpoint_color,
)
from .patterns import Pattern, is_compatible, is_valid_pattern, parse_pattern
from .solver import (
    Outcome,
    SearchBudget,
    exists_packing_k_coloring,
    is_packing_coloring,
    packing_chromatic_number,
)

PASS, FAIL, INDETERMINATE = "PASS", "FAIL", "INDETERMINATE"


@dataclass(frozen=True)
class PointResult:
    point: str
    status: str
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    points: list[PointResult] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.points if p.status == FAIL)

    @property
    def indeterminate(self) -> int:
        return sum(1 for p in self.points if p.status == INDETERMINATE)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.indeterminate == 0


def _run(suite: str,
         jobs: list[tuple[str, Callable[[], Optional[str]]]]) -> SuiteResult:
    """Run labeled checks in order; a check returns None (pass), a failure
    message, or raises."""

    def attempt(job):
        label, fn = job
        try:
            detail = fn()
        except Exception as exc:  # a crashed check is a failure, not an abort
            return PointResult(label, FAIL, f"{type(exc).__name__}: {exc}")
        if detail is None:
            return PointResult(label, PASS)
        if detail.startswith(INDETERMINATE):
            return PointResult(label, INDETERMINATE, detail)
        return PointResult(label, FAIL, detail)

    return SuiteResult(suite, [attempt(job) for job in jobs])


def _check_construction(q: FamilyQuery) -> Optional[str]:
    col = construct_coloring(q)
    conflict = find_corona_conflict(q.layout, col)
    if conflict is not None:
        return f"conflict {conflict}"
    want = pcn_closed_form(q)
    used = len(set(col))
    if used != want:
        return f"uses {used} colors, closed form says {want}"
    return None


def _check_solver_value(q: FamilyQuery, budget=None) -> Optional[str]:
    res = packing_chromatic_number(distances(family_graph(q)), budget)
    if res.outcome is not Outcome.YES:
        return f"{INDETERMINATE}: search budget exhausted"
    want = pcn_closed_form(q)
    if res.value != want:
        return f"solver found {res.value}, closed form says {want}"
    return None


def _family_suite(suite, family, p_values, ctor_max, solver_max, solver_ps=None):
    jobs = []
    n0 = 1 if family.startswith("path") else 3
    for p in p_values:
        for n in range(n0, ctor_max + 1):
            q = FamilyQuery(family, n, p)
            jobs.append((f"construct n={n} p={p}",
                         lambda q=q: _check_construction(q)))
    for p in (solver_ps if solver_ps is not None else p_values):
        for n in range(n0, solver_max + 1):
            q = FamilyQuery(family, n, p)
            jobs.append((f"solver n={n} p={p}",
                         lambda q=q: _check_solver_value(q)))
    return _run(suite, jobs)


def suite_plain(max_n=None, seed=0) -> SuiteResult:
    top = max_n or 13
    jobs = []
    for n in range(1, top + 1):
        q = FamilyQuery("path", n)
        jobs.append((f"path n={n}", lambda q=q: _check_construction(q)))
        jobs.append((f"path solver n={n}", lambda q=q: _check_solver_value(q)))
    for n in range(3, top + 1):
        q = FamilyQuery("cycle", n)
        jobs.append((f"cycle n={n}", lambda q=q: _check_construction(q)))
        jobs.append((f"cycle solver n={n}", lambda q=q: _check_solver_value(q)))
    return _run("plain", jobs)


def suite_CrPn(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("CrPn", "path_corona", (1,), max_n or 40, 12)


def suite_CrCn(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("CrCn", "cycle_corona", (1,), max_n or 40, 8)


def suite_Pn2K1(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("Pn2K1", "path_corona", (2,), max_n or 40, 12)


def suite_Pn3K1(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("Pn3K1", "path_corona", (3,), max_n or 40, 10)


def suite_PnpK1(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("PnpK1", "path_corona", (4, 5, 6), max_n or 40, 7,
                         solver_ps=(4,))


def suite_Cn2K1(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("Cn2K1", "cycle_corona", (2,), max_n or 40, 7)


def suite_Cn3K1(max_n=None, seed=0) -> SuiteResult:
    result = _family_suite("Cn3K1", "cycle_corona", (3,), max_n or 45, 7)
    jobs = []
    for n in sorted(cf.CYCLE_P3_EXCEPTIONS | {92, 105, 119}):
        q = FamilyQuery("cycle_corona", n, 3)
        jobs.append((f"construct exception n={n}",
                     lambda q=q: _check_construction(q)))
    result.points.extend(_run("Cn3K1", jobs).points)
    return result


def suite_Cn4K1(max_n=None, seed=0) -> SuiteResult:
    return _family_suite("Cn4K1", "cycle_corona", (4, 5, 6), max_n or 40, 7,
                         solver_ps=(4,))


def suite_table1(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    pats = {n: parse_pattern(f"[{text}]") for n, text in cf.TABLE1.items()}
    for n, pat in sorted(pats.items()):
        jobs.append((
            f"valid n={n}",
            lambda pat=pat: None if is_valid_pattern(pat, 3, cf.TABLE1_DEFAULTS)
            else "pattern invalid",
        ))
    for a, pa in sorted(pats.items()):
        for b, pb in sorted(pats.items()):
            jobs.append((
                f"compatible {a}+{b}",
                lambda pa=pa, pb=pb: None if is_compatible(
                    pa, Pattern(pb.tokens), 3, cf.TABLE1_DEFAULTS)
                else "incompatible",
            ))
    return _run("table1", jobs)


def suite_patterns(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    for name, text, p, defaults in cf.pattern_registry():
        pat = parse_pattern(text)
        jobs.append((
            name,
            lambda pat=pat, p=p, defaults=defaults: None
            if is_valid_pattern(pat, p, defaults) else "pattern invalid",
        ))
    for name, base_text, p, defaults in (
        ("self-compat p2 base", cf.CYCLE_P2_BASE, 2, None),
        ("self-compat p4 base", cf.CYCLE_P4_BASE, 4, None),
        ("self-compat table1-14", f"[{cf.TABLE1[14]}]", 3, cf.TABLE1_DEFAULTS),
    ):
        base = parse_pattern(base_text)
        jobs.append((
            name,
            lambda base=base, p=p, defaults=defaults: None
            if is_compatible(base, Pattern(base.tokens), p, defaults)
            else "not self-compatible",
        ))
    return _run("patterns", jobs)


def suite_forced(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    grid = [("path_corona", n, p) for n in (3, 4, 5) for p in (1, 2, 3)]
    grid += [("cycle_corona", n, p) for n in (3, 4, 5) for p in (1, 2)]

    def check(family, n, p):
        q = FamilyQuery(family, n, p)
        res = packing_chromatic_number(distances(family_graph(q)))
        if res.outcome is not Outcome.YES:
            return f"{INDETERMINATE}: budget"
        spine_ones = [i for i in range(n) if res.witness[i] == 1]
        if not spine_ones:
            return None
        if family == "cycle_corona" or any(0 < i < n - 1 for i in spine_ones):
            bound = cf.forced_color_lower_bound(q, color1_interior=True)
        else:
            bound = cf.forced_color_lower_bound(q, color1_endpoint=True)
        if res.value < bound:
            return f"optimal {res.value} beats forced bound {bound}"
        return None

    for family, n, p in grid:
        jobs.append((f"{family} n={n} p={p}",
                     lambda f=family, n=n, p=p: check(f, n, p)))
    return _run("forced", jobs)


def suite_caterpillar_bound(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    for p in (4, 5, 6):
        for n in range(1, (max_n or 60) + 1):
            def check(n=n, p=p):
                q = FamilyQuery("path_corona", n, p)
                col = construct_coloring(q)
                cap = 6 if n <= 34 else 7
                if len(set(col)) > cap:
                    return f"caterpillar bound {cap} exceeded"
                return _check_construction(q)
            jobs.append((f"n={n} p={p}", check))
    return _run("caterpillar-bound", jobs)


def suite_orPn(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    for n in range(1, (max_n or 10) + 1):
        def check(n=n):
            for og in enumerate_orientations(path(n)):
                value, witness = pcn_oriented_path(og)
                dm = weak_directed_distances(og)
                if not is_packing_coloring(dm, witness):
                    return f"invalid witness {witness}"
                truth = packing_chromatic_number(dm)
                if truth.outcome is not Outcome.YES:
                    return f"{INDETERMINATE}: budget"
                if truth.value != value:
                    return f"value {value} but solver {truth.value}"
                if n > 1 and (value == 2) != is_pcn_two(og):
                    return "two-characterization mismatch"
            return None
        jobs.append((f"n={n}", check))
    return _run("orPn", jobs)


def suite_orCn(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    for n in range(3, (max_n or 10) + 1):
        def check(n=n):
            for og in enumerate_orientations(cycle(n)):
                value, witness = pcn_oriented_cycle(og)
                dm = weak_directed_distances(og)
                if not is_packing_coloring(dm, witness):
                    return f"invalid witness {witness}"
                truth = packing_chromatic_number(dm)
                if truth.value != value:
                    return f"value {value} but solver {truth.value}"
            return None
        jobs.append((f"n={n}", check))
    return _run("orCn", jobs)


def suite_orPnpK1(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    for n, p in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2)):
        def check(n=n, p=p):
            for og in enumerate_orientations(corona("path", n, p)):
                col = color_oriented_path_corona(og)
                dm = weak_directed_distances(og)
                if not is_packing_coloring(dm, col):
                    return f"invalid witness {col}"
                if not property_p_holds(og, col):
                    return "property (P) broken"
                value = 2 if is_pcn_two(og) else 3
                truth = packing_chromatic_number(dm)
                if truth.value > 3 or (truth.value == 2) != (value == 2):
                    return f"classification {value} vs solver {truth.value}"
            return None
        jobs.append((f"exhaustive n={n} p={p}", check))
    rng = random.Random(seed)
    for trial in range(20):
        n, p = rng.randint(4, max_n or 12), rng.randint(1, 3)

        def check_random(n=n, p=p, bits=rng.getrandbits(64)):
            g = corona("path", n, p)
            dirs = [bool(bits >> i & 1) for i in range(g.edge_count)]
            og = orient(g, dirs)
            col = color_oriented_path_corona(og)
            if not is_packing_coloring(weak_directed_distances(og), col):
                return "invalid witness"
            if not property_p_holds(og, col):
                return "property (P) broken"
            return None
        jobs.append((f"random trial={trial} n={n} p={p}", check_random))
    return _run("orPnpK1", jobs)


def suite_orCnpK1(max_n=None, seed=0) -> SuiteResult:
    jobs = []
    grid = [(n, 1) for n in range(3, (max_n or 5) + 1)] + [(3, 2)]

    def check(n, p):
        for og in enumerate_orientations(corona("cycle", n, p)):
            cls, witness = classify_oriented_cycle_corona(og)
            dm = weak_directed_distances(og)
            if not is_packing_coloring(dm, witness):
                return "invalid witness"
            if len(set(witness)) != cls.value:
                return f"witness size {len(set(witness))} != {cls.value}"
            truth = packing_chromatic_number(dm)
            if truth.value != cls.value:
                return f"classified {cls.value} but solver {truth.value}"
        return None

    for n, p in grid:
        jobs.append((f"exhaustive n={n} p={p}", lambda n=n, p=p: check(n, p)))
    return _run("orCnpK1", jobs)


def suite_orTree(max_n=None, seed=0) -> SuiteResult:
    rng = random.Random(seed)
    jobs = []
    for trial in range(100):
        nv = rng.randint(1, max_n or 120)
        edges = frozenset((rng.randrange(v), v) for v in range(1, nv))
        bits = rng.getrandbits(max(nv, 1))

        def check(nv=nv, edges=edges, bits=bits):
            g = Graph(nv, edges)
            ot = orient(g, [bool(bits >> i & 1) for i in range(g.edge_count)])
            col = color_oriented_tree(ot)
            if max(col) > 3:
                return "more than three colors"
            if not is_packing_coloring(weak_directed_distances(ot), col):
                return "invalid coloring"
            if not property_p_holds(ot, col):
                return "property (P) broken"
            return None
        jobs.append((f"trial={trial} n={nv}", check))
    return _run("orTree", jobs)


def suite_scp(max_n=None, seed=0) -> SuiteResult:
    rng = random.Random(seed)
    jobs = []
    for trial in range(200):
        n = 2 * rng.randint(2, (max_n or 40) // 2)
        g = path(n)
        dirs = [rng.random() < 0.5 for _ in range(n - 1)]
        og = orient(g, dirs)
        from .graphs import sources_and_sinks
        sources, sinks = sources_and_sinks(og)
        eligible = [v for v in (sources | sinks) if v % 2 == 0 and v != 0]
        s = frozenset(v for v in eligible if rng.random() < 0.5)
        alpha = rng.choice((2, 3))

        def check(og=og, s=s, alpha=alpha, n=n):
            colors = scp(og, ScpConfig(1, alpha, s))
            want = scp_endpoint_color(n, alpha, len(s))
            if colors[-1] != want:
                return f"endpoint {colors[-1]} != predicted {want}"
            if not is_packing_coloring(weak_directed_distances(og), colors):
                return "SCP output conflicts on the path"
            return None
        jobs.append((f"trial={trial} n={n} |S|={len(s)}", check))
    return _run("scp", jobs)


def suite_subgraph(max_n=None, seed=0) -> SuiteResult:
    rng = random.Random(seed)
    jobs = []
    for trial in range(150):
        p_host = rng.randint(1, 6)
        p_sub = rng.randint(1, p_host)
        n_host = rng.randint(3, max_n or 120)
        n_sub = rng.randint(1, n_host)
        host_cycle = rng.random() < 0.5

        def check(ph=p_host, ps=p_sub, nh=n_host, ns=n_sub, cyc=host_cycle):
            host = FamilyQuery("cycle_corona" if cyc else "path_corona", nh, ph)
            sub = FamilyQuery("path_corona", ns, ps)
            if pcn_closed_form(sub) > pcn_closed_form(host):
                return f"{sub} exceeds {host}"
            return None
        jobs.append((f"trial={trial}", check))
    return _run("subgraph", jobs)


def suite_orientation_bound(max_n=None, seed=0) -> SuiteResult:
    rng = random.Random(seed)
    jobs = []
    for trial in range(60):
        family = rng.choice(("path_corona", "cycle_corona", "path", "cycle"))
        p = 0 if family in ("path", "cycle") else rng.randint(1, 2)
        n = rng.randint(3, 7)
        bits = rng.getrandbits(64)

        def check(family=family, n=n, p=p, bits=bits):
            q = FamilyQuery(family, n, p)
            g = family_graph(q)
            og = orient(g, [bool(bits >> i & 1) for i in range(g.edge_count)])
            res = packing_chromatic_number(weak_directed_distances(og))
            if res.outcome is not Outcome.YES:
                return f"{INDETERMINATE}: budget"
            if res.value > pcn_closed_form(q):
                return f"oriented {res.value} exceeds undirected {pcn_closed_form(q)}"
            return None
        jobs.append((f"trial={trial} {family} n={n} p={p}", check))
    return _run("orientation-bound", jobs)


def suite_stretch(max_n=None, seed=0) -> SuiteResult:
    budget = SearchBudget(node_limit=2 * 10**8)
    jobs = []

    def tight(family, n, p, expect):
        def check():
            q = FamilyQuery(family, n, p)
            err = _check_construction(q)
            if err:
                return err
            below = exists_packing_k_coloring(
                distances(family_graph(q)), expect - 1, budget
            )
            if below.outcome is Outcome.INDETERMINATE:
                return f"{INDETERMINATE}: lower bound search exhausted"
            if below.outcome is Outcome.YES:
                return f"packing {expect - 1}-coloring exists"
            return None
        return check

    jobs.append(("pcn(C9 corona p2) = 7", tight("cycle_corona", 9, 2, 7)))
    jobs.append(("pcn(C11 corona p3) = 7", tight("cycle_corona", 11, 3, 7)))
    jobs.append(("pcn(C11 corona p4) = 8", tight("cycle_corona", 11, 4, 8)))
    jobs.append((
        "P35 corona p4 seven-coloring",
        lambda: _check_construction(FamilyQuery("path_corona", 35, 4)),
    ))
    return _run("stretch", jobs)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "plain": suite_plain,
    "CrPn": suite_CrPn,
    "CrCn": suite_CrCn,
    "Pn2K1": suite_Pn2K1,
    "Pn3K1": suite_Pn3K1,
    "PnpK1": suite_PnpK1,
    "Cn2K1": suite_Cn2K1,
    "Cn3K1": suite_Cn3K1,
    "Cn4K1": suite_Cn4K1,
    "table1": suite_table1,
    "patterns": suite_patterns,
    "forced": suite_forced,
    "caterpillar-bound": suite_caterpillar_bound,
    "orPn": suite_orPn,
    "orCn": suite_orCn,
    "orPnpK1": suite_orPnpK1,
    "orCnpK1": suite_orCnpK1,
    "orTree": suite_orTree,
    "scp": suite_scp,
    "subgraph": suite_subgraph,
    "orientation-bound": suite_orientation_bound,
    "stretch": suite_stretch,
}


def run_suite(suite_id: str, max_n=None, seed=0) -> SuiteResult:
    if suite_id not in SUITES:
        raise KeyError(f"unknown suite {suite_id!r}; known: {sorted(SUITES)}")
    return SUITES[suite_id](max_n=max_n, seed=seed)
