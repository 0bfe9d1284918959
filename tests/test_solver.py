from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_count_packing_k,
    naive_exists_packing_k,
    random_graph,
    random_orientation,
)
from corona_packing import solver
from corona_packing.graphs import (
    UNREACHABLE,
    Graph,
    corona,
    cycle,
    distances,
    orient,
    path,
    weak_directed_distances,
)
from corona_packing.solver import (
    Outcome,
    SearchBudget,
    count_packing_k_colorings,
    exists_packing_k_coloring,
    first_packing_conflict,
    greedy_upper_bound,
    is_packing_coloring,
    packing_chromatic_number,
)


def test_is_packing_coloring_examples():
    assert is_packing_coloring(distances(path(4)), (1, 2, 1, 3))
    assert not is_packing_coloring(distances(path(2)), (1, 1))
    og = orient(path(3), [False, True])  # 0 -> 1 <- 2
    assert is_packing_coloring(weak_directed_distances(og), (2, 1, 2))


def test_first_conflict_reports_pair():
    conflict = first_packing_conflict(distances(path(3)), (2, 1, 2))
    assert conflict == (0, 2, 2)
    with pytest.raises(ValueError):
        first_packing_conflict(distances(path(3)), (1, 2))
    with pytest.raises(ValueError):
        first_packing_conflict(distances(path(3)), (0, 1, 2))


def test_exists_on_p4_corona():
    dm = distances(corona("path", 4, 1))
    assert exists_packing_k_coloring(dm, 3).outcome is Outcome.NO
    res = exists_packing_k_coloring(dm, 4)
    assert res.outcome is Outcome.YES
    assert is_packing_coloring(dm, res.witness)


def test_exists_distinct_colors_always_work(rng):
    g = random_graph(rng, 6)
    dm = distances(g)
    res = exists_packing_k_coloring(dm, g.vertex_count)
    assert res.outcome is Outcome.YES


def test_exists_monotone_in_k():
    dm = distances(corona("cycle", 5, 1))
    outcomes = [exists_packing_k_coloring(dm, k).outcome for k in range(1, 8)]
    seen_yes = False
    for out in outcomes:
        if out is Outcome.YES:
            seen_yes = True
        assert out is Outcome.YES if seen_yes else out is Outcome.NO


def test_matches_naive_enumeration(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), density=rng.uniform(0.2, 0.8))
        dm = distances(g)
        for k in (1, 2, 3):
            want = naive_exists_packing_k(dm, k)
            got = exists_packing_k_coloring(dm, k).outcome
            assert got is (Outcome.YES if want else Outcome.NO)
    for _ in range(3):  # a couple of ten-vertex instances, k small
        g = random_graph(rng, 10, density=0.35)
        dm = distances(g)
        want = naive_exists_packing_k(dm, 3)
        got = exists_packing_k_coloring(dm, 3).outcome
        assert got is (Outcome.YES if want else Outcome.NO)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 3))
def test_exists_matches_naive_hypothesis(seed, nv, k):
    g = random_graph(random.Random(seed), nv, density=0.5)
    dm = distances(g)
    want = naive_exists_packing_k(dm, k)
    got = exists_packing_k_coloring(dm, k).outcome
    assert got is (Outcome.YES if want else Outcome.NO)


def test_twin_heavy_graph_matches_naive(rng):
    g = corona("path", 2, 3)  # twin pendants everywhere
    dm = distances(g)
    for k in (2, 3, 4):
        want = naive_exists_packing_k(dm, k)
        got = exists_packing_k_coloring(dm, k).outcome
        assert got is (Outcome.YES if want else Outcome.NO)


def test_pcn_values():
    assert packing_chromatic_number(distances(corona("path", 9, 1))).value == 4
    assert packing_chromatic_number(distances(corona("cycle", 4, 1))).value == 4
    assert packing_chromatic_number(distances(Graph(1, frozenset()))).value == 1
    res = packing_chromatic_number(distances(corona("path", 10, 1)))
    assert res.value == 5
    assert is_packing_coloring(distances(corona("path", 10, 1)), res.witness)


def test_plain_paths_cycles_by_search():
    for n in range(1, 11):
        want = 1 if n == 1 else (2 if n <= 3 else 3)
        assert packing_chromatic_number(distances(path(n))).value == want
    for n in range(3, 13):
        want = 3 if (n == 3 or n % 4 == 0) else 4
        assert packing_chromatic_number(distances(cycle(n))).value == want


def test_counting():
    assert count_packing_k_colorings(distances(corona("path", 9, 1)), 4).count == 2
    assert count_packing_k_colorings(distances(path(2)), 1).count == 0
    dm = distances(path(3))
    assert count_packing_k_colorings(dm, 2).count == naive_count_packing_k(dm, 2)


def test_counting_matches_naive(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6))
        dm = distances(g)
        k = rng.randint(1, 3)
        assert count_packing_k_colorings(dm, k).count == naive_count_packing_k(dm, k)


def test_budget_indeterminate():
    dm = distances(corona("path", 6, 2))
    res = exists_packing_k_coloring(dm, 4, SearchBudget(node_limit=3))
    assert res.outcome is Outcome.INDETERMINATE
    pcn = packing_chromatic_number(dm, SearchBudget(node_limit=3))
    assert pcn.outcome is Outcome.INDETERMINATE
    with pytest.raises(ValueError):
        SearchBudget(max_color=0)


def test_max_color_budget_caps_search():
    dm = distances(corona("path", 10, 1))  # pcn is five
    res = packing_chromatic_number(dm, SearchBudget(max_color=3))
    assert res.outcome is Outcome.INDETERMINATE


def test_determinism():
    dm = distances(corona("cycle", 6, 2))
    first = packing_chromatic_number(dm)
    second = packing_chromatic_number(dm)
    assert first.value == second.value and first.witness == second.witness


def test_greedy_upper_bound_is_valid():
    dm = distances(corona("cycle", 7, 2))
    ub, colors = greedy_upper_bound(dm)
    assert is_packing_coloring(dm, colors)
    assert max(colors) == ub


# Reference set-up: the O(V^3) twin scan over every earlier class and the
# any(...) greedy, which the shared set-up must reproduce exactly.

def reference_order(dm):
    nv = dm.vertex_count
    degree = [sum(1 for d in dm.values[v] if d == 1) for v in range(nv)]
    return sorted(range(nv), key=lambda v: (-degree[v], v))


def reference_twin_predecessors(dm):
    """The O(V^3) scan over all earlier classes, with no row buckets."""
    nv = dm.vertex_count
    pos = {v: idx for idx, v in enumerate(reference_order(dm))}

    def is_twin(u, v):
        ru, rv = dm.values[u], dm.values[v]
        return all(ru[w] == rv[w] for w in range(nv) if w != u and w != v)

    unset = object()
    classes = []  # [members, internal distance]
    for v in range(nv):
        for entry in classes:
            members, dist = entry
            d = dm.values[members[0]][v]
            if dist is not unset and d != dist:
                continue
            if all(is_twin(w, v) and dm.values[w][v] == d for w in members):
                members.append(v)
                entry[1] = d
                break
        else:
            classes.append([[v], unset])
    pred = [None] * nv
    for members, _ in classes:
        members.sort(key=pos.__getitem__)
        for a, b in zip(members, members[1:]):
            pred[b] = a
    return pred


def reference_greedy(dm):
    """Greedy coloring by an any(...) scan over every colored vertex."""
    nv = dm.vertex_count
    colors = [0] * nv
    for v in reference_order(dm):
        c = 1
        while any(
            colors[w] == c and dm.values[v][w] is not UNREACHABLE
            and dm.values[v][w] <= c
            for w in range(nv) if w != v
        ):
            c += 1
        colors[v] = c
    return max(colors), tuple(colors)


@st.composite
def distance_matrices(draw):
    """Random graphs (often disconnected), random orientations of them and
    of coronae, and coronae with p >= 2, whose pendants form twin classes."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["graph", "oriented", "corona", "oriented-corona"]))
    if kind in ("graph", "oriented"):
        g = random_graph(rng, draw(st.integers(1, 9)), density=rng.uniform(0.1, 0.9))
    else:
        family = draw(st.sampled_from(["path", "cycle"]))
        n = draw(st.integers(1 if family == "path" else 3, 6))
        g = corona(family, n, draw(st.integers(2, 4)))
    if kind.startswith("oriented"):
        return weak_directed_distances(random_orientation(rng, g))
    return distances(g)


@settings(max_examples=150, deadline=None)
@given(distance_matrices())
def test_shared_setup_matches_reference(dm):
    setup = solver._Setup(dm, SearchBudget())
    assert setup.order == reference_order(dm)
    assert setup.twin_pred == reference_twin_predecessors(dm)
    assert greedy_upper_bound(dm) == reference_greedy(dm)


def test_twin_classes_on_coronae():
    dm = distances(corona("path", 6, 2))
    assert exists_packing_k_coloring(dm, 4).stats.twin_classes == 6
    assert count_packing_k_colorings(dm, 2).stats.twin_classes == 0


def test_time_limit_covers_setup():
    dm = distances(corona("cycle", 150, 3))  # 600 vertices: set-up is not free
    start = time.perf_counter()
    res = packing_chromatic_number(dm, SearchBudget(time_limit=0.05))
    assert time.perf_counter() - start < 0.5
    assert res.outcome is Outcome.INDETERMINATE


def test_zero_time_limit_is_spent():
    dm = distances(corona("path", 6, 2))
    budget = SearchBudget(time_limit=0)
    assert exists_packing_k_coloring(dm, 4, budget).outcome is Outcome.INDETERMINATE
    assert packing_chromatic_number(dm, budget).outcome is Outcome.INDETERMINATE
    assert count_packing_k_colorings(dm, 2, budget).outcome is Outcome.INDETERMINATE


def test_negative_budgets_rejected():
    for kwargs in ({"node_limit": -1}, {"time_limit": -0.5}):
        with pytest.raises(ValueError):
            SearchBudget(**kwargs)
    SearchBudget(node_limit=0, time_limit=0)


def test_stats_add_up_and_setup_once_per_call(monkeypatch):
    made = []
    real_init = solver._Setup.__init__

    def counting_init(self, *args):
        made.append(self)
        real_init(self, *args)

    monkeypatch.setattr(solver._Setup, "__init__", counting_init)
    dm = distances(corona("path", 10, 1))  # pcn 5, after refuting k = 1..4
    start = time.perf_counter()
    res = packing_chromatic_number(dm)
    wall = time.perf_counter() - start
    assert res.value == 5 and len(made) == 1
    ks = [k for k, _ in res.stats.nodes_per_k]
    assert ks == list(range(1, len(ks) + 1)) and len(ks) >= 4
    assert sum(n for _, n in res.stats.nodes_per_k) == res.nodes
    assert 0 < res.stats.setup_s and 0 < res.stats.search_s
    assert res.stats.setup_s + res.stats.search_s <= wall
    one = exists_packing_k_coloring(dm, 4)
    assert one.stats.nodes_per_k == ((4, one.nodes),)


def test_witness_check_survives_optimize():
    """A witness that fails the packing check raises, also under -O."""
    code = """
import corona_packing.solver as s
from corona_packing.graphs import corona, distances
dm = distances(corona("path", 10, 1))
s.first_packing_conflict = lambda dm, c: (0, 1, 1)
for call in (lambda: s.exists_packing_k_coloring(dm, 5),
             lambda: s.packing_chromatic_number(dm)):
    try:
        call()
    except s.WitnessError:
        continue
    raise SystemExit("an unchecked witness was returned")
"""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
