from __future__ import annotations

import itertools

import pytest

from conftest import random_orientation, random_tree
from corona_packing.graphs import (
    UNREACHABLE,
    Graph,
    GraphError,
    corona,
    cycle,
    enumerate_orientations,
    orient,
    path,
    weak_directed_distances,
)
from corona_packing.oriented import (
    OrientedClassification,
    ScpConfig,
    _cached_spine_search,
    _center_ok,
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
from corona_packing.solver import is_packing_coloring, packing_chromatic_number


def from_arcs(g: Graph, arcs: set[tuple[int, int]]):
    dirs = []
    for u, v in g.canonical_edges():
        if (u, v) in arcs:
            dirs.append(False)
        elif (v, u) in arcs:
            dirs.append(True)
        else:
            raise AssertionError(f"edge {(u, v)} not directed")
    return orient(g, dirs)


def directed_cycle(n: int):
    return from_arcs(cycle(n), {(i, (i + 1) % n) for i in range(n)})


def test_is_pcn_two_examples():
    # alternating path: every odd vertex a sink
    og = from_arcs(path(4), {(0, 1), (2, 1), (2, 3)})
    assert is_pcn_two(og)
    # a directed path of two arcs still has pcn two: both endpoints of the
    # even part are a source and a sink, so color one covers that part
    og = from_arcs(path(3), {(0, 1), (1, 2)})
    assert is_pcn_two(og)
    truth = packing_chromatic_number(weak_directed_distances(og))
    assert truth.value == 2
    for og in enumerate_orientations(cycle(5)):
        assert not is_pcn_two(og)
    with pytest.raises(GraphError):
        is_pcn_two(orient(Graph(1, frozenset()), []))


def test_pcn_oriented_path_values():
    og = from_arcs(path(8), {(i, i + 1) for i in range(7)})
    value, witness = pcn_oriented_path(og)
    assert value == 3
    dm = weak_directed_distances(og)
    assert is_packing_coloring(dm, witness)
    assert packing_chromatic_number(dm).value == 3
    og = from_arcs(path(6), {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)})
    assert pcn_oriented_path(og)[0] == 2
    assert pcn_oriented_path(orient(path(2), [False]))[0] == 2
    assert pcn_oriented_path(orient(path(1), [])) == (1, (1,))


def test_pcn_oriented_path_exhaustive_vs_solver():
    for n in range(2, 9):
        for og in enumerate_orientations(path(n)):
            value, witness = pcn_oriented_path(og)
            dm = weak_directed_distances(og)
            assert is_packing_coloring(dm, witness)
            assert packing_chromatic_number(dm).value == value


def test_pcn_oriented_cycle_values():
    assert pcn_oriented_cycle(directed_cycle(5))[0] == 4
    assert pcn_oriented_cycle(directed_cycle(8))[0] == 3
    assert pcn_oriented_cycle(directed_cycle(3))[0] == 3
    alternating = from_arcs(cycle(6), {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)})
    assert pcn_oriented_cycle(alternating)[0] == 2


def test_pcn_oriented_cycle_exhaustive_vs_solver():
    for n in range(3, 10):
        for og in enumerate_orientations(cycle(n)):
            value, witness = pcn_oriented_cycle(og)
            dm = weak_directed_distances(og)
            assert is_packing_coloring(dm, witness)
            assert packing_chromatic_number(dm).value == value
            assert (value == 2) == is_pcn_two(og)


def test_scp_fixtures():
    p8 = orient(path(8), [False] * 7)
    assert scp(p8, ScpConfig(1, 2, frozenset({2}))) == (1, 2, 1, 2, 1, 3, 1, 2)
    assert scp(p8, ScpConfig(3, 1, frozenset({3, 7}))) == (3, 1, 2, 1, 2, 1, 3, 1)
    assert scp(p8, ScpConfig(1, 2)) == (1, 2, 1, 3, 1, 2, 1, 3)


def test_scp_config_validation():
    with pytest.raises(ValueError):
        ScpConfig(2, 3)
    with pytest.raises(ValueError):
        ScpConfig(1, 1)
    with pytest.raises(ValueError):
        ScpConfig(4, 1)


def test_scp_endpoint_color():
    assert scp_endpoint_color(6, 2, 0) == 2
    assert scp_endpoint_color(8, 2, 0) == 3
    assert scp_endpoint_color(8, 3, 1) == 3
    with pytest.raises(ValueError):
        scp_endpoint_color(7, 2, 0)
    with pytest.raises(ValueError):
        scp_endpoint_color(8, 4, 0)


SAMPLE8_SPINE_ARCS = {(0, 1), (1, 2), (2, 3), (4, 3), (5, 4), (5, 6), (6, 7)}


def sample8_single_pendant():
    g = corona("path", 8, 1)
    arcs = set(SAMPLE8_SPINE_ARCS)
    up = {0, 2, 3, 4}
    for i in range(8):
        z = 8 + i
        arcs.add((z, i) if i in up else (i, z))
    return from_arcs(g, arcs)


def test_path_corona_sample_exact():
    og = sample8_single_pendant()
    colors = color_oriented_path_corona(og)
    assert colors[:8] == (1, 3, 1, 2, 1, 3, 1, 2)
    assert colors[8:] == (2, 1, 3, 1, 3, 1, 2, 1)
    assert property_p_holds(og, colors)


def test_path_corona_two_pendant_sample_exact():
    g = corona("path", 8, 2)
    arcs = set(SAMPLE8_SPINE_ARCS)
    up = {0, 2, 3, 4}
    for i in range(8):
        z1, z2 = 8 + 2 * i, 8 + 2 * i + 1
        if i in up:
            arcs.update({(z1, i), (i, z2)})
        else:
            arcs.update({(i, z1), (z2, i)})
    og = from_arcs(g, arcs)
    colors = color_oriented_path_corona(og)
    assert colors[:8] == (1, 3, 1, 2, 1, 3, 1, 2)
    assert tuple(colors[8 + 2 * i] for i in range(8)) == (2, 1, 3, 1, 3, 1, 2, 1)
    assert tuple(colors[9 + 2 * i] for i in range(8)) == (3, 1, 2, 1, 2, 1, 3, 1)


def test_path_corona_single_vertex():
    og = from_arcs(corona("path", 1, 1), {(0, 1)})
    assert color_oriented_path_corona(og) == (1, 3)
    og = from_arcs(corona("path", 1, 1), {(1, 0)})
    assert color_oriented_path_corona(og) == (1, 2)


def test_path_corona_random_valid(rng):
    for _ in range(40):
        n, p = rng.randint(1, 12), rng.randint(1, 3)
        og = random_orientation(rng, corona("path", n, p))
        colors = color_oriented_path_corona(og)
        assert max(colors) <= 3
        assert is_packing_coloring(weak_directed_distances(og), colors)
        assert property_p_holds(og, colors)


def test_tree_examples(rng):
    assert color_oriented_tree(orient(Graph(1, frozenset()), [])) == (1,)
    star = Graph(6, frozenset((0, v) for v in range(1, 6)))
    ot = orient(star, [False] * 5)  # all arcs outward
    colors = color_oriented_tree(ot)
    assert colors[0] == 1 and set(colors[1:]) <= {2, 3}
    assert is_packing_coloring(weak_directed_distances(ot), colors)
    with pytest.raises(GraphError):
        color_oriented_tree(orient(cycle(4), [False] * 4))
    for _ in range(30):
        tree = random_tree(rng, rng.randint(1, 50))
        ot = random_orientation(rng, tree)
        colors = color_oriented_tree(ot)
        assert max(colors) <= 3
        assert is_packing_coloring(weak_directed_distances(ot), colors)
        assert property_p_holds(ot, colors)


def build_cycle_corona(n, p, spine_arcs, pendant_arcs):
    g = corona("cycle", n, p)
    return from_arcs(g, set(spine_arcs) | set(pendant_arcs))


def test_classify_directed_cycle_bad_length():
    og = build_cycle_corona(
        5, 1, {(i, (i + 1) % 5) for i in range(5)},
        {(i, 5 + i) for i in range(5)},
    )
    cls, witness = classify_oriented_cycle_corona(og)
    assert (cls.value, cls.reason) == (4, "directed-cycle-bad-length")
    dm = weak_directed_distances(og)
    assert is_packing_coloring(dm, witness)
    assert packing_chromatic_number(dm).value == 4


def test_classify_four_cycle_trap():
    # source 0 with directed path 0,1,2 into the adjacent sink 3, arc 0->3,
    # a pendant arc into the source and one out of the sink
    spine = {(0, 1), (1, 2), (2, 3), (0, 3)}
    pend = {(4, 0), (1, 5), (2, 6), (3, 7)}
    og = build_cycle_corona(4, 1, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert (cls.value, cls.reason) == (4, "figure7-config")
    dm = weak_directed_distances(og)
    assert is_packing_coloring(dm, witness)
    assert packing_chromatic_number(dm).value == 4
    # same shape but the source keeps its role: three colors suffice
    og = build_cycle_corona(4, 1, spine, {(0, 4), (1, 5), (2, 6), (3, 7)})
    cls, witness = classify_oriented_cycle_corona(og)
    assert cls.value == 3


def test_classify_even_cycle_parity_trap():
    # two even directed runs between a compensated source and sink: the
    # printed characterization misses this family, the solver confirms four
    spine = {(0, 1), (1, 2), (3, 2), (4, 3), (5, 4), (0, 5)}
    pend = {(6, 0), (2, 8), (1, 7), (3, 9), (4, 10), (5, 11)}
    og = build_cycle_corona(6, 1, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert (cls.value, cls.reason) == (4, "condition-2-3")
    dm = weak_directed_distances(og)
    assert is_packing_coloring(dm, witness)
    assert packing_chromatic_number(dm).value == 4


def test_classify_condition_23_structure():
    # runs of lengths three and five between compensated endpoints on C_8
    spine = {(0, 1), (1, 2), (2, 3)} | {(0, 7), (7, 6), (6, 5), (5, 4), (4, 3)}
    pend = {(8, 0), (3, 11), (1, 9), (2, 10), (4, 12), (5, 13), (6, 14), (7, 15)}
    og = build_cycle_corona(8, 1, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert (cls.value, cls.reason) == (4, "condition-2-3")
    assert packing_chromatic_number(weak_directed_distances(og)).value == 4
    # uncompensated source: three colors again
    pend2 = {(0, 8), (3, 11), (1, 9), (2, 10), (4, 12), (5, 13), (6, 14), (7, 15)}
    og2 = build_cycle_corona(8, 1, spine, pend2)
    assert classify_oriented_cycle_corona(og2)[0].value == 3


def test_classify_value_two():
    spine = {(0, 1), (2, 1), (2, 3), (0, 3)}
    pend = {(0, 4), (1, 5), (2, 6), (3, 7)}  # sources keep their role
    og = build_cycle_corona(4, 1, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert (cls.value, cls.reason) == (2, "bipartite-sources-sinks")
    assert packing_chromatic_number(weak_directed_distances(og)).value == 2


def test_classify_directed_triangle_mixed_pendants():
    spine = {(0, 1), (1, 2), (2, 0)}
    pend = set()
    for i in range(3):
        pend |= {(3 + 2 * i, i), (i, 3 + 2 * i + 1)}
    og = build_cycle_corona(3, 2, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert cls.value == 4 and cls.reason == "condition-2-3"
    dm = weak_directed_distances(og)
    assert is_packing_coloring(dm, witness)
    assert packing_chromatic_number(dm).value == 4
    # one pure vertex is enough for three colors
    pend = {(3, 0), (4, 0)} | {(5 + 2 * i, 1 + i) for i in range(2)}
    pend |= {(1 + i, 6 + 2 * i) for i in range(2)}
    og = build_cycle_corona(3, 2, spine, pend)
    cls, witness = classify_oriented_cycle_corona(og)
    assert cls.value == 3
    assert packing_chromatic_number(weak_directed_distances(og)).value == 3


def test_classification_reason_consistency():
    with pytest.raises(ValueError):
        OrientedClassification(2, "generic-3")
    with pytest.raises(ValueError):
        OrientedClassification(4, "bipartite-sources-sinks")
    with pytest.raises(ValueError):
        OrientedClassification(5, "generic-3")


def test_classify_exhaustive_small():
    for n in (3, 4):
        for og in enumerate_orientations(corona("cycle", n, 1)):
            cls, witness = classify_oriented_cycle_corona(og)
            dm = weak_directed_distances(og)
            assert is_packing_coloring(dm, witness)
            assert len(set(witness)) == cls.value
            assert packing_chromatic_number(dm).value == cls.value


def test_classify_exhaustive_multiple_pendants():
    # multiple pendants per spine vertex exercise the grouped completion
    # rules and the mixed-pendant directed-triangle family
    for n, p in ((3, 2), (4, 2), (3, 3)):
        for og in enumerate_orientations(corona("cycle", n, p)):
            cls, witness = classify_oriented_cycle_corona(og)
            dm = weak_directed_distances(og)
            assert is_packing_coloring(dm, witness)
            assert packing_chromatic_number(dm).value == cls.value


def test_path_corona_exhaustive_vs_solver():
    for n, p in ((4, 1), (2, 3)):
        for og in enumerate_orientations(corona("path", n, p)):
            colors = color_oriented_path_corona(og)
            dm = weak_directed_distances(og)
            assert is_packing_coloring(dm, colors)
            value = 2 if is_pcn_two(og) else 3
            truth = packing_chromatic_number(dm).value
            assert truth <= 3 and (truth == 2) == (value == 2)


def test_oriented_cycle_witnesses_large(rng):
    for _ in range(40):
        n = rng.randint(15, 120)
        og = random_orientation(rng, cycle(n))
        value, witness = pcn_oriented_cycle(og)
        assert value in (2, 3)  # random orientations are never directed here
        assert is_packing_coloring(weak_directed_distances(og), witness)
    value, witness = pcn_oriented_cycle(directed_cycle(97))
    assert value == 4
    value, witness = pcn_oriented_cycle(directed_cycle(96))
    assert value == 3


def test_path_corona_large(rng):
    og = random_orientation(rng, corona("path", 300, 2))
    colors = color_oriented_path_corona(og)
    assert max(colors) <= 3 and property_p_holds(og, colors)


def test_classify_large_instances(rng):
    for n in (49, 96):
        og = random_orientation(rng, corona("cycle", n, 2))
        cls, witness = classify_oriented_cycle_corona(og)
        assert len(set(witness)) == cls.value


def spine_structures(n):
    """Every (fwd, role, comp) of a non-directed oriented spine C_n:
    fwd[i] says x_i -> x_{i+1}; any source or sink may be compensated."""
    for fwd in itertools.product((False, True), repeat=n):
        if len(set(fwd)) == 1:
            continue
        role = []
        for i in range(n):
            into, outof = fwd[i - 1], fwd[i]
            if outof and not into:
                role.append("source")
            elif into and not outof:
                role.append("sink")
            else:
                role.append("internal")
        ends = [i for i in range(n) if role[i] != "internal"]
        for bits in itertools.product((False, True), repeat=len(ends)):
            comp = [False] * n
            for i, bit in zip(ends, bits):
                comp[i] = bit
            yield fwd, tuple(role), tuple(comp)


def brute_spine(n, fwd, role, comp):
    """Reference: lexicographically first spine 3-coloring that is a packing
    coloring under the weak distances of the oriented spine cycle and passes
    every compensated-centre rule."""
    dirs = []
    for u, v in cycle(n).canonical_edges():
        dirs.append(not fwd[u] if v == u + 1 else fwd[n - 1])
    weak = weak_directed_distances(orient(cycle(n), dirs)).values
    for colors in itertools.product((1, 2, 3), repeat=n):
        if any(
            colors[u] == colors[v]
            and weak[u][v] is not UNREACHABLE
            and weak[u][v] <= colors[u]
            for u in range(n)
            for v in range(u + 1, n)
        ):
            continue
        if all(_center_ok(n, fwd, role, comp, colors.__getitem__, i) for i in range(n)):
            return colors
    return None


def test_spine_search_matches_brute_force():
    count = 0
    for n in range(3, 8):
        for fwd, role, comp in spine_structures(n):
            want = brute_spine(n, fwd, role, comp)
            assert _cached_spine_search(n, fwd, role, comp) == want, (n, fwd, comp)
            count += 1
    assert count == 3256


def test_classify_long_cycle_corona(rng):
    # the spine search must stay iterative: this spine is longer than the
    # default recursion limit
    og = random_orientation(rng, corona("cycle", 1100, 1))
    assert not is_pcn_two(og)
    cls, witness = classify_oriented_cycle_corona(og)
    assert len(set(witness)) == cls.value
    assert is_packing_coloring(weak_directed_distances(og), witness)
