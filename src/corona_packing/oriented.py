"""Packing colorings of orientations: paths, cycles, trees, and coronae.

Distances here are weak directed distances.  The cycle-corona classifier
decides 2/3/4 exactly: a packing 3-coloring of the whole corona exists iff
the spine admits a valid 3-coloring leaving no compensated spine
source/sink (one whose pendant arcs cancel its source/sink role) with an
uncolorable pendant.  Those obstructions are local to a window of five
consecutive spine vertices, so feasibility is decided by one exact search
over spine colorings, for every spine length; every witness is validated
against the checker before return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .closed_form import FamilyQuery, construct_coloring
from .graphs import (
    Coloring,
    GraphError,
    OrientedGraph,
    bipartition,
    corona,
    orient,
    sources_and_sinks,
    weak_directed_distances,
)
from .solver import WitnessError, first_packing_conflict

REASONS_2 = ("bipartite-sources-sinks",)
REASONS_3 = ("generic-3",)
REASONS_4 = ("directed-cycle-bad-length", "figure7-config", "condition-2-3")


@dataclass(frozen=True)
class ScpConfig:
    c: int
    c_prime: int
    s: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.c not in (1, 2, 3) or self.c_prime not in (1, 2, 3):
            raise ValueError("SCP colors live in {1,2,3}")
        if (self.c == 1) == (self.c_prime == 1):
            raise ValueError("exactly one of c, c' must be 1")


@dataclass(frozen=True)
class OrientedClassification:
    value: int
    reason: str

    def __post_init__(self):
        ok = {2: REASONS_2, 3: REASONS_3, 4: REASONS_4}.get(self.value)
        if ok is None or self.reason not in ok:
            raise ValueError(
                f"reason {self.reason!r} inconsistent with value {self.value}"
            )


def _validated(og: OrientedGraph, colors) -> Coloring:
    colors = tuple(colors)
    conflict = first_packing_conflict(weak_directed_distances(og), colors)
    if conflict is not None:
        raise WitnessError(f"constructed coloring has conflict {conflict}")
    return colors


def is_pcn_two(og: OrientedGraph) -> bool:
    """True iff the base graph is bipartite and one part holds only sources
    or sinks of the orientation."""
    if og.vertex_count < 2:
        raise GraphError("needs at least two vertices")
    parts = bipartition(og.base)
    if parts is None:
        return False
    sources, sinks = sources_and_sinks(og)
    free = sources | sinks
    return any(part <= free for part in parts)


def _two_part_witness(og: OrientedGraph) -> Coloring:
    parts = bipartition(og.base)
    sources, sinks = sources_and_sinks(og)
    free = sources | sinks
    for part in sorted(parts, key=lambda part: 0 not in part):
        if part <= free:
            return tuple(1 if v in part else 2 for v in range(og.vertex_count))
    raise WitnessError("no bipartition part is all sources/sinks")


# --- oriented paths and cycles ----------------------------------------------


def pcn_oriented_path(op: OrientedGraph) -> tuple[int, Coloring]:
    base = op.base
    if base.layout is None or base.layout.family != "path" or base.layout.p:
        raise GraphError("expects an orientation of a plain path")
    n = base.vertex_count
    if n == 1:
        return 1, (1,)
    if is_pcn_two(op):
        return 2, _validated(op, _two_part_witness(op))
    pattern = (1, 2, 1, 3)
    return 3, _validated(op, tuple(pattern[i % 4] for i in range(n)))


def _cycle_arc_forward(oc: OrientedGraph, n: int) -> tuple[bool, ...]:
    arcs = oc.arc_set()
    return tuple((i, (i + 1) % n) in arcs for i in range(n))


def pcn_oriented_cycle(oc: OrientedGraph) -> tuple[int, Coloring]:
    base = oc.base
    if base.layout is None or base.layout.family != "cycle" or base.layout.p:
        raise GraphError("expects an orientation of a plain cycle")
    n = base.vertex_count
    if is_pcn_two(oc):
        return 2, _validated(oc, _two_part_witness(oc))
    fwd = _cycle_arc_forward(oc, n)
    if len(set(fwd)) == 1:  # directed cycle
        if n >= 5 and n % 4 != 0:
            return 4, _validated(oc, construct_coloring(FamilyQuery("cycle", n)))
        spine = (1, 2, 3) if n == 3 else tuple((1, 2, 1, 3)[i % 4] for i in range(n))
        return 3, _validated(oc, spine)
    if n % 4 == 0:
        return 3, _validated(oc, tuple((1, 2, 1, 3)[i % 4] for i in range(n)))
    src = min(i for i in range(n) if fwd[i] and not fwd[(i - 1) % n])
    r = n % 4
    if r == 1:
        seq = [1, 2, 3, 1] + [2, 1, 3, 1] * ((n - 5) // 4) + [2]
    elif r == 2:
        seq = [1] + [2, 1, 3, 1] * ((n - 2) // 4) + [2]
    else:
        seq = [1, 3] + [1, 2, 1, 3] * ((n - 3) // 4) + [2]
    colors = [0] * n
    for k, c in enumerate(seq):
        colors[(src + k) % n] = c
    return 3, _validated(oc, tuple(colors))


# --- the standard coloring procedure ----------------------------------------


def scp(op: OrientedGraph, cfg: ScpConfig) -> Coloring:
    """Propagate colors along the path per the three SCP rules (spine only)."""
    n = op.vertex_count
    if n < 2:
        raise GraphError("SCP needs at least two vertices")
    colors = [0] * n
    colors[0] = cfg.c
    colors[1] = cfg.c_prime
    for j in range(2, n):
        if colors[j - 1] != 1:
            colors[j] = 1
        elif (j - 1) in cfg.s:
            colors[j] = colors[j - 2]
        else:
            colors[j] = 5 - colors[j - 2]
    return tuple(colors)


def scp_endpoint_color(n: int, alpha: int, s_size: int) -> int:
    """Final SCP color on a path of odd length started with (1, alpha)."""
    if n % 2 != 0:
        raise ValueError("the path must have odd length (even n)")
    if alpha not in (2, 3):
        raise ValueError("alpha is 2 or 3")
    if (s_size % 2 == 0) == (n % 4 == 2):
        return alpha
    return 5 - alpha


# --- oriented coronae of paths, and oriented trees ---------------------------


def _pendant_arcs(og: OrientedGraph):
    layout = og.base.layout
    arcs = og.arc_set()
    pend_in = [[] for _ in range(layout.n)]
    pend_out = [[] for _ in range(layout.n)]
    for i in range(layout.n):
        for j in range(layout.p):
            z = layout.pendant(i, j)
            (pend_in if (z, i) in arcs else pend_out)[i].append(z)
    return pend_in, pend_out


def color_oriented_path_corona(og: OrientedGraph) -> Coloring:
    """Inductive packing 3-coloring of the spine and first pendants, then
    completion preserving property (P) at every color-1 vertex."""
    layout = og.base.layout
    if layout is None or layout.family != "path" or layout.p < 1:
        raise GraphError("expects an orientation of a path corona")
    n = layout.n
    arcs = og.arc_set()
    colors = [0] * og.vertex_count
    pend_in, pend_out = _pendant_arcs(og)
    if n == 1:
        colors[0] = 1
        for z in pend_in[0]:
            colors[z] = 2
        for z in pend_out[0]:
            colors[z] = 3
        return _validated(og, colors)
    z0 = layout.pendant(0, 0)
    colors[0], colors[z0] = 1, 2
    for i in range(n - 1):
        zi = layout.pendant(i, 0)
        zn = layout.pendant(i + 1, 0)
        if colors[i] == 1:
            through = ((zi, i) in arcs and (i, i + 1) in arcs) or (
                (i + 1, i) in arcs and (i, zi) in arcs
            )
            colors[i + 1] = 5 - colors[zi] if through else colors[zi]
            colors[zn] = 1
        else:
            through = ((i, i + 1) in arcs and (i + 1, zn) in arcs) or (
                (zn, i + 1) in arcs and (i + 1, i) in arcs
            )
            colors[zn] = 5 - colors[i] if through else colors[i]
            colors[i + 1] = 1
    _complete_pendants(og, colors)
    return _validated(og, colors)


def _complete_pendants(og: OrientedGraph, colors) -> None:
    """Pendants of non-1 vertices take 1; at a 1-colored vertex in-neighbors
    share one color alpha and out-neighbors 5-alpha."""
    layout = og.base.layout
    arcs = og.arc_set()
    inc = og.in_adjacency()
    out = og.out_adjacency()
    for i in range(layout.n):
        pend = [layout.pendant(i, j) for j in range(layout.p)]
        if colors[i] != 1:
            for z in pend:
                if colors[z] == 0:
                    colors[z] = 1
            continue
        alpha = 0
        for u in inc[i]:
            if colors[u]:
                alpha = colors[u]
                break
        if not alpha:
            for u in out[i]:
                if colors[u]:
                    alpha = 5 - colors[u]
                    break
        if not alpha:
            alpha = 2
        for z in pend:
            want = alpha if (z, i) in arcs else 5 - alpha
            if colors[z] == 0:
                colors[z] = want
            elif colors[z] != want:
                raise WitnessError("property (P) broken during completion")


def color_oriented_tree(ot: OrientedGraph) -> Coloring:
    """Packing <=3-coloring of an oriented tree: one bipartition part takes
    color 1, the other 2/3 so property (P) holds at every 1-vertex."""
    base = ot.base
    if base.edge_count != base.vertex_count - 1:
        raise GraphError("not a tree")
    nv = base.vertex_count
    if nv == 1:
        return (1,)
    parts = bipartition(base)
    ones = parts[0] if 0 in parts[0] else parts[1]
    adj = base.adjacency()
    arcs = ot.arc_set()
    colors = [0] * nv
    alpha = [0] * nv  # at 1-vertices: the color of their in-neighbors
    colors[0], alpha[0] = 1, 2
    stack = [0]
    seen = [False] * nv
    seen[0] = True
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if seen[w]:
                continue
            seen[w] = True
            if w in ones:
                alpha[w] = colors[u] if (u, w) in arcs else 5 - colors[u]
                colors[w] = 1
            else:
                colors[w] = alpha[u] if (w, u) in arcs else 5 - alpha[u]
            stack.append(w)
    return _validated(ot, colors)


def property_p_holds(og: OrientedGraph, colors: Coloring) -> bool:
    """Every color-1 vertex sees one color on in-neighbors and 5-that on
    out-neighbors."""
    inc = og.in_adjacency()
    out = og.out_adjacency()
    for v in range(og.vertex_count):
        if colors[v] != 1:
            continue
        cin = {colors[u] for u in inc[v]}
        cout = {colors[u] for u in out[v]}
        if len(cin) > 1 or len(cout) > 1 or (cin | cout) - {2, 3}:
            return False
        if cin and cout and next(iter(cin)) + next(iter(cout)) != 5:
            return False
    return True


# --- oriented coronae of cycles ----------------------------------------------
#
# Feasibility of a packing 3-coloring reduces to the spine: a spine coloring
# extends to the pendants iff it is a valid packing 3-coloring of the
# oriented spine and, at every compensated source/sink colored 1, the two
# spine neighbors agree and (when they agree on 2) no color 3 sits at the
# far end of a directed path of length 3 through the vertex.  The pendant
# rules below realize any such coloring.


def _spine_structure(og: OrientedGraph):
    layout = og.base.layout
    if layout is None or layout.family != "cycle" or layout.p < 1:
        raise GraphError("expects an orientation of a cycle corona")
    n = layout.n
    fwd = _cycle_arc_forward(og, n)
    pend_in, pend_out = _pendant_arcs(og)
    role = []
    comp = []
    for i in range(n):
        into = fwd[(i - 1) % n]
        outof = fwd[i]
        if outof and not into:
            role.append("source")
            comp.append(bool(pend_in[i]))
        elif into and not outof:
            role.append("sink")
            comp.append(bool(pend_out[i]))
        else:
            role.append("internal")
            comp.append(False)
    return layout, fwd, tuple(role), tuple(comp), pend_in, pend_out


def _pair_ok(n, fwd, role, col: Callable[[int], int], i: int, step: int) -> bool:
    a, b = col(i % n), col((i + step) % n)
    if a != b:
        return True
    if step == 1:
        return False
    if step == 2:
        return a == 1 or role[(i + 1) % n] != "internal"
    if a != 3:
        return True
    return not (fwd[i % n] == fwd[(i + 1) % n] == fwd[(i + 2) % n])


def _center_ok(n, fwd, role, comp, col: Callable[[int], int], i: int) -> bool:
    i %= n
    if not comp[i] or col(i) != 1:
        return True
    left, right = col((i - 1) % n), col((i + 1) % n)
    if left != right:
        return False
    if left != 2:
        return True
    prev2, next2 = col((i - 2) % n), col((i + 2) % n)
    if role[i] == "source":
        out_next = fwd[(i + 1) % n]
        out_prev = not fwd[(i - 2) % n]
    else:
        out_next = not fwd[(i + 1) % n]
        out_prev = fwd[(i - 2) % n]
    if out_next and next2 == 3:
        return False
    if out_prev and prev2 == 3:
        return False
    return True


@lru_cache(maxsize=4096)
def _cached_spine_search(n, fwd, role, comp) -> Optional[Coloring]:
    """Lexicographically-first extendable spine 3-coloring, or None.

    Positions are colored in order.  Position j is checked against the
    pairs and the centre that it completes, and the last position against
    the seam; every pair rule reads one arc of length <= 3, so the same
    checks cover both ways round for any n >= 3.  Later checks read only the
    first and last four colors of a prefix, so a prefix without extension is
    remembered by those and its length.
    """
    span = min(3, n - 1)
    seam = [(i, s) for s in range(1, span + 1) for i in range(n - s, n)]
    colors = [0] * n  # positions after the current one stay 0
    col = colors.__getitem__

    def fits(j: int) -> bool:
        if not all(
            _pair_ok(n, fwd, role, col, j - s, s) for s in range(1, min(span, j) + 1)
        ):
            return False
        if j >= 4 and not _center_ok(n, fwd, role, comp, col, j - 2):
            return False
        if j < n - 1:
            return True
        return all(_pair_ok(n, fwd, role, col, i, s) for i, s in seam) and all(
            _center_ok(n, fwd, role, comp, col, i) for i in (n - 2, n - 1, 0, 1)
        )

    def prefix_key(j: int):
        return j, tuple(colors[:4]), tuple(colors[max(0, j - 4):j])

    dead = set()
    j = 0
    while j >= 0:
        colors[j] += 1
        if colors[j] > 3:
            colors[j] = 0
            dead.add(prefix_key(j))
            j -= 1
        elif fits(j):
            if j == n - 1:
                return tuple(colors)
            if prefix_key(j + 1) not in dead:
                j += 1
    return None


def _extend_spine(og: OrientedGraph, info, spine) -> list[int]:
    """Pendant completion of an extendable spine coloring."""
    layout, fwd, role, comp, pend_in, pend_out = info
    n = layout.n
    colors = [0] * og.vertex_count
    for i in range(n):
        colors[i] = spine[i]
    for i in range(n):
        if spine[i] != 1:
            for z in pend_in[i] + pend_out[i]:
                colors[z] = 1
            continue
        left, right = spine[(i - 1) % n], spine[(i + 1) % n]
        if role[i] == "internal":
            if fwd[(i - 1) % n]:  # through-path x_{i-1} -> x_i -> x_{i+1}
                in_c, out_c = left, right
            else:
                in_c, out_c = right, left
        elif role[i] == "source":
            in_c, out_c = 5 - left, left
        else:
            in_c, out_c = left, 5 - left
        for z in pend_in[i]:
            colors[z] = in_c
        for z in pend_out[i]:
            colors[z] = out_c
    return colors


def _directed_c3_witness3(og: OrientedGraph, info) -> Optional[list[int]]:
    """Packing 3-coloring of a directed triangle corona, anchored at a spine
    vertex whose pendant arcs all point one way; None when every vertex has
    pendants both ways (then no packing 3-coloring exists)."""
    layout, fwd, role, comp, pend_in, pend_out = info
    step = 1 if fwd[0] else -1
    for b in range(3):
        nxt, prv = (b + step) % 3, (b - step) % 3
        if not pend_out[b]:
            spine = {b: 1, prv: 2, nxt: 3}
            pend_color = 2
        elif not pend_in[b]:
            spine = {b: 1, nxt: 2, prv: 3}
            pend_color = 2
        else:
            continue
        colors = [0] * og.vertex_count
        for i in range(3):
            colors[i] = spine[i]
        for z in pend_in[b] + pend_out[b]:
            colors[z] = pend_color
        for i in (prv, nxt):
            for z in pend_in[i] + pend_out[i]:
                colors[z] = 1
        return colors
    return None


def _directed_c3_witness4(og: OrientedGraph, info) -> list[int]:
    layout, fwd, role, comp, pend_in, pend_out = info
    step = 1 if fwd[0] else -1
    b = 0
    nxt, prv = (b + step) % 3, (b - step) % 3
    colors = [0] * og.vertex_count
    colors[b], colors[prv], colors[nxt] = 1, 2, 3
    for z in pend_in[b]:
        colors[z] = 2
    for z in pend_out[b]:
        colors[z] = 4
    for i in (prv, nxt):
        for z in pend_in[i] + pend_out[i]:
            colors[z] = 1
    return colors


def _directed_value4_witness(og: OrientedGraph, info) -> list[int]:
    """Directed spine: optimal 4-coloring of the cycle, pendants mirroring
    their neighbor along the cycle direction."""
    layout, fwd, role, comp, pend_in, pend_out = info
    n = layout.n
    step = 1 if fwd[0] else -1  # cycle direction: x_i -> x_{i+step}
    spine = construct_coloring(FamilyQuery("cycle", n))
    colors = [0] * og.vertex_count
    for i in range(n):
        colors[i] = spine[i]
    for i in range(n):
        for z in pend_in[i]:
            colors[z] = spine[(i - step) % n]
        for z in pend_out[i]:
            colors[z] = spine[(i + step) % n]
    return colors


def _source_deletion_witness4(og: OrientedGraph, info) -> list[int]:
    """Packing 4-coloring: 3-color the corona minus a spine source and its
    pendants (an oriented path corona), then give the source color 4 and its
    pendants color 1.  The source has no spine in-arcs, so old distances are
    unchanged."""
    layout, fwd, role, comp, pend_in, pend_out = info
    n, p = layout.n, layout.p
    s = min(i for i in range(n) if role[i] == "source")
    sub_base = corona("path", n - 1, p)

    def to_og(v: int) -> int:
        if v < n - 1:
            return (s + 1 + v) % n
        t, j = divmod(v - (n - 1), p)
        return layout.pendant((s + 1 + t) % n, j)

    arcs = og.arc_set()
    dirs = []
    for u, v in sub_base.canonical_edges():
        mu, mv = to_og(u), to_og(v)
        dirs.append((mv, mu) in arcs)
    sub_colors = color_oriented_path_corona(orient(sub_base, dirs))
    colors = [0] * og.vertex_count
    for v in range(sub_base.vertex_count):
        colors[to_og(v)] = sub_colors[v]
    colors[s] = 4
    for z in pend_in[s] + pend_out[s]:
        colors[z] = 1
    return colors


def _has_figure7(info) -> bool:
    """The four-cycle trap: a source s with the directed path s, s+d, s+2d
    ending in the adjacent sink t = s+3d, arc s->t, a pendant arc into s and
    one out of t."""
    layout, fwd, role, comp, pend_in, pend_out = info
    if layout.n != 4:
        return False

    def arc(a: int, b: int) -> bool:  # spine arc a -> b for adjacent a, b
        if (a + 1) % 4 == b:
            return fwd[a]
        return not fwd[b]

    for s in range(4):
        for d in (1, -1):
            t = (s + 3 * d) % 4
            if (
                arc(s, (s + d) % 4)
                and arc((s + d) % 4, (s + 2 * d) % 4)
                and arc((s + 2 * d) % 4, t)
                and arc(s, t)
                and pend_in[s]
                and pend_out[t]
            ):
                return True
    return False


def classify_oriented_cycle_corona(
    og: OrientedGraph,
) -> tuple[OrientedClassification, Coloring]:
    """Exact packing chromatic number (2, 3 or 4) of an oriented cycle corona
    with a validated witness coloring of that size."""
    info = _spine_structure(og)
    layout, fwd, role, comp, pend_in, pend_out = info
    n = layout.n
    if is_pcn_two(og):
        return (
            OrientedClassification(2, "bipartite-sources-sinks"),
            _validated(og, _two_part_witness(og)),
        )
    if len(set(fwd)) == 1:  # directed spine
        if n >= 5 and n % 4 != 0:
            return (
                OrientedClassification(4, "directed-cycle-bad-length"),
                _validated(og, _directed_value4_witness(og, info)),
            )
        if n == 3:
            w3 = _directed_c3_witness3(og, info)
            if w3 is not None:
                return (
                    OrientedClassification(3, "generic-3"),
                    _validated(og, w3),
                )
            return (
                OrientedClassification(4, "condition-2-3"),
                _validated(og, _directed_c3_witness4(og, info)),
            )
        spine = tuple((1, 2, 1, 3)[i % 4] for i in range(n))
        return (
            OrientedClassification(3, "generic-3"),
            _validated(og, _extend_spine(og, info, spine)),
        )
    spine = _cached_spine_search(n, fwd, role, comp)
    if spine is not None:
        return (
            OrientedClassification(3, "generic-3"),
            _validated(og, _extend_spine(og, info, spine)),
        )
    reason = "figure7-config" if _has_figure7(info) else "condition-2-3"
    return (
        OrientedClassification(4, reason),
        _validated(og, _source_deletion_witness4(og, info)),
    )
