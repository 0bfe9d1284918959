"""Exact decision, optimization, and counting for packing colorings.

Works on any DistanceMatrix, so the undirected and weak-directed metrics
share one search.  A vertex pair conflicts under color i when its distance
is defined and at most i; UNREACHABLE pairs never conflict.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import Coloring, DistanceMatrix, UNREACHABLE


class Outcome(enum.Enum):
    YES = "YES"
    NO = "NO"
    INDETERMINATE = "INDETERMINATE"


class WitnessError(RuntimeError):
    """A constructed coloring failed validation; never silently ignored."""


@dataclass(frozen=True)
class SearchBudget:
    max_color: Optional[int] = None  # cap for pcn deepening; None = vertex count
    node_limit: Optional[int] = 10**9  # per search, that is per k
    time_limit: Optional[float] = None  # seconds for the whole call; 0 = spent

    def __post_init__(self):
        if self.max_color is not None and self.max_color < 1:
            raise ValueError("max_color must be >= 1")
        for name in ("node_limit", "time_limit"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SearchStats:
    """Work of one call: nodes for each k searched, as (k, nodes) pairs;
    seconds outside the search (order, balls, twin classes, greedy bound)
    and inside it; and the twin classes of two or more vertices that the
    search broke symmetry over."""

    nodes_per_k: tuple[tuple[int, int], ...] = ()
    setup_s: float = 0.0
    search_s: float = 0.0
    twin_classes: int = 0


@dataclass(frozen=True)
class SearchResult:
    outcome: Outcome
    witness: Optional[Coloring] = None
    nodes: int = 0
    stats: SearchStats = SearchStats()


@dataclass(frozen=True)
class CountResult:
    outcome: Outcome
    count: Optional[int] = None
    nodes: int = 0
    stats: SearchStats = SearchStats()


@dataclass(frozen=True)
class PcnResult:
    outcome: Outcome
    value: Optional[int] = None
    witness: Optional[Coloring] = None
    nodes: int = 0
    stats: SearchStats = SearchStats()


def is_packing_coloring(dm: DistanceMatrix, coloring: Coloring) -> bool:
    return first_packing_conflict(dm, coloring) is None


def first_packing_conflict(
    dm: DistanceMatrix, coloring: Coloring
) -> Optional[tuple[int, int, int]]:
    """First (u, v, d) with equal colors c and d <= c, scanning u < v."""
    nv = dm.vertex_count
    if len(coloring) != nv:
        raise ValueError("coloring must assign every vertex")
    if any(c < 1 for c in coloring):
        raise ValueError("colors must be >= 1")
    for u in range(nv):
        row = dm.values[u]
        cu = coloring[u]
        for v in range(u + 1, nv):
            if coloring[v] != cu:
                continue
            d = row[v]
            if d is not UNREACHABLE and d <= cu:
                return (u, v, d)
    return None


def _ring(row, c: int) -> int:
    """Bitmask of the positions of row that hold exactly c."""
    mask, i = 0, -1
    for _ in range(row.count(c)):
        i = row.index(c, i + 1)
        mask |= 1 << i
    return mask


def _is_twin(ru, rv, u: int, v: int) -> bool:
    """Rows of u < v agree everywhere off the pair."""
    return (ru[:u] == rv[:u] and ru[u + 1:v] == rv[u + 1:v]
            and ru[v + 1:] == rv[v + 1:])


class _Setup:
    """Search set-up for one distance matrix, shared by every k of a call:
    degree order, balls grown ring by ring as k rises, twin predecessors,
    and one deadline that starts on entry."""

    def __init__(self, dm: DistanceMatrix, budget: SearchBudget):
        self.start = time.perf_counter()
        self.deadline = None if budget.time_limit is None else (
            self.start + budget.time_limit)
        self.node_limit = budget.node_limit
        self.rows = dm.values
        # highest degree first; the stable sort breaks ties by vertex index
        self.order = sorted(range(len(self.rows)), key=lambda v: -self.rows[v].count(1))
        self.balls = [[0] for _ in self.rows]  # balls[v][c]
        self.twin_classes = self.nodes = 0
        self.nodes_per_k: list[tuple[int, int]] = []
        self.search_s = 0.0

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def stats(self) -> SearchStats:
        setup_s = time.perf_counter() - self.start - self.search_s
        return SearchStats(tuple(self.nodes_per_k), setup_s, self.search_s,
                           self.twin_classes)

    def ball(self, v: int, c: int) -> int:
        """Vertices within distance c of v (v excluded): ball[c-1] | ring[c]."""
        balls = self.balls[v]
        while len(balls) <= c:
            balls.append(balls[-1] | _ring(self.rows[v], len(balls)))
        return balls[c]

    @cached_property
    def twin_pred(self) -> list[Optional[int]]:
        """For each vertex, an earlier interchangeable twin in search order.

        A twin class has pairwise-equal distance rows off the pair and one
        uniform internal distance, so any color permutation inside it is a
        distance automorphism; forcing nondecreasing colors along the class
        is a sound symmetry break for decision searches (never counting).
        Twins of a symmetric matrix with zero diagonal (both distance
        builders give one) have equal sorted rows, so the confirming scan
        runs inside those buckets; elsewhere a bucket can only hide twins.
        """
        rows, unset = self.rows, object()
        buckets: dict[tuple, list[list]] = {}  # [members, internal distance]
        for v, rv in enumerate(rows):
            if self.expired():  # no search follows; stop rather than overrun
                break
            classes = buckets.setdefault(tuple(sorted(filter(None, rv))), [])
            for entry in classes:
                members, dist = entry
                d = rows[members[0]][v]
                if dist is not unset and d != dist:
                    continue
                if all(_is_twin(rows[w], rv, w, v) and rows[w][v] == d
                       for w in members):
                    members.append(v)
                    entry[1] = d
                    break
            else:
                classes.append([[v], unset])
        pos = {v: idx for idx, v in enumerate(self.order)}
        pred: list[Optional[int]] = [None] * len(rows)
        for classes in buckets.values():
            for members, _ in classes:
                self.twin_classes += len(members) > 1
                members.sort(key=pos.__getitem__)
                for a, b in zip(members, members[1:]):
                    pred[b] = a
        return pred

    def greedy(self) -> tuple[int, Coloring]:
        """Smallest conflict-free color for each vertex in search order."""
        colors = [0] * len(self.order)
        used = [0]  # used[c]: bitmask of the vertices colored c so far
        for v in self.order:
            c = 1
            while c < len(used) and used[c] & self.ball(v, c):
                c += 1
            if c == len(used):
                used.append(0)
            used[c] |= 1 << v
            colors[v] = c
        return max(colors), tuple(colors)

    def search(self, k: int, counting: bool = False):
        """(count, first witness, exhausted) over colors <= k; a decision
        search stops at its first coloring and breaks twin symmetry."""
        for v in self.order:
            self.ball(v, k)
        twin_pred = [None] * len(self.order) if counting else self.twin_pred
        if self.expired():
            return 0, None, True
        order, balls, nv = self.order, self.balls, len(self.order)
        node_limit, deadline = self.node_limit, self.deadline
        colors = [0] * nv
        forbidden = [0] * (k + 1)  # per color, bitmask of blocked vertices
        count = nodes = 0
        witness: Optional[Coloring] = None
        exhausted = False

        def rec(idx: int, uncolored: int):
            nonlocal count, nodes, witness, exhausted
            if idx == nv:
                count += 1
                if witness is None:
                    witness = tuple(colors)
                return not counting
            v = order[idx]
            bit = 1 << v
            lo = 1
            tp = twin_pred[v]
            if tp is not None and colors[tp]:
                lo = colors[tp]
            for c in range(lo, k + 1):
                if forbidden[c] & bit:
                    continue
                nodes += 1
                if (node_limit is not None and nodes > node_limit) or (
                        deadline is not None and nodes % 4096 == 0
                        and time.perf_counter() >= deadline):
                    exhausted = True
                    return True
                colors[v] = c
                saved = forbidden[c]
                forbidden[c] = saved | balls[v][c]
                rest = uncolored & ~bit
                dead = rest  # uncolored vertices with no admissible color
                for cc in range(1, k + 1):
                    dead &= forbidden[cc]
                    if not dead:
                        break
                if not dead:
                    if rec(idx + 1, rest):
                        forbidden[c] = saved
                        colors[v] = 0
                        return True
                forbidden[c] = saved
                colors[v] = 0
                if exhausted:
                    return True
            return False

        t0 = time.perf_counter()
        rec(0, (1 << nv) - 1)
        self.search_s += time.perf_counter() - t0
        self.nodes += nodes
        self.nodes_per_k.append((k, nodes))
        return count, witness, exhausted


def _validated(dm: DistanceMatrix, witness: Coloring) -> Coloring:
    """The witness, after an explicit packing check that -O keeps."""
    conflict = first_packing_conflict(dm, witness)
    if conflict is not None:
        raise WitnessError(f"search returned an invalid coloring: {conflict}")
    return witness


def exists_packing_k_coloring(
    dm: DistanceMatrix, k: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Complete backtracking search for a packing k-coloring."""
    if k < 1:
        raise ValueError("k must be >= 1")
    setup = _Setup(dm, budget or SearchBudget())
    count, witness, exhausted = setup.search(k)
    stats = setup.stats()
    if exhausted:
        return SearchResult(Outcome.INDETERMINATE, None, setup.nodes, stats)
    if count:
        return SearchResult(Outcome.YES, _validated(dm, witness), setup.nodes, stats)
    return SearchResult(Outcome.NO, None, setup.nodes, stats)


def greedy_upper_bound(dm: DistanceMatrix) -> tuple[int, Coloring]:
    """Greedy coloring in the search order; seeds iterative deepening."""
    return _Setup(dm, SearchBudget()).greedy()


def packing_chromatic_number(
    dm: DistanceMatrix, budget: Optional[SearchBudget] = None
) -> PcnResult:
    """Smallest k with a packing k-coloring, with a validated witness.

    One set-up serves every k.  The time limit covers the whole call, the
    greedy bound and set-up included; node_limit applies to each k.
    """
    budget = budget or SearchBudget()
    setup = _Setup(dm, budget)
    if setup.expired():
        return PcnResult(Outcome.INDETERMINATE, stats=setup.stats())
    ub, witness = setup.greedy()
    for k in range(1, min(ub, budget.max_color or ub) + 1):
        if k < ub:  # at k == ub the greedy coloring is the witness
            count, found, exhausted = setup.search(k)
            if exhausted:
                break
            if not count:
                continue
            witness = found
        stats = setup.stats()
        return PcnResult(Outcome.YES, k, _validated(dm, witness), setup.nodes, stats)
    return PcnResult(Outcome.INDETERMINATE, None, None, setup.nodes, setup.stats())


def count_packing_k_colorings(
    dm: DistanceMatrix, k: int, budget: Optional[SearchBudget] = None
) -> CountResult:
    """Number of labeled packing colorings with colors <= k.

    Symmetry breaking is disabled here: the count is over labeled colorings.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    setup = _Setup(dm, budget or SearchBudget())
    count, _, exhausted = setup.search(k, counting=True)
    if exhausted:
        return CountResult(Outcome.INDETERMINATE, None, setup.nodes, setup.stats())
    return CountResult(Outcome.YES, count, setup.nodes, setup.stats())
