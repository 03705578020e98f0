"""Embedded-cycle search engine.

Weighted girth, the complete set of minimum cycles, bounded enumeration of
all embedded cycles, and the least cycle length strictly above a threshold.
All weights are exact rationals; ties are ties, never epsilons.

A shortest non-trivial closed curve in a graph never repeats a vertex (it
would split there into two shorter ones), so only embedded cycles are ever
enumerated and the search space is finite.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Mapping, Optional

from .errors import BudgetExceeded, NoCycle
from .graphs import Cycle, MetricGraph

DEFAULT_CYCLE_CAP = 10**7


def _as_weights(g: MetricGraph, weights: Optional[Mapping[int, Fraction]]) -> Mapping[int, Fraction]:
    if weights is None:
        return g.lengths
    missing = {e.id for e in g.edges} - set(weights)
    if missing:
        raise ValueError(f"weights missing for edges {sorted(missing)}")
    return weights


def bridge_ids(g: MetricGraph) -> frozenset[int]:
    """Edges on no cycle at all.  Loops are never bridges; a parallel pair is
    never a bridge."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for e in g.edges:
        if e.is_loop:
            continue
        adj[e.u].append((e.id, e.v))
        adj[e.v].append((e.id, e.u))

    visited = [False] * g.num_vertices
    disc = [0] * g.num_vertices
    low = [0] * g.num_vertices
    bridges: set[int] = set()
    counter = itertools.count(1)

    for root in range(g.num_vertices):
        if visited[root]:
            continue
        # iterative DFS; entry edge id is skipped once (parallel copies still count)
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        order: list[tuple[int, int]] = []
        while stack:
            v, in_edge, idx = stack.pop()
            if idx == 0:
                visited[v] = True
                disc[v] = low[v] = next(counter)
                order.append((v, in_edge))
            if idx < len(adj[v]):
                stack.append((v, in_edge, idx + 1))
                eid, w = adj[v][idx]
                if eid == in_edge:
                    continue
                if visited[w]:
                    low[v] = min(low[v], disc[w])
                else:
                    stack.append((w, eid, 0))
        # fold low-links back up in reverse discovery order
        for v, in_edge in reversed(order):
            for eid, w in adj[v]:
                if eid != in_edge and disc[w] > disc[v]:
                    low[v] = min(low[v], low[w])
            if in_edge != -1 and low[v] == disc[v]:
                bridges.add(in_edge)
    return frozenset(bridges)


def _dijkstra(g: MetricGraph, source: int, weights: Mapping[int, Fraction],
              allowed=None) -> dict[int, Fraction]:
    """Exact single-source distances; ``allowed(edge_id)`` filters edges."""
    dist: dict[int, Fraction] = {source: Fraction(0)}
    done: set[int] = set()
    counter = itertools.count()
    heap: list = [(Fraction(0), next(counter), source)]
    adj = g.adjacency
    while heap:
        d, _, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for eid, y in adj[x]:
            if allowed is not None and not allowed(eid):
                continue
            nd = d + weights[eid]
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, next(counter), y))
    return dist


def girth_value(g: MetricGraph, weights: Optional[Mapping[int, Fraction]] = None) -> Optional[Fraction]:
    """Minimum weight over embedded cycles, or None for a forest.

    Per-edge approach: a loop is a cycle by itself; for every other non-bridge
    edge, its best cycle is the edge plus the shortest path between its
    endpoints avoiding it.
    """
    w = _as_weights(g, weights)
    best: Optional[Fraction] = None
    bridges = bridge_ids(g)
    for e in g.edges:
        if e.is_loop:
            cand = w[e.id]
        elif e.id in bridges:
            continue
        else:
            dist = _dijkstra(g, e.u, w, allowed=lambda eid: eid != e.id)
            if e.v not in dist:
                continue
            cand = w[e.id] + dist[e.v]
        if best is None or cand < best:
            best = cand
    return best


def cycles_up_to_length(g: MetricGraph, bound: Fraction,
                        weights: Optional[Mapping[int, Fraction]] = None,
                        cap: int = DEFAULT_CYCLE_CAP) -> tuple[Cycle, ...]:
    """All embedded cycles of weight <= bound, complete and duplicate-free.

    Each cycle is anchored at its minimum edge id: the search walks simple
    paths between the anchor's endpoints using only larger ids, pruned by
    exact shortest-path lower bounds.
    """
    w = _as_weights(g, weights)
    bound = Fraction(bound)
    if bound < 0:
        return ()
    bridges = bridge_ids(g)
    found: list[Cycle] = []
    adj = g.adjacency

    for anchor in g.edges:
        aid = anchor.id
        if w[aid] > bound:
            continue
        if anchor.is_loop:
            found.append(Cycle.make(g, ((aid, 0),)))
            if len(found) > cap:
                raise BudgetExceeded(f"more than {cap} cycles within bound", len(found))
            continue
        if aid in bridges:
            continue

        def usable(eid: int, _aid=aid) -> bool:
            return eid > _aid and eid not in bridges

        goal = anchor.u
        dist_to_goal = _dijkstra(g, goal, w, allowed=usable)
        budget = bound - w[aid]
        if dist_to_goal.get(anchor.v, None) is None or dist_to_goal[anchor.v] > budget:
            continue

        # DFS over simple paths anchor.v -> anchor.u on edges with id > aid
        def dfs(x: int, used: Fraction, visited: set[int], steps: list[tuple[int, int]]):
            for eid, y in adj[x]:
                if not usable(eid):
                    continue
                e = g.edge_by_id[eid]
                if e.is_loop:
                    continue
                nd = used + w[eid]
                if y == goal:
                    if nd <= budget:
                        direction = 0 if x == e.u else 1
                        cyc = Cycle.make(g, [(aid, 0)] + steps + [(eid, direction)])
                        found.append(cyc)
                        if len(found) > cap:
                            raise BudgetExceeded(
                                f"more than {cap} cycles within bound", len(found))
                    continue
                if y in visited:
                    continue
                lb = dist_to_goal.get(y)
                if lb is None or nd + lb > budget:
                    continue
                direction = 0 if x == e.u else 1
                visited.add(y)
                steps.append((eid, direction))
                dfs(y, nd, visited, steps)
                steps.pop()
                visited.discard(y)

        dfs(anchor.v, Fraction(0), {anchor.v, goal}, [])

    uniq = sorted(set(found), key=Cycle.sort_key)
    assert len(uniq) == len(found), "anchored enumeration emitted a duplicate"
    return tuple(uniq)


def minimum_cycles(g: MetricGraph, weights: Optional[Mapping[int, Fraction]] = None,
                   cap: int = DEFAULT_CYCLE_CAP) -> tuple[Fraction, tuple[Cycle, ...]]:
    """Girth together with the complete, canonically sorted set of cycles
    attaining it."""
    girth = girth_value(g, weights)
    if girth is None:
        raise NoCycle("graph has no embedded cycle")
    cycles = cycles_up_to_length(g, girth, weights=weights, cap=cap)
    w = _as_weights(g, weights)
    assert cycles and all(
        sum((w[eid] for eid, _ in c.steps), Fraction(0)) == girth for c in cycles
    )
    return girth, cycles


def shortest_cycle(g: MetricGraph, weights: Optional[Mapping[int, Fraction]] = None,
                   cap: int = DEFAULT_CYCLE_CAP) -> tuple[Fraction, Cycle]:
    """Minimum cycle weight and the witness with the lexicographically
    smallest normalized edge-id sequence."""
    girth, cycles = minimum_cycles(g, weights, cap=cap)
    return girth, cycles[0]


def all_systoles(g: MetricGraph, cap: int = DEFAULT_CYCLE_CAP) -> tuple[Cycle, ...]:
    """Every embedded cycle of minimal length, canonical and sorted."""
    return minimum_cycles(g, cap=cap)[1]


def shortest_cycle_above(g: MetricGraph, weights: Optional[Mapping[int, Fraction]],
                         threshold: Fraction,
                         cap: int = DEFAULT_CYCLE_CAP) -> Optional[tuple[Fraction, Cycle]]:
    """Least cycle weight strictly greater than ``threshold`` with a witness,
    or None when every cycle is at most the threshold (or no cycle exists).

    Per edge, simple paths between the endpoints are expanded best-first (an
    exact k-shortest-paths enumeration), skipping totals <= threshold and
    pruning at the best candidate found so far.
    """
    w = _as_weights(g, weights)
    threshold = Fraction(threshold)
    best: Optional[tuple[Fraction, Cycle]] = None
    bridges = bridge_ids(g)
    adj = g.adjacency
    expansions = 0

    def better(length: Fraction, cyc: Cycle) -> bool:
        return best is None or (length, cyc.sort_key()) < (best[0], best[1].sort_key())

    for e in g.edges:
        if e.is_loop:
            if w[e.id] > threshold:
                cyc = Cycle.make(g, ((e.id, 0),))
                if better(w[e.id], cyc):
                    best = (w[e.id], cyc)
            continue
        if e.id in bridges:
            continue
        h = _dijkstra(g, e.u, w, allowed=lambda eid: eid != e.id)
        if e.v not in h:
            continue
        counter = itertools.count()
        start = (h[e.v], next(counter), Fraction(0), e.v, (), frozenset((e.v,)))
        heap = [start]
        while heap:
            f, _, glen, x, steps, visited = heapq.heappop(heap)
            total_lb = f + w[e.id]
            if best is not None and total_lb >= best[0]:
                break  # nothing cheaper can complete from here on
            if x == e.u and steps:
                total = glen + w[e.id]
                if total > threshold:
                    cyc = Cycle.make(g, ((e.id, 0),) + steps)
                    if better(total, cyc):
                        best = (total, cyc)
                    break  # first completion above threshold is minimal for e
                continue
            for eid, y in adj[x]:
                if eid == e.id or y in visited and y != e.u:
                    continue
                edge = g.edge_by_id[eid]
                if edge.is_loop:
                    continue
                if y == e.u and x == e.u:
                    continue
                ng = glen + w[eid]
                hy = h.get(y)
                if hy is None:
                    continue
                if best is not None and ng + hy + w[e.id] >= best[0]:
                    continue
                expansions += 1
                if expansions > cap:
                    raise BudgetExceeded(f"more than {cap} path expansions", expansions)
                direction = 0 if x == edge.u else 1
                heapq.heappush(heap, (ng + hy, next(counter), ng, y,
                                      steps + ((eid, direction),),
                                      visited | {y}))
    return best
