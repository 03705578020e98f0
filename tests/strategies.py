"""Random graph generators: seeded builders for the reproducible suites and
hypothesis strategies wrapping them."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from hypothesis import strategies as st

from graphspine.errors import Disconnected
from graphspine.graphs import Cycle, Edge, MetricGraph, normalize_volume
from graphspine.maps import CombinatorialMap


def random_lengths(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(count)]


def random_connected_multigraph(rng: random.Random, max_vertices: int = 6,
                                max_edges: int = 8) -> MetricGraph:
    """Connected multigraph with at least one cycle; loops and parallel edges
    welcome."""
    nv = rng.randint(1, max_vertices)
    min_edges = max(nv, 1)  # guarantees rank >= 1 given connectivity
    ne = rng.randint(min_edges, max(max_edges, min_edges))
    pairs: list[tuple[int, int]] = []
    for v in range(1, nv):
        pairs.append((rng.randrange(v), v))
    while len(pairs) < ne:
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    lengths = random_lengths(rng, len(pairs))
    edges = tuple(Edge(i, u, v, lengths[i]) for i, (u, v) in enumerate(pairs))
    return MetricGraph(nv, edges, f"random-{nv}v-{ne}e")


def random_cubic_graph(seed, num_vertices: int) -> MetricGraph:
    """A simple connected cubic graph by the pairing model: three half-edges
    per vertex matched uniformly at random, redrawn until simple and
    connected; then lengths p/q with 1 <= p, q <= 12, volume normalised.
    The same seed gives the same graph as the benchmark's cubic generator."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(num_vertices) for _ in range(3)]
        rng.shuffle(points)
        pairs = [(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])]
        if any(u == v for u, v in pairs) or len(set(pairs)) < len(pairs):
            continue
        edges = tuple(Edge(i, u, v, Fraction(1)) for i, (u, v) in enumerate(pairs))
        try:
            g = MetricGraph(num_vertices, edges, f"cubic-{num_vertices}")
        except Disconnected:
            continue
        lengths = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in pairs]
        return normalize_volume(g.with_lengths(dict(enumerate(lengths))))


def random_outer_graph(rng: random.Random, rank_lo: int = 2, rank_hi: int = 5) -> MetricGraph:
    """Volume-1 graph of the given rank range with all degrees >= 3."""
    while True:
        n = rng.randint(rank_lo, rank_hi)
        nv = rng.randint(1, 2 * n - 2)
        ne = nv + n - 1
        tree = [(rng.randrange(v), v) for v in range(1, nv)]
        chords = [[rng.randrange(nv), rng.randrange(nv)] for _ in range(ne - len(tree))]

        def degrees():
            deg = [0] * nv
            for u, v in tree:
                deg[u] += 1
                deg[v] += 1
            for u, v in chords:
                deg[u] += 1
                deg[v] += 1
            return deg

        ok = True
        for _ in range(100):
            deg = degrees()
            needy = [v for v in range(nv) if deg[v] < 3]
            if not needy:
                break
            target = needy[0]
            donors = [
                (ci, end) for ci, chord in enumerate(chords) for end in (0, 1)
                if deg[chord[end]] > 3
            ]
            if not donors:
                ok = False
                break
            ci, end = donors[rng.randrange(len(donors))]
            chords[ci][end] = target
        else:
            ok = False
        if not ok or any(d < 3 for d in degrees()):
            continue
        pairs = tree + [tuple(c) for c in chords]
        lengths = random_lengths(rng, len(pairs))
        edges = tuple(Edge(i, u, v, lengths[i]) for i, (u, v) in enumerate(pairs))
        return normalize_volume(MetricGraph(nv, edges, f"outer-{n}-{nv}v"))


def random_rotation_system(rng: random.Random, twisted: bool) -> CombinatorialMap:
    """A random connected multigraph (loops and parallel edges welcome) with a
    random cyclic order of the darts at each vertex; when ``twisted``, each
    edge is twisted with probability 1/2."""
    g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
    rotations: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for e in g.edges:
        rotations[e.u].append((e.id, 0))
        rotations[e.v].append((e.id, 1))
    for rot in rotations:
        rng.shuffle(rot)
    twists = frozenset(e.id for e in g.edges if twisted and rng.random() < 0.5)
    return CombinatorialMap(g, tuple(map(tuple, rotations)), twists)


def relabel_graph(g: MetricGraph, vertex_map: Sequence[int], edge_map: Mapping[int, int],
                  name: Optional[str] = None) -> MetricGraph:
    """Apply a relabeling (used by the equivariance test suites)."""
    new_edges = tuple(
        Edge(edge_map[e.id], vertex_map[e.u], vertex_map[e.v], e.length) for e in g.edges
    )
    return MetricGraph(g.num_vertices, new_edges, name if name is not None else g.name)


def relabel_cycle(c: Cycle, edge_map: Mapping[int, int]) -> Cycle:
    return Cycle(tuple((edge_map[eid], d) for eid, d in c.steps)).canonical()


def random_relabeling(rng: random.Random, g: MetricGraph):
    """A random vertex permutation and edge-id permutation of g."""
    vperm = list(range(g.num_vertices))
    rng.shuffle(vperm)
    ids = [e.id for e in g.edges]
    new_ids = list(ids)
    rng.shuffle(new_ids)
    emap = dict(zip(ids, new_ids))
    return relabel_graph(g, vperm, emap, name=g.name + "-relabeled"), vperm, emap


@st.composite
def multigraphs(draw, max_vertices: int = 5, max_edges: int = 8):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_connected_multigraph(random.Random(seed), max_vertices, max_edges)


@st.composite
def outer_graphs(draw, rank_lo: int = 2, rank_hi: int = 4):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_outer_graph(random.Random(seed), rank_lo, rank_hi)


@st.composite
def rotation_systems(draw, twisted: bool):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_rotation_system(random.Random(seed), twisted)
