"""Seeded input generators for the benchmark.

Both generators take an integer-or-string seed and return the plain text of
a `.graph` file, so the program under test only ever sees files.  They use
the pairing (configuration) model: every vertex gets a number of half-edges,
the half-edges are matched uniformly at random, and a draw that breaks a
requirement is thrown away and redrawn.
"""

from __future__ import annotations

import random


def _lengths(rng: random.Random, count: int) -> list[str]:
    return [f"{rng.randint(1, 12)}/{rng.randint(1, 12)}" for _ in range(count)]


def _is_connected(num_vertices: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == num_vertices


def _pairing(rng: random.Random, degrees: list[int]) -> list[tuple[int, int]]:
    points = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(points)
    return [(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])]


def _graph_text(name: str, num_vertices: int, pairs: list[tuple[int, int]],
                lengths: list[str]) -> str:
    lines = [f"graph {name}", f"vertices {num_vertices}"]
    lines += [f"edge {i} {u} {v} {w}" for i, ((u, v), w) in enumerate(zip(pairs, lengths))]
    return "\n".join(lines) + "\n"


def cubic_graph_text(seed, num_vertices: int, name: str) -> str:
    """A random simple connected cubic graph on ``num_vertices`` (even)
    vertices with edge lengths p/q, 1 <= p, q <= 12."""
    if num_vertices < 4 or num_vertices % 2:
        raise ValueError("a simple cubic graph needs an even vertex count >= 4")
    rng = random.Random(seed)
    while True:
        pairs = _pairing(rng, [3] * num_vertices)
        if (all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)
                and _is_connected(num_vertices, pairs)):
            return _graph_text(name, num_vertices, pairs, _lengths(rng, len(pairs)))


def outer_graph_text(seed, rank: int, name: str) -> str:
    """A random connected multigraph of the given rank (>= 2) with every
    degree >= 3 (loops count twice); loops and parallel edges are allowed,
    edge lengths are p/q, 1 <= p, q <= 12."""
    if rank < 2:
        raise ValueError("outer space starts at rank 2")
    rng = random.Random(seed)
    while True:
        num_vertices = rng.randint(1, 2 * rank - 2)
        num_edges = num_vertices + rank - 1
        degrees = [3] * num_vertices
        for _ in range(2 * num_edges - 3 * num_vertices):
            degrees[rng.randrange(num_vertices)] += 1
        pairs = _pairing(rng, degrees)
        if _is_connected(num_vertices, pairs):
            return _graph_text(name, num_vertices, pairs, _lengths(rng, len(pairs)))
