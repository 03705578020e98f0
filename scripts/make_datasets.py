#!/usr/bin/env python3
"""Regenerate the bundled datasets under src/graphspine/data/.

Every file is rebuilt from first principles (coordinates, group elements, or
explicit rotations), validated with the library, and frozen together with a
.props sidecar of computed properties.  Deterministic: rerunning produces
byte-identical output.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphspine.graphs import Edge, MetricGraph, rank, serialize_graph, are_isomorphic
from graphspine.maps import (
    CombinatorialMap,
    flag_transitivity,
    map_type_check,
    serialize_map,
    systoles_equal_faces,
)
from graphspine.cycles import minimum_cycles

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "graphspine" / "data"

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# coordinate-based sphere maps


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _norm(a):
    n = math.sqrt(_dot(a, a))
    return tuple(x / n for x in a)


def sphere_map(coords, name, length=Fraction(1)) -> CombinatorialMap:
    """Polyhedron skeleton with rotations read counterclockwise as seen from
    outside; edges connect vertex pairs at minimal distance."""
    n = len(coords)
    dmin = min(
        math.dist(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)
    )
    pairs = sorted(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if math.dist(coords[i], coords[j]) < dmin * 1.001
    )
    edges = tuple(Edge(eid, u, v, length) for eid, (u, v) in enumerate(pairs))
    g = MetricGraph(n, edges, name)
    rotations = []
    for v in range(n):
        nv = _norm(coords[v])
        incident = [(e.id, e.other(v)) for e in edges if v in (e.u, e.v)]
        d0 = _norm(_sub(coords[incident[0][1]], coords[v]))
        e1 = _norm(_sub(d0, tuple(x * _dot(d0, nv) for x in nv)))
        e2 = _cross(nv, e1)
        def angle(item):
            d = _sub(coords[item[1]], coords[v])
            return math.atan2(_dot(d, e2), _dot(d, e1))
        ordered = sorted(incident, key=angle)
        rot = []
        for eid, _ in ordered:
            e = g.edge_by_id[eid]
            rot.append((eid, 0 if e.u == v else 1))
        rotations.append(tuple(rot))
    return CombinatorialMap(g, tuple(rotations))


def tetrahedron_map() -> CombinatorialMap:
    coords = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return sphere_map(coords, "tetrahedron")


def cube_map() -> CombinatorialMap:
    coords = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return sphere_map(coords, "cube")


def dodecahedron_map() -> tuple[CombinatorialMap, list]:
    coords = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    coords += [(0, y, z) for y in (-1 / PHI, 1 / PHI) for z in (-PHI, PHI)]
    coords += [(x, y, 0) for x in (-1 / PHI, 1 / PHI) for y in (-PHI, PHI)]
    coords += [(x, 0, z) for x in (-PHI, PHI) for z in (-1 / PHI, 1 / PHI)]
    return sphere_map(coords, "dodecahedron"), coords


# ---------------------------------------------------------------------------
# antipodal quotient (hemi-dodecahedron = Petersen in the projective plane)


def petersen_projective_map() -> CombinatorialMap:
    dod, coords = dodecahedron_map()
    g = dod.graph
    key = lambda p: tuple(round(x, 6) for x in p)
    index = {key(p): i for i, p in enumerate(coords)}
    anti = [index[key(tuple(-x for x in p))] for p in coords]

    pair_of = lambda v: tuple(sorted((v, anti[v])))
    vpairs = sorted({pair_of(v) for v in range(g.num_vertices)})
    hemi_vertex = {pair: i for i, pair in enumerate(vpairs)}
    chosen = {pair: pair[0] for pair in vpairs}

    def anti_edge(eid: int) -> int:
        e = g.edge_by_id[eid]
        a, b = sorted((anti[e.u], anti[e.v]))
        for f in g.edges:
            if tuple(sorted((f.u, f.v))) == (a, b):
                return f.id
        raise AssertionError("antipodal edge missing")

    epairs = sorted({tuple(sorted((e.id, anti_edge(e.id)))) for e in g.edges})
    hemi_edge = {}
    for new_id, pair in enumerate(epairs):
        for eid in pair:
            hemi_edge[eid] = new_id

    hemi_edges = []
    twists = set()
    for new_id, (e1_id, _) in enumerate(epairs):
        e1 = g.edge_by_id[e1_id]
        hu = hemi_vertex[pair_of(e1.u)]
        hv = hemi_vertex[pair_of(e1.v)]
        assert hu != hv
        hemi_edges.append(Edge(new_id, hu, hv, Fraction(1)))
    hg = MetricGraph(len(vpairs), tuple(hemi_edges), "petersen_projective")

    # a hemi edge is twisted when the lift at a chosen vertex lands on a
    # non-chosen vertex at the other end
    for new_id, (e1_id, e2_id) in enumerate(epairs):
        e1 = g.edge_by_id[e1_id]
        if e1.u == chosen[pair_of(e1.u)]:
            lift, here = e1, e1.u
        else:
            lift, here = g.edge_by_id[e2_id], anti[e1.u]
        other = lift.other(here)
        if other != chosen[pair_of(other)]:
            twists.add(new_id)

    rotations = []
    for pair in vpairs:
        v = chosen[pair]
        rot = []
        for eid, end in dod.rotations[v]:
            e = g.edge_by_id[eid]
            new_id = hemi_edge[eid]
            he = hg.edge_by_id[new_id]
            hv = hemi_vertex[pair]
            rot.append((new_id, 0 if he.u == hv else 1))
        rotations.append(tuple(rot))
    return CombinatorialMap(hg, tuple(rotations), frozenset(twists))


# ---------------------------------------------------------------------------
# abstract maps from permutations


def map_from_perms(darts, sigma, alpha, name) -> CombinatorialMap:
    darts = sorted(darts)

    def orbits(perm):
        remaining = set(darts)
        out = []
        while remaining:
            start = min(remaining)
            orbit = [start]
            remaining.discard(start)
            d = perm[start]
            while d != start:
                orbit.append(d)
                remaining.discard(d)
                d = perm[d]
            out.append(tuple(orbit))
        return sorted(out)

    vorbits = orbits(sigma)
    vertex_of = {}
    for i, orbit in enumerate(vorbits):
        for d in orbit:
            vertex_of[d] = i

    eorbits = sorted(tuple(sorted((d, alpha[d]))) for d in darts if d <= alpha[d])
    edges = []
    dart_name = {}
    for eid, (d0, d1) in enumerate(eorbits):
        edges.append(Edge(eid, vertex_of[d0], vertex_of[d1], Fraction(1)))
        dart_name[d0] = (eid, 0)
        dart_name[d1] = (eid, 1)
    g = MetricGraph(len(vorbits), tuple(edges), name)

    rotations = []
    for orbit in vorbits:
        rotations.append(tuple(dart_name[d] for d in _follow(sigma, orbit[0])))
    return CombinatorialMap(g, tuple(rotations))


def _follow(perm, start):
    out = [start]
    d = perm[start]
    while d != start:
        out.append(d)
        d = perm[d]
    return out


def k7_torus_map() -> CombinatorialMap:
    """Complete graph on Z/7 triangulating the torus: every vertex uses the
    same cyclic order of differences; the order is searched for."""
    darts = [(i, d) for i in range(7) for d in range(1, 7)]
    alpha = {(i, d): ((i + d) % 7, 7 - d) for i, d in darts}
    for tail in permutations((2, 3, 4, 5, 6)):
        order = (1,) + tail
        sigma = {}
        for i in range(7):
            for k, d in enumerate(order):
                sigma[(i, d)] = (i, order[(k + 1) % 6])
        m = map_from_perms(darts, sigma, alpha, "k7")
        t = map_type_check(m)
        if t.uniform and t.p == 3:
            return m
    raise AssertionError("no triangulating rotation found for K7")


def heawood_torus_map() -> CombinatorialMap:
    """Dual of the K7 triangulation: vertices become the 14 triangles, faces
    the 7 hexagons around the original vertices."""
    k7 = k7_torus_map()
    darts = list(k7.darts)
    sigma_star = {d: k7.sigma[k7.alpha[d]] for d in darts}
    alpha = dict(k7.alpha)
    m = map_from_perms(darts, sigma_star, alpha, "heawood_torus")
    return m


def klein_73_map() -> CombinatorialMap:
    """The genus-3 map of type {7,3} whose rotation group is PSL(2,7):
    darts are the 168 group elements, the vertex rotation is left
    multiplication by an order-3 element, the edge involution by an
    involution whose product with it has order 7."""
    def canon(m):
        neg = tuple((-x) % 7 for x in m)
        return min(m, neg)

    def mul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return canon(((a * e + b * g) % 7, (a * f + b * h) % 7,
                      (c * e + d * g) % 7, (c * f + d * h) % 7))

    els = sorted(
        canon((a, b, c, d))
        for a, b, c, d in product(range(7), repeat=4)
        if (a * d - b * c) % 7 == 1
    )
    els = sorted(set(els))
    assert len(els) == 168
    x = canon((0, 1, 6, 1))   # order 3
    z = canon((0, 6, 1, 0))   # order 2
    xz = mul(x, z)
    assert mul(x, mul(x, x)) == canon((1, 0, 0, 1))
    assert mul(z, z) == canon((1, 0, 0, 1))
    power = xz
    for _ in range(6):
        power = mul(xz, power)
    assert power == canon((1, 0, 0, 1))

    sigma = {g: mul(x, g) for g in els}
    alpha = {g: mul(z, g) for g in els}
    return map_from_perms(els, sigma, alpha, "klein_73")


# ---------------------------------------------------------------------------
# handcrafted small examples


def theta_map() -> CombinatorialMap:
    third = Fraction(1, 3)
    g = MetricGraph(2, tuple(Edge(i, 0, 1, third) for i in range(3)), "theta")
    rotations = (((0, 0), (1, 0), (2, 0)), ((2, 1), (1, 1), (0, 1)))
    return CombinatorialMap(g, rotations)


def dumbbell_equal_map() -> CombinatorialMap:
    third = Fraction(1, 3)
    g = MetricGraph(
        2,
        (Edge(0, 0, 0, third), Edge(1, 1, 1, third), Edge(2, 0, 1, third)),
        "dumbbell_equal",
    )
    rotations = (((0, 0), (0, 1), (2, 0)), ((2, 1), (1, 0), (1, 1)))
    return CombinatorialMap(g, rotations)


def dumbbell_unequal_graph() -> MetricGraph:
    return MetricGraph(
        2,
        (Edge(0, 0, 0, Fraction(1, 4)), Edge(1, 1, 1, Fraction(5, 12)),
         Edge(2, 0, 1, Fraction(1, 3))),
        "dumbbell_unequal",
    )


def rose2_graph() -> MetricGraph:
    half = Fraction(1, 2)
    return MetricGraph(1, (Edge(0, 0, 0, half), Edge(1, 0, 0, half)), "rose2")


# ---------------------------------------------------------------------------
# sidecars


def props_for_graph(g: MetricGraph) -> dict:
    girth, mins = minimum_cycles(g)
    return {
        "V": g.num_vertices,
        "E": g.num_edges,
        "rank": rank(g),
        "volume": g.volume,
        "systole_length": girth,
        "systole_count": len(mins),
    }


def props_for_map(m: CombinatorialMap, with_face_verdict: bool) -> dict:
    g = m.graph
    faces = m.faces
    t = map_type_check(m)
    ft = flag_transitivity(m)
    girth, mins = minimum_cycles(m.skeleton_unit())
    props = {
        "V": g.num_vertices,
        "E": g.num_edges,
        "F": faces.count,
        "rank": rank(g),
        "volume": g.volume,
        "uniform": t.uniform,
        "orientable": faces.orientable,
        "euler_characteristic": faces.euler_characteristic,
        "girth": girth,
        "min_cycle_count": len(mins),
        "flag_transitive": ft.transitive,
        "aut_order": ft.aut_order,
    }
    if t.uniform:
        props["p"] = t.p
        props["q"] = t.q
        if with_face_verdict:
            props["faces_equal_min_cycles"] = systoles_equal_faces(m).equal
    if faces.orientable:
        props["genus"] = faces.genus
    else:
        props["crosscaps"] = faces.crosscaps
    return props


def write_props(out_dir: Path, name: str, props: dict) -> None:
    lines = []
    for key, value in props.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        lines.append(f"{key} {value}")
    (out_dir / f"{name}.props").write_text("\n".join(lines) + "\n")


def main(out_dir: Path = DATA_DIR) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    maps = {
        "theta": theta_map(),
        "dumbbell_equal": dumbbell_equal_map(),
        "tetrahedron": tetrahedron_map(),
        "cube": cube_map(),
        "petersen_projective": petersen_projective_map(),
        "heawood_torus": heawood_torus_map(),
        "klein_73": klein_73_map(),
    }
    graphs = {
        "dumbbell_unequal": dumbbell_unequal_graph(),
        "rose2": rose2_graph(),
    }

    expectations = {
        "theta": dict(V=2, E=3, F=3),
        "dumbbell_equal": dict(V=2, E=3, F=3),
        "tetrahedron": dict(V=4, E=6, F=4),
        "cube": dict(V=8, E=12, F=6),
        "petersen_projective": dict(V=10, E=15, F=6),
        "heawood_torus": dict(V=14, E=21, F=7),
        "klein_73": dict(V=56, E=84, F=24),
    }

    for name, m in maps.items():
        g = m.graph
        object.__setattr__(g, "name", name)
        faces = m.faces
        exp = expectations[name]
        assert g.num_vertices == exp["V"], (name, g.num_vertices)
        assert g.num_edges == exp["E"], (name, g.num_edges)
        assert faces.count == exp["F"], (name, faces.count)
        (out_dir / f"{name}.graph").write_text(serialize_map(m))
        write_props(out_dir, name, props_for_map(m, with_face_verdict=name != "klein_73"))
        print(f"{name}: V={g.num_vertices} E={g.num_edges} F={faces.count} "
              f"chi={faces.euler_characteristic} orientable={faces.orientable}")

    # the hemi-dodecahedron skeleton must be the Petersen graph
    petersen = maps["petersen_projective"].graph
    lcf = []
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    reference = MetricGraph(
        10,
        tuple(Edge(k, u, v, Fraction(1)) for k, (u, v) in enumerate(outer + inner + spokes)),
        "petersen_reference",
    )
    assert are_isomorphic(petersen, reference) is not None, "hemi skeleton is not Petersen"

    for name, g in graphs.items():
        (out_dir / f"{name}.graph").write_text(serialize_graph(g))
        write_props(out_dir, name, props_for_graph(g))
        print(f"{name}: V={g.num_vertices} E={g.num_edges}")

    print("datasets written to", out_dir)


if __name__ == "__main__":
    main()
