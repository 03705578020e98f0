import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphspine import maps
from graphspine.errors import InvalidMap, NotCubic, UnknownDataset
from graphspine.graphs import Edge, MetricGraph, rank
from graphspine.cycles import minimum_cycles
from graphspine.datasets import (
    DATASET_NAMES,
    bundled_dataset,
    dataset_properties,
)
from graphspine.maps import (
    CombinatorialMap,
    euler_relations,
    flag_transitivity,
    map_automorphisms,
    map_type_check,
    parse_map,
    serialize_map,
    systoles_equal_faces,
    trace_faces,
)

from .oracles import oracle_face_orbits, oracle_map_automorphisms, oracle_orientable
from .strategies import rotation_systems
from .test_cli import counted

MAP_DATASETS = ("theta", "dumbbell_equal", "tetrahedron", "cube",
                "petersen_projective", "heawood_torus", "klein_73")
GRAPH_DATASETS = ("dumbbell_unequal", "rose2")


def test_dataset_registry():
    assert set(MAP_DATASETS) | set(GRAPH_DATASETS) == set(DATASET_NAMES)
    for name in MAP_DATASETS:
        assert isinstance(bundled_dataset(name), CombinatorialMap)
    for name in GRAPH_DATASETS:
        assert isinstance(bundled_dataset(name), MetricGraph)
    tet = bundled_dataset("tetrahedron")
    assert len(tet.darts) == 12  # two darts per edge
    assert flag_transitivity(tet).flag_count == 24
    assert len(bundled_dataset("klein_73").darts) == 168
    with pytest.raises(UnknownDataset):
        bundled_dataset("nosuch")


def test_sidecars_match_recomputation():
    for name in DATASET_NAMES:
        props = dataset_properties(name)
        obj = bundled_dataset(name)
        g = obj.graph if isinstance(obj, CombinatorialMap) else obj
        assert props["V"] == g.num_vertices
        assert props["E"] == g.num_edges
        assert props["rank"] == rank(g)
        assert props["volume"] == g.volume
        if isinstance(obj, CombinatorialMap):
            faces = trace_faces(obj)
            t = map_type_check(obj)
            ft = flag_transitivity(obj)
            girth, mins = minimum_cycles(obj.skeleton_unit())
            assert props["F"] == faces.count
            assert props["orientable"] == faces.orientable
            assert props["euler_characteristic"] == faces.euler_characteristic
            assert props["girth"] == girth
            assert props["min_cycle_count"] == len(mins)
            assert props["flag_transitive"] == ft.transitive
            assert props["aut_order"] == ft.aut_order
            assert props["uniform"] == t.uniform
            if t.uniform:
                assert props["p"] == t.p
                assert props["q"] == t.q
            if "faces_equal_min_cycles" in props:
                assert props["faces_equal_min_cycles"] == systoles_equal_faces(obj).equal
        else:
            girth, mins = minimum_cycles(g)
            assert props["systole_length"] == girth
            assert props["systole_count"] == len(mins)


def test_make_datasets_reproduces_the_bundled_files(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_datasets.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("make_datasets", script)
    make_datasets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_datasets)
    make_datasets.main(tmp_path)
    bundled = {p.name: p.read_bytes() for p in make_datasets.DATA_DIR.iterdir()
               if p.suffix in (".graph", ".props")}
    assert len(bundled) == 2 * len(DATASET_NAMES)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == bundled


def test_trace_faces_tetrahedron():
    faces = trace_faces(bundled_dataset("tetrahedron"))
    assert faces.count == 4
    assert all(len(f) == 3 and f.cycle is not None for f in faces.faces)
    assert faces.euler_characteristic == 2 and faces.genus == 0


def test_trace_faces_cube():
    faces = trace_faces(bundled_dataset("cube"))
    assert faces.count == 6
    assert all(len(f) == 4 for f in faces.faces)
    assert faces.genus == 0


def test_trace_faces_klein():
    faces = trace_faces(bundled_dataset("klein_73"))
    assert faces.count == 24
    assert all(len(f) == 7 and f.cycle is not None for f in faces.faces)
    assert faces.euler_characteristic == -4 and faces.genus == 3


def test_trace_faces_petersen_nonorientable():
    m = bundled_dataset("petersen_projective")
    faces = trace_faces(m)
    assert faces.count == 6
    assert all(len(f) == 5 and f.cycle is not None for f in faces.faces)
    assert not faces.orientable
    assert faces.euler_characteristic == 1 and faces.crosscaps == 1


def test_faces_partition_darts_orientable():
    for name in ("theta", "tetrahedron", "cube", "heawood_torus", "klein_73"):
        m = bundled_dataset(name)
        faces = trace_faces(m)
        seen = [d for f in faces.faces for d in f.darts]
        assert sorted(seen) == sorted(m.darts)


def test_dumbbell_faces_mixed():
    faces = trace_faces(bundled_dataset("dumbbell_equal"))
    assert sorted(len(f) for f in faces.faces) == [1, 1, 4]
    outer = max(faces.faces, key=len)
    assert outer.cycle is None  # crosses the bar twice


def test_map_type_examples():
    assert map_type_check(bundled_dataset("cube")) == map_type_check(bundled_dataset("cube"))
    t = map_type_check(bundled_dataset("cube"))
    assert (t.p, t.q, t.uniform) == (4, 3, True)
    t2 = map_type_check(bundled_dataset("heawood_torus"))
    assert (t2.p, t2.q, t2.uniform) == (6, 3, True)
    t3 = map_type_check(bundled_dataset("theta"))
    assert (t3.p, t3.q, t3.uniform) == (2, 3, True)
    t4 = map_type_check(bundled_dataset("dumbbell_equal"))
    assert not t4.uniform
    assert t4.face_length_multiset == (1, 1, 4)


def test_euler_relations_pass_on_cubic_datasets():
    for name in ("theta", "tetrahedron", "cube", "petersen_projective",
                 "heawood_torus", "klein_73"):
        rel = euler_relations(bundled_dataset(name))
        assert rel.all_pass, name


def test_euler_relations_values():
    rel = euler_relations(bundled_dataset("tetrahedron"))
    assert (rel.V, rel.E, rel.F, rel.p, rel.n) == (4, 6, 4, 3, 3)
    rel = euler_relations(bundled_dataset("cube"))
    assert (rel.V, rel.E, rel.F, rel.p, rel.n) == (8, 12, 6, 4, 5)
    rel = euler_relations(bundled_dataset("klein_73"))
    assert (rel.V, rel.E, rel.F, rel.p, rel.n) == (56, 84, 24, 7, 29)


def test_euler_relations_rejects_non_cubic():
    # a one-vertex rose with interleaved loops lives on the torus: q = 4
    g = MetricGraph(1, (Edge(0, 0, 0, Fraction(1)), Edge(1, 0, 0, Fraction(1))), "torus-rose")
    m = CombinatorialMap(g, (((0, 0), (1, 0), (0, 1), (1, 1)),))
    faces = trace_faces(m)
    assert faces.count == 1 and faces.genus == 1
    with pytest.raises(NotCubic):
        euler_relations(m)


def test_flag_transitivity_counts():
    assert flag_transitivity(bundled_dataset("tetrahedron")).aut_order == 24
    assert flag_transitivity(bundled_dataset("cube")).aut_order == 48
    assert flag_transitivity(bundled_dataset("theta")).aut_order == 12
    dumb = flag_transitivity(bundled_dataset("dumbbell_equal"))
    assert not dumb.transitive and dumb.aut_order < 12
    klein = flag_transitivity(bundled_dataset("klein_73"))
    assert klein.transitive and klein.aut_order == 336
    heawood = flag_transitivity(bundled_dataset("heawood_torus"))
    assert not heawood.transitive and heawood.aut_order == 42  # chiral: no reflections
    petersen = flag_transitivity(bundled_dataset("petersen_projective"))
    assert petersen.transitive and petersen.aut_order == 60


def test_transitive_implies_vertex_and_face_transitive():
    for name in ("tetrahedron", "cube", "theta"):
        m = bundled_dataset(name)
        autos = [psi for psi, _ in oracle_map_automorphisms(m)]
        # orbit of vertex 0 under the automorphism action covers all vertices
        base_dart = m.darts[0]
        vertex_images = {m.dart_vertex[psi[d]] for psi in autos for d in m.darts
                         if m.dart_vertex[d] == 0}
        assert vertex_images == set(range(m.graph.num_vertices))
        faces = trace_faces(m).faces
        face_keys = {f.cycle for f in faces}
        base_face = faces[0]
        images = set()
        for psi in autos:
            from graphspine.graphs import Cycle

            mapped = [psi[d] for d in base_face.darts]
            images.add(Cycle.make(m.graph, mapped))
        assert images == face_keys


def _closed_group(m, generators) -> set:
    """Every product of the generators (the identity included), each as its
    dart images in dart order and its senses in vertex order."""
    vertices = range(m.graph.num_vertices)

    def key(psi, sense):
        return tuple(psi[d] for d in m.darts), tuple(sense[v] for v in vertices)

    identity = ({d: d for d in m.darts}, {v: 1 for v in vertices})
    seen, todo = {key(*identity)}, [identity]
    while todo:
        psi, sense = todo.pop()
        for gen_psi, gen_sense in generators:
            product = {d: gen_psi[psi[d]] for d in m.darts}
            product_sense = {m.dart_vertex[d]: sense[m.dart_vertex[d]]
                             * gen_sense[m.dart_vertex[psi[d]]] for d in m.darts}
            k = key(product, product_sense)
            if k not in seen:
                seen.add(k)
                todo.append((product, product_sense))
    return seen


def test_generators_span_the_whole_group():
    for name in MAP_DATASETS:
        m = bundled_dataset(name)
        autos = map_automorphisms(m)
        want = oracle_map_automorphisms(m)
        got = _closed_group(m, autos.generators)
        assert got == {(tuple(psi[d] for d in m.darts),
                        tuple(sense[v] for v in range(m.graph.num_vertices)))
                       for psi, sense in want}, name
        assert len(autos.orbit) == len(want) == flag_transitivity(m).aut_order


def test_automorphism_search_propagates_a_handful_of_times(monkeypatch):
    # the orbit closure tries only flags outside the base flag's orbit and
    # outside every refuted orbit; trying every flag would take 4E
    calls = counted(monkeypatch, maps, "_propagate")
    counts = {}
    for name in MAP_DATASETS:
        calls.clear()
        flag_transitivity(bundled_dataset(name))
        counts[name] = len(calls)
    assert counts == {"theta": 3, "dumbbell_equal": 6, "tetrahedron": 3, "cube": 3,
                      "petersen_projective": 3, "heawood_torus": 5, "klein_73": 3}


def test_face_systole_verdicts():
    assert systoles_equal_faces(bundled_dataset("theta")).equal
    assert systoles_equal_faces(bundled_dataset("tetrahedron")).equal
    assert systoles_equal_faces(bundled_dataset("cube")).equal
    heawood = systoles_equal_faces(bundled_dataset("heawood_torus"))
    assert not heawood.equal
    assert heawood.profile.girth == 6 == heawood.p
    assert len(heawood.profile.systoles) == 28 > heawood.face_count == 7
    assert len(heawood.extra_min_cycles) == 21
    petersen = systoles_equal_faces(bundled_dataset("petersen_projective"))
    assert not petersen.equal
    assert petersen.profile.girth == 5 == petersen.p
    assert len(petersen.profile.systoles) == 12 and petersen.face_count == 6
    assert len(petersen.extra_min_cycles) == 6


def test_face_systole_klein_reported():
    rep = systoles_equal_faces(bundled_dataset("klein_73"))
    assert rep.profile.girth == 7 == rep.p
    assert rep.face_count == 24
    if rep.equal:
        assert len(rep.profile.systoles) == 24 and not rep.extra_min_cycles
    else:
        assert rep.extra_min_cycles


def test_face_systole_requires_uniform():
    with pytest.raises(InvalidMap):
        systoles_equal_faces(bundled_dataset("dumbbell_equal"))


def test_map_roundtrip():
    for name in MAP_DATASETS:
        m = bundled_dataset(name)
        again = parse_map(serialize_map(m))
        assert again.graph == m.graph
        assert again.twists == m.twists
        assert trace_faces(again).count == trace_faces(m).count
        # rotations agree as cyclic words
        for rot_a, rot_b in zip(again.rotations, m.rotations):
            assert len(rot_a) == len(rot_b)
            k = rot_b.index(rot_a[0])
            assert rot_a == rot_b[k:] + rot_b[:k]


def test_map_validation_rejects_bad_rotation():
    g = MetricGraph(2, (Edge(0, 0, 1, Fraction(1)), Edge(1, 0, 1, Fraction(1))), "g")
    with pytest.raises(InvalidMap):
        CombinatorialMap(g, (((0, 0),), ((0, 1), (1, 1))))  # dart (1,0) missing


def test_twisted_sphere_is_orientable():
    # flipping one vertex of the planar digon twists both edges but keeps the
    # sphere; the general tracer must still find two faces
    g = MetricGraph(2, (Edge(0, 0, 1, Fraction(1)), Edge(1, 0, 1, Fraction(1))), "digon")
    plain = CombinatorialMap(g, (((0, 0), (1, 0)), ((1, 1), (0, 1))))
    assert trace_faces(plain).count == 2
    flipped = CombinatorialMap(g, (((0, 0), (1, 0)), ((0, 1), (1, 1))), frozenset({0, 1}))
    assert flipped.is_orientable
    faces = trace_faces(flipped)
    assert faces.count == 2 and faces.genus == 0


def test_projective_loop():
    # one vertex, one twisted loop: the projective plane with a single bigon
    g = MetricGraph(1, (Edge(0, 0, 0, Fraction(1)),), "hemi-loop")
    m = CombinatorialMap(g, (((0, 0), (0, 1)),), frozenset({0}))
    assert not m.is_orientable
    faces = trace_faces(m)
    assert faces.count == 1
    assert len(faces.faces[0]) == 2
    assert faces.euler_characteristic == 1 and faces.crosscaps == 1


def test_euler_characteristic_bounds():
    for name in MAP_DATASETS:
        faces = trace_faces(bundled_dataset(name))
        chi = faces.euler_characteristic
        assert chi <= 2
        if faces.orientable:
            assert chi % 2 == 0


def test_parse_map_rejects_stray_rotation():
    text = (
        "graph g\nvertices 2\nedge 0 0 1 1/1\nedge 1 0 1 1/1\n"
        "rotation 0: 0.0 1.0\nrotation 1: 1.1 0.1\nrotation 5: 0.0\n"
    )
    with pytest.raises(InvalidMap):
        parse_map(text)


# ---------------------------------------------------------------------------
# properties of random rotation systems, with and without twists

ANY_MAP = st.one_of(rotation_systems(twisted=False), rotation_systems(twisted=True))


@settings(max_examples=200, deadline=None)
@given(ANY_MAP)
def test_faces_run_twice_along_each_edge(m):
    faces = m.faces
    assert faces is m.faces
    assert faces == trace_faces(m)
    edge_uses = Counter(eid for f in faces.faces for eid, _ in f.darts)
    assert edge_uses == {e.id: 2 for e in m.graph.edges}
    g = m.graph
    chi = faces.euler_characteristic
    assert chi == g.num_vertices - g.num_edges + faces.count
    assert faces.orientable == oracle_orientable(m)
    if faces.orientable:
        assert chi % 2 == 0 and faces.genus == (2 - chi) // 2
    else:
        assert faces.crosscaps == 2 - chi


@settings(max_examples=150, deadline=None)
@given(rotation_systems(twisted=False))
def test_untwisted_faces_are_the_sigma_alpha_orbits(m):
    walks = [f.darts for f in m.faces.faces]
    assert walks == oracle_face_orbits(m.rotations)
    assert sorted(d for walk in walks for d in walk) == list(m.darts)


@settings(max_examples=150, deadline=None)
@given(ANY_MAP, st.data())
def test_flipping_a_vertex_keeps_the_faces(m, data):
    # reversing one vertex's rotation and toggling the twist on its non-loop
    # edges describes the same embedding
    g = m.graph
    v = data.draw(st.integers(min_value=0, max_value=g.num_vertices - 1))
    rotations = list(m.rotations)
    rotations[v] = rotations[v][::-1]
    flip = {eid for eid, w in g.adjacency[v] if w != v}
    flipped = CombinatorialMap(g, tuple(rotations), m.twists ^ flip)
    assert flipped.is_orientable == m.is_orientable
    assert flipped.faces.count == m.faces.count

    def shape(faces):
        return sorted((len(f), f.cycle is not None) for f in faces.faces), {f.cycle for f in faces.faces}

    assert shape(flipped.faces) == shape(m.faces)


@settings(max_examples=200, deadline=None)
@given(ANY_MAP)
def test_aut_order_is_the_exhaustive_count(m):
    ft = flag_transitivity(m)
    autos = oracle_map_automorphisms(m)
    assert ft.aut_order == len(autos)
    assert ft.flag_count % ft.aut_order == 0
    base = m.darts[0]
    assert map_automorphisms(m).orbit == {(psi[base], sense[m.dart_vertex[base]])
                                          for psi, sense in autos}
