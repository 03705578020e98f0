"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (run with ``pytest -s`` to see them stream).

Expected values are either forced by exact arithmetic on the named examples
or recomputed here against the brute-force oracles in tests/oracles.py.
"""

import random
import time
from fractions import Fraction

from graphspine.graphs import are_isomorphic, normalize_volume, rank
from graphspine.cycles import all_systoles, minimum_cycles
from graphspine.homology import build_basis, cycle_class, is_well_rounded, lattice_verdict
from graphspine.fill import (
    classify_membership,
    geometrically_fills,
    systole_profile,
    topologically_fills,
)
from graphspine.flow import NEW_SYSTOLES, STAGE_COMPLETE, retract_to_spine
from graphspine.deformation import local_deformation_dimension, vcd_witness
from graphspine.maps import euler_relations, flag_transitivity, systoles_equal_faces
from graphspine.datasets import bundled_dataset

from .conftest import make_dumbbell, make_k4, make_theta
from .oracles import oracle_lattice, oracle_systoles, oracle_topologically_fills
from .strategies import (
    random_connected_multigraph,
    random_outer_graph,
    random_relabeling,
    relabel_cycle,
)
from .test_flow import _check_trajectory_invariants


def report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS  {detail}")


def test_acceptance_01_equilateral_theta():
    start = time.monotonic()
    g = make_theta()
    girth, systoles = minimum_cycles(g)
    assert girth == Fraction(2, 3)
    assert len(systoles) == 3
    p = systole_profile(g)
    assert is_well_rounded(p) and p.lattice.index == 1
    m = classify_membership(p)
    assert (m.in_W, m.in_V, m.in_Vprime) == (True, True, True)
    rec = local_deformation_dimension(p)
    assert rec.dim == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(1, f"theta: 3 systoles of 2/3, index 1, (W,V,V')=(y,y,y), dim 0 "
              f"[{elapsed:.3f}s]")


def test_acceptance_02_equal_dumbbell():
    start = time.monotonic()
    g = make_dumbbell()
    m = classify_membership(systole_profile(g))
    assert (m.in_W, m.in_V, m.in_Vprime) == (True, True, False)
    sigma0 = minimum_cycles(g)[0]
    traj = retract_to_spine(g)
    assert len(traj.events) == 1
    assert traj.events[0].kind == STAGE_COMPLETE
    assert traj.events[0].u_star == Fraction(3, 2)
    final = traj.final.graph
    assert final.num_vertices == 1 and final.num_edges == 2
    assert sorted(e.length for e in final.edges) == [Fraction(1, 2)] * 2
    assert (sigma0, traj.final.girth) == (Fraction(1, 3), Fraction(1, 2))
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(2, f"equal dumbbell: (y,y,n), stage-complete at u=3/2, "
              f"rose(1/2,1/2), systole 1/3 -> 1/2 [{elapsed:.3f}s]")


def test_acceptance_03_unequal_dumbbell():
    start = time.monotonic()
    g = make_dumbbell(Fraction(1, 4), Fraction(5, 12), Fraction(1, 3))
    traj = retract_to_spine(g)
    assert [e.kind for e in traj.events] == [NEW_SYSTOLES, STAGE_COMPLETE]
    first = traj.events[0]
    assert first.u_star == Fraction(10, 7)
    assert [c.edge_ids for c in first.new_cycles] == [frozenset({1})]
    final = traj.final.graph
    assert final.num_vertices == 1
    assert sorted(e.length for e in final.edges) == [Fraction(1, 2)] * 2
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(3, f"unequal dumbbell: long loop joins at u*=10/7, one more "
              f"contraction, ends at rose(1/2,1/2) [{elapsed:.3f}s]")


def test_acceptance_04_unbalanced_theta():
    start = time.monotonic()
    g = make_theta(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    traj = retract_to_spine(g)
    assert len(traj.events) == 1
    assert traj.events[0].kind == NEW_SYSTOLES
    assert traj.events[0].u_star == Fraction(4, 3)
    assert are_isomorphic(traj.final.graph, make_theta()) is not None
    assert geometrically_fills(systole_profile(traj.final.graph))
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(4, f"theta(1/2,1/4,1/4): one event at u*=4/3 onto the equilateral "
              f"theta [{elapsed:.3f}s]")


def test_acceptance_05_k4():
    start = time.monotonic()
    g = make_k4()
    girth, systoles = minimum_cycles(g)
    assert girth == Fraction(1, 2)
    assert len(systoles) == 4 and all(len(c) == 3 for c in systoles)
    p = systole_profile(g)
    assert is_well_rounded(p) and p.lattice.index == 1
    assert geometrically_fills(p)
    w = vcd_witness(p)
    assert (w.deformation.E, w.deformation.F, w.dim, w.vcd, w.exceeds) == (6, 4, 2, 3, False)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(5, f"K4: 4 triangles of 1/2, index 1, geometric fill, "
              f"(E,F,dim,vcd)=(6,4,2,3), exceeds=false [{elapsed:.3f}s]")


def test_acceptance_06_map_suite():
    start = time.monotonic()
    tet = flag_transitivity(bundled_dataset("tetrahedron"))
    cube = flag_transitivity(bundled_dataset("cube"))
    assert tet.transitive and tet.aut_order == 24
    assert cube.transitive and cube.aut_order == 48
    assert systoles_equal_faces(bundled_dataset("tetrahedron")).equal
    assert systoles_equal_faces(bundled_dataset("cube")).equal
    heawood = systoles_equal_faces(bundled_dataset("heawood_torus"))
    assert not heawood.equal and len(heawood.profile.systoles) > heawood.face_count
    petersen = systoles_equal_faces(bundled_dataset("petersen_projective"))
    assert not petersen.equal and len(petersen.profile.systoles) > petersen.face_count
    cubic_uniform = []
    from graphspine.maps import CombinatorialMap, map_type_check
    from graphspine.datasets import DATASET_NAMES

    for name in DATASET_NAMES:
        obj = bundled_dataset(name)
        if isinstance(obj, CombinatorialMap):
            t = map_type_check(obj)
            if t.uniform and t.q == 3:
                cubic_uniform.append(name)
                assert euler_relations(obj).all_pass, name
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(6, f"maps: tetrahedron 24, cube 48 flag-transitive, faces=systoles; "
              f"heawood {len(heawood.profile.systoles)}>7, petersen "
              f"{len(petersen.profile.systoles)}>6 fail; euler identities on "
              f"{len(cubic_uniform)} cubic maps [{elapsed:.3f}s]")


def test_acceptance_07_klein_chain():
    start = time.monotonic()
    m = bundled_dataset("klein_73")
    rel = euler_relations(m)
    assert (rel.V, rel.E, rel.F, rel.n, rel.p) == (56, 84, 24, 29, 7)
    assert rel.all_pass
    rep = systoles_equal_faces(m)
    assert rep.profile.girth == 7  # computed and reported either way
    if rep.equal:
        p = systole_profile(normalize_volume(m.skeleton_unit()))
        verdict = p.lattice
        assert not is_well_rounded(p)
        assert verdict.rank <= 23 < 29
        assert verdict.index is None
        assert geometrically_fills(p)
        w = vcd_witness(p)
        assert w.deformation.dim >= 60 > 55 == w.vcd
        assert w.exceeds
        outcome = (f"systoles = 24 faces; lattice rank {verdict.rank} (infinite "
                   f"index), geometric fill, dim {w.deformation.dim} > vcd 55")
    else:
        outcome = (f"CONDITIONAL-SKIP: {len(rep.extra_min_cycles)} non-face "
                   f"minimum cycles; implication chain not applicable")
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(7, f"klein {{7,3}}: V=56 E=84 F=24 n=29, girth {rep.profile.girth}; "
              f"{outcome} [{elapsed:.3f}s]")


def test_acceptance_08_flow_property_suite():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)
    count = 200
    stages_total = 0
    for _ in range(count):
        g = random_outer_graph(rng, 2, 5)
        traj = retract_to_spine(g)
        _check_trajectory_invariants(g, traj)
        stages_total += traj.num_stages
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(8, f"{count} seeded rank-2..5 retractions: bounds, exact unit "
              f"volume, monotone systole and support Betti, final cover "
              f"({stages_total} stages total) [{elapsed:.1f}s]")


def test_acceptance_09_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0x5EED)
    count = 2000
    for _ in range(count):
        g = random_connected_multigraph(rng, max_vertices=6, max_edges=8)
        girth, mins = minimum_cycles(g)
        o_girth, o_mins = oracle_systoles(g)
        assert girth == o_girth and set(mins) == o_mins
        assert topologically_fills(systole_profile(g)) == oracle_topologically_fills(g)
        basis = build_basis(g)
        classes = [cycle_class(g, basis, c) for c in mins]
        got = lattice_verdict(classes, rank(g))
        want = oracle_lattice(classes, rank(g))
        assert (got.rank, got.divisors, got.index) == want
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(9, f"{count} multigraphs (<= 8 edges): systoles, topological fill "
              f"and lattice match the subset-enumeration oracle exactly "
              f"[{elapsed:.1f}s]")


def test_acceptance_10_equivariance():
    start = time.monotonic()
    rng = random.Random(0xFACADE)
    pairs = 50
    for _ in range(pairs):
        g = random_outer_graph(rng, 2, 4)
        mangled, vperm, emap = random_relabeling(rng, g)
        assert {relabel_cycle(c, emap) for c in all_systoles(g)} == set(all_systoles(mangled))
        pa, pb = systole_profile(g), systole_profile(mangled)
        a, b = classify_membership(pa), classify_membership(pb)
        assert (a.in_W, a.in_V, a.in_Vprime) == (b.in_W, b.in_V, b.in_Vprime)
        assert (pa.lattice.rank, pa.lattice.divisors, pa.lattice.index) == (
            pb.lattice.rank, pb.lattice.divisors, pb.lattice.index)
        ra, rb = local_deformation_dimension(pa), local_deformation_dimension(pb)
        assert (ra.F, ra.rank_diff, ra.dim) == (rb.F, rb.rank_diff, rb.dim)
        ta, tb = retract_to_spine(g), retract_to_spine(mangled)
        assert [e.u_star for e in ta.events] == [e.u_star for e in tb.events]
        assert [e.kind for e in ta.events] == [e.kind for e in tb.events]
        assert are_isomorphic(ta.final.graph, tb.final.graph) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(10, f"{pairs} relabeled pairs: identical rationals in every report, "
               f"isomorphic final graphs [{elapsed:.1f}s]")
