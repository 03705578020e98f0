import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspine import homology
from graphspine.errors import ForeignCycle, InvariantViolation
from graphspine.fill import systole_profile
from graphspine.graphs import Cycle, Edge, MetricGraph, rank
from graphspine.homology import (
    build_basis,
    cycle_class,
    is_well_rounded,
    lattice_verdict,
    smith_normal_form,
    systole_lattice,
)

from .conftest import run_python
from .oracles import oracle_fundamental_cycle, oracle_lattice, oracle_systoles
from .strategies import multigraphs


def test_basis_is_min_id_bfs(theta, k4):
    assert build_basis(theta) == (1, 2)
    assert rank(k4) == len(build_basis(k4)) == 3


def test_fundamental_cycles_are_unit_vectors(theta, k4, dumbbell_eq):
    for g in (theta, k4, dumbbell_eq):
        chords = build_basis(g)
        tree = {e.id for e in g.edges} - set(chords)
        for i, chord in enumerate(chords):
            fc = oracle_fundamental_cycle(g, tree, chord)
            expected = tuple(1 if j == i else 0 for j in range(len(chords)))
            assert cycle_class(g, chords, fc) == expected


def test_theta_class_example(theta):
    b = build_basis(theta)
    c = Cycle.make(theta, ((1, 0), (2, 1)))
    v = cycle_class(theta, b, c)
    assert v in ((1, -1), (-1, 1))


def test_reversal_negates_class(k4):
    chords = build_basis(k4)
    tree = {e.id for e in k4.edges} - set(chords)
    c = oracle_fundamental_cycle(k4, tree, chords[0])
    assert cycle_class(k4, chords, c.reverse()) == tuple(-x for x in cycle_class(k4, chords, c))


def test_foreign_cycle(theta, dumbbell_eq):
    c = Cycle.make(dumbbell_eq, ((0, 0),))
    b = build_basis(theta)
    cycle_class(theta, b, c)  # edge 0 exists in theta: fine
    alien = Cycle.make(dumbbell_eq, ((0, 0),))
    small = MetricGraph(2, (Edge(5, 0, 1, Fraction(1)), Edge(6, 0, 1, Fraction(1))), "g")
    with pytest.raises(ForeignCycle):
        cycle_class(small, build_basis(small), alien)


def test_theta_lattice(theta):
    v = systole_lattice(systole_profile(theta))
    assert (v.rank, v.divisors, v.index) == (2, (1, 1), 1)


def test_dumbbell_lattice(dumbbell_eq, dumbbell_uneq):
    v = systole_lattice(systole_profile(dumbbell_eq))
    assert (v.rank, v.index) == (2, 1)
    v2 = systole_lattice(systole_profile(dumbbell_uneq))
    assert v2.rank == 1
    assert v2.index is None


def test_well_rounded_examples(theta, dumbbell_uneq, rose2):
    assert is_well_rounded(systole_profile(theta))
    assert not is_well_rounded(systole_profile(dumbbell_uneq))
    assert is_well_rounded(systole_profile(rose2))


def test_fewer_systoles_than_rank_never_well_rounded(dumbbell_uneq):
    p = systole_profile(dumbbell_uneq)
    assert len(p.systoles) < rank(dumbbell_uneq)
    assert not is_well_rounded(p)


# -- Smith normal form -------------------------------------------------------


def test_snf_hand_example():
    snf = smith_normal_form([(2, 4, 4), (-6, 6, 12), (10, 4, 16)])
    assert snf.divisors == (2, 2, 156)


def test_snf_rectangular():
    snf = smith_normal_form([(1, 0), (0, 1), (-1, 1)], ncols=2)
    assert snf.divisors == (1, 1)


int_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=1, max_size=5,
)


@given(int_matrices)
@settings(max_examples=100, deadline=None)
def test_snf_matches_sympy(rows):
    got = smith_normal_form(rows, ncols=3)
    want_rank, want_divisors, _ = oracle_lattice(rows, 3)
    assert got.rank == want_rank
    assert got.divisors == want_divisors
    # unimodularity is not re-checked at run time, so the oracle checks it here
    U, W = sympy.Matrix(got.U), sympy.Matrix(got.W)
    assert abs(U.det()) == abs(W.det()) == 1 and U * sympy.Matrix(rows) * W == sympy.Matrix(got.D)


def test_snf_rejects_ragged_rows():
    # under -O a bare assert would let this through as divisors (1, 6)
    with pytest.raises(ValueError):
        smith_normal_form([(2, 0), (0, 3, 5)])
    # a non-integer entry is the caller's error: truncated, it would fail the
    # self-check, or give a lattice verdict of rank 1 with infinite index
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        lattice_verdict([[Fraction(1, 2), 0], [0, 1]], 2)


def test_snf_check_survives_optimize():
    # under -O a bare assert would return a factorization that fails U*A*W == D
    proc = run_python("-O", "-c", "\n".join([
        "from graphspine import homology",
        "from graphspine.errors import InvariantViolation",
        "homology._mat_mul = lambda A, B: [[7]]",
        "try:",
        "    print(__debug__, homology.smith_normal_form([(2, 4), (-6, 6)]).divisors)",
        "except InvariantViolation:",
        "    print(__debug__, 'InvariantViolation')",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "InvariantViolation"]


@pytest.mark.parametrize("rows", [
    [(2, 4, 4), (-6, 6, 12), (10, -4, -16)],
    [(1, 0, 2, 0), (0, 3, 0, 0), (2, 0, 4, 0)],
])
def test_snf_certificate_catches_one_corrupted_entry(monkeypatch, rows):
    # corrupt one entry of D or W after the elimination, just before the
    # certificate is checked.  A row k of W meets U*A only through column k
    # of A, so its entries are seen exactly where that column is nonzero;
    # every entry of D is seen
    snf = smith_normal_form(rows)
    seen_rows = [k for k in range(len(rows[0])) if any(r[k] for r in rows)]
    positions = [("D", i, j) for i in range(len(snf.D)) for j in range(len(snf.D[0]))]
    positions += [("W", k, j) for k in seen_rows for j in range(len(snf.W))]
    certify = homology._certify
    for which, i, j in positions:
        def corrupted(matrix, U, D, W, which=which, i=i, j=j):
            D, W = [list(r) for r in D], [list(r) for r in W]
            (D if which == "D" else W)[i][j] += 1
            return certify(matrix, U, D, W)

        monkeypatch.setattr(homology, "_certify", corrupted)
        with pytest.raises(InvariantViolation):
            smith_normal_form(rows)


@given(multigraphs(max_edges=7))
@settings(max_examples=50, deadline=None)
def test_lattice_matches_oracle(g):
    b = build_basis(g)
    _, systoles = oracle_systoles(g)
    classes = [cycle_class(g, b, c) for c in sorted(systoles, key=Cycle.sort_key)]
    got = lattice_verdict(classes, rank(g))
    want_rank, want_divisors, want_index = oracle_lattice(classes, rank(g))
    assert (got.rank, got.divisors, got.index) == (want_rank, want_divisors, want_index)


@given(multigraphs(max_edges=7))
@settings(max_examples=30, deadline=None)
def test_lattice_invariant_under_relabeling(g):
    from .strategies import random_relabeling

    mangled, _, _ = random_relabeling(random.Random(5), g)
    a = systole_lattice(systole_profile(g))
    b = systole_lattice(systole_profile(mangled))
    assert (a.rank, a.divisors, a.index) == (b.rank, b.divisors, b.index)
