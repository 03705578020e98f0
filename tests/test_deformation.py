import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspine.cycles import all_systoles, minimum_cycles
from graphspine.deformation import (
    local_deformation_dimension,
    rational_rank,
    systole_equality_system,
    vcd_witness,
)
from graphspine.fill import systole_profile

from .oracles import oracle_cycles, oracle_length
from .strategies import outer_graphs, random_relabeling


def test_system_theta(theta):
    system = systole_equality_system(systole_profile(theta))
    assert len(system) == 3  # two difference rows + volume row
    assert system[-1] == (Fraction(1),) * 3
    assert rational_rank(system[:-1]) == 2
    assert rational_rank(system) == 3


def test_system_rose(rose2):
    system = systole_equality_system(systole_profile(rose2))
    assert len(system) == 2
    assert system[0] in ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))
    assert rational_rank(system) == 2


def test_system_single_systole(dumbbell_uneq):
    system = systole_equality_system(systole_profile(dumbbell_uneq))
    assert len(system) == 1  # just the volume row
    assert system[0] == (Fraction(1),) * 3


def test_dimension_theta(theta):
    rec = local_deformation_dimension(systole_profile(theta))
    assert (rec.E, rec.F, rec.rank_diff, rec.dim) == (3, 3, 2, 0)
    assert rec.has_positive_direction


def test_dimension_k4(k4):
    rec = local_deformation_dimension(systole_profile(k4))
    assert (rec.E, rec.F, rec.rank_diff, rec.dim) == (6, 4, 3, 2)
    assert rec.dim >= rec.lower_bound == 2


def test_vcd_examples(theta, k4):
    w = vcd_witness(systole_profile(theta))
    assert (w.dim, w.vcd, w.exceeds) == (0, 1, False)
    w2 = vcd_witness(systole_profile(k4))
    assert (w2.dim, w2.vcd, w2.exceeds) == (2, 3, False)


def _kernel_step_preserves_systoles(g, rng):
    system = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in systole_equality_system(systole_profile(g))])
    kernel = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in system.nullspace()]
    if not kernel:
        return
    girth, mins = minimum_cycles(g)
    longer = [oracle_length(g, c) for c in oracle_cycles(g) if oracle_length(g, c) > girth]
    gap = min(longer) - girth if longer else girth
    base = [g.lengths[e.id] for e in g.edges]
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in kernel]
        direction = [sum(c * vec[i] for c, vec in zip(coeffs, kernel))
                     for i in range(g.num_edges)]
        biggest = max((abs(x) for x in direction), default=Fraction(0))
        if biggest == 0:
            continue
        room = min(
            min(x for x in base) / 2,
            gap / (4 * g.num_edges),
        )
        eps = room / biggest
        new_lengths = {
            e.id: base[i] + eps * direction[i] for i, e in enumerate(g.edges)
        }
        assert all(v > 0 for v in new_lengths.values())
        perturbed = g.with_lengths(new_lengths)
        assert set(all_systoles(perturbed)) == set(mins)


def test_kernel_perturbation_preserves_systoles_k4(k4):
    _kernel_step_preserves_systoles(k4, random.Random(99))


@given(outer_graphs(rank_lo=2, rank_hi=4))
@settings(max_examples=25, deadline=None)
def test_kernel_perturbation_random(g):
    _kernel_step_preserves_systoles(g, random.Random(5))


@given(outer_graphs(rank_lo=2, rank_hi=4))
@settings(max_examples=25, deadline=None)
def test_dim_lower_bound_and_invariance(g):
    rec = local_deformation_dimension(systole_profile(g))
    assert rec.dim >= rec.lower_bound
    mangled, _, _ = random_relabeling(random.Random(3), g)
    rec2 = local_deformation_dimension(systole_profile(mangled))
    assert rec.dim == rec2.dim
    assert rec.rank_diff == rec2.rank_diff


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 6 x 9, entries with denominators 1 to 4: dense,
    all zero, or rank deficient (every row a rational combination of a few
    drawn rows)."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=9))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    kind = draw(st.sampled_from(["dense", "zero", "deficient"]))
    if kind == "zero":
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    if kind == "dense":
        return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    k = draw(st.integers(min_value=1, max_value=max(1, min(nrows, ncols) - 1)))
    basis = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=nrows, max_size=nrows))
    return [[sum((c * b[j] for c, b in zip(cs, basis)), Fraction(0)) for j in range(ncols)]
            for cs in coeffs]


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_rational_rank_and_kernel_match_sympy(rows):
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    assert rational_rank(rows) == m.rank()
