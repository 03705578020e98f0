"""Length deformations that keep the systole set fixed.

With systoles g_1..g_F, keeping them of equal length imposes F-1 linear
conditions on the edge lengths; intersecting with the unit-volume hyperplane,
the local dimension of the equal-systole locus at the base point is
E - 1 - rank(difference rows), which is at least E - F.  That rank is the
rank of the rows' Smith normal form, the one exact row reduction of the
package, whose U·A·W = D check certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvariantViolation
from .graphs import Cycle, MetricGraph, rank, require_outer_space
from .fill import SystoleProfile
from .homology import smith_normal_form


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the rank of the Smith normal form of the rows, each row
    first scaled by the lcm of its denominators (a nonzero scale keeps the
    rank)."""
    integral = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        integral.append([x.numerator * (den // x.denominator) for x in row])
    return smith_normal_form(integral).rank


def indicator_row(g: MetricGraph, c: Cycle) -> tuple[int, ...]:
    return tuple(1 if e.id in c.edge_ids else 0 for e in g.edges)


def systole_equality_system(profile: SystoleProfile) -> tuple[tuple[int, ...], ...]:
    """Integer constraint matrix: F-1 consecutive length-difference rows, then
    the all-ones volume row; columns follow the graph's edge order."""
    g = profile.graph
    indicators = [indicator_row(g, c) for c in profile.systoles]
    rows = [tuple(b - a for a, b in zip(indicators[i], indicators[i + 1]))
            for i in range(len(indicators) - 1)]
    rows.append((1,) * g.num_edges)
    return tuple(rows)


@dataclass(frozen=True)
class DeformationRecord:
    E: int
    F: int
    rank_diff: int
    dim: int
    lower_bound: int  # E - F
    has_positive_direction: bool


def local_deformation_dimension(profile: SystoleProfile) -> DeformationRecord:
    """Dimension of the systole-preserving deformation space at the profile's graph.

    Every non-systole cycle is strictly longer by construction: the profile
    holds the complete set of minimum-length cycles.
    """
    g = profile.graph
    require_outer_space(g)
    system = systole_equality_system(profile)
    diff_rows = system[:-1]
    rank_diff = rational_rank(diff_rows)
    dim = g.num_edges - 1 - rank_diff
    lower = g.num_edges - len(profile.systoles)
    if dim < lower:
        raise InvariantViolation(f"deformation dimension {dim} is below E - F = {lower}")
    # the base lengths themselves are a strictly positive solution of the
    # homogeneous difference system, so a positive direction always exists
    # at a certified base point; recorded explicitly rather than assumed.
    # A difference row is mostly zeros, so only its nonzero terms are summed
    base = [g.lengths[e.id] for e in g.edges]
    positive = all(
        sum(r * x for r, x in zip(row, base) if r) == 0 for row in diff_rows
    ) and all(x > 0 for x in base)
    return DeformationRecord(
        E=g.num_edges, F=len(profile.systoles), rank_diff=rank_diff, dim=dim,
        lower_bound=lower, has_positive_direction=positive,
    )


@dataclass(frozen=True)
class VcdRecord:
    n: int
    dim: int
    vcd: int
    exceeds: bool
    deformation: DeformationRecord


def vcd_witness(profile: SystoleProfile) -> VcdRecord:
    """Compare the local deformation dimension with 2n - 3."""
    record = local_deformation_dimension(profile)
    n = rank(profile.graph)
    vcd = 2 * n - 3
    return VcdRecord(n=n, dim=record.dim, vcd=vcd, exceeds=record.dim > vcd,
                     deformation=record)
