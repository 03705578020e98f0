"""Length deformations that keep the systole set fixed.

With systoles g_1..g_F, keeping them of equal length imposes F-1 linear
conditions on the edge lengths; intersecting with the unit-volume hyperplane,
the local dimension of the equal-systole locus at the base point is
E - 1 - rank(difference rows), which is at least E - F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvariantViolation
from .graphs import Cycle, MetricGraph, rank, require_outer_space
from .fill import SystoleProfile, systole_profile


def _rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by exact Gauss-Jordan elimination,
    with the pivot column of each nonzero row."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by exact Gaussian elimination."""
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0]))[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, via reduced row echelon form."""
    m, pivots = _rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(tuple(vec))
    return basis


def indicator_row(g: MetricGraph, c: Cycle) -> tuple[int, ...]:
    cols = {e.id: i for i, e in enumerate(g.edges)}
    row = [0] * g.num_edges
    for eid in c.edge_ids:
        row[cols[eid]] = 1
    return tuple(row)


def systole_equality_system(g: MetricGraph, profile: Optional[SystoleProfile] = None
                            ) -> tuple[tuple[Fraction, ...], ...]:
    """Constraint matrix: F-1 consecutive length-difference rows followed by
    the all-ones volume row; columns follow g.edges order."""
    indicators = [indicator_row(g, c) for c in (profile or systole_profile(g)).systoles]
    rows: list[tuple[Fraction, ...]] = []
    for i in range(len(indicators) - 1):
        rows.append(tuple(Fraction(b - a) for a, b in zip(indicators[i], indicators[i + 1])))
    rows.append(tuple(Fraction(1) for _ in range(g.num_edges)))
    return tuple(rows)


@dataclass(frozen=True)
class DeformationRecord:
    E: int
    F: int
    rank_diff: int
    dim: int
    lower_bound: int  # E - F
    has_positive_direction: bool


def local_deformation_dimension(g: MetricGraph,
                                profile: Optional[SystoleProfile] = None) -> DeformationRecord:
    """Dimension of the systole-preserving deformation space at g.

    Every non-systole cycle is strictly longer by construction: the profile
    holds the complete set of minimum-length cycles.
    """
    require_outer_space(g)
    profile = profile or systole_profile(g)
    system = systole_equality_system(g, profile)
    diff_rows = system[:-1]
    rank_diff = rational_rank(diff_rows)
    dim = g.num_edges - 1 - rank_diff
    lower = g.num_edges - len(profile.systoles)
    if dim < lower:
        raise InvariantViolation(f"deformation dimension {dim} is below E - F = {lower}")
    # the base lengths themselves are a strictly positive solution of the
    # homogeneous difference system, so a positive direction always exists
    # at a certified base point; recorded explicitly rather than assumed
    base = [g.lengths[e.id] for e in g.edges]
    positive = all(
        sum(r * x for r, x in zip(row, base)) == 0 for row in diff_rows
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


def vcd_witness(g: MetricGraph, profile: Optional[SystoleProfile] = None) -> VcdRecord:
    """Compare the local deformation dimension with 2n - 3."""
    record = local_deformation_dimension(g, profile)
    n = rank(g)
    vcd = 2 * n - 3
    return VcdRecord(n=n, dim=record.dim, vcd=vcd, exceeds=record.dim > vcd,
                     deformation=record)
