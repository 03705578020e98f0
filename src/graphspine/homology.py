"""Integer homology of a metric graph via a spanning-tree basis.

H_1(g, Z) is free of rank E - V + 1; the fundamental cycles of the chords of
the graph's spanning tree form a basis, so a basis is its chord tuple and a
cycle's class is its signed chord counts.  The lattice spanned by the systole
classes is analyzed through an exact Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ForeignCycle, InvariantViolation
from .graphs import Cycle, MetricGraph, rank

if TYPE_CHECKING:
    from .fill import SystoleProfile


def build_basis(g: MetricGraph) -> tuple[int, ...]:
    """The chords c_1..c_n, sorted by id, of ``g.spanning_tree`` (the
    minimum-edge-id BFS tree); the tree is every other edge."""
    tree = {eid for eid, _ in g.spanning_tree[1].values()}
    return tuple(e.id for e in g.edges if e.id not in tree)


def cycle_class(g: MetricGraph, chords: tuple[int, ...], c: Cycle) -> tuple[int, ...]:
    """Signed chord-traversal counts of the cycle in the given orientation."""
    unknown = c.edge_ids - set(g.edge_by_id)
    if unknown:
        raise ForeignCycle(f"cycle uses edges not in graph: {sorted(unknown)}")
    index = {eid: i for i, eid in enumerate(chords)}
    vec = [0] * len(chords)
    for eid, d in c.steps:
        i = index.get(eid)
        if i is not None:
            vec[i] += 1 if d == 0 else -1
    return tuple(vec)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithNormalForm:
    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    W: tuple[tuple[int, ...], ...]
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _mat_mul(A, B):
    """A*B over the integers, touching only nonzero entries: U and W stay
    close to the identity, so a dense product would mostly add zeros."""
    cols = len(B[0]) if B else 0
    sparse_B = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    product = []
    for row in A:
        acc = [0] * cols
        for a, b_row in zip(row, sparse_B):
            if a:
                for j, b in b_row:
                    acc[j] += a * b
        product.append(acc)
    return product


def _certify(matrix, U, D, W) -> tuple[int, ...]:
    """The nonzero diagonal of D, after an exact check of U*A*W == D and of
    the divisor chain; raises InvariantViolation if either fails."""
    divisors = tuple(D[k][k] for k in range(min(len(D), len(W))) if D[k][k] != 0)
    if (any(b % a for a, b in zip(divisors, divisors[1:]))
            or _mat_mul(_mat_mul(U, matrix), W) != D):
        raise InvariantViolation("Smith normal form fails U*A*W == D or the divisor chain")
    return divisors


def smith_normal_form(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> SmithNormalForm:
    """Exact integer Smith normal form with unimodular U, W.

    Row and column operations only (swap, negate, add integer multiple), with
    the pivot chosen as the smallest nonzero entry to keep coefficients tame.
    U and W are built by the same operations as D, so they are unimodular by
    construction.  Every call re-checks U*A*W == D and the divisor chain and
    raises InvariantViolation if either fails; a row whose length is not
    ``ncols``, or an entry that is not an integer, raises ValueError.
    """
    m = len(matrix)
    n = ncols if ncols is not None else (len(matrix[0]) if m else 0)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"every row of the matrix must have {n} entries")
    if not all(isinstance(x, Integral) for row in matrix for x in row):
        raise ValueError("every entry of the matrix must be an integer")
    D = [[int(x) for x in row] for row in matrix]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in W:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        for c in range(n):
            D[dst][c] += factor * D[src][c]
        for c in range(m):
            U[dst][c] += factor * U[src][c]

    def add_col(src, dst, factor):
        for row in D:
            row[dst] += factor * row[src]
        for row in W:
            row[dst] += factor * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while True:
        entries = [(abs(D[i][j]), i, j)
                   for i in range(t, m) for j in range(t, n) if D[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t] != 0:  # remainder becomes the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            # a clean row pass only added multiples of the cleared column t
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        offender = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                         if D[i][j] % D[t][t] != 0), None)
        if offender is not None:
            add_row(offender[0], t, 1)
            continue  # redo this pivot
        if D[t][t] < 0:
            negate_row(t)
        t += 1

    divisors = _certify(matrix, U, D, W)
    return SmithNormalForm(
        U=tuple(tuple(r) for r in U),
        D=tuple(tuple(r) for r in D),
        W=tuple(tuple(r) for r in W),
        divisors=divisors,
    )


# ---------------------------------------------------------------------------
# systole lattice


@dataclass(frozen=True)
class LatticeVerdict:
    """Sublattice of H_1 spanned by a family of cycle classes."""

    rank: int
    divisors: tuple[int, ...]
    index: Optional[int]  # None means infinite

    @property
    def finite_index(self) -> bool:
        return self.index is not None


def lattice_verdict(classes: Sequence[Sequence[int]], ambient_rank: int) -> LatticeVerdict:
    snf = smith_normal_form(classes, ncols=ambient_rank)
    r = snf.rank
    index: Optional[int] = None
    if r == ambient_rank:
        index = 1
        for d in snf.divisors:
            index *= d
    return LatticeVerdict(r, snf.divisors, index)


def systole_lattice(profile: SystoleProfile) -> LatticeVerdict:
    """Verdict on the lattice spanned by the classes of the profile's systoles."""
    g = profile.graph
    chords = build_basis(g)
    classes = [cycle_class(g, chords, c) for c in profile.systoles]
    return lattice_verdict(classes, rank(g))


def is_well_rounded(profile: SystoleProfile) -> bool:
    """True iff the systole classes span a finite-index subgroup of H_1."""
    return profile.lattice.finite_index
