"""Independent polyhedral route: tight-constraint ranks, vertex
enumeration, and member sampling.

Everything here works directly with the defining linear system of
GT(lambda, mu) -- top-row and row-sum equalities plus nonnegativity and
interlacing inequalities -- and never looks at tilings, so its answers
cross-check the tiling-based certification independently.

Vertex enumeration homogenizes the system once: the polytope is the
t = 1 slice of the cone {(x, t) : eq . x = t * rhs, ineq . x >= t * rhs,
t >= 0}, whose extreme rays an exact double-description sweep finds in
integer coordinates on an integer basis of the cone's span.  It is
guarded to pattern sizes n <= 6 by default (override with the
GTPOLY_SCALE_GUARD environment variable, at your own risk: the ray
count grows quickly).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .combinatorics import LatticePoints
from .core import GTPattern, PolytopeSpec, interlacing_pairs, pattern_cells, require_membership
from .errors import InputError, ScaleGuardError, VerificationError

DEFAULT_SCALE_GUARD = 6


def scale_guard() -> int:
    value = os.environ.get("GTPOLY_SCALE_GUARD")
    try:
        return int(value) if value else DEFAULT_SCALE_GUARD
    except ValueError:
        raise InputError(f"GTPOLY_SCALE_GUARD must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ConstraintSystem:
    """The defining equalities and inequalities of GT(lambda, mu).

    Coordinates follow the cell scan order (bottom row to top, left to
    right), which is the order of ``GTPattern.values()``.  Inequality rows
    mean ``coeffs . x >= rhs``.
    """

    n: int
    cells: tuple[tuple[int, int], ...]
    equalities: tuple[tuple[tuple[int, ...], int], ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def pattern(self, coords: Sequence[Fraction]) -> GTPattern:
        rows = []
        pos = 0
        for j in range(1, self.n + 1):
            rows.append(tuple(Fraction(v) for v in coords[pos:pos + j]))
            pos += j
        return GTPattern(tuple(rows))


def constraint_system(spec: PolytopeSpec) -> ConstraintSystem:
    n = spec.n
    cells = tuple(pattern_cells(n))
    index = {cell: k for k, cell in enumerate(cells)}
    nvars = len(cells)

    def unit(cell, value=1):
        row = [0] * nvars
        row[index[cell]] = value
        return row

    equalities = []
    for i in range(1, n + 1):
        equalities.append((tuple(unit((i, n))), spec.lam[i - 1]))
    equalities.append((tuple(unit((1, 1))), spec.mu[0]))
    for j in range(2, n + 1):
        row = [0] * nvars
        for i in range(1, j + 1):
            row[index[(i, j)]] = 1
        for i in range(1, j):
            row[index[(i, j - 1)]] = -1
        equalities.append((tuple(row), spec.mu[j - 1]))

    inequalities = [(tuple(unit(cell)), 0) for cell in cells]
    for hi, lo in interlacing_pairs(n):
        row = unit(hi)
        row[index[lo]] = -1
        inequalities.append((tuple(row), 0))
    return ConstraintSystem(n, cells, tuple(equalities), tuple(inequalities))


def face_dimension_oracle(x: GTPattern, spec: PolytopeSpec) -> int:
    """Minimal-face dimension from tight constraints alone.

    The minimal face containing a member is the solution set of the
    equalities together with every inequality that is tight at the
    member; its dimension is the ambient dimension minus the rank of
    that system.
    """
    require_membership(x, spec)
    cs = constraint_system(spec)
    tight = [row for row, rhs in cs.equalities]
    for row, rhs in cs.inequalities:
        if sum(c * v for c, v in zip(row, x.values())) == rhs:
            tight.append(row)
    return len(cs.cells) - linalg.rank(tight, cols=len(cs.cells))


def _dot(row: Sequence[int], vec: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, vec))


def _dd_extreme_rays(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {z : row . z >= 0 for all rows}.

    Double-description sweep (Motzkin et al. 1953; Fukuda-Prodon 1996):
    one elimination of [rows^T | I] picks the greedy first `dim`
    independent rows B and inverts them, giving the simplicial cone
    B z >= 0 whose rays are the columns of B^-1; the remaining rows are
    then added one at a time.  Rays are primitive integer vectors, each
    with the bit mask of the processed rows it is tight on; two rays are
    adjacent when no third ray is tight on every row they share.
    """
    m = len(rows)
    # right-block row i is d * B^-1 e_i: the simplicial ray tight on all of B but row i
    echelon = linalg.eliminate([list(col) + [int(i == j) for j in range(dim)]
                                for i, col in enumerate(zip(*rows))], m + dim)
    selected = [p for p in echelon.pivots if p < m]
    if len(selected) < dim:
        raise VerificationError("inequality normals do not span; cone is not pointed")
    order = selected + [i for i in range(m) if i not in selected]
    sign = 1 if echelon.d > 0 else -1
    current = [(linalg.primitive_integer([sign * v for v in row[m:]], fix_sign=False),
                ((1 << dim) - 1) ^ (1 << i))
               for i, row in enumerate(echelon.rows)]
    for pos in range(dim, m):
        row = rows[order[pos]]
        keep = []
        positives = []
        negatives = []
        for vec, mask in current:
            v = _dot(row, vec)
            if v > 0:
                keep.append((vec, mask))
                positives.append((vec, mask, v))
            elif v == 0:
                keep.append((vec, mask | (1 << pos)))
            else:
                negatives.append((vec, mask, v))
        fresh: dict[tuple[int, ...], int] = {}
        for pvec, pmask, pval in positives:
            for nvec, nmask, nval in negatives:
                common = pmask & nmask
                adjacent = True
                for ovec, omask in current:
                    if ovec is pvec or ovec is nvec:
                        continue
                    if common & ~omask == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                # the new ray is a positive combination of two rays of the cone,
                # so a processed row vanishes on it exactly when it vanishes on both
                fresh[linalg.primitive_integer(
                    [pval * b - nval * a for a, b in zip(pvec, nvec)],
                    fix_sign=False)] = common | (1 << pos)
        current = keep + list(fresh.items())
    return [vec for vec, _ in current]


def enumerate_vertices(spec: PolytopeSpec) -> list[GTPattern]:
    """Every vertex of GT(spec), exactly, in canonical order.

    Eliminates the homogenized equalities [eq | -rhs] once, rewrites the
    inequalities and t >= 0 on an integer basis of the cone's span, and
    maps each extreme ray (x, t) back to the vertex x / t.  Empty
    polytopes give an empty list.  Guarded to n <= 6 by default.
    """
    guard = scale_guard()
    if spec.n > guard:
        raise ScaleGuardError(
            f"vertex enumeration guarded to n <= {guard} (got n={spec.n}); "
            "set GTPOLY_SCALE_GUARD to override")
    cs = constraint_system(spec)
    nvars = len(cs.cells)
    hull = linalg.eliminate([list(row) + [-rhs] for row, rhs in cs.equalities], nvars + 1)
    if nvars in hull.pivots:
        return []  # the equalities force t = 0: inconsistent
    basis = hull.kernel(nvars + 1)

    # row . x >= rhs * t, and t >= 0, in the coordinates of the basis
    cone = [[b[nvars] for b in basis]]
    cone += [[_dot(row, b) - rhs * b[nvars] for b in basis] for row, rhs in cs.inequalities]
    rows = dict.fromkeys(linalg.primitive_integer(r, fix_sign=False) for r in cone if any(r))

    patterns = []
    for ray in _dd_extreme_rays(list(rows), len(basis)):
        coords = [sum(r * b[k] for r, b in zip(ray, basis)) for k in range(nvars + 1)]
        if coords[nvars] <= 0:
            raise VerificationError(
                "double description produced a recession ray for a bounded polytope")
        pattern = cs.pattern([Fraction(c, coords[nvars]) for c in coords[:nvars]])
        require_membership(pattern, spec)
        patterns.append(pattern)
    patterns.sort(key=lambda p: p.rows)
    return patterns


def polytope_dimension(spec: PolytopeSpec) -> int:
    """Dimension of GT(spec) (-1 if empty): `face_dimension_oracle` at the
    centroid of the vertices, a relative-interior point whose tight
    inequalities are exactly the implicit equalities of GT(spec)."""
    vertices = enumerate_vertices(spec)
    if not vertices:
        return -1
    centroid = GTPattern(tuple(tuple(sum(cell) / len(vertices) for cell in zip(*rows))
                               for rows in zip(*(v.rows for v in vertices))))
    return face_dimension_oracle(centroid, spec)


def sample_points(spec: PolytopeSpec, count: int, seed: int) -> list[GTPattern]:
    """Deterministic members: lattice points, midpoints, vertex combinations.

    Cycles through the three kinds (only vertex combinations when the
    polytope has no lattice points); lattice points are drawn by rank from
    `LatticePoints`, never listed.  Every output is checked for membership.
    """
    if count < 0:
        raise InputError(f"count must be nonnegative, got {count}")
    vertices = enumerate_vertices(spec)
    if not vertices:
        raise InputError("cannot sample from an empty polytope")
    lattice = LatticePoints(spec)
    rng = random.Random(seed)
    cs = constraint_system(spec)
    vertex_coords = [list(v.values()) for v in vertices]
    out = []
    for idx in range(count):
        kind = idx % 3
        if kind == 0 and lattice:
            coords = list(lattice[rng.randrange(len(lattice))].values())
        elif kind == 1 and lattice:
            a = rng.randrange(len(lattice))
            b = rng.randrange(len(lattice))
            if len(lattice) > 1:
                while b == a:
                    b = rng.randrange(len(lattice))
            coords = [(u + v) / 2 for u, v in zip(lattice[a].values(), lattice[b].values())]
        else:
            picks = [rng.randrange(len(vertices)) for _ in range(1 + rng.randrange(3))]
            weights = [1 + rng.randrange(5) for _ in picks]
            total = sum(weights)
            coords = [Fraction(0)] * len(cs.cells)
            for p, w in zip(picks, weights):
                coords = [c + Fraction(w, total) * v
                          for c, v in zip(coords, vertex_coords[p])]
        pattern = cs.pattern(coords)
        require_membership(pattern, spec)
        out.append(pattern)
    return out
