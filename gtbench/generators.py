"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data: patterns
as bottom-up rows of `Fraction`, specs as ``(lam, mu)`` integer tuples.
The same seed always gives the same inputs, and nothing here calls
gtpoly, so the package under test sees only the finished inputs.

Members of GT(lam, mu) with fractional entries but integral row sums
come from convex combinations of lattice points of one polytope; the
lattice points are reached from a random integral pattern by moves that
keep every row sum.  Vertices come from pushing a member along random
face directions until no direction is left.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from reference import (
    Rows,
    Spec,
    certificate_exists,
    count_lattice_points,
    face_dimension,
    kernel,
    spec_of_rows,
    tiling,
    tiling_matrix,
)


def _freeze(rows) -> Rows:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def integral_pattern(rng: random.Random, n: int, max_top: int) -> Rows:
    """Random integral pattern: sorted top row in 0..max_top, every lower
    entry uniform in its interlacing interval.  Its weight is integral, so
    it lies in the polytope of its own (top row, weight)."""
    top = sorted((rng.randint(0, max_top) for _ in range(n)), reverse=True)
    rows = [top]
    for _ in range(n - 1):
        above = rows[-1]
        rows.append([rng.randint(above[i + 1], above[i]) for i in range(len(above) - 1)])
    return _freeze(reversed(rows))


def lattice_walk(rng: random.Random, rows: Rows, steps: int) -> Rows:
    """Another lattice point of the same polytope: repeatedly move one unit
    between two entries of a middle row when interlacing still holds."""
    work = [[int(v) for v in row] for row in rows]
    n = len(work)
    for _ in range(steps if n >= 3 else 0):
        j = rng.randrange(1, n - 1)
        a, b = rng.sample(range(j + 1), 2)
        row, below, above = work[j], work[j - 1], work[j + 1]
        row[a] += 1
        row[b] -= 1
        # row j must interlace with the rows below (j entries) and above
        if not (all(above[i] >= row[i] >= above[i + 1] for i in (a, b))
                and all(row[i] >= below[i] >= row[i + 1] for i in range(j))):
            row[a] -= 1
            row[b] += 1
    return _freeze(work)


def mixed_member(rng: random.Random, base: Rows) -> Rows:
    """Member of the polytope of the integral pattern `base`: a weighted
    average of `base` and two lattice walks from it.  It is fractional
    unless both walks stay at `base`."""
    n = len(base)
    points = [base] + [lattice_walk(rng, base, 6 * n) for _ in range(2)]
    weights = [rng.randint(1, 3) for _ in points]
    total = sum(weights)
    return tuple(
        tuple(sum((w * p[j][i] for w, p in zip(weights, points)), Fraction(0)) / total
              for i in range(j + 1))
        for j in range(n)
    )


def fractional_member(rng: random.Random, n: int, max_top: int) -> Rows:
    """Member with at least one non-integral entry and integral row sums."""
    while True:
        rows = mixed_member(rng, integral_pattern(rng, n, max_top))
        if any(v.denominator != 1 for row in rows for v in row):
            return rows


def push_to_vertex(rng: random.Random, rows: Rows, dimension: int = 0) -> Rows:
    """A point of the member's polytope whose minimal face has dimension at
    most `dimension` (a vertex by default), reached by moving along random
    kernel directions of the tiling matrix.  Each move stops where two
    tiles first meet, so the face dimension drops at every step."""
    n = len(rows)
    while True:
        tiles, free = tiling(rows)
        basis = kernel(tiling_matrix(n, tiles, free), len(free))
        if len(basis) <= dimension:
            return rows
        coeffs = [rng.randint(-2, 2) for _ in basis]
        eps = [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(len(free))]
        if not any(eps):
            continue
        step = {cell: eps[k] for k, t in enumerate(free) for cell in tiles[t]}

        def slope(i: int, j: int) -> Fraction:
            return step.get((i, j), Fraction(0))

        limit = None
        for j in range(1, n):
            for i in range(1, j + 1):
                # x[i, j+1] >= x[i, j] >= x[i+1, j+1]
                for hi, lo in (((i, j + 1), (i, j)), ((i, j), (i + 1, j + 1))):
                    rate = slope(*lo) - slope(*hi)
                    if rate > 0:
                        gap = rows[hi[1] - 1][hi[0] - 1] - rows[lo[1] - 1][lo[0] - 1]
                        limit = gap / rate if limit is None else min(limit, gap / rate)
        rows = tuple(
            tuple(v + limit * slope(i, j) for i, v in enumerate(row, start=1))
            for j, row in enumerate(rows, start=1)
        )


def integral_member_of_dimension(rng: random.Random, n: int, max_top: int,
                                 dimension: int) -> Rows:
    """Random integral pattern whose minimal face has the given dimension."""
    while True:
        rows = integral_pattern(rng, n, max_top)
        if face_dimension(rows) == dimension:
            return rows


def fractional_member_of_dimension(rng: random.Random, n: int, max_top: int,
                                   dimension: int) -> Rows:
    """Fractional member whose minimal face has the given dimension: a
    fractional member of higher dimension pushed down to it."""
    while True:
        rows = push_to_vertex(rng, fractional_member(rng, n, max_top), dimension)
        if face_dimension(rows) == dimension and any(
                v.denominator != 1 for row in rows for v in row):
            return rows


def vertex_member(rng: random.Random, n: int, max_top: int) -> Rows:
    """A vertex reached from a fractional member; non-integral vertices are
    kept only when they carry a non-integrality certificate."""
    while True:
        rows = push_to_vertex(rng, fractional_member(rng, n, max_top))
        if all(v.denominator == 1 for row in rows for v in row) or certificate_exists(rows):
            return rows


def nonempty_spec(rng: random.Random, n: int, max_top: int) -> tuple[Spec, Rows]:
    """Spec of a random integral pattern (so the polytope is nonempty),
    together with that pattern."""
    rows = integral_pattern(rng, n, max_top)
    return spec_of_rows(rows), rows


def uniform_spec(rng: random.Random, n: int, max_entry: int) -> Spec:
    """Uniform lambda and mu in 0..max_entry; mostly empty polytopes."""
    return (tuple(rng.randint(0, max_entry) for _ in range(n)),
            tuple(rng.randint(0, max_entry) for _ in range(n)))


def counted_spec(rng: random.Random, n: int, max_top: int,
                 low: int, high: int) -> tuple[Spec, int]:
    """Nonempty spec whose lattice-point count lies in [low, high]."""
    while True:
        spec, _ = nonempty_spec(rng, n, max_top)
        count = count_lattice_points(*spec)
        if low <= count <= high:
            return spec, count


def partition(rng: random.Random, size: int, parts: int) -> tuple[int, ...]:
    """Random partition of `size` with at most `parts` parts, zero-padded."""
    while True:
        cuts = sorted(rng.randint(0, size) for _ in range(parts - 1))
        lam = sorted((b - a for a, b in zip([0] + cuts, cuts + [size])), reverse=True)
        if lam[0] > 0:
            return tuple(lam)


def nonintegral_vertex(rng: random.Random, n: int, max_top: int) -> Rows:
    """A non-integral vertex that carries a non-integrality certificate.
    These are rare among pushed members below n = 9 and cost a few hundred
    milliseconds each above it, so workloads draw a few and vary them with
    `transformed_vertex`."""
    while True:
        rows = push_to_vertex(rng, fractional_member(rng, n, max_top))
        if any(v.denominator != 1 for row in rows for v in row) and certificate_exists(rows):
            return rows


def transformed_vertex(rng: random.Random, rows: Rows) -> Rows:
    """The image of a vertex under a random integer shift, a scaling coprime
    to its denominators, and possibly the reflection x[i, j] -> M - x[j+1-i, j].
    Each map keeps interlacing, integral row sums, the tiling (up to the
    reflection) and every entry denominator, so the image is again a vertex
    carrying a non-integrality certificate, of a different polytope."""
    q = lcm(*(v.denominator for row in rows for v in row))
    scale = rng.choice([s for s in range(1, 6) if gcd(s, q) == 1])
    shift = rng.randint(0, 9)
    out = tuple(tuple(scale * v + shift for v in row) for row in rows)
    if rng.random() < 0.5:
        top = max(out[-1])
        out = tuple(tuple(top - v for v in reversed(row)) for row in out)
    return out
