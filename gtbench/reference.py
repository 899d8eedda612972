"""Independent reference computations for the benchmark.

Nothing here imports gtpoly: the input generators and the output checks
use these routines so that a defect in the package cannot hide itself
by agreeing with its own answers.

A pattern is held as bottom-up rows of `Fraction` (row 1 is the single
bottom entry, row n the top row), the same layout as ``GTPattern.rows``.
A spec is a pair ``(lam, mu)`` of integer tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

Rows = tuple[tuple[Fraction, ...], ...]
Spec = tuple[tuple[int, ...], tuple[int, ...]]


def interlaces(rows: Rows) -> bool:
    """Nonnegativity and interlacing of every pair of neighbouring rows."""
    for j, row in enumerate(rows, start=1):
        if len(row) != j or any(v < 0 for v in row):
            return False
    for below, above in zip(rows, rows[1:]):
        for i, v in enumerate(below):
            if not above[i] >= v >= above[i + 1]:
                return False
    return True


def spec_of_rows(rows: Rows) -> Spec:
    """(top row, weight) of a pattern whose top row and weight are integral."""
    sums = [sum(row, Fraction(0)) for row in rows]
    weight = [s - prev for s, prev in zip(sums, [Fraction(0)] + sums[:-1])]
    if any(v.denominator != 1 for v in list(rows[-1]) + weight):
        raise ValueError("top row or weight is not integral")
    return tuple(int(v) for v in rows[-1]), tuple(int(v) for v in weight)


def is_member(rows: Rows, spec: Spec) -> bool:
    """Interlacing, nonnegative, top row lambda and row-sum increments mu."""
    if len(rows) != len(spec[0]) or not interlaces(rows):
        return False
    try:
        return spec_of_rows(rows) == spec
    except ValueError:
        return False


def dominates(lam, mu) -> bool:
    """True iff GT(lam, mu) is nonempty: lam is a partition that majorizes
    mu sorted in decreasing order, with mu nonnegative and equal sums."""
    if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
        return False
    if any(v < 0 for v in mu) or sum(lam) != sum(mu):
        return False
    top = sorted(mu, reverse=True)
    acc_l = acc_m = 0
    for a, b in zip(lam, top):
        acc_l += a
        acc_m += b
        if acc_l < acc_m:
            return False
    return True


def count_lattice_points(lam, mu) -> int:
    """Number of integral members of GT(lam, mu), by memoised row recursion.

    Counts the integer rows interlacing each row above with the required
    sum, sharing the counts of identical intermediate rows; no pattern
    is ever built.
    """
    n = len(lam)
    if not dominates(lam, mu):
        return 0
    targets = []
    total = 0
    for v in mu:
        total += v
        targets.append(total)

    @lru_cache(maxsize=None)
    def below(above: tuple[int, ...]) -> int:
        j = len(above) - 1
        if j == 0:
            return 1
        return sum(below(row) for row in _interlacing_rows(above, targets[j - 1]))

    return below(tuple(lam))


def _interlacing_rows(above: tuple[int, ...], target: int):
    j = len(above) - 1
    his = above[:j]
    los = above[1:]
    lo_rest = [0] * (j + 1)
    hi_rest = [0] * (j + 1)
    for i in range(j - 1, -1, -1):
        lo_rest[i] = lo_rest[i + 1] + los[i]
        hi_rest[i] = hi_rest[i + 1] + his[i]
    row: list[int] = []

    def pick(i: int, left: int):
        if i == j:
            yield tuple(row)
            return
        for a in range(max(los[i], left - hi_rest[i + 1]),
                       min(his[i], left - lo_rest[i + 1]) + 1):
            row.append(a)
            yield from pick(i + 1, left - a)
            row.pop()

    yield from pick(0, target)


def ehrhart_degree(lam, mu, max_degree: int) -> int:
    """Degree of m -> #GT(m*lam, m*mu) lattice points, from finite differences
    of exact counts at m = 0..max_degree+1 (the count at m = 0 is 1)."""
    values = [1] + [count_lattice_points([m * v for v in lam], [m * v for v in mu])
                    for m in range(1, max_degree + 2)]
    degree = 0
    for k in range(1, len(values)):
        values = [b - a for a, b in zip(values, values[1:])]
        if any(values):
            degree = k
    return degree


def hook_length_count(shape) -> int:
    """Standard Young tableaux of a partition shape (hook-length formula)."""
    shape = [s for s in shape if s]
    cols = [sum(1 for s in shape if s > c) for c in range(shape[0])] if shape else []
    product = 1
    for r, width in enumerate(shape):
        for c in range(width):
            product *= (width - c) + (cols[c] - r) - 1
    return factorial(sum(shape)) // product


def bareiss_determinant(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# tiling connectivity: (i, j) joins (i+1, j+1), (i, j+1), (i-1, j-1), (i, j-1)
_STEPS = ((1, 1), (0, 1), (-1, -1), (0, -1))


def tiling(rows: Rows) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Tiles (lists of 1-based cells (i, j)) and the indices of free tiles."""
    n = len(rows)
    seen: dict[tuple[int, int], int] = {}
    tiles: list[list[tuple[int, int]]] = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            if (i, j) in seen:
                continue
            seen[(i, j)] = len(tiles)
            stack, tile = [(i, j)], []
            value = rows[j - 1][i - 1]
            while stack:
                a, b = stack.pop()
                tile.append((a, b))
                for di, dj in _STEPS:
                    c, d = a + di, b + dj
                    if 1 <= c <= d <= n and (c, d) not in seen and rows[d - 1][c - 1] == value:
                        seen[(c, d)] = len(tiles)
                        stack.append((c, d))
            tiles.append(tile)
    free = [t for t, tile in enumerate(tiles)
            if (1, 1) not in tile and all(j != n for _, j in tile)]
    return tiles, free


def tiling_matrix(n: int, tiles, free) -> list[list[int]]:
    """Cells of each free tile (columns) in each pattern row 2..n-1 (rows)."""
    return [[sum(1 for _, j2 in tiles[t] if j2 == j) for t in free] for j in range(2, n)]


def kernel(matrix, cols: int) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix, as integer vectors.

    Fraction-free Gauss-Jordan elimination: rows stay integral and are
    divided by their gcd after every step."""
    a = [list(row) for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f, g = a[i][c], top[c]
                row = [g * x - f * y for x, y in zip(a[i], top)]
                d = gcd(*row)
                a[i] = [x // d for x in row] if d > 1 else row
        pivots.append(c)
        r += 1
    scale = lcm(*(abs(a[k][p]) for k, p in enumerate(pivots))) if pivots else 1
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = scale
        for k, p in enumerate(pivots):
            v[p] = -a[k][f] * scale // a[k][p]
        basis.append(v)
    return basis


def face_dimension(rows: Rows) -> int:
    """Kernel dimension of the tiling matrix of a member."""
    tiles, free = tiling(rows)
    return len(kernel(tiling_matrix(len(rows), tiles, free), len(free)))


def denominator_lcm(rows: Rows) -> int:
    return lcm(*(v.denominator for row in rows for v in row))


def certificate_exists(rows: Rows) -> bool:
    """True iff some free tile of a non-integral vertex carries a value whose
    denominator is the lcm of all entry denominators; only then does a
    non-integrality certificate with a unit coordinate exist."""
    q = denominator_lcm(rows)
    tiles, free = tiling(rows)
    return any(rows[tiles[t][0][1] - 1][tiles[t][0][0] - 1].denominator == q for t in free)

