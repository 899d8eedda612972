"""Shared frozen inputs for the test suite.

The expected values asserted against these were derived independently
(hand row-reduction, hand tiling, brute-force counting) before the
library was written; tests must not recompute them through the code
under test.
"""

from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from gtpoly import GTPattern, PolytopeSpec, Tableau

# worked example: member of GT((6,5,3,2,0),(4,1,4,5,2)) on a 2-face
WORKED = GTPattern.from_rows(
    [[6, 5, 3, 2, 0], [6, "9/2", 3, "1/2"], [5, "7/2", "1/2"], ["9/2", "1/2"], [4]])
WORKED_SPEC = PolytopeSpec((6, 5, 3, 2, 0), (4, 1, 4, 5, 2))
WORKED_MATRIX = [[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 1, 0, 0, 1]]
WORKED_FREE_TILES = [
    {(1, 2)},
    {(2, 2), (3, 3), (4, 4)},
    {(1, 3)},
    {(2, 3)},
    {(2, 4)},
]
WORKED_KERNEL_SPAN = [(0, 0, -1, 1, 0), (1, -1, 1, 0, 1)]

# worked bijection example: integral member of GT((6,3,2,2,0),(3,1,3,1,5))
BIJ = GTPattern.from_rows([[6, 3, 2, 2, 0], [4, 2, 2, 0], [4, 2, 1], [3, 1], [3]])
BIJ_SPEC = PolytopeSpec((6, 3, 2, 2, 0), (3, 1, 3, 1, 5))
BIJ_TABLEAU = [[1, 1, 1, 3, 5, 5], [2, 3, 5], [3, 4], [5, 5]]

# family instance k = 2, bottom-up rows (hand evaluation of the casewise formula)
FAMILY2_ROWS_BOTTOM_UP = [
    [1],
    [Fraction(3, 2), Fraction(1, 2)],
    [Fraction(3, 2), Fraction(3, 2), 0],
    [2, Fraction(3, 2), Fraction(1, 2), 0],
    [2, 2, 1, 0, 0],
]
FAMILY2 = GTPattern.from_bottom_rows(FAMILY2_ROWS_BOTTOM_UP)
FAMILY2_SPEC = PolytopeSpec((2, 2, 1, 0, 0), (1, 1, 1, 1, 1))
FAMILY2_MATRIX = [[1, 1, 0], [2, 0, 0], [1, 0, 1]]

# the golden 4x3 matrix whose underlying size-6 pattern exists only as
# a picture: used as linear-algebra input, never as a tiling output
GOLDEN_N6_MATRIX = [[1, 0, 0], [1, 1, 0], [2, 2, 0], [1, 1, 1]]


def frac_rows(pattern: GTPattern) -> list[list[Fraction]]:
    return [list(row) for row in pattern.rows]


def hook_length_count(shape) -> int:
    """Number of standard Young tableaux of a partition shape.

    Classic hook-length product; serves as an oracle for Kostka numbers
    with all-ones content, independent of any enumeration in the package.
    """
    from math import factorial

    shape = [s for s in shape if s]
    total = sum(shape)
    cols = [sum(1 for s in shape if s > c) for c in range(shape[0])] if shape else []
    product = 1
    for r, width in enumerate(shape):
        for c in range(width):
            product *= (width - c) + (cols[c] - r) - 1
    return factorial(total) // product


def enumerate_tableaux(shape: Sequence[int], content: Sequence[int]) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content.

    Direct cell-by-cell backtracking, independent of the lattice-point
    row DP; a reference for cross-checking counts on small inputs.
    """
    shape = [int(v) for v in shape]
    if any(v < 0 for v in shape) or any(a < b for a, b in zip(shape, shape[1:])):
        return []
    shape = [v for v in shape if v]
    letters = len(content)
    remaining = [int(c) for c in content]
    if sum(remaining) != sum(shape) or any(c < 0 for c in remaining):
        return []
    grid = [[0] * width for width in shape]
    out: list[Tableau] = []
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]

    def fill(pos: int) -> None:
        if pos == len(cells):
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        r, c = cells[pos]
        low = grid[r][c - 1] if c else 1
        if r:
            low = max(low, grid[r - 1][c] + 1)
        for v in range(low, letters + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(pos + 1)
                grid[r][c] = 0
                remaining[v - 1] += 1

    if shape:
        fill(0)
    else:
        out.append(Tableau(()))
    return out


def random_valid_pattern(rng, n, max_top=4):
    """Random valid pattern: random integer top row (sorted), lower rows
    drawn uniformly from the small-denominator rationals in the
    interlacing interval of each cell."""
    from math import ceil, floor

    top = sorted((rng.randrange(max_top + 1) for _ in range(n)), reverse=True)
    rows = [[Fraction(v) for v in top]]
    for j in range(n - 1, 0, -1):
        above = rows[-1]
        row = []
        for i in range(j):
            lo, hi = above[i + 1], above[i]
            den = rng.choice((1, 2, 3))
            num_lo, num_hi = ceil(lo * den), floor(hi * den)
            row.append(Fraction(rng.randint(num_lo, num_hi), den)
                       if num_lo <= num_hi else lo)
        rows.append(row)
    return GTPattern.from_bottom_rows(list(reversed(rows)))


# hypothesis strategies for generated inputs, kept small so that the
# enumerations and the vertex oracle stay fast
@st.composite
def small_specs(draw, max_n=5, top=3):
    """Partition lambda and a composition mu of |lambda|; often empty."""
    n = draw(st.integers(1, max_n))
    lam = sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), reverse=True)
    cuts = sorted(draw(st.lists(st.integers(0, sum(lam)), min_size=n - 1, max_size=n - 1)))
    mu = [b - a for a, b in zip([0] + cuts, cuts + [sum(lam)])]
    return PolytopeSpec(tuple(lam), tuple(mu))


@st.composite
def integral_patterns(draw, min_n=1, max_n=5, top=6):
    """Integral GT-pattern drawn top-down, each cell in its interlacing
    interval; its spec is therefore nonempty.  The top row has distinct
    entries, so that the polytopes are not mostly points."""
    n = draw(st.integers(min_n, max_n))
    rows = [sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n, unique=True)),
                   reverse=True)]
    while len(rows[-1]) > 1:
        above = rows[-1]
        rows.append([draw(st.integers(above[i + 1], above[i])) for i in range(len(above) - 1)])
    return GTPattern.from_rows(rows)


@st.composite
def triangles(draw, max_n=6, noisy=None):
    """Triangular arrays of small rationals (denominators up to 3), drawn
    top-down.  A tidy array has a sorted nonnegative top row and each lower
    cell in its interlacing interval, often at an end of it so that equal
    neighbors form tiles: it is a valid pattern.  A noisy array may have an
    unsorted top row and any cell replaced by an arbitrary value, possibly
    negative, so it is usually invalid.  ``noisy=None`` draws either kind."""
    if noisy is None:
        noisy = draw(st.booleans())
    n = draw(st.integers(1, max_n))
    top = draw(st.lists(st.fractions(0, 5, max_denominator=3), min_size=n, max_size=n))
    rows = [top if noisy and draw(st.booleans()) else sorted(top, reverse=True)]
    while len(rows[-1]) > 1:
        row = []
        for left, right in zip(rows[-1], rows[-1][1:]):
            lo, hi = min(left, right), max(left, right)
            options = [st.sampled_from([lo, hi]), st.fractions(lo, hi, max_denominator=3)]
            if noisy:
                options.append(st.fractions(-1, 6, max_denominator=3))
            row.append(draw(st.one_of(options)))
        rows.append(row)
    return GTPattern.from_rows(rows)
