"""The integer elimination kernel against a plain Fraction reference.

`reference_rref` is textbook Gauss-Jordan elimination over Fractions.
It lives here only as an independent oracle for generated matrices:
every public routine of `gtpoly.linalg` must give exactly what the
reference gives, including the order and normalization of kernel
vectors.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from gtpoly.linalg import determinant, eliminate, kernel_basis, rank, solve

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference_rref(m, cols):
    """Reduced rows, pivot columns, and the determinant factor (product of
    the pivots used, with the sign of the row swaps)."""
    a = [[Fraction(v) for v in row] for row in m]
    pivots, det, top = [], Fraction(1), 0
    for col in range(cols):
        piv = next((i for i in range(top, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            det = -det
        p = a[top][col]
        det *= p
        a[top] = [v / p for v in a[top]]
        for i in range(len(a)):
            if i != top and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[top])]
        pivots.append(col)
        top += 1
    return a, pivots, det


def reference_primitive(vec):
    scale = lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def reference_kernel(m, cols):
    red, pivots, _ = reference_rref(m, cols)
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(reference_primitive(v))
    return basis


def reference_solve(m, rhs, cols):
    red, pivots, _ = reference_rref([list(row) + [b] for row, b in zip(m, rhs)], cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(red, pivots):
        x[p] = row[cols]
    return x


integers = st.integers(-6, 6)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def matrices(draw, square=False):
    """(matrix, cols): 0..6 rows and columns, int or rational entries, many
    zeros, some zero rows and some rows dependent on the first two."""
    entry = draw(st.sampled_from([integers, rationals]))
    sparse = st.one_of(st.just(0), entry)
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    m = [draw(st.lists(sparse, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "dependent"]))
        if kind == "zero":
            m[i] = [0] * cols
        elif kind == "dependent" and i >= 2:
            s, t = draw(entry), draw(entry)
            m[i] = [s * x + t * y for x, y in zip(m[0], m[1])]
    return m, cols


@SETTINGS
@given(matrices())
def test_elimination_rank_and_kernel_match_reference(case):
    m, cols = case
    red, pivots, _ = reference_rref(m, cols)
    e = eliminate(m, cols)
    assert e.pivots == pivots
    assert all(isinstance(v, int) for row in e.rows for v in row)
    for i, p in enumerate(pivots):
        assert e.rows[i][p] == e.d
        assert [Fraction(v, e.d) for v in e.rows[i]] == red[i]
    assert all(v == 0 for row in e.rows[len(pivots):] for v in row)

    assert rank(m, cols=cols) == len(pivots)
    basis = kernel_basis(m, cols=cols)
    assert basis == reference_kernel(m, cols)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


@SETTINGS
@given(st.data())
def test_solve_matches_reference(data):
    m, cols = data.draw(matrices())
    entry = data.draw(st.sampled_from([integers, rationals]))
    if data.draw(st.booleans()):
        # a consistent right-hand side: m times a drawn vector
        x = data.draw(st.lists(entry, min_size=cols, max_size=cols))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]
    else:
        rhs = data.draw(st.lists(entry, min_size=len(m), max_size=len(m)))
    assert solve(m, rhs, cols=cols) == reference_solve(m, rhs, cols)


@SETTINGS
@given(matrices(square=True))
def test_determinant_matches_reference(case):
    m, size = case
    _, pivots, det = reference_rref(m, size)
    expected = det if len(pivots) == size else Fraction(0)
    got = determinant(m)
    assert got == expected
    assert isinstance(got, Fraction)
