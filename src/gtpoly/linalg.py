"""Exact linear algebra through one fraction-free elimination kernel.

Matrices are plain sequences of rows of ints or `fractions.Fraction`s;
no floating point is used.  `eliminate` scales each row to integers by
the lcm of its denominators, then runs fraction-free (Bareiss)
Gauss-Jordan elimination, in which every intermediate entry is an
integer minor and every division is exact.  `rank`, `kernel_basis`,
`solve` and `determinant` read their answers off its result; rationals
reappear only there.  A matrix with zero rows cannot carry its own
column count, so routines that need it accept an explicit ``cols``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple, Optional, Sequence

from .errors import InputError

Row = Sequence[Fraction]
Matrix = Sequence[Row]


def _dims(m: Matrix, cols: Optional[int]) -> tuple[int, int]:
    r = len(m)
    if r:
        c = len(m[0])
        if any(len(row) != c for row in m):
            raise InputError("matrix rows have unequal lengths")
        if cols is not None and cols != c:
            raise InputError(f"matrix has {c} columns, caller declared {cols}")
        return r, c
    return 0, 0 if cols is None else cols


def _integer_row(row: Row) -> tuple[list[int], int]:
    """The row scaled by the lcm of its denominators, and that lcm."""
    # unpack a list, not a generator: a generator's argument tuple is grown
    # by resizing, which keeps filling the interpreter's tuple free list
    scale = lcm(*[v.denominator for v in row])
    return [v.numerator * (scale // v.denominator) for v in row], scale


class Echelon(NamedTuple):
    """Fraction-free reduced row echelon form.

    The reduced echelon form is ``rows[i] / d`` for the first
    ``len(pivots)`` rows; every pivot entry equals ``d``.  ``sign`` is
    -1 after an odd number of row swaps, else 1.
    """

    rows: list[list[int]]
    pivots: list[int]
    d: int
    sign: int

    def kernel(self, cols: int) -> list[tuple[int, ...]]:
        """Primitive kernel vectors of the first ``cols`` columns, one per
        free column in ascending order, with positive leading entry."""
        basis = []
        for f in (j for j in range(cols) if j not in self.pivots):
            v = [0] * cols
            v[f] = self.d
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(primitive_integer(v))
        return basis

    def solution(self, cols: int) -> Optional[list[Fraction]]:
        """The solution with free variables 0, reading column ``cols`` as
        the right-hand side; None if that column holds a pivot."""
        if cols in self.pivots:
            return None
        x = [Fraction(0)] * cols
        for row, p in zip(self.rows, self.pivots):
            x[p] = Fraction(row[cols], self.d)
        return x


def eliminate(m: Matrix, cols: Optional[int] = None) -> Echelon:
    """Fraction-free Gauss-Jordan elimination of m (rows scaled to integers)."""
    r, c = _dims(m, cols)
    a = [_integer_row(row)[0] for row in m]
    pivots: list[int] = []
    d, sign, top = 1, 1, 0
    for col in range(c):
        if top == r:
            break
        piv = next((i for i in range(top, r) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            sign = -sign
        prow = a[top]
        p = prow[col]
        for i in range(r):
            if i != top:
                f = a[i][col]
                a[i] = [(p * x - f * y) // d for x, y in zip(a[i], prow)]
        pivots.append(col)
        d = p
        top += 1
    return Echelon(a, pivots, d, sign)


def rank(m: Matrix, cols: Optional[int] = None) -> int:
    """Exact rank over the rationals."""
    return len(eliminate(m, cols).pivots)


def primitive_integer(vec: Sequence[Fraction], fix_sign: bool = True) -> tuple[int, ...]:
    """Scale a vector of ints or rationals to coprime integers.

    With ``fix_sign`` the first nonzero entry is made positive; without
    it only positive scaling is applied (the direction is preserved).
    """
    ints = _integer_row(vec)[0]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if fix_sign and next((v for v in ints if v != 0), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def kernel_basis(m: Matrix, cols: Optional[int] = None) -> list[tuple[int, ...]]:
    """Basis of the right kernel, as primitive integer vectors.

    One basis vector per free column of the reduced echelon form, in
    ascending free-column order; each is scaled to coprime integers with
    positive leading entry, so the output is deterministic.
    """
    _, c = _dims(m, cols)
    return eliminate(m, c).kernel(c)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix (0x0 has determinant 1)."""
    r = len(m)
    if any(len(row) != r for row in m):
        raise InputError("determinant requires a square matrix")
    e = eliminate(m, r)
    if len(e.pivots) < r:
        return Fraction(0)
    return Fraction(e.sign * e.d, prod(_integer_row(row)[1] for row in m))


def solve(m: Matrix, rhs: Sequence[Fraction],
          cols: Optional[int] = None) -> Optional[list[Fraction]]:
    """One exact solution of m x = rhs, or None if the system is inconsistent.

    Free variables are set to 0, so the output is deterministic.
    """
    _, c = _dims(m, cols)
    return eliminate([list(row) + [rhs[i]] for i, row in enumerate(m)], c + 1).solution(c)
