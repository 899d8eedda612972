"""Gelfand-Tsetlin patterns and polytope specifications.

A pattern of size n is a triangular array (x_ij) with 1 <= i <= j <= n.
Row j is the j-th row *counted from the bottom*: row 1 is the single
bottom entry x_11 and row n is the top row.  Entry x_ij sits below and
between its upper-left neighbor x_{i,j+1} and its upper-right neighbor
x_{i+1,j+1}.

All arithmetic is exact: entries are `fractions.Fraction`, floats are
rejected on input and never appear internally.

JSON formats (shared by every module and the CLI):

* pattern -- ``{"n": 5, "rows": [[top row], ..., [bottom row]]}``, rows
  listed top-to-bottom to match the triangular layout; each entry is an
  integer or a string ``"p/q"`` in lowest terms.
* spec    -- ``{"lambda": [...], "mu": [...]}`` with integer entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence, Union

from .errors import InputError, MembershipError, ShapeError

RationalLike = Union[int, str, Fraction]


def is_int(value) -> bool:
    """True for an int that is not a bool; JSON readers accept nothing else."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string."""
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    if isinstance(value, float):
        raise ShapeError(f"floating-point entry {value!r} rejected; use an integer or a 'p/q' string")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"cannot parse rational from {value!r}") from exc
    raise ShapeError(f"cannot parse rational from {value!r}")


def rational_to_json(value: Fraction) -> Union[int, str]:
    """Render a rational as a JSON-friendly int or "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def pattern_cells(n: int) -> Iterator[tuple[int, int]]:
    """Cell indices (i, j) in scan order: bottom row to top, left to right."""
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            yield (i, j)


@dataclass(frozen=True)
class GTPattern:
    """Triangular array of exact rationals, stored as bottom-up rows."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for j, row in enumerate(self.rows, start=1):
            if len(row) != j:
                raise ShapeError(f"row {j} (from the bottom) has {len(row)} entries, expected {j}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry x_ij, 1-based, with j counted from the bottom."""
        if not (1 <= i <= j <= self.n):
            raise ShapeError(f"cell ({i}, {j}) out of range for n={self.n}")
        return self.rows[j - 1][i - 1]

    def row(self, j: int) -> tuple[Fraction, ...]:
        return self.rows[j - 1]

    def top_row(self) -> tuple[Fraction, ...]:
        return self.rows[-1]

    def cells(self) -> Iterator[tuple[int, int]]:
        return pattern_cells(self.n)

    def values(self) -> Iterator[Fraction]:
        for row in self.rows:
            yield from row

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values())

    def denominator_lcm(self) -> int:
        """Least common multiple of all entry denominators (1 if integral)."""
        return lcm(*(v.denominator for v in self.values())) if self.rows else 1

    @classmethod
    def from_bottom_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "GTPattern":
        return cls(tuple(tuple(parse_rational(v) for v in row) for row in rows))

    @classmethod
    def from_rows(cls, rows_top_down: Sequence[Sequence[RationalLike]]) -> "GTPattern":
        """Build from rows listed top-to-bottom (the JSON layout)."""
        return cls.from_bottom_rows(list(reversed(list(rows_top_down))))

    @classmethod
    def from_json(cls, obj) -> "GTPattern":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ShapeError("pattern JSON must be an object with a 'rows' key")
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ShapeError("pattern 'rows' must be a list of lists")
        pattern = cls.from_rows(rows)
        if "n" in obj and obj["n"] != pattern.n:
            raise ShapeError(f"pattern declares n={obj['n']} but has {pattern.n} rows")
        return pattern

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [[rational_to_json(v) for v in row] for row in reversed(self.rows)],
        }

    def pretty(self) -> str:
        """Render in the triangular layout, top row first."""
        cells = [[rational_to_json(v) for v in row] for row in reversed(self.rows)]
        width = max((len(str(c)) for row in cells for c in row), default=1) + 2
        lines = []
        for depth, row in enumerate(cells):
            pad = " " * (depth * width // 2)
            lines.append(pad + "".join(str(c).ljust(width) for c in row).rstrip())
        return "\n".join(lines)


@dataclass(frozen=True)
class PolytopeSpec:
    """The pair (lambda, mu) of integer vectors defining GT(lambda, mu).

    lambda is the prescribed top row; mu gives the row-sum increments:
    the j-th row of a member sums to mu_1 + ... + mu_j.  lambda is not
    required to be weakly decreasing; if it is not, the polytope is
    simply empty.
    """

    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        if len(self.lam) != len(self.mu):
            raise ShapeError(f"lambda has length {len(self.lam)} but mu has length {len(self.mu)}")
        if not self.lam:
            raise ShapeError("lambda and mu must be nonempty")
        for name, vec in (("lambda", self.lam), ("mu", self.mu)):
            for v in vec:
                if not is_int(v):
                    raise ShapeError(f"{name} entries must be integers, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.lam)

    def row_targets(self) -> tuple[int, ...]:
        """Required row sums: component j-1 is mu_1 + ... + mu_j."""
        out = []
        total = 0
        for v in self.mu:
            total += v
            out.append(total)
        return tuple(out)

    def dilate(self, m: int) -> "PolytopeSpec":
        return PolytopeSpec(tuple(m * v for v in self.lam), tuple(m * v for v in self.mu))

    @classmethod
    def from_json(cls, obj) -> "PolytopeSpec":
        if not isinstance(obj, dict) or "lambda" not in obj or "mu" not in obj:
            raise ShapeError("spec JSON must be an object with 'lambda' and 'mu' keys")
        if not isinstance(obj["lambda"], list) or not isinstance(obj["mu"], list):
            raise ShapeError("spec 'lambda' and 'mu' must be lists of integers")
        return cls(tuple(obj["lambda"]), tuple(obj["mu"]))

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "mu": list(self.mu)}


def interlacing_pairs(n: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Each interlacing constraint x[hi] >= x[lo] of a size-n pattern as
    ``(hi, lo)``: for every cell (i, j) below the top row, in scan order,
    first its upper-left pair ((i, j+1), (i, j)), then its upper-right pair
    ((i, j), (i+1, j+1)).  Validation reports, the oracle's inequality rows
    and the tiling's tight pairs all follow this order."""
    for j in range(1, n):
        for i in range(1, j + 1):
            yield (i, j + 1), (i, j)
            yield (i, j), (i + 1, j + 1)


def validate_pattern(x: GTPattern) -> list[dict]:
    """Report every violated defining constraint of a GT-pattern.

    Returns a list of violation records, one per failing constraint;
    the pattern is a GT-pattern iff the list is empty.  Malformed shapes
    never reach this function: they are rejected when the GTPattern is
    constructed.
    """
    rows = x.rows
    report = [{"kind": "nonnegativity", "cell": [i, j]}
              for j, row in enumerate(rows, start=1) for i, v in enumerate(row, start=1) if v < 0]
    for (a, b), (c, d) in interlacing_pairs(x.n):
        if not rows[b - 1][a - 1] >= rows[d - 1][c - 1]:
            report.append({"kind": "interlacing", "cells": sorted([[a, b], [c, d]]),
                           "constraint": f"x[{a},{b}] >= x[{c},{d}]"})
    return report


def is_valid(x: GTPattern) -> bool:
    return not validate_pattern(x)


def row_sums(x: GTPattern) -> tuple[Fraction, ...]:
    """Row sums, bottom row first."""
    return tuple(sum(row, Fraction(0)) for row in x.rows)


def weight_of(x: GTPattern) -> tuple[Fraction, ...]:
    """Vector of consecutive row-sum differences (mu_1 = x_11)."""
    sums = row_sums(x)
    return tuple(s - prev for s, prev in zip(sums, (Fraction(0),) + sums[:-1]))


def membership_report(x: GTPattern, spec: PolytopeSpec) -> list[dict]:
    """Every reason x fails to lie in GT(spec); empty iff x is a member."""
    if x.n != spec.n:
        raise InputError(f"pattern has n={x.n} but spec has n={spec.n}")
    report = validate_pattern(x)
    top = x.top_row()
    for i, (have, want) in enumerate(zip(top, spec.lam), start=1):
        if have != want:
            report.append({"kind": "top-row", "cell": [i, x.n],
                           "constraint": f"x[{i},{x.n}] = {want}"})
    for j, (have, want) in enumerate(zip(weight_of(x), spec.mu), start=1):
        if have != want:
            report.append({"kind": "row-sum", "row": j,
                           "constraint": f"weight[{j}] = {want}"})
    return report


def membership(x: GTPattern, spec: PolytopeSpec) -> bool:
    """True iff x is a valid pattern with top row lambda and weight mu."""
    return not membership_report(x, spec)


def require_membership(x: GTPattern, spec: PolytopeSpec) -> None:
    report = membership_report(x, spec)
    if report:
        raise MembershipError(f"pattern is not a member of GT{(spec.lam, spec.mu)}", report)


def embed(x: GTPattern) -> GTPattern:
    """Embed a pattern of size n into size n+1.

    The image has a zero bottom-left diagonal and the original rows
    shifted up one row: row j of the image is the old row j-1 with a 0
    appended.  A member of GT(lambda, mu) maps to a member of
    GT((lambda, 0), (0, mu)).
    """
    zero = Fraction(0)
    new_rows = [(zero,)]
    for row in x.rows:
        new_rows.append(tuple(row) + (zero,))
    return GTPattern(tuple(new_rows))


def embed_spec(spec: PolytopeSpec) -> PolytopeSpec:
    """The spec that `embed` maps GT(lambda, mu) members into."""
    return PolytopeSpec(spec.lam + (0,), (0,) + spec.mu)


def spec_of(x: GTPattern) -> PolytopeSpec:
    """The spec (top row, weight) whose polytope contains a valid x.

    Requires the top row and the weight to be integral, since polytope
    specifications are integer vectors.
    """
    top = x.top_row()
    weight = weight_of(x)
    if any(v.denominator != 1 for v in top) or any(v.denominator != 1 for v in weight):
        raise InputError("pattern has a non-integral top row or weight; no integral spec exists")
    return PolytopeSpec(tuple(int(v) for v in top), tuple(int(v) for v in weight))
