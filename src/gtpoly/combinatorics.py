"""Integral structure: tableaux, lattice points, Kostka numbers, Ehrhart counts.

Integral members of GT(lambda, mu) correspond one-to-one with
semistandard Young tableaux of shape lambda and content mu: reading the
pattern rows bottom-up as a growing chain of partitions, the cells added
by row j are filled with the letter j.  One row DP, `LatticePoints`,
counts the lattice points (the Kostka number) and unranks any of them.

The dilation counting function m -> #(GT(m*lambda, m*mu) lattice
points) agrees with a single polynomial; `ehrhart_polynomial` reads its
degree off the counts, interpolates it exactly and re-checks the
interpolant at extra dilations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Sequence

from . import linalg
from .core import GTPattern, PolytopeSpec, is_int, rational_to_json
from .errors import InputError, ShapeError

EXTRA_CHECKS = 3  # dilations past m = D+1 at which the Ehrhart interpolant is re-checked


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau: weakly increasing rows, strictly
    increasing columns, positive integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for r, row in enumerate(self.rows):
            if not row:
                raise ShapeError(f"tableau row {r + 1} is empty; drop empty rows")
            if any(not is_int(v) or v < 1 for v in row):
                raise ShapeError(f"tableau row {r + 1} has a non-positive-integer entry")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ShapeError(f"tableau row {r + 1} is not weakly increasing")
        for r, (row, below) in enumerate(zip(self.rows, self.rows[1:])):
            if len(below) > len(row):
                raise ShapeError(f"tableau shape is not weakly decreasing at row {r + 1}")
            if any(row[c] >= below[c] for c in range(len(below))):
                raise ShapeError(f"column not strictly increasing between rows {r + 1} and {r + 2}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def content(self, n: Optional[int] = None) -> tuple[int, ...]:
        """Multiplicity vector of the letters 1..n."""
        top = n if n is not None else max((v for row in self.rows for v in row), default=0)
        counts = [0] * top
        for row in self.rows:
            for v in row:
                if v > top:
                    raise InputError(f"tableau entry {v} exceeds n={top}")
                counts[v - 1] += 1
        return tuple(counts)

    @classmethod
    def from_json(cls, obj) -> "Tableau":
        rows = obj.get("rows") if isinstance(obj, dict) else obj
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ShapeError("tableau JSON must be a list of rows (or {'rows': [...]})")
        return cls(tuple(tuple(row) for row in rows))

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(row) for row in self.rows]}


def pattern_to_tableau(x: GTPattern) -> Tableau:
    """The tableau whose letter-j cells are the boxes added by pattern row j."""
    if not x.is_integral():
        raise InputError("only integral patterns correspond to tableaux")
    n = x.n
    filling: list[list[int]] = [[] for _ in range(n)]
    prev = [0] * n
    for j in range(1, n + 1):
        cur = [int(v) for v in x.row(j)] + [0] * (n - j)
        for i in range(n):
            if cur[i] < prev[i]:
                raise InputError(f"row {j} does not contain row {j - 1}: pattern invalid")
            filling[i].extend([j] * (cur[i] - prev[i]))
        prev = cur
    return Tableau(tuple(tuple(row) for row in filling if row))


def tableau_to_pattern(t: Tableau, n: int) -> GTPattern:
    """Inverse of `pattern_to_tableau`: row j collects counts of letters <= j."""
    if any(v > n for row in t.rows for v in row):
        raise InputError(f"tableau entries exceed n={n}")
    rows = []
    for j in range(1, n + 1):
        row = []
        for i in range(1, j + 1):
            tab_row = t.rows[i - 1] if i <= len(t.rows) else ()
            row.append(Fraction(sum(1 for v in tab_row if v <= j)))
        rows.append(tuple(row))
    return GTPattern(tuple(rows))


def _rows_below(above: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """Every integer row interlacing ``above`` (entry i in [above[i+1], above[i]])
    with sum ``target``, in lexicographic order.  The first entry is cut to
    the values the rest, a row interlacing ``above[1:]``, can complete."""
    if len(above) == 2:
        if above[1] <= target <= above[0]:
            yield (target,)
        return
    for a in range(max(above[1], target - sum(above[1:-1])),
                   min(above[0], target - sum(above[2:])) + 1):
        for tail in _rows_below(above[1:], target - a):
            yield (a,) + tail


class LatticePoints(Sequence):  # not Sequence[GTPattern]: typing caches that, pinning the class
    """The integral members of GT(spec) sorted by rows bottom-up; ``lp[r]``
    unranks rank 0 <= r < len(lp) (Wilf's ranking framework).  A row DP runs
    top-down from lambda; each distinct row of each level keeps ``[ways,
    parents]``: the chains from lambda down to it (so the members continuing
    upward from it) and the rows above that it interlaces."""

    def __init__(self, spec: PolytopeSpec):
        targets, lam = spec.row_targets(), spec.lam
        self._levels = [{lam: [1, []]} if sum(lam) == targets[-1] and min(lam) >= 0 else {}]
        for target in reversed(targets[:-1]):
            below: dict[tuple[int, ...], list] = {}
            for above, (w, _) in self._levels[-1].items():
                for row in _rows_below(above, target):
                    entry = below.setdefault(row, [0, []])
                    entry[0] += w
                    entry[1].append(above)
            self._levels.append(below)
        self._fraction_row = functools.cache(lambda row: tuple(map(Fraction, row)))

    def __len__(self) -> int:
        return sum(w for w, _ in self._levels[-1].values())

    def __getitem__(self, r: int) -> GTPattern:
        if not 0 <= r < len(self):
            raise IndexError(f"rank {r} out of range for {len(self)} lattice points")
        rows, candidates = [], sorted(self._levels[-1])
        for level in reversed(self._levels):
            for row in candidates:
                ways, parents = level[row]
                if r < ways:
                    break
                r -= ways
            rows.append(self._fraction_row(row))  # one shared tuple per distinct row
            parents.sort()  # in place, so a later rank through this row scans sorted parents
            candidates = parents
        return GTPattern(tuple(rows))


def enumerate_lattice_points(spec: PolytopeSpec) -> list[GTPattern]:
    """All integral members of GT(spec), sorted lexicographically by rows bottom-up."""
    return list(LatticePoints(spec))


def count_lattice_points(spec: PolytopeSpec) -> int:
    """Number of integral members of GT(spec), without building any."""
    return len(LatticePoints(spec))


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of lattice points of GT(lam, mu) = #SSYT(lam, mu)."""
    if len(lam) != len(mu):
        raise InputError("lambda and mu must have equal lengths")
    return count_lattice_points(PolytopeSpec(tuple(lam), tuple(mu)))


@dataclass(frozen=True)
class EhrhartSample:
    m: int
    count: int

    def to_json(self) -> dict:
        return {"m": self.m, "count": self.count}


def ehrhart_values(spec: PolytopeSpec, m_max: int) -> list[EhrhartSample]:
    """Lattice-point counts of the dilations GT(m*lambda, m*mu), m = 1..m_max."""
    if m_max < 1:
        raise InputError(f"m_max must be at least 1, got {m_max}")
    return [EhrhartSample(m, count_lattice_points(spec.dilate(m)))
            for m in range(1, m_max + 1)]


def evaluate_polynomial(coeffs: Sequence[Fraction], m: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * m + c
    return acc


@dataclass(frozen=True)
class EhrhartReport:
    """Interpolated counting polynomial plus its verification record."""

    degree: int
    coefficients: tuple[Fraction, ...]
    samples: tuple[EhrhartSample, ...]
    checks: tuple[dict, ...]
    all_match: bool

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients": [rational_to_json(c) for c in self.coefficients],
            "samples": [s.to_json() for s in self.samples],
            "checks": list(self.checks),
            "all_match": self.all_match,
        }


def ehrhart_polynomial(spec: PolytopeSpec, degree_hint: Optional[int] = None) -> EhrhartReport:
    """Interpolate the dilation counting function and verify the interpolant.

    Stretched Kostka numbers are polynomial in m, with value 1 at m = 0
    and degree D = the polytope dimension <= B = C(n-1, 2).  Unless
    ``degree_hint`` overrides it, D is the highest order of finite
    difference of the counts at m = 0..B+1 that is not all zero.  Counts
    at m = 1..D+1 determine the polynomial, which is then compared against
    the true counts at `EXTRA_CHECKS` further dilations.  A mismatch is
    reported, never swallowed; an empty polytope is rejected.
    """
    # counts[m]: lattice points of the m-th dilation
    counts, degree = [1, count_lattice_points(spec)], degree_hint
    if counts[1] == 0:
        raise InputError("polytope is empty; no counting polynomial exists")
    if degree is None:
        counts += [count_lattice_points(spec.dilate(m)) for m in range(2, comb(spec.n - 1, 2) + 2)]
        degree, diffs = 0, counts
        while any(diffs := [b - a for a, b in zip(diffs, diffs[1:])]):
            degree += 1
    if degree < 0:
        raise InputError(f"degree hint must be nonnegative, got {degree}")
    counts += [count_lattice_points(spec.dilate(m))
               for m in range(len(counts), degree + 2 + EXTRA_CHECKS)]
    samples = [EhrhartSample(m, counts[m]) for m in range(1, degree + 2 + EXTRA_CHECKS)]
    # the coefficients (ascending degree) solve the Vandermonde system at m = 1..D+1
    coeffs = linalg.solve([[m ** t for t in range(degree + 1)] for m in range(1, degree + 2)],
                          counts[1:degree + 2])
    checks = []
    all_match = True
    for s in samples[degree + 1:]:
        predicted = evaluate_polynomial(coeffs, s.m)
        match = predicted == s.count
        all_match = all_match and match
        checks.append({"m": s.m, "expected": s.count,
                       "interpolated": rational_to_json(predicted), "match": match})
    return EhrhartReport(degree, tuple(coeffs), tuple(samples), tuple(checks), all_match)
