"""An infinite family of non-integral vertices, and the denominator bound.

For every k >= 2 there is a polytope GT(lambda, mu) with
lambda = (k, ..., k, k-1, 0, ..., 0) (k copies of each extreme value)
and mu = (k-1, ..., k-1, 1, ..., 1) (k+1 copies of k-1, then k ones)
whose member built below is a vertex with entry denominators of lcm
exactly k.  Instances with even pattern size are obtained through the
dimension-raising embedding.

Every generated instance re-verifies its own claimed properties
(membership, vertexness, |det| = k, denominator lcm = k) and refuses to
return anything that fails a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb

from . import linalg
from .core import GTPattern, PolytopeSpec, embed, embed_spec, membership
from .errors import InputError
from .faces import NonIntegralityCertificate, _record_check, _vertex_certificate
from .tiling import TilingMatrix, compute_tiling, tiling_matrix_of


@dataclass(frozen=True)
class FamilyInstance:
    """A generated non-integral vertex together with its verification data."""

    k: int
    even: bool
    spec: PolytopeSpec
    pattern: GTPattern
    matrix: TilingMatrix
    det: int
    certificate: NonIntegralityCertificate
    transcript: tuple[dict, ...]

    @property
    def n(self) -> int:
        return self.spec.n

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "even": self.even,
            "spec": self.spec.to_json(),
            "pattern": self.pattern.to_json(),
            "tiling_matrix": self.matrix.to_json(),
            "|det|": abs(self.det),
            "q": self.certificate.q,
            "xi": list(self.certificate.xi),
            "denominator_lcm": self.pattern.denominator_lcm(),
            "transcript": list(self.transcript),
        }


def _family_entry(k: int, i: int, j: int) -> Fraction:
    # diagonal case uses the (k-1) factor: the value must equal the
    # prescribed bottom entry mu_1 = k-1 at (1,1) and stay below its
    # upper-left neighbor k - 1/k, which pins the factor down
    if j <= k + 1:
        if i == j:
            return Fraction((k - j + 1) * (k - 1), k)
        return k - Fraction(1, k)
    if i < j - k:
        return Fraction(k)
    if i <= k:
        return k - Fraction(1, k)
    if i == k + 1:
        return Fraction((j - k - 1) * (k - 1), k)
    return Fraction(0)


def family_pattern(k: int) -> GTPattern:
    """The explicit member x(k) of the family polytope, size n = 2k+1."""
    n = 2 * k + 1
    return GTPattern(tuple(
        tuple(_family_entry(k, i, j) for i in range(1, j + 1))
        for j in range(1, n + 1)
    ))


def family_spec(k: int) -> PolytopeSpec:
    return PolytopeSpec((k,) * k + (k - 1,) + (0,) * k,
                        (k - 1,) * (k + 1) + (1,) * k)


def _verify_instance(k: int, even: bool, spec: PolytopeSpec,
                     pattern: GTPattern) -> FamilyInstance:
    transcript: list[dict] = []
    check = partial(_record_check, transcript, subject=f"family instance k={k}")
    check("membership", membership(pattern, spec))
    til = compute_tiling(pattern)
    matrix = tiling_matrix_of(til)
    check("square-matrix", matrix.rows == matrix.cols,
          rows=matrix.rows, cols=matrix.cols)
    det = linalg.determinant(matrix.entries)
    check("determinant", abs(det) == k, det=str(det))
    check("vertex", det != 0)
    lcm_val = pattern.denominator_lcm()
    check("denominator-lcm", lcm_val == k, lcm=lcm_val)
    cert = _vertex_certificate(pattern, til, matrix)
    check("certificate", cert is not None and cert.q == k)
    bound = denominator_bound(spec.n)
    check("below-denominator-bound", k < bound, bound=bound)
    return FamilyInstance(k, even, spec, pattern, matrix, int(det), cert,
                          tuple(transcript))


def counterexample(k: int) -> FamilyInstance:
    """Verified non-integral vertex with denominator k, in size n = 2k+1.

    k = 1 is rejected: the construction degenerates to integral entries
    and certifies nothing.
    """
    if k < 2:
        raise InputError(f"family requires k >= 2, got {k}")
    return _verify_instance(k, False, family_spec(k), family_pattern(k))


def counterexample_even_n(k: int) -> FamilyInstance:
    """The embedded instance: a non-integral vertex in size n = 2k+2."""
    if k < 2:
        raise InputError(f"family requires k >= 2, got {k}")
    return _verify_instance(k, True, embed_spec(family_spec(k)),
                            embed(family_pattern(k)))


def denominator_bound(n: int) -> int:
    """Upper bound on entry denominators of vertices at fixed size n.

    Equals (n-1) ** (C(n+1,2) - n - 1); every observed vertex
    denominator must be strictly below it.
    """
    if n < 2:
        raise InputError(f"denominator_bound requires n >= 2, got {n}")
    return (n - 1) ** (comb(n + 1, 2) - n - 1)
