"""Minimal-face dimensions, vertex certification, and non-integrality
certificates, all through a member's tiling matrix, built in one step;
self-checks go through one recorder, which raises on any failure.

A member x is constant on each tile, so it is its fixed cells plus its
free-tile values v, which one helper reads and one writes.  The minimal
face of GT(lambda, mu) containing x has the kernel dimension of the
tiling matrix A of x, and a face direction moves v along a kernel
vector y: x +/- c*y stays in the polytope for a small enough scale c.

Non-integral vertices are certified in both directions: at a vertex with
entry denominators of lcm q, xi = q*v mod q satisfies A xi = 0 (mod q)
and has a coordinate coprime to q; conversely, adding xi/q to the
free-tile values of an integral carrier rebuilds a non-integral vertex,
and `truncate_integral` floors them again.  Both take a supplied tiling
only if it has the pattern's size, partitions its cells, marks free
tiles as `is_free_tile` does and holds one value per tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from . import linalg
from .core import (
    GTPattern,
    PolytopeSpec,
    is_int,
    membership,
    rational_to_json,
    require_membership,
    spec_of,
    validate_pattern,
)
from .errors import InputError, ShapeError, TilingDriftError, VerificationError
from .tiling import Tiling, TilingMatrix, compute_tiling, is_free_tile, tiling_matrix_of

DirectionRows = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class FaceCertificate:
    """Kernel basis, face directions and a safe perturbation scale.

    ``face_directions[m]`` is a pattern-layout array (bottom-up rows,
    like GTPattern.rows) that is constant on each free tile and zero
    elsewhere; ``x + scale*y`` and ``x - scale*y`` are members for every
    direction y.  The directions span the linear space parallel to the
    minimal face containing x.
    """

    face_dimension: int
    kernel_basis: tuple[tuple[int, ...], ...]
    face_directions: tuple[DirectionRows, ...]
    scale: Fraction
    transcript: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "face_dimension": self.face_dimension,
            "kernel_basis": [list(v) for v in self.kernel_basis],
            "directions": [
                [[rational_to_json(v) for v in row] for row in reversed(rows)]
                for rows in self.face_directions
            ],
            "scale": rational_to_json(self.scale),
            "transcript": list(self.transcript),
        }


@dataclass(frozen=True)
class NonIntegralityCertificate:
    """Witness that a vertex is non-integral with denominator lcm q."""

    q: int
    xi: tuple[int, ...]
    unit_index: int

    def to_json(self) -> dict:
        return {"q": self.q, "xi": list(self.xi), "unit_index": self.unit_index}


@dataclass(frozen=True)
class ConstructionResult:
    """Outcome of rebuilding a (possibly non-integral) vertex."""

    pattern: GTPattern
    spec: PolytopeSpec
    non_integral: bool
    transcript: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern.to_json(),
            "spec": self.spec.to_json(),
            "non_integral": self.non_integral,
            "transcript": list(self.transcript),
        }


def _tiled_member(x: GTPattern, spec: PolytopeSpec) -> tuple[Tiling, TilingMatrix]:
    """The tiling of the member x of GT(spec), and its tiling matrix."""
    require_membership(x, spec)
    til = compute_tiling(x)
    return til, tiling_matrix_of(til)


def _record_check(transcript: list[dict], name: str, ok: bool = True, error=VerificationError,
                  message: str = "", subject: str = "", **detail) -> None:
    """Append the passed check `name` with its detail keys, or raise `error`:
    a returned transcript only ever holds passed checks."""
    if not ok:
        raise error(message or f"{subject} failed self-check '{name}': {detail}")
    transcript.append({"check": name, "pass": True, **detail})


def face_dimension(x: GTPattern, spec: PolytopeSpec) -> int:
    """Dimension of the minimal face of GT(spec) containing x."""
    a = _tiled_member(x, spec)[1]
    return a.cols - linalg.rank(a.entries, cols=a.cols)


def is_vertex(x: GTPattern, spec: PolytopeSpec) -> bool:
    """True iff x is a vertex, i.e. its tiling matrix has trivial kernel."""
    return face_dimension(x, spec) == 0


def _free_values(x: GTPattern, til: Tiling) -> tuple[Fraction, ...]:
    """x's value on each free tile of til, read at the tile's first cell."""
    return tuple(x.entry(*til.tiles[t][0]) for t in til.free)


def _with_free_values(x: GTPattern, til: Tiling, values: Iterable[Fraction]) -> GTPattern:
    """x with every cell of free tile k of til set to values[k]."""
    rows = [list(row) for row in x.rows]
    for t, v in zip(til.free, values):
        for i, j in til.tiles[t]:
            rows[j - 1][i - 1] = v
    return GTPattern(tuple(map(tuple, rows)))


def face_basis(x: GTPattern, spec: PolytopeSpec) -> FaceCertificate:
    """Explicit basis of the minimal face containing x.

    The perturbation scale is one third of the smallest gap between
    distinct entry values, divided by the largest kernel coordinate, so
    every direction stays strictly inside the half-gap bound that keeps
    x +/- scale*y inside the polytope.  The certificate is verified
    before it is returned.
    """
    til, a = _tiled_member(x, spec)
    kernel = linalg.kernel_basis(a.entries, cols=a.cols)
    d = len(kernel)
    transcript: list[dict] = []
    _record_check(transcript, "kernel-dimension", dimension=d)

    distinct = sorted(set(x.values()))
    gaps = [b - a_ for a_, b in zip(distinct, distinct[1:])]
    if d == 0 or not gaps:
        scale = Fraction(1)
    else:
        max_eps = max(abs(e) for vec in kernel for e in vec)
        scale = min(gaps) / 3 / max_eps

    zero = GTPattern(tuple((Fraction(0),) * j for j in range(1, x.n + 1)))
    directions = tuple(_with_free_values(zero, til, map(Fraction, vec)).rows for vec in kernel)
    values = _free_values(x, til)
    for m, vec in enumerate(kernel):
        moved = (_with_free_values(x, til, [v + s * e for v, e in zip(values, vec)])
                 for s in (scale, -scale))
        ok = all(membership(p, spec) for p in moved)
        _record_check(transcript, f"membership x +/- scale*y[{m + 1}]", ok,
                      message=f"face direction {m + 1} leaves the polytope at scale {scale}")
    if kernel and linalg.rank(kernel) != d:
        raise VerificationError("kernel basis is not linearly independent")
    return FaceCertificate(d, tuple(kernel), directions, scale, tuple(transcript))


def nonintegrality_certificate(x: GTPattern, spec: PolytopeSpec
                               ) -> Optional[NonIntegralityCertificate]:
    """Certificate that the vertex x is non-integral, or None if integral.

    For a non-integral vertex with entry-denominator lcm q, the vector
    xi with xi_k = q * (value of free tile k) mod q satisfies
    A xi = 0 (mod q) and has a coordinate coprime to q.  Both facts are
    re-verified before the certificate is returned.
    """
    til, a = _tiled_member(x, spec)
    if a.cols != linalg.rank(a.entries, cols=a.cols):
        raise InputError("pattern is not a vertex; no non-integrality certificate applies")
    return _vertex_certificate(x, til, a)


def _annihilates_mod(a: TilingMatrix, xi: Sequence[int], q: int) -> bool:
    """Whether A xi = 0 (mod q)."""
    return all(sum(av * xv for av, xv in zip(row, xi)) % q == 0 for row in a.entries)


def _vertex_certificate(x: GTPattern, til: Tiling, a: TilingMatrix
                        ) -> Optional[NonIntegralityCertificate]:
    """`nonintegrality_certificate` of a vertex x, given its tiling and matrix."""
    q = x.denominator_lcm()
    if q == 1:
        return None
    scaled = [v * q for v in _free_values(x, til)]
    assert all(v.denominator == 1 for v in scaled)
    xi = [int(v) % q for v in scaled]
    if not _annihilates_mod(a, xi, q):
        raise VerificationError("tiling matrix does not annihilate xi mod q")
    unit_index = next((k for k, v in enumerate(xi) if gcd(v, q) == 1), None)
    if unit_index is None:
        # can only happen when the lcm q is assembled from strictly
        # smaller per-tile denominators; no single tile then witnesses q
        raise VerificationError(
            f"no free-tile value has denominator exactly {q}; certificate undefined")
    return NonIntegralityCertificate(q, tuple(xi), unit_index)


def truncate_integral(x: GTPattern, tiling: Optional[Tiling] = None) -> GTPattern:
    """Drop the fractional parts on the free tiles of x.

    A supplied tiling is checked as `construct_nonintegral_vertex` checks
    its tiling.  Cells outside free tiles must already be integral
    (for polytope members they always are: such cells carry top-row or
    bottom values).
    """
    til = tiling if tiling is not None else compute_tiling(x)
    _check_tiling_structure(til, x)
    out = _with_free_values(x, til, [v - v % 1 for v in _free_values(x, til)])
    bad = next((cell for cell in out.cells() if out.entry(*cell).denominator != 1), None)
    if bad:
        raise InputError(f"cell ({bad[0]},{bad[1]}) is outside every free tile but non-integral")
    return out


def _check_tiling_structure(til: Tiling, x: GTPattern) -> None:
    if til.n != x.n:
        raise InputError(f"tiling has n={til.n} but pattern has n={x.n}")
    if len(set(til.free)) != len(til.free) or not set(til.free) <= set(range(len(til.tiles))):
        raise InputError("supplied tiling's free entries must be distinct tile indices")
    cells = set(x.cells())
    seen: set[tuple[int, int]] = set()
    for tile in til.tiles:
        for cell in tile:
            if cell not in cells or cell in seen:
                raise InputError("supplied tiling does not partition the pattern's cells")
            seen.add(cell)
    if seen != cells:
        raise InputError("supplied tiling does not cover every pattern cell")
    for t, tile in enumerate(til.tiles):
        if is_free_tile(tile, til.n) != (t in til.free):
            raise InputError(f"tile {t} has the wrong free/fixed status")
        values = {x.entry(i, j) for (i, j) in tile}
        if len(values) != 1:
            raise InputError(f"carrier pattern is not constant on tile {t}")


def construct_nonintegral_vertex(x_int: GTPattern, xi: Sequence[int], q: int,
                                 tiling: Optional[Tiling] = None) -> ConstructionResult:
    """Rebuild a vertex from an integral carrier pattern and a mod-q kernel vector.

    Adds xi_k / q to every cell of free tile k of the tiling (the
    carrier's own tiling unless one is supplied explicitly; an explicit
    tiling must be a partition on which the carrier is constant).  The
    result is only returned after verifying that it is a valid pattern,
    that its tiling is exactly the one built from, and that it is a
    vertex whose entry denominators have lcm q; any drift fails loudly.
    """
    if not isinstance(xi, (list, tuple)) or not all(map(is_int, xi)) or not is_int(q):
        raise ShapeError("xi must be a list of integers and q an integer")
    report = validate_pattern(x_int)
    if report:
        raise InputError(f"carrier pattern is invalid ({len(report)} violations)")
    if not x_int.is_integral():
        raise InputError("carrier pattern must be integral")
    if q < 2:
        raise InputError(f"modulus must be at least 2, got {q}")
    til = tiling if tiling is not None else compute_tiling(x_int)
    _check_tiling_structure(til, x_int)

    if len(xi) != len(til.free):
        raise InputError(f"xi has {len(xi)} coordinates but the tiling has {len(til.free)} free tiles")
    if any(not 0 <= v < q for v in xi):
        raise InputError("xi coordinates must satisfy 0 <= xi_k < q")

    a = tiling_matrix_of(til)
    if linalg.rank(a.entries, cols=a.cols) != a.cols:
        raise InputError("tiling matrix must have trivial kernel (the carrier must be a vertex)")
    if not _annihilates_mod(a, xi, q):
        raise InputError("tiling matrix does not annihilate xi mod q")

    transcript: list[dict] = []
    _record_check(transcript, "preconditions")
    if all(v == 0 for v in xi):
        _record_check(transcript, "xi-zero", detail="xi = 0 rebuilds the integral carrier itself")
        return ConstructionResult(x_int, spec_of(x_int), False, tuple(transcript))
    if all(gcd(v, q) != 1 for v in xi):
        raise InputError("no coordinate of xi is a unit mod q")

    values = _free_values(x_int, til)
    x = _with_free_values(x_int, til, [v + Fraction(e, q) for v, e in zip(values, xi)])

    bad = validate_pattern(x)
    _record_check(transcript, "perturbed-pattern-valid", not bad, TilingDriftError,
                  f"adding xi/q breaks {len(bad)} pattern constraints; tiling not preserved")
    new_til = compute_tiling(x)
    # both cover x's cells; free marks follow is_free_tile (computed here, checked for til)
    _record_check(transcript, "tiling-preserved",
                  set(map(frozenset, new_til.tiles)) == set(map(frozenset, til.tiles)),
                  TilingDriftError, "adding xi/q merged or split tiles; construction rejected")

    out_spec = spec_of(x)
    # x has the tiling just checked, so it is a vertex iff that tiling's matrix has full rank
    b = tiling_matrix_of(new_til)
    _record_check(transcript, "is-vertex", linalg.rank(b.entries, cols=b.cols) == b.cols,
                  message="constructed pattern is not a vertex")
    _record_check(transcript, "denominator-lcm", x.denominator_lcm() == q, q=q,
                  message=f"constructed pattern has denominator lcm {x.denominator_lcm()}, expected {q}")
    return ConstructionResult(x, out_spec, True, tuple(transcript))
