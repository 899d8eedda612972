"""Tilings of patterns and their tiling matrices.

The tiling of a pattern partitions its cells into maximal groups of
equal entries that are connected through the four diagonal/vertical
steps (i+1,j+1), (i,j+1), (i-1,j-1), (i,j-1).  Steps within a row are
deliberately *not* allowed: two equal entries side by side in one row
belong to the same tile only when they are linked through neighboring
rows.

A tile is *free* when it contains neither the bottom cell (1,1) nor any
top-row cell (i,n).  The tiling matrix counts, for each pattern row
j = 2..n-1, how many cells of each free tile lie in that row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GTPattern, is_int, validate_pattern
from .errors import InputError, ShapeError

# allowed connectivity steps (delta_i, delta_j)
STEPS = ((1, 1), (0, 1), (-1, -1), (0, -1))


@dataclass(frozen=True)
class Tiling:
    """Partition of the cells of a size-n pattern into tiles.

    Tiles are listed in first-encounter order under the scan that reads
    entries left to right, bottom row to top row; ``free`` holds the
    indices of the free tiles in that same order.  Each tile's cells
    are sorted by (j, i).
    """

    n: int
    tiles: tuple[tuple[tuple[int, int], ...], ...]
    free: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tiles": [[list(cell) for cell in tile] for tile in self.tiles],
            "free": list(self.free),
        }

    @classmethod
    def from_json(cls, obj) -> "Tiling":
        if not isinstance(obj, dict) or "tiles" not in obj or "free" not in obj:
            raise ShapeError("tiling JSON must be an object with 'tiles' and 'free' keys")
        try:
            tiles = tuple(tuple(sorted((i, j) for i, j in tile)) for tile in obj["tiles"])
            free = tuple(obj["free"])
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"malformed tiling JSON: {exc}") from exc
        entries = [obj.get("n") or 0, *free, *(v for tile in tiles for cell in tile for v in cell)]
        if not all(map(is_int, entries)):
            raise ShapeError("tiling cells, free indices and n must be integers")
        n = obj.get("n") or max((j for tile in tiles for (_, j) in tile), default=0)
        return cls(n, tiles, free)


def is_free_tile(tile, n: int) -> bool:
    """Whether a tile of a size-n pattern holds neither (1,1) nor a top-row cell."""
    return (1, 1) not in tile and all(j != n for (_, j) in tile)


def compute_tiling(x: GTPattern) -> Tiling:
    """Tiling of a valid pattern.

    Flood-fills equal-valued cells along the four allowed steps.  Tile
    indices follow the first-encounter scan order, which makes the free
    tile order (and hence the tiling matrix) deterministic.
    """
    report = validate_pattern(x)
    if report:
        raise InputError(f"cannot tile an invalid pattern ({len(report)} constraint violations)")
    n = x.n
    tile_of: dict[tuple[int, int], int] = {}
    tiles: list[list[tuple[int, int]]] = []
    for cell in x.cells():
        if cell in tile_of:
            continue
        tid = len(tiles)
        tile_of[cell] = tid
        stack = [cell]
        members = []
        while stack:
            (a, b) = stack.pop()
            members.append((a, b))
            value = x.entry(a, b)
            for di, dj in STEPS:
                c, d = a + di, b + dj
                if 1 <= c <= d <= n and (c, d) not in tile_of and x.entry(c, d) == value:
                    tile_of[(c, d)] = tid
                    stack.append((c, d))
        tiles.append(sorted(members, key=lambda ij: (ij[1], ij[0])))
    free = tuple(t for t, tile in enumerate(tiles) if is_free_tile(tile, n))
    return Tiling(n, tuple(tuple(tile) for tile in tiles), free)


@dataclass(frozen=True)
class TilingMatrix:
    """Nonnegative integer matrix with one row per pattern row 2..n-1
    and one column per free tile, counting cells of that tile in that row."""

    n: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return max(self.n - 2, 0)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def tiling_matrix_of(tiling: Tiling) -> TilingMatrix:
    """Tiling matrix of an already-computed tiling."""
    n = tiling.n
    free = [tiling.tiles[t] for t in tiling.free]
    entries = tuple(
        tuple(sum(1 for (_, j2) in tile if j2 == j) for tile in free)
        for j in range(2, n)
    )
    return TilingMatrix(n, len(free), entries)


def tiling_matrix(x: GTPattern) -> TilingMatrix:
    """Tiling matrix of a valid pattern (shape (n-2) x #free tiles)."""
    return tiling_matrix_of(compute_tiling(x))
