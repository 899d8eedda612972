"""Tilings of patterns and their tiling matrices.

The tiling of a pattern partitions its cells into tiles: the connected
components of the graph whose edges are the interlacing pairs
(`core.interlacing_pairs`) that hold with equality.  Each cell is thus
joined to equal upper-left, upper-right, lower-left and lower-right
neighbors only.  Two equal entries side by side in one row belong to
the same tile only when they are linked through neighboring rows.

A tile is *free* when it contains neither the bottom cell (1,1) nor any
top-row cell (i,n).  The tiling matrix counts, for each pattern row
j = 2..n-1, how many cells of each free tile lie in that row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GTPattern, interlacing_pairs, is_int, validate_pattern
from .errors import InputError, ShapeError


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

    Joins the two cells of every tight interlacing pair with union-find,
    then groups the cells by root in scan order, which lists the tiles
    in first-encounter order and each tile's cells by (j, i); this makes
    the free tile order (and hence the tiling matrix) deterministic.
    """
    report = validate_pattern(x)
    if report:
        raise InputError(f"cannot tile an invalid pattern ({len(report)} constraint violations)")
    parent = {cell: cell for cell in x.cells()}

    def root(cell):
        while parent[cell] != cell:
            parent[cell] = parent[parent[cell]]
            cell = parent[cell]
        return cell

    rows = x.rows
    for (a, b), (c, d) in interlacing_pairs(x.n):
        if rows[b - 1][a - 1] == rows[d - 1][c - 1]:
            parent[root((a, b))] = root((c, d))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for cell in parent:
        groups.setdefault(root(cell), []).append(cell)
    tiles = tuple(tuple(tile) for tile in groups.values())
    free = tuple(t for t, tile in enumerate(tiles) if is_free_tile(tile, x.n))
    return Tiling(x.n, tiles, free)


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
