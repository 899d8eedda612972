"""Tilings: partition structure, free tiles, scan order, tiling matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gtdata import (
    FAMILY2,
    FAMILY2_MATRIX,
    WORKED,
    WORKED_FREE_TILES,
    WORKED_MATRIX,
    random_valid_pattern,
    triangles,
)
from gtpoly import (
    GTPattern,
    InputError,
    ShapeError,
    Tiling,
    compute_tiling,
    tiling_matrix,
    tiling_matrix_of,
)


# the steps from a cell to its upper-right, upper-left, lower-left and
# lower-right neighbors (delta_i, delta_j)
NEIGHBOR_STEPS = ((1, 1), (0, 1), (-1, -1), (0, -1))


def constant_pattern(n, value=3):
    return GTPattern.from_bottom_rows([[value] * j for j in range(1, n + 1)])


def tile_of(til):
    """Map from cell (i, j) to the index of its tile."""
    return {cell: t for t, tile in enumerate(til.tiles) for cell in tile}


class TestComputeTiling:
    def test_worked_example_free_tiles(self):
        til = compute_tiling(WORKED)
        free = [set(til.tiles[t]) for t in til.free]
        assert free == WORKED_FREE_TILES

    def test_constant_pattern_single_tile(self):
        til = compute_tiling(constant_pattern(5))
        assert len(til.tiles) == 1
        assert til.free == ()

    def test_family_k2_has_three_free_tiles(self):
        til = compute_tiling(FAMILY2)
        assert len(til.free) == 3
        free = [set(til.tiles[t]) for t in til.free]
        assert free == [
            {(1, 2), (1, 3), (2, 3), (2, 4)},
            {(2, 2)},
            {(3, 4)},
        ]

    def test_invalid_pattern_rejected(self):
        bad = GTPattern.from_bottom_rows([[3], [1, 0]])
        with pytest.raises(InputError):
            compute_tiling(bad)

    def test_n1_and_n2(self):
        assert compute_tiling(constant_pattern(1)).free == ()
        til = compute_tiling(GTPattern.from_bottom_rows([[1], [2, 0]]))
        assert til.free == ()  # every cell is in the bottom or top row

    def test_json_round_trip(self):
        til = compute_tiling(WORKED)
        again = Tiling.from_json(til.to_json())
        assert again == til

    @pytest.mark.parametrize("path, value", [
        (("tiles", 0, 0, 1), True), (("free", 0), 1.0), (("n",), "5")],
        ids=["bool-cell", "float-free", "string-n"])
    def test_json_rejects_non_integers(self, path, value):
        obj = compute_tiling(WORKED).to_json()
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ShapeError):
            Tiling.from_json(obj)


class TestConnectivityIsLiteral:
    """Connectivity uses exactly the four diagonal/vertical steps."""

    def test_same_row_equals_linked_through_other_rows(self):
        # x13 = x23 = 2 are side by side; they share a tile because both
        # touch the forced cell (1,2) below, not because of a row step
        x = GTPattern.from_bottom_rows([[1], [2, 1], [2, 2, 0]])
        til = compute_tiling(x)
        owner = tile_of(til)
        assert owner[(1, 3)] == owner[(2, 3)] == owner[(1, 2)]
        tile = set(til.tiles[owner[(1, 3)]])
        assert tile == {(1, 2), (1, 3), (2, 3)}

    def test_equal_values_without_a_path_stay_separate(self):
        # (2,2) and (3,4) in the family pattern both hold 1/2 but no chain
        # of allowed steps through equal entries joins them
        til = compute_tiling(FAMILY2)
        assert FAMILY2.entry(2, 2) == FAMILY2.entry(3, 4) == Fraction(1, 2)
        owner = tile_of(til)
        assert owner[(2, 2)] != owner[(3, 4)]

    def test_diagonal_chain_in_worked_example(self):
        # (2,2), (3,3), (4,4) all hold 1/2 and chain through up-right steps
        til = compute_tiling(WORKED)
        owner = tile_of(til)
        assert owner[(2, 2)] == owner[(3, 3)] == owner[(4, 4)]


class TestTilingInvariants:
    def assert_invariants(self, x):
        til = compute_tiling(x)
        n = x.n
        # partition of the full cell set
        seen = [cell for tile in til.tiles for cell in tile]
        assert sorted(seen) == sorted(x.cells())
        assert len(seen) == len(set(seen))
        for tile in til.tiles:
            values = {x.entry(i, j) for (i, j) in tile}
            assert len(values) == 1
        # maximality: adjacent equal cells always share a tile
        owner = tile_of(til)
        for (i, j) in x.cells():
            for di, dj in NEIGHBOR_STEPS:
                c, d = i + di, j + dj
                if 1 <= c <= d <= n and x.entry(c, d) == x.entry(i, j):
                    assert owner[(c, d)] == owner[(i, j)]
        # minimality: neighbor steps inside a tile (equal-valued, as its
        # values are constant) reach every cell of it from its first cell
        for tile in til.tiles:
            reached, stack = {tile[0]}, [tile[0]]
            while stack:
                i, j = stack.pop()
                for di, dj in NEIGHBOR_STEPS:
                    step = (i + di, j + dj)
                    if step in tile and step not in reached:
                        reached.add(step)
                        stack.append(step)
            assert reached == set(tile)
        # free tiles avoid the bottom cell and the top row
        for t, tile in enumerate(til.tiles):
            is_free = (1, 1) not in tile and all(j != n for (_, j) in tile)
            assert is_free == (t in til.free)
        return til

    def test_randomized(self):
        rng = random.Random(99)
        for _ in range(60):
            self.assert_invariants(random_valid_pattern(rng, rng.randrange(1, 7)))

    def test_named_patterns(self):
        for x in (WORKED, FAMILY2, constant_pattern(4)):
            self.assert_invariants(x)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(triangles(noisy=False))
    def test_generated(self, x):
        self.assert_invariants(x)


class TestTilingMatrix:
    def test_worked_example(self):
        m = tiling_matrix(WORKED)
        assert m.to_json() == WORKED_MATRIX
        assert (m.rows, m.cols) == (3, 5)

    def test_family_k2(self):
        assert tiling_matrix(FAMILY2).to_json() == FAMILY2_MATRIX

    def test_constant_pattern_empty_matrix(self):
        m = tiling_matrix(constant_pattern(5))
        assert (m.rows, m.cols) == (3, 0)
        assert m.to_json() == [[], [], []]

    def test_n2_matrix_is_empty(self):
        m = tiling_matrix(GTPattern.from_bottom_rows([[1], [2, 0]]))
        assert (m.rows, m.cols) == (0, 0)

    def test_matches_tiling(self):
        til = compute_tiling(WORKED)
        assert tiling_matrix_of(til) == tiling_matrix(WORKED)

    def assert_matrix_invariants(self, x):
        til = compute_tiling(x)
        m = tiling_matrix_of(til)
        n = x.n
        free = [til.tiles[t] for t in til.free]
        # column sums equal tile sizes (free tiles never touch rows 1 or n)
        for k, tile in enumerate(free):
            assert sum(row[k] for row in m.entries) == len(tile)
            column = [row[k] for row in m.entries]
            nonzero = [c for c in column if c]
            if nonzero:
                assert nonzero[0] == 1 and nonzero[-1] == 1
        # row sums bounded by the row length
        for j, row in enumerate(m.entries, start=2):
            assert sum(row) <= j

    def test_matrix_invariants_randomized(self):
        rng = random.Random(123)
        for _ in range(60):
            self.assert_matrix_invariants(random_valid_pattern(rng, rng.randrange(1, 7)))

    def test_matrix_invariants_named(self):
        for x in (WORKED, FAMILY2):
            self.assert_matrix_invariants(x)
