"""Face dimensions, vertex certification, and both certificate directions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtdata import (
    FAMILY2,
    FAMILY2_SPEC,
    WORKED,
    WORKED_KERNEL_SPAN,
    WORKED_SPEC,
    integral_patterns,
)
from gtpoly import (
    GTPattern,
    InputError,
    MembershipError,
    PolytopeSpec,
    ShapeError,
    Tiling,
    TilingDriftError,
    compute_tiling,
    construct_nonintegral_vertex,
    enumerate_lattice_points,
    enumerate_vertices,
    face_basis,
    face_dimension,
    face_dimension_oracle,
    is_vertex,
    membership,
    nonintegrality_certificate,
    spec_of,
    truncate_integral,
)
from gtpoly.linalg import rank

SINGLE_POINT_SPEC = PolytopeSpec((3, 1, 0), (3, 1, 0))
SINGLE_POINT = GTPattern.from_bottom_rows([[3], [3, 1], [3, 1, 0]])

# midpoint of the two lattice points of GT((2,1,0),(1,1,1))
MIDPOINT = GTPattern.from_bottom_rows([[1], [Fraction(3, 2), Fraction(1, 2)], [2, 1, 0]])
MIDPOINT_SPEC = PolytopeSpec((2, 1, 0), (1, 1, 1))


class TestFaceDimension:
    def test_worked_example_is_on_a_2_face(self):
        assert face_dimension(WORKED, WORKED_SPEC) == 2

    def test_single_point_polytope(self):
        assert face_dimension(SINGLE_POINT, SINGLE_POINT_SPEC) == 0

    def test_family_k2_is_a_vertex(self):
        assert face_dimension(FAMILY2, FAMILY2_SPEC) == 0

    def test_midpoint_is_interior_to_an_edge(self):
        assert face_dimension(MIDPOINT, MIDPOINT_SPEC) == 1

    def test_non_member_rejected_with_report(self):
        with pytest.raises(MembershipError) as err:
            face_dimension(WORKED, PolytopeSpec((6, 5, 3, 2, 0), (4, 1, 4, 5, 3)))
        assert err.value.report


class TestIsVertex:
    def test_examples(self):
        assert is_vertex(FAMILY2, FAMILY2_SPEC)
        assert not is_vertex(WORKED, WORKED_SPEC)
        assert is_vertex(SINGLE_POINT, SINGLE_POINT_SPEC)


class TestFaceBasis:
    def test_worked_example_directions_match(self):
        cert = face_basis(WORKED, WORKED_SPEC)
        assert cert.face_dimension == 2
        got = [list(v) for v in cert.kernel_basis]
        assert rank(got + [list(v) for v in WORKED_KERNEL_SPAN]) == 2

        y1 = direction_array(5, {(1, 3): -1, (2, 3): 1})
        y2 = direction_array(5, {(1, 2): 1, (2, 2): -1, (3, 3): -1, (4, 4): -1,
                                 (1, 3): 1, (2, 4): 1})
        for direction in cert.face_directions:
            assert is_proportional(direction, y1) or is_proportional(direction, y2)
        assert not is_proportional(cert.face_directions[0], cert.face_directions[1])

    def test_worked_example_transcript(self):
        cert = face_basis(WORKED, WORKED_SPEC)
        assert cert.transcript == (
            {"check": "kernel-dimension", "pass": True, "dimension": 2},
            {"check": "membership x +/- scale*y[1]", "pass": True},
            {"check": "membership x +/- scale*y[2]", "pass": True},
        )

    def test_directions_have_zero_row_sums_and_fixed_cells(self):
        cert = face_basis(WORKED, WORKED_SPEC)
        for rows in cert.face_directions:
            assert all(sum(row) == 0 for row in rows)
            assert rows[0][0] == 0
            assert all(v == 0 for v in rows[-1])

    def test_shifted_patterns_are_members(self):
        cert = face_basis(WORKED, WORKED_SPEC)
        assert cert.scale == Fraction(1, 6)
        for rows in cert.face_directions:
            for sign in (1, -1):
                shifted = GTPattern(tuple(
                    tuple(v + sign * cert.scale * d for v, d in zip(row, drow))
                    for row, drow in zip(WORKED.rows, rows)))
                assert membership(shifted, WORKED_SPEC)

    def test_vertex_gives_empty_basis(self):
        cert = face_basis(FAMILY2, FAMILY2_SPEC)
        assert cert.face_dimension == 0
        assert cert.face_directions == ()
        assert cert.scale == 1

    def test_midpoint_has_usable_direction(self):
        cert = face_basis(MIDPOINT, MIDPOINT_SPEC)
        assert cert.face_dimension == 1
        rows = cert.face_directions[0]
        for sign in (1, -1):
            shifted = GTPattern(tuple(
                tuple(v + sign * cert.scale * d for v, d in zip(row, drow))
                for row, drow in zip(MIDPOINT.rows, rows)))
            assert membership(shifted, MIDPOINT_SPEC)


def direction_array(n, entries):
    return tuple(
        tuple(Fraction(entries.get((i, j), 0)) for i in range(1, j + 1))
        for j in range(1, n + 1)
    )


def is_proportional(a, b):
    flat_a = [v for row in a for v in row]
    flat_b = [v for row in b for v in row]
    ratio = None
    for va, vb in zip(flat_a, flat_b):
        if (va == 0) != (vb == 0):
            return False
        if vb != 0:
            r = va / vb
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


class TestNonIntegralityCertificate:
    def test_family_k2(self):
        cert = nonintegrality_certificate(FAMILY2, FAMILY2_SPEC)
        assert cert is not None
        assert cert.q == 2
        assert cert.xi == (1, 1, 1)

    def test_integral_vertex_returns_none(self):
        assert nonintegrality_certificate(SINGLE_POINT, SINGLE_POINT_SPEC) is None

    def test_non_vertex_rejected(self):
        with pytest.raises(InputError):
            nonintegrality_certificate(WORKED, WORKED_SPEC)

    def test_family_k3_unit_coordinate(self):
        from gtpoly import counterexample
        from math import gcd

        inst = counterexample(3)
        cert = nonintegrality_certificate(inst.pattern, inst.spec)
        assert cert.q == 3
        assert gcd(cert.xi[cert.unit_index], 3) == 1


class TestTruncateIntegral:
    def test_family_k2_truncation(self):
        expected = GTPattern.from_bottom_rows(
            [[1], [1, 0], [1, 1, 0], [2, 1, 0, 0], [2, 2, 1, 0, 0]])
        assert truncate_integral(FAMILY2) == expected

    def test_integral_pattern_unchanged(self):
        assert truncate_integral(SINGLE_POINT) == SINGLE_POINT


class TestConstructNonIntegralVertex:
    def test_certificate_roundtrip_k2(self):
        til = compute_tiling(FAMILY2)
        cert = nonintegrality_certificate(FAMILY2, FAMILY2_SPEC)
        carrier = truncate_integral(FAMILY2, til)
        result = construct_nonintegral_vertex(carrier, cert.xi, cert.q, til)
        assert result.non_integral
        assert result.pattern == FAMILY2
        assert result.spec == FAMILY2_SPEC

    def test_roundtrip_transcript(self):
        til = compute_tiling(FAMILY2)
        carrier = truncate_integral(FAMILY2, til)
        result = construct_nonintegral_vertex(carrier, (1, 1, 1), 2, til)
        assert result.transcript == (
            {"check": "preconditions", "pass": True},
            {"check": "perturbed-pattern-valid", "pass": True},
            {"check": "tiling-preserved", "pass": True},
            {"check": "is-vertex", "pass": True},
            {"check": "denominator-lcm", "pass": True, "q": 2},
        )

    def test_zero_xi_transcript(self):
        til = compute_tiling(FAMILY2)
        carrier = truncate_integral(FAMILY2, til)
        result = construct_nonintegral_vertex(carrier, (0, 0, 0), 2, til)
        assert result.transcript == (
            {"check": "preconditions", "pass": True},
            {"check": "xi-zero", "pass": True,
             "detail": "xi = 0 rebuilds the integral carrier itself"},
        )

    def test_scaled_carrier_needs_no_explicit_tiling(self):
        # doubling the family pattern gives an integral pattern with the
        # same tiling, so the default tiling already matches
        carrier = GTPattern(tuple(tuple(2 * v for v in row) for row in FAMILY2.rows))
        result = construct_nonintegral_vertex(carrier, (1, 1, 1), 2)
        assert result.non_integral
        assert result.pattern.denominator_lcm() == 2
        assert is_vertex(result.pattern, result.spec)
        # top row doubles; the weight picks up the half-cell contributions
        assert result.spec == PolytopeSpec((4, 4, 2, 0, 0), (2, 3, 2, 2, 1))

    @pytest.mark.parametrize("xi, q", [((1.9, 1, 1), 2), ((True, 1, 1), 2), ([1, 1, 1], 2.0),
                                       (5, 2), ("111", 2)])
    def test_non_integer_xi_or_q_rejected(self, xi, q):
        # (1, 1, 1) with q = 2 builds a vertex from this carrier (see above):
        # nothing may be coerced into it
        carrier = GTPattern(tuple(tuple(2 * v for v in row) for row in FAMILY2.rows))
        with pytest.raises(ShapeError):
            construct_nonintegral_vertex(carrier, xi, q)

    def test_zero_xi_returns_carrier_flagged_integral(self):
        til = compute_tiling(FAMILY2)
        carrier = truncate_integral(FAMILY2, til)
        result = construct_nonintegral_vertex(carrier, (0, 0, 0), 2, til)
        assert not result.non_integral
        assert result.pattern == carrier
        assert result.spec == spec_of(carrier)

    def test_value_collision_fails_loudly(self):
        # carrier constant 1 on both the big free tile and the adjacent
        # singleton (2,2); adding 1/2 to each pushes both past the fixed
        # bottom entry, so the construction must refuse
        til = compute_tiling(FAMILY2)
        carrier = GTPattern.from_bottom_rows(
            [[1], [1, 1], [1, 1, 0], [2, 1, 0, 0], [2, 2, 1, 0, 0]])
        with pytest.raises(TilingDriftError):
            construct_nonintegral_vertex(carrier, (1, 1, 1), 2, til)

    def test_floored_carrier_without_tiling_is_rejected(self):
        # flooring merges tiles, so the carrier's own tiling has no free
        # tiles left and xi no longer indexes anything
        carrier = truncate_integral(FAMILY2)
        with pytest.raises(InputError):
            construct_nonintegral_vertex(carrier, (1, 1, 1), 2)

    def test_non_integral_carrier_rejected(self):
        with pytest.raises(InputError):
            construct_nonintegral_vertex(FAMILY2, (1, 1, 1), 2)

    def test_xi_out_of_range_rejected(self):
        til = compute_tiling(FAMILY2)
        carrier = truncate_integral(FAMILY2, til)
        with pytest.raises(InputError):
            construct_nonintegral_vertex(carrier, (1, 2, 1), 2, til)

    def test_nontrivial_kernel_rejected(self):
        # two free singleton tiles in the same row make dependent columns
        carrier = GTPattern.from_bottom_rows([[2], [3, 1], [4, 2, 0], [4, 2, 0, 0]])
        til = compute_tiling(carrier)
        assert len(til.free) == 2
        with pytest.raises(InputError):
            construct_nonintegral_vertex(carrier, (1, 1), 2, til)

    def test_xi_not_in_kernel_rejected(self):
        til = compute_tiling(FAMILY2)
        carrier = truncate_integral(FAMILY2, til)
        with pytest.raises(InputError):
            construct_nonintegral_vertex(carrier, (1, 0, 1), 2, til)

    @pytest.mark.parametrize("free", [(1, 99), (1, -1), (1, 1)])
    def test_free_entries_must_be_distinct_tile_indices(self, free):
        # carrier with one free tile (index 1); 99 is out of range, -1
        # would read as the last tile, which is fixed, and 1 repeats
        carrier = GTPattern.from_rows(
            [[3, 3, 1, 0, 0], [3, 2, 1, 0], [2, 2, 0], [2, 1], [1]])
        til = compute_tiling(carrier)
        assert til.free == (1,)
        with pytest.raises(InputError, match="distinct tile indices"):
            construct_nonintegral_vertex(carrier, (1, 1), 2, Tiling(til.n, til.tiles, free))


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(integral_patterns(min_n=3), st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 4)), min_size=2, max_size=4))
    def test_face_dimension_matches_oracle_on_generated_members(self, pattern, picks):
        # a positive combination of lattice points and vertices of one
        # polytope is a member, on a face of any dimension
        spec = spec_of(pattern)
        points = enumerate_lattice_points(spec) + enumerate_vertices(spec)
        total = sum(w for _, w in picks)
        rows = [[Fraction(0)] * len(row) for row in pattern.rows]
        for index, w in picks:
            for row, prow in zip(rows, points[index % len(points)].rows):
                row[:] = [v + Fraction(w, total) * p for v, p in zip(row, prow)]
        x = GTPattern.from_bottom_rows(rows)
        assert face_dimension(x, spec) == face_dimension_oracle(x, spec)

    def test_face_dimension_matches_oracle_on_named_points(self):
        cases = [
            (WORKED, WORKED_SPEC),
            (FAMILY2, FAMILY2_SPEC),
            (MIDPOINT, MIDPOINT_SPEC),
            (SINGLE_POINT, SINGLE_POINT_SPEC),
        ]
        for x, spec in cases:
            assert face_dimension(x, spec) == face_dimension_oracle(x, spec)


class TestSuppliedTilings:
    """`construct_nonintegral_vertex` and `truncate_integral` share one check
    of a supplied tiling; each rejection below exits 2 on the CLI."""

    TIL = compute_tiling(FAMILY2)
    CARRIER = truncate_integral(FAMILY2, TIL)

    def tiling_with(self, tiles=None, free=None, n=None):
        til = self.TIL
        return Tiling(n or til.n, til.tiles if tiles is None else tiles,
                      til.free if free is None else free)

    def test_overlapping_tiles_rejected(self):
        tiles = list(self.TIL.tiles)
        tiles[2] = tiles[2] + (tiles[1][0],)
        with pytest.raises(InputError, match="does not partition"):
            construct_nonintegral_vertex(self.CARRIER, (1, 1, 1), 2,
                                         self.tiling_with(tiles=tuple(tiles)))

    def test_missing_cell_rejected(self):
        tiles = list(self.TIL.tiles)
        tiles[1] = tiles[1][:-1]
        with pytest.raises(InputError, match="does not cover every pattern cell"):
            construct_nonintegral_vertex(self.CARRIER, (1, 1, 1), 2,
                                         self.tiling_with(tiles=tuple(tiles)))

    def test_wrong_free_mark_rejected(self):
        with pytest.raises(InputError, match="tile 5 has the wrong free/fixed status"):
            construct_nonintegral_vertex(self.CARRIER, (1, 1), 2, self.tiling_with(free=(1, 2)))

    def test_carrier_not_constant_on_a_tile_rejected(self):
        # cell (2,3) drops from 1 to 0: still a valid pattern, but tile 1
        # of the family tiling now holds two values
        carrier = GTPattern.from_bottom_rows(
            [[1], [1, 0], [1, 0, 0], [2, 1, 0, 0], [2, 2, 1, 0, 0]])
        with pytest.raises(InputError, match="not constant on tile 1"):
            construct_nonintegral_vertex(carrier, (1, 1, 1), 2, self.tiling_with())

    def test_wrong_n_rejected(self):
        with pytest.raises(InputError, match="tiling has n=6 but pattern has n=5"):
            construct_nonintegral_vertex(self.CARRIER, (1, 1, 1), 2, self.tiling_with(n=6))

    def test_modulus_one_rejected(self):
        with pytest.raises(InputError, match="modulus must be at least 2, got 1"):
            construct_nonintegral_vertex(self.CARRIER, (0, 0, 0), 1, self.tiling_with())

    def test_invalid_carrier_rejected(self):
        carrier = GTPattern.from_bottom_rows(
            [[3], [1, 0], [1, 1, 0], [2, 1, 0, 0], [2, 2, 1, 0, 0]])
        with pytest.raises(InputError, match="carrier pattern is invalid"):
            construct_nonintegral_vertex(carrier, (1, 1, 1), 2, self.tiling_with())

    def test_xi_without_a_unit_coordinate_rejected(self):
        # 2 * (1, 1, 1) is annihilated mod 4, but no coordinate is a unit mod 4
        with pytest.raises(InputError, match="no coordinate of xi is a unit mod q"):
            construct_nonintegral_vertex(self.CARRIER, (2, 2, 2), 4, self.tiling_with())

    def test_split_tile_is_tiling_drift(self):
        # free tile [(3,3), (4,5)] is not connected, so adding 1/2 to it
        # leaves two tiles where the supplied tiling has one
        carrier = GTPattern.from_rows(
            [[10, 10, 8, 8, 5, 0], [10, 10, 8, 6, 4], [10, 9, 8, 4], [9, 8, 6], [8, 8], [8]])
        tiles = ([[1, 1], [1, 2], [2, 2], [2, 3], [3, 4], [3, 5], [3, 6], [4, 6]],
                 [[1, 3], [2, 4]], [[3, 3], [4, 5]], [[1, 4], [1, 5], [2, 5], [1, 6], [2, 6]],
                 [[4, 4], [5, 5]], [[5, 6]], [[6, 6]])
        til = Tiling.from_json({"tiles": tiles, "free": [1, 2, 4]})
        with pytest.raises(TilingDriftError, match="merged or split tiles"):
            construct_nonintegral_vertex(carrier, (1, 1, 1), 2, til)

    def test_truncate_rejects_an_out_of_range_free_index(self):
        with pytest.raises(InputError, match="distinct tile indices"):
            truncate_integral(FAMILY2, self.tiling_with(free=(1, 2, 99)))

    def test_truncate_rejects_a_tiling_of_the_wrong_size(self):
        with pytest.raises(InputError, match="tiling has n=6 but pattern has n=5"):
            truncate_integral(FAMILY2, self.tiling_with(n=6))

    def test_truncate_rejects_a_non_integral_fixed_cell(self):
        x = GTPattern.from_bottom_rows([[Fraction(1, 2)], [1, 0], [1, 1, 0]])
        with pytest.raises(InputError, match=r"cell \(1,1\) is outside every free tile"):
            truncate_integral(x)
