"""Pattern and spec basics: validation, sums, weights, membership, embedding."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gtdata import (
    BIJ,
    BIJ_SPEC,
    FAMILY2,
    FAMILY2_SPEC,
    WORKED,
    WORKED_SPEC,
    random_valid_pattern,
    triangles,
)
from gtpoly import (
    GTPattern,
    InputError,
    MembershipError,
    PolytopeSpec,
    ShapeError,
    embed,
    embed_spec,
    is_valid,
    membership,
    membership_report,
    parse_rational,
    rational_to_json,
    require_membership,
    row_sums,
    spec_of,
    validate_pattern,
    weight_of,
)


def zero_pattern(n):
    return GTPattern.from_bottom_rows([[0] * j for j in range(1, n + 1)])


class TestRationalParsing:
    def test_ints_strings_fractions(self):
        assert parse_rational(3) == 3
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7/3") == Fraction(-7, 3)
        assert parse_rational(Fraction(1, 4)) == Fraction(1, 4)

    def test_floats_rejected(self):
        with pytest.raises(ShapeError):
            parse_rational(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(ShapeError):
            parse_rational("1/2/3")

    def test_round_trip_rendering(self):
        assert rational_to_json(Fraction(3, 2)) == "3/2"
        assert rational_to_json(Fraction(4, 2)) == 2
        assert parse_rational(rational_to_json(Fraction(-5, 7))) == Fraction(-5, 7)


class TestShape:
    def test_bad_row_lengths(self):
        with pytest.raises(ShapeError):
            GTPattern.from_bottom_rows([[1], [2, 2, 2]])

    def test_json_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            GTPattern.from_json({"n": 3, "rows": [[1, 0], [1]]})

    def test_json_round_trip(self):
        again = GTPattern.from_json(WORKED.to_json())
        assert again == WORKED

    def test_entry_indexing(self):
        assert WORKED.entry(1, 1) == 4
        assert WORKED.entry(2, 4) == Fraction(9, 2)
        assert WORKED.entry(5, 5) == 0


class TestValidatePattern:
    def test_worked_bijection_pattern_valid(self):
        assert validate_pattern(BIJ) == []

    def test_zero_pattern_valid(self):
        for n in (1, 2, 5):
            assert validate_pattern(zero_pattern(n)) == []

    def test_interlacing_violation_reported_with_cells(self):
        bad = GTPattern.from_bottom_rows([[3], [Fraction(3, 2), Fraction(1, 2)]])
        report = validate_pattern(bad)
        assert len(report) == 1
        assert report[0]["kind"] == "interlacing"
        assert report[0]["cells"] == [[1, 1], [1, 2]]

    def test_all_violations_reported(self):
        # x12 < x11 < x22 breaks both interlacing sides at once
        bad = GTPattern.from_bottom_rows([[2], [1, 3]])
        report = validate_pattern(bad)
        assert [v["kind"] for v in report] == ["interlacing", "interlacing"]
        assert {tuple(map(tuple, v["cells"])) for v in report} == {
            ((1, 1), (1, 2)), ((1, 1), (2, 2))}

    def test_negative_entry_reported(self):
        bad = GTPattern.from_bottom_rows([[-1], [0, 1]])
        kinds = [v["kind"] for v in validate_pattern(bad)]
        assert "nonnegativity" in kinds and "interlacing" in kinds

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(triangles())
    def test_reports_exactly_the_failed_constraints(self, x):
        # row by row: every entry is nonnegative, and each entry of a lower
        # row lies between its upper-left and upper-right neighbors
        sides = [(above[i], below[i], above[i + 1])
                 for below, above in zip(x.rows, x.rows[1:]) for i in range(len(below))]
        failures = (sum(v < 0 for v in x.values())
                    + sum(not left >= v for left, v, _ in sides)
                    + sum(not v >= right for _, v, right in sides))
        report = validate_pattern(x)
        assert (report == []) == (failures == 0)
        assert len(report) == failures
        for record in report:
            if record["kind"] == "nonnegativity":
                assert x.entry(*record["cell"]) < 0
                continue
            a, b, c, d = map(int, re.fullmatch(
                r"x\[(\d+),(\d+)\] >= x\[(\d+),(\d+)\]", record["constraint"]).groups())
            # x[a,b] >= x[c,d] is an interlacing side: (a,b) sits upper-left
            # of (c,d), or (c,d) sits upper-right of (a,b); and it fails
            assert (c, d) in ((a, b - 1), (a + 1, b + 1))
            assert sorted(map(tuple, record["cells"])) == sorted([(a, b), (c, d)])
            assert x.entry(a, b) < x.entry(c, d)
        assert all(report.count(record) == 1 for record in report)


class TestRowSumsAndWeight:
    def test_bijection_example_sums(self):
        assert row_sums(BIJ) == (3, 4, 7, 8, 13)
        assert weight_of(BIJ) == (3, 1, 3, 1, 5)

    def test_worked_example_sums(self):
        assert row_sums(WORKED) == (4, 5, 9, 14, 16)
        assert weight_of(WORKED) == (4, 1, 4, 5, 2)

    def test_zero_pattern(self):
        assert row_sums(zero_pattern(4)) == (0, 0, 0, 0)
        assert weight_of(zero_pattern(4)) == (0, 0, 0, 0)

    def test_weight_sums_to_top_row_sum(self):
        for pattern in (BIJ, WORKED, FAMILY2):
            assert sum(weight_of(pattern)) == sum(pattern.top_row())


class TestMembership:
    def test_worked_example_member(self):
        assert membership(WORKED, WORKED_SPEC)

    def test_bijection_member(self):
        assert membership(BIJ, BIJ_SPEC)

    def test_wrong_weight_order(self):
        assert not membership(BIJ, PolytopeSpec((6, 3, 2, 2, 0), (5, 1, 3, 1, 3)))

    def test_dimension_mismatch_is_error(self):
        with pytest.raises(InputError):
            membership(BIJ, PolytopeSpec((1, 0), (1, 0)))

    def test_report_lists_reasons(self):
        report = membership_report(BIJ, PolytopeSpec((6, 3, 2, 2, 0), (5, 1, 3, 1, 3)))
        assert any(r["kind"] == "row-sum" for r in report)

    def test_require_membership_raises_with_report(self):
        with pytest.raises(MembershipError) as err:
            require_membership(BIJ, PolytopeSpec((6, 3, 2, 2, 0), (5, 1, 3, 1, 3)))
        assert err.value.report

    def test_self_spec(self):
        for pattern in (BIJ, FAMILY2):
            assert membership(pattern, spec_of(pattern))


class TestSpec:
    def test_lengths_must_match(self):
        with pytest.raises(ShapeError):
            PolytopeSpec((1, 2), (1,))

    def test_entries_must_be_ints(self):
        with pytest.raises(ShapeError):
            PolytopeSpec((1, Fraction(1, 2)), (1, 0))

    def test_empty_spec_rejected(self):
        with pytest.raises(ShapeError):
            PolytopeSpec((), ())

    def test_json_round_trip(self):
        spec = PolytopeSpec.from_json(WORKED_SPEC.to_json())
        assert spec == WORKED_SPEC

    def test_row_targets(self):
        assert FAMILY2_SPEC.row_targets() == (1, 2, 3, 4, 5)

    def test_dilate(self):
        assert FAMILY2_SPEC.dilate(3) == PolytopeSpec((6, 6, 3, 0, 0), (3, 3, 3, 3, 3))


class TestEmbed:
    def test_forced_small_case(self):
        x = GTPattern.from_bottom_rows([[1], [1, 0]])
        assert embed(x) == GTPattern.from_bottom_rows([[0], [1, 0], [1, 0, 0]])

    def test_zero_pattern(self):
        assert embed(zero_pattern(2)) == zero_pattern(3)

    def test_worked_example_membership_shifts(self):
        image = embed(WORKED)
        assert is_valid(image)
        assert membership(image, embed_spec(WORKED_SPEC))
        assert embed_spec(WORKED_SPEC) == PolytopeSpec((6, 5, 3, 2, 0, 0), (0, 4, 1, 4, 5, 2))

    def test_embedding_preserves_validity_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            x = random_valid_pattern(rng, rng.randrange(2, 6))
            assert is_valid(embed(x))

    def test_injective_on_samples(self):
        images = {embed(p) for p in (BIJ, WORKED, FAMILY2, zero_pattern(5))}
        assert len(images) == 4


def test_random_pattern_generator_yields_valid_patterns():
    rng = random.Random(5)
    for _ in range(50):
        assert is_valid(random_valid_pattern(rng, rng.randrange(1, 7)))


class TestRejectedInputs:
    def test_none_is_not_a_rational(self):
        with pytest.raises(ShapeError, match="cannot parse rational from None"):
            parse_rational(None)

    @pytest.mark.parametrize("cell", [(0, 1), (2, 1), (1, 6), (6, 5)])
    def test_entry_out_of_range(self, cell):
        with pytest.raises(ShapeError, match="out of range for n=5"):
            WORKED.entry(*cell)

    def test_spec_of_needs_an_integral_top_row_and_weight(self):
        x = GTPattern.from_bottom_rows([[0], [Fraction(1, 2), 0]])
        with pytest.raises(InputError, match="non-integral top row or weight"):
            spec_of(x)
