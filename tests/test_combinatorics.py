"""Bijection with tableaux, lattice enumeration, Kostka numbers, Ehrhart counts."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtdata import (
    BIJ,
    BIJ_SPEC,
    FAMILY2_SPEC,
    enumerate_tableaux,
    hook_length_count,
    integral_patterns,
    small_specs,
)
from gtpoly import (
    GTPattern,
    InputError,
    LatticePoints,
    PolytopeSpec,
    ShapeError,
    Tableau,
    count_lattice_points,
    ehrhart_polynomial,
    ehrhart_values,
    enumerate_lattice_points,
    kostka,
    membership,
    pattern_to_tableau,
    polytope_dimension,
    spec_of,
    tableau_to_pattern,
    weight_of,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestTableauType:
    def test_semistandard_enforced(self):
        with pytest.raises(ShapeError):
            Tableau(((1, 2), (1, 3)))  # column 1 repeats
        with pytest.raises(ShapeError):
            Tableau(((2, 1),))  # row decreases
        with pytest.raises(ShapeError):
            Tableau(((1,), (2, 2)))  # shape grows

    def test_shape_and_content(self):
        t = Tableau(((1, 1, 2), (2, 3)))
        assert t.shape == (3, 2)
        assert t.content(4) == (2, 2, 1, 0)

    def test_json_round_trip(self):
        t = Tableau(((1, 1, 2), (2, 3)))
        assert Tableau.from_json(t.to_json()) == t


class TestBijection:
    def test_worked_example_pattern_to_tableau(self):
        t = pattern_to_tableau(BIJ)
        assert [list(r) for r in t.rows] == [[1, 1, 1, 3, 5, 5], [2, 3, 5], [3, 4], [5, 5]]
        assert t.shape == (6, 3, 2, 2)
        assert t.content(5) == (3, 1, 3, 1, 5)

    def test_worked_example_inverse(self):
        t = pattern_to_tableau(BIJ)
        assert tableau_to_pattern(t, 5) == BIJ

    def test_single_box(self):
        x = GTPattern.from_bottom_rows([[1], [1, 0]])
        t = pattern_to_tableau(x)
        assert [list(r) for r in t.rows] == [[1]]
        assert tableau_to_pattern(t, 2) == x

    def test_zero_pattern_gives_empty_tableau(self):
        x = GTPattern.from_bottom_rows([[0], [0, 0], [0, 0, 0]])
        t = pattern_to_tableau(x)
        assert t.rows == ()
        assert tableau_to_pattern(t, 3) == x

    def test_non_integral_rejected(self):
        bad = GTPattern.from_bottom_rows([[Fraction(1, 2)], [1, 0]])
        with pytest.raises(InputError):
            pattern_to_tableau(bad)

    def test_entries_above_n_rejected(self):
        with pytest.raises(InputError):
            tableau_to_pattern(Tableau(((1, 3),)), 2)

    def test_round_trip_on_every_lattice_point(self):
        for spec in (FAMILY2_SPEC, BIJ_SPEC, PolytopeSpec((3, 1, 0), (1, 2, 1))):
            for point in enumerate_lattice_points(spec):
                t = pattern_to_tableau(point)
                assert t.shape == tuple(int(v) for v in point.top_row() if v)
                assert t.content(spec.n) == tuple(int(v) for v in weight_of(point))
                assert tableau_to_pattern(t, spec.n) == point

    def test_reverse_round_trip_on_enumerated_tableaux(self):
        for lam, mu in (((2, 2, 1), (1, 1, 1, 1, 1)), ((3, 1), (2, 1, 1))):
            n = len(mu)
            shape = tuple(lam) + (0,) * (n - len(lam))
            for t in enumerate_tableaux(shape, mu):
                x = tableau_to_pattern(t, n)
                assert pattern_to_tableau(x) == t


class TestEnumerateLatticePoints:
    def test_family_polytope_has_five_points(self):
        points = enumerate_lattice_points(FAMILY2_SPEC)
        assert len(points) == 5
        assert len(set(points)) == 5
        assert all(p.is_integral() for p in points)

    def test_single_point_polytope(self):
        spec = PolytopeSpec((3, 1, 0), (3, 1, 0))
        points = enumerate_lattice_points(spec)
        assert len(points) == 1
        assert points[0].top_row() == (3, 1, 0)

    def test_infeasible_spec_is_empty(self):
        assert enumerate_lattice_points(PolytopeSpec((1, 1), (2, 0))) == []

    def test_sum_mismatch_is_empty(self):
        assert enumerate_lattice_points(PolytopeSpec((2, 0), (1, 0))) == []

    def test_canonical_order(self):
        points = enumerate_lattice_points(FAMILY2_SPEC)
        keys = [p.rows for p in points]
        assert keys == sorted(keys)

    def test_every_point_is_a_member(self):
        from gtpoly import membership

        for point in enumerate_lattice_points(BIJ_SPEC):
            assert membership(point, BIJ_SPEC)

    def test_bijection_polytope_count_and_contains_example(self):
        points = enumerate_lattice_points(BIJ_SPEC)
        assert BIJ in points


class TestLatticePoints:
    @SETTINGS
    @given(small_specs())
    def test_sorted_members_counted_by_tableaux(self, spec):
        lp = LatticePoints(spec)
        points = list(lp)
        assert all(a.rows < b.rows for a, b in zip(points, points[1:]))
        assert all(membership(p, spec) for p in points)
        assert len(lp) == len(points) == len(enumerate_tableaux(spec.lam, spec.mu))
        with pytest.raises(IndexError):
            lp[len(lp)]

    def test_negative_rank_rejected(self):
        with pytest.raises(IndexError):
            LatticePoints(FAMILY2_SPEC)[-1]


class TestCountLatticePoints:
    @SETTINGS
    @given(small_specs())
    def test_matches_enumeration_and_tableaux(self, spec):
        count = count_lattice_points(spec)
        assert count == len(enumerate_lattice_points(spec))
        assert count == len(enumerate_tableaux(spec.lam, spec.mu))

    @SETTINGS
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-1, 3), min_size=n, max_size=n)] * 2)))
    @example(([0, 1], [1, 0]))  # shapes that are partitions only after dropping zeros
    @example(([1, 0, 1], [1, 1, 0]))
    def test_matches_enumeration_on_arbitrary_vectors(self, vectors):
        # unsorted lambda, negative entries and sum mismatches included
        spec = PolytopeSpec(*map(tuple, vectors))
        count = count_lattice_points(spec)
        assert count == len(enumerate_lattice_points(spec))
        assert count == len(enumerate_tableaux(spec.lam, spec.mu))

    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3)
           .map(lambda parts: sorted(parts, reverse=True)))
    def test_standard_content_matches_hook_lengths(self, shape):
        size = sum(shape)
        lam = tuple(shape) + (0,) * (size - len(shape))
        assert count_lattice_points(PolytopeSpec(lam, (1,) * size)) == hook_length_count(shape)


class TestKostka:
    def test_frozen_value_cross_checked_by_hooks(self):
        assert hook_length_count((2, 2, 1)) == 5
        assert kostka((2, 2, 1, 0, 0), (1, 1, 1, 1, 1)) == 5

    def test_point_spec(self):
        assert kostka((4, 2, 0), (4, 2, 0)) == 1

    def test_sum_mismatch_is_zero(self):
        assert kostka((2, 1), (1, 1)) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            kostka((2, 1), (1, 1, 1))

    def test_standard_content_agrees_with_hooks(self):
        for shape in ((3, 1), (2, 2), (3, 2, 1), (2, 2, 2)):
            total = sum(shape)
            lam = tuple(shape) + (0,) * (total - len(shape))
            mu = (1,) * total
            assert kostka(lam, mu) == hook_length_count(shape)

    def test_agrees_with_independent_tableau_backtracker(self):
        cases = [
            ((2, 2, 1, 0, 0), (1, 1, 1, 1, 1)),
            ((6, 3, 2, 2, 0), (3, 1, 3, 1, 5)),
            ((3, 2, 0), (2, 2, 1)),
            ((4, 2, 1, 0), (2, 2, 2, 1)),
            ((3, 3, 1), (2, 2, 3)),
        ]
        for lam, mu in cases:
            assert kostka(lam, mu) == len(enumerate_tableaux(lam, mu))

    def test_permutation_symmetry_spot_check(self):
        # standard Kostka symmetry in the content; an external-knowledge
        # error detector, deliberately not part of the acceptance gate
        assert kostka((3, 2, 0), (2, 2, 1)) == kostka((3, 2, 0), (1, 2, 2))
        assert kostka((4, 2, 1, 0), (2, 2, 2, 1)) == kostka((4, 2, 1, 0), (1, 2, 2, 2))


class TestEhrhart:
    def test_point_polytope_values(self):
        spec = PolytopeSpec((1, 0), (1, 0))
        values = ehrhart_values(spec, 4)
        assert [(v.m, v.count) for v in values] == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_family_polytope_first_value(self):
        assert ehrhart_values(FAMILY2_SPEC, 1)[0].count == 5

    def test_point_polytope_constant_polynomial(self):
        spec = PolytopeSpec((4, 2, 0), (4, 2, 0))
        report = ehrhart_polynomial(spec)
        assert report.degree == 0
        assert report.coefficients == (Fraction(1),)
        assert report.all_match

    def test_small_polytope_with_hint(self):
        spec = PolytopeSpec((1, 1, 0), (1, 1, 0))
        report = ehrhart_polynomial(spec, degree_hint=1)
        assert report.samples[0].count == 1
        assert report.all_match

    def test_empty_polytope_rejected(self):
        with pytest.raises(InputError):
            ehrhart_polynomial(PolytopeSpec((1, 1), (2, 0)))

    def test_interpolation_is_exact_rational(self):
        report = ehrhart_polynomial(FAMILY2_SPEC)
        assert all(isinstance(c, Fraction) for c in report.coefficients)
        assert report.all_match
        assert len(report.checks) == 3

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(integral_patterns())
    def test_degree_from_counts_is_polytope_dimension(self, pattern):
        spec = spec_of(pattern)
        report = ehrhart_polynomial(spec)
        assert report.all_match
        assert report.degree == polytope_dimension(spec)


class TestTableauRejections:
    def test_empty_row(self):
        with pytest.raises(ShapeError, match="row 2 is empty"):
            Tableau(((1,), ()))

    def test_content_entry_above_n(self):
        with pytest.raises(InputError, match="tableau entry 3 exceeds n=2"):
            Tableau(((1, 3),)).content(2)
