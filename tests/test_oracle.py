"""Brute-force polyhedral oracle: tight-constraint ranks, vertex enumeration,
seeded sampling."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtdata import FAMILY2, FAMILY2_SPEC, WORKED, WORKED_SPEC, small_specs, triangles
from gtpoly import (
    GTPattern,
    InputError,
    MembershipError,
    PolytopeSpec,
    ScaleGuardError,
    constraint_system,
    enumerate_lattice_points,
    enumerate_vertices,
    face_dimension,
    face_dimension_oracle,
    is_valid,
    is_vertex,
    membership,
    polytope_dimension,
    sample_points,
    spec_of,
    validate_pattern,
)
from gtpoly.linalg import kernel_basis, primitive_integer, rank
from gtpoly.oracle import _dd_extreme_rays

POINT_SPEC = PolytopeSpec((3, 1, 0), (3, 1, 0))


def affine_rank(points):
    """Rank of the differences from the first point (-1 for no points): the
    dimension of their affine hull, by a route that uses no constraints."""
    if not points:
        return -1
    first = list(points[0].values())
    return rank([[a - b for a, b in zip(p.values(), first)] for p in points[1:]],
                cols=len(first))


class TestConstraintSystem:
    def test_counts(self):
        cs = constraint_system(FAMILY2_SPEC)
        n = 5
        assert len(cs.cells) == n * (n + 1) // 2
        assert len(cs.equalities) == 2 * n
        # one nonnegativity row per cell plus two interlacings per cell below the top
        assert len(cs.inequalities) == 15 + 2 * 10

    def test_member_satisfies_everything(self):
        cs = constraint_system(FAMILY2_SPEC)
        coords = list(FAMILY2.values())
        for row, rhs in cs.equalities:
            assert sum(c * v for c, v in zip(row, coords)) == rhs
        for row, rhs in cs.inequalities:
            assert sum(c * v for c, v in zip(row, coords)) >= rhs

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(triangles())
    def test_inequalities_hold_exactly_on_valid_patterns(self, x):
        try:
            spec = spec_of(x)
        except InputError:
            # no integral spec; the inequality rows do not depend on the spec
            spec = PolytopeSpec((0,) * x.n, (0,) * x.n)
        coords = list(x.values())
        holds = [sum(c * v for c, v in zip(row, coords)) >= rhs
                 for row, rhs in constraint_system(spec).inequalities]
        assert all(holds) == is_valid(x)
        assert holds.count(False) == len(validate_pattern(x))

    def test_pattern_round_trip(self):
        cs = constraint_system(WORKED_SPEC)
        assert cs.pattern(list(WORKED.values())) == WORKED


class TestFaceDimensionOracle:
    def test_worked_example(self):
        assert face_dimension_oracle(WORKED, WORKED_SPEC) == 2

    def test_point_polytope(self):
        point = GTPattern.from_bottom_rows([[3], [3, 1], [3, 1, 0]])
        assert face_dimension_oracle(point, POINT_SPEC) == 0

    def test_family_k2(self):
        assert face_dimension_oracle(FAMILY2, FAMILY2_SPEC) == 0

    def test_non_member_rejected(self):
        with pytest.raises(MembershipError):
            face_dimension_oracle(FAMILY2, PolytopeSpec((2, 2, 1, 0, 0), (1, 1, 1, 2, 0)))


class TestEnumerateVertices:
    def test_point_polytope_single_vertex(self):
        vertices = enumerate_vertices(POINT_SPEC)
        assert len(vertices) == 1
        assert vertices[0] == GTPattern.from_bottom_rows([[3], [3, 1], [3, 1, 0]])

    def test_family_vertex_appears(self):
        vertices = enumerate_vertices(FAMILY2_SPEC)
        assert FAMILY2 in vertices

    def test_empty_polytope(self):
        assert enumerate_vertices(PolytopeSpec((1, 1), (2, 0))) == []
        assert enumerate_vertices(PolytopeSpec((1, 2), (1, 2))) == []

    def test_vertices_are_members_in_canonical_order(self):
        vertices = enumerate_vertices(WORKED_SPEC)
        assert vertices == sorted(vertices, key=lambda p: p.rows)
        assert all(membership(v, WORKED_SPEC) for v in vertices)
        assert len(set(vertices)) == len(vertices)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_specs(max_n=4))
    @example(FAMILY2_SPEC)
    @example(PolytopeSpec((2, 1, 0), (1, 1, 1)))
    @example(PolytopeSpec((3, 2, 1, 0), (2, 2, 1, 1)))
    def test_matches_vertex_criterion_both_ways(self, spec):
        # every enumerated vertex certifies as one, every lattice point
        # that certifies as a vertex is in the list
        vertices = enumerate_vertices(spec)
        for v in vertices:
            assert is_vertex(v, spec)
        for point in enumerate_lattice_points(spec):
            assert (point in vertices) == is_vertex(point, spec)

    def test_scale_guard(self):
        big = PolytopeSpec((1,) * 7, (1,) * 7)
        with pytest.raises(ScaleGuardError):
            enumerate_vertices(big)

    def test_malformed_scale_guard_is_an_input_error(self, monkeypatch):
        monkeypatch.setenv("GTPOLY_SCALE_GUARD", "abc")
        with pytest.raises(InputError, match="GTPOLY_SCALE_GUARD must be an integer, got 'abc'"):
            enumerate_vertices(POINT_SPEC)

    def test_scale_guard_override(self, monkeypatch):
        monkeypatch.setenv("GTPOLY_SCALE_GUARD", "7")
        big = PolytopeSpec((7, 0, 0, 0, 0, 0, 0), (7, 0, 0, 0, 0, 0, 0))
        assert len(enumerate_vertices(big)) == 1

    def test_interval_polytope(self):
        # GT((2,0),(1,1)) pins x11 = 1: a single point even though n = 2
        vertices = enumerate_vertices(PolytopeSpec((2, 0), (1, 1)))
        assert vertices == [GTPattern.from_bottom_rows([[1], [2, 0]])]


class TestPolytopeDimension:
    def test_point(self):
        assert polytope_dimension(POINT_SPEC) == 0

    def test_empty(self):
        assert polytope_dimension(PolytopeSpec((1, 1), (2, 0))) == -1

    def test_segment(self):
        # GT((2,1,0),(1,1,1)) is the segment between its two lattice points
        assert polytope_dimension(PolytopeSpec((2, 1, 0), (1, 1, 1))) == 1

    def test_family_polytope(self):
        assert polytope_dimension(FAMILY2_SPEC) == 4

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_specs(max_n=4))
    @example(PolytopeSpec((1, 1), (2, 0)))
    @example(POINT_SPEC)
    def test_equals_affine_rank_of_the_vertices(self, spec):
        assert polytope_dimension(spec) == affine_rank(enumerate_vertices(spec))


class TestSamplePoints:
    def test_point_polytope_repeats_the_point(self):
        points = sample_points(POINT_SPEC, 5, seed=1)
        assert len(points) == 5
        assert all(p == points[0] for p in points)

    def test_all_samples_are_members(self):
        points = sample_points(FAMILY2_SPEC, 10, seed=1)
        assert len(points) == 10
        assert all(membership(p, FAMILY2_SPEC) for p in points)

    def test_deterministic_given_seed(self):
        a = sample_points(FAMILY2_SPEC, 8, seed=42)
        b = sample_points(FAMILY2_SPEC, 8, seed=42)
        c = sample_points(FAMILY2_SPEC, 8, seed=43)
        assert a == b
        assert a != c

    def test_empty_polytope_rejected(self):
        with pytest.raises(InputError):
            sample_points(PolytopeSpec((1, 1), (2, 0)), 3, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError, match="count must be nonnegative, got -3"):
            sample_points(FAMILY2_SPEC, -3, seed=0)
        assert sample_points(FAMILY2_SPEC, 0, seed=0) == []

    def test_many_lattice_points_are_not_built(self):
        # 748,626 lattice points: drawing six samples must rank into them,
        # not list them
        spec = PolytopeSpec((24, 18, 12, 6, 0, 0), (12, 12, 12, 12, 6, 6))
        points = sample_points(spec, 6, seed=3)
        assert all(membership(p, spec) for p in points)
        assert points[0].is_integral() and points[3].is_integral()
        assert all(p.denominator_lcm() <= 2 for p in points[1::3])

    def test_midpoints_have_positive_face_dimension(self):
        # midpoint of two distinct lattice points is never a vertex
        points = enumerate_lattice_points(PolytopeSpec((2, 1, 0), (1, 1, 1)))
        assert len(points) == 2
        mid = GTPattern(tuple(
            tuple((a + b) / 2 for a, b in zip(ra, rb))
            for ra, rb in zip(points[0].rows, points[1].rows)))
        spec = PolytopeSpec((2, 1, 0), (1, 1, 1))
        assert face_dimension(mid, spec) >= 1
        assert face_dimension_oracle(mid, spec) >= 1
        assert face_dimension(mid, spec) == face_dimension_oracle(mid, spec)


class TestAgreementOnSamples:
    def test_face_dimensions_agree_across_sampled_members(self):
        specs = [
            FAMILY2_SPEC,
            WORKED_SPEC,
            PolytopeSpec((2, 1, 0), (1, 1, 1)),
            PolytopeSpec((3, 2, 1, 0), (2, 2, 1, 1)),
        ]
        for spec in specs:
            for x in sample_points(spec, 6, seed=5):
                assert face_dimension(x, spec) == face_dimension_oracle(x, spec)


def naive_vertices(spec):
    """Basic-solutions vertex enumeration: solve every full-rank tight
    system built from the equalities plus a minimal set of inequalities,
    keep the feasible solutions.  Exponential, so tiny specs only; used
    purely to cross-check the double-description sweep."""
    from itertools import combinations
    from fractions import Fraction
    from gtpoly.linalg import rank as exact_rank, solve

    cs = constraint_system(spec)
    nvars = len(cs.cells)
    eq_rows = [list(r) for r, _ in cs.equalities]
    eq_rhs = [Fraction(v) for _, v in cs.equalities]
    need = nvars - exact_rank(eq_rows, cols=nvars)
    found = set()
    for subset in combinations(range(len(cs.inequalities)), need):
        rows = eq_rows + [list(cs.inequalities[i][0]) for i in subset]
        rhs = eq_rhs + [Fraction(cs.inequalities[i][1]) for i in subset]
        if exact_rank(rows, cols=nvars) != nvars:
            continue
        x = solve(rows, rhs, cols=nvars)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(row, x)) >= b for row, b in cs.inequalities):
            found.add(tuple(x))
    cs_patterns = [cs.pattern(list(coords)) for coords in found]
    return sorted(cs_patterns, key=lambda p: p.rows)


class TestDoubleDescriptionAgainstBasicSolutions:
    def test_all_small_n3_specs(self):
        from itertools import product as iproduct

        for lam in iproduct(range(3), repeat=3):
            for mu in iproduct(range(3), repeat=3):
                spec = PolytopeSpec(lam, mu)
                assert enumerate_vertices(spec) == naive_vertices(spec)

    def test_n4_specs(self):
        # naive enumeration is exponential, so a handful of n = 4 specs
        # is as far as this cross-check can reasonably go
        for lam, mu in (((3, 2, 1, 0), (2, 2, 1, 1)),
                        ((2, 2, 1, 0), (1, 2, 1, 1)),
                        ((3, 3, 0, 0), (2, 1, 2, 1))):
            spec = PolytopeSpec(lam, mu)
            dd = enumerate_vertices(spec)
            assert dd == naive_vertices(spec)
            assert len(dd) >= 2


@st.composite
def pointed_cones(draw):
    """Distinct primitive rows, shuffled: the unit rows, which make the cone
    pointed, plus up to 5 rows with entries in -3..3."""
    dim = draw(st.integers(1, 4))
    extra = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                          max_size=5))
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows = dict.fromkeys(primitive_integer(r, fix_sign=False) for r in units + extra if any(r))
    return draw(st.permutations(list(rows))), dim


def brute_force_extreme_rays(rows, dim):
    """A nonzero member of a pointed cone is extreme iff its tight rows have
    rank dim - 1: try both directions of the kernel of every such subset."""
    rays = set()
    for subset in combinations(rows, dim - 1):
        if rank(list(subset), cols=dim) != dim - 1:
            continue
        (z,) = kernel_basis(list(subset), cols=dim)
        for ray in (z, tuple(-v for v in z)):
            if all(sum(a * b for a, b in zip(row, ray)) >= 0 for row in rows):
                rays.add(ray)
    return rays


class TestDoubleDescriptionOnGeneratedCones:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pointed_cones())
    def test_matches_brute_force_extreme_rays(self, cone):
        rows, dim = cone
        rays = _dd_extreme_rays(rows, dim)
        assert len(set(rays)) == len(rays)
        assert set(rays) == brute_force_extreme_rays(rows, dim)
