"""Tests of the benchmark's input generators and reference routines.

Run from the repository root with ``python3 -m pytest gtbench``.  The
membership check here is written out again on purpose, so a defect in
`reference.interlaces` cannot pass its own inputs.
"""

import random
from fractions import Fraction
from itertools import islice, permutations, product

import pytest

import generators as gen
import reference as ref
from workloads import WORKLOADS


def independent_member_check(rows, spec) -> bool:
    """Interlacing x[i, j+1] >= x[i, j] >= x[i+1, j+1], top row lambda and
    row sums mu_1 + ... + mu_j, checked cell by cell."""
    lam, mu = spec
    n = len(lam)
    if [len(r) for r in rows] != list(range(1, n + 1)):
        return False
    if any(v < 0 for r in rows for v in r):
        return False
    for j in range(1, n):
        for i in range(1, j + 1):
            if not rows[j][i - 1] >= rows[j - 1][i - 1] >= rows[j][i]:
                return False
    if [rows[-1][i] for i in range(n)] != list(lam):
        return False
    return all(sum(rows[j]) == sum(mu[:j + 1]) for j in range(n))


def is_fractional(rows) -> bool:
    return any(Fraction(v).denominator != 1 for r in rows for v in r)


@pytest.mark.parametrize("n", range(5, 14))
def test_fractional_members_have_integral_row_sums(n):
    rng = random.Random(n)
    for _ in range(5):
        rows = gen.fractional_member(rng, n, 2 * n)
        assert is_fractional(rows)
        assert independent_member_check(rows, ref.spec_of_rows(rows))


@pytest.mark.parametrize("n", range(5, 14))
def test_integral_and_vertex_members(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        rows = gen.integral_pattern(rng, n, 3 * n)
        assert not is_fractional(rows)
        assert independent_member_check(rows, ref.spec_of_rows(rows))
        vertex = gen.vertex_member(rng, n, n)
        assert independent_member_check(vertex, ref.spec_of_rows(vertex))
        assert ref.face_dimension(vertex) == 0


def test_nonintegral_vertices_and_their_images():
    rng = random.Random(7)
    vertex = gen.nonintegral_vertex(rng, 10, 20)
    for rows in [vertex] + [gen.transformed_vertex(rng, vertex) for _ in range(10)]:
        assert independent_member_check(rows, ref.spec_of_rows(rows))
        assert is_fractional(rows)
        assert ref.face_dimension(rows) == 0
        assert ref.certificate_exists(rows)
        assert ref.denominator_lcm(rows) == ref.denominator_lcm(vertex)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_specs(n):
    rng = random.Random(n)
    empty = 0
    for _ in range(50):
        spec, base = gen.nonempty_spec(rng, n, 4)
        assert independent_member_check(base, spec)
        assert ref.dominates(*spec)
        member = gen.mixed_member(rng, base)
        assert independent_member_check(member, spec)
        empty += not ref.dominates(*gen.uniform_spec(rng, n, 4))
    assert empty > 25


def test_counted_spec_and_partition():
    rng = random.Random(3)
    spec, count = gen.counted_spec(rng, 6, 10, 100, 1500)
    assert 100 <= count <= 1500 and count == ref.count_lattice_points(*spec)
    for size in range(5, 9):
        lam = gen.partition(rng, size, size)
        assert len(lam) == size and sum(lam) == size
        assert list(lam) == sorted(lam, reverse=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    make = WORKLOADS[name].requests
    first = [(r.kind, r.data) for r in islice(make(random.Random(11)), 40)]
    again = [(r.kind, r.data) for r in islice(make(random.Random(11)), 40)]
    other = [(r.kind, r.data) for r in islice(make(random.Random(12)), 40)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_members_are_members(name):
    for req in islice(WORKLOADS[name].requests(random.Random(5)), 40):
        for key in ("rows", "member"):
            if key in req.data:
                assert independent_member_check(req.data[key], req.data["spec"])


def brute_force_count(lam, mu):
    """Lattice points of GT(lam, mu) by trying every integer row."""
    n = len(lam)
    rows = [tuple(lam)]
    count = 0

    def descend(above, j):
        nonlocal count
        if j == 0:
            count += 1
            return
        for row in product(*(range(above[i + 1], above[i] + 1) for i in range(j))):
            if sum(row) == sum(mu[:j]):
                descend(row, j - 1)

    if sum(lam) == sum(mu):
        descend(rows[0], n - 1)
    return count


def test_reference_count_against_brute_force():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 5)
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        mu = tuple(rng.randint(0, 4) for _ in range(n))
        assert ref.count_lattice_points(lam, mu) == brute_force_count(lam, mu)


def test_reference_count_against_hook_lengths_and_twins():
    assert ref.count_lattice_points((2, 2, 1, 0, 0), (1,) * 5) == ref.hook_length_count((2, 2, 1)) == 5
    lam, mu = (4, 2, 1, 0), (2, 1, 3, 1)
    counts = {ref.count_lattice_points(lam, p) for p in permutations(mu)}
    assert len(counts) == 1


def test_reference_degree_and_determinant():
    # GT((1,0),(0,1)) is a point; GT((2,1,0),(1,1,1)) is a segment whose
    # m-th dilation holds m+1 lattice points
    assert ref.ehrhart_degree((1, 0), (0, 1), 2) == 0
    assert ref.ehrhart_degree((2, 1, 0), (1, 1, 1), 3) == 1
    assert ref.bareiss_determinant([[1, 1, 0], [2, 0, 0], [1, 0, 1]]) == -2
    assert ref.bareiss_determinant([[0, 1], [1, 0]]) == -1


def test_reference_kernel():
    rng = random.Random(4)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 7)
        matrix = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        basis = ref.kernel(matrix, cols)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)
        assert len(basis) == cols - fraction_rank(matrix, cols)
        assert fraction_rank(basis, cols) == len(basis)


def fraction_rank(matrix, cols) -> int:
    a = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank
