"""Exact linear algebra: rank, kernels, determinants, solutions."""

import random
from fractions import Fraction

import pytest

from gtdata import FAMILY2_MATRIX, GOLDEN_N6_MATRIX, WORKED_MATRIX
from gtpoly import InputError
from gtpoly.linalg import (
    determinant,
    kernel_basis,
    primitive_integer,
    rank,
    solve,
)


def random_int_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def matvec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


class TestRank:
    def test_worked_matrix(self):
        assert rank(WORKED_MATRIX) == 3

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_empty_shapes(self):
        assert rank([], cols=0) == 0
        assert rank([], cols=5) == 0
        assert rank([[], []], cols=0) == 0


class TestKernelBasis:
    def test_worked_matrix_kernel_span(self):
        basis = kernel_basis(WORKED_MATRIX)
        assert len(basis) == 2
        expected = [(0, 0, -1, 1, 0), (1, -1, 1, 0, 1)]
        # same span: appending either set to the other does not raise the rank
        assert rank([list(v) for v in basis] + [list(v) for v in expected]) == 2
        for v in basis:
            assert all(x == 0 for x in matvec(WORKED_MATRIX, v))

    def test_identity_trivial(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_golden_size6_matrix_trivial_kernel(self):
        assert kernel_basis(GOLDEN_N6_MATRIX) == []
        assert rank(GOLDEN_N6_MATRIX) == 3

    def test_zero_row_matrix_kernel_is_everything(self):
        basis = kernel_basis([], cols=3)
        assert len(basis) == 3

    def test_primitive_and_sign_normalized(self):
        basis = kernel_basis([[Fraction(1, 2), Fraction(1, 3), 0]])
        for v in basis:
            assert all(isinstance(x, int) for x in v)
            lead = next(x for x in v if x != 0)
            assert lead > 0

    def test_rank_nullity_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            r, c = rng.randint(0, 5), rng.randint(1, 5)
            m = random_int_matrix(rng, r, c)
            basis = kernel_basis(m, cols=c)
            assert rank(m, cols=c) + len(basis) == c
            for v in basis:
                assert all(x == 0 for x in matvec(m, v))
            if basis:
                assert rank([list(v) for v in basis]) == len(basis)


class TestDeterminant:
    def test_family_matrix(self):
        assert abs(determinant(FAMILY2_MATRIX)) == 2

    def test_identity(self):
        assert determinant([[1, 0], [0, 1]]) == 1

    def test_repeated_row(self):
        assert determinant([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_integer_matrix_has_integer_determinant(self):
        rng = random.Random(13)
        for _ in range(30):
            size = rng.randint(0, 5)
            m = random_int_matrix(rng, size, size)
            assert determinant(m).denominator == 1

    def test_empty_matrix(self):
        assert determinant([]) == 1


class TestSolve:
    def test_unique_solution(self):
        x = solve([[2, 0], [0, 4]], [Fraction(1), Fraction(1)])
        assert x == [Fraction(1, 2), Fraction(1, 4)]

    def test_inconsistent(self):
        assert solve([[1, 1], [1, 1]], [Fraction(0), Fraction(1)]) is None

    def test_underdetermined_solution_satisfies_system(self):
        rng = random.Random(3)
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = random_int_matrix(rng, r, c)
            target = [Fraction(v) for v in matvec(m, [rng.randint(-3, 3) for _ in range(c)])]
            x = solve(m, target, cols=c)
            assert x is not None
            assert matvec(m, x) == target


class TestPrimitiveInteger:
    def test_scaling(self):
        assert primitive_integer([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
        assert primitive_integer([Fraction(-2), Fraction(4)]) == (1, -2)
        assert primitive_integer([Fraction(-2), Fraction(4)], fix_sign=False) == (-1, 2)

    def test_zero_vector(self):
        assert primitive_integer([Fraction(0), Fraction(0)]) == (0, 0)


class TestMatrixShape:
    def test_rows_of_unequal_length(self):
        with pytest.raises(InputError, match="unequal lengths"):
            rank([[1, 2], [3]])

    def test_declared_columns_must_match(self):
        with pytest.raises(InputError, match="has 2 columns, caller declared 3"):
            kernel_basis([[1, 2]], cols=3)
