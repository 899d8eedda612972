"""The counterexample family and the fixed-size denominator bound."""

import pytest

from gtdata import FAMILY2, FAMILY2_MATRIX, FAMILY2_SPEC
from gtpoly import (
    InputError,
    PolytopeSpec,
    counterexample,
    counterexample_even_n,
    denominator_bound,
    is_vertex,
    membership,
)


class TestCounterexample:
    def test_k2_matches_hand_evaluation(self):
        inst = counterexample(2)
        assert inst.spec == FAMILY2_SPEC
        assert inst.pattern == FAMILY2
        assert inst.matrix.to_json() == FAMILY2_MATRIX
        assert abs(inst.det) == 2
        assert inst.certificate.q == 2
        assert inst.certificate.xi == (1, 1, 1)

    @pytest.mark.parametrize("make, size, bound", [(counterexample, 3, 262144),
                                                    (counterexample_even_n, 4, 6103515625)])
    def test_k2_transcript(self, make, size, bound):
        assert make(2).transcript == (
            {"check": "membership", "pass": True},
            {"check": "square-matrix", "pass": True, "rows": size, "cols": size},
            {"check": "determinant", "pass": True, "det": "-2"},
            {"check": "vertex", "pass": True},
            {"check": "denominator-lcm", "pass": True, "lcm": 2},
            {"check": "certificate", "pass": True},
            {"check": "below-denominator-bound", "pass": True, "bound": bound},
        )

    def test_k1_rejected(self):
        with pytest.raises(InputError):
            counterexample(1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_generated_instances_verify(self, k):
        inst = counterexample(k)
        n = 2 * k + 1
        assert inst.n == n
        assert inst.spec == PolytopeSpec(
            (k,) * k + (k - 1,) + (0,) * k, (k - 1,) * (k + 1) + (1,) * k)
        assert membership(inst.pattern, inst.spec)
        assert is_vertex(inst.pattern, inst.spec)
        assert abs(inst.det) == k
        assert inst.pattern.denominator_lcm() == k
        assert k < denominator_bound(n)
        assert all(entry["pass"] for entry in inst.transcript)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matrix_has_the_displayed_shape(self, k):
        inst = counterexample(k)
        m = inst.matrix
        s = 2 * k - 1
        assert (m.rows, m.cols) == (s, s)
        first_col = [row[0] for row in m.entries]
        assert first_col == list(range(1, k + 1)) + list(range(k - 1, 0, -1))
        # remaining columns: an identity with the middle row skipped
        for offset, row_idx in enumerate([r for r in range(s) if r != k - 1]):
            for col in range(1, s):
                expected = 1 if col == offset + 1 else 0
                assert m.entries[row_idx][col] == expected
        assert all(v == 0 for v in m.entries[k - 1][1:])


class TestCounterexampleEvenN:
    @pytest.mark.parametrize("k", [2, 3])
    def test_embedded_instances_verify(self, k):
        inst = counterexample_even_n(k)
        assert inst.n == 2 * k + 2
        assert inst.even
        assert membership(inst.pattern, inst.spec)
        assert is_vertex(inst.pattern, inst.spec)
        assert abs(inst.det) == k
        assert inst.pattern.denominator_lcm() == k
        assert inst.certificate.q == k

    def test_embedding_preserves_denominator_lcm(self):
        for k in (2, 3):
            odd = counterexample(k)
            even = counterexample_even_n(k)
            assert odd.pattern.denominator_lcm() == even.pattern.denominator_lcm() == k

    def test_k1_rejected(self):
        with pytest.raises(InputError):
            counterexample_even_n(1)


class TestDenominatorBound:
    def test_values(self):
        assert denominator_bound(5) == 262144  # 4**9
        assert denominator_bound(3) == 4  # 2**2
        assert denominator_bound(2) == 1  # empty middle, exponent 0

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            denominator_bound(1)

    def test_family_sits_below_the_bound(self):
        for k in (2, 3, 4, 5, 6):
            assert k < denominator_bound(2 * k + 1)
