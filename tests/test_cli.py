"""Command-line surface: subcommands, exit codes, JSON round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtpoly
from gtdata import BIJ, FAMILY2, FAMILY2_SPEC, WORKED, WORKED_MATRIX, WORKED_SPEC
from gtpoly import GTPattern
from gtpoly.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def pattern_json(p):
    return json.dumps(p.to_json())


def spec_json(s):
    return json.dumps(s.to_json())


class TestValidate:
    def test_valid_pattern(self, capsys):
        code, out = run(capsys, "validate", pattern_json(BIJ))
        assert code == 0
        assert out == {"valid": True, "violations": []}

    def test_constraint_violations_exit_2(self, capsys):
        bad = json.dumps({"n": 2, "rows": [["3/2", "1/2"], [3]]})
        code, out = run(capsys, "validate", bad)
        assert code == 2
        assert out["valid"] is False
        assert out["violations"]

    def test_malformed_shape_exit_2(self, capsys):
        code, out = run(capsys, "validate", '{"n": 2, "rows": [[1], [1]]}')
        assert code == 2
        assert "error" in out

    def test_malformed_json_exit_2(self, capsys):
        code, out = run(capsys, "validate", "{not json")
        assert code == 2
        assert "error" in out


class TestTilingAndMatrix:
    def test_matrix_worked_example(self, capsys):
        code, out = run(capsys, "matrix", pattern_json(WORKED))
        assert code == 0
        assert out == WORKED_MATRIX

    def test_tiling_output_feeds_construct(self, capsys):
        code, tiling_out = run(capsys, "tiling", pattern_json(FAMILY2))
        assert code == 0
        code, cert_out = run(capsys, "certificate", pattern_json(FAMILY2),
                             "--spec", spec_json(FAMILY2_SPEC))
        assert code == 0
        carrier = {"n": 5, "rows": [[2, 2, 1, 0, 0], [2, 1, 0, 0], [1, 1, 0], [1, 0], [1]]}
        payload = json.dumps({
            "pattern": carrier,
            "xi": cert_out["certificate"]["xi"],
            "q": cert_out["certificate"]["q"],
            "tiling": tiling_out,
        })
        code, out = run(capsys, "construct", payload)
        assert code == 0
        assert out["non_integral"] is True
        assert out["pattern"] == FAMILY2.to_json()


class TestFaceSubcommands:
    def test_face_dim(self, capsys):
        code, out = run(capsys, "face-dim", pattern_json(WORKED),
                        "--spec", spec_json(WORKED_SPEC))
        assert code == 0
        assert out == {"face_dimension": 2}

    def test_is_vertex(self, capsys):
        code, out = run(capsys, "is-vertex", pattern_json(FAMILY2),
                        "--spec", spec_json(FAMILY2_SPEC))
        assert code == 0
        assert out == {"is_vertex": True}

    def test_face_basis(self, capsys):
        code, out = run(capsys, "face-basis", pattern_json(WORKED),
                        "--spec", spec_json(WORKED_SPEC))
        assert code == 0
        assert out["face_dimension"] == 2
        assert len(out["kernel_basis"]) == 2
        assert out["scale"] == "1/6"

    def test_non_member_exit_2_with_report(self, capsys):
        wrong = json.dumps({"lambda": [6, 5, 3, 2, 0], "mu": [4, 1, 4, 5, 3]})
        code, out = run(capsys, "face-dim", pattern_json(WORKED), "--spec", wrong)
        assert code == 2
        assert out["report"]

    def test_certificate_integral_vertex_is_null(self, capsys):
        point = json.dumps({"n": 2, "rows": [[1, 0], [1]]})
        spec = json.dumps({"lambda": [1, 0], "mu": [1, 0]})
        code, out = run(capsys, "certificate", point, "--spec", spec)
        assert code == 0
        assert out == {"certificate": None}


class TestFamilyAndBound:
    def test_family_k2(self, capsys):
        code, out = run(capsys, "family", "--k", "2")
        assert code == 0
        assert out["|det|"] == 2
        assert out["q"] == 2
        assert out["pattern"] == FAMILY2.to_json()
        assert out["spec"] == FAMILY2_SPEC.to_json()

    def test_family_even(self, capsys):
        code, out = run(capsys, "family", "--k", "2", "--even")
        assert code == 0
        assert out["n"] == 6
        assert out["denominator_lcm"] == 2

    def test_family_k1_exit_2(self, capsys):
        code, out = run(capsys, "family", "--k", "1")
        assert code == 2

    def test_bound(self, capsys):
        code, out = run(capsys, "bound", "--n", "5")
        assert code == 0
        assert out == {"n": 5, "bound": 262144}

    def test_bound_past_the_rendering_digit_limit_exit_2(self, capsys):
        # 68 ** 2345 has 4,298 digits, 69 ** 2414 has 4,440: past Python's
        # default limit of 4,300 digits for turning an int into text
        code, out = run(capsys, "bound", "--n", "69")
        assert code == 0
        code, out = run(capsys, "bound", "--n", "70")
        assert code == 2
        assert f"{sys.get_int_max_str_digits()} digits" in out["error"]


class TestCountingSubcommands:
    def test_kostka(self, capsys):
        code, out = run(capsys, "kostka", spec_json(FAMILY2_SPEC))
        assert code == 0
        assert out == {"kostka": 5}

    def test_points_round_trip_into_validate(self, capsys):
        code, out = run(capsys, "points", spec_json(FAMILY2_SPEC))
        assert code == 0
        assert out["count"] == 5
        for pattern in out["patterns"]:
            code2, out2 = run(capsys, "validate", json.dumps(pattern))
            assert code2 == 0 and out2["valid"]

    def test_ehrhart_values(self, capsys):
        code, out = run(capsys, "ehrhart", spec_json(FAMILY2_SPEC), "--mmax", "3")
        assert code == 0
        assert out["values"][0] == {"m": 1, "count": 5}

    def test_ehrhart_polynomial(self, capsys):
        code, out = run(capsys, "ehrhart", spec_json(FAMILY2_SPEC))
        assert code == 0
        assert out["degree"] == 4
        assert out["all_match"] is True

    def test_ehrhart_polynomial_beyond_the_vertex_oracle_guard(self, capsys):
        # n = 7 is past the vertex enumerator's default guard; the degree
        # now comes from the dilation counts alone
        spec = json.dumps({"lambda": [2, 1, 1, 0, 0, 0, 0], "mu": [1, 1, 1, 1, 0, 0, 0]})
        code, out = run(capsys, "ehrhart", spec)
        assert code == 0
        assert out["degree"] == 2
        assert out["all_match"] is True

    def test_ehrhart_takes_one_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ehrhart", spec_json(FAMILY2_SPEC), "--mmax", "3", "--degree-hint", "4"])
        assert err.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("hint", [[], ["--degree-hint", "1"]])
    def test_ehrhart_empty_polytope_exit_2(self, capsys, hint):
        code, out = run(capsys, "ehrhart", '{"lambda": [0, 1], "mu": [1, 0]}', *hint)
        assert code == 2
        assert "empty" in out["error"]

    def test_vertices_and_oracle_face_dim(self, capsys):
        code, out = run(capsys, "vertices", spec_json(FAMILY2_SPEC))
        assert code == 0
        assert any(v == FAMILY2.to_json() for v in out["vertices"])
        code, out = run(capsys, "oracle-face-dim", pattern_json(WORKED),
                        "--spec", spec_json(WORKED_SPEC))
        assert code == 0
        assert out == {"face_dimension": 2}

    def test_scale_guard_exit_2(self, capsys):
        big = json.dumps({"lambda": [1] * 7, "mu": [1] * 7})
        code, out = run(capsys, "vertices", big)
        assert code == 2
        assert "error" in out

    def test_sample(self, capsys):
        code, out = run(capsys, "sample", spec_json(FAMILY2_SPEC),
                        "--count", "4", "--seed", "9")
        assert code == 0
        assert len(out["patterns"]) == 4


class TestConversionSubcommands:
    def test_embed(self, capsys):
        code, out = run(capsys, "embed", '{"n": 2, "rows": [[1, 0], [1]]}')
        assert code == 0
        assert out == {"n": 3, "rows": [[1, 0, 0], [1, 0], [0]]}

    def test_tableau_round_trip(self, capsys):
        code, tab = run(capsys, "to-tableau", pattern_json(BIJ))
        assert code == 0
        assert tab["rows"] == [[1, 1, 1, 3, 5, 5], [2, 3, 5], [3, 4], [5, 5]]
        code, back = run(capsys, "from-tableau", json.dumps(tab), "--n", "5")
        assert code == 0
        assert back == BIJ.to_json()

    def test_pretty_attaches_rendering(self, capsys):
        code, out = run(capsys, "--pretty", "embed", '{"n": 2, "rows": [[1, 0], [1]]}')
        assert code == 0
        assert "pretty" in out

    @pytest.mark.parametrize("argv, key", [
        (["points", spec_json(FAMILY2_SPEC)], "patterns"),
        (["vertices", spec_json(FAMILY2_SPEC)], "vertices"),
        (["sample", spec_json(FAMILY2_SPEC), "--count", "4", "--seed", "9"], "patterns"),
    ])
    def test_pretty_renders_every_pattern_in_a_list(self, capsys, argv, key):
        code, out = run(capsys, "--pretty", *argv)
        _, plain = run(capsys, *argv)
        assert code == 0 and out[key]
        for pattern, bare in zip(out[key], plain[key]):
            assert pattern.pop("pretty") == GTPattern.from_json(bare).pretty()
        assert out == plain


class TestRepro:
    def test_repro_paper_passes(self, capsys):
        code, out = run(capsys, "repro-paper")
        assert code == 0
        assert out["all_pass"] is True
        names = {r["name"] for r in out["results"]}
        assert {"family-k2", "family-k3", "family-k4"} <= names
        assert all(r["pass"] for r in out["results"])

    def test_repro_deterministic(self, capsys):
        _, first = run(capsys, "repro-paper")
        _, second = run(capsys, "repro-paper")
        assert first == second


class TestArgErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_exit_2(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent/path.json")
        assert code == 2
        assert "error" in out


class TestRepeatedCalls:
    ARGVS = [
        ["--pretty", "embed", pattern_json(BIJ)],
        ["embed", pattern_json(BIJ)],
        ["ehrhart", spec_json(FAMILY2_SPEC), "--mmax", "2"],
        ["ehrhart", spec_json(FAMILY2_SPEC), "--degree-hint", "4"],
        ["ehrhart", spec_json(FAMILY2_SPEC)],
        ["family", "--k", "2", "--even"],
        ["family", "--k", "2"],
        ["--pretty", "points", spec_json(FAMILY2_SPEC)],
        ["points", spec_json(FAMILY2_SPEC)],
    ]

    def test_shared_parser_keeps_no_state_between_calls(self, capsys):
        # each call on a freshly built parser, then all calls on one parser
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        shared = [run(capsys, *argv) for argv in self.ARGVS]
        assert build_parser() is build_parser()
        assert shared == fresh
        assert "pretty" in shared[0][1] and "pretty" not in shared[1][1]
        assert "values" in shared[2][1] and "values" not in shared[4][1]
        assert shared[5][1]["n"] == 6 and shared[6][1]["n"] == 5


class TestEmptySpec:
    @pytest.mark.parametrize("command", ["ehrhart", "vertices", "points"])
    def test_empty_spec_exit_2(self, capsys, command):
        code, out = run(capsys, command, '{"lambda": [], "mu": []}')
        assert code == 2
        assert "error" in out


class TestParseErrors:
    CARRIER = {"n": 5, "rows": [[2, 2, 1, 0, 0], [2, 1, 0, 0], [1, 1, 0], [1, 0], [1]]}

    def construct(self, capsys, **fields):
        payload = {"pattern": self.CARRIER, "xi": [1, 1, 1], "q": 2, **fields}
        return run(capsys, "construct", json.dumps(payload))

    def test_construct_non_integer_xi_entry(self, capsys):
        code, out = self.construct(capsys, xi=[1, "one", 1])
        assert code == 2
        assert "error" in out

    def test_construct_xi_not_a_list(self, capsys):
        code, out = self.construct(capsys, xi=5)
        assert code == 2
        assert "error" in out

    def test_construct_non_integer_q(self, capsys):
        code, out = self.construct(capsys, q="two")
        assert code == 2
        assert "error" in out

    def test_construct_malformed_tiling_cell(self, capsys):
        code, out = self.construct(capsys, tiling={"tiles": [[[1]]], "free": []})
        assert code == 2
        assert "error" in out

    def test_construct_float_tiling_cell(self, capsys):
        # the tiling of the vertex to construct, with cell (1, 1) written
        # [1.9, 1]: a float is rejected, not truncated to the valid tiling
        _, tiling = run(capsys, "tiling", pattern_json(FAMILY2))
        assert tiling["tiles"][0][0] == [1, 1]
        tiling["tiles"][0][0][0] = 1.9
        code, out = self.construct(capsys, tiling=tiling)
        assert code == 2
        assert "error" in out

    def test_malformed_json_names_the_decode_error(self, capsys):
        code, out = run(capsys, "kostka", '{"lambda": [1, 0], "mu": [1, 0]')
        assert code == 2
        assert out["error"].startswith("malformed JSON: ")

    def test_integer_past_the_parsing_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        digits = sys.get_int_max_str_digits() + 1
        path.write_text('{"lambda": [' + "9" * digits + '], "mu": [1]}')
        code, out = run(capsys, "kostka", str(path))
        assert code == 2
        assert "limit" in out["error"]

    def test_nesting_past_the_recursion_limit(self, capsys, monkeypatch):
        depth = 5 * sys.getrecursionlimit()
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * depth + "]" * depth))
        code, out = run(capsys, "kostka", "-")
        assert code == 2
        assert "recursion" in out["error"]

    @pytest.mark.parametrize("spec", ['{"lambda": 5, "mu": 5}', '{"lambda": [1, 0], "mu": null}'])
    def test_spec_field_not_a_list(self, capsys, spec):
        code, out = run(capsys, "kostka", spec)
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize("tableau", ['[[1, "x"], [2]]', '{"shape": [2]}',
                                         '[[1.5]]', '[[true]]', '[["2"]]'])
    def test_from_tableau_malformed(self, capsys, tableau):
        code, out = run(capsys, "from-tableau", tableau, "--n", "3")
        assert code == 2
        assert "error" in out


SMALL_JSON = (st.none() | st.integers(-3, 5) | st.text(max_size=3)
              | st.lists(st.integers(-2, 4), max_size=4))
JSON_VALUES = SMALL_JSON | st.dictionaries(
    st.sampled_from(["lambda", "mu", "n", "rows"]), SMALL_JSON, max_size=3)


class TestExitContract:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_spec_commands_exit_0_2_or_3(self, value):
        # inline JSON is recognised by a leading { or [; other values are
        # read as (missing) file paths and must be rejected the same way
        for command in ("kostka", "points", "ehrhart", "vertices"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, json.dumps(value)])
            assert code in (0, 2, 3)
            json.loads(out.getvalue())


class TestClosedStdout:
    def test_reader_closing_early_gets_an_exit_code_and_no_traceback(self):
        # 1,136 points print about 390 kB, more than a pipe buffer holds, so
        # writing fails after the reader has gone
        spec = '{"lambda": [12, 9, 6, 3, 0], "mu": [6, 6, 6, 6, 6]}'
        src = str(Path(gtpoly.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "gtpoly.cli", "points", spec],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


class TestBoundGuard:
    def test_refused_before_computing(self, capsys, monkeypatch):
        # n = 3,000 took 31 s to compute a bound that could never be rendered
        _, past_limit = run(capsys, "bound", "--n", "70")

        def must_not_run(n):
            raise AssertionError(f"denominator_bound({n}) computed past the digit limit")

        monkeypatch.setattr(gtpoly.cli.family, "denominator_bound", must_not_run)
        for n in ("70", "3000"):
            code, out = run(capsys, "bound", "--n", n)
            assert code == 2
            assert out == past_limit == {
                "error": f"result holds an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, the limit for rendering it as JSON"}

    @pytest.mark.parametrize("limit", [640, 1000])
    def test_refuses_only_bounds_past_the_limit(self, capsys, limit):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            codes = {n: run(capsys, "bound", "--n", str(n))[0] for n in range(2, 45)}
        finally:
            sys.set_int_max_str_digits(old)
        for n, code in codes.items():
            assert (code == 0) == (gtpoly.denominator_bound(n) < 10 ** limit)

    def test_no_digit_limit_lifts_the_guard(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out = run(capsys, "bound", "--n", "70")
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        assert out == {"n": 70, "bound": 69 ** 2414}

    @pytest.mark.parametrize("n", ["1", "0", "-5"])
    def test_small_n_keeps_its_error(self, capsys, n):
        code, out = run(capsys, "bound", "--n", n)
        assert code == 2
        assert out == {"error": f"denominator_bound requires n >= 2, got {n}"}


class TestSampleAndScaleGuardInputs:
    SPEC = '{"lambda": [2, 1, 0], "mu": [1, 1, 1]}'
    GUARD_ERROR = {"error": "GTPOLY_SCALE_GUARD must be an integer, got 'abc'"}

    @pytest.mark.parametrize("argv", [["vertices"], ["sample", "--count", "2", "--seed", "1"]])
    def test_malformed_scale_guard_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("GTPOLY_SCALE_GUARD", "abc")
        assert run(capsys, argv[0], self.SPEC, *argv[1:]) == (2, self.GUARD_ERROR)

    def test_repro_records_a_malformed_scale_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("GTPOLY_SCALE_GUARD", "abc")
        code, out = run(capsys, "repro-paper")
        assert (code, out["all_pass"]) == (3, False)
        failed = [r for r in out["results"] if not r["pass"]]
        assert failed == [{"name": "family-k2", "pass": False,
                           "detail": self.GUARD_ERROR["error"]}]

    def test_negative_count_exits_2(self, capsys):
        code, out = run(capsys, "sample", self.SPEC, "--count", "-1", "--seed", "1")
        assert (code, out) == (2, {"error": "count must be nonnegative, got -1"})
        assert run(capsys, "sample", self.SPEC, "--count", "0", "--seed", "1") == (
            0, {"patterns": []})


class TestInputChecks:
    def test_wrong_top_row_is_reported(self, capsys):
        wrong = json.dumps({"lambda": [6, 5, 3, 2, 1], "mu": [4, 1, 4, 5, 2]})
        code, out = run(capsys, "face-dim", pattern_json(WORKED), "--spec", wrong)
        assert code == 2
        assert out["report"] == [{"kind": "top-row", "cell": [5, 5], "constraint": "x[5,5] = 1"}]

    @pytest.mark.parametrize("argv, error", [
        (["--mmax", "0"], "m_max must be at least 1, got 0"),
        (["--degree-hint", "-1"], "degree hint must be nonnegative, got -1"),
    ])
    def test_ehrhart_bad_mode_values(self, capsys, argv, error):
        code, out = run(capsys, "ehrhart", spec_json(FAMILY2_SPEC), *argv)
        assert (code, out) == (2, {"error": error})

    def test_to_tableau_needs_nested_rows(self, capsys):
        code, out = run(capsys, "to-tableau", '{"rows": [[1, 0], [2]]}')
        assert (code, out) == (2, {"error": "row 2 does not contain row 1: pattern invalid"})

    def test_tableau_with_an_empty_row(self, capsys):
        code, out = run(capsys, "from-tableau", "[[1], []]", "--n", "2")
        assert (code, out) == (2, {"error": "tableau row 2 is empty; drop empty rows"})

    @pytest.mark.parametrize("pattern", ['{"n": 2}', '{"rows": [1, 2]}'])
    def test_pattern_json_without_rows_of_lists(self, capsys, pattern):
        code, out = run(capsys, "embed", pattern)
        assert code == 2
        assert "rows" in out["error"]

    def test_tiling_json_without_free(self, capsys):
        payload = {"pattern": FAMILY2.to_json(), "xi": [1, 1, 1], "q": 2, "tiling": {"tiles": []}}
        code, out = run(capsys, "construct", json.dumps(payload))
        assert (code, out) == (2, {"error": "tiling JSON must be an object with 'tiles' and "
                                            "'free' keys"})

    def test_construct_without_q(self, capsys):
        payload = {"pattern": FAMILY2.to_json(), "xi": [1, 1, 1]}
        code, out = run(capsys, "construct", json.dumps(payload))
        assert (code, out) == (2, {"error": "construct expects JSON with 'pattern', 'xi', "
                                            "and 'q' keys"})

    def test_construct_tiling_drift_exit_3(self, capsys):
        payload = {
            "pattern": {"rows": [[10, 10, 8, 8, 5, 0], [10, 10, 8, 6, 4], [10, 9, 8, 4],
                                 [9, 8, 6], [8, 8], [8]]},
            "tiling": {"tiles": [[[1, 1], [1, 2], [2, 2], [2, 3], [3, 4], [3, 5], [3, 6], [4, 6]],
                                 [[1, 3], [2, 4]], [[3, 3], [4, 5]],
                                 [[1, 4], [1, 5], [2, 5], [1, 6], [2, 6]],
                                 [[4, 4], [5, 5]], [[5, 6]], [[6, 6]]],
                       "free": [1, 2, 4]},
            "xi": [1, 1, 1], "q": 2}
        code, out = run(capsys, "construct", json.dumps(payload))
        assert (code, out) == (3, {"error": "adding xi/q merged or split tiles; "
                                            "construction rejected"})
