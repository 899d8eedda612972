"""Command-line front end: JSON in, JSON out.

Every subcommand reads its main object from a positional argument that
may be a file path, inline JSON, or ``-`` for stdin, and prints a JSON
document.  Exit status 0 means success, 2 an input or validation
problem, and 3 a failed internal verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import comb
from typing import Optional, Sequence

from . import combinatorics, faces, family, oracle, tiling
from .core import (
    GTPattern,
    PolytopeSpec,
    embed,
    validate_pattern,
    weight_of,
)
from .errors import (
    GTError,
    InputError,
    MembershipError,
    ScaleGuardError,
    ShapeError,
    VerificationError,
)
from .linalg import rank

# worked examples bundled for the `repro-paper` subcommand
WORKED_PATTERN = GTPattern.from_rows(
    [[6, 5, 3, 2, 0], [6, "9/2", 3, "1/2"], [5, "7/2", "1/2"], ["9/2", "1/2"], [4]])
WORKED_SPEC = PolytopeSpec((6, 5, 3, 2, 0), (4, 1, 4, 5, 2))
WORKED_MATRIX = [[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 1, 0, 0, 1]]
WORKED_KERNEL_SPAN = [(0, 0, -1, 1, 0), (1, -1, 1, 0, 1)]
BIJECTION_PATTERN = GTPattern.from_rows(
    [[6, 3, 2, 2, 0], [4, 2, 2, 0], [4, 2, 1], [3, 1], [3]])
BIJECTION_TABLEAU = [[1, 1, 1, 3, 5, 5], [2, 3, 5], [3, 4], [5, 5]]


def _read_json(value: str):
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith(("{", "[")):
        text = value
    else:
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read input file {value!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the int-to-str digit limit, or nesting past the recursion limit
        raise InputError(f"JSON input exceeds a parser limit: {exc}") from exc


def _pattern_arg(value: str) -> GTPattern:
    return GTPattern.from_json(_read_json(value))


def _spec_arg(value: str) -> PolytopeSpec:
    return PolytopeSpec.from_json(_read_json(value))


def _attach_pretty(payload: dict) -> None:
    """Render the payload if it is a pattern, and every pattern under its
    ``pattern`` key or in its ``patterns`` or ``vertices`` list."""
    if "rows" in payload and "n" in payload:
        payload["pretty"] = GTPattern.from_json(payload).pretty()
    nested = [payload.get("pattern"), *payload.get("patterns", []), *payload.get("vertices", [])]
    for item in nested:
        if isinstance(item, dict):
            _attach_pretty(item)


def _run_validate(args) -> tuple[dict, int]:
    pattern = _pattern_arg(args.input)
    report = validate_pattern(pattern)
    return {"valid": not report, "violations": report}, 0 if not report else 2


def _run_tiling(args) -> tuple[dict, int]:
    return tiling.compute_tiling(_pattern_arg(args.input)).to_json(), 0


def _run_matrix(args) -> tuple[list, int]:
    return tiling.tiling_matrix(_pattern_arg(args.input)).to_json(), 0


def _run_face_dim(args) -> tuple[dict, int]:
    d = faces.face_dimension(_pattern_arg(args.input), _spec_arg(args.spec))
    return {"face_dimension": d}, 0


def _run_is_vertex(args) -> tuple[dict, int]:
    flag = faces.is_vertex(_pattern_arg(args.input), _spec_arg(args.spec))
    return {"is_vertex": flag}, 0


def _run_face_basis(args) -> tuple[dict, int]:
    cert = faces.face_basis(_pattern_arg(args.input), _spec_arg(args.spec))
    return cert.to_json(), 0


def _run_certificate(args) -> tuple[dict, int]:
    cert = faces.nonintegrality_certificate(_pattern_arg(args.input), _spec_arg(args.spec))
    return {"certificate": cert.to_json() if cert else None}, 0


def _run_construct(args) -> tuple[dict, int]:
    payload = _read_json(args.input)
    if not isinstance(payload, dict) or not {"pattern", "xi", "q"} <= payload.keys():
        raise InputError("construct expects JSON with 'pattern', 'xi', and 'q' keys")
    til = tiling.Tiling.from_json(payload["tiling"]) if payload.get("tiling") else None
    result = faces.construct_nonintegral_vertex(
        GTPattern.from_json(payload["pattern"]), payload["xi"], payload["q"], til)
    return result.to_json(), 0


def _run_family(args) -> tuple[dict, int]:
    make = family.counterexample_even_n if args.even else family.counterexample
    return make(args.k).to_json(), 0


def _digit_limit_error() -> str:
    return (f"result holds an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the limit for rendering it as JSON")


def _run_bound(args) -> tuple[dict, int]:
    # (n-1) ** e >= 2 ** (e * floor(log2(n-1))), so this refuses only bounds past the limit
    limit, n = sys.get_int_max_str_digits(), args.n
    e = comb(n + 1, 2) - n - 1 if n >= 2 else 0
    if limit and e * ((n - 1).bit_length() - 1) >= (10 ** limit).bit_length():
        raise InputError(_digit_limit_error())
    return {"n": n, "bound": family.denominator_bound(n)}, 0


def _run_kostka(args) -> tuple[dict, int]:
    spec = _spec_arg(args.input)
    return {"kostka": combinatorics.kostka(spec.lam, spec.mu)}, 0


def _run_points(args) -> tuple[dict, int]:
    pts = combinatorics.enumerate_lattice_points(_spec_arg(args.input))
    return {"count": len(pts), "patterns": [p.to_json() for p in pts]}, 0


def _run_ehrhart(args) -> tuple[dict, int]:
    spec = _spec_arg(args.input)
    if args.mmax is not None:
        values = combinatorics.ehrhart_values(spec, args.mmax)
        return {"values": [v.to_json() for v in values]}, 0
    report = combinatorics.ehrhart_polynomial(spec, degree_hint=args.degree_hint)
    return report.to_json(), 0 if report.all_match else 3


def _run_vertices(args) -> tuple[dict, int]:
    verts = oracle.enumerate_vertices(_spec_arg(args.input))
    return {"count": len(verts), "vertices": [v.to_json() for v in verts]}, 0


def _run_oracle_face_dim(args) -> tuple[dict, int]:
    d = oracle.face_dimension_oracle(_pattern_arg(args.input), _spec_arg(args.spec))
    return {"face_dimension": d}, 0


def _run_sample(args) -> tuple[dict, int]:
    pts = oracle.sample_points(_spec_arg(args.input), args.count, args.seed)
    return {"patterns": [p.to_json() for p in pts]}, 0


def _run_embed(args) -> tuple[dict, int]:
    return embed(_pattern_arg(args.input)).to_json(), 0


def _run_to_tableau(args) -> tuple[dict, int]:
    return combinatorics.pattern_to_tableau(_pattern_arg(args.input)).to_json(), 0


def _run_from_tableau(args) -> tuple[dict, int]:
    tab = combinatorics.Tableau.from_json(_read_json(args.input))
    return combinatorics.tableau_to_pattern(tab, args.n).to_json(), 0


def _repro_checks() -> list[dict]:
    results = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        entry = {"name": name, "pass": bool(passed)}
        if detail:
            entry["detail"] = detail
        results.append(entry)

    matrix = tiling.tiling_matrix(WORKED_PATTERN).to_json()
    record("worked-example-tiling-matrix", matrix == WORKED_MATRIX, f"matrix={matrix}")

    d_tiling = faces.face_dimension(WORKED_PATTERN, WORKED_SPEC)
    d_oracle = oracle.face_dimension_oracle(WORKED_PATTERN, WORKED_SPEC)
    record("worked-example-face-dimension", d_tiling == 2 and d_oracle == 2,
           f"tiling={d_tiling} oracle={d_oracle}")

    cert = faces.face_basis(WORKED_PATTERN, WORKED_SPEC)
    expect = [list(v) for v in WORKED_KERNEL_SPAN]
    got = [list(v) for v in cert.kernel_basis]
    span_ok = (len(got) == 2 and rank(expect + got) == 2)
    record("worked-example-kernel-span", span_ok, f"basis={got}")

    weight = tuple(weight_of(BIJECTION_PATTERN))
    tab = combinatorics.pattern_to_tableau(BIJECTION_PATTERN)
    back = combinatorics.tableau_to_pattern(tab, BIJECTION_PATTERN.n)
    record("bijection-example",
           weight == (3, 1, 3, 1, 5)
           and [list(r) for r in tab.rows] == BIJECTION_TABLEAU
           and back == BIJECTION_PATTERN,
           f"tableau={[list(r) for r in tab.rows]}")

    for k in (2, 3, 4):
        try:
            inst = family.counterexample(k)
            detail = f"n={inst.n} |det|={abs(inst.det)} q={inst.certificate.q}"
            ok = k != 2 or inst.pattern in oracle.enumerate_vertices(inst.spec)
            if k == 2:
                detail += f" oracle-vertex={ok}"
            record(f"family-k{k}", ok, detail)
        except GTError as exc:
            record(f"family-k{k}", False, str(exc))
    return results


def _run_repro(args) -> tuple[dict, int]:
    results = _repro_checks()
    all_pass = all(r["pass"] for r in results)
    return {"results": results, "all_pass": all_pass}, 0 if all_pass else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtpoly",
        description="Exact computations on Gelfand-Tsetlin polytopes (JSON in, JSON out).")
    parser.add_argument("--pretty", action="store_true",
                        help="attach a triangular text rendering to pattern outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, needs_spec=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="file path, inline JSON, or - for stdin")
        if needs_spec:
            p.add_argument("--spec", required=True,
                           help="polytope spec (path, inline JSON, or -)")
        p.set_defaults(func=func)
        return p

    add("validate", _run_validate, "check the defining pattern constraints")
    add("tiling", _run_tiling, "tiling of a valid pattern")
    add("matrix", _run_matrix, "tiling matrix of a valid pattern")
    add("face-dim", _run_face_dim, "minimal-face dimension via the tiling matrix",
        needs_spec=True)
    add("is-vertex", _run_is_vertex, "vertex test via the tiling matrix", needs_spec=True)
    add("face-basis", _run_face_basis, "kernel basis, face directions, and scale",
        needs_spec=True)
    add("certificate", _run_certificate, "non-integrality certificate of a vertex",
        needs_spec=True)
    add("construct", _run_construct, "rebuild a vertex from an integral carrier, xi, and q")

    p = sub.add_parser("family", help="generate a verified non-integral vertex instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--even", action="store_true",
                   help="embed the instance into even size n = 2k+2")
    p.set_defaults(func=_run_family)

    p = sub.add_parser("bound", help="denominator bound for vertices at fixed size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_run_bound)

    add("kostka", _run_kostka, "lattice-point count of GT(lambda, mu)")
    add("points", _run_points, "enumerate all lattice points")
    p = add("ehrhart", _run_ehrhart, "dilation counts, or the interpolated counting polynomial")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mmax", type=int, default=None,
                      help="emit counts for m = 1..M instead of interpolating")
    mode.add_argument("--degree-hint", type=int, default=None,
                      help="interpolation degree override (skips reading the degree off the counts)")
    add("vertices", _run_vertices, "enumerate all vertices (brute-force oracle)")
    add("oracle-face-dim", _run_oracle_face_dim,
        "minimal-face dimension via tight constraints (oracle)", needs_spec=True)
    p = add("sample", _run_sample, "seeded member samples")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add("embed", _run_embed, "embed a pattern into size n+1")
    add("to-tableau", _run_to_tableau, "integral pattern to semistandard tableau")
    p = add("from-tableau", _run_from_tableau, "semistandard tableau to pattern")
    p.add_argument("--n", type=int, required=True, help="pattern size")

    p = sub.add_parser("repro-paper",
                       help="re-derive the bundled worked examples and print a pass/fail table")
    p.set_defaults(func=_run_repro)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, status = args.func(args)
    except (ShapeError, InputError, ScaleGuardError) as exc:
        payload, status = {"error": str(exc)}, 2
    except MembershipError as exc:
        payload, status = {"error": str(exc), "report": exc.report}, 2
    except VerificationError as exc:
        payload, status = {"error": str(exc)}, 3
    if args.pretty and isinstance(payload, dict):
        _attach_pretty(payload)
    try:
        text = json.dumps(payload, indent=2)
    except ValueError:  # an integer past the int-to-str digit limit
        text = json.dumps({"error": _digit_limit_error()}, indent=2)
        status = 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull, so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
