"""The three benchmark workloads: request streams, calls and output checks.

A workload turns a seeded `random.Random` into an endless stream of
requests.  The stream repeats a fixed cycle of request classes (kind and
size), and the seed only picks the instance inside each class, so every
seed puts the same mix of work into a run and run-to-run spread comes
from the instances, not from the mix.

`call` is the only part the benchmark times; it receives plain data and
drives gtpoly's public API the way a caller would.  `check` runs after
the timer stops and raises `Mismatch` when an output is wrong.  Checks
compare against `reference` (which never imports gtpoly) or against a
second, independent route through gtpoly.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import generators as gen
import reference as ref


class Mismatch(Exception):
    """An output failed its correctness check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Request:
    """One request: its class, its generated inputs, and, between the timed
    call and the check, the output."""

    kind: str
    data: dict
    output: Any = field(default=None, repr=False)


# ---------------------------------------------------------------- certify

# (kind, n, face dimension) of the member classes of one cycle.  The
# dimension sets most of a member's cost, so fixing it per class keeps
# the latency quantiles of a run from depending on the seed.
_MEMBER_CLASSES = (
    [("integral", n, d) for n, d in zip(range(5, 14), (1, 2, 3, 5, 6, 8, 10, 12, 14))]
    + [("fractional", n, d) for n, d in zip(range(5, 14), (2, 3, 4, 5, 6, 8, 9, 11, 12))]
    + [("vertex", n, 0) for n in range(5, 14)]
)
_NONINTEGRAL_SIZES = (10, 11, 12, 13)
_NONINTEGRAL_PER_CYCLE = 3
_FAMILY_PER_CYCLE = 2


def certify_requests(rng: random.Random) -> Iterator[Request]:
    """Full certification of members of size 5..13, a few non-integral
    vertices, and family instances with k = 2..12 taken in seeded blocks
    that hold every k once."""
    pool = [gen.nonintegral_vertex(rng, n, 2 * n) for n in _NONINTEGRAL_SIZES]
    ks: list[int] = []
    nonintegral = 0
    while True:
        cycle = []
        for kind, n, dimension in _MEMBER_CLASSES:
            if kind == "integral":
                rows = gen.integral_member_of_dimension(rng, n, 3 * n, dimension)
            elif kind == "fractional":
                rows = gen.fractional_member_of_dimension(rng, n, 2 * n, dimension)
            else:
                rows = gen.vertex_member(rng, n, n)
            cycle.append(_member_request(kind, rows))
        for _ in range(_NONINTEGRAL_PER_CYCLE):
            rows = gen.transformed_vertex(rng, pool[nonintegral % len(pool)])
            nonintegral += 1
            cycle.append(_member_request("nonintegral-vertex", rows))
        for _ in range(_FAMILY_PER_CYCLE):
            if not ks:
                ks = list(range(2, 13))
                rng.shuffle(ks)
            cycle.append(Request("family", {"k": ks.pop(), "even": rng.random() < 0.5}))
        rng.shuffle(cycle)
        yield from cycle


def _member_request(kind: str, rows) -> Request:
    return Request(kind, {"rows": rows, "spec": ref.spec_of_rows(rows)})


def certify_call(gt, req: Request) -> dict:
    if req.kind == "family":
        make = gt.counterexample_even_n if req.data["even"] else gt.counterexample
        return {"instance": make(req.data["k"])}
    x = gt.GTPattern(req.data["rows"])
    spec = gt.PolytopeSpec(*req.data["spec"])
    out = {
        "dimension": gt.face_dimension(x, spec),
        "is_vertex": gt.is_vertex(x, spec),
        "basis": gt.face_basis(x, spec),
    }
    if out["is_vertex"]:
        cert = gt.nonintegrality_certificate(x, spec)
        out["certificate"] = cert
        if cert is not None:
            til = gt.compute_tiling(x)
            carrier = gt.truncate_integral(x, til)
            out["rebuilt"] = gt.construct_nonintegral_vertex(carrier, cert.xi, cert.q, til)
    return out


def certify_check(gt, req: Request) -> None:
    out = req.output
    if req.kind == "family":
        inst, k = out["instance"], req.data["k"]
        expect(abs(ref.bareiss_determinant(inst.matrix.entries)) == k == abs(inst.det),
               f"family k={k}: |det| is not k")
        expect(ref.is_member(inst.pattern.rows, (inst.spec.lam, inst.spec.mu)),
               f"family k={k}: pattern is not a member")
        expect(ref.denominator_lcm(inst.pattern.rows) == k == inst.certificate.q,
               f"family k={k}: denominator lcm or certificate q is not k")
        return
    rows, spec = req.data["rows"], req.data["spec"]
    d = out["dimension"]
    expect(out["basis"].face_dimension == len(out["basis"].kernel_basis) == d,
           "face_basis dimension differs from face_dimension")
    expect(out["is_vertex"] == (d == 0), "is_vertex disagrees with the dimension")
    expect(ref.face_dimension(rows) == d, "face_dimension differs from the reference")
    if len(rows) <= 7:
        oracle = gt.face_dimension_oracle(gt.GTPattern(rows), gt.PolytopeSpec(*spec))
        expect(oracle == d, "face_dimension differs from face_dimension_oracle")
    if not out["is_vertex"]:
        return
    q = ref.denominator_lcm(rows)
    cert = out["certificate"]
    if q == 1:
        expect(cert is None, "integral vertex received a certificate")
        return
    expect(cert is not None and cert.q == q, "certificate q differs from the denominator lcm")
    rebuilt = out["rebuilt"]
    expect(rebuilt.non_integral and rebuilt.pattern.rows == rows
           and (rebuilt.spec.lam, rebuilt.spec.mu) == spec,
           "construct round trip did not return the same vertex")


# --------------------------------------------------------------- vertices

_VERTEX_MAX_ENTRY = 4
_VERTEX_PROBES = 3
# Every block of 20 requests holds 14 nonempty specs (5 of them with an
# oracle face query) and 6 uniform ones.  Nonempty sizes are weighted
# towards 4 and 5 so that the median falls inside the n = 4 class and
# the 95th percentile inside the n = 5 class, not between two classes.
_VERTEX_BLOCK = (
    [("uniform", n) for n in (3, 3, 4, 4, 5, 5)]
    + [("nonempty", n) for n in (3, 4, 4, 4, 4, 5, 5, 5, 5)]
    + [("nonempty+oracle", n) for n in (3, 4, 4, 5, 5)]
)


def vertices_requests(rng: random.Random) -> Iterator[Request]:
    """`enumerate_vertices` on nonempty specs built from random integral
    patterns and on uniform specs, sizes 3..5."""
    while True:
        block = list(_VERTEX_BLOCK)
        rng.shuffle(block)
        for kind, n in block:
            if kind == "uniform":
                yield Request(kind, {"spec": gen.uniform_spec(rng, n, _VERTEX_MAX_ENTRY)})
                continue
            spec, base = gen.nonempty_spec(rng, n, _VERTEX_MAX_ENTRY)
            data = {"spec": spec, "base": base}
            if kind == "nonempty+oracle":
                data["member"] = gen.mixed_member(rng, base)
            yield Request(kind, data)


def vertices_call(gt, req: Request) -> dict:
    spec = gt.PolytopeSpec(*req.data["spec"])
    out = {"vertices": gt.enumerate_vertices(spec)}
    if "member" in req.data:
        out["oracle_dimension"] = gt.face_dimension_oracle(gt.GTPattern(req.data["member"]), spec)
    return out


def vertices_check(gt, req: Request) -> None:
    lam, mu = req.data["spec"]
    verts = req.output["vertices"]
    expect(bool(verts) == ref.dominates(lam, mu),
           "vertex list is not nonempty exactly when lambda dominates mu")
    spec = gt.PolytopeSpec(lam, mu)
    for v in verts:
        expect(ref.is_member(v.rows, (lam, mu)), "enumerated vertex is not a member")
        expect(ref.face_dimension(v.rows) == 0 and gt.is_vertex(v, spec),
               "enumerated vertex fails the tiling vertex test")
    found = {v.rows for v in verts}
    expect(len(found) == len(verts), "duplicate vertices")
    if "base" in req.data:
        # vertices reached independently, by pushing members of the polytope
        rng = random.Random(repr(req.data["spec"]))
        for _ in range(_VERTEX_PROBES):
            probe = gen.push_to_vertex(rng, gen.mixed_member(rng, req.data["base"]))
            expect(probe in found, "a vertex reached by pushing a member is missing")
    if "member" in req.data:
        rows = req.data["member"]
        expect(req.output["oracle_dimension"] == ref.face_dimension(rows)
               == gt.face_dimension(gt.GTPattern(rows), spec),
               "face_dimension_oracle differs from the tiling route")


# ------------------------------------------------------------------ count

# (size, max_top) per Kostka size; the count window keeps every request
# between a few and a few tens of milliseconds
_KOSTKA_SIZES = ((5, 14), (6, 10), (7, 8), (8, 7))
_KOSTKA_WINDOW = (150, 300)
_POINTS_SIZES = ((5, 14), (6, 10))
_POINTS_WINDOW = (300, 450)
_EHRHART_SIZES = ((4, 4), (5, 3))
_EHRHART_DEGREES = (1, 3)
_EHRHART_POINTS = (20, 3000)
_EHRHART_EXTRA = 3  # dilations ehrhart_polynomial checks beyond the degree


def count_requests(rng: random.Random) -> Iterator[Request]:
    """CLI `kostka`, `points` and the three `ehrhart` forms, one cycle of
    eleven requests at a time.  The cheap all-ones Kostka requests come
    twice per cycle so that the median falls inside the Kostka class."""
    turn = 0
    while True:
        cycle = []
        for n, top in _KOSTKA_SIZES:
            spec, count = gen.counted_spec(rng, n, top, *_KOSTKA_WINDOW)
            twin = list(spec[1])
            rng.shuffle(twin)
            cycle.append(Request("kostka", {"spec": spec, "count": count, "twin": tuple(twin)}))
        for size in (5 + 2 * turn % 4, 6 + 2 * turn % 4):
            lam = gen.partition(rng, size, size)
            cycle.append(Request("kostka-ones", {"spec": (lam, (1,) * size),
                                                  "count": ref.hook_length_count(lam)}))
        for n, top in _POINTS_SIZES:
            spec, count = gen.counted_spec(rng, n, top, *_POINTS_WINDOW)
            cycle.append(Request("points", {"spec": spec, "count": count}))
        small, large = _EHRHART_SIZES[turn % 2], _EHRHART_SIZES[(turn + 1) % 2]
        for kind, (n, top) in (("ehrhart-mmax", small), ("ehrhart-hint", small),
                               ("ehrhart", large)):
            cycle.append(_ehrhart_request(rng, kind, n, top))
        turn += 1
        rng.shuffle(cycle)
        yield from cycle


def _ehrhart_request(rng: random.Random, kind: str, n: int, top: int) -> Request:
    while True:
        spec, _ = gen.nonempty_spec(rng, n, top)
        degree = ref.ehrhart_degree(*spec, (n - 1) * (n - 2) // 2)
        if not _EHRHART_DEGREES[0] <= degree <= _EHRHART_DEGREES[1]:
            continue
        dilations = rng.randint(3, 5) if kind == "ehrhart-mmax" else degree + 1 + _EHRHART_EXTRA
        counts = [ref.count_lattice_points([m * v for v in spec[0]], [m * v for v in spec[1]])
                  for m in range(1, dilations + 1)]
        if _EHRHART_POINTS[0] <= sum(counts) <= _EHRHART_POINTS[1]:
            return Request(kind, {"spec": spec, "degree": degree, "counts": counts})


def _cli_args(req: Request) -> list[str]:
    lam, mu = req.data["spec"]
    spec = json.dumps({"lambda": list(lam), "mu": list(mu)})
    if req.kind in ("kostka", "kostka-ones"):
        return ["kostka", spec]
    if req.kind == "points":
        return ["points", spec]
    if req.kind == "ehrhart-mmax":
        return ["ehrhart", "--mmax", str(len(req.data["counts"])), spec]
    if req.kind == "ehrhart-hint":
        return ["ehrhart", "--degree-hint", str(req.data["degree"]), spec]
    return ["ehrhart", spec]


def count_call(gt, req: Request) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = gt.cli.main(_cli_args(req))
    return {"status": status, "stdout": buffer.getvalue()}


def count_check(gt, req: Request) -> None:
    out = req.output
    expect(out["status"] == 0, f"{req.kind}: exit status {out['status']}")
    doc = json.loads(out["stdout"])
    lam, mu = req.data["spec"]
    if req.kind == "kostka":
        expect(doc["kostka"] == req.data["count"], "kostka differs from the reference count")
        expect(gt.kostka(lam, req.data["twin"]) == doc["kostka"],
               "kostka changed on a permuted-mu twin")
    elif req.kind == "kostka-ones":
        expect(doc["kostka"] == req.data["count"], "kostka differs from the hook-length formula")
    elif req.kind == "points":
        pats = doc["patterns"]
        expect(doc["count"] == len(pats) == req.data["count"], "points count differs from kostka")
        expect(len({json.dumps(p["rows"]) for p in pats}) == len(pats), "duplicate points")
        expect(all(ref.is_member(tuple(reversed(p["rows"])), (lam, mu)) for p in pats),
               "a listed point is not a member")
    elif req.kind == "ehrhart-mmax":
        got = [s["count"] for s in doc["values"]]
        expect(got == req.data["counts"], "dilation counts differ from the reference")
    else:
        expect(doc["all_match"] is True, "ehrhart interpolant failed its checks")
        expect(doc["degree"] == req.data["degree"], "ehrhart degree differs from the reference")
        got = [s["count"] for s in doc["samples"]]
        expect(got == req.data["counts"], "ehrhart samples differ from the reference counts")


@dataclass(frozen=True)
class Workload:
    """How one workload makes, serves and checks its requests."""

    requests: Callable[[random.Random], Iterator[Request]]
    call: Callable[[Any, Request], Any]  # the timed part
    check: Callable[[Any, Request], None]  # raises on a wrong output
    modules: tuple[str, ...] = ("gtpoly",)  # imported during set-up


WORKLOADS = {
    "certify": Workload(certify_requests, certify_call, certify_check),
    "vertices": Workload(vertices_requests, vertices_call, vertices_check),
    "count": Workload(count_requests, count_call, count_check,
                      ("gtpoly", "gtpoly.cli")),
}
