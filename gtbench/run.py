"""gtpoly benchmark: one client driving the public API in a closed loop.

Usage, from the root of a source checkout:

    python3 gtbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

The benchmark imports gtpoly from ``src/`` of the checkout it sits in and
refuses to run without it.  It sends one request at a time, the next only
after the previous one returned, on a single thread.  Inputs are
generated from ``--seed`` between requests, outside the timed calls, and
every output is checked after its call returns, also untimed.  The loop
runs until the timed calls add up to ``--seconds`` and at least
`MIN_REQUESTS` requests completed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop untraced, then again with every layer traced, and prints the
per-layer metrics (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracer import LAYERS, Tracer, gtpoly_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REQUESTS = 200
# stop a pass that has slowed down this far even before MIN_REQUESTS, so
# that a traced run (two passes) still ends well within three minutes
MAX_LOOP_WALL_S = 70.0
SETUP_REPEATS = 15
SETUP_CALIBRATIONS = 5
WARMUP_REQUESTS = 8
# warm-up inputs come from one fixed stream, so set-up time does not
# depend on --seed and the timed requests never repeat a warm-up input
WARMUP_SEED = "gtbench-warmup"
SPAN_DIR = ROOT / ".gtbench"


def load_gtpoly(modules: tuple[str, ...]):
    """Import gtpoly afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "gtpoly" or m.startswith("gtpoly.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    gt = sys.modules["gtpoly"]
    if Path(gt.__file__).resolve().parent != ROOT / "src" / "gtpoly":
        raise ImportError(f"gtpoly was imported from {gt.__file__}, not from this checkout")
    return gt


def set_up(workload, warmup) -> tuple[float, float, object]:
    """Seconds to import gtpoly and serve the warm-up requests, as measured
    and at the reference speed."""
    gc.collect()  # start every repeat from the same collector state
    before = [calibration.measure() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    gt = load_gtpoly(workload.modules)
    for req in warmup:
        workload.call(gt, req)
    elapsed = time.perf_counter() - start
    after = [calibration.measure() for _ in range(SETUP_CALIBRATIONS)]
    return elapsed, elapsed * calibration.speed(before + after), gt


class Loop:
    """Outcome of one closed-loop pass: per-request latencies and failures.

    `wall` holds latencies as measured; `calibration` holds the kernel
    time measured before the first request and after every request, so
    request i ran between samples i and i+1."""

    def __init__(self):
        self.wall: list[float] = []
        self.calibration: list[float] = [calibration.measure()]
        self.failed = 0
        self.kinds: list[str] = []
        self.stdout_bytes = 0

    def latencies(self) -> list[float]:
        """Latencies at the reference speed."""
        speeds = calibration.local_speeds(self.calibration, len(self.wall))
        return [w * f for w, f in zip(self.wall, speeds)]

    def ops_per_s(self) -> float:
        return len(self.wall) / sum(self.latencies())


def run_loop(workload, gt, requests, seconds: float, tracer: Tracer | None = None) -> Loop:
    loop = Loop()
    busy = 0.0
    wall_start = time.perf_counter()
    while busy < seconds or len(loop.wall) < MIN_REQUESTS:
        if time.perf_counter() - wall_start > MAX_LOOP_WALL_S:
            break
        req = next(requests)
        if tracer is not None:
            tracer.request_id = len(loop.wall)
            tracer.enabled = True
        start = time.perf_counter()
        try:
            req.output = workload.call(gt, req)
            error = None
        except Exception as exc:  # a failed request is counted, the loop goes on
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        busy += elapsed
        loop.wall.append(elapsed)
        if error is None:
            try:
                workload.check(gt, req)
            except Exception as exc:  # a Mismatch, or a crash on a malformed output
                error = exc
        if error is not None:
            loop.failed += 1
            if loop.failed <= 3:
                print(f"request {len(loop.wall) - 1} ({req.kind}) failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        if isinstance(req.output, dict) and "stdout" in req.output:
            loop.stdout_bytes += len(req.output["stdout"].encode())
        req.output = None
        loop.kinds.append(req.kind)
        loop.calibration.append(calibration.measure())
    return loop


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup_s: float) -> dict:
    attempted = len(loop.wall)
    latencies = loop.latencies()
    return {
        "ops_per_s": metric(loop.ops_per_s(), "1/s"),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "latency_p95_ms": metric(percentile(latencies, 95) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_share": metric((attempted - loop.failed) / attempted, "ratio"),
    }


def per_layer(loop: Loop, tracer: Tracer, untraced_ops_per_s: float) -> dict:
    requests = len(loop.wall)
    totals = tracer.totals(calibration.local_speeds(loop.calibration, requests))
    counters = dict(tracer.counters)
    counters["cli.stdout_bytes"] = loop.stdout_bytes
    out = {}
    for layer, functions in LAYERS.items():
        for fn_name in functions:
            calls, self_s = totals[f"{layer}.{fn_name}"]
            out[f"{layer}.{fn_name}.calls"] = metric(calls / requests, "calls/req")
            out[f"{layer}.{fn_name}.self_s"] = metric(self_s / requests, "s/req")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_request(name: str, unit: str) -> None:
        out[name] = metric(counters.get(name, 0) / requests, unit)

    per_request("linalg.entries_in", "entries/req")
    out["linalg.solve.per_enum"] = metric(
        ratio(totals["linalg.solve"][0], totals["oracle.enumerate_vertices"][0]), "calls/enum")
    per_request("tiling.cells", "cells/req")
    out["tiling.per_request"] = metric(totals["tiling.compute_tiling"][0] / requests, "tilings/req")
    per_request("oracle.vertices_out", "vertices/req")
    per_request("combinatorics.points_materialized", "points/req")
    per_request("combinatorics.points_counted", "points/req")
    out["combinatorics.materialized_per_counted"] = metric(
        ratio(counters.get("combinatorics.points_materialized", 0),
              counters.get("combinatorics.points_counted", 0)), "ratio")
    per_request("cli.stdout_bytes", "B/req")
    out["trace.requests"] = metric(requests, "count")
    out["trace.ops_ratio"] = metric(loop.ops_per_s() / untraced_ops_per_s, "ratio")
    return out


def describe(name: str, seed: int, loop: Loop, setups: list[tuple[float, float]]) -> None:
    """Human-readable summary: wall times as measured beside reference-speed ones."""
    n = len(loop.wall)
    speeds = calibration.local_speeds(loop.calibration, n)
    print(f"workload {name}, seed {seed}: {n} requests, {loop.failed} failed, "
          f"{sum(loop.wall):.2f} s of timed calls; p95 has {n - -(-n * 95 // 100)} samples "
          f"above it; host speed {min(speeds):.2f}..{max(speeds):.2f} x reference, "
          f"median calibration kernel {statistics.median(loop.calibration) * 1e3:.3f} ms")
    print("  set-up s, wall/reference: "
          + ", ".join(f"{wall:.3f}/{ref:.3f}" for wall, ref in setups))
    kinds: dict[str, list[tuple[float, float]]] = {}
    for kind, wall, ref in zip(loop.kinds, loop.wall, loop.latencies()):
        kinds.setdefault(kind, []).append((wall, ref))
    for kind, values in sorted(kinds.items()):
        print(f"  {kind:20s} {len(values):5d} requests, median ms wall "
              f"{statistics.median(w for w, _ in values) * 1e3:7.2f}, reference "
              f"{statistics.median(r for _, r in values) * 1e3:7.2f}; max ms wall "
              f"{max(w for w, _ in values) * 1e3:7.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gtpoly" / "__init__.py").is_file():
        print(f"gtbench: no gtpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    warmup_stream = workload.requests(random.Random(WARMUP_SEED))
    warmup = [next(warmup_stream) for _ in range(WARMUP_REQUESTS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, reference, gt = set_up(workload, warmup)
        setups.append((wall, reference))

    loop = run_loop(workload, gt, workload.requests(random.Random(args.seed)), args.seconds)
    describe(args.workload, args.seed, loop, setups)
    if args.trace:
        importlib.import_module("gtpoly.cli")  # so every layer has a home to wrap
        tracer = Tracer()
        tracer.install(gtpoly_modules())
        # the same seed again, so both passes see the same inputs
        traced = run_loop(workload, gt, workload.requests(random.Random(args.seed)),
                          args.seconds, tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        print(f"traced pass: {len(traced.wall)} requests, {len(tracer.start)} spans "
              f"written to {span_file.relative_to(ROOT)}; waiting time is 0 by "
              f"construction (one thread, no queues)")
        metrics = per_layer(traced, tracer, loop.ops_per_s())
        attempted = len(loop.wall) + len(traced.wall)
        failed = loop.failed + traced.failed
    else:
        metrics = end_to_end(loop, statistics.median(ref for _, ref in setups))
        attempted, failed = len(loop.wall), loop.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
