"""One-off timings of the ROADMAP's seed workloads, for the README table.

Usage, from the root of a source checkout:

    python3 gtbench/baselines.py

These are informational rows, not benchmark workloads.  Each row is the
median of a few runs (one for the long sweep), in wall seconds as
measured and at the reference speed of `calibration`.
"""

from __future__ import annotations

import statistics
import sys
import time
from itertools import product

import run  # puts gtbench/ on sys.path and locates the checkout
import calibration


def timed(fn, repeats: int) -> tuple[float, float]:
    walls, refs = [], []
    for _ in range(repeats):
        before = [calibration.measure() for _ in range(5)]
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        after = [calibration.measure() for _ in range(5)]
        walls.append(wall)
        refs.append(wall * calibration.speed(before + after))
    return statistics.median(walls), statistics.median(refs)


def main() -> int:
    if not (run.ROOT / "src" / "gtpoly" / "__init__.py").is_file():
        print("no gtpoly sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    gt = run.load_gtpoly(("gtpoly", "gtpoly.cli"))
    from gtpoly.cli import WORKED_SPEC
    from gtpoly.family import family_spec

    def sweep():
        for values in product(range(5), repeat=6):
            gt.enumerate_vertices(gt.PolytopeSpec(values[:3], values[3:]))

    rows = [
        ("n=3 DD sweep over all 15,625 specs with entries 0..4", sweep, 1),
        ("`counterexample(25)`", lambda: gt.counterexample(25), 3),
        ("`kostka((6,5,4,3,2,1,0),(3,)*7)`",
         lambda: gt.kostka((6, 5, 4, 3, 2, 1, 0), (3,) * 7), 5),
        ("`ehrhart_polynomial` of the k=2 family spec",
         lambda: gt.ehrhart_polynomial(family_spec(2)), 5),
        ("`enumerate_vertices` of the worked example",
         lambda: gt.enumerate_vertices(WORKED_SPEC), 9),
    ]
    print("| workload | wall s | reference-speed s |")
    print("|---|---|---|")
    for label, fn, repeats in rows:
        wall, ref = timed(fn, repeats)
        print(f"| {label} | {wall:.3f} | {ref:.3f} |")
    lines = sum(len(path.read_text().splitlines())
                for path in sorted((run.ROOT / "src").rglob("*.py")))
    print(f"| `src/` line count | {lines} lines | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
