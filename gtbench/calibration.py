"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its host with other work, and the speed at which the
host runs pure Python code drifts by tens of percent within seconds.  To
keep those drifts out of the timings, the loop runs a fixed calibration
kernel between requests: exact elimination, a flood fill and an
interlacing count on fixed inputs, the same kinds of work gtpoly does.
It is written out here so that no change to gtpoly, or to the rest of
the benchmark, can touch it.  Each timing is then reported at the
*reference speed*, the speed at which the kernel takes `NOMINAL_S`:

    reported = measured * NOMINAL_S / (median kernel time around it)

Wall times as measured are printed beside the reported figures.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# median kernel time on a 2-vCPU Intel Xeon host with Python 3.11 in a
# quiet period; it only sets the scale of the reported figures
NOMINAL_S = 0.0010
# a timing is scaled by the kernel samples within this many of it on each side
_RADIUS = 4

_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5) for j in range(8)] for i in range(4)]
_ROWS = tuple(tuple(Fraction(v) for v in row) for row in (
    (3,), (4, 2), ("9/2", 3, 1), (5, 4, "5/2", 0), (6, 5, 3, 2, 0), (6, 6, 4, 3, 1, 0)))
_TOP = (4, 2, 1, 0)


def _eliminate() -> int:
    a = [list(row) for row in _MATRIX]
    rank = 0
    for c in range(len(a[0])):
        p = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        pivot = a[rank][c]
        a[rank] = [v / pivot for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def _flood() -> int:
    n = len(_ROWS)
    seen: dict[tuple[int, int], int] = {}
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            if (i, j) in seen:
                continue
            seen[(i, j)] = len(seen)
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                for c, d in ((a + 1, b + 1), (a, b + 1), (a - 1, b - 1), (a, b - 1)):
                    if (1 <= c <= d <= n and (c, d) not in seen
                            and _ROWS[d - 1][c - 1] == _ROWS[b - 1][a - 1]):
                        seen[(c, d)] = seen[(a, b)]
                        stack.append((c, d))
    return len(set(seen.values()))


def _rows_below(above: tuple[int, ...]) -> int:
    if len(above) == 1:
        return 1
    ranges = [range(above[i + 1], above[i] + 1) for i in range(len(above) - 1)]
    total = 0

    def pick(i: int, row: list[int]) -> None:
        nonlocal total
        if i == len(ranges):
            total += _rows_below(tuple(row))
            return
        for v in ranges[i]:
            pick(i + 1, row + [v])

    pick(0, [])
    return total


def kernel() -> None:
    """Fixed work of the kinds gtpoly does: exact rational elimination,
    a flood fill over a pattern, and an integer interlacing recursion."""
    _eliminate()
    for _ in range(4):
        _flood()
    _rows_below(_TOP)


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """Factor from measured to reference-speed time, given kernel times
    measured around the timing."""
    return NOMINAL_S / statistics.median(samples)


def local_speeds(samples: list[float], count: int) -> list[float]:
    """Reference-speed factor for each of `count` timings, where timing i ran
    between calibration samples i and i+1, from the samples within
    `_RADIUS` of that gap."""
    return [speed(samples[max(0, i - _RADIUS + 1):i + _RADIUS + 1]) for i in range(count)]
