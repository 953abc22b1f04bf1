"""Host speed, read from a fixed calibration kernel between operations.

The benchmark runs on a few cores of a shared host whose speed swings by
a quarter or more over seconds to minutes, as other tenants come and go:
the same enforce-large operation on the same input takes 0.31 s in one
window and 0.52 s in the next, and this kernel swings with it. A run's
median over raw wall times therefore mostly reports which windows the
run fell into.

`Speed` times the kernel between operations (never inside one) and
scales each operation's wall time by CAL_REF_S over the kernel time
measured around it: a scaled time is the time the operation would take
on a host where the kernel takes CAL_REF_S. The kernel is part of the
benchmark, not of drlcsp, so a change to drlcsp moves scaled times
as it moves raw ones. Raw times are printed beside them.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# The kernel's time at the reference speed (about the slower of the
# speeds seen on a 2-vCPU Xeon host with Python 3.11).
CAL_REF_S = 0.009
# Busy time between two calibrations, and kernel runs per calibration.
CAL_EVERY_S, CAL_REPEAT = 0.4, 3

_TABLE = [[(i * j + 3 * i) % 64 for j in range(64)] for i in range(64)]
_DOC = json.dumps({"name": "calibration", "table": [[(i * j) % 37 for j in range(40)] for i in range(40)]})


def kernel() -> int:
    """Fixed work in four parts of similar length: small-dict updates,
    composition through a 64x64 operation table, building and reading a
    dict of tuple keys, and a JSON round trip. Together they track the
    host's swings, as seen in the drlcsp workloads' own times, about as
    closely as the best single part does on each workload; reads spread
    over a large buffer and small file round trips tracked worst."""
    table = dict.fromkeys(range(1024), 0)
    x = total = 0
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
        total += table[(x >> 10) & 1023] & 7
    t = _TABLE
    for _ in range(2):
        for a in range(0, 64, 2):
            row = t[a]
            for b in range(64):
                tr = t[row[b]]
                for c in range(0, 64, 16):
                    total ^= tr[c]
    entries = {}
    for i in range(4000):
        entries[(i, i & 7)] = [i, i + 1]
    for value in entries.values():
        total += value[0]
    for _ in range(3):
        total += len(json.loads(_DOC)["table"])
        total += len(json.dumps(json.loads(_DOC)))
    return total


def calibrate() -> float:
    """Median kernel time over CAL_REPEAT runs."""
    times = []
    for _ in range(CAL_REPEAT):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for work timed between two calibrations."""
    return 2 * CAL_REF_S / (before + after)


class Speed:
    """Calibrations interleaved with a closed loop's operations.

    Call `due(busy)` before each operation and `close()` after the last;
    `scale(times)` then maps each operation's wall time to the reference
    speed, using the mean of the calibrations just before and just after
    the window the operation ran in.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []  # (ops done before, kernel time)
        self._ops = 0
        self._last = float("-inf")

    def due(self, busy: float) -> None:
        if busy - self._last >= CAL_EVERY_S:
            self.marks.append((self._ops, calibrate()))
            self._last = busy
        self._ops += 1

    def close(self) -> None:
        self.marks.append((self._ops, calibrate()))

    def factors(self) -> list[float]:
        out: list[float] = []
        for (start, before), (end, after) in zip(self.marks, self.marks[1:]):
            out += [factor(before, after)] * (end - start)
        return out

    def scale(self, times: list[float]) -> list[float]:
        factors = self.factors()
        assert len(factors) == len(times), (len(factors), len(times))
        return [t * f for t, f in zip(times, factors)]
