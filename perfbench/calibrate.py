"""Machine-speed calibration for the end-to-end times.

On a small shared VM the same pass can take half as long again from one
minute to the next, because neighbouring machines load the host, and CPU
time slows down as much as wall time.  So each worker times a fixed unit
of interpreter work just before and just after its pass, on the same
CPU, and the harness rescales the pass's times to the reference speed at
which one unit takes ``REFERENCE_UNIT_S``:

    time at reference speed = time as measured * REFERENCE_UNIT_S / unit time

The unit is standard-library code only, so a change to the program never
changes it.  A calibrator on the other CPU was tried and tracks worse:
the two vCPUs slow down independently.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import List

# a unit's time at the reference speed: about its quiet-host time on a
# 2-vCPU Xeon VM with Python 3.11
REFERENCE_UNIT_S = 0.065
# units timed before and again after each pass; the median of all is
# the pass's unit time
UNITS = 12


class _Node:
    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload

    def __eq__(self, other):
        return isinstance(other, _Node) and (self.kind, self.payload) == (other.kind, other.payload)

    def __hash__(self):
        return hash((self.kind, self.payload))


def unit():
    """Fixed interpreter work of the program's kind: small objects with
    Python-level hashing, frozensets, dicts, sorting, exact fractions."""
    rng = random.Random(7)
    nodes = [_Node(i % 3, i) for i in range(400)]
    seen: dict = {}
    acc = 0
    for r in range(3000):
        key = frozenset(nodes[i] for i in sorted(rng.sample(range(400), 6)))
        seen[hash(key) & 1023] = key
        window = nodes[r % 340:r % 340 + 60]
        acc += sum(1 for n in key if n.payload % 2) + len({(n.kind, n.payload % 5) for n in window})
    return acc, len(seen), sum(Fraction(i, i + 3) for i in range(1, 300))


def unit_times() -> List[float]:
    """Times of ``UNITS`` units, run back to back."""
    times = []
    for _ in range(UNITS):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times
