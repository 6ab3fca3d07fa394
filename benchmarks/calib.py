"""Machine-speed calibration for the benchmark's timing metrics.

On a shared host the CPU speed one process gets drifts by a fifth or more
over minutes, so raw wall times of the same code disagree between runs.  The
benchmark therefore times a fixed calibration task between timed operations
(and after the timed part of every cold set-up process) and reports each
time at reference speed::

    reported = wall time * REF_UNIT_S / (mean time of one nearby calibration unit)

A unit is a fixed mix of interpreter, ``Fraction`` and small numpy work, the
same kinds of work dronecell does, and no change to dronecell can speed it
up.  ``REF_UNIT_S`` is a fixed scale: on the shared 2-core virtual machine
(Python 3.11) where the benchmark was written, one unit took 2.7 to 6 ms as
the load of the host changed from second to second.  Units run for at least
``SHARE`` of the time they calibrate.  Drift over seconds and minutes
cancels; the faster jitter does not, and is averaged out by the many
operations of a run.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy

REF_UNIT_S = 0.005
SHARE = 0.25

_MATRIX = numpy.random.default_rng(0).random((64, 64))


def unit() -> None:
    """One calibration unit: a fixed task, about REF_UNIT_S at reference speed."""
    s, seen = 0, {}
    for i in range(15000):
        s += i * i % 7
        seen[i & 255] = s
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(1, i % 17 + 1)
    for _ in range(5):
        (_MATRIX @ _MATRIX).sum()


def unit_seconds(busy_s: float) -> float:
    """Mean unit time over units run for at least SHARE * ``busy_s`` (one at least)."""
    total, count = 0.0, 0
    while count == 0 or total < SHARE * busy_s:
        t0 = time.perf_counter()
        unit()
        total += time.perf_counter() - t0
        count += 1
    return total / count


def at_reference(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while one unit took ``unit_s``, at reference speed."""
    return seconds * REF_UNIT_S / unit_s
