"""Reference speed of the machine, for the timing metrics.

The shared 2-vCPU VM this benchmark was written on changes speed by a
factor of up to 1.8 within seconds, and a state can last a minute; the
ops of a run move together, in CPU time as well as wall time.  Runs of
the same code then spread by more than any useful bound.  So each timed
op is paired with one run of a fixed kernel, timed just before the op
and outside its span, and the timing metrics are given at reference
speed:

    latency * REFERENCE_S / mean(kernel times of the ops around it)

The mean leaves out the largest and smallest time of the window, so
that one kernel run hit by preemption does not rescale its neighbours.
Set-up time, measured in other interpreters just before the loop, is
scaled by the median factor of the run.

The kernel is pure-Python ``Fraction`` and integer work, as in the
``exact`` and ``search`` workloads, whose ops it tracks closely.
``qgrid`` (numpy on arrays of megabytes) and set-up (imports) follow
it only in part: scaled, their runs spread as much or more within a set
of ten, but sets of runs made in different machine states differ much
less (see perfbench/README.md).  The kernel is part of the benchmark, not of the
program, so a change to the program moves the reported times as it
moves the measured ones.  The report prints the unscaled figures beside
the scaled ones.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on that VM when the benchmark was added; sets the
# scale only.
REFERENCE_S = 0.0027
# Kernel times taken around each op: the op's own and four on each side.
WINDOW = 4


def kernel() -> int:
    """Fraction sums with growing denominators, big-integer reductions
    and dict updates, as in the exact layers."""
    total = Fraction(0)
    table = {}
    for i in range(1, 500):
        total += Fraction(i % 7 + 1, i)
        table[(i * 2654435761) % 1000003] = total.numerator % 97
    return len(table)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scales(kernel_times: list) -> list:
    """Factor to reference speed for each op, from the kernel times of the
    ops around it in the order they ran."""
    out = []
    for i in range(len(kernel_times)):
        window = sorted(kernel_times[max(0, i - WINDOW):i + WINDOW + 1])
        if len(window) > 2:
            window = window[1:-1]
        out.append(REFERENCE_S / statistics.fmean(window))
    return out
