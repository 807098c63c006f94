"""Host-speed probe: turns wall-clock seconds into reference seconds.

The machines this benchmark runs on are shared: the same pure-Python loop,
pinned to one CPU, flips between two speeds about 1.7x apart every 50 to
100 ms, and the share of slow time drifts over minutes (README.md,
"Noise").  Wall-clock seconds of a program therefore say as much about the
neighbours as about the program.

A sample child calls `install()` before it imports extcheck.  From then on
a real-time interval timer interrupts it every `INTERVAL_S` seconds, and
the handler times a fixed pure-Python loop (`_probe`).  The loop allocates
no garbage-collected object, so the program's heap cannot slow it down; it
only reads how fast this CPU runs Python at that moment.

`reference_seconds(a, b, probes)` integrates over [a, b] the factor
`REF_PROBE_NS / probe_ns`, so an interval run at the speed where the probe
takes `REF_PROBE_NS` counts its own length, and one run at half that speed
counts half.  A change to the program moves reference seconds as it moves
wall seconds; a change in the host's speed moves only the latter.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left

INTERVAL_S = 0.005
# The probe's duration on an uncontended 2.0 GHz Xeon vCPU (Python 3.11),
# the low end of its two speeds.  Any fixed value would do: it only sets the
# scale of a reference second.
REF_PROBE_NS = 33_000

# The interval timer and the signal handler belong to the whole process, so
# the probes recorded by the handler do too.
_TABLE = list(range(64))
_KEYS = {i: (i * 37) & 63 for i in range(64)}
_times = array("d")
_durations = array("q")


def _step(acc: int, i: int) -> int:
    return (acc + _TABLE[(acc + i) & 63] + _KEYS[i & 63]) & 0xFFFF


def _probe(signum, frame) -> None:
    start = time.perf_counter_ns()
    acc = i = 0
    while i < 200:
        acc = _step(acc, i)
        i += 1
    _durations.append(time.perf_counter_ns() - start)
    _times.append(time.monotonic())


def install() -> None:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> list[list[float]]:
    """Stop the timer; return the probes as [monotonic time, ns] pairs."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    return [[t, d] for t, d in zip(_times, _durations)]


def reference_seconds(a: float, b: float, probes) -> float:
    """Reference seconds in the monotonic interval [a, b].

    Between two probes the factor is the mean of theirs; before the first
    probe and after the last, it is that probe's.  Without probes the
    interval counts its own length.
    """
    if b <= a:
        return 0.0
    if not probes:
        return b - a
    times = [p[0] for p in probes]
    factors = [REF_PROBE_NS / p[1] for p in probes]
    total = 0.0
    # Pieces: (-inf, t0], (t0, t1], ..., (t_last, +inf), each with a factor.
    k = bisect_left(times, a)
    lo = a
    while lo < b:
        if k == 0:
            hi, f = min(b, times[0]), factors[0]
        elif k == len(times):
            hi, f = b, factors[-1]
        else:
            hi, f = min(b, times[k]), (factors[k - 1] + factors[k]) / 2
        total += (hi - lo) * f
        lo = hi
        k += 1
    return total
