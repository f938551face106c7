"""Host speed probe: a fixed pure-Python kernel timed beside the workload.

The benchmark shares a few cores of a host with other machines, and the
host's speed drifts: for minutes at a time every instruction runs up to
1.6 times slower, and process CPU time slows with it, so neither wall
time nor CPU time of the program alone repeats from run to run.  The
probe times a fixed kernel -- dictionary lookups, set intersections,
struct unpacking, sorting, small tuples -- between units of the
workload's own work, in the load generator's thread, and measures it in
that thread's CPU time, so a server thread holding the interpreter lock
does not count against it.  The kernel calls no program code, so no
change to the program can move it.

``slowness_at(t)`` is the median time of the kernel runs nearest to
the instant ``t`` over ``REFERENCE_S``.  run.py divides each timed unit
of the workload -- a latency, a slice's duration, a set-up -- by the
slowness at that unit, which reports the run as if the host had run at
the reference speed throughout; the host speeds up and slows down
within seconds, so each unit is scaled by the probe runs beside it
rather than by one figure for the whole run.  The unscaled values and
the run's median slowness are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import struct
import time

from common import median

#: Kernel time that counts as slowness 1.0 (a unit, not a target):
#: about the kernel's time between units of work when the 2-vCPU Intel
#: Xeon (2.1 GHz) host the benchmark was written on runs undisturbed,
#: under CPython 3.11.
REFERENCE_S = 0.010


def _state():
    rng = random.Random(12345)
    keys = [f"a{rng.randrange(10 ** 6)}" for _ in range(60_000)]
    table = {key: (i, key[::-1]) for i, key in enumerate(keys)}
    sets = [frozenset(rng.sample(range(5_000), 300)) for _ in range(40)]
    probes = [keys[rng.randrange(len(keys))] for _ in range(20_000)]
    blob = struct.pack("<4096I", *range(4096))
    return table, sets, probes, blob


def _kernel(state) -> int:
    table, sets, probes, blob = state
    acc = 0
    for key in probes:
        acc += table[key][0]
    for left, right in zip(sets, sets[1:]):
        acc += len(left & right)
    for offset in range(0, len(blob), 64):
        acc += sum(struct.unpack_from("<16I", blob, offset))
    acc += len(sorted(probes[:5_000])[0])
    pairs = [(j, str(j)) for j in range(5_000)]
    acc += len({text: pair for pair in pairs for text in pair[1:]})
    return acc


class SpeedProbe:
    """Times the kernel on demand and keeps every timing of the run."""

    def __init__(self) -> None:
        self._state = _state()
        _kernel(self._state)          # warm the interpreter's caches
        #: Kernel times (thread CPU seconds) and the instants
        #: (``perf_counter``) they ended, in order.
        self.samples: list[float] = []
        self.at: list[float] = []

    def sample(self) -> None:
        """One kernel run, in this thread's CPU time (about 15 ms)."""
        start = time.thread_time()
        _kernel(self._state)
        self.samples.append(time.thread_time() - start)
        self.at.append(time.perf_counter())

    def block(self, n: int = 20) -> None:
        for _ in range(n):
            self.sample()

    def slowness(self) -> float:
        """The whole run's median slowness (reported, not applied)."""
        return median(self.samples) / REFERENCE_S

    def slowness_at(self, instant: float, k: int = 3) -> float:
        """Median slowness of the ``k`` kernel runs nearest ``instant``."""
        i = bisect.bisect_left(self.at, instant)
        lo, hi = max(0, i - k), min(len(self.at), i + k)
        nearest = sorted(range(lo, hi),
                         key=lambda j: abs(self.at[j] - instant))[:k]
        return median([self.samples[j] for j in nearest]) / REFERENCE_S
