"""Shared helpers: paths inside the checkout, quantiles, sizes, memory."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import sys

#: The checkout root: this package's parent directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Program source tree the benchmark imports (the program is pure Python).
SOURCE = os.path.join(ROOT, "src")
#: Cores this process may run on (what ``nproc`` prints), read before
#: :func:`pin_to_one_cpu` narrows them: the server keeps ``workers`` =
#: ``nproc`` the way ``nestcontain serve`` sets it.
NPROC = len(os.sched_getaffinity(0))
#: Scratch space for indexes and trace dumps, inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench")


def pin_to_one_cpu() -> None:
    """Run this process and every thread it starts on one CPU.

    The server, its workers and the load generator share one
    interpreter, so each request hands the GIL between threads.  Spread
    over two virtual CPUs, a hand-off can wake a thread on the other
    CPU, and on a shared host that wake-up sometimes turns slow for
    minutes at a time: served reads then took five to six times longer
    with the same server stage times, and pinned they did not.  On one
    CPU the hand-offs stay on it, and the
    speed probe (calibrate.py) measures the CPU the work runs on.  The
    highest-numbered CPU is taken because CPU 0 usually also serves
    device interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the convention of the server's reservoirs)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def slice_rates(done_at: list[float], start: float, end: float,
                width: float = 1.0) -> tuple[list[float], list[float]]:
    """Completion rates of consecutive slices of about ``width`` seconds.

    Each slice holds the same number of completions and is timed from
    completion to completion, so every rate is a measured duration
    rather than a whole count per fixed bucket.  Returns the rates and
    the middle instant of each slice.
    """
    n_slices = max(1, int((end - start) // width))
    per_slice = (len(done_at) - 1) // n_slices
    if per_slice < 1:
        return [], []
    bounds = [(done_at[i * per_slice], done_at[(i + 1) * per_slice])
              for i in range(n_slices)]
    return ([per_slice / (t1 - t0) for t0, t1 in bounds],
            [(t0 + t1) / 2 for t0, t1 in bounds])


def peak_rss_mib() -> float:
    """Peak resident set of this process (it hosts the index) in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def files_bytes(paths: list[str]) -> int:
    return sum(os.path.getsize(path) for path in paths
               if os.path.exists(path))


def fresh_dir(name: str) -> str:
    path = os.path.join(WORKDIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def environment() -> dict[str, object]:
    import numpy
    return {
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }
