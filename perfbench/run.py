"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload point-mem --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` splits the window into an untraced half and a traced half
and reports the per-layer metrics (see layers.py) plus the tracing
overhead between the halves.  The report goes to standard output; its
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong answer prints ``correct: false``
and exits 1.  Without the program's source tree beside the benchmark
the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (ROOT, SOURCE, WORKDIR, environment,  # noqa: E402
                    median, pin_to_one_cpu, quantile)

#: name -> unit of the end-to-end metrics (BENCHMARK.json lists these).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "index_bytes_per_record": "B",
}

#: What ``throughput_per_s`` counts on each workload.
THROUGHPUT_OF = {
    "point-mem": "queries completed per second (query_qps)",
    "serve-disk4": "queries completed per second (query_qps)",
    "ingest-twitter": "records committed per second under reads "
                      "(ingest_rps)",
    "join-prefix": "joined queries per second (join_qps)",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, outcome, setups: list[tuple[float, float]],
               rss_mib: float, probe=None) -> dict:
    """The end-to-end metrics; with ``probe``, times are scaled unit by
    unit to the reference host speed (calibrate.py).

    ``setups`` holds the start and end instant of each set-up.
    """
    slowness = probe.slowness_at if probe is not None else None
    setup_s = [(t1 - t0) / (slowness((t0 + t1) / 2, k=10) if slowness
                            else 1.0) for t0, t1 in setups]
    lat_ms = [s * 1e3 for s in outcome.latency_sample(slowness)]
    return {
        "setup_s": median(setup_s),
        "throughput_per_s": outcome.scaled_rate(slowness),
        "latency_p50_ms": quantile(lat_ms, 0.50),
        "latency_tail_ms": quantile(lat_ms, workload.tail_q),
        "peak_rss_mb": rss_mib,
        "index_bytes_per_record": workload.index_bytes_per_record(),
    }


def run_untraced(workload, seconds: float) -> tuple[dict, object, list]:
    from calibrate import SpeedProbe

    probe = SpeedProbe()
    setups = []
    for attempt in range(workload.n_setups):
        if attempt:
            workload.teardown()
            gc.collect()      # free the previous set-up before the next
        probe.block(5)        # the probe runs either side of each set-up
        setups.append(workload.setup_window())
    probe.block(5)
    workload.reset_server_metrics()
    workload.probe = probe
    outcome = workload.measure(seconds)
    workload.probe = None
    probe.block(5)
    rss = workload.peak_rss()
    server = workload.server_stats()
    workload.finish()
    workload.describe()
    workload.verify()
    metrics = end_to_end(workload, outcome, setups, rss, probe)
    raw = end_to_end(workload, outcome, setups, rss)
    workload.teardown()
    report = [f"host slowness: median {probe.slowness():.4f} over "
              f"{len(probe.samples)} speed-probe runs (each timed unit is "
              f"scaled by the probe runs beside it)",
              "unscaled: " + ", ".join(
                  f"{name}={raw[name]:.6g}" for name in
                  ("setup_s", "throughput_per_s", "latency_p50_ms",
                   "latency_tail_ms")),
              "setup runs (s, unscaled): " + ", ".join(
                  f"{t1 - t0:.3f}" for t0, t1 in setups),
              f"latency samples: {len(outcome.latencies_s)} "
              f"(tail = p{workload.tail_q * 100:g}); unscaled ms at "
              f"p90/p95/p99/p99.9: " + " / ".join(
                  f"{quantile(outcome.latencies_s, q) * 1e3:.4g}"
                  for q in (0.90, 0.95, 0.99, 0.999)),
              f"throughput slices: {len(outcome.rates)}, unscaled mean "
              f"{sum(outcome.rates) / max(1, len(outcome.rates)):.5g}/s"]
    if outcome.latency_keys is not None:
        report.append(
            f"latency_p50_ms and latency_tail_ms are read from "
            f"{len(set(outcome.latency_keys))} per-query latencies "
            f"(each the median of that query's timings)")
    if server is not None:
        report.append(f"server: coalesce ratio "
                      f"{server['coalesce_ratio']}, errors "
                      f"{server['errors_by_code']}, stage p50 ms " + ", ".join(
                          f"{stage} {row['p50']:g}" for stage, row
                          in server["stages_ms"].items()))
    if "late_ms_p99" in outcome.extra:
        report.append(f"open-loop generator ran late by up to "
                      f"{outcome.extra['late_ms_p99']:.1f} ms (p99, "
                      f"unscaled)")
    return metrics, outcome, report


def run_traced(workload, seconds: float) -> tuple[dict, object, list]:
    from layers import compute, zero_layers
    from tracer import Tracer, install

    workload.setup_window()
    untraced = workload.measure(seconds / 2)
    workload.reset_server_metrics()
    tracer = Tracer()
    before = workload.counters()
    installed = install(tracer)
    cpu0, wall0 = time.thread_time(), time.perf_counter()
    try:
        traced = workload.measure(seconds / 2, tracer)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.thread_time() - cpu0
    finally:
        installed.uninstall()
    after = workload.counters()
    server = workload.server_stats()
    workload.finish()
    workload.describe()
    workload.verify()
    metrics = compute(tracer=tracer, main_thread=threading.get_ident(),
                      untraced=untraced, traced=traced, before=before,
                      after=after, server=server, wall_s=wall_s,
                      cpu_s=cpu_s)
    workload.teardown()
    dump = os.path.join(WORKDIR, f"trace-{workload.name}.jsonl")
    n_spans = tracer.dump(dump)
    report = [f"trace: {n_spans} spans written to "
              f"{os.path.relpath(dump, ROOT)}",
              f"trace overhead: {metrics['trace.overhead']:.3f} "
              f"(untraced rate / traced rate - 1)",
              f"trace coverage: {metrics['trace.coverage']:.4f} "
              f"(layer self times + other over traced wall time)"]
    zeros = zero_layers(metrics)
    if zeros:
        report.append("layers reading zero on this workload: "
                      + ", ".join(zeros))
    if workload.name in ("point-mem", "join-prefix") and \
            abs(metrics["trace.coverage"] - 1.0) > 0.10:
        workload.wrong.append(f"trace coverage {metrics['trace.coverage']:.3f}"
                              " is outside 1 +/- 0.10")
    return metrics, traced, report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: program source not found under "
              f"{os.path.relpath(SOURCE, ROOT)}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from layers import PER_LAYER
    from workloads import POLICIES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - start
    try:
        workload.prepare()
        if args.trace:
            values, outcome, report = run_traced(workload, args.seconds)
            units = PER_LAYER
        else:
            values, outcome, report = run_untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(os.path.join(WORKDIR, workload.name),
                      ignore_errors=True)

    wrong = len(workload.wrong)
    attempted = max(1, outcome.attempted)
    failed = outcome.failed + wrong
    print(f"workload {workload.name}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + json.dumps(environment()))
    print("policies: " + json.dumps(POLICIES))
    print("workload facts: " + json.dumps(workload.facts))
    print(f"inputs generated in {generate_s:.3f} s (not in setup_s)")
    for line in report:
        print(line)
    if not args.trace:
        print(f"throughput_per_s counts {THROUGHPUT_OF[workload.name]}")
    print(f"error_rate: {failed / attempted:.6f} "
          f"({outcome.failed} failed or rejected + {wrong} wrong "
          f"of {attempted} attempted)")
    for message in workload.wrong[:20]:
        print(f"WRONG: {message}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
