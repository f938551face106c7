"""Run every workload (or some) over one or more seeds.

Usage (from the checkout root)::

    python3 perfbench/spread.py --seeds 1            # all workloads once
    python3 perfbench/spread.py --workload point-mem --seeds 1-10

Each run prints every end-to-end metric with its unit and the run's
error rate.  With two or more seeds it also prints, per metric, the
median of the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``setup_s``
has no spread requirement; every other spread should stay below a third
of its bound.  Runs are sequential, one process at a time; the command
exits 1 if any run failed or answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    """The run's result line, or None when it printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"{workload} seed {seed} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    failures = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            wall = time.monotonic() - start
            if result is None or not result["correct"]:
                failures += 1
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            error_rate = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed} ({wall:.0f} s): " + ", ".join(
                f"{name}={metric['value']:.4g} {metric['unit']}"
                for name, metric in result["metrics"].items())
                + f", error_rate={error_rate:.4g}"
                + ("" if result["correct"] else "  WRONG ANSWERS"),
                flush=True)
        rows = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            rows[name] = {"median": mid, "spread": spread,
                          "bound": bounds.get(name), "values": series}
            flag = "" if name == "setup_s" or \
                spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:<15} {name:<24} median {mid:12.5g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
        summary[workload] = rows
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w") as out:
        json.dump(summary, out, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
