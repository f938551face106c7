"""Count metrics repeat exactly for a fixed seed.

Two traced single-client runs of ``point-mem`` and ``join-prefix`` with
the same seed must report identical count metrics (the ``*_per_query``
counters and the ``join.prefix_*`` counts): later claims that rest on a
count compare two program versions through these numbers.  One run on a
second seed is recorded beside them in ``.perfbench/determinism.json``.

Run from the checkout root::

    python3 -m pytest perfbench/test_determinism.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith("_per_query") or name.startswith("join.prefix_")}


@pytest.mark.parametrize("workload", ["point-mem", "join-prefix"])
def test_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, 1)
    second = traced_counts(workload, 1)
    other_seed = traced_counts(workload, 2)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "determinism.json")
    record = {}
    if os.path.exists(path):
        with open(path) as handle:
            record = json.load(handle)
    record[workload] = {"seed 1": first, "seed 1 again": second,
                        "seed 2": other_seed}
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    assert first == second
    assert any(first.values())
