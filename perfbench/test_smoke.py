"""Smoke test of the benchmark harness at a tiny size.

Runs every workload briefly, untraced and traced, through the same code
as a real run: set-up, preload, SIGKILL/restart durability checks, both
windows and the crash check.  From the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from harness import WrongAnswer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "view_update": {"employees": 12, "preload_writes": 6},
    "class_scan": {"people": 12, "preload_writes": 6},
    "membership": {"objects": 12, "preload_writes": 6},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_emits_every_metric(name, trace):
    result, info = bench.run(ROOT, name, seed=3, seconds=1, trace=trace,
                             sizes=TINY[name])
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, unit in expected.items():
        metric = result["metrics"][key]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)), key
    assert info["seed"] == 3 and info["host"]["nproc"] >= 1
    assert info["recovery_reps_s"] and info["setup_reps_s"]


def test_durability_check_catches_a_lost_write():
    wl = WORKLOADS["view_update"](5, TINY["view_update"])
    run = bench.Run(ROOT, wl)
    try:
        run.setup_rep()
        wl.written.add(0)  # the model claims a write the server never saw
        wire = run._wire()
        with pytest.raises(WrongAnswer):
            wl.check_durable(wire)
        wire.close()
    finally:
        run.close()


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(bench.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    units = {**bench.END_TO_END, **bench.PER_LAYER}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "view_update",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
