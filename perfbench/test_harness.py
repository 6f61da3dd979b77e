"""Smoke test of the benchmark harness on tiny grids.

Checks that every metric BENCHMARK.json names comes out on the result line
with its declared unit: the end-to-end metrics for each workload of
``--workload all`` and the per-layer metrics of a traced run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _results(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--tiny",
                           "--seconds", "0.01", "--seed", "3", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert lines, proc.stdout
    return proc.stdout, lines


def _printed(out, prefix, name):
    """The human-readable line for one metric: "<prefix> <name> <value> <unit>"."""
    lines = [ln.split() for ln in out.splitlines() if ln.startswith(f"{prefix} {name} ")]
    assert len(lines) >= 1, name
    return lines[0][3]


def _check(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], float), name


def test_every_end_to_end_metric_printed_for_every_workload():
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out, lines = _results("--workload", "all", "--trace", "0")
    assert len(lines) == len(spec["workloads"])
    for w in spec["workloads"]:
        assert f"== {w['name']}" in out
    for result in lines:
        _check(result, declared)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in declared.items():
        assert _printed(out, "metric", name) == unit


def test_every_per_layer_metric_printed_when_traced():
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    out, lines = _results("--workload", "grid_scaling", "--trace", "1")
    _check(lines[-1], declared)
    for name, unit in declared.items():
        assert _printed(out, "layer", name) == unit
