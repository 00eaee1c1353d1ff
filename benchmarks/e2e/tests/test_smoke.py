"""A ``--smoke`` pass of every workload prints every declared metric."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent
ROOT = HARNESS.parent.parent
LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(trace):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if trace else "end_to_end"]
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            workload, name, _, unit, samples = match.groups()
            printed[(workload, name)] = (unit, int(samples))
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    for workload in benchmark["workloads"]:
        for entry in declared:
            unit, samples = printed[(workload["name"], entry["name"])]
            assert unit == entry["unit"] and samples >= 1
            value = summary["metrics"][f"{workload['name']}.{entry['name']}"]
            assert value["unit"] == entry["unit"]
            assert isinstance(value["value"], (int, float))
