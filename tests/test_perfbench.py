"""The benchmark's workloads build and warm up against this tree, so a change
to what ``perfbench/`` calls in ``regraph`` fails here, not in a benchmark run.
``perfbench/workloads.py`` is loaded from its file as it is."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_builds_and_warms_up(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    workloads = module.build()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in declared)
    for workload in workloads.values():
        workload.warm_up()
