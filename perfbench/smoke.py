"""Smoke check of the benchmark itself, at minimal size.

    python3 perfbench/smoke.py

1. For every workload, one round with ``--trace 0`` and one with
   ``--trace 1``: the last line must name every end-to-end (resp. per-layer)
   metric of BENCHMARK.json with its unit, and no op may fail.
2. Every op of every workload is run once with its output corrupted before
   the check; each must count as a failed op, and the run must go on.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check holds; takes about two minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def _last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(spec: dict, names: list[str], problems: list[str]) -> None:
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = _last_json(proc.stdout) if proc.returncode == 0 else None
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {proc.returncode}, no result\n{proc.stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"smoke: {where}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} ops failed", flush=True)


def _corrupt_cli(out: Path) -> None:
    """Break the one property that a CLI kind's check looks at first."""
    path = out / "report.json"
    report = json.loads(path.read_text())
    kind, body = report["kind"], report["body"]
    if kind == "poisson-test":
        body["rows"][0]["tv"] = 1.5
    elif kind == "grow":
        lines = (out / "events.csv").read_text().splitlines()
        run_id, time, _, rest = lines[1].split(",", 3)
        lines[1] = ",".join((run_id, time, "merged", rest))
        (out / "events.csv").write_text("\n".join(lines) + "\n")
    elif kind == "limit-sim":
        rows = (out / "trajectory.csv").read_text().splitlines(keepends=True)
        (out / "trajectory.csv").write_text("".join(rows[:-1]))
    elif kind == "spectrum":
        body["eigenvalues"].reverse()
    elif kind == "gff-check":
        body["pairs"][0]["numeric"] += 1e-3
    path.write_text(json.dumps(report))


def _corrupt(output):
    """Damage an op's output in place the way a broken program might."""
    if isinstance(output, tuple) and len(output) == 3 and isinstance(output[2], Path):
        _corrupt_cli(output[2])
    elif isinstance(output, np.ndarray):  # growth_count_samples
        output.flat[0] = -1
    elif isinstance(output, dict):  # coupling report
        output["plus_violations"] += 1
    elif isinstance(output, tuple) and isinstance(output[0], np.ndarray):  # simulate_limit
        output[0].flat[0] = -1
    elif isinstance(output, tuple):  # switching chain: drop a visited graph
        output[0].pop()
    else:  # trace identity: one NB-trace count off by one
        output[0][0][-1] += 1
    return output


def check_corruption(names: list[str], problems: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    work = ROOT / ".perfbench" / "smoke"
    try:
        for name in names:
            workload = workloads.build()[name]
            workload.warm_up()
            for index, op in enumerate(workload.ops):
                bad = dataclasses.replace(
                    op, run=lambda seed, out, op=op: _corrupt(op.run(seed, out)))
                record = workloads.run_op(bad, index, workloads.op_seed(1, index), work)
                status = record.error or "not detected"
                print(f"smoke: corrupted {name}/{op.name}: {status}", flush=True)
                if not record.error.startswith("check failed"):
                    problems.append(f"corrupted output of {name}/{op.name} passed its check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "tv-census",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        print(f"smoke: bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
        if proc.returncode == 0 or _last_json(proc.stdout) is not None:
            problems.append("benchmark ran or printed a result without the regraph sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []
    check_metrics(spec, names, problems)
    check_corruption(names, problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"smoke: FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
