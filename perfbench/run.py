"""Benchmark runner for regraph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``regraph`` from its
``src/``.  One process, one client, closed loop: after an untimed warm-up op
the workload's fixed op list (a round) runs again and again for ``S``
seconds (a round starts only if it should end in time), op ``i`` seeded
from (N, i).  Every op's output is checked.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_ref``: median over rounds of a round's wall time in reference
  units: the sum over the round's ops (the workload's fixed op list) of the
  op's wall time divided by the wall time of the reference work timed just
  before and after it (see ``workloads.reference``).  On a shared host the
  raw times swing by half over tens of seconds; the ratio does not;
* ``cpu_ref``: the same with user + system CPU times of the process;
* ``setup_s``: median, over several fresh interpreters, of the time from
  start to ready (``import regraph.cli`` plus the warm-up op);
* ``peak_rss_mb``: peak resident set of this process, in MiB.

The raw medians ``wall_s`` and ``cpu_s`` of a round, and of the reference,
are printed above them.  ``error_rate`` (failed over attempted ops) is
printed with them and is the final line's ``failed`` / ``attempted``.

With ``--trace 1`` every round runs twice, untraced and traced in
alternating order (see ``layers.py``), and the metrics are the per-layer
ones.  Run records (environment, per-op seeds,
times and digests) and the traced run's spans (gzipped CSV) go to
``.perfbench/runs/`` in the checkout.

Worker-pool scaling is deliberately not measured: with two shared cores it
would measure the scheduler, not regraph.  BLAS threads are capped at the
number of usable cores through this process's environment.
"""

from __future__ import annotations

import os
import sys


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


NPROC = _cap_blas_threads()
os.environ.pop("REGRAPH_SEED", None)  # it would override every op's seed

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5

# A fresh interpreter made ready the way a CLI invocation is: the argument
# is the workload whose warm-up op fills the caches.
_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import regraph.cli
import workloads
workloads.build()[sys.argv[3]].warm_up()
print("ready", flush=True)
"""


def measure_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited with code {code} before it was ready")
    return ready


# ---------------------------------------------------------------------------
# environment


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "regraph").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "regraph_commit": _git_commit(ROOT),
        "regraph_src_sha256": src_digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.4f}, q3={q3:.4f}"


def _check_leaders(workload, ranking: list[tuple[str, float]]) -> str:
    top = len(workload.leaders) + 1 if len(workload.leaders) > 1 else 1
    leading = [name for name, _ in ranking[:top]]
    missing = [" / ".join(group) for group in workload.leaders
               if not any(name in leading for name in group)]
    shown = ", ".join(f"{name} {self_s:.4f} s" for name, self_s in ranking[:top + 2])
    if missing:
        return (f"MISMATCH: not in the top {top} self times: {'; '.join(missing)} "
                f"(top, per round: {shown})")
    return f"as expected (top, per round: {shown})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="regraph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "regraph" / "cli.py").is_file():
        print(f"error: no regraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import regraph
    import regraph.cli  # noqa: F401
    if SRC not in Path(regraph.__file__).resolve().parents:
        print(f"error: imported regraph from {regraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    known = workloads.build()
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    workload = known[args.workload]
    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# closed loop, one client: ops run one after another with workers = 1; "
          f"worker-pool scaling is not measured ({NPROC} shared cores would measure "
          f"the scheduler, not regraph)")
    print("# env " + json.dumps(env, sort_keys=True))

    runs = ROOT / ".perfbench" / "runs"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    runs.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.trace else [measure_setup(args.workload) for _ in range(SETUP_RUNS)]
        tracer = layers.Tracer() if args.trace else None
        if tracer is not None:
            tracer.op = "warm-up"
            tracer.install()
        try:
            workload.warm_up()
        finally:
            if tracer is not None:
                tracer.uninstall()

        records: list[workloads.OpRecord] = []
        round_no = 0
        start, round_s = time.perf_counter(), 0.0
        # a round starts only if, taking as long as the last one, it ends in time
        while round_no == 0 or time.perf_counter() - start + round_s <= args.seconds:
            round_start = time.perf_counter()
            # traced runs alternate which pass of a round goes first
            passes = [False] if tracer is None else [round_no % 2 == 1, round_no % 2 == 0]
            for traced in passes:
                if not traced:
                    records += workloads.run_round(workload, round_no, args.seed, work)
                    continue
                tracer.install()
                try:
                    records += workloads.run_round(workload, round_no, args.seed, work, tracer)
                finally:
                    tracer.uninstall()
            round_no += 1
            round_s = time.perf_counter() - round_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:  # the same op traced and untraced must agree
        digests = {(r.index, r.traced): r.digest for r in records}
        for r in records:
            if r.traced and not r.error and r.digest != digests[(r.index, False)]:
                r.error = "digest differs from the untraced run of the same op"
    failed = sum(1 for r in records if r.error)
    attempted = len(records)

    def round_totals(traced: bool, value) -> list[float]:
        totals = [0.0] * round_no
        for r in records:
            if r.traced == traced:
                totals[r.round] += value(r)
        return totals

    walls = round_totals(False, lambda r: r.wall_s)
    cpus = round_totals(False, lambda r: r.cpu_s)
    if tracer is None:
        # each op's time in units of the reference timed around it
        wall_refs = round_totals(False, lambda r: r.wall_s / r.ref_wall_s)
        cpu_refs = round_totals(False, lambda r: r.cpu_s / r.ref_cpu_s)
        refs = [r.ref_wall_s for r in records]
        for name, values, unit in (("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                                   ("reference wall_s", refs, "s")):
            print(f"# raw {name} = {statistics.median(values):.6g} {unit} "
                  f"({_spread(values)}; moves with the host's speed)")
        metrics = {
            "wall_ref": (statistics.median(wall_refs), "ref", _spread(wall_refs)),
            "cpu_ref": (statistics.median(cpu_refs), "ref", _spread(cpu_refs)),
            "setup_s": (statistics.median(setups), "s", _spread(setups)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB", "ru_maxrss"),
        }
    else:
        traced_walls = round_totals(True, lambda r: r.wall_s)
        round_ops = {f"r{k}.{j}" for k in range(round_no) for j in range(len(workload.ops))}
        metrics = {
            name: (value, unit, "warm-up op" if name.startswith("warmup.") else "per traced round")
            for name, (value, unit) in layers.layer_metrics(
                tracer.spans, round_ops, round_no, sum(traced_walls), sum(walls)).items()
        }
        for name in tracer.absent:
            print(f"# absent: {name} (not found in this commit; reported as 0)")
        ranking = layers.self_time_ranking(tracer.spans, round_ops, round_no)
        print(f"# dominance on {args.workload}: {_check_leaders(workload, ranking)}")
        self_s = sum(metrics[f"{layer.name}.self_s"][0] for layer in layers.LAYERS)
        bench_s, traced_s = metrics["bench.self_s"][0], metrics["trace.wall_s"][0]
        print(f"# accounting per round: layer self times {self_s:.4f} s + bench.self_s "
              f"{bench_s:.4f} s = {self_s + bench_s:.4f} s; traced wall_s {traced_s:.4f} s")
        tracer.write_spans(runs / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    print(f"# error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} ops)")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": round_no,
        "metrics": {name: value for name, (value, _, _) in metrics.items()},
        "setup_s": setups, "ops": [asdict(r) for r in records],
    }
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
