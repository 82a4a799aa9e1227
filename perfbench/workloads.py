"""The four workloads of the regraph benchmark, their ops and output checks.

Every workload is a closed loop with one client: a round runs the workload's
ops one after another, each with ``workers = 1`` (the CLI default), and the
next round starts when the last op has returned.  The inputs are the
committed ``configs/*.cfg`` files (plain ``key = value``, read with the CLI's
own parser); an op's only other input is its seed, derived from the workload
seed and the op's index.  CLI ops run through ``regraph.cli.main``, library
ops call the package's public functions.

Each op's ``check`` raises on a wrong output and otherwise returns a SHA-256
digest of the report body or returned array, so that two runs at one seed
can be compared op by op.  Checks use no regraph code.

Between ops a round times ``reference``, fixed work that runs no regraph
code, so that each op's time can be expressed in units of the reference
measured next to it (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from regraph import cli, gffcheck, graphs, growth, limitproc, poissonlab, spectra, walks

CONFIGS = Path(__file__).resolve().parent / "configs"
EVENT_KINDS = {"grown", "spontaneous", "split"}


class CheckError(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[int, Path], Any]  # (op seed, scratch directory) -> output
    check: Callable[[Any], str]  # output -> digest; raises on a wrong output


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warm_up: Callable[[], None]
    # groups of layers expected to lead the traced self times; one member of
    # each group should rank within the top len(leaders) + 1 (top 1 if alone)
    leaders: tuple[tuple[str, ...], ...]


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index`` (counted across rounds) under a workload seed."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


@dataclass
class OpRecord:
    round: int
    index: int
    name: str
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    digest: str
    error: str
    # mean time of the reference just before and just after the op
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0


def run_op(op: Op, index: int, seed: int, work: Path, round_no: int = 0,
           traced: bool = False) -> OpRecord:
    """Run and check one op; any exception counts as a failed op.  Only the
    op's own call is timed, not its check."""
    out = work / f"op{index}{'t' if traced else ''}"
    digest = error = ""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = op.run(seed, out)
    except Exception as exc:  # a failed op is recorded and the loop goes on
        output, error = None, f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if not error:
        try:
            digest = op.check(output)
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    if error:
        print(f"# op {index} ({op.name}, seed {seed}) failed: {error}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return OpRecord(round_no, index, op.name, seed, traced, wall, cpu, digest, error)


def run_round(workload: Workload, round_no: int, workload_seed: int, work: Path,
              tracer=None) -> list[OpRecord]:
    """Run the workload's op list once, timing the reference before the first
    op and after each one; op ids are tagged on the tracer."""
    records = []
    before = time_reference()
    for j, op in enumerate(workload.ops):
        index = round_no * len(workload.ops) + j
        if tracer is not None:
            tracer.op = f"r{round_no}.{j}"
        record = run_op(op, index, op_seed(workload_seed, index), work, round_no,
                        tracer is not None)
        after = time_reference()
        record.ref_wall_s = (before[0] + after[0]) / 2
        record.ref_cpu_s = (before[1] + after[1]) / 2
        records.append(record)
        before = after
    return records


# ---------------------------------------------------------------------------
# the reference: the speed of this host, measured next to every op
#
# On a shared host the same op runs up to 1.5 times slower for tens of
# seconds at a time, in wall and CPU time alike, as other tenants load the
# machine.  The reference is the same work every time and runs no regraph
# code: an interpreter loop and numpy permutation gathers, the two kinds of
# work regraph's kernels are made of.  A slow spell stretches it and the op
# next to it alike, so their ratio holds still while regraph's own cost
# shows in full.

_REF_PERMS = tuple(np.random.default_rng(0).permutation(200_000) for _ in range(4))


def reference() -> int:
    acc, table = 0, {}
    for i in range(150_000):
        acc += i * i % 7
        table[i & 1023] = acc
    x = np.arange(200_000)
    for i in range(60):
        x = _REF_PERMS[i & 3][x]
    return acc + int(x[0])


def time_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one run of ``reference``."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _params(name: str) -> dict[str, Any]:
    return cli.parse_config_file(CONFIGS / name)


def _as_list(value: Any) -> list:
    return list(value) if isinstance(value, list) else [value]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _digest_json(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _digest_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


# ---------------------------------------------------------------------------
# CLI ops


def _cli_op(kind: str, config: str, check_body: Callable[[dict, Path, dict], None]) -> Op:
    path = CONFIGS / config
    params = cli.parse_config_file(path)

    def run(seed: int, out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([kind, "--config", str(path), "--seed", str(seed),
                             "--out", str(out)])
        return code, seed, out

    def check(output) -> str:
        code, seed, out = output
        _expect(code == 0, f"{kind} exited with code {code}")
        report = json.loads((out / "report.json").read_text())
        _expect(report.get("kind") == kind, f"report.json echoes kind {report.get('kind')!r}")
        _expect(report.get("seed") == seed, f"report.json echoes seed {report.get('seed')!r}")
        check_body(report["body"], out, params)
        return _digest_json(report["body"])

    return Op(Path(config).stem, run, check)


def _check_poisson_test(body: dict, out: Path, p: dict) -> None:
    ns = _as_list(p["n_values"])
    rows = body["rows"]
    _expect([row["n"] for row in rows] == ns, "poisson-test needs one row per n, in order")
    for row in rows:
        _expect(0.0 <= row["tv"] <= 1.0, f"tv {row['tv']!r} outside [0, 1] at n={row['n']}")
    _expect(_line_count(out / "rows.csv") == len(ns) + 1, "rows.csv needs one row per n")


def _check_grow(body: dict, out: Path, p: dict) -> None:
    grid = _as_list(p["grid"])
    means = np.asarray(body["mean_counts_by_length"], dtype=float)
    _expect(means.shape == (len(grid), p["r"]), f"mean counts have shape {means.shape}")
    _expect(bool(np.all(means >= 0)), "negative mean cycle count")
    _expect(body["replicas"] == p["replicas"], "grow report lost replicas")
    # The grow report carries no vertex counts, so the monotone growth clock
    # is checked on the event times instead: nondecreasing within each run
    # and inside (s, s + T].
    s, horizon = float(p["s"]), float(p["s"]) + float(p["T"])
    last: dict[str, float] = {}
    for ev in _csv_rows(out / "events.csv"):
        _expect(ev["kind"] in EVENT_KINDS, f"unknown event kind {ev['kind']!r}")
        t = float(ev["time"])
        _expect(s < t <= horizon, f"event time {t} outside (s, s + T]")
        _expect(t >= last.get(ev["run_id"], -math.inf), "event times decrease within a run")
        last[ev["run_id"]] = t


def _check_limit_sim(body: dict, out: Path, p: dict) -> None:
    grid = _as_list(p["grid"])
    means = np.asarray(body["mean_counts_by_length"], dtype=float)
    _expect(means.shape == (len(grid), p["K"]), f"mean counts have shape {means.shape}")
    _expect(bool(np.all(means >= 0)), "negative mean atom count")
    rows = p["replicas"] * len(grid) * (len(body["classes"]) + p["K"])
    _expect(_line_count(out / "trajectory.csv") == rows + 1,
            f"trajectory.csv should hold {rows} rows")


def _check_spectrum(body: dict, out: Path, p: dict) -> None:
    vals = np.asarray(body["eigenvalues"], dtype=float)
    _expect(vals.shape == (p["n"],), f"{vals.size} eigenvalues for n={p['n']}")
    _expect(bool(np.all(np.isfinite(vals))), "non-finite eigenvalue")
    _expect(bool(np.all(np.diff(vals) <= 0)), "eigenvalues not sorted largest first")
    degree = 2 * p["d"]  # permutation model: a 2d-regular multigraph
    top = degree / (2 * math.sqrt(degree - 1))  # its degree, in unit scale
    _expect(abs(vals[0] - top) < 1e-8, f"top eigenvalue {vals[0]} != {top}")
    _expect(_line_count(out / "spectrum.csv") == p["n"] + 1, "spectrum.csv row count")


def _check_gff(body: dict, out: Path, p: dict) -> None:
    pairs = body["pairs"]
    _expect(len(pairs) == p["jmax"] * p["kmax"] * len(_as_list(p["lags"])), "gff pair count")
    for pair in pairs:
        err = abs(pair["numeric"] - pair["closed_form"])
        _expect(err < 1e-4, f"gff (j={pair['j']}, k={pair['k']}, lag={pair['lag']}) off by {err}")


# ---------------------------------------------------------------------------
# library ops


def _growth_count_samples_op() -> Op:
    p = _params("growth-count-samples.cfg")
    lags = _as_list(p["lags"])

    def run(seed: int, out: Path):
        return growth.growth_count_samples(p["d"], p["s"], lags, p["r"], p["replicas"], seed)

    def check(samples: np.ndarray) -> str:
        shape = (p["replicas"], 1 + len(lags), p["r"])
        _expect(samples.shape == shape, f"samples have shape {samples.shape}, want {shape}")
        _expect(samples.dtype.kind in "iu", f"samples have dtype {samples.dtype}")
        _expect(int(samples.min()) >= 0, "negative cycle count")
        return _digest_arrays(samples)

    return Op("growth-count-samples", run, check)


def _check_simple_regular(g, n: int, d: int) -> None:
    _expect(g.n == n, f"chain graph has {g.n} vertices")
    for v, nbrs in enumerate(g.neighbors):
        _expect(len(nbrs) == d and len(set(nbrs)) == d, f"vertex {v} has neighbours {nbrs}")
        _expect(v not in nbrs, f"loop at vertex {v}")
        for u in nbrs:
            _expect(v in g.neighbors[u], f"edge {v}-{u} is one-sided")
    _expect(len(g.edges) * 2 == n * d, "edge count is not n d / 2")


def _switching_chain_op() -> Op:
    p = _params("couplings-switching-chain.cfg")

    def run(seed: int, out: Path):
        rng = np.random.default_rng(seed)
        chain = graphs.SwitchingChain(graphs.sample_uniform_model(p["n"], p["d"], rng),
                                      p["r"], rng)
        states, moved = [chain.graph], []
        for _ in range(p["steps"]):
            moved.append(chain.step())
            if moved[-1]:
                states.append(chain.graph)
        return states, moved

    def check(output) -> str:
        states, moved = output
        _expect(len(moved) == p["steps"], "chain ran the wrong number of steps")
        _expect(len(states) == 1 + sum(moved), "chain changed graph without accepting")
        for g in states:
            _check_simple_regular(g, p["n"], p["d"])
        return _digest_json([list(map(bool, moved)), sorted(states[-1].edges)])

    return Op("switching-chain", run, check)


def _coupling_report_op() -> Op:
    p = _params("couplings-coupling-report.cfg")

    def run(seed: int, out: Path):
        return poissonlab.coupling_monotonicity_report(p["n"], p["d"], p["r"], p["trials"], seed)

    def check(report: dict) -> str:
        _expect(report["minus_violations"] == 0, f"minus violations {report['minus_violations']}")
        _expect(report["plus_violations"] == 0, f"plus violations {report['plus_violations']}")
        _expect(report["alpha_installed"] == p["trials"],
                f"alpha installed {report['alpha_installed']} of {p['trials']}")
        return _digest_json(report)

    return Op("coupling-report", run, check)


def _simulate_limit_op() -> Op:
    p = _params("limit-spectral-simulate-limit.cfg")
    grid = _as_list(p["grid"])

    def run(seed: int, out: Path):
        return limitproc.simulate_limit(p["d"], p["K"], p["T"], grid, True,
                                        np.random.default_rng(seed), replicas=p["replicas"])

    def check(output) -> str:
        counts, model = output
        shape = (p["replicas"], len(grid), len(model.classes))
        _expect(counts.shape == shape, f"counts have shape {counts.shape}, want {shape}")
        _expect(int(counts.min()) >= 0, "negative atom count")
        return _digest_arrays(counts)

    return Op("simulate-limit", run, check)


def _trace_identity_op() -> Op:
    p = _params("limit-spectral-trace-identity.cfg")

    def run(seed: int, out: Path):
        rng = np.random.default_rng(seed)
        pairs = []
        for g in (graphs.sample_permutation_model(p["n"], p["d_permutation"], rng),
                  graphs.sample_uniform_model(p["n"], p["d_uniform"], rng)):
            via_matrix = walks.cnbw_via_nb_matrix(g, p["r"])
            via_spectrum = spectra.cnbw_from_spectrum(spectra.eigenvalues(g), p["r"])
            pairs.append((via_matrix, via_spectrum))
        return pairs

    def check(pairs) -> str:
        for model, (via_matrix, via_spectrum) in zip(("permutation", "uniform"), pairs):
            _expect(np.array_equal(np.rint(via_spectrum).astype(np.int64), via_matrix),
                    f"{model}: NB-trace counts {via_matrix.tolist()} != spectral "
                    f"{via_spectrum.tolist()}")
        return _digest_arrays(*(m for m, _ in pairs))

    return Op("trace-identity", run, check)


# ---------------------------------------------------------------------------
# warm-ups: the same code paths at minimal size, filling the lru caches
# (word-class tables, limitproc.limit_model) and first-call set-up


def _warm_tv_census() -> None:
    for r in (3, 4):
        poissonlab.tv_convergence_experiment("permutation", 2, r, [16], 8, 0)


def _warm_growth() -> None:
    growth.growth_count_samples(2, 1.0, [0.5, 1.0], 3, 1, 0)
    growth.simulate_growth(2, 0.5, 1.0, [0.0, 0.5, 1.0], 4, np.random.default_rng(0),
                           track_events=True)


def _warm_couplings() -> None:
    rng = np.random.default_rng(0)
    chain = graphs.SwitchingChain(graphs.sample_uniform_model(20, 3, rng), 3, rng)
    for _ in range(3):
        chain.step()
    poissonlab.coupling_monotonicity_report(10, 2, 3, 1, 0)
    poissonlab.tv_convergence_experiment("uniform", 3, 4, [8], 2, 0)


def _warm_limit_spectral() -> None:
    rng = np.random.default_rng(0)
    for K in (3, 4):
        limitproc.simulate_limit(2, K, 1.0, [0.0, 0.5, 1.0], True, rng, replicas=8)
    # n = 500 is large enough for eigvalsh to start its BLAS threads, whose
    # first start can stall for about a second
    g = graphs.sample_permutation_model(500, 2, rng)
    spectra.cnbw_from_spectrum(spectra.eigenvalues(g), 3)
    walks.cnbw_via_nb_matrix(graphs.sample_uniform_model(12, 3, rng), 3)
    gffcheck.gff_cheb_covariance(1, 1, 0.0, 0.3)


# ---------------------------------------------------------------------------


def build() -> dict[str, Workload]:
    samples = _growth_count_samples_op()
    grow = _cli_op("grow", "growth-grow.cfg", _check_grow)
    return {
        w.name: w
        for w in (
            Workload(
                "tv-census",
                (_cli_op("poisson-test", "tv-census-r3.cfg", _check_poisson_test),
                 _cli_op("poisson-test", "tv-census-r4.cfg", _check_poisson_test)),
                _warm_tv_census,
                (("walks.batch_class_counts",),),
            ),
            Workload(
                "growth",
                (samples, grow, samples, grow),
                _warm_growth,
                (("growth.PermTower.extend",), ("walks.batch_class_counts",),
                 ("growth.insertion_events", "walks.enumerate_cycles")),
            ),
            Workload(
                "couplings",
                (_switching_chain_op(),
                 _coupling_report_op(),
                 _cli_op("poisson-test", "couplings-poisson-test-uniform.cfg",
                         _check_poisson_test)),
                _warm_couplings,
                (("graphs.SwitchingChain.step",), ("graphs.simple_cycle_census",)),
            ),
            Workload(
                "limit-spectral",
                (_cli_op("limit-sim", "limit-spectral-limit-sim.cfg", _check_limit_sim),
                 _simulate_limit_op(),
                 _cli_op("spectrum", "limit-spectral-spectrum.cfg", _check_spectrum),
                 _trace_identity_op(),
                 _cli_op("gff-check", "limit-spectral-gff-check.cfg", _check_gff)),
                _warm_limit_spectral,
                (("cli.run",), ("spectra.eigenvalues",), ("limitproc.simulate_limit",)),
            ),
        )
    }
