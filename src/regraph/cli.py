"""Command-line experiment runner.

Usage: ``regraph <kind> --config FILE [--seed N] [--workers N] [--out DIR]``.

Configs are plain-text ``key = value`` files, one experiment per file; the
environment variable ``REGRAPH_SEED`` overrides any configured seed.  Report
bodies are a pure function of (config, seed): worker count only changes
scheduling, because every random stream is keyed by (seed, replica index)
and results are merged by replica index.

Exit codes: 0 ok, 2 config error, 3 resource cap exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import gffcheck, growth, limitproc, poissonlab, spectra, walks
from .errors import InvalidInputError, NumericError, ResourceLimitError
from .graphs import (
    PermGraph,
    SimpleGraph,
    sample_permutation_model,
    sample_uniform_model,
    simple_regular_exists,
)

KINDS = (
    "sample",
    "cycles",
    "spectrum",
    "poisson-test",
    "grow",
    "limit-sim",
    "gff-check",
)

_LIMIT_CHUNK = 1024  # replicas per RNG stream; fixed so workers never matter

# one CSV output: its header and its rows, each row a sequence of cells;
# rows may be a generator, so a file is written as its rows are made
Csv = tuple[Sequence[str], Iterable[Sequence[Any]]]


def _version() -> str:
    try:
        return "v" + metadata.version("regraph")
    except metadata.PackageNotFoundError:  # pragma: no cover
        return "v0.0.0"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    kind: str
    params: dict[str, Any]
    seed: int = 0
    workers: int = 1
    out: Path = field(default_factory=Path.cwd)


def _parse_value(text: str) -> Any:
    text = text.strip()
    if "," in text:
        return [_parse_value(part) for part in text.split(",") if part.strip()]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path: Path) -> dict[str, Any]:
    """Read a ``key = value`` file; ``#`` starts a comment."""
    params: dict[str, Any] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"parse error at {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InvalidInputError(f"parse error at {path}:{lineno}: empty key")
        params[key] = _parse_value(value)
    return params


def _as_list(value: Any) -> list:
    return list(value) if isinstance(value, list) else [value]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_REQUIRED: dict[str, tuple[str, ...]] = {
    "sample": ("model", "n", "d"),
    "cycles": ("model", "n", "d", "r"),
    "spectrum": ("model", "n", "d"),
    "poisson-test": ("model", "d", "r", "n_values", "samples"),
    "grow": ("d", "s", "T", "grid", "r"),
    "limit-sim": ("d", "K", "T", "grid"),
    "gff-check": ("jmax", "kmax", "lags"),
}


def validate(config: ExperimentConfig) -> list[str]:
    """Return a list of precondition violations; empty iff run would start."""
    violations: list[str] = []
    kind, p = config.kind, config.params
    if kind not in KINDS:
        return [f"unknown experiment kind {kind!r}; expected one of {', '.join(KINDS)}"]
    for name in _REQUIRED[kind]:
        if name not in p:
            violations.append(f"missing required field {name!r} for kind {kind}")
        elif name in ("s", "T", "grid", "lags") and not all(map(_is_number, _as_list(p[name]))):
            violations.append(f"{name} must be a number or a list of numbers")
    if violations:
        return violations

    def check(cond: bool, message: str) -> None:
        if not cond:
            violations.append(message)

    if "model" in p:
        check(p["model"] in ("permutation", "uniform"),
              "model must be 'permutation' or 'uniform'")
    if "d" in p:
        check(isinstance(p["d"], int) and p["d"] >= 1, "d must be an integer >= 1")
    if "n" in p:
        check(isinstance(p["n"], int) and p["n"] >= 1, "n must be an integer >= 1")
    if "r" in p:
        check(isinstance(p["r"], int) and p["r"] >= 1, "r must be an integer >= 1")
    if "K" in p:
        check(isinstance(p["K"], int) and p["K"] >= 1, "K must be an integer >= 1")
    if kind == "poisson-test" and not violations:
        ns = _as_list(p["n_values"])
        check(all(isinstance(n, int) and n >= 1 for n in ns),
              "n_values must be positive integers")
        check(isinstance(p["samples"], int) and p["samples"] >= 1,
              "samples must be a positive integer")
    if kind == "poisson-test" and p["model"] == "permutation" and not violations:
        n_max = max(_as_list(p["n_values"]))
        need = walks.census_graph_bytes(p["d"], n_max)
        check(need <= walks.CENSUS_BYTE_CAP,
              f"the census of one graph with n={n_max} needs {need} bytes, "
              f"over {walks.CENSUS_BYTE_CAP}; lower n_values")
    if "model" in _REQUIRED[kind] and p["model"] == "uniform" and not violations:
        ns = _as_list(p["n_values"]) if kind == "poisson-test" else [p["n"]]
        bad = [str(n) for n in ns if not simple_regular_exists(n, p["d"])]
        check(not bad, f"uniform model needs n*d even and d < n; "
                       f"got d={p['d']}, n={', '.join(bad)}")
        if kind == "poisson-test":
            check(p["samples"] <= poissonlab.UNIFORM_SAMPLE_CAP,
                  f"uniform model samples at most {poissonlab.UNIFORM_SAMPLE_CAP} "
                  f"graphs; got samples={p['samples']}")
    if kind == "spectrum" and not violations:
        scale = p.get("scale", "unit")
        check(scale in ("raw", "half", "unit"), f"scale must be raw, half or unit; got {scale!r}")
        check(scale not in ("half", "unit") or p["model"] == "permutation" or p["d"] >= 2,
              "a uniform d = 1 graph has degree 1, so only scale = raw is defined for it")
    if kind in ("grow", "limit-sim") and not violations:
        grid = [float(t) for t in _as_list(p["grid"])]
        horizon = float(p["T"])
        check(horizon >= 0, "T must be >= 0")
        check(all(0 <= t <= horizon for t in grid),
              "grid times must lie in [0, T]")
        check(list(grid) == sorted(grid), "grid times must be nondecreasing")
        if kind == "grow":
            check(float(p["s"]) >= 0, "s (warm-up time) must be >= 0")
    if "replicas" in p:
        check(isinstance(p["replicas"], int) and p["replicas"] >= 1,
              "replicas must be a positive integer")
    if kind == "limit-sim" and not violations:
        need = _limit_sim_bytes(p)
        check(need <= limitproc.LIMIT_BYTE_CAP,
              f"limit-sim needs about {need:.0f} bytes, over {limitproc.LIMIT_BYTE_CAP}; "
              f"lower replicas")
    if "count" in p:
        check(isinstance(p["count"], int) and p["count"] >= 1,
              "count must be a positive integer")
    if kind == "gff-check" and not violations:
        check(isinstance(p["jmax"], int) and p["jmax"] >= 1, "jmax must be >= 1")
        check(isinstance(p["kmax"], int) and p["kmax"] >= 1, "kmax must be >= 1")
        check(all(float(l) >= 0 for l in _as_list(p["lags"])), "lags must be >= 0")
    return violations


def _limit_sim_bytes(p: dict[str, Any]) -> float:
    """Peak bytes of a valid limit-sim run.

    It holds its int64 (R, G, C) counts twice while the chunks are
    concatenated, then the counts, the (R, G, K) per-length counts and the
    (R, G·(C+K)) value table together; a replica's values become a list only
    as its rows are written.  It simulates one chunk at a time.
    """
    model = limitproc.limit_model(p["d"], p["K"])
    replicas, grid_size = p.get("replicas", 1), len(_as_list(p["grid"]))
    held = 16.0 * replicas * grid_size * (len(model.classes) + p["K"])
    chunk = limitproc.limit_bytes(model, min(replicas, _LIMIT_CHUNK), grid_size,
                                  float(p["T"]), True)
    return held + chunk


# ---------------------------------------------------------------------------
# deterministic worker pool


def _run_indexed(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """Map fn over argument tuples, merging results in job order."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _sample_graph(model: str, n: int, d: int,
                  rng: np.random.Generator) -> PermGraph | SimpleGraph:
    if model == "permutation":
        return sample_permutation_model(n, d, rng)
    return sample_uniform_model(n, d, rng)


def _sample_one(model: str, n: int, d: int, seed: int, idx: int) -> dict:
    g = _sample_graph(model, n, d, np.random.default_rng([seed, idx]))
    return json.loads(g.to_json())


def _census_one(model: str, n: int, d: int, r: int, seed: int, idx: int) -> dict:
    g = _sample_graph(model, n, d, np.random.default_rng([seed, idx]))
    census = walks.enumerate_cycles(g, r)
    body: dict[str, Any] = {
        "by_length": {str(k): census.by_length[k] for k in sorted(census.by_length)}
    }
    if census.by_word is not None:
        body["by_word"] = {str(wc): count for wc, count in census.by_word.items()}
    return body


def _grow_one(d: int, s: float, horizon: float, grid: tuple, r: int,
              seed: int, idx: int) -> dict:
    rng = np.random.default_rng([seed, idx])
    traj = growth.simulate_growth(d, s, horizon, list(grid), r, rng, track_events=True)
    return {
        "classes": [str(wc) for wc in traj.classes],
        "counts": traj.counts,
        "by_length": traj.by_length(r),
        "events": [
            (float(ev.time), ev.kind, str(ev.word),
             "" if ev.parent is None else str(ev.parent))
            for ev in traj.events
        ],
    }


def _limit_chunk(d: int, K: int, horizon: float, grid: tuple, replicas: int,
                 seed: int, idx: int) -> np.ndarray:
    rng = np.random.default_rng([seed, idx])
    counts, _model = limitproc.simulate_limit(
        d, K, horizon, list(grid), True, rng, replicas=replicas
    )
    return counts


# ---------------------------------------------------------------------------
# experiment bodies (deterministic given config + seed)


def _body_sample(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    count = p.get("count", 1)
    jobs = [(p["model"], p["n"], p["d"], config.seed, i) for i in range(count)]
    graphs = _run_indexed(_sample_one, jobs, config.workers)
    return {"model": p["model"], "n": p["n"], "d": p["d"], "graphs": graphs}, {}


def _body_cycles(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    count = p.get("count", 1)
    jobs = [(p["model"], p["n"], p["d"], p["r"], config.seed, i) for i in range(count)]
    rows = _run_indexed(_census_one, jobs, config.workers)
    body = {"model": p["model"], "n": p["n"], "d": p["d"], "r": p["r"], "rows": rows}
    return body, {}


def _body_spectrum(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    scale = p.get("scale", "unit")
    g = _sample_graph(p["model"], p["n"], p["d"], np.random.default_rng([config.seed, 0]))
    spec = spectra.eigenvalues(g, scale=scale)
    body = {
        "model": p["model"],
        "n": p["n"],
        "d": p["d"],
        "scale": spec.scale,
        "eigenvalues": [float(v) for v in spec.values],
    }
    return body, {"spectrum.csv": ((spec.scale,), ((v,) for v in spec.values))}


def _body_poisson_test(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    n_list = [int(n) for n in _as_list(p["n_values"])]
    rows = poissonlab.tv_convergence_experiment(
        p["model"], p["d"], p["r"], n_list, p["samples"], config.seed
    )
    body = {"model": p["model"], "d": p["d"], "r": p["r"], "rows": rows}
    # validate() admits no empty n_values, so rows[0] exists
    return body, {"rows.csv": (tuple(rows[0]), (tuple(row.values()) for row in rows))}


def _trajectory_csv(source: str, grid: Sequence[float], classes: Sequence[str],
                    counts: np.ndarray, by_length: np.ndarray) -> Csv:
    """trajectory.csv of (replicas, grid, classes) counts and (replicas, grid, K)
    per-length counts: per replica, per grid time, the classes then lengths 1..K."""
    lengths = [str(k) for k in range(1, by_length.shape[2] + 1)]
    columns = [(repr(t), key_type, key) for t in grid
               for key_type, keys in (("word", classes), ("length", lengths))
               for key in keys]
    table = np.concatenate([counts, by_length], axis=2).reshape(len(counts), -1)
    rows = ((run_id, t, key_type, key, count, source)
            for run_id, values in enumerate(table)
            for (t, key_type, key), count in zip(columns, values.tolist()))
    return ("run_id", "t", "key_type", "key", "count", "source"), rows


def _body_grow(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    replicas = p.get("replicas", 1)
    grid = tuple(float(t) for t in _as_list(p["grid"]))
    jobs = [(p["d"], float(p["s"]), float(p["T"]), grid, p["r"], config.seed, i)
            for i in range(replicas)]
    results = _run_indexed(_grow_one, jobs, config.workers)

    classes = results[0]["classes"]
    counts = np.stack([res["counts"] for res in results])
    by_len = np.stack([res["by_length"] for res in results])
    events = ((run_id, *ev) for run_id, res in enumerate(results) for ev in res["events"])
    body = {
        "d": p["d"], "s": float(p["s"]), "T": float(p["T"]), "r": p["r"],
        "grid": list(grid), "replicas": replicas, "classes": classes,
        "mean_counts_by_length": by_len.mean(axis=0).tolist(),
    }
    return body, {
        "trajectory.csv": _trajectory_csv("growth", grid, classes, counts, by_len),
        "events.csv": (("run_id", "time", "kind", "word", "parent"), events),
    }


def _body_limit_sim(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    replicas = p.get("replicas", 1)
    grid = tuple(float(t) for t in _as_list(p["grid"]))
    model = limitproc.limit_model(p["d"], p["K"])
    chunks = [(i, min(_LIMIT_CHUNK, replicas - i * _LIMIT_CHUNK))
              for i in range(math.ceil(replicas / _LIMIT_CHUNK))]
    jobs = [(p["d"], p["K"], float(p["T"]), grid, size, config.seed, idx)
            for idx, size in chunks]
    counts = np.concatenate(_run_indexed(_limit_chunk, jobs, config.workers))

    classes = [str(wc) for wc in model.classes]
    by_len = limitproc.counts_by_length(counts, model)
    body = {
        "d": p["d"], "K": p["K"], "T": float(p["T"]), "grid": list(grid),
        "replicas": replicas, "classes": classes,
        "mean_counts_by_length": by_len.mean(axis=0).tolist(),
    }
    return body, {"trajectory.csv": _trajectory_csv("limit", grid, classes, counts, by_len)}


def _body_gff_check(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    lags = [float(l) for l in _as_list(p["lags"])]
    header = ("j", "k", "lag", "numeric", "closed_form", "abs_err")
    rows = []
    for j in range(1, p["jmax"] + 1):
        for k in range(1, p["kmax"] + 1):
            for lag in lags:
                numeric = gffcheck.gff_cheb_covariance(j, k, 0.0, lag)
                closed = gffcheck.gff_closed_form(j, k, 0.0, lag)
                rows.append((j, k, lag, numeric, closed, abs(numeric - closed)))
    pairs = [dict(zip(header, row)) for row in rows]
    return {"pairs": pairs}, {"pairs.csv": (header, rows)}


_BODIES: dict[str, Callable[[ExperimentConfig], tuple[dict, dict[str, Csv]]]] = {
    "sample": _body_sample,
    "cycles": _body_cycles,
    "spectrum": _body_spectrum,
    "poisson-test": _body_poisson_test,
    "grow": _body_grow,
    "limit-sim": _body_limit_sim,
    "gff-check": _body_gff_check,
}


# ---------------------------------------------------------------------------
# orchestration


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header line, then stream the rows; floats are written by repr."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment; returns the path of the JSON report."""
    violations = validate(config)
    if violations:
        raise InvalidInputError("; ".join(violations))
    created = [path for path in (config.out, *config.out.parents) if not path.exists()]
    config.out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    start = time.monotonic()
    try:
        body, csv_files = _BODIES[config.kind](config)
        for name, (header, rows) in csv_files.items():
            path = config.out / name
            written.append(path)
            _write_csv(path, header, rows)
        report = {
            "kind": config.kind,
            "config": {k: config.params[k] for k in sorted(config.params)},
            "seed": config.seed,
            "version": _version(),
            "body": body,
            "wall_clock_s": time.monotonic() - start,
        }
        report_path = config.out / "report.json"
        written.append(report_path)
        report_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
        return report_path
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for path in created:  # innermost first; keep any that holds other files
            if any(path.iterdir()):
                break
            path.rmdir()
        raise


def _build_config(argv: Sequence[str] | None) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="regraph",
        description="Cycle-count and spectral experiments on random regular graphs.",
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    params = parse_config_file(args.config)
    seed = params.pop("seed", 0)
    workers = params.pop("workers", 1)
    out = Path(params.pop("out", "."))
    if args.seed is not None:
        seed = args.seed
    if "REGRAPH_SEED" in os.environ:
        try:
            seed = int(os.environ["REGRAPH_SEED"])
        except ValueError as exc:
            raise InvalidInputError(
                f"REGRAPH_SEED must be an integer, got {os.environ['REGRAPH_SEED']!r}"
            ) from exc
    if args.workers is not None:
        workers = args.workers
    if args.out is not None:
        out = args.out
    if not isinstance(seed, int):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if not isinstance(workers, int) or workers < 1:
        raise InvalidInputError(f"workers must be a positive integer, got {workers!r}")
    return ExperimentConfig(kind=args.kind, params=params, seed=seed,
                            workers=workers, out=out)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = _build_config(argv)
        report_path = run(config)
    except InvalidInputError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    print(report_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
