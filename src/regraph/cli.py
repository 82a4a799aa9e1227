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
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import gffcheck, growth, limitproc, poissonlab, spectra, walks, words
from .errors import InvalidInputError, NumericError, ResourceLimitError, check_bytes
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

# one CSV output: its header and its rows, each row a sequence of cells or a
# str of whole lines already rendered (trajectory.csv, a replica at a time);
# rows may be a generator, so a file is written as its rows are made
Csv = tuple[Sequence[str], Iterable[Sequence[Any] | str]]


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


def _is_int(value: Any) -> bool:
    """An int that is not a bool: ``n = true`` parses to True, which is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        elif name in ("s", "T") and not _is_number(p[name]):
            violations.append(f"{name} must be a number")
        elif name in ("grid", "lags") and not all(map(_is_number, _as_list(p[name]))):
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
        check(_is_int(p["d"]) and p["d"] >= 1, "d must be an integer >= 1")
    if "n" in p:
        check(_is_int(p["n"]) and p["n"] >= 1, "n must be an integer >= 1")
    if "r" in p:
        check(_is_int(p["r"]) and p["r"] >= 1, "r must be an integer >= 1")
    if "K" in p:
        check(_is_int(p["K"]) and p["K"] >= 1, "K must be an integer >= 1")
    if kind == "poisson-test" and not violations:
        ns = _as_list(p["n_values"])
        check(bool(ns) and all(_is_int(n) and n >= 1 for n in ns),
              "n_values must be one or more positive integers")
        check(_is_int(p["samples"]) and p["samples"] >= 1,
              "samples must be a positive integer")
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
        check(_is_int(p["replicas"]) and p["replicas"] >= 1,
              "replicas must be a positive integer")
    if "count" in p:
        check(_is_int(p["count"]) and p["count"] >= 1,
              "count must be a positive integer")
    if kind == "gff-check" and not violations:
        check(_is_int(p["jmax"]) and p["jmax"] >= 1, "jmax must be >= 1")
        check(_is_int(p["kmax"]) and p["kmax"] >= 1, "kmax must be >= 1")
        check(all(float(l) >= 0 for l in _as_list(p["lags"])), "lags must be >= 0")
    if not violations and (estimate := _byte_estimate(kind, p)):
        try:
            check_bytes(*estimate[:2])
        except ResourceLimitError as exc:
            violations.append(f"{exc}; lower {estimate[2]}")
    return violations


def _trajectory_bytes(replicas: int, grid_size: int, classes: int, lengths: int) -> float:
    """Bytes of the counts a grow or limit-sim run holds until trajectory.csv
    is written: the int64 (R, G, C) counts twice while the runs' counts are
    joined, then the counts, the (R, G, K) per-length counts and the
    (R, G·(C+K)) value table together; a replica's values become a list only
    as its rows are written."""
    return 16.0 * replicas * grid_size * (classes + lengths)


# bytes of a grow run's own Python objects beyond its counts: its job tuple,
# its result, its count array's header and its events list (tracemalloc
# measured at most 450 without events); and per expected event, a tuple held
# until events.csv is written (120-140 at d = 2, r = 4, its word and parent
# strings shared by the run's events of one class)
_GROW_RUN_BYTES = 1024
EVENT_BYTES = 160
# what the run in progress holds until simulate_growth returns, by tracemalloc:
# its clock's first blocks and generator (35 KB); per vertex and label, its
# tower entries, seat and clock (90-150 bytes at d = 1..3, r = 4 and 6); per
# event, a GrowthEvent with its CycleSpec while the run lasts (510-630 bytes)
_GROW_CLOCK_BYTES = 48 * 1024
_LABEL_VERTEX_BYTES = 160
GROWTH_EVENT_BYTES = 640
# a csv writer's record buffer, 32,768 4-byte characters from its first row on
_CSV_WRITER_BYTES = 2**17


def _grow_bytes(p: dict[str, Any]) -> float:
    """Peak bytes of a valid grow run: its held counts, its runs' own objects
    and events, the run in progress and a csv writer's buffer.  A k-cycle count
    is stationary with mean a(d, k)/2k and turns over at rate k, so k-cycles are
    born at rate a(d, k)/2 (a: cyclically reduced words).  A run starts from the
    empty graph and has e^t - 1 vertices at time t on average; the run in
    progress is charged its tower, clock and census snapshot for that many at
    s + T, capped at ``growth.MAX_VERTICES``."""
    replicas, d, r = p.get("replicas", 1), p["d"], p["r"]
    events = float(p["T"]) * sum(words.count_reduced_words(d, k) for k in range(1, r + 1)) / 2
    vertices = min(math.expm1(min(float(p["s"]) + float(p["T"]), 64.0)), growth.MAX_VERTICES)
    in_progress = (_GROW_CLOCK_BYTES + GROWTH_EVENT_BYTES * events
                   + vertices * (_LABEL_VERTEX_BYTES * d + walks.census_vertex_bytes(d, r)))
    return (_trajectory_bytes(replicas, len(_as_list(p["grid"])), len(words.classes_upto(d, r)), r)
            + (_GROW_RUN_BYTES + EVENT_BYTES * events) * replicas + in_progress
            + _CSV_WRITER_BYTES)


def _limit_sim_bytes(p: dict[str, Any]) -> float:
    """Peak bytes of a valid limit-sim run: its held counts, and one chunk
    simulated at a time."""
    model = limitproc.limit_model(p["d"], p["K"])
    replicas, grid_size = p.get("replicas", 1), len(_as_list(p["grid"]))
    return (_trajectory_bytes(replicas, grid_size, len(model.classes), p["K"])
            + limitproc.limit_bytes(model, min(replicas, _LIMIT_CHUNK), grid_size,
                                    float(p["T"]), True))


def _byte_estimate(kind: str, p: dict[str, Any]) -> tuple[float, str, str] | None:
    """The peak bytes of a valid run, what holds them and the field to lower,
    or None; the library checks each of its calls again."""
    if kind == "poisson-test":
        n = max(_as_list(p["n_values"]))
        if p["model"] == "uniform":
            return (poissonlab.uniform_sample_bytes(n, p["d"], p["r"], p["samples"]),
                    f"the cycle counts of {p['samples']} uniform graphs with n={n}",
                    "n_values, r or samples")
        return walks.census_graph_bytes(p["d"], n), f"the census of a graph with n={n}", "n_values"
    if kind in ("grow", "limit-sim"):
        return (_grow_bytes if kind == "grow" else _limit_sim_bytes)(p), kind, "replicas"
    if kind == "spectrum":
        return spectra.eigen_bytes(p["n"]), f"the dense eigen-solve at n={p['n']}", "n"


# ---------------------------------------------------------------------------
# deterministic worker pool


def _run_indexed(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """Map fn over argument tuples, merging results in job order."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

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
              seed: int, idx: int) -> tuple[np.ndarray, list[tuple]]:
    rng = np.random.default_rng([seed, idx])
    traj = growth.simulate_growth(d, s, horizon, list(grid), r, rng, track_events=True)
    names = {None: ""}  # one string per class the run meets; no parent is ""
    for ev in traj.events:
        for wc in (ev.word, ev.parent):
            if wc not in names:
                names[wc] = str(wc)
    events = [(float(ev.time), ev.kind, names[ev.word], names[ev.parent]) for ev in traj.events]
    return traj.counts, events


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
    per-length counts: per replica, per grid time, the classes then lengths 1..K.

    The fixed cells of every line go through the csv module once, into a
    template with ``%s`` for the run id and the count; each replica's lines
    are then one ``%`` of it on that replica's values, listed only then."""
    lengths = [str(k) for k in range(1, by_length.shape[2] + 1)]
    columns = [(repr(t), key_type, key) for t in grid
               for key_type, keys in (("word", classes), ("length", lengths))
               for key in keys]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(("%s", *(cell.replace("%", "%%") for cell in column), "%s",
                      source.replace("%", "%%")) for column in columns)
    template = buf.getvalue()
    table = np.concatenate([counts, by_length], axis=2).reshape(len(counts), -1)

    def blocks() -> Iterator[str]:
        args = [0] * (2 * len(columns))  # run id, count, run id, count, ...
        for run_id, values in enumerate(table):
            args[0::2] = [run_id] * len(columns)
            args[1::2] = values.tolist()
            yield template % tuple(args)

    return ("run_id", "t", "key_type", "key", "count", "source"), blocks()


def _body_grow(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = config.params
    replicas = p.get("replicas", 1)
    grid = tuple(float(t) for t in _as_list(p["grid"]))
    jobs = [(p["d"], float(p["s"]), float(p["T"]), grid, p["r"], config.seed, i)
            for i in range(replicas)]
    run_counts, run_events = zip(*_run_indexed(_grow_one, jobs, config.workers))
    counts = np.stack(run_counts)
    del run_counts  # the stacked counts replace each run's own

    word_classes = words.classes_upto(p["d"], p["r"])
    classes = [str(wc) for wc in word_classes]
    by_len = words.counts_by_length(counts, word_classes, p["r"])
    events = ((run_id, *ev) for run_id, evs in enumerate(run_events) for ev in evs)
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


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any] | str]) -> None:
    """Write a header line, then stream the rows: a ``str`` row is lines
    already rendered and is written as it is, any other row goes through
    the csv module, with floats written by repr."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


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
    if not _is_int(seed):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if not _is_int(workers) or workers < 1:
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
