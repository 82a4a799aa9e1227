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
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, gffcheck, growth, limitproc, poissonlab, spectra, walks, words
from .errors import InvalidInputError, NumericError, ResourceLimitError, check_bytes
from .graphs import (
    PermGraph,
    SimpleGraph,
    sample_permutation_model,
    sample_uniform_model,
    simple_regular_exists,
)

_LIMIT_CHUNK = 1024  # replicas per RNG stream; fixed so workers never matter

# one CSV output: its header and its rows, each row a sequence of cells or a
# str of whole lines already rendered (trajectory.csv, a replica at a time);
# rows may be a generator, so a file is written as its rows are made
Csv = tuple[Sequence[str], Iterable[Sequence[Any] | str]]


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
    """Read a UTF-8 ``key = value`` file; a ``#`` at the start of a line or
    after whitespace starts a comment, so ``out = a#b`` keeps its ``#``, and
    a key may be set once.  ``out`` keeps its text; every other value is
    parsed."""
    params: dict[str, Any] = {}
    first_line: dict[str, int] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"parse error at {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InvalidInputError(f"parse error at {path}:{lineno}: empty key")
        if key in first_line:
            raise InvalidInputError(f"parse error at {path}:{lineno}: key {key!r} "
                                    f"is set again, first at line {first_line[key]}")
        first_line[key] = lineno
        params[key] = value.strip() if key == "out" else _parse_value(value)
    return params


# A type takes a parsed value and its field's bound, and returns the value
# typed, or None when it is not of the type or breaks the bound.  A bool is
# no number: ``n = true`` parses to True.

def _integer(value: Any, least: int) -> int | None:
    return value if type(value) is int and value >= least else None


def _number(value: Any, least: float) -> float | None:
    # inf, nan and ints past the float range fail the upper bound
    finite = type(value) in (int, float) and least <= value <= sys.float_info.max
    return float(value) if finite else None


def _entries(check: Callable[[Any, Any], Any], value: Any, bound: Any) -> list | None:
    """One or more values, each of type ``check``."""
    typed = [check(entry, bound) for entry in (value if isinstance(value, list) else [value])]
    return typed if typed and None not in typed else None


# type -> (its check, what it asks of a value given the bound)
_TYPES: dict[str, tuple[Callable[[Any, Any], Any], Callable[[Any], str]]] = {
    "int": (_integer, "an integer >= {}".format),
    "number": (_number, "a number >= {}, not inf or nan".format),
    "ints": (partial(_entries, _integer), "one or more integers >= {}".format),
    "numbers": (partial(_entries, _number), "one or more numbers >= {}, not inf or nan".format),
    "choice": (lambda value, options: value if value in options else None,
               lambda options: "one of " + ", ".join(options)),
}


# A field is (type, bound, default): the type a key of _TYPES, the bound the
# least value of a number or of each entry or a choice's options, and the
# default None when the field is required.
_POSITIVE = ("int", 1, None)
_COPIES = ("int", 1, 1)  # count and replicas: one graph or run
_MODEL = ("choice", ("permutation", "uniform"), None)
_TIME = ("number", 0, None)
_GRID = ("numbers", 0, None)  # validate also puts it in [0, T], nondecreasing

# kind -> field -> (type, bound, default); a config may hold no other field
_FIELDS: dict[str, dict[str, tuple[str, Any, Any]]] = {
    "sample": {"model": _MODEL, "n": _POSITIVE, "d": _POSITIVE, "count": _COPIES},
    "cycles": {"model": _MODEL, "n": _POSITIVE, "d": _POSITIVE, "r": _POSITIVE,
               "count": _COPIES},
    "spectrum": {"model": _MODEL, "n": _POSITIVE, "d": _POSITIVE,
                 "scale": ("choice", ("raw", "half", "unit"), "unit")},
    "poisson-test": {"model": _MODEL, "d": _POSITIVE, "r": _POSITIVE,
                     "n_values": ("ints", 1, None), "samples": _POSITIVE},
    "grow": {"d": _POSITIVE, "s": _TIME, "T": _TIME, "grid": _GRID, "r": _POSITIVE,
             "replicas": _COPIES},
    "limit-sim": {"d": _POSITIVE, "K": _POSITIVE, "T": _TIME, "grid": _GRID,
                  "replicas": _COPIES},
    "gff-check": {"jmax": _POSITIVE, "kmax": _POSITIVE, "lags": ("numbers", 0, None)},
}
KINDS = tuple(_FIELDS)


def _read(kind: str, params: dict[str, Any]) -> tuple[dict[str, Any], list[str]]:
    """The kind's fields, typed and defaulted, and what in params breaks its
    table; the bodies and estimates read a valid config's fields from here."""
    table = _FIELDS[kind]
    values: dict[str, Any] = {}
    violations = [f"unknown field {name!r} for kind {kind}" for name in params
                  if name not in table]
    for name, (type_, bound, default) in table.items():
        check, asks = _TYPES[type_]
        value = params.get(name, default)  # no parsed value is None
        values[name] = None if value is None else check(value, bound)
        if value is None:
            violations.append(f"missing required field {name!r} for kind {kind}")
        elif values[name] is None:
            violations.append(f"{name} must be {asks(bound)}; got {value!r}")
    return values, violations


def validate(config: ExperimentConfig) -> list[str]:
    """Return a list of precondition violations; empty iff run would start."""
    kind = config.kind
    if kind not in KINDS:
        return [f"unknown experiment kind {kind!r}; expected one of {', '.join(KINDS)}"]
    p, violations = _read(kind, config.params)
    if violations:
        return violations

    def check(cond: bool, message: str) -> None:
        if not cond:
            violations.append(message)

    if p.get("model") == "uniform":
        ns = p["n_values"] if kind == "poisson-test" else [p["n"]]
        bad = [str(n) for n in ns if not simple_regular_exists(n, p["d"])]
        check(not bad, f"uniform model needs n*d even and d < n; "
                       f"got d={p['d']}, n={', '.join(bad)}")
    if kind == "spectrum":
        check(p["scale"] == "raw" or p["model"] == "permutation" or p["d"] >= 2,
              "a uniform d = 1 graph has degree 1, so only scale = raw is defined for it")
    if kind == "gff-check":
        check(max(p["lags"]) <= gffcheck.LAG_MAX,
              f"lags must be at most {gffcheck.LAG_MAX:.2f}, where e^lag is still a finite "
              f"number; got {max(p['lags'])!r}")
    if "grid" in p:
        check(all(t <= p["T"] for t in p["grid"]), "grid times must lie in [0, T]")
        check(p["grid"] == sorted(p["grid"]), "grid times must be nondecreasing")
    if not violations and (estimate := _byte_estimate(kind, p)):
        try:
            check_bytes(*estimate[:2])
        except ResourceLimitError as exc:
            violations.append(f"{exc}; lower {estimate[2]}")
    return violations


# most trajectory.csv lines kept for reuse, over all columns (the limit-sim
# benchmark config keeps 665); and the bytes of a kept line beside its key:
# its str of up to 64 other characters, its count and its dict slot
# (tracemalloc read 100-155 at 20 to 80 characters, and 288 for a column's
# first line, whose dict then makes its table).  A column takes three lines'
# worth beside its kept lines (tracemalloc read 321-325 bytes a column at
# d = 2, 3, K = 2..5, 50 to 300 grid points, one replica, no line kept).
_TRAJECTORY_LINES = 2**11
_TRAJECTORY_LINE_BYTES = 160


def _trajectory_bytes(replicas: int, grid_size: int, classes: int, lengths: int) -> float:
    """Bytes of the counts a grow or limit-sim run holds until trajectory.csv
    is written: the int64 (R, G, C) counts twice while the runs' counts are
    joined, then the counts, the (R, G, K) per-length counts and the
    (R, G·(C+K)) value table together; a replica's values become a list only
    as its rows are written."""
    return 16.0 * replicas * grid_size * (classes + lengths)


def _trajectory_lines_bytes(replicas: int, grid_size: int, classes: int, lengths: int) -> float:
    """Bytes the trajectory.csv writer holds beside the counts: up to
    _TRAJECTORY_LINES kept lines, each with a key of at most 2K - 1
    characters, and three lines' worth a column: the column's own object and
    head; in a replica's block in the making, its value and line and the
    block's copy; and the body's name of its class."""
    columns = grid_size * (classes + lengths)
    return (min(_TRAJECTORY_LINES, replicas * columns) + 3 * columns) * (
        _TRAJECTORY_LINE_BYTES + 2.0 * lengths)


# bytes of a grow run's own Python objects beyond its counts: its events
# list and its share of its block's job and result (tracemalloc measured
# 130-200 with one grid time and no events); and per expected event, a tuple
# held until events.csv is written (120-140 at d = 2, r = 4, its word and
# parent strings shared by the block's events of one class)
_GROW_RUN_BYTES = 256
EVENT_BYTES = 160
# what the run in progress holds until its last snapshot is taken, by
# tracemalloc: its clock's first blocks and generator (35 KB); per vertex and
# label, its tower entries, seat and clock (90-150 bytes at d = 1..3, r = 4
# and 6); per event, a GrowthEvent with its CycleSpec while the run lasts
# (510-630 bytes)
_GROW_CLOCK_BYTES = 48 * 1024
_LABEL_VERTEX_BYTES = 160
GROWTH_EVENT_BYTES = 640
# a snapshot's array header, held with its data until its block is censused
_SNAPSHOT_BYTES = 128
# a csv writer's record buffer, 32,768 4-byte characters from its first row on
_CSV_WRITER_BYTES = 2**17
# what a grow run holds beside its counts and events once its runs are done
# and its CSVs are written: the body's class names, the trajectory columns
# and the report (tracemalloc read up to 30 KB at d = 2, r = 4, one replica)
_GROW_BODY_BYTES = 48 * 1024


def _grow_bytes(params: dict[str, Any]) -> float:
    """Peak bytes of a valid grow run: its held counts, its runs' own objects
    and events, and the block of runs in progress or, once the runs are
    done, its body and the trajectory.csv writer's lines and buffer.  A
    k-cycle count is stationary with mean a(d, k)/2k and turns over at rate
    k, so k-cycles are born at rate a(d, k)/2 (a: cyclically reduced words).
    A run starts from the empty graph and has e^t - 1 vertices at time t on
    average, capped at ``growth.MAX_VERTICES``, and its block is charged the
    census of every run's snapshots at that size, their int64 arrays and
    headers.  The run in progress is charged its tower and clock for the
    largest run at s + T: a run has about e^t W vertices, W ~ Exp(1), and the
    largest of R such W passes ln R + 4 with probability at most e^-4."""
    p = _read("grow", params)[0]
    d, r = p["d"], p["r"]
    times = [p["s"] + t for t in p["grid"]]
    block = min(p["replicas"], growth.block_replicas(d, r, times))
    events = p["T"] * sum(words.count_reduced_words(d, k) for k in range(1, r + 1)) / 2

    def vertices(t: float) -> float:
        return min(math.expm1(min(t, 64.0)), growth.MAX_VERTICES)

    snapshots = (len(times) * _SNAPSHOT_BYTES
                 + sum(map(vertices, times)) * (walks.census_vertex_bytes(d, r) + 8 * d))
    largest = min(math.exp(min(p["s"] + p["T"], 64.0)) * (math.log(p["replicas"]) + 4),
                  growth.MAX_VERTICES)
    in_progress = (_GROW_CLOCK_BYTES + GROWTH_EVENT_BYTES * events
                   + largest * _LABEL_VERTEX_BYTES * d + block * snapshots)
    shape = (p["replicas"], len(times), len(words.classes_upto(d, r)), r)
    return (_trajectory_bytes(*shape)
            + (_GROW_RUN_BYTES + EVENT_BYTES * events) * p["replicas"]
            + max(in_progress,
                  _GROW_BODY_BYTES + _CSV_WRITER_BYTES + _trajectory_lines_bytes(*shape)))


def _limit_sim_bytes(params: dict[str, Any]) -> float:
    """Peak bytes of a valid limit-sim run: its held counts, and one chunk
    simulated at a time or, once the chunks are done, the trajectory.csv
    writer's lines and buffer and the run's own objects."""
    p = _read("limit-sim", params)[0]
    model = limitproc.limit_model(p["d"], p["K"])
    replicas, grid_size = p["replicas"], len(p["grid"])
    shape = (replicas, grid_size, len(model.classes), p["K"])
    chunk = limitproc.limit_bytes(model, min(replicas, _LIMIT_CHUNK), grid_size, p["T"], True)
    return (_trajectory_bytes(*shape)
            + max(chunk, _CSV_WRITER_BYTES + _RUN_BYTES + _trajectory_lines_bytes(*shape)))


# bytes a sample or cycles run takes a vertex and label (n d of them) of the
# graph it is making: on the permutation model its arrays, its int lists and
# its JSON (tracemalloc read 90-123); on the uniform model its edge set,
# neighbour lists and JSON (178-270)
_GRAPH_ENTRY_BYTES = {"permutation": 160, "uniform": 320}
# bytes a sample body keeps a vertex and label of each graph: a list slot of
# its permutation row, or half an edge's [u, v] list; and 32 more for each
# vertex number past 256, which Python does not cache (for 5 to 200 graphs,
# tracemalloc read 13-53 and 51-87 a vertex and label in all)
_BODY_ENTRY_BYTES = {"permutation": 16, "uniform": 56}
_BODY_GRAPH_BYTES = 1024  # a body graph's dict, row lists and job tuple
# a cycles row's bytes a key, by length or word class, with its encoding
_ROW_ENTRY_BYTES = 320
# a cycle a search finds, while its job runs
_CYCLE_BYTES = 512
# the run's own objects beside these: its report, jobs and results
_RUN_BYTES = 16 * 1024
# a gff-check row, held until report.json is written: its tuple of six
# values, three of them new floats, its pairs dict and two list slots
# (tracemalloc read 425-432 a row from 8,000 to 200,000 rows)
_PAIR_ROW_BYTES = 512


def _byte_estimate(kind: str, p: dict[str, Any]) -> tuple[float, str, str] | None:
    """The peak bytes of a valid run, what holds them and the field to lower,
    or None; the library checks each of its calls again."""
    if kind == "sample":
        n, d, model = p["n"], p["d"], p["model"]
        body = d * (n * _BODY_ENTRY_BYTES[model] + 32 * max(0, n - 256)) + _BODY_GRAPH_BYTES
        return (n * d * _GRAPH_ENTRY_BYTES[model] + p["count"] * body + _RUN_BYTES,
                f"{p['count']} graphs with n={n}", "count or n")
    if kind == "cycles":
        cycles = poissonlab.mean_cycle_count(p["model"], p["d"], min(p["r"], p["n"]))
        return (p["n"] * p["d"] * _GRAPH_ENTRY_BYTES[p["model"]] + cycles * _CYCLE_BYTES
                + p["count"] * (p["r"] + cycles) * _ROW_ENTRY_BYTES + _RUN_BYTES,
                f"the cycles of {p['count']} graphs with n={p['n']} to length {p['r']}",
                "count, n or r")
    if kind == "poisson-test":
        n = max(p["n_values"])
        return (poissonlab.cycle_sample_bytes(p["model"], n, p["d"], p["r"], p["samples"]),
                f"the cycle counts of {p['samples']} {p['model']} graphs with n={n}",
                "n_values, r or samples" if p["model"] == "uniform" else "n_values or samples")
    if kind in ("grow", "limit-sim"):
        return (_grow_bytes if kind == "grow" else _limit_sim_bytes)(p), kind, "replicas"
    if kind == "spectrum":
        return spectra.eigen_bytes(p["n"]), f"the dense eigen-solve at n={p['n']}", "n"
    if kind == "gff-check":
        rows = p["jmax"] * p["kmax"] * len(p["lags"])
        return (rows * _PAIR_ROW_BYTES + gffcheck.rule_bytes(p["jmax"], p["kmax"])
                + _CSV_WRITER_BYTES + _RUN_BYTES,
                f"gff-check of {rows} pairs", "jmax, kmax or lags")


# ---------------------------------------------------------------------------
# deterministic worker pool


def _run_indexed(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """Map fn over argument tuples, merging results in job order.  The pool
    is no larger than the jobs or the machine's cores; the results do not
    depend on its size."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
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


def _grow_block(d: int, s: float, horizon: float, grid: tuple, r: int,
                seed: int, lo: int, hi: int) -> tuple[np.ndarray, list[list[tuple]]]:
    """The counts of runs lo..hi-1, censused in one call, and each run's events
    as tuples, made as soon as the run ends."""
    names = {None: ""}  # one string per class the block meets; no parent is ""
    events: list[list[tuple]] = []

    def name(wc) -> str:
        if wc not in names:
            names[wc] = str(wc)
        return names[wc]

    def tagged(run: growth.GrowthRun) -> Iterator[np.ndarray]:
        yield from run
        events.append([(float(ev.time), ev.kind, name(ev.word), name(ev.parent))
                       for ev in run.events])

    runs = (tagged(growth.GrowthRun(d, s, horizon, grid, r, np.random.default_rng([seed, idx]),
                                    track_events=True)) for idx in range(lo, hi))
    return growth.census_runs(runs, r, len(grid)), events


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
    p = _read(config.kind, config.params)[0]
    jobs = [(p["model"], p["n"], p["d"], config.seed, i) for i in range(p["count"])]
    graphs = _run_indexed(_sample_one, jobs, config.workers)
    return {"model": p["model"], "n": p["n"], "d": p["d"], "graphs": graphs}, {}


def _body_cycles(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    jobs = [(p["model"], p["n"], p["d"], p["r"], config.seed, i) for i in range(p["count"])]
    rows = _run_indexed(_census_one, jobs, config.workers)
    body = {"model": p["model"], "n": p["n"], "d": p["d"], "r": p["r"], "rows": rows}
    return body, {}


def _body_spectrum(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    g = _sample_graph(p["model"], p["n"], p["d"], np.random.default_rng([config.seed, 0]))
    spec = spectra.eigenvalues(g, scale=p["scale"])
    body = {**p, "eigenvalues": [float(v) for v in spec.values]}
    return body, {"spectrum.csv": ((spec.scale,), ((v,) for v in spec.values))}


def _body_poisson_test(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    rows = poissonlab.tv_convergence_experiment(
        p["model"], p["d"], p["r"], p["n_values"], p["samples"], config.seed
    )
    body = {"model": p["model"], "d": p["d"], "r": p["r"], "rows": rows}
    # validate() admits no empty n_values, so rows[0] exists
    return body, {"rows.csv": (tuple(rows[0]), (tuple(row.values()) for row in rows))}


class _CountLines(dict):
    """One trajectory.csv column's lines after the run id, by count.  A line
    is rendered on its first use and kept while the ``room`` the columns
    share lasts, so the lines kept are bounded whatever the counts are."""

    __slots__ = ("head", "tail", "room")

    def __init__(self, head: str, tail: str, room: list[int]):
        self.head, self.tail, self.room = head, tail, room

    def __missing__(self, count: int) -> str:
        line = f"{self.head}{count}{self.tail}"
        if self.room[0]:
            self.room[0] -= 1
            self[count] = line
        return line


def _trajectory_csv(source: str, grid: Sequence[float], classes: Sequence[str],
                    counts: np.ndarray, by_length: np.ndarray) -> Csv:
    """trajectory.csv of (replicas, grid, classes) counts and (replicas, grid, K)
    per-length counts: per replica, per grid time, the classes then lengths 1..K.

    The fixed cells of each column go through the csv module once, as the
    text before and after the count; each replica's block is then its run id
    joined with its columns' lines for its values, listed only then."""
    lengths = [str(k) for k in range(1, by_length.shape[2] + 1)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("", source))
    tail = buf.getvalue()  # ",source\n"
    room = [_TRAJECTORY_LINES]
    lines = []
    for t in grid:
        for key_type, keys in (("word", classes), ("length", lengths)):
            for key in keys:
                buf.seek(0)
                buf.truncate()
                writer.writerow(("", repr(t), key_type, key, ""))
                lines.append(_CountLines(buf.getvalue()[:-1], tail, room))  # ",t,type,key,"
    table = np.concatenate([counts, by_length], axis=2).reshape(len(counts), -1)

    def blocks() -> Iterator[str]:
        for run_id, values in enumerate(table):
            rid = str(run_id)
            yield rid + rid.join(map(dict.__getitem__, lines, values.tolist()))

    return ("run_id", "t", "key_type", "key", "count", "source"), blocks()


def _body_grow(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    replicas, grid = p["replicas"], tuple(p["grid"])
    block = growth.block_replicas(p["d"], p["r"], [p["s"] + t for t in grid])
    jobs = [(p["d"], p["s"], p["T"], grid, p["r"], config.seed, lo, min(lo + block, replicas))
            for lo in range(0, replicas, block)]
    block_counts, block_events = zip(*_run_indexed(_grow_block, jobs, config.workers))
    counts = np.concatenate(block_counts)
    del block_counts  # the joined counts replace each block's own
    run_events = [evs for evs_of_block in block_events for evs in evs_of_block]

    word_classes = words.classes_upto(p["d"], p["r"])
    classes = [str(wc) for wc in word_classes]
    by_len = words.counts_by_length(counts, word_classes, p["r"])
    events = ((run_id, *ev) for run_id, evs in enumerate(run_events) for ev in evs)
    body = {**p, "classes": classes, "mean_counts_by_length": by_len.mean(axis=0).tolist()}
    return body, {
        "trajectory.csv": _trajectory_csv("growth", grid, classes, counts, by_len),
        "events.csv": (("run_id", "time", "kind", "word", "parent"), events),
    }


def _body_limit_sim(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    replicas, grid = p["replicas"], tuple(p["grid"])
    model = limitproc.limit_model(p["d"], p["K"])
    chunks = [(i, min(_LIMIT_CHUNK, replicas - i * _LIMIT_CHUNK))
              for i in range(math.ceil(replicas / _LIMIT_CHUNK))]
    jobs = [(p["d"], p["K"], p["T"], grid, size, config.seed, idx)
            for idx, size in chunks]
    counts = np.concatenate(_run_indexed(_limit_chunk, jobs, config.workers))

    classes = [str(wc) for wc in model.classes]
    by_len = words.counts_by_length(counts, model.classes, model.K)
    body = {**p, "classes": classes, "mean_counts_by_length": by_len.mean(axis=0).tolist()}
    return body, {"trajectory.csv": _trajectory_csv("limit", grid, classes, counts, by_len)}


def _body_gff_check(config: ExperimentConfig) -> tuple[dict, dict[str, Csv]]:
    p = _read(config.kind, config.params)[0]
    header = ("j", "k", "lag", "numeric", "closed_form", "abs_err")
    # one rule per lag gives every (j, k) at once
    tables = [gffcheck.gff_cheb_covariances(p["jmax"], p["kmax"], lag)[0].tolist()
              for lag in p["lags"]]
    rows = []
    for j in range(1, p["jmax"] + 1):
        for k in range(1, p["kmax"] + 1):
            for lag, table in zip(p["lags"], tables):
                numeric = table[j - 1][k - 1]
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


def _remove_made(created: list[Path]) -> None:
    """Remove the directories of ``created``, innermost first, that a run
    made: skip one that was never made, stop at one that holds other files."""
    for path in created:
        if not os.path.isdir(path):
            continue
        if any(path.iterdir()):
            break
        path.rmdir()


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment; returns the path of the JSON report."""
    violations = validate(config)
    if violations:
        raise InvalidInputError("; ".join(violations))
    created = [path for path in (config.out, *config.out.parents) if not os.path.exists(path)]
    try:
        config.out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, a name too long, a NUL byte
        _remove_made(created)
        raise InvalidInputError(f"cannot make output directory {config.out}: {exc}") from exc
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
            "version": "v" + __version__,
            "body": body,
            "wall_clock_s": time.monotonic() - start,
        }
        report_path = config.out / "report.json"
        written.append(report_path)
        with report_path.open("w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return report_path
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        _remove_made(created)
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
    out = params.pop("out", ".")
    if args.seed is not None:
        seed = args.seed
    if "REGRAPH_SEED" in os.environ:
        seed = _parse_value(os.environ["REGRAPH_SEED"])
    if args.workers is not None:
        workers = args.workers
    if args.out is not None:
        out = args.out
    if _integer(seed, 0) is None:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    if _integer(workers, 1) is None:
        raise InvalidInputError(f"workers must be an integer >= 1, got {workers!r}")
    return ExperimentConfig(kind=args.kind, params=params, seed=seed,
                            workers=workers, out=Path(out))


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
