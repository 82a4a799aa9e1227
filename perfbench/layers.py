"""Per-layer tracing for the regraph benchmark, done from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper in
every ``regraph`` module namespace that binds it (so calls made inside the
package are seen too: ``simple_cycle_census`` is imported by name into
``walks``, the samplers into ``cli`` and ``poissonlab``), and on the class for
the two methods.  Each wrapper appends one span to an in-memory list: name,
start, end, parent span, op id and an optional work count.  ``uninstall``
restores the originals.  A function that a later commit removes is reported
absent, which is not an error.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans in a round plus the time spent in no
wrapped call (``bench.self_s``) add up to the round's traced wall time.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Layer:
    """A traced function, the extra work count it reports, and what it
    should move: the end-to-end metrics, on which workloads, and the
    workloads that bypass it (where the prediction is no change)."""

    name: str  # "<module>.<function>" or "<module>.<Class>.<method>"
    moves: str
    on: str
    bypassed: str
    work: Optional[str] = None  # name of the work count, if any
    unit: str = "count"  # "ratio": the count is divided by calls, not rounds
    count: Optional[Callable[[Any], Any]] = None  # work count from the result


def _batch_size(result):
    return result[0].shape[0]


def _events_and_splits(result):
    return (len(result), sum(1 for ev in result if ev.kind == "split"))


def _bytes_written(result):
    return sum(p.stat().st_size for p in Path(result).parent.iterdir() if p.is_file())


LAYERS: tuple[Layer, ...] = (
    Layer("walks.batch_class_counts", "wall_ref, cpu_ref",
          "tv-census (most), growth (batch-1 calls)", "couplings, limit-spectral", "graphs",
          count=_batch_size),
    Layer("walks.enumerate_cycles", "wall_ref", "growth (grow ops)", "tv-census, limit-spectral",
          "cycles", count=lambda res: len(res.cycles)),
    Layer("growth.insertion_events", "wall_ref", "growth (grow ops)", "tv-census, limit-spectral",
          "events", count=_events_and_splits),
    Layer("growth.PermTower.extend", "wall_ref", "growth", "all others"),
    Layer("growth.poissonized_times", "wall_ref", "growth", "all others"),
    Layer("growth.simulate_growth", "wall_ref", "growth", "all others"),
    Layer("growth.growth_count_samples", "wall_ref", "growth", "all others"),
    Layer("graphs.SwitchingChain.step", "wall_ref", "couplings",
          "tv-census, growth, limit-spectral", "accept_ratio", "ratio",
          count=int),
    Layer("graphs.simple_cycle_census", "wall_ref", "couplings",
          "tv-census, growth, limit-spectral"),
    Layer("graphs.sample_uniform_model", "wall_ref", "couplings",
          "tv-census, growth, limit-spectral"),
    Layer("poissonlab.coupling_monotonicity_report", "wall_ref, peak_rss_mb", "couplings",
          "tv-census, growth"),
    Layer("graphs.sample_permutation_model", "wall_ref, peak_rss_mb", "couplings",
          "tv-census, growth"),
    Layer("poissonlab.sample_cycle_counts", "wall_ref, peak_rss_mb", "tv-census, couplings",
          "growth, limit-spectral"),
    Layer("poissonlab.product_poisson_pmf", "wall_ref, peak_rss_mb", "tv-census, couplings",
          "growth, limit-spectral", "entries", count=lambda res: len(res[0])),
    Layer("poissonlab.empirical_pmf", "wall_ref, peak_rss_mb", "tv-census, couplings",
          "growth, limit-spectral"),
    Layer("poissonlab.tv_distance", "wall_ref, peak_rss_mb", "tv-census, couplings",
          "growth, limit-spectral"),
    Layer("cli.run", "wall_ref, peak_rss_mb", "limit-spectral, growth", "tv-census (few rows)",
          "bytes_written", "B", count=_bytes_written),
    Layer("limitproc.simulate_limit", "wall_ref", "limit-spectral", "all others", "replicas",
          count=_batch_size),
    Layer("spectra.eigenvalues", "wall_ref, cpu_ref", "limit-spectral", "all others"),
    Layer("spectra.cnbw_from_spectrum", "wall_ref, cpu_ref", "limit-spectral", "all others"),
    Layer("walks.cnbw_via_nb_matrix", "peak_rss_mb, wall_ref", "limit-spectral", "all others"),
    Layer("gffcheck.gff_cheb_covariance", "wall_ref", "limit-spectral", "all others"),
    Layer("words.canonicalize", "wall_ref", "growth", "tv-census"),
    Layer("words.enumerate_word_classes", "setup_s", "every workload (warm-up)", "-"),
    Layer("limitproc.limit_model", "setup_s", "every workload (warm-up)", "-"),
)

# Layers whose cost is the cache fill paid once per process; they are also
# reported over the traced warm-up op under a "warmup." prefix.
WARMUP_LAYERS = ("words.enumerate_word_classes", "limitproc.limit_model")


def _resolve(name: str):
    """Return (original, [(owner, attribute), ...]) or None when absent."""
    module_name, *path = name.split(".")
    try:
        module = importlib.import_module(f"regraph.{module_name}")
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
    except (ImportError, AttributeError):
        return None
    if owner is not module:  # a method: wrap it on its class only
        return original, [(owner, path[-1])]
    sites = [
        (mod, attr)
        for key, mod in list(sys.modules.items())
        if key == "regraph" or key.startswith("regraph.")
        for attr, value in list(vars(mod).items())
        if value is original
    ]
    return original, sites


class Tracer:
    """Records spans of the functions in ``LAYERS`` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: str = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, None)
            if count is not None:
                spans[sid] = (name, start, end, parent, self.op, count(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        for layer in LAYERS:
            found = _resolve(layer.name)
            if found is None:
                self.absent.append(layer.name)
                continue
            original, sites = found
            wrapper = self._wrap(layer.name, original, layer.count)
            for owner, attr in sites:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "parent", "op", "name", "start_s", "end_s", "work"])
            for sid, (name, start, end, parent, op, work) in enumerate(self.spans):
                writer.writerow([sid, parent, op, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", "" if work is None else work])


def _work_total(values: list) -> tuple[float, float]:
    """Sum work counts that are numbers or (first, second) pairs."""
    first = second = 0.0
    for v in values:
        if isinstance(v, tuple):
            first += v[0]
            second += v[1]
        elif v is not None:
            first += v
    return first, second


def summarize(spans: list[tuple], ops: set[str]) -> tuple[dict[str, dict], float, float]:
    """Totals over the spans whose op id is in ``ops``: per name the calls,
    self time and work counts; the summed duration of top-level spans; and
    the cycles returned by ``enumerate_cycles`` calls inside
    ``insertion_events``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    top_level = 0.0
    scanned = 0.0
    for sid, (name, start, end, parent, op, work) in enumerate(spans):
        if op not in ops:
            continue
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "work": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child[sid]
        entry["work"].append(work)
        if parent < 0:
            top_level += end - start
        elif name == "walks.enumerate_cycles" and spans[parent][0] == "growth.insertion_events":
            scanned += work or 0
    for entry in out.values():
        entry["work"] = _work_total(entry["work"])
    return out, top_level, scanned


def layer_metrics(spans: list[tuple], round_ops: set[str], rounds: int,
                  traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit): means per traced round, the
    warm-up block, and the tracing totals."""
    per, top_level, scanned = summarize(spans, round_ops)
    warm, _, _ = summarize(spans, {"warm-up"})
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        entry = per.get(layer.name, {"calls": 0, "self_s": 0.0, "work": (0.0, 0.0)})
        calls = entry["calls"]
        metrics[f"{layer.name}.calls"] = (calls / rounds, "count")
        metrics[f"{layer.name}.self_s"] = (entry["self_s"] / rounds, "s")
        if layer.work:
            per_unit = (calls or 1) if layer.unit == "ratio" else rounds
            metrics[f"{layer.name}.{layer.work}"] = (entry["work"][0] / per_unit, layer.unit)
    splits = per.get("growth.insertion_events", {"work": (0.0, 0.0)})["work"][1]
    metrics["growth.split_scan.useful_ratio"] = (splits / scanned if scanned else 0.0, "ratio")
    for name in WARMUP_LAYERS:
        entry = warm.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"warmup.{name}.calls"] = (float(entry["calls"]), "count")
        metrics[f"warmup.{name}.self_s"] = (entry["self_s"], "s")
    metrics["bench.self_s"] = ((traced_wall - top_level) / rounds, "s")
    metrics["trace.wall_s"] = (traced_wall / rounds, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def self_time_ranking(spans: list[tuple], round_ops: set[str],
                      rounds: int) -> list[tuple[str, float]]:
    """Layers by self time per traced round, largest first."""
    per, _, _ = summarize(spans, round_ops)
    ranked = [(name, e["self_s"] / rounds) for name, e in per.items()]
    return sorted(ranked, key=lambda item: -item[1])
