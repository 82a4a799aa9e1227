"""Growing permutation-model graphs in continuous time, with event tagging.

A tower of permutations grows one element at a time: the new element sits
down left of a uniformly chosen existing element, or opens a new table, in
each of the d permutations independently; this keeps every level uniform and
makes deleting the newest element recover the previous level exactly.

Poissonization inserts vertex m+1 after an Exp(m+1) holding time, so the
vertex count grows like e^t.  Every new cycle passes through the newly
inserted vertex; a birth is "grown" when the entering and leaving edges at
the new vertex carry the same permutation label (the word acquires a doubled
letter), and "spontaneous" otherwise.  An insertion that lands on two or
more edges of one existing cycle splits it, and the resulting births are
spontaneous.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from . import walks, words
from .errors import InvalidInputError, ResourceLimitError
from .graphs import CycleSpec
from .words import WordClass


class PermTower:
    """d permutations of {0..n-1}, empty at first, supporting O(1) insertion
    of element n.

    ``succ[l][x]`` is the image of x under permutation l; ``pred`` holds the
    inverses.  Deleting the newest element always recovers the previous
    state (each insertion only splices the new element into one cycle).
    """

    def __init__(self, d: int):
        if d < 1:
            raise InvalidInputError(f"need d >= 1, got {d}")
        self.d = d
        self.n = 0
        self.succ = [[] for _ in range(d)]
        self.pred = [[] for _ in range(d)]

    def extend(self, choices) -> np.ndarray:
        """Insert elements n, n+1, ...; returns the seat rows as a (k, d) array.

        ``choices`` is one row of d seats (one element) or a (k, d) block
        whose row i seats element n + i.  Seat j < n + i puts the new element
        left of j (new -> j in the cycle); seat j = n + i opens a new table
        (fixed point).  Every seat is range-checked before anything changes.
        """
        new = self.n
        block = np.asarray(choices, dtype=np.int64)
        if block.ndim == 1:
            block = block[None]
        if block.ndim != 2 or block.shape[1] != self.d:
            raise InvalidInputError(f"seat rows need {self.d} entries, got shape {block.shape}")
        k = block.shape[0]
        bad = (block < 0) | (block > np.arange(new, new + k)[:, None])
        if bad.any():
            i, l = np.argwhere(bad)[0]
            raise InvalidInputError(f"seat choice {block[i, l]} out of range 0..{new + i}")
        for l in range(self.d):
            succ, pred = self.succ[l], self.pred[l]
            for x, j in enumerate(block[:, l].tolist(), new):
                if j == x:
                    succ.append(x)
                    pred.append(x)
                else:
                    p = pred[j]
                    succ.append(j)
                    pred.append(p)
                    succ[p] = x
                    pred[j] = x
        self.n = new + k
        return block

    def delete_last(self) -> None:
        """Remove the newest element, restoring the previous tower level."""
        if self.n < 1:
            raise InvalidInputError("cannot delete from an empty tower")
        last = self.n - 1
        for l in range(self.d):
            succ, pred = self.succ[l], self.pred[l]
            j = succ.pop()
            p = pred.pop()
            if j != last:
                succ[p] = j
                pred[j] = p
        self.n = last

    def perms(self) -> np.ndarray:
        return np.array(self.succ, dtype=np.int64)


# most vertices a run may insert
MAX_VERTICES = 10**6


def poissonized_times(horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Jump times of the growth clock up to ``horizon``, from the empty graph.

    The holding time after reaching size m is Exp(m + 1), so the i-th entry
    is the arrival time of vertex i, and the vertex count grows like e^t.
    More than ``MAX_VERTICES`` jumps raise ResourceLimitError.
    """
    if horizon < 0:
        raise InvalidInputError(f"need horizon >= 0, got {horizon}")
    out: list[np.ndarray] = []
    count = 0
    t = 0.0
    m = 0
    block = 1024
    while True:
        rates = np.arange(m + 1, m + 1 + block, dtype=float)
        holds = rng.exponential(1.0, block) / rates
        times = t + np.cumsum(holds)
        over = np.searchsorted(times, horizon, side="right")
        out.append(times[:over])
        count += over
        if count > MAX_VERTICES:
            raise ResourceLimitError(f"more than {MAX_VERTICES} insertions before horizon")
        if over < block:
            return np.concatenate(out)
        t = float(times[-1])
        m += block


# ---------------------------------------------------------------------------
# event bookkeeping


@dataclass(frozen=True)
class GrowthEvent:
    """One cycle birth or split caused by a vertex insertion."""

    time: float
    kind: str  # "grown" | "spontaneous" | "split"
    cycle: CycleSpec
    word: WordClass
    parent: Optional[WordClass] = None


def classify_event(cycle: CycleSpec, new_vertex: int) -> tuple[str, Optional[WordClass]]:
    """Classify a cycle born at a vertex insertion; returns (kind, parent).

    Grown births enter and leave the new vertex along the same permutation
    label, so the word of the parent cycle (one vertex shorter) reappears
    with one letter doubled; anything else is spontaneous.
    """
    if new_vertex not in cycle.vertices:
        raise InvalidInputError("new vertex must lie on the born cycle")
    k = cycle.length
    if k == 1:
        return "spontaneous", None
    i = cycle.vertices.index(new_vertex)
    incoming = cycle.word[(i - 1) % k]
    outgoing = cycle.word[i]
    if incoming == outgoing:
        parent = words.canonicalize(cycle.word[:i] + cycle.word[i + 1 :])
        return "grown", parent
    return "spontaneous", None


def insertion_events(tower: PermTower, r: int, time: float = 0.0) -> list[GrowthEvent]:
    """Events caused by inserting the tower's newest element: births and splits.

    All new cycles pass through the inserted vertex; destroyed cycles pass
    through one of the edges the insertion landed on.  The split search runs
    on the previous level, so the insertion is undone and then redone with
    the same seats; the tower is left as it was found.  Both searches root
    only near the new vertex, so an insertion's cost does not grow with the
    graph.
    """
    v = tower.n - 1
    succ, pred = tower.succ, tower.pred
    out = []
    for cyc in walks.perm_graph_cycles(succ, pred, r, tops=[v]):
        kind, parent = classify_event(cyc, v)
        out.append(GrowthEvent(time, kind, cyc, words.canonicalize(cyc.word), parent))
    # splits: an existing cycle hit by the insertion in >= 2 of its edges,
    # each an edge pi_l(p) = j of the previous level
    hit_edges = {(l, pred[l][v], succ[l][v]) for l in range(tower.d) if succ[l][v] != v}
    if len(hit_edges) < 2:
        return out
    seats = [row[v] for row in succ]
    tower.delete_last()
    try:
        # a cycle of length <= r through a hit edge has its largest vertex
        # within r // 2 steps of that edge's tail; a split passes two hit
        # edges, so only tops within that reach of two hit tails are searched
        rows = succ + pred
        reach: Counter = Counter()
        for _, p, _ in hit_edges:
            ball = {p}
            for _ in range(r // 2):
                ball |= {row[x] for row in rows for x in ball}
            reach.update(ball)
        tops = sorted(x for x, c in reach.items() if c >= 2)
        for cyc in walks.perm_graph_cycles(succ, pred, r, tops=tops):
            if sum(1 for e in cyc.directed_labeled_edges() if e in hit_edges) >= 2:
                out.append(GrowthEvent(time, "split", cyc, words.canonicalize(cyc.word)))
    finally:
        tower.extend(choices=seats)
    return out


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Grid censuses (by word class) of one growing-graph run."""

    grid: tuple[float, ...]
    classes: tuple[WordClass, ...]
    counts: np.ndarray  # (len(grid), n_classes)
    n_vertices: np.ndarray  # (len(grid),)
    events: list[GrowthEvent] = field(default_factory=list)


class GrowthRun:
    """One run from the empty graph, censused at s + grid up to s + T.

    Iterating it draws the clock and then every seat of the run in one call,
    grows the tower and yields its (d, n) permutations at each grid time in
    ascending order.  From then on ``n_vertices`` holds the vertex count at
    each grid time.  With ``track_events`` the run extends in one block up to
    time s, then classifies every later insertion into ``events``, and grows
    to s + T before the iteration ends.
    """

    def __init__(self, d: int, s: float, T: float, grid, r: int,
                 rng: np.random.Generator, track_events: bool = False):
        grid = np.asarray(grid, dtype=float)
        if r < 1:
            raise InvalidInputError(f"need r >= 1, got {r}")
        if s < 0 or T < 0:
            raise InvalidInputError("need s >= 0 and T >= 0")
        if grid.ndim != 1 or not grid.size or grid.min() < 0 or grid.max() > T:
            raise InvalidInputError("grid must be one or more times within [0, T]")
        self.d, self.s, self.horizon, self.r, self.rng = d, s, s + T, r, rng
        self.grid = s + np.sort(grid)
        self.n_vertices: Optional[np.ndarray] = None
        self.events: Optional[list[GrowthEvent]] = [] if track_events else None

    def __iter__(self) -> Iterator[np.ndarray]:
        d, r, rng, events = self.d, self.r, self.rng, self.events
        jumps = poissonized_times(self.horizon, rng)
        # every seat of the run in one draw: row m seats vertex m uniformly on
        # 0..m in each permutation, the same values (and generator state) as one
        # scalar draw per permutation per vertex
        seats = rng.integers(0, np.arange(1, jumps.size + 1)[:, None], size=(jumps.size, d))
        # the census at grid time t sees every vertex that arrived by t
        self.n_vertices = np.searchsorted(jumps, self.grid, side="right").astype(np.int64)
        tower = PermTower(d)

        def grow_to(size: int) -> None:
            if events is None:
                tower.extend(choices=seats[tower.n : size])
                return
            for v in range(tower.n, size):
                tower.extend(choices=seats[v])
                events.extend(insertion_events(tower, r, time=jumps[v]))

        if events is not None:
            # grow to time s in one block; later insertions are classified one by one
            tower.extend(choices=seats[: np.searchsorted(jumps, self.s, side="right")])
        for size in self.n_vertices:
            grow_to(size)
            yield tower.perms()
        if events is not None:
            grow_to(jumps.size)


# expected census bytes of the grid snapshots that one block of runs hands
# to one batch_class_counts call.  At 1 MiB, 6 runs at the growth-vs-limit
# acceptance shape, the growth benchmark took 0.8 of the time of one call a
# run.  Three 40-run growth_count_samples calls there peaked at 37.3 MiB
# resident with one run a block, 38.3 at 1 MiB, 40.1 at 4 MiB and 40.8 with
# all 40 in one block (2-vCPU VM)
GROWTH_BLOCK_BYTES = 2**20


def block_replicas(d: int, r: int, times) -> int:
    """Runs per census block: as many as fit ``GROWTH_BLOCK_BYTES`` of
    expected census, a run having about e^t vertices at each grid time t of
    ``times``, and at least one."""
    vertices = sum(math.exp(min(float(t), 64.0)) for t in times)
    return max(1, int(GROWTH_BLOCK_BYTES // (walks.census_vertex_bytes(d, r) * max(vertices, 1.0))))


def census_runs(runs: Iterable[Iterable[np.ndarray]], r: int, grid_size: int) -> np.ndarray:
    """Per-class counts (runs, grid_size, classes) of a block of runs, each an
    iterable of its grid_size > 0 snapshots, in one ``batch_class_counts``
    call.  The runs are read lazily and in order, one after the other, so a
    run's tower is gone before the next one grows."""
    counts = walks.batch_class_counts(itertools.chain.from_iterable(runs), r)[0]
    return counts.reshape(-1, grid_size, counts.shape[1])


def simulate_growth(
    d: int,
    s: float,
    T: float,
    grid,
    r: int,
    rng: np.random.Generator,
    track_events: bool = False,
) -> Trajectory:
    """Grow the graph to time s, then census it at s + grid up to s + T.

    The run always starts from the empty graph (warm-up convention);
    ``grid`` holds offsets in [0, T].  With ``track_events`` every insertion
    after time s is classified into grown/spontaneous/split events.  This is
    the one-run case of ``growth_count_samples``'s census blocks.
    """
    run = GrowthRun(d, s, T, grid, r, rng, track_events)
    # the census iterates the run, which sets n_vertices and events
    counts = census_runs([run], r, run.grid.size)[0]
    return Trajectory(
        grid=tuple(float(t) for t in run.grid),
        classes=words.classes_upto(d, r),
        counts=counts,
        n_vertices=run.n_vertices,
        events=run.events or [],
    )


def growth_count_samples(
    d: int,
    s: float,
    lags,
    r: int,
    replicas: int,
    seed: int,
) -> np.ndarray:
    """Per-length cycle counts of independent runs at times s and s + lag.

    Returns an array of shape (replicas, 1 + len(lags), r); replica b uses
    the RNG stream keyed (seed, b), so results are independent of scheduling.
    The runs are censused a block of ``block_replicas`` at a time.
    """
    lags = np.asarray(lags, dtype=float)
    if replicas < 1:
        raise InvalidInputError("need replicas >= 1")
    if lags.size and lags.min() <= 0:
        raise InvalidInputError("lags must be positive")
    grid = np.concatenate([[0.0], lags])
    T = float(grid.max())
    classes = words.classes_upto(d, r)
    block = block_replicas(d, r, s + grid)
    out = np.zeros((replicas, grid.size, r), dtype=np.int64)
    for lo in range(0, replicas, block):
        runs = (GrowthRun(d, s, T, grid, r, np.random.default_rng([seed, b]))
                for b in range(lo, min(lo + block, replicas)))
        out[lo : lo + block] = words.counts_by_length(census_runs(runs, r, grid.size), classes, r)
    return out
