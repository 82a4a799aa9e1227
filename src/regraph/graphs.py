"""Random regular graph models, cycle specifications, couplings, and switchings.

Two models are supported:

* the permutation model: ``d`` uniform permutations of ``[n]``; vertex ``x`` is
  joined to ``pi_l(x)`` for every label ``l``, giving a 2d-regular multigraph
  whose edges carry labels and orientations;
* the uniform model: a simple d-regular graph drawn uniformly at random,
  sampled by rejection from the pairing model a block of attempts at a time.

The cycles of a simple graph, and of its complement, all come from one
search, ``_cycles_through_edges``: through a set of changed edges for the
switching chain's updates, through every edge for a full census.  Where
only the counts by length are wanted, ``simple_cycle_counts`` takes them for
a batch of graphs at once.

Vertices are 0-based internally; JSON serialization is 1-based, and no
reader takes it back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from . import errors, words
from .errors import InvalidInputError, ResourceLimitError, check_bytes
from .words import Word, letter_index, letter_is_inverted

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# graphs


class PermGraph:
    """Labeled 2d-regular multigraph built from d permutations of [n].

    ``perms[l, x]`` is the image of vertex x under the label-l permutation.
    A fixed point contributes a loop; ``pi_l(x) = y`` and ``pi_l(y) = x``
    contribute a doubled edge.
    """

    def __init__(self, perms: np.ndarray):
        perms = np.asarray(perms, dtype=np.int64)
        if perms.ndim != 2:
            raise InvalidInputError("perms must be a (d, n) array")
        d, n = perms.shape
        if d < 1 or n < 1:
            raise InvalidInputError("need d >= 1 and n >= 1")
        ident = np.arange(n)
        for l in range(d):
            if not np.array_equal(np.sort(perms[l]), ident):
                raise InvalidInputError(f"row {l} is not a permutation of 0..{n - 1}")
        self.perms = perms
        self.n = n
        self.d = d
        self.inv = np.empty_like(perms)
        for l in range(d):
            self.inv[l, perms[l]] = ident

    @property
    def degree(self) -> int:
        return 2 * self.d

    def adjacency(self) -> np.ndarray:
        """Float n x n adjacency matrix, filled in place (a loop counts 2)."""
        a = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for perm in self.perms:
            np.add.at(a, (rows, perm), 1)
            np.add.at(a, (perm, rows), 1)
        return a

    def key(self) -> tuple:
        return tuple(map(tuple, self.perms))

    def __eq__(self, other) -> bool:
        return isinstance(other, PermGraph) and np.array_equal(self.perms, other.perms)

    def __hash__(self) -> int:
        return hash(self.key())

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": "permutation",
                "n": self.n,
                "d": self.d,
                "perms": [[int(x) + 1 for x in row] for row in self.perms],
            }
        )


class SimpleGraph:
    """Simple d-regular graph stored as a set of undirected edges."""

    def __init__(self, n: int, d: int, edges: Iterable[Edge]):
        edge_set: set[Edge] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u}, {v}) out of range")
            e = _edge(u, v)
            if e not in edge_set:  # a repeated edge counts once
                edge_set.add(e)
                adj[u].append(v)
                adj[v].append(u)
        if any(len(a) != d for a in adj):
            raise InvalidInputError("graph is not d-regular")
        self.n = n
        self.d = d
        self.edges = frozenset(edge_set)
        self.neighbors = [tuple(sorted(a)) for a in adj]

    @property
    def degree(self) -> int:
        return self.d

    def adjacency(self) -> np.ndarray:
        """Float n x n adjacency matrix."""
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] += 1
            a[v, u] += 1
        return a

    def key(self) -> frozenset:
        return self.edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": "uniform",
                "n": self.n,
                "d": self.d,
                "edges": sorted([u + 1, v + 1] for u, v in self.edges),
            }
        )


# ---------------------------------------------------------------------------
# samplers


def sample_permutation_model(n: int, d: int, rng: np.random.Generator) -> PermGraph:
    if n < 1 or d < 1:
        raise InvalidInputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return PermGraph(np.stack([rng.permutation(n) for _ in range(d)]))


def simple_regular_exists(n: int, d: int) -> bool:
    """True when some simple d-regular graph on n vertices exists: n*d even and 1 <= d < n."""
    return 1 <= d < n and (n * d) % 2 == 0


def sample_uniform_model(n: int, d: int, rng: np.random.Generator) -> SimpleGraph:
    """Uniform simple d-regular graph via rejection from the pairing model:
    the one graph ``sample_uniform_pairings`` draws, with its edges taken
    into a set in stub order, so ``g.edges`` iterates in the order that the
    switching chain's draws rest on."""
    pairs = sample_uniform_pairings(n, d, 1, rng)[0].tolist()
    return SimpleGraph(n, d, {(u, v) if u < v else (v, u) for u, v in pairs})


# most bytes one block of pairing-model attempts may take: 4 MiB blocks were
# no faster and raised the peak resident set of the couplings workload's ops
# by 1.1 MiB (one process, 2-vCPU VM)
PAIRING_BLOCK_BYTES = 2**19


def sample_uniform_pairings(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The edges of ``count`` uniform simple d-regular graphs, as an int64
    array of shape (count, n d / 2, 2): row i holds, in stub order, the
    pairs of the i-th accepted pairing-model attempt.

    An attempt pairs stub 2i with stub 2i + 1 of one permutation of the n d
    stubs, and is accepted when it makes no loop and no repeated edge.  One
    ``permuted`` call over a block of attempts draws the permutations that
    one ``permutation`` call per attempt would, so the graphs do not depend
    on the block size.  A block is rejected at once: an attempt with a loop
    goes, and the others are kept when their sorted ``min n + max`` edge
    codes repeat no edge.  A block holds at most ``count`` attempts, under
    ``PAIRING_BLOCK_BYTES``, so the last one overdraws by fewer than
    ``count`` attempts, and a one-graph call stops at its accepted attempt.
    A graph that would need more than ``errors.PAIRING_RETRIES`` attempts
    raises ResourceLimitError."""
    if not simple_regular_exists(n, d):
        raise InvalidInputError(f"no simple d-regular graph with n={n}, d={d}")
    if count < 0:
        raise InvalidInputError(f"need count >= 0, got {count}")
    max_retries = errors.PAIRING_RETRIES
    nd = n * d
    out = np.empty((count, nd // 2, 2), dtype=np.int64)
    # an attempt's ends, its loop test and its edge codes take under 40 bytes a stub
    block = max(1, min(count, PAIRING_BLOCK_BYTES // (40 * nd)))
    stubs = np.broadcast_to(np.arange(nd), (block, nd))
    got = failed = 0  # graphs accepted, and attempts since the last one
    while got < count:
        ends = rng.permuted(stubs, axis=1)
        ends //= d
        u, v = ends[:, 0::2], ends[:, 1::2]
        ok = (u != v).all(axis=1)
        rows = ok.nonzero()[0]
        codes = np.minimum(u[rows], v[rows]) * n + np.maximum(u[rows], v[rows])
        codes.sort(axis=1)
        ok[rows] = (codes[:, 1:] != codes[:, :-1]).all(axis=1)
        accepted = ok.nonzero()[0][: count - got]
        # the attempts each accepted graph took, since the one before it
        if accepted.size and np.diff(accepted, prepend=-1 - failed).max() > max_retries:
            break
        failed = len(ends) - 1 - accepted[-1] if accepted.size else failed + len(ends)
        if failed >= max_retries and got + accepted.size < count:
            break
        out[got : got + accepted.size, :, 0] = u[accepted]
        out[got : got + accepted.size, :, 1] = v[accepted]
        got += accepted.size
    else:
        return out
    raise ResourceLimitError(
        f"pairing-model rejection failed {max_retries} times for n={n}, d={d}"
    )


# ---------------------------------------------------------------------------
# cycle specifications


@dataclass(frozen=True)
class CycleSpec:
    """A cycle given by its vertex sequence and, in the permutation model,
    the word read along it.

    ``vertices[i]`` to ``vertices[i+1]`` is the i-th step; for the permutation
    model the i-th letter of ``word`` says which permutation (and direction)
    carries that step.  ``word`` is None for uniform-model cycles.
    """

    vertices: tuple[int, ...]
    word: Optional[Word] = None

    def __post_init__(self):
        k = len(self.vertices)
        if k < 1:
            raise InvalidInputError("empty cycle")
        if len(set(self.vertices)) != k:
            raise InvalidInputError("cycle vertices must be distinct")
        if self.word is not None:
            if len(self.word) != k:
                raise InvalidInputError("word length must match vertex count")
            if not words.is_cyclically_reduced(self.word):
                raise InvalidInputError("cycle word must be cyclically reduced")
        elif k < 3:
            raise InvalidInputError("unlabeled cycles need at least 3 vertices")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def labeled_steps(self) -> list[tuple[int, int, int]]:
        """Permutation-model edges as (label0, tail, head) with pi_l(tail) = head,
        in the order the cycle traverses them."""
        if self.word is None:
            raise InvalidInputError("no word attached to this cycle")
        k = self.length
        out = []
        for i in range(k):
            a, b = self.vertices[i], self.vertices[(i + 1) % k]
            if letter_is_inverted(self.word[i]):
                a, b = b, a
            out.append((letter_index(self.word[i]) - 1, a, b))
        return out

    def directed_labeled_edges(self) -> frozenset[tuple[int, int, int]]:
        """Permutation-model edges as (label0, tail, head) with pi_l(tail) = head."""
        return frozenset(self.labeled_steps())


# ---------------------------------------------------------------------------
# size-biased coupling


def force_edges(perms: np.ndarray, inv: np.ndarray, edges: Iterable) -> np.ndarray:
    """Copy of ``perms`` (with inverses ``inv``) in which each directed edge
    (label, tail -> head) is installed in turn by one value swap."""
    perms = perms.copy()
    inv = inv.copy()
    for l, a, b in edges:
        cur = perms[l, a]
        if cur == b:
            continue
        x = inv[l, b]
        perms[l, a] = b
        perms[l, x] = cur
        inv[l, b] = a
        inv[l, cur] = x
    return perms


# ---------------------------------------------------------------------------
# switchings on simple graphs


def _canonical_cycle(vs: Sequence[int]) -> tuple[int, ...]:
    """The rotation and direction of a vertex cycle that starts at its
    smallest vertex and has its second vertex below its last."""
    i = vs.index(min(vs))
    c = tuple(vs[i:]) + tuple(vs[:i])
    return c if c[1] < c[-1] else c[:1] + c[:0:-1]


def apply_switching(
    g: SimpleGraph,
    vs: Sequence[int],
    us: Sequence[int],
    ws: Sequence[int],
    direction: str,
) -> Optional[SimpleGraph]:
    """Apply a forward or backward switching; None if structurally impossible.

    Forward: the cycle through ``vs`` and the oriented edges (w_i, u_{i+1})
    are deleted, and edges v_i u_i, v_i w_i are created.  Backward is the
    exact inverse.
    """
    k = len(vs)
    if not (len(us) == len(ws) == k) or k < 3:
        raise InvalidInputError("switching needs three aligned tuples, length >= 3")
    if len(set(vs)) != k:
        return None
    cycle_edges = [_edge(vs[i], vs[(i + 1) % k]) for i in range(k)]
    cross_edges = [_edge(ws[i], us[(i + 1) % k]) for i in range(k)]
    spoke_edges = [_edge(vs[i], us[i]) for i in range(k)] + [
        _edge(vs[i], ws[i]) for i in range(k)
    ]
    if any(u == v for u, v in cycle_edges + cross_edges + spoke_edges):
        return None
    if direction == "forward":
        deleted, added = cycle_edges + cross_edges, spoke_edges
    elif direction == "backward":
        deleted, added = spoke_edges, cycle_edges + cross_edges
    else:
        raise InvalidInputError(f"unknown direction {direction!r}")
    if len(set(deleted)) != 2 * k or len(set(added)) != 2 * k:
        return None
    if any(e not in g.edges for e in deleted):
        return None
    if any(e in g.edges for e in added):
        return None
    edges = (set(g.edges) - set(deleted)) | set(added)
    try:
        return SimpleGraph(g.n, g.d, edges)
    except InvalidInputError:
        return None


def _cycles_through_edges(neighbors: Sequence[Collection[int]], changed: Iterable[Edge],
                          r: int) -> set[tuple[int, ...]]:
    """Canonical vertex tuples of the cycles of length 3..r that use at least
    one changed edge, in the graph where x is adjacent to ``neighbors[x]``:
    a graph's own neighbour tuples, or the sets of ``_complement_neighbors``.
    Run over every edge it is the full census (``_all_cycles``).

    Each cycle is found once, from the first changed edge it uses in the
    iteration order: the search from a changed edge neither steps nor closes
    along an earlier one, in either direction.  The search is depth-first
    with an explicit stack and an on-path set, so Python's recursion limit
    does not bound r and a step costs the same at any depth.  A step is one
    path extension, at most d neighbours tried; past ``errors.SEARCH_STEPS``
    steps the search raises ResourceLimitError."""
    found: set[tuple[int, ...]] = set()
    steps, budget = 0, errors.SEARCH_STEPS
    if r < 3:
        return found
    cut: dict[int, set[int]] = {}  # x -> the other ends of the changed edges so far at x
    for u, v in changed:
        cut.setdefault(u, set()).add(v)
        cut.setdefault(v, set()).add(u)
        # a path u, v, ..., y with y adjacent to u and not across a cut edge
        # closes a cycle; with no such y no search is made, else a long
        # cycle would be walked again from each of its edges
        banned = cut[u]
        if banned.issuperset(neighbors[u]):
            continue
        path = [u, v]
        on_path = {u, v}
        branches = [iter(neighbors[v])]  # per path vertex after u, the neighbours left to try
        while branches:
            skip = cut.get(path[-1], ())
            for y in branches[-1]:
                if y in on_path or y in skip:
                    continue
                if u in neighbors[y] and y not in banned:
                    found.add(_canonical_cycle(path + [y]))
                if len(path) + 1 < r:
                    steps += 1
                    if steps > budget:
                        raise ResourceLimitError(f"cycle search exceeded {budget} steps")
                    path.append(y)
                    on_path.add(y)
                    branches.append(iter(neighbors[y]))
                    break
            else:
                branches.pop()
                on_path.discard(path.pop())
    return found


def _all_cycles(neighbors: Sequence[Collection[int]], r: int) -> set[tuple[int, ...]]:
    """Canonical vertex tuples of all cycles of length 3..r.  The edges go
    by their smaller end u, ascending, so when the search from an edge at u
    runs, every edge at a smaller vertex is cut and the search stays above
    u: each cycle is found from its smallest vertex."""
    edges = ((x, y) for x, nb in enumerate(neighbors) for y in nb if x < y)
    return _cycles_through_edges(neighbors, edges, r)


def simple_cycle_census(g: SimpleGraph, r: int) -> dict[frozenset, tuple[int, ...]]:
    """All cycles of length 3..r as {edge set: vertex tuple}, ordered by
    (length, tuple); each tuple is in the form of ``_canonical_cycle``.  The
    search raises ResourceLimitError past ``errors.SEARCH_STEPS`` path
    extensions."""
    cycles = sorted(_all_cycles(g.neighbors, r), key=lambda vs: (len(vs), vs))
    return {frozenset(map(_edge, vs, vs[1:] + vs[:1])): vs for vs in cycles}


def pairing_neighbors(pairs: np.ndarray, n: int) -> np.ndarray:
    """The (B, n, d) neighbour table of a batch of d-regular edge lists
    (B, n d / 2, 2) on n vertices: row x of graph b lists the neighbours
    of x ascending, as ``SimpleGraph.neighbors`` does."""
    pairs = np.asarray(pairs)
    b, m, _ = pairs.shape
    if n < 1 or (2 * m) % n:
        raise InvalidInputError(f"{m} edges on {n} vertices are not regular")
    codes = np.empty((b, 2 * m), dtype=np.int64)  # x n + y for each end x of edge xy
    codes[:, :m] = pairs[..., 0] * n + pairs[..., 1]
    codes[:, m:] = pairs[..., 1] * n + pairs[..., 0]
    codes.sort(axis=1)
    codes %= n
    return codes.reshape(b, n, 2 * m // n)


def _start_bytes(n: int, d: int, r: int) -> int:
    """Bytes the paths from one start may take in ``simple_cycle_counts``:
    paths of k vertices number at most d (d - 1)^(k - 2) (capped near 2^62,
    past any byte cap), and an extension to k + 1 vertices holds those of
    both lengths, with their neighbour rows, masks and indices, under
    (d + 8)(k + 4) bytes a path."""
    top = min(r, n) - 1  # the paths grow to min(r, n) vertices

    def paths(k: int) -> int:
        return 1 if k < 2 else min(d * (d - 1) ** min(k - 2, 64), 2**62)

    return (paths(top) + paths(top + 1)) * (d + 8) * (top + 4)


def simple_count_bytes(b: int, n: int, d: int, r: int) -> int:
    """Bytes ``simple_cycle_counts`` holds whole for b graphs on n vertices of
    degree d: the int32 flat neighbour table and its offsets, the int64
    counts, and the paths of one start (the others go a chunk at a time)."""
    return 4 * b * n * (d + 1) + 8 * b * r + _start_bytes(n, d, r)


def simple_cycle_counts(nbrs: np.ndarray, r: int) -> np.ndarray:
    """Cycle counts by length of a batch of simple graphs.  ``nbrs`` is a
    (B, n, d) table whose row x of graph b lists the neighbours of x; entry
    (b, k - 1) of the (B, r) result counts the k-cycles of graph b, 0 for
    k < 3, as ``simple_cycle_census`` would.

    Simple paths are extended for all graphs at once, one numpy step per
    length.  A path starts at its smallest vertex, and it closes a cycle
    when its last vertex is adjacent to the start and its second vertex is
    below its last: that is the form of ``_canonical_cycle``, so each cycle
    is counted once.  The starts go in chunks of (graph, start) pairs whose
    paths stay under ``walks.CENSUS_CHUNK_BYTES``; what is held whole,
    ``simple_count_bytes``, is checked before anything is allocated."""
    from . import walks  # at the call: walks imports this module

    nbrs = np.asarray(nbrs)
    if nbrs.ndim != 3:
        raise InvalidInputError(f"need a (B, n, d) neighbour table, got shape {nbrs.shape}")
    b, n, d = nbrs.shape
    check_bytes(simple_count_bytes(b, n, d, r), f"cycle counts of {b} graphs with {n} vertices")
    out = np.zeros((b, r), dtype=np.int64)
    if r < 3 or not nbrs.size:
        return out
    # vertex x of graph g is g n + x in one flat table, so all graphs' paths step together
    table = nbrs.reshape(b * n, d).astype(np.int32)
    table += np.repeat(np.arange(0, b * n, n, dtype=np.int32), n)[:, None]
    width = max(1, walks.CENSUS_CHUNK_BYTES // _start_bytes(n, d, r))
    top = min(r, n)  # the most vertices a path can have
    for lo in range(0, b * n, width):
        first = lo // n  # the graph of the chunk's first start
        paths = np.arange(lo, min(lo + width, b * n), dtype=np.int32)[:, None]
        for k in range(2, top + 1):
            step = table[paths[:, -1]]
            fresh = (step > paths[:, :1]) & (step[:, :, None] != paths[:, None, 1:]).all(axis=2)
            rows, cols = fresh.nonzero()
            if not rows.size:
                break
            last = step[rows, cols]
            if k >= 3:
                start = paths[rows, 0]
                closed = (table[last] == start[:, None]).any(axis=1) & (paths[rows, 1] < last)
                found = np.bincount(start[closed] // n - first)
                out[first : first + found.size, k - 1] += found
            if k < top:  # the paths of top vertices are counted, not extended
                paths = np.concatenate([paths[rows], last[:, None]], axis=1)
    return out


def _complement_neighbors(g: SimpleGraph) -> list[set[int]]:
    """Neighbour sets of the complement of g."""
    everyone = set(range(g.n))
    return [everyone.difference(nb, (x,)) for x, nb in enumerate(g.neighbors)]


def _forward_option_counts(g: SimpleGraph, vs: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Allowed replacement edges per position of a forward switching at vs.

    Position i needs an oriented edge (w, u') of g with w not adjacent (or
    equal) to v_i and u' not adjacent (or equal) to v_{i+1}.
    """
    k = len(vs)
    closed = [set(g.neighbors[v]) | {v} for v in vs]  # closed neighbourhoods
    options: list[list[tuple[int, int]]] = []
    for i in range(k):
        a_ban, b_ban = closed[i], closed[(i + 1) % k]
        opts = []
        for x, y in g.edges:
            if x not in a_ban and y not in b_ban:
                opts.append((x, y))
            if y not in a_ban and x not in b_ban:
                opts.append((y, x))
        options.append(opts)
    return options


def _gain(lost: set, won: set, k: int) -> int:
    """Net change in the number of k-cycles when ``lost`` go and ``won`` come."""
    return sum(len(c) == k for c in won) - sum(len(c) == k for c in lost)


def _apply_census_change(by_length: dict[int, list], lost: set, won: set) -> None:
    """Remove ``lost`` from, and insert ``won`` into, ascending per-length lists."""
    for k, cycles in by_length.items():
        lost_k = {c for c in lost if len(c) == k}
        won_k = sorted(c for c in won if len(c) == k)
        if lost_k or won_k:
            # two ascending runs, which one merge pass of sorted joins
            by_length[k] = sorted([c for c in cycles if c not in lost_k] + won_k)


class SwitchingChain:
    """Reversible Markov chain on simple d-regular graphs driven by switchings.

    A forward proposal destroys a uniformly chosen short cycle, drawing each
    replacement edge uniformly from the edges allowed at its position; a
    backward proposal creates a cycle chosen uniformly among the short cycles
    of the complement graph, with replacement paths drawn uniformly from the
    ordered neighbor pairs.  A Metropolis correction computed from the exact
    proposal probabilities makes the uniform distribution over simple
    d-regular graphs stationary.  Rejected proposals hold.

    ``validity`` controls an extra gate: "census" additionally requires the
    switching to change the short-cycle census by exactly the proposed cycle
    (at small n such switchings may not exist at all, freezing the chain);
    "structural" accepts any well-formed switching.  Both gates are
    symmetric under reversal, so reversibility holds either way.

    Invariant: ``cycles_by_length[k]`` and ``co_cycles_by_length[k]`` list
    the k-cycles of the graph and of its complement as canonical vertex
    tuples (``_canonical_cycle``) in ascending order, which is the order of
    ``simple_cycle_census``, so every draw of ``rng`` picks the cycle a full
    census would.  One search, ``_cycles_through_edges``, finds them all: the
    lists start from it run over every edge of the graph's neighbour tuples
    and of the complement's neighbour sets (``_complement_neighbors``), so no
    complement graph is built.  A switching changes at most 4k edges, and
    only a cycle through a changed edge can appear or disappear, so the
    lists, the validity gate and the cycle counts of the Metropolis ratio
    all come from the same search through the changed edges only, in the
    graph and in its complement.
    """

    def __init__(
        self,
        g: SimpleGraph,
        r: int,
        rng: np.random.Generator,
        validity: str = "census",
    ):
        if r < 3:
            raise InvalidInputError(f"need r >= 3, got {r}")
        if validity not in ("census", "structural"):
            raise InvalidInputError(f"unknown validity mode {validity!r}")
        if g.d < 2:
            raise InvalidInputError(f"switchings need degree d >= 2, got d={g.d}")
        if g.n - 1 - g.d < 2:
            raise InvalidInputError("graph too dense for switchings (complement degree < 2)")
        self.r = r
        self.rng = rng
        self.validity = validity
        self.graph = g
        self._co_neighbors = _complement_neighbors(g)
        self.cycles_by_length = self._by_length(g.neighbors)
        self.co_cycles_by_length = self._by_length(self._co_neighbors)

    @property
    def n(self) -> int:
        return self.graph.n

    def _by_length(self, neighbors: Sequence[Collection[int]]) -> dict[int, list[tuple[int, ...]]]:
        """Every cycle of length 3..r of the graph where x is adjacent to
        ``neighbors[x]``, by length, each length ascending."""
        out: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(3, self.r + 1)}
        for vs in sorted(_all_cycles(neighbors, self.r)):
            out[len(vs)].append(vs)
        return out

    def _complement_change(self, g2: SimpleGraph, deleted: frozenset, added: frozenset):
        """Neighbour sets of the complement of g2, and the complement cycles
        lost and won: the complement gains the deleted edges and loses the
        added ones."""
        co2 = _complement_neighbors(g2)
        lost = _cycles_through_edges(self._co_neighbors, added, self.r)
        return co2, lost, _cycles_through_edges(co2, deleted, self.r)

    def step(self) -> bool:
        """Advance one step; returns True when the graph changed."""
        rng = self.rng
        g = self.graph
        r = self.r
        k = int(rng.integers(3, r + 1))
        pair_count = float(g.d * (g.d - 1)) ** k
        forward = rng.integers(2) == 0
        cycles = (self.cycles_by_length if forward else self.co_cycles_by_length)[k]
        if not cycles:
            return False
        vs = list(cycles[rng.integers(len(cycles))])
        rot = int(rng.integers(k))
        vs = vs[rot:] + vs[:rot]
        if rng.integers(2):
            vs = [vs[0]] + vs[1:][::-1]
        us = [0] * k
        ws = [0] * k
        if forward:
            forward_q = 1.0 / len(cycles)
            for i, opts in enumerate(_forward_option_counts(g, vs)):
                if not opts:
                    return False
                w, u = opts[rng.integers(len(opts))]
                ws[i] = w
                us[(i + 1) % k] = u
                forward_q /= len(opts)
        else:
            for i in range(k):
                nb = g.neighbors[vs[i]]
                a, b = rng.choice(len(nb), size=2, replace=False)
                us[i], ws[i] = nb[a], nb[b]
        g2 = apply_switching(g, vs, us, ws, "forward" if forward else "backward")
        if g2 is None:
            return False
        deleted, added = g.edges - g2.edges, g2.edges - g.edges
        lost = _cycles_through_edges(g.neighbors, deleted, r)
        won = _cycles_through_edges(g2.neighbors, added, r)
        if self.validity == "census":
            # the switching must change the census by exactly its cycle
            alpha = _canonical_cycle(vs)
            if (lost, won) != (({alpha}, set()) if forward else (set(), {alpha})):
                return False
        co_change = None
        if forward:
            co_change = self._complement_change(g2, deleted, added)
            _, co_lost, co_won = co_change
            co_k = len(self.co_cycles_by_length[k]) + _gain(co_lost, co_won, k)
            if co_k == 0:
                raise InvalidInputError("created cycle missing from complement census")
            backward_q = 1.0 / (co_k * pair_count)
            accept = min(1.0, backward_q / forward_q)
        else:
            backward_q = 1.0 / (len(cycles) * pair_count)
            options = _forward_option_counts(g2, vs)
            if any((ws[i], us[(i + 1) % k]) not in options[i] for i in range(k)):
                # the exact reverse proposal cannot be generated, so the
                # reverse density is zero and the move must be rejected
                return False
            forward_q = 1.0
            for opts in options:
                forward_q /= len(opts)
            forward_q /= len(self.cycles_by_length[k]) + _gain(lost, won, k)
            accept = min(1.0, forward_q / backward_q)
        if rng.random() >= accept:
            return False
        if co_change is None:
            co_change = self._complement_change(g2, deleted, added)
        self.graph = g2
        _apply_census_change(self.cycles_by_length, lost, won)
        self._co_neighbors, co_lost, co_won = co_change
        _apply_census_change(self.co_cycles_by_length, co_lost, co_won)
        return True
