"""Random regular graph models, cycle specifications, couplings, and switchings.

Two models are supported:

* the permutation model: ``d`` uniform permutations of ``[n]``; vertex ``x`` is
  joined to ``pi_l(x)`` for every label ``l``, giving a 2d-regular multigraph
  whose edges carry labels and orientations;
* the uniform model: a simple d-regular graph drawn uniformly at random
  (sampled by rejection from the pairing model).

Vertices are 0-based internally; JSON serialization is 1-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import words
from .errors import InvalidInputError, ResourceLimitError
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
        a = np.zeros((self.n, self.n), dtype=np.int64)
        rows = np.arange(self.n)
        for l in range(self.d):
            np.add.at(a, (rows, self.perms[l]), 1)
        return a + a.T

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

    @classmethod
    def from_json(cls, text: str) -> "PermGraph":
        obj = json.loads(text)
        if obj.get("model") != "permutation":
            raise InvalidInputError(f"expected permutation model, got {obj.get('model')!r}")
        perms = np.asarray(obj["perms"], dtype=np.int64) - 1
        g = cls(perms)
        if g.n != obj["n"] or g.d != obj["d"]:
            raise InvalidInputError("n/d fields disagree with perms shape")
        return g


class SimpleGraph:
    """Simple d-regular graph stored as a set of undirected edges."""

    def __init__(self, n: int, d: int, edges: Iterable[Edge]):
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u}, {v}) out of range")
            edge_set.add(_edge(u, v))
        deg = [0] * n
        for u, v in edge_set:
            deg[u] += 1
            deg[v] += 1
        if any(x != d for x in deg):
            raise InvalidInputError("graph is not d-regular")
        self.n = n
        self.d = d
        self.edges = frozenset(edge_set)
        self.neighbors: list[tuple[int, ...]] = [()] * n
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        self.neighbors = [tuple(sorted(a)) for a in adj]

    @property
    def degree(self) -> int:
        return self.d

    def has_edge(self, u: int, v: int) -> bool:
        return _edge(u, v) in self.edges

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
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

    @classmethod
    def from_json(cls, text: str) -> "SimpleGraph":
        obj = json.loads(text)
        if obj.get("model") != "uniform":
            raise InvalidInputError(f"expected uniform model, got {obj.get('model')!r}")
        return cls(obj["n"], obj["d"], [(u - 1, v - 1) for u, v in obj["edges"]])


def graph_from_json(text: str):
    model = json.loads(text).get("model")
    if model == "permutation":
        return PermGraph.from_json(text)
    if model == "uniform":
        return SimpleGraph.from_json(text)
    raise InvalidInputError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# samplers


def sample_permutation_model(n: int, d: int, rng: np.random.Generator) -> PermGraph:
    if n < 1 or d < 1:
        raise InvalidInputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return PermGraph(np.stack([rng.permutation(n) for _ in range(d)]))


def simple_regular_exists(n: int, d: int) -> bool:
    """True when some simple d-regular graph on n vertices exists: n*d even and 1 <= d < n."""
    return 1 <= d < n and (n * d) % 2 == 0


def sample_uniform_model(
    n: int, d: int, rng: np.random.Generator, max_retries: int = 10**5
) -> SimpleGraph:
    """Uniform simple d-regular graph via rejection from the pairing model."""
    if not simple_regular_exists(n, d):
        raise InvalidInputError(f"no simple d-regular graph with n={n}, d={d}")
    for _ in range(max_retries):
        stubs = rng.permutation(n * d)
        tails = stubs[0::2] // d
        heads = stubs[1::2] // d
        if np.any(tails == heads):
            continue
        lo = np.minimum(tails, heads)
        hi = np.maximum(tails, heads)
        pairs = set(zip(lo.tolist(), hi.tolist()))
        if len(pairs) < len(lo):
            continue
        return SimpleGraph(n, d, pairs)
    raise ResourceLimitError(
        f"pairing-model rejection failed {max_retries} times for n={n}, d={d}"
    )


def enumerate_labeled_regular_graphs(n: int, d: int, budget: int = 10**7) -> list[SimpleGraph]:
    """All labeled simple d-regular graphs on n vertices (exhaustive search)."""
    all_edges = list(itertools.combinations(range(n), 2))
    m = n * d // 2
    if (n * d) % 2:
        raise InvalidInputError(f"n*d must be even, got n={n}, d={d}")
    try:
        size = __import__("math").comb(len(all_edges), m)
    except OverflowError:  # pragma: no cover
        size = budget + 1
    if size > budget:
        raise ResourceLimitError(f"search space {size} exceeds budget {budget}")
    out = []
    for combo in itertools.combinations(all_edges, m):
        deg = [0] * n
        ok = True
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > d or deg[v] > d:
                ok = False
                break
        if ok and all(x == d for x in deg):
            out.append(SimpleGraph(n, d, combo))
    return out


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

    def undirected_edges(self) -> frozenset[Edge]:
        k = self.length
        return frozenset(
            _edge(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(k)
        )

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

    def canonical(self) -> "CycleSpec":
        """Representative that is minimal over rotations and reversal."""
        k = self.length
        reps = []
        vs, w = self.vertices, self.word
        rev_vs = (vs[0],) + tuple(reversed(vs[1:]))
        rev_w = words.inverted_reversal(w) if w is not None else None
        for vv, ww in ((vs, w), (rev_vs, rev_w)):
            for r in range(k):
                rv = vv[r:] + vv[:r]
                rw = ww[r:] + ww[:r] if ww is not None else None
                reps.append((rv, rw))
        best = min(reps, key=lambda t: (t[0], t[1] if t[1] is not None else ()))
        return CycleSpec(best[0], best[1])

    def contained_in(self, g) -> bool:
        if isinstance(g, PermGraph):
            if self.word is None:
                raise InvalidInputError("permutation-model containment needs a word")
            return all(g.perms[l, a] == b for l, a, b in self.directed_labeled_edges())
        if isinstance(g, SimpleGraph):
            if self.length < 3:
                return False
            return all(e in g.edges for e in self.undirected_edges())
        raise InvalidInputError(f"unsupported graph type {type(g)!r}")


def all_cycle_candidates(n: int, d: int, k: int, budget: int = 10**7) -> list[CycleSpec]:
    """Every length-k permutation-model cycle on n vertices, one spec per cycle."""
    word_count = words.count_reduced_words(d, k)
    size = word_count
    for i in range(k):
        size *= n - i
    if size > budget:
        raise ResourceLimitError(f"candidate space {size} exceeds budget {budget}")
    all_words = set()
    for wc in (w for j in [k] for w in words.enumerate_word_classes(d, j)):
        all_words |= wc.orbit()
    out = []
    for vs in itertools.permutations(range(n), k):
        for w in all_words:
            spec = CycleSpec(vs, w)
            if spec.canonical() == spec:
                out.append(spec)
    return out


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


def size_bias_coupling(g: PermGraph, alpha: CycleSpec) -> PermGraph:
    """Minimal transposition edit of g that forces the cycle ``alpha`` in.

    For every label, each required image is installed by one value swap, in
    the order the cycle traverses those edges.  If alpha is already present
    the graph is returned unchanged.
    """
    if alpha.word is None:
        raise InvalidInputError("coupling needs a permutation-model cycle")
    if max(alpha.vertices) >= g.n:
        raise InvalidInputError("cycle vertices out of range")
    if any(letter_index(c) > g.d for c in alpha.word):
        raise InvalidInputError("cycle word uses labels beyond d")
    return PermGraph(force_edges(g.perms, g.inv, alpha.labeled_steps()))


def monotone_partition(
    alpha: CycleSpec, candidates: Sequence[CycleSpec]
) -> tuple[list[CycleSpec], list[CycleSpec]]:
    """Split candidate cycles into the (minus, plus) classes used by the coupling.

    A candidate lands in ``minus`` when one of its directed labeled edges
    shares a tail or head with an edge required by ``alpha`` but disagrees on
    the other endpoint; such cycles can only be destroyed by forcing alpha in.
    All remaining candidates other than alpha itself land in ``plus``.
    """
    if alpha.word is None:
        raise InvalidInputError("monotone partition needs permutation-model cycles")
    out_map: dict[tuple[int, int], int] = {}
    in_map: dict[tuple[int, int], int] = {}
    for l, a, b in alpha.directed_labeled_edges():
        out_map[(l, a)] = b
        in_map[(l, b)] = a
    alpha_edges = alpha.directed_labeled_edges()
    minus, plus = [], []
    for cand in candidates:
        edges = cand.directed_labeled_edges()
        if edges == alpha_edges:
            continue
        bad = any(
            out_map.get((l, a), b) != b or in_map.get((l, b), a) != a
            for l, a, b in edges
        )
        (minus if bad else plus).append(cand)
    return minus, plus


# ---------------------------------------------------------------------------
# switchings on simple graphs


def simple_cycle_census(g: SimpleGraph, r: int) -> dict[frozenset, tuple[int, ...]]:
    """All cycles of length 3..r as {edge set: vertex tuple}."""
    found: dict[frozenset, tuple[int, ...]] = {}
    if r < 3:
        return found

    def dfs(start: int, path: list[int]) -> None:
        last = path[-1]
        for nxt in g.neighbors[last]:
            if nxt == start and len(path) >= 3:
                # fix direction: second vertex smaller than last
                if path[1] < path[-1]:
                    cyc = CycleSpec(tuple(path))
                    found[cyc.undirected_edges()] = tuple(path)
                continue
            if nxt <= start or nxt in path:
                continue
            if len(path) < r:
                path.append(nxt)
                dfs(start, path)
                path.pop()

    for v in range(g.n):
        dfs(v, [v])
    return found


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


def _cycles_through_edges(g: SimpleGraph, changed: set[Edge], r: int) -> set[frozenset]:
    """Edge sets of all cycles of length <= r using at least one changed edge."""
    found: set[frozenset] = set()
    for u, v in changed:
        # paths v -> u of length <= r - 1 close a cycle through (u, v)
        stack = [(v, (v,))]
        while stack:
            x, path = stack.pop()
            for y in g.neighbors[x]:
                if y == u and len(path) >= 2:
                    found.add(
                        frozenset(
                            [_edge(u, v)]
                            + [_edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
                            + [_edge(x, u)]
                        )
                    )
                    continue
                if y == u or y == v or y in path or len(path) >= r - 1:
                    continue
                stack.append((y, path + (y,)))
    return found


def switching_is_valid(
    g: SimpleGraph, g2: SimpleGraph, alpha_edges: frozenset, r: int, direction: str
) -> bool:
    """Valid switchings change the short-cycle census by exactly ``alpha``.

    Only cycles through a changed edge can appear or disappear, so the check
    is local to the switched edges.
    """
    deleted = set(g.edges - g2.edges)
    added = set(g2.edges - g.edges)
    destroyed = _cycles_through_edges(g, deleted, r)
    created = _cycles_through_edges(g2, added, r)
    # a cycle through changed edges may survive in neither or both graphs
    common = destroyed & created
    destroyed -= common
    created -= common
    if direction == "forward":
        return destroyed == {alpha_edges} and not created
    return created == {alpha_edges} and not destroyed


def forward_switchings(
    g: SimpleGraph,
    alpha: CycleSpec,
    r: int,
    rng: Optional[np.random.Generator] = None,
    budget: int = 10**7,
) -> tuple[int, Optional[tuple]]:
    """Count valid forward switchings at ``alpha`` and return one uniformly.

    The cycle representation of ``alpha`` is held fixed, so each switching is
    counted once.  Returns (count, (vs, us, ws)) with the sample None when the
    count is zero.
    """
    if not alpha.contained_in(g):
        raise InvalidInputError("alpha must be a cycle of g")
    k = alpha.length
    if k > r:
        raise InvalidInputError(f"cycle length {k} exceeds horizon r={r}")
    directed = [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges]
    if len(directed) ** k > budget:
        raise ResourceLimitError(f"(nd)^k = {len(directed) ** k} exceeds budget {budget}")
    vs = alpha.vertices
    alpha_edges = alpha.undirected_edges()
    count = 0
    sample = None
    for tup in itertools.product(directed, repeat=k):
        ws = tuple(tup[i][0] for i in range(k))
        us = tuple(tup[(i - 1) % k][1] for i in range(k))
        g2 = apply_switching(g, vs, us, ws, "forward")
        if g2 is None or not switching_is_valid(g, g2, alpha_edges, r, "forward"):
            continue
        count += 1
        if rng is not None and rng.integers(count) == 0:
            sample = (vs, us, ws)
        elif rng is None and sample is None:
            sample = (vs, us, ws)
    return count, sample


def backward_switchings(
    g: SimpleGraph,
    alpha: CycleSpec,
    r: int,
    rng: Optional[np.random.Generator] = None,
    budget: int = 10**7,
) -> tuple[int, Optional[tuple]]:
    """Count valid backward switchings creating ``alpha``; mirror of forward."""
    k = alpha.length
    if k > r:
        raise InvalidInputError(f"cycle length {k} exceeds horizon r={r}")
    vs = alpha.vertices
    alpha_edges = alpha.undirected_edges()
    per_vertex = [
        [(u, w) for u in g.neighbors[v] for w in g.neighbors[v] if u != w] for v in vs
    ]
    total = 1
    for p in per_vertex:
        total *= max(len(p), 1)
    if total > budget:
        raise ResourceLimitError(f"(d(d-1))^k = {total} exceeds budget {budget}")
    count = 0
    sample = None
    for combo in itertools.product(*per_vertex):
        us = tuple(c[0] for c in combo)
        ws = tuple(c[1] for c in combo)
        g2 = apply_switching(g, vs, us, ws, "backward")
        if g2 is None or not switching_is_valid(g, g2, alpha_edges, r, "backward"):
            continue
        count += 1
        if rng is not None and rng.integers(count) == 0:
            sample = (vs, us, ws)
        elif rng is None and sample is None:
            sample = (vs, us, ws)
    return count, sample


def _complement(g: SimpleGraph) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return SimpleGraph(g.n, g.n - 1 - g.d, edges)


def _forward_option_counts(g: SimpleGraph, vs: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Allowed replacement edges per position of a forward switching at vs.

    Position i needs an oriented edge (w, u') of g with w not adjacent (or
    equal) to v_i and u' not adjacent (or equal) to v_{i+1}.
    """
    k = len(vs)
    non_adj = []
    for v in vs:
        banned = set(g.neighbors[v]) | {v}
        non_adj.append([x for x in range(g.n) if x not in banned])
    options: list[list[tuple[int, int]]] = []
    for i in range(k):
        a_set = set(non_adj[i])
        b_set = set(non_adj[(i + 1) % k])
        opts = []
        for x, y in g.edges:
            if x in a_set and y in b_set:
                opts.append((x, y))
            if y in a_set and x in b_set:
                opts.append((y, x))
        options.append(opts)
    return options


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
        if g.n - 1 - g.d < 2:
            raise InvalidInputError("graph too dense for switchings (complement degree < 2)")
        self.r = r
        self.rng = rng
        self.validity = validity
        self._set_graph(g)

    @property
    def n(self) -> int:
        return self.graph.n

    def _set_graph(self, g: SimpleGraph) -> None:
        self.graph = g
        self.cycles_by_length = self._cycles_of(g)
        self.co_cycles_by_length = self._cycles_of(_complement(g))

    def _cycles_of(self, g: SimpleGraph) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(3, self.r + 1)}
        for vs in simple_cycle_census(g, self.r).values():
            out[len(vs)].append(vs)
        return out

    def _forward_weight(self, g: SimpleGraph, vs: Sequence[int], k_cycles: int) -> float:
        """Probability (up to the direction/length coin) of proposing the
        forward switching at vs from g, summed over its representations."""
        options = _forward_option_counts(g, vs)
        prod = 1.0
        for opts in options:
            if not opts:
                return 0.0
            prod /= len(opts)
        return prod / k_cycles

    def step(self) -> bool:
        """Advance one step; returns True when the graph changed."""
        rng = self.rng
        g = self.graph
        k = int(rng.integers(3, self.r + 1))
        pair_count = float(g.d * (g.d - 1)) ** k
        if rng.integers(2) == 0:
            cycles = self.cycles_by_length[k]
            if not cycles:
                return False
            vs = list(cycles[rng.integers(len(cycles))])
            rot = int(rng.integers(k))
            vs = vs[rot:] + vs[:rot]
            if rng.integers(2):
                vs = [vs[0]] + vs[1:][::-1]
            options = _forward_option_counts(g, vs)
            us = [0] * k
            ws = [0] * k
            forward_q = 1.0 / len(cycles)
            for i, opts in enumerate(options):
                if not opts:
                    return False
                w, u = opts[rng.integers(len(opts))]
                ws[i] = w
                us[(i + 1) % k] = u
                forward_q /= len(opts)
            g2 = apply_switching(g, vs, us, ws, "forward")
            if g2 is None:
                return False
            alpha_edges = CycleSpec(tuple(vs)).undirected_edges()
            if self.validity == "census" and not switching_is_valid(
                g, g2, alpha_edges, self.r, "forward"
            ):
                return False
            co_k = sum(1 for p in self._cycles_of(_complement(g2))[k])
            if co_k == 0:
                raise InvalidInputError("created cycle missing from complement census")
            backward_q = 1.0 / (co_k * pair_count)
            accept = min(1.0, backward_q / forward_q)
        else:
            co_cycles = self.co_cycles_by_length[k]
            if not co_cycles:
                return False
            vs = list(co_cycles[rng.integers(len(co_cycles))])
            rot = int(rng.integers(k))
            vs = vs[rot:] + vs[:rot]
            if rng.integers(2):
                vs = [vs[0]] + vs[1:][::-1]
            us = [0] * k
            ws = [0] * k
            for i in range(k):
                nb = g.neighbors[vs[i]]
                a, b = rng.choice(len(nb), size=2, replace=False)
                us[i], ws[i] = nb[a], nb[b]
            g2 = apply_switching(g, vs, us, ws, "backward")
            if g2 is None:
                return False
            alpha_edges = CycleSpec(tuple(vs)).undirected_edges()
            if self.validity == "census" and not switching_is_valid(
                g, g2, alpha_edges, self.r, "backward"
            ):
                return False
            backward_q = 1.0 / (len(co_cycles) * pair_count)
            target_cycles = self._cycles_of(g2)[k]
            options = _forward_option_counts(g2, vs)
            if any((ws[i], us[(i + 1) % k]) not in options[i] for i in range(k)):
                # the exact reverse proposal cannot be generated, so the
                # reverse density is zero and the move must be rejected
                return False
            forward_q = self._forward_weight(g2, vs, len(target_cycles))
            accept = min(1.0, forward_q / backward_q)
        if rng.random() >= accept:
            return False
        self._set_graph(g2)
        return True
