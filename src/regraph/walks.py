"""Cycle censuses and cyclically non-backtracking walk counts.

A cycle is a closed walk that repeats no vertex and no edge; cycles are
identified when they use the same edge set.  In the permutation model an edge
is a (label, source) pair and every cycle carries a cyclically reduced word.

Closed cyclically non-backtracking walk counts are traces of powers of the
directed non-backtracking edge matrix B; a closed walk of length k is ceil(k/2)
steps out and floor(k/2) back, so only sparse powers up to B^ceil(r/2) are
made.  Subtracting the walks that merely trace out cycles leaves the "bad"
walks, which vanish on graphs whose short cycles are vertex-disjoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from . import words
from .errors import InvalidInputError, ResourceLimitError
from .graphs import CycleSpec, PermGraph, SimpleGraph, simple_cycle_census
from .words import WordClass


@dataclass
class CycleCensus:
    """Counts of cycles up to length r, with word classes when labeled."""

    r: int
    by_length: dict[int, int]
    cycles: list[CycleSpec]
    by_word: Optional[dict[WordClass, int]] = None

    def count(self, k: int) -> int:
        return self.by_length.get(k, 0)


def perm_graph_cycles(
    succ: list[list[int]],
    pred: list[list[int]],
    r: int,
    tops: Optional[list[int]] = None,
    budget: int = 10**8,
) -> list[CycleSpec]:
    """Cycles of length <= r, each found once from its largest vertex.

    ``succ[l][x]`` is the image of x under permutation l and ``pred[l]`` the
    inverse, as int lists.  Only the vertices in ``tops`` are searched as
    largest vertex; None searches them all, giving the full census.

    Leaving-letter rule: a walk that leaves by letter ``a`` and closes by
    ``c`` is kept only if ``a < c ^ 1``.  Its reverse leaves by ``c ^ 1``,
    so of a cycle's two walks the one met first by the depth-first order
    is kept; a loop (``a == c``) once, by its forward letter, and a
    backtrack over one edge (``a == c ^ 1``) never.
    """
    # rows[letter][x] is the vertex that letter leads to from x: letter 2l
    # is pi_l and letter 2l + 1 its inverse
    rows = [row for pair in zip(succ, pred) for row in pair]
    found: list[CycleSpec] = []
    steps = 0

    def dfs(v0: int, path: list[int], word: list[int]) -> None:
        nonlocal steps
        x = path[-1]
        for letter, row in enumerate(rows):
            steps += 1
            if steps > budget:
                raise ResourceLimitError(f"cycle search exceeded {budget} steps")
            y = row[x]
            if y == v0:
                if (word[0] if word else letter) < letter ^ 1:
                    found.append(CycleSpec(tuple(path), tuple(word + [letter])))
                continue
            if y > v0 or y in path or len(path) >= r:
                continue
            path.append(y)
            word.append(letter)
            dfs(v0, path, word)
            path.pop()
            word.pop()

    for v0 in range(len(succ[0])) if tops is None else tops:
        dfs(v0, [v0], [])
    return found


def enumerate_cycles(g, r: int, budget: int = 10**8) -> CycleCensus:
    """Census of all cycles of length at most r."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    if isinstance(g, PermGraph):
        cycles = perm_graph_cycles(g.perms.tolist(), g.inv.tolist(), r, budget=budget)
        by_word: dict[WordClass, int] = {}
        for c in cycles:
            wc = words.canonicalize(c.word)
            by_word[wc] = by_word.get(wc, 0) + 1
    elif isinstance(g, SimpleGraph):
        cycles = [CycleSpec(vs) for vs in simple_cycle_census(g, r).values()]
        by_word = None
    else:
        raise InvalidInputError(f"unsupported graph type {type(g)!r}")
    by_length: dict[int, int] = {k: 0 for k in range(1, r + 1)}
    for c in cycles:
        by_length[c.length] += 1
    return CycleCensus(r=r, by_length=by_length, cycles=cycles, by_word=by_word)


# ---------------------------------------------------------------------------
# non-backtracking edge matrix


def nb_edge_matrix(g) -> sp.csr_matrix:
    """Directed-edge matrix B with B[e, f] = 1 when f follows e without
    reversing it: the head incidence times the tail incidence, less the
    reversal permutation.  A uniform-model edge u < v, i-th in sorted order,
    gives directed edges 2i = (u, v) and 2i + 1 = (v, u); a permutation-model
    edge (l, x) gives l n + x, from x to pi_l(x), and its reverse d n + l n + x."""
    if isinstance(g, SimpleGraph):
        pairs = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)
        tails, heads = pairs.ravel(), pairs[:, ::-1].ravel()
        rev = np.arange(tails.size) ^ 1
    elif isinstance(g, PermGraph):
        sources = np.tile(np.arange(g.n), g.d)
        tails = np.concatenate([sources, g.perms.ravel()])
        heads = np.concatenate([g.perms.ravel(), sources])
        rev = np.roll(np.arange(tails.size), tails.size // 2)
    else:
        raise InvalidInputError(f"unsupported graph type {type(g)!r}")
    ne = tails.size
    ones, rows = np.ones(ne, dtype=np.int64), np.arange(ne + 1)
    head_of = sp.csr_matrix((ones, heads, rows), shape=(ne, g.n))
    leaving = sp.csc_matrix((ones, tails, rows), shape=(g.n, ne))
    return head_of @ leaving - sp.csr_matrix((ones, rev, rows), shape=(ne, ne))


# most bytes the NB trace may hold, as ``nb_trace_bytes`` bounds them
NB_TRACE_BYTE_CAP = 2**31


def nb_trace_bytes(ne: int, degree: int, r: int) -> int:
    """Bytes ``cnbw_via_nb_matrix`` may hold, from the shape alone: CSR powers
    B^0 .. B^ceil(r/2), a row of B^j holding at most min(ne, q^j) entries of 12
    bytes, q = degree - 1; the last trace's copy of B^floor(r/2), product buffer
    and trimmed product; per edge, B's build (96 + 24 degree bytes), row
    pointers and the sparse kernels' work arrays; 64 KiB of Python objects."""
    q, h = degree - 1, (r + 1) // 2
    # past j = 64 the row bound is min(ne, q^64), as q^64 >= 2^64 > ne if q >= 2
    rows = [min(ne, q**j) for j in range(min(h, 64) + 1)]
    entries = ne * (sum(rows) + (h + 1 - len(rows)) * rows[-1])
    last, half = ne * rows[-1], ne * rows[min(r // 2, 64)]
    return 12 * (entries + last + 3 * half) + (4 * h + 132 + 24 * degree) * (ne + 1) + 2**16


def cnbw_via_nb_matrix(g, r: int) -> np.ndarray:
    """Closed cyclically non-backtracking walk counts for lengths 1..r:
    tr(B^k) is the sum of P_ceil(k/2)[e, f] P_floor(k/2)[f, e], P_j = B^j.
    Rows of B^k sum to (degree - 1)^k, which bounds every count."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    ne = g.degree * g.n  # directed edges, the rows of the edge matrix
    if ne * (g.degree - 1) ** min(r, 64) > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"walk counts of length {r} on {ne} edges could overflow int64")
    need = nb_trace_bytes(ne, g.degree, r)
    if need > NB_TRACE_BYTE_CAP:
        raise ResourceLimitError(
            f"NB trace with {ne} edges to length {r} needs {need} bytes, over {NB_TRACE_BYTE_CAP}"
        )
    b = nb_edge_matrix(g)
    powers = [sp.identity(ne, dtype=np.int64, format="csr"), b]
    while len(powers) <= (r + 1) // 2:
        powers.append(powers[-1] @ b)
    out = np.zeros(r, dtype=np.int64)
    for k in range(1, r + 1):
        out[k - 1] = powers[(k + 1) // 2].multiply(powers[k // 2].T).sum()
    return out


def cnbw_from_cycles(census: CycleCensus, r: int) -> np.ndarray:
    """Walk counts implied by the cycle census alone: each cycle of length j
    dividing k supports 2j closed walks of length k."""
    out = np.zeros(r, dtype=np.int64)
    for k in range(1, r + 1):
        out[k - 1] = sum(2 * j * census.count(j) for j in range(1, k + 1) if k % j == 0)
    return out


def bad_walk_probe(g, r: int) -> np.ndarray:
    """CNBW counts minus the cycle-supported walks; entrywise nonnegative,
    and zero exactly when short cycles are vertex-disjoint."""
    census = enumerate_cycles(g, r)
    diff = cnbw_via_nb_matrix(g, r) - cnbw_from_cycles(census, r)
    if diff.min() < 0:
        raise InvalidInputError("cycle census exceeds walk count; inconsistent input")
    return diff


# ---------------------------------------------------------------------------
# vectorized word-walk censuses for the permutation model


# most bytes one census chunk's tables and position arrays may take; graphs
# are censused in chunks of whole graphs under it, which keeps the arrays of
# a chunk cache-sized
CENSUS_CHUNK_BYTES = 4 * 2**20

# most bytes the census may hold for the whole of one graph, which is censused
# alone when it passes the chunk; under it every flat vertex index fits int32
CENSUS_BYTE_CAP = 2**31


def census_graph_bytes(d: int, n: int) -> int:
    """Bytes the census holds for the whole of one graph with n vertices:
    its int32 tables (2d rows), its graph index and the starts that build
    the inverse rows.  Position arrays are made a chunk of starts at a time."""
    return 4 * (2 * d + 2) * n


@lru_cache(maxsize=None)
def _census_plan(d: int, r: int):
    """The classes of length <= r, the half-words their census walks and,
    per class, the indices of its two halves.

    A class word w splits as w = u v with |u| = ceil(k/2), and x is a fixed
    point of w exactly when walking u from x ends where walking the inverted
    reversal of v does.  The half-words are prefix-closed and sorted by
    (length, word), so entry i > 0 is entry ``steps[i - 1][0]`` extended by
    the letter ``steps[i - 1][1]``; entry 0 is the empty word.
    """
    classes = words.classes_upto(d, r)
    halves: set[words.Word] = set()
    pairs = []
    for wc in classes:
        w = wc.letters
        m = (len(w) + 1) // 2
        pair = (w[:m], words.inverted_reversal(w[m:]))
        pairs.append(pair)
        for h in pair:
            halves.update(h[:i] for i in range(len(h) + 1))
    order = sorted(halves, key=lambda h: (len(h), h))
    index = {h: i for i, h in enumerate(order)}
    steps = tuple((index[h[:-1]], h[-1]) for h in order[1:])
    return classes, steps, tuple((index[u], index[v]) for u, v in pairs)


def batch_class_counts(
    perms: Iterable[np.ndarray], r: int
) -> tuple[np.ndarray, tuple[WordClass, ...]]:
    """Cycle counts per word class for a batch of permutation tuples.

    ``perms`` is any iterable of (d, n_b) permutation arrays, sizes free; a
    (batch, d, n) array is one.  It is read lazily, in chunks of whole
    graphs under ``CENSUS_CHUNK_BYTES``; a larger graph is censused alone,
    holding ``census_graph_bytes`` whole and its position arrays in slices
    under that bound.  The result has shape (batch,
    number of classes of length <= r), columns in ``words.classes_upto``
    order.  An empty batch needs a (0, d, n) array, which fixes d.

    A class's fixed points are found by meeting in the middle (see
    ``_census_plan``): every half-word's position array is one gather from
    its parent prefix's, shared by all classes.  A cycle of the class reads
    every word of its orbit exactly ``h`` times (no cyclically reduced word
    is conjugate to its inverse, so the orbit has size 2k/h), so the closed
    walks with distinct vertices number ``h`` times the cycle count.
    Distinctness is tested only at the starts whose walk closes.
    """
    graphs = iter(perms)
    first = next(graphs, None)
    if first is None:
        if not (isinstance(perms, np.ndarray) and perms.ndim == 3):
            raise InvalidInputError("an empty batch needs a (0, d, n) array to fix d")
        classes = words.classes_upto(perms.shape[1], r)
        return np.zeros((0, len(classes)), dtype=np.int64), classes
    d = len(first)
    plan = _census_plan(d, r)
    classes, steps, _ = plan
    # int32 tables, position arrays (one per half-word), start and graph indices
    per_vertex = 4 * (2 * d + len(steps) + 1 + 2)
    rows: list[np.ndarray] = []
    chunk: list[np.ndarray] = []
    size = 0
    for g in itertools.chain([first], graphs):
        g = np.asarray(g)
        if g.ndim != 2 or g.shape[0] != d:
            raise InvalidInputError(f"need (d, n) permutation arrays with d = {d}, got {g.shape}")
        n = g.shape[1]
        if census_graph_bytes(d, n) > CENSUS_BYTE_CAP:
            raise ResourceLimitError(
                f"census of one graph with {n} vertices needs {census_graph_bytes(d, n)} "
                f"bytes, over {CENSUS_BYTE_CAP}"
            )
        if chunk and per_vertex * (size + n) > CENSUS_CHUNK_BYTES:
            rows.append(_census_chunk(chunk, plan))
            chunk, size = [], 0
        chunk.append(g)
        size += n
    rows.append(_census_chunk(chunk, plan))
    return np.concatenate(rows), classes


def _census_chunk(graphs: list[np.ndarray], plan) -> np.ndarray:
    """Per-class cycle counts of a chunk of graphs, one flat table set.

    The position arrays are made for a slice of starts at a time, each slice
    under ``CENSUS_CHUNK_BYTES``; a chunk of several graphs is one slice, and
    a graph past the chunk keeps only its tables whole."""
    classes, steps, pairs = plan
    sizes = [g.shape[1] for g in graphs]
    total = sum(sizes)
    d = graphs[0].shape[0]
    # row 2l maps the flat vertex o_b + x to o_b + pi_l(x) in graph b, whose
    # vertices start at o_b; row 2l + 1 is its inverse, built by scatter
    tables = np.empty((2 * d, total), dtype=np.int32)
    np.concatenate(graphs, axis=1, out=tables[0::2])
    tables[0::2] += np.repeat(np.cumsum([0] + sizes[:-1], dtype=np.int32), sizes)
    starts = np.arange(total, dtype=np.int32)
    for l in range(d):
        tables[2 * l + 1][tables[2 * l]] = starts
    del starts
    graph_of = np.repeat(np.arange(len(graphs), dtype=np.int32), sizes)
    reps = np.zeros((len(graphs), len(classes)), dtype=np.int64)
    width = max(1, CENSUS_CHUNK_BYTES // (4 * (len(steps) + 1)))
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        pos = [np.arange(lo, hi, dtype=np.int32)]
        for parent, letter in steps:
            pos.append(tables[letter][lo:hi] if parent == 0 else tables[letter].take(pos[parent]))
        for ci, (wc, (iu, iv)) in enumerate(zip(classes, pairs)):
            closed = (pos[iu] == pos[iv]).nonzero()[0]
            if not closed.size:
                continue
            closed += lo
            w = wc.letters
            trail = np.empty((len(w), closed.size), dtype=np.int32)
            trail[0] = closed
            for i, c in enumerate(w[:-1]):
                tables[c].take(trail[i], out=trail[i + 1])
            trail.sort(axis=0)
            distinct = (trail[1:] != trail[:-1]).all(axis=0)
            reps[:, ci] += np.bincount(graph_of[closed[distinct]], minlength=len(graphs))
    h = np.array([wc.h for wc in classes], dtype=np.int64)
    if (reps % h).any():
        raise InvalidInputError("closed walk count not divisible by the class period h")
    return reps // h
