"""Cycle censuses and cyclically non-backtracking walk counts.

A cycle is a closed walk that repeats no vertex and no edge; cycles are
identified when they use the same edge set.  In the permutation model an edge
is a (label, source) pair and every cycle carries a cyclically reduced word.

Closed cyclically non-backtracking walk counts are obtained as traces of
powers of the directed non-backtracking edge matrix; subtracting the walks
that merely trace out cycles leaves the "bad" walks, which vanish on graphs
whose short cycles are vertex-disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import words
from .errors import InvalidInputError, ResourceLimitError
from .graphs import CycleSpec, PermGraph, SimpleGraph, simple_cycle_census
from .words import WordClass
from .words import counts_by_length as counts_by_length


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
    g: PermGraph, r: int, tops: Optional[list[int]] = None, budget: int = 10**8
) -> list[CycleSpec]:
    """Cycles of length <= r, each found once from its largest vertex.

    Only the vertices in ``tops`` are searched as largest vertex; None
    searches them all, giving the full census.
    """
    perms, inv, d = g.perms, g.inv, g.d
    seen: dict[frozenset, CycleSpec] = {}
    steps = 0

    def moves(x: int):
        for l in range(d):
            yield int(perms[l, x]), (l, x), 2 * l
            y = int(inv[l, x])
            yield y, (l, y), 2 * l + 1

    def dfs(v0: int, path: list[int], used: set, word: list[int]) -> None:
        nonlocal steps
        x = path[-1]
        for y, edge, letter in moves(x):
            steps += 1
            if steps > budget:
                raise ResourceLimitError(f"cycle search exceeded {budget} steps")
            if edge in used:
                continue
            if y == v0:
                key = frozenset(used | {edge})
                if key not in seen:
                    seen[key] = CycleSpec(tuple(path), tuple(word + [letter]))
                continue
            if y > v0 or y in path or len(path) >= r:
                continue
            path.append(y)
            used.add(edge)
            word.append(letter)
            dfs(v0, path, used, word)
            path.pop()
            used.remove(edge)
            word.pop()

    for v0 in range(g.n) if tops is None else tops:
        dfs(v0, [v0], set(), [])
    return list(seen.values())


def enumerate_cycles(g, r: int, budget: int = 10**8) -> CycleCensus:
    """Census of all cycles of length at most r."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    if isinstance(g, PermGraph):
        cycles = perm_graph_cycles(g, r, budget=budget)
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
    reversing it.  Rows/columns are indexed by directed edges."""
    tails: list[int] = []
    heads: list[int] = []
    rev: list[int] = []
    if isinstance(g, SimpleGraph):
        index = {}
        directed = []
        for u, v in sorted(g.edges):
            for a, b in ((u, v), (v, u)):
                index[(a, b)] = len(directed)
                directed.append((a, b))
        for a, b in directed:
            tails.append(a)
            heads.append(b)
            rev.append(index[(b, a)])
    elif isinstance(g, PermGraph):
        # directed edge (l, x, sign): forward runs x -> pi_l(x)
        m = g.d * g.n
        for l in range(g.d):
            for x in range(g.n):
                tails.append(x)
                heads.append(int(g.perms[l, x]))
                rev.append(m + l * g.n + x)
        for l in range(g.d):
            for x in range(g.n):
                tails.append(int(g.perms[l, x]))
                heads.append(x)
                rev.append(l * g.n + x)
    else:
        raise InvalidInputError(f"unsupported graph type {type(g)!r}")
    ne = len(tails)
    by_tail: dict[int, list[int]] = {}
    for f, t in enumerate(tails):
        by_tail.setdefault(t, []).append(f)
    rows, cols = [], []
    for e in range(ne):
        for f in by_tail.get(heads[e], ()):
            if f != rev[e]:
                rows.append(e)
                cols.append(f)
    data = np.ones(len(rows), dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(ne, ne))


def cnbw_via_nb_matrix(g, r: int, budget: int = 10**9) -> np.ndarray:
    """Closed cyclically non-backtracking walk counts for lengths 1..r,
    computed as traces of powers of the edge matrix."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    b = nb_edge_matrix(g)
    ne = b.shape[0]
    if ne * ne > budget:
        raise ResourceLimitError(f"edge matrix with {ne} rows too large for budget")
    out = np.zeros(r, dtype=np.int64)
    power = b.toarray()
    out[0] = np.trace(power)
    limit = np.iinfo(np.int64).max // max(2 * g.degree, 2)
    for k in range(2, r + 1):
        if power.max() > limit:
            raise ResourceLimitError("walk counts would overflow int64")
        power = b.T.dot(power.T).T  # power @ b via sparse ops
        out[k - 1] = np.trace(power)
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


@lru_cache(maxsize=None)
def class_table(d: int, r: int) -> tuple[tuple[WordClass, ...], tuple[tuple[words.Word, int], ...]]:
    """All word classes of length <= r plus every reduced word tagged by class."""
    classes = words.classes_upto(d, r)
    word_rows = tuple((w, ci) for ci, wc in enumerate(classes) for w in wc.orbit())
    return classes, word_rows


def batch_class_counts(perms: np.ndarray, r: int) -> tuple[np.ndarray, tuple[WordClass, ...]]:
    """Cycle counts per word class for a batch of permutation tuples.

    ``perms`` has shape (batch, d, n); the result has shape
    (batch, number of classes of length <= r).

    Only each class's canonical word is walked, from every start vertex.  A
    cycle of the class reads every word of its orbit exactly ``h`` times (no
    cyclically reduced word is conjugate to its inverse, so the orbit has
    size 2k/h), so the closed walks with distinct vertices number ``h``
    times the cycle count.  Distinctness is tested only at the starts whose
    walk closes.
    """
    perms = np.asarray(perms)
    if perms.ndim == 2:
        perms = perms[None]
    batch, d, n = perms.shape
    classes = words.classes_upto(d, r)
    counts = np.zeros((batch, len(classes)), dtype=np.int64)
    dtype = np.int32 if batch * n < 2**31 else np.int64
    # row 2l maps the flat vertex b*n + x to b*n + pi_l(x) in graph b; row
    # 2l + 1 is its inverse, built by scatter
    starts = np.arange(batch * n, dtype=dtype)
    offsets = (np.arange(batch) * n)[:, None]
    tables = np.empty((2 * d, batch * n), dtype=dtype)
    for l in range(d):
        tables[2 * l] = (perms[:, l, :] + offsets).ravel()
        tables[2 * l + 1][tables[2 * l]] = starts
    for ci, wc in enumerate(classes):
        w = wc.letters
        pos = tables[w[0]]
        for c in w[1:]:
            pos = tables[c].take(pos)
        closed = (pos == starts).nonzero()[0]
        if not closed.size:
            continue
        trail = np.empty((len(w), closed.size), dtype=dtype)
        trail[0] = closed
        for i, c in enumerate(w[:-1]):
            tables[c].take(trail[i], out=trail[i + 1])
        trail.sort(axis=0)
        distinct = (trail[1:] != trail[:-1]).all(axis=0)
        reps = np.bincount(closed[distinct] // n, minlength=batch)
        counts[:, ci] = reps // wc.h
        if (counts[:, ci] * wc.h != reps).any():
            raise InvalidInputError(f"closed walk count not divisible by h = {wc.h}")
    return counts, classes
