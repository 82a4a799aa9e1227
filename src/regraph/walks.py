"""Cycle censuses and cyclically non-backtracking walk counts.

A cycle is a closed walk that repeats no vertex and no edge; cycles are
identified when they use the same edge set.  In the permutation model an edge
is a (label, source) pair and every cycle carries a cyclically reduced word.

Closed cyclically non-backtracking walk counts are traces of powers of the
directed non-backtracking edge matrix B, held as a successor table; a closed
walk of length k is ceil(k/2) steps out and floor(k/2) back, so only sparse
powers up to B^ceil(r/2) are made, each as sorted (key, count) arrays.
Subtracting the walks that merely trace out cycles leaves the "bad" walks,
which vanish on graphs whose short cycles are vertex-disjoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import errors, words
from .errors import InvalidInputError, ResourceLimitError, check_bytes
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


def perm_graph_cycles(succ: list[list[int]], pred: list[list[int]], r: int,
                      tops: Optional[list[int]] = None) -> list[CycleSpec]:
    """Cycles of length <= r, each found once from its largest vertex.

    ``succ[l][x]`` is the image of x under permutation l and ``pred[l]`` the
    inverse, as int lists.  Only the vertices in ``tops`` are searched as
    largest vertex; None searches them all, giving the full census.

    Leaving-letter rule: a walk that leaves by letter ``a`` and closes by
    ``c`` is kept only if ``a < c ^ 1``.  Its reverse leaves by ``c ^ 1``,
    so of a cycle's two walks the one met first by the depth-first order
    is kept; a loop (``a == c``) once, by its forward letter, and a
    backtrack over one edge (``a == c ^ 1``) never.  The search raises
    ResourceLimitError past ``errors.SEARCH_STEPS`` letters tried.
    """
    budget = errors.SEARCH_STEPS
    # rows[letter][x] is the vertex that letter leads to from x: letter 2l
    # is pi_l and letter 2l + 1 its inverse
    rows = [row for pair in zip(succ, pred) for row in pair]
    found: list[CycleSpec] = []
    steps = 0
    for v0 in range(len(succ[0])) if tops is None else tops:
        # depth-first with an explicit stack: per path vertex, the letters
        # left to try, so Python's recursion limit does not bound r
        path, word, on_path = [v0], [], {v0}
        branches = [enumerate(rows)]
        while branches:
            x = path[-1]
            for letter, row in branches[-1]:
                steps += 1
                if steps > budget:
                    raise ResourceLimitError(f"cycle search exceeded {budget} steps")
                y = row[x]
                if y == v0:
                    if (word[0] if word else letter) < letter ^ 1:
                        found.append(CycleSpec(tuple(path), tuple(word + [letter])))
                    continue
                if y > v0 or y in on_path or len(path) >= r:
                    continue
                path.append(y)
                word.append(letter)
                on_path.add(y)
                branches.append(enumerate(rows))
                break
            else:
                branches.pop()
                on_path.discard(path.pop())
                del word[-1:]  # the letter into the popped vertex; none at v0
    return found


def enumerate_cycles(g, r: int) -> CycleCensus:
    """Census of all cycles of length at most r.  The search raises
    ResourceLimitError past ``errors.SEARCH_STEPS`` steps: letters tried on
    a permutation graph, path extensions on a simple graph."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    if isinstance(g, PermGraph):
        cycles = perm_graph_cycles(g.perms.tolist(), g.inv.tolist(), r)
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


def _nb_successors(g) -> tuple[np.ndarray, np.ndarray]:
    """The directed-edge matrix B as a successor table, and each directed
    edge's reverse.  Row e of the (ne, q) table lists in increasing order the
    q = degree - 1 edges f with B[e, f] = 1: those leaving the head of e, less
    its reverse.  A uniform-model edge u < v, i-th in sorted order, gives
    directed edges 2i = (u, v) and 2i + 1 = (v, u); a permutation-model edge
    (l, x) gives l n + x, from x to pi_l(x), and its reverse d n + l n + x."""
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
    # each vertex is the tail of exactly `degree` edges, listed in increasing
    # order by the stable sort
    leaving = np.argsort(tails, kind="stable").reshape(g.n, g.degree)[heads]
    return leaving[leaving != rev[:, None]].reshape(tails.size, g.degree - 1), rev


def nb_trace_bytes(ne: int, degree: int, r: int) -> int:
    """Bytes ``cnbw_via_nb_matrix`` may hold, from the shape alone: the powers
    B^0 .. B^h, h = ceil(r/2), at 16 bytes an entry (key and count), a row of
    B^j holding at most min(ne, q^j) entries, q = degree - 1; then the larger
    of the last product's q-fold expansion of B^(h-1), 48 bytes an entry with
    its sort order, and the last trace's lookup, 16 bytes an entry of B^h and
    56 of B^floor(r/2); per edge, the successor table's build and renumbering
    (64 + 40 degree bytes); 64 KiB of Python objects."""
    q, h = degree - 1, (r + 1) // 2
    # past j = 64 the row bound is min(ne, q^64), as q^64 >= 2^64 > ne if q >= 2
    rows = [min(ne, q**j) for j in range(min(h, 64) + 1)]
    powers = ne * (sum(rows) + (h + 1 - len(rows)) * rows[-1])
    product = ne * q * rows[min(h - 1, 64)]
    lookup = ne * (16 * rows[-1] + 56 * rows[min(r // 2, 64)])
    return 16 * powers + max(48 * product, lookup) + (64 + 40 * degree) * ne + 2**16


def _times_nb(keys: np.ndarray, counts: np.ndarray,
              nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P B from P, each as sorted keys e ne + f and their int64 counts, with B
    as the (ne, q) successor table ``nxt``: every entry goes to its q
    successors, and the counts of a repeated key are summed."""
    cols = keys % len(nxt)
    keys = ((keys - cols)[:, None] + nxt[cols]).ravel()
    order = np.argsort(keys)
    keys, counts = keys[order], counts.repeat(nxt.shape[1])[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.add.reduceat(counts, starts)


def cnbw_via_nb_matrix(g, r: int) -> np.ndarray:
    """Closed cyclically non-backtracking walk counts for lengths 1..r:
    tr(B^k) is the diagonal sum of P_k = B^k up to k = ceil(r/2), and past it
    the sum of P_ceil(k/2)[e, f] P_floor(k/2)[f, e].  Rows of B^k sum to
    (degree - 1)^k, which bounds every count."""
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    ne = g.degree * g.n  # directed edges, the rows of the edge matrix
    if ne * (g.degree - 1) ** min(r, 64) > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"walk counts of length {r} on {ne} edges could overflow int64")
    check_bytes(nb_trace_bytes(ne, g.degree, r), f"NB trace with {ne} edges to length {r}")
    out = np.zeros(r, dtype=np.int64)
    if g.degree < 2:
        return out  # an edge goes on only by its reverse, if at all
    succ, rev = _nb_successors(g)
    # renumber so that the reverse of e is ne - 1 - e: reversing both edges
    # maps B to its transpose, so P_j[f, e] = P_j[ne - 1 - e, ne - 1 - f]
    fwd = np.flatnonzero(np.arange(ne) < rev)  # one edge of each pair
    label = np.empty(ne, dtype=np.int64)
    label[fwd] = np.arange(fwd.size)
    label[rev[fwd]] = ne - 1 - np.arange(fwd.size)
    nxt = np.empty_like(succ)
    nxt[label] = label[succ]
    # P_j as its sorted keys e ne + f and their int64 counts
    keys, counts = np.arange(0, ne * ne, ne + 1), np.ones(ne, dtype=np.int64)
    powers = [(keys, counts)]
    for j in range(1, (r + 1) // 2 + 1):
        keys, counts = _times_nb(keys, counts, nxt)
        powers.append((keys, counts))
        out[j - 1] = counts[keys % (ne + 1) == 0].sum()  # the diagonal, e (ne + 1)
    for k in range((r + 1) // 2 + 1, r + 1):
        ka, ca = powers[(k + 1) // 2]
        kb, cb = powers[k // 2]
        # P_b[f, e] is held at the key ne^2 - 1 - (e ne + f), so want holds
        # the keys of P_b's transpose, ascending; the keys are unique on each
        # side, so a key twice in the merge is a match, and the stable sort
        # merges the two sorted runs in one pass
        want = ne * ne - 1 - kb[::-1]
        merged = np.sort(np.concatenate([ka, want]), kind="stable")
        both = merged[1:][merged[1:] == merged[:-1]]
        out[k - 1] = ca[np.searchsorted(ka, both)] @ cb[::-1][np.searchsorted(want, both)]
    return out


# ---------------------------------------------------------------------------
# vectorized word-walk censuses for the permutation model


# most bytes one census chunk's tables and position arrays may take; graphs
# are censused in chunks of whole graphs under it, which keeps the arrays of
# a chunk cache-sized
CENSUS_CHUNK_BYTES = 4 * 2**20


def census_vertex_bytes(d: int, r: int) -> int:
    """Bytes a census chunk takes a vertex: its int32 tables (2d rows), a
    position array per half-word of the plan, and its start and graph indices."""
    return 4 * (2 * d + len(_census_plan(d, r)[1]) + 1 + 2)


def census_graph_bytes(d: int, n: int) -> int:
    """Bytes the census holds whole for one graph with n vertices: its int32
    tables (2d rows), graph index and starts that build the inverse rows (position
    arrays come a chunk of starts at a time).  Under ``errors.BYTE_CAP`` indices fit int32."""
    return 4 * (2 * d + 2) * n


@lru_cache(maxsize=None)
def _census_plan(d: int, r: int):
    """The classes of length <= r, the half-words their census walks, per
    class the indices of its two halves, and per length k the index of its
    first class and the (k, classes) letters of its representatives.

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
    lengths = [wc.length for wc in classes]
    groups = tuple(
        (lengths.index(k),
         np.array([wc.letters for wc in classes if wc.length == k], dtype=np.int32).T.copy())
        for k in sorted(set(lengths)))
    return classes, steps, tuple((index[u], index[v]) for u, v in pairs), groups


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
    order.  An empty batch is refused.

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
        raise InvalidInputError("the batch needs at least one graph")
    d = len(first)
    classes = words.classes_upto(d, r)
    per_vertex = census_vertex_bytes(d, r)
    rows: list[np.ndarray] = []
    chunk: list[np.ndarray] = []
    size = 0
    for g in itertools.chain([first], graphs):
        g = np.asarray(g)
        if g.ndim != 2 or g.shape[0] != d:
            raise InvalidInputError(f"need (d, n) permutation arrays with d = {d}, got {g.shape}")
        n = g.shape[1]
        check_bytes(census_graph_bytes(d, n), f"census of one graph with {n} vertices")
        if chunk and per_vertex * (size + n) > CENSUS_CHUNK_BYTES:
            rows.append(_census_chunk(chunk, r))
            chunk, size = [], 0
        chunk.append(g)
        size += n
    rows.append(_census_chunk(chunk, r))
    return np.concatenate(rows), classes


def cycle_walks(
    graphs: Sequence[np.ndarray], r: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The closed walks on distinct vertices of every class representative
    of length <= r, on a chunk of (d, n_b) permutation arrays (a (batch, d,
    n) array is one) whose vertices are numbered in one flat range, graph b's
    from o_b = n_0 + ... + n_(b-1).

    Yields (ci, letters, trail) for each slice of starts and each run of
    consecutive classes of one length k that close at fewer than two slices
    of starts: column j is a start whose walk of the representative of class
    ci[j] (``words.classes_upto`` order) closes on distinct vertices, and the
    int32 trail[:, j] is its k vertices in walk order, trail[i + 1, j]
    reached from trail[i, j] by the letter letters[i, j].  A cycle of a class
    with period h is met h times.  The tables are made whole and the
    position arrays a slice of starts at a time, each slice under
    ``CENSUS_CHUNK_BYTES``.
    """
    d = len(graphs[0])
    _classes, steps, pairs, groups = _census_plan(d, r)
    sizes = [g.shape[1] for g in graphs]
    total = sum(sizes)
    # row 2l maps the flat vertex o_b + x to o_b + pi_l(x) in graph b; row
    # 2l + 1 is its inverse, built by scatter
    tables = np.empty((2 * d, total), dtype=np.int32)
    np.concatenate(graphs, axis=1, out=tables[0::2])
    tables[0::2] += np.repeat(np.cumsum([0] + sizes[:-1], dtype=np.int32), sizes)
    starts = np.arange(total, dtype=np.int32)
    for l in range(d):
        tables[2 * l + 1][tables[2 * l]] = starts
    del starts
    flat = tables.reshape(-1)
    width = max(1, CENSUS_CHUNK_BYTES // (4 * (len(steps) + 1)))
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        pos = [np.arange(lo, hi, dtype=np.int32)]
        for parent, letter in steps:
            pos.append(tables[letter][lo:hi] if parent == 0 else tables[letter].take(pos[parent]))
        for first, reps in groups:
            # the classes of one length are walked together, a run of them
            # ending once it closes at ``width`` starts, so under 2 ``width``
            run, closed, found = first, [], 0
            for c, (iu, iv) in enumerate(pairs[first : first + reps.shape[1]], first):
                closed.append((pos[iu] == pos[iv]).nonzero()[0] + lo)
                found += closed[-1].size
                if found >= width or (found and c == first + reps.shape[1] - 1):
                    yield _walk_run(flat, total, run, reps[:, run - first : c + 1 - first], closed)
                    run, closed, found = c + 1, [], 0


def _walk_run(flat: np.ndarray, total: int, first: int, reps: np.ndarray,
              closed: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the representative of class first + j, letters reps[:, j], from
    each of its closed starts closed[j]; keep the walks on distinct vertices.
    ``flat`` is the step tables, row c of ``total`` entries for letter c."""
    ci = np.repeat(np.arange(len(closed)), [c.size for c in closed])
    letters = reps[:, ci]
    rows = letters * total
    trail = np.empty(letters.shape, dtype=np.int32)
    np.concatenate(closed, out=trail[0])
    keep = np.ones(ci.size, dtype=bool)
    for i in range(1, len(trail)):
        flat.take(rows[i - 1] + trail[i - 1], out=trail[i])
        keep &= (trail[:i] != trail[i]).all(axis=0)
    return ci[keep] + first, letters[:, keep], trail[:, keep]


def _census_chunk(graphs: list[np.ndarray], r: int) -> np.ndarray:
    """Per-class cycle counts of a chunk of graphs, one flat table set; a
    graph past the chunk keeps only its tables whole."""
    classes = words.classes_upto(len(graphs[0]), r)
    graph_of = np.repeat(np.arange(len(graphs), dtype=np.int32), [g.shape[1] for g in graphs])
    reps = np.zeros((len(graphs), len(classes)), dtype=np.int64)
    for ci, _letters, trail in cycle_walks(graphs, r):
        np.add.at(reps.reshape(-1), graph_of[trail[0]].astype(np.int64) * len(classes) + ci, 1)
    h = np.array([wc.h for wc in classes], dtype=np.int64)
    if (reps % h).any():
        raise InvalidInputError("closed walk count not divisible by the class period h")
    return reps // h
