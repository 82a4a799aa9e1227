"""Tests for cycle censuses and non-backtracking walk counts."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regraph import errors, walks, words
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.graphs import (
    CycleSpec,
    PermGraph,
    SimpleGraph,
    sample_permutation_model,
    sample_uniform_model,
)
from regraph.walks import (
    batch_class_counts,
    cnbw_via_nb_matrix,
    enumerate_cycles,
    nb_edge_matrix,
    perm_graph_cycles,
)
from regraph.words import counts_by_length

from oracles import bad_walk_probe, canonical, cnbw_from_cycles, contained_in


def _brute_force_cnbw(g, r):
    """Count closed cyclically non-backtracking walks by direct enumeration."""
    b = nb_edge_matrix(g).toarray()
    ne = b.shape[0]
    out = np.zeros(r, dtype=np.int64)
    # walks of length k = closed paths e_1 -> ... -> e_k in the edge digraph
    # where consecutive (and wrap-around) moves are allowed by b
    for k in range(1, r + 1):
        count = 0
        stack = [(e0, e0, 1) for e0 in range(ne)]
        while stack:
            e0, e, length = stack.pop()
            if length == k:
                count += b[e, e0]
                continue
            for f in np.nonzero(b[e])[0]:
                stack.append((e0, int(f), length + 1))
        out[k - 1] = count
    return out


def test_cnbw_matches_brute_force_perm_model():
    rng = np.random.default_rng(0)
    g = sample_permutation_model(6, 2, rng)
    assert np.array_equal(cnbw_via_nb_matrix(g, 4), _brute_force_cnbw(g, 4))


def test_cnbw_matches_brute_force_uniform_model():
    rng = np.random.default_rng(1)
    g = sample_uniform_model(8, 3, rng)
    assert np.array_equal(cnbw_via_nb_matrix(g, 4), _brute_force_cnbw(g, 4))


def _loop_nb_edge_matrix(g):
    """The edge matrix built edge by edge: directed edges indexed as in
    ``walks.nb_edge_matrix``, and f follows e when f leaves the head of e
    and is not its reverse."""
    tails, heads, rev = [], [], []
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
    else:
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
    ne = len(tails)
    by_tail = {}
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


def _dense_power_traces(b, r):
    """tr(B^k) for k = 1..r by exact dense powers of Python ints."""
    b = b.toarray().astype(object)
    power = np.identity(b.shape[0], dtype=np.int64).astype(object)
    out = []
    for _ in range(r):
        power = power.dot(b)
        out.append(int(np.trace(power)))
    return out


@st.composite
def _nb_case(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # small n gives loops and doubled edges
        n = draw(st.integers(1, 8))
        g = PermGraph(np.array([draw(st.permutations(range(n))) for _ in range(d)]))
    else:
        n = draw(st.integers(d + 1, 10).filter(lambda n: n * d % 2 == 0))
        g = sample_uniform_model(n, d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.integers(1, 10))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_nb_case())
@example((PermGraph(np.arange(4)[None, :]), 7))  # all loops
@example((PermGraph(np.array([[1, 0, 3, 2], [2, 3, 0, 1]])), 10))  # doubled edges
@example((PermGraph(np.array([[0]] * 3)), 10))  # three loops at one vertex
@example((SimpleGraph(6, 1, [(0, 3), (1, 2), (4, 5)]), 5))  # a matching: no NB walk
def test_nb_edge_matrix_and_trace_match_loop_oracle(case):
    g, r = case
    b = nb_edge_matrix(g)
    expected = _loop_nb_edge_matrix(g)
    assert b.dtype == np.int64 and b.shape == expected.shape
    assert b.nnz == expected.nnz and (b != expected).nnz == 0
    counts = cnbw_via_nb_matrix(g, r)
    assert counts.dtype == np.int64
    assert counts.tolist() == _dense_power_traces(expected, r)


def test_nb_trace_refuses_past_the_byte_estimate(monkeypatch):
    # rows of B^7 hold up to 3^7 of the 80,000 edges: about 11.6 GB
    g = sample_permutation_model(20_000, 2, np.random.default_rng(0))
    assert walks.nb_trace_bytes(80_000, 4, 14) > errors.BYTE_CAP
    monkeypatch.setattr(walks, "nb_edge_matrix", lambda g: pytest.fail("edge matrix built"))
    with pytest.raises(ResourceLimitError):
        cnbw_via_nb_matrix(g, 14)


@pytest.mark.parametrize("model, n, d, r", [
    ("permutation", 500, 2, 7),  # odd r: the tightest shape measured
    ("uniform", 300, 3, 10),
    ("permutation", 3, 3, 10),  # rows of the powers fill up
])
def test_nb_trace_peak_within_its_estimate(model, n, d, r):
    rng = np.random.default_rng(21)
    sample = sample_permutation_model if model == "permutation" else sample_uniform_model
    g = sample(n, d, rng)
    cnbw_via_nb_matrix(g, 2)  # first-call set-up
    tracemalloc.start()
    try:
        cnbw_via_nb_matrix(g, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= walks.nb_trace_bytes(g.degree * g.n, g.degree, r)


def test_nb_trace_refuses_overflow_before_building(monkeypatch):
    # every row of B^k sums to 5^k on this 6-regular graph with 60 edges:
    # 60 * 5^24 fits int64 and 60 * 5^25 does not
    g = sample_permutation_model(10, 3, np.random.default_rng(22))
    counts = cnbw_via_nb_matrix(g, 24)
    assert counts.tolist() == _dense_power_traces(_loop_nb_edge_matrix(g), 24)
    assert walks.nb_trace_bytes(60, 6, 25) < errors.BYTE_CAP
    monkeypatch.setattr(walks, "nb_edge_matrix", lambda g: pytest.fail("edge matrix built"))
    with pytest.raises(ResourceLimitError, match="overflow"):
        cnbw_via_nb_matrix(g, 25)


def test_loop_contributes_two_walks_per_length():
    # single permutation fixing everything: n loops, each giving 2 directed
    # closed walks of every length
    g = PermGraph(np.arange(5)[None, :])
    assert np.array_equal(cnbw_via_nb_matrix(g, 4), np.full(4, 10))
    census = enumerate_cycles(g, 4)
    assert census.count(1) == 5


def test_doubled_edge_gives_two_cycles_of_length_two():
    # pi = product of transpositions: each doubled edge is a 2-cycle
    g = PermGraph(np.array([[1, 0, 3, 2]]))
    census = enumerate_cycles(g, 2)
    assert census.count(2) == 2
    assert census.count(1) == 0
    assert np.array_equal(cnbw_via_nb_matrix(g, 2), [0, 8])


def test_census_words_are_cyclically_reduced_and_counted_once():
    rng = np.random.default_rng(2)
    g = sample_permutation_model(9, 2, rng)
    census = enumerate_cycles(g, 5)
    seen = set()
    for c in census.cycles:
        assert words.is_cyclically_reduced(c.word)
        assert contained_in(c, g)
        key = canonical(c)
        assert key not in seen
        seen.add(key)
    assert sum(census.by_word.values()) == len(census.cycles)


def test_bad_walks_vanish_iff_counts_match():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(10):
        g = sample_uniform_model(16, 3, rng)
        census = enumerate_cycles(g, 4)
        probe = bad_walk_probe(g, 4)
        assert np.all(probe >= 0)
        expected = cnbw_via_nb_matrix(g, 4) - cnbw_from_cycles(census, 4)
        assert np.array_equal(probe, expected)
        hits += int(np.all(probe == 0))
    assert hits > 0  # disjoint short cycles are common at this size


def test_class_orbits_cover_all_reduced_words():
    for d, r in ((1, 4), (2, 4), (3, 3)):
        word_rows = [(w, ci) for ci, wc in enumerate(words.classes_upto(d, r)) for w in wc.orbit()]
        for k in range(1, r + 1):
            n_words = sum(1 for w, _ in word_rows if len(w) == k)
            assert n_words == words.count_reduced_words(d, k)
        # orbits partition the words
        assert len({w for w, _ in word_rows}) == len(word_rows)


def test_batch_class_counts_matches_census():
    rng = np.random.default_rng(4)
    r = 4
    perms = np.stack([
        np.stack([rng.permutation(11) for _ in range(2)]) for _ in range(6)
    ])
    counts, classes = batch_class_counts(perms, r)
    for i in range(perms.shape[0]):
        census = enumerate_cycles(PermGraph(perms[i]), r)
        for ci, wc in enumerate(classes):
            assert counts[i, ci] == census.by_word.get(wc, 0)
    lengths = counts_by_length(counts, classes, r)
    for i in range(perms.shape[0]):
        census = enumerate_cycles(PermGraph(perms[i]), r)
        assert list(lengths[i]) == [census.count(k) for k in range(1, r + 1)]


@st.composite
def _perm_batch(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    batch = draw(st.integers(1, 3))
    perms = [[draw(st.permutations(range(n))) for _ in range(d)] for _ in range(batch)]
    return np.array(perms, dtype=np.int64).reshape(batch, d, n), draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_perm_batch())
def test_batch_class_counts_matches_census_property(case):
    # small n gives n < k, fixed points and multi-edges
    perms, r = case
    counts, classes = batch_class_counts(perms, r)
    assert counts.shape == (perms.shape[0], len(classes))
    for i in range(perms.shape[0]):
        by_word = enumerate_cycles(PermGraph(perms[i]), r).by_word
        assert {wc: int(c) for wc, c in zip(classes, counts[i]) if c} == by_word


def _random_perms(rng, d, n):
    return np.stack([rng.permutation(n) for _ in range(d)])


def test_batch_class_counts_ragged_matches_per_graph_and_oracle():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for r in range(1, 6):
            graphs = [_random_perms(rng, d, n) for n in (1, 2, 7, 1, 13, 2, 4)]
            counts, classes = batch_class_counts(graphs, r)
            assert counts.dtype == np.int64 and counts.shape == (len(graphs), len(classes))
            assert classes == words.classes_upto(d, r)
            for g, row in zip(graphs, counts):
                alone, _ = batch_class_counts([g], r)
                assert np.array_equal(alone[0], row)
                by_word = enumerate_cycles(PermGraph(g), r).by_word
                assert {wc: int(c) for wc, c in zip(classes, row) if c} == by_word


def test_cycle_walks_meet_each_cycle_once_per_period():
    rng = np.random.default_rng(15)
    for d in (1, 2, 3):
        for r in (1, 3, 5):
            graphs = [_random_perms(rng, d, n) for n in (1, 6, 2, 9)]
            offsets = [0, 1, 7, 9]
            classes = words.classes_upto(d, r)
            hits = Counter()
            for ci, letters, trail in walks.cycle_walks(graphs, r):
                assert trail.dtype == np.int32 and letters.shape == trail.shape
                for c, word, walk in zip(ci.tolist(), letters.T.tolist(), trail.T.tolist()):
                    assert tuple(word) == classes[c].letters
                    b = max(i for i, o in enumerate(offsets) if o <= walk[0])
                    cycle = CycleSpec(tuple(v - offsets[b] for v in walk), classes[c].letters)
                    assert contained_in(cycle, PermGraph(graphs[b]))
                    hits[b, canonical(cycle)] += 1
            expected = Counter()
            for b, g in enumerate(graphs):
                for c in enumerate_cycles(PermGraph(g), r).cycles:
                    expected[b, canonical(c)] = words.canonicalize(c.word).h
            assert hits == expected


def test_batch_class_counts_empty_and_generator():
    with pytest.raises(InvalidInputError):
        batch_class_counts(np.zeros((0, 2, 5), dtype=np.int64), 3)
    with pytest.raises(InvalidInputError):
        batch_class_counts([], 3)
    with pytest.raises(InvalidInputError):
        batch_class_counts([np.arange(4)], 3)  # one (n,) row is not a (d, n) graph
    rng = np.random.default_rng(13)
    perms = np.stack([_random_perms(rng, 2, 9) for _ in range(5)])
    expected, _ = batch_class_counts(perms, 4)
    counts, _ = batch_class_counts((g for g in perms), 4)
    assert np.array_equal(counts, expected)


def test_batch_class_counts_chunks_agree(monkeypatch):
    rng = np.random.default_rng(14)
    graphs = [_random_perms(rng, 2, n) for n in (30, 5, 40, 1, 25, 30, 2, 60)]
    whole, classes = batch_class_counts(graphs, 5)
    chunks = []
    census_chunk = walks._census_chunk
    monkeypatch.setattr(walks, "_census_chunk", lambda gs, plan: chunks.append(len(gs))
                        or census_chunk(gs, plan))
    for cap in (10**4, 1):  # a few graphs a chunk; one graph a chunk
        chunks.clear()
        monkeypatch.setattr(walks, "CENSUS_CHUNK_BYTES", cap)
        counts, _ = batch_class_counts(graphs, 5)
        assert np.array_equal(counts, whole)
        assert sum(chunks) == len(graphs) and len(chunks) > 1
    assert chunks == [1] * len(graphs)


def test_batch_class_counts_refuses_before_allocating(monkeypatch):
    n = 5000
    g = _random_perms(np.random.default_rng(15), 2, n)
    batch_class_counts([g[:, :0]], 4)  # fill the plan cache
    monkeypatch.setattr(errors, "BYTE_CAP", 4 * n)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            batch_class_counts([g], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n  # less than one int32 vertex array


def test_batch_class_counts_memory_bounded_by_chunk():
    # the working set is one chunk, whatever the batch size
    rng = np.random.default_rng(16)
    perms = np.argsort(rng.random((256, 2, 800)), axis=-1)
    batch_class_counts(perms[:1], 4)

    def peak(batch):
        tracemalloc.start()
        try:
            batch_class_counts(batch, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def drawn(b):
        for g in perms[:b]:
            yield g.copy()

    assert peak(perms) < 2 * walks.CENSUS_CHUNK_BYTES
    for b in (16, 256):
        assert peak(drawn(b)) < 2 * walks.CENSUS_CHUNK_BYTES


def test_batch_class_counts_memory_bounded_when_every_walk_closes():
    # on identity permutations every class closes at every start, and only
    # the loops are cycles; the classes of one length are walked a run of
    # about one slice of closed starts at a time
    n, d, r = 20_000, 2, 6
    perms = np.tile(np.arange(n), (1, d, 1))
    tracemalloc.start()
    try:
        counts, classes = batch_class_counts(perms, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [[n if wc.length == 1 else 0 for wc in classes]]
    assert peak < 4 * walks.CENSUS_CHUNK_BYTES


def test_batch_class_counts_large_graph_holds_only_its_tables(monkeypatch):
    # one graph past the chunk: its position arrays are made a slice of
    # starts at a time, so it holds its tables whole and one chunk beside
    d, r, n = 2, 6, 100_000
    g = _random_perms(np.random.default_rng(17), d, n)
    batch_class_counts([g[:, :0]], r)  # fill the plan cache
    tracemalloc.start()
    try:
        sliced, _ = batch_class_counts([g], r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < walks.census_graph_bytes(d, n) + 2 * walks.CENSUS_CHUNK_BYTES
    monkeypatch.setattr(walks, "CENSUS_CHUNK_BYTES", 2**30)  # one slice
    whole, _ = batch_class_counts([g], r)
    assert np.array_equal(sliced, whole)


def test_enumerate_cycles_budget(monkeypatch):
    rng = np.random.default_rng(5)
    g = sample_permutation_model(30, 3, rng)
    monkeypatch.setattr(errors, "SEARCH_STEPS", 100)
    with pytest.raises(ResourceLimitError):
        enumerate_cycles(g, 6)


def test_enumerate_cycles_budget_on_a_simple_graph(monkeypatch):
    g = sample_uniform_model(30, 3, np.random.default_rng(5))
    with monkeypatch.context() as patch:
        patch.setattr(errors, "SEARCH_STEPS", 100)
        with pytest.raises(ResourceLimitError, match="exceeded 100 steps"):
            enumerate_cycles(g, 6)
    # the budget only refuses: a run under it finds the same cycles
    full = enumerate_cycles(g, 6)
    monkeypatch.setattr(errors, "SEARCH_STEPS", 10**5)
    assert enumerate_cycles(g, 6).cycles == full.cycles
    assert full.by_length[6] > 0


def _edge_set_cycles(g, r, tops=None):
    """Cycles of length <= r by a search that walks each cycle both ways and
    keeps the first walk of each edge set; also returns the moves it tried."""
    perms, inv, d = g.perms, g.inv, g.d
    seen = {}
    steps = 0

    def moves(x):
        for l in range(d):
            yield int(perms[l, x]), (l, x), 2 * l
            y = int(inv[l, x])
            yield y, (l, y), 2 * l + 1

    def dfs(v0, path, used, word):
        nonlocal steps
        x = path[-1]
        for y, edge, letter in moves(x):
            steps += 1
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
    return list(seen.values()), steps


@st.composite
def _search_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    perms = np.array([draw(st.permutations(range(n))) for _ in range(d)], dtype=np.int64)
    tops = None
    if draw(st.booleans()):
        tops = draw(st.lists(st.integers(0, n - 1), unique=True))
    return PermGraph(perms), draw(st.integers(1, 5)), tops


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_search_case())
def test_perm_graph_cycles_matches_edge_set_oracle(case):
    # same vertices, words and order as the edge-set search, and the budget
    # runs out at the same step
    g, r, tops = case
    expected, steps = _edge_set_cycles(g, r, tops)
    succ, pred = g.perms.tolist(), g.inv.tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "SEARCH_STEPS", steps)
        found = perm_graph_cycles(succ, pred, r, tops=tops)
        assert [(c.vertices, c.word) for c in found] == [(c.vertices, c.word) for c in expected]
        if steps:
            patch.setattr(errors, "SEARCH_STEPS", steps - 1)
            with pytest.raises(ResourceLimitError):
                perm_graph_cycles(succ, pred, r, tops=tops)


def test_perm_graph_cycles_finds_a_cycle_longer_than_the_recursion_limit():
    # one permutation that is a single 3,000-cycle through the vertices in a
    # shuffled order: the search walks a path of 3,000 vertices to close it
    n = 3000
    order = np.random.default_rng(5).permutation(n)
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    g = PermGraph(perm[None, :])
    (cycle,) = perm_graph_cycles(g.perms.tolist(), g.inv.tolist(), n)
    assert cycle.length == n and cycle.vertices[0] == n - 1
    assert contained_in(cycle, g)
