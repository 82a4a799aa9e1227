"""Tests for graph models, cycle specs, couplings, and switchings."""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph import errors, graphs, words
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.graphs import (
    CycleSpec,
    PermGraph,
    SimpleGraph,
    SwitchingChain,
    _complement_neighbors,
    _cycles_through_edges,
    _edge,
    _forward_option_counts,
    sample_permutation_model,
    sample_uniform_model,
    simple_cycle_census,
)

from oracles import (
    apply_switching,
    canonical,
    contained_in,
    enumerate_labeled_regular_graphs,
    pairing_model_graph,
    size_bias_coupling,
    undirected_edges,
)


# ---------------------------------------------------------------------------
# models and serialization


def test_perm_graph_validation():
    with pytest.raises(InvalidInputError):
        PermGraph(np.array([[0, 0, 1]]))
    with pytest.raises(InvalidInputError):
        PermGraph(np.arange(4))


def test_perm_graph_adjacency_degree():
    rng = np.random.default_rng(0)
    g = sample_permutation_model(9, 3, rng)
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(a.sum(axis=0) == 2 * g.d)
    assert g.degree == 6


def test_perm_graph_inverse_consistency():
    rng = np.random.default_rng(1)
    g = sample_permutation_model(12, 2, rng)
    for l in range(g.d):
        assert np.array_equal(g.perms[l][g.inv[l]], np.arange(g.n))


def test_perm_graph_json_roundtrip():
    rng = np.random.default_rng(2)
    g = sample_permutation_model(7, 2, rng)
    obj = json.loads(g.to_json())
    g2 = PermGraph(np.asarray(obj["perms"]) - 1)
    assert obj["model"] == "permutation" and (obj["n"], obj["d"]) == (g2.n, g2.d)
    assert g == g2
    # serialization is 1-based
    assert min(min(row) for row in obj["perms"]) == 1


def test_simple_graph_json_roundtrip():
    rng = np.random.default_rng(3)
    g = sample_uniform_model(10, 3, rng)
    obj = json.loads(g.to_json())
    assert obj["model"] == "uniform"
    g2 = SimpleGraph(obj["n"], obj["d"], [(u - 1, v - 1) for u, v in obj["edges"]])
    assert g == g2


def test_simple_graph_regularity_enforced():
    with pytest.raises(InvalidInputError):
        SimpleGraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidInputError):
        SimpleGraph(3, 2, [(0, 0), (0, 1), (1, 2)])


def test_sample_uniform_model_is_simple_regular():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = sample_uniform_model(14, 3, rng)
        assert all(len(set(nb)) == 3 for nb in g.neighbors)
        assert all(u != v for u, v in g.edges)


def test_sample_uniform_model_rejects_impossible():
    rng = np.random.default_rng(5)
    with pytest.raises(InvalidInputError):
        sample_uniform_model(5, 3, rng)  # odd n*d
    with pytest.raises(InvalidInputError):
        sample_uniform_model(3, 3, rng)  # d >= n


def _numpy_uniform_sample(n, d, rng):
    """The pairing-model sampler as it was with numpy calls per attempt, and
    the two-pass ``SimpleGraph`` build it fed: the oracle for the draws, the
    edge set's iteration order and the neighbour tuples."""
    while True:
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
        edge_set = set()
        for u, v in pairs:
            edge_set.add(_edge(u, v))
        adj = [[] for _ in range(n)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        return list(frozenset(edge_set)), [tuple(sorted(a)) for a in adj]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sample_uniform_model_matches_numpy_oracle(d):
    for n in range(d + 1, 31):
        if not graphs.simple_regular_exists(n, d):
            continue
        for seed in range(2):
            rng, oracle_rng = np.random.default_rng([seed, n, d]), np.random.default_rng([seed, n, d])
            g = sample_uniform_model(n, d, rng)
            edges, neighbors = _numpy_uniform_sample(n, d, oracle_rng)
            assert list(g.edges) == edges and g.neighbors == neighbors, (n, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            # a repeated edge, in either orientation, counts once
            again = SimpleGraph(n, d, list(g.edges) + [(v, u) for u, v in g.edges])
            assert again == g and again.neighbors == g.neighbors


def test_permuted_rows_are_successive_permutations():
    # the block sampler rests on this numpy behaviour: one permuted call over
    # B rows of arange(m) draws what B permutation(m) calls would, and leaves
    # the generator where they would
    for m in (2, 3, 24, 48, 1000):
        rng, oracle = np.random.default_rng([m, 1]), np.random.default_rng([m, 1])
        block = rng.permuted(np.broadcast_to(np.arange(m), (7, m)), axis=1)
        assert np.array_equal(block, [oracle.permutation(m) for _ in range(7)]), m
        assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("block", [None, 1, 4096])
def test_sample_uniform_pairings_are_successive_uniform_graphs(monkeypatch, block):
    # blocks of one attempt, of a few, and of the default size
    if block is not None:
        monkeypatch.setattr(graphs, "PAIRING_BLOCK_BYTES", block)
    for n, d in ((2, 1), (8, 2), (6, 3), (10, 3), (7, 4), (16, 3), (8, 5)):
        rng, oracle = np.random.default_rng([n, d]), np.random.default_rng([n, d])
        pairs = graphs.sample_uniform_pairings(n, d, 6, rng)
        assert pairs.shape == (6, n * d // 2, 2) and pairs.dtype == np.int64
        nbrs = graphs.pairing_neighbors(pairs, n)
        for edges, table in zip(pairs, nbrs):
            g = pairing_model_graph(n, d, oracle)
            assert SimpleGraph(n, d, map(tuple, edges.tolist())) == g, (n, d)
            assert [tuple(row) for row in table.tolist()] == g.neighbors
    assert graphs.sample_uniform_pairings(8, 3, 0, rng).shape == (0, 12, 2)
    with pytest.raises(InvalidInputError):
        graphs.sample_uniform_pairings(5, 3, 1, rng)  # odd n*d


@pytest.mark.parametrize("block", [None, 1, 2000])
def test_sample_uniform_pairings_keep_the_retry_budget(monkeypatch, block):
    # the budget is per graph, as in pairing_model_graph: the block sampler
    # fails exactly when one of the graphs would need more attempts, also
    # when those attempts span blocks
    if block is not None:
        monkeypatch.setattr(graphs, "PAIRING_BLOCK_BYTES", block)
    outcomes = Counter()
    for n, d, max_retries in ((10, 2, 1), (12, 2, 2), (12, 2, 3), (10, 3, 5), (10, 3, 8)):
        monkeypatch.setattr(errors, "PAIRING_RETRIES", max_retries)
        for seed in range(8):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                expected = [pairing_model_graph(n, d, oracle, max_retries) for _ in range(4)]
            except ResourceLimitError:
                outcomes["refused"] += 1
                with pytest.raises(ResourceLimitError, match=f"failed {max_retries} times"):
                    graphs.sample_uniform_pairings(n, d, 4, rng)
                continue
            outcomes["sampled"] += 1
            pairs = graphs.sample_uniform_pairings(n, d, 4, rng)
            assert [SimpleGraph(n, d, map(tuple, p.tolist())) for p in pairs] == expected
    assert min(outcomes.values()) >= 10


def test_sample_uniform_model_keeps_the_retry_budget(monkeypatch):
    # its own attempt loop refuses exactly where the oracle loop does, after
    # the same draws
    outcomes = Counter()
    for n, d, max_retries in ((10, 2, 1), (12, 2, 2), (10, 3, 5)):
        monkeypatch.setattr(errors, "PAIRING_RETRIES", max_retries)
        for seed in range(8):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                expected = pairing_model_graph(n, d, oracle, max_retries)
            except ResourceLimitError:
                outcomes["refused"] += 1
                with pytest.raises(ResourceLimitError, match=f"failed {max_retries} times"):
                    sample_uniform_model(n, d, rng)
            else:
                outcomes["sampled"] += 1
                assert sample_uniform_model(n, d, rng) == expected
            assert rng.bit_generator.state == oracle.bit_generator.state
    assert min(outcomes.values()) >= 5


def test_simple_cycle_counts_small_graphs():
    k4 = SimpleGraph(4, 3, itertools.combinations(range(4), 2))
    k33 = SimpleGraph(6, 3, [(u, v) for u in range(3) for v in range(3, 6)])
    ring = SimpleGraph(9, 2, [(x, (x + 4) % 9) for x in range(9)])
    nbrs = [k4.neighbors, k33.neighbors, ring.neighbors]
    assert graphs.simple_cycle_counts(np.array(nbrs[:1]), 5).tolist() == [[0, 0, 4, 3, 0]]
    assert graphs.simple_cycle_counts(np.array(nbrs[1:2]), 7).tolist() == [[0, 0, 0, 9, 0, 6, 0]]
    assert graphs.simple_cycle_counts(np.array(nbrs[2:]), 12)[0].tolist() == [0] * 8 + [1, 0, 0, 0]
    assert graphs.simple_cycle_counts(np.array(nbrs[:1]), 2).tolist() == [[0, 0]]
    assert graphs.simple_cycle_counts(np.zeros((0, 5, 2), dtype=np.int64), 4).shape == (0, 4)
    with pytest.raises(InvalidInputError):
        graphs.simple_cycle_counts(np.array(k4.neighbors), 4)


def test_simple_cycle_counts_check_bytes_first(monkeypatch):
    nbrs = np.array([SimpleGraph(4, 3, itertools.combinations(range(4), 2)).neighbors])
    need = graphs.simple_count_bytes(1, 4, 3, 4)
    monkeypatch.setattr(errors, "BYTE_CAP", need - 1)
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated before the check"))
    with pytest.raises(ResourceLimitError, match="cycle counts of 1 graphs"):
        graphs.simple_cycle_counts(nbrs, 4)
    monkeypatch.undo()
    monkeypatch.setattr(errors, "BYTE_CAP", need)
    assert graphs.simple_cycle_counts(nbrs, 4).tolist() == [[0, 0, 4, 3]]


def test_enumerate_labeled_regular_graphs_counts():
    assert len(enumerate_labeled_regular_graphs(4, 3)) == 1  # K4
    assert len(enumerate_labeled_regular_graphs(4, 1)) == 3  # perfect matchings
    assert len(enumerate_labeled_regular_graphs(6, 3)) == 70


# ---------------------------------------------------------------------------
# cycle specs


def test_cycle_spec_canonical_invariance():
    spec = CycleSpec((3, 1, 4, 2), (0, 2, 1, 3))
    canon = canonical(spec)
    k = spec.length
    vs, w = spec.vertices, spec.word
    for r in range(k):
        rot = CycleSpec(vs[r:] + vs[:r], w[r:] + w[:r])
        assert canonical(rot) == canon
    assert canonical(canon) == canon


def test_cycle_spec_containment_perm_model():
    # pi_0 = (0 1 2), pi_1 = identity-ish swap
    perms = np.array([[1, 2, 0, 3], [0, 1, 3, 2]])
    g = PermGraph(perms)
    # word "a a a" around 0 -> 1 -> 2 -> 0
    assert contained_in(CycleSpec((0, 1, 2), (0, 0, 0)), g)
    # inverse direction: word "A A A" around 0 -> 2 -> 1 -> 0
    assert contained_in(CycleSpec((0, 2, 1), (1, 1, 1)), g)
    assert not contained_in(CycleSpec((0, 1, 3), (0, 0, 0)), g)


def test_cycle_spec_containment_simple():
    g = SimpleGraph(4, 3, itertools.combinations(range(4), 2))
    assert contained_in(CycleSpec((0, 1, 2)), g)
    assert contained_in(CycleSpec((0, 1, 2, 3)), g)


def test_cycle_spec_rejects_unreduced_word():
    with pytest.raises(InvalidInputError):
        CycleSpec((0, 1), (0, 1))  # "a A" backtracks


# ---------------------------------------------------------------------------
# size-biased coupling


def test_coupling_forces_cycle_in():
    rng = np.random.default_rng(6)
    alpha = CycleSpec((0, 1, 2), (0, 0, 2))
    for _ in range(25):
        g = sample_permutation_model(8, 2, rng)
        g2 = size_bias_coupling(g, alpha)
        assert contained_in(alpha, g2)
        # each row of g2 is still a permutation
        for l in range(g2.d):
            assert sorted(g2.perms[l]) == list(range(g2.n))


def test_coupling_identity_when_present():
    perms = np.array([[1, 2, 0, 3]])
    g = PermGraph(perms)
    alpha = CycleSpec((0, 1, 2), (0, 0, 0))
    assert size_bias_coupling(g, alpha) == g


def test_coupling_output_is_conditionally_uniform():
    # Push every permutation of [4] through the coupling for a 2-cycle and
    # check the output law is uniform on the permutations containing it.
    alpha = CycleSpec((0, 1), (0, 0))
    hits = Counter()
    for p in itertools.permutations(range(4)):
        g = PermGraph(np.array([p]))
        g2 = size_bias_coupling(g, alpha)
        assert contained_in(alpha, g2)
        hits[g2.key()] += 1
    conditioned = [
        p
        for p in itertools.permutations(range(4))
        if p[0] == 1 and p[1] == 0
    ]
    assert len(hits) == len(conditioned) == 2
    assert set(hits.values()) == {12}


def all_cycle_candidates(n, d, k):
    """Every length-k permutation-model cycle on n vertices, one spec per cycle."""
    all_words = set()
    for wc in words.enumerate_word_classes(d, k):
        all_words |= wc.orbit()
    out = []
    for vs in itertools.permutations(range(n), k):
        for w in all_words:
            spec = CycleSpec(vs, w)
            if canonical(spec) == spec:
                out.append(spec)
    return out


def monotone_partition(alpha, candidates):
    """Split candidate cycles into the (minus, plus) classes used by the coupling.

    A candidate lands in ``minus`` when one of its directed labeled edges
    shares a tail or head with an edge required by ``alpha`` but disagrees on
    the other endpoint; such cycles can only be destroyed by forcing alpha in.
    All remaining candidates other than alpha itself land in ``plus``.
    """
    out_map = {}
    in_map = {}
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


def test_monotone_partition_is_monotone():
    rng = np.random.default_rng(7)
    n, d, k = 6, 2, 3
    candidates = all_cycle_candidates(n, d, k)
    for _ in range(10):
        g = sample_permutation_model(n, d, rng)
        alpha = candidates[rng.integers(len(candidates))]
        g2 = size_bias_coupling(g, alpha)
        minus, plus = candidates_partition = monotone_partition(alpha, candidates)
        for cand in minus:
            # can only be destroyed: present after means present before
            assert not contained_in(cand, g2) or contained_in(cand, g)
        for cand in plus:
            # can only be created: present before means present after
            assert not contained_in(cand, g) or contained_in(cand, g2)
        assert len(minus) + len(plus) == len(candidates) - 1


# ---------------------------------------------------------------------------
# switching oracles: brute force and full recensus


def _edge_sets_through(g, changed, r):
    """Edge sets of all cycles of length <= r using at least one changed edge."""
    found = set()
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


def switching_is_valid(g, g2, alpha_edges, r, direction):
    """Valid switchings change the short-cycle census by exactly ``alpha``.

    Only cycles through a changed edge can appear or disappear, so the check
    is local to the switched edges.
    """
    destroyed = _edge_sets_through(g, g.edges - g2.edges, r)
    created = _edge_sets_through(g2, g2.edges - g.edges, r)
    if direction == "forward":
        return destroyed == {alpha_edges} and not created
    return created == {alpha_edges} and not destroyed


def forward_switchings(g, alpha, r, rng=None, budget=10**7):
    """Count valid forward switchings at ``alpha`` and return one uniformly.

    The cycle representation of ``alpha`` is held fixed, so each switching is
    counted once.  Returns (count, (vs, us, ws)) with the sample None when the
    count is zero.
    """
    if not contained_in(alpha, g):
        raise InvalidInputError("alpha must be a cycle of g")
    k = alpha.length
    if k > r:
        raise InvalidInputError(f"cycle length {k} exceeds horizon r={r}")
    directed = [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges]
    if len(directed) ** k > budget:
        raise ResourceLimitError(f"(nd)^k = {len(directed) ** k} exceeds budget {budget}")
    vs = alpha.vertices
    alpha_edges = undirected_edges(alpha)
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


def backward_switchings(g, alpha, r, rng=None, budget=10**7):
    """Count valid backward switchings creating ``alpha``; mirror of forward."""
    k = alpha.length
    if k > r:
        raise InvalidInputError(f"cycle length {k} exceeds horizon r={r}")
    vs = alpha.vertices
    alpha_edges = undirected_edges(alpha)
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


def _complement(g):
    co = _complement_neighbors(g)
    return SimpleGraph(g.n, g.n - 1 - g.d, [(u, v) for u in range(g.n) for v in co[u] if u < v])


def _dfs_cycle_census(g, r):
    """All cycles of length 3..r as {edge set: vertex tuple}, by a recursive
    DFS from each vertex as the cycle's smallest: an oracle for the one
    cycle search of ``graphs``, with which it shares no code.

    Each cycle is kept once, in the form of ``_canonical_cycle``, and with
    neighbours taken in ascending order the tuples of each length come in
    ascending order.  The recursion is as deep as the longest path searched.
    """
    found = {}
    if r < 3:
        return found

    def dfs(start, path):
        last = path[-1]
        for nxt in g.neighbors[last]:
            if nxt == start and len(path) >= 3:
                # fix direction: second vertex smaller than last
                if path[1] < last:
                    found[frozenset(map(_edge, path, path[1:] + path[:1]))] = tuple(path)
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


def _cycles_of(g, r):
    """Full census of g by length, each length in census order, from the
    DFS oracle."""
    out = {k: [] for k in range(3, r + 1)}
    for vs in _dfs_cycle_census(g, r).values():
        out[len(vs)].append(vs)
    return out


class RecensusChain:
    """SwitchingChain's proposal and Metropolis ratio with a full census of
    the graph and of its complement after every move and for every ratio."""

    def __init__(self, g, r, rng, validity="census"):
        self.r = r
        self.rng = rng
        self.validity = validity
        self._set_graph(g)

    def _set_graph(self, g):
        self.graph = g
        self.cycles_by_length = _cycles_of(g, self.r)
        self.co_cycles_by_length = _cycles_of(_complement(g), self.r)

    def _forward_weight(self, g, vs, k_cycles):
        options = _forward_option_counts(g, vs)
        prod = 1.0
        for opts in options:
            if not opts:
                return 0.0
            prod /= len(opts)
        return prod / k_cycles

    def step(self):
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
            alpha_edges = undirected_edges(CycleSpec(tuple(vs)))
            if self.validity == "census" and not switching_is_valid(
                g, g2, alpha_edges, self.r, "forward"
            ):
                return False
            co_k = len(_cycles_of(_complement(g2), self.r)[k])
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
            alpha_edges = undirected_edges(CycleSpec(tuple(vs)))
            if self.validity == "census" and not switching_is_valid(
                g, g2, alpha_edges, self.r, "backward"
            ):
                return False
            backward_q = 1.0 / (len(co_cycles) * pair_count)
            target_cycles = _cycles_of(g2, self.r)[k]
            options = _forward_option_counts(g2, vs)
            if any((ws[i], us[(i + 1) % k]) not in options[i] for i in range(k)):
                return False
            forward_q = self._forward_weight(g2, vs, len(target_cycles))
            accept = min(1.0, forward_q / backward_q)
        if rng.random() >= accept:
            return False
        self._set_graph(g2)
        return True


# ---------------------------------------------------------------------------
# switchings


def test_simple_cycle_census_complete_graph():
    g = SimpleGraph(5, 4, itertools.combinations(range(5), 2))
    census = simple_cycle_census(g, 5)
    by_len = Counter(len(vs) for vs in census.values())
    # C(5,3) triangles, C(5,4)*3 four-cycles, 4!/2 five-cycles
    assert by_len == {3: 10, 4: 15, 5: 12}


@st.composite
def _census_case(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, 13).filter(lambda m: m * d % 2 == 0))
    g = sample_uniform_model(n, d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()) and n - 1 - d >= 1:
        g = _complement(g)
    return g, draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_census_case())
def test_simple_cycle_census_matches_dfs_oracle(case):
    # the same items, ordered by length and, within a length, in the order
    # the DFS finds them
    g, r = case
    census = list(simple_cycle_census(g, r).items())
    oracle = _dfs_cycle_census(g, r)
    assert dict(census) == oracle
    assert census == sorted(oracle.items(), key=lambda item: len(item[1]))
    assert all(edges == undirected_edges(CycleSpec(vs)) for edges, vs in census)


def test_simple_cycle_census_runs_past_the_recursion_limit():
    # a recursive search would need a frame per vertex of the 1,500-cycle
    n = 1500
    g = SimpleGraph(n, 2, [(x, (x + 1) % n) for x in range(n)])
    census = simple_cycle_census(g, n)
    assert list(census.values()) == [(0,) + tuple(range(1, n))]


def test_long_cycle_is_walked_once():
    # the search from (0, 1) walks the 1,500-cycle; from every later edge
    # (u, v) no cycle can close at u, whose other neighbour is across a cut
    # edge, so no search is made: O(n) neighbour reads, not about n^2 / 2
    n = 1500
    g = SimpleGraph(n, 2, [(x, (x + 1) % n) for x in range(n)])
    reads = []

    class CountedReads(list):
        def __getitem__(self, x):
            reads.append(x)
            return super().__getitem__(x)

    assert graphs._all_cycles(CountedReads(g.neighbors), n) == {(0,) + tuple(range(1, n))}
    assert len(reads) < 5 * n


def test_apply_switching_inverse_pair():
    rng = np.random.default_rng(8)
    n, d, r = 12, 3, 3
    found = 0
    while found < 3:
        g = sample_uniform_model(n, d, rng)
        census = simple_cycle_census(g, r)
        for vs in census.values():
            alpha = CycleSpec(vs)
            count, sample = forward_switchings(g, alpha, r, rng)
            if count == 0:
                continue
            vs_s, us, ws = sample
            g2 = apply_switching(g, vs_s, us, ws, "forward")
            assert g2 is not None
            assert switching_is_valid(g, g2, undirected_edges(alpha), r, "forward")
            back = apply_switching(g2, vs_s, us, ws, "backward")
            assert back == g
            assert switching_is_valid(g2, back, undirected_edges(alpha), r, "backward")
            # counting bounds
            assert count <= (n * d) ** r
            bcount, _ = backward_switchings(g2, alpha, r)
            assert 1 <= bcount <= (d * (d - 1)) ** r
            found += 1
            break


def test_small_dense_graphs_admit_no_valid_switchings():
    # On 6 vertices every 3-regular graph is so dense that no switching can
    # change the short-cycle census by exactly one cycle; spot-check a few.
    rng = np.random.default_rng(9)
    graphs = enumerate_labeled_regular_graphs(6, 3)
    for g in (graphs[0], graphs[17], graphs[42]):
        for vs in simple_cycle_census(g, 3).values():
            count, _ = forward_switchings(g, CycleSpec(vs), 3, rng)
            assert count == 0
        comp = _complement(g)
        for vs in simple_cycle_census(comp, 3).values():
            count, _ = backward_switchings(g, CycleSpec(vs), 3, rng)
            assert count == 0


def _exact_chain_component(g0, r=3, d=3):
    """BFS over structural switchings with exact proposal probabilities.

    Returns (states, P) where P[i][j] is the exact transition probability of
    one SwitchingChain step in structural mode, as Fractions.
    """
    k = r
    states = {}
    order = []

    def visit(g):
        key = g.key()
        if key not in states:
            states[key] = g
            order.append(key)
        return key

    visit(g0)
    rows = {}
    i = 0
    while i < len(order):
        g = states[order[i]]
        i += 1
        row = Counter()
        comp = _complement(g)
        cyc = list(simple_cycle_census(g, k).values())
        cocyc = list(simple_cycle_census(comp, k).values())

        def reps_of(base):
            out = []
            for r0 in range(k):
                rot = base[r0:] + base[:r0]
                out.append(rot)
                out.append((rot[0],) + tuple(reversed(rot[1:])))
            return out

        for base in cyc:
            for vs in reps_of(tuple(base)):
                opts = _forward_option_counts(g, vs)
                if any(not o for o in opts):
                    continue
                prod = 1
                for o in opts:
                    prod *= len(o)
                for combo in itertools.product(*opts):
                    ws = tuple(c[0] for c in combo)
                    us_next = tuple(c[1] for c in combo)
                    us = (us_next[-1],) + us_next[:-1]
                    g2 = apply_switching(g, vs, us, ws, "forward")
                    if g2 is None:
                        continue
                    qf = Fraction(1, len(cyc) * prod)
                    cc2 = len(simple_cycle_census(_complement(g2), k))
                    if cc2 == 0:
                        continue
                    qb = Fraction(1, cc2 * (d * (d - 1)) ** k)
                    acc = min(Fraction(1), qb / qf)
                    row[visit(g2)] += Fraction(1, 2) * Fraction(1, 2 * k * len(cyc) * prod) * acc
        for base in cocyc:
            for vs in reps_of(tuple(base)):
                nbs = [g.neighbors[v] for v in vs]
                for pairs in itertools.product(
                    *[list(itertools.permutations(nb, 2)) for nb in nbs]
                ):
                    us = tuple(p[0] for p in pairs)
                    ws = tuple(p[1] for p in pairs)
                    g2 = apply_switching(g, vs, us, ws, "backward")
                    if g2 is None:
                        continue
                    qb = Fraction(1, len(cocyc) * (d * (d - 1)) ** k)
                    c2 = list(simple_cycle_census(g2, k).values())
                    if not c2:
                        continue
                    opts2 = _forward_option_counts(g2, vs)
                    if any((ws[j], us[(j + 1) % k]) not in opts2[j] for j in range(k)):
                        continue
                    prod2 = 1
                    for o in opts2:
                        prod2 *= len(o)
                    qf = Fraction(1, len(c2) * prod2)
                    acc = min(Fraction(1), qf / qb)
                    row[visit(g2)] += (
                        Fraction(1, 2)
                        * Fraction(1, 2 * k * len(cocyc) * (d * (d - 1)) ** k)
                        * acc
                    )
        rows[order[i - 1]] = row
    return order, rows


def test_switching_chain_exact_detailed_balance():
    rng = np.random.default_rng(10)
    g0 = sample_uniform_model(6, 3, rng)
    order, rows = _exact_chain_component(g0)
    assert len(order) == 7
    for a in order:
        for b, p in rows[a].items():
            assert rows[b].get(a, Fraction(0)) == p


def test_switching_chain_stays_regular_and_moves():
    rng = np.random.default_rng(11)
    g = sample_uniform_model(6, 3, rng)
    chain = SwitchingChain(g, 3, rng, validity="structural")
    moved = 0
    for _ in range(20000):
        moved += chain.step()
        assert chain.graph.d == 3
    assert moved > 10


def test_switching_chain_replays_its_draws():
    # every draw of the sampler and of the chain is pinned: a change that
    # keeps the chain's law but reads the stream differently fails here
    rng = np.random.default_rng(1701)
    chain = SwitchingChain(sample_uniform_model(20, 3, rng), 3, rng)
    moved = [chain.step() for _ in range(500)]
    assert sum(moved) == 82
    replay = json.dumps([moved, sorted(chain.graph.edges)]).encode()
    assert hashlib.sha256(replay).hexdigest() == (
        "7c7062d2e6e00b78fa822e5de021e7276b0ecebc544adb8b58ce7a417c7c5fee")


@pytest.mark.parametrize("n, d, r", [(12, 3, 4), (16, 4, 3)])
def test_switching_chain_patches_complement_rows(n, d, r):
    # the chain patches only the complement rows a switching touches; a
    # wrong row shows in the cycle lists only once it changes a short cycle
    rng = np.random.default_rng([n, d, r])
    chain = SwitchingChain(sample_uniform_model(n, d, rng), r, rng, validity="structural")
    moved = 0
    for _ in range(300):
        moved += chain.step()
        assert chain._co_neighbors == _complement_neighbors(chain.graph)
    assert moved > 0


def test_switching_chain_census_mode_freezes_small_graphs():
    rng = np.random.default_rng(12)
    g = sample_uniform_model(6, 3, rng)
    chain = SwitchingChain(g, 3, rng)  # census validity (default)
    assert not any(chain.step() for _ in range(3000))
    assert chain.graph == g


def test_switching_chain_rejects_bad_input():
    rng = np.random.default_rng(13)
    g = SimpleGraph(4, 3, itertools.combinations(range(4), 2))
    with pytest.raises(InvalidInputError):
        SwitchingChain(g, 3, rng)  # complement too sparse
    g6 = sample_uniform_model(8, 3, rng)
    with pytest.raises(InvalidInputError):
        SwitchingChain(g6, 2, rng)
    with pytest.raises(InvalidInputError):
        SwitchingChain(g6, 3, rng, validity="bogus")


def test_switching_chain_rejects_degree_below_two():
    # with d < 2 no vertex has the two neighbours a backward proposal draws,
    # and the backward proposal density has a zero denominator
    rng = np.random.default_rng(14)
    for d in (0, 1):
        g = sample_uniform_model(8, 1, rng) if d else SimpleGraph(8, 0, [])
        with pytest.raises(InvalidInputError):
            SwitchingChain(g, 3, rng)


@pytest.mark.parametrize(
    "n, d, r, validity, seed, steps, min_moves",
    [
        (20, 3, 3, "census", 0, 150, 1),
        (20, 3, 3, "structural", 0, 60, 1),
        # census-valid switchings are too rare here for the chain to move,
        # so only the gate's rejections are compared
        (16, 4, 4, "census", 0, 300, 0),
        (16, 4, 4, "structural", 0, 20, 1),
        (30, 3, 4, "census", 4, 12, 1),
        (30, 3, 4, "structural", 0, 3, 1),
        (40, 4, 3, "census", 1, 30, 1),
        (40, 4, 3, "structural", 0, 8, 1),
        (12, 2, 5, "census", 2, 100, 1),
        (12, 2, 5, "structural", 1, 90, 1),
    ],
)
def test_switching_chain_matches_recensus_oracle(n, d, r, validity, seed, steps, min_moves):
    """Incremental censuses give the same trajectory as full recensuses: the
    same moves, graphs, cycle lists and final generator state."""
    seeds = [seed, n, d, r]
    g = sample_uniform_model(n, d, np.random.default_rng(seeds))
    chain = SwitchingChain(g, r, np.random.default_rng(seeds), validity=validity)
    oracle = RecensusChain(g, r, np.random.default_rng(seeds), validity=validity)
    moved = 0
    for _ in range(steps):
        step = chain.step()
        assert step == oracle.step()
        moved += step
        assert chain.graph == oracle.graph
        assert chain.cycles_by_length == oracle.cycles_by_length
        assert chain.co_cycles_by_length == oracle.co_cycles_by_length
    assert chain.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert moved >= min_moves


@st.composite
def _switching_case(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 3, 12).filter(lambda m: m * d % 2 == 0))
    r = draw(st.integers(3, 4 if n > 9 else 5))
    return n, d, r, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_switching_case())
def test_switching_roundtrip_and_incremental_census(case):
    n, d, r, seed = case
    rng = np.random.default_rng(seed)
    chain = SwitchingChain(sample_uniform_model(n, d, rng), r, rng, validity="structural")
    for _ in range(15):
        g = chain.graph
        # forward then backward at a random representation of a random cycle
        cycles = [c for k in range(3, r + 1) for c in chain.cycles_by_length[k]]
        if cycles:
            base = list(cycles[rng.integers(len(cycles))])
            shift = int(rng.integers(len(base)))
            vs = base[shift:] + base[:shift]
            options = _forward_option_counts(g, vs)
            if all(options):
                combo = [opts[rng.integers(len(opts))] for opts in options]
                ws = [c[0] for c in combo]
                us = [combo[i - 1][1] for i in range(len(vs))]
                g2 = apply_switching(g, vs, us, ws, "forward")
                if g2 is not None:
                    assert apply_switching(g2, vs, us, ws, "backward") == g
        if chain.step():
            census = simple_cycle_census(chain.graph, r)
            assert all(edges == undirected_edges(CycleSpec(vs)) for edges, vs in census.items())
            assert chain.cycles_by_length == _cycles_of(chain.graph, r)
            assert chain.co_cycles_by_length == _cycles_of(_complement(chain.graph), r)
            for by_length in (chain.cycles_by_length, chain.co_cycles_by_length):
                assert all(cs == sorted(cs) for cs in by_length.values())


@st.composite
def _changed_edges_case(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 1, 10).filter(lambda m: m * d % 2 == 0))
    g = sample_uniform_model(n, d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()) and n - 1 - d >= 2:
        neighbors, edges = _complement_neighbors(g), _complement(g).edges
    else:
        neighbors, edges = g.neighbors, g.edges
    changed = draw(st.lists(st.sampled_from(sorted(edges)), min_size=1, max_size=8, unique=True))
    return neighbors, changed, draw(st.integers(3, 6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_changed_edges_case())
def test_cycles_through_edges_finds_each_cycle_once(case):
    # the cycles through a changed edge, each canonicalized once: found only
    # from the first changed edge it uses
    neighbors, changed, r = case
    g = SimpleGraph(len(neighbors), len(neighbors[0]),
                    [(x, y) for x, nb in enumerate(neighbors) for y in nb if x < y])
    expected = {vs for edges, vs in _dfs_cycle_census(g, r).items() if edges & set(changed)}
    calls = []
    canonical = graphs._canonical_cycle
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphs, "_canonical_cycle", lambda vs: calls.append(vs) or canonical(vs))
        found = _cycles_through_edges(neighbors, changed, r)
    assert found == expected
    assert len(calls) == len(found)
