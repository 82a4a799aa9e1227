"""Tests for cycle censuses and non-backtracking walk counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph import words
from regraph.errors import ResourceLimitError
from regraph.graphs import PermGraph, sample_permutation_model, sample_uniform_model
from regraph.walks import (
    bad_walk_probe,
    batch_class_counts,
    class_table,
    cnbw_from_cycles,
    cnbw_via_nb_matrix,
    counts_by_length,
    enumerate_cycles,
    nb_edge_matrix,
)


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
        assert c.contained_in(g)
        key = c.canonical()
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


def test_class_table_covers_all_reduced_words():
    for d, r in ((1, 4), (2, 4), (3, 3)):
        classes, word_rows = class_table(d, r)
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


def test_enumerate_cycles_budget():
    rng = np.random.default_rng(5)
    g = sample_permutation_model(30, 3, rng)
    with pytest.raises(ResourceLimitError):
        enumerate_cycles(g, 6, budget=100)
