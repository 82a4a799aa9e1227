"""Tests for the growing-graph process and event classification."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph import words
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.growth import (
    GrowthEvent,
    PermTower,
    classify_event,
    crp_extend,
    growth_count_samples,
    insertion_events,
    poissonized_times,
    simulate_growth,
)
from regraph.graphs import CycleSpec
from regraph.walks import enumerate_cycles, perm_graph_cycles


def _tower_from(perm):
    t = PermTower(1, len(perm))
    t.succ = [list(perm)]
    t.pred = [[0] * len(perm)]
    for x, y in enumerate(perm):
        t.pred[0][y] = x
    return t


def test_first_seat_is_identity():
    rng = np.random.default_rng(0)
    t = PermTower(2, 0)
    t.extend(rng)
    assert t.succ == [[0], [0]]


def test_crp_extension_is_uniform():
    rng = np.random.default_rng(1)
    runs = 30000
    hits = Counter()
    starts = list(itertools.permutations(range(3)))
    for i in range(runs):
        t = _tower_from(starts[i % 6])
        t.extend(rng)
        hits[tuple(t.succ[0])] += 1
    assert len(hits) == 24
    expect = runs / 24
    se = math.sqrt(expect * (1 - 1 / 24))
    assert max(abs(c - expect) for c in hits.values()) < 4 * se


def test_delete_back_recovers_every_level():
    rng = np.random.default_rng(2)
    t = PermTower(3, 0)
    history = []
    for _ in range(30):
        history.append([list(row) for row in t.succ])
        t.extend(rng)
    while history:
        t.delete_last()
        assert t.succ == history.pop()


def test_extend_remains_permutation():
    rng = np.random.default_rng(3)
    t = PermTower(2, 0)
    for _ in range(50):
        t.extend(rng)
        for row in t.succ:
            assert sorted(row) == list(range(t.n))


def test_poissonized_times_monotone_and_empty():
    rng = np.random.default_rng(4)
    assert poissonized_times(0.0, 0, rng).size == 0
    times = poissonized_times(4.0, 0, rng)
    assert np.all(np.diff(times) > 0)
    assert times.size == 0 or times[-1] <= 4.0
    with pytest.raises(ResourceLimitError):
        poissonized_times(30.0, 0, rng, max_events=100)


def test_vertex_count_grows_exponentially():
    rng = np.random.default_rng(5)
    t = 3.0
    n = np.array([poissonized_times(t, 0, rng).size for _ in range(20000)])
    scaled = n.mean() * math.exp(-t)
    target = 1 - math.exp(-t)
    assert abs(scaled - target) < 0.05 * target


def test_classify_grown_cycle():
    # a 5-cycle of one permutation grows into a 6-cycle
    tower = _tower_from([1, 2, 3, 4, 0])
    before = tower.graph()
    tower.extend(np.random.default_rng(0), choices=[1])  # 0 -> new -> 1
    events = insertion_events(before, tower.graph(), 5, 6)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "grown"
    assert ev.word == words.canonicalize((0,) * 6)
    assert ev.parent == words.canonicalize((0,) * 5)


def test_classify_spontaneous_cycle():
    # insertion landing on edges of two different labels: mixed-label words
    tower = PermTower(2, 2)
    tower.succ = [[1, 0], [0, 1]]
    tower.pred = [[1, 0], [0, 1]]
    before = tower.graph()
    tower.extend(np.random.default_rng(0), choices=[1, 0])
    events = insertion_events(before, tower.graph(), 2, 4)
    kinds = {(e.kind, words.format_word(e.word.letters)) for e in events}
    assert ("spontaneous", "a b") in kinds
    assert ("grown", "a a a") in kinds  # the 2-cycle of pi_1 grew into a triangle
    grown = {words.format_word(e.parent.letters) for e in events if e.kind == "grown"}
    assert "a a" in grown


def test_classify_split_cycle():
    # one insertion hitting two edges of the same cycle splits it; the pieces
    # mix labels at the new vertex, so both births are spontaneous
    tower = PermTower(2, 4)
    tower.succ = [[1, 2, 3, 0], [1, 2, 3, 0]]
    tower.pred = [[3, 0, 1, 2], [3, 0, 1, 2]]
    before = tower.graph()
    # cycle 0 ->a 1 ->b 2 ->a 3 ->b 0 is hit by inserting into pi_a at 1 and pi_b at 0
    tower.extend(np.random.default_rng(0), choices=[1, 0])
    events = insertion_events(before, tower.graph(), 4, 4)
    by_kind = Counter(e.kind for e in events)
    assert by_kind["split"] >= 1
    # the four 4-cycles of ``before`` that use both hit edges, each split once
    split_words = Counter(words.format_word(e.word.letters) for e in events if e.kind == "split")
    assert split_words == {"a a a b": 1, "a b a b": 1, "a a b b": 1, "a b b b": 1}


def test_classify_loop_is_spontaneous():
    cyc = CycleSpec((3,), (0,))
    assert classify_event(cyc, 3) == ("spontaneous", None)


def test_crp_extend_returns_fresh_tower():
    rng = np.random.default_rng(6)
    t = PermTower(2, 0)
    for _ in range(5):
        t.extend(rng)
    t2 = crp_extend(t, rng)
    assert t2.n == t.n + 1
    assert t.n == 5  # original untouched


def test_simulate_growth_census_matches_direct_count():
    # d=1: the graph is one permutation; spot-check the recorded census
    rng = np.random.default_rng(7)
    traj = simulate_growth(1, 2.0, 1.0, [0.0, 1.0], 4, rng)
    assert traj.counts.shape[0] == 2
    assert np.all(traj.n_vertices >= 0)
    # totals by length never negative and bounded by n
    bl = traj.by_length(4)
    assert np.all(bl >= 0)


def test_simulate_growth_event_log_replays_count_deltas():
    rng = np.random.default_rng(8)
    traj = simulate_growth(2, 1.0, 1.5, [0.0, 1.5], 3, rng, track_events=True)
    idx = {wc: i for i, wc in enumerate(traj.classes)}
    births = np.zeros(len(traj.classes), dtype=np.int64)
    deaths = np.zeros(len(traj.classes), dtype=np.int64)
    for e in traj.events:
        if not traj.grid[0] < e.time <= traj.grid[1]:
            continue
        if e.kind in ("grown", "spontaneous"):
            births[idx[e.word]] += 1
            if e.kind == "grown" and e.parent in idx:
                deaths[idx[e.parent]] += 1
    delta = traj.counts[1] - traj.counts[0]
    # grown/spontaneous births explain all increases; decreases come from
    # grown transitions and splits/overwrites recorded as destroyed cycles
    assert np.all(delta <= births)


def test_simulate_growth_d1_spontaneous_births_are_loops():
    # with one permutation every spontaneous birth is a fixed point (word a)
    rng = np.random.default_rng(9)
    traj = simulate_growth(1, 0.0, 3.0, [3.0], 4, rng, track_events=True)
    for e in traj.events:
        if e.kind == "spontaneous":
            assert e.word == words.canonicalize((0,))
        elif e.kind == "grown":
            assert e.word.length == e.parent.length + 1


def test_growth_count_samples_deterministic():
    a = growth_count_samples(2, 2.0, [0.5], 3, replicas=6, seed=3)
    b = growth_count_samples(2, 2.0, [0.5], 3, replicas=6, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (6, 2, 3)


def test_simulate_growth_validates_input():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidInputError):
        simulate_growth(2, -1.0, 1.0, [0.0], 3, rng)
    with pytest.raises(InvalidInputError):
        simulate_growth(2, 1.0, 1.0, [2.0], 3, rng)
    with pytest.raises(InvalidInputError):
        simulate_growth(2, 1.0, 1.0, [0.0], 0, rng)


@st.composite
def _tower_insertion(draw):
    """A tower of n <= 7 elements over d <= 3 permutations plus the seat
    choices of one more insertion."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    seats = [draw(st.lists(st.integers(0, m), min_size=d, max_size=d)) for m in range(n + 1)]
    return d, seats, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tower_insertion())
def test_insertion_events_match_census_difference(case):
    d, seats, r = case
    tower = PermTower(d, 0)
    for choices in seats[:-1]:
        tower.extend(None, choices=choices)
    before = tower.graph()
    tower.extend(None, choices=seats[-1])
    after = tower.graph()

    def edge_sets(cycles):
        return [c.directed_labeled_edges() for c in cycles]

    old = set(edge_sets(enumerate_cycles(before, r).cycles))
    new = set(edge_sets(enumerate_cycles(after, r).cycles))
    events = insertion_events(before, after, before.n, r)
    births = edge_sets(e.cycle for e in events if e.kind != "split")
    assert len(births) == len(set(births))
    assert set(births) == new - old
    assert all(s in old and s not in new
               for s in edge_sets(e.cycle for e in events if e.kind == "split"))
    # every cycle is found from exactly one top: its largest vertex
    full = edge_sets(perm_graph_cycles(after, r))
    rooted = [s for v in range(after.n) for s in edge_sets(perm_graph_cycles(after, r, tops=[v]))]
    assert sorted(map(sorted, full)) == sorted(map(sorted, rooted))
