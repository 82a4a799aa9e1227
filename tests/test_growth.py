"""Tests for the growing-graph process and event classification."""

import bisect
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph import growth, words
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.growth import (
    PermTower,
    classify_event,
    growth_count_samples,
    insertion_events,
    poissonized_times,
    simulate_growth,
)
from regraph.graphs import CycleSpec, PermGraph
from regraph.walks import batch_class_counts, enumerate_cycles, perm_graph_cycles

from oracles import seat_row


def crp_extend(tower: PermTower, rng: np.random.Generator) -> PermTower:
    """Seat a new element uniformly in every permutation of a copy of ``tower``."""
    out = PermTower(tower.d)
    out.n = tower.n
    out.succ = [list(s) for s in tower.succ]
    out.pred = [list(p) for p in tower.pred]
    out.extend(seat_row(out, rng))
    return out


def _tower_from(perm):
    t = PermTower(1)
    t.n = len(perm)
    t.succ = [list(perm)]
    t.pred = [[0] * len(perm)]
    for x, y in enumerate(perm):
        t.pred[0][y] = x
    return t


def test_first_seat_is_identity():
    rng = np.random.default_rng(0)
    t = PermTower(2)
    t.extend(seat_row(t, rng))
    assert t.succ == [[0], [0]]


def test_crp_extension_is_uniform():
    rng = np.random.default_rng(1)
    runs = 30000
    hits = Counter()
    starts = list(itertools.permutations(range(3)))
    for i in range(runs):
        t = _tower_from(starts[i % 6])
        t.extend(seat_row(t, rng))
        hits[tuple(t.succ[0])] += 1
    assert len(hits) == 24
    expect = runs / 24
    se = math.sqrt(expect * (1 - 1 / 24))
    assert max(abs(c - expect) for c in hits.values()) < 4 * se


def test_delete_back_recovers_every_level():
    rng = np.random.default_rng(2)
    t = PermTower(3)
    history = []
    for _ in range(30):
        history.append([list(row) for row in t.succ])
        t.extend(seat_row(t, rng))
    while history:
        t.delete_last()
        assert t.succ == history.pop()


def test_extend_remains_permutation():
    rng = np.random.default_rng(3)
    t = PermTower(2)
    for _ in range(50):
        t.extend(seat_row(t, rng))
        for row in t.succ:
            assert sorted(row) == list(range(t.n))


def test_poissonized_times_monotone_and_empty(monkeypatch):
    rng = np.random.default_rng(4)
    assert poissonized_times(0.0, rng).size == 0
    times = poissonized_times(4.0, rng)
    assert np.all(np.diff(times) > 0)
    assert times.size == 0 or times[-1] <= 4.0
    monkeypatch.setattr(growth, "MAX_VERTICES", 100)
    with pytest.raises(ResourceLimitError):
        poissonized_times(30.0, rng)


def test_poissonized_times_cap_holds_inside_the_first_block(monkeypatch):
    # this draw makes 325 jumps, all inside the first 1,024-jump block, so
    # the cap has to hold on the block that returns too
    assert poissonized_times(6.5, np.random.default_rng(0)).size == 325
    monkeypatch.setattr(growth, "MAX_VERTICES", 100)
    with pytest.raises(ResourceLimitError):
        poissonized_times(6.5, np.random.default_rng(0))
    monkeypatch.setattr(growth, "MAX_VERTICES", 325)
    assert poissonized_times(6.5, np.random.default_rng(0)).size == 325


def _list_poissonized_times(horizon, rng, max_events=10**7):
    """poissonized_times the list way: each 1,024-time block's times below
    the horizon go into one Python list, checked against the cap as it grows."""
    out, t, m = [], 0.0, 0
    while True:
        times = t + np.cumsum(rng.exponential(1.0, 1024) / np.arange(m + 1, m + 1025, dtype=float))
        over = np.searchsorted(times, horizon, side="right")
        out.extend(times[:over].tolist())
        if len(out) > max_events:
            raise ResourceLimitError("cap")
        if over < 1024:
            return np.asarray(out)
        t, m = float(times[-1]), m + 1024


@pytest.mark.parametrize("horizon", [0.0, 1.0, math.log(501) + 1, 8.0])
def test_poissonized_times_match_list_oracle(monkeypatch, horizon):
    for seed in range(5):
        rng, oracle_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got = poissonized_times(horizon, rng)
        want = _list_poissonized_times(horizon, oracle_rng)
        assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # the cap counts every block: one over it raises, as the list path does
    cap = _list_poissonized_times(8.0, np.random.default_rng(2)).size
    monkeypatch.setattr(growth, "MAX_VERTICES", cap)
    assert poissonized_times(8.0, np.random.default_rng(2)).size == cap
    monkeypatch.setattr(growth, "MAX_VERTICES", cap - 1)
    with pytest.raises(ResourceLimitError):
        poissonized_times(8.0, np.random.default_rng(2))


def test_vertex_count_grows_exponentially():
    rng = np.random.default_rng(5)
    t = 3.0
    n = np.array([poissonized_times(t, rng).size for _ in range(20000)])
    scaled = n.mean() * math.exp(-t)
    target = 1 - math.exp(-t)
    assert abs(scaled - target) < 0.05 * target


def test_classify_grown_cycle():
    # a 5-cycle of one permutation grows into a 6-cycle
    tower = _tower_from([1, 2, 3, 4, 0])
    tower.extend(choices=[1])  # 0 -> new -> 1
    events = insertion_events(tower, 6)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "grown"
    assert ev.word == words.canonicalize((0,) * 6)
    assert ev.parent == words.canonicalize((0,) * 5)


def test_classify_spontaneous_cycle():
    # insertion landing on edges of two different labels: mixed-label words
    tower = PermTower(2)
    tower.n = 2
    tower.succ = [[1, 0], [0, 1]]
    tower.pred = [[1, 0], [0, 1]]
    tower.extend(choices=[1, 0])
    events = insertion_events(tower, 4)
    kinds = {(e.kind, words.format_word(e.word.letters)) for e in events}
    assert ("spontaneous", "a b") in kinds
    assert ("grown", "a a a") in kinds  # the 2-cycle of pi_1 grew into a triangle
    grown = {words.format_word(e.parent.letters) for e in events if e.kind == "grown"}
    assert "a a" in grown


def test_classify_split_cycle():
    # one insertion hitting two edges of the same cycle splits it; the pieces
    # mix labels at the new vertex, so both births are spontaneous
    tower = PermTower(2)
    tower.n = 4
    tower.succ = [[1, 2, 3, 0], [1, 2, 3, 0]]
    tower.pred = [[3, 0, 1, 2], [3, 0, 1, 2]]
    # cycle 0 ->a 1 ->b 2 ->a 3 ->b 0 is hit by inserting into pi_a at 1 and pi_b at 0
    tower.extend(choices=[1, 0])
    events = insertion_events(tower, 4)
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
    t = PermTower(2)
    for _ in range(5):
        t.extend(seat_row(t, rng))
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
    bl = words.counts_by_length(traj.counts, traj.classes, 4)
    assert np.all(bl >= 0)


def test_simulate_growth_event_log_replays_count_deltas():
    rng = np.random.default_rng(8)
    r = 3
    traj = simulate_growth(2, 1.0, 1.5, [0.0, 1.5], r, rng, track_events=True)
    idx = {wc: i for i, wc in enumerate(traj.classes)}
    births = np.zeros(len(traj.classes), dtype=np.int64)
    deaths = np.zeros(len(traj.classes), dtype=np.int64)
    splits = np.zeros(len(traj.classes), dtype=np.int64)
    for e in traj.events:
        if not traj.grid[0] < e.time <= traj.grid[1]:
            continue
        if e.kind == "split":
            splits[idx[e.word]] += 1
        else:
            births[idx[e.word]] += 1
            if e.kind == "grown":
                deaths[idx[e.parent]] += 1
    delta = traj.counts[1] - traj.counts[0]
    # a cycle dies when the insertion lands on its edges: on two or more it
    # splits, on one it grows into a cycle one longer, a grown birth naming it
    # as parent; a length-r cycle grows past r, so its deaths go unrecorded
    short = np.array([wc.length < r for wc in traj.classes])
    assert np.array_equal(delta[short], (births - deaths - splits)[short])
    assert np.all(delta[~short] <= (births - splits)[~short])
    assert not deaths[~short].any()


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


def test_simulate_growth_refuses_an_empty_grid():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidInputError, match="one or more times"):
        simulate_growth(2, 1.0, 1.0, [], 3, rng)
    # nothing was drawn
    assert rng.bit_generator.state == np.random.default_rng(10).bit_generator.state


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
    tower = PermTower(d)
    for choices in seats[:-1]:
        tower.extend(choices=choices)
    before = PermGraph(tower.perms())
    tower.extend(choices=seats[-1])
    after = PermGraph(tower.perms())

    def edge_sets(cycles):
        return [c.directed_labeled_edges() for c in cycles]

    old = set(edge_sets(enumerate_cycles(before, r).cycles))
    new = set(edge_sets(enumerate_cycles(after, r).cycles))
    events = insertion_events(tower, r)
    births = edge_sets(e.cycle for e in events if e.kind != "split")
    assert len(births) == len(set(births))
    assert set(births) == new - old
    assert all(s in old and s not in new
               for s in edge_sets(e.cycle for e in events if e.kind == "split"))
    # every cycle is found from exactly one top: its largest vertex
    succ, pred = tower.succ, tower.pred
    full = edge_sets(perm_graph_cycles(succ, pred, r))
    rooted = [s for v in range(tower.n)
              for s in edge_sets(perm_graph_cycles(succ, pred, r, tops=[v]))]
    assert sorted(map(sorted, full)) == sorted(map(sorted, rooted))


def _full_scan_splits(g_before, g_after, new_vertex, r):
    """Splits by a full census of the old graph: its cycles that the
    insertion hits in two or more edges (label, tail, head)."""
    hit = {
        (l, int(g_after.inv[l, new_vertex]), int(g_after.perms[l, new_vertex]))
        for l in range(g_after.d)
        if g_after.perms[l, new_vertex] != new_vertex
    }
    return [c for c in enumerate_cycles(g_before, r).cycles
            if len(hit & c.directed_labeled_edges()) >= 2]


def _event_key(time, kind, cycle, parent=None):
    word = words.canonicalize(cycle.word)
    return (float(time), kind, cycle.directed_labeled_edges(), word, parent)


def _oracle_growth(d, s, T, grid, r, rng, track_events=False):
    """simulate_growth the slow way: one scalar seat draw per permutation per
    vertex, a census before each insertion that passes a grid time, and
    births and splits from full censuses before and after every insertion.
    Returns (counts, n_vertices, event multiset)."""
    jumps = poissonized_times(s + T, rng)
    tower = PermTower(d)
    abs_grid = s + np.sort(np.asarray(grid, dtype=float))
    counts, n_vertices, events = [], [], Counter()
    for jt in list(jumps) + [np.inf]:
        while len(counts) < abs_grid.size and abs_grid[len(counts)] < jt:
            counts.append(batch_class_counts(tower.perms()[None], r)[0][0])
            n_vertices.append(tower.n)
        if jt == np.inf:
            break
        before = PermGraph(tower.perms()) if tower.n else None
        tower.extend(choices=[int(rng.integers(tower.n + 1)) for _ in range(d)])
        if not (track_events and jt > s):
            continue
        after = PermGraph(tower.perms())
        v = after.n - 1
        old = set() if before is None else {
            c.directed_labeled_edges() for c in enumerate_cycles(before, r).cycles}
        for c in enumerate_cycles(after, r).cycles:
            if c.directed_labeled_edges() not in old:
                kind, parent = classify_event(c, v)
                events[_event_key(jt, kind, c, parent)] += 1
        if before is not None:
            for c in _full_scan_splits(before, after, v, r):
                events[_event_key(jt, "split", c)] += 1
    n_classes = len(words.classes_upto(d, r))
    return (np.array(counts, dtype=np.int64).reshape(-1, n_classes),
            np.array(n_vertices, dtype=np.int64), events)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simulate_growth_matches_scalar_draw_oracle(d):
    cases = [
        (0.0, 2.0, [0.0, 0.5, 2.0], 4, True),  # from the empty graph on
        (0.0, 2.0, [0.0, 0.5, 2.0], 4, False),
        (1.5, 0.8, [0.8, 0.0, 0.3], 3, True),  # unsorted grid
        (3.0, 1.0, [0.0, 0.25, 1.0], 4, False),
        (2.0, 1.0, [0.5], 3, False),  # vertices after the last grid time
    ]
    for s, T, grid, r, track in cases:
        for seed in range(3):
            rng = np.random.default_rng([seed, d])
            traj = simulate_growth(d, s, T, grid, r, rng, track_events=track)
            oracle_rng = np.random.default_rng([seed, d])
            counts, n_vertices, events = _oracle_growth(d, s, T, grid, r, oracle_rng, track)
            assert traj.counts.dtype == counts.dtype and np.array_equal(traj.counts, counts)
            assert traj.n_vertices.dtype == n_vertices.dtype
            assert np.array_equal(traj.n_vertices, n_vertices)
            got = Counter(_event_key(e.time, e.kind, e.cycle, e.parent) for e in traj.events)
            assert got == events
            # the run leaves its generator where the scalar draws leave it
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_growth_count_samples_match_scalar_draw_oracle():
    for d in (1, 2, 3):
        got = growth_count_samples(d, 2.5, [0.5, 1.0], 3, replicas=6, seed=31)
        want = np.array([
            words.counts_by_length(
                _oracle_growth(d, 2.5, 1.0, [0.0, 0.5, 1.0], 3, np.random.default_rng([31, b]))[0],
                words.classes_upto(d, 3), 3)
            for b in range(6)
        ])
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d, s, r, replicas", [
    (1, 2.5, 3, 7), (2, 2.5, 3, 7), (3, 2.5, 3, 7),
    (2, math.log(501), 3, 10),  # the growth-vs-limit acceptance shape
])
def test_growth_count_samples_do_not_depend_on_the_block(monkeypatch, d, s, r, replicas):
    lags = [0.5, 1.0]
    default = growth_count_samples(d, s, lags, r, replicas, seed=5)
    for block_bytes, block in ((1, 1), (2**62, replicas)):  # one run a block, and all
        monkeypatch.setattr(growth, "GROWTH_BLOCK_BYTES", block_bytes)
        assert min(replicas, growth.block_replicas(d, r, s + np.array([0.0, *lags]))) == block
        got = growth_count_samples(d, s, lags, r, replicas, seed=5)
        assert got.dtype == default.dtype and np.array_equal(got, default)


@st.composite
def _seat_block(draw):
    """d, the seat rows of a tower of n elements, and a block of k more rows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    k = draw(st.integers(0, 12))
    rows = [[draw(st.integers(0, m)) for _ in range(d)] for m in range(n + k)]
    return d, rows[:n], rows[n:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_seat_block(), st.data())
def test_block_extend_matches_single_extends(case, data):
    d, prefix, rows = case
    block, single = PermTower(d), PermTower(d)
    for row in prefix:
        block.extend(choices=row)
        single.extend(choices=row)
    block.extend(choices=np.array(rows, dtype=np.int64).reshape(len(rows), d))
    for row in rows:
        single.extend(choices=row)
    assert (block.n, block.succ, block.pred) == (single.n, single.succ, single.pred)
    # one seat out of range rejects the whole block and leaves the tower as it was
    bad = np.array(rows + [[0] * d], dtype=np.int64).reshape(len(rows) + 1, d)
    i = data.draw(st.integers(0, len(rows)))
    l = data.draw(st.integers(0, d - 1))
    bad[i, l] = data.draw(st.sampled_from([-1, block.n + i + 1, block.n + i + 5]))
    state = (block.n, [list(x) for x in block.succ], [list(x) for x in block.pred])
    with pytest.raises(InvalidInputError):
        block.extend(choices=bad)
    assert (block.n, block.succ, block.pred) == state


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(8, 40), st.integers(1, 5), st.data())
def test_local_split_search_matches_full_scan(d, n, r, data):
    # towers large enough that the searched ball around the hit edges is
    # mostly smaller than the graph
    tower = PermTower(d)
    for m in range(n):
        tower.extend(choices=[data.draw(st.integers(0, m)) for _ in range(d)])
    before = PermGraph(tower.perms())
    cycles = sorted(enumerate_cycles(before, r).cycles, key=lambda c: -c.length)
    seats = [data.draw(st.integers(0, n)) for _ in range(d)]
    if cycles and data.draw(st.booleans()):
        # aim the labels at steps of one short cycle, so that it splits; the
        # last step seated per label wins, so the sorted order aims at the
        # tails farthest from the cycle's largest vertex, the edge of the ball
        cyc = cycles[data.draw(st.integers(0, len(cycles) - 1))]
        at = cyc.vertices.index(max(cyc.vertices))
        k = cyc.length

        def reach(step):
            i = (cyc.vertices.index(step[1]) - at) % k
            return min(i, k - i)

        steps = cyc.labeled_steps()
        if data.draw(st.booleans()):
            steps = sorted(steps, key=reach)
        else:
            steps = data.draw(st.permutations(steps))
        for l, _, head in steps:
            seats[l] = head
    tower.extend(choices=seats)
    after = PermGraph(tower.perms())
    state = (tower.n, [list(x) for x in tower.succ], [list(x) for x in tower.pred])
    events = insertion_events(tower, r)
    # the split search undoes and redoes the insertion; the tower ends as it was
    assert (tower.n, tower.succ, tower.pred) == state
    got = Counter(_event_key(0.0, e.kind, e.cycle) for e in events if e.kind == "split")
    want = Counter(_event_key(0.0, "split", c) for c in _full_scan_splits(before, after, n, r))
    assert got == want
    old = {c.directed_labeled_edges() for c in cycles}
    new = {c.directed_labeled_edges() for c in enumerate_cycles(after, r).cycles}
    births = [e.cycle.directed_labeled_edges() for e in events if e.kind != "split"]
    assert len(births) == len(set(births)) and set(births) == new - old


def _closed_form_succ(seats):
    """The successor rows of the tower seated by the rows ``seats`` (row x
    seats element x in each permutation), from the seats alone.  Seating y
    at c makes y the new predecessor of c, so succ(x) starts at seat(x) and
    moves to y each time a later y is seated at it: to x's next sibling, the
    smallest y > x with seat(y) = seat(x), then down the first-child chain,
    the first child of c being the smallest z > c with seat(z) = c."""
    seats = np.asarray(seats, dtype=np.int64).reshape(-1, np.shape(seats)[-1])
    rows = []
    for col in seats.T.tolist():
        later = {}  # c -> the elements y != c seated at c, ascending
        for y, c in enumerate(col):
            if c != y:
                later.setdefault(c, []).append(y)
        row = []
        for x, c in enumerate(col):
            s, since = c, x
            while True:
                kids = later.get(s, [])
                i = bisect.bisect_right(kids, since)
                if i == len(kids):
                    break
                s = since = kids[i]
            row.append(s)
        rows.append(row)
    return rows


def _random_seats(rng, d, size):
    """Seat rows of a tower of ``size`` elements: row m uniform on 0..m."""
    return np.array([rng.integers(0, m + 1, size=d) for m in range(size)],
                    dtype=np.int64).reshape(size, d)


def _inverse_rows(rows):
    out = [[0] * len(row) for row in rows]
    for row, inv in zip(rows, out):
        for x, y in enumerate(row):
            inv[y] = x
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_extend_and_delete_last_match_closed_form(d, seed):
    rng = np.random.default_rng([seed, d])
    size = int(rng.integers(1, 200))
    seats = _random_seats(rng, d, size)
    tower = PermTower(d)
    while tower.n < size:
        # blocks of 1..8 rows, so single and block extends both meet the oracle
        tower.extend(choices=seats[tower.n:tower.n + int(rng.integers(1, 9))])
        want = _closed_form_succ(seats[:tower.n])
        assert tower.succ == want
        assert tower.pred == _inverse_rows(want)
    while tower.n:
        tower.delete_last()
        want = _closed_form_succ(seats[:tower.n]) if tower.n else [[] for _ in range(d)]
        assert tower.succ == want
        assert tower.pred == _inverse_rows(want)


def test_insertion_events_match_closed_form_censuses():
    # births and splits of the last insertion against full censuses of the
    # closed-form graphs before and after it; the split search undoes and
    # redoes the insertion on the tower itself
    splits = 0
    for seed in range(150):
        rng = np.random.default_rng([seed, 17])
        d, n, r = int(rng.integers(1, 4)), int(rng.integers(8, 30)), int(rng.integers(2, 6))
        seats = _random_seats(rng, d, n + 1)
        tower = PermTower(d)
        tower.extend(choices=seats)
        events = insertion_events(tower, r)
        assert tower.succ == _closed_form_succ(seats)
        before = PermGraph(np.array(_closed_form_succ(seats[:n])))
        after = PermGraph(np.array(_closed_form_succ(seats)))
        hit = {(l, int(after.inv[l, n]), int(after.perms[l, n]))
               for l in range(d) if after.perms[l, n] != n}
        old = enumerate_cycles(before, r).cycles
        want = Counter(c.directed_labeled_edges() for c in old
                       if len(hit & c.directed_labeled_edges()) >= 2)
        got = Counter(e.cycle.directed_labeled_edges() for e in events if e.kind == "split")
        assert got == want
        splits += sum(got.values())
        new = {c.directed_labeled_edges() for c in enumerate_cycles(after, r).cycles}
        births = [e.cycle.directed_labeled_edges() for e in events if e.kind != "split"]
        assert len(births) == len(set(births))
        assert set(births) == new - {c.directed_labeled_edges() for c in old}
    assert splits > 0
