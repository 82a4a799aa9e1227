"""Tests for the limiting birth/growth process and its closed-form moments."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from regraph import errors, limitproc
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.limitproc import (
    chebyshev_fluctuation_series,
    expected_alpha,
    limit_covariance,
    limit_bytes,
    limit_model,
    nu_rate,
    ou_covariance,
    simulate_limit,
    trace_covariance,
    yule_pmf,
)
from regraph.words import count_reduced_words, counts_by_length

from oracles import sample_yule


def test_yule_pmf_known_values():
    # starting from 1 atom after time ln 2: P(still 1) = e^{-tau} * 1 = 1/2,
    # P(k) = e^{-tau}(1 - e^{-tau})^{k-1} is geometric
    tau = math.log(2)
    assert yule_pmf(1, 1, tau) == pytest.approx(0.5)
    assert yule_pmf(1, 2, tau) == pytest.approx(0.25)
    assert yule_pmf(1, 3, tau) == pytest.approx(0.125)
    assert yule_pmf(2, 1, tau) == 0.0


def test_yule_pmf_sums_to_one():
    total = sum(yule_pmf(2, k, 0.7) for k in range(2, 400))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sample_yule_matches_pmf():
    rng = np.random.default_rng(0)
    tau = 0.5
    samples = sample_yule(1, tau, 200000, rng)
    for k in range(1, 5):
        p_hat = np.mean(samples == k)
        p = yule_pmf(1, k, tau)
        se = math.sqrt(p * (1 - p) / samples.size)
        assert abs(p_hat - p) < 4 * se + 1e-12


def test_expected_alpha_values():
    tau = math.log(2)
    # alpha_{jk} = P(one length-j atom at time s has length k at time t)
    assert expected_alpha(1, 1, 0.0, tau) == pytest.approx(0.5)
    assert expected_alpha(1, 3, 0.0, tau) == pytest.approx(0.125)
    assert expected_alpha(2, 1, 0.0, tau) == 0.0
    assert expected_alpha(1, 1, 0.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        expected_alpha(1, 1, 1.0, 0.0)


def test_limit_covariance_values():
    tau = math.log(2)
    # Cov(N_j(s), N_k(t)) = (a(d,j)/2j) alpha_{jk}(t-s); d=2, j=1: a=4, mean 2
    assert limit_covariance(2, 1, 2, 0.0, tau) == pytest.approx(2 * 0.25)
    assert limit_covariance(2, 1, 1, 0.0, tau) == pytest.approx(1.0)
    assert limit_covariance(2, 2, 1, 0.0, tau) == 0.0
    # equal times: Cov(N_k, N_k) = Var = mean (Poisson)
    for d in (2, 3):
        for k in (1, 2, 3):
            assert limit_covariance(d, k, k, 1.0, 1.0) == pytest.approx(
                count_reduced_words(d, k) / (2 * k)
            )


def test_ou_covariance():
    tau = math.log(2)
    assert ou_covariance(2, 2, 0.0, tau) == pytest.approx(0.25)
    assert ou_covariance(2, 2, 1.0, 1.0) == pytest.approx(1.0)
    assert ou_covariance(1, 2, 0.0, tau) == 0.0


def test_nu_rate_values():
    # net immigration rate of new length-k atoms when d increases by one
    assert nu_rate(1, 1) == Fraction(1)
    assert nu_rate(1, 2) == Fraction(4)
    for d in (1, 2, 3):
        for k in (1, 2, 3, 4):
            assert nu_rate(d, k) > 0


def test_trace_covariance_exact_values():
    # Var of the Chebyshev trace statistic at finite d; tends to k/2
    assert trace_covariance(2, 2, 0.0) == pytest.approx(14 / 9)
    assert trace_covariance(4, 2, 0.0) == pytest.approx(60 / 49)
    assert trace_covariance(8, 2, 0.0) == pytest.approx(248 / 225)
    v2, v4, v8 = (trace_covariance(d, 2, 0.0) for d in (2, 4, 8))
    assert v2 > v4 > v8 > 1.0  # monotone toward the limit k/2 = 1


def test_limit_model_structure():
    model = limit_model(2, 4)
    # stationary means are 1/h per class and sum to a(d,k)/2k per length
    for k in range(1, 5):
        mask = model.lengths == k
        assert np.sum(model.stationary_means[mask]) == pytest.approx(
            count_reduced_words(2, k) / (2 * k)
        )
    # growth transitions map length-k classes to length-(k+1) classes
    for c, cls in enumerate(model.classes):
        for pos in range(cls.length):
            nxt = model.transitions[c, pos]
            if nxt >= 0:
                assert model.classes[nxt].length == cls.length + 1


def test_simulate_limit_stationary_means():
    rng = np.random.default_rng(1)
    counts, model = simulate_limit(
        2, 3, 1.0, [0.0, 0.5, 1.0], True, rng, replicas=40000
    )
    by_len = counts_by_length(counts, model.classes, model.K)
    for ti in range(3):
        for k in (1, 2, 3):
            mean = count_reduced_words(2, k) / (2 * k)
            se = math.sqrt(mean / counts.shape[0])
            assert abs(by_len[:, ti, k - 1].mean() - mean) < 4 * se


def test_simulate_limit_lagged_covariance():
    rng = np.random.default_rng(2)
    tau = math.log(2)
    counts, model = simulate_limit(2, 2, tau, [0.0, tau], True, rng, replicas=60000)
    by_len = counts_by_length(counts, model.classes, model.K)
    x = by_len[:, 0, 0] - by_len[:, 0, 0].mean()
    y = by_len[:, 1, 1] - by_len[:, 1, 1].mean()
    cov_hat = np.mean(x * y)
    se = np.std(x * y, ddof=1) / math.sqrt(x.size)
    assert abs(cov_hat - limit_covariance(2, 1, 2, 0.0, tau)) < 4 * se


def test_chebyshev_fluctuation_series_centering():
    rng = np.random.default_rng(3)
    counts, model = simulate_limit(2, 4, 0.5, [0.0, 0.5], True, rng, replicas=30000)
    by_len = counts_by_length(counts, model.classes, model.K)
    series = chebyshev_fluctuation_series(by_len, 2, 2)
    assert series.shape == by_len.shape[:2]
    assert abs(series.mean()) < 4 * series.std() / math.sqrt(series.size)


def test_simulate_limit_validates_and_budgets(monkeypatch):
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        simulate_limit(2, 0, 1.0, [0.0], True, rng, replicas=10)
    with pytest.raises(InvalidInputError):
        simulate_limit(2, 2, 1.0, [2.0], True, rng, replicas=10)
    monkeypatch.setattr(errors, "BYTE_CAP", 10)
    with pytest.raises(ResourceLimitError):
        simulate_limit(2, 3, 1.0, [0.0, 1.0], True, rng, replicas=10**6)


def _reference_simulate_limit(d, K, T, grid, stationary_init, rng, replicas=1):
    """The int64 atom loop with one np.add.at per grid offset, kept as the
    oracle of simulate_limit: the same draws in the same order."""
    grid = np.asarray(grid, dtype=float)
    model = limit_model(d, K)
    ncls = len(model.classes)
    reps, clss, times = [], [], []
    if stationary_init:
        init = rng.poisson(model.stationary_means, size=(replicas, ncls))
        rr, cc = np.nonzero(init)
        counts0 = init[rr, cc]
        reps.append(np.repeat(rr, counts0))
        clss.append(np.repeat(cc, counts0))
        times.append(np.zeros(int(counts0.sum())))
    if T > 0:
        immi = rng.poisson(model.immigration_rates * T, size=(replicas, ncls))
        rr, cc = np.nonzero(immi)
        counts0 = immi[rr, cc]
        reps.append(np.repeat(rr, counts0))
        clss.append(np.repeat(cc, counts0))
        times.append(rng.uniform(0.0, T, int(counts0.sum())))
    rep = np.concatenate(reps) if reps else np.zeros(0, dtype=np.int64)
    cls = np.concatenate(clss) if clss else np.zeros(0, dtype=np.int64)
    t = np.concatenate(times) if times else np.zeros(0)

    counts = np.zeros((replicas, grid.size, ncls), dtype=np.int64)
    while rep.size:
        lens = model.lengths[cls]
        t_next = t + rng.exponential(1.0, rep.size) / lens
        i0 = np.searchsorted(grid, t, side="left")
        i1 = np.searchsorted(grid, t_next, side="left")
        offset = 0
        while True:
            sel = i0 + offset < i1
            if not np.any(sel):
                break
            np.add.at(counts, (rep[sel], i0[sel] + offset, cls[sel]), 1)
            offset += 1
        pos = rng.integers(0, lens)
        cls = model.transitions[cls, pos]
        t = t_next
        keep = (t < T) & (cls >= 0)
        rep, cls, t = rep[keep], cls[keep], t[keep]
    return counts


_ORACLE_CASES = [
    *[(d, K, 1.0, [0.0, 0.5, 1.0], True, 60) for d in (1, 2, 3) for K in range(1, 6)],
    (2, 3, 1.0, [0.0, 0.4, 1.0], False, 80),  # no stationary atoms
    (2, 3, 0.0, [0.0], True, 80),  # T = 0: no immigrants, nothing moves past 0
    (2, 3, 0.0, [0.0], False, 5),  # no atoms at all
    (2, 3, 1.0, [], True, 50),  # empty grid
    (2, 3, 1.0, [0.2, 0.2, 0.7, 0.7, 0.7], True, 60),  # repeated grid points
    (1, 4, 0.8, [0.3, 0.8], True, 60),  # a grid point at exactly T
    (2, 3, 2.0, list(np.linspace(0.0, 2.0, 300)), True, 20),  # more than 255 points
    (2, 4, 1.0, [0.0, 1.0], True, 1),
    (3, 2, 1.5, [0.5], False, 1),
]


# more atoms (about 474,000) than a default chunk of simulate_limit holds
_MANY_ATOMS = (2, 3, 1.0, [0.0, 0.5, 1.0], True, 20000)


def _case_id(c):
    return "d{}-K{}-T{}-G{}-{}-R{}".format(
        c[0], c[1], c[2], len(c[3]), "stat" if c[4] else "empty", c[5])


def _assert_matches_reference(case, seed):
    d, K, T, grid, stationary_init, replicas = case
    counts, model = simulate_limit(d, K, T, grid, stationary_init,
                                   np.random.default_rng(seed), replicas=replicas)
    want = _reference_simulate_limit(d, K, T, grid, stationary_init,
                                     np.random.default_rng(seed), replicas=replicas)
    assert counts.dtype == want.dtype == np.int64
    assert counts.shape == want.shape == (replicas, len(grid), len(model.classes))
    assert np.array_equal(counts, want)


@pytest.mark.parametrize("case", [*_ORACLE_CASES, _MANY_ATOMS], ids=_case_id)
@pytest.mark.parametrize("seed", [0, 1])
def test_simulate_limit_matches_reference_loop(case, seed):
    _assert_matches_reference(case, seed)


def test_many_atoms_case_spans_several_chunks():
    d, K, T, _, _, replicas = _MANY_ATOMS
    model = limit_model(d, K)
    atoms = replicas * (model.stationary_means.sum() + model.immigration_rates.sum() * T)
    assert atoms > 4 * limitproc.ATOM_CHUNK


@pytest.mark.parametrize("case", _ORACLE_CASES, ids=_case_id)
@pytest.mark.parametrize("chunk", [1, 7])
def test_simulate_limit_matches_reference_loop_at_chunk_boundaries(monkeypatch, case, chunk):
    # every draw is split across chunks of 1 or 7 atoms, and table cells
    monkeypatch.setattr(limitproc, "ATOM_CHUNK", chunk)
    _assert_matches_reference(case, 0)


@pytest.mark.parametrize("d, K, T, grid, replicas, stationary_init, seed", [
    # the atoms dominate
    pytest.param(2, 3, 1.0, [0.0, 0.5, 1.0], 20000, True, 5, id="2-3-1.0-grid0-20000"),
    # the cells dominate
    pytest.param(2, 4, 1.0, list(np.linspace(0.0, 1.0, 300)), 400, True, 5,
                 id="2-4-1.0-grid1-400"),
    # immigrants only: one Poisson table
    pytest.param(2, 3, 1.0, [0.0, 0.5, 1.0], 20000, False, 5, id="2-3-1.0-grid0-20000-empty"),
    # the benchmark shape: 2.37 million atoms, 37 chunks in the first round
    pytest.param(2, 3, 1.0, [0.0, 0.5, 1.0], 100000, True, 5, id="2-3-1.0-grid0-100000"),
] + [
    # few replicas: numpy's fixed buffers and the spread of the cell count
    # are a large part of the peak
    pytest.param(2, 3, 1.0, list(np.linspace(0.0, 1.0, points)), replicas, True, seed,
                 id=f"2-3-1.0-grid{points}-{replicas}-seed{seed}")
    for points, replicas in ((100, 10), (300, 1)) for seed in range(8)
])
def test_simulate_limit_peak_under_byte_estimate(monkeypatch, d, K, T, grid, replicas,
                                                 stationary_init, seed):
    model = limit_model(d, K)
    need = limit_bytes(model, replicas, len(grid), T, stationary_init)
    # refused before any draw: the generator is left as it was
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    monkeypatch.setattr(errors, "BYTE_CAP", int(need) - 1)
    with pytest.raises(ResourceLimitError):
        simulate_limit(d, K, T, grid, stationary_init, rng, replicas=replicas)
    assert rng.bit_generator.state == state
    tracemalloc.start()
    try:
        monkeypatch.setattr(errors, "BYTE_CAP", int(need) + 1)
        counts, _ = simulate_limit(d, K, T, grid, stationary_init, rng, replicas=replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() > 0
    assert peak <= need



@pytest.mark.parametrize("trim_bytes, trims", [(1, 1), (2**40, 0)])
def test_simulate_limit_trims_the_heap_once_a_large_atom_state_is_freed(monkeypatch, trim_bytes,
                                                                        trims):
    # the trim returns the freed atom state (14 bytes an atom at this shape)
    # to the system, so it must come after the state is freed and before the
    # counts are made; a state under TRIM_BYTES is not trimmed
    model = limit_model(2, 3)
    replicas = 20000
    atoms = replicas * (model.stationary_means.sum() + model.immigration_rates.sum())
    seen = []
    monkeypatch.setattr(limitproc, "TRIM_BYTES", trim_bytes)
    monkeypatch.setattr(limitproc, "_malloc_trim",
                        lambda pad: seen.append(tracemalloc.get_traced_memory()))
    tracemalloc.start()
    try:
        simulate_limit(2, 3, 1.0, [0.0, 0.5, 1.0], True, np.random.default_rng(5),
                       replicas=replicas)
    finally:
        tracemalloc.stop()
    assert len(seen) == trims
    for current, peak in seen:
        assert current <= peak - 0.9 * 14 * atoms
