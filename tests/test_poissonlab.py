"""Tests for Poisson limit targets, sampling, and the coupling report."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from regraph import errors, graphs, poissonlab, walks, words
from regraph.errors import ResourceLimitError
from regraph.graphs import (
    PermGraph,
    force_edges,
    sample_permutation_model,
    simple_cycle_census,
)
from regraph.poissonlab import (
    coupling_monotonicity_report,
    empirical_pmf,
    poisson_targets,
    rate_shape,
    sample_cycle_counts,
    tv_convergence_experiment,
    tv_distance,
)
from regraph.walks import enumerate_cycles

from oracles import class_poisson_means, pairing_model_graph


def test_permutation_model_poisson_means():
    t = poisson_targets("permutation", 2, 4)
    assert t[0] == Fraction(2)
    assert t[1] == Fraction(3)
    assert t[2] == Fraction(14, 3)
    assert t[3] == Fraction(21, 2)


def test_uniform_model_poisson_means():
    t = poisson_targets("uniform", 3, 5)
    assert t[0] == 0 and t[1] == 0
    assert t[2] == Fraction(8, 6)
    assert t[3] == Fraction(16, 8)
    assert t[4] == Fraction(32, 10)


def test_class_means_sum_to_length_means():
    d, r = 2, 5
    by_class = class_poisson_means(d, r)
    t = poisson_targets("permutation", d, r)
    for k in range(1, r + 1):
        total = sum(m for wc, m in by_class.items() if wc.length == k)
        assert total == t[k - 1]
    assert all(m == Fraction(1, wc.h) for wc, m in by_class.items())


def test_rate_shape_shrinks_with_n():
    for model, d in (("permutation", 2), ("uniform", 3)):
        vals = [rate_shape(model, d, 4, n) for n in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert math.isclose(vals[0] / vals[1], 10.0)


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
    (poisson_targets("permutation", 2, 3), 1e-6),
    (poisson_targets("permutation", 2, 4), 1e-6),
    (poisson_targets("permutation", 1, 3), 1e-6),
    (poisson_targets("uniform", 3, 4), 1e-6),
    ([0.0], 1e-6),
    ([7.5, 0.01], 0.1),
    ([], 1e-6),
])
def test_product_poisson_pmf_matches_sequential_oracle(means, tail):
    # the point mass at k lies exactly 1 - q_k from the target in TV
    oracle, _ = _sequential_pmf(means, tail)
    for k, qk in oracle.items():
        assert math.isclose(1.0 - tv_distance({k: 1.0}, means), qk,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_tv_distance_matches_exact_fractions():
    # the oracle's box TV charges its whole tail (under 1e-13 here) as mismatch
    rng = np.random.default_rng(9)
    for _ in range(20):
        means = rng.uniform(0.2, 3.0, size=rng.integers(1, 4))
        q, q_tail = _sequential_pmf(means, 1e-13)
        samples = rng.poisson(means, size=(int(rng.integers(1, 500)), len(means)))
        p = empirical_pmf(samples)
        box = Fraction(q_tail)
        for k in set(p) | set(q):
            box += abs(Fraction(p.get(k, 0.0)) - Fraction(q.get(k, 0.0)))
        box /= 2
        assert abs(Fraction(tv_distance(p, means)) - box) <= Fraction(1, 10**12)


def test_tv_distance_large_means_promptly():
    # e^-2952 underflows, so these masses must come from log space
    rng = np.random.default_rng(4)
    start = time.monotonic()
    for means in (poisson_targets("permutation", 2, 10), [2952.0]):
        lams = [float(m) for m in means]
        p = empirical_pmf(rng.poisson(lams, size=(500, len(lams))))
        assert 0.0 <= tv_distance(p, means) < 1.0
    assert time.monotonic() - start < 5.0


def test_tv_distance_subnormal_mean():
    # e^-744 is subnormal (e^-700 is not): a point mass at k is 1 - q_k away
    # from Poisson(lam), and q_k must match a sum-of-logs oracle and keep its
    # total mass over a wide window
    rng = np.random.default_rng(5)
    for lam in (700.0, 744.0):
        p = empirical_pmf(rng.poisson([lam], size=(500, 1)))
        assert 0.0 <= tv_distance(p, [lam]) < 1.0
        masses = []
        for k in range(int(lam) - 300, int(lam) + 301):
            qk = 1.0 - tv_distance({(k,): 1.0}, [lam])
            log_oracle = math.fsum(math.log(lam / j) for j in range(1, k + 1)) - lam
            assert qk >= 0.0
            assert math.isclose(qk, math.exp(log_oracle), rel_tol=1e-9, abs_tol=1e-15)
            masses.append(qk)
        assert math.isclose(math.fsum(masses), 1.0, rel_tol=1e-9)


def test_empirical_pmf_and_tv():
    samples = np.array([[0, 1], [0, 1], [1, 0], [2, 2]])
    pmf = empirical_pmf(samples)
    assert pmf[(0, 1)] == 0.5
    assert math.isclose(sum(pmf.values()), 1.0)
    assert tv_distance({(0, 0): 1.0}, [0.0, 0.0]) == 0.0
    assert tv_distance(pmf, [0.0, 0.0]) == 1.0


def test_sample_cycle_counts_deterministic_and_correct(monkeypatch):
    counts = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7)
    again = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7)
    assert np.array_equal(counts, again)
    other = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=8)
    assert not np.array_equal(counts, other)
    # chunk 0 reads a prefix of the same stream, so its graphs are unchanged
    monkeypatch.setattr(poissonlab, "PERM_CHUNK", 16)
    chunked = sample_cycle_counts("permutation", 12, 2, 4, samples=40, seed=7)
    assert np.array_equal(chunked[:16], counts[:16])
    # cross-check one graph against the census
    rng = np.random.default_rng([7, 12, 0])
    perms = np.argsort(rng.random((40, 2, 12)), axis=-1)
    census = enumerate_cycles(PermGraph(perms[0]), 4)
    assert list(counts[0]) == [census.count(k) for k in range(1, 5)]


def test_sample_cycle_counts_uniform_model():
    counts = sample_cycle_counts("uniform", 10, 3, 4, samples=5, seed=3)
    assert counts.shape == (5, 4)
    assert np.all(counts[:, :2] == 0)  # simple graphs: no loops or 2-cycles


def _uniform_counts_oracle(n, d, r, samples, seed):
    """One pairing-model draw and one full cycle census per graph."""
    rng = np.random.default_rng([seed, n, 1])
    out = np.zeros((samples, r), dtype=np.int64)
    for i in range(samples):
        for vs in simple_cycle_census(pairing_model_graph(n, d, rng), r).values():
            out[i, len(vs) - 1] += 1
    return out


@pytest.mark.parametrize("n, d, r", [
    (8, 2, 8),  # unions of cycles, up to a Hamiltonian one
    (11, 2, 14),  # r > n
    (6, 3, 8),  # dense: d = n - 3, r > n
    (8, 5, 6),  # dense: d = n - 3
    (10, 3, 2),  # r < 3: all zeros
    (10, 3, 1),
    (12, 4, 6),
    (16, 3, 5),
    (30, 3, 4),
])
def test_uniform_cycle_counts_match_census_oracle(n, d, r):
    for seed in (0, 1):
        counts = sample_cycle_counts("uniform", n, d, r, samples=25, seed=seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _uniform_counts_oracle(n, d, r, 25, seed)), seed


def test_uniform_cycle_counts_in_many_byte_chunks(monkeypatch):
    # a few attempts a sampling block and a few starts a counting chunk
    expected = _uniform_counts_oracle(12, 3, 6, 30, 5)
    monkeypatch.setattr(graphs, "PAIRING_BLOCK_BYTES", 20_000)
    monkeypatch.setattr(walks, "CENSUS_CHUNK_BYTES", 30_000)
    assert np.array_equal(sample_cycle_counts("uniform", 12, 3, 6, samples=30, seed=5), expected)


def test_uniform_cycle_counts_check_bytes_before_sampling(monkeypatch):
    need = poissonlab.uniform_sample_bytes(16, 3, 4, 300)
    monkeypatch.setattr(errors, "BYTE_CAP", need - 1)
    monkeypatch.setattr(poissonlab, "sample_uniform_pairings",
                        lambda *args: pytest.fail("sampled before the check"))
    with pytest.raises(ResourceLimitError, match="300 uniform graphs with n=16"):
        sample_cycle_counts("uniform", 16, 3, 4, samples=300, seed=0)


def test_permutation_cycle_counts_check_bytes_before_drawing(monkeypatch):
    need = poissonlab.cycle_sample_bytes("permutation", 1000, 2, 3, 300)
    with monkeypatch.context() as patch:
        patch.setattr(errors, "BYTE_CAP", need - 1)
        patch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew before the check"))
        with pytest.raises(ResourceLimitError, match="300 permutation graphs with n=1000"):
            sample_cycle_counts("permutation", 1000, 2, 3, samples=300, seed=0)
    monkeypatch.setattr(errors, "BYTE_CAP", need)
    assert sample_cycle_counts("permutation", 1000, 2, 3, samples=300, seed=0).shape == (300, 3)


@pytest.mark.parametrize("model, n, d, r, samples", [
    ("permutation", 800, 2, 3, 256),  # the tv-census shape at its largest n
    ("permutation", 100, 2, 4, 3000),
    ("permutation", 30, 2, 5, 5000),  # nearly every row of counts its own pmf key
    ("permutation", 5000, 1, 3, 600),  # three chunks of large graphs
    ("uniform", 16, 3, 4, 300),
    ("uniform", 12, 3, 6, 3000),
])
def test_cycle_sample_bytes_bound_tracemalloc_peak(model, n, d, r, samples):
    tv_convergence_experiment(model, d, r, [n], samples, seed=1)  # first-call set-up
    tracemalloc.start()
    try:
        tv_convergence_experiment(model, d, r, [n], samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= poissonlab.cycle_sample_bytes(model, n, d, r, samples)


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


def _scan_report(n, d, r, trials, seed):
    """The coupling report by a scan of every candidate representation: each
    one's containment in both graphs is tested by numpy gathers."""
    groups = []
    for k in range(1, r + 1):
        verts = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
        words_k = sorted(
            w for wc in words.classes_upto(d, r) if wc.length == k for w in wc.orbit()
        )
        letters = np.array(words_k, dtype=np.int64)
        v_rep = np.repeat(verts, len(letters), axis=0)
        l_rep = np.tile(letters, (len(verts), 1))
        # directed step (label, tail, head): inverted letters flip direction
        heads = np.roll(v_rep, -1, axis=1)
        invmask = (l_rep & 1).astype(bool)
        groups.append(
            {
                "k": k,
                "labels": l_rep // 2,
                "tails": np.where(invmask, heads, v_rep),
                "heads": np.where(invmask, v_rep, heads),
            }
        )
    rng = np.random.default_rng([seed, n, d, r])
    weights = [grp["tails"].shape[0] / (2 * grp["k"]) for grp in groups]
    weights = np.array(weights) / sum(weights)
    minus_violations = plus_violations = alpha_installed = checked = 0
    for _ in range(trials):
        g = sample_permutation_model(n, d, rng)
        grp = groups[int(rng.choice(len(groups), p=weights))]
        ri = int(rng.integers(grp["tails"].shape[0]))
        k = grp["k"]
        labels, tails, heads = grp["labels"][ri], grp["tails"][ri], grp["heads"][ri]
        alpha_out = np.full((d, n), -1, dtype=np.int64)
        alpha_in = np.full((d, n), -1, dtype=np.int64)
        alpha_out[labels, tails] = heads
        alpha_in[labels, heads] = tails
        g2_perms = poissonlab.force_edges(g.perms, g.inv, zip(labels, tails, heads))
        alpha_installed += int(np.all(g2_perms[labels, tails] == heads))
        for grp2 in groups:
            lab, tl, hd = grp2["labels"], grp2["tails"], grp2["heads"]
            ao = alpha_out[lab, tl]
            ai = alpha_in[lab, hd]
            bad = np.any(((ao != -1) & (ao != hd)) | ((ai != -1) & (ai != tl)), axis=1)
            is_alpha = np.all(ao == hd, axis=1) if grp2["k"] == k else np.zeros(len(lab), bool)
            in_g = np.all(g.perms[lab, tl] == hd, axis=1)
            in_g2 = np.all(g2_perms[lab, tl] == hd, axis=1)
            minus_violations += int(np.sum(bad & in_g2))
            plus_violations += int(np.sum(~bad & ~is_alpha & in_g & ~in_g2))
            checked += len(lab)
    return {
        "n": n,
        "d": d,
        "r": r,
        "trials": trials,
        "representations_checked": checked,
        "alpha_installed": alpha_installed,
        "minus_violations": minus_violations,
        "plus_violations": plus_violations,
    }


@pytest.mark.parametrize(
    "n, d, r, trials",
    [(10, 2, 3, 40), (8, 3, 3, 30), (7, 2, 4, 20), (5, 1, 4, 40), (6, 3, 2, 40)],
)
def test_coupling_report_matches_scan_oracle(n, d, r, trials):
    assert coupling_monotonicity_report(n, d, r, trials, 17) == _scan_report(n, d, r, trials, 17)


def _leaky_force_edges(perms, inv, edges):
    """force_edges, then one more value swap at the tail of alpha's first
    edge: it removes alpha again and destroys and creates other cycles."""
    edges = list(edges)
    out = force_edges(perms, inv, edges)
    l, a, _ = edges[0]
    b = (a + 1) % out.shape[1]
    out[l, [a, b]] = out[l, [b, a]]
    return out


@pytest.mark.parametrize(
    "n, d, r, trials",
    [(10, 2, 3, 40), (8, 3, 3, 30), (7, 2, 4, 20), (5, 1, 4, 60), (4, 2, 2, 60)],
)
def test_coupling_report_counts_violations_like_scan_oracle(monkeypatch, n, d, r, trials):
    monkeypatch.setattr(poissonlab, "force_edges", _leaky_force_edges)
    report = coupling_monotonicity_report(n, d, r, trials, 18)
    assert report["minus_violations"] > 0 and report["plus_violations"] > 0
    assert report == _scan_report(n, d, r, trials, 18)


@pytest.mark.parametrize("leaky", [False, True], ids=["force_edges", "leaky"])
@pytest.mark.parametrize(
    "n, d, r, trials",
    [(10, 2, 3, 40), (8, 3, 3, 30), (7, 2, 4, 20), (5, 1, 4, 40), (6, 3, 2, 40)],
)
def test_coupling_report_independent_of_block_size(monkeypatch, n, d, r, trials, leaky):
    if leaky:
        monkeypatch.setattr(poissonlab, "force_edges", _leaky_force_edges)
    trial_bytes = poissonlab._trial_bytes(n, d, r)
    assert walks.CENSUS_CHUNK_BYTES // trial_bytes >= trials  # one block by default
    report = coupling_monotonicity_report(n, d, r, trials, 18)
    for per_block in (1, 7):
        monkeypatch.setattr(walks, "CENSUS_CHUNK_BYTES", per_block * trial_bytes)
        assert coupling_monotonicity_report(n, d, r, trials, 18) == report


def test_coupling_report_runs_no_cycle_search(monkeypatch):
    monkeypatch.setattr(walks, "perm_graph_cycles", lambda *args, **kwargs: pytest.fail("DFS ran"))
    assert coupling_monotonicity_report(10, 2, 3, trials=20, seed=3)["alpha_installed"] == 20


def test_coupling_report_with_fewer_vertices_than_r():
    # no candidate of length 3 fits on two vertices; lengths 1 and 2 still do
    report = coupling_monotonicity_report(2, 2, 3, trials=5, seed=19)
    per_trial = sum(math.perm(2, k) * words.count_reduced_words(2, k) for k in (1, 2))
    assert report["representations_checked"] == 5 * per_trial
    assert report["alpha_installed"] == 5
    assert report["minus_violations"] == report["plus_violations"] == 0
