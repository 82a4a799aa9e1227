"""End-to-end acceptance checks for the whole package.

Each test exercises one headline guarantee at desk scale: exact rational
identities for word combinatorics, float-exact trace identities, Poisson
convergence trends, coupling and switching correctness, the limiting cycle
process and its Gaussian descriptions, and CLI determinism.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import stats

from regraph import cli, gffcheck, growth, limitproc, poissonlab, spectra, walks, words
from regraph.graphs import (
    CycleSpec,
    PermGraph,
    SimpleGraph,
    SwitchingChain,
    _forward_option_counts,
    sample_permutation_model,
    sample_uniform_model,
    simple_cycle_census,
)
from regraph.words import count_reduced_words

from oracles import (
    apply_switching,
    enumerate_labeled_regular_graphs,
    halvings,
    sample_yule,
    size_bias_coupling,
)


def _cov_and_se(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Covariance estimate and its standard error from paired samples."""
    prod = (x - x.mean()) * (y - y.mean())
    return float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(prod.size))


# ---------------------------------------------------------------------------
# 1. exact word-class identities


def test_word_identities_exact():
    for d in range(1, 4):
        prev_classes = []
        for k in range(1, 9):
            classes = words.enumerate_word_classes(d, k)
            a_k = count_reduced_words(d, k)
            a_km1 = count_reduced_words(d, k - 1)
            # orbit sizes tile the reduced words of length k
            assert sum(Fraction(2 * k, wc.h) for wc in classes) == a_k
            # immigration weights sum to the net growth of the word count
            assert sum(wc.mu for wc in classes) == Fraction(a_k - a_km1, 2)
            # doubled-position mass balances against the shorter level
            if k >= 2:
                lhs = sum(Fraction(wc.c, wc.h) for wc in classes)
                rhs = (k - 1) * sum(Fraction(1, u.h) for u in prev_classes)
                assert lhs == rhs
                # per-pair doubling/halving balance
                for u in prev_classes:
                    doublings = Counter(
                        words.double_letter(u, p) for p in range(1, u.length + 1)
                    )
                    for w, a_count in doublings.items():
                        b_count = halvings(w)[u]
                        assert Fraction(a_count, u.h) == Fraction(b_count, w.h)
            prev_classes = classes


# ---------------------------------------------------------------------------
# 2. trace identity between eigenvalues and non-backtracking walk counts


def test_trace_identity_both_models():
    rng = np.random.default_rng(100)
    for model in ("permutation", "uniform"):
        for trial in range(25):
            n = int(rng.integers(8, 60))
            d = int(rng.integers(1, 4)) if model == "permutation" else int(
                rng.integers(2, 4)
            )
            if model == "permutation":
                g = sample_permutation_model(n, d, rng)
            else:
                n = max(2 * (n // 2), 2 * d + 2)  # n d must be even
                g = sample_uniform_model(n, d, rng)
            spec = spectra.eigenvalues(g)
            via_matrix = walks.cnbw_via_nb_matrix(g, 10)
            via_spectrum = spectra.cnbw_from_spectrum(spec, 10)
            assert np.all(np.abs(via_spectrum - via_matrix) < 1e-8 * n)


# ---------------------------------------------------------------------------
# 3. Poisson convergence trend in n (permutation model)


def test_poisson_tv_decreasing_in_n():
    rows = poissonlab.tv_convergence_experiment(
        "permutation", 2, 3, [100, 200, 400, 800], 10**5, seed=20
    )
    tvs = [row["tv"] for row in rows]
    assert tvs[0] > tvs[1] > tvs[2] > tvs[3]
    assert tvs[3] < 0.05


# ---------------------------------------------------------------------------
# 4. d=1 specialization: cycle counts of one uniform permutation


def test_single_permutation_cycle_counts():
    rows = poissonlab.tv_convergence_experiment(
        "permutation", 1, 3, [200], 10**5, seed=21
    )
    assert rows[0]["tv"] < 0.02
    target = poissonlab.poisson_targets("permutation", 1, 3)
    assert list(target) == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]


# ---------------------------------------------------------------------------
# 5. size-biased coupling: monotonicity and exact conditional law


def test_coupling_monotonicity_at_scale():
    report = poissonlab.coupling_monotonicity_report(10, 2, 3, 10**4, seed=22)
    assert report["minus_violations"] == 0
    assert report["plus_violations"] == 0
    assert report["alpha_installed"] == 10**4


def test_coupling_exact_conditional_law_exhaustive():
    for n in (2, 3, 4):
        for k in range(2, n + 1):
            alpha = CycleSpec(tuple(range(k)), (0,) * k)
            hits = Counter()
            for p in itertools.permutations(range(n)):
                g = PermGraph(np.array([p]))
                g2 = size_bias_coupling(g, alpha)
                hits[g2.key()] += 1
            conditioned = [
                p
                for p in itertools.permutations(range(n))
                if all(p[i] == (i + 1) % k for i in range(k))
            ]
            assert set(hits) == {PermGraph(np.array([p])).key() for p in conditioned}
            uniform = math.factorial(n) / len(conditioned)
            tv = sum(abs(c - uniform) for c in hits.values()) / (2 * math.factorial(n))
            assert tv < 1e-12


# ---------------------------------------------------------------------------
# 6. switchings: involution property and chain uniformity


def test_forward_backward_is_identity():
    rng = np.random.default_rng(23)
    n, d, r = 14, 3, 3
    done = 0
    while done < 10**4:
        g = sample_uniform_model(n, d, rng)
        for base in simple_cycle_census(g, r).values():
            # random representation of the cycle and random edge replacements
            for _ in range(20):
                shift = int(rng.integers(len(base)))
                vs = base[shift:] + base[:shift]
                if rng.integers(2):
                    vs = (vs[0],) + tuple(reversed(vs[1:]))
                options = _forward_option_counts(g, vs)
                if any(not opts for opts in options):
                    break
                combo = [opts[rng.integers(len(opts))] for opts in options]
                ws = tuple(c[0] for c in combo)
                us_next = tuple(c[1] for c in combo)
                us = (us_next[-1],) + us_next[:-1]
                g2 = apply_switching(g, vs, us, ws, "forward")
                if g2 is None:
                    continue
                assert apply_switching(g2, vs, us, ws, "backward") == g
                assert all(len(g2.neighbors[v]) == d for v in range(n))
                done += 1
                if done >= 10**4:
                    return


def _complete_bipartite(parts: tuple[tuple[int, ...], tuple[int, ...]]) -> SimpleGraph:
    left, right = parts
    return SimpleGraph(6, 3, [(a, b) for a in left for b in right])


def test_switching_chain_reaches_uniformity():
    # Cubic graphs on six vertices are so dense that structural switchings
    # preserve a 3+3 vertex bipartition, so the state space splits into ten
    # components of seven graphs each; one chain per component, pooled, must
    # cover all 70 labeled graphs uniformly.
    all_graphs = enumerate_labeled_regular_graphs(6, 3)
    assert len(all_graphs) == 70
    index = {g.key(): i for i, g in enumerate(all_graphs)}

    partitions = []
    for left in itertools.combinations(range(1, 6), 2):
        part = (0,) + left
        rest = tuple(v for v in range(6) if v not in part)
        partitions.append((part, rest))
    assert len(partitions) == 10

    steps, burn, thin = 100_000, 5_000, 500
    visits = np.zeros(len(all_graphs), dtype=np.int64)
    for pi, parts in enumerate(partitions):
        chain = SwitchingChain(
            _complete_bipartite(parts), 3, np.random.default_rng([24, pi]),
            validity="structural",
        )
        for t in range(steps):
            chain.step()
            if t >= burn and (t - burn) % thin == 0:
                visits[index[chain.graph.key()]] += 1
    assert np.all(visits > 0)
    _, p_value = stats.chisquare(visits)
    assert p_value > 0.001


# ---------------------------------------------------------------------------
# 7. limiting process: marginals, covariances, Yule growth law


def test_limit_process_means_and_covariances():
    d, r = 2, 3
    lags = [0.0, 0.5, 1.0]
    rng = np.random.default_rng(25)
    counts, model = limitproc.simulate_limit(
        d, r, 1.0, lags, True, rng, replicas=10**5
    )
    by_len = words.counts_by_length(counts, model.classes, model.K)
    for ti in range(len(lags)):
        for k in (1, 2, 3):
            mean = count_reduced_words(d, k) / (2 * k)
            se = math.sqrt(mean / by_len.shape[0])
            assert abs(by_len[:, ti, k - 1].mean() - mean) < 3 * se
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            for ti, lag in enumerate(lags):
                cov, se = _cov_and_se(by_len[:, 0, j - 1], by_len[:, ti, k - 1])
                target = limitproc.limit_covariance(d, j, k, 0.0, lag)
                assert abs(cov - target) < 3 * se + 1e-12


def test_yule_marginals_tv():
    rng = np.random.default_rng(26)
    tau = 1.0
    samples = sample_yule(1, tau, 10**6, rng)
    cap = int(samples.max())
    emp = np.bincount(samples, minlength=cap + 1)[1:] / samples.size
    pmf = np.array([limitproc.yule_pmf(1, k, tau) for k in range(1, cap + 1)])
    tv = 0.5 * np.abs(emp - pmf).sum() + 0.5 * (1 - pmf.sum())
    assert tv < 0.01


# ---------------------------------------------------------------------------
# 8. Ornstein-Uhlenbeck description of the Chebyshev trace series


def test_trace_series_variance_approaches_ou_limit():
    # Var(tr T_k) at finite d has the exact value trace_covariance(d, k, 0)
    # and decreases to k/2 as d grows; the simulated doubled series has four
    # times that variance.  Both the finite-d values and the trend toward the
    # k/2 and (k/2) e^{-k} limits are checked.
    k = 2
    variances = []
    for d in (2, 4, 8):
        rng = np.random.default_rng([27, d])
        counts, model = limitproc.simulate_limit(
            d, k, 1.0, [0.0, 1.0], True, rng, replicas=10**5
        )
        by_len = words.counts_by_length(counts, model.classes, model.K)
        series = limitproc.chebyshev_fluctuation_series(by_len, d, k) / 2.0
        prod0 = series[:, 0] * series[:, 0]
        var_hat = float(prod0.mean())
        var_se = float(prod0.std(ddof=1) / math.sqrt(prod0.size))
        exact_var = limitproc.trace_covariance(d, k, 0.0)
        assert abs(var_hat - exact_var) < 3 * var_se
        prod1 = series[:, 0] * series[:, 1]
        cov_hat = float(prod1.mean())
        cov_se = float(prod1.std(ddof=1) / math.sqrt(prod1.size))
        exact_cov = limitproc.trace_covariance(d, k, 1.0)
        assert abs(cov_hat - exact_cov) < 3 * cov_se
        variances.append(exact_var)
        # the exact finite-d targets approach the limiting Gaussian values
        ou_var = limitproc.ou_covariance(k, k, 0.0, 0.0)
        ou_cov = limitproc.ou_covariance(k, k, 0.0, 1.0)
        assert abs(exact_var - ou_var) < 3 / (2 * d - 1) ** (k - 1)
        assert abs(exact_cov - ou_cov) < 3 / (2 * d - 1) ** (k - 1)
    assert variances[0] > variances[1] > variances[2] > k / 2


# ---------------------------------------------------------------------------
# 9. Gaussian-field covariance integral


def test_gff_covariance_integral():
    for j in range(1, 5):
        for k in range(1, 5):
            for lag in (0.0, 0.3, 1.0):
                numeric = gffcheck.gff_cheb_covariance(j, k, 0.0, lag)
                closed = gffcheck.gff_closed_form(j, k, 0.0, lag)
                assert abs(numeric - closed) < 1e-4


# ---------------------------------------------------------------------------
# 10. growing graph agrees with the limiting process


def test_growth_covariances_match_limit():
    d, r = 2, 3
    s = math.log(501.0)  # expected vertex count e^s - 1 = 500 at warm-up
    lags = [0.5, 1.0]
    replicas = 20_000
    samples = growth.growth_count_samples(d, s, lags, r, replicas, seed=28)
    times = [0.0] + lags
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            for ti, lag in enumerate(times):
                x = samples[:, 0, j - 1].astype(float)
                y = samples[:, ti, k - 1].astype(float)
                cov, se = _cov_and_se(x, y)
                target = limitproc.limit_covariance(d, j, k, 0.0, lag)
                assert abs(cov - target) < 3 * se + 1e-12


# ---------------------------------------------------------------------------
# 11. CLI determinism across worker counts


def test_cli_reports_deterministic_across_workers(tmp_path):
    cfg = tmp_path / "grow.cfg"
    cfg.write_text("d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0, 1.0\nr = 3\nreplicas = 6\n")
    artifacts = []
    for i, workers in enumerate((1, 2, 4)):
        out = tmp_path / f"out{i}"
        code = cli.main(["grow", "--config", str(cfg), "--out", str(out),
                         "--seed", "29", "--workers", str(workers)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        artifacts.append((
            json.dumps(report["body"], sort_keys=True),
            (out / "trajectory.csv").read_text(),
            (out / "events.csv").read_text(),
        ))
    assert artifacts[0] == artifacts[1] == artifacts[2]
