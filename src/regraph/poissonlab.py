"""Poisson limits of short cycle counts and total-variation experiments.

In the permutation model the joint law of the cycle counts (C_1, ..., C_r)
converges to independent Poissons whose mean at length k is the number of
reduced words of length k divided by 2k; word classes individually have
Poisson(1/h) limits.  In the uniform model only lengths >= 3 appear and the
mean is (d-1)^k / 2k.  This module computes those targets exactly, samples
cycle counts at scale, and estimates the total-variation distance between the
empirical law and the product Poisson target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import walks, words
from .errors import InvalidInputError, ResourceLimitError
from .graphs import force_edges, sample_permutation_model, sample_uniform_model
from .words import WordClass


@dataclass(frozen=True)
class PoissonTarget:
    """Limiting product-Poisson law of (C_1, ..., C_r)."""

    model: str
    d: int
    r: int
    by_length: tuple[Fraction, ...]

    def mean(self, k: int) -> Fraction:
        if not 1 <= k <= self.r:
            raise InvalidInputError(f"length {k} outside 1..{self.r}")
        return self.by_length[k - 1]


def poisson_targets(model: str, d: int, r: int) -> PoissonTarget:
    if r < 1 or d < 1:
        raise InvalidInputError(f"need r >= 1 and d >= 1, got r={r}, d={d}")
    if model == "permutation":
        means = tuple(
            Fraction(words.count_reduced_words(d, k), 2 * k) for k in range(1, r + 1)
        )
    elif model == "uniform":
        means = tuple(
            Fraction((d - 1) ** k, 2 * k) if k >= 3 else Fraction(0)
            for k in range(1, r + 1)
        )
    else:
        raise InvalidInputError(f"unknown model {model!r}")
    return PoissonTarget(model=model, d=d, r=r, by_length=means)


def class_poisson_means(d: int, r: int) -> dict[WordClass, Fraction]:
    """Limiting Poisson mean 1/h for every word class of length <= r."""
    return {wc: Fraction(1, wc.h) for wc in words.classes_upto(d, r)}


def rate_shape(model: str, d: int, r: int, n: int) -> float:
    """Order of the total-variation error at size n (constant factor 1)."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    if model == "permutation":
        return r**2 * (2 * d - 1) ** r * math.log(2 * d - 1) / n
    if model == "uniform":
        return math.sqrt(r) * (d - 1) ** (3 * r / 2 - 1) / n
    raise InvalidInputError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# product Poisson pmf and total variation


def _poisson_pmf_vector(lam: float, cap: int) -> np.ndarray:
    out = np.empty(cap + 1)
    out[0] = math.exp(-lam)
    for i in range(1, cap + 1):
        out[i] = out[i - 1] * lam / i
    return out


def product_poisson_pmf(
    means: Sequence, tail: float = 1e-6, budget: int = 10**7
) -> tuple[dict[tuple[int, ...], float], float]:
    """Probability masses of independent Poissons on a truncation box.

    Each coordinate is capped at its (1 - tail) quantile; returns the pmf on
    the box, keyed in lexicographic order, together with the total mass lying
    outside it.  The box is the outer product of the per-coordinate pmf
    vectors, multiplied left to right, and its mass is summed in key order.
    Raises ResourceLimitError once the box would exceed ``budget`` entries,
    or when a mean is so large that e^-mean underflows.
    """
    lams = [float(m) for m in means]
    if any(l < 0 for l in lams):
        raise InvalidInputError("Poisson means must be nonnegative")
    caps = []
    size = 1
    for lam in lams:
        cap = 0
        acc = math.exp(-lam)
        if acc == 0.0:
            raise ResourceLimitError(f"Poisson mean {lam} too large: e^-mean underflows")
        term = acc
        while 1 - acc > tail:
            cap += 1
            if size * (cap + 1) > budget:
                raise ResourceLimitError(f"pmf box exceeds budget {budget}")
            term *= lam / cap
            acc += term
        caps.append(cap)
        size *= cap + 1
    probs = np.ones(())
    for lam, cap in zip(lams, caps):
        probs = np.multiply.outer(probs, _poisson_pmf_vector(lam, cap))
    probs = probs.ravel()
    total = float(np.add.accumulate(probs)[-1])
    keys = itertools.product(*(range(c + 1) for c in caps))
    return dict(zip(keys, probs.tolist())), 1.0 - total


def empirical_pmf(samples: np.ndarray) -> dict[tuple[int, ...], float]:
    """Empirical distribution of integer count vectors, rows are samples."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise InvalidInputError("samples must be a 2-d array")
    vals, counts = np.unique(samples, axis=0, return_counts=True)
    n = samples.shape[0]
    return {tuple(int(x) for x in v): c / n for v, c in zip(vals, counts)}


def tv_distance(
    p: dict[tuple[int, ...], float],
    q: dict[tuple[int, ...], float],
    q_tail: float = 0.0,
) -> float:
    """Total variation between two (sub-)pmfs; mass of q outside its support
    box is charged in full.

    Sums |p_k - q_k| over the support of p plus q_k over the rest of q's
    support; the second sum is every q_k minus those on p's support, taken
    exactly by one ``math.fsum``, so the Python-level work is O(|p|) and the
    result does not depend on key order.
    """
    terms = []
    for k, pk in p.items():
        qk = q.get(k, 0.0)
        terms += (abs(pk - qk), -qk)
    return 0.5 * (math.fsum(itertools.chain(terms, q.values())) + q_tail)


# ---------------------------------------------------------------------------
# vectorized cycle-count sampling (permutation model)

# most graphs a uniform-model run samples: each one is a pairing-model draw
# and a Python cycle search
UNIFORM_SAMPLE_CAP = 10**4


def sample_cycle_counts(
    model: str,
    n: int,
    d: int,
    r: int,
    samples: int,
    seed: int,
    chunk: int = 256,
    uniform_budget: int = UNIFORM_SAMPLE_CAP,
) -> np.ndarray:
    """Cycle counts (C_1..C_r) for ``samples`` independent graphs.

    Chunks are seeded independently of how work is scheduled, so results
    depend only on (seed, n, d, r).
    """
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    if model == "uniform":
        if samples > uniform_budget:
            raise ResourceLimitError(
                f"uniform-model sampling capped at {uniform_budget} graphs"
            )
        rng = np.random.default_rng([seed, n, 1])
        out = np.zeros((samples, r), dtype=np.int64)
        for i in range(samples):
            g = sample_uniform_model(n, d, rng)
            census = walks.enumerate_cycles(g, r)
            out[i] = [census.count(k) for k in range(1, r + 1)]
        return out
    if model != "permutation":
        raise InvalidInputError(f"unknown model {model!r}")
    out = np.zeros((samples, r), dtype=np.int64)
    for start in range(0, samples, chunk):
        idx = start // chunk
        rng = np.random.default_rng([seed, n, idx])
        b = min(chunk, samples - start)
        perms = np.argsort(rng.random((b, d, n)), axis=-1)
        cc, classes = walks.batch_class_counts(perms, r)
        out[start : start + b] = walks.counts_by_length(cc, classes, r)
    return out


def tv_convergence_experiment(
    model: str,
    d: int,
    r: int,
    n_list: Sequence[int],
    samples: int,
    seed: int,
    tail: float = 1e-6,
) -> list[dict]:
    """Empirical TV distance to the product-Poisson target for each n."""
    target = poisson_targets(model, d, r)
    pmf, tail_mass = product_poisson_pmf(target.by_length, tail=tail)
    rows = []
    for n in n_list:
        counts = sample_cycle_counts(model, n, d, r, samples, seed)
        emp = empirical_pmf(counts)
        tv = tv_distance(emp, pmf, q_tail=tail_mass)
        rows.append(
            {
                "model": model,
                "d": d,
                "r": r,
                "n": int(n),
                "samples": int(samples),
                "tv": float(tv),
                "tv_bias_bound": len(emp) / (2 * samples) + float(tail_mass),
                "rate_shape": rate_shape(model, d, r, n),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# coupling monotonicity at scale


class _CandidateArrays:
    """All cycle representations on n vertices grouped by length."""

    def __init__(self, n: int, d: int, r: int, budget: int = 10**7):
        self.n, self.d, self.r = n, d, r
        self.groups = []
        for k in range(1, r + 1):
            count = words.count_reduced_words(d, k)
            for i in range(k):
                count *= n - i
            if count > budget:
                raise ResourceLimitError(f"representation space {count} too large")
            verts = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
            words_k = sorted(w for w, _ in walks.class_table(d, r)[1] if len(w) == k)
            letters = np.array(words_k, dtype=np.int64)
            nv, nw = len(verts), len(letters)
            v_rep = np.repeat(verts, nw, axis=0)
            l_rep = np.tile(letters, (nv, 1))
            # directed step (label, tail, head): inverted letters flip direction
            heads = np.roll(v_rep, -1, axis=1)
            tails = v_rep
            invmask = (l_rep & 1).astype(bool)
            t = np.where(invmask, heads, tails)
            h = np.where(invmask, tails, heads)
            self.groups.append(
                {
                    "k": k,
                    "labels": l_rep // 2,
                    "tails": t,
                    "heads": h,
                }
            )

    def contained(self, perms: np.ndarray, group: dict) -> np.ndarray:
        return np.all(
            perms[group["labels"], group["tails"]] == group["heads"], axis=1
        )


def coupling_monotonicity_report(
    n: int, d: int, r: int, trials: int, seed: int
) -> dict:
    """Force random cycles into random graphs and verify the coupling is
    monotone on the implied partition of all candidate cycles.

    Candidates sharing a partial edge with the forced cycle must be absent
    afterwards; all others may only appear.  Violations are counted per kind.
    """
    cands = _CandidateArrays(n, d, r)
    rng = np.random.default_rng([seed, n, d, r])
    # weight lengths by the number of cycles [n]_k * a(d,k) / 2k
    weights = []
    for g in cands.groups:
        weights.append(g["tails"].shape[0] / (2 * g["k"]))
    weights = np.array(weights) / sum(weights)
    minus_violations = 0
    plus_violations = 0
    alpha_installed = 0
    checked = 0
    for _ in range(trials):
        g = sample_permutation_model(n, d, rng)
        gi = int(rng.choice(len(cands.groups), p=weights))
        grp = cands.groups[gi]
        ri = int(rng.integers(grp["tails"].shape[0]))
        k = grp["k"]
        labels = grp["labels"][ri]
        tails = grp["tails"][ri]
        heads = grp["heads"][ri]
        alpha_out = np.full((d, n), -1, dtype=np.int64)
        alpha_in = np.full((d, n), -1, dtype=np.int64)
        alpha_out[labels, tails] = heads
        alpha_in[labels, heads] = tails
        g2_perms = force_edges(g.perms, g.inv, zip(labels, tails, heads))
        alpha_installed += int(np.all(g2_perms[labels, tails] == heads))
        for grp2 in cands.groups:
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
