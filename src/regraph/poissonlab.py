"""Poisson limits of short cycle counts and total-variation experiments.

In the permutation model the joint law of the cycle counts (C_1, ..., C_r)
converges to independent Poissons whose mean at length k is the number of
reduced words of length k divided by 2k; word classes individually have
Poisson(1/h) limits.  In the uniform model only lengths >= 3 appear and the
mean is (d-1)^k / 2k.  This module computes those targets exactly, samples
cycle counts at scale, and computes the exact total-variation distance between
the empirical law and the product Poisson target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import walks, words
from .errors import InvalidInputError, ResourceLimitError, check_bytes
from .graphs import (
    CycleSpec,
    PermGraph,
    force_edges,
    pairing_neighbors,
    sample_permutation_model,
    sample_uniform_pairings,
    simple_count_bytes,
    simple_cycle_counts,
)
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
# total variation to the product Poisson target


def empirical_pmf(samples: np.ndarray) -> dict[tuple[int, ...], float]:
    """Empirical distribution of integer count vectors, rows are samples."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise InvalidInputError("samples must be a 2-d array")
    vals, counts = np.unique(samples, axis=0, return_counts=True)
    n = samples.shape[0]
    return {tuple(v): c / n for v, c in zip(vals.tolist(), counts.tolist())}


def tv_distance(p: dict[tuple[int, ...], float], means: Sequence) -> float:
    """Exact total variation between the pmf ``p`` and independent
    Poisson(means).

    The target's mass off the support of p is 1 - q(support), so q is needed
    only at p's keys: TV is half of 1 plus, for each key k, |p_k - q_k| - q_k,
    summed exactly by one ``math.fsum``.  Each q_k is a product of Poisson
    masses taken in log space, so no mean is too large; a zero mean is the
    point mass at 0.
    """
    lams = [float(m) for m in means]
    if any(lam < 0 for lam in lams):
        raise InvalidInputError("Poisson means must be nonnegative")
    logs = [math.log(lam) if lam > 0 else 0.0 for lam in lams]
    terms = [1.0]
    for k, pk in p.items():
        log_q = 0.0
        for x, lam, log_lam in zip(k, lams, logs, strict=True):
            if lam > 0:
                log_q += x * log_lam - lam - math.lgamma(x + 1)
            elif x > 0:
                log_q = -math.inf
        qk = math.exp(log_q)
        terms += (abs(pk - qk), -qk)
    return 0.5 * math.fsum(terms)


# ---------------------------------------------------------------------------
# vectorized cycle-count sampling

# most graphs a uniform-model run samples: their pairing-model attempts are
# drawn and rejected a block at a time, and their cycles counted by one
# batched path extension, but every accepted pairing is held until it is counted
UNIFORM_SAMPLE_CAP = 10**4


def uniform_sample_bytes(n: int, d: int, r: int, samples: int) -> int:
    """Bytes a uniform-model ``sample_cycle_counts`` call holds whole: the
    int64 pairings and the neighbour table made from them (8 bytes a stub
    each), then what ``simple_cycle_counts`` holds; the attempt blocks stay
    under ``graphs.PAIRING_BLOCK_BYTES`` and the path chunks under
    ``walks.CENSUS_CHUNK_BYTES``."""
    return 16 * samples * n * d + simple_count_bytes(samples, n, d, r)


def sample_cycle_counts(
    model: str,
    n: int,
    d: int,
    r: int,
    samples: int,
    seed: int,
    chunk: int = 256,
) -> np.ndarray:
    """Cycle counts (C_1..C_r) for ``samples`` independent graphs.

    Chunk i of the permutation model is seeded by (seed, n, i), independent
    of how work is scheduled, so results depend only on (seed, n, d, r) and
    ``chunk``: chunk 0 reads a prefix of the same stream whatever its size,
    later chunks do not.  The uniform model draws all its graphs from one
    stream seeded (seed, n, 1), the graphs ``sample_uniform_model`` would
    draw from it one by one, and counts them in one batch.
    """
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    if model == "uniform":
        if samples > UNIFORM_SAMPLE_CAP:
            raise ResourceLimitError(
                f"uniform-model sampling capped at {UNIFORM_SAMPLE_CAP} graphs"
            )
        check_bytes(uniform_sample_bytes(n, d, r, samples),
                    f"cycle counts of {samples} uniform graphs with n={n}")
        # the stream is this call's own, so the sampler may draw past its last graph
        rng = np.random.default_rng([seed, n, 1])
        pairs = sample_uniform_pairings(n, d, samples, rng)
        return simple_cycle_counts(pairing_neighbors(pairs, n), r)
    if model != "permutation":
        raise InvalidInputError(f"unknown model {model!r}")
    out = np.zeros((samples, r), dtype=np.int64)
    for start in range(0, samples, chunk):
        idx = start // chunk
        rng = np.random.default_rng([seed, n, idx])
        b = min(chunk, samples - start)
        perms = np.argsort(rng.random((b, d, n)), axis=-1)
        cc, classes = walks.batch_class_counts(perms, r)
        out[start : start + b] = words.counts_by_length(cc, classes, r)
    return out


def tv_convergence_experiment(
    model: str,
    d: int,
    r: int,
    n_list: Sequence[int],
    samples: int,
    seed: int,
) -> list[dict]:
    """Empirical TV distance to the product-Poisson target for each n."""
    target = poisson_targets(model, d, r)
    rows = []
    for n in n_list:
        counts = sample_cycle_counts(model, n, d, r, samples, seed)
        emp = empirical_pmf(counts)
        tv = tv_distance(emp, target.by_length)
        rows.append(
            {
                "model": model,
                "d": d,
                "r": r,
                "n": int(n),
                "samples": int(samples),
                "tv": float(tv),
                "tv_bias_bound": len(emp) / (2 * samples),
                "rate_shape": rate_shape(model, d, r, n),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# coupling monotonicity at scale


def _nth_arrangement(n: int, k: int, i: int) -> tuple[int, ...]:
    """The i-th ordered k-tuple of distinct elements of range(n), in the
    lexicographic order of ``itertools.permutations``."""
    pool = list(range(n))
    out = []
    for j in range(k):
        q, i = divmod(i, math.perm(n - 1 - j, k - 1 - j))
        out.append(pool.pop(q))
    return tuple(out)


def coupling_monotonicity_report(
    n: int, d: int, r: int, trials: int, seed: int
) -> dict:
    """Force random cycles into random graphs and verify the coupling is
    monotone on the implied partition of all candidate cycles.

    A candidate is a representation of a cycle of length k <= r: k distinct
    vertices in order and a cyclically reduced word of length k.  Candidates
    sharing a partial edge with the forced cycle must be absent afterwards;
    all others may only appear.  Violations are counted per kind, over every
    candidate of every trial.

    A minus violation is present in the coupled graph and a plus violation in
    the sampled one, so only cycles of those two graphs can violate.  A
    cycle of length k has exactly 2k representations (k rotations, two
    directions), all with its directed labelled edges, so each cycle found by
    one census of each graph stands for 2k candidates.  Alpha is drawn, as
    its representation, uniformly from the candidates of a length drawn with
    weight proportional to the number of cycles of that length.
    """
    classes = words.classes_upto(d, r)
    words_by_length = [
        sorted(w for wc in classes if wc.length == k for w in wc.orbit())
        for k in range(1, r + 1)
    ]
    sizes = [math.perm(n, k) * len(ws) for k, ws in enumerate(words_by_length, 1)]
    # weight lengths by the number of cycles [n]_k * a(d,k) / 2k
    weights = [size / (2 * k) for k, size in enumerate(sizes, 1)]
    weights = np.array(weights) / sum(weights)
    rng = np.random.default_rng([seed, n, d, r])
    minus_violations = 0
    plus_violations = 0
    alpha_installed = 0
    for _ in range(trials):
        g = sample_permutation_model(n, d, rng)
        k = int(rng.choice(r, p=weights)) + 1
        ws = words_by_length[k - 1]
        ri = int(rng.integers(sizes[k - 1]))
        alpha = CycleSpec(_nth_arrangement(n, k, ri // len(ws)), ws[ri % len(ws)])
        steps = alpha.labeled_steps()
        out_map = {(l, a): b for l, a, b in steps}
        in_map = {(l, b): a for l, a, b in steps}
        g2 = PermGraph(force_edges(g.perms, g.inv, steps))
        g2_perms = g2.perms.tolist()
        alpha_installed += all(g2_perms[l][a] == b for l, a, b in steps)

        def conflicts(c_steps: list) -> bool:
            return any(
                out_map.get((l, a), b) != b or in_map.get((l, b), a) != a
                for l, a, b in c_steps
            )

        for c in walks.perm_graph_cycles(g2_perms, g2.inv.tolist(), r):
            if conflicts(c.labeled_steps()):
                minus_violations += 2 * c.length
        for c in walks.perm_graph_cycles(g.perms.tolist(), g.inv.tolist(), r):
            c_steps = c.labeled_steps()
            # a cycle whose edges all are alpha's is alpha
            is_alpha = all(out_map.get((l, a)) == b for l, a, b in c_steps)
            kept = all(g2_perms[l][a] == b for l, a, b in c_steps)
            if not (conflicts(c_steps) or is_alpha or kept):
                plus_violations += 2 * c.length
    return {
        "n": n,
        "d": d,
        "r": r,
        "trials": trials,
        "representations_checked": trials * sum(sizes),
        "alpha_installed": alpha_installed,
        "minus_violations": minus_violations,
        "plus_violations": plus_violations,
    }
