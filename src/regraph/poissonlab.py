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
    PAIRING_BLOCK_BYTES,
    CycleSpec,
    force_edges,
    pairing_neighbors,
    sample_permutation_model,
    sample_uniform_pairings,
    simple_count_bytes,
    simple_cycle_counts,
)


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


def mean_cycle_count(model: str, d: int, r: int) -> float:
    """The limit mean number of cycles of length <= r, the target means
    summed; on the permutation model it bounds the mean at every n.  Past
    length 128 a mean is over 2^128/256 unless it is at most 1/k (d = 1, or a
    uniform d = 2), and those sum to less than ln r."""
    mean = float(sum(poisson_targets(model, d, min(r, 128)).by_length))
    if r <= 128:
        return mean
    return mean + math.log(r) if d == 1 or (model == "uniform" and d == 2) else math.inf


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


# permutation-model graphs drawn from one stream: the chunk size decides which
# stream each graph reads, so it is part of the output, not a tuning knob
PERM_CHUNK = 256


def cycle_sample_bytes(model: str, n: int, d: int, r: int, samples: int) -> int:
    """Peak bytes of one n of ``tv_convergence_experiment``: its
    ``sample_cycle_counts`` call, then the empirical pmf of the counts.  A
    uniform-model call holds ``uniform_sample_bytes`` whole, beside an attempt
    block under ``graphs.PAIRING_BLOCK_BYTES``.  A permutation-model call
    holds its int64 (samples, r) counts, a chunk's float64 draw beside its
    int64 argsort and the last chunk's permutations, and one graph's census
    whole, ``walks.census_graph_bytes``.  Both add a path or position chunk
    under ``walks.CENSUS_CHUNK_BYTES``.  The pmf is charged 256 + 64 r bytes
    a sample, for when every row is its own key (np.unique's copies, a tuple
    key, its mass and a dict slot; tracemalloc read 263-600 bytes a sample at
    r = 1..7)."""
    if model == "uniform":
        held = uniform_sample_bytes(n, d, r, samples) + PAIRING_BLOCK_BYTES
    else:
        held = (8 * samples * r + 24 * min(PERM_CHUNK, samples) * d * n
                + walks.census_graph_bytes(d, n))
    return held + walks.CENSUS_CHUNK_BYTES + samples * (256 + 64 * r)


def sample_cycle_counts(model: str, n: int, d: int, r: int, samples: int,
                        seed: int) -> np.ndarray:
    """Cycle counts (C_1..C_r) for ``samples`` independent graphs.

    Chunk i of the permutation model, ``PERM_CHUNK`` graphs, is seeded by
    (seed, n, i), independent of how work is scheduled, so results depend
    only on (seed, n, d, r) and the chunk size: chunk 0 reads a prefix of the
    same stream whatever its size, later chunks do not.  The uniform model
    draws all its graphs from one stream seeded (seed, n, 1), the graphs
    ``sample_uniform_model`` would draw from it one by one, and counts them
    in one batch.
    """
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    if model not in ("permutation", "uniform"):
        raise InvalidInputError(f"unknown model {model!r}")
    if model == "uniform" and samples > UNIFORM_SAMPLE_CAP:
        raise ResourceLimitError(f"uniform-model sampling capped at {UNIFORM_SAMPLE_CAP} graphs")
    check_bytes(cycle_sample_bytes(model, n, d, r, samples),
                f"cycle counts of {samples} {model} graphs with n={n}")
    if model == "uniform":
        # the stream is this call's own, so the sampler may draw past its last graph
        rng = np.random.default_rng([seed, n, 1])
        pairs = sample_uniform_pairings(n, d, samples, rng)
        return simple_cycle_counts(pairing_neighbors(pairs, n), r)
    out = np.zeros((samples, r), dtype=np.int64)
    chunk = PERM_CHUNK
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
        # the counts go once their pmf is made, and the pmf before the next n
        emp = empirical_pmf(sample_cycle_counts(model, n, d, r, samples, seed))
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
        del emp
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


def _trial_bytes(n: int, d: int, r: int) -> int:
    """Bytes one trial adds to a block of ``coupling_monotonicity_report``:
    the census of its two graphs (``walks.census_vertex_bytes`` a vertex),
    their int64 permutations and the coupled graph's int64 images, the int32
    tables of alpha's out and in edges, and alpha's int64 edge rows."""
    return n * (2 * walks.census_vertex_bytes(d, r) + 32 * d) + 32 * r


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
    directions), all with its directed labelled edges.  Both graphs of a
    block of trials are censused at once by ``walks.cycle_walks``, which
    meets a cycle of a class with period h once for each of the h
    representations that read the class representative, so each hit stands
    for 2k/h candidates.  Alpha is drawn, as its representation, uniformly
    from the candidates of a length drawn with weight proportional to the
    number of cycles of that length.  Trials are drawn and checked a block
    at a time, each block under ``walks.CENSUS_CHUNK_BYTES``.
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
    # a hit of a class's census walk stands for 2k/h candidates
    orbit_sizes = np.array([wc.orbit_size for wc in classes])
    rng = np.random.default_rng([seed, n, d, r])
    minus_violations = 0
    plus_violations = 0
    alpha_installed = 0
    block = max(1, walks.CENSUS_CHUNK_BYTES // _trial_bytes(n, d, r))
    for first in range(0, trials, block):
        b = min(block, trials - first)
        # vertex x of trial t is t n + x in both of its graphs; the census
        # numbers the sampled graphs first, so a census vertex below b n is
        # in a sampled graph and is v mod b n in its trial's numbering
        perms = np.empty((2 * b, d, n), dtype=np.int64)
        # (trial, label, tail, head) of every alpha edge, stored as each trial
        # is drawn, so no block's worth of small tuples is held at once
        alpha_edges = np.empty((b * r, 4), dtype=np.int64)
        m = 0
        for t in range(b):
            g = sample_permutation_model(n, d, rng)
            k = int(rng.choice(r, p=weights)) + 1
            ws = words_by_length[k - 1]
            ri = int(rng.integers(sizes[k - 1]))
            alpha = CycleSpec(_nth_arrangement(n, k, ri // len(ws)), ws[ri % len(ws)])
            steps = alpha.labeled_steps()
            perms[t] = g.perms
            perms[b + t] = force_edges(g.perms, g.inv, steps)
            alpha_edges[m : m + k, 0] = t
            alpha_edges[m : m + k, 1:] = steps
            m += k
        trial, labels, tails, heads = alpha_edges[:m].T
        # alpha is installed when its coupled graph has every edge of alpha
        missed = np.bincount(trial[perms[b + trial, labels, tails] != heads], minlength=b)
        alpha_installed += int(np.count_nonzero(missed == 0))
        out_edge = np.full((d, b * n), -1, dtype=np.int32)
        in_edge = np.full((d, b * n), -1, dtype=np.int32)
        out_edge[labels, trial * n + tails] = trial * n + heads
        in_edge[labels, trial * n + heads] = trial * n + tails
        image = (perms[b:] + n * np.arange(b)[:, None, None]).transpose(1, 0, 2).reshape(d, b * n)
        for ci, letters, trail in walks.cycle_walks(perms, r):
            labels = letters >> 1
            after = np.roll(trail, -1, axis=0)
            inverted = (letters & 1).astype(bool)
            tails = np.where(inverted, after, trail) % (b * n)
            heads = np.where(inverted, trail, after) % (b * n)
            outs, ins = out_edge[labels, tails], in_edge[labels, heads]
            conflict = (((outs >= 0) & (outs != heads)) | ((ins >= 0) & (ins != tails))).any(axis=0)
            in_g = trail[0] < b * n
            # a cycle whose edges all are alpha's is alpha
            is_alpha = (outs == heads).all(axis=0)
            kept = (image[labels, tails] == heads).all(axis=0)
            per_hit = orbit_sizes[ci]
            minus_violations += int(per_hit[conflict & ~in_g].sum())
            plus_violations += int(per_hit[in_g & ~(conflict | is_alpha | kept)].sum())
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
