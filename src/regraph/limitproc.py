"""The limiting word-indexed cycle process and its closed-form statistics.

The process holds a population of atoms, one per cycle.  Each atom carries a
word class; new atoms of class w immigrate as a Poisson point process at rate
mu(w) = (|w| - c(w)) / h(w), and each letter of an atom's word doubles at rate
one, so a length-j word jumps to a length j+1 word at total rate j.  The
product law with N_w ~ Poi(1/h(w)) is invariant.  Lengths only grow, so atoms
whose word exceeds the truncation level are retired for good.

Marginals of a single atom's length follow a Yule pure-birth process, which
gives closed forms for the count covariances and, through the divisor sum

    2 tr T_k = (2d-1)^{-k/2} sum_{j | k} 2 j N_j(t)   (centered),

for the Chebyshev trace fluctuations, whose large-d limit is an
Ornstein-Uhlenbeck process with covariance (k/2) e^{k(s-t)} per tr T_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import words
from .errors import InvalidInputError, ResourceLimitError
from .words import WordClass


# ---------------------------------------------------------------------------
# closed forms


def yule_pmf(j: int, k: int, tau: float) -> float:
    """P[Yule process from j is at k after time tau]."""
    if j < 1:
        raise InvalidInputError(f"need j >= 1, got {j}")
    if tau < 0:
        raise InvalidInputError(f"need tau >= 0, got {tau}")
    if k < j:
        return 0.0
    return (
        math.comb(k - 1, k - j)
        * math.exp(-j * tau)
        * (1 - math.exp(-tau)) ** (k - j)
    )


def sample_yule(j: int, tau: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate Yule processes from j over time tau (exact exponential jumps)."""
    if j < 1 or samples < 1:
        raise InvalidInputError("need j >= 1 and samples >= 1")
    if tau < 0:
        raise InvalidInputError(f"need tau >= 0, got {tau}")
    state = np.full(samples, j, dtype=np.int64)
    t = rng.exponential(1.0, samples) / state
    active = t < tau
    while np.any(active):
        state[active] += 1
        idx = np.flatnonzero(active)
        t[idx] += rng.exponential(1.0, idx.size) / state[idx]
        active = t < tau
    return state


def expected_alpha(j: int, k: int, s: float, t: float) -> float:
    """Probability that a length-j atom at time s has length k at time t."""
    if s > t:
        raise InvalidInputError(f"need s <= t, got s={s}, t={t}")
    if j > k:
        return 0.0
    return math.comb(k - 1, k - j) * math.exp(j * (s - t)) * (1 - math.exp(s - t)) ** (k - j)


def limit_covariance(d: int, j: int, k: int, s: float, t: float) -> float:
    """Cov(N_j(s), N_k(t)) of the stationary process, s <= t; 0 when j > k."""
    if s > t:
        raise InvalidInputError(f"need s <= t, got s={s}, t={t}")
    if j > k:
        return 0.0
    lam = Fraction(words.count_reduced_words(d, j), 2 * j)
    return float(lam) * expected_alpha(j, k, s, t)


def ou_covariance(i: int, k: int, s: float, t: float) -> float:
    """Large-d covariance of the tr T fluctuations: delta_ik (k/2) e^{k(s-t)}."""
    if s > t:
        raise InvalidInputError(f"need s <= t, got s={s}, t={t}")
    if i != k:
        return 0.0
    return (k / 2) * math.exp(k * (s - t))


def nu_rate(d: int, k: int) -> Fraction:
    """Immigration rate of new cycles when the alphabet grows from d to d+1."""
    if d < 1 or k < 1:
        raise InvalidInputError("need d >= 1 and k >= 1")

    def a(dd: int, kk: int) -> int:
        return words.count_reduced_words(dd, kk)

    out = Fraction(a(d + 1, k) - a(d + 1, k - 1) - a(d, k) + a(d, k - 1), 2)
    if out < 0:  # pragma: no cover - impossible by the counting formula
        raise InvalidInputError("negative rate; invalid d, k")
    return out


def trace_covariance(d: int, k: int, lag: float) -> float:
    """Exact stationary Cov(tr T_k(t), tr T_k(t + lag)) at finite d.

    The doubled series returned by chebyshev_fluctuation_series has four
    times this covariance.
    """
    if lag < 0:
        raise InvalidInputError(f"need lag >= 0, got {lag}")
    divisors = [j for j in range(1, k + 1) if k % j == 0]
    total = 0.0
    for j in divisors:
        for l in divisors:
            if j <= l:
                total += j * l * limit_covariance(d, j, l, 0.0, lag)
    return total / (2 * d - 1) ** k


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class LimitModel:
    """Word classes up to a truncation length, with the doubling transitions.

    ``transitions[ci, p]`` is the class reached by doubling the letter at
    position p of class ci's representative, or -1 when the result exceeds
    the truncation level K.
    """

    d: int
    K: int
    classes: tuple[WordClass, ...]
    lengths: np.ndarray
    stationary_means: np.ndarray
    immigration_rates: np.ndarray
    transitions: np.ndarray


@lru_cache(maxsize=None)
def limit_model(d: int, K: int) -> LimitModel:
    if d < 1 or K < 1:
        raise InvalidInputError("need d >= 1 and K >= 1")
    classes = words.classes_upto(d, K)
    index = {wc: ci for ci, wc in enumerate(classes)}
    lengths = np.array([wc.length for wc in classes], dtype=np.int64)
    stationary = np.array([1.0 / wc.h for wc in classes])
    immigration = np.array([float(wc.mu) for wc in classes])
    transitions = np.full((len(classes), K), -1, dtype=np.int64)
    for ci, wc in enumerate(classes):
        for p in range(wc.length):
            target = words.double_letter(wc, p + 1)
            transitions[ci, p] = index.get(target, -1)
    return LimitModel(
        d=d,
        K=K,
        classes=classes,
        lengths=lengths,
        stationary_means=stationary,
        immigration_rates=immigration,
        transitions=transitions,
    )


def simulate_limit(
    d: int,
    K: int,
    T: float,
    grid,
    stationary_init: bool,
    rng: np.random.Generator,
    replicas: int = 1,
    budget: int = 10**8,
) -> tuple[np.ndarray, LimitModel]:
    """Exact simulation of the atom process on a time grid.

    Returns (counts, model) with counts of shape
    (replicas, len(grid), number of classes): counts[b, g, ci] is the number
    of class-ci atoms alive at grid time g in replica b.  Atoms never
    interact, so every atom is advanced independently with exact exponential
    holding times; no discretization is involved.
    """
    grid = np.asarray(grid, dtype=float)
    if T < 0 or replicas < 1:
        raise InvalidInputError("need T >= 0 and replicas >= 1")
    if grid.ndim != 1 or (grid.size and (grid.min() < 0 or grid.max() > T)):
        raise InvalidInputError("grid must lie within [0, T]")
    if np.any(np.diff(grid) < 0):
        raise InvalidInputError("grid must be nondecreasing")
    model = limit_model(d, K)
    ncls = len(model.classes)
    expected_atoms = replicas * (
        (model.stationary_means.sum() if stationary_init else 0.0)
        + model.immigration_rates.sum() * T
    )
    if expected_atoms > budget:
        raise ResourceLimitError(
            f"about {expected_atoms:.0f} atoms exceed the budget {budget}"
        )

    reps: list[np.ndarray] = []
    clss: list[np.ndarray] = []
    times: list[np.ndarray] = []
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
        n_im = int(counts0.sum())
        reps.append(np.repeat(rr, counts0))
        clss.append(np.repeat(cc, counts0))
        times.append(rng.uniform(0.0, T, n_im))
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
    return counts, model


def counts_by_length(counts: np.ndarray, model: LimitModel) -> np.ndarray:
    """Aggregate per-class counts (..., n_classes) to lengths (..., K)."""
    return words.counts_by_length(counts, model.classes, model.K)


def chebyshev_fluctuation_series(by_length: np.ndarray, d: int, k: int) -> np.ndarray:
    """Centered doubled Chebyshev trace series from per-length counts.

    ``by_length[..., j-1]`` holds N_j; the result is
    (2d-1)^{-k/2} (sum_{j | k} 2 j N_j - sum_{j | k} a(d, j)), whose exact
    stationary covariance is 4 * trace_covariance(d, k, lag).
    """
    by_length = np.asarray(by_length)
    if by_length.shape[-1] < k:
        raise InvalidInputError(
            f"need counts for all divisors of {k}; have lengths up to {by_length.shape[-1]}"
        )
    divisors = [j for j in range(1, k + 1) if k % j == 0]
    acc = np.zeros(by_length.shape[:-1])
    center = 0.0
    for j in divisors:
        acc = acc + 2.0 * j * by_length[..., j - 1]
        center += words.count_reduced_words(d, j)
    return (acc - center) / (2 * d - 1) ** (k / 2)
