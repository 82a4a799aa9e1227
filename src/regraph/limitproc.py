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
from .errors import InvalidInputError, check_bytes
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

# bytes per expected atom at a call's peak; tracemalloc measured at most 38
# beyond the cell and table terms of limit_bytes
ATOM_BYTES = 48


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


def _index_dtype(size: int) -> type:
    """The narrower signed integer type that holds indices below size."""
    return np.int32 if size <= 2**31 else np.int64


def limit_bytes(model: LimitModel, replicas: int, grid_size: int, T: float,
                stationary_init: bool) -> float:
    """Bytes simulate_limit holds at its peak, estimated before any draw.

    The int64 counts and the flat cell indices gathered for them take at most
    8 bytes each per (replica, grid point, class) cell in expectation (no more
    atoms are alive at a time than the stationary mean sum of 1/h over the
    classes), a Poisson draw table's int64 draws and their int32 cell index
    12 bytes per (replica, class), and every expected atom at most ATOM_BYTES.
    """
    ncls = len(model.classes)
    expected_atoms = replicas * (
        (model.stationary_means.sum() if stationary_init else 0.0)
        + model.immigration_rates.sum() * T
    )
    return (16.0 * replicas * grid_size * ncls + 12.0 * replicas * ncls
            + ATOM_BYTES * expected_atoms)


def simulate_limit(
    d: int,
    K: int,
    T: float,
    grid,
    stationary_init: bool,
    rng: np.random.Generator,
    replicas: int = 1,
) -> tuple[np.ndarray, LimitModel]:
    """Exact simulation of the atom process on a time grid.

    Returns (counts, model) with counts of shape
    (replicas, len(grid), number of classes): counts[b, g, ci] is the number
    of class-ci atoms alive at grid time g in replica b.  Atoms never
    interact, so every atom is advanced independently with exact exponential
    holding times; no discretization is involved.  The bytes of limit_bytes
    are checked against ``errors.BYTE_CAP`` before anything is drawn.
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
    check_bytes(limit_bytes(model, replicas, grid.size, T, stationary_init), "simulate_limit")

    def atoms(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # atom (replica, class) pairs in row-major order of the draws
        cell = np.repeat(np.arange(draws.size, dtype=_index_dtype(draws.size)), draws.ravel())
        return np.divmod(cell, ncls)

    reps: list[np.ndarray] = []
    clss: list[np.ndarray] = []
    times: list[np.ndarray] = []
    if stationary_init:
        rep0, cls0 = atoms(rng.poisson(model.stationary_means, size=(replicas, ncls)))
        reps.append(rep0)
        clss.append(cls0)
        times.append(np.zeros(rep0.size))
    if T > 0:
        rep0, cls0 = atoms(rng.poisson(model.immigration_rates * T, size=(replicas, ncls)))
        reps.append(rep0)
        clss.append(cls0)
        times.append(rng.uniform(0.0, T, rep0.size))
    rep = np.concatenate(reps) if reps else np.zeros(0, dtype=np.int32)
    cls = np.concatenate(clss) if clss else np.zeros(0, dtype=np.int32)
    t = np.concatenate(times) if times else np.zeros(0)
    del reps, clss, times
    # each atom carries the index of the first grid point at or after its time
    g0 = np.searchsorted(grid, t).astype(np.min_scalar_type(grid.size))

    transitions = model.transitions.astype(cls.dtype)
    cell_t = _index_dtype(replicas * grid.size * ncls)
    cells: list[np.ndarray] = []
    while rep.size:
        lens = model.lengths[cls]
        step = rng.standard_exponential(rep.size)
        step /= lens
        t += step
        del step
        g1 = np.searchsorted(grid, t).astype(g0.dtype)
        # the atom is alive, in its class, at the grid points g0 <= g < g1
        hit = np.flatnonzero(g1 > g0)
        cell = rep[hit].astype(cell_t)
        cell *= grid.size
        cell += g0[hit]
        cell *= ncls
        cell += cls[hit]
        left = g1[hit]
        left -= g0[hit]
        while cell.size:
            cells.append(cell)
            more = np.flatnonzero(left > 1)
            cell = cell[more] + ncls
            left = left[more] - 1
        del hit
        cls = transitions[cls, rng.integers(0, lens)]
        del lens
        keep = np.flatnonzero((t < T) & (cls >= 0))
        rep, cls, t, g0 = rep[keep], cls[keep], t[keep], g1[keep]
    # bincount counts in intp; casting while concatenating saves it a copy
    flat = np.concatenate(cells, dtype=np.intp) if cells else np.zeros(0, dtype=np.intp)
    del cells
    counts = np.bincount(flat, minlength=replicas * grid.size * ncls)
    return counts.reshape(replicas, grid.size, ncls), model


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
