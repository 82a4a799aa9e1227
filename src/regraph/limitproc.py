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

import ctypes
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

# atoms (or cells of a Poisson table) per pass of simulate_limit's loops; a
# pass's temporaries take at most CHUNK_ATOM_BYTES for each (tracemalloc
# measured 32), 3 MiB in all
CHUNK_ATOM_BYTES = 48
ATOM_CHUNK = 3 * 2**20 // CHUNK_ATOM_BYTES
# numpy's own buffers in a call of any size (tracemalloc: an array-bounded
# Generator.integers takes 15 KB, a Poisson table 7 KB)
CALL_BYTES = 2**15
# np.add.at's buffer as it counts the cells: 8 bytes for each of up to 8,192
# indices, and its iterator (tracemalloc: 70,840 bytes at any length past 8,192)
ADD_AT_BYTES = 72 * 2**10
# standard deviations of the cell count charged over its mean
CELL_SDS = 4
# glibc's malloc_trim, or None where the C library has none.  glibc keeps
# freed heap blocks resident, and whether a later block of the counts' size
# fits in the freed atom state depends on the heap's layout, so without a trim
# a process's peak resident set moves by one counts array from run to run.
# A state under TRIM_BYTES is left to the heap to reuse: the CLI's
# 1,024-replica limit-sim chunks hold under 1 MB each, and trimming after
# every chunk would trade that reuse for page faults.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None
TRIM_BYTES = 2**24


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


def _atom_dtypes(replicas: int, ncls: int, grid_size: int) -> tuple[np.dtype, ...]:
    """The types of an atom's replica, class (or -1) and next grid point, and
    of a flat (replica, grid point, class) cell index."""
    return (np.dtype(_index_dtype(replicas)), np.min_scalar_type(-ncls),
            np.min_scalar_type(grid_size), np.dtype(_index_dtype(replicas * grid_size * ncls)))


def limit_bytes(model: LimitModel, replicas: int, grid_size: int, T: float,
                stationary_init: bool) -> float:
    """Bytes simulate_limit holds at its peak, estimated before any draw.

    A call holds in turn its int64 Poisson tables (8 bytes per (replica,
    class) each) beside the atoms' replicas and classes placed from them;
    the whole atom state (those, a float64 time and a grid index, in the
    types of _atom_dtypes, per expected atom) beside the cells gathered; and
    the cells beside the int64 counts and np.add.at's buffer.  A cell
    takes its index type, a count 8 bytes, per (replica, grid point, class)
    slot, which bounds the mean: no more atoms of a class are alive at a
    time than its stationary mean 1/h <= 1.  The atoms alive at one grid
    time are Poisson, with variance at most m = sum 1/h, so over R
    independent replicas and G grid points the cell count has a standard
    deviation of at most G sqrt(R m), and CELL_SDS of those are charged on
    top of the slots.  A pass over at most ATOM_CHUNK atoms, or cells of a
    table, adds CHUNK_ATOM_BYTES of temporaries for each, and numpy
    CALL_BYTES of its own.
    """
    ncls = len(model.classes)
    rep_t, cls_t, grid_t, cell_t = _atom_dtypes(replicas, ncls, grid_size)
    atoms = replicas * (
        (model.stationary_means.sum() if stationary_init else 0.0)
        + model.immigration_rates.sum() * T
    )
    tables = 8.0 * replicas * ncls * (int(stationary_init) + int(T > 0))
    placed = atoms * (rep_t.itemsize + cls_t.itemsize)
    state = placed + atoms * (8 + grid_t.itemsize)
    slots = replicas * grid_size * ncls
    spread = CELL_SDS * grid_size * math.sqrt(replicas * model.stationary_means.sum())
    cells = cell_t.itemsize * (slots + spread)
    return (max(tables + placed, state + cells, cells + 8.0 * slots + ADD_AT_BYTES)
            + CHUNK_ATOM_BYTES * min(ATOM_CHUNK, max(atoms, replicas * ncls)) + CALL_BYTES)


def _chunks(n: int):
    """The (start, stop) bounds of n atoms taken ATOM_CHUNK at a time."""
    for a in range(0, n, ATOM_CHUNK):
        yield a, min(a + ATOM_CHUNK, n)


def _place_atoms(table: np.ndarray, start: int, rep: np.ndarray, cls: np.ndarray) -> None:
    """Write one atom per unit of the (replicas, classes) Poisson table, in
    row-major order, as replica and class from rep[start] and cls[start] on.
    The table is summed in place; a pass spans at most ATOM_CHUNK atoms and
    ATOM_CHUNK table cells."""
    ncls = table.shape[1]
    cum = table.ravel()
    np.cumsum(cum, out=cum)
    total = int(cum[-1]) if cum.size else 0
    a0 = 0
    while a0 < total:
        c0 = int(np.searchsorted(cum, a0, side="right"))  # the cell of atom a0
        c1 = min(c0 + ATOM_CHUNK, cum.size)
        a1 = min(a0 + ATOM_CHUNK, int(cum[c1 - 1]))
        cell = np.repeat(np.arange(c0, c1), np.diff(np.clip(cum[c0:c1], a0, a1), prepend=a0))
        rep[start + a0:start + a1], cls[start + a0:start + a1] = np.divmod(cell, ncls)
        a0 = a1


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
    rep_t, cls_t, grid_t, cell_t = _atom_dtypes(replicas, ncls, grid.size)

    # the stationary atoms, then the immigrants, each table in row-major order
    stationary = immigrants = np.zeros((0, ncls), dtype=np.int64)
    if stationary_init:
        stationary = rng.poisson(model.stationary_means, size=(replicas, ncls))
    if T > 0:
        immigrants = rng.poisson(model.immigration_rates * T, size=(replicas, ncls))
    n0 = int(stationary.sum())
    n = n0 + int(immigrants.sum())
    rep, cls = np.empty(n, dtype=rep_t), np.empty(n, dtype=cls_t)
    _place_atoms(stationary, 0, rep, cls)
    _place_atoms(immigrants, n0, rep, cls)
    del stationary, immigrants
    # each atom carries its time and the index of the first grid point at or
    # after it: 0 for a stationary atom, born at 0
    t, g = np.zeros(n), np.zeros(n, dtype=grid_t)
    state_bytes = rep.nbytes + cls.nbytes + t.nbytes + g.nbytes
    for a, b in _chunks(n - n0):
        t[n0 + a:n0 + b] = rng.uniform(0.0, T, b - a)
        g[n0 + a:n0 + b] = np.searchsorted(grid, t[n0 + a:n0 + b])

    transitions = model.transitions.astype(cls_t)
    cells: list[np.ndarray] = []
    while n:
        # every holding time of the round is drawn before any doubled position
        for a, b in _chunks(n):
            step = rng.standard_exponential(b - a)
            step /= model.lengths[cls[a:b]]
            t[a:b] += step
            del step
            g0 = g[a:b]
            g1 = np.searchsorted(grid, t[a:b]).astype(grid_t)
            # the atom is alive, in its class, at the grid points g0 <= g < g1
            hit = np.flatnonzero(g1 > g0)
            cell = rep[a:b][hit].astype(cell_t)
            cell *= grid.size
            cell += g0[hit]
            cell *= ncls
            cell += cls[a:b][hit]
            left = g1[hit]
            left -= g0[hit]
            # one array of the chunk's cells, a grid offset at a time
            out = np.empty(int(left.sum(dtype=np.int64)), dtype=cell_t)
            pos = 0
            while cell.size:
                out[pos:pos + cell.size] = cell
                pos += cell.size
                more = np.flatnonzero(left > 1)
                cell = cell[more] + ncls
                left = left[more] - 1
            cells.append(out)
            g0[:] = g1
        # the survivors move to the front, in order, a chunk at a time
        kept = 0
        for a, b in _chunks(n):
            nxt = transitions[cls[a:b], rng.integers(0, model.lengths[cls[a:b]])]
            keep = np.flatnonzero((t[a:b] < T) & (nxt >= 0))
            end = kept + keep.size
            rep[kept:end], cls[kept:end] = rep[a:b][keep], nxt[keep]
            t[kept:end], g[kept:end] = t[a:b][keep], g[a:b][keep]
            kept = end
        n = kept
    del rep, cls, t, g
    if _malloc_trim is not None and state_bytes >= TRIM_BYTES:
        # the freed atom state leaves the resident set
        _malloc_trim(0)
    counts = np.zeros(replicas * grid.size * ncls, dtype=np.int64)
    while cells:
        np.add.at(counts, cells.pop(), 1)
    return counts.reshape(replicas, grid.size, ncls), model


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
