"""Test oracles that several test modules share: direct, slow definitions
that no ``regraph`` code path needs."""

import itertools
import math

import numpy as np

from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.graphs import CycleSpec, PermGraph, SimpleGraph
from regraph.walks import CycleCensus, cnbw_via_nb_matrix, enumerate_cycles
from regraph.words import (
    Word,
    doubled_letter_count,
    format_word,
    is_cyclically_reduced,
    word_period_quotient,
)


def contained_in(cycle: CycleSpec, g) -> bool:
    """True when every edge of ``cycle`` is an edge of g: in the permutation
    model each labelled step, in the uniform model each undirected edge."""
    if isinstance(g, PermGraph):
        if cycle.word is None:
            raise InvalidInputError("permutation-model containment needs a word")
        return all(g.perms[l, a] == b for l, a, b in cycle.directed_labeled_edges())
    if isinstance(g, SimpleGraph):
        if cycle.length < 3:
            return False
        return all(e in g.edges for e in cycle.undirected_edges())
    raise InvalidInputError(f"unsupported graph type {type(g)!r}")


def enumerate_labeled_regular_graphs(n: int, d: int, budget: int = 10**7) -> list[SimpleGraph]:
    """All labeled simple d-regular graphs on n vertices (exhaustive search)."""
    all_edges = list(itertools.combinations(range(n), 2))
    m = n * d // 2
    if (n * d) % 2:
        raise InvalidInputError(f"n*d must be even, got n={n}, d={d}")
    size = math.comb(len(all_edges), m)
    if size > budget:
        raise ResourceLimitError(f"search space {size} exceeds budget {budget}")
    out = []
    for combo in itertools.combinations(all_edges, m):
        deg = [0] * n
        ok = True
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > d or deg[v] > d:
                ok = False
                break
        if ok and all(x == d for x in deg):
            out.append(SimpleGraph(n, d, combo))
    return out


def cnbw_from_cycles(census: CycleCensus, r: int) -> np.ndarray:
    """Walk counts implied by the cycle census alone: each cycle of length j
    dividing k supports 2j closed walks of length k."""
    out = np.zeros(r, dtype=np.int64)
    for k in range(1, r + 1):
        out[k - 1] = sum(2 * j * census.count(j) for j in range(1, k + 1) if k % j == 0)
    return out


def bad_walk_probe(g, r: int) -> np.ndarray:
    """CNBW counts minus the cycle-supported walks; entrywise nonnegative,
    and zero exactly when short cycles are vertex-disjoint."""
    census = enumerate_cycles(g, r)
    diff = cnbw_via_nb_matrix(g, r) - cnbw_from_cycles(census, r)
    if diff.min() < 0:
        raise InvalidInputError("cycle census exceeds walk count; inconsistent input")
    return diff


def word_stats(word: Word) -> tuple[int, int, int]:
    """Return (length, h, c) for a cyclically reduced word."""
    if not is_cyclically_reduced(word):
        raise InvalidInputError(f"word {format_word(word)!r} is not cyclically reduced")
    return (len(word), word_period_quotient(word), doubled_letter_count(word))
