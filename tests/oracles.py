"""Test oracles that several test modules share: direct, slow definitions
that no ``regraph`` code path needs."""

import itertools
import math
from fractions import Fraction

import numpy as np

from regraph import words
from regraph.errors import InvalidInputError, NumericError, ResourceLimitError
from regraph.graphs import (
    CycleSpec,
    Edge,
    PermGraph,
    SimpleGraph,
    _edge,
    force_edges,
    simple_regular_exists,
)
from regraph.growth import PermTower
from regraph.spectra import PolySeries, Spectrum, _correction, linear_statistic
from regraph.walks import CycleCensus, cnbw_via_nb_matrix, enumerate_cycles
from regraph.words import (
    Word,
    WordClass,
    canonical_form,
    canonicalize,
    doubled_letter_count,
    format_word,
    inverted_reversal,
    is_cyclically_reduced,
    letter_index,
    letter_inverse,
    word_period_quotient,
)


def undirected_edges(cycle: CycleSpec) -> frozenset[Edge]:
    """The cycle's edges as undirected (smaller end, larger end) pairs."""
    vs = cycle.vertices
    return frozenset(_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def canonical(cycle: CycleSpec) -> CycleSpec:
    """Representative that is minimal over rotations and reversal."""
    k = cycle.length
    reps = []
    vs, w = cycle.vertices, cycle.word
    rev_vs = (vs[0],) + tuple(reversed(vs[1:]))
    rev_w = inverted_reversal(w) if w is not None else None
    for vv, ww in ((vs, w), (rev_vs, rev_w)):
        for r in range(k):
            rv = vv[r:] + vv[:r]
            rw = ww[r:] + ww[:r] if ww is not None else None
            reps.append((rv, rw))
    best = min(reps, key=lambda t: (t[0], t[1] if t[1] is not None else ()))
    return CycleSpec(best[0], best[1])


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
        return all(e in g.edges for e in undirected_edges(cycle))
    raise InvalidInputError(f"unsupported graph type {type(g)!r}")


def pairing_model_graph(
    n: int, d: int, rng: np.random.Generator, max_retries: int = 10**5
) -> SimpleGraph:
    """Uniform simple d-regular graph by rejection from the pairing model,
    one ``rng.permutation`` and one Python pass per attempt: an attempt pairs
    stub 2i with stub 2i + 1 and is accepted when it makes no loop and no
    repeated edge."""
    if not simple_regular_exists(n, d):
        raise InvalidInputError(f"no simple d-regular graph with n={n}, d={d}")
    half = n * d // 2
    for _ in range(max_retries):
        ends = (rng.permutation(n * d) // d).tolist()
        pairs: set[Edge] = set()
        for u, v in zip(ends[0::2], ends[1::2]):
            if u == v:
                break
            pairs.add((u, v) if u < v else (v, u))
        else:
            if len(pairs) == half:
                return SimpleGraph(n, d, pairs)
    raise ResourceLimitError(
        f"pairing-model rejection failed {max_retries} times for n={n}, d={d}"
    )


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


def brute_force_classes(d: int, k: int) -> tuple[WordClass, ...]:
    """Word classes of length k by canonicalizing every cyclically reduced
    word, in ascending order of canonical word."""
    canon: set[Word] = set()
    word = [0] * k

    def extend(pos: int) -> None:
        if pos == k:
            if k == 1 or word[0] != letter_inverse(word[k - 1]):
                canon.add(canonical_form(tuple(word)))
            return
        for c in range(2 * d):
            if pos == 0 or c != letter_inverse(word[pos - 1]):
                word[pos] = c
                extend(pos + 1)

    extend(0)
    return tuple(WordClass(w) for w in sorted(canon))


def size_bias_coupling(g: PermGraph, alpha: CycleSpec) -> PermGraph:
    """Minimal transposition edit of g that forces the cycle ``alpha`` in.

    For every label, each required image is installed by one value swap, in
    the order the cycle traverses those edges.  If alpha is already present
    the graph is returned unchanged.
    """
    if alpha.word is None:
        raise InvalidInputError("coupling needs a permutation-model cycle")
    if max(alpha.vertices) >= g.n:
        raise InvalidInputError("cycle vertices out of range")
    if any(letter_index(c) > g.d for c in alpha.word):
        raise InvalidInputError("cycle word uses labels beyond d")
    return PermGraph(force_edges(g.perms, g.inv, alpha.labeled_steps()))


def seat_row(tower: PermTower, rng: np.random.Generator) -> list[int]:
    """Seats of one new element of ``tower``, uniform on 0..n in each
    permutation, with one ``rng.integers`` draw per permutation."""
    return [int(rng.integers(tower.n + 1)) for _ in range(tower.d)]


def parse_word(text: str) -> Word:
    """Parse a space-separated word such as ``"a A b B"``: the letter of
    generator i (``a`` is 1) is code 2 (i - 1), and its inverse, in upper
    case, code 2 (i - 1) + 1."""
    parts = text.split()
    if not parts:
        raise InvalidInputError("empty word")
    for part in parts:
        if len(part) != 1 or not part.isalpha():
            raise InvalidInputError(f"bad letter {part!r}")
    return tuple(2 * (ord(part.lower()) - ord("a")) + part.isupper() for part in parts)


def halvings(wc: WordClass) -> dict[WordClass, int]:
    """Classes reachable by deleting one letter of a cyclic double-letter
    pair; the multiplicities sum to ``c`` of the class."""
    w = wc.letters
    k = wc.length
    out: dict[WordClass, int] = {}
    for i in range(k):
        if k > 1 and w[i] == w[(i + 1) % k]:
            child = canonicalize(w[:i] + w[i + 1 :])
            out[child] = out.get(child, 0) + 1
    return out


def class_poisson_means(d: int, r: int) -> dict[WordClass, Fraction]:
    """Limiting Poisson mean 1/h for every word class of length <= r."""
    return {wc: Fraction(1, wc.h) for wc in words.classes_upto(d, r)}


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


def cheb_t_poly(k: int, degree: int) -> PolySeries:
    """The Chebyshev polynomial T_k in the walk basis of ``degree``:
    T_k = (P_k - c_k) / 2 for k >= 1, and T_0 = P_0."""
    coef = [0.0] * (k + 1)
    if k == 0:
        coef[0] = 1.0
    else:
        coef[k] = 0.5
        coef[0] = -_correction(degree, k) / 2
    return PolySeries(tuple(coef), degree)


def green_halfplane(z: complex, w: complex) -> float:
    """Green function of the upper half plane with Dirichlet boundary."""
    z = complex(z)
    w = complex(w)
    if z.imag <= 0 or w.imag <= 0:
        raise InvalidInputError("both points need positive imaginary part")
    if z == w:
        raise NumericError("Green function diverges at coincident points")
    return (-math.log(abs(z - w)) + math.log(abs(z - w.conjugate()))) / (2 * math.pi)


def height_pairing(spectrum: Spectrum, d: int, k: int, conditional_mean: float) -> float:
    """Discrete height pairing against the (k-1)-th Chebyshev-U polynomial:
    -(1/k) (tr T_k - conditional mean), where the conditional mean of the
    same centered trace statistic given the vertex count is estimated by the
    caller across runs."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if spectrum.scale != "unit":
        raise InvalidInputError(f"need a unit-scale spectrum, got {spectrum.scale!r}")
    stat = linear_statistic(spectrum, cheb_t_poly(k, spectrum.degree))
    return -(stat - conditional_mean) / k
