"""Cyclically reduced words over a symmetric alphabet and their equivalence classes.

Letters are generator symbols ``pi_1, ..., pi_d`` and their inverses.  A letter
is stored as a small integer code ``2*(i-1) + inv`` where ``i`` is the
generator index (1-based) and ``inv`` is 1 for an inverted letter.  This makes
the inverse a single XOR and puts the letters in the order
``pi_1 < pi_1^-1 < pi_2 < pi_2^-1 < ...`` used for canonical representatives.

Words are tuples of letter codes.  Two words are equivalent when one is a
cyclic rotation of the other or of its inverted reversal; a class is named by
the lexicographically smallest word in the orbit.

Text form: lowercase letters ``a b c ...`` for generators, uppercase for their
inverses, separated by spaces (``"a A b"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import errors
from .errors import InvalidInputError, NumericError, ResourceLimitError

Word = tuple[int, ...]

# ---------------------------------------------------------------------------
# letters


def letter_inverse(code: int) -> int:
    return code ^ 1


def letter_index(code: int) -> int:
    return code // 2 + 1


def letter_is_inverted(code: int) -> bool:
    return bool(code & 1)


def letter_name(code: int) -> str:
    ch = chr(ord("a") + code // 2)
    return ch.upper() if code & 1 else ch


def format_word(word: Word) -> str:
    return " ".join(letter_name(c) for c in word)


# ---------------------------------------------------------------------------
# words


def is_cyclically_reduced(word: Word) -> bool:
    """True when no letter is followed (cyclically) by its inverse."""
    if len(word) == 0:
        raise InvalidInputError("empty word")
    k = len(word)
    if k == 1:
        return True
    return all(word[(i + 1) % k] != letter_inverse(word[i]) for i in range(k))


def inverted_reversal(word: Word) -> Word:
    return tuple(letter_inverse(c) for c in reversed(word))


def canonical_form(word: Word) -> Word:
    """Lexicographically smallest rotation of ``word`` or of its inverted reversal."""
    k = len(word)
    best = word
    for w in (word, inverted_reversal(word)):
        doubled = w + w
        for i in range(k):
            cand = doubled[i : i + k]
            if cand < best:
                best = cand
    return best


def word_period_quotient(word: Word) -> int:
    """Largest m such that the word is a repetition ``u^m`` of a subword."""
    k = len(word)
    for p in range(1, k + 1):
        if k % p:
            continue
        if all(word[i] == word[(i + p) % k] for i in range(k)):
            return k // p
    return 1  # unreachable


def doubled_letter_count(word: Word) -> int:
    """Number of cyclic positions i with letter i equal to letter i+1.

    A single-letter word has none by convention.
    """
    k = len(word)
    if k == 1:
        return 0
    return sum(word[i] == word[(i + 1) % k] for i in range(k))


# ---------------------------------------------------------------------------
# word classes


@dataclass(frozen=True)
class WordClass:
    """An equivalence class of cyclically reduced words.

    ``letters`` is the canonical representative.  ``h`` is the repetition
    order (largest m with the word a power u^m), ``c`` the number of cyclic
    double-letter positions; the orbit of the class has size ``2k/h``.
    """

    letters: Word
    h: int = field(init=False)
    c: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_cyclically_reduced(self.letters):
            raise InvalidInputError(f"word {format_word(self.letters)!r} is not cyclically reduced")
        if self.letters != canonical_form(self.letters):
            raise InvalidInputError(
                f"word {format_word(self.letters)!r} is not a canonical representative"
            )
        object.__setattr__(self, "h", word_period_quotient(self.letters))
        object.__setattr__(self, "c", doubled_letter_count(self.letters))

    @classmethod
    def _proven(cls, letters: Word, h: int) -> WordClass:
        """The class of a word already proven cyclically reduced and
        canonical, with repetition order h: public construction's checks,
        which repeat that proof, are skipped."""
        wc = object.__new__(cls)
        object.__setattr__(wc, "letters", letters)
        object.__setattr__(wc, "h", h)
        object.__setattr__(wc, "c", doubled_letter_count(letters))
        return wc

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def orbit_size(self) -> int:
        return 2 * self.length // self.h

    @property
    def mu(self) -> Fraction:
        """Immigration weight (length - c) / h of the class."""
        return Fraction(self.length - self.c, self.h)

    def orbit(self) -> set[Word]:
        """All words equivalent to this class."""
        k = self.length
        out: set[Word] = set()
        for w in (self.letters, inverted_reversal(self.letters)):
            doubled = w + w
            for i in range(k):
                out.add(doubled[i : i + k])
        return out

    def __str__(self) -> str:
        return format_word(self.letters)


@lru_cache(maxsize=1 << 16)
def canonicalize(word: Word) -> WordClass:
    """The class of a word; memoized, which is safe since WordClass is frozen."""
    if not is_cyclically_reduced(word):
        raise InvalidInputError(f"word {format_word(word)!r} is not cyclically reduced")
    return WordClass(canonical_form(word))


# ---------------------------------------------------------------------------
# counting and enumeration


def count_reduced_words(d: int, k: int) -> int:
    """Number of cyclically reduced words of length k over d generators."""
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got {d}")
    if k < 0:
        raise InvalidInputError(f"need k >= 0, got {k}")
    if k == 0:
        return 0
    if k % 2 == 0:
        return (2 * d - 1) ** k - 1 + 2 * d
    return (2 * d - 1) ** k + 1


@lru_cache(maxsize=None)
def _enumerate_classes_cached(d: int, k: int) -> tuple[WordClass, ...]:
    # one Fredricksen-Kessler-Maiorana necklace pass that never puts a letter
    # after its inverse: necklaces come in ascending order, and a class's
    # representative is the one that is cyclically reduced and canonical.  A
    # necklace whose longest Lyndon prefix has length p is that prefix
    # repeated k / p times, so its repetition order is k / p
    found: list[WordClass] = []
    word = [0] * (k + 1)  # letters in word[1..k]; word[0] = 0 starts the first at 0

    def extend(t: int, p: int) -> None:  # word[1..t-1] is a prenecklace, Lyndon prefix p
        if t > k:
            w = tuple(word[1:])
            reduced = k == 1 or w[0] != letter_inverse(w[-1])
            if k % p == 0 and reduced and w == canonical_form(w):
                found.append(WordClass._proven(w, k // p))
            return
        for c in range(word[t - p], 2 * d):
            if t == 1 or c != letter_inverse(word[t - 1]):
                word[t] = c
                extend(t + 1, p if c == word[t - p] else t)

    extend(1, 1)
    classes = tuple(found)
    # orbit sizes must tile the full set of reduced words
    tiled = sum(wc.orbit_size for wc in classes)
    if tiled != count_reduced_words(d, k):
        raise NumericError(
            f"class orbits at d={d}, k={k} cover {tiled} words, not {count_reduced_words(d, k)}"
        )
    return classes


def enumerate_word_classes(d: int, k: int) -> list[WordClass]:
    """All equivalence classes of cyclically reduced words of length k.

    Raises ResourceLimitError, before the cache is consulted, when the raw
    search space (2d)^k exceeds ``errors.WORD_SEQUENCES``.
    """
    if d < 1 or k < 1:
        raise InvalidInputError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    total, budget = (2 * d) ** k, errors.WORD_SEQUENCES
    if total > budget:
        raise ResourceLimitError(
            f"enumerating words with d={d}, k={k} needs ~{total} sequences (budget {budget})"
        )
    return list(_enumerate_classes_cached(d, k))


@lru_cache(maxsize=None)
def classes_upto(d: int, r: int) -> tuple[WordClass, ...]:
    """All word classes of length <= r, ordered by length, then by canonical
    word; column ci of every per-class count array is class ci of this tuple."""
    return tuple(wc for k in range(1, r + 1) for wc in enumerate_word_classes(d, k))


def counts_by_length(counts: np.ndarray, classes: Sequence[WordClass], r: int) -> np.ndarray:
    """Fold per-class counts (..., n_classes) into per-length counts (..., r)."""
    counts = np.asarray(counts)
    out = np.zeros(counts.shape[:-1] + (r,), dtype=counts.dtype)
    for ci, wc in enumerate(classes):
        out[..., wc.length - 1] += counts[..., ci]
    return out


# ---------------------------------------------------------------------------
# doubling moves


def double_letter(wc: WordClass, position: int) -> WordClass:
    """Repeat the letter at 1-based ``position`` of the canonical word."""
    k = wc.length
    if not 1 <= position <= k:
        raise InvalidInputError(f"position {position} out of range 1..{k}")
    w = wc.letters
    i = position - 1
    return canonicalize(w[: i + 1] + (w[i],) + w[i + 1 :])

