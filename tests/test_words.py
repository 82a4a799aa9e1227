"""Tests for cyclically reduced words and their classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph import errors, words
from regraph.errors import InvalidInputError, NumericError, ResourceLimitError
from regraph.words import (
    WordClass,
    canonical_form,
    canonicalize,
    count_reduced_words,
    double_letter,
    enumerate_word_classes,
    format_word,
    inverted_reversal,
    is_cyclically_reduced,
)

from oracles import brute_force_classes, halvings, parse_word, word_stats


def brute_force_reduced_count(d, k):
    """Count cyclically reduced words of length k by direct enumeration."""
    count = 0
    stack = [()]
    while stack:
        w = stack.pop()
        if len(w) == k:
            if k == 1 or w[0] != w[-1] ^ 1:
                count += 1
            continue
        for c in range(2 * d):
            if not w or c != w[-1] ^ 1:
                stack.append(w + (c,))
    return count


class TestLetters:
    def test_roundtrip(self):
        assert parse_word("a A b B") == (0, 1, 2, 3)
        assert format_word((0, 1, 2, 3)) == "a A b B"

    def test_order(self):
        # pi_1 < pi_1^-1 < pi_2 < pi_2^-1
        assert parse_word("a")[0] < parse_word("A")[0] < parse_word("b")[0] < parse_word("B")[0]

    def test_bad_input(self):
        with pytest.raises(InvalidInputError):
            parse_word("")
        with pytest.raises(InvalidInputError):
            parse_word("a 1")


class TestCanonical:
    def test_examples(self):
        assert canonical_form(parse_word("A A")) == parse_word("a a")
        assert canonical_form(parse_word("b a")) == parse_word("a b")

    def test_reduced_check(self):
        assert is_cyclically_reduced(parse_word("a a B B a"))
        assert not is_cyclically_reduced(parse_word("a A"))
        assert not is_cyclically_reduced(parse_word("a b A"))  # cyclic adjacency
        assert is_cyclically_reduced(parse_word("A"))

    def test_rotation_inversion_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.randint(1, 3)
            k = rng.randint(1, 8)
            # random cyclically reduced word
            while True:
                w = [rng.randrange(2 * d)]
                for _ in range(k - 1):
                    c = rng.randrange(2 * d)
                    while c == w[-1] ^ 1:
                        c = rng.randrange(2 * d)
                    w.append(c)
                if is_cyclically_reduced(tuple(w)):
                    break
            w = tuple(w)
            r = rng.randrange(k)
            rotated = w[r:] + w[:r]
            assert canonical_form(rotated) == canonical_form(w)
            assert canonical_form(inverted_reversal(w)) == canonical_form(w)

    def test_not_reduced_rejected(self):
        with pytest.raises(InvalidInputError):
            canonicalize(parse_word("a A"))


class TestStats:
    def test_doubled_letter_example(self):
        # a a B B a: cyclic doubled positions (1,2), (3,4), (5,1)
        assert word_stats(parse_word("a a B B a")) == (5, 1, 3)

    def test_single_letter(self):
        assert word_stats(parse_word("a")) == (1, 1, 0)

    def test_period(self):
        assert word_stats(parse_word("a b a b")) == (4, 2, 0)
        assert word_stats(parse_word("a a a"))[1] == 3

    def test_mu(self):
        assert canonicalize(parse_word("a")).mu == 1
        assert canonicalize(parse_word("a a")).mu == 0
        assert canonicalize(parse_word("a b a b")).mu == Fraction(4 - 0, 2)


class TestCounting:
    def test_small_values(self):
        assert count_reduced_words(2, 1) == 4
        assert count_reduced_words(2, 2) == 12
        assert count_reduced_words(2, 3) == 28
        assert count_reduced_words(1, 5) == 2
        assert count_reduced_words(1, 4) == 2
        assert count_reduced_words(3, 0) == 0

    def test_against_brute_force(self):
        for d in (1, 2, 3):
            for k in range(1, 7):
                assert count_reduced_words(d, k) == brute_force_reduced_count(d, k)


class TestEnumeration:
    def test_orbit_partition(self):
        for d in (1, 2, 3):
            for k in range(1, 6):
                classes = enumerate_word_classes(d, k)
                seen = set()
                for wc in classes:
                    orb = wc.orbit()
                    assert len(orb) == wc.orbit_size
                    assert not (orb & seen)
                    seen |= orb
                assert len(seen) == count_reduced_words(d, k)

    def test_class_count_identity(self):
        # sum over classes of 1/h equals (number of reduced words) / 2k
        for d in (1, 2, 3):
            for k in range(1, 8):
                total = sum(Fraction(1, wc.h) for wc in enumerate_word_classes(d, k))
                assert total == Fraction(count_reduced_words(d, k), 2 * k)

    def test_mu_sum_identity(self):
        # sum of mu over classes of length k is (a(d,k) - a(d,k-1)) / 2
        for d in (1, 2, 3):
            for k in range(1, 8):
                total = sum(wc.mu for wc in enumerate_word_classes(d, k))
                expect = Fraction(count_reduced_words(d, k) - count_reduced_words(d, k - 1), 2)
                assert total == expect

    def test_doubled_letter_sum_identity(self):
        # sum of c/h at length k equals sum of length/h at length k-1
        for d in (1, 2, 3):
            for k in range(2, 8):
                lhs = sum(Fraction(wc.c, wc.h) for wc in enumerate_word_classes(d, k))
                rhs = sum(
                    Fraction(wc.length, wc.h) for wc in enumerate_word_classes(d, k - 1)
                )
                assert lhs == rhs

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(errors, "WORD_SEQUENCES", 10**4)
        with pytest.raises(ResourceLimitError):
            enumerate_word_classes(3, 12)

    def test_budget_bound_is_inclusive_and_checked_first(self, monkeypatch):
        monkeypatch.setattr(errors, "WORD_SEQUENCES", 6**4)
        assert len(enumerate_word_classes(3, 4)) == 84
        monkeypatch.setattr(errors, "WORD_SEQUENCES", 6**4 - 1)
        monkeypatch.setattr(words, "canonical_form", None)  # any work would fail
        with pytest.raises(ResourceLimitError):
            enumerate_word_classes(3, 4)

    def test_matches_brute_force(self):
        # same classes in the same order wherever (2d)^k <= 10^6; uncached,
        # so the large shapes are not kept for the rest of the session
        enumerate_classes = words._enumerate_classes_cached.__wrapped__
        for d in range(1, 6):
            k = 1
            while (2 * d) ** k <= 10**6:
                assert enumerate_classes(d, k) == brute_force_classes(d, k)
                k += 1
        for d, r in ((1, 8), (2, 6), (3, 5)):
            expect = tuple(wc for k in range(1, r + 1) for wc in brute_force_classes(d, k))
            assert words.classes_upto(d, r) == expect


class TestDoublingHalving:
    def test_halving_example(self):
        wc = canonicalize(parse_word("a a b a a b"))
        result = halvings(wc)
        target = canonicalize(parse_word("a b a a b"))
        assert result == {target: 2}

    def test_halving_mass(self):
        for d in (1, 2):
            for k in range(2, 7):
                for wc in enumerate_word_classes(d, k):
                    assert sum(halvings(wc).values()) == wc.c

    def test_double_halve_consistency(self):
        # doubling then halving returns to the source class
        for d in (1, 2):
            for k in range(1, 6):
                for wc in enumerate_word_classes(d, k):
                    for pos in range(1, wc.length + 1):
                        child = double_letter(wc, pos)
                        assert wc in halvings(child)

    def test_double_halve_weight_identity(self):
        # number of doublings of u landing in class w, divided by h(u),
        # equals the halving multiplicity of w at u divided by h(w)
        for d in (1, 2):
            for k in range(1, 6):
                for u in enumerate_word_classes(d, k):
                    ups: dict[WordClass, int] = {}
                    for pos in range(1, u.length + 1):
                        w = double_letter(u, pos)
                        ups[w] = ups.get(w, 0) + 1
                    for w, a in ups.items():
                        b = halvings(w)[u]
                        assert Fraction(a, u.h) == Fraction(b, w.h)

    def test_position_bounds(self):
        wc = canonicalize(parse_word("a b"))
        with pytest.raises(InvalidInputError):
            double_letter(wc, 0)
        with pytest.raises(InvalidInputError):
            double_letter(wc, 3)


@st.composite
def _cyclically_reduced_word(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 10))
    w = [draw(st.integers(0, 2 * d - 1))]
    while len(w) < k:
        banned = {w[-1] ^ 1, w[0] ^ 1} if len(w) == k - 1 else {w[-1] ^ 1}
        w.append(draw(st.sampled_from([c for c in range(2 * d) if c not in banned])))
    return tuple(w), draw(st.integers(0, k - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cyclically_reduced_word())
def test_canonicalize_properties(case):
    w, shift = case
    k = len(w)
    wc = canonicalize(w)
    assert canonicalize(w[shift:] + w[:shift]) == wc
    assert canonicalize(inverted_reversal(w)) == wc
    assert canonicalize(wc.letters) == wc
    assert k % wc.h == 0
    orbit = wc.orbit()
    assert w in orbit
    assert len(orbit) == 2 * k // wc.h
    assert all(canonicalize(u) == wc for u in orbit)


def test_public_construction_still_validates():
    # the necklace pass builds its classes without the checks; a caller's
    # word still gets them, and the pass's classes equal checked ones
    with pytest.raises(InvalidInputError, match="canonical representative"):
        WordClass(parse_word("b a"))
    with pytest.raises(InvalidInputError, match="cyclically reduced"):
        WordClass(parse_word("a b A"))
    for wc in enumerate_word_classes(3, 5):
        assert WordClass(wc.letters) == wc


def test_orbit_tiling_failure_raises(monkeypatch):
    # a raised error, not an assert, so it survives python -O
    monkeypatch.setattr(words, "count_reduced_words", lambda d, k: 1)
    with pytest.raises(NumericError):
        words._enumerate_classes_cached.__wrapped__(2, 3)
