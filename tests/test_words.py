"""Rotation and reversal systems on words."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homomesy.dynamics import format_pm_word, parse_pm_word
from homomesy.engine import check_homomesy, orbit_partition
from homomesy.gallery.words import (
    ballot_indicator,
    ballot_system,
    cyclic_inversions_system,
    inversions,
    left_shift,
    pm_inversions,
    pm_words,
    reversal,
    reversal_inversions_system,
)
from homomesy.guards import GuardExceeded
import reference
from reference import MINUS, PLUS, bit_code, reference_inversions


def test_pm_words_enumeration():
    words = pm_words(2, 2)
    assert words == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert len(words) == math.comb(4, 2)
    for word in words:
        assert word < 1 << 4 and word.bit_count() == 2


def test_pm_words_degenerate_counts():
    assert pm_words(0, 3) == [0b111]
    assert pm_words(2, 0) == [0]
    with pytest.raises(ValueError):
        pm_words(0, 0)
    with pytest.raises(GuardExceeded):
        pm_words(10, 10, guard=100)


def test_inversions_small_cases():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((2, 3, 1)) == 2


def test_inversions_match_the_pair_count():
    for n in range(8):
        for perm in itertools.permutations(range(1, n + 1)):
            assert inversions(perm) == reference_inversions(perm)
    for n in range(13):
        for word in itertools.product((PLUS, MINUS), repeat=n):
            assert inversions(word) == reference_inversions(word)


@given(st.lists(st.sampled_from([PLUS, MINUS]), max_size=12).map(tuple))
def test_pm_inversions_matches_generic_count(word):
    assert pm_inversions(bit_code(word)) == inversions(word)


def test_ballot_indicator_definition():
    assert ballot_indicator(0b110, 3) == 1
    assert ballot_indicator(0b101, 3) == 0  # prefix sum touches zero
    assert ballot_indicator(0b011, 3) == 0  # first prefix dips
    assert ballot_indicator(0b10, 2) == 0
    assert ballot_indicator(0, 0) == 1


def test_left_shift():
    assert left_shift(0b1011, 4) == 0b0111
    assert left_shift(0b0110, 4) == 0b1100
    assert left_shift(1, 1) == 1


def test_the_int_words_match_the_tuple_words():
    """Under the bit code, every word with a + b <= 14 is listed in the same
    order, and rotates, counts and prints as the tuple word does."""
    for n in range(1, 15):
        for a in range(n + 1):
            b = n - a
            words = reference.pm_words(a, b)
            assert pm_words(a, b) == list(map(bit_code, words))
            for word in words:
                w = bit_code(word)
                assert left_shift(w, n) == bit_code(reference.left_shift(word))
                assert pm_inversions(w) == reference.pm_inversions(word)
                assert ballot_indicator(w, n) == reference.ballot_indicator(word)
                text = reference.format_pm_word(word)
                assert format_pm_word(w, n) == text
                assert parse_pm_word(text, a, b) == w
                assert reference.parse_pm_word(text) == word


@pytest.mark.parametrize("a,b", [(0, 1), (1, 2), (2, 3), (1, 4)])
def test_ballot_homomesy(a, b):
    space, tau, stat = ballot_system(a, b)
    report = check_homomesy(tau, space, stat)
    assert report.homomesic
    assert report.c == (Fraction(b - a, b + a),)


def test_ballot_fails_when_minuses_dominate():
    space, tau, stat = ballot_system(2, 2)
    report = check_homomesy(tau, space, stat)
    # every rotation class of a balanced word has indicator sum 0
    assert report.c == (Fraction(0),)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (3, 4)])
def test_cyclic_inversions_homomesy(a, b):
    space, tau, stat = cyclic_inversions_system(a, b)
    report = check_homomesy(tau, space, stat)
    assert report.homomesic
    assert report.c == (Fraction(a * b, 2),)


def test_two_rotation_orbits_of_balanced_four_letter_words():
    space, tau, stat = cyclic_inversions_system(2, 2)
    orbits = orbit_partition(tau, space)
    assert sorted(len(o) for o in orbits) == [2, 4]
    from homomesy.engine import orbit_average

    assert all(orbit_average(stat, o) == (Fraction(2),) for o in orbits)


def test_reversal_is_an_involution():
    assert reversal((1, 2, 3)) == (3, 2, 1)
    assert reversal(reversal((2, 1, 3))) == (2, 1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reversal_inversions_homomesy(n):
    space, tau, stat = reversal_inversions_system(n)
    assert len(space) == math.factorial(n)
    report = check_homomesy(tau, space, stat)
    assert report.homomesic
    assert report.c == (Fraction(n * (n - 1), 4),)


def test_reversal_guard():
    with pytest.raises(GuardExceeded):
        reversal_inversions_system(8, guard=1000)
    with pytest.raises(ValueError):
        reversal_inversions_system(0)
