"""Dynamics on products of two chains: rowmotion, promotion, words.

A state is a plain int, the bitmask of an order ideal or an antichain over
the poset's element order (see homomesy.posets); every map here takes and
returns one. Conventions fixed here once and used everywhere:

* rowmotion on ideals sends I to the down closure of the minimal elements
  of its complement; as a product of toggles (Striker-Williams 2012) it
  applies the toggle at the TOP of a linear extension first and works
  downward,
* promotion is the product of the file toggles left to right (file 1-a
  through file b-1), bottom to top inside each file; it is computed as the
  rotation of the sign word that product equals,
* a word of a -1s and b +1s is the int below 2^(a+b) that stores it: its
  first letter is the top bit, and a +1 is a 1 bit,
* the sign word of an ideal reads the height function's increments left to
  right, so promotion is gallery.words.left_shift of it and rowmotion is
  block/gap reversal: split the word on its blocks (-1, +1), reverse each
  gap between them, and join with (+1, -1),
* the Stanley-Thomas word of an antichain carries rowmotion to a rightward
  rotation; it reads the rows and columns the antichain's mask meets.

The toggle products, the height function and block/gap reversal are the
references the tests hold these maps to; they live in tests/reference.py.
"""
from __future__ import annotations

from .posets import FinitePoset, GridPoset, iter_bits


# -- rowmotion ---------------------------------------------------------------

def rowmotion_ideal(poset: FinitePoset, ideal: int) -> int:
    """Rowmotion on order ideals: down closure of the complement's minimals."""
    return poset.down_closure(poset.minimal_elements_of_complement(ideal))


def rowmotion_antichain(poset: FinitePoset, antichain: int) -> int:
    """Rowmotion on antichains: minimal elements of the complement of the
    ideal the antichain generates."""
    return poset.minimal_elements_of_complement(poset.down_closure(antichain))


# -- promotion ---------------------------------------------------------------

def promotion_ideal(poset: GridPoset, ideal: int) -> int:
    """Promotion on order ideals of [a] x [b]: file toggles, left to right.

    These rotate the sign word, the partition's boundary read top row first
    (+1 along a row, -1 down a row), one letter left (Striker-Williams 2012).
    A leading +1 means (a, 1) is in I: every row loses its first element.
    A leading -1 means the top row is empty: the rows move up one and a
    full row enters at the bottom.
    """
    if not isinstance(poset, GridPoset):
        raise ValueError("promotion is defined on grid posets")
    if ideal >> (poset.a - 1) * poset.b & 1:
        return (ideal >> 1) & ~poset.lastcol
    return (ideal << poset.b) & poset.full_mask | poset.row1


def promotion_antichain(poset: GridPoset, antichain: int) -> int:
    """Promotion transported to antichains through the ideal bijection."""
    return poset.maximal_elements(promotion_ideal(poset, poset.down_closure(antichain)))


# -- sign words ----------------------------------------------------------------

def sign_word(poset: GridPoset, ideal: int) -> int:
    """Increments of the height function: a+b letters, a of them -1.

    This is the partition's boundary: top row (row a) first, +1 along a
    row, -1 down a row, and the +1s past the longest row last. The -1 that
    closes mask row k (bottom row 0) of length L comes after L letters +1
    and the a-1-k letters -1 of the rows above it, so it is bit b+k-L.
    """
    b, row = poset.b, (1 << poset.b) - 1
    minuses = sum(1 << b + k - (ideal >> k * b & row).bit_count() for k in range(poset.a))
    return (1 << poset.a + b) - 1 ^ minuses


def ideal_from_sign_word(poset: GridPoset, word: int) -> int:
    """Inverse of sign_word; validates the letter counts. The k-th zero bit
    from the bottom, at bit p, closes row k at length b+k-p."""
    a, b = poset.a, poset.b
    if word >> a + b or word.bit_count() != b:
        raise ValueError(f"word must have {a} minus letters and {b} plus letters")
    zeros = (1 << a + b) - 1 ^ word
    return sum((1 << b + k - p) - 1 << k * b for k, p in enumerate(iter_bits(zeros)))


# -- Stanley-Thomas words ------------------------------------------------------

def stanley_thomas_word(poset: GridPoset, antichain: int) -> int:
    """Word of length a+b: letter k <= a is +1 when the antichain meets
    positive fiber k (row k of the mask); letter a+l is +1 when it misses
    negative fiber l (column l)."""
    b, row, word = poset.b, (1 << poset.b) - 1, 0
    for k in range(poset.a):
        word = word << 1 | (antichain >> k * b & row != 0)
    for l in range(b):
        word = word << 1 | (antichain & poset.col1 << l == 0)
    return word


def antichain_from_st_word(poset: GridPoset, word: int) -> int:
    """Inverse of stanley_thomas_word; validates the letter counts."""
    a, b = poset.a, poset.b
    if word >> a + b or word.bit_count() != b:
        raise ValueError(f"word must have {a} minus letters and {b} plus letters")
    rows = [k for k in range(a) if word >> a + b - 1 - k & 1]
    cols = [l for l in range(b) if not word >> b - 1 - l & 1]
    # ascending rows pair with descending columns; (k+1, l+1) is bit k*b + l
    return sum(1 << k * b + l for k, l in zip(rows, reversed(cols)))


# -- word text -----------------------------------------------------------------

_PM_LETTERS = str.maketrans("01", "-+")


def format_pm_word(word: int, n: int) -> str:
    """The n letters of a word as '+' and '-', the top bit first."""
    return format(word, f"0{n}b").translate(_PM_LETTERS)


def parse_pm_word(text: str, minuses: int, pluses: int) -> int:
    """Parse a +/- word into its int, once it is checked to hold minuses
    letters -1 and pluses letters +1. Accepts '+', '-', the Unicode minus,
    and 0/1 digits (0 meaning -1); whitespace is skipped."""
    word = length = 0
    for ch in text.strip():
        if ch in "+1-0−":
            word, length = word << 1 | (ch in "+1"), length + 1
        elif not ch.isspace():
            raise ValueError(f"unexpected letter {ch!r} in word {text!r}")
    if length != minuses + pluses or word.bit_count() != pluses:
        raise ValueError(f"word must have {minuses} minus letters and {pluses} plus letters")
    return word
