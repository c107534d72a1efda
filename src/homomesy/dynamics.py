"""Dynamics on products of two chains: rowmotion, promotion, words.

Conventions fixed here once and used everywhere:

* rowmotion on ideals sends I to the down closure of the minimal elements
  of its complement; as a product of toggles (Striker-Williams 2012) it
  applies the toggle at the TOP of a linear extension first and works
  downward,
* promotion is the product of the file toggles left to right (file 1-a
  through file b-1), bottom to top inside each file; it is computed as the
  rotation of the sign word that product equals,
* the sign word of an ideal reads the height function's increments left to
  right, so promotion acts as a leftward cyclic shift and rowmotion as
  block/gap reversal: split the word on its blocks (-1, +1), reverse each
  gap between them, and join with (+1, -1),
* the Stanley-Thomas word of an antichain carries rowmotion to a rightward
  cyclic shift; it reads the rows and columns the antichain's mask meets.

The toggle products, the height function and block/gap reversal are the
references the tests hold these maps to; they live in tests/reference.py.
"""
from __future__ import annotations

from .posets import Antichain, FinitePoset, GridPoset, OrderIdeal

PLUS, MINUS = 1, -1


# -- rowmotion ---------------------------------------------------------------

def rowmotion_ideal(poset: FinitePoset, ideal: OrderIdeal) -> OrderIdeal:
    """Rowmotion on order ideals: down closure of the complement's minimals."""
    return poset.down_closure(poset.minimal_elements_of_complement(ideal))


def rowmotion_antichain(poset: FinitePoset, antichain: Antichain) -> Antichain:
    """Rowmotion on antichains: minimal elements of the complement of the
    ideal the antichain generates."""
    return poset.minimal_elements_of_complement(poset.down_closure(antichain))


# -- promotion ---------------------------------------------------------------

def promotion_ideal(poset: GridPoset, ideal: OrderIdeal) -> OrderIdeal:
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
        return OrderIdeal((ideal >> 1) & ~poset.lastcol)
    return OrderIdeal((ideal << poset.b) & poset.full_mask | poset.row1)


def promotion_antichain(poset: GridPoset, antichain: Antichain) -> Antichain:
    """Promotion transported to antichains through the ideal bijection."""
    return poset.maximal_elements(promotion_ideal(poset, poset.down_closure(antichain)))


# -- sign words ----------------------------------------------------------------

def sign_word(poset: GridPoset, ideal: OrderIdeal) -> tuple[int, ...]:
    """Increments of the height function: a+b letters from {+1, -1}.

    This is the partition's boundary, read from its row lengths in O(a+b)
    steps: top row (row a) first, +1 along a row, -1 down a row, and the
    +1s past the longest row last. ideal_from_sign_word reads it back.
    """
    b, row = poset.b, (1 << poset.b) - 1
    word, previous = [], 0
    for k in reversed(range(poset.a)):
        length = (ideal >> k * b & row).bit_count()
        word += [PLUS] * (length - previous)
        word.append(MINUS)
        previous = length
    word += [PLUS] * (b - previous)
    return tuple(word)


def ideal_from_sign_word(poset: GridPoset, word) -> OrderIdeal:
    """Inverse of sign_word; validates the letter multiset. Top row first,
    each -1 closes a row as long as the +1s seen so far."""
    mask = length = 0
    for letter in require_pm_word(word, poset.a, poset.b):
        if letter == PLUS:
            length += 1
        else:
            mask = mask << poset.b | (1 << length) - 1
    return OrderIdeal(mask)


def require_pm_word(word, minuses: int, pluses: int) -> tuple[int, ...]:
    """The word as a tuple, once it is checked to hold minuses letters -1
    and pluses letters +1 and nothing else."""
    word = tuple(word)
    if any(c not in (PLUS, MINUS) for c in word):
        raise ValueError("word letters must be +1 or -1")
    if len(word) != minuses + pluses or word.count(MINUS) != minuses:
        raise ValueError(
            f"word must have {minuses} minus letters and {pluses} plus letters"
        )
    return word


# -- Stanley-Thomas words ------------------------------------------------------

def stanley_thomas_word(poset: GridPoset, antichain: Antichain) -> tuple[int, ...]:
    """Word of length a+b: position k <= a is +1 when the antichain meets
    positive fiber k (row k of the mask); position a+l is +1 when it misses
    negative fiber l (column l)."""
    b, row = poset.b, (1 << poset.b) - 1
    head = [PLUS if antichain >> k * b & row else MINUS for k in range(poset.a)]
    tail = [MINUS if antichain & poset.col1 << l else PLUS for l in range(b)]
    return tuple(head + tail)


def antichain_from_st_word(poset: GridPoset, word) -> Antichain:
    """Inverse of stanley_thomas_word; validates the letter multiset."""
    word = require_pm_word(word, poset.a, poset.b)
    rows = [k for k in range(poset.a) if word[k] == PLUS]
    cols = [l for l in range(poset.b) if word[poset.a + l] == MINUS]
    # ascending rows pair with descending columns; (k+1, l+1) is bit k*b + l
    return Antichain(sum(1 << k * poset.b + l for k, l in zip(rows, reversed(cols))))


# -- word utilities -----------------------------------------------------------

def cyclic_shift(word, direction: str) -> tuple:
    """Rotate a word one place left or right."""
    word = tuple(word)
    if not word:
        raise ValueError("cannot shift an empty word")
    if direction == "left":
        return word[1:] + word[:1]
    if direction == "right":
        return word[-1:] + word[:-1]
    raise ValueError(f"direction must be 'left' or 'right', not {direction!r}")


def format_pm_word(word) -> str:
    return "".join("+" if c == PLUS else "-" for c in word)


def parse_pm_word(text: str) -> tuple[int, ...]:
    """Parse a +/- word; accepts '+', '-', the Unicode minus, and 0/1 digits
    (0 meaning -1)."""
    out = []
    for ch in text.strip():
        if ch in "+1":
            out.append(PLUS)
        elif ch in "-0−":
            out.append(MINUS)
        elif ch.isspace():
            continue
        else:
            raise ValueError(f"unexpected letter {ch!r} in word {text!r}")
    return tuple(out)
