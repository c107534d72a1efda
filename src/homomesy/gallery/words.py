"""Word systems: reversal on permutations, cyclic rotation on +/- words."""
from __future__ import annotations

import math
from itertools import combinations, permutations

from ..dynamics import MINUS, PLUS, cyclic_shift
from ..engine import Statistic
from ..guards import check_space_size


def pm_words(a: int, b: int, guard: int | None = None) -> list[tuple[int, ...]]:
    """All words with a copies of -1 and b copies of +1."""
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need a, b >= 0 with at least one letter")
    check_space_size(f"the {a}-minus {b}-plus space", math.comb(a + b, a), "words", guard)
    n = a + b
    out = []
    for minus_positions in combinations(range(n), a):
        word = [PLUS] * n
        for i in minus_positions:
            word[i] = MINUS
        out.append(tuple(word))
    return out


def inversions(word) -> int:
    """Pairs i < j with word[i] > word[j]. Works for +/- words and permutations."""
    count = 0
    for i, x in enumerate(word):
        for y in word[i + 1:]:
            if x > y:
                count += 1
    return count


def pm_inversions(word) -> int:
    # linear-time count of (+1, -1) pairs in order
    count = 0
    pluses = 0
    for letter in word:
        if letter == PLUS:
            pluses += 1
        else:
            count += pluses
    return count


def ballot_indicator(word) -> int:
    """1 when every prefix sum is strictly positive, else 0."""
    height = 0
    for letter in word:
        height += letter
        if height <= 0:
            return 0
    return 1


def left_shift(word):
    return cyclic_shift(word, "left")


def ballot_system(a: int, b: int, guard: int | None = None):
    """(space, map, statistic) for the ballot indicator under rotation.

    The indicator is (b-a)/(b+a)-mesic when 0 <= a < b.
    """
    space = pm_words(a, b, guard)
    return space, left_shift, Statistic.scalar("ballot", ballot_indicator)


def cyclic_inversions_system(a: int, b: int, guard: int | None = None):
    """(space, map, statistic) for inversion count under rotation; ab/2-mesic."""
    space = pm_words(a, b, guard)
    return space, left_shift, Statistic.scalar("inversions", pm_inversions)


def reversal(word):
    return tuple(reversed(word))


def reversal_inversions_system(n: int, guard: int | None = None):
    """(space, map, statistic) for inversions of w and its reverse.

    Reversal is an involution and inv(w) + inv(reverse(w)) counts every
    pair once, so inversions are n(n-1)/4-mesic.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_space_size(f"S_{n}", math.factorial(n), "permutations", guard)
    space = [tuple(p) for p in permutations(range(1, n + 1))]
    return space, reversal, Statistic.scalar("inversions", inversions)
