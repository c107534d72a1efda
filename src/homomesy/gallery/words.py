"""Word systems: reversal on permutations, cyclic rotation on +/- words.

A +/- word of length n is the int below 2^n that stores it: its first
letter is the top bit, and a +1 is a 1 bit. For fixed letter counts, int
order is then the lexicographic order of the words with -1 < +1, and
rotation is two shifts. A permutation stays a tuple.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import permutations

from ..engine import Statistic
from ..guards import binomial_factors, check_space_size, factorial_factors


def pm_words(a: int, b: int, guard: int | None = None) -> list[int]:
    """All words with a letters -1 and b letters +1, in ascending order:
    Gosper's hack steps from the least int with b one bits to the next
    (HAKMEM 175)."""
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need a, b >= 0 with at least one letter")
    check_space_size(f"the {a}-minus {b}-plus space", binomial_factors(a, b), "words", guard)
    if b == 0:
        return [0]
    word, end, out = (1 << b) - 1, 1 << a + b, []
    while word < end:
        out.append(word)
        low = word & -word
        carry = word + low
        word = ((carry ^ word) >> 2) // low | carry
    return out


def inversions(word) -> int:
    """Pairs i < j with word[i] > word[j] in a sequence, such as a permutation.

    Right to left, each letter counts the strictly smaller letters after it
    by bisection into those letters, kept sorted.
    """
    count = 0
    after: list = []
    for x in reversed(word):
        k = bisect_left(after, x)
        count += k
        after.insert(k, x)
    return count


def pm_inversions(word: int) -> int:
    """Pairs of a +1 before a -1. The +1 at bit p has p letters after it;
    summed over the b letters +1, that counts each of the C(b, 2) pairs of
    two +1s once too, so they are taken off."""
    ones = word.bit_count()
    return sum(p for p in range(word.bit_length()) if word >> p & 1) - ones * (ones - 1) // 2


def ballot_indicator(word: int, n: int) -> int:
    """1 when every prefix sum of the n letters is strictly positive, else 0."""
    height = 0
    for p in reversed(range(n)):
        height += 1 if word >> p & 1 else -1
        if height <= 0:
            return 0
    return 1


def left_shift(word: int, n: int) -> int:
    """The word rotated one letter left: its top bit becomes its last."""
    return (word << 1 & (1 << n) - 1) | word >> n - 1


def ballot_system(a: int, b: int, guard: int | None = None):
    """(space, map, statistic) for the ballot indicator under rotation.

    The indicator is (b-a)/(b+a)-mesic when 0 <= a < b.
    """
    n = a + b
    return (pm_words(a, b, guard), lambda w: left_shift(w, n),
            Statistic.scalar("ballot", lambda w: ballot_indicator(w, n)))


def cyclic_inversions_system(a: int, b: int, guard: int | None = None):
    """(space, map, statistic) for inversion count under rotation; ab/2-mesic."""
    n = a + b
    return (pm_words(a, b, guard), lambda w: left_shift(w, n),
            Statistic.scalar("inversions", pm_inversions))


def reversal(word):
    return tuple(reversed(word))


def reversal_inversions_system(n: int, guard: int | None = None):
    """(space, map, statistic) for inversions of w and its reverse.

    Reversal is an involution and inv(w) + inv(reverse(w)) counts every
    pair once, so inversions are n(n-1)/4-mesic.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_space_size(f"S_{n}", factorial_factors(n), "permutations", guard)
    space = list(permutations(range(1, n + 1)))
    return space, reversal, Statistic.scalar("inversions", inversions)
