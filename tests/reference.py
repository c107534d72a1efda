"""The paper's definitions that the package's kernels are checked against.

The package computes rowmotion and promotion on [a] x [b] with shift-and-mask
kernels, and Bender-Knuth promotion as Gelfand-Tsetlin toggles. Striker &
Williams ("Promotion and rowmotion", European J. Combin. 2012) prove these
equal the products of toggles defined here, so these definitions live with
the tests that compare the kernels against them, not in the package.
"""
from itertools import accumulate

from homomesy.dynamics import MINUS, PLUS, format_pm_word, parse_pm_word, sign_word
from homomesy.engine import Statistic, orbit_partition, summarize_orbits
from homomesy.gallery.ssyt import _bender_knuth_steps
from homomesy.gallery.suter import require_member
from homomesy.posets import FinitePoset, GridPoset, OrderIdeal


# -- posets -------------------------------------------------------------------

def leq(poset, x, y) -> bool:
    """True when x <= y in the poset order."""
    return bool(poset.down_closure((y,)) & poset.element_mask((x,)))


def is_ideal_mask(poset, mask: int) -> bool:
    """Whether mask is a down-closed set of the poset's elements."""
    return 0 <= mask <= poset.full_mask and poset.down_closure(OrderIdeal(mask)) == mask


def ideal_of(poset, items) -> OrderIdeal:
    """An OrderIdeal from an element set, validating down-closure."""
    mask = poset.element_mask(items)
    if not is_ideal_mask(poset, mask):
        raise ValueError("element set is not down-closed")
    return OrderIdeal(mask)


def linear_extension(poset) -> tuple:
    """The canonical linear extension, as elements: the index-lex smallest
    for a generic poset, and the element order itself for a grid."""
    if isinstance(poset, GridPoset):
        return poset.elements
    return tuple(poset.elements[i] for i in poset._extension)


def grid_covers(grid):
    """The cover pairs of [a] x [b] from coordinates: (k, l) is covered by
    (k + 1, l) and by (k, l + 1)."""
    return [((k, l), y) for k, l in grid.elements
            for y in ((k + 1, l), (k, l + 1)) if y in grid.index]


def plain_poset(grid):
    """The same poset as a generic FinitePoset, built from the grid's covers."""
    return FinitePoset(grid.elements, grid_covers(grid))


# -- toggles and rowmotion ----------------------------------------------------

def toggle(poset, ideal, x) -> OrderIdeal:
    """Add or remove x when the result is still an ideal; otherwise return I."""
    poset.element_mask((x,))  # refuses a non-element
    return _toggle_index(poset, ideal, poset.index[x])


def _toggle_index(poset, ideal, i: int) -> OrderIdeal:
    # x can leave I when it is maximal in I, and join when it is minimal
    # outside I
    movable = poset.maximal_elements(ideal) | poset.minimal_elements_of_complement(ideal)
    return OrderIdeal(ideal ^ (movable & 1 << i))


def rowmotion_ideal_by_toggles(poset, ideal, extension=None) -> OrderIdeal:
    """Rowmotion as a product of element toggles along a linear extension.

    The toggle at the top of the extension is applied first. The result is
    independent of the extension chosen; the default is the poset's
    canonical one.
    """
    # a linear extension lists each element once, and each prefix is an ideal
    order, seen = [], 0
    for x in linear_extension(poset) if extension is None else extension:
        bit = poset.element_mask((x,))
        if seen & bit:
            raise ValueError("linear extension must list every element once")
        seen |= bit
        if not is_ideal_mask(poset, seen):
            raise ValueError("sequence is not a linear extension")
        order.append(poset.index[x])
    if seen != poset.full_mask:
        raise ValueError("linear extension must list every element once")
    for i in reversed(order):
        ideal = _toggle_index(poset, ideal, i)
    return ideal


def rowmotion_ideal_by_ranks(poset, ideal) -> OrderIdeal:
    """Rowmotion as rank toggles, top rank first (grid posets only): the
    ranks listed in order are a linear extension, and toggles inside a rank
    commute. (k, l) has rank k + l - 2, so sum orders by rank."""
    if not isinstance(poset, GridPoset):
        raise ValueError("rank-toggle rowmotion is defined on grid posets")
    return rowmotion_ideal_by_toggles(poset, ideal, sorted(poset.elements, key=sum))


# -- words --------------------------------------------------------------------

def height_function(poset, ideal) -> tuple[int, ...]:
    """Heights h(-a), ..., h(b) of an ideal of [a] x [b]: the partial sums of
    its sign word from h(-a) = a; they end at h(b) = b."""
    return tuple(accumulate(sign_word(poset, ideal), initial=poset.a))


def block_gap_reversal(word) -> tuple[int, ...]:
    """Rowmotion on sign words.

    A block is an adjacent (-1, +1) pair; each block is replaced by (+1, -1)
    and each maximal block-free stretch between blocks (a gap) is reversed
    in place. Blocks never overlap, so splitting the word on "-+" finds them.
    """
    word = tuple(word)
    if any(c not in (PLUS, MINUS) for c in word):
        raise ValueError("word letters must be +1 or -1")
    return parse_pm_word("+-".join(gap[::-1] for gap in format_pm_word(word).split("-+")))


# -- gallery ------------------------------------------------------------------

def bender_knuth(tableau, i: int):
    """The involution swapping the multiplicities of i and i+1."""
    if not 1 <= i <= tableau.ceiling - 1:
        raise ValueError(f"involution index {i} outside 1..{tableau.ceiling - 1}")
    return _bender_knuth_steps(tableau, (i,))


def box_weights(n: int, diagram) -> list[int]:
    """Weights n - r - c + 1 of the boxes of a member of Y_n, row by row."""
    diagram = require_member(n, diagram)
    return [
        n - r - c + 1
        for r, row_len in enumerate(diagram, start=1)
        for c in range(1, row_len + 1)
    ]


# -- engine -------------------------------------------------------------------

def invariant_homomesic_decomposition(tau, space, statistic, guard=None):
    """Split f into its orbit-mean part and its 0-mesic remainder.

    Returns (f_mean, f_centered): f_mean is constant on every orbit,
    f_centered averages to zero on every orbit, and f = f_mean + f_centered
    pointwise. The splitting is unique with those properties.
    """
    orbits = orbit_partition(tau, space, guard)
    summaries = summarize_orbits(orbits, statistic).orbit_summaries
    mean_by_state = {s: summary.average
                     for orbit, summary in zip(orbits, summaries) for s in orbit.states}

    def mean_part(state):
        return mean_by_state[state]

    def centered_part(state):
        avg = mean_by_state[state]
        val = statistic(state)
        return tuple(v - m for v, m in zip(val, avg))

    f_mean = Statistic(f"{statistic.name}.orbit-mean", statistic.dimension, mean_part)
    f_centered = Statistic(f"{statistic.name}.centered", statistic.dimension, centered_part)
    return f_mean, f_centered
