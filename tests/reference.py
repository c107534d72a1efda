"""The paper's definitions that the package's kernels are checked against.

The package computes rowmotion and promotion on [a] x [b] with shift-and-mask
kernels, and Bender-Knuth promotion as Gelfand-Tsetlin toggles. Striker &
Williams ("Promotion and rowmotion", European J. Combin. 2012) prove these
equal the products of toggles defined here, so these definitions live with
the tests that compare the kernels against them, not in the package. The
same holds for the sandpile recurrents, which the package finds by a walk
in the sandpile group and which are defined here as the cycle states of the
one-step dynamic on all stable configurations, and for the inversion count.

The package stores a +/- word as an int; the words section keeps the tuple
words of +1 and -1 that it used before, with their enumeration, rotation,
statistics, grid codecs and text helpers, and bit_code carries a tuple word
to the int the package stores for it.

The CLI streams its orbit table from one format string; the cli section
keeps the list-based table it replaced. The engine's subspace search
eliminates integer rows (-period, *sums); the engine section keeps the
search from one Fraction row (-1, *average) per orbit that it replaced.
"""
import json
from collections import deque
from itertools import accumulate, combinations, product

from homomesy.cli import _fmt_average
from homomesy.engine import (Statistic, orbit_average, orbit_partition, rational_nullspace,
                             summarize_orbits)
from homomesy.gallery.sandpile import sandpile_tau
from homomesy.gallery.ssyt import SSYT, _bender_knuth_steps
from homomesy.gallery.suter import require_member
from homomesy.guards import binomial_factors, check_space_size, product_factors
from homomesy.posets import FinitePoset, GridPoset


# -- posets -------------------------------------------------------------------

def leq(poset, x, y) -> bool:
    """True when x <= y in the poset order."""
    return bool(poset.down_closure(poset.element_mask((y,))) & poset.element_mask((x,)))


def is_ideal_mask(poset, mask: int) -> bool:
    """Whether mask is a down-closed set of the poset's elements."""
    return 0 <= mask <= poset.full_mask and poset.down_closure(mask) == mask


def ideal_of(poset, items) -> int:
    """The mask of an element set, validating down-closure."""
    mask = poset.element_mask(items)
    if not is_ideal_mask(poset, mask):
        raise ValueError("element set is not down-closed")
    return mask


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

def toggle(poset, ideal, x) -> int:
    """Add or remove x when the result is still an ideal; otherwise return I."""
    poset.element_mask((x,))  # refuses a non-element
    return _toggle_index(poset, ideal, poset.index[x])


def _toggle_index(poset, ideal, i: int) -> int:
    # x can leave I when it is maximal in I, and join when it is minimal
    # outside I
    movable = poset.maximal_elements(ideal) | poset.minimal_elements_of_complement(ideal)
    return ideal ^ (movable & 1 << i)


def rowmotion_ideal_by_toggles(poset, ideal, extension=None) -> int:
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


def rowmotion_ideal_by_ranks(poset, ideal) -> int:
    """Rowmotion as rank toggles, top rank first (grid posets only): the
    ranks listed in order are a linear extension, and toggles inside a rank
    commute. (k, l) has rank k + l - 2, so sum orders by rank."""
    if not isinstance(poset, GridPoset):
        raise ValueError("rank-toggle rowmotion is defined on grid posets")
    return rowmotion_ideal_by_toggles(poset, ideal, sorted(poset.elements, key=sum))


# -- words --------------------------------------------------------------------

PLUS, MINUS = 1, -1


def bit_code(word) -> int:
    """The int the package stores for a tuple word: first letter the top
    bit, +1 a 1 bit."""
    return sum(1 << i for i, letter in enumerate(reversed(word)) if letter == PLUS)


def pm_words(a: int, b: int, guard: int | None = None) -> list[tuple[int, ...]]:
    """All words with a copies of -1 and b copies of +1."""
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need a, b >= 0 with at least one letter")
    check_space_size(f"the {a}-minus {b}-plus space", binomial_factors(a, b), "words", guard)
    n = a + b
    out = []
    for minus_positions in combinations(range(n), a):
        word = [PLUS] * n
        for i in minus_positions:
            word[i] = MINUS
        out.append(tuple(word))
    return out


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


def left_shift(word):
    return cyclic_shift(word, "left")


def sign_word(poset: GridPoset, ideal: int) -> tuple[int, ...]:
    """Increments of the height function: a+b letters from {+1, -1}.

    This is the partition's boundary, read from its row lengths in O(a+b)
    steps: top row (row a) first, +1 along a row, -1 down a row, and the
    +1s past the longest row last.
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


def stanley_thomas_word(poset: GridPoset, antichain: int) -> tuple[int, ...]:
    """Word of length a+b: position k <= a is +1 when the antichain meets
    positive fiber k (row k of the mask); position a+l is +1 when it misses
    negative fiber l (column l)."""
    b, row = poset.b, (1 << poset.b) - 1
    head = [PLUS if antichain >> k * b & row else MINUS for k in range(poset.a)]
    tail = [MINUS if antichain & poset.col1 << l else PLUS for l in range(b)]
    return tuple(head + tail)


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
    image = _bender_knuth_steps(tableau, (i,))
    return SSYT(image.ceiling, image.rows)  # the package trusts BK_i; check it here


def stable_configurations(graph, guard=None):
    """Every stable sandpile configuration, in ascending order, refused over
    the guard from the product of the out-degrees."""
    check_space_size("the graph", product_factors(graph._degree), "stable configurations", guard)
    return list(product(*map(range, graph._degree)))


def reference_sandpile_recurrents(graph, guard=None) -> dict:
    """{recurrent: its tau image} in ascending order: steps every stable
    configuration, then peels states of in-degree zero from the functional
    graph of tau; whatever survives lies on a cycle."""
    states = stable_configurations(graph, guard)
    successor = {s: sandpile_tau(graph, s, guard) for s in states}
    indegree = dict.fromkeys(states, 0)
    for t in successor.values():
        indegree[t] += 1
    queue = deque(s for s in states if indegree[s] == 0)
    removed = set()
    while queue:
        s = queue.popleft()
        removed.add(s)
        t = successor[s]
        indegree[t] -= 1
        if indegree[t] == 0:
            queue.append(t)
    return {s: successor[s] for s in states if s not in removed}


def reference_inversions(word) -> int:
    """Pairs i < j with word[i] > word[j], one pair at a time."""
    count = 0
    for i, x in enumerate(word):
        for y in word[i + 1:]:
            if x > y:
                count += 1
    return count


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
                     for orbit, summary in zip(orbits, summaries) for s in orbit}

    def mean_part(state):
        return mean_by_state[state]

    def centered_part(state):
        avg = mean_by_state[state]
        val = statistic(state)
        return tuple(v - m for v, m in zip(val, avg))

    f_mean = Statistic(f"{statistic.name}.orbit-mean", statistic.dimension, mean_part)
    f_centered = Statistic(f"{statistic.name}.centered", statistic.dimension, centered_part)
    return f_mean, f_centered


def fraction_row_subspace(tau, space, statistic, guard=None):
    """homomesic_subspace from the Fraction rows (-1, *orbit_average(o)),
    one per orbit o."""
    orbits = orbit_partition(tau, space, guard)
    if not orbits:
        raise ValueError("cannot check homomesy on an empty state space")
    rows = [(-1, *orbit_average(statistic, o)) for o in orbits]
    return [vec[1:] for vec in rational_nullspace(rows, num_columns=statistic.dimension + 1)]


# -- cli ----------------------------------------------------------------------

def reference_orbit_table(bundle, summaries, footer_lines):
    """The orbit table as a list of row tuples, each column padded to its
    widest cell."""
    yield f"system: {bundle.system}"
    yield f"map: {bundle.map_name}"
    yield f"space: {json.dumps(bundle.space_doc, separators=(',', ': '))}"
    yield f"statistic: {bundle.statistic.name}"
    rows = [(idx, s.period, _fmt_average(s.average), bundle.to_text(s.representative))
            for idx, s in enumerate(summaries, start=1)]
    titles = ("orbit", "period", "average", "representative")
    # the last column is not padded, so no line ends in spaces
    widths = [max(len(t), *(len(str(row[i])) for row in rows))
              for i, t in enumerate(titles[:-1])] + [0]
    yield "  ".join(t.ljust(w) for t, w in zip(titles, widths))
    for row in rows:
        yield "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
    yield from footer_lines
