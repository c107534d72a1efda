"""Finite posets with bitmask order-ideal and antichain state spaces.

A poset fixes its element order at construction time; an order ideal or
an antichain is a plain int, the bitmask of its elements in that order.
Every kernel and enumeration takes and returns such ints; element labels
enter only through element_mask. The three kernels (down_closure,
maximal_elements, minimal_elements_of_complement) take masks in
0 .. full_mask and do not check them; element_mask, antichain,
is_antichain_mask and members are the checked entry points. Everything
here is pure.
"""
from __future__ import annotations

import heapq
from itertools import accumulate

from .guards import DEFAULT_ENUMERATION_GUARD, GuardExceeded, binomial_factors, check_space_size


def iter_bits(mask: int):
    """Yield the indices of the set bits of mask, ascending; a negative
    mask, whose set bits never end, is refused."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_grid_guard(a: int, b: int, guard: int | None = None) -> None:
    """Refuse [a] x [b] from its C(a+b, a) order ideals before it is built."""
    size = binomial_factors(a, b) if a > 0 and b > 0 else 0  # GridPoset rejects sizes < 1
    check_space_size(f"[{a}]x[{b}]", size, "ideals", guard)


class FinitePoset:
    """A finite poset built from an explicit cover list.

    elements: iterable of hashable labels; their listed order is frozen and
        every bitmask refers to it.
    covers: iterable of pairs (x, y) meaning x is covered by y.

    The order relation is the reflexive-transitive closure of the covers;
    a cycle in the cover list is rejected.
    """

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements in poset")
        n = len(self.elements)
        self.full_mask = (1 << n) - 1
        self.up_covers = [0] * n
        self.down_covers = [0] * n
        for x, y in covers:
            if x not in self.index or y not in self.index:
                raise ValueError(f"cover ({x!r}, {y!r}) mentions an unknown element")
            if x == y:
                raise ValueError(f"element {x!r} cannot cover itself")
            i, j = self.index[x], self.index[y]
            self.up_covers[i] |= 1 << j
            self.down_covers[j] |= 1 << i
        self._extension = self._smallest_linear_extension()
        # below[i]: principal ideal of element i, incl. i
        self.below = [0] * n
        for i in self._extension:
            m = 1 << i
            for j in iter_bits(self.down_covers[i]):
                m |= self.below[j]
            self.below[i] = m

    def _smallest_linear_extension(self) -> tuple[int, ...]:
        # Greedy Kahn with a heap: the index-lex smallest linear extension.
        n = len(self.elements)
        indeg = [self.down_covers[i].bit_count() for i in range(n)]
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        out = []
        while ready:
            i = heapq.heappop(ready)
            out.append(i)
            for j in iter_bits(self.up_covers[i]):
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        if len(out) != n:
            raise ValueError("cover relations contain a cycle")
        return tuple(out)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element_mask(self, items) -> int:
        mask = 0
        for x in items:
            try:
                mask |= 1 << self.index[x]
            except KeyError:
                raise ValueError(f"{x!r} is not an element of this poset") from None
        return mask

    def members(self, state) -> tuple:
        """Decode a mask into its elements, in element order."""
        if not 0 <= state <= self.full_mask:
            raise ValueError(f"mask {state} is outside 0..{self.full_mask}")
        return tuple(self.elements[i] for i in iter_bits(state))

    # -- ideal / antichain machinery --------------------------------------
    # the antichain check reads only the kernels down_closure,
    # maximal_elements and minimal_elements_of_complement, so a subclass
    # that overrides those three and enumeration needs no cover or order
    # table.

    def is_antichain_mask(self, mask: int) -> bool:
        return (0 <= mask <= self.full_mask
                and self.maximal_elements(self.down_closure(mask)) == mask)

    def antichain(self, items) -> int:
        """The mask of an element set, validating incomparability."""
        mask = self.element_mask(items)
        if not self.is_antichain_mask(mask):
            raise ValueError("element set contains a comparable pair")
        return mask

    def down_closure(self, mask: int) -> int:
        """Smallest order ideal containing the elements of mask."""
        ideal = 0
        for i in iter_bits(mask):
            ideal |= self.below[i]
        return ideal

    def maximal_elements(self, ideal: int) -> int:
        """Maximal elements of an order ideal (the inverse of down_closure)."""
        mask = 0
        for i in iter_bits(ideal):
            if not (self.up_covers[i] & ideal):
                mask |= 1 << i
        return mask

    def minimal_elements_of_complement(self, ideal: int) -> int:
        """Minimal elements of the complement of an order ideal."""
        mask = 0
        comp = self.full_mask & ~ideal
        for i in iter_bits(comp):
            if self.down_covers[i] & ~ideal:
                continue
            mask |= 1 << i
        return mask

    def enumerate_order_ideals(self, guard: int | None = None) -> list[int]:
        """All order ideals, sorted by ascending mask value.

        One sweep along the linear extension: every prefix is an ideal, and
        the ideals of the next prefix are the old ones plus its new element
        i added to each old ideal that holds all of i's lower covers. So
        each ideal is built once; one sort at the end puts them in mask
        order, which the extension need not follow. Raises GuardExceeded
        before a step would pass `guard` ideals, so none of that step's
        ideals is built.
        """
        guard = DEFAULT_ENUMERATION_GUARD if guard is None else guard
        ideals = [0]
        for i in self._extension:
            covers, bit = self.down_covers[i], 1 << i
            grown = [m for m in ideals if m & covers == covers]
            if len(ideals) + len(grown) > guard:
                raise GuardExceeded(f"more than {guard} order ideals; raise the guard to proceed")
            ideals += [m | bit for m in grown]
        ideals.sort()
        return ideals

    def enumerate_antichains(self, guard: int | None = None) -> list[int]:
        """All antichains, sorted by ascending mask value.

        Images of the order ideals under maximal_elements; this is the
        standard bijection, so the counts agree.
        """
        chains = [self.maximal_elements(i) for i in self.enumerate_order_ideals(guard)]
        chains.sort()
        return chains


class GridPoset(FinitePoset):
    """The product of two chains [a] x [b].

    Elements are the pairs (k, l) with 1 <= k <= a and 1 <= l <= b, listed
    in lexicographic order (which is itself a linear extension), so (k, l)
    is bit (k - 1) * b + (l - 1) of every mask: row k is a run of b bits,
    and the cover moves raise one coordinate by 1, which is a shift left by
    1 inside a row or by b across rows. The file of (k, l) is l - k and
    ranges over [1 - a, b - 1].

    The three kernels (down_closure, maximal_elements,
    minimal_elements_of_complement) and enumeration are shift-and-mask
    operations on that layout, and every other query FinitePoset derives
    from the kernels. So a grid stores its elements, their index and a few
    masks, and builds no cover list or per-element order table; the
    generic FinitePoset code stays the reference for the kernels.
    """

    def __init__(self, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError("both chain lengths must be at least 1")
        self.a = a
        self.b = b
        self.elements = tuple((k, l) for k in range(1, a + 1) for l in range(1, b + 1))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.full_mask = (1 << a * b) - 1
        # masks for the kernels
        self.col1 = self.element_mask(self.negative_fiber(1))
        self.lastcol = self.element_mask(self.negative_fiber(b))
        self.row1 = self.element_mask(self.positive_fiber(1))
        # down closure smear: column shifts by b, 2b, 4b, ..., then row shifts
        # by s = 1, 2, 4, ... keeping only destination columns below b - s,
        # where the shifted bit came from the same row
        self._column_shifts = tuple(b << j for j in range(a.bit_length()) if b << j < a * b)
        self._row_lanes = tuple(
            (s, self.element_mask((k, l) for k in range(1, a + 1) for l in range(1, b - s + 1)))
            for s in (1 << j for j in range(b.bit_length())) if s < b)
        # state_text's fragments: every element as "[k,l]", comma-joined in
        # bit order, so a run of consecutive bits is one slice of _text
        cells = [f"[{k},{l}]" for k, l in self.elements]
        self._text = ",".join(cells)
        self._text_starts = list(accumulate((len(c) + 1 for c in cells), initial=0))

    @property
    def files(self) -> range:
        """File indices, leftmost (1 - a) to rightmost (b - 1)."""
        return range(1 - self.a, self.b)

    def file_mask(self, f: int) -> int:
        """Mask of file f: the elements (k, k + f), over its own rows only."""
        if not 1 - self.a <= f <= self.b - 1:
            raise ValueError(f"file index {f} outside [{1 - self.a}, {self.b - 1}]")
        rows = range(max(1, 1 - f), min(self.a, self.b - f) + 1)
        return sum(1 << (k - 1) * (self.b + 1) + f for k in rows)  # the bit of (k, k + f)

    def positive_fiber(self, k: int) -> tuple:
        """The chain {(k, l) : 1 <= l <= b}."""
        if not 1 <= k <= self.a:
            raise ValueError(f"positive fiber index {k} out of range")
        return tuple((k, l) for l in range(1, self.b + 1))

    def negative_fiber(self, l: int) -> tuple:
        """The chain {(k, l) : 1 <= k <= a}."""
        if not 1 <= l <= self.b:
            raise ValueError(f"negative fiber index {l} out of range")
        return tuple((k, l) for k in range(1, self.a + 1))

    def opposite(self, x):
        """180-degree rotation: (k, l) -> (a + 1 - k, b + 1 - l)."""
        self.element_mask((x,))  # refuses a non-element
        k, l = x
        return (self.a + 1 - k, self.b + 1 - l)

    def enumerate_order_ideals(self, guard: int | None = None) -> list[int]:
        """All order ideals, sorted by ascending mask value.

        An ideal is a partition in the a x b box, b >= r_1 >= ... >= r_a >= 0,
        whose row k holds the lowest r_k bits of that row. The masks are
        built row by row from the bottom; a higher row is worth more than
        all rows below it, so listing its lengths in ascending order over
        sorted lists of the rows below keeps the result sorted. The masks
        whose top row has length >= r are then a suffix of the list.
        """
        check_grid_guard(self.a, self.b, guard)
        b = self.b
        # starts[r]: where the masks whose top row has length >= r begin
        masks, starts = [0], [0] * (b + 1)
        for shift in range(0, self.a * b, b):
            # an empty new row keeps every mask as it is; longer ones append
            end, starts_next = len(masks), [0]
            for r in range(1, b + 1):
                starts_next.append(len(masks))
                row = ((1 << r) - 1) << shift
                masks += [row | m for m in masks[starts[r]:end]]
            starts = starts_next
        return masks

    def down_closure(self, m: int) -> int:
        for s in self._column_shifts:
            m |= m >> s
        for s, keep in self._row_lanes:
            m |= (m >> s) & keep
        return m

    def maximal_elements(self, ideal: int) -> int:
        return ideal & ~((ideal >> 1) & ~self.lastcol) & ~(ideal >> self.b)

    def minimal_elements_of_complement(self, ideal: int) -> int:
        m, full, col1 = ideal, self.full_mask, self.col1
        return (full & ~m & (((m << 1) & ~col1) | col1)
                & (((m << self.b) & full) | self.row1))

    # -- serialization helpers -------------------------------------------

    def state_pairs(self, state) -> list[list[int]]:
        """A mask as a sorted list of [k, l] pairs (JSON shape)."""
        return [[k, l] for (k, l) in self.members(state)]

    def state_text(self, state) -> str:
        """state_pairs as compact JSON text, "[[1,1],[1,2]]": one slice of
        the cached element text per run of consecutive bits, and an ideal or
        an antichain has at most one run per row."""
        if not 0 <= state <= self.full_mask:
            raise ValueError(f"mask {state} is outside 0..{self.full_mask}")
        text, starts, runs = self._text, self._text_starts, []
        while state:
            low = state & -state
            above = state + low  # the run carried into the bit past its top
            runs.append(text[starts[low.bit_length() - 1]:
                             starts[(above & -above).bit_length() - 1] - 1])
            state &= above
        return "[" + ",".join(runs) + "]"
