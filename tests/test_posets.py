"""Poset construction, ideal/antichain machinery, and the grid poset."""
import json
import math
import re
import sys
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from homomesy import dynamics, posets
from homomesy.guards import GuardExceeded
from homomesy.posets import FinitePoset, GridPoset, iter_bits
from reference import ideal_of, is_ideal_mask, leq, linear_extension, plain_poset


GRID_SIZES = [(a, b) for a in range(1, 7) for b in range(1, 7)]
THIN_GRID_SIZES = [(1, 12), (12, 1), (2, 9), (9, 2)]


def brute_down_closure(poset, items):
    out = set()
    for y in items:
        for x in poset.elements:
            if leq(poset, x, y):
                out.add(x)
    return out


@pytest.fixture
def diamond():
    # bottom, two middles, top
    return FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@pytest.fixture
def vee():
    return FinitePoset(["bot", "l", "r"], [("bot", "l"), ("bot", "r")])


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_iter_bits_refuses_a_negative_mask():
    # a negative int has infinitely many set bits; next() keeps this finite
    with pytest.raises(ValueError, match="^negative mask -1$"):
        next(iter_bits(-1))


class TestConstruction:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FinitePoset(["x", "x"], [])

    def test_unknown_cover_rejected(self):
        with pytest.raises(ValueError, match="unknown element"):
            FinitePoset(["x"], [("x", "y")])

    def test_self_cover_rejected(self):
        with pytest.raises(ValueError, match="cannot cover itself"):
            FinitePoset(["x"], [("x", "x")])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FinitePoset("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_leq(self, diamond):
        assert leq(diamond, "a", "d")
        assert leq(diamond, "a", "a")
        assert not leq(diamond, "b", "c")
        assert not leq(diamond, "d", "a")
        with pytest.raises(ValueError):
            leq(diamond, "a", "zz")


class TestLinearExtension:
    def test_is_a_linear_extension(self, diamond):
        order = linear_extension(diamond)
        pos = {x: i for i, x in enumerate(order)}
        for x in diamond.elements:
            for y in diamond.elements:
                if leq(diamond, x, y):
                    assert pos[x] <= pos[y]

    def test_index_lex_smallest(self):
        # three incomparable chains; brute-force the lex-least extension
        poset = FinitePoset("fedcba", [("f", "c"), ("e", "b"), ("d", "a")])
        valid = []
        for perm in permutations(range(6)):
            pos = {i: n for n, i in enumerate(perm)}
            if all(
                pos[poset.index[x]] < pos[poset.index[y]]
                for x in "fedcba"
                for y in "cba"
                if leq(poset, x, y) and x != y
            ):
                valid.append(perm)
        expected = min(valid)
        assert tuple(poset.index[x] for x in linear_extension(poset)) == expected


class TestIdealsAndAntichains:
    def test_is_ideal_mask_matches_definition(self):
        poset = GridPoset(2, 3)
        for mask in range(1 << len(poset)):
            members = set(poset.members(mask))
            closed = all(
                x in members
                for y in members
                for x in poset.elements
                if leq(poset, x, y)
            )
            assert is_ideal_mask(poset, mask) == closed

    def test_is_antichain_mask_matches_definition(self):
        poset = GridPoset(2, 3)
        for mask in range(1 << len(poset)):
            members = list(poset.members(mask))
            ok = all(
                not (leq(poset, x, y) or leq(poset, y, x))
                for i, x in enumerate(members)
                for y in members[i + 1:]
            )
            assert poset.is_antichain_mask(mask) == ok

    def test_ideal_constructor_validates(self, diamond):
        assert ideal_of(diamond, ["a", "b"]) == 0b0011
        with pytest.raises(ValueError, match="down-closed"):
            ideal_of(diamond, ["b"])
        with pytest.raises(ValueError, match="not an element"):
            ideal_of(diamond, ["zz"])

    def test_antichain_constructor_validates(self, diamond):
        assert diamond.antichain(["b", "c"]) == 0b0110
        with pytest.raises(ValueError, match="comparable"):
            diamond.antichain(["a", "b"])

    def test_down_closure(self, diamond):
        assert diamond.down_closure(diamond.element_mask(["d"])) == diamond.full_mask
        assert diamond.down_closure(diamond.element_mask(["b", "c"])) == 0b0111
        assert diamond.down_closure(0) == 0
        # idempotent on ideals
        ideal = ideal_of(diamond, ["a", "b"])
        assert diamond.down_closure(ideal) == ideal

    def test_down_closure_matches_brute_force(self):
        poset = GridPoset(3, 3)
        for chain in poset.enumerate_antichains():
            got = set(poset.members(poset.down_closure(chain)))
            assert got == brute_down_closure(poset, poset.members(chain))

    def test_maximal_elements(self, vee):
        full = ideal_of(vee, ["bot", "l", "r"])
        assert set(vee.members(vee.maximal_elements(full))) == {"l", "r"}
        assert vee.maximal_elements(0) == 0

    def test_minimal_elements_of_complement(self, vee):
        assert set(vee.members(vee.minimal_elements_of_complement(0))) == {"bot"}
        full = ideal_of(vee, ["bot", "l", "r"])
        assert vee.minimal_elements_of_complement(full) == 0

    def test_ideal_antichain_bijection(self):
        poset = GridPoset(3, 2)
        ideals = poset.enumerate_order_ideals()
        for ideal in ideals:
            chain = poset.maximal_elements(ideal)
            assert poset.is_antichain_mask(chain)
            assert poset.down_closure(chain) == ideal
        chains = poset.enumerate_antichains()
        assert sorted(chains) == sorted(poset.maximal_elements(i) for i in ideals)

    def test_enumeration_counts(self):
        # an n-element antichain has 2^n ideals, an n-chain has n+1
        loose = FinitePoset(range(4), [])
        assert len(loose.enumerate_order_ideals()) == 16
        chain = FinitePoset(range(5), [(i, i + 1) for i in range(4)])
        assert len(chain.enumerate_order_ideals()) == 6

    def test_enumeration_sorted_and_distinct(self):
        poset = GridPoset(2, 4)
        ideals = poset.enumerate_order_ideals()
        assert ideals == sorted(set(ideals))

    def test_enumeration_guard(self):
        poset = FinitePoset(range(8), [])
        with pytest.raises(GuardExceeded):
            poset.enumerate_order_ideals(guard=10)


class TestGridPoset:
    def test_rejects_empty_chains(self):
        with pytest.raises(ValueError):
            GridPoset(0, 3)

    def test_files_partition_elements(self):
        poset = GridPoset(3, 4)
        assert list(poset.files) == list(range(-2, 4))
        seen = []
        for f in poset.files:
            members = poset.members(poset.file_mask(f))
            assert all(l - k == f for k, l in members)
            ranks = [sum(x) for x in members]
            assert ranks == sorted(ranks)
            seen.extend(members)
        assert sorted(seen) == sorted(poset.elements)

    @pytest.mark.parametrize("a,b", GRID_SIZES + THIN_GRID_SIZES)
    def test_file_members_match_the_rank_sorted_construction(self, a, b):
        poset = GridPoset(a, b)
        for f in poset.files:
            # the construction the file tables were built with before they became masks
            pairs = sorted((x for x in poset.elements if x[1] - x[0] == f), key=sum)
            assert poset.members(poset.file_mask(f)) == tuple(pairs)
            assert poset.file_mask(f) == poset.element_mask(pairs)

    def test_file_mask(self):
        poset = GridPoset(2, 2)
        assert poset.members(poset.file_mask(0)) == ((1, 1), (2, 2))

    def test_fibers(self):
        poset = GridPoset(3, 2)
        assert poset.positive_fiber(2) == ((2, 1), (2, 2))
        assert poset.negative_fiber(1) == ((1, 1), (2, 1), (3, 1))
        with pytest.raises(ValueError):
            poset.positive_fiber(4)
        with pytest.raises(ValueError):
            poset.negative_fiber(0)

    def test_opposite_is_an_order_reversing_involution(self):
        poset = GridPoset(3, 4)
        for x in poset.elements:
            assert poset.opposite(poset.opposite(x)) == x
        for x in poset.elements:
            for y in poset.elements:
                assert leq(poset, x, y) == leq(poset, poset.opposite(y), poset.opposite(x))

    @pytest.mark.parametrize("x", [(4, 1), (0, 0), "a"], ids=repr)
    def test_opposite_names_a_non_element(self, x):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(x))} is not an element of this poset$"):
            GridPoset(3, 4).opposite(x)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 4), (5, 2)])
    def test_ideal_count(self, a, b):
        poset = GridPoset(a, b)
        assert len(poset.enumerate_order_ideals()) == math.comb(a + b, a)

    def test_precheck_guard(self):
        poset = GridPoset(4, 4)
        with pytest.raises(GuardExceeded, match="70 ideals"):
            poset.enumerate_order_ideals(guard=69)

    def test_precheck_guard_on_antichains(self):
        poset = GridPoset(4, 4)
        with pytest.raises(GuardExceeded, match="70 ideals"):
            poset.enumerate_antichains(guard=69)
        assert len(poset.enumerate_antichains(guard=70)) == 70

    def test_enumeration_never_runs_the_generic_walk(self, monkeypatch):
        def refuse(self, guard=None):
            raise AssertionError("the generic ideal sweep ran")

        monkeypatch.setattr(FinitePoset, "enumerate_order_ideals", refuse)
        poset = GridPoset(4, 5)
        assert len(poset.enumerate_order_ideals()) == 126
        assert len(poset.enumerate_antichains()) == 126

    def test_file_index_out_of_range(self):
        poset = GridPoset(2, 3)
        with pytest.raises(ValueError, match=r"file index 5 outside \[-1, 2\]"):
            poset.file_mask(5)
        with pytest.raises(ValueError, match=r"file index -7 outside \[-1, 2\]"):
            poset.file_mask(-7)
        assert poset.members(poset.file_mask(-1)) == ((2, 1),)

    def test_opposite_rejects_non_elements(self):
        poset = GridPoset(2, 3)
        with pytest.raises(ValueError, match="not an element"):
            poset.opposite((9, 9))
        assert poset.opposite((1, 1)) == (2, 3)

    def test_state_pairs(self):
        poset = GridPoset(2, 2)
        ideal = ideal_of(poset, [(1, 1), (1, 2)])
        assert poset.state_pairs(ideal) == [[1, 1], [1, 2]]


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 9 - 1))
def test_down_closure_of_any_subset_is_an_ideal(a, b, bits):
    poset = GridPoset(a, b)
    items = [x for i, x in enumerate(poset.elements) if bits >> i & 1]
    ideal = poset.down_closure(poset.element_mask(items))
    assert is_ideal_mask(poset, ideal)
    assert set(poset.members(ideal)) == brute_down_closure(poset, items)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 9 - 1))
def test_maximal_elements_form_an_antichain(a, b, bits):
    poset = GridPoset(a, b)
    items = [x for i, x in enumerate(poset.elements) if bits >> i & 1]
    ideal = poset.down_closure(poset.element_mask(items))
    chain = poset.maximal_elements(ideal)
    assert poset.is_antichain_mask(chain)
    assert poset.down_closure(chain) == ideal


class TestGridKernelsMatchGeneric:
    """The GridPoset shift-and-mask kernels against the FinitePoset code on
    the same poset built from the grid's covers."""

    @pytest.mark.parametrize("a,b", GRID_SIZES + THIN_GRID_SIZES)
    def test_enumerations(self, a, b):
        grid = GridPoset(a, b)
        plain = plain_poset(grid)
        assert grid.enumerate_order_ideals() == plain.enumerate_order_ideals()
        assert grid.enumerate_antichains() == plain.enumerate_antichains()

    @pytest.mark.parametrize("a,b", GRID_SIZES)
    def test_bijection_kernels(self, a, b):
        grid = GridPoset(a, b)
        plain = plain_poset(grid)
        for ideal in plain.enumerate_order_ideals():
            assert grid.maximal_elements(ideal) == plain.maximal_elements(ideal)
            assert grid.minimal_elements_of_complement(ideal) == \
                plain.minimal_elements_of_complement(ideal)
        for chain in plain.enumerate_antichains():
            assert grid.down_closure(chain) == plain.down_closure(chain)

    def test_down_closure_of_elements_is_still_validated(self):
        grid = GridPoset(2, 2)
        with pytest.raises(ValueError, match="not an element"):
            grid.down_closure(grid.element_mask([(3, 1)]))

    @pytest.mark.parametrize("a,b", GRID_SIZES)
    def test_leq_is_the_product_order(self, a, b):
        # the brute-force references in this file read leq, so pin it to coordinates
        grid = GridPoset(a, b)
        for x in grid.elements:
            for y in grid.elements:
                assert leq(grid, x, y) == (x[0] <= y[0] and x[1] <= y[1])


@pytest.mark.parametrize("poset", [GridPoset(2, 2), plain_poset(GridPoset(2, 2))],
                         ids=["grid", "generic"])
def test_a_mask_outside_the_poset_is_neither_ideal_nor_antichain(poset):
    for mask in (-1, 1 << 4, 1 << 5, 0b1 | 1 << 4):
        assert not is_ideal_mask(poset, mask)
        assert not poset.is_antichain_mask(mask)


@pytest.mark.parametrize("poset", [GridPoset(2, 2), plain_poset(GridPoset(2, 2))],
                         ids=["grid", "generic"])
def test_members_refuses_a_mask_outside_the_poset(poset):
    assert poset.members(poset.full_mask) == poset.elements
    for mask in (-1, poset.full_mask + 1):
        with pytest.raises(ValueError, match=rf"^mask {mask} is outside 0\.\.15$"):
            poset.members(mask)


@pytest.mark.parametrize("a,b", GRID_SIZES + [(1, 9), (9, 1)])
def test_state_text_is_the_compact_json_of_state_pairs(a, b):
    poset = GridPoset(a, b)
    for state in poset.enumerate_order_ideals() + poset.enumerate_antichains():
        assert poset.state_text(state) == json.dumps(poset.state_pairs(state),
                                                     separators=(",", ":"))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16 - 1))
def test_state_text_reads_any_mask_in_range(a, b, bits):
    # a mask that is neither an ideal nor an antichain may hold several runs per row
    poset = GridPoset(a, b)
    state = bits & poset.full_mask
    assert poset.state_text(state) == json.dumps(poset.state_pairs(state),
                                                 separators=(",", ":"))


def test_state_text_refuses_a_mask_as_members_does():
    poset = GridPoset(3, 4)
    assert poset.state_text(0) == "[]"
    for mask in (-1, poset.full_mask + 1):
        with pytest.raises(ValueError) as text_refusal:
            poset.state_text(mask)
        with pytest.raises(ValueError) as members_refusal:
            poset.members(mask)
        assert str(text_refusal.value) == str(members_refusal.value) == \
            f"mask {mask} is outside 0..4095"


class TestGridBuildsNoGenericTables:
    """A grid answers every query from its kernel masks, so it builds no
    cover list and no per-element order table."""

    def test_no_cover_walk(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the generic linear extension ran")

        monkeypatch.setattr(FinitePoset, "_smallest_linear_extension", refuse)
        grid = GridPoset(4, 5)
        assert leq(grid, (1, 2), (3, 4)) and not leq(grid, (2, 1), (1, 5))
        assert ideal_of(grid, [(1, 1), (1, 2), (2, 1)]) == 0b1 | 0b10 | 1 << 5
        with pytest.raises(ValueError, match="not down-closed"):
            ideal_of(grid, [(2, 2)])
        assert grid.antichain([(1, 3), (2, 1)]) == 0b100 | 1 << 5
        with pytest.raises(ValueError, match="comparable pair"):
            grid.antichain([(1, 1), (2, 2)])
        assert len(grid.enumerate_antichains()) == math.comb(9, 4)

    def test_construction_is_small(self):
        tracemalloc.start()
        try:
            grid = GridPoset(1, 3000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(grid) == 3000
        assert held < 2_500_000

    def test_no_mask_per_file(self):
        # a mask per file would hold O((a + b) * ab) bits: 30 MiB here
        tracemalloc.start()
        try:
            grid = GridPoset(1, 20000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(grid) == 20000
        assert held < 5_000_000


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16 - 1))
def test_down_closure_of_any_mask_matches_brute_force(a, b, bits):
    poset = GridPoset(a, b)
    mask = bits & poset.full_mask
    got = poset.down_closure(mask)
    assert set(poset.members(got)) == brute_down_closure(poset, poset.members(mask))


def posets_line_events(fn) -> int:
    """Line events that fn() runs in posets.py: a count of the Python-level
    steps the grid code takes, which no clock speed can blur."""
    return line_events(fn, posets)


def line_events(fn, *modules) -> int:
    """Line events that fn() runs in the given modules."""
    files = {module.__file__ for module in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


class TestPromotionCost:
    def test_one_step_costs_the_same_on_any_width(self):
        # two shifts and a branch: no loop over the a + b - 1 files; (2, 1)
        # in the ideal takes one branch, (1, 1) alone the other
        def one_step(a, b, generator):
            poset = GridPoset(a, b)
            ideal = poset.down_closure(poset.element_mask([generator]))
            return line_events(lambda: dynamics.promotion_ideal(poset, ideal), dynamics, posets)

        for generator in ((1, 1), (2, 1)):
            assert one_step(2, 400, generator) == one_step(2, 20, generator)


@st.composite
def drawn_posets(draw):
    """A poset on 0..n-1, n <= 8, whose covers follow a drawn order of the
    elements, so index order need not be a linear extension."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return FinitePoset(range(n), covers)


class TestGenericSweep:
    """FinitePoset builds each ideal once along its linear extension and
    sorts once; TestGridKernelsMatchGeneric and the toggle tests compare
    against it."""

    @given(drawn_posets())
    def test_enumerations_match_the_mask_checks(self, poset):
        masks = range(poset.full_mask + 1)
        ideals = poset.enumerate_order_ideals()
        assert ideals == [m for m in masks if is_ideal_mask(poset, m)]
        chains = poset.enumerate_antichains()
        assert chains == [m for m in masks if poset.is_antichain_mask(m)]

    def test_each_ideal_costs_a_few_line_events(self):
        poset = FinitePoset(range(12), [])
        events = posets_line_events(poset.enumerate_order_ideals)
        assert events < 4 * 4096

    def test_guard_edge(self):
        poset = FinitePoset(range(8), [])
        with pytest.raises(GuardExceeded, match="more than 255 order ideals"):
            poset.enumerate_order_ideals(guard=255)
        assert len(poset.enumerate_order_ideals(guard=256)) == 256

    def test_a_refused_step_builds_none_of_its_ideals(self):
        # the last of 17 steps would double 65,536 ideals past the guard. The
        # 16 steps before it scan and build about 2 x 65,536 ideals in all;
        # the refused step may scan its 65,536 once more (1.5x), but building
        # them too would double the count
        sixteen = posets_line_events(FinitePoset(range(16), []).enumerate_order_ideals)
        poset = FinitePoset(range(17), [])

        def refused():
            with pytest.raises(GuardExceeded, match="more than 70000 order ideals"):
                poset.enumerate_order_ideals(guard=70000)

        assert posets_line_events(refused) < 1.75 * sixteen


class TestThinGrids:
    """[a]x[1] and [1]x[b] hold only a + 1 or b + 1 ideals; building the
    poset and listing them stays linear in that count. The generic sweep
    checks their results in TestGridKernelsMatchGeneric."""

    def test_file_masks_scan_only_their_own_rows(self):
        # file f reads only the rows k with 1 <= k + f <= b
        small = posets_line_events(lambda: GridPoset(200, 1))
        large = posets_line_events(lambda: GridPoset(400, 1))
        assert large < 3 * small

    def test_each_file_mask_scans_only_its_own_rows(self):
        def all_file_masks(poset):
            return lambda: [poset.file_mask(f) for f in poset.files]

        small, large = GridPoset(200, 1), GridPoset(400, 1)
        assert posets_line_events(all_file_masks(large)) < \
            3 * posets_line_events(all_file_masks(small))

    def test_an_empty_new_row_copies_no_mask(self):
        # an empty new row keeps the masks below it; only longer rows build new ones
        small, large = GridPoset(200, 1), GridPoset(400, 1)
        assert posets_line_events(large.enumerate_order_ideals) < \
            3 * posets_line_events(small.enumerate_order_ideals)

    def test_one_row_keeps_one_list(self):
        # one list and a start per row length: no copy of the list per length
        poset = GridPoset(1, 3000)
        tracemalloc.start()
        try:
            ideals = poset.enumerate_order_ideals()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ideals) == 3001
        assert peak < 6_000_000
