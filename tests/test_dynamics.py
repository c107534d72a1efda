"""Toggles, rowmotion, promotion, and the word correspondences."""
import pytest
from hypothesis import given, strategies as st

from homomesy.dynamics import (
    MINUS,
    PLUS,
    antichain_from_st_word,
    cyclic_shift,
    format_pm_word,
    ideal_from_sign_word,
    parse_pm_word,
    promotion_antichain,
    promotion_ideal,
    require_pm_word,
    rowmotion_antichain,
    rowmotion_ideal,
    sign_word,
    stanley_thomas_word,
)
from homomesy.posets import Antichain, FinitePoset, GridPoset, OrderIdeal
from reference import (
    block_gap_reversal,
    grid_covers,
    height_function,
    ideal_of,
    is_ideal_mask,
    plain_poset,
    rowmotion_ideal_by_ranks,
    rowmotion_ideal_by_toggles,
    toggle,
)

pm_word_strategy = st.lists(st.sampled_from([PLUS, MINUS]), max_size=14).map(tuple)
DIAMOND = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
VEE = FinitePoset(["bot", "l", "r"], [("bot", "l"), ("bot", "r")])


def reference_promotion_ideal(poset, ideal):
    """Promotion as single-element toggles: files left to right, bottom to
    top inside each file."""
    for f in poset.files:
        for x in poset.members(poset.file_mask(f)):
            ideal = toggle(poset, ideal, x)
    return ideal


def run_exchange_reversal(word):
    """Test oracle for block_gap_reversal, computed the padded-runs way:
    prepend +, append -, swap the i-th run of +'s with the i-th run of -'s,
    then drop the leading - and trailing +."""
    padded = (PLUS,) + tuple(word) + (MINUS,)
    runs = []
    for letter in padded:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    # padded starts with + and ends with -, so runs alternate +,-,+,-,...
    out = []
    for i in range(0, len(runs), 2):
        plus_len, minus_len = runs[i][1], runs[i + 1][1]
        out.extend([MINUS] * minus_len)
        out.extend([PLUS] * plus_len)
    assert out[0] == MINUS and out[-1] == PLUS
    return tuple(out[1:-1])


@st.composite
def small_posets(draw):
    """A poset on 0..n-1 whose relations follow a drawn order of the
    elements, so index order need not be a linear extension."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return FinitePoset(range(n), covers)


def assert_toggles_flip_when_the_result_is_an_ideal(poset):
    ideals = poset.enumerate_order_ideals()  # the sweep reads the covers, not the kernels
    for ideal in ideals:
        for x in poset.elements:
            flipped = ideal ^ poset.element_mask((x,))
            assert toggle(poset, ideal, x) == (flipped if flipped in ideals else ideal)


class TestToggles:
    @pytest.mark.parametrize("poset", [DIAMOND, VEE], ids=["diamond", "vee"])
    def test_toggle_flips_exactly_when_the_result_is_an_ideal(self, poset):
        assert_toggles_flip_when_the_result_is_an_ideal(poset)

    @given(small_posets())
    def test_toggle_on_drawn_posets(self, poset):
        assert_toggles_flip_when_the_result_is_an_ideal(poset)

    def test_toggle_requires_known_element(self):
        poset = GridPoset(2, 2)
        with pytest.raises(ValueError):
            toggle(poset, OrderIdeal(0), (9, 9))

    @pytest.mark.parametrize("poset", [GridPoset(2, 2), DIAMOND], ids=["grid", "diamond"])
    def test_a_non_element_is_named_by_the_element_check(self, poset):
        with pytest.raises(ValueError, match=r"^\(9, 9\) is not an element of this poset$"):
            toggle(poset, OrderIdeal(0), (9, 9))

    def test_toggle_is_an_involution(self):
        poset = GridPoset(3, 3)
        for ideal in poset.enumerate_order_ideals():
            for x in poset.elements:
                once = toggle(poset, ideal, x)
                assert is_ideal_mask(poset, once.mask)
                assert toggle(poset, once, x) == ideal

    def test_toggles_commute_unless_covering(self):
        poset = GridPoset(3, 3)
        covers = set(grid_covers(poset))
        for x in poset.elements:
            for y in poset.elements:
                if x == y or (x, y) in covers or (y, x) in covers:
                    continue
                for ideal in poset.enumerate_order_ideals():
                    xy = toggle(poset, toggle(poset, ideal, x), y)
                    yx = toggle(poset, toggle(poset, ideal, y), x)
                    assert xy == yx


class TestRowmotionRoutes:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (3, 4)])
    def test_three_formulations_agree(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            direct = rowmotion_ideal(poset, ideal)
            assert rowmotion_ideal_by_toggles(poset, ideal) == direct
            assert rowmotion_ideal_by_ranks(poset, ideal) == direct

    def test_toggle_route_is_extension_independent(self):
        # a non-grid poset: one bottom, three incomparable middles, one top
        poset = FinitePoset(
            "zabct",
            [("z", "a"), ("z", "b"), ("z", "c"), ("a", "t"), ("b", "t"), ("c", "t")],
        )
        from itertools import permutations

        extensions = [
            ("z",) + mid + ("t",) for mid in permutations("abc")
        ]
        for ideal in poset.enumerate_order_ideals():
            want = rowmotion_ideal(poset, ideal)
            for ext in extensions:
                assert rowmotion_ideal_by_toggles(poset, ideal, ext) == want

    def test_toggle_route_rejects_bad_extension(self):
        poset = GridPoset(2, 2)
        with pytest.raises(ValueError, match="not a linear extension"):
            rowmotion_ideal_by_toggles(poset, OrderIdeal(0),
                                       [(2, 2), (1, 1), (1, 2), (2, 1)])
        with pytest.raises(ValueError, match="every element"):
            rowmotion_ideal_by_toggles(poset, OrderIdeal(0), [(1, 1)])

    def test_toggle_route_refuses_a_repeated_element(self):
        abc = ideal_of(DIAMOND, "abc")
        assert rowmotion_ideal_by_toggles(DIAMOND, abc) == DIAMOND.full_mask
        with pytest.raises(ValueError, match="every element once"):
            rowmotion_ideal_by_toggles(DIAMOND, abc, ["a", "a", "b", "c"])

    def test_toggle_route_names_an_unknown_element(self):
        with pytest.raises(ValueError, match="'z' is not an element"):
            rowmotion_ideal_by_toggles(DIAMOND, OrderIdeal(0), ["a", "b", "c", "z"])

    def test_rank_route_requires_grid(self):
        poset = FinitePoset("ab", [("a", "b")])
        with pytest.raises(ValueError, match="grid"):
            rowmotion_ideal_by_ranks(poset, OrderIdeal(0))

    def test_ideal_and_antichain_rowmotion_intertwine(self):
        # Phi_A acts on maximal elements the way Phi_J acts on ideals:
        # A(Phi_J(I)) is the image of A(I) shifted one step around the cycle
        poset = GridPoset(3, 3)
        for ideal in poset.enumerate_order_ideals():
            chain = poset.maximal_elements(ideal)
            assert rowmotion_antichain(poset, chain) == \
                poset.minimal_elements_of_complement(ideal)

    def test_rowmotion_is_invertible(self):
        poset = GridPoset(3, 2)
        ideals = poset.enumerate_order_ideals()
        images = {rowmotion_ideal(poset, i) for i in ideals}
        assert len(images) == len(ideals)

    def test_orbit_sizes_divide_a_plus_b(self):
        from homomesy.engine import orbit_partition

        for a, b in [(2, 2), (3, 2), (4, 2), (3, 3)]:
            poset = GridPoset(a, b)
            orbits = orbit_partition(lambda s: rowmotion_ideal(poset, s),
                                     poset.enumerate_order_ideals())
            assert all((a + b) % o.period == 0 for o in orbits)


class TestPromotion:
    def test_promotion_requires_grid(self):
        poset = FinitePoset("ab", [("a", "b")])
        with pytest.raises(ValueError, match="grid"):
            promotion_ideal(poset, OrderIdeal(0))

    def test_promotion_order_divides_a_plus_b(self):
        poset = GridPoset(3, 4)
        for ideal in poset.enumerate_order_ideals():
            current = ideal
            for _ in range(poset.a + poset.b):
                current = promotion_ideal(poset, current)
            assert current == ideal

    def test_promotion_antichain_is_the_transported_map(self):
        poset = GridPoset(3, 2)
        for chain in poset.enumerate_antichains():
            direct = promotion_antichain(poset, chain)
            via_ideals = poset.maximal_elements(
                promotion_ideal(poset, poset.down_closure(chain)))
            assert direct == via_ideals


class TestGridKernelsMatchGeneric:
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
    def test_all_four_maps(self, a, b):
        grid = GridPoset(a, b)
        plain = plain_poset(grid)
        for ideal in plain.enumerate_order_ideals():
            assert rowmotion_ideal(grid, ideal) == rowmotion_ideal(plain, ideal)
            assert promotion_ideal(grid, ideal) == reference_promotion_ideal(grid, ideal)
        for chain in plain.enumerate_antichains():
            assert rowmotion_antichain(grid, chain) == rowmotion_antichain(plain, chain)
            assert promotion_antichain(grid, chain) == plain.maximal_elements(
                reference_promotion_ideal(grid, plain.down_closure(chain)))

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 4), (5, 2)])
    def test_every_result_is_a_state_of_its_kind(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            assert type(ideal) is OrderIdeal
            for tau in (rowmotion_ideal, promotion_ideal, rowmotion_ideal_by_ranks,
                        rowmotion_ideal_by_toggles):
                assert type(tau(poset, ideal)) is OrderIdeal
        for chain in poset.enumerate_antichains():
            assert type(chain) is Antichain
            for tau in (rowmotion_antichain, promotion_antichain):
                assert type(tau(poset, chain)) is Antichain

    @pytest.mark.parametrize("a,b", [(1, b) for b in range(1, 13)] + [(a, 1) for a in range(2, 13)]
                             + [(2, 9), (9, 2)])
    def test_promotion_on_thin_grids(self, a, b):
        # the rotation's edge cases: the top row is the bottom row, or the
        # last column is the first
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            assert promotion_ideal(poset, ideal) == reference_promotion_ideal(poset, ideal)


def reference_height_values(poset, ideal):
    """Heights by decoding the ideal's pairs and counting them per file."""
    counts = {f: 0 for f in poset.files}
    for k, l in poset.members(ideal):
        counts[l - k] += 1
    return tuple(abs(k) + 2 * counts.get(k, 0) for k in range(-poset.a, poset.b + 1))


class TestHeightFunction:
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
    def test_matches_the_pair_counting_loop(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            h = height_function(poset, ideal)
            assert h == reference_height_values(poset, ideal)
            word = sign_word(poset, ideal)
            assert ideal_from_sign_word(poset, word) == ideal


    def test_paper_conventions(self):
        poset = GridPoset(3, 2)
        h = height_function(poset, OrderIdeal(0))
        assert h == (3, 2, 1, 0, 1, 2)
        assert h[-3 + 3] == 3 and h[0 + 3] == 0 and h[2 + 3] == 2

    def test_total_identity(self):
        # sum of heights = a(a+1)/2 + b(b+1)/2 + 2 #I
        for a, b in [(1, 1), (2, 3), (3, 3), (4, 2)]:
            poset = GridPoset(a, b)
            base = a * (a + 1) // 2 + b * (b + 1) // 2
            for ideal in poset.enumerate_order_ideals():
                h = height_function(poset, ideal)
                assert sum(h) == base + 2 * len(ideal)

    def test_height_counts_file_members(self):
        poset = GridPoset(3, 3)
        ideal = poset.down_closure([(2, 2)])
        h = height_function(poset, ideal)
        for f in poset.files:
            members = sum(1 for x in poset.members(poset.file_mask(f))
                          if ideal.mask >> poset.index[x] & 1)
            assert h[f + poset.a] == abs(f) + 2 * members


class TestSignWords:
    def test_empty_and_full(self):
        poset = GridPoset(3, 2)
        assert sign_word(poset, OrderIdeal(0)) == (MINUS,) * 3 + (PLUS,) * 2
        full = OrderIdeal(poset.full_mask)
        assert sign_word(poset, full) == (PLUS,) * 2 + (MINUS,) * 3

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (2, 4), (3, 3)])
    def test_round_trip(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            word = sign_word(poset, ideal)
            assert word.count(MINUS) == a and word.count(PLUS) == b
            assert ideal_from_sign_word(poset, word) == ideal

    def test_bad_words_rejected(self):
        poset = GridPoset(2, 2)
        with pytest.raises(ValueError, match="must have"):
            ideal_from_sign_word(poset, (PLUS, PLUS, PLUS, MINUS))
        with pytest.raises(ValueError, match="must have"):
            ideal_from_sign_word(poset, (PLUS, MINUS))
        with pytest.raises(ValueError, match="letters"):
            ideal_from_sign_word(poset, (2, 0, 1, 1))

    def test_the_word_check_returns_the_word_as_a_tuple(self):
        assert require_pm_word(iter([MINUS, PLUS, PLUS]), 1, 2) == (MINUS, PLUS, PLUS)
        with pytest.raises(ValueError, match="word must have 1 minus letters and 2 plus"):
            require_pm_word([MINUS, MINUS, PLUS], 1, 2)

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3), (2, 4)])
    def test_promotion_is_the_left_shift(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            assert sign_word(poset, promotion_ideal(poset, ideal)) == \
                cyclic_shift(sign_word(poset, ideal), "left")

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3), (2, 4)])
    def test_rowmotion_is_the_block_gap_reversal(self, a, b):
        poset = GridPoset(a, b)
        for ideal in poset.enumerate_order_ideals():
            assert sign_word(poset, rowmotion_ideal(poset, ideal)) == \
                block_gap_reversal(sign_word(poset, ideal))

    def test_promotion_orbit_of_the_empty_ideal(self):
        poset = GridPoset(3, 2)
        words = []
        ideal = OrderIdeal(0)
        for _ in range(5):
            words.append(format_pm_word(sign_word(poset, ideal)))
            ideal = promotion_ideal(poset, ideal)
        assert ideal == OrderIdeal(0)
        assert words == ["---++", "--++-", "-++--", "++---", "+---+"]


class TestBlockGapReversal:
    def test_worked_example(self):
        word = parse_pm_word("-++---++")
        assert format_pm_word(block_gap_reversal(word)) == "+---++-+"

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            block_gap_reversal((PLUS, 0))

    def test_pure_runs_reverse_as_one_gap(self):
        assert block_gap_reversal(parse_pm_word("++---")) == parse_pm_word("---++")
        assert block_gap_reversal(()) == ()

    @given(pm_word_strategy)
    def test_matches_the_run_exchange_oracle(self, word):
        assert block_gap_reversal(word) == run_exchange_reversal(word)

    @given(pm_word_strategy)
    def test_preserves_the_letter_multiset(self, word):
        image = block_gap_reversal(word)
        assert sorted(image) == sorted(word)


def reference_stanley_thomas_word(poset, antichain):
    """The word read from the antichain's members: +1 at k <= a when some
    member lies in row k, +1 at a+l when no member lies in column l."""
    members = poset.members(antichain)
    pos = {k for (k, _) in members}
    neg = {l for (_, l) in members}
    head = tuple(PLUS if k in pos else MINUS for k in range(1, poset.a + 1))
    tail = tuple(MINUS if l in neg else PLUS for l in range(1, poset.b + 1))
    return head + tail


def reference_antichain_from_st_word(poset, word):
    """The inverse through element pairs: ascending +1 rows meet descending
    -1 columns."""
    rows = [k for k in range(1, poset.a + 1) if word[k - 1] == PLUS]
    cols = [l for l in range(1, poset.b + 1) if word[poset.a + l - 1] == MINUS]
    mask = 0
    for k, l in zip(rows, reversed(cols)):
        mask |= 1 << poset.index[(k, l)]
    return Antichain(mask)


class TestStanleyThomas:
    @pytest.mark.parametrize("a", range(1, 7))
    def test_matches_the_members_reading(self, a):
        for b in range(1, 7):
            poset = GridPoset(a, b)
            for chain in poset.enumerate_antichains():
                word = stanley_thomas_word(poset, chain)
                assert word == reference_stanley_thomas_word(poset, chain)
                assert antichain_from_st_word(poset, word) == \
                    reference_antichain_from_st_word(poset, word) == chain

    def test_worked_example_on_7_by_5(self):
        poset = GridPoset(7, 5)
        chain = poset.antichain([(1, 5), (5, 3), (6, 2)])
        word = stanley_thomas_word(poset, chain)
        assert format_pm_word(word) == "+---++-+--+-"
        image = rowmotion_antichain(poset, chain)
        assert set(poset.members(image)) == {(2, 4), (6, 3), (7, 1)}
        assert format_pm_word(stanley_thomas_word(poset, image)) == "-+---++-+--+"
        assert stanley_thomas_word(poset, image) == cyclic_shift(word, "right")

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3), (2, 4)])
    def test_rowmotion_is_the_right_shift(self, a, b):
        poset = GridPoset(a, b)
        for chain in poset.enumerate_antichains():
            assert stanley_thomas_word(poset, rowmotion_antichain(poset, chain)) == \
                cyclic_shift(stanley_thomas_word(poset, chain), "right")

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (2, 4)])
    def test_round_trip(self, a, b):
        poset = GridPoset(a, b)
        words = set()
        for chain in poset.enumerate_antichains():
            word = stanley_thomas_word(poset, chain)
            assert antichain_from_st_word(poset, word) == chain
            words.add(word)
        # bijectivity: every balanced word shows up
        import math

        assert len(words) == math.comb(a + b, a)


class TestWordUtilities:
    def test_cyclic_shift(self):
        assert cyclic_shift((1, 2, 3), "left") == (2, 3, 1)
        assert cyclic_shift((1, 2, 3), "right") == (3, 1, 2)
        with pytest.raises(ValueError):
            cyclic_shift((), "left")
        with pytest.raises(ValueError):
            cyclic_shift((1,), "up")

    def test_format_parse_round_trip(self):
        word = (PLUS, MINUS, MINUS, PLUS)
        assert parse_pm_word(format_pm_word(word)) == word

    def test_parse_accepts_digits_and_unicode_minus(self):
        assert parse_pm_word("10") == (PLUS, MINUS)
        assert parse_pm_word("+−") == (PLUS, MINUS)
        assert parse_pm_word(" + - ") == (PLUS, MINUS)
        with pytest.raises(ValueError, match="unexpected"):
            parse_pm_word("+x")

    def test_rowmotion_orbit_words_on_4_by_2(self):
        poset = GridPoset(4, 2)
        ideal = poset.down_closure([(2, 1)])
        words = []
        for _ in range(6):
            words.append(format_pm_word(sign_word(poset, ideal)))
            ideal = rowmotion_ideal(poset, ideal)
        assert ideal == poset.down_closure([(2, 1)])
        assert words == ["--+--+", "-+--+-", "+--+--", "-++---", "+----+", "---++-"]
