"""Every built-in state space is refused from its closed-form size.

Each enumerator is run at guard = size, where it must build the whole
space, and at guard = size - 1, where it must raise GuardExceeded naming
that size before its spy (the constructor or iterator that makes the
first state) is ever called.
"""
import math
from fractions import Fraction

import pytest

from homomesy import posets
from homomesy.cli import main
from homomesy.gallery import sandpile, suter, words
from homomesy.gallery.sandpile import SandpileGraph, sandpile_recurrents, stable_configurations
from homomesy.gallery.ssyt import SSYT, rect_tableaux
from homomesy.gallery.suter import staircase_diagrams
from homomesy.gallery.words import pm_words, reversal_inversions_system
from homomesy.guards import DEFAULT_ENUMERATION_GUARD, GuardExceeded, check_space_size
from homomesy.posets import GridPoset

# built before any spy is in place
GRID = GridPoset(3, 4)
K4 = SandpileGraph([(v, w, 1) for v in "abcd" for w in "abcd" if v != w], "d", "a")


def refuse(*args, **kwargs):
    raise AssertionError("a state was built before the guard check")


# (name, enumerator of guard, closed-form size, noun, module attributes to spy on)
SPACES = [
    ("grid ideals", GRID.enumerate_order_ideals, math.comb(7, 3), "ideals",
     [(posets, "OrderIdeal"), (posets, "range")]),
    ("grid antichains", GRID.enumerate_antichains, math.comb(7, 3), "ideals",
     [(posets, "OrderIdeal"), (posets, "Antichain"), (posets, "range")]),
    ("pm words", lambda guard: pm_words(3, 4, guard), math.comb(7, 3), "words",
     [(words, "combinations")]),
    ("permutations", lambda guard: reversal_inversions_system(5, guard)[0],
     math.factorial(5), "permutations", [(words, "permutations")]),
    ("staircase", lambda guard: staircase_diagrams(8, guard), 2 ** 7, "diagrams",
     [(suter, "range")]),
    ("stable configurations", lambda guard: stable_configurations(K4, guard), 3 ** 3,
     "stable configurations", [(sandpile, "iter_product")]),
    ("recurrents", lambda guard: sandpile_recurrents(K4, guard), 3 ** 3,
     "stable configurations", [(sandpile, "iter_product"), (sandpile, "sandpile_tau")]),
    ("tableaux", lambda guard: rect_tableaux(2, 3, 4, guard), 50, "tableaux",
     [(SSYT, "__post_init__")]),
]


@pytest.mark.parametrize("name,build,size,noun,spies", SPACES, ids=[s[0] for s in SPACES])
def test_refused_one_over_the_size_and_accepted_at_it(monkeypatch, name, build, size,
                                                      noun, spies):
    if name == "recurrents":
        assert len(build(size)) == 16  # the spanning trees of K4
    else:
        assert len(build(size)) == size
    for owner, attribute in spies:
        monkeypatch.setattr(owner, attribute, refuse, raising=False)
    with pytest.raises(GuardExceeded, match=f" has {size} {noun}, over the guard of {size - 1}$"):
        build(size - 1)


def tableau_size(nrows, ncols, ceiling):
    """The hook-content formula, one cell at a time, as a Fraction product."""
    count = Fraction(1)
    for r in range(nrows):
        for c in range(ncols):
            count *= Fraction(ceiling + c - r, nrows - r + ncols - c - 1)
    return int(count)


@pytest.mark.parametrize("nrows", [1, 2, 3])
@pytest.mark.parametrize("ncols", [1, 2, 3])
@pytest.mark.parametrize("ceiling", [1, 2, 3, 4, 5, 6])
def test_tableau_count_is_the_hook_content_formula(monkeypatch, nrows, ncols, ceiling):
    size = tableau_size(nrows, ncols, ceiling)
    assert (size == 0) == (ceiling < nrows)
    assert len(rect_tableaux(nrows, ncols, ceiling, guard=size)) == size
    if size:
        monkeypatch.setattr(SSYT, "__post_init__", refuse)
        with pytest.raises(GuardExceeded, match=f" has {size} tableaux,"):
            rect_tableaux(nrows, ncols, ceiling, guard=size - 1)


def test_a_huge_count_is_shown_as_a_power_of_two():
    with pytest.raises(GuardExceeded,
                       match=r"^x has at least 2\^300 things, over the guard of 5$"):
        check_space_size("x", 2 ** 300 + 1, "things", 5)
    with pytest.raises(GuardExceeded, match=r"^x has 6 things, over the guard of 5$"):
        check_space_size("x", 6, "things", 5)
    check_space_size("x", 5, "things", 5)


def test_the_default_guard_applies_when_none_is_given():
    check_space_size("x", DEFAULT_ENUMERATION_GUARD, "things")
    with pytest.raises(GuardExceeded, match="over the guard of 10000000"):
        check_space_size("x", DEFAULT_ENUMERATION_GUARD + 1, "things")


def test_a_huge_tableau_space_exits_3_before_a_tableau_is_built(capsys, monkeypatch):
    monkeypatch.setattr(SSYT, "__post_init__", refuse)
    code = main(["check", "ssyt", "--a", "8", "--b", "8", "--k", "30"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("guard exceeded: the 8 x 8 box with ceiling 30 has "
                            "4091889884134900190462574512052902400000 tableaux, "
                            "over the guard of 10000000\n")

