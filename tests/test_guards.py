"""Every built-in state space is refused from its closed-form size.

Each enumerator is run at guard = size, where it must build the whole
space, and at guard = size - 1, where it must raise GuardExceeded naming
that size before its spy (the constructor or iterator that makes the
first state) is ever called.
"""
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from homomesy import guards, posets
from homomesy.cli import main
from homomesy.gallery import sandpile, suter, words
from homomesy.gallery.sandpile import SandpileGraph, sandpile_recurrents
from homomesy.gallery.ssyt import SSYT, rect_tableaux
from homomesy.gallery.suter import staircase_diagrams
from homomesy.gallery.words import pm_words, reversal_inversions_system
from homomesy.guards import DEFAULT_ENUMERATION_GUARD, GuardExceeded, check_space_size
from homomesy.posets import GridPoset
import reference

# built before any spy is in place
GRID = GridPoset(3, 4)
K4 = SandpileGraph([(v, w, 1) for v in "abcd" for w in "abcd" if v != w], "d", "a")


def refuse(*args, **kwargs):
    raise AssertionError("a state was built before the guard check")


# (name, enumerator of guard, closed-form size, noun, module attributes to spy on)
SPACES = [
    ("grid ideals", GRID.enumerate_order_ideals, math.comb(7, 3), "ideals",
     [(posets, "range")]),
    ("grid antichains", GRID.enumerate_antichains, math.comb(7, 3), "ideals",
     [(posets, "range")]),
    ("pm words", lambda guard: pm_words(3, 4, guard), math.comb(7, 3), "words",
     [(words, "combinations")]),
    ("permutations", lambda guard: reversal_inversions_system(5, guard)[0],
     math.factorial(5), "permutations", [(words, "permutations")]),
    ("staircase", lambda guard: staircase_diagrams(8, guard), 2 ** 7, "diagrams",
     [(suter, "range")]),
    ("stable configurations", lambda guard: reference.stable_configurations(K4, guard), 3 ** 3,
     "stable configurations", [(reference, "product")]),
    ("recurrents", lambda guard: sandpile_recurrents(K4, guard), 3 ** 3,
     "stable configurations", [(sandpile, "sandpile_tau"), (sandpile, "sandpile_stabilize")]),
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


def test_every_closed_form_factor_stream_is_exact():
    for a in range(0, 7):
        for b in range(0, 7):
            assert product_of(guards.binomial_factors(a, b)) == math.comb(a + b, a)
    for n in range(0, 9):
        assert product_of(guards.factorial_factors(n)) == math.factorial(n)
        assert product_of(guards.power_factors(2, n)) == 2 ** n
    assert product_of(guards.product_factors([3, 1, 4])) == 12
    for nrows in (1, 2, 3):
        for ncols in (1, 2, 3):
            for ceiling in range(nrows, 7):
                assert (product_of(guards.macmahon_factors(nrows, ncols, ceiling - nrows))
                        == tableau_size(nrows, ncols, ceiling))


def product_of(factors):
    size = Fraction(1)
    for num, den in factors:
        assert num >= den >= 1
        size *= Fraction(num, den)
        assert size.denominator == 1  # every partial product is an integer
    return int(size)


def test_a_stream_stops_past_2_200_and_shows_a_lower_bound():
    # 2^(n-1) for n = 10^9 is never built: the product stops at 2^200
    with pytest.raises(GuardExceeded,
                       match=r"^Y has at least 2\^200 diagrams, over the guard of 5$"):
        check_space_size("Y", guards.power_factors(2, 10 ** 9), "diagrams", 5)
    # C(600, 300) is about 2^596; the shown 2^k stays under it
    with pytest.raises(GuardExceeded) as refused:
        check_space_size("W", guards.binomial_factors(300, 300), "words", 5)
    k = int(str(refused.value).split("2^")[1].split()[0])
    assert 200 <= k and 2 ** k <= math.comb(600, 300)
    # a guard of 2^200 or more is compared with the exact size
    size = math.comb(600, 300)
    check_space_size("W", guards.binomial_factors(300, 300), "words", size)
    with pytest.raises(GuardExceeded, match=r"^W has at least 2\^\d+ words, over the guard"):
        check_space_size("W", guards.binomial_factors(300, 300), "words", size - 1)


HUGE_SPACES = [
    ["reversal-inversions", "--n", "300000"],
    ["reversal-inversions", "--n", "3000000"],
    ["grid-rowmotion-ideals", "--a", "300000", "--b", "300000"],
    ["grid-promotion-antichains", "--a", "3000000", "--b", "3000000"],
    ["ballot", "--a", "300000", "--b", "300001"],
    ["ssyt", "--a", "1000", "--b", "1000", "--k", "3000"],
    ["ssyt", "--a", "2", "--b", "1000000", "--k", "3000000"],
    ["suter", "--n", "4000000000"],
]


@pytest.mark.parametrize("argv", HUGE_SPACES, ids=lambda argv: argv[0] + argv[-1])
def test_a_huge_space_exits_3_within_a_second(argv):
    src = str(Path(guards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    begin = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "homomesy.cli", "check", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    elapsed = time.perf_counter() - begin
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("guard exceeded: ") and done.stderr.count("\n") == 1
    assert "has at least 2^" in done.stderr
    assert elapsed < 1, elapsed
