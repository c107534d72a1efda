"""Suter's rotation on staircase diagrams and its weight homomesies."""
from fractions import Fraction

import pytest

from homomesy.engine import check_homomesy, iterate_orbit, orbit_partition
from homomesy.gallery.suter import (
    diagonal_weight_statistic,
    is_staircase_member,
    staircase_diagrams,
    suter_rho,
    weight_statistic,
)
from homomesy.guards import GuardExceeded
from reference import box_weights


def test_membership():
    assert is_staircase_member(5, ())
    assert is_staircase_member(5, (3, 1))
    assert not is_staircase_member(5, (4, 1))  # 4 + 2 > 5
    assert not is_staircase_member(5, (1, 2))  # not weakly decreasing
    assert not is_staircase_member(5, (0,))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_count(n):
    diagrams = staircase_diagrams(n)
    assert len(diagrams) == 2 ** (n - 1)
    assert len(set(diagrams)) == len(diagrams)
    assert diagrams == sorted(diagrams)
    assert all(is_staircase_member(n, d) for d in diagrams)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        staircase_diagrams(12, guard=100)
    with pytest.raises(ValueError):
        staircase_diagrams(0)


def test_rho_step_values():
    assert suter_rho(5, (3, 3)) == (4,)
    assert suter_rho(5, (4,)) == ()
    assert suter_rho(5, ()) == (1, 1, 1, 1)
    assert suter_rho(6, (2, 2, 1, 1)) == (3, 2, 2)


def test_rho_rejects_non_members():
    with pytest.raises(ValueError):
        suter_rho(5, (4, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_rho_has_order_n(n):
    for diagram in staircase_diagrams(n):
        current = diagram
        for _ in range(n):
            current = suter_rho(n, current)
        assert current == diagram


@pytest.mark.parametrize("part", [2.5, 2.0, True, "2"], ids=repr)
def test_a_part_that_is_not_an_int_is_refused_not_truncated(part):
    for diagram in ((part,), (3, part)):
        assert not is_staircase_member(5, diagram)
        for step in (suter_rho, box_weights):
            with pytest.raises(ValueError, match=r"is not in Y_5: parts must be positive ints"):
                step(5, diagram)


def test_box_weights():
    assert box_weights(5, ()) == []
    assert box_weights(5, (3, 3)) == [4, 3, 2, 3, 2, 1]
    assert box_weights(4, (2, 1)) == [3, 2, 2]


def test_all_four_orbits_for_n_5():
    orbits = orbit_partition(lambda d: suter_rho(5, d), staircase_diagrams(5))
    stat = weight_statistic(5)
    by_rep = {o.representative: o for o in orbits}
    assert set(by_rep) == {(), (1,), (1, 1), (2, 1)}
    expected = {
        (): ((), (1, 1, 1, 1), (2, 2, 2), (3, 3), (4,)),
        (1,): ((1,), (1, 1, 1), (2, 2, 1), (3, 2), (3,)),
        (1, 1): ((1, 1), (2, 1, 1), (2, 2), (3, 1), (2,)),
        (2, 1): ((2, 1),),
    }
    weights = {
        (): (0, 10, 15, 15, 10),
        (1,): (4, 9, 14, 14, 9),
        (1, 1): (7, 12, 12, 12, 7),
        (2, 1): (10,),
    }
    for rep, orbit in by_rep.items():
        assert orbit.states == expected[rep]
        assert tuple(stat(d)[0] for d in orbit.states) == weights[rep]


@pytest.mark.parametrize("n", range(1, 8))
def test_weight_homomesy(n):
    report = check_homomesy(lambda d: suter_rho(n, d), staircase_diagrams(n),
                            weight_statistic(n))
    assert report.homomesic
    assert report.c == (Fraction(n ** 3 - n, 12),)


@pytest.mark.parametrize("n", range(2, 8))
def test_diagonal_pair_homomesy(n):
    space = staircase_diagrams(n)
    for i in range(1, n):
        j = n - i
        report = check_homomesy(lambda d: suter_rho(n, d), space,
                                diagonal_weight_statistic(n, i, j))
        assert report.homomesic
        assert report.c == (Fraction(i * j),)


def test_diagonal_statistic_validates_indices():
    with pytest.raises(ValueError):
        diagonal_weight_statistic(5, 2, 2)
    with pytest.raises(ValueError):
        diagonal_weight_statistic(5, 0, 5)


def test_middle_diagonal_counts_twice():
    # for even n the i = j = n/2 diagonal is added to itself
    stat = diagonal_weight_statistic(6, 3, 3)
    assert stat((3, 3))[0] == 2 * sum(1 for w in box_weights(6, (3, 3)) if w == 3) * 3


def test_orbit_of_empty_diagram_visits_all_rectangle_shapes():
    orbit = iterate_orbit(lambda d: suter_rho(7, d), ())
    assert orbit.period == 7
    assert set(orbit.states) == {()} | {(m,) * (7 - m) for m in range(1, 7)}


@pytest.mark.parametrize("n", range(1, 11))
def test_row_formulas_match_the_box_weight_definitions(n):
    space = staircase_diagrams(n)
    total = weight_statistic(n)
    for diagram in space:
        assert total(diagram) == (sum(box_weights(n, diagram)),)
    for i in range(1, n):
        j = n - i
        stat = diagonal_weight_statistic(n, i, j)
        for diagram in space:
            weights = box_weights(n, diagram)
            expected = sum(w for w in weights if w == i) + sum(w for w in weights if w == j)
            assert stat(diagram) == (expected,)


def test_check_tests_membership_once_per_state(monkeypatch, capsys):
    from homomesy.cli import main
    from homomesy.gallery import suter

    calls = []
    original = suter.is_staircase_member

    def counting(n, diagram):
        calls.append(1)
        return original(n, diagram)

    monkeypatch.setattr(suter, "is_staircase_member", counting)
    assert main(["check", "suter", "--n", "7"]) == 0
    assert "homomesic: yes" in capsys.readouterr().out
    assert len(calls) == 2 ** 6  # |Y_7|: suter_rho checks each state once
