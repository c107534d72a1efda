"""The Lyness 5-cycle and its multiplicative 0-mesy certificate."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from homomesy.gallery.lyness import (
    LYNESS_ORDER,
    LynessState,
    abs_h,
    lyness_cycle,
    lyness_orbit_product,
    lyness_step,
)

rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def valid(x, y):
    return x != 0 and y != 0 and x != -1 and y != -1 and x + y + 1 != 0


def test_state_validation():
    with pytest.raises(ValueError, match="x must be nonzero"):
        LynessState(0, 3)
    with pytest.raises(ValueError, match="y must be nonzero"):
        LynessState(3, 0)
    with pytest.raises(ValueError, match="x \\+ 1"):
        LynessState(-1, 3)
    with pytest.raises(ValueError, match="x \\+ y \\+ 1"):
        LynessState(Fraction(-1, 2), Fraction(-1, 2))
    with pytest.raises(TypeError):
        LynessState(0.5, 3)


def test_step_rule():
    state = lyness_step(LynessState(1, 3))
    assert (state.x, state.y) == (3, 4)


def test_paper_orbit():
    cycle = lyness_cycle(LynessState(1, 3))
    xs = [s.x for s in cycle]
    assert xs == [1, 3, 4, Fraction(5, 3), Fraction(2, 3)]
    values = [abs_h(x) for x in xs]
    assert values == [2, Fraction(4, 9), Fraction(5, 16),
                      Fraction(24, 25), Fraction(15, 4)]
    assert lyness_orbit_product(cycle) == 1


def test_abs_h():
    assert abs_h(1) == 2
    assert abs_h(Fraction(-1, 2)) == 2
    assert abs_h(-2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        abs_h(0)


@given(rational, rational)
def test_order_five_and_unit_product(x, y):
    assume(valid(x, y))
    state = LynessState(x, y)
    cycle = lyness_cycle(state)
    assert len(cycle) == LYNESS_ORDER
    assert lyness_step(cycle[-1]) == state
    assert lyness_orbit_product(cycle) == 1


@given(rational, rational)
def test_every_orbit_state_is_well_defined(x, y):
    assume(valid(x, y))
    # the defining conditions propagate around the whole 5-cycle
    for s in lyness_cycle(LynessState(x, y)):
        assert valid(s.x, s.y)
