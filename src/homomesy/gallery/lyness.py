"""The Lyness 5-cycle on the rational plane.

tau(x, y) = (y, (y+1)/x) is defined wherever x, y, x+1, y+1, x+y+1 are all
nonzero, and tau^5 is the identity there. With h(z) = 1/z + 1/z^2 the
statistic log|h(x)| is 0-mesic along every orbit; exactly and without
logarithms, the product of |h(x_i)| over the five orbit abscissas is 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from ..rationals import exact

LYNESS_ORDER = 5


@dataclass(frozen=True, order=True)
class LynessState:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", exact(self.x))
        object.__setattr__(self, "y", exact(self.y))
        for value, label in ((self.x, "x"), (self.y, "y")):
            if value == 0:
                raise ValueError(f"{label} must be nonzero")
            if value == -1:
                raise ValueError(f"{label} + 1 must be nonzero")
        if self.x + self.y + 1 == 0:
            raise ValueError("x + y + 1 must be nonzero")


def lyness_step(state: LynessState) -> LynessState:
    return LynessState(state.y, (state.y + 1) / state.x)


def lyness_cycle(state: LynessState) -> tuple[LynessState, ...]:
    """The five iterates starting at state; sanity-asserts the return."""
    states = [state]
    for _ in range(LYNESS_ORDER - 1):
        states.append(lyness_step(states[-1]))
    if lyness_step(states[-1]) != state:
        raise AssertionError("Lyness orbit failed to close after five steps")
    return tuple(states)


def abs_h(z: Fraction) -> Fraction:
    """|1/z + 1/z^2| = |z + 1| / z^2, exactly."""
    z = exact(z)
    if z == 0:
        raise ValueError("h is undefined at 0")
    return abs((z + 1) / (z * z))


def lyness_orbit_product(cycle) -> Fraction:
    """Product of |h(x_i)| over the five abscissas of a lyness_cycle (always 1)."""
    return prod((abs_h(s.x) for s in cycle), start=Fraction(1))
