"""Exact rational values and their p/q wire format.

Every average, constant, and matrix entry in this package is a
fractions.Fraction; floats are refused at the boundary so no rounding
can creep in.
"""
from __future__ import annotations

from fractions import Fraction


def exact(value) -> Fraction:
    """Coerce an int, Fraction, or digit string to Fraction. Floats are refused.
    A Fraction comes back unchanged, without the cost of rebuilding it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"floating-point value {value!r} in exact-arithmetic context")
    return Fraction(value)


def format_rational(value) -> str:
    """Lowest-terms p/q of an int or Fraction, or a bare integer when the
    denominator is 1. Any other value, a float or a string included, is
    refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is not an int or a Fraction")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals ("1/2,1,3/4")."""
    return tuple(parse_rational(part) for part in text.split(","))
