"""Budget guards shared by enumeration and orbit iteration.

A built-in space passes its classical size to check_space_size as a stream
of factors (num, den): each is at least 1 and every partial product is an
integer, so the product can stop once it is past both the guard and 2^200.
"""
from itertools import repeat
from math import comb

DEFAULT_ENUMERATION_GUARD = 10**7
DEFAULT_ORBIT_GUARD = 10**6
SHOWN_EXACTLY = 2**200  # a size under this is computed and printed in full


class GuardExceeded(RuntimeError):
    """A state-space or orbit budget was exhausted before completion."""


def check_space_size(what: str, size, noun: str, guard: int | None = None) -> None:
    """Refuse a space whose closed-form size (an int or a factor stream) is
    over the guard. A refused size of 2^200 or more is shown as "at least
    2^k", with 2^k no larger than the true size."""
    cap = DEFAULT_ENUMERATION_GUARD if guard is None else guard
    if not isinstance(size, int):
        factors, stop, size = size, max(cap + 1, SHOWN_EXACTLY), 1
        for num, den in factors:
            size = size * num // den
            if size >= stop:
                break
    if size > cap:
        # str() refuses an int of over 4300 digits; such a count is unreadable anyway
        shown = size if size < SHOWN_EXACTLY else f"at least 2^{size.bit_length() - 1}"
        raise GuardExceeded(f"{what} has {shown} {noun}, over the guard of {cap}")


def binomial_factors(a: int, b: int):
    """C(a+b, a) as (hi + i)/i for i = 1..lo, where lo <= hi are a and b."""
    lo, hi = sorted((a, b))
    return ((hi + i, i) for i in range(1, lo + 1))


def factorial_factors(n: int):
    return ((i, 1) for i in range(2, n + 1))


def power_factors(base: int, exponent: int):
    return repeat((base, 1), exponent)


def product_factors(ints):
    return ((i, 1) for i in ints)


def macmahon_factors(a: int, b: int, c: int):
    """MacMahon's count of plane partitions in an a x b x c box (sides >= 0).

    The box lo x 1 x hi holds C(lo+hi, lo) of them, and widening lo x (x-1) x hi
    by one multiplies the count by C(x+lo+hi-1, lo)/C(x+lo-1, lo). The first
    product is at least 2^lo, so a guard under 2^200 stops it within 200
    factors and reaches the second only with lo < 200; the second is at least
    2^x after x factors. No factor is then a huge number.
    """
    lo, mid, hi = sorted((a, b, c))
    if lo:
        yield from binomial_factors(lo, hi)
        for x in range(2, mid + 1):
            yield comb(x + lo + hi - 1, lo), comb(x + lo - 1, lo)
