"""Budget guards shared by enumeration and orbit iteration."""

DEFAULT_ENUMERATION_GUARD = 10**7
DEFAULT_ORBIT_GUARD = 10**6


class GuardExceeded(RuntimeError):
    """A state-space or orbit budget was exhausted before completion."""


def check_space_size(what: str, count: int, noun: str, guard: int | None = None) -> None:
    """Refuse a space whose closed-form size count is over the guard."""
    cap = DEFAULT_ENUMERATION_GUARD if guard is None else guard
    if count > cap:
        # str() refuses an int of over 4300 digits; such a count is unreadable anyway
        shown = count if count < 2**200 else f"at least 2^{count.bit_length() - 1}"
        raise GuardExceeded(f"{what} has {shown} {noun}, over the guard of {cap}")
