"""Suter's cyclic symmetry on the Young diagrams of Y_n.

Y_n is the set of partitions lambda with lambda_1 + (number of parts) <= n;
it has 2^(n-1) members. It is not the set of diagrams inside the staircase
(n-1, n-2, ..., 1), which has Catalan(n) members: (2, 1) fits that staircase
for n = 3 but is not in Y_3. Suter's map

    rho_n(lambda) = (lambda_2 + 1, ..., lambda_m + 1, 1, 1, ..., 1)

pads with 1s to exactly n - 1 - lambda_1 parts and has order n. The box in
row r, column c (1-indexed) carries weight n - r - c + 1; the total weight
is (n^3 - n)/12-mesic, and for i + j = n the sum of the weight-i diagonal
plus the weight-j diagonal is ij-mesic (for i = j that diagonal counts
twice). `staircase_diagrams` builds members by construction and checks only
their count; membership in Y_n is checked by `require_member` at seed
parsing and once per `suter_rho` step, and a part that is not an int is
refused, not truncated. The weight statistics read rows without a check.
"""
from __future__ import annotations

from operator import lt

from ..engine import Statistic
from ..guards import check_space_size, power_factors

Partition = tuple
_INT = frozenset((int,))


def is_staircase_member(n: int, diagram) -> bool:
    diagram = tuple(diagram)
    if not diagram:
        return True
    # one pass over the types (no float, bool or str), then C-level comparisons
    if not _INT.issuperset(map(type, diagram)) or min(diagram) < 1:
        return False
    if any(map(lt, diagram, diagram[1:])):
        return False
    return diagram[0] + len(diagram) <= n


def require_member(n: int, diagram) -> tuple:
    """The diagram as a tuple, once it is checked to lie in Y_n."""
    diagram = tuple(diagram)
    if not is_staircase_member(n, diagram):
        raise ValueError(f"{diagram} is not in Y_{n}: parts must be positive ints, "
                         f"weakly decreasing, with λ1 + ℓ(λ) ≤ {n}")
    return diagram


def staircase_diagrams(n: int, guard: int | None = None) -> list[Partition]:
    """All 2^(n-1) members of Y_n, in lexicographic order: a depth-first
    walk appends parts no larger than the last one and pops the smaller next
    part first, so each diagram is built once, after all that sort before it."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_space_size(f"Y_{n}", power_factors(2, n - 1), "diagrams", guard)
    out = [()]
    stack = [(p,) for p in range(n - 1, 0, -1)]
    while stack:
        diagram = stack.pop()
        out.append(diagram)
        if diagram[0] + len(diagram) < n:
            stack += [diagram + (p,) for p in range(diagram[-1], 0, -1)]
    if len(out) != 2 ** (n - 1):
        raise AssertionError("staircase enumeration miscounted")
    return out


def suter_rho(n: int, diagram) -> Partition:
    """One application of Suter's map."""
    diagram = require_member(n, diagram)
    first = diagram[0] if diagram else 0
    core = tuple(p + 1 for p in diagram[1:])
    pad = (n - 1 - first) - len(core)
    return core + (1,) * pad


def weight_statistic(n: int) -> Statistic:
    """Total box weight; (n^3 - n)/12-mesic under rho_n."""
    return Statistic.scalar("weight", lambda lam: sum(
        p * (2 * (n - r) - p + 1) // 2 for r, p in enumerate(lam, start=1)))


def diagonal_weight_statistic(n: int, i: int, j: int) -> Statistic:
    """Weight-i diagonal sum plus weight-j diagonal sum; ij-mesic when i + j = n.

    The two sums are added even when i = j, so the middle diagonal of an
    even staircase counts twice (that is what makes the constant ij).
    """
    if i < 1 or j < 1 or i + j != n:
        raise ValueError("need positive i, j with i + j = n")

    def value(diagram):
        # row r of length p has its weight-w box, if any, in column n - r + 1 - w
        return sum(w for r, p in enumerate(diagram, start=1) for w in (i, j)
                   if 1 <= n - r + 1 - w <= p)

    return Statistic.scalar(f"weight:{i},{j}", value)
