"""Suter's cyclic symmetry on the Young diagrams inside a staircase.

Y_n is the set of partitions lambda with lambda_1 + (number of parts) <= n,
i.e. the diagrams fitting in the staircase (n-1, n-2, ..., 1). Suter's map

    rho_n(lambda) = (lambda_2 + 1, ..., lambda_m + 1, 1, 1, ..., 1)

pads with 1s to exactly n - 1 - lambda_1 parts and has order n. The box in
row r, column c (1-indexed) carries weight n - r - c + 1; the total weight
is (n^3 - n)/12-mesic, and for i + j = n the sum of the weight-i diagonal
plus the weight-j diagonal is ij-mesic (for i = j that diagonal counts
twice). Membership in Y_n is checked at enumeration, seed parsing and once
per `suter_rho` step; the weight statistics read rows without a check.
"""
from __future__ import annotations

from ..engine import Statistic
from ..guards import check_space_size

Partition = tuple


def is_staircase_member(n: int, diagram) -> bool:
    diagram = tuple(diagram)
    if not diagram:
        return True
    if any(int(p) != p or p < 1 for p in diagram):
        return False
    if any(diagram[i] < diagram[i + 1] for i in range(len(diagram) - 1)):
        return False
    return diagram[0] + len(diagram) <= n


def _require_member(n: int, diagram) -> tuple:
    diagram = tuple(int(p) for p in diagram)
    if not is_staircase_member(n, diagram):
        raise ValueError(f"{diagram} does not fit in the staircase for n = {n}")
    return diagram


def staircase_diagrams(n: int, guard: int | None = None) -> list[Partition]:
    """All 2^(n-1) members of Y_n, sorted."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_space_size(f"Y_{n}", 2 ** (n - 1), "diagrams", guard)
    out = [()]
    stack = [(p,) for p in range(1, n)]
    while stack:
        diagram = stack.pop()
        out.append(diagram)
        head = diagram[-1]
        for p in range(1, head + 1):
            if diagram[0] + len(diagram) + 1 <= n:
                stack.append(diagram + (p,))
    # the growth rule above appends parts <= the current last part, so
    # every weakly decreasing diagram within the staircase shows up once
    out = sorted(set(out))
    if len(out) != 2 ** (n - 1):
        raise AssertionError("staircase enumeration miscounted")
    return out


def suter_rho(n: int, diagram) -> Partition:
    """One application of Suter's map."""
    diagram = _require_member(n, diagram)
    first = diagram[0] if diagram else 0
    core = tuple(p + 1 for p in diagram[1:])
    pad = (n - 1 - first) - len(core)
    return core + (1,) * pad


def box_weights(n: int, diagram) -> list[int]:
    """Weights n - r - c + 1 of the boxes, row by row."""
    diagram = _require_member(n, diagram)
    return [
        n - r - c + 1
        for r, row_len in enumerate(diagram, start=1)
        for c in range(1, row_len + 1)
    ]


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
