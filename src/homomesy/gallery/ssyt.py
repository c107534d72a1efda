"""Rectangular semistandard tableaux under Bender-Knuth promotion.

A tableau carries its entry ceiling k explicitly. Promotion is the
composite of the Bender-Knuth involutions applied in the order BK_1 first,
then BK_2, ..., finally BK_{k-1}. BK_i changes only how many entries <= i
each row holds: it is the piecewise-linear toggle of that Gelfand-Tsetlin
entry between its neighbours in the rows above and below (Kirillov &
Berenstein, St. Petersburg Math. J. 7, 1996). With the pinned order,
promotion on an m x n rectangle has order dividing k, and for any cell set
R that is invariant under 180-degree rotation of the rectangle the entry
sum over R is |R|(k+1)/2-mesic. Each `SSYT` is checked once, when it is
built: at enumeration, seed parsing, and once per promotion (not per
involution); an entry that is not an int is refused, not truncated.
`rect_tableaux` meets its guard from the hook-content count before it
builds a tableau.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

from ..engine import Statistic
from ..guards import check_space_size, macmahon_factors


@dataclass(frozen=True, order=True)
class SSYT:
    """A rectangular semistandard tableau with entries in 1..ceiling."""

    ceiling: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if self.ceiling < 1:
            raise ValueError("entry ceiling must be at least 1")
        if not rows or not rows[0]:
            raise ValueError("tableau must be a nonempty rectangle")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("tableau rows must all have the same length")
        for row in rows:
            if not all(type(v) is int and 1 <= v <= self.ceiling for v in row):
                raise ValueError("entries must lie in 1..ceiling")
            if any(row[c] > row[c + 1] for c in range(width - 1)):
                raise ValueError("rows must weakly increase")
        for r in range(len(rows) - 1):
            if any(rows[r][c] >= rows[r + 1][c] for c in range(width)):
                raise ValueError("columns must strictly increase")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def entry(self, r: int, c: int) -> int:
        """1-indexed entry access."""
        require_cell(*self.shape, r, c)
        return self.rows[r - 1][c - 1]


def require_cell(nrows: int, ncols: int, r: int, c: int) -> None:
    """Refuse a 1-indexed cell (r, c) outside the nrows x ncols rectangle."""
    if not (1 <= r <= nrows and 1 <= c <= ncols):
        raise ValueError(f"cell ({r}, {c}) outside the {nrows} x {ncols} rectangle")


def ssyt_promotion(tableau: SSYT) -> SSYT:
    """BK_1 applied first, then BK_2 through BK_{ceiling-1}."""
    return _bender_knuth_steps(tableau, range(1, tableau.ceiling))


def _bender_knuth_steps(tableau: SSYT, indices) -> SSYT:
    """BK_i for each i of indices in turn, on a copy of the rows.

    Row r holds lo_r entries < i and hi_r entries <= i+1, which BK_i keeps;
    as the Gelfand-Tsetlin toggle (Kirillov-Berenstein 1996) its count m_r
    of entries <= i becomes max(lo_r, hi_{r+1}) + min(hi_r, lo_{r-1}) - m_r,
    with hi = 0 below the last row and lo = ncols above the first. The bounds
    do the lock rule's work: an i before column hi_{r+1} has an i+1 under
    it, and an i+1 from column lo_{r-1} on has an i over it.
    """
    grid = [list(row) for row in tableau.rows]
    for i in indices:
        lo = [bisect_left(row, i) for row in grid]
        hi = [bisect_right(row, i + 1) for row in grid] + [0]
        above = len(grid[0])
        for r, row in enumerate(grid):
            start, end = lo[r], hi[r]
            if start < end:
                m = max(start, hi[r + 1]) + min(end, above) - bisect_right(row, i, start, end)
                row[start:end] = [i] * (m - start) + [i + 1] * (end - m)
            above = start
    return SSYT(tableau.ceiling, grid)


def rect_tableaux(nrows: int, ncols: int, ceiling: int,
                  guard: int | None = None) -> list[SSYT]:
    """All SSYT on the nrows x ncols rectangle with entries <= ceiling.

    Row-major depth-first walk, in lexicographic order. Row r (0-based) is
    capped at ceiling - (nrows - 1 - r) to leave room for the column below,
    so no branch dead-ends. Empty when ceiling < nrows.
    """
    if nrows < 1 or ncols < 1:
        raise ValueError("rectangle dimensions must be at least 1")
    if ceiling < 1:
        raise ValueError("entry ceiling must be at least 1")
    # the hook-content formula as MacMahon's plane partitions in a box
    size = macmahon_factors(nrows, ncols, ceiling - nrows) if ceiling >= nrows else 0
    check_space_size(f"the {nrows} x {ncols} box with ceiling {ceiling}", size, "tableaux", guard)
    ncells = nrows * ncols
    top = [ceiling - (nrows - 1 - r) for r in range(nrows)]
    cells = [0] * ncells  # the entries so far; the walk's stack is cells[:pos]
    found: list[SSYT] = []
    pos = 0 if ceiling >= nrows else -1
    while pos >= 0:
        if pos == ncells:
            found.append(SSYT(ceiling, [cells[i:i + ncols] for i in range(0, ncells, ncols)]))
            pos -= 1
            continue
        r, c = divmod(pos, ncols)
        # the next entry here, or on entering the cell the least its neighbours allow
        value = cells[pos] + 1 if cells[pos] else max(
            1, cells[pos - 1] if c else 1, cells[pos - ncols] + 1 if r else 1)
        if value > top[r]:
            cells[pos] = 0
            pos -= 1
        else:
            cells[pos] = value
            pos += 1
    return found


def cell_sum_statistic(cells, name: str | None = None) -> Statistic:
    """Entry sum over a fixed set of 1-indexed (row, column) cells, read
    straight from the rows; a cell outside the tableau raises entry's
    ValueError."""
    cells = [(r, c) for r, c in cells]
    if not all(type(r) is int and type(c) is int and r >= 1 and c >= 1 for r, c in cells):
        raise ValueError(f"cells are 1-indexed int pairs, got {cells}")
    cells = tuple(sorted(set(cells)))
    index = [(r - 1, c - 1) for r, c in cells]
    if name is not None:
        label = name
    elif cells:
        label = "cells:" + ";".join(f"{r},{c}" for r, c in cells)
    else:
        label = "cells:none"

    def value(tableau: SSYT) -> int:
        rows = tableau.rows
        try:
            return sum(rows[r][c] for r, c in index)
        except IndexError:
            for r, c in cells:
                tableau.entry(r, c)  # raises for the first cell outside
            raise

    return Statistic.scalar(label, value)


def all_cells(nrows: int, ncols: int) -> tuple[tuple[int, int], ...]:
    return tuple((r, c) for r in range(1, nrows + 1) for c in range(1, ncols + 1))


def centrally_symmetric_cell_sets(nrows: int, ncols: int):
    """Every cell set fixed by 180-degree rotation of the rectangle."""
    orbits = []
    seen = set()
    for cell in all_cells(nrows, ncols):
        if cell in seen:
            continue
        r, c = cell
        partner = (nrows + 1 - r, ncols + 1 - c)
        orbit = frozenset({cell, partner})
        seen |= orbit
        orbits.append(orbit)
    sets = []
    for size in range(len(orbits) + 1):
        for chosen in combinations(orbits, size):
            cells = sorted(frozenset().union(*chosen)) if chosen else []
            sets.append(tuple(cells))
    return sorted(sets)
