"""Semistandard tableaux, Bender-Knuth involutions, and promotion."""
from fractions import Fraction

import pytest

from homomesy.engine import check_homomesy, iterate_orbit
from homomesy.gallery.ssyt import (
    SSYT,
    all_cells,
    cell_sum_statistic,
    centrally_symmetric_cell_sets,
    rect_tableaux,
    ssyt_promotion,
)
from homomesy.guards import GuardExceeded
from reference import bender_knuth


def T(ceiling, *rows):
    return SSYT(ceiling, tuple(tuple(r) for r in rows))


class TestValidation:
    def test_accepts_a_valid_tableau(self):
        t = T(4, (1, 1, 2), (2, 3, 4))
        assert t.shape == (2, 3)
        assert t.entry(2, 3) == 4

    def test_rows_must_weakly_increase(self):
        with pytest.raises(ValueError, match="weakly"):
            T(4, (2, 1), (3, 4))

    def test_columns_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly"):
            T(4, (1, 1), (1, 2))

    def test_entries_within_ceiling(self):
        with pytest.raises(ValueError, match="1..ceiling"):
            T(3, (1, 4))
        with pytest.raises(ValueError, match="1..ceiling"):
            T(3, (0, 1))

    def test_ceiling_must_be_at_least_1(self):
        with pytest.raises(ValueError, match="^entry ceiling must be at least 1$"):
            SSYT(0, ((1,),))

    def test_rectangle_required(self):
        with pytest.raises(ValueError, match="same length"):
            T(3, (1, 1), (2,))
        with pytest.raises(ValueError, match="nonempty"):
            SSYT(3, ())

    def test_entry_bounds(self):
        t = T(3, (1, 2))
        with pytest.raises(ValueError, match="outside"):
            t.entry(2, 1)

    @pytest.mark.parametrize("rows", [[[1.5, 2.9]], [[1, 2.0]], [[True, 2]], [["1", "2"]]])
    def test_non_integer_entries_are_refused_not_truncated(self, rows):
        with pytest.raises(ValueError, match="1..ceiling"):
            SSYT(3, rows)

    def test_rows_are_stored_as_tuples(self):
        assert SSYT(3, [[1, 2], [2, 3]]).rows == ((1, 2), (2, 3))


class TestBenderKnuth:
    def test_index_range(self):
        t = T(3, (1, 2))
        with pytest.raises(ValueError, match="outside"):
            bender_knuth(t, 3)
        with pytest.raises(ValueError, match="outside"):
            bender_knuth(t, 0)

    def test_free_entries_swap(self):
        # no vertical contact: the lone 1 and the two 2s trade multiplicities
        t = T(3, (1, 2, 2))
        assert bender_knuth(t, 1).rows == ((1, 1, 2),)

    def test_locked_pairs_stay(self):
        # the column 1-over-2 is locked; nothing changes
        t = T(2, (1, 1), (2, 2))
        assert bender_knuth(t, 1) == t

    @pytest.mark.parametrize("nrows,ncols,ceiling", [(2, 2, 4), (2, 3, 4), (1, 3, 3)])
    def test_is_an_involution(self, nrows, ncols, ceiling):
        for t in rect_tableaux(nrows, ncols, ceiling):
            for i in range(1, ceiling):
                image = bender_knuth(t, i)
                assert image.shape == t.shape
                assert bender_knuth(image, i) == t

    def test_swaps_letter_multiplicities(self):
        for t in rect_tableaux(2, 3, 4):
            for i in range(1, 4):
                flat = [v for row in bender_knuth(t, i).rows for v in row]
                old = [v for row in t.rows for v in row]
                assert flat.count(i) == old.count(i + 1)
                assert flat.count(i + 1) == old.count(i)


def reference_rect_tableaux(nrows, ncols, ceiling):
    """Row-major recursive backtracking with no cap on an entry but the
    ceiling: one recursion level per cell, and branches that dead-end."""
    grid = [[0] * ncols for _ in range(nrows)]
    found = []

    def fill(pos):
        if pos == nrows * ncols:
            found.append(SSYT(ceiling, tuple(tuple(row) for row in grid)))
            return
        r, c = divmod(pos, ncols)
        low = 1
        if c > 0:
            low = max(low, grid[r][c - 1])
        if r > 0:
            low = max(low, grid[r - 1][c] + 1)
        for value in range(low, ceiling + 1):
            grid[r][c] = value
            fill(pos + 1)
        grid[r][c] = 0

    fill(0)
    return found


ENUMERATION_SHAPES = ([(r, c, k) for r in range(1, 4) for c in range(1, 4) for k in range(1, 6)]
                      + [(1, 6, 3), (4, 2, 5), (3, 4, 6), (2, 5, 4)])


class TestEnumeration:
    @pytest.mark.parametrize("ceiling,count", [(2, 1), (3, 6), (4, 20), (5, 50)])
    def test_counts_2_by_2(self, ceiling, count):
        assert len(rect_tableaux(2, 2, ceiling)) == count

    @pytest.mark.parametrize("ceiling,count", [(2, 1), (3, 10), (4, 50), (5, 175)])
    def test_counts_2_by_3(self, ceiling, count):
        assert len(rect_tableaux(2, 3, ceiling)) == count

    def test_empty_when_ceiling_below_rows(self):
        assert rect_tableaux(3, 2, 2) == []

    def test_lexicographic_order(self):
        tableaux = rect_tableaux(2, 2, 3)
        assert tableaux == sorted(tableaux)
        assert tableaux[0].rows == ((1, 1), (2, 2))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            rect_tableaux(2, 3, 5, guard=100)

    @pytest.mark.parametrize("nrows,ncols", [(0, 2), (2, 0)])
    def test_rectangle_dimensions_must_be_at_least_1(self, nrows, ncols):
        with pytest.raises(ValueError, match="^rectangle dimensions must be at least 1$"):
            rect_tableaux(nrows, ncols, 3)

    def test_ceiling_must_be_at_least_1(self):
        with pytest.raises(ValueError, match="^entry ceiling must be at least 1$"):
            rect_tableaux(1, 1, 0)

    @pytest.mark.parametrize("nrows,ncols,ceiling", ENUMERATION_SHAPES)
    def test_matches_the_recursive_backtracking(self, nrows, ncols, ceiling):
        assert rect_tableaux(nrows, ncols, ceiling) == reference_rect_tableaux(
            nrows, ncols, ceiling)

    def test_a_square_with_ceiling_equal_to_its_rows_has_one_tableau(self):
        # with ceiling = rows each column reads 1..7, and the row caps leave no other branch
        (t,) = rect_tableaux(7, 7, 7)
        assert t.rows == tuple((r,) * 7 for r in range(1, 8))

    def test_a_long_row_needs_no_recursion(self, capsys):
        from homomesy.cli import main

        assert main(["check", "ssyt", "--a", "1", "--b", "1200", "--k", "2"]) == 0
        captured = capsys.readouterr()
        assert '"states": 1201}' in captured.out and "homomesic: yes" in captured.out
        assert captured.err == ""


class TestPromotion:
    def test_reference_orbit_in_ceiling_5(self):
        start = T(5, (1, 1, 2), (2, 3, 4))
        orbit = iterate_orbit(ssyt_promotion, start)
        assert orbit.period == 5
        assert [t.rows for t in orbit.states] == [
            ((1, 1, 2), (2, 3, 4)),
            ((1, 1, 3), (2, 5, 5)),
            ((1, 2, 4), (4, 5, 5)),
            ((1, 3, 4), (3, 4, 5)),
            ((2, 2, 3), (3, 4, 5)),
        ]

    @pytest.mark.parametrize("nrows,ncols,ceiling",
                             [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5),
                              (2, 3, 3), (2, 3, 4), (2, 3, 5), (1, 4, 3)])
    def test_order_divides_ceiling(self, nrows, ncols, ceiling):
        for t in rect_tableaux(nrows, ncols, ceiling):
            current = t
            for _ in range(ceiling):
                current = ssyt_promotion(current)
            assert current == t

    def test_promotion_is_generally_nontrivial(self):
        t = T(3, (1, 1), (2, 3))
        assert ssyt_promotion(t) != t


class TestCellStatistics:
    def test_cell_sum(self):
        stat = cell_sum_statistic([(1, 1), (2, 3)])
        assert stat.name == "cells:1,1;2,3"
        assert stat(T(4, (1, 1, 2), (2, 3, 4)))[0] == 5

    def test_cells_are_read_from_the_rows(self, monkeypatch):
        def refuse(self, r, c):
            raise AssertionError("entry was called")

        stat = cell_sum_statistic([(1, 1), (2, 3)])
        monkeypatch.setattr(SSYT, "entry", refuse)
        assert stat(T(4, (1, 1, 2), (2, 3, 4))) == (5,)

    def test_a_cell_outside_the_tableau_is_named(self):
        stat = cell_sum_statistic([(1, 1), (1, 3), (3, 1)])
        with pytest.raises(ValueError, match=r"cell \(1, 3\) outside the 2 x 2 rectangle"):
            stat(T(4, (1, 2), (3, 4)))

    @pytest.mark.parametrize("cell", [(0, 1), (1, 0), (-1, 2), (1.5, 1), (1, True), ("1", 1)])
    def test_cells_below_1_are_refused_when_the_statistic_is_built(self, cell):
        with pytest.raises(ValueError, match="1-indexed"):
            cell_sum_statistic([(1, 1), cell])

    def test_custom_name_and_empty_set(self):
        assert cell_sum_statistic([], name="nothing").name == "nothing"
        assert cell_sum_statistic([]).name == "cells:none"

    def test_all_cells(self):
        assert all_cells(2, 2) == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_centrally_symmetric_sets(self):
        sets = centrally_symmetric_cell_sets(2, 2)
        assert len(sets) == 4  # two rotation pairs
        assert () in sets
        assert tuple(all_cells(2, 2)) in sets
        for cells in sets:
            rotated = {(3 - r, 3 - c) for r, c in cells}
            assert rotated == set(cells)
        assert len(centrally_symmetric_cell_sets(2, 3)) == 8

    def test_promotion_orbit_sums(self):
        start = T(5, (1, 1, 2), (2, 3, 4))
        states = iterate_orbit(ssyt_promotion, start).states
        pivot = states.index(start)
        orbit = states[pivot:] + states[:pivot]  # rotated back to start

        def sums(cells):
            stat = cell_sum_statistic(cells)
            return tuple(stat(t)[0] for t in orbit)

        assert sums([(1, 1), (2, 3)]) == (5, 6, 6, 6, 7)
        assert sums([(1, 3), (2, 1)]) == (4, 5, 8, 7, 6)
        assert sums(all_cells(2, 3)) == (13, 17, 21, 20, 19)


class TestRotationInvariantHomomesy:
    @pytest.mark.parametrize("nrows,ncols,ceiling", [(2, 2, 3), (2, 2, 4), (2, 3, 4)])
    def test_symmetric_cell_sums_are_homomesic(self, nrows, ncols, ceiling):
        space = rect_tableaux(nrows, ncols, ceiling)
        for cells in centrally_symmetric_cell_sets(nrows, ncols):
            report = check_homomesy(ssyt_promotion, space, cell_sum_statistic(cells))
            assert report.homomesic
            assert report.c == (Fraction(len(cells) * (ceiling + 1), 2),)

    def test_asymmetric_cell_sums_need_not_be(self):
        space = rect_tableaux(2, 3, 5)
        report = check_homomesy(ssyt_promotion, space, cell_sum_statistic([(1, 1)]))
        assert not report.homomesic


def reference_bender_knuth(tableau, i):
    """BK_i as one checked step, written independently of the package: the
    free i's and i+1's of each row trade multiplicities."""
    grid = [list(row) for row in tableau.rows]
    for r, row in enumerate(grid):
        free = [c for c, v in enumerate(row)
                if (v == i and not (r + 1 < len(grid) and grid[r + 1][c] == i + 1))
                or (v == i + 1 and not (r > 0 and grid[r - 1][c] == i))]
        small = sum(1 for c in free if row[c] == i)
        for pos, c in enumerate(free):
            row[c] = i if pos < len(free) - small else i + 1
    return SSYT(tableau.ceiling, tuple(tuple(row) for row in grid))


def reference_promotion(tableau):
    """Promotion as the composite of checked Bender-Knuth steps, BK_1 first."""
    for i in range(1, tableau.ceiling):
        tableau = reference_bender_knuth(tableau, i)
    return tableau


DIFFERENTIAL_SHAPES = ([(2, 2, k) for k in range(1, 6)] + [(2, 3, k) for k in range(1, 6)]
                       + [(3, 3, k) for k in range(1, 6)] + [(1, 4, 3)])


class TestPromotionAgainstCheckedSteps:
    @pytest.mark.parametrize("nrows,ncols,ceiling", DIFFERENTIAL_SHAPES)
    def test_promotion_and_every_involution_match(self, nrows, ncols, ceiling):
        for t in rect_tableaux(nrows, ncols, ceiling):
            images = [(ssyt_promotion(t), reference_promotion(t))]
            images += [(bender_knuth(t, i), reference_bender_knuth(t, i))
                       for i in range(1, ceiling)]
            for image, expected in images:
                assert image == expected
                assert SSYT(image.ceiling, image.rows) == image

    def test_check_builds_two_tableaux_per_state(self, monkeypatch, capsys):
        from homomesy.cli import main

        calls = []
        original = SSYT.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(SSYT, "__post_init__", counting)
        assert main(["check", "ssyt", "--a", "2", "--b", "3", "--k", "4"]) == 0
        assert "homomesic: yes" in capsys.readouterr().out
        monkeypatch.undo()
        # one check at enumeration, one for each promotion image
        assert len(calls) == 2 * len(rect_tableaux(2, 3, 4))
