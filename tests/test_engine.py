"""Orbit machinery, homomesy checks, decomposition, exact linear algebra."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homomesy.engine import (
    Orbit,
    Statistic,
    check_homomesy,
    homomesic_subspace,
    in_reduced_span,
    invariant_homomesic_decomposition,
    iterate_orbit,
    orbit_average,
    orbit_partition,
    rational_nullspace,
    rational_solve,
)
from homomesy.guards import GuardExceeded
from homomesy.rationals import parse_rational


def rotate_mod(n):
    return lambda x: (x + 1) % n


def swap_pairs(x):
    # 0<->1, 2<->3, ...
    return x + 1 if x % 2 == 0 else x - 1


class TestStatistic:
    def test_scalar_wraps_ints(self):
        stat = Statistic.scalar("id", lambda x: x)
        assert stat(7) == (Fraction(7),)

    def test_vector_dimension_enforced(self):
        stat = Statistic("pair", 2, lambda x: (x, x + 1))
        assert stat(1) == (Fraction(1), Fraction(2))
        bad = Statistic("pair", 3, lambda x: (x, x + 1))
        with pytest.raises(ValueError, match="dimension"):
            bad(1)

    def test_floats_rejected(self):
        stat = Statistic.scalar("bad", lambda x: 0.5)
        with pytest.raises(TypeError, match="float"):
            stat(0)
        vec = Statistic("bad", 2, lambda x: (1, 2.0))
        with pytest.raises(TypeError):
            vec(0)

    def test_fraction_values_pass_through(self):
        stat = Statistic.scalar("half", lambda x: Fraction(x, 2))
        assert stat(3) == (Fraction(3, 2),)


class TestIterateOrbit:
    def test_period_and_representative(self):
        orbit = iterate_orbit(rotate_mod(5), 3)
        assert orbit.period == 5
        assert orbit.representative == 0
        # consecutive states follow the map
        assert orbit.states == (0, 1, 2, 3, 4)

    def test_fixed_point(self):
        orbit = iterate_orbit(lambda x: x, "only")
        assert orbit.states == ("only",)

    def test_non_closing_map_raises_guard(self):
        with pytest.raises(GuardExceeded, match="did not close"):
            iterate_orbit(lambda x: x + 1, 0, guard=50)

    def test_rho_shaped_map_raises_guard(self):
        # 0 -> 1 -> 2 -> 1: never returns to 0
        table = {0: 1, 1: 2, 2: 1}
        with pytest.raises(GuardExceeded):
            iterate_orbit(lambda x: table[x], 0, guard=50)


class TestOrbitPartition:
    def test_partition_covers_space(self):
        orbits = orbit_partition(swap_pairs, range(6))
        assert [o.states for o in orbits] == [(0, 1), (2, 3), (4, 5)]

    def test_sorted_by_representative(self):
        orbits = orbit_partition(rotate_mod(4), [3, 2, 1, 0])
        assert len(orbits) == 1
        assert orbits[0].representative == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            orbit_partition(swap_pairs, [0, 0, 1])

    def test_closure_violation_reported(self):
        with pytest.raises(ValueError, match="closure violation"):
            orbit_partition(rotate_mod(6), [0, 1, 2])


class TestAverages:
    def test_orbit_average_exact(self):
        orbit = iterate_orbit(rotate_mod(4), 0)
        stat = Statistic.scalar("self", lambda x: x)
        assert orbit_average(stat, orbit) == (Fraction(3, 2),)

    def test_superorbit_average_is_unchanged(self):
        # traversing an orbit several times cannot move the mean
        orbit = iterate_orbit(rotate_mod(3), 0)
        stat = Statistic.scalar("sq", lambda x: x * x)
        tripled = Orbit(orbit.states * 3)
        assert orbit_average(stat, tripled) == orbit_average(stat, orbit)

    def test_vector_average(self):
        orbit = iterate_orbit(swap_pairs, 0)
        stat = Statistic("v", 2, lambda x: (x, 1 - x))
        assert orbit_average(stat, orbit) == (Fraction(1, 2), Fraction(1, 2))


class TestCheckHomomesy:
    def test_homomesic_system(self):
        report = check_homomesy(swap_pairs, range(6), Statistic.scalar("parity", lambda x: x % 2))
        assert report.homomesic
        assert report.c == (Fraction(1, 2),)
        assert report.global_average == (Fraction(1, 2),)
        assert [s.period for s in report.orbit_summaries] == [2, 2, 2]

    def test_non_homomesic_system(self):
        report = check_homomesy(swap_pairs, range(4), Statistic.scalar("self", lambda x: x))
        assert not report.homomesic
        assert report.c is None
        assert report.global_average == (Fraction(3, 2),)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_homomesy(swap_pairs, [], Statistic.scalar("x", lambda x: x))

    def test_document_round_trips_through_json(self):
        report = check_homomesy(swap_pairs, range(6),
                                Statistic.scalar("parity", lambda x: x % 2))
        doc = report.document(map_name="pair swap", space={"kind": "ints", "n": 6},
                              serialize_state=str)
        blob = json.loads(json.dumps(doc))
        assert blob["map"] == "pair swap"
        assert blob["homomesic"] is True
        assert parse_rational(blob["c"]) == Fraction(1, 2)
        # the document alone is enough to recompute the verdict
        averages = {o["average"] for o in blob["orbits"]}
        assert (len(averages) == 1) == blob["homomesic"]

    def test_document_vector_statistic(self):
        report = check_homomesy(swap_pairs, range(2),
                                Statistic("v", 2, lambda x: (x, 1 - x)))
        doc = report.document(map_name="m", space={})
        assert doc["c"] == ["1/2", "1/2"]


class TestDecomposition:
    @pytest.mark.parametrize("stat_fn", [lambda x: x, lambda x: x * x - 3])
    def test_splits_into_invariant_plus_zero_mesic(self, stat_fn):
        space = range(6)
        stat = Statistic.scalar("f", stat_fn)
        f_mean, f_centered = invariant_homomesic_decomposition(swap_pairs, space, stat)
        assert f_mean.name == "f.orbit-mean"
        assert f_centered.name == "f.centered"
        for x in space:
            assert f_mean(x)[0] + f_centered(x)[0] == stat(x)[0]
            assert f_mean(x) == f_mean(swap_pairs(x))  # orbit-constant
        centered_report = check_homomesy(swap_pairs, space, f_centered)
        assert centered_report.homomesic
        assert centered_report.c == (Fraction(0),)

    def test_uniqueness(self):
        # any invariant g with f - g zero-mesic must equal the orbit mean
        space = range(6)
        stat = Statistic.scalar("f", lambda x: x)
        f_mean, _ = invariant_homomesic_decomposition(swap_pairs, space, stat)
        for shift in (Fraction(1), Fraction(-2, 3)):
            g = Statistic.scalar("g", lambda x, s=shift: f_mean(x)[0] + s)
            residual = Statistic.scalar("r", lambda x: stat(x)[0] - g(x)[0])
            report = check_homomesy(swap_pairs, space, residual)
            assert report.homomesic and report.c != (Fraction(0),)


class TestHomomesicSubspace:
    def test_single_orbit_gives_everything(self):
        basis = [Statistic.scalar(f"e{i}", lambda x, i=i: 1 if x == i else 0)
                 for i in range(4)]
        vectors = homomesic_subspace(rotate_mod(4), range(4), basis)
        assert len(vectors) == 4

    def test_two_orbit_swap_system(self):
        basis = [Statistic.scalar(f"e{i}", lambda x, i=i: 1 if x == i else 0)
                 for i in range(4)]
        vectors = homomesic_subspace(swap_pairs, range(4), basis)
        # e0+e1 averages 1/2 on orbit {0,1} and 0 on {2,3}: not homomesic,
        # so the kernel is the coefficient vectors with c0+c1 = c2+c3
        assert len(vectors) == 3
        for vec in vectors:
            assert vec[0] + vec[1] == vec[2] + vec[3]
        # and every kernel member really is homomesic
        for vec in vectors:
            combo = Statistic.scalar(
                "combo", lambda x, v=vec: sum(v[i] * basis[i].fn(x) for i in range(4)))
            assert check_homomesy(swap_pairs, range(4), combo).homomesic

    def test_requires_scalar_statistics(self):
        vec_stat = Statistic("v", 2, lambda x: (x, x))
        with pytest.raises(ValueError, match="scalar"):
            homomesic_subspace(swap_pairs, range(4), [vec_stat])
        with pytest.raises(ValueError, match="at least one"):
            homomesic_subspace(swap_pairs, range(4), [])


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        rows = [[1, 0], [0, 1]]
        assert rational_nullspace(rows) == []

    def test_zero_matrix_has_full_kernel(self):
        vectors = rational_nullspace([], num_columns=3)
        assert vectors == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert rational_nullspace([[0, 0, 0]]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_rank_one_matrix(self):
        vectors = rational_nullspace([[1, 2, 3]])
        assert vectors == [(Fraction(-2), 1, 0), (Fraction(-3), 0, 1)]

    def test_empty_matrix_needs_column_count(self):
        with pytest.raises(ValueError, match="num_columns"):
            rational_nullspace([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            rational_nullspace([[1, 2], [1]])

    @given(st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                 min_size=4, max_size=4),
        min_size=1, max_size=5))
    def test_kernel_vectors_annihilate(self, rows):
        vectors = rational_nullspace(rows)
        for vec in vectors:
            for row in rows:
                assert sum(Fraction(r) * v for r, v in zip(row, vec)) == 0
        # canonical form: every basis vector owns a coordinate where it is 1
        # and all the others are 0, so independence is visible directly
        for vec in vectors:
            assert any(
                vec[k] == 1 and all(other is vec or other[k] == 0 for other in vectors)
                for k in range(4)
            )



class TestInReducedSpan:
    def test_vector_outside_the_span(self):
        kernel = rational_nullspace([[1, 2, 3]])  # the plane x + 2y + 3z = 0
        assert in_reduced_span((-2, 1, 0), kernel)
        assert in_reduced_span((-4, Fraction(1, 2), 1), kernel)
        assert not in_reduced_span((1, 1, 1), kernel)
        assert not in_reduced_span((0, 0, 1), kernel)

    def test_empty_kernel_holds_only_zero(self):
        assert in_reduced_span((0, 0), [])
        assert not in_reduced_span((0, 1), [])

    @given(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=1, max_size=4),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4))
    def test_membership_is_annihilation(self, rows, vector):
        annihilated = all(sum(r * v for r, v in zip(row, vector)) == 0 for row in rows)
        assert in_reduced_span(vector, rational_nullspace(rows)) == annihilated


class TestSolve:
    def test_known_system(self):
        x = rational_solve([[2, 1], [1, 3]], [5, 10])
        assert x == (Fraction(1), Fraction(3))

    def test_solution_satisfies_system(self):
        matrix = [[3, 1, 0], [1, 4, 2], [0, 2, 5]]
        rhs = [1, 0, 7]
        x = rational_solve(matrix, rhs)
        for row, b in zip(matrix, rhs):
            assert sum(Fraction(r) * v for r, v in zip(row, x)) == b

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            rational_solve([[1, 2], [2, 4]], [1, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            rational_solve([[1, 2]], [1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rational_solve([[1.0, 0], [0, 1]], [1, 1])
