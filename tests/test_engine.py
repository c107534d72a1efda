"""Orbit machinery, homomesy checks, decomposition, exact linear algebra."""
from dataclasses import replace
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from homomesy import engine
from homomesy.cli import SYSTEMS, build_bundle, build_parser
from homomesy.dynamics import rowmotion_ideal
from homomesy.engine import (
    ClosureViolation,
    Statistic,
    check_homomesy,
    homomesic_subspace,
    in_reduced_span,
    iterate_orbit,
    orbit_average,
    orbit_partition,
    rational_nullspace,
    rational_solve,
    summarize_orbits,
)
from homomesy.guards import GuardExceeded
from homomesy.posets import GridPoset
from homomesy.rationals import exact, format_rational
from reference import fraction_row_subspace, invariant_homomesic_decomposition


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

    def test_digit_strings_rejected(self):
        # a value must be an int or a Fraction; "5" is neither
        with pytest.raises(TypeError, match="str"):
            Statistic.scalar("text", lambda x: "5")(0)
        with pytest.raises(TypeError, match="str"):
            Statistic("text", 2, lambda x: (1, "1/2"))(0)


def reference_as_vector(value, dimension):
    """The value check as it was before the one-pass type test: one
    isinstance per entry."""
    vec = (value,) if isinstance(value, (int, Fraction, float, str)) else tuple(value)
    for v in vec:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"statistic value {v!r} is a {type(v).__name__}, not exact")
    if len(vec) != dimension:
        raise ValueError(f"statistic value has dimension {len(vec)}, declared {dimension}")
    return vec


def checked(check, value, dimension):
    """What a value check does with value: the entries and their types it
    returns, or the exception type and message it raises."""
    try:
        vec = check(value, dimension)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return vec, [type(v) for v in vec]


class Spoofed:
    """Not an int, but isinstance(x, int) says it is."""

    __class__ = int


class ExactInt(int):
    pass


class ExactFraction(Fraction):
    pass


scalar_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(ExactInt, st.integers(min_value=0, max_value=3)),
    st.builds(ExactFraction, st.integers(min_value=0, max_value=3)),
    st.floats(allow_nan=False, width=16),
    st.sampled_from(["5", "1/2", "", "x"]),
    st.decimals(min_value=-3, max_value=3, places=1),
    st.complex_numbers(max_magnitude=3, allow_nan=False),
    st.none(),
)
statistic_values = st.one_of(
    scalar_values,
    st.lists(scalar_values, max_size=4),
    st.lists(scalar_values, max_size=4).map(tuple),
    st.lists(st.one_of(scalar_values, st.tuples(scalar_values)), max_size=4).map(tuple),
    st.binary(max_size=4),
    st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(bytes),
)


class TestValueCheck:
    @given(statistic_values, st.integers(min_value=0, max_value=4))
    @example((1, 0.5, "x"), 3)  # the first offender is named
    @example([True, ExactInt(3), Fraction(1, 2)], 3)  # subclasses pass unconverted
    def test_matches_the_per_entry_loop(self, value, dimension):
        assert checked(engine._as_vector, value, dimension) == \
            checked(reference_as_vector, value, dimension)

    def test_isinstance_decides_as_before(self):
        # a type outside int and Fraction sends the entries through isinstance
        spoofed = Spoofed()
        assert engine._as_vector((1, spoofed), 2) == (1, spoofed)

    @pytest.mark.parametrize("value,message", [
        (0.5, "statistic value 0.5 is a float, not exact"),
        ((1, 2.0), "statistic value 2.0 is a float, not exact"),
        ("5", "statistic value '5' is a str, not exact"),
        ((1, "5"), "statistic value '5' is a str, not exact"),
        (Decimal("1.5"), "'decimal.Decimal' object is not iterable"),
        ((Decimal("1.5"), 1), "statistic value Decimal('1.5') is a Decimal, not exact"),
        (1j, "'complex' object is not iterable"),
        ((1, 1j), "statistic value 1j is a complex, not exact"),
        (None, "'NoneType' object is not iterable"),
        ((None, 1), "statistic value None is a NoneType, not exact"),
        ((1, (2,)), "statistic value (2,) is a tuple, not exact"),
    ])
    def test_refused_with_the_old_message(self, value, message):
        with pytest.raises(TypeError) as caught:
            engine._as_vector(value, 2)
        assert str(caught.value) == message
        assert checked(engine._as_vector, value, 2) == checked(reference_as_vector, value, 2)

    @pytest.mark.parametrize("value,dimension,expected", [
        (True, 1, (True,)),
        ((False, True), 2, (False, True)),
        (ExactInt(5), 1, (ExactInt(5),)),
        ((ExactInt(1), ExactFraction(2)), 2, (ExactInt(1), ExactFraction(2))),
        (Fraction(1, 2), 1, (Fraction(1, 2),)),
        ([Fraction(1, 2), 3], 2, (Fraction(1, 2), 3)),
        (b"\x00\x01\x01", 3, (0, 1, 1)),
    ])
    def test_accepted_unconverted(self, value, dimension, expected):
        vec = engine._as_vector(value, dimension)
        assert vec == expected
        assert [type(v) for v in vec] == [type(v) for v in expected]

    def test_bare_int_fast_path_still_checks_the_dimension(self):
        assert engine._as_vector(7, 1) == (7,)
        with pytest.raises(ValueError, match="dimension 1, declared 2"):
            engine._as_vector(7, 2)


class TestFormatRational:
    @pytest.mark.parametrize("value", [0.1, "1/2"])
    def test_floats_and_strings_are_refused(self, value):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            format_rational(value)


class TestIterateOrbit:
    def test_period_and_representative(self):
        orbit = iterate_orbit(rotate_mod(5), 3)
        assert len(orbit) == 5
        assert orbit[0] == 0
        # consecutive states follow the map
        assert orbit == (0, 1, 2, 3, 4)

    def test_fixed_point(self):
        orbit = iterate_orbit(lambda x: x, "only")
        assert orbit == ("only",)

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
        assert orbits == [(0, 1), (2, 3), (4, 5)]

    def test_sorted_by_representative(self):
        orbits = orbit_partition(rotate_mod(4), [3, 2, 1, 0])
        assert len(orbits) == 1
        assert orbits[0][0] == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            orbit_partition(swap_pairs, [0, 0, 1])

    def test_closure_violation_reported(self):
        with pytest.raises(ValueError, match="closure violation"):
            orbit_partition(rotate_mod(6), [0, 1, 2])

    def test_closure_violation_names_the_first_outside_state_in_orbit_order(self):
        # the walk from 2 meets 4 before 1, but the orbit starts at 0
        with pytest.raises(ValueError, match="^closure violation: the map leaves "
                                             "the state space at 1$"):
            orbit_partition(rotate_mod(6), [2, 3, 5, 0])

    def test_a_closure_violation_is_a_value_error_of_its_own_class(self):
        with pytest.raises(ClosureViolation) as caught:
            orbit_partition(rotate_mod(6), [0, 1, 2])
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == "closure violation: the map leaves the state space at 3"
        # the other refusals stay plain ValueErrors
        with pytest.raises(ValueError) as duplicate:
            orbit_partition(swap_pairs, [0, 0, 1])
        assert not isinstance(duplicate.value, ClosureViolation)

    def test_a_generator_is_read_once(self):
        assert orbit_partition(swap_pairs, (x for x in range(6))) == [(0, 1), (2, 3), (4, 5)]


class TestAverages:
    def test_orbit_average_exact(self):
        orbit = iterate_orbit(rotate_mod(4), 0)
        stat = Statistic.scalar("self", lambda x: x)
        assert orbit_average(stat, orbit) == (Fraction(3, 2),)

    def test_superorbit_average_is_unchanged(self):
        # traversing an orbit several times cannot move the mean
        orbit = iterate_orbit(rotate_mod(3), 0)
        stat = Statistic.scalar("sq", lambda x: x * x)
        tripled = orbit * 3
        assert orbit_average(stat, tripled) == orbit_average(stat, orbit)

    def test_vector_average(self):
        orbit = iterate_orbit(swap_pairs, 0)
        stat = Statistic("v", 2, lambda x: (x, 1 - x))
        assert orbit_average(stat, orbit) == (Fraction(1, 2), Fraction(1, 2))


def summed_calls(statistic, orbit):
    """An orbit average from Statistic.__call__ on every state, summed per
    component: the checked path, which orbit_average takes."""
    vectors = [statistic(state) for state in orbit]
    return tuple(Fraction(sum(column), len(orbit)) for column in zip(*vectors))


def outcome(average, statistic, orbit):
    """The average and its entries' types, or the exception type and message."""
    try:
        result = average(statistic, orbit)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return result, [type(v) for v in result]


class Colour(IntEnum):
    RED = 2


def later_average(statistic, orbit):
    """orbit's average in summarize_orbits, after a first orbit (-1,)."""
    return summarize_orbits([(-1,), orbit], statistic).orbit_summaries[1].average


class TestTheScalarPassIsTheCheckedPath:
    """summarize_orbits checks a later orbit's scalar values in one pass over
    their types; a value that is not a bare int or Fraction is judged as
    Statistic.__call__ judges it, with the same message."""

    @pytest.mark.parametrize("odd", [
        0.5, "5", True, Colour.RED, Fraction(1, 2), ExactInt(4), (3,), [Fraction(1, 3)],
        b"\x01", (1, 2), (), None, Decimal("1.5"), (0.5,),
    ], ids=repr)
    def test_a_value_at_a_later_state(self, odd):
        stat = Statistic.scalar("odd", lambda x: odd if x == 2 else x)
        orbit = iterate_orbit(rotate_mod(4), 0)
        assert outcome(later_average, stat, orbit) == outcome(summed_calls, stat, orbit)

    def test_fn_runs_once_per_state_and_the_call_never(self, monkeypatch):
        # on a later orbit: Statistic.__call__ runs on the first orbit's states only
        seen, called = [], []
        stat = Statistic.scalar("id", lambda x: seen.append(x) or x)
        original = Statistic.__call__

        def counted(statistic, state):
            called.append(state)
            return original(statistic, state)

        monkeypatch.setattr(Statistic, "__call__", counted)
        report = summarize_orbits([(4, 5), (0, 1, 2, 3)], stat)
        assert [s.average for s in report.orbit_summaries] == [(Fraction(3, 2),), (Fraction(9, 2),)]
        assert (seen, called) == ([4, 5, 0, 1, 2, 3], [4, 5])


class TestOneFractionPerDistinctTotal:
    def test_indicator_averages_on_7x7(self, monkeypatch):
        # an indicator's total over an orbit lies in 0..period, so the 49
        # components of an average hold at most period + 1 distinct values
        poset = GridPoset(7, 7)
        n = len(poset.elements)
        stat = Statistic("indicators", n, lambda s: [s >> i & 1 for i in range(n)])
        orbits = orbit_partition(lambda s: rowmotion_ideal(poset, s),
                                 poset.enumerate_order_ideals())
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        monkeypatch.setattr(engine, "Fraction", CountingFraction)
        total = 0
        for orbit in orbits:
            built.clear()
            average = orbit_average(stat, orbit)
            assert len(built) == len(set(average)) <= min(n, len(orbit) + 1)
            total += len(built)
            assert average == reference_orbit_average(stat, orbit)
        assert 3 * total < len(orbits) * n  # 3092 Fractions for 12054 components


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

    def test_a_homomesic_report_holds_one_average_object(self):
        poset = GridPoset(3, 4)
        report = check_homomesy(lambda s: rowmotion_ideal(poset, s),
                                poset.enumerate_order_ideals(),
                                Statistic.scalar("ideal-size", int.bit_count))
        assert report.homomesic and len(report.orbit_summaries) > 1
        assert all(s.average is report.c for s in report.orbit_summaries)
        assert report.global_average is report.c

    def test_a_non_homomesic_report_holds_one_object_per_distinct_average(self):
        # the orbits (0, 1), (2, 3), (4, 5) average (0, 0), (1, 1), (0, 0)
        report = check_homomesy(swap_pairs, range(6),
                                Statistic("pair", 2, lambda x: (x // 2 % 2,) * 2))
        first, second, third = (s.average for s in report.orbit_summaries)
        assert not report.homomesic
        assert first is third and first is not second
        assert report.global_average == (Fraction(1, 3),) * 2

    def test_summarize_orbits_sorts_a_generator_of_orbits(self):
        orbits = [(4, 5), (0, 1), (2, 3)]
        report = summarize_orbits((o for o in orbits), Statistic.scalar("x", lambda x: x))
        assert [s.representative for s in report.orbit_summaries] == [0, 2, 4]
        assert [s.average for s in report.orbit_summaries] == [
            (Fraction(1, 2),), (Fraction(5, 2),), (Fraction(9, 2),)]
        assert report.global_average == (Fraction(5, 2),)

    def test_summarize_orbits_refuses_an_empty_iterable(self):
        for orbits in ([], iter(()), (o for o in ())):
            with pytest.raises(ValueError, match="empty state space"):
                summarize_orbits(orbits, Statistic.scalar("x", lambda x: x))

    def test_no_orbit_list_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbit_partition ran")

        monkeypatch.setattr(engine, "orbit_partition", refuse)
        report = check_homomesy(swap_pairs, range(6), Statistic.scalar("x", lambda x: x % 2))
        assert report.homomesic and len(report.orbit_summaries) == 3
        assert len(homomesic_subspace(swap_pairs, range(4), indicators(4))) == 3
        # the checks of the walk still hold without it
        for search in (check_homomesy, homomesic_subspace):
            with pytest.raises(ValueError, match="duplicate"):
                search(swap_pairs, [0, 0, 1], Statistic.scalar("x", lambda x: x))
            with pytest.raises(ClosureViolation, match="at 3$"):
                search(rotate_mod(6), [0, 1, 2], Statistic.scalar("x", lambda x: x))


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


def indicators(n):
    """One vector statistic whose component i is the indicator of state i."""
    return Statistic("e", n, lambda x: [1 if x == i else 0 for i in range(n)])


class TestHomomesicSubspace:
    def test_single_orbit_gives_everything(self):
        vectors = homomesic_subspace(rotate_mod(4), range(4), indicators(4))
        assert len(vectors) == 4

    def test_two_orbit_swap_system(self):
        basis = indicators(4)
        vectors = homomesic_subspace(swap_pairs, range(4), basis)
        # e0+e1 averages 1/2 on orbit {0,1} and 0 on {2,3}: not homomesic,
        # so the kernel is the coefficient vectors with c0+c1 = c2+c3
        assert len(vectors) == 3
        for vec in vectors:
            assert vec[0] + vec[1] == vec[2] + vec[3]
        # and every kernel member really is homomesic
        for vec in vectors:
            combo = Statistic.scalar(
                "combo", lambda x, v=vec: sum(c * e for c, e in zip(v, basis(x))))
            assert check_homomesy(swap_pairs, range(4), combo).homomesic

    def test_requires_scalar_statistics(self):
        # each component is one exact scalar, and there are as many as declared;
        # both are checked inside the search
        float_component = Statistic("f", 2, lambda x: (x, 0.5))
        with pytest.raises(TypeError, match="float"):
            homomesic_subspace(swap_pairs, range(4), float_component)
        pair_as_scalar = Statistic.scalar("s", lambda x: (x, x))
        with pytest.raises(ValueError, match="dimension 2, declared 1"):
            homomesic_subspace(swap_pairs, range(4), pair_as_scalar)
        wrong_dimension = Statistic("v", 3, lambda x: (x, x))
        with pytest.raises(ValueError, match="dimension 2, declared 3"):
            homomesic_subspace(swap_pairs, range(4), wrong_dimension)

    def test_basis_values_must_be_bare(self):
        # a component that is itself a 1-tuple is not a number
        boxed = Statistic("boxed", 2, lambda x: ((x,), 0))
        with pytest.raises(TypeError, match="tuple"):
            homomesic_subspace(swap_pairs, range(4), boxed)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty state space"):
            homomesic_subspace(swap_pairs, [], Statistic.scalar("e0", lambda x: x))

    def test_rows_come_from_the_orbit_averages_alone(self, monkeypatch):
        # no verdict, global average or difference rows: only orbit_average
        def refuse(*args, **kwargs):
            raise AssertionError("summarize_orbits ran")

        monkeypatch.setattr(engine, "summarize_orbits", refuse)
        assert len(homomesic_subspace(swap_pairs, range(4), indicators(4))) == 3

    def test_one_statistic_call_per_state(self, monkeypatch):
        # fn runs once per state; Statistic.__call__ runs on the first orbit's
        # states, where orbit_average takes a vector statistic through it
        evaluated, called = [], []
        original = Statistic.__call__

        def counted(stat, state):
            called.append(state)
            return original(stat, state)

        def counting(stat):
            return replace(stat, fn=lambda x: evaluated.append(x) or stat.fn(x))

        monkeypatch.setattr(Statistic, "__call__", counted)
        homomesic_subspace(swap_pairs, range(6), counting(indicators(6)))
        assert (sorted(evaluated), called) == (list(range(6)), [0, 1])
        # a scalar statistic goes the same way, and the walk starts at the
        # first state of the space, not at the least
        evaluated.clear()
        called.clear()
        homomesic_subspace(swap_pairs, [5, *range(5)],
                           counting(Statistic.scalar("x", lambda x: x)))
        assert (sorted(evaluated), called) == (list(range(6)), [4, 5])


ORBITS = [(0, 1), (2, 3), (4, 5)]  # swap_pairs on range(6)


def search(entry, statistic):
    """entry's result on swap_pairs over range(6)."""
    if entry == "check_homomesy":
        return check_homomesy(swap_pairs, range(6), statistic)
    if entry == "summarize_orbits":
        return summarize_orbits(ORBITS, statistic)
    return homomesic_subspace(swap_pairs, range(6), statistic)


def odd_at_5(dimension, odd):
    """A statistic whose value at state 5, on the last orbit, is odd() and
    plain elsewhere: x for a scalar, (x, 1) for a pair."""
    def fn(x):
        if x == 5:
            return odd()
        return x if dimension == 1 else (x, 1)
    return Statistic("f", dimension, fn)


SEARCHES = ("check_homomesy", "summarize_orbits", "homomesic_subspace")


class TestALaterOrbitIsCheckedInOnePass:
    """A value on an orbit after the first, which only the one-pass check of
    the orbit sums sees, is judged as Statistic.__call__ judges it."""

    @pytest.mark.parametrize("entry", SEARCHES)
    @pytest.mark.parametrize("dimension,odd,error,message", [
        (1, 0.5, TypeError, "statistic value 0.5 is a float, not exact"),
        (2, 0.5, TypeError, "statistic value 0.5 is a float, not exact"),
        (1, "5", TypeError, "statistic value '5' is a str, not exact"),
        (2, "5", TypeError, "statistic value '5' is a str, not exact"),
        (2, (1, 2.5), TypeError, "statistic value 2.5 is a float, not exact"),
        (2, [1, 2.5], TypeError, "statistic value 2.5 is a float, not exact"),
        (2, (1, 2, 3), ValueError, "statistic value has dimension 3, declared 2"),
        (2, (1,), ValueError, "statistic value has dimension 1, declared 2"),
        (1, (1, 2), ValueError, "statistic value has dimension 2, declared 1"),
    ])
    def test_refused_with_the_checked_message(self, entry, dimension, odd, error, message):
        assert checked(reference_as_vector, odd, dimension) == (error, message)
        with pytest.raises(error) as caught:
            search(entry, odd_at_5(dimension, lambda: odd))
        assert str(caught.value) == message

    @pytest.mark.parametrize("entry", SEARCHES)
    @pytest.mark.parametrize("dimension,odd", [
        (1, lambda: (v for v in [7])),
        (2, lambda: (v for v in (7, 1))),
        (1, lambda: True),
        (2, lambda: (True, False)),
        (1, lambda: Fraction(7, 3)),
        (2, lambda: [Fraction(7, 3), 1]),
        (2, lambda: (ExactFraction(2), ExactInt(3))),
    ], ids=["generator", "generator-pair", "bool", "bool-pair", "fraction", "fraction-pair",
            "subclass-pair"])
    def test_accepted_as_the_checked_path_accepts(self, entry, dimension, odd):
        statistic = odd_at_5(dimension, odd)
        result = search(entry, statistic)
        if entry == "homomesic_subspace":
            assert result == reference_subspace(swap_pairs, range(6), statistic)
        else:
            assert [(s.representative, s.period, s.average) for s in result.orbit_summaries] == [
                (o[0], 2, reference_orbit_average(statistic, o)) for o in ORBITS]


def reference_orbit_average(statistic, orbit):
    """The per-state Fraction accumulation that orbit_average replaced."""
    total = [Fraction(0)] * statistic.dimension
    for state in orbit:
        value = statistic(state)
        for i in range(statistic.dimension):
            total[i] += value[i]
    return tuple(t / len(orbit) for t in total)


def reference_subspace(tau, space, statistic):
    """The orbits x components average matrix that homomesic_subspace replaced."""
    orbits = orbit_partition(tau, space)
    averages = [reference_orbit_average(statistic, o) for o in orbits]
    rows = [[v - r for v, r in zip(row, averages[0])] for row in averages[1:]]
    return reference_nullspace(rows, num_columns=statistic.dimension)


EXACT_VALUES = {
    "int": st.integers(min_value=-20, max_value=20),
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=6),
}
EXACT_VALUES["mixed"] = st.one_of(EXACT_VALUES["int"], EXACT_VALUES["fraction"])


@st.composite
def permutation_systems(draw):
    """(tau, n, table): a random permutation of range(n) and a statistic
    table with one row of int, Fraction or mixed values per state."""
    n = draw(st.integers(min_value=1, max_value=9))
    perm = draw(st.permutations(range(n)))
    dim = draw(st.integers(min_value=1, max_value=4))
    values = EXACT_VALUES[draw(st.sampled_from(sorted(EXACT_VALUES)))]
    table = draw(st.lists(st.tuples(*[values] * dim), min_size=n, max_size=n))
    return perm.__getitem__, n, table


def all_fractions(vec):
    return all(isinstance(v, Fraction) for v in vec)


class TestExactSumsMatchTheFractionLoops:
    @given(permutation_systems())
    @example(((1, 0, 2).__getitem__, 3, [(0,), (2,), (1,)]))  # homomesic
    @example(((1, 0, 2).__getitem__, 3, [(0,), (2,), (5,)]))  # not homomesic
    # a later orbit matches the first while another differs: global average 7/10
    @example(((1, 0, 3, 2, 4).__getitem__, 5,
              [(0,), (1,), (Fraction(1, 2),), (Fraction(1, 2),), (Fraction(3, 2),)]))
    def test_averages_split_and_subspace(self, system):
        tau, n, table = system
        dim = len(table[0])
        # a scalar statistic returns a bare value, a vector one a tuple
        stat = (Statistic.scalar("f", lambda x: table[x][0]) if dim == 1
                else Statistic("f", dim, table.__getitem__))
        space = range(n)
        orbits = orbit_partition(tau, space)
        ref_mean = {}
        for orbit in orbits:
            average = orbit_average(stat, orbit)
            assert average == reference_orbit_average(stat, orbit)
            assert all_fractions(average)
            ref_mean.update(dict.fromkeys(orbit, average))

        report = check_homomesy(tau, space, stat)
        assert [(s.representative, s.period, s.average) for s in report.orbit_summaries] == [
            (o[0], len(o), ref_mean[o[0]]) for o in orbits]
        averages = [s.average for s in report.orbit_summaries]
        assert len({id(a) for a in averages}) == len(set(averages))
        assert all_fractions(report.global_average)
        assert report.global_average == tuple(
            Fraction(sum(stat(x)[i] for x in space), n) for i in range(dim))
        assert report.c is None or all_fractions(report.c)

        f_mean, f_centered = invariant_homomesic_decomposition(tau, space, stat)
        for x in space:
            assert f_mean(x) == ref_mean[x] and all_fractions(f_mean(x))
            centered = tuple(v - m for v, m in zip(stat(x), ref_mean[x]))
            assert f_centered(x) == centered and all_fractions(f_centered(x))

        kernel = homomesic_subspace(tau, space, stat)
        assert kernel == reference_subspace(tau, space, stat)
        assert all(all_fractions(vec) for vec in kernel)


@st.composite
def cycle_systems(draw):
    """(tau, n, table): a permutation of range(n) from random cycle lengths,
    its states labelled at random, and a table of int, Fraction or mixed
    statistic rows in which some cycles, whatever their lengths, average to
    one shared target."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    dim = draw(st.integers(min_value=1, max_value=3))
    target = draw(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * dim))
    entries = EXACT_VALUES[draw(st.sampled_from(sorted(EXACT_VALUES)))]
    n = sum(lengths)
    labels = draw(st.permutations(range(n)))
    perm, table = [0] * n, [()] * n
    start = 0
    for period in lengths:
        cycle = labels[start:start + period]
        start += period
        rows = draw(st.lists(st.tuples(*[entries] * dim), min_size=period, max_size=period))
        if draw(st.booleans()):  # the last row makes this cycle average to target
            last = (period * t - sum(row[i] for row in rows[:-1]) for i, t in enumerate(target))
            rows[-1] = tuple(int(v) if v.denominator == 1 else v for v in last)
        for k, state in enumerate(cycle):
            perm[state] = cycle[(k + 1) % period]
            table[state] = rows[k]
    return perm.__getitem__, n, table


# (0 1)(2 3 4 5): sums 3 over period 2 and 6 over period 4, both 3/2
TWO_PERIODS = (1, 0, 3, 4, 5, 2).__getitem__


class TestIntegerRowsMatchTheFractionRows:
    @given(cycle_systems())
    @example((TWO_PERIODS, 6, [(1,), (2,), (1,), (2,), (1,), (2,)]))
    @example((TWO_PERIODS, 6, [(1, 0), (2, 1), (0, 1), (3, 1), (1, 0), (2, 0)]))
    @example((TWO_PERIODS, 6, [(1, 0), (2, 1), (0, 1), (3, 1), (1, 0), (2, 1)]))
    def test_subspace_and_shared_averages(self, system):
        tau, n, table = system
        dim = len(table[0])
        stat = (Statistic.scalar("f", lambda x: table[x][0]) if dim == 1
                else Statistic("f", dim, table.__getitem__))
        kernel = homomesic_subspace(tau, range(n), stat)
        assert kernel == fraction_row_subspace(tau, range(n), stat)
        assert all(all_fractions(vec) for vec in kernel)
        averages = [s.average for s in check_homomesy(tau, range(n), stat).orbit_summaries]
        orbits = orbit_partition(tau, range(n))
        assert averages == [reference_orbit_average(stat, o) for o in orbits]
        assert len({id(a) for a in averages}) == len(set(averages))

    @given(cycle_systems(), st.data())
    def test_a_shuffled_space_matches_the_sorted_fraction_rows(self, system, data):
        # the rows come in the order of the walk over the shuffled space; the
        # reference takes them sorted by least state
        tau, n, table = system
        space = data.draw(st.permutations(range(n)))
        dim = len(table[0])
        stat = (Statistic.scalar("f", lambda x: table[x][0]) if dim == 1
                else Statistic("f", dim, table.__getitem__))
        assert homomesic_subspace(tau, space, stat) == fraction_row_subspace(tau, range(n), stat)


class TestEqualAveragesOverDifferentPeriods:
    # the orbits (0, 1) and (2, 3, 4, 5) sum to 3 and 6: both average 3/2
    values = {0: 1, 1: 2, 2: 0, 3: 3, 4: 1, 5: 2, 6: 4}

    def test_the_first_average_is_shared(self):
        stat = Statistic.scalar("v", self.values.__getitem__)
        report = summarize_orbits([(0, 1), (2, 3, 4, 5)], stat)
        pair, quad = report.orbit_summaries
        assert (pair.period, quad.period) == (2, 4)
        assert pair.average == (Fraction(3, 2),) and quad.average is pair.average
        assert report.homomesic and report.c is pair.average

    def test_another_average_is_shared(self):
        stat = Statistic("v", 2, lambda x: (self.values[x], 2 * self.values[x]))
        report = summarize_orbits([(6,), (2, 3, 4, 5), (0, 1)], stat)
        pair, quad, fixed = report.orbit_summaries
        assert fixed.average == (4, 8) and not report.homomesic
        assert pair.average == (Fraction(3, 2), 3) and quad.average is pair.average
        assert report.global_average == (Fraction(13, 7), Fraction(26, 7))


class TestPackedBytesSumsAtTheCarryBound:
    """bytes values are summed as packed ints when max entry * period is at
    most 255, where no column can carry into the next, and column by column
    from 256 on."""

    @pytest.mark.parametrize("period,top", [
        (255, 1), (256, 1), (2, 127), (2, 128), (3, 85), (3, 86)])
    def test_sums_match_the_column_sums(self, period, top):
        # column 0 sums to top * period, where a packed sum would carry
        cycle = [bytes((top, top * (x % 2), 0, top if x == 0 else x % 2)) for x in range(period)]
        table = cycle + [bytes((1, 0, 2, top))]
        stat = Statistic("bytes", 4, table.__getitem__)
        assert engine._orbit_totals(stat, tuple(range(period))) == [
            sum(column) for column in zip(*cycle)]
        # the fixed point comes first in the space, so the cycle is a later orbit
        def tau(x):
            return x if x == period else (x + 1) % period

        space = [period, *range(period)]
        assert homomesic_subspace(tau, space, stat) == fraction_row_subspace(tau, space, stat)

    def test_bytes_mixed_with_tuples_sum_as_checked_vectors(self):
        table = [b"\x01\x02", (3, Fraction(1, 2)), [4, 5]]
        stat = Statistic("mixed", 2, table.__getitem__)
        assert engine._orbit_totals(stat, (0, 1, 2)) == [8, Fraction(15, 2)]


GRID_SYSTEMS = sorted(name for name in SYSTEMS if name.startswith("grid-"))


class TestSubspaceOnTheGridSystems:
    @pytest.mark.parametrize("system", GRID_SYSTEMS)
    def test_matches_the_reference_on_every_small_grid(self, system):
        assert len(GRID_SYSTEMS) == 4
        for a in range(1, 6):
            for b in range(a, 6):
                args = build_parser().parse_args(
                    ["subspace", system, "--a", str(a), "--b", str(b)])
                bundle = build_bundle(args)
                # the element indicators that the subspace command reads from the mask
                n = len(bundle.poset.elements)
                basis = Statistic("indicators", n,
                                  lambda s: [s >> bundle.poset.index[x] & 1
                                             for x in bundle.poset.elements])
                kernel = homomesic_subspace(bundle.tau, bundle.space, basis)
                assert kernel == reference_subspace(bundle.tau, bundle.space, basis), (a, b)


@st.composite
def rational_matrices(draw):
    """(rows, num_columns): 0-8 rows of 1-6 int or Fraction entries, where a
    row may be zero, repeat an earlier row, scale one, or add two."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    entries = st.one_of(st.integers(min_value=-9, max_value=9),
                        st.fractions(min_value=-9, max_value=9, max_denominator=6))
    factors = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scaled", "sum"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "scaled":
            factor = draw(factors)
            rows.append([factor * v for v in draw(st.sampled_from(rows))])
        else:
            x, y, factor = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(factors)
            rows.append([u + factor * v for u, v in zip(x, y)])
    return rows, ncols


# 30 integer combinations of 3 independent rows over 8 columns: rank 3
TALL_BASE = ((1, 2, 0, -1, 3, 0, 1, 2), (0, 1, 1, 2, -1, 4, 0, 1), (2, 0, -3, 1, 0, 1, 5, -2))
TALL_WEIGHTS = [(i % 3 - 1, i % 5 - 2, i % 7 - 3) for i in range(30)]


def combinations_of(base, weights):
    return [[sum(w * v for w, v in zip(ws, column)) for column in zip(*base)] for ws in weights]


TALL = combinations_of(TALL_BASE, TALL_WEIGHTS)
LATE = [0, 0, 0, 0, 0, 0, 1, 1]
FRACTION_WEIGHTS = [(Fraction(i % 4 - 1, i % 3 + 1), Fraction(i % 5 - 2, 2), Fraction(1, i + 1))
                    for i in range(30)]


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

    def test_a_column_count_that_disagrees_with_the_rows_is_refused(self):
        with pytest.raises(ValueError, match="^num_columns disagrees with the rows$"):
            rational_nullspace([[1, 2]], num_columns=3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            rational_nullspace([[1, 2], [1]])

    def test_a_row_of_ints_is_used_as_it_is(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an int row was rescaled")

        # the elimination takes the lcm of its pivots; only the scaling of
        # each row to integers must leave an int row alone
        integer_row = engine._integer_row

        def spy(entries):
            with monkeypatch.context() as scaling:
                scaling.setattr(engine, "lcm", refuse)
                return integer_row(entries)

        monkeypatch.setattr(engine, "_integer_row", spy)
        assert rational_nullspace([[1, 2, 3], (2, 4, 6)]) == [(-2, 1, 0), (-3, 0, 1)]
        with pytest.raises(AssertionError, match="rescaled"):
            rational_nullspace([[1, Fraction(1, 2)]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rational_nullspace([[1, 0.5]])
        # a float row equal to an earlier exact row is refused, not dropped as a repeat
        with pytest.raises(TypeError, match="floating-point"):
            rational_nullspace([[1, 2], [1.0, 2]])
        with pytest.raises(TypeError, match="floating-point"):
            rational_nullspace([(Fraction(1), Fraction(2)), (Fraction(1), 2.0)])

    @given(rational_matrices(), st.data())
    def test_shuffled_and_repeated_rows_give_the_reference_kernel(self, matrix, data):
        rows, ncols = matrix
        extra = data.draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
        shuffled = data.draw(st.permutations([*rows, *extra]))
        assert rational_nullspace(shuffled, ncols) == reference_nullspace(rows, ncols)
        as_tuples = [tuple(row) for row in shuffled]
        assert rational_nullspace(as_tuples, ncols) == reference_nullspace(rows, ncols)

    @given(rational_matrices())
    @example(([[0, 0], [1, 2], [2, 4], [1, 2]], 2))  # zero, scaled and repeated rows
    @example(([[0, 1, 1], [1, 1, 0], [1, 2, 1]], 3))  # a sum of two earlier rows
    @example((TALL, 8))  # many more rows than the rank
    # an independent row after 20 rows of rank 3 adds a late pivot, and the
    # rows after it are in the span only with that row
    @example((TALL[:20] + [LATE] + [[x + y for x, y in zip(row, LATE)] for row in TALL[20:]], 8))
    @example((combinations_of(TALL_BASE, FRACTION_WEIGHTS), 8))
    def test_matches_the_reference_elimination(self, matrix):
        rows, ncols = matrix
        kernel = rational_nullspace(rows, ncols)
        assert kernel == reference_nullspace(rows, ncols)
        assert all(all_fractions(vec) for vec in kernel)

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

    def test_zero_basis_vector_refused(self):
        with pytest.raises(ValueError, match="zero"):
            in_reduced_span((1, 2), [(0, 0)])
        with pytest.raises(ValueError, match="zero"):
            in_reduced_span((1, 2), [(1, 0), (Fraction(0), Fraction(0))])

    def test_length_mismatch_refused(self):
        kernel = rational_nullspace([[1, 2, 3]])
        with pytest.raises(ValueError, match="different lengths"):
            in_reduced_span((1, 2), kernel)
        with pytest.raises(ValueError, match="different lengths"):
            in_reduced_span((1, 2, 3, 4), kernel)
        with pytest.raises(ValueError, match="different lengths"):
            in_reduced_span((0,), [(0, 1)])

    def test_float_entries_refused(self):
        kernel = rational_nullspace([[1, 2, 3]])
        for vector in [(0.5, 0, 0), (-2, 1.0, 0), (0, 0, 0.0)]:
            with pytest.raises(TypeError, match="floating-point"):
                in_reduced_span(vector, kernel)
        with pytest.raises(TypeError, match="floating-point"):
            in_reduced_span((1, 0), [(1.0, 0)])
        with pytest.raises(TypeError, match="floating-point"):
            in_reduced_span((1, 0), [(1, 0.0)])

    @given(rational_matrices(), st.data())
    @example(([[1, 2, 3]], 3), None)
    def test_matches_the_old_span_test(self, matrix, data):
        rows, ncols = matrix
        kernel = rational_nullspace(rows, ncols)
        entries = st.one_of(st.integers(min_value=-3, max_value=3),
                            st.fractions(min_value=-3, max_value=3, max_denominator=4))
        if data is None:
            vectors = [(-2, 1, 0), (1, 1, 1), (-4, Fraction(1, 2), 1)]
        else:
            weights = data.draw(st.lists(entries, min_size=len(kernel), max_size=len(kernel)))
            member = [sum((w * v[i] for w, v in zip(weights, kernel)), Fraction(0))
                      for i in range(ncols)]
            vectors = [member, data.draw(st.lists(entries, min_size=ncols, max_size=ncols))]
        for vector in vectors:
            assert in_reduced_span(vector, kernel) == reference_in_reduced_span(vector, kernel)
        if data is not None:
            assert in_reduced_span(vectors[0], kernel)

    @given(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=1, max_size=4),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4))
    def test_membership_is_annihilation(self, rows, vector):
        annihilated = all(sum(r * v for r, v in zip(row, vector)) == 0 for row in rows)
        assert in_reduced_span(vector, rational_nullspace(rows)) == annihilated


def reference_in_reduced_span(vector, kernel) -> bool:
    """The span test as it was before it scanned back for each free column
    and added only the nonzero entries."""
    combination = [Fraction(0)] * len(vector)
    for basis_vector in kernel:
        if len(basis_vector) != len(vector):
            raise ValueError("vector and basis have different lengths")
        free = max(i for i, v in enumerate(basis_vector) if v != 0)
        weight = exact(vector[free])
        if weight:
            for i, v in enumerate(basis_vector):
                combination[i] += weight * v
    return all(exact(v) == w for v, w in zip(vector, combination))


def reference_nullspace(rows, num_columns):
    """The Fraction Gauss-Jordan elimination that rational_nullspace had
    before it went fraction-free."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(num_columns):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        scale = mat[r][c]
        mat[r] = [v / scale for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [vi - factor * vr for vi, vr in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    kernel = []
    for f in (c for c in range(num_columns) if c not in pivot_cols):
        vec = [Fraction(0)] * num_columns
        vec[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -mat[i][f]
        kernel.append(tuple(vec))
    return kernel


def reference_solve(matrix, rhs):
    """The Gauss-Jordan elimination of its own that rational_solve had before
    it solved through rational_nullspace."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [vi - factor * vc for vi, vc in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    entries = st.integers(min_value=-3, max_value=3)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, draw(st.lists(entries, min_size=n, max_size=n))


class TestSolve:
    @given(square_systems())
    @example(([[1, 2], [2, 4]], [1, 2]))  # singular, b in the column space
    @example(([[1, 2], [2, 4]], [1, 1]))  # singular, b outside it
    @example(([[0, 1], [1, 0]], [3, -2]))  # needs a row swap
    def test_matches_the_reference_elimination(self, system):
        matrix, rhs = system
        try:
            expected = reference_solve(matrix, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                rational_solve(matrix, rhs)
        else:
            assert rational_solve(matrix, rhs) == expected

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
