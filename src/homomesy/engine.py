"""Generic orbit/statistic engine.

Works over any finite invertible dynamical system whose states are
hashable and mutually comparable (the smallest state of an orbit is its
canonical representative). A statistic value is an int or a Fraction;
anything else, a float included, raises. The check is one C-level pass
over the types of a value's entries, not one isinstance per entry.
Check and subspace walk the space with one orbit core, and any statistic
costs one checked pass per orbit that keeps its sums exact ints (or
Fractions). Only a run's first orbit is averaged, by orbit_average, which
keeps Statistic.__call__ on the path. check_homomesy summarizes each orbit
as it closes, so it builds no list of orbits; summarize_orbits takes any
iterable of orbits, returns its summaries sorted by representative, and
compares a later orbit of period p and sums s with the first average
num/den by s * den == num * p, so equal averages share one tuple and only
a different one costs Fractions. A tau that leaves its space raises
ClosureViolation. The subspace search takes the kernel of the row (-1,
first average) and the integer rows (-p, *s) of the other orbits, drops
repeated rows, eliminates fraction-free and makes Fractions only for the
result.
The engine renders nothing: a report holds exact values, and the CLI lays
them out as a table, CSV or JSON.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Callable, Optional

from .guards import DEFAULT_ORBIT_GUARD, GuardExceeded
from .rationals import exact


_EXACT = (int, Fraction)
_BARE_EXACT = frozenset(_EXACT)
_BARE_INT = frozenset((int,))
_VECTORS = frozenset((tuple, list, bytes))


def _all_exact(values) -> bool:
    """Whether every value is an int or a Fraction, subclasses (bool)
    included: one C-level pass over the values' types, and only a type
    other than int and Fraction sends them through isinstance one by one."""
    return _BARE_EXACT.issuperset(map(type, values)) or all(isinstance(v, _EXACT) for v in values)


def _as_vector(value, dimension: int) -> tuple:
    if isinstance(value, _EXACT):  # a scalar: bare int first, then the subclasses
        vec = (value,)
    else:
        vec = (value,) if isinstance(value, (float, str)) else tuple(value)
        if not _all_exact(vec):
            v = next(v for v in vec if not isinstance(v, _EXACT))
            raise TypeError(f"statistic value {v!r} is a {type(v).__name__}, not exact")
    if len(vec) != dimension:
        raise ValueError(f"statistic value has dimension {len(vec)}, declared {dimension}")
    return vec


@dataclass(frozen=True)
class Statistic:
    """A named exact statistic: state -> vector of rationals.

    fn may return an int, a Fraction, or a sequence of them (bytes of 0/1
    included), which come back unconverted as a tuple; the declared
    dimension is enforced on every evaluation and any other value (a float,
    a digit string) is rejected. A scalar int or Fraction (or a subclass,
    bool included) is wrapped at once; a sequence is checked in one pass
    over its entries' types, and only a type other than int and Fraction
    sends the entries through isinstance one by one, which names the first
    offender.
    """

    name: str
    dimension: int
    fn: Callable

    def __call__(self, state) -> tuple:
        return _as_vector(self.fn(state), self.dimension)

    @classmethod
    def scalar(cls, name: str, fn: Callable) -> "Statistic":
        return cls(name, 1, fn)


def iterate_orbit(tau: Callable, start, guard: int | None = None) -> tuple:
    """The cycle of tau through start, as a tuple that starts at its least
    state; raise GuardExceeded if it does not close within the budget
    (e.g. tau is not invertible there)."""
    guard = DEFAULT_ORBIT_GUARD if guard is None else guard
    states = [start]
    current = tau(start)
    while current != start:
        if len(states) >= guard:
            raise GuardExceeded(
                f"orbit did not close within {guard} steps; "
                "is the map invertible on this state space?"
            )
        states.append(current)
        current = tau(current)
    pivot = states.index(min(states))
    return tuple(states[pivot:] + states[:pivot])


class ClosureViolation(ValueError):
    """tau maps a state of the space outside the space: the space or the map
    is wrong, not the caller's input."""


def _closed_orbits(tau: Callable, space, guard: int | None = None):
    """Yield the orbits of a finite tau-closed state space, each as it closes.

    The walk takes the states in space order and yields the orbit of each
    state that no earlier orbit holds. A repeated state raises ValueError,
    and a tau image outside the space raises ClosureViolation, which names
    the first such state in orbit order. A list space is walked as it is;
    any other iterable is read once into a list.
    """
    pool = space if isinstance(space, list) else list(space)
    unvisited = set(pool)
    if len(unvisited) != len(pool):
        raise ValueError("state space contains duplicate states")
    for state in pool:
        if state not in unvisited:
            continue
        orbit = iterate_orbit(tau, state, guard)
        if not unvisited.issuperset(orbit):
            s = next(s for s in orbit if s not in unvisited)
            raise ClosureViolation(f"closure violation: the map leaves the state space at {s!r}")
        unvisited.difference_update(orbit)
        yield orbit


def orbit_partition(tau: Callable, space, guard: int | None = None) -> list[tuple]:
    """Partition a finite tau-closed state space into orbits.

    Orbits come back sorted by their least state. A tau image outside the
    space raises ClosureViolation, which names the first such state in
    orbit order.
    """
    # least states are distinct, so only index 0 is compared
    return sorted(_closed_orbits(tau, space, guard))


def _orbit_totals(statistic: Statistic, orbit: tuple) -> list:
    """The exact column sums of the statistic over one orbit: fn once per
    state, then one C-level pass over the values' types (for a vector: each
    a tuple, list or bytes of the declared length, then one pass over the
    entries' types). Any other value goes through _as_vector, as in
    Statistic.__call__, with the same message."""
    values = list(map(statistic.fn, orbit))
    dimension = statistic.dimension
    if dimension == 1:
        if _BARE_EXACT.issuperset(map(type, values)):
            return [sum(values)]
    elif (_VECTORS.issuperset(map(type, values)) and {dimension}.issuperset(map(len, values))
          and _BARE_EXACT.issuperset(map(type, chain.from_iterable(values)))):
        return [sum(column) for column in zip(*values)]
    return [sum(column) for column in zip(*(_as_vector(v, dimension) for v in values))]


def _average(totals, period: int) -> tuple[Fraction, ...]:
    """The totals over period, one Fraction division per distinct total."""
    average = {t: Fraction(t, period) for t in set(totals)}
    return tuple(map(average.__getitem__, totals))


def orbit_average(statistic: Statistic, orbit: tuple) -> tuple[Fraction, ...]:
    """Componentwise exact mean of the statistic over one orbit: native
    (int or Fraction) sums, then one Fraction division per distinct sum.

    A scalar statistic's values are checked in one pass (_orbit_totals); a
    vector statistic goes through Statistic.__call__ state by state.
    """
    if statistic.dimension == 1:
        return _average(_orbit_totals(statistic, orbit), len(orbit))
    return _average([sum(column) for column in zip(*map(statistic, orbit))], len(orbit))


def _first_average(statistic: Statistic, orbit: tuple) -> tuple[Fraction, ...]:
    """orbit_average of a run's first orbit, with one checked call on a
    scalar statistic, so every run reaches Statistic.__call__, which
    bench/spans.py times."""
    if statistic.dimension == 1:
        statistic(orbit[0])
    return orbit_average(statistic, orbit)


@dataclass(frozen=True, slots=True)
class OrbitSummary:
    representative: object
    period: int
    average: tuple[Fraction, ...]


@dataclass(frozen=True)
class HomomesyReport:
    """Verdict of a full-space homomesy check.

    homomesic is True when every orbit average equals the common value c;
    global_average is the space-wide mean (periods-weighted).
    """

    statistic: str
    orbit_summaries: tuple[OrbitSummary, ...]
    global_average: tuple[Fraction, ...]
    homomesic: bool
    c: Optional[tuple[Fraction, ...]]


def check_homomesy(tau: Callable, space, statistic: Statistic,
                   guard: int | None = None) -> HomomesyReport:
    """Walk the space orbit by orbit and compare orbit averages exactly.
    Each orbit is averaged as it closes, so no list of orbits is built."""
    return summarize_orbits(_closed_orbits(tau, space, guard), statistic)


def summarize_orbits(orbits, statistic: Statistic) -> HomomesyReport:
    """Average the statistic over each given orbit and compare the averages
    exactly; the report covers those orbits only.

    orbits is any iterable of orbit tuples, each starting at its least
    state, in any order; the summaries come back sorted by representative.
    Equal averages share one tuple: an average equal to the first orbit's
    is that tuple, and each other value is kept once. A later orbit is
    compared by its sums, s_i * den_i == num_i * period, and only a
    mismatch builds Fractions.
    """
    orbits = iter(orbits)
    head = next(orbits, None)
    if head is None:
        raise ValueError("cannot check homomesy on an empty state space")
    first = _first_average(statistic, head)
    nums = [a.numerator for a in first]
    dens = [a.denominator for a in first]
    summaries = [OrbitSummary(head[0], len(head), first)]
    scalar = statistic.dimension == 1
    others: dict[tuple, tuple] = {}  # a Fraction tuple and a hash only on a mismatch
    for orbit in orbits:
        period = len(orbit)
        totals = _orbit_totals(statistic, orbit)
        # totals / period == first exactly when the cross products agree
        if (totals[0] * dens[0] == nums[0] * period if scalar else
                list(map(mul, totals, dens)) == list(map(mul, nums, repeat(period)))):
            average = first
        else:
            average = _average(totals, period)
            average = others.setdefault(average, average)
        summaries.append(OrbitSummary(orbit[0], period, average))
    summaries.sort(key=attrgetter("representative"))
    homomesic = not others
    if homomesic:
        # when every orbit averages to c, so does the period-weighted mean
        global_average = first
    else:
        # the period-weighted mean, one product per distinct average
        distinct = (first, *others)
        periods = dict.fromkeys(map(id, distinct), 0)
        for s in summaries:
            periods[id(s.average)] += s.period
        total_states = sum(periods.values())
        global_average = tuple(
            sum((periods[id(a)] * a[i] for a in distinct), Fraction(0)) / total_states
            for i in range(statistic.dimension)
        )
    return HomomesyReport(
        statistic=statistic.name,
        orbit_summaries=tuple(summaries),
        global_average=global_average,
        homomesic=homomesic,
        c=first if homomesic else None,
    )


def homomesic_subspace(tau: Callable, space, statistic: Statistic,
                       guard: int | None = None):
    """Coefficient vectors c with sum(c_j * statistic_j) homomesic.

    Each component of the vector statistic is one basis function. The
    combination is t-mesic exactly when avg_o . c - t = 0 on every orbit o,
    so the pairs (t, c) are the kernel of the rows (-1, *avg_o); t comes
    first, where it is always a pivot, and is dropped. After the first,
    each row is scaled by the period p_o > 0 to the integer row (-p_o, *sums),
    with the same kernel. The result is a canonically reduced list of
    Fraction tuples (one per basis vector of the subspace).
    """
    orbits = orbit_partition(tau, space, guard)
    if not orbits:
        raise ValueError("cannot check homomesy on an empty state space")
    rows = [(-1, *_first_average(statistic, orbits[0]))]
    rows += [(-len(o), *_orbit_totals(statistic, o)) for o in orbits[1:]]
    return [vec[1:] for vec in rational_nullspace(rows, num_columns=statistic.dimension + 1)]


# -- exact linear algebra -----------------------------------------------------

def in_reduced_span(vector, kernel) -> bool:
    """Whether vector lies in the span of a basis in rational_nullspace's
    canonical reduced form.

    Each basis vector there is 1 at its free column, which is its last
    nonzero entry, and 0 at every other free column. So the only candidate
    combination weights each basis vector by vector's entry at that
    basis vector's free column. Int and Fraction entries are used as they
    are; any other entry goes through exact, which refuses floats.
    """
    vector = _exact_row(vector)
    combination = [0] * len(vector)
    for basis_vector in kernel:
        if len(basis_vector) != len(vector):
            raise ValueError("vector and basis have different lengths")
        basis_vector = _exact_row(basis_vector)
        free = len(basis_vector) - 1
        while free >= 0 and not basis_vector[free]:
            free -= 1
        if free < 0:
            raise ValueError("a basis vector is zero")
        weight = vector[free]
        if weight:
            for i, v in enumerate(basis_vector):
                if v:
                    combination[i] += weight * v
    return combination == vector


def _exact_row(values) -> list:
    """values as a list of ints and Fractions; only a row that holds some
    other value is coerced, through exact."""
    values = list(values)
    return values if _all_exact(values) else [exact(v) for v in values]


def _exact_rows(rows, num_columns):
    """The rows as lists of ints and Fractions, and their width."""
    mat = [_exact_row(row) for row in rows]
    widths = {len(row) for row in mat}
    if len(widths) > 1:
        raise ValueError("matrix rows have inconsistent lengths")
    if mat:
        (width,) = widths
        if num_columns is not None and num_columns != width:
            raise ValueError("num_columns disagrees with the rows")
        return mat, width
    if num_columns is None:
        raise ValueError("an empty matrix needs an explicit num_columns")
    return mat, num_columns


def _integer_row(entries) -> tuple[int, ...]:
    """An exact row times the lcm of its denominators; a row of bare ints
    as it is."""
    if _BARE_INT.issuperset(map(type, entries)):
        return tuple(entries)
    scale = lcm(*(v.denominator for v in entries))
    return tuple(v.numerator * (scale // v.denominator) for v in entries)


def rational_nullspace(rows, num_columns: int | None = None) -> list[tuple[Fraction, ...]]:
    """Exact kernel basis of a rational matrix, in canonical reduced form.

    Fraction-free elimination (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968): each row is
    scaled to integers, and a repeated integer row, which adds nothing to the
    kernel, is dropped before elimination. Each distinct row is reduced
    against a basis of primitive integer rows, one per pivot column, each
    zero before its pivot and at every other pivot. The kernel is then built
    once: one basis vector per free column f, with a 1 at f, 0 at the other
    free columns and -b[f]/b[c] at the pivot c of each basis row b.
    """
    mat, ncols = _exact_rows(rows, num_columns)
    basis: dict[int, list[int]] = {}
    for row in dict.fromkeys(map(_integer_row, mat)):
        for c, b in basis.items():
            if row[c]:
                k, m = b[c], row[c]
                row = [k * x - m * y for x, y in zip(row, b)]
        pivot = next((c for c, v in enumerate(row) if v), None)
        if pivot is None:
            continue
        row = _primitive(row)
        for c, b in basis.items():
            if b[pivot]:
                k, m = row[pivot], b[pivot]
                basis[c] = _primitive([k * y - m * x for x, y in zip(row, b)])
        basis[pivot] = row
        if len(basis) == ncols:
            break
    kernel = []
    for f in (c for c in range(ncols) if c not in basis):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, b in basis.items():
            vec[c] = Fraction(-b[f], b[c])
        kernel.append(tuple(vec))
    return kernel


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row]


def rational_solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve a square nonsingular system A x = b exactly.

    x comes from the kernel of [A | b]: A is nonsingular exactly when that
    kernel is one vector whose free column is the last, (-x, 1). A basis
    vector's free column is its last nonzero entry, so that is entry n = 1.
    """
    n = len(matrix)
    aug = [[exact(v) for v in row] + [exact(b)] for row, b in zip(matrix, rhs)]
    if any(len(row) != n + 1 for row in aug) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    kernel = rational_nullspace(aug, num_columns=n + 1)
    if len(kernel) != 1 or kernel[0][n] != 1:
        raise ValueError("matrix is singular")
    return tuple(-v for v in kernel[0][:n])
