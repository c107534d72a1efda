"""Generic orbit/statistic engine.

Works over any finite invertible dynamical system whose states are
hashable and mutually comparable (the smallest state of an orbit is its
canonical representative). All averaging is done in fractions.Fraction;
a float anywhere raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .guards import DEFAULT_ORBIT_GUARD, GuardExceeded
from .rationals import exact, format_rational


def _as_vector(value, dimension: int) -> tuple[Fraction, ...]:
    if isinstance(value, (int, Fraction)):
        vec = (exact(value),)
    elif isinstance(value, float):
        raise TypeError("statistic produced a float; statistics must be exact")
    else:
        vec = tuple(exact(v) for v in value)
    if len(vec) != dimension:
        raise ValueError(f"statistic value has dimension {len(vec)}, declared {dimension}")
    return vec


@dataclass(frozen=True)
class Statistic:
    """A named exact statistic: state -> vector of rationals.

    fn may return an int, a Fraction, or a sequence of them; the declared
    dimension is enforced on every evaluation and floats are rejected.
    """

    name: str
    dimension: int
    fn: Callable

    def __call__(self, state) -> tuple[Fraction, ...]:
        return _as_vector(self.fn(state), self.dimension)

    @classmethod
    def scalar(cls, name: str, fn: Callable) -> "Statistic":
        return cls(name, 1, fn)


@dataclass(frozen=True)
class Orbit:
    """One cycle of an invertible map, rotated to start at its smallest state."""

    states: tuple

    @property
    def period(self) -> int:
        return len(self.states)

    @property
    def representative(self):
        return self.states[0]


def iterate_orbit(tau: Callable, start, guard: int | None = None) -> Orbit:
    """Follow tau from start until it returns; raise GuardExceeded if it
    does not close within the budget (e.g. tau is not invertible there)."""
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
    return Orbit(tuple(states[pivot:] + states[:pivot]))


def orbit_partition(tau: Callable, space, guard: int | None = None) -> list[Orbit]:
    """Partition a finite tau-closed state space into orbits.

    Orbits come back sorted by representative. A tau image outside the
    space is reported as a closure violation.
    """
    pool = list(space)
    unvisited = set(pool)
    if len(unvisited) != len(pool):
        raise ValueError("state space contains duplicate states")
    orbits = []
    for state in pool:
        if state not in unvisited:
            continue
        orbit = iterate_orbit(tau, state, guard)
        for s in orbit.states:
            if s not in unvisited:
                raise ValueError(
                    f"closure violation: the map leaves the state space at {s!r}"
                )
            unvisited.discard(s)
        orbits.append(orbit)
    orbits.sort(key=lambda o: o.representative)
    return orbits


def orbit_average(statistic: Statistic, orbit: Orbit) -> tuple[Fraction, ...]:
    """Componentwise exact mean of the statistic over one orbit."""
    dim = statistic.dimension
    total = [Fraction(0)] * dim
    for state in orbit.states:
        value = statistic(state)
        for i in range(dim):
            total[i] += value[i]
    return tuple(t / orbit.period for t in total)


@dataclass(frozen=True)
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
    dimension: int
    orbit_summaries: tuple[OrbitSummary, ...]
    global_average: tuple[Fraction, ...]
    homomesic: bool
    c: Optional[tuple[Fraction, ...]]

    def document(self, *, map_name: str, space, serialize_state=repr,
                 verdict: bool = True) -> dict:
        """Structured JSON-ready form; rationals as lowest-terms p/q strings.

        With verdict=False the document lists the orbits only, without the
        global average, the verdict and c.
        """
        def fmt(vec):
            if vec is None:
                return None
            if self.dimension == 1:
                return format_rational(vec[0])
            return [format_rational(v) for v in vec]

        doc = {
            "map": map_name,
            "space": space,
            "statistic": self.statistic,
            "orbits": [
                {
                    "representative": serialize_state(o.representative),
                    "period": o.period,
                    "average": fmt(o.average),
                }
                for o in self.orbit_summaries
            ],
        }
        if verdict:
            doc.update(global_average=fmt(self.global_average),
                       homomesic=self.homomesic, c=fmt(self.c))
        return doc


def check_homomesy(tau: Callable, space, statistic: Statistic,
                   guard: int | None = None) -> HomomesyReport:
    """Partition the space into orbits and compare orbit averages exactly."""
    return summarize_orbits(orbit_partition(tau, space, guard), statistic)


def summarize_orbits(orbits, statistic: Statistic) -> HomomesyReport:
    """Average the statistic over each given orbit and compare the averages
    exactly; the report covers those orbits only."""
    if not orbits:
        raise ValueError("cannot check homomesy on an empty state space")
    summaries = tuple(
        OrbitSummary(o.representative, o.period, orbit_average(statistic, o))
        for o in orbits
    )
    total_states = sum(s.period for s in summaries)
    global_average = tuple(
        sum((s.period * s.average[i] for s in summaries), Fraction(0)) / total_states
        for i in range(statistic.dimension)
    )
    homomesic = all(s.average == summaries[0].average for s in summaries)
    c = summaries[0].average if homomesic else None
    return HomomesyReport(
        statistic=statistic.name,
        dimension=statistic.dimension,
        orbit_summaries=summaries,
        global_average=global_average,
        homomesic=homomesic,
        c=c,
    )


def invariant_homomesic_decomposition(tau: Callable, space, statistic: Statistic,
                                      guard: int | None = None):
    """Split f into its orbit-mean part and its 0-mesic remainder.

    Returns (f_mean, f_centered): f_mean is constant on every orbit,
    f_centered averages to zero on every orbit, and f = f_mean + f_centered
    pointwise. The splitting is unique with those properties.
    """
    orbits = orbit_partition(tau, space, guard)
    mean_by_state = {}
    for orbit in orbits:
        avg = orbit_average(statistic, orbit)
        for s in orbit.states:
            mean_by_state[s] = avg

    def mean_part(state):
        return mean_by_state[state]

    def centered_part(state):
        avg = mean_by_state[state]
        val = statistic(state)
        return tuple(v - m for v, m in zip(val, avg))

    f_mean = Statistic(f"{statistic.name}.orbit-mean", statistic.dimension, mean_part)
    f_centered = Statistic(f"{statistic.name}.centered", statistic.dimension, centered_part)
    return f_mean, f_centered


def homomesic_subspace(tau: Callable, space, basis, guard: int | None = None):
    """Coefficient vectors c with sum(c_j * basis_j) homomesic.

    basis is a sequence of scalar statistics. The kernel of the matrix of
    orbit-average differences is returned as a canonically reduced list of
    Fraction tuples (one per basis vector of the subspace).
    """
    basis = list(basis)
    if not basis:
        raise ValueError("basis must contain at least one statistic")
    if any(b.dimension != 1 for b in basis):
        raise ValueError("subspace search requires scalar statistics")
    orbits = orbit_partition(tau, space, guard)
    if not orbits:
        raise ValueError("cannot search an empty state space")
    averages = [
        [orbit_average(b, orbit)[0] for b in basis]
        for orbit in orbits
    ]
    reference = averages[0]
    rows = [
        [row[j] - reference[j] for j in range(len(basis))]
        for row in averages[1:]
    ]
    return rational_nullspace(rows, num_columns=len(basis))


# -- exact linear algebra -----------------------------------------------------

def in_reduced_span(vector, kernel) -> bool:
    """Whether vector lies in the span of a basis in rational_nullspace's
    canonical reduced form.

    Each basis vector there is 1 at its free column, which is its last
    nonzero entry, and 0 at every other free column. So the only candidate
    combination weights each basis vector by vector's entry at that
    basis vector's free column.
    """
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


def _to_fraction_rows(rows, num_columns):
    mat = [[exact(v) for v in row] for row in rows]
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


def rational_nullspace(rows, num_columns: int | None = None) -> list[tuple[Fraction, ...]]:
    """Exact kernel basis of a rational matrix, in canonical reduced form.

    Gauss-Jordan over Fraction; one basis vector per free column, with a 1
    in its free position and 0 in all other free positions.
    """
    mat, ncols = _to_fraction_rows(rows, num_columns)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
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
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    kernel = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -mat[i][f]
        kernel.append(tuple(vec))
    return kernel


def rational_solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve a square nonsingular system A x = b exactly."""
    n = len(matrix)
    aug = [[exact(v) for v in row] + [exact(b)] for row, b in zip(matrix, rhs)]
    if any(len(row) != n + 1 for row in aug) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if aug[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        scale = aug[c][c]
        aug[c] = [v / scale for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [vi - factor * vc for vi, vc in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))
