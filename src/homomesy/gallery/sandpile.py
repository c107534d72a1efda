"""Abelian sandpiles on directed multigraphs with a global sink.

Configurations are tuples of grain counts over the non-sink vertices, in
the graph's vertex order. The one-step dynamic drops a grain on the source
and stabilizes; its cycle states are the recurrent configurations, and the
per-vertex firing count of that step is homomesic with constant vector
f* solving L' f* = 1_source (L' the reduced Laplacian).

On the recurrents the step is translation by [1_source] in the sandpile
group Z^n / L'Z^n (Holroyd et al., "Chip-firing and rotor-routing on
directed graphs", 2008), so `sandpile_recurrents` walks the group instead
of stepping every stable configuration. A grain never leaves U, the
non-sink vertices reachable from the source, so vertices outside U never
change: the walk starts at the maximal stable configuration on U, steps
each orbit with `sandpile_tau`, and from each orbit's first state adds one
grain at each other vertex of U and stabilizes to reach the other orbits.
The recurrents are that walk crossed with every stable assignment of the
vertices outside U. `sandpile_stabilize` is a kernel, like the poset
kernels: it does not check its configuration. validate_config and
is_stable, `sandpile_tau`, the firing statistic and the CLI seed are the
checked entry points, so each step validates its configuration once. A
grain count or an edge multiplicity that is not an int is refused, not
truncated. The guard still reads the number of stable configurations,
the product of the out-degrees, before the walk starts.

Graph text format (see SandpileGraph.from_text): one directed edge bundle
per line as "v w count", plus the headers "sink t" and "source s", once
each. Vertex order, hence configuration order, is first appearance in the
edge lines.
"""
from __future__ import annotations

from collections import deque
from itertools import product as iter_product
from operator import ge

from ..engine import Statistic, rational_solve
from ..guards import DEFAULT_ORBIT_GUARD, GuardExceeded, check_space_size, product_factors

_INT = frozenset((int,))


class SandpileGraph:
    def __init__(self, edges, sink, source):
        order: list = []
        seen = set()
        multiplicity: dict = {}
        for v, w, count in edges:
            if type(count) is not int or count < 1:  # no float, no bool
                raise ValueError(f"edge ({v!r}, {w!r}) needs an int multiplicity >= 1, "
                                 f"not {count!r}")
            for u in (v, w):
                if u not in seen:
                    seen.add(u)
                    order.append(u)
            multiplicity[(v, w)] = multiplicity.get((v, w), 0) + count
        if sink not in seen or source not in seen:
            raise ValueError("sink and source must occur in the edge list")
        if sink == source:
            raise ValueError("sink and source must differ")
        self.vertices = tuple(order)
        self.sink = sink
        self.source = source
        self.multiplicity = multiplicity
        self.nonsink = tuple(v for v in self.vertices if v != sink)
        self._pos = {v: i for i, v in enumerate(self.nonsink)}
        # one pass over the edges: out-degrees, firing recipes, reverse edges
        self.out_degree = dict.fromkeys(self.vertices, 0)
        self._fire_gain = [[] for _ in self.nonsink]
        incoming: dict = {}
        for (v, w), c in multiplicity.items():
            self.out_degree[v] += c
            incoming.setdefault(w, []).append(v)
            if v != w and sink not in (v, w):
                self._fire_gain[self._pos[v]].append((self._pos[w], c))
        self._check_sink_reachable(incoming)
        self._degree = [self.out_degree[v] for v in self.nonsink]
        self._fire_loss = [self.out_degree[v] - multiplicity.get((v, v), 0)
                           for v in self.nonsink]

    def _check_sink_reachable(self, incoming: dict):
        reachable = {self.sink}
        queue = deque([self.sink])
        while queue:
            w = queue.popleft()
            for v in incoming.get(w, ()):  # walk edges backward
                if v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        missing = [v for v in self.vertices if v not in reachable]
        if missing:
            raise ValueError(f"no directed path to the sink from: {missing}")

    @classmethod
    def from_text(cls, text: str) -> "SandpileGraph":
        headers: dict = {}
        edges = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] in ("sink", "source") and len(parts) == 2:
                if parts[0] in headers:
                    raise ValueError(f"repeated {parts[0]!r} header on line {number}: {raw!r}")
                headers[parts[0]] = parts[1]
                continue
            try:
                v, w, count = parts
                edges.append((v, w, int(count)))
            except ValueError:
                raise ValueError(f"unparseable sandpile line: {raw!r}") from None
        if len(headers) < 2:
            raise ValueError("graph text needs both a 'sink' and a 'source' header")
        return cls(edges, headers["sink"], headers["source"])

    @classmethod
    def from_file(cls, path) -> "SandpileGraph":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def reduced_laplacian(self) -> list[list[int]]:
        """Rows and columns over the non-sink vertices, in order.

        Oriented so that one stabilization pass satisfies
        stabilized = config - L @ fired componentwise: the diagonal holds
        the non-loop out-degree and entry (v, w) is minus the number of
        edges w -> v. For graphs with every edge paired with a reverse
        edge this is the usual symmetric matrix. Column i is vertex i's firing.
        """
        n = len(self.nonsink)
        lap = [[0] * n for _ in range(n)]
        for i, (loss, gain) in enumerate(zip(self._fire_loss, self._fire_gain)):
            lap[i][i] = loss
            for j, c in gain:
                lap[j][i] = -c
        return lap

    def source_indicator(self) -> tuple[int, ...]:
        return tuple(1 if v == self.source else 0 for v in self.nonsink)

    def validate_config(self, config) -> tuple[int, ...]:
        config = tuple(config)
        if len(config) != len(self.nonsink):
            raise ValueError(
                f"configuration needs {len(self.nonsink)} entries, got {len(config)}"
            )
        # one pass over the types, then min: no float, no bool
        if not (_INT.issuperset(map(type, config)) and min(config) >= 0):
            bad = next(g for g in config if type(g) is not int or g < 0)
            raise ValueError(f"grain counts must be nonnegative ints, not {bad!r}")
        return config

    def is_stable(self, config) -> bool:
        return not any(map(ge, self.validate_config(config), self._degree))


def sandpile_stabilize(graph: SandpileGraph, config, guard: int | None = None):
    """Fire unstable vertices until stable; returns (stable, firing_vector).

    A kernel: config, one nonnegative int per non-sink vertex, is not
    checked. The abelian property makes the result schedule-independent.
    The guard bounds total firings (it can only trip if sink reachability
    were violated, which the constructor already excludes).
    """
    guard = DEFAULT_ORBIT_GUARD if guard is None else guard
    grains = list(config)
    n = len(grains)
    fired = [0] * n
    loss, gain, degrees = graph._fire_loss, graph._fire_gain, graph._degree
    queue = deque(i for i in range(n) if grains[i] >= degrees[i])
    queued = set(queue)
    total = 0
    while queue:
        i = queue.popleft()
        queued.discard(i)  # queued while unstable, and only its own firing drains it
        total += 1
        if total > guard:
            raise GuardExceeded(f"stabilization exceeded {guard} firings")
        grains[i] -= loss[i]
        fired[i] += 1
        for j, c in gain[i]:
            grains[j] += c
            if grains[j] >= degrees[j] and j not in queued:
                queue.append(j)
                queued.add(j)
        if grains[i] >= degrees[i] and i not in queued:
            queue.append(i)
            queued.add(i)
    return tuple(grains), tuple(fired)


def _drop_grain(graph: SandpileGraph, config: tuple, guard: int | None):
    """(stable, fired) after a grain lands on the source of a validated config."""
    bumped = list(config)
    bumped[graph._pos[graph.source]] += 1
    return sandpile_stabilize(graph, bumped, guard)


def sandpile_tau(graph: SandpileGraph, config, guard: int | None = None):
    """Drop one grain on the source of a stable configuration and stabilize."""
    config = tuple(config)
    if not graph.is_stable(config):
        raise ValueError("the one-step dynamic acts on stable configurations")
    return _drop_grain(graph, config, guard)[0]


def sandpile_recurrents(graph: SandpileGraph, guard: int | None = None) -> dict:
    """Recurrent configurations: the cycle states of the one-step dynamic.

    Walks the orbits of tau from the maximal stable configuration on U, the
    non-sink vertices reachable from the source, jumping between orbits by
    one grain at a vertex of U, then crosses the result with every stable
    assignment of the vertices outside U. Returns {recurrent: its tau
    image} in ascending order of the recurrents, so the map that found them
    also serves as tau on them. guard caps both the number of stable
    configurations and the firings of each step.
    """
    degrees = graph._degree
    check_space_size("the graph", product_factors(degrees), "stable configurations", guard)
    source = graph._pos[graph.source]
    inside, frontier = {source}, [source]
    while frontier:  # grains flow along the firing recipes
        for j, _ in graph._fire_gain[frontier.pop()]:
            if j not in inside:
                inside.add(j)
                frontier.append(j)
    jumps = sorted(inside - {source})
    successor: dict = {}
    pending = [tuple(d - 1 if i in inside else 0 for i, d in enumerate(degrees))]
    while pending:
        first = pending.pop()
        if first in successor:
            continue
        state = first
        while state not in successor:  # tau permutes the recurrents: back to first
            image = sandpile_tau(graph, state, guard)
            successor[state] = image
            state = image
        for i in jumps:
            bumped = list(first)
            bumped[i] += 1
            jumped = sandpile_stabilize(graph, bumped, guard)[0]
            if jumped not in successor:
                pending.append(jumped)
    outside = [i for i in range(len(degrees)) if i not in inside]
    if outside:
        crossed = {}
        for fill in iter_product(*(range(degrees[i]) for i in outside)):
            for state, image in successor.items():
                state, image = list(state), list(image)
                for i, g in zip(outside, fill):
                    state[i] = image[i] = g
                crossed[tuple(state)] = tuple(image)
        successor = crossed
    return dict(sorted(successor.items()))


def firing_statistic(graph: SandpileGraph, guard: int | None = None) -> Statistic:
    """Vector statistic: per-vertex firings while stabilizing sigma + 1_source,
    within a budget of guard firings."""

    def fire_counts(config):
        return _drop_grain(graph, graph.validate_config(config), guard)[1]

    return Statistic("firing-vector", len(graph.nonsink), fire_counts)


def expected_firing_average(graph: SandpileGraph):
    """f* with L' f* = 1_source; the homomesic constant of firing_statistic."""
    return rational_solve(graph.reduced_laplacian(), graph.source_indicator())
