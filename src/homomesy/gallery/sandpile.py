"""Abelian sandpiles on directed multigraphs with a global sink.

Configurations are tuples of grain counts over the non-sink vertices, in
the graph's vertex order. The one-step dynamic drops a grain on the source
and stabilizes; its cycle states are the recurrent configurations, and the
per-vertex firing count of that step is homomesic with constant vector
f* solving L' f* = 1_source (L' the reduced Laplacian). `sandpile_tau` and
the firing statistic validate a configuration once, then share one grain
drop, whose `sandpile_stabilize` validates again; a grain count that is not
an int is refused, not truncated. The stable configurations are refused
over the guard from the product of the out-degrees.

Graph text format (see SandpileGraph.from_text): one directed edge bundle
per line as "v w count", plus the headers "sink t" and "source s". Vertex
order, hence configuration order, is first appearance in the edge lines.
"""
from __future__ import annotations

from collections import deque
from itertools import product as iter_product
from math import prod

from ..engine import Statistic, rational_solve
from ..guards import DEFAULT_ORBIT_GUARD, GuardExceeded, check_space_size


class SandpileGraph:
    def __init__(self, edges, sink, source):
        order: list = []
        seen = set()
        multiplicity: dict = {}
        for v, w, count in edges:
            count = int(count)
            if count < 1:
                raise ValueError(f"edge ({v!r}, {w!r}) needs multiplicity >= 1")
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
        self.out_degree = {
            v: sum(c for (a, _), c in multiplicity.items() if a == v)
            for v in self.vertices
        }
        self._check_sink_reachable()
        # per-vertex firing threshold and recipe over non-sink indices
        self._degree = [self.out_degree[v] for v in self.nonsink]
        self._fire_loss = [self.out_degree[v] - multiplicity.get((v, v), 0)
                           for v in self.nonsink]
        self._fire_gain = [[(self._pos[w], c) for (a, w), c in multiplicity.items()
                            if a == v and w != sink and w != v] for v in self.nonsink]

    def _check_sink_reachable(self):
        reachable = {self.sink}
        queue = deque([self.sink])
        incoming: dict = {}
        for (v, w), _ in self.multiplicity.items():
            incoming.setdefault(w, []).append(v)
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
        sink = source = None
        edges = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "sink" and len(parts) == 2:
                sink = parts[1]
            elif parts[0] == "source" and len(parts) == 2:
                source = parts[1]
            elif len(parts) == 3:
                edges.append((parts[0], parts[1], int(parts[2])))
            else:
                raise ValueError(f"unparseable sandpile line: {raw!r}")
        if sink is None or source is None:
            raise ValueError("graph text needs both a 'sink' and a 'source' header")
        return cls(edges, sink, source)

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
        edge this is the usual symmetric matrix.
        """
        n = len(self.nonsink)
        lap = [[0] * n for _ in range(n)]
        for i, v in enumerate(self.nonsink):
            lap[i][i] = self.out_degree[v] - self.multiplicity.get((v, v), 0)
            for j, w in enumerate(self.nonsink):
                if w != v:
                    lap[i][j] = -self.multiplicity.get((w, v), 0)
        return lap

    def source_indicator(self) -> tuple[int, ...]:
        return tuple(1 if v == self.source else 0 for v in self.nonsink)

    def validate_config(self, config) -> tuple[int, ...]:
        config = tuple(config)
        if len(config) != len(self.nonsink):
            raise ValueError(
                f"configuration needs {len(self.nonsink)} entries, got {len(config)}"
            )
        if not all(type(g) is int and g >= 0 for g in config):  # no float, no bool
            raise ValueError("grain counts must be nonnegative")
        return config

    def is_stable(self, config) -> bool:
        return all(g < d for g, d in zip(self.validate_config(config), self._degree))


def sandpile_stabilize(graph: SandpileGraph, config, guard: int | None = None):
    """Fire unstable vertices until stable; returns (stable, firing_vector).

    The abelian property makes the result schedule-independent. The guard
    bounds total firings (it can only trip if sink reachability were
    violated, which the constructor already excludes).
    """
    guard = DEFAULT_ORBIT_GUARD if guard is None else guard
    grains = list(graph.validate_config(config))
    n = len(grains)
    fired = [0] * n
    loss, gain, degrees = graph._fire_loss, graph._fire_gain, graph._degree
    queue = deque(i for i in range(n) if grains[i] >= degrees[i])
    queued = set(queue)
    total = 0
    while queue:
        i = queue.popleft()
        queued.discard(i)
        if grains[i] < degrees[i]:
            continue
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
    config = graph.validate_config(config)
    if any(g >= d for g, d in zip(config, graph._degree)):
        raise ValueError("the one-step dynamic acts on stable configurations")
    return _drop_grain(graph, config, guard)[0]


def stable_configurations(graph: SandpileGraph, guard: int | None = None):
    check_space_size("the graph", prod(graph._degree), "stable configurations", guard)
    return [tuple(c) for c in iter_product(*map(range, graph._degree))]


def sandpile_recurrents(graph: SandpileGraph, guard: int | None = None):
    """Recurrent configurations: the cycle states of the one-step dynamic.

    Peels states of in-degree zero from the functional graph of tau over
    all stable configurations; whatever survives lies on a cycle. guard
    caps both the number of stable configurations and the firings of each
    step.
    """
    states = stable_configurations(graph, guard)
    successor = {s: sandpile_tau(graph, s, guard) for s in states}
    indegree = {s: 0 for s in states}
    for t in successor.values():
        indegree[t] += 1
    queue = deque(s for s in states if indegree[s] == 0)
    removed = set()
    while queue:
        s = queue.popleft()
        removed.add(s)
        t = successor[s]
        indegree[t] -= 1
        if indegree[t] == 0:
            queue.append(t)
    return sorted(s for s in states if s not in removed)


def firing_statistic(graph: SandpileGraph, guard: int | None = None) -> Statistic:
    """Vector statistic: per-vertex firings while stabilizing sigma + 1_source,
    within a budget of guard firings."""

    def fire_counts(config):
        return _drop_grain(graph, graph.validate_config(config), guard)[1]

    return Statistic("firing-vector", len(graph.nonsink), fire_counts)


def expected_firing_average(graph: SandpileGraph):
    """f* with L' f* = 1_source; the homomesic constant of firing_statistic."""
    return rational_solve(graph.reduced_laplacian(), graph.source_indicator())
