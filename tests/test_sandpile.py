"""Chip dynamics: stabilization, recurrents, and the firing-vector homomesy."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homomesy.engine import check_homomesy
from homomesy.gallery.sandpile import (
    SandpileGraph,
    expected_firing_average,
    firing_statistic,
    sandpile_recurrents,
    sandpile_stabilize,
    sandpile_tau,
)
from homomesy.guards import GuardExceeded
from reference import reference_sandpile_recurrents, stable_configurations

CYCLE4 = """
# bidirected 4-cycle, vertices 1..4
1 2 1
2 1 1
2 3 1
3 2 1
3 4 1
4 3 1
4 1 1
1 4 1
sink 4
source 2
"""


# a path 1 -> 2 -> 3 -> 4 -> 5 -> t: one stable configuration, five firings a step
PATH5 = """
1 2 1
2 3 1
3 4 1
4 5 1
5 t 1
sink t
source 1
"""


# c has edges into a and to the sink but none into it: the source a never
# reaches c, so c keeps whatever it holds
UNREACHED = """
a b 1
a t 1
b a 1
b t 1
c a 1
c t 1
sink t
source a
"""


def complete_digraph(n):
    """K_n with one edge each way between every two vertices, sink n - 1, source 0."""
    return SandpileGraph([(str(v), str(w), 1) for v in range(n) for w in range(n) if v != w],
                         str(n - 1), "0")


@pytest.fixture
def cycle4():
    return SandpileGraph.from_text(CYCLE4)


def matvec(matrix, vec):
    return tuple(
        sum(Fraction(m) * Fraction(v) for m, v in zip(row, vec)) for row in matrix
    )


def random_sink_connected_digraph(rng, max_vertices=5):
    """A digraph where every vertex has out-degree >= 1 and a path to the sink."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    sink = names[0]
    edges = []
    for i in range(1, n):
        # spine edge toward an earlier vertex keeps the sink reachable
        edges.append((names[i], names[rng.randrange(i)], rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2 * n)):
        v, w = rng.sample(names, 2)
        if v != sink:
            edges.append((v, w, rng.randint(1, 2)))
    source = names[rng.randint(1, n - 1)]
    return SandpileGraph(edges, sink, source)


def reference_out_degree(graph):
    """Out-degrees by one scan of the edges per vertex, in vertex order."""
    return {v: sum(c for (a, _), c in graph.multiplicity.items() if a == v)
            for v in graph.vertices}


def reference_reduced_laplacian(graph):
    """L' entry by entry from the edge multiplicities: the non-loop
    out-degree on the diagonal, minus the edges w -> v at (v, w)."""
    out_degree = reference_out_degree(graph)
    return [[out_degree[v] - graph.multiplicity.get((v, v), 0) if v == w
             else -graph.multiplicity.get((w, v), 0) for w in graph.nonsink]
            for v in graph.nonsink]


def reached_from_source(graph):
    """The non-sink vertices a path of non-sink vertices leads to from the
    source, from the edge multiplicities."""
    reached, frontier = {graph.source}, [graph.source]
    while frontier:
        v = frontier.pop()
        for a, w in graph.multiplicity:
            if a == v and w != graph.sink and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def determinant(matrix):
    """Exact determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for r in range(k + 1, len(rows)):
            factor = rows[r][k] / rows[k][k]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return det


def recurrent_count(graph):
    """det L' on the vertices U the source reaches, times the out-degree of
    every other non-sink vertex: the sandpile group's order on U, crossed
    with the configurations that no grain from the source ever changes."""
    inside = reached_from_source(graph)
    index = [i for i, v in enumerate(graph.nonsink) if v in inside]
    lap = reference_reduced_laplacian(graph)
    count = determinant([[lap[i][j] for j in index] for i in index])
    for v in graph.nonsink:
        if v not in inside:
            count *= graph.out_degree[v]
    return count


def assert_walk_matches_the_peel(graph):
    recurrents = sandpile_recurrents(graph)
    assert list(recurrents.items()) == list(reference_sandpile_recurrents(graph).items())
    assert len(recurrents) == recurrent_count(graph)


@st.composite
def sink_connected_multigraphs(draw):
    """(edge lines, sink, source) on v0..v{n-1} with sink v0. A spine line
    from each vertex to an earlier one keeps the sink reachable; the extra
    lines may be self-loops, leave the sink, or repeat a line."""
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    counts = st.integers(1, 3)
    edges = [(names[i], names[draw(st.integers(0, i - 1))], draw(counts)) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names), counts),
                           max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return draw(st.permutations(edges)), names[0], draw(st.sampled_from(names[1:]))


class TestGraphConstruction:
    def test_from_text_parses_comments_and_headers(self, cycle4):
        assert cycle4.vertices == ("1", "2", "3", "4")
        assert cycle4.nonsink == ("1", "2", "3")
        assert cycle4.sink == "4" and cycle4.source == "2"
        assert cycle4.out_degree["1"] == 2

    def test_from_text_requires_headers(self):
        with pytest.raises(ValueError, match="header"):
            SandpileGraph.from_text("a b 1")
        with pytest.raises(ValueError, match="unparseable"):
            SandpileGraph.from_text("a b\nsink b\nsource a")

    def test_multiplicity_accumulates(self):
        g = SandpileGraph([("a", "b", 1), ("a", "b", 2), ("b", "a", 1)], "b", "a")
        assert g.out_degree["a"] == 3
        with pytest.raises(ValueError, match="multiplicity"):
            SandpileGraph([("a", "b", 0)], "b", "a")

    @pytest.mark.parametrize("count", [2.7, 1.0, True, "1"], ids=repr)
    def test_a_multiplicity_that_is_not_an_int_is_refused_not_truncated(self, count):
        with pytest.raises(ValueError, match="needs an int multiplicity >= 1, not "):
            SandpileGraph([("1", "2", count), ("2", "1", 1), ("2", "3", 1)], "3", "1")

    def test_sink_must_be_reachable(self):
        with pytest.raises(ValueError, match="no directed path"):
            SandpileGraph([("a", "b", 1), ("c", "c".upper(), 1), ("C", "c", 1)],
                          "b", "c")

    @pytest.mark.parametrize("sink,source", [("t", "z"), ("z", "a")])
    def test_sink_and_source_must_occur_in_the_edge_list(self, sink, source):
        with pytest.raises(ValueError, match="^sink and source must occur in the edge list$"):
            SandpileGraph([("a", "t", 1)], sink, source)

    def test_sink_and_source_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            SandpileGraph([("a", "b", 1)], "b", "b")

    def test_reduced_laplacian_of_the_4_cycle(self, cycle4):
        assert cycle4.reduced_laplacian() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

    @given(sink_connected_multigraphs())
    def test_laplacian_and_out_degrees_match_the_edge_scans(self, drawn):
        graph = SandpileGraph(*drawn)
        assert list(graph.out_degree.items()) == list(reference_out_degree(graph).items())
        assert graph.reduced_laplacian() == reference_reduced_laplacian(graph)

    def test_config_validation(self, cycle4):
        with pytest.raises(ValueError, match="3 entries"):
            cycle4.validate_config((1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            cycle4.validate_config((1, -1, 0))
        assert cycle4.is_stable((1, 1, 1))
        assert not cycle4.is_stable((2, 0, 0))

    @pytest.mark.parametrize("config", [(1.9, 0, True), (1, 0, True), (1.0, 0, 1),
                                        ("1", 0, 1), (1, 0, -1)])
    def test_non_integer_grains_are_refused_not_truncated(self, cycle4, config):
        with pytest.raises(ValueError, match="nonnegative"):
            cycle4.validate_config(config)

    @pytest.mark.parametrize("config, bad", [((1.5, 0, 1), "1.5"), ((True, 0, 1), "True"),
                                             ((1, "2", 0), "'2'"), ((1, 0, -1), "-1")],
                             ids=repr)
    def test_a_refused_config_names_its_first_bad_grain_count(self, cycle4, config, bad):
        with pytest.raises(ValueError) as refused:
            cycle4.validate_config(config)
        assert str(refused.value) == f"grain counts must be nonnegative ints, not {bad}"

    def test_a_valid_config_comes_back_as_a_tuple(self, cycle4):
        assert cycle4.validate_config([1, 0, 1]) == (1, 0, 1)


class TestStabilization:
    def test_already_stable_is_untouched(self, cycle4):
        stable, fired = sandpile_stabilize(cycle4, (1, 1, 1))
        assert stable == (1, 1, 1) and fired == (0, 0, 0)

    def test_single_topple(self, cycle4):
        stable, fired = sandpile_stabilize(cycle4, (2, 0, 0))
        assert stable == (0, 1, 0) and fired == (1, 0, 0)

    def test_laplacian_identity(self, cycle4):
        # stabilized = config - L @ fired, componentwise
        lap = cycle4.reduced_laplacian()
        for config in [(5, 0, 0), (0, 7, 0), (3, 3, 3), (10, 1, 4)]:
            stable, fired = sandpile_stabilize(cycle4, config)
            assert cycle4.is_stable(stable)
            moved = matvec(lap, fired)
            assert tuple(c - m for c, m in zip(config, moved)) == stable

    def test_schedule_independence_against_single_fire_oracle(self, cycle4):
        # fire one random unstable vertex at a time; the abelian property
        # says any schedule lands on the same pair (stable, fired)
        rng = random.Random(11)
        lap = cycle4.reduced_laplacian()
        degrees = [cycle4.out_degree[v] for v in cycle4.nonsink]
        for config in [(4, 4, 4), (9, 0, 2), (0, 0, 8)]:
            grains = list(config)
            fired = [0, 0, 0]
            while True:
                unstable = [i for i, g in enumerate(grains) if g >= degrees[i]]
                if not unstable:
                    break
                i = rng.choice(unstable)
                fired[i] += 1
                for j in range(3):
                    grains[j] -= lap[j][i]
            assert (tuple(grains), tuple(fired)) == sandpile_stabilize(cycle4, config)

    def test_guard_bounds_firings(self, cycle4):
        with pytest.raises(GuardExceeded):
            sandpile_stabilize(cycle4, (100, 100, 100), guard=5)


class TestRecurrents:
    def test_stable_configurations(self, cycle4):
        configs = stable_configurations(cycle4)
        assert len(configs) == 8  # out-degrees 2,2,2
        with pytest.raises(GuardExceeded):
            stable_configurations(cycle4, guard=7)

    def test_recurrents_of_the_4_cycle(self, cycle4):
        assert list(sandpile_recurrents(cycle4)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]

    @pytest.mark.parametrize("graph", [
        complete_digraph(4), complete_digraph(5), SandpileGraph.from_text(CYCLE4),
        SandpileGraph.from_text(PATH5), SandpileGraph.from_text(UNREACHED),
    ], ids=["K4", "K5", "cycle4", "path5", "unreached"])
    def test_the_walk_matches_the_peel(self, graph):
        assert_walk_matches_the_peel(graph)

    def test_an_unreached_vertex_keeps_every_stable_count(self):
        graph = SandpileGraph.from_text(UNREACHED)
        assert reached_from_source(graph) == {"a", "b"}
        recurrents = sandpile_recurrents(graph)
        # (a, b) in {(0, 1), (1, 0), (1, 1)}, each with c in {0, 1}
        assert list(recurrents) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                                    (1, 1, 0), (1, 1, 1)]
        assert all(image[2] == state[2] for state, image in recurrents.items())

    def test_the_walk_matches_the_peel_on_random_digraphs(self):
        rng = random.Random(41)
        unreached = 0
        for _ in range(600):
            graph = random_sink_connected_digraph(rng)
            unreached += len(reached_from_source(graph)) < len(graph.nonsink)
            assert_walk_matches_the_peel(graph)
        assert unreached >= 200  # the source misses some vertex on many of them

    @given(sink_connected_multigraphs())
    def test_the_walk_matches_the_peel_on_multigraphs(self, drawn):
        assert_walk_matches_the_peel(SandpileGraph(*drawn))

    def test_tau_requires_stability(self, cycle4):
        with pytest.raises(ValueError, match="stable"):
            sandpile_tau(cycle4, (5, 5, 5))

    def test_tau_permutes_recurrents_in_two_2_cycles(self, cycle4):
        assert sandpile_tau(cycle4, (1, 0, 1)) == (1, 1, 1)
        assert sandpile_tau(cycle4, iter((1, 0, 1))) == (1, 1, 1)  # any iterable
        assert sandpile_tau(cycle4, (1, 1, 1)) == (1, 0, 1)
        assert sandpile_tau(cycle4, (0, 1, 1)) == (1, 1, 0)
        assert sandpile_tau(cycle4, (1, 1, 0)) == (0, 1, 1)

    def test_each_step_validates_its_configuration_once(self, cycle4, monkeypatch):
        calls = []
        original = SandpileGraph.validate_config

        def counting(self, config):
            calls.append(1)
            return original(self, config)

        monkeypatch.setattr(SandpileGraph, "validate_config", counting)
        assert sandpile_tau(cycle4, (1, 0, 1)) == (1, 1, 1)
        assert len(calls) == 1  # its own check; sandpile_stabilize is a kernel
        firing_statistic(cycle4)((1, 1, 1))
        assert len(calls) == 2  # the statistic's own check
        assert sandpile_stabilize(cycle4, (2, 0, 0)) == ((0, 1, 0), (1, 0, 0))
        assert len(calls) == 2

    def test_negative_grain_at_the_source_is_rejected(self, cycle4):
        # -1 at the source would become 0 after the grain drop
        assert cycle4.nonsink.index(cycle4.source) == 1
        with pytest.raises(ValueError, match="nonnegative"):
            sandpile_tau(cycle4, (1, -1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            firing_statistic(cycle4)((1, -1, 1))


class TestGuardReachesEveryStabilization:
    def test_recurrents(self):
        path = SandpileGraph.from_text(PATH5)
        assert list(sandpile_recurrents(path)) == [(0, 0, 0, 0, 0)]
        with pytest.raises(GuardExceeded):
            sandpile_recurrents(path, guard=2)

    def test_firing_statistic(self):
        path = SandpileGraph.from_text(PATH5)
        assert firing_statistic(path)((0, 0, 0, 0, 0)) == (1, 1, 1, 1, 1)
        with pytest.raises(GuardExceeded):
            firing_statistic(path, guard=2)((0, 0, 0, 0, 0))


class TestFiringHomomesy:
    def test_firing_vectors_of_the_4_cycle(self, cycle4):
        stat = firing_statistic(cycle4)
        assert stat((1, 0, 1)) == (0, 0, 0)
        assert stat((1, 1, 1)) == (1, 2, 1)
        assert stat((0, 1, 1)) == (0, 1, 1)
        assert stat((1, 1, 0)) == (1, 1, 0)

    def test_orbit_average_and_laplacian_equation(self, cycle4):
        report = check_homomesy(lambda s: sandpile_tau(cycle4, s),
                                sandpile_recurrents(cycle4),
                                firing_statistic(cycle4))
        assert report.homomesic
        assert report.c == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
        assert report.c == expected_firing_average(cycle4)
        assert matvec(cycle4.reduced_laplacian(), report.c) == (0, 1, 0)

    def test_random_digraphs_satisfy_the_firing_equation(self):
        rng = random.Random(7)
        for _ in range(8):
            graph = random_sink_connected_digraph(rng)
            recurrents = sandpile_recurrents(graph)
            assert recurrents, "every sink-connected graph has recurrent states"
            report = check_homomesy(lambda s: sandpile_tau(graph, s),
                                    recurrents, firing_statistic(graph))
            assert report.homomesic
            assert report.c == expected_firing_average(graph)
            assert matvec(graph.reduced_laplacian(), report.c) == \
                tuple(graph.source_indicator())
