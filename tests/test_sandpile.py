"""Chip dynamics: stabilization, recurrents, and the firing-vector homomesy."""
import random
from fractions import Fraction

import pytest

from homomesy.engine import check_homomesy
from homomesy.gallery.sandpile import (
    SandpileGraph,
    expected_firing_average,
    firing_statistic,
    sandpile_recurrents,
    sandpile_stabilize,
    sandpile_tau,
    stable_configurations,
)
from homomesy.guards import GuardExceeded

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

    def test_sink_must_be_reachable(self):
        with pytest.raises(ValueError, match="no directed path"):
            SandpileGraph([("a", "b", 1), ("c", "c".upper(), 1), ("C", "c", 1)],
                          "b", "c")

    def test_sink_and_source_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            SandpileGraph([("a", "b", 1)], "b", "b")

    def test_reduced_laplacian_of_the_4_cycle(self, cycle4):
        assert cycle4.reduced_laplacian() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

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
        assert sandpile_recurrents(cycle4) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]

    def test_tau_requires_stability(self, cycle4):
        with pytest.raises(ValueError, match="stable"):
            sandpile_tau(cycle4, (5, 5, 5))

    def test_tau_permutes_recurrents_in_two_2_cycles(self, cycle4):
        assert sandpile_tau(cycle4, (1, 0, 1)) == (1, 1, 1)
        assert sandpile_tau(cycle4, (1, 1, 1)) == (1, 0, 1)
        assert sandpile_tau(cycle4, (0, 1, 1)) == (1, 1, 0)
        assert sandpile_tau(cycle4, (1, 1, 0)) == (0, 1, 1)

    def test_tau_validates_before_and_inside_stabilization(self, cycle4, monkeypatch):
        calls = []
        original = SandpileGraph.validate_config

        def counting(self, config):
            calls.append(1)
            return original(self, config)

        monkeypatch.setattr(SandpileGraph, "validate_config", counting)
        assert sandpile_tau(cycle4, (1, 0, 1)) == (1, 1, 1)
        assert len(calls) == 2  # its own check, then sandpile_stabilize's

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
        assert sandpile_recurrents(path) == [(0, 0, 0, 0, 0)]
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
