"""The fourteen acceptance checks, one test per criterion.

Every comparison here is exact: Fraction/int equality, never a tolerance.
Each test prints one "[criterion NN] PASS/FAIL" line (visible under -s;
`pytest -v` additionally reports one line per criterion through the test
names themselves).
"""
import contextlib
import random
from fractions import Fraction
from math import comb

from homomesy.dynamics import (
    format_pm_word,
    promotion_antichain,
    promotion_ideal,
    rowmotion_antichain,
    rowmotion_ideal,
    sign_word,
    stanley_thomas_word,
)
from homomesy.engine import (
    Statistic,
    check_homomesy,
    homomesic_subspace,
    orbit_average,
    orbit_partition,
    rational_nullspace,
    rational_solve,
)
from homomesy.gallery.lyness import LynessState, lyness_cycle, lyness_orbit_product
from homomesy.gallery.sandpile import (
    SandpileGraph,
    expected_firing_average,
    firing_statistic,
    sandpile_recurrents,
    sandpile_tau,
)
from homomesy.gallery.ssyt import (
    SSYT,
    cell_sum_statistic,
    centrally_symmetric_cell_sets,
    rect_tableaux,
    ssyt_promotion,
)
from homomesy.gallery.suter import (
    diagonal_weight_statistic,
    staircase_diagrams,
    suter_rho,
    weight_statistic,
)
from homomesy.gallery.words import ballot_system, cyclic_inversions_system, left_shift
from homomesy.posets import FinitePoset, GridPoset
import reference
from reference import (
    block_gap_reversal,
    height_function,
    invariant_homomesic_decomposition,
    rowmotion_ideal_by_ranks,
    rowmotion_ideal_by_toggles,
)


@contextlib.contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {text}")
        raise
    print(f"[criterion {number:02d}] PASS {text}")


def ideal_size(poset):
    return Statistic.scalar("ideal-size", int.bit_count)


def grid_range(limit):
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            yield GridPoset(a, b)


# regression constants: homomesic-subspace dimensions over the element
# indicators, computed once by the exact kernel search and frozen; the
# two rowmotion systems give the same table
SUBSPACE_DIMENSIONS = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 4,
    (2, 1): 2, (2, 2): 3, (2, 3): 5, (2, 4): 6,
    (3, 1): 3, (3, 2): 5, (3, 3): 7, (3, 4): 9,
    (4, 1): 4, (4, 2): 6, (4, 3): 9, (4, 4): 11,
}


def test_criterion_01_promotion_ideal_means():
    with criterion(1, "promotion on ideals is ab/2-mesic for a,b <= 6"):
        for poset in grid_range(6):
            report = check_homomesy(lambda s, p=poset: promotion_ideal(p, s),
                                    poset.enumerate_order_ideals(), ideal_size(poset))
            assert report.homomesic
            assert report.c == (Fraction(poset.a * poset.b, 2),)
        # the [3]x[2] picture: two orbits of five lattice paths
        poset = GridPoset(3, 2)
        orbits = orbit_partition(lambda s: promotion_ideal(poset, s),
                                 poset.enumerate_order_ideals())
        assert [len(o) for o in orbits] == [5, 5]
        empty_orbit = next(o for o in orbits if 0 in o)
        words = [format_pm_word(sign_word(poset, s), 5) for s in empty_orbit]
        assert words == ["---++", "--++-", "-++--", "++---", "+---+"]
        for orbit in orbits:
            assert orbit_average(ideal_size(poset), orbit) == (Fraction(3),)


def test_criterion_02_rowmotion_ideal_means():
    with criterion(2, "rowmotion on ideals is ab/2-mesic; orbit sizes divide a+b"):
        for poset in grid_range(6):
            orbits = orbit_partition(lambda s, p=poset: rowmotion_ideal(p, s),
                                     poset.enumerate_order_ideals())
            for orbit in orbits:
                assert (poset.a + poset.b) % len(orbit) == 0
                assert orbit_average(ideal_size(poset), orbit) == \
                    (Fraction(poset.a * poset.b, 2),)


def test_criterion_03_rowmotion_antichain_means():
    with criterion(3, "rowmotion on antichains: ab/(a+b) overall, b/(a+b) per fiber"):
        for poset in grid_range(6):
            a, b = poset.a, poset.b

            def fiber_counts(chain, p=poset):
                hits = [0] * p.a
                for (k, _) in p.members(chain):
                    hits[k - 1] += 1
                return hits

            size = Statistic.scalar("antichain-size", int.bit_count)
            fibers = Statistic("fiber-counts", a, fiber_counts)
            orbits = orbit_partition(lambda s, p=poset: rowmotion_antichain(p, s),
                                     poset.enumerate_antichains())
            for orbit in orbits:
                assert orbit_average(size, orbit) == (Fraction(a * b, a + b),)
                assert orbit_average(fibers, orbit) == (Fraction(b, a + b),) * a


def test_criterion_04_promotion_antichain_counterexample():
    with criterion(4, "promotion on [3]x[2] antichains averages exactly 4/5 and 8/5"):
        poset = GridPoset(3, 2)
        report = check_homomesy(lambda s: promotion_antichain(poset, s),
                                poset.enumerate_antichains(),
                                Statistic.scalar("antichain-size", int.bit_count))
        assert not report.homomesic
        averages = sorted(s.average[0] for s in report.orbit_summaries)
        assert averages == [Fraction(4, 5), Fraction(8, 5)]


def test_criterion_05_word_equivariance():
    with criterion(5, "word equivariance oracles agree exhaustively for a,b <= 5"):
        for poset in grid_range(5):
            n = poset.a + poset.b
            for ideal in poset.enumerate_order_ideals():
                assert sign_word(poset, promotion_ideal(poset, ideal)) == \
                    left_shift(sign_word(poset, ideal), n)
                image = rowmotion_ideal(poset, ideal)
                assert reference.sign_word(poset, image) == \
                    block_gap_reversal(reference.sign_word(poset, ideal))
                assert rowmotion_ideal_by_toggles(poset, ideal) == image
                assert rowmotion_ideal_by_ranks(poset, ideal) == image
            for chain in poset.enumerate_antichains():
                # antichain rowmotion rotates right: a left rotation undoes it
                assert left_shift(stanley_thomas_word(poset, rowmotion_antichain(poset, chain)),
                                  n) == stanley_thomas_word(poset, chain)
        # the worked 3-element example on [7]x[5], bit for bit
        poset = GridPoset(7, 5)
        chain = poset.antichain([(1, 5), (5, 3), (6, 2)])
        assert format_pm_word(stanley_thomas_word(poset, chain), 12) == "+---++-+--+-"
        image = rowmotion_antichain(poset, chain)
        assert set(poset.members(image)) == {(2, 4), (6, 3), (7, 1)}
        assert format_pm_word(stanley_thomas_word(poset, image), 12) == "-+---++-+--+"


def test_criterion_06_height_identity():
    with criterion(6, "sum of heights minus the triangular terms is twice the size"):
        for poset in grid_range(5):
            a, b = poset.a, poset.b
            for ideal in poset.enumerate_order_ideals():
                total = sum(height_function(poset, ideal))
                assert total - a * (a + 1) // 2 - b * (b + 1) // 2 == 2 * ideal.bit_count()


def test_criterion_07_rotation_on_words():
    with criterion(7, "ballot and inversion statistics under rotation"):
        for b in range(1, 9):
            for a in range(0, b):
                space, tau, stat = ballot_system(a, b)
                report = check_homomesy(tau, space, stat)
                assert report.homomesic
                assert report.c == (Fraction(b - a, b + a),)
        for a in range(0, 9):
            for b in range(0, 9):
                if a + b == 0:
                    continue
                space, tau, stat = cyclic_inversions_system(a, b)
                report = check_homomesy(tau, space, stat)
                assert report.homomesic
                assert report.c == (Fraction(a * b, 2),)
        # the two-orbit picture for two minus and two plus letters
        space, tau, stat = cyclic_inversions_system(2, 2)
        orbits = orbit_partition(tau, space)
        assert sorted(len(o) for o in orbits) == [2, 4]
        assert all(orbit_average(stat, o) == (Fraction(2),) for o in orbits)


def test_criterion_08_lyness():
    with criterion(8, "Lyness map has order five and unit |h| product"):
        cycle = lyness_cycle(LynessState(1, 3))
        assert [s.x for s in cycle] == [1, 3, 4, Fraction(5, 3), Fraction(2, 3)]
        assert lyness_orbit_product(cycle) == 1

        rng = random.Random(20260819)
        found = 0
        while found < 100:
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            y = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if x == 0 or y == 0 or x == -1 or y == -1 or x + y + 1 == 0:
                continue
            state = LynessState(x, y)
            cycle = lyness_cycle(state)
            assert len(cycle) == 5
            assert lyness_orbit_product(cycle) == 1
            found += 1


def random_sink_connected_digraph(rng):
    n = rng.randint(2, 5)
    names = [f"v{i}" for i in range(n)]
    sink = names[0]
    edges = []
    for i in range(1, n):
        edges.append((names[i], names[rng.randrange(i)], rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2 * n)):
        v, w = rng.sample(names, 2)
        if v != sink:
            edges.append((v, w, rng.randint(1, 2)))
    source = names[rng.randint(1, n - 1)]
    return SandpileGraph(edges, sink, source)


def test_criterion_09_sandpile():
    with criterion(9, "sandpile firing vectors average to the Laplacian solution"):
        graph = SandpileGraph.from_text(
            "1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\n"
            "sink 4\nsource 2\n")
        recurrents = sandpile_recurrents(graph)
        assert set(recurrents) == {(1, 0, 1), (1, 1, 1), (0, 1, 1), (1, 1, 0)}
        stat = firing_statistic(graph)
        assert stat((1, 0, 1)) == (0, 0, 0)
        assert stat((1, 1, 1)) == (1, 2, 1)
        assert stat((0, 1, 1)) == (0, 1, 1)
        assert stat((1, 1, 0)) == (1, 1, 0)
        report = check_homomesy(lambda s: sandpile_tau(graph, s), recurrents, stat)
        assert sorted(s.period for s in report.orbit_summaries) == [2, 2]
        assert report.homomesic
        fstar = (Fraction(1, 2), Fraction(1), Fraction(1, 2))
        assert report.c == fstar
        lap = graph.reduced_laplacian()
        assert tuple(sum(Fraction(r) * f for r, f in zip(row, fstar)) for row in lap) \
            == (0, 1, 0)

        rng = random.Random(20260819)
        for _ in range(20):
            g = random_sink_connected_digraph(rng)
            rec = sandpile_recurrents(g)
            assert rec
            rep = check_homomesy(lambda s: sandpile_tau(g, s), rec, firing_statistic(g))
            assert rep.homomesic
            assert rep.c == expected_firing_average(g)
            got = tuple(
                sum(Fraction(r) * f for r, f in zip(row, rep.c))
                for row in g.reduced_laplacian()
            )
            assert got == tuple(g.source_indicator())


def test_criterion_10_suter():
    with criterion(10, "staircase rotation weight homomesies"):
        orbits = orbit_partition(lambda d: suter_rho(5, d), staircase_diagrams(5))
        stat5 = weight_statistic(5)
        weight_rows = sorted(
            tuple(stat5(d)[0] for d in orbit) for orbit in orbits
        )
        assert weight_rows == sorted([
            (0, 10, 15, 15, 10),
            (4, 9, 14, 14, 9),
            (7, 12, 12, 12, 7),
            (10,),
        ])
        for n in range(1, 9):
            space = staircase_diagrams(n)
            report = check_homomesy(lambda d: suter_rho(n, d), space,
                                    weight_statistic(n))
            assert report.homomesic
            assert report.c == (Fraction(n ** 3 - n, 12),)
            for i in range(1, n):
                refined = check_homomesy(lambda d: suter_rho(n, d), space,
                                         diagonal_weight_statistic(n, i, n - i))
                assert refined.homomesic
                assert refined.c == (Fraction(i * (n - i)),)
        assert suter_rho(6, (2, 2, 1, 1)) == (3, 2, 2)
        stat6 = weight_statistic(6)
        assert stat6((2, 2, 1, 1)) == (21,)
        assert stat6((3, 2, 2)) == (24,)


def test_criterion_11_tableau_promotion():
    with criterion(11, "tableau promotion: reference orbit, order, symmetric sums"):
        start = SSYT(5, ((1, 1, 2), (2, 3, 4)))
        states = [start]
        for _ in range(4):
            states.append(ssyt_promotion(states[-1]))
        assert ssyt_promotion(states[-1]) == start
        assert [t.rows for t in states] == [
            ((1, 1, 2), (2, 3, 4)),
            ((1, 1, 3), (2, 5, 5)),
            ((1, 2, 4), (4, 5, 5)),
            ((1, 3, 4), (3, 4, 5)),
            ((2, 2, 3), (3, 4, 5)),
        ]
        for nrows, ncols in ((2, 2), (2, 3)):
            for ceiling in range(nrows, 6):
                space = rect_tableaux(nrows, ncols, ceiling)
                for t in space:
                    current = t
                    for _ in range(ceiling):
                        current = ssyt_promotion(current)
                    assert current == t
                for cells in centrally_symmetric_cell_sets(nrows, ncols):
                    report = check_homomesy(ssyt_promotion, space,
                                            cell_sum_statistic(cells))
                    assert report.homomesic
                    assert report.c == (Fraction(len(cells) * (ceiling + 1), 2),)


def spans(basis_vectors, vector):
    """Exact membership of vector in the row span of basis_vectors."""
    ncols = len(vector)
    rank = ncols - len(rational_nullspace(list(basis_vectors), num_columns=ncols))
    extended = list(basis_vectors) + [vector]
    rank_ext = ncols - len(rational_nullspace(extended, num_columns=ncols))
    return rank_ext == rank


def test_criterion_12_homomesic_subspace():
    with criterion(12, "rowmotion homomesic subspaces: generators and dimensions"):
        for a in range(1, 5):
            for b in range(1, 5):
                poset = GridPoset(a, b)
                elements = poset.elements
                n = len(elements)
                indicators = Statistic("e", n, lambda s: [s >> i & 1 for i in range(n)])

                ideal_vectors = homomesic_subspace(
                    lambda s: rowmotion_ideal(poset, s),
                    poset.enumerate_order_ideals(), indicators)
                assert len(ideal_vectors) == SUBSPACE_DIMENSIONS[(a, b)]
                for f in poset.files:
                    coeffs = tuple(
                        Fraction(1 if l - k == f else 0) for (k, l) in elements)
                    assert spans(ideal_vectors, coeffs)
                for x in elements:
                    y = poset.opposite(x)
                    if x > y:
                        continue
                    # on odd x odd grids the center pairs with itself and
                    # enters with coefficient 2, equivalent to the bare
                    # indicator; it does lie in the subspace
                    coeffs = [Fraction(0)] * len(elements)
                    coeffs[poset.index[x]] += 1
                    coeffs[poset.index[y]] += 1
                    assert spans(ideal_vectors, tuple(coeffs))

                chain_vectors = homomesic_subspace(
                    lambda s: rowmotion_antichain(poset, s),
                    poset.enumerate_antichains(), indicators)
                assert len(chain_vectors) == SUBSPACE_DIMENSIONS[(a, b)]
                for k in range(1, a + 1):
                    coeffs = tuple(
                        Fraction(1 if kk == k else 0) for (kk, _) in elements)
                    assert spans(chain_vectors, coeffs)
                for l in range(1, b + 1):
                    coeffs = tuple(
                        Fraction(1 if ll == l else 0) for (_, ll) in elements)
                    assert spans(chain_vectors, coeffs)
                for x in elements:
                    y = poset.opposite(x)
                    if x >= y:
                        continue
                    coeffs = [Fraction(0)] * len(elements)
                    coeffs[poset.index[x]] = 1
                    coeffs[poset.index[y]] = -1
                    assert spans(chain_vectors, tuple(coeffs))


def test_criterion_13_decomposition():
    with criterion(13, "every statistic splits uniquely as invariant plus 0-mesic"):
        poset = GridPoset(3, 3)
        systems = [
            (poset.enumerate_order_ideals(),
             lambda s: rowmotion_ideal(poset, s),
             Statistic.scalar("ideal-size", int.bit_count)),
            (poset.enumerate_antichains(),
             lambda s: promotion_antichain(poset, s),
             Statistic.scalar("antichain-size", int.bit_count)),
            cyclic_inversions_system(3, 2),
            (staircase_diagrams(5), lambda d: suter_rho(5, d), weight_statistic(5)),
            (rect_tableaux(2, 2, 4), ssyt_promotion,
             cell_sum_statistic([(1, 1), (2, 2)])),
        ]
        graph = SandpileGraph.from_text(
            "1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\n"
            "sink 4\nsource 2\n")
        systems.append((sandpile_recurrents(graph),
                        lambda s: sandpile_tau(graph, s),
                        firing_statistic(graph)))

        for space, tau, stat in systems:
            f_mean, f_centered = invariant_homomesic_decomposition(tau, space, stat)
            for state in space:
                whole = stat(state)
                parts = tuple(
                    m + c for m, c in zip(f_mean(state), f_centered(state)))
                assert parts == whole
                assert f_mean(state) == f_mean(tau(state))
            centered = check_homomesy(tau, space, f_centered)
            assert centered.homomesic
            assert centered.c == (Fraction(0),) * stat.dimension
            # uniqueness: a second run over a reshuffled space gives the
            # identical split, and the invariant part is forced to be the
            # orbit mean of the original statistic
            shuffled = list(space)
            random.Random(13).shuffle(shuffled)
            g_mean, g_centered = invariant_homomesic_decomposition(tau, shuffled, stat)
            for state in space:
                assert g_mean(state) == f_mean(state)
                assert g_centered(state) == f_centered(state)
            for orbit in orbit_partition(tau, space):
                avg = orbit_average(stat, orbit)
                assert all(f_mean(s) == avg for s in orbit)


def root_poset(n):
    """The positive roots of A_n as a plain FinitePoset: the intervals
    [i, j] with 1 <= i <= j <= n, where [i, j] is covered by [i - 1, j] and
    by [i, j + 1]. Listed by (i, j), which is not a linear extension."""
    roots = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    covers = [((i, j), y) for i, j in roots
              for y in ((i - 1, j), (i, j + 1)) if 1 <= y[0] and y[1] <= n]
    return FinitePoset(roots, covers)


def test_criterion_14_root_poset_antichains():
    with criterion(14, "rowmotion on the antichains of the A_n root poset is n/2-mesic"):
        for n in range(1, 8):
            poset = root_poset(n)
            chains = poset.enumerate_antichains()
            assert len(chains) == comb(2 * n + 2, n + 1) // (n + 2)  # Catalan(n + 1)
            report = check_homomesy(lambda s, p=poset: rowmotion_antichain(p, s), chains,
                                    Statistic.scalar("antichain-size", int.bit_count))
            assert report.homomesic
            assert report.c == (Fraction(n, 2),)
