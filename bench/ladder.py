"""The benchmark's workloads: which CLI invocations each one runs, and the
input files it writes first.

A case is one `homomesy` command line plus what the checker needs to judge
its output. `build` writes a workload's inputs (sandpile graph files) and
returns its cases in an order drawn from the seed; the work in a round does
not depend on that order. Only `gallery-maps` has seeded content: a random
sink-connected directed multigraph whose size is fixed, so its run time
varies little from seed to seed.

Each ladder ends with one small case that reaches the layers its main cases
do not use. Every per-layer time is then a measurement on every workload,
never a constant 0.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("grid-sweep", "gallery-maps", "exact-algebra")


@dataclass
class Case:
    """One CLI invocation.

    kind selects the checker; params holds the sizes and inputs it needs;
    roles names the traced layer roles this case must exercise (see spans.py).
    """

    argv: tuple
    kind: str
    params: dict = field(default_factory=dict)
    roles: frozenset = frozenset()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


CHECK_ROLES = {"engine.partition", "engine.stat", "engine.average", "engine.verdict",
               "cli.main", "cli.bundle"}


def _grid(system, a, b, fmt="table"):
    argv = ("check", system, "--a", str(a), "--b", str(b))
    if fmt != "table":
        argv += ("--format", fmt)
    return Case(argv, "grid", {"system": system, "a": a, "b": b},
                frozenset(CHECK_ROLES | {"posets.enumerate", "dynamics.tau"}))


def _words(system, a, b):
    return Case(("check", system, "--a", str(a), "--b", str(b)), "words",
                {"system": system, "a": a, "b": b},
                frozenset(CHECK_ROLES | {"gallery.enumerate", "gallery.tau", "gallery.stat"}))


def _gallery(argv, kind, params, *extra):
    roles = CHECK_ROLES | {"gallery.enumerate", "gallery.tau", "gallery.stat", *extra}
    return Case(tuple(argv), kind, params, frozenset(roles))


def _subspace(system, a, b):
    return Case(("subspace", system, "--a", str(a), "--b", str(b)), "subspace",
                {"system": system, "a": a, "b": b},
                frozenset({"posets.enumerate", "dynamics.tau", "engine.partition",
                           "engine.stat", "engine.average", "engine.nullspace", "cli.main"}))


def complete_digraph(n: int):
    """Bidirected K_n on vertices 1..n; the sink is n and the source 1."""
    edges = Counter({(str(v), str(w)): 1
                     for v in range(1, n + 1) for w in range(1, n + 1) if v != w})
    return edges, str(n), "1"


def seeded_digraph(rng: random.Random, vertices: int, out_degree: int):
    """A random directed multigraph with a global sink.

    A random Hamiltonian path runs from the source through every non-sink
    vertex to the sink, so every vertex reaches the sink and is reached from
    the source; each non-sink vertex then gets out_degree - 1 more edges to
    random other vertices. Every non-sink vertex has out-degree out_degree,
    so there are always out_degree ** vertices stable configurations.
    """
    names = [f"v{i}" for i in range(1, vertices + 1)]
    sink = "t"
    path = names[:]
    rng.shuffle(path)
    edges = Counter(zip(path, path[1:] + [sink]))
    for v in names:
        others = [u for u in names + [sink] if u != v]
        for _ in range(out_degree - 1):
            edges[(v, rng.choice(others))] += 1
    return edges, sink, path[0]


def write_graph(path: Path, edges, sink, source, rng: random.Random | None = None) -> None:
    lines = [f"{v} {w} {c}" for (v, w), c in edges.items()]
    if rng is not None:
        rng.shuffle(lines)  # line order fixes the program's vertex order
    lines += [f"sink {sink}", f"source {source}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sandpile(path: Path, edges, sink, source):
    return _gallery(("check", "sandpile", "--graph", str(path)), "sandpile",
                    {"edges": edges, "sink": sink, "source": source},
                    "gallery.sandpile.stabilize")


def grid_sweep(tiny: bool):
    big, mid, rect = ((3, 2, (2, 3)) if tiny else (9, 8, (7, 9)))
    return [
        _grid("grid-rowmotion-ideals", big, big),
        _grid("grid-rowmotion-antichains", *rect),
        _grid("grid-promotion-ideals", mid, mid),
        _grid("grid-promotion-antichains", mid, mid, fmt="json"),
        _words("ballot", mid, mid + 1),
        _words("cyclic-inversions", mid, mid),
        _subspace("grid-promotion-ideals", 3, 4),  # reaches the nullspace
    ]


def gallery_maps(tiny: bool, seed: int, directory: Path):
    rng = random.Random(seed)
    ssyt_shapes = [(2, 2, 3), (2, 3, 4)] if tiny else [(3, 4, 6), (2, 4, 7)]
    n_suter, pair = (6, (2, 4)) if tiny else (16, (7, 9))
    k_n, (vertices, degree), n_rev = (4, (3, 2), 4) if tiny else (7, (6, 4), 8)

    directory.mkdir(parents=True, exist_ok=True)
    complete = complete_digraph(k_n)
    complete_path = directory / f"k{k_n}.sg"
    write_graph(complete_path, *complete)
    seeded = seeded_digraph(rng, vertices, degree)
    seeded_path = directory / f"seeded-{seed}.sg"
    write_graph(seeded_path, *seeded, rng=rng)

    cases = [
        _gallery(("check", "ssyt", "--a", str(m), "--b", str(n), "--k", str(k)), "ssyt",
                 {"rows": m, "cols": n, "k": k}, "gallery.ssyt.validate")
        for m, n, k in ssyt_shapes
    ]
    cases += [
        _gallery(("check", "suter", "--n", str(n_suter)), "suter",
                 {"n": n_suter, "pair": None}, "gallery.suter.member_check"),
        _gallery(("check", "suter", "--n", str(n_suter), "--stat", "weight:%d,%d" % pair),
                 "suter", {"n": n_suter, "pair": pair}, "gallery.suter.member_check"),
        _sandpile(complete_path, *complete),
        _sandpile(seeded_path, *seeded),
        _gallery(("check", "reversal-inversions", "--n", str(n_rev)), "reversal", {"n": n_rev}),
        _subspace("grid-rowmotion-ideals", 2, 3),  # reaches posets, dynamics, nullspace
    ]
    return cases


def exact_algebra(tiny: bool):
    small, large = (3, (2, 4)) if tiny else (6, (7, 7))
    return [
        _subspace("grid-rowmotion-ideals", small, small),
        _subspace("grid-rowmotion-antichains", small, small),
        _subspace("grid-promotion-ideals", *large),
        _words("ballot", 3, 4),  # reaches gallery, the verdict and bundle building
    ]


def build(workload: str, seed: int, directory: Path, tiny: bool = False) -> list[Case]:
    """Write the workload's inputs under directory and return its cases."""
    if workload == "grid-sweep":
        cases = grid_sweep(tiny)
    elif workload == "gallery-maps":
        cases = gallery_maps(tiny, seed, directory)
    elif workload == "exact-algebra":
        cases = exact_algebra(tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cases)
    return cases
