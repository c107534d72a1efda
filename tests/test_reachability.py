"""Every function and method of the package is entered by some CLI run.

COMMANDS run through cli.main under sys.setprofile: every system, all three
formats, seeds (the '=' form included), 'subspace', an --expect-c that
holds and one that fails, and one guard refusal per enumerator. A function
or method defined in src/homomesy, nested functions and lambdas included,
that no command enters fails the test unless ALLOWED names it. Methods that
dataclass generates, and comprehensions, are not counted. An ALLOWED name
that a command enters, or that the package no longer defines, fails the
test too, so the list cannot go stale.

A function that no run reaches gets a CLI path, or moves to
tests/reference.py when it is a definition that tests hold the package to,
or goes. It stays in the package only as a README-documented library entry
point or with a CLI path that a ROADMAP item promises: then it joins ALLOWED
with that reason in a comment, and CHANGES.md records the change.
"""
import contextlib
import importlib
import io
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import homomesy
from homomesy import cli

CYCLE4 = "1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\nsink 4\nsource 2\n"

# (exit code, argv); GRAPH stands for a file that holds CYCLE4
COMMANDS = [
    (0, "check grid-rowmotion-ideals --a 2 --b 2 --expect-c 2"),
    (0, "check grid-rowmotion-antichains --a 2 --b 3 --format json"),
    (4, "check grid-promotion-ideals --a 3 --b 2 --format csv --expect-c 7/2"),
    (0, "check grid-promotion-antichains --a 3 --b 2"),
    (0, "orbits grid-rowmotion-ideals --a 2 --b 2 --seed [[1,2]]"),
    (0, "orbits grid-promotion-antichains --a 2 --b 2 --seed [[1,2],[2,1]] --format json"),
    (0, "check ballot --a 2 --b 2 --format csv"),
    (0, "orbits ballot --a 2 --b 2 --seed=-+-+"),
    (0, "check cyclic-inversions --a 2 --b 2"),
    (0, "check reversal-inversions --n 3 --format json"),
    (0, "orbits reversal-inversions --n 3 --seed 2,3,1"),
    (0, "check lyness"),
    (0, "check lyness --seed=-1/2,3 --format json --expect-c 0"),
    (0, "orbits lyness --seed 2,2 --format csv"),
    (0, "check sandpile --graph GRAPH --expect-c 1/2,1,1/2"),
    (0, "orbits sandpile --graph GRAPH --seed 1,0,1 --format json"),
    (0, "check suter --n 4 --format csv"),
    (0, "check suter --n 4 --stat weight:1,3"),
    (0, "orbits suter --n 4 --seed []"),
    (0, "check ssyt --a 2 --b 2 --k 3"),
    (0, "check ssyt --a 2 --b 2 --k 3 --stat cells:1,1;2,2 --format json"),
    (0, "orbits ssyt --a 2 --b 2 --k 3 --seed 1,1;2,2"),
    (0, "subspace grid-rowmotion-ideals --a 2 --b 2"),
    (0, "subspace grid-rowmotion-antichains --a 2 --b 2 --format json"),
    (0, "subspace grid-promotion-ideals --a 2 --b 2 --format csv"),
    (3, "check grid-rowmotion-ideals --a 5 --b 5 --guard 5"),
    (3, "check ballot --a 5 --b 5 --guard 5"),
    (3, "check reversal-inversions --n 5 --guard 5"),
    (3, "check sandpile --graph GRAPH --guard 2"),
    (3, "check suter --n 6 --guard 5"),
    (3, "check ssyt --a 2 --b 2 --k 5 --guard 5"),
]

ALLOWED = {
    # FinitePoset is the README quick start's generic poset; ROADMAP item 9
    # puts the root poset on the CLI. The CLI's grids override all of these.
    "posets.FinitePoset.__init__",
    "posets.FinitePoset._smallest_linear_extension",
    "posets.FinitePoset.down_closure",
    "posets.FinitePoset.maximal_elements",
    "posets.FinitePoset.minimal_elements_of_complement",
    "posets.FinitePoset.enumerate_order_ideals",
    # README: len(poset) counts its elements, and a state's repr reads
    # OrderIdeal(mask=5)
    "posets.FinitePoset.__len__",
    "posets._MaskState.__repr__",
    # the word codecs, exported in README; ROADMAP item 3 runs orbits from them
    "dynamics.sign_word",
    "dynamics.ideal_from_sign_word",
    "dynamics.stanley_thomas_word",
    "dynamics.antichain_from_st_word",
    # the sandpile constant f* with L' f* = 1_source; ROADMAP item 7 has
    # 'check sandpile' verify it
    "gallery.sandpile.SandpileGraph.reduced_laplacian",
    "gallery.sandpile.SandpileGraph.source_indicator",
    "gallery.sandpile.expected_firing_average",
    "engine.rational_solve",
    # the cell sets of SSYT 'subspace' (ROADMAP item 2)
    "gallery.ssyt.centrally_symmetric_cell_sets",
    # README: entry(r, c) reads a 1-indexed entry. A cell sum calls it only to
    # name a cell outside the tableau, which the CLI refuses in require_cell
    "gallery.ssyt.SSYT.entry",
}


def defined_functions() -> dict:
    """{code object: "module.qualname"} for every function the package defines."""
    found = {}

    def add(code, qualname, module):
        if code.co_filename != module.__file__:  # dataclass-generated, or imported
            return
        found[code] = f"{module.__name__.removeprefix('homomesy.')}.{qualname}"
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and (
                    const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                add(const, f"{qualname}.<locals>.{const.co_name}", module)

    for info in pkgutil.walk_packages(homomesy.__path__, "homomesy."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members = []
                for attr in vars(value).values():
                    attr = getattr(attr, "__func__", attr)  # staticmethod, classmethod
                    members += ([attr.fget, attr.fset, attr.fdel]
                                if isinstance(attr, property) else [attr])
            for fn in members:
                if isinstance(fn, types.FunctionType):
                    add(fn.__code__, fn.__qualname__, module)
    return found


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    graph = tmp_path_factory.mktemp("reachability") / "cycle4.sg"
    graph.write_text(CYCLE4, encoding="utf-8")
    codes, exits = set(), []

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    for expected, command in COMMANDS:
        argv = [str(graph) if word == "GRAPH" else word for word in command.split()]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(previous)
        exits.append((command, expected, code))
    return codes, exits


def test_every_command_exits_as_listed(entered):
    _, exits = entered
    assert [(command, code) for command, expected, code in exits if code != expected] == []


def test_every_function_is_entered_or_allowed(entered):
    codes, _ = entered
    missed = [f"{Path(code.co_filename).name}:{code.co_firstlineno} {name}"
              for code, name in defined_functions().items()
              if code not in codes and name not in ALLOWED]
    assert missed == []


def test_the_allowlist_is_not_stale(entered):
    codes, _ = entered
    defined = defined_functions()
    names = set(defined.values())
    assert sorted(ALLOWED - names) == [], "allowed but no longer defined"
    assert sorted(name for code, name in defined.items() if code in codes and name in ALLOWED) \
        == [], "allowed but entered"
