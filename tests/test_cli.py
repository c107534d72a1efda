"""End-to-end command line checks: exit codes, formats, seeds."""
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import homomesy
from homomesy import cli, engine
from homomesy.cli import SYSTEMS, build_bundle, build_parser, main
from homomesy.dynamics import (
    promotion_antichain,
    promotion_ideal,
    rowmotion_antichain,
    rowmotion_ideal,
)
from homomesy.engine import (OrbitSummary, Statistic, check_homomesy, homomesic_subspace,
                             iterate_orbit, orbit_average, orbit_partition, summarize_orbits)
from homomesy.gallery import lyness, sandpile
from homomesy.posets import FinitePoset, GridPoset
from reference import reference_orbit_table
from test_sandpile import UNREACHED

CYCLE4 = """1 2 1
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


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "cycle4.graph"
    path.write_text(CYCLE4)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_promotion_ideals_homomesic(self, capsys):
        code, out, err = run(capsys, "check", "grid-promotion-ideals",
                             "--a", "3", "--b", "2", "--expect-c", "3")
        assert code == 0
        assert "homomesic: yes" in out
        assert "c: 3" in out

    def test_expectation_mismatch_exits_4(self, capsys):
        code, out, err = run(capsys, "check", "grid-promotion-ideals",
                             "--a", "3", "--b", "2", "--expect-c", "7/2")
        assert code == 4
        assert "expectation failed" in err

    @pytest.mark.parametrize("argv, value", [
        (("grid-rowmotion-ideals", "--a", "2", "--b", "2"), "x"),
        (("lyness",), "1/0"),
    ], ids=["grid", "lyness"])
    def test_malformed_expectation_is_refused_before_the_sweep(self, capsys, argv, value):
        code, out, err = run(capsys, "check", *argv, "--expect-c", value)
        assert code == 2
        assert out == ""
        assert err == f"error: not a rational: {value!r}\n"

    @pytest.mark.parametrize("argv, value, statistic", [
        (("grid-rowmotion-ideals", "--a", "2", "--b", "2"), "2,2", "ideal-size"),
        (("lyness",), "0,0", "log|h(x)|"),
    ], ids=["grid", "lyness"])
    def test_expectation_of_the_wrong_length_is_refused_before_the_walk(
            self, capsys, monkeypatch, argv, value, statistic):
        def refuse(*args, **kwargs):
            raise AssertionError("the orbit walk ran")

        monkeypatch.setattr(cli, "check_homomesy", refuse)
        monkeypatch.setattr(cli, "lyness_cycle", refuse)
        code, out, err = run(capsys, "check", *argv, "--expect-c", value)
        assert (code, out) == (2, "")
        assert err == (f"error: --expect-c has length 2, but statistic {statistic!r} "
                       "has dimension 1\n")

    def test_non_homomesic_system_with_expectation_exits_4(self, capsys):
        code, out, err = run(capsys, "check", "grid-promotion-antichains",
                             "--a", "3", "--b", "2", "--expect-c", "6/5")
        assert code == 4
        assert "not homomesic" in err

    def test_non_homomesic_verdict_without_expectation_is_ok(self, capsys):
        code, out, err = run(capsys, "check", "grid-promotion-antichains",
                             "--a", "3", "--b", "2")
        assert code == 0
        assert "homomesic: no" in out
        assert "4/5" in out and "8/5" in out

    def test_rowmotion_antichains(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-antichains",
                             "--a", "4", "--b", "2", "--expect-c", "4/3")
        assert code == 0

    def test_json_format_round_trips(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["homomesic"] is True
        assert doc["c"] == "2"
        assert doc["space"] == {"kind": "order-ideals",
                                "poset": {"a": 2, "b": 2}, "states": 6}
        assert {o["period"] for o in doc["orbits"]} == {2, 4}

    def test_csv_format(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["representative", "period", "average"]
        assert len(rows) == 3  # header + two orbits

    def test_guard_exceeded_exits_3(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-ideals",
                             "--a", "4", "--b", "4", "--guard", "10")
        assert code == 3
        assert "guard exceeded" in err

    def test_guard_exceeded_on_antichains_exits_3(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-antichains",
                             "--a", "4", "--b", "4", "--guard", "69")
        assert code == 3
        assert out == ""
        assert "70 ideals" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "orbits", "subspace"])
    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_non_positive_guard_is_a_usage_error(self, capsys, command, guard):
        code, out, err = run(capsys, command, "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--guard", guard)
        assert code == 2
        assert out == ""
        assert "--guard must be a positive integer" in err

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_only_json_builds_the_document(self, capsys, monkeypatch, fmt):
        def refuse(self, state):
            raise AssertionError("the JSON document was built")

        # the grid states' JSON codec, which only the JSON document reads
        monkeypatch.setattr(GridPoset, "state_pairs", refuse)
        code, out, err = run(capsys, "check", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--format", fmt)
        assert code == 0 and err == "" and "1,1" in out

    def test_an_over_guard_grid_is_refused_before_it_is_built(self, capsys, monkeypatch):
        def refuse(self, elements, covers):
            raise AssertionError("a poset was built")

        monkeypatch.setattr(FinitePoset, "__init__", refuse)
        for system in ("grid-rowmotion-ideals", "grid-promotion-antichains"):
            code, out, err = run(capsys, "check", system, "--a", "40", "--b", "40")
            assert code == 3 and out == ""
            assert err == ("guard exceeded: [40]x[40] has 107507208733336176461620 ideals, "
                           "over the guard of 10000000\n")

    @pytest.mark.parametrize("command", ["check", "orbits"])
    def test_a_map_that_leaves_its_space_exits_5(self, capsys, monkeypatch, command):
        # toggling (1, 2) sends the empty ideal to {(1, 2)}, mask 2, which is
        # not an ideal: a fault in the program, not in its input
        monkeypatch.setattr(cli, "rowmotion_ideal", lambda poset, s: s ^ 0b10)
        code, out, err = run(capsys, command, "grid-rowmotion-ideals", "--a", "2", "--b", "2")
        assert (code, out) == (5, "")
        assert err == ("internal error: closure violation: the map leaves the state "
                       "space at 2\n")

    def test_a_failed_self_check_exits_5(self, capsys, monkeypatch):
        # a Lyness step that never closes the orbit fails lyness_cycle's own check
        monkeypatch.setattr(lyness, "lyness_step", lambda s: lyness.LynessState(s.y, s.x + 1))
        code, out, err = run(capsys, "check", "lyness")
        assert (code, out) == (5, "")
        assert err == "internal error: Lyness orbit failed to close after five steps\n"
        assert "Traceback" not in err

    def test_missing_flags_exit_2(self, capsys):
        code, out, err = run(capsys, "check", "grid-rowmotion-ideals", "--a", "3")
        assert code == 2
        assert "requires --b" in err

    def test_unknown_stat_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "ballot", "--a", "1", "--b", "2",
                             "--stat", "nope")
        assert code == 2
        assert "unknown statistic" in err

    def test_seed_rejected_outside_lyness(self, capsys):
        code, out, err = run(capsys, "check", "ballot", "--a", "1", "--b", "2",
                             "--seed", "+-+")
        assert code == 2

    def test_unknown_system_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "mystery"])
        assert exc.value.code == 2

    def test_ballot(self, capsys):
        code, out, err = run(capsys, "check", "ballot", "--a", "2", "--b", "5",
                             "--expect-c", "3/7")
        assert code == 0

    def test_reversal_inversions(self, capsys):
        code, out, err = run(capsys, "check", "reversal-inversions", "--n", "4",
                             "--expect-c", "3")
        assert code == 0

    def test_suter_refined_stat(self, capsys):
        code, out, err = run(capsys, "check", "suter", "--n", "5",
                             "--stat", "weight:2,3", "--expect-c", "6")
        assert code == 0

    def test_suter_bad_refined_stat(self, capsys):
        code, out, err = run(capsys, "check", "suter", "--n", "5",
                             "--stat", "weight:2,2")
        assert code == 2

    def test_ssyt_full_sum(self, capsys):
        code, out, err = run(capsys, "check", "ssyt", "--a", "2", "--b", "2",
                             "--k", "4", "--expect-c", "10")
        assert code == 0

    def test_ssyt_cell_set(self, capsys):
        code, out, err = run(capsys, "check", "ssyt", "--a", "2", "--b", "3",
                             "--k", "5", "--stat", "cells:1,1;2,3",
                             "--expect-c", "6")
        assert code == 0

    def test_ssyt_cell_out_of_range(self, capsys):
        code, out, err = run(capsys, "check", "ssyt", "--a", "2", "--b", "2",
                             "--k", "3", "--stat", "cells:3,1")
        assert code == 2

    @pytest.mark.parametrize("argv, grammar", [
        (("suter", "--n", "5", "--stat", "weight:"), "weight:i,j"),
        (("ssyt", "--a", "2", "--b", "2", "--k", "3", "--stat", "cells:"), "cells:r,c;r,c"),
    ], ids=["weight", "cells"])
    def test_empty_stat_parameter_names_the_grammar(self, capsys, argv, grammar):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2
        assert out == ""
        assert grammar in err

    def test_sandpile(self, capsys, graph_file):
        code, out, err = run(capsys, "check", "sandpile", "--graph", graph_file,
                             "--expect-c", "1/2,1,1/2")
        assert code == 0
        assert "homomesic: yes" in out

    @pytest.mark.parametrize("text, recurrents", [
        ("".join(f"{v} {w} 1\n" for v in "1234" for w in "1234" if v != w)
         + "sink 4\nsource 1\n", 16),  # the spanning trees of K4
        (UNREACHED, 6),  # c, outside what the source reaches, keeps each stable count
    ], ids=["K4", "unreached"])
    def test_sandpile_runs_tau_once_per_recurrent(self, capsys, monkeypatch, tmp_path,
                                                  text, recurrents):
        # the walk that finds the recurrents steps each of them once
        calls = []
        original = sandpile.sandpile_tau

        def spy(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for module in (sandpile, cli):  # every module that binds the function
            if getattr(module, "sandpile_tau", None) is original:
                monkeypatch.setattr(module, "sandpile_tau", spy)
        graph = tmp_path / "sandpile.graph"
        graph.write_text(text)
        code, out, err = run(capsys, "check", "sandpile", "--graph", str(graph))
        assert code == 0 and "homomesic: yes" in out
        assert len(calls) == recurrents == len(set(calls))

    def test_sandpile_requires_graph(self, capsys):
        code, out, err = run(capsys, "check", "sandpile")
        assert code == 2
        assert "--graph" in err

    def test_sandpile_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "sandpile", "--graph",
                             str(tmp_path / "nope.graph"))
        assert code == 2

    def test_sandpile_graph_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, "check", "sandpile", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read graph file")
        assert str(path) in err and "not UTF-8" in err

    @pytest.mark.parametrize("text, message", [
        (CYCLE4 + "1 3 x\n", "unparseable sandpile line: '1 3 x'"),
        (CYCLE4 + "sink 1\n", "repeated 'sink' header on line 11: 'sink 1'"),
        (CYCLE4 + "source 3\n", "repeated 'source' header on line 11: 'source 3'"),
    ], ids=["edge-count", "second-sink", "second-source"])
    def test_sandpile_bad_graph_line_is_named(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code, out, err = run(capsys, "check", "sandpile", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestOrbits:
    def test_full_listing(self, capsys):
        code, out, err = run(capsys, "orbits", "grid-promotion-ideals",
                             "--a", "3", "--b", "2")
        assert code == 0
        assert "orbit" in out and "period" in out
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2

    def test_single_orbit_from_ideal_seed(self, capsys):
        code, out, err = run(capsys, "orbits", "grid-promotion-ideals",
                             "--a", "3", "--b", "2", "--seed", "[[2,1]]",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["orbits"]) == 1
        assert doc["orbits"][0]["period"] == 5
        assert doc["orbits"][0]["average"] == "3"

    def test_antichain_seed_must_be_an_antichain(self, capsys):
        code, out, err = run(capsys, "orbits", "grid-rowmotion-antichains",
                             "--a", "2", "--b", "2", "--seed", "[[1,1],[2,2]]")
        assert code == 2

    @pytest.mark.parametrize("seed", ["[[true,1]]", "[[2,false]]"])
    def test_a_json_boolean_is_not_a_coordinate(self, capsys, seed):
        code, out, err = run(capsys, "orbits", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--seed", seed)
        assert code == 2 and out == ""
        assert err == "error: seed must be a JSON list of [k,l] integer pairs\n"

    def test_bad_seed_json(self, capsys):
        code, out, err = run(capsys, "orbits", "grid-promotion-ideals",
                             "--a", "2", "--b", "2", "--seed", "oops")
        assert code == 2
        assert "JSON" in err

    def test_word_seed(self, capsys):
        code, out, err = run(capsys, "orbits", "cyclic-inversions",
                             "--a", "2", "--b", "2", "--seed", "+-+-",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbits"][0]["period"] == 2

    def test_word_seed_multiset_checked(self, capsys):
        code, out, err = run(capsys, "orbits", "ballot",
                             "--a", "2", "--b", "2", "--seed", "+++-")
        assert code == 2

    def test_permutation_seed(self, capsys):
        code, out, err = run(capsys, "orbits", "reversal-inversions",
                             "--n", "3", "--seed", "2,3,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbits"][0]["period"] == 2

    def test_sandpile_seed_must_be_recurrent(self, capsys, graph_file):
        code, out, err = run(capsys, "orbits", "sandpile", "--graph", graph_file,
                             "--seed", "0,0,0")
        assert code == 2
        assert "recurrent" in err

    def test_sandpile_recurrent_seed(self, capsys, graph_file):
        code, out, err = run(capsys, "orbits", "sandpile", "--graph", graph_file,
                             "--seed", "1,0,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbits"][0]["period"] == 2
        assert doc["orbits"][0]["average"] == ["1/2", "1", "1/2"]

    def test_suter_empty_seed(self, capsys):
        code, out, err = run(capsys, "orbits", "suter", "--n", "5",
                             "--seed", "[]", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbits"][0]["period"] == 5

    def test_ssyt_seed(self, capsys):
        code, out, err = run(capsys, "orbits", "ssyt", "--a", "2", "--b", "3",
                             "--k", "5", "--seed", "1,1,2;2,3,4")
        assert code == 0
        assert "1,1,2;2,3,4" in out

    def test_csv_orbit_listing(self, capsys):
        code, out, err = run(capsys, "orbits", "suter", "--n", "4",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["representative", "period", "average"]
        assert len(rows) == 1 + 2  # Y_4 splits into two orbits of size 4

    @pytest.mark.parametrize("argv", [
        ("grid-rowmotion-ideals", "--a", "2", "--b", "2"),
        ("ballot", "--a", "2", "--b", "2", "--seed", "+-+-"),
    ], ids=["grid", "seeded-word"])
    def test_expect_c_rejected(self, capsys, argv):
        code, out, err = run(capsys, "orbits", *argv, "--expect-c", "2")
        assert code == 2
        assert out == ""
        assert "--expect-c" in err

    def test_ssyt_seed_of_the_wrong_shape_is_named(self, capsys):
        code, out, err = run(capsys, "orbits", "ssyt", "--a", "3", "--b", "3",
                             "--k", "6", "--seed", "1,2;3,4")
        assert code == 2
        assert "1,2;3,4" in err
        assert "2 x 2" in err and "3 x 3" in err

    @pytest.mark.parametrize("argv, message", [
        (("orbits", "reversal-inversions", "--n", "3", "--seed", "1,x"),
         "seed must be a comma-separated permutation, e.g. 2,3,1"),
        (("orbits", "reversal-inversions", "--n", "3", "--seed", "1,1,2"),
         "seed must be a permutation of 1..3"),
        (("orbits", "suter", "--n", "3", "--seed", "2,1"),
         "(2, 1) is not in Y_3: parts must be positive ints, weakly decreasing, "
         "with λ1 + ℓ(λ) ≤ 3"),
        (("check", "ssyt", "--a", "3", "--b", "2", "--k", "2"),
         "no tableaux: ceiling 2 is below the number of rows 3"),
        (("orbits", "ssyt", "--a", "2", "--b", "2", "--k", "3", "--seed", "1,2;1,2"),
         "bad tableau seed: columns must strictly increase"),
        (("check", "ssyt", "--a", "2", "--b", "2", "--k", "4", "--stat", "cells:3,1"),
         "cell (3, 1) outside the 2 x 2 rectangle"),
        (("orbits", "ballot", "--a", "2", "--b", "2", "--seed", "+-+"),
         "word must have 2 minus letters and 2 plus letters"),
        (("check", "ssyt", "--a", "1", "--b", "1", "--k", "0"),
         "entry ceiling must be at least 1"),
    ], ids=["permutation-letter", "permutation-repeat", "suter-outside-Y_n",
            "ssyt-no-tableaux", "ssyt-bad-seed", "ssyt-cell-outside", "word-letter-count",
            "ssyt-ceiling-0"])
    def test_a_refused_input_prints_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


SAMPLE_SYSTEMS = [
    ("grid-promotion-antichains", "--a", "3", "--b", "2"),
    ("grid-promotion-ideals", "--a", "3", "--b", "2"),
    ("grid-rowmotion-antichains", "--a", "2", "--b", "3"),
    ("grid-rowmotion-ideals", "--a", "2", "--b", "3"),
    ("ballot", "--a", "2", "--b", "3"),
    ("cyclic-inversions", "--a", "2", "--b", "3"),
    ("reversal-inversions", "--n", "4"),
    ("suter", "--n", "5"),
    ("ssyt", "--a", "2", "--b", "2", "--k", "4"),
    ("sandpile",),
]


@pytest.mark.parametrize("system", SAMPLE_SYSTEMS, ids=lambda argv: argv[0])
def test_orbits_lists_the_orbits_that_check_reports(capsys, graph_file, system):
    argv = system + (("--graph", graph_file) if system[0] == "sandpile" else ())
    listings = {}
    for command in ("orbits", "check"):
        code, out, err = run(capsys, command, *argv, "--format", "json")
        assert code == 0
        listings[command] = json.loads(out)
    assert listings["orbits"]["orbits"] == listings["check"]["orbits"]
    assert "homomesic" not in listings["orbits"]


@pytest.mark.parametrize("system", SAMPLE_SYSTEMS, ids=lambda argv: argv[0])
def test_no_table_line_ends_in_a_space(capsys, graph_file, system):
    argv = system + (("--graph", graph_file) if system[0] == "sandpile" else ())
    for command in ("orbits", "check"):
        code, out, err = run(capsys, command, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line == line.rstrip() for line in lines), command


@pytest.mark.parametrize("system", SAMPLE_SYSTEMS, ids=lambda argv: argv[0])
def test_the_streamed_table_matches_the_list_based_one(graph_file, system):
    argv = ("check",) + system + (("--graph", graph_file) if system[0] == "sandpile" else ())
    bundle = build_bundle(build_parser().parse_args(argv))
    report = check_homomesy(bundle.tau, bundle.space, bundle.statistic)
    footer = ["homomesic: -"]
    assert (list(cli._orbit_table(bundle, report.orbit_summaries, footer))
            == list(reference_orbit_table(bundle, report.orbit_summaries, footer)))


def test_the_streamed_table_pads_each_column_to_its_widest_cell():
    # 100,000 orbits, a 7-digit period and vector averages of mixed widths:
    # every padded column is wider than its title
    shared = [(Fraction(1, 2), Fraction(0)), (Fraction(-123457, 3), Fraction(7)),
              (Fraction(5), Fraction(22, 7))]
    summaries = [OrbitSummary(i, 1_234_567 if i == 77 else i % 5 + 1, shared[i % 3])
                 for i in range(100_000)]
    summaries[5] = OrbitSummary(5, 3, (Fraction(-123457, 3), Fraction(7)))  # equal, not shared
    bundle = SimpleNamespace(system="made-up", map_name="none", space_doc={"states": 0},
                             statistic=Statistic("pair", 2, None), to_text=hex)
    lines = list(cli._orbit_table(bundle, summaries, ["end"]))
    assert lines == list(reference_orbit_table(bundle, summaries, ["end"]))
    assert lines[4] == "orbit   period   average         representative"
    assert lines[82] == "78      1234567  (5, 22/7)       0x4d"
    assert lines[-2] == "100000  5        (1/2, 0)        0x1869f"


# a parameter for each statistic prefix of the SAMPLE_SYSTEMS tables
PREFIX_PARAMS = {"weight:": "2,3", "cells:": "1,1;2,2"}


def sample_statistics(graph_file):
    """(argv, bundle) for every statistic of every SAMPLE_SYSTEMS table, a
    prefix with its PREFIX_PARAMS parameter."""
    for system in SAMPLE_SYSTEMS:
        argv = ("check",) + system + (("--graph", graph_file) if system[0] == "sandpile" else ())
        for key in build_bundle(build_parser().parse_args(argv)).stats:
            stat_argv = argv + ("--stat", key + PREFIX_PARAMS.get(key, ""))
            yield stat_argv, build_bundle(build_parser().parse_args(stat_argv))


def test_every_scalar_statistic_returns_bare_ints(graph_file):
    # so orbit_average's one pass over the value types accepts them at once
    scalar = 0
    for argv, bundle in sample_statistics(graph_file):
        if bundle.statistic.dimension == 1:
            scalar += 1
            assert {type(bundle.statistic.fn(s)) for s in bundle.space} == {int}, argv
    assert scalar == 11  # every statistic of the table but the sandpile firing vector


@pytest.fixture
def statistic_calls(monkeypatch):
    calls = []
    original = Statistic.__call__

    def counted(stat, state):
        calls.append(state)
        return original(stat, state)

    monkeypatch.setattr(Statistic, "__call__", counted)
    return calls


@pytest.fixture
def fn_calls(monkeypatch):
    """The states on which the CLI's check, orbits and subspace runs evaluate
    their statistic's fn, through Statistic.__call__ or not."""
    calls = []

    def counting(statistic):
        fn = statistic.fn

        def counted(state):
            calls.append(state)
            return fn(state)

        return replace(statistic, fn=counted)

    monkeypatch.setattr(cli, "check_homomesy", lambda tau, space, statistic, **kwargs:
                        check_homomesy(tau, space, counting(statistic), **kwargs))
    monkeypatch.setattr(cli, "summarize_orbits", lambda orbits, statistic:
                        summarize_orbits(orbits, counting(statistic)))
    monkeypatch.setattr(cli, "homomesic_subspace", lambda tau, space, statistic, *args:
                        homomesic_subspace(tau, space, counting(statistic), *args))
    return calls


SUBSPACE_RUNS = [
    ("subspace", "grid-rowmotion-ideals", "--a", "3", "--b", "3"),
    ("subspace", "grid-promotion-antichains", "--a", "2", "--b", "4"),
]
SEED = "-+-+"
SEEDED_RUN = ("orbits", "ballot", "--a", "2", "--b", "2", f"--seed={SEED}")


def runs_of(command, graph_file):
    """argv of the command's whole-space runs: every statistic of the
    SAMPLE_SYSTEMS tables under 'check' or 'orbits', SUBSPACE_RUNS for
    'subspace'."""
    if command == "subspace":
        return SUBSPACE_RUNS
    return [(command, *argv[1:]) for argv, bundle in sample_statistics(graph_file)]


@pytest.mark.parametrize("command", ["check", "orbits", "subspace"])
def test_fn_runs_once_per_state_and_the_checked_call_on_the_first_orbit(
        capsys, graph_file, statistic_calls, fn_calls, command):
    # scalar or vector, fn runs once on every state and each value is
    # checked; Statistic.__call__ runs on the states of the first orbit of
    # the walk, which starts at the first state of the space, and only there
    for argv in runs_of(command, graph_file):
        bundle = build_bundle(build_parser().parse_args(argv))
        statistic_calls.clear()
        fn_calls.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0, argv
        assert sorted(fn_calls) == sorted(bundle.space), argv
        assert statistic_calls == list(iterate_orbit(bundle.tau, bundle.space[0])), argv
    if command == "orbits":
        bundle = build_bundle(build_parser().parse_args(SEEDED_RUN))
        statistic_calls.clear()
        fn_calls.clear()
        assert run(capsys, *SEEDED_RUN)[0] == 0
        orbit = iterate_orbit(bundle.tau, bundle.parse_seed(SEED))
        assert fn_calls == statistic_calls == list(orbit)


@pytest.mark.parametrize("command", ["check", "orbits", "subspace"])
def test_no_run_builds_the_orbit_list(capsys, graph_file, monkeypatch, command):
    # every command walks the space orbit by orbit; orbit_partition is a
    # library call only
    def refuse(*args, **kwargs):
        raise AssertionError("orbit_partition ran")

    monkeypatch.setattr(engine, "orbit_partition", refuse)
    for argv in runs_of(command, graph_file) + ([SEEDED_RUN] if command == "orbits" else []):
        assert run(capsys, *argv)[0] == 0, argv


FLAG_VALUES = {"a": "2", "b": "2", "n": "3", "k": "3", "graph": None}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_system_rejects_the_flags_it_does_not_read(capsys, graph_file, system):
    listed = [flag.split()[0] for flag in SYSTEMS[system][0]]
    values = dict(FLAG_VALUES, graph=graph_file)
    given = [arg for name in listed for arg in ("--" + name, values[name])]
    extras = [name for name in FLAG_VALUES if name not in listed]
    assert extras
    for name in extras:
        for command in ("check", "orbits"):
            code, out, err = run(capsys, command, system, *given, "--" + name, values[name])
            assert code == 2 and out == "", (command, name)
            assert err == f"error: system {system!r} takes no --{name}\n"


def test_sample_systems_cover_the_table():
    # lyness follows one seeded orbit and has no bundle
    assert {argv[0] for argv in SAMPLE_SYSTEMS} == set(SYSTEMS) - {"lyness"}


@pytest.mark.parametrize("system", SAMPLE_SYSTEMS, ids=lambda argv: argv[0])
def test_every_statistic_of_the_table_exits_cleanly(capsys, graph_file, system):
    argv = ("check",) + system + (("--graph", graph_file) if system[0] == "sandpile" else ())
    stats = build_bundle(build_parser().parse_args(argv)).stats
    for key in stats:
        # a prefix key alone is the prefix with an empty parameter
        code, out, err = run(capsys, *argv, "--stat", key)
        assert code == (2 if key.endswith(":") else 0), key
        assert "Traceback" not in err


class TestLyness:
    def test_default_seed(self, capsys):
        code, out, err = run(capsys, "check", "lyness")
        assert code == 0
        assert "period 5" in out
        assert "product of |h(x)| over the orbit: 1" in out

    def test_custom_seed_json(self, capsys):
        code, out, err = run(capsys, "check", "lyness", "--seed", "5/3,2/3",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["homomesic"] is True
        assert doc["c"] == "0"
        assert doc["orbits"][0]["abs-h-product"] == "1"
        assert len(doc["orbits"][0]["states"]) == 5

    def test_expectation(self, capsys):
        code, out, err = run(capsys, "check", "lyness", "--expect-c", "0")
        assert code == 0
        code, out, err = run(capsys, "check", "lyness", "--expect-c", "1")
        assert code == 4

    def test_negative_seed_in_the_equals_form(self, capsys):
        code, out, err = run(capsys, "check", "lyness", "--seed=-1/2,3")
        assert code == 0
        assert "homomesic: yes" in out

    def test_invalid_seed(self, capsys):
        code, out, err = run(capsys, "check", "lyness", "--seed", "0,3")
        assert code == 2
        code, out, err = run(capsys, "check", "lyness", "--seed", "1,2,3")
        assert code == 2

    def test_orbits_json_leaves_the_verdict_to_check(self, capsys):
        code, out, err = run(capsys, "orbits", "lyness", "--seed", "5/3,2/3",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "homomesic" not in doc and "c" not in doc
        assert doc["orbits"][0]["abs-h-product"] == "1"

    def test_orbits_subcommand(self, capsys):
        code, out, err = run(capsys, "orbits", "lyness", "--seed", "2,2",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "y", "abs_h_of_x"]
        assert len(rows) == 6

    @pytest.mark.parametrize("command", ["check", "orbits"])
    def test_stat_is_refused(self, capsys, command):
        code, out, err = run(capsys, command, "lyness", "--stat", "foo")
        assert (code, out, err) == (2, "", "error: system 'lyness' takes no --stat\n")

    def test_orbits_rejects_expect_c(self, capsys):
        code, out, err = run(capsys, "orbits", "lyness", "--expect-c", "0")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["check", "orbits"])
    @pytest.mark.parametrize("guard", [1, 4])
    def test_a_guard_below_the_period_is_refused(self, capsys, monkeypatch, command, guard):
        # every Lyness orbit takes five steps; the refusal comes before the walk
        def refuse(*args, **kwargs):
            raise AssertionError("the orbit walk ran")

        monkeypatch.setattr(cli, "lyness_cycle", refuse)
        code, out, err = run(capsys, command, "lyness", "--guard", str(guard))
        assert (code, out) == (3, "")
        assert err == f"guard exceeded: orbit did not close within {guard} steps\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_a_guard_of_the_period_prints_the_golden_output(self, capsys, fmt):
        golden = Path(__file__).resolve().parent / "golden" / f"check-lyness-seed.{fmt}"
        code, out, err = run(capsys, "check", "lyness", "--seed", "5/3,2/3",
                             "--guard", str(lyness.LYNESS_ORDER), "--format", fmt)
        with open(golden, encoding="utf-8", newline="") as expected:
            assert (code, out, err) == (0, expected.read(), "")


class TestSubspace:
    def test_2_by_2_rowmotion_ideals(self, capsys):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 3
        assert doc["element_order"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert doc["basis"] == [["0", "1", "0", "0"],
                                ["0", "0", "1", "0"],
                                ["1", "0", "0", "1"]]
        assert all(g["present"] for g in doc["generators"])
        names = {g["name"] for g in doc["generators"]}
        assert "file-sum[0]" in names
        assert "opposite-sum[(1, 1)+(2, 2)]" in names

    def test_antichain_generators(self, capsys):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-antichains",
                             "--a", "2", "--b", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        names = {g["name"] for g in doc["generators"]}
        assert "fiber-sum[k=1]" in names and "fiber-sum[l=3]" in names
        assert any(name.startswith("opposite-difference") for name in names)
        assert all(g["present"] for g in doc["generators"])

    def test_table_output(self, capsys):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2")
        assert code == 0
        assert "dimension: 3" in out
        assert "ABSENT" not in out

    def test_grid_systems_only(self, capsys):
        code, out, err = run(capsys, "subspace", "suter", "--n", "4")
        assert code == 2
        assert "grid systems" in err

    def test_expect_c_rejected(self, capsys):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--expect-c", "1")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "[[1,1]]"), ("--stat", "ideal-size")])
    def test_seed_and_stat_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", flag, value)
        assert code == 2
        assert out == ""
        assert "whole space" in err and flag in err

    def test_csv_basis(self, capsys):
        code, out, err = run(capsys, "subspace", "grid-rowmotion-ideals",
                             "--a", "2", "--b", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["1,1", "1,2", "2,1", "2,2"]
        assert len(rows) == 4


GRID_MAPS = {
    "grid-rowmotion-ideals": (rowmotion_ideal, True),
    "grid-promotion-ideals": (promotion_ideal, True),
    "grid-rowmotion-antichains": (rowmotion_antichain, False),
    "grid-promotion-antichains": (promotion_antichain, False),
}


def paper_generators(poset, on_ideals):
    """The named generators, as {name: coefficients by element}."""
    pairs = [(x, poset.opposite(x)) for x in poset.elements]
    if on_ideals:
        gens = {f"file-sum[{f}]": Counter(x for x in poset.elements
                                          if x[1] - x[0] == f)
                for f in range(1 - poset.a, poset.b)}
        gens.update({f"opposite-sum[{x}+{y}]": Counter([x, y])
                     for x, y in pairs if x <= y})
        return gens
    gens = {f"fiber-sum[k={k}]": Counter(x for x in poset.elements if x[0] == k)
            for k in range(1, poset.a + 1)}
    gens.update({f"fiber-sum[l={l}]": Counter(x for x in poset.elements if x[1] == l)
                 for l in range(1, poset.b + 1)})
    gens.update({f"opposite-difference[{x}-{y}]": Counter({x: 1, y: -1})
                 for x, y in pairs if x < y})
    return gens


def flags_from_orbit_averages(system, a, b):
    """A generator is present when its dot product with the orbit averages of
    the element indicators is the same on every orbit."""
    tau_of, on_ideals = GRID_MAPS[system]
    poset = GridPoset(a, b)
    space = poset.enumerate_order_ideals() if on_ideals else poset.enumerate_antichains()
    orbits = orbit_partition(lambda s: tau_of(poset, s), space)
    indicators = {
        x: Statistic.scalar(str(x), (lambda i: lambda s: s >> i & 1)(poset.index[x]))
        for x in poset.elements
    }
    averages = [{x: orbit_average(stat, o)[0] for x, stat in indicators.items()}
                for o in orbits]
    return {
        name: len({sum(c * row[x] for x, c in coeffs.items()) for row in averages}) == 1
        for name, coeffs in paper_generators(poset, on_ideals).items()
    }


@pytest.mark.parametrize("system", sorted(GRID_MAPS))
def test_generator_flags_match_the_orbit_averages(capsys, system):
    absent = {}
    for a in range(1, 5):
        for b in range(1, 5):
            code, out, err = run(capsys, "subspace", system, "--a", str(a),
                                 "--b", str(b), "--format", "json")
            assert code == 0
            reported = {g["name"]: g["present"] for g in json.loads(out)["generators"]}
            expected = flags_from_orbit_averages(system, a, b)
            assert reported == expected, (a, b)
            absent[a, b] = sum(not ok for ok in expected.values())
    if system == "grid-promotion-antichains":
        assert absent[3, 4] == 10
    else:
        assert not any(absent.values())


def test_a_reader_that_stops_early_gets_no_traceback():
    # the JSON listing (about 420 KB) outgrows the pipe, so the child is still
    # writing when the reader closes after three lines
    src = str(Path(homomesy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "homomesy.cli", "check", "reversal-inversions",
            "--n", "7", "--format", "json", "--expect-c", "0"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert head[0] == b"{\n"
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert code == 4  # the listing was cut short, but the verdict still counts
    assert "expectation failed" in err


# a small pool per flag: in-range and out-of-range sizes and guards, and
# seeds, statistics and constants both well formed and malformed
FUZZ_VALUES = {
    "--a": ("-1", "0", "1", "2", "3", "4", "x"),
    "--b": ("0", "1", "2", "3", "4", "2.5"),
    "--n": ("-2", "0", "1", "3", "4"),
    "--k": ("0", "1", "3", "4"),
    "--guard": ("0", "1", "7", "200"),
    "--expect-c": ("0", "3/2", "1/0", "1,2", "x", "0.5", ""),
    "--seed": ("", "[]", "[[1,1]]", "[[1,2],[2,1]]", "[[9,9]]", "+-+-", "+++",
               "2,3,1", "1,1", "5/3,2/3", "0,3", "1,0,1", "1,1;2,2", "x", "-1"),
    "--stat": ("", "nope", "ideal-size", "weight:", "weight:1,3", "cells:",
               "cells:1,1;2,2", "cells:3,1", "x:1"),
    "--format": ("table", "json", "csv", "xml"),
}


@pytest.fixture(scope="module")
def fuzz_graphs(tmp_path_factory):
    """A good graph file, a missing one and a directory, as --graph values."""
    root = tmp_path_factory.mktemp("graphs")
    (root / "cycle4.graph").write_text(CYCLE4)
    return tuple(str(root / name) for name in ("cycle4.graph", "missing.graph", ""))


# 14 examples for each of the 11 systems, about 150 in all
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@settings(max_examples=14, deadline=None)
@given(data=st.data())
def test_no_argv_escapes_as_a_traceback(fuzz_graphs, system, data):
    pools = dict(FUZZ_VALUES, **{"--graph": fuzz_graphs})
    argv = [data.draw(st.sampled_from(("check", "orbits", "subspace"))), system]
    # the system's size flags, then up to 5 more, mostly ones it reads, so
    # that most runs get past the flag checks
    sizes = ["--" + flag.split()[0] for flag in SYSTEMS[system][0]]
    common = ["--guard", "--expect-c", "--seed", "--stat", "--format"]
    flag = st.one_of(*[st.sampled_from(common)] * 5, st.sampled_from(sorted(pools)))
    for name in sizes + data.draw(st.lists(flag, max_size=5, unique=True)):
        argv += [name, data.draw(st.sampled_from(pools[name]))]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv itself
            code = ("argparse", exc.code)
    # exit 5 (an internal error) would be a fault in the program, so no argv may reach it
    assert code in (0, 2, 3, 4, ("argparse", 2)), argv
