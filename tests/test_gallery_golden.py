"""The gallery systems' exact output, pinned byte for byte.

Each run's stdout in table, json and csv is compared with a file under
tests/golden, named after the run and its format. The files were written
while HomomesyReport.document still laid out the check/orbits JSON, so
they hold the CLI's own JSON writer to the layout it replaced; the
sandpile runs pin a vector c. The sandpile graph is the README's
bidirected 4-cycle, written to a temporary file. Regenerate a file only
for a change that means to alter the output:

    PYTHONPATH=src python -m homomesy.cli check suter --n 5 \\
        --format csv > tests/golden/check-suter-5.csv
"""
from pathlib import Path

import pytest

from homomesy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CYCLE4 = "1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\nsink 4\nsource 2\n"

RUNS = {
    "check-reversal-inversions-4": ["check", "reversal-inversions", "--n", "4"],
    "orbits-reversal-inversions-4-seed": ["orbits", "reversal-inversions", "--n", "4",
                                          "--seed", "2,3,1,4"],
    "check-suter-5": ["check", "suter", "--n", "5"],
    "check-suter-5-weight-2-3": ["check", "suter", "--n", "5", "--stat", "weight:2,3"],
    "orbits-suter-5-seed": ["orbits", "suter", "--n", "5", "--seed", "2,1"],
    "check-ssyt-2-2-4": ["check", "ssyt", "--a", "2", "--b", "2", "--k", "4"],
    "check-ssyt-2-3-4-cells": ["check", "ssyt", "--a", "2", "--b", "3", "--k", "4",
                               "--stat", "cells:1,1;2,3"],
    "orbits-ssyt-2-2-3-seed": ["orbits", "ssyt", "--a", "2", "--b", "2", "--k", "3",
                               "--seed", "1,1;2,2"],
    "check-sandpile-cycle4": ["check", "sandpile"],
    "orbits-sandpile-cycle4-seed": ["orbits", "sandpile", "--seed", "1,0,1"],
    "check-lyness-seed": ["check", "lyness", "--seed", "5/3,2/3"],
    "subspace-grid-rowmotion-ideals-2-3": ["subspace", "grid-rowmotion-ideals",
                                           "--a", "2", "--b", "3"],
}


def argv(name, tmp_path):
    if "sandpile" not in name:
        return RUNS[name]
    graph = tmp_path / "cycle4.sg"
    graph.write_text(CYCLE4)
    return RUNS[name] + ["--graph", str(graph)]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_gallery_run_prints_its_golden_output(capsys, tmp_path, name, fmt):
    assert main(argv(name, tmp_path) + ["--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # csv.writer ends rows with \r\n; newline="" keeps them as written
    with open(GOLDEN / f"{name}.{fmt}", encoding="utf-8", newline="") as golden:
        assert out == golden.read()
