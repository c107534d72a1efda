"""The word systems' exact output, pinned byte for byte.

Each run's stdout in table, json and csv is compared with a file under
tests/golden, named after the run and its format, and a refused seed's
stderr and exit code are pinned too. The files were written by the tuple
word format this package used before a +/- word became an int, so they
hold the two formats to the same output. Regenerate a file only for a
change that means to alter the output:

    PYTHONPATH=src python -m homomesy.cli check ballot --a 3 --b 4 \\
        --format csv > tests/golden/check-ballot-3-4.csv
"""
from pathlib import Path

import pytest

from homomesy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "check-ballot-3-4": ["check", "ballot", "--a", "3", "--b", "4"],
    "check-cyclic-inversions-3-3": ["check", "cyclic-inversions", "--a", "3", "--b", "3"],
    "orbits-ballot-2-2-seed": ["orbits", "ballot", "--a", "2", "--b", "2", "--seed=-+-+"],
    "orbits-cyclic-inversions-2-2-seed": ["orbits", "cyclic-inversions", "--a", "2",
                                          "--b", "2", "--seed", "0101"],
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_word_run_prints_its_golden_output(capsys, name, fmt):
    assert main(RUNS[name] + ["--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # csv.writer ends rows with \r\n; newline="" keeps them as written
    with open(GOLDEN / f"{name}.{fmt}", encoding="utf-8", newline="") as golden:
        assert out == golden.read()


def test_a_bad_word_letter_is_refused_with_its_golden_message(capsys):
    code = main(["orbits", "ballot", "--a", "2", "--b", "2", "--seed=+x-+"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: unexpected letter 'x' in word '+x-+'\n")
