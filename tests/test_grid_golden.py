"""The grid systems' exact output, pinned byte for byte.

Each run's stdout in table, json and csv is compared with a file under
tests/golden, named after the run and its format. The files were written
before the table and CSV rendered a grid state from cached row fragments
(GridPoset.state_text), so they hold that codec to the json.dumps text it
replaced. Promotion on antichains is not homomesic, so its verdict lines
are pinned too. Regenerate a file only for a change that means to alter
the output:

    PYTHONPATH=src python -m homomesy.cli check grid-rowmotion-ideals --a 3 --b 4 \\
        --format csv > tests/golden/check-grid-rowmotion-ideals-3-4.csv
"""
from pathlib import Path

import pytest

from homomesy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SYSTEMS = ("rowmotion-ideals", "rowmotion-antichains", "promotion-ideals",
           "promotion-antichains")
RUNS = {f"check-grid-{system}-3-4": ["check", f"grid-{system}", "--a", "3", "--b", "4"]
        for system in SYSTEMS}
RUNS["orbits-grid-rowmotion-ideals-3-3-seed"] = [
    "orbits", "grid-rowmotion-ideals", "--a", "3", "--b", "3", "--seed", "[[2,2]]"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_grid_run_prints_its_golden_output(capsys, name, fmt):
    assert main(RUNS[name] + ["--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # csv.writer ends rows with \r\n; newline="" keeps them as written
    with open(GOLDEN / f"{name}.{fmt}", encoding="utf-8", newline="") as golden:
        assert out == golden.read()

