"""Every shipped recipe's `dmimo analyze` output, pinned cell by cell.

`tests/data/analyze/<recipe>.csv` holds the output of

    dmimo analyze --experiment recipes/<recipe>.json --out <recipe>.csv

Text cells must match exactly, and number cells to 1e-10 relative, so a
change of numpy or BLAS that moves a last digit does not fail the suite.

When a change alters the results on purpose, regenerate the files from
the root of the checkout with

    for r in recipes/*.json; do
        PYTHONPATH=src python -m dmimo.cli analyze --experiment "$r" \\
            --out tests/data/analyze/$(basename "$r" .json).csv
    done

and explain the changed cells where the change is recorded.
"""

import csv
import math
from pathlib import Path

import pytest

from dmimo.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECIPES = sorted((ROOT / "recipes").glob("*.json"))
EXPECTED = Path(__file__).resolve().parent / "data" / "analyze"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def test_every_recipe_is_pinned():
    assert len(RECIPES) == 8
    assert sorted(p.stem for p in EXPECTED.glob("*.csv")) == \
        [p.stem for p in RECIPES]


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda p: p.stem)
def test_analyze_matches_pinned_csv(recipe, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["analyze", "--experiment", str(recipe),
                 "--out", str(out)]) == 0
    got, want = _rows(out), _rows(EXPECTED / f"{recipe.stem}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (g_row, w_row) in enumerate(zip(got, want), start=1):
        assert len(g_row) == len(w_row), f"line {line}"
        for column, g, w in zip(want[0], g_row, w_row):
            where = f"line {line}, column {column}"
            g_num, w_num = _number(g), _number(w)
            if g_num is None or w_num is None:
                assert g == w, where
            else:
                assert math.isclose(g_num, w_num, rel_tol=1e-10), where
