"""Every shipped recipe's `dmimo analyze` output, pinned cell by cell,
and every recipe and demo run clean with warnings raised as errors.

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

No recipe has M or N above 2, so `tests/data/analytic_array_seed1.csv`
pins, by the same cell rule, `dmimo analyze` on an array document at
M = N = 8, K = 64, `tests/data/analytic_array_seed1.json`, which is the
benchmark's analytic_array document at seed 1, written once with

    python -c "import sys; sys.path.insert(0, 'benchmark'); \\
        import workloads as w; sys.stdout.buffer.write( \\
        w.experiment_bytes(w.generate('analytic_array', 1)))" \\
        > tests/data/analytic_array_seed1.json

and its CSV regenerates as a recipe's does.

Two Monte Carlo outputs and one CAF output are pinned byte for byte:
`tests/data/simulate/<recipe>.csv` holds

    dmimo simulate --experiment recipes/<recipe>.json --trials 8192 \
        --out <recipe>.csv

at the recipe's own seed, for `delay_offset_benchmark` (its co-located
pairs draw one-coordinate Swerling I blocks) and `doppler_errors` (its
pairs draw the shared coordinate outside the spans), and
`tests/data/caf/snr_offset_single_band.csv` holds

    dmimo caf --experiment recipes/snr_offset_single_band.json \
        --points 41 --out snr_offset_single_band.csv

whose up/down chirp pair takes the Fresnel form of the CAF.
"""

import csv
import math
import runpy
import warnings
from pathlib import Path

import pytest

from dmimo.cli import main
from dmimo.experiments import load_experiment

ROOT = Path(__file__).resolve().parent.parent
RECIPES = sorted((ROOT / "recipes").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = Path(__file__).resolve().parent / "data"
EXPECTED = DATA / "analyze"
ARRAY = DATA / "analytic_array_seed1"


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


def _analyze_matches(experiment, pinned, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["analyze", "--experiment", str(experiment),
                 "--out", str(out)]) == 0
    got, want = _rows(out), _rows(pinned)
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


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda p: p.stem)
def test_analyze_matches_pinned_csv(recipe, tmp_path):
    _analyze_matches(recipe, EXPECTED / f"{recipe.stem}.csv", tmp_path)


def test_analyze_matches_pinned_array_csv(tmp_path):
    # per-receiver span bases, HD of order N M^2 = 512 and Marcum-Q at
    # order 4096, at the paper's array scale
    _analyze_matches(ARRAY.with_suffix(".json"), ARRAY.with_suffix(".csv"),
                     tmp_path)


@pytest.mark.parametrize("command, recipe, flag, value", [
    ("simulate", "delay_offset_benchmark", "--trials", "8192"),
    ("simulate", "doppler_errors", "--trials", "8192"),
    ("caf", "snr_offset_single_band", "--points", "41")])
def test_output_matches_pinned_bytes(command, recipe, flag, value, tmp_path):
    out = tmp_path / "out.csv"
    assert main([command, "--experiment",
                 str(ROOT / "recipes" / f"{recipe}.json"), flag, value,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / command / f"{recipe}.csv").read_bytes()


def test_every_recipe_and_demo_runs_clean(tmp_path):
    # any warning, numpy's RuntimeWarning among them, raises: analyze and
    # caf exit 0 on every recipe, simulate 0 or 1 (a row outside its
    # confidence gate), and each demo runs to its end.  analyze and
    # simulate write a row per sweep point, system and detector.
    assert len(RECIPES) == 8 and len(DEMOS) == 4
    out = str(tmp_path / "out.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for recipe in RECIPES:
            spec = load_experiment(recipe)
            rows = 1 + len(spec.sweep_values) * len(spec.detectors) * (
                1 + spec.colocated_benchmark)
            io = ["--experiment", str(recipe), "--out", out]
            assert main(["analyze", *io]) == 0, recipe.stem
            assert len(_rows(out)) == rows, recipe.stem
            assert main(["caf", *io]) == 0, recipe.stem
            assert main(["simulate", *io, "--trials", "8193"]) in (0, 1), \
                recipe.stem
            assert len(_rows(out)) == rows, recipe.stem
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
