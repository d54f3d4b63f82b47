import csv
import io
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
REFERENCE = Path(checks.__file__).resolve().parent / "reference"
CASES = [(name, workloads.WORKLOADS[name][0]) for name in
         sorted(workloads.WORKLOADS)]


def _reference(name):
    return (REFERENCE / f"{name}.csv").read_text()


def _edit(text, fn):
    """Apply fn(row) to every non-error row of a CSV text."""
    header, rows = checks.parse_csv(text)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        if not row["error"]:
            fn(row)
        w.writerow([row[c] for c in header])
    return out.getvalue()


def _statuses(text, name, sub):
    doc = workloads.generate(name, workloads.DEFAULT_SEED)
    results, _ = checks.check_csv(text, doc, sub)
    return [r.status for r in results]


@pytest.mark.parametrize("name,sub", CASES)
def test_reference_output_passes(name, sub):
    statuses = _statuses(_reference(name), name, sub)
    assert "failed" not in statuses
    assert len(statuses) == checks.expected_rows(
        workloads.generate(name, workloads.DEFAULT_SEED))
    if name == "mc_reference":
        # the co-located HD rows are error rows (rank-deficient steering)
        assert statuses.count("error") == len(statuses) // 8


@pytest.mark.parametrize("name,sub", CASES)
def test_one_percent_pd_bias_is_flagged(name, sub):
    def bias(row):
        row["pd_analytic"] = repr(min(1.0, 1.01 * float(row["pd_analytic"])))
    statuses = _statuses(_edit(_reference(name), bias), name, sub)
    assert "failed" in statuses


@pytest.mark.parametrize("name,sub", CASES)
def test_wrong_gamma_is_flagged(name, sub):
    def shift(row):
        row["gamma"] = repr(float(row["gamma"]) * 1.001)
    statuses = _statuses(_edit(_reference(name), shift), name, sub)
    assert "failed" in statuses and "ok" not in statuses


def _resample(text, scale, seed):
    """Replace pd_empirical by a Binomial(n, scale * pd_analytic) draw."""
    rng = np.random.default_rng(seed)

    def draw(row):
        n = int(row["trials"])
        p = min(1.0, scale * float(row["pd_analytic"]))
        row["pd_empirical"] = repr(rng.binomial(n, p) / n)
    return _edit(text, draw)


def test_score_test_flags_biased_simulation():
    text = _resample(_reference("mc_reference"), 1.01, seed=5)
    assert "failed" in _statuses(text, "mc_reference", "simulate")


@pytest.mark.parametrize("seed", range(5))
def test_score_test_passes_exact_simulation(seed):
    text = _resample(_reference("mc_reference"), 1.0, seed=seed)
    assert "failed" not in _statuses(text, "mc_reference", "simulate")


def test_short_csv_counts_missing_rows():
    text = _reference("analytic_wideband")
    short = "\n".join(text.splitlines()[:-2]) + "\n"
    doc = workloads.generate("analytic_wideband", workloads.DEFAULT_SEED)
    results, notes = checks.check_csv(short, doc, "analyze")
    assert len(results) == checks.expected_rows(doc)
    assert [r.status for r in results].count("failed") == 2
    assert notes["rows_written"] == checks.expected_rows(doc) - 2


def test_holm_step_down():
    assert checks.holm_reject([0.001, 0.04, 0.3], 0.05) == [0]
    assert sorted(checks.holm_reject([0.01, 0.02, 0.03], 0.1)) == [0, 1, 2]
    assert checks.holm_reject([0.5, 0.6], 0.05) == []


def test_binomial_p_value_edges():
    assert checks.binomial_p_value(0, 100, 0.0) == 1.0
    assert checks.binomial_p_value(1, 100, 0.0) == 0.0
    assert checks.binomial_p_value(100, 100, 1.0) == 1.0
    assert checks.binomial_p_value(50, 100, 0.5) == 1.0
    assert checks.binomial_p_value(90, 100, 0.5) < 1e-10


@pytest.mark.parametrize("name,sub", CASES)
def test_reference_comparison(name, sub):
    ref = _reference(name)
    assert checks.compare_reference(ref, ref, sub) == []

    def nudge(row):
        row["lambda"] = repr(float(row["lambda"]) * (1 + 1e-4))
    assert checks.compare_reference(_edit(ref, nudge), ref, sub)
    if sub == "simulate":
        # Monte Carlo columns are not compared
        moved = _resample(ref, 1.0, seed=1)
        assert checks.compare_reference(moved, ref, sub) == []
