"""End-to-end tests of the command line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dmimo
from dmimo import cli, detectors, scene
from dmimo.cli import main

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def base_doc(**over):
    doc = {
        "scenario": {"waveform_set": "multi_band"},
        "sweep": {"variable": "snr_db", "start": -4.0, "stop": 4.0,
                  "points": 3},
        "pfa_target": 1e-4,
    }
    doc.update(over)
    return doc


def negative_delay_estimate_doc():
    # tau_2 is 0.10 pulse widths (1 us); dt = -2 us puts tau_2 + dt below 0
    doc = base_doc(detectors=["NCD", "CD"], trials=100)
    doc["sweep"]["points"] = 2
    doc["errors"] = {"dt_s": [[0.0], [-2e-6]]}
    return doc


class TestThresholdCommand:
    def test_acd_closed_form(self, capsys):
        rc = main(["threshold", "--detector", "ACD", "--pfa", "1e-4",
                   "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"])
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(24 * math.log(1e4), rel=1e-10)

    def test_ncd_matches_inverse_gamma(self, capsys):
        from dmimo.specfun import inv_reg_upper_gamma
        rc = main(["threshold", "--detector", "NCD", "--pfa", "1e-4",
                   "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1",
                   "--sigma2", "2.0"])
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(2.0 * inv_reg_upper_gamma(24, 1e-4),
                                    rel=1e-10)

    def test_degenerate_pfa_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["threshold", "--detector", "NCD", "--pfa", "1.0",
                  "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"])

    @pytest.mark.parametrize("flags", [
        ["--sigma2", "-1"], ["--sigma2", "0"], ["--sigma2", "nan"],
        ["--varsigma", "-3"], ["--pfa", "0"], ["--pfa", "1.5"],
        ["--k-pulses", "0"], ["--m-tx", "-2"], ["--n-rx", "0"],
        ["--pfa", "1e-320"]])
    def test_bad_flag_is_usage_error(self, capsys, flags):
        args = {"--detector": "CD", "--pfa": "1e-4", "--k-pulses": "12",
                "--m-tx": "2", "--n-rx": "1", "--varsigma": "8"}
        args[flags[0]] = flags[1]
        with pytest.raises(SystemExit) as exc:
            main(["threshold"] + [t for kv in args.items() for t in kv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert "error: " in last and flags[0] in last

    def test_overflowing_scale_is_an_error(self, capsys):
        # c = varsigma sigma^2 = 1e318 overflows a double
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", "CD", "--pfa", "1e-3",
                  "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1",
                  "--varsigma", "1e308", "--sigma2", "1e10"])
        assert str(exc.value.code).startswith("error: ")
        assert capsys.readouterr().out == ""


class TestCafCommand:
    def test_multi_band_orthogonality_row(self, tmp_path):
        exp = write_doc(tmp_path, base_doc())
        out = tmp_path / "caf.csv"
        assert main(["caf", "--experiment", exp, "--out", str(out),
                     "--points", "41"]) == 0
        rows = read_csv(out)

        def at_origin(m, mb):
            sub = [r for r in rows if r["m"] == m and r["mbar"] == mb]
            best = min(sub, key=lambda r: abs(float(r["nu_over_tp"])))
            assert abs(float(best["nu_over_tp"])) < 1e-12
            return float(best["abs"])

        assert at_origin("1", "1") == pytest.approx(1.0, abs=1e-9)
        assert at_origin("2", "2") == pytest.approx(1.0, abs=1e-9)
        assert at_origin("1", "2") < 1e-9

    def test_single_band_cross_dominates(self, tmp_path):
        multi = write_doc(tmp_path, base_doc(), "m.json")
        sb_doc = base_doc()
        sb_doc["scenario"]["waveform_set"] = "single_band"
        single = write_doc(tmp_path, sb_doc, "s.json")
        vals = {}
        for tag, exp in (("multi", multi), ("single", single)):
            out = tmp_path / f"{tag}.csv"
            main(["caf", "--experiment", exp, "--out", str(out),
                  "--points", "21"])
            rows = [r for r in read_csv(out)
                    if r["m"] == "1" and r["mbar"] == "2"]
            best = min(rows, key=lambda r: abs(float(r["nu_over_tp"])))
            vals[tag] = float(best["abs"])
        assert vals["single"] > 100 * vals["multi"]

    def test_empty_out_is_usage_error(self, tmp_path):
        exp = write_doc(tmp_path, base_doc())
        with pytest.raises(SystemExit):
            main(["caf", "--experiment", exp, "--out", ""])

    @pytest.mark.parametrize("points", ["0", "1", "-5"])
    def test_too_few_points_is_usage_error(self, tmp_path, capsys, points):
        exp = write_doc(tmp_path, base_doc())
        out = tmp_path / "caf.csv"
        with pytest.raises(SystemExit) as exc:
            main(["caf", "--experiment", exp, "--out", str(out),
                  "--points", points])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()


def test_unwritable_out_is_one_line_error(tmp_path):
    # a fresh interpreter, so the exit status and stderr are the user's
    exp = write_doc(tmp_path, base_doc())
    out = tmp_path / "missing" / "a.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(dmimo.__file__).parents[1]))
    for cmd in ("caf", "analyze"):
        proc = subprocess.run(
            [sys.executable, "-m", "dmimo.cli", cmd, "--experiment", exp,
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and str(out) in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cmd, work", [
    ("simulate", "run_sweep"), ("analyze", "analyze_detector"),
    ("caf", "caf")])
def test_unwritable_out_fails_before_any_row(tmp_path, monkeypatch, cmd,
                                             work):
    def never(*args, **kwargs):
        pytest.fail(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, never)
    exp = write_doc(tmp_path, base_doc())
    out = tmp_path / "missing" / "a.csv"
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--experiment", exp, "--out", str(out)])
    # a string code is printed to stderr as one line, with exit status 1
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith("error: cannot write")
    assert "\n" not in msg and str(out) in msg


class TestAnalyzeCommand:
    def test_row_layout_and_order(self, tmp_path):
        exp = write_doc(tmp_path, base_doc(detectors=["NCD", "CD"]))
        out = tmp_path / "a.csv"
        assert main(["analyze", "--experiment", exp, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3 * 2
        assert [r["detector"] for r in rows[:2]] == ["NCD", "CD"]
        assert [r["sweep_value"] for r in rows[::2]] == ["-4", "0", "4"]
        assert all(r["error"] == "" for r in rows)
        assert rows[1]["varsigma"] != ""

    def test_degenerate_sweep_identical_rows(self, tmp_path):
        doc = base_doc(sweep={"variable": "snr_db", "start": 1.0,
                              "stop": 1.0, "points": 2})
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "a.csv"
        main(["analyze", "--experiment", exp, "--out", str(out)])
        rows = read_csv(out)
        half = len(rows) // 2
        assert rows[:half] == rows[half:]

    def test_hd_k_below_m_row_error_run_continues(self, tmp_path):
        doc = base_doc(detectors=["NCD", "HD"])
        doc["scenario"]["k_pulses"] = 1
        doc["scenario"]["tau_s"] = [[0.61e-5], [0.1e-5]]
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "a.csv"
        assert main(["analyze", "--experiment", exp, "--out", str(out)]) == 0
        rows = read_csv(out)
        hd = [r for r in rows if r["detector"] == "HD"]
        ncd = [r for r in rows if r["detector"] == "NCD"]
        assert all("K >= M" in r["error"] for r in hd)
        assert all(r["error"] == "" and r["pd_analytic"] != "" for r in ncd)

    def test_colocated_rows_present(self, tmp_path):
        doc = base_doc(colocated_benchmark=True)
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "a.csv"
        main(["analyze", "--experiment", exp, "--out", str(out)])
        systems = {r["system"] for r in read_csv(out)}
        assert systems == {"distributed", "colocated"}

    def test_byte_determinism(self, tmp_path):
        exp = write_doc(tmp_path, base_doc())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["analyze", "--experiment", exp, "--out", str(a)])
        main(["analyze", "--experiment", exp, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_delay_estimate_gives_error_rows(self, tmp_path):
        exp = write_doc(tmp_path, negative_delay_estimate_doc())
        out = tmp_path / "a.csv"
        assert main(["analyze", "--experiment", exp, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 2
        assert all("tau + dt" in r["error"] and r["gamma"] == ""
                   for r in rows)

    def test_pfa_below_min_pfa_is_an_error(self, tmp_path):
        # 1 / 1e-320 overflows a double, and the HD row's Swerling I
        # average overflowed with it
        doc = json.loads((RECIPES / "timing_errors.json").read_text())
        doc["pfa_target"] = 1e-320
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--experiment", write_doc(tmp_path, doc),
                  "--out", str(out)])
        assert str(exc.value.code).startswith("error: $.pfa_target")
        assert not out.exists()

    def test_schema_error_exits_nonzero(self, tmp_path):
        exp = write_doc(tmp_path, base_doc(bogus=1))
        with pytest.raises(SystemExit):
            main(["analyze", "--experiment", exp, "--out",
                  str(tmp_path / "a.csv")])


class TestSimulateCommand:
    def test_empirical_within_gate(self, tmp_path):
        doc = base_doc(detectors=["NCD", "ACD"], trials=20000, seed=5)
        doc["sweep"]["points"] = 2
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--experiment", exp, "--out",
                     str(out)]) == 0
        for r in read_csv(out):
            assert (abs(float(r["pd_empirical"]) - float(r["pd_analytic"]))
                    <= float(r["ci_halfwidth"]))
            assert r["trials"] == "20000"

    def test_trials_one_gives_full_interval(self, tmp_path):
        doc = base_doc(detectors=["NCD"])
        doc["sweep"]["points"] = 2
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--experiment", exp, "--out", str(out),
                     "--trials", "1"]) == 0
        for r in read_csv(out):
            assert float(r["pd_empirical"]) in (0.0, 1.0)

    def test_byte_determinism_with_seed(self, tmp_path):
        doc = base_doc(detectors=["CD"], trials=2000)
        doc["sweep"]["points"] = 2
        exp = write_doc(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--experiment", exp, "--out", str(a), "--seed", "9"])
        main(["simulate", "--experiment", exp, "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_detectors_share_one_stream(self, tmp_path):
        # common random numbers: a detector's empirical Pd does not depend
        # on which other detectors run on the same sweep point
        out = {}
        for tag, dets in (("one", ["NCD"]), ("all", ["NCD", "ACD", "CD",
                                                      "HD"])):
            doc = base_doc(detectors=dets, trials=3000, seed=4)
            doc["sweep"]["points"] = 2
            exp = write_doc(tmp_path, doc, f"{tag}.json")
            path = tmp_path / f"{tag}.csv"
            main(["simulate", "--experiment", exp, "--out", str(path)])
            out[tag] = [r["pd_empirical"] for r in read_csv(path)
                        if r["detector"] == "NCD"]
        assert len(out["one"]) == 2
        assert out["one"] == out["all"]

    def test_negative_delay_estimate_gives_error_rows(self, tmp_path,
                                                      pool_spy):
        # every pair is an error pair: no Monte Carlo, so no pool
        exp = write_doc(tmp_path, negative_delay_estimate_doc())
        out = tmp_path / "s.csv"
        assert main(["simulate", "--experiment", exp, "--out",
                     str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 2
        assert all("tau + dt" in r["error"] and r["pd_empirical"] == ""
                   for r in rows)
        assert pool_spy.pools == []

    def test_one_pool_per_invocation(self, tmp_path, pool_spy):
        # six (sweep point, system) pairs; the co-located HD rows are
        # error rows, the other rows of their pairs still run
        doc = base_doc(detectors=["NCD", "CD", "HD"], trials=3000,
                       colocated_benchmark=True)
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--experiment", exp, "--out",
                     str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3 * 2 * 3
        assert all((r["error"] == "") == (r["pd_empirical"] != "")
                   for r in rows)
        assert sum(r["error"] != "" for r in rows) == 3
        assert len(pool_spy.pools) == 1

    @pytest.mark.parametrize("flags", [
        ["--trials", "0"], ["--trials", "many"], ["--seed", "-1"],
        ["--seed", str(2**63)], ["--format", "csv"]])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags):
        exp = write_doc(tmp_path, base_doc(detectors=["NCD"]))
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--experiment", exp, "--out", str(out)]
                 + flags)
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: " in last and flags[0] in last
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        doc = base_doc(detectors=["NCD"], trials=10)
        doc["sweep"]["points"] = 2
        exp = write_doc(tmp_path, doc)
        out = tmp_path / "s.csv"
        main(["simulate", "--experiment", exp, "--out", str(out),
              "--seed", str(2**63 - 1)])
        assert [r["seed"] for r in read_csv(out)] == [str(2**63 - 1)] * 2


@pytest.fixture
def build_counts(monkeypatch):
    """Count the calls of the model build, the compensation set and the
    Doppler projectors, through every binding of each in the loaded
    ``dmimo`` modules."""
    counts = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "dmimo"]
    for fn in (scene.noise_free_mf_output, detectors.doppler_projectors):
        counted = spy(fn.__name__, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    build = detectors.CompensationSet.from_scenario.__func__
    monkeypatch.setattr(detectors.CompensationSet, "from_scenario",
                        classmethod(spy("from_scenario", build)))
    return counts


@pytest.mark.parametrize("argv", [["analyze"],
                                  ["simulate", "--trials", "8193"]])
def test_one_receiver_per_pair(tmp_path, build_counts, argv):
    # analyze and simulate build each (sweep point, system) pair's model,
    # compensation set and Doppler projectors once, and share them
    out = tmp_path / "out.csv"
    main(argv + ["--experiment", str(RECIPES / "delay_offset_benchmark.json"),
                 "--out", str(out)])
    pairs = {(r["sweep_value"], r["system"]) for r in read_csv(out)}
    assert len(pairs) == 38
    assert build_counts == {"noise_free_mf_output": 38, "from_scenario": 38,
                            "doppler_projectors": 38}


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the tests already imported don't count
    env = dict(os.environ, PYTHONPATH=str(Path(dmimo.__file__).parents[1]))
    code = ("import sys, dmimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
