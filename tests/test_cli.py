"""End-to-end tests of the command line interface."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dmimo
from dmimo import cli, detectors, scene
from dmimo.cli import main
from dmimo.experiments import MAX_POINTS
from dmimo.specfun import Probability

RECIPES = Path(__file__).resolve().parent.parent / "recipes"
DEMOS = RECIPES.parent / "demos"


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def gate_status(command, rows):
    """The exit status the confidence gate's rule gives on the written
    rows: 1 where a gated ``simulate`` row has |p_hat - pd| beyond
    max(ci_halfwidth, 3 / trials), else 0.  Each gated row of a small
    run can fail the gate by chance, so a test of anything but the gate
    asserts this status, not a fixed 0."""
    return int(command == "simulate" and any(
        abs(float(r["pd_empirical"]) - float(r["pd_analytic"]))
        > max(float(r["ci_halfwidth"]), 3.0 / int(r["trials"]))
        for r in rows if r["error"] == ""))


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


OVERFLOWING_LAMBDA = {
    "NCD": "NCD noncentrality lambda = 2 rho T(x) / c overflows",
    "HD": "HD noncentrality lambda = 2 rho T(x) / c overflows",
    "ACD": "ACD noncentrality lambda = 2 rho T(x) / c overflows",
    "CD": "CD statistic scale c = inf is not finite"}
# lambda' is finite and lambda = rho lambda' is not
OVERFLOWING_RHO_LAMBDA = {
    det: f"{det} noncentrality lambda = 2 rho T(x) / c overflows a double"
    for det in ("NCD", "ACD", "CD", "HD")}


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
                   "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"])
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(inv_reg_upper_gamma(24, 1e-4), rel=1e-10)

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        # the parser is built on the first main call and kept: a second
        # call constructs no parser and no subparser
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        argv = ["threshold", "--detector", "NCD", "--pfa", "1e-4",
                "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"]
        cli.build_parser.cache_clear()
        try:
            assert main(argv) == 0
            once = len(built)
            assert main(argv) == 0
        finally:
            cli.build_parser.cache_clear()
        assert once == 5 and len(built) == once, built
        first, second = capsys.readouterr().out.split()
        assert first == second

    def test_every_flag_has_help(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {a.option_strings[-1]: a.help
                 for a in sub.choices["threshold"]._actions}
        assert all(helps.values())
        assert "p = N M^2 assumes rank M" in helps["--detector"]
        assert "CD requires it" in helps["--varsigma"]

    def test_degenerate_pfa_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["threshold", "--detector", "NCD", "--pfa", "1.0",
                  "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"])

    @pytest.mark.parametrize("flags", [
        ["--sigma2", "2"], ["--varsigma", "0"], ["--varsigma", "nan"],
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

    @pytest.mark.parametrize("det", ["NCD", "ACD", "HD"])
    def test_varsigma_without_cd_is_usage_error(self, capsys, det):
        # only CD reads --varsigma; any other detector ignored it and
        # printed its threshold
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", det, "--pfa", "1e-4",
                  "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1",
                  "--varsigma", "2.1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error: " in line]
        assert errors == [f"dmimo threshold: error: argument --varsigma: "
                          f"only CD reads it, not --detector {det}"]

    def test_overflowing_scale_is_an_error(self, capsys):
        # c = K M N = 2e309 overflows a double
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", "ACD", "--pfa", "1e-3",
                  "--k-pulses", str(10**309), "--m-tx", "2", "--n-rx", "1"])
        assert exc.value.code == ("error: ACD statistic scale c = inf is not "
                                  "finite and at least "
                                  "2.2250738585072014e-308")
        assert capsys.readouterr().out == ""

    def test_overflowing_threshold_is_an_error(self, capsys):
        # c = K M N = 1e308 is a double, but gamma = c q is not
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", "ACD", "--pfa", "1e-3",
                  "--k-pulses", str(5 * 10**307), "--m-tx", "2",
                  "--n-rx", "1"])
        assert str(exc.value.code).startswith(
            "error: threshold gamma = c q = 1e+308 * 6.9077")
        assert str(exc.value.code).endswith(" overflows a double")
        assert capsys.readouterr().out == ""

    def test_subnormal_scale_is_an_error(self, capsys):
        # c = varsigma = 1e-320 is subnormal: its threshold would print
        # 12 digits of which only the first three are right
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", "CD", "--pfa", "1e-3",
                  "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1",
                  "--varsigma", "1e-320"])
        assert exc.value.code == ("error: CD statistic scale c = 1e-320 is "
                                  "not finite and at least "
                                  "2.2250738585072014e-308")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("det, k, m", [
        ("ACD", 10**309, 2),  # K M N is beyond a double
        ("NCD", 2**53, 1),    # order p = K M N = 2**53
        ("HD", 1, 10**10)],   # order p = N M^2 = 1e20
        ids=["ACD-K1e309", "NCD-K2**53", "HD-M1e10"])
    def test_order_or_scale_beyond_a_double_is_an_error(self, capsys, det,
                                                        k, m):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--detector", det, "--pfa", "1e-3",
                  "--k-pulses", str(k), "--m-tx", str(m), "--n-rx", "1"])
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

    def test_one_call_per_pulse_pair_with_per_point_rows(self, tmp_path,
                                                         monkeypatch):
        # each (m, mbar) slice is one array call over every delay, and
        # every row prints what the scalar call at its delay gives
        doc = base_doc()
        doc["scenario"]["waveform_set"] = "single_band"
        exp, out = write_doc(tmp_path, doc), tmp_path / "caf.csv"
        calls = []
        real = cli.caf
        monkeypatch.setattr(cli, "caf", lambda a, b, nu, f: calls.append(
            np.shape(nu)) or real(a, b, nu, f))
        assert main(["caf", "--experiment", exp, "--out", str(out),
                     "--points", "41"]) == 0
        assert calls == [(41,)] * 4
        spec = cli.load_experiment(exp)
        tp = spec.scenario.pulses[0].t_p
        nus = np.linspace(-tp, tp, 41)
        rows = read_csv(out)
        assert len(rows) == 4 * 41
        for i, r in enumerate(rows):
            a, b = (spec.scenario.pulses[int(r[k]) - 1] for k in ("m", "mbar"))
            val = real(a, b, float(nus[i % 41]), 0.0)
            assert [r["re"], r["im"], r["abs"]] == [
                cli._fmt(v) for v in (val.real, val.imag, abs(val))]

    def test_empty_out_is_usage_error(self, tmp_path):
        exp = write_doc(tmp_path, base_doc())
        with pytest.raises(SystemExit):
            main(["caf", "--experiment", exp, "--out", ""])

    def test_caf_phase_overflow_is_one_error_line(self, tmp_path):
        # a 1e308 Hz chirp's phase is beyond a double at most delays
        doc = json.loads((RECIPES / "timing_errors.json").read_text())
        doc["scenario"]["bandwidth_hz"] = 1e308
        out = tmp_path / "caf.csv"
        with pytest.raises(SystemExit) as exc:
            main(["caf", "--experiment", write_doc(tmp_path, doc),
                  "--out", str(out)])
        assert exc.value.code == ("error: the CAF phase overflows a double "
                                  "at these arguments")
        assert not out.exists()

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

    def test_points_beyond_sweep_bound_is_usage_error(self, tmp_path,
                                                      capsys):
        # sweep.points's bound; beyond it numpy's "Maximum allowed size
        # exceeded" named no flag
        exp = write_doc(tmp_path, base_doc())
        out = tmp_path / "caf.csv"
        with pytest.raises(SystemExit) as exc:
            main(["caf", "--experiment", exp, "--out", str(out),
                  "--points", str(10**20)])
        assert exc.value.code == 2
        assert (f"argument --points: must be at most {MAX_POINTS}"
                in capsys.readouterr().err)
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


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["caf"], ["analyze"],
                                  ["simulate", "--trials", "100"]])
def test_full_device_is_one_line_error(tmp_path, argv):
    # /dev/full opens but fails every write: caf's 1604 rows fail while
    # they are written, analyze's and simulate's 12 rows when the file
    # is closed
    exp = write_doc(tmp_path, base_doc())
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--experiment", exp, "--out", "/dev/full"])
    assert exc.value.code == ("error: cannot write --out /dev/full: "
                              "No space left on device")


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
        assert all("RX 0 has rank 1 < M = 2 (K = 1)" in r["error"]
                   for r in hd)
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

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("variable, stop, reason", [
        ("snr_db", 4000.0,
         "the channel gain for an SNR of 4000.0 dB overflows a double"),
        ("delay_offset", 300.0,
         "delays must be below one PRI (unambiguous range)")],
        ids=["snr_db", "delay_offset"])
    def test_unbuildable_point_gives_a_row_per_system(self, tmp_path,
                                                      command, variable,
                                                      stop, reason):
        # the last point's scenario cannot be built, so both of its
        # systems carry the error
        doc = base_doc(colocated_benchmark=True, detectors=["NCD"],
                       trials=100, sweep={"variable": variable, "start": 0.0,
                                          "stop": stop, "points": 3})
        doc["scenario"]["waveform_set"] = "single_band"
        out = tmp_path / "a.csv"
        code = main([command, "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status(command, rows)
        assert [(r["sweep_value"], r["system"]) for r in rows] == [
            (f"{v:g}", system) for v in (0.0, stop / 2, stop)
            for system in ("distributed", "colocated")]
        assert [r["error"] for r in rows] == [""] * 4 + [reason] * 2

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_distributed_error_keeps_colocated_numbers(self, tmp_path,
                                                        command):
        # tau + dt < 0 holds only under the distributed errors: the
        # co-located system of the same point has none and gives numbers
        doc = dict(negative_delay_estimate_doc(), colocated_benchmark=True)
        out = tmp_path / "o.csv"
        code = main([command, "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status(command, rows)
        assert [(r["sweep_value"], r["system"], r["detector"])
                for r in rows] == [
            (v, system, det) for v in ("-4", "4")
            for system in ("distributed", "colocated")
            for det in ("NCD", "CD")]
        for r in rows:
            if r["system"] == "distributed":
                assert "tau + dt" in r["error"] and r["gamma"] == ""
                assert r.get("pd_empirical", "") == ""
            else:
                assert r["error"] == "" and 0 < float(r["pd_analytic"]) < 1
                if command == "simulate":
                    assert 0 <= float(r["pd_empirical"]) <= 1

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

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_scale_underflow_gives_error_rows(self, tmp_path, command):
        # at a mean RCS of 2^1022 and from -20 to -14 dB the CD scale
        # varsigma, which scales as SNR / rho_bar, is subnormal, so every
        # CD row is an error row; the other detectors' lambda and Pd do
        # not depend on rho_bar and match rho_bar = 1
        doc = json.loads((RECIPES / "timing_errors.json").read_text())
        doc.update(trials=100, sweep={"variable": "snr_db", "start": -20.0,
                                      "stop": -14.0, "points": 7})
        tables = {}
        for rho_bar in (1.0, 2.0**1022):
            doc["scenario"]["target"] = {"model": "swerling1",
                                         "rho_bar": rho_bar}
            out = tmp_path / f"{rho_bar}.csv"
            code = main([command, "--experiment", write_doc(tmp_path, doc),
                         "--out", str(out)])
            tables[rho_bar] = read_csv(out)
            assert code == gate_status(command, tables[rho_bar])
        rows = tables[2.0**1022]
        cd = [r for r in rows if r["detector"] == "CD"]
        assert len(cd) == 7
        assert all(r["error"].startswith("CD statistic scale c = ") and
                   r["error"].endswith("is not finite and at least "
                                       "2.2250738585072014e-308")
                   for r in cd)
        for got, want in zip(rows, tables[1.0]):
            if got["detector"] == "CD":
                assert want["error"] == ""
                continue
            assert got["error"] == want["error"]
            for column in ("lambda", "pd_analytic"):
                if want[column]:
                    assert float(got[column]) == pytest.approx(
                        float(want[column]), rel=1e-12, abs=0.0)

    def test_marcum_walk_short_of_its_rule_gives_error_rows(self, tmp_path):
        # from 50 to 70 dB the noncentralities run from 4.9e6 to 4.9e8,
        # beyond what Marcum-Q's 10,000-term walk covers: each row is an
        # error row, where it once printed the truncated sums
        # 0.999999999815, 0.978246200985 and 0.738390809182 for NCD, whose
        # Pd is 1 to double precision
        doc = base_doc(detectors=["NCD", "ACD"],
                       sweep={"variable": "snr_db", "start": 50.0,
                              "stop": 70.0, "points": 3})
        doc["scenario"]["target"] = {"model": "fixed", "alpha_re": 1.0,
                                     "alpha_im": 0.0}
        out = tmp_path / "a.csv"
        assert main(["analyze", "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [(r["sweep_value"], r["detector"]) for r in rows] == [
            (v, d) for v in ("50", "60", "70") for d in ("NCD", "ACD")]
        for r in rows:
            assert r["error"].startswith("Marcum-Q series at noncentrality "
                                         "a^2 = ")
            assert r["error"].endswith(" does not converge in 10000 terms")
            assert r["pd_analytic"] == r["lambda"] == r["gamma"] == ""

    def test_cd_of_a_strong_fixed_target(self, tmp_path):
        # without sync errors CD's lambda is NCD's.  CD's T(x) = |v^H x|^2
        # grows as xi^4 and its c as xi^2, and the gains back-solved for
        # these amplitudes make T(x) subnormal (1e80) or zero (from 1e100)
        for alpha in (1e80, 1e100, 1e150):
            doc = base_doc()
            doc["scenario"] = {"target": {"model": "fixed",
                                          "alpha_re": alpha}}
            out = tmp_path / f"{alpha}.csv"
            assert main(["analyze", "--experiment",
                         write_doc(tmp_path, doc), "--out", str(out)]) == 0
            rows = read_csv(out)
            lam = {(r["sweep_value"], r["detector"]): float(r["lambda"])
                   for r in rows}
            assert lam[("0", "NCD")] == 49.0610423826
            for value in ("-4", "0", "4"):
                assert lam[(value, "CD")] == pytest.approx(
                    lam[(value, "NCD")], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("field, sweep, reason", [
        ("carrier_hz", 1e308, "the carrier and Doppler phase 2 pi (f_c tau "
                              "- f nu) of a path overflows a double"),
        ("target", {"model": "swerling1", "rho_bar": 1e-300},
         "the channel gain for an SNR of 300.0 dB overflows a double")])
    def test_overflow_gives_error_rows_and_no_warning(self, tmp_path, field,
                                                      sweep, reason):
        # a fresh interpreter with every warning an error: numpy's
        # overflow warnings would end it in a traceback
        doc = base_doc()
        doc["scenario"] = {field: sweep}
        if field == "target":
            doc["sweep"].update(start=300.0, stop=310.0)
        out = tmp_path / "a.csv"
        env = dict(os.environ,
                   PYTHONPATH=str(Path(dmimo.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dmimo.cli", "analyze",
             "--experiment", write_doc(tmp_path, doc), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = read_csv(out)
        assert len(rows) == 3 * 4
        assert rows[0]["error"] == reason
        assert all(r["error"].endswith("overflows a double") for r in rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("field, value, phase", [
        ("carrier_hz", 1e300, "the carrier and Doppler phase "
                              "2 pi (f_c tau - f nu) of a path"),
        ("doppler_hz", [[1e307], [1e307]],
         "the Doppler steering phase 2 pi T_s k f")])
    def test_phase_of_2_52_rad_gives_error_rows(self, tmp_path, command,
                                                field, value, phase):
        # finite phases this large keep no fraction of a radian: without
        # sync errors, 1e300 Hz printed ACD lambda = 0.212692840113 at
        # 0 dB, where 3 GHz gives 49.06
        doc = base_doc(trials=100)
        doc["scenario"] = {field: value}
        out = tmp_path / "a.csv"
        code = main([command, "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status(command, rows)
        assert len(rows) == 3 * 4
        assert all(r["error"] == f"{phase} reaches 2^52 rad, where a double "
                   "keeps no fraction of a radian" for r in rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("scenario, start, stop", [
        # from 2000 dB CD's T(x) = |v^H x|^2 overflows, in the closed form
        # and in the Monte Carlo blocks
        ({}, 1000.0, 3000.0)])
    def test_extreme_snr_gives_numbers_and_no_warning(self, tmp_path,
                                                      command, scenario,
                                                      start, stop):
        doc = {"scenario": scenario, "trials": 100,
               "sweep": {"variable": "snr_db", "start": start,
                         "stop": stop, "points": 5}}
        out = tmp_path / "a.csv"
        code = main([command, "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status(command, rows)
        assert len(rows) == 5 * 4
        lam = {}
        for r in rows:
            if r["error"]:
                assert r["detector"] == "CD" and r["error"].startswith(
                    "CD statistic scale c = inf is not finite")
                continue
            assert float(r["pd_analytic"]) > 1.0 - 1e-7
            assert command == "analyze" or r["pd_empirical"] == "1"
            lam[(r["sweep_value"], r["detector"])] = float(r["lambda"])
        # without sync errors CD's lambda is NCD's
        for (value, det), got in lam.items():
            if det == "CD":
                assert got == pytest.approx(lam[(value, "NCD")], rel=1e-12,
                                            abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("scenario, start, reasons", [
        # lambda itself overflows, and so does varsigma: at 0 dB through
        # the gain back-solved for a mean RCS of 1e-308, xi^2 = 1e308,
        # and from 3070 dB at unit mean RCS
        ({"target": {"model": "swerling1", "rho_bar": 1e-308}}, 0.0,
         OVERFLOWING_LAMBDA),
        ({}, 3070.0, OVERFLOWING_LAMBDA),
        # at 3080 dB and a mean RCS of 1e300 every lambda' is a double,
        # and lambda = rho lambda' is not, for a Swerling I target and
        # for a fixed one
        ({"snr_db": [3080, 3080],
          "target": {"model": "swerling1", "rho_bar": 1e300}}, 3080.0,
         OVERFLOWING_RHO_LAMBDA),
        ({"snr_db": [3080, 3080],
          "target": {"model": "fixed", "alpha_re": 1e150}}, 3080.0,
         OVERFLOWING_RHO_LAMBDA)])
    def test_overflowing_quantity_gives_error_rows(self, tmp_path, command,
                                                   scenario, start,
                                                   reasons):
        doc = {"scenario": scenario, "trials": 100,
               "sweep": {"variable": "snr_db", "start": start,
                         "stop": start + 1.0, "points": 2}}
        out = tmp_path / "a.csv"
        code = main([command, "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status(command, rows)
        assert len(rows) == 2 * 4
        for r in rows:
            assert r["error"].startswith(reasons[r["detector"]])

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_memory_error_is_one_error_line(self, tmp_path, command):
        # 10**17 pulses take 711 PiB per array, beyond any address space,
        # so the first allocation fails at once
        doc = json.loads((RECIPES / "timing_errors.json").read_text())
        doc["scenario"]["k_pulses"] = 10**17
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--experiment", write_doc(tmp_path, doc),
                  "--out", str(out)])
        msg = exc.value.code
        assert isinstance(msg, str) and msg.startswith("error: ")
        assert "\n" not in msg
        assert not out.exists()

    def test_failed_run_removes_only_the_file_it_created(self, tmp_path):
        # a multi-band sweep whose arrays no address space holds: the
        # --out file the run created is removed, one that existed before
        # is kept
        doc = {"scenario": {"waveform_set": "multi_band",
                            "k_pulses": 10**17},
               "sweep": {"variable": "snr_db", "start": 0, "stop": 1,
                         "points": 2}}
        exp = write_doc(tmp_path, doc)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for out in (new, old):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--experiment", exp, "--out", str(out)])
            assert exc.value.code.startswith("error: ")
        assert not new.exists()
        assert old.is_file()

    def test_schema_error_exits_nonzero(self, tmp_path):
        exp = write_doc(tmp_path, base_doc(bogus=1))
        with pytest.raises(SystemExit):
            main(["analyze", "--experiment", exp, "--out",
                  str(tmp_path / "a.csv")])

    @pytest.mark.parametrize("over, message", [
        ({"scenario": {"waveform_set": "multi_band", "b": [3.7, 1.0]}},
         "error: scenario.b: unknown field"),
        ({"scenario": {"waveform_set": "multi_band", "sigma2": 1.0}},
         "error: scenario.sigma2: unknown field"),
        ({"detectors": ["NCD", "CD", "NCD"]},
         "error: detectors[2]: duplicate detector 'NCD'")],
        ids=["transmit-amplitude", "noise-power", "duplicate-detector"])
    def test_schema_error_is_one_error_line(self, tmp_path, over, message):
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--experiment",
                  write_doc(tmp_path, base_doc(**over)), "--out", str(out)])
        assert exc.value.code == message
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ([], "$: expected an object"),
        (base_doc(scenario=[]), "scenario: expected an object"),
        (base_doc(sweep={"variable": "snr_db", "stop": 4.0, "points": 3}),
         "sweep.start: required field missing"),
        (base_doc(sweep={"variable": "snr_db", "start": -4.0, "stop": 4.0}),
         "sweep.points: required field missing"),
        (base_doc(scenario={"pri_s": 0}), "scenario.pri_s: must be positive"),
        (base_doc(scenario={"k_pulses": 1.5}),
         "scenario.k_pulses: expected an integer"),
        (base_doc(scenario={"tau_s": [[1e-6], [1e-6, 2e-6]]}),
         "scenario.tau_s: expected nested number lists"),
        ('{"scenario": {"tau_s": [[1e999], [0]]}, "sweep": {"variable": '
         '"snr_db", "start": -4.0, "stop": 4.0, "points": 3}}',
         "scenario.tau_s: entries must be finite"),
        (base_doc(scenario={"target": {"model": "swerling2"}}),
         "scenario.target.model: expected 'swerling1' or 'fixed'"),
        (base_doc(scenario={"waveform_set": "triple_band"}),
         "scenario.waveform_set: expected 'multi_band' or 'single_band'"),
        (base_doc(scenario={"waveform_set": "single_band", "m_tx": 3}),
         "scenario: single_band waveform set is defined for M=2 only"),
        (base_doc(detectors=[]), "detectors: expected a non-empty list"),
        ({"sweep": base_doc()["sweep"]}, "$.scenario: required field missing"),
        ({"scenario": {}}, "$.sweep: required field missing"),
        (base_doc(colocated_benchmark=1),
         "$.colocated_benchmark: expected true or false"),
        (base_doc(scenario={"waveform_set": "multi_band", "kappa": 7}),
         "scenario.kappa: not read by the multi_band waveform set"),
        (base_doc(scenario={"waveform_set": "single_band", "eta": 7}),
         "scenario.eta: not read by the single_band waveform set")],
        ids=["top-level-list", "scenario-list", "no-start", "no-points",
             "zero-pri", "fractional-k", "ragged-tau", "infinite-tau",
             "target-model", "waveform-set", "single-band-of-3",
             "no-detectors", "no-scenario", "no-sweep", "colocated-int",
             "multi-band-kappa", "single-band-eta"])
    def test_every_schema_rejection_is_one_error_line(self, tmp_path, doc,
                                                      message):
        # a document given as a string is the JSON text itself: 1e999
        # reads as an infinite double, which json.dumps writes otherwise
        exp = tmp_path / "exp.json"
        exp.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--experiment", str(exp), "--out", str(out)])
        assert exc.value.code == "error: " + message
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze"], ["simulate"],
                                         ["caf", "--points", "3"]],
                             ids=["analyze", "simulate", "caf"])
    @pytest.mark.parametrize("kind, reason", [
        ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 0"),
        ("nested-990", "maximum recursion depth exceeded")],
        ids=["not-utf8", "nested-990"])
    def test_unreadable_file_is_one_error_line(self, tmp_path, command,
                                               kind, reason):
        # bytes that are not UTF-8 failed in the file's decode, and a
        # scenario.tau_s nested 990 deep in the JSON decoder's recursion;
        # both ended in a traceback
        exp = tmp_path / "exp.json"
        if kind == "not-utf8":
            exp.write_bytes(b"\xff\xfe")
        else:
            exp.write_text('{"scenario": {"tau_s": ' + "[" * 990 + "0.0"
                           + "]" * 990 + "}}")
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--experiment", str(exp), "--out", str(out)])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(f"error: {exp}: invalid JSON (") and reason in msg
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["analyze"], ["simulate"],
                                         ["caf", "--points", "3"]],
                             ids=["analyze", "simulate", "caf"])
    @pytest.mark.parametrize("scenario, sweep, message", [
        ({"m_tx": 3, "n_rx": 10**20}, {},
         "scenario.n_rx: must be at most "),
        ({"m_tx": 2, "n_rx": 10**20}, {},
         "scenario.n_rx: must be at most "),
        ({"m_tx": 10**20}, {}, "scenario.m_tx: must be at most "),
        ({"k_pulses": 10**20}, {}, "scenario.k_pulses: must be at most "),
        ({}, {"points": 10**20}, "sweep.points: must be at most "),
        ({}, {"variable": "snr_offset_db", "start": -1e308, "stop": 1e308,
              "points": 3}, "sweep: stop - start must be finite")],
        ids=["n_rx-of-3-tx", "n_rx-of-2-tx", "m_tx", "k_pulses", "points",
             "overflowing-span"])
    def test_size_or_span_beyond_numpy_is_one_error_line(
            self, tmp_path, command, scenario, sweep, message):
        # numpy has no array of that many paths, pulses or points: these
        # ended in a traceback from numpy or in error rows quoting numpy,
        # and the span in nan sweep values with two RuntimeWarnings
        doc = {"scenario": scenario,
               "sweep": dict({"variable": "snr_db", "start": 0, "stop": 1,
                              "points": 2}, **sweep)}
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--experiment", write_doc(tmp_path, doc),
                            "--out", str(out)])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith("error: " + message)
        assert not out.exists()


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

    def test_mean_rcs_of_2_1022_keeps_every_probability(self, tmp_path):
        # lambda and Pd depend on the SNR alone, and a power-of-two mean
        # RCS scales the gains exactly: the Swerling I blocks draw a unit
        # modulus and read the return at amplitude sqrt(rho_bar), where
        # a modulus sqrt(rho_bar Exp(1)) overflowed in many trials, and a
        # one-coordinate block (a co-located pair) scales it by
        # hypot(1, |sqrt(rho_bar) s|), exact at a power of two.  The
        # exit codes are not compared: these recipes' Wald gates fail by
        # chance at 20000 trials
        for recipe, rows, colocated in (("timing_errors", 21 * 4, 0),
                                        ("delay_offset_benchmark",
                                         19 * 2 * 4, 19 * 4)):
            doc = json.loads((RECIPES / f"{recipe}.json").read_text())
            doc["trials"] = 20000
            tables = []
            for rho_bar in (1.0, 2.0**1022):
                doc["scenario"]["target"] = {"model": "swerling1",
                                             "rho_bar": rho_bar}
                out = tmp_path / f"{recipe}-{rho_bar}.csv"
                main(["simulate", "--experiment", write_doc(tmp_path, doc),
                      "--out", str(out)])
                tables.append([(r["system"], r["lambda"], r["pd_analytic"],
                                r["pd_empirical"]) for r in read_csv(out)])
            assert len(tables[0]) == rows
            assert sum(r[0] == "colocated" for r in tables[0]) == colocated
            assert tables[0] == tables[1]

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
        # on which other detectors run on the same sweep point, on a
        # distributed pair and on a co-located one, whose block draws
        # no Gaussian and whose HD row is an error row
        for colocated, rows in ((False, 2), (True, 4)):
            out = {}
            for tag, dets in (("one", ["NCD"]),
                              ("all", ["NCD", "ACD", "CD", "HD"])):
                doc = base_doc(detectors=dets, trials=3000, seed=4,
                               colocated_benchmark=colocated)
                doc["sweep"]["points"] = 2
                exp = write_doc(tmp_path, doc, f"{tag}.json")
                path = tmp_path / f"{tag}.csv"
                main(["simulate", "--experiment", exp, "--out", str(path)])
                out[tag] = [(r["system"], r["pd_empirical"])
                            for r in read_csv(path) if r["detector"] == "NCD"]
            assert len(out["one"]) == rows
            assert sum(s == "colocated" for s, _ in out["one"]) == rows - 2
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
        code = main(["simulate", "--experiment", exp, "--out", str(out)])
        rows = read_csv(out)
        assert code == gate_status("simulate", rows)
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


class TestGate:
    """The confidence gate passes a row where |p_hat - pd| is at most
    max(3 sqrt(p_hat (1 - p_hat) / n), 3 / n); run_sweep's counts and
    the analytic Pd are set, so each case sits where it is meant to."""

    N = 1024

    @pytest.mark.parametrize("detections, pd, passed", [
        # p_hat = 1/2: the half-width is 3/64 exactly, and pd sits on it
        (512, 0.546875, True),
        # one count further from pd
        (511, 0.546875, False),
        # p_hat = 0 and 1: the half-width is 0, and the 3/n floor decides
        (0, 3 / N, True), (0, 4 / N, False),
        (N, 1 - 3 / N, True), (N, 1 - 4 / N, False)])
    def test_verdict_and_cells(self, tmp_path, monkeypatch, detections, pd,
                               passed):
        real = cli.analyze_detector
        monkeypatch.setattr(cli, "analyze_detector", lambda *a: replace(
            real(*a), pd=Probability(pd)))
        seen = []

        def counts(runs):
            seen.extend(cfg.trials for *_, cfg in runs)
            return [dict.fromkeys(gammas, detections)
                    for _, gammas, _ in runs]

        monkeypatch.setattr(cli, "run_sweep", counts)
        doc = base_doc(detectors=["NCD", "CD"])
        out = tmp_path / "s.csv"
        code = main(["simulate", "--experiment", write_doc(tmp_path, doc),
                     "--out", str(out), "--trials", str(self.N)])
        assert seen == [self.N] * 3
        assert code == (0 if passed else 1)
        p_hat = detections / self.N
        half = 3 * math.sqrt(p_hat * (1 - p_hat) / self.N)
        if detections == 512:
            assert abs(p_hat - pd) == half
        rows = read_csv(out)
        assert len(rows) == 3 * 2
        for r in rows:
            assert float(r["pd_empirical"]) == p_hat
            assert r["ci_halfwidth"] == cli._fmt(half)


@pytest.fixture
def build_counts(monkeypatch):
    """Count the calls of the model build, the compensation set, the
    steering span and numpy's SVD, through every binding of each in the
    loaded ``dmimo`` modules, from an empty span cache; ``spans`` collects
    the distinct steering matrices the span was asked for."""
    counts = Counter()
    counts.spans = set()

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    real_span = detectors.steering_span

    def steering_span(S_hat):
        counts.spans.add(S_hat.tobytes())
        return real_span(S_hat)

    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "dmimo"]
    for fn, inner in ((scene.noise_free_mf_output, scene.noise_free_mf_output),
                      (real_span, steering_span)):
        counted = spy(fn.__name__, inner)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    build = detectors.CompensationSet.from_scenario.__func__
    monkeypatch.setattr(detectors.CompensationSet, "from_scenario",
                        classmethod(spy("from_scenario", build)))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    real_span.cache_clear()
    return counts


@pytest.mark.parametrize("argv", [["analyze"],
                                  ["simulate", "--trials", "8193"]])
def test_one_receiver_per_pair(tmp_path, build_counts, argv):
    # analyze and simulate build each (sweep point, system) pair's model,
    # compensation set and steering span once, and share them; the SVDs
    # are the span's, one per distinct estimated steering, and under
    # simulate one more per pair: the Monte Carlo frame's basis of W
    out = tmp_path / "out.csv"
    main(argv + ["--experiment", str(RECIPES / "delay_offset_benchmark.json"),
                 "--out", str(out)])
    pairs = {(r["sweep_value"], r["system"]) for r in read_csv(out)}
    assert len(pairs) == 38
    frames = 38 if argv[0] == "simulate" else 0
    assert build_counts == {"noise_free_mf_output": 38, "from_scenario": 38,
                            "steering_span": 38,
                            "svd": len(build_counts.spans) + frames}
    assert len(build_counts.spans) == 2  # distributed and co-located


def test_import_loads_no_scipy(tmp_path):
    # a fresh interpreter, so modules the tests already imported don't count
    env = dict(os.environ, PYTHONPATH=str(Path(dmimo.__file__).parents[1]))
    code = ("import sys, dmimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    # every subcommand and every demo runs where importing scipy fails
    no_scipy = "import runpy, sys; sys.modules['scipy'] = None; "
    cli_main = no_scipy + "runpy.run_module('dmimo.cli', run_name='__main__')"
    script = no_scipy + "runpy.run_path(sys.argv[1], run_name='__main__')"
    exp, out = write_doc(tmp_path, base_doc()), str(tmp_path / "out.csv")
    io = ["--experiment", exp, "--out", out]
    runs = [[cli_main, "caf", *io, "--points", "21"],
            [cli_main, "analyze", *io],
            [cli_main, "simulate", *io, "--trials", "2000"],
            [cli_main, "threshold", "--detector", "HD", "--pfa", "1e-4",
             "--k-pulses", "12", "--m-tx", "2", "--n-rx", "1"]]
    runs += [[script, str(demo)] for demo in sorted(DEMOS.glob("*.py"))]
    assert len(runs) == 8
    for run in runs:
        proc = subprocess.run([sys.executable, "-c", *run], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (run[1:], proc.stderr)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def fresh_env(**blas):
    """The environment of a fresh interpreter that imports this checkout's
    dmimo, with no BLAS thread variable but those in ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(Path(dmimo.__file__).parents[1]), **blas)


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc/self/task, needs 2 CPUs")
@pytest.mark.parametrize("blas, want", [
    ({}, "1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 2"),
    ({"OMP_NUM_THREADS": "2"}, "2 None")])
def test_cli_import_starts_one_blas_thread_unless_asked(blas, want):
    # OpenBLAS starts its workers while numpy is imported; a count the
    # caller set in any variable OpenBLAS reads is kept.  Printed: the
    # process's threads and its OPENBLAS_NUM_THREADS
    code = ("import os, dmimo.cli; "
            "print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(**blas),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == want


@pytest.mark.parametrize("first", ["numpy", "dmimo.montecarlo"])
def test_cli_import_after_numpy_leaves_the_environment(first):
    # numpy's BLAS has started by then; the library modules never set it
    code = (f"import os, {first}; before = dict(os.environ); "
            "import dmimo.cli; print(dict(os.environ) == before, "
            "'OPENBLAS_NUM_THREADS' in os.environ)")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["True", "False"]


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a fixed target seen by a 16 x 16 array at K = 1024, each receiver's
    # Dopplers one permutation of a comb so that HD's steering has full
    # rank: there the BLAS thread count moves the last printed digit of
    # an HD Pd near 1, so the command's default must be one thread
    rng = np.random.default_rng(1)
    M = N = 16
    shape, tp = (M, N), 1e-5
    comb = (np.arange(M) - (M - 1) / 2) * 50.0
    doppler = np.stack([rng.permutation(comb) for _ in range(N)], axis=1)
    doc = base_doc(
        scenario={
            "waveform_set": "multi_band", "m_tx": M, "n_rx": N,
            "k_pulses": 1024,
            "tau_s": (5e-4 + rng.uniform(0.0, 0.9 * tp, shape)).tolist(),
            "doppler_hz": (100.0 + doppler
                           + rng.uniform(-10.0, 10.0, shape)).tolist(),
            "psi_rad": rng.uniform(0.0, 2 * np.pi, shape).tolist(),
            "target": {"model": "fixed"}},
        errors={"dt_s": rng.uniform(-2e-7, 2e-7, shape).tolist(),
                "df_hz": rng.uniform(-2.0, 2.0, shape).tolist(),
                "dp_rad": rng.uniform(-0.15, 0.15, shape).tolist()},
        sweep={"variable": "snr_db", "start": -12.0, "stop": -9.0,
               "points": 2})
    exp = write_doc(tmp_path, doc)
    got = []
    for name, blas in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{name}.csv"
        subprocess.run([sys.executable, "-m", "dmimo.cli", "analyze",
                        "--experiment", exp, "--out", str(out)],
                       env=fresh_env(**blas), check=True)
        got.append(out.read_bytes())
    assert got[0] == got[1]
    assert got[0].count(b"\n") == 1 + 2 * 4
