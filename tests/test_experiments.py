"""Tests for experiment file parsing and sweep construction."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from dmimo.analysis import DetectorKind
from dmimo.cli import main
from dmimo.experiments import (
    ExperimentError,
    load_experiment,
    parse_experiment,
    scenario_at,
)
from dmimo.scene import NonFluctuating, Swerling1, xi_from_snr


def minimal_doc(**over):
    doc = {
        "scenario": {"waveform_set": "multi_band"},
        "sweep": {"variable": "snr_db", "start": -5.0, "stop": 5.0,
                  "points": 3},
    }
    doc.update(over)
    return doc


class TestParsing:
    def test_defaults_give_reference_scenario(self):
        spec = parse_experiment(minimal_doc())
        sc = spec.scenario
        assert sc.m_tx == 2 and sc.n_rx == 1 and sc.k_pulses == 12
        assert sc.pri_s == pytest.approx(2e-3)
        assert sc.carrier_hz == 3e9
        assert np.allclose(sc.tau_s[:, 0], [0.61e-5, 0.10e-5])
        assert np.allclose(sc.doppler_hz[:, 0], [200.0, 190.0])
        assert np.allclose(sc.psi_rad[:, 0],
                           [0.1 * math.pi, 0.3 * math.pi])
        assert isinstance(sc.target, Swerling1)
        assert spec.detectors == tuple(DetectorKind)
        err = spec.errors
        for field in (err.dt, err.df, err.dp):
            assert np.array_equal(field, np.zeros((2, 1)))
        assert np.array_equal(err.dc_rx, np.zeros(1))

    def test_snr_sets_xi(self):
        spec = parse_experiment(minimal_doc(
            scenario={"waveform_set": "multi_band", "snr_db": [0.0, -6.0]}))
        sc = spec.scenario
        snr = sc.xi ** 2
        assert 10 * np.log10(snr[0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert 10 * np.log10(snr[1, 0]) == pytest.approx(-6.0, abs=1e-12)

    def test_fixed_target(self):
        doc = minimal_doc()
        doc["scenario"]["target"] = {"model": "fixed", "alpha_re": 0.6,
                                     "alpha_im": -0.8}
        spec = parse_experiment(doc)
        assert isinstance(spec.scenario.target, NonFluctuating)
        assert spec.scenario.target.mean_rcs == pytest.approx(1.0)

    def test_errors_parsed(self):
        doc = minimal_doc(errors={"df_hz": [[-25.0], [10.0]]})
        spec = parse_experiment(doc)
        assert np.allclose(spec.errors.df[:, 0], [-25.0, 10.0])
        assert np.all(spec.errors.dt == 0)

    def test_detector_subset(self):
        spec = parse_experiment(minimal_doc(detectors=["CD", "NCD"]))
        assert spec.detectors == (DetectorKind.CD, DetectorKind.NCD)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_experiment(path).sweep_values == (-5.0, 0.0, 5.0)


class TestRejections:
    def test_unknown_top_field(self):
        with pytest.raises(ExperimentError, match=r"\$\.bogus"):
            parse_experiment(minimal_doc(bogus=1))

    def test_unknown_scenario_field(self):
        doc = minimal_doc()
        doc["scenario"]["tau"] = [[1.0], [2.0]]
        with pytest.raises(ExperimentError, match="scenario.tau: unknown"):
            parse_experiment(doc)

    def test_bad_shape_message_names_field(self):
        doc = minimal_doc()
        doc["scenario"]["doppler_hz"] = [[1.0]]
        with pytest.raises(ExperimentError, match="scenario.doppler_hz"):
            parse_experiment(doc)

    @pytest.mark.parametrize("section, field, value, where", [
        ("scenario", "snr_db", ["0", "3"], r"scenario\.snr_db\[0\]"),
        ("scenario", "tau_s", [["1e-6"], ["2e-6"]],
         r"scenario\.tau_s\[0\]\[0\]"),
        ("errors", "dt_s", [[0], [True]], r"errors\.dt_s\[1\]\[0\]")],
        ids=["snr_db", "tau_s", "dt_s"])
    def test_array_entries_must_be_numbers(self, section, field, value,
                                           where):
        # numpy would read booleans and numeric strings as numbers
        doc = minimal_doc()
        doc.setdefault(section, {})[field] = value
        with pytest.raises(ExperimentError,
                           match=where + ": expected a number"):
            parse_experiment(doc)

    @pytest.mark.parametrize("section, field, value, where", [
        ("scenario", "pri_s", 10**400, r"scenario\.pri_s"),
        ("scenario", "tau_s", [[0.0], [-10**400]],
         r"scenario\.tau_s\[1\]\[0\]"),
        ("errors", "dt_s", [[0], [2**1024]], r"errors\.dt_s\[1\]\[0\]")],
        ids=["pri_s", "tau_s", "dt_s"])
    def test_integers_beyond_a_double_are_rejected(self, section, field,
                                                   value, where):
        # float() of such an int raises OverflowError; the JSON text
        # round trip is how a recipe file delivers it
        doc = minimal_doc()
        doc.setdefault(section, {})[field] = value
        with pytest.raises(ExperimentError, match=where + ": must be finite"):
            parse_experiment(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("scenario, where", [
        ({"target": {"model": "fixed", "alpha_re": 1e308,
                     "alpha_im": 1e308}},
         r"scenario\.target: \|alpha\|\^2 = inf"),
        ({"target": {"model": "fixed", "alpha_re": 1e-200}},
         r"scenario\.target: \|alpha\|\^2 = 0\.0"),
        ({"target": {"model": "fixed", "alpha_re": 0.0}},
         r"scenario\.target: \|alpha\|\^2 = 0\.0")],
        ids=["alpha-overflow", "alpha-underflow", "alpha-zero"])
    def test_amplitudes_must_be_positive_and_finite(self, scenario, where):
        # xi_from_snr divides by |alpha|^2; an |alpha|^2 of zero or
        # beyond a double raised from below the parser
        doc = minimal_doc()
        doc["scenario"].update(scenario)
        with pytest.raises(ExperimentError, match=where):
            parse_experiment(doc)

    def test_bad_sweep_variable(self):
        doc = minimal_doc(sweep={"variable": "range_km", "start": 0.0,
                                 "stop": 1.0, "points": 2})
        with pytest.raises(ExperimentError, match="sweep.variable"):
            parse_experiment(doc)

    def test_single_point_sweep(self):
        doc = minimal_doc(sweep={"variable": "snr_db", "start": 0.0,
                                 "stop": 0.0, "points": 1})
        with pytest.raises(ExperimentError, match="sweep.points"):
            parse_experiment(doc)

    def test_nonfinite_sweep(self):
        doc = minimal_doc(sweep={"variable": "snr_db", "start": 0.0,
                                 "stop": float("inf"), "points": 3})
        with pytest.raises(ExperimentError, match="sweep.stop"):
            parse_experiment(doc)

    @pytest.mark.parametrize("field, value", [
        ("trials", 0), ("seed", -1), ("seed", 2**63)])
    def test_trials_and_seed_bounds(self, field, value):
        with pytest.raises(ExperimentError, match=f"\\$.{field}"):
            parse_experiment(minimal_doc(**{field: value}))

    def test_pfa_bounds(self):
        with pytest.raises(ExperimentError, match="pfa_target"):
            parse_experiment(minimal_doc(pfa_target=1.0))

    def test_offset_sweep_needs_two_tx(self):
        doc = minimal_doc(sweep={"variable": "delay_offset", "start": 0.0,
                                 "stop": 0.2, "points": 3})
        doc["scenario"]["m_tx"] = 1
        with pytest.raises(ExperimentError, match="2 transmitters"):
            parse_experiment(doc)

    def test_unknown_detector(self):
        with pytest.raises(ExperimentError, match=r"detectors\[1\]"):
            parse_experiment(minimal_doc(detectors=["NCD", "XYZ"]))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError, match="invalid JSON"):
            load_experiment(path)


class TestSweepApplication:
    def test_snr_db_sets_common_level(self):
        spec = parse_experiment(minimal_doc())
        sc = scenario_at(spec, -3.0)
        snr = sc.xi ** 2
        assert np.allclose(10 * np.log10(snr), -3.0)

    def test_snr_offset_moves_second_path_only(self):
        doc = minimal_doc(sweep={"variable": "snr_offset_db", "start": -5.0,
                                 "stop": 5.0, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, 4.0)
        snr = 10 * np.log10(sc.xi ** 2)
        assert snr[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert snr[1, 0] == pytest.approx(4.0, abs=1e-12)

    def test_delay_offset_in_pulse_units(self):
        doc = minimal_doc(sweep={"variable": "delay_offset", "start": -0.4,
                                 "stop": 0.3, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, 0.25)
        assert sc.tau_s[1, 0] == pytest.approx(
            sc.tau_s[0, 0] + 0.25 * sc.pulses[0].t_p)

    def test_phase_offset_in_pi_units(self):
        doc = minimal_doc(sweep={"variable": "phase_offset", "start": -1.0,
                                 "stop": 1.0, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, 0.5)
        assert sc.psi_rad[1, 0] == pytest.approx(
            sc.psi_rad[0, 0] + 0.5 * math.pi)

    def test_doppler_offset_in_hz(self):
        doc = minimal_doc(sweep={"variable": "doppler_offset", "start": -50.0,
                                 "stop": 50.0, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, -20.0)
        assert sc.doppler_hz[1, 0] == pytest.approx(
            sc.doppler_hz[0, 0] - 20.0)


class TestSweepRule:
    # variable: (the Scenario array it moves, its unit at pulse_s = 1e-5)
    RULE = {"snr_offset_db": ("xi", 1.0), "delay_offset": ("tau_s", 1e-5),
            "phase_offset": ("psi_rad", math.pi),
            "doppler_offset": ("doppler_hz", 1.0), "snr_db": ("xi", 1.0)}

    @pytest.mark.parametrize("variable", list(RULE))
    def test_moves_one_array_at_every_rx(self, variable, tmp_path):
        field, unit = self.RULE[variable]
        doc = minimal_doc(detectors=["NCD"], sweep={
            "variable": variable, "start": -0.5, "stop": 0.25, "points": 4})
        doc["scenario"].update(
            n_rx=3, pulse_s=1e-5, snr_db=[1.0, -2.0],
            tau_s=[[1e-5, 2e-5, 3e-5], [4e-5, 5e-5, 6e-5]],
            doppler_hz=[[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]],
            psi_rad=[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        spec = parse_experiment(doc)
        assert spec.sweep_unit == unit
        before = spec.scenario
        sc = scenario_at(spec, 0.25)
        for f in dataclasses.fields(sc):
            if f.name != field:
                a, b = getattr(sc, f.name), getattr(before, f.name)
                assert (a.tobytes() == b.tobytes()
                        if isinstance(a, np.ndarray) else a == b), f.name
        want = np.array(getattr(before, field))
        if variable == "snr_db":
            want[:] = xi_from_snr(0.25, before.target.mean_rcs)
        elif variable == "snr_offset_db":
            want[1] = xi_from_snr(1.0 + 0.25, before.target.mean_rcs)
        else:
            want[1] = want[0] + 0.25 * unit
        assert getattr(sc, field).tobytes() == want.tobytes()
        # the written SI value is value * unit
        path, out = tmp_path / "exp.json", tmp_path / "a.csv"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--experiment", str(path),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["sweep_value_si"] for r in rows] == [
            f"{v * unit:.12g}" for v in spec.sweep_values]


class TestShippedRecipes:
    def test_all_recipes_parse(self):
        import pathlib
        recipes = sorted(pathlib.Path("recipes").glob("*.json"))
        assert len(recipes) >= 8
        for path in recipes:
            spec = load_experiment(path)
            assert len(spec.sweep_values) >= 2
