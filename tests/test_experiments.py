"""Tests for experiment file parsing and sweep construction."""

import json
import math

import numpy as np
import pytest

from dmimo.analysis import DetectorKind
from dmimo.experiments import (
    ExperimentError,
    load_experiment,
    parse_experiment,
    scenario_at,
    sweep_value_si,
)
from dmimo.scene import NonFluctuating, Swerling1


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
        assert spec.errors.is_zero

    def test_snr_sets_xi(self):
        spec = parse_experiment(minimal_doc(
            scenario={"waveform_set": "multi_band", "snr_db": [0.0, -6.0]}))
        sc = spec.scenario
        snr = (sc.b[:, None] * sc.xi) ** 2 / sc.sigma2
        assert 10 * np.log10(snr[0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert 10 * np.log10(snr[1, 0]) == pytest.approx(-6.0, abs=1e-12)

    def test_fixed_target(self):
        doc = minimal_doc()
        doc["scenario"]["target"] = {"model": "fixed", "alpha_re": 0.6,
                                     "alpha_im": -0.8}
        spec = parse_experiment(doc)
        assert isinstance(spec.scenario.target, NonFluctuating)
        assert spec.rho_mean == pytest.approx(1.0)

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
        snr = (sc.b[:, None] * sc.xi) ** 2 / sc.sigma2
        assert np.allclose(10 * np.log10(snr), -3.0)

    def test_snr_offset_moves_second_path_only(self):
        doc = minimal_doc(sweep={"variable": "snr_offset_db", "start": -5.0,
                                 "stop": 5.0, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, 4.0)
        snr = 10 * np.log10((sc.b[:, None] * sc.xi) ** 2 / sc.sigma2)
        assert snr[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert snr[1, 0] == pytest.approx(4.0, abs=1e-12)

    def test_delay_offset_in_pulse_units(self):
        doc = minimal_doc(sweep={"variable": "delay_offset", "start": -0.4,
                                 "stop": 0.3, "points": 3})
        spec = parse_experiment(doc)
        sc = scenario_at(spec, 0.25)
        assert sc.tau_s[1, 0] == pytest.approx(
            sc.tau_s[0, 0] + 0.25 * spec.pulse_s)

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

    def test_si_conversions(self):
        assert sweep_value_si("delay_offset", 0.5, 1e-5) == pytest.approx(5e-6)
        assert sweep_value_si("phase_offset", 0.5, 1e-5) == pytest.approx(
            0.5 * math.pi)
        assert sweep_value_si("snr_db", -3.0, 1e-5) == -3.0


class TestShippedRecipes:
    def test_all_recipes_parse(self):
        import pathlib
        recipes = sorted(pathlib.Path("recipes").glob("*.json"))
        assert len(recipes) >= 8
        for path in recipes:
            spec = load_experiment(path)
            assert len(spec.sweep_values) >= 2
