"""Tests for the matched-filter output model."""

import cmath
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dmimo import cli, scene
from dmimo.detectors import CompensationSet
from dmimo.presets import PULSE_S, reference_scenario
from dmimo.scene import (
    Scenario,
    SyncErrors,
    Swerling1,
    _model_factors,
    colocated_scenario,
    doppler_steering,
    noise_free_mf_output,
    xi_from_snr,
)
from dmimo.waveforms import caf, multi_band_chirp
from oracles import link_budget_xi, sample_pulse, slow_time_sample


def scalar_cube(sc, err, alpha):
    out = np.zeros((sc.m_tx, sc.n_rx, sc.k_pulses), dtype=complex)
    for m in range(sc.m_tx):
        for n in range(sc.n_rx):
            for k in range(sc.k_pulses):
                out[m, n, k] = slow_time_sample(sc, err, alpha, m, n, k)
    return out


class TestDopplerSteering:
    def test_zero_doppler_is_all_ones(self):
        S = doppler_steering([0.0, 0.0], 9, 2e-3)
        assert np.allclose(S, 1.0)

    def test_reference_doppler_column(self):
        S = doppler_steering([200.0], 12, 2e-3)
        k = np.arange(12)
        assert np.allclose(S[:, 0], np.exp(2j * np.pi * 0.4 * k))

    def test_column_norms(self):
        S = doppler_steering([200.0, -137.5], 12, 2e-3)
        for m in range(2):
            assert np.vdot(S[:, m], S[:, m]).real == pytest.approx(12.0)

    def test_first_row_all_ones(self):
        S = doppler_steering([55.0, -3.0, 410.0], 7, 1e-3)
        assert np.allclose(S[0], 1.0)

    def test_stacked_rows_match_single_calls(self):
        f = np.array([[55.0, -3.0, 410.0], [120.0, 7.5, -260.0]])
        S = doppler_steering(f, 7, 1e-3)
        assert S.shape == (2, 7, 3)
        for n in range(2):
            assert np.array_equal(S[n], doppler_steering(f[n], 7, 1e-3))


class TestAfMatrix:
    """The ambiguity diagonals X[m, n, mb] of the model builder."""

    def test_colocated_selector(self, ref_scenario, zero_err):
        co = colocated_scenario(ref_scenario)
        _, X, _ = _model_factors(co, zero_err)
        assert X[0, 0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-9)
        assert X[0, 0, 1] == 0.0
        # only the auto entry of each MF survives
        assert np.count_nonzero(X[:, 0] * (1 - np.eye(2))) == 0

    def test_reference_cross_entry_against_trapezoid(self, ref_scenario, zero_err):
        # [X_11]_22 = chi_12(0.51 T_p, -10 Hz), dense trapezoid oracle
        _, X, _ = _model_factors(ref_scenario, zero_err)
        a, b = ref_scenario.pulses
        nu = 0.51 * PULSE_S
        mu = np.linspace(nu, PULSE_S, 2 ** 16)
        integ = (sample_pulse(a, mu) * np.conj(sample_pulse(b, mu - nu))
                 * np.exp(2j * np.pi * (-10.0) * mu))
        oracle = np.trapezoid(integ, mu)
        assert X[0, 0, 1] == pytest.approx(oracle, abs=1e-8)

    def test_auto_entry_is_unity_without_errors(self, ref_scenario, zero_err):
        _, X, _ = _model_factors(ref_scenario, zero_err)
        for m in range(2):
            assert X[m, 0, m] == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_entries_bounded_by_one(self, random_scenario):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sc, err = random_scenario(rng)
            _, X, _ = _model_factors(sc, err)
            assert X.shape == (sc.m_tx, sc.n_rx, sc.m_tx)
            assert np.all(np.abs(X) <= 1.0 + 1e-9)


class TestChannelVector:
    """The channel vectors h[m, n] of the model builder."""

    def test_all_neutral_gives_ones(self):
        tp = 1e-5
        sc = Scenario(
            pulses=(multi_band_chirp(1, 400e3, tp, 3.0),
                    multi_band_chirp(2, 400e3, tp, 3.0)),
            n_rx=1, k_pulses=4, pri_s=2e-3, carrier_hz=3e9,
            tau_s=np.zeros((2, 1)), doppler_hz=np.zeros((2, 1)),
            psi_rad=np.zeros((2, 1)), b=np.ones(2), xi=np.ones((2, 1)),
            sigma2=1.0, target=Swerling1(1.0))
        _, _, h = _model_factors(sc, SyncErrors.zeros(2, 1))
        assert np.allclose(h, 1.0)

    def test_reference_auto_entry(self, ref_scenario, zero_err):
        # direct substitution: b xi e^{j 0.1 pi} e^{-j 2 pi f_c tau_11}
        # e^{j 2 pi f_11 (tau_11 - tau_11)}
        _, _, h = _model_factors(ref_scenario, zero_err)
        b_xi = ref_scenario.b[0] * ref_scenario.xi[0, 0]
        expect = b_xi * cmath.exp(1j * (0.1 * math.pi
                                        - 2 * math.pi * 3e9 * 0.61e-5))
        assert h[0, 0, 0] == pytest.approx(expect, rel=1e-9)

    def test_entry_magnitudes(self, random_scenario):
        rng = np.random.default_rng(5)
        sc, err = random_scenario(rng)
        _, _, h = _model_factors(sc, err)
        assert h.shape == (sc.m_tx, sc.n_rx, sc.m_tx)
        for m in range(sc.m_tx):
            for n in range(sc.n_rx):
                assert np.allclose(np.abs(h[m, n]), sc.b * sc.xi[:, n])


class TestModelEquivalence:
    def test_zero_alpha(self, ref_scenario, zero_err):
        assert np.all(noise_free_mf_output(ref_scenario, zero_err, 0.0) == 0.0)

    def test_single_tx_closed_form(self):
        tp = 1e-5
        sc = Scenario(
            pulses=(multi_band_chirp(1, 400e3, tp, 3.0),),
            n_rx=1, k_pulses=6, pri_s=2e-3, carrier_hz=3e9,
            tau_s=np.array([[0.4 * tp]]), doppler_hz=np.array([[120.0]]),
            psi_rad=np.array([[0.7]]), b=np.array([1.3]),
            xi=np.array([[0.8]]), sigma2=1.0, target=Swerling1(1.0))
        alpha = 0.9 - 0.4j
        x = noise_free_mf_output(sc, SyncErrors.zeros(1, 1), alpha)
        k = np.arange(6)
        expect = (alpha * 1.3 * 0.8
                  * np.exp(-2j * np.pi * 3e9 * 0.4 * tp) * np.exp(0.7j)
                  * np.exp(2j * np.pi * k * 2e-3 * 120.0))
        assert np.allclose(x[0, 0], expect, rtol=1e-9)

    def test_factorized_equals_scalar_reference(self, ref_scenario, zero_err):
        alpha = 0.8 + 0.2j
        x = noise_free_mf_output(ref_scenario, zero_err, alpha)
        assert np.allclose(x, scalar_cube(ref_scenario, zero_err, alpha),
                           rtol=0, atol=1e-10 * np.abs(x).max())

    def test_factorized_equals_scalar_randomized(self, random_scenario):
        # 50 random draws over delays, Dopplers, phases, and sync errors
        rng = np.random.default_rng(17)
        for _ in range(50):
            sc, err = random_scenario(rng)
            alpha = complex(rng.normal(), rng.normal())
            x = noise_free_mf_output(sc, err, alpha)
            oracle = scalar_cube(sc, err, alpha)
            scale = max(np.abs(oracle).max(), 1e-30)
            assert np.abs(x - oracle).max() <= 1e-9 * scale

    def test_zero_error_instance_matches_explicit_reduction(self, ref_scenario):
        # Eqs. without sync terms, coded independently
        err0 = SyncErrors.zeros(2, 1)
        sc = ref_scenario
        S, X, h = _model_factors(sc, err0)
        assert np.array_equal(
            S[0], doppler_steering(sc.doppler_hz[:, 0], sc.k_pulses, sc.pri_s))
        for m in range(2):
            for mb in range(2):
                chi = caf(sc.pulses[m], sc.pulses[mb],
                          sc.tau_s[m, 0] - sc.tau_s[mb, 0],
                          sc.doppler_hz[mb, 0] - sc.doppler_hz[m, 0])
                assert X[m, 0, mb] == chi
                h_mb = (sc.b[mb] * sc.xi[mb, 0]
                        * cmath.exp(1j * sc.psi_rad[mb, 0])
                        * cmath.exp(-2j * math.pi * sc.carrier_hz * sc.tau_s[mb, 0])
                        * cmath.exp(2j * math.pi * sc.doppler_hz[m, 0]
                                    * (sc.tau_s[m, 0] - sc.tau_s[mb, 0])))
                assert h[m, 0, mb] == pytest.approx(h_mb, rel=1e-9)

    def test_global_phase_invariance_of_norm(self, ref_scenario, zero_err):
        x1 = noise_free_mf_output(ref_scenario, zero_err, 1.0)
        x2 = noise_free_mf_output(ref_scenario, zero_err, cmath.exp(0.9j))
        assert np.linalg.norm(x1) == pytest.approx(np.linalg.norm(x2), rel=1e-12)


class TestColocated:
    def test_parameters_constant_across_paths(self, ref_scenario):
        co = colocated_scenario(ref_scenario)
        assert np.ptp(co.tau_s) == 0.0
        assert np.ptp(co.doppler_hz) == 0.0
        assert np.ptp(co.psi_rad) == 0.0

    def test_no_cross_term_energy(self, ref_scenario, zero_err):
        co = colocated_scenario(ref_scenario)
        alpha = 1.1 - 0.3j
        x = noise_free_mf_output(co, zero_err, alpha)
        for m in range(2):
            mags = np.abs(x[m, 0])
            assert np.allclose(mags, abs(alpha) * co.b[m] * co.xi[m, 0],
                               rtol=1e-9)

    def test_scalar_form_matches(self, ref_scenario, zero_err):
        co = colocated_scenario(ref_scenario)
        alpha = 0.4 + 0.6j
        x = noise_free_mf_output(co, zero_err, alpha)
        assert np.allclose(x, scalar_cube(co, zero_err, alpha), rtol=1e-9)

    def test_energy_sum_collapses(self, ref_scenario, zero_err):
        # ||S X h||^2 summed over paths = K sum |b xi|^2 for the benchmark
        co = colocated_scenario(ref_scenario)
        x = noise_free_mf_output(co, zero_err, 1.0)
        total = np.sum(np.abs(x) ** 2)
        expect = co.k_pulses * np.sum((co.b[:, None] * co.xi) ** 2)
        assert total == pytest.approx(expect, rel=1e-9)


class TestLinkBudget:
    def test_inverse_square_scaling(self):
        base = link_budget_xi(1e3, 2e3, 1.0, 1.0, 0.1)
        assert link_budget_xi(2e3, 2e3, 1.0, 1.0, 0.1) == pytest.approx(base / 2)

    def test_direct_substitution(self):
        got = link_budget_xi(1e3, 1e3, 1.0, 1.0, 0.1)
        assert got == pytest.approx(math.sqrt(0.01 / ((4 * math.pi) ** 3 * 1e12)))

    def test_snr_consistency_with_back_solved_gain(self):
        # a scenario built from the link budget reproduces the same SNR as
        # one with the gain back-solved from that SNR
        xi = link_budget_xi(5e3, 7e3, 2.0, 2.0, 0.1)
        b, sigma2, rho_bar = 3.0, 1.0, 1.0
        snr_db = 10 * math.log10((b * xi) ** 2 * rho_bar / sigma2)
        assert xi_from_snr(snr_db, b, sigma2, rho_bar) == pytest.approx(xi, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            link_budget_xi(0.0, 1e3, 1.0, 1.0, 0.1)


class TestValidation:
    def test_delay_beyond_pri_rejected(self, ref_scenario):
        with pytest.raises(ValueError):
            replace(ref_scenario, tau_s=np.full((2, 1), 3e-3))

    def test_bad_shapes_rejected(self, ref_scenario):
        with pytest.raises(ValueError):
            replace(ref_scenario, doppler_hz=np.zeros((3, 1)))

    def test_scenario_arrays_immutable(self, ref_scenario):
        with pytest.raises(ValueError):
            ref_scenario.tau_s[0, 0] = 0.0


def _analyze_csv(tmp_path, doc, name):
    exp, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    exp.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--experiment", str(exp),
                     "--out", str(out)]) == 0
    return out.read_bytes()


class TestAmbiguityCache:
    def test_snr_sweep_evaluates_each_tensor_once(self, tmp_path,
                                                  monkeypatch):
        # the true model and the receiver's estimate are the only two
        # distinct CAF argument sets of an SNR sweep with sync errors
        M, N, points = 3, 2, 4
        doc = {
            "scenario": {
                "m_tx": M, "n_rx": N, "k_pulses": 8,
                "tau_s": [[0.0, 2e-6], [4e-6, 1e-6], [7e-6, 3e-6]],
                "doppler_hz": [[100.0, -50.0], [180.0, 20.0],
                               [260.0, 90.0]]},
            "errors": {"dt_s": [[1e-7, 2e-7], [0.0, 3e-7], [1e-7, 0.0]],
                       "df_hz": [[5.0, 0.0], [0.0, -4.0], [2.0, 1.0]]},
            "sweep": {"variable": "snr_db", "start": -5.0, "stop": 10.0,
                      "points": points},
        }
        calls = []
        real_caf = scene.caf
        monkeypatch.setattr(scene, "caf",
                            lambda *a: calls.append(a) or real_caf(*a))
        scene._ambiguity.cache_clear()
        _analyze_csv(tmp_path, doc, "snr")
        assert len(calls) == 2 * M * M * N

    def test_delay_sweep_matches_fresh_builds(self, tmp_path, monkeypatch):
        # every delay point needs new tensors; a stale hit would show as a
        # row that differs from a run that empties the cache before every
        # build
        doc = {
            "scenario": {"waveform_set": "single_band"},
            "errors": {"dt_s": [[2e-7], [-1e-7]], "df_hz": [[3.0], [0.0]]},
            "sweep": {"variable": "delay_offset", "start": -0.5,
                      "stop": 0.4, "points": 7},
            "colocated_benchmark": True,
        }
        scene._ambiguity.cache_clear()
        cached = _analyze_csv(tmp_path, doc, "cached")
        cached_again = _analyze_csv(tmp_path, doc, "cached_again")
        real = scene._ambiguity

        def fresh(*key):
            real.cache_clear()
            return real(*key)

        monkeypatch.setattr(scene, "_ambiguity", fresh)
        assert cached == cached_again == _analyze_csv(tmp_path, doc, "fresh")

    def test_shared_tensor_is_read_only(self, ref_scenario, zero_err):
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        _, X, _ = _model_factors(ref_scenario, zero_err)
        assert X is comp.X_hat
        with pytest.raises(ValueError):
            comp.X_hat[0, 0, 0] = 0.0
