"""Tests for closed-form false-alarm/detection performance."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from dmimo import analysis
from dmimo.analysis import (
    DetectorKind,
    PerfPoint,
    Receiver,
    analyze_detector,
    law,
    noncentrality,
    pd_nonfluctuating,
    pd_swerling1,
    pfa,
    threshold,
)
from dmimo.montecarlo import h0_statistic_distribution_check
from dmimo.presets import reference_scenario
from dmimo.scene import (
    Scenario,
    SyncErrors,
    Swerling1,
    _model_factors,
    colocated_scenario,
    noise_free_mf_output,
)
from dmimo.specfun import inv_reg_upper_gamma, reg_upper_gamma
from dmimo.waveforms import caf, multi_band_chirp, pulse_set
from oracles import noncentrality_formula

ALL = list(DetectorKind)
K, M, N, S2 = 12, 2, 1, 1.0


@pytest.fixture
def ref_rx(ref_scenario, zero_err):
    return Receiver.build(ref_scenario, zero_err)


def single_tx_setup(dt=0.0):
    tp = 1e-5
    sc = Scenario(
        pulses=(multi_band_chirp(1, 400e3, tp, 3.0),),
        n_rx=1, k_pulses=12, pri_s=2e-3, carrier_hz=3e9,
        tau_s=np.array([[0.3 * tp]]), doppler_hz=np.array([[210.0]]),
        psi_rad=np.array([[0.4]]), b=np.array([1.0]),
        xi=np.array([[0.9]]), sigma2=1.0, target=Swerling1(1.0))
    err = SyncErrors(dt=np.array([[dt]]), df=np.zeros((1, 1)),
                     dp=np.zeros((1, 1)), dc_rx=np.zeros(1))
    return sc, err, Receiver.build(sc, err)


class TestNoncentrality:
    @pytest.mark.parametrize("det", ALL)
    def test_zero_rho(self, det, ref_rx):
        lam = noncentrality(det, ref_rx, 0.0)
        assert lam == 0.0

    @pytest.mark.parametrize("det", ALL)
    def test_linear_in_rho(self, det, ref_rx):
        lam1 = noncentrality(det, ref_rx, 1.0)
        lam3 = noncentrality(det, ref_rx, 3.7)
        assert lam3 == pytest.approx(3.7 * lam1, rel=1e-12)

    def test_single_tx_collapse(self):
        # with M=1, no errors, and ideal compensation the NCD/ACD/CD
        # noncentralities coincide at 2 rho (b xi)^2 K / sigma^2
        sc, err, rx = single_tx_setup()
        rho = 1.8
        expect = 2.0 * rho * (sc.b[0] * sc.xi[0, 0]) ** 2 * sc.k_pulses / sc.sigma2
        for det in (DetectorKind.NCD, DetectorKind.ACD, DetectorKind.CD):
            lam = noncentrality(det, rx, rho)
            assert lam == pytest.approx(expect, rel=1e-9)

    def test_ncd_two_evaluations_agree(self, ref_rx, zero_err):
        sc = ref_rx.sc
        lam = noncentrality(DetectorKind.NCD, ref_rx, 1.0)
        S, X, h = _model_factors(sc, zero_err)
        total = 0.0
        for m in range(sc.m_tx):
            x_m = S[0] @ (np.diag(X[m, 0]) @ h[m, 0])
            total += 2.0 * np.sum(np.abs(x_m) ** 2) / sc.sigma2
        assert lam == pytest.approx(total, rel=1e-10)

    def test_timing_error_snr_loss(self):
        # single TX: every detector's lambda scales by |chi(dt, 0)|^2 <= 1
        sc0, _, rx0 = single_tx_setup(0.0)
        dt = 0.35e-5
        _, _, rx1 = single_tx_setup(dt)
        loss = abs(caf(sc0.pulses[0], sc0.pulses[0], dt, 0.0)) ** 2
        assert loss < 1.0
        for det in ALL:
            lam0 = noncentrality(det, rx0, 1.0)
            lam1 = noncentrality(det, rx1, 1.0)
            assert lam1 <= lam0 + 1e-12
            if det in (DetectorKind.NCD, DetectorKind.HD):
                assert lam1 / lam0 == pytest.approx(loss, rel=1e-6)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_per_detector_formula(self, seed):
        # lambda = 2 rho T(x) / c against the formulas written out by hand,
        # on random scenarios with timing, frequency and phase errors; the
        # seed cycles both waveform sets and the co-located variant
        rng = np.random.default_rng(700 + seed)
        tp = 1e-5
        waveform_set = ("multi_band", "single_band")[seed % 2]
        M = int(rng.integers(1, 5)) if waveform_set == "multi_band" else 2
        N = int(rng.integers(1, 4))
        sc = Scenario(
            pulses=pulse_set(waveform_set, M, 400e3, tp),
            n_rx=N, k_pulses=int(rng.integers(M, 17)), pri_s=2e-3,
            carrier_hz=3e9, tau_s=rng.uniform(0.3 * tp, 1.5 * tp, (M, N)),
            doppler_hz=rng.uniform(-300.0, 300.0, (M, N)),
            psi_rad=rng.uniform(-np.pi, np.pi, (M, N)),
            b=rng.uniform(0.5, 2.0, M), xi=rng.uniform(0.1, 1.0, (M, N)),
            sigma2=rng.uniform(0.5, 2.0), target=Swerling1(1.0))
        if seed % 3 == 0:
            sc = colocated_scenario(sc)
        err = SyncErrors(dt=rng.uniform(-0.3 * tp, 0.3 * tp, (M, N)),
                         df=rng.uniform(-30.0, 30.0, (M, N)),
                         dp=rng.uniform(-np.pi, np.pi, (M, N)),
                         dc_rx=rng.uniform(-5.0, 5.0, N))
        rx = Receiver.build(sc, err)
        rho = rng.uniform(0.1, 3.0)
        for det in ALL:
            try:
                want, want_vs = noncentrality_formula(det, sc, err, rx.comp,
                                                      rho)
            except ValueError:
                # co-located HD: rank-deficient steering, both must raise
                with pytest.raises(ValueError):
                    noncentrality(det, rx, rho)
                continue
            lam = noncentrality(det, rx, rho)
            assert lam == pytest.approx(want, rel=1e-12, abs=0.0), det
            assert analyze_detector(det, rx, 1e-4).varsigma == want_vs


class TestLaw:
    @pytest.mark.parametrize("det", ALL)
    def test_every_reader_takes_the_law(self, det, ref_rx, monkeypatch):
        # analysis.law is the single source of (p, c): doubling c there
        # halves the noncentrality, doubles a receiver's threshold and
        # doubles the scale the H0 check tests against
        lam = noncentrality(det, ref_rx, 1.0)
        gamma = threshold(ref_rx.law(det), 1e-3)
        check = h0_statistic_distribution_check(det, ref_rx, 100, seed=1)
        original = analysis.law

        def doubled(*args):
            p, c = original(*args)
            return p, 2.0 * c

        monkeypatch.setattr(analysis, "law", doubled)
        assert noncentrality(det, ref_rx, 1.0) == lam / 2.0
        assert threshold(ref_rx.law(det), 1e-3) == 2.0 * gamma
        got = h0_statistic_distribution_check(det, ref_rx, 100, seed=1)
        assert (got.order, got.scale) == (check.order, 2.0 * check.scale)


class TestPfa:
    @pytest.mark.parametrize("det", ALL)
    def test_zero_threshold(self, det):
        assert pfa(law(det, K, M, N, S2, varsigma=5.0), 0.0) == 1.0

    def test_cd_log_inversion(self):
        vs = 37.5
        gamma = vs * S2 * math.log(1e4)
        assert pfa(law(DetectorKind.CD, K, M, N, S2, vs),
                   gamma) == pytest.approx(1e-4, rel=1e-12)

    def test_ncd_matches_gamma_tail(self):
        for g in (5.0, 20.0, 46.6):
            assert pfa(law(DetectorKind.NCD, K, M, N, S2),
                       g) == pytest.approx(reg_upper_gamma(24, g), rel=1e-13)

    @pytest.mark.parametrize("det", ALL)
    def test_monotone_in_gamma(self, det):
        gammas = np.linspace(0.0, 300.0, 40)
        chi2 = law(det, K, M, N, S2, varsigma=10.0)
        vals = [pfa(chi2, g) for g in gammas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_cd_requires_varsigma(self):
        with pytest.raises(ValueError):
            pfa(law(DetectorKind.CD, K, M, N, S2), 1.0)


class TestThreshold:
    def test_acd_closed_form(self):
        got = threshold(law(DetectorKind.ACD, K, M, N, S2), 1e-4)
        assert got == pytest.approx(24.0 * math.log(1e4), rel=1e-12)
        assert got == pytest.approx(221.0482, abs=1e-3)

    @pytest.mark.parametrize("det", ALL)
    @pytest.mark.parametrize("p", [1e-2, 1e-4, 1e-6])
    def test_round_trip(self, det, p):
        vs = 12.0
        chi2 = law(det, K, M, N, S2, vs)
        g = threshold(chi2, p)
        assert pfa(chi2, g) == pytest.approx(p, rel=1e-10)

    def test_ncd_order_24(self):
        got = threshold(law(DetectorKind.NCD, K, M, N, S2), 1e-4)
        assert got == pytest.approx(S2 * inv_reg_upper_gamma(24, 1e-4), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_targets(self, p):
        with pytest.raises(ValueError):
            threshold(law(DetectorKind.NCD, K, M, N, S2), p)


class TestPdNonfluctuating:
    @pytest.mark.parametrize("det", ALL)
    def test_zero_lambda_reduces_to_pfa(self, det):
        chi2 = law(det, K, M, N, S2, 8.0)
        g = threshold(chi2, 1e-3)
        assert pd_nonfluctuating(chi2, g, 0.0) == pytest.approx(
            pfa(chi2, g), rel=1e-10)

    @pytest.mark.parametrize("det", ALL)
    def test_zero_threshold(self, det):
        assert pd_nonfluctuating(law(det, K, M, N, S2, 8.0), 0.0, 5.0) == 1.0

    @pytest.mark.parametrize("det", ALL)
    def test_monotone(self, det):
        chi2 = law(det, K, M, N, S2, 8.0)
        g0 = threshold(chi2, 1e-4)
        lams = np.linspace(0.0, 80.0, 17)
        vals = [pd_nonfluctuating(chi2, g0, l) for l in lams]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
        gammas = np.linspace(0.5 * g0, 2.0 * g0, 9)
        vals = [pd_nonfluctuating(chi2, g, 30.0) for g in gammas]
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))


class TestPdSwerling1:
    @pytest.mark.parametrize("det", ALL)
    def test_invisible_target(self, det):
        chi2 = law(det, K, M, N, S2, 8.0)
        g = threshold(chi2, 1e-4)
        assert pd_swerling1(chi2, g, 0.0, 1.0) == pytest.approx(
            pfa(chi2, g), rel=1e-10)

    @pytest.mark.parametrize("det", ALL)
    def test_vanishing_mean_rcs_limit(self, det):
        chi2 = law(det, K, M, N, S2, 8.0)
        g = threshold(chi2, 1e-4)
        got = pd_swerling1(chi2, g, 40.0, 1e-12)
        assert got == pytest.approx(pfa(chi2, g), rel=1e-6)

    @pytest.mark.parametrize("det", ALL)
    @pytest.mark.parametrize("snr_db", [-10.0, -5.0, 0.0, 5.0, 10.0])
    def test_matches_quadrature_average(self, det, snr_db, zero_err):
        # primary correctness check: closed form vs direct integration of
        # the exponential-RCS average, 1e-6 absolute
        sc = reference_scenario("multi_band", snr_db=(snr_db, snr_db))
        rx = Receiver.build(sc, zero_err)
        lam_prime = noncentrality(det, rx, 1.0)
        chi2 = rx.law(det)
        g = threshold(chi2, 1e-4)
        closed = pd_swerling1(chi2, g, lam_prime, 1.0)
        quad, err_est = integrate.quad(
            lambda r: math.exp(-r) * pd_nonfluctuating(
                chi2, g, lam_prime * r),
            0.0, 60.0, limit=300)
        assert abs(closed - quad) <= 1e-6


    @pytest.mark.parametrize("det", ALL)
    def test_pinned_to_scipy_down_to_pfa_1e_10(self, det, zero_err):
        # the closed form against scipy quadrature of the noncentral
        # chi-square tail over the exponential RCS; worst seen 1.1e-14
        order = {DetectorKind.NCD: K * M * N, DetectorKind.ACD: 1,
                 DetectorKind.CD: 1, DetectorKind.HD: N * M * M}[det]
        for snr_db in (-10.0, 5.0, 20.0):
            sc = reference_scenario("multi_band", snr_db=(snr_db, snr_db))
            rx = Receiver.build(sc, zero_err)
            lam_prime = noncentrality(det, rx, 1.0)
            scale = {DetectorKind.NCD: S2, DetectorKind.ACD: K * M * N * S2,
                     DetectorKind.CD: rx.varsigma * S2,
                     DetectorKind.HD: S2}[det]
            for pfa_target in (1e-4, 1e-6, 1e-8, 1e-10):
                g = threshold(rx.law(det), pfa_target)
                closed = pd_swerling1(rx.law(det), g, lam_prime, 1.0)
                want, _ = integrate.quad(
                    lambda r: math.exp(-r) * stats.ncx2.sf(
                        2.0 * g / scale, 2 * order, lam_prime * r),
                    0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
                assert closed == pytest.approx(want, rel=1e-12)


class TestAnalyzeDetector:
    def test_reference_ordering(self, ref_rx):
        # equal-SNR multi-band: NCD <= HD <= ACD <= CD
        pts = {d: analyze_detector(d, ref_rx, 1e-4) for d in ALL}
        assert pts[DetectorKind.NCD].pd <= pts[DetectorKind.HD].pd
        assert pts[DetectorKind.HD].pd <= pts[DetectorKind.ACD].pd
        assert pts[DetectorKind.ACD].pd <= pts[DetectorKind.CD].pd + 1e-9

    def test_pd_dominates_pfa(self, ref_rx):
        for d in ALL:
            pt = analyze_detector(d, ref_rx, 1e-4)
            assert pt.pd >= pt.pfa

    def test_nonfluctuating_target_path(self, ref_scenario, zero_err):
        from dataclasses import replace

        from dmimo.scene import NonFluctuating
        sc = replace(ref_scenario, target=NonFluctuating(1.0 + 0.0j))
        rx = Receiver.build(sc, zero_err)
        pt = analyze_detector(DetectorKind.NCD, rx, 1e-4)
        lam = noncentrality(DetectorKind.NCD, rx, 1.0)
        expect = pd_nonfluctuating(law(DetectorKind.NCD, K, M, N, S2),
                                   pt.gamma, lam)
        assert pt.pd == pytest.approx(expect, rel=1e-12)

    def test_perfpoint_validation(self):
        with pytest.raises(ValueError):
            PerfPoint(DetectorKind.CD, 1.0, 1e-4, 0.5, 1.0, varsigma=None)
        with pytest.raises(ValueError):
            PerfPoint(DetectorKind.NCD, 1.0, 1e-4, 0.5, -1.0)
