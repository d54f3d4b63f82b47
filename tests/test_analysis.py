"""Tests for closed-form false-alarm/detection performance."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp
from scipy import integrate, stats

from dmimo import analysis
from dmimo.analysis import (
    ChiSquareLaw,
    DetectorKind,
    PerfPoint,
    Receiver,
    analyze_detector,
    law,
    noncentrality,
)
from dmimo.detectors import CompensationSet
from dmimo.experiments import parse_experiment, scenario_at
from dmimo.presets import ETA, KAPPA, reference_scenario
from dmimo.scene import (
    NonFluctuating,
    Scenario,
    SyncErrors,
    Swerling1,
    _model_factors,
    colocated_scenario,
    noise_free_mf_output,
)
from dmimo.specfun import inv_reg_upper_gamma, reg_upper_gamma
from dmimo.waveforms import PulseSpec, caf, pulse_set
from oracles import h0_statistic_distribution_check, noncentrality_formula

ALL = list(DetectorKind)
K, M, N = 12, 2, 1
FIXED = NonFluctuating(1.0)  # selects the Marcum-Q form of ChiSquareLaw.pd


@pytest.fixture
def ref_rx(ref_scenario, zero_err):
    return Receiver.build(ref_scenario, zero_err)


def single_tx_setup(dt=0.0):
    tp = 1e-5
    sc = Scenario(
        pulses=(PulseSpec(400e3, tp, 1.0, 3.0),),
        n_rx=1, k_pulses=12, pri_s=2e-3, carrier_hz=3e9,
        tau_s=np.array([[0.3 * tp]]), doppler_hz=np.array([[210.0]]),
        psi_rad=np.array([[0.4]]), xi=np.array([[0.9]]),
        target=Swerling1(1.0))
    err = SyncErrors(dt=np.array([[dt]]), df=np.zeros((1, 1)),
                     dp=np.zeros((1, 1)), dc_rx=np.zeros(1))
    return sc, err, Receiver.build(sc, err)


class TestNoncentrality:
    def test_single_tx_collapse(self):
        # with M=1, no errors, and ideal compensation the NCD/ACD/CD
        # noncentralities coincide at 2 rho xi^2 K
        sc, err, rx = single_tx_setup()
        rho = 1.8
        expect = 2.0 * rho * sc.xi[0, 0] ** 2 * sc.k_pulses
        for det in (DetectorKind.NCD, DetectorKind.ACD, DetectorKind.CD):
            lam = rho * noncentrality(det, rx)
            assert lam == pytest.approx(expect, rel=1e-9)

    def test_ncd_two_evaluations_agree(self, ref_rx, zero_err):
        sc = ref_rx.sc
        lam = noncentrality(DetectorKind.NCD, ref_rx)
        S, X, h = _model_factors(sc, zero_err)
        total = 0.0
        for m in range(sc.m_tx):
            x_m = S[0] @ (np.diag(X[m, 0]) @ h[m, 0])
            total += 2.0 * np.sum(np.abs(x_m) ** 2)
        assert lam == pytest.approx(total, rel=1e-10)

    def test_timing_error_snr_loss(self):
        # single TX: every detector's lambda scales by |chi(dt, 0)|^2 <= 1
        sc0, _, rx0 = single_tx_setup(0.0)
        dt = 0.35e-5
        _, _, rx1 = single_tx_setup(dt)
        loss = abs(caf(sc0.pulses[0], sc0.pulses[0], dt, 0.0)) ** 2
        assert loss < 1.0
        for det in ALL:
            lam0 = noncentrality(det, rx0)
            lam1 = noncentrality(det, rx1)
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
            pulses=pulse_set(waveform_set, M, 400e3, tp, ETA, KAPPA),
            n_rx=N, k_pulses=int(rng.integers(M, 17)), pri_s=2e-3,
            carrier_hz=3e9, tau_s=rng.uniform(0.3 * tp, 1.5 * tp, (M, N)),
            doppler_hz=rng.uniform(-300.0, 300.0, (M, N)),
            psi_rad=rng.uniform(-np.pi, np.pi, (M, N)),
            xi=rng.uniform(0.5, 2.0, (M, 1)) * rng.uniform(0.1, 1.0, (M, N)),
            target=Swerling1(1.0))
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
                want, want_vs = noncentrality_formula(det, sc, err, rho)
            except ValueError:
                # co-located HD: rank-deficient steering, both must raise
                with pytest.raises(ValueError):
                    noncentrality(det, rx)
                continue
            lam = rho * noncentrality(det, rx)
            assert lam == pytest.approx(want, rel=1e-12, abs=0.0), det
            assert analyze_detector(det, rx, 1e-4).varsigma == want_vs


    @pytest.mark.parametrize("seed", range(8))
    def test_lambda_quadratic_in_the_gains(self, seed, random_scenario):
        # lambda per unit RCS scales as xi^2 for every detector, also
        # where CD's T(x), which scales as xi^4, is subnormal or zero
        rng = np.random.default_rng(900 + seed)
        sc, err = random_scenario(rng)
        sc = replace(sc, tau_s=sc.tau_s + 0.3e-5)  # keeps tau + dt >= 0
        rx = Receiver.build(sc, err)
        for scale in (1e-80, 1e-100, 1e-150):
            small = Receiver.build(replace(sc, xi=sc.xi * scale), err)
            for det in ALL:
                try:
                    want = noncentrality(det, rx) * scale ** 2
                except ValueError:  # HD on rank-deficient steering
                    continue
                assert noncentrality(det, small) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (det, scale)


class TestLaw:
    @pytest.mark.parametrize("det", ALL)
    def test_every_reader_takes_the_law(self, det, ref_rx, monkeypatch):
        # analysis.law is the single source of (p, c): doubling c there
        # halves the noncentrality, doubles a receiver's threshold and
        # doubles the scale the H0 check tests against
        lam = noncentrality(det, ref_rx)
        gamma = ref_rx.law(det).isf(1e-3)
        check = h0_statistic_distribution_check(det, ref_rx, 100, seed=1)
        original = analysis.law

        def doubled(*args):
            chi2 = original(*args)
            return ChiSquareLaw(chi2.p, 2.0 * chi2.c)

        monkeypatch.setattr(analysis, "law", doubled)
        assert noncentrality(det, ref_rx) == lam / 2.0
        assert ref_rx.law(det).isf(1e-3) == 2.0 * gamma
        got = h0_statistic_distribution_check(det, ref_rx, 100, seed=1)
        assert (got.order, got.scale) == (check.order, 2.0 * check.scale)

    def test_acd_scale_beyond_a_double_is_a_value_error(self):
        # K M N = 2 * 10**309 cannot be converted to a float; the law
        # itself rejects an infinite c, and law() names the detector
        with pytest.raises(ValueError, match="^ACD statistic scale c = inf "
                           "is not finite"):
            law(DetectorKind.ACD, 10**309, 2, 1)
        with pytest.raises(ValueError, match="^statistic scale c = inf is "
                           "not finite"):
            ChiSquareLaw(1, math.inf)

    @pytest.mark.parametrize("det", [DetectorKind.CD, None])
    def test_subnormal_scale_is_a_value_error(self, det):
        # c = varsigma below the least normal double has too few
        # significant bits for its threshold; the law itself rejects it
        # (det None), and law() names the detector
        name = f"{det.value} " if det else ""
        with pytest.raises(ValueError, match=re.escape(
                f"{name}statistic scale c = 1e-320 is not finite and at "
                "least 2.2250738585072014e-308")):
            law(det, 12, 2, 1, 1e-320) if det else ChiSquareLaw(1, 1e-320)


class TestPfa:
    @pytest.mark.parametrize("det", ALL)
    def test_zero_threshold(self, det):
        assert law(det, K, M, N, varsigma=5.0).sf(0.0) == 1.0

    def test_cd_log_inversion(self):
        vs = 37.5
        gamma = vs * math.log(1e4)
        assert law(DetectorKind.CD, K, M, N, vs).sf(
            gamma) == pytest.approx(1e-4, rel=1e-12)

    def test_ncd_matches_gamma_tail(self):
        for g in (5.0, 20.0, 46.6):
            assert law(DetectorKind.NCD, K, M, N).sf(g) == pytest.approx(
                reg_upper_gamma(24, g), rel=1e-13)

    @pytest.mark.parametrize("det", ALL)
    def test_monotone_in_gamma(self, det):
        gammas = np.linspace(0.0, 300.0, 40)
        chi2 = law(det, K, M, N, varsigma=10.0)
        vals = [chi2.sf(g) for g in gammas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_cd_requires_varsigma(self):
        with pytest.raises(ValueError):
            law(DetectorKind.CD, K, M, N).sf(1.0)


class TestThreshold:
    def test_acd_closed_form(self):
        got = law(DetectorKind.ACD, K, M, N).isf(1e-4)
        assert got == pytest.approx(24.0 * math.log(1e4), rel=1e-12)
        assert got == pytest.approx(221.0482, abs=1e-3)

    @pytest.mark.parametrize("det", ALL)
    @pytest.mark.parametrize("p", [1e-2, 1e-4, 1e-6])
    def test_round_trip(self, det, p):
        vs = 12.0
        chi2 = law(det, K, M, N, vs)
        g = chi2.isf(p)
        assert chi2.sf(g) == pytest.approx(p, rel=1e-10)

    def test_ncd_order_24(self):
        got = law(DetectorKind.NCD, K, M, N).isf(1e-4)
        assert got == pytest.approx(inv_reg_upper_gamma(24, 1e-4), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_targets(self, p):
        with pytest.raises(ValueError):
            law(DetectorKind.NCD, K, M, N).isf(p)


class TestPdNonfluctuating:
    @pytest.mark.parametrize("det", ALL)
    def test_zero_lambda_reduces_to_pfa(self, det):
        chi2 = law(det, K, M, N, 8.0)
        g = chi2.isf(1e-3)
        assert chi2.pd(g, 0.0, FIXED) == pytest.approx(
            chi2.sf(g), rel=1e-10)

    @pytest.mark.parametrize("det", ALL)
    def test_zero_threshold(self, det):
        assert law(det, K, M, N, 8.0).pd(0.0, 5.0, FIXED) == 1.0

    @pytest.mark.parametrize("det", ALL)
    def test_monotone(self, det):
        chi2 = law(det, K, M, N, 8.0)
        g0 = chi2.isf(1e-4)
        lams = np.linspace(0.0, 80.0, 17)
        vals = [chi2.pd(g0, l, FIXED) for l in lams]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
        gammas = np.linspace(0.5 * g0, 2.0 * g0, 9)
        vals = [chi2.pd(g, 30.0, FIXED) for g in gammas]
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("call, message", [
    (lambda chi2: chi2.sf(-1.0), "threshold must be nonnegative"),
    (lambda chi2: chi2.pd(1.0, -1.0, FIXED),
     "lambda and gamma must be nonnegative"),
    (lambda chi2: chi2.pd(-1.0, 1.0, Swerling1(1.0)),
     "lambda and gamma must be nonnegative")],
    ids=["sf-negative-gamma", "pd-negative-lambda", "pd-negative-gamma"])
def test_law_rejections(call, message):
    with pytest.raises(ValueError) as exc:
        call(ChiSquareLaw(4, 1.0))
    assert str(exc.value) == message


class TestPdSwerling1:
    def test_zero_threshold_detects_surely(self):
        assert ChiSquareLaw(4, 1.0).pd(0.0, 3.0, Swerling1(1.0)) == 1.0

    @pytest.mark.parametrize("det", ALL)
    def test_invisible_target(self, det):
        chi2 = law(det, K, M, N, 8.0)
        g = chi2.isf(1e-4)
        assert chi2.pd(g, 0.0, Swerling1(1.0)) == pytest.approx(
            chi2.sf(g), rel=1e-10)

    @pytest.mark.parametrize("p", [1, 24, 4096])
    @pytest.mark.parametrize("pfa_target", [1e-2, 1e-4, 1e-8])
    def test_invisible_target_is_the_false_alarm_rate_exactly(
            self, p, pfa_target):
        # at lam = 0 the series term is 0 * prefactor * (1/p) = +0.0, so
        # the Swerling I form adds nothing to Q(p, g), bit for bit
        chi2 = ChiSquareLaw(p, 1.0)
        g = chi2.isf(pfa_target)
        assert 0.0 < chi2.sf(g) < 1.0
        assert chi2.pd(g, 0.0, Swerling1(1.0)) == chi2.sf(g)

    @pytest.mark.parametrize("det", ALL)
    def test_vanishing_mean_rcs_limit(self, det):
        chi2 = law(det, K, M, N, 8.0)
        g = chi2.isf(1e-4)
        got = chi2.pd(g, 40.0 * 1e-12, Swerling1(1e-12))
        assert got == pytest.approx(chi2.sf(g), rel=1e-6)

    @pytest.mark.parametrize("det", ALL)
    @pytest.mark.parametrize("snr_db", [-10.0, -5.0, 0.0, 5.0, 10.0])
    def test_matches_quadrature_average(self, det, snr_db, zero_err):
        # primary correctness check: closed form vs direct integration of
        # the exponential-RCS average, 1e-6 absolute
        sc = reference_scenario("multi_band", snr_db=(snr_db, snr_db))
        rx = Receiver.build(sc, zero_err)
        lam_prime = noncentrality(det, rx)
        chi2 = rx.law(det)
        g = chi2.isf(1e-4)
        closed = chi2.pd(g, lam_prime, Swerling1(1.0))
        quad, err_est = integrate.quad(
            lambda r: math.exp(-r) * chi2.pd(g, lam_prime * r, FIXED),
            0.0, 60.0, limit=300)
        assert abs(closed - quad) <= 1e-6

    @pytest.mark.parametrize("p, bound", [(1, 1e-13), (4, 1e-13),
                                          (24, 1e-13), (4096, 1e-11)])
    def test_pinned_to_mpmath(self, p, bound):
        # Q(p, g) + (lam'/denom) g^p e^-g 1F1(1; p+1; z) / p! at 50
        # digits, z = g lam'/denom; above z = p the 1F1 is read from the
        # regularized lower gamma P(p, z) = z^p e^-z 1F1(1; p+1; z) / p!.
        # Worst seen 8.5e-15 for p <= 24 and 3.5e-12 at p = 4096.
        above = 0
        for pfa_target in (1e-2, 1e-4, 1e-8):
            g = inv_reg_upper_gamma(p, pfa_target)
            for lam_prime in np.geomspace(0.01, 1e6, 9):
                got = ChiSquareLaw(p, 1.0).pd(g, float(lam_prime),
                                             Swerling1(1.0))
                with mp.workdps(50):
                    x, lam = mp.mpf(g), mp.mpf(float(lam_prime))
                    denom = lam + 2
                    z = x * lam / denom
                    above += z > p + 1
                    kummer = (mp.hyp1f1(1, p + 1, z) if z < p else
                              mp.gammainc(p, 0, z, regularized=True)
                              * mp.factorial(p) * mp.exp(z) / z ** p)
                    want = (mp.gammainc(p, x, mp.inf, regularized=True)
                            + lam * x ** p * mp.exp(-x)
                            * kummer / (mp.factorial(p) * denom))
                    assert abs(got - want) <= bound * want, (pfa_target,
                                                             lam_prime)
        assert above > 0

    @pytest.mark.parametrize("p, g", [(1, 750.0), (1, 800.0), (5, 760.0)])
    def test_series_overflow_is_an_error(self, p, g):
        # Q(p, g) is below the smallest double and the series at
        # z = g lam'/(lam' + 2) is beyond the largest: the product read
        # inf or nan, clamped to 1 or 0, where the average is about 0.86
        with pytest.raises(ValueError, match="overflows a double"):
            ChiSquareLaw(p, 1.0).pd(g, 1e4, Swerling1(1.0))

    @pytest.mark.parametrize("det", ALL)
    def test_pinned_to_scipy_down_to_pfa_1e_10(self, det, zero_err):
        # the closed form against scipy quadrature of the noncentral
        # chi-square tail over the exponential RCS; worst seen 1.1e-14
        order = {DetectorKind.NCD: K * M * N, DetectorKind.ACD: 1,
                 DetectorKind.CD: 1, DetectorKind.HD: N * M * M}[det]
        for snr_db in (-10.0, 5.0, 20.0):
            sc = reference_scenario("multi_band", snr_db=(snr_db, snr_db))
            rx = Receiver.build(sc, zero_err)
            lam_prime = noncentrality(det, rx)
            scale = {DetectorKind.NCD: 1.0, DetectorKind.ACD: K * M * N,
                     DetectorKind.CD: rx.varsigma, DetectorKind.HD: 1.0}[det]
            for pfa_target in (1e-4, 1e-6, 1e-8, 1e-10):
                g = rx.law(det).isf(pfa_target)
                closed = rx.law(det).pd(g, lam_prime, Swerling1(1.0))
                want, _ = integrate.quad(
                    lambda r: math.exp(-r) * stats.ncx2.sf(
                        2.0 * g / scale, 2 * order, lam_prime * r),
                    0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
                assert closed == pytest.approx(want, rel=1e-12)


class TestReceiverBuild:
    def test_phasors_shared_across_snrs(self):
        # theta_hat does not depend on the SNR, so the builds at two
        # points of an snr_db sweep share one read-only phasor array,
        # bit for bit the exp(j theta_hat) of a fresh compensation set
        spec = parse_experiment({
            "scenario": {"waveform_set": "multi_band"},
            "errors": {"df_hz": [[3.0], [-2.0]], "dp_rad": [[0.1], [0.2]]},
            "sweep": {"variable": "snr_db", "start": -4.0, "stop": 4.0,
                      "points": 2},
            "pfa_target": 1e-4})
        scs = [scenario_at(spec, v) for v in spec.sweep_values]
        low, high = (Receiver.build(sc, spec.errors) for sc in scs)
        assert not np.array_equal(low.x, high.x)
        assert low.phasors is high.phasors
        assert not low.phasors.flags.writeable
        theta = CompensationSet.from_scenario(scs[0], spec.errors).theta_hat
        assert low.phasors.tobytes() == np.exp(1j * theta).tobytes()


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
            assert pt.pd >= 1e-4

    def test_nonfluctuating_target_path(self, ref_scenario, zero_err):
        from dataclasses import replace

        from dmimo.scene import NonFluctuating
        sc = replace(ref_scenario, target=NonFluctuating(1.0 + 0.0j))
        rx = Receiver.build(sc, zero_err)
        pt = analyze_detector(DetectorKind.NCD, rx, 1e-4)
        lam = noncentrality(DetectorKind.NCD, rx)
        expect = law(DetectorKind.NCD, K, M, N).pd(pt.gamma, lam, FIXED)
        assert pt.pd == pytest.approx(expect, rel=1e-12)

    def test_perfpoint_validation(self):
        with pytest.raises(ValueError):
            PerfPoint(DetectorKind.CD, 1.0, 0.5, 1.0, varsigma=None)
        with pytest.raises(ValueError):
            PerfPoint(DetectorKind.NCD, 1.0, 0.5, -1.0)
