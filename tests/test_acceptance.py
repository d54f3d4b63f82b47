"""Acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line regardless of pytest capture settings.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from dmimo.analysis import (
    DetectorKind,
    Receiver,
    analyze_detector,
    noncentrality,
    pd_nonfluctuating,
    pd_swerling1,
    statistic,
    threshold,
)
from dmimo.detectors import cd_statistic
from dmimo.experiments import load_experiment, parse_experiment, scenario_at
from dmimo.montecarlo import TrialConfig, run_sweep
from dmimo.presets import reference_scenario
from dmimo.scene import (
    Scenario,
    Swerling1,
    SyncErrors,
    colocated_scenario,
    doppler_steering,
    noise_free_mf_output,
)
from dmimo.waveforms import caf, down_chirp, multi_band_chirp, up_chirp
from oracles import (
    alpha_mle,
    beta_mle,
    caf_symmetry_partner,
    h0_statistic_distribution_check,
    slow_time_sample,
)

ALL = list(DetectorKind)
ZERO = SyncErrors.zeros(2, 1)
RECIPES = Path(__file__).resolve().parent.parent / "recipes"


RESULT_LINES = []


def report(number, name, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {verdict}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def operating_points(sc, err, pfa=1e-4):
    rx = Receiver.build(sc, err)
    return rx, {d: analyze_detector(d, rx, pfa) for d in ALL}


def test_1_analytic_monte_carlo_match():
    ok = True
    trials = 100_000
    for i, snr in enumerate((-5.0, 0.0, 5.0)):
        sc = reference_scenario("multi_band", snr_db=(snr, snr))
        rx, pts = operating_points(sc, ZERO)
        cfg = TrialConfig(trials=trials, seed=900 + i,
                          target_draw=Swerling1(1.0))
        counts = run_sweep([(rx, {d: pts[d].gamma for d in ALL}, cfg)])[0]
        for d in ALL:
            sigma = math.sqrt(pts[d].pd * (1 - pts[d].pd) / trials)
            ok &= abs(counts[d] / trials - pts[d].pd) <= 3 * sigma
    report(1, "analytic vs Monte Carlo detection probability", ok)


def test_2_false_alarm_calibration():
    trials = 1_000_000
    pf = 1e-4
    sc = reference_scenario("multi_band")
    rx, pts = operating_points(sc, ZERO, pf)
    cfg = TrialConfig(trials=trials, seed=41)
    counts = run_sweep([(rx, {d: pts[d].gamma for d in ALL}, cfg)])[0]
    sigma = math.sqrt(pf * (1 - pf) / trials)
    ok = all(abs(counts[d] / trials - pf) <= 3 * sigma for d in ALL)
    report(2, "empirical false-alarm calibration at 1e6 trials", ok)


def test_3_h0_distribution_gates():
    sc = reference_scenario("multi_band")
    rx = Receiver.build(sc, ZERO)
    ok = True
    for i, d in enumerate(ALL):
        rep = h0_statistic_distribution_check(d, rx, 100_000, seed=60 + i)
        ok &= rep.ks_distance < 0.005
    report(3, "chi-square distribution KS gates", ok)


def test_4_swerling_closed_form_vs_quadrature():
    ok = True
    for d in ALL:
        for snr in (-10.0, -5.0, 0.0, 5.0, 10.0):
            sc = reference_scenario("multi_band", snr_db=(snr, snr))
            rx = Receiver.build(sc, ZERO)
            lam_prime, chi2 = noncentrality(d, rx, 1.0), rx.law(d)
            g = threshold(chi2, 1e-4)
            closed = pd_swerling1(chi2, g, lam_prime, 1.0)
            quad, _ = integrate.quad(
                lambda r: math.exp(-r) * pd_nonfluctuating(
                    chi2, g, lam_prime * r),
                0.0, 60.0, limit=300)
            ok &= abs(closed - quad) <= 1e-6
    report(4, "Swerling average vs direct quadrature", ok)


def test_5a_cd_dominates_acd():
    ok = True
    for off in (-6.0, -3.0, 3.0, 6.0):
        _, pts = operating_points(
            reference_scenario("multi_band", snr_db=(0.0, off)), ZERO)
        ok &= pts[DetectorKind.CD].pd > pts[DetectorKind.ACD].pd
    _, pts = operating_points(
        reference_scenario("single_band", snr_db=(0.0, 0.0)), ZERO)
    ok &= pts[DetectorKind.CD].pd > pts[DetectorKind.ACD].pd
    report("5a", "CD above ACD under unequal SNR and single-band pulses", ok)


def test_5b_equal_snr_ordering():
    ok = True
    for snr in (-5.0, 0.0, 5.0):
        _, pts = operating_points(
            reference_scenario("multi_band", snr_db=(snr, snr)), ZERO)
        ok &= (pts[DetectorKind.NCD].pd <= pts[DetectorKind.HD].pd
               <= pts[DetectorKind.ACD].pd)
    report("5b", "NCD <= HD <= ACD at equal SNR", ok)


def test_5c_phase_errors_affect_cd_only():
    perr = SyncErrors(
        dt=np.zeros((2, 1)), df=np.zeros((2, 1)),
        dp=np.array([[0.053 * math.pi], [0.79 * math.pi]]),
        dc_rx=np.zeros(1))
    ok = True
    for snr in (-5.0, 0.0, 5.0):
        sc = reference_scenario("multi_band", snr_db=(snr, snr))
        _, clean = operating_points(sc, ZERO)
        _, dirty = operating_points(sc, perr)
        ok &= dirty[DetectorKind.NCD].pd == clean[DetectorKind.NCD].pd
        ok &= dirty[DetectorKind.HD].pd == clean[DetectorKind.HD].pd
        ok &= dirty[DetectorKind.ACD].pd < clean[DetectorKind.ACD].pd
        ok &= dirty[DetectorKind.CD].pd < clean[DetectorKind.CD].pd
    report("5c", "phase errors leave NCD and HD bit-identical, degrade ACD "
           "and CD", ok)


def test_5d_doppler_errors():
    ferr = SyncErrors(
        dt=np.zeros((2, 1)), df=np.array([[-25.0], [10.0]]),
        dp=np.zeros((2, 1)), dc_rx=np.zeros(1))
    ok = True
    for snr in (-5.0, 0.0, 5.0):
        sc = reference_scenario("multi_band", snr_db=(snr, snr))
        _, clean = operating_points(sc, ZERO)
        _, dirty = operating_points(sc, ferr)
        ncd0, ncd1 = clean[DetectorKind.NCD].pd, dirty[DetectorKind.NCD].pd
        ok &= abs(ncd1 / ncd0 - 1.0) < 2e-4
        ok &= dirty[DetectorKind.ACD].pd < clean[DetectorKind.ACD].pd
        ok &= dirty[DetectorKind.CD].pd < clean[DetectorKind.CD].pd
        ok &= dirty[DetectorKind.HD].pd < clean[DetectorKind.HD].pd
        ok &= dirty[DetectorKind.HD].pd > dirty[DetectorKind.CD].pd
    report("5d", "Doppler errors spare NCD, degrade ACD, CD and HD with "
           "HD > CD", ok)


def test_5f_timing_errors_lose_snr():
    # the abstract: timing errors impact every detector and "result in a
    # loss in the SNR", so each lambda falls by one factor at every SNR
    spec = load_experiment(RECIPES / "timing_errors.json")
    factors = {d: [] for d in ALL}
    ok = True
    for snr in (-10.0, -5.0, -3.0, 0.0, 5.0, 7.0):
        sc = scenario_at(spec, snr)
        _, clean = operating_points(sc, ZERO, spec.pfa_target)
        _, dirty = operating_points(sc, spec.errors, spec.pfa_target)
        for d in ALL:
            ok &= dirty[d].pd < clean[d].pd
            factors[d].append(dirty[d].lam / clean[d].lam)
    measured = {DetectorKind.NCD: 0.2730782, DetectorKind.HD: 0.2730782,
                DetectorKind.ACD: 0.2483900, DetectorKind.CD: 0.2486095}
    for d in ALL:
        ok &= all(f == pytest.approx(factors[d][0], rel=1e-12, abs=0.0)
                  for f in factors[d])
        ok &= factors[d][0] == pytest.approx(measured[d], abs=5e-8)
    report("5f", "timing errors lower every detector's Pd and scale its "
           "lambda by one factor at every SNR", ok)


def test_5e_distributed_crosses_colocated_benchmark():
    sweeps = (("delay_offset", -0.55, 0.35, 19),
              ("phase_offset", -1.0, 1.0, 21),
              ("doppler_offset", -60.0, 60.0, 25))
    dets = (DetectorKind.NCD, DetectorKind.ACD, DetectorKind.CD)
    ok = True
    for var, lo, hi, n in sweeps:
        spec = parse_experiment({
            "scenario": {"waveform_set": "single_band",
                         "snr_db": [0.0, 0.0]},
            "sweep": {"variable": var, "start": lo, "stop": hi,
                      "points": n}})
        diffs = {d: [] for d in dets}
        for v in spec.sweep_values:
            sc = scenario_at(spec, v)
            rx = Receiver.build(sc, ZERO)
            rx_co = Receiver.build(colocated_scenario(sc), ZERO)
            for d in dets:
                pd_dist = analyze_detector(d, rx, 1e-4).pd
                pd_co = analyze_detector(d, rx_co, 1e-4).pd
                diffs[d].append(pd_dist - pd_co)
        for d in dets:
            ok &= min(diffs[d]) < 0.0 < max(diffs[d])
    report("5e", "distributed system crosses the co-located benchmark", ok)


def _phase_law_geometries():
    """(scenario, errors): the reference scene and a directly built
    M = 4, N = 2 one, each without and with sync errors."""
    ref = reference_scenario("multi_band")
    ref_err = SyncErrors(dt=[[1e-6], [2e-6]], df=[[30.0], [-20.0]],
                         dp=[[0.3], [-0.5]], dc_rx=[0.0])
    rng = np.random.default_rng(514)
    M, N, tp = 4, 2, 1e-5
    sc4 = Scenario(
        pulses=tuple(multi_band_chirp(m + 1, 400e3, tp, 3.0)
                     for m in range(M)),
        n_rx=N, k_pulses=16, pri_s=2e-3, carrier_hz=3e9,
        tau_s=rng.uniform(0.5 * tp, 1.5 * tp, (M, N)),
        doppler_hz=rng.uniform(-300.0, 300.0, (M, N)),
        psi_rad=rng.uniform(-np.pi, np.pi, (M, N)),
        b=rng.uniform(0.5, 2.0, M), xi=rng.uniform(0.1, 1.0, (M, N)),
        sigma2=1.0, target=Swerling1(1.0))
    err4 = SyncErrors(dt=rng.uniform(-0.3 * tp, 0.3 * tp, (M, N)),
                      df=rng.uniform(-30.0, 30.0, (M, N)),
                      dp=rng.uniform(-np.pi, np.pi, (M, N)),
                      dc_rx=rng.uniform(-5.0, 5.0, N))
    return [(ref, SyncErrors.zeros(2, 1)), (ref, ref_err),
            (sc4, SyncErrors.zeros(M, N)), (sc4, err4)]


# the degree in the phase offset of each quantity 5g pins
PHASE_LAW_DEGREES = {"NCD lambda": 1, "HD lambda": 1, "ACD lambda": 2,
                     "CD lambda varsigma": 2, "CD varsigma": 1}


def _phase_law_quantities(sc, err, dpsi):
    """The quantities of PHASE_LAW_DEGREES with TX 2's phase moved by
    dpsi."""
    psi = sc.psi_rad.copy()
    psi[1] += dpsi
    rx = Receiver.build(replace(sc, psi_rad=psi), err)
    out = {f"{d.value} lambda": noncentrality(d, rx, 1.0) for d in ALL}
    out["CD lambda varsigma"] = out.pop("CD lambda") * rx.varsigma
    out["CD varsigma"] = rx.varsigma
    return out


def _trig_basis(phi, degree):
    cols = [np.ones_like(phi)]
    for k in range(1, degree + 1):
        cols += [np.cos(k * phi), np.sin(k * phi)]
    return np.stack(cols, axis=-1)


def _phase_law_residuals(sc, err):
    """Per quantity, the largest residual over 41 offsets in [-pi, pi] of
    the trigonometric polynomial of its degree through 2 degree + 1
    other offsets, relative to the largest value."""
    grid = np.linspace(-np.pi, np.pi, 41)
    values = [_phase_law_quantities(sc, err, phi) for phi in grid]
    out = {}
    for name, degree in PHASE_LAW_DEGREES.items():
        fit_at = 0.1 - np.pi + 2.0 * np.pi * np.arange(2 * degree + 1) \
            / (2 * degree + 1)
        at = [_phase_law_quantities(sc, err, phi)[name] for phi in fit_at]
        coef = np.linalg.solve(_trig_basis(fit_at, degree), at)
        y = np.array([v[name] for v in values])
        out[name] = (np.abs(_trig_basis(grid, degree) @ coef - y).max()
                     / np.abs(y).max())
    return out


def test_5g_exact_phase_law():
    # each statistic is quadratic in the return, and the return and the
    # CD templates are linear in exp(j psi_m); so, in the phase offset of
    # one TX, NCD's and HD's lambda are trigonometric polynomials of
    # degree 1, ACD's of degree 2, and CD's lambda varsigma of degree 2
    # over its varsigma of degree 1
    ok = True
    for sc, err in _phase_law_geometries():
        ok &= max(_phase_law_residuals(sc, err).values()) <= 1e-10
    report("5g", "lambda follows the exact phase law in the phase offset",
           ok)


def test_6_waveform_checks():
    sc = reference_scenario("multi_band")
    p1, p2 = sc.pulses
    ok = abs(caf(p1, p2, 0.0, 0.0)) < 1e-9
    auto_set = [p1, p2, up_chirp(400e3, 1e-5, 3.0), down_chirp(400e3, 1e-5, 3.0)]
    for p in auto_set:
        ok &= abs(caf(p, p, 0.0, 0.0) - 1.0) < 1e-9
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a, b = rng.choice(auto_set, size=2)
        nu = rng.uniform(-1e-5, 1e-5)
        f = rng.uniform(-5e4, 5e4)
        lhs = caf(a, b, nu, f)
        rhs = caf_symmetry_partner(a, b, nu, f)
        ok &= abs(lhs - rhs) < 1e-8
    report(6, "waveform orthogonality and symmetry", ok)


def test_7_model_equivalence(random_scenario):
    rng = np.random.default_rng(71)
    ok = True
    for _ in range(50):
        sc, err = random_scenario(rng)
        alpha = complex(rng.normal(), rng.normal())
        x = noise_free_mf_output(sc, err, alpha)
        oracle = np.array([[[slow_time_sample(sc, err, alpha, m, n, k)
                             for k in range(sc.k_pulses)]
                            for n in range(sc.n_rx)]
                           for m in range(sc.m_tx)])
        scale = max(np.abs(oracle).max(), 1e-30)
        ok &= np.abs(x - oracle).max() <= 1e-9 * scale
    report(7, "factorized model equals scalar evaluation", ok)


def test_8_glrt_identities():
    sc = reference_scenario("single_band")
    rx = Receiver.build(sc, ZERO)
    v = rx.templates
    varsigma = np.sum(np.abs(v) ** 2)
    # without sync errors the estimated Dopplers f + df are the true ones
    S_hat = doppler_steering(sc.doppler_hz.T, sc.k_pulses, sc.pri_s)[0]
    rng = np.random.default_rng(81)
    ok = True
    for _ in range(25):
        y = rng.normal(size=(2, 1, 12)) + 1j * rng.normal(size=(2, 1, 12))
        a_hat = alpha_mle(y, v)
        lhs = cd_statistic(y, v)
        ok &= abs(lhs - abs(a_hat) ** 2 * varsigma ** 2) <= 1e-9 * lhs
        hd = statistic(DetectorKind.HD, rx)(y)
        total = 0.0
        for m in range(2):
            beta = beta_mle(y[m, 0], S_hat)
            total += np.sum(np.abs(S_hat @ beta) ** 2)
        ok &= abs(hd - total) <= 1e-9 * hd
    report(8, "GLRT amplitude identities", ok)
