"""Tests for the seeded trial engine."""

import sys
import threading

import numpy as np
import pytest

from dmimo import analysis, montecarlo
from dmimo.analysis import DetectorKind, analyze_detector, threshold
from dmimo.detectors import (
    CompensationSet,
    acd_statistic,
    cd_statistic,
    doppler_projectors,
    hd_statistic,
    ncd_statistic,
)
from dmimo.montecarlo import (
    BLOCK_TRIALS,
    DistributionCheck,
    EmpiricalResult,
    TrialConfig,
    _block_rng,
    draw_noise,
    draw_swerling1_alpha,
    h0_statistic_distribution_check,
    run_trials,
)
from dmimo.scene import NonFluctuating, Swerling1, noise_free_mf_output
from oracles import iter_measurement_blocks

ALL = list(DetectorKind)


@pytest.fixture
def ref_setup(ref_scenario, zero_err):
    comp = CompensationSet.from_scenario(ref_scenario, zero_err)
    return ref_scenario, zero_err, comp


class TestDraws:
    def test_noise_moments(self):
        rng = _block_rng(7, 0)
        w = draw_noise(rng, 16, sigma2=2.5, shape=(20000,))
        assert abs(np.mean(w)) < 5 * np.sqrt(2.5 / (16 * 20000))
        assert np.mean(np.abs(w) ** 2) == pytest.approx(2.5, rel=0.01)

    def test_noise_determinism(self):
        a = draw_noise(_block_rng(3, 1), 8, shape=(4,))
        b = draw_noise(_block_rng(3, 1), 8, shape=(4,))
        assert np.array_equal(a, b)

    def test_noise_matches_componentwise_assembly(self):
        # oracle: the per-component normal draw, assembled as re + 1j*im
        shape, k, sigma2 = (5, 2, 1), 12, 2.5
        z = _block_rng(17, 3).normal(scale=np.sqrt(sigma2 / 2.0),
                                     size=shape + (k, 2))
        oracle = z[..., 0] + 1j * z[..., 1]
        got = draw_noise(_block_rng(17, 3), k, sigma2, shape)
        assert got.shape == oracle.shape
        assert got.tobytes() == oracle.tobytes()

    def test_alpha_moment(self):
        rng = _block_rng(11, 0)
        a = draw_swerling1_alpha(rng, 1.7, (100000,))
        assert np.mean(np.abs(a) ** 2) == pytest.approx(1.7, rel=0.02)

    def test_alpha_exponential_cdf(self):
        # |alpha|^2 should follow 1 - exp(-r / rho_bar)
        rng = _block_rng(13, 0)
        r = np.sort(np.abs(draw_swerling1_alpha(rng, 1.0, (100000,))) ** 2)
        ecdf = np.arange(1, r.size + 1) / r.size
        ks = np.max(np.abs(ecdf - (1.0 - np.exp(-r))))
        assert ks < 0.01

    def test_alpha_scalar_form(self):
        a = draw_swerling1_alpha(_block_rng(5, 0), 2.0)
        assert isinstance(a, complex)

    def test_alpha_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            draw_swerling1_alpha(_block_rng(0, 0), 0.0)


class TestTrialConfig:
    def test_h1_needs_target(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=10, seed=0, hypothesis="H1")

    def test_bad_hypothesis(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=10, seed=0, hypothesis="H2")

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0, seed=0, hypothesis="H0")


class TestDeterminism:
    def test_identical_runs(self, ref_setup):
        sc, err, comp = ref_setup
        gammas = {d: threshold(d, 1e-2, 12, 2, 1, 1.0,
                               np.sum(np.abs(comp.templates) ** 2))
                  for d in ALL}
        cfg = TrialConfig(trials=3000, seed=42, hypothesis="H1",
                          target_draw=Swerling1(1.0))
        r1 = run_trials(sc, err, comp, gammas, cfg)
        r2 = run_trials(sc, err, comp, gammas, cfg)
        for d in ALL:
            assert r1[d] == r2[d]

    def test_prefix_consistency_across_trial_counts(self, ref_setup):
        # the first block of a long run equals the whole of a short run
        sc, err, comp = ref_setup
        short = TrialConfig(trials=BLOCK_TRIALS, seed=9, hypothesis="H1",
                            target_draw=Swerling1(1.0))
        long = TrialConfig(trials=2 * BLOCK_TRIALS + 100, seed=9,
                           hypothesis="H1", target_draw=Swerling1(1.0))
        y_short = next(iter_measurement_blocks(sc, err, short))
        y_long = next(iter_measurement_blocks(sc, err, long))
        assert np.array_equal(y_short, y_long)

    def test_block_order_independent_counts(self, ref_setup):
        # counting is associative: summing per-block exceedances in
        # reversed order reproduces run_trials
        sc, err, comp = ref_setup
        gamma = threshold(DetectorKind.NCD, 1e-2, 12, 2, 1, 1.0)
        cfg = TrialConfig(trials=3 * BLOCK_TRIALS, seed=21, hypothesis="H0")
        blocks = list(iter_measurement_blocks(sc, err, cfg))
        total = sum(int(np.count_nonzero(ncd_statistic(y) > gamma))
                    for y in reversed(blocks))
        got = run_trials(sc, err, comp, {DetectorKind.NCD: gamma}, cfg)
        assert got[DetectorKind.NCD].detections == total

    def test_seed_changes_results(self, ref_setup):
        sc, err, comp = ref_setup
        gammas = {DetectorKind.NCD: threshold(DetectorKind.NCD, 0.5,
                                              12, 2, 1, 1.0)}
        runs = [run_trials(sc, err, comp, gammas,
                           TrialConfig(trials=2000, seed=s, hypothesis="H0"))
                for s in (1, 2)]
        assert (runs[0][DetectorKind.NCD].detections
                != runs[1][DetectorKind.NCD].detections)


class TestH0Calibration:
    @pytest.mark.parametrize("det", ALL)
    def test_exceedance_matches_pfa(self, det, ref_setup):
        sc, err, comp = ref_setup
        vs = float(np.sum(np.abs(comp.templates) ** 2))
        pf = 1e-2
        gamma = threshold(det, pf, 12, 2, 1, 1.0, vs)
        cfg = TrialConfig(trials=100000, seed=77, hypothesis="H0")
        res = run_trials(sc, err, comp, {det: gamma}, cfg)[det]
        sigma = np.sqrt(pf * (1 - pf) / cfg.trials)
        assert abs(res.p_hat - pf) <= 3 * sigma

    def test_result_bookkeeping(self):
        r = EmpiricalResult.from_counts(DetectorKind.CD, 250, 1000)
        assert r.p_hat == 0.25
        assert r.ci_halfwidth == pytest.approx(3 * np.sqrt(0.25 * 0.75 / 1000))


class TestH1Match:
    @pytest.mark.parametrize("det", ALL)
    def test_swerling_average_within_ci(self, det, ref_setup):
        sc, err, comp = ref_setup
        pt = analyze_detector(det, sc, err, comp, 1e-4)
        cfg = TrialConfig(trials=50000, seed=101, hypothesis="H1",
                          target_draw=Swerling1(1.0))
        res = run_trials(sc, err, comp, {det: pt.gamma}, cfg)[det]
        sigma = np.sqrt(pt.pd * (1 - pt.pd) / cfg.trials)
        assert abs(res.p_hat - pt.pd) <= 3 * sigma

    def test_fixed_alpha_noise_free_limit(self, ref_scenario, zero_err):
        from dataclasses import replace
        sc = replace(ref_scenario, sigma2=1e-12)
        comp = CompensationSet.from_scenario(sc, zero_err)
        gamma = threshold(DetectorKind.NCD, 1e-4, 12, 2, 1, sc.sigma2)
        cfg = TrialConfig(trials=500, seed=3, hypothesis="H1",
                          target_draw=NonFluctuating(1.0 + 0.0j))
        res = run_trials(sc, zero_err, comp, {DetectorKind.NCD: gamma},
                         cfg)[DetectorKind.NCD]
        assert res.p_hat == 1.0

    def test_ncd_phase_screen_invariance(self, ref_setup):
        # NCD counts are unchanged by any fixed per-sample phase screen
        # applied to the measurements
        sc, err, comp = ref_setup
        gamma = threshold(DetectorKind.NCD, 1e-3, 12, 2, 1, 1.0)
        cfg = TrialConfig(trials=20000, seed=55, hypothesis="H1",
                          target_draw=Swerling1(1.0))
        base = run_trials(sc, err, comp, {DetectorKind.NCD: gamma},
                          cfg)[DetectorKind.NCD]
        rng = np.random.default_rng(2)
        screen = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 1, 12)))
        screened = sum(
            int(np.count_nonzero(ncd_statistic(y * screen) > gamma))
            for y in iter_measurement_blocks(sc, err, cfg))
        assert screened == base.detections


class TestDistributionChecks:
    @pytest.mark.parametrize("det", ALL)
    def test_ks_within_gate(self, det, ref_setup):
        sc, _, comp = ref_setup
        rep = h0_statistic_distribution_check(det, sc, comp, 100000, seed=8)
        assert isinstance(rep, DistributionCheck)
        assert rep.ks_distance < 0.005

    def test_report_orders(self, ref_setup):
        sc, _, comp = ref_setup
        rep = h0_statistic_distribution_check(DetectorKind.NCD, sc, comp,
                                              5000, seed=1)
        assert rep.order == 24
        assert rep.scale == 1.0


# three full blocks and a partial one
POOL_TRIALS = 3 * BLOCK_TRIALS + 17


def serial_counts(sc, err, comp, gammas, cfg):
    """Exceedance counts summed serially over the oracle's blocks."""
    stats = {
        DetectorKind.NCD: ncd_statistic,
        DetectorKind.ACD: lambda y: acd_statistic(y, comp.theta_hat),
        DetectorKind.CD: lambda y: cd_statistic(y, comp.templates),
        DetectorKind.HD: lambda y: hd_statistic(
            y, doppler_projectors(comp.S_hat)),
    }
    counts = dict.fromkeys(gammas, 0)
    for y in iter_measurement_blocks(sc, err, cfg):
        for d, gamma in gammas.items():
            counts[d] += int(np.count_nonzero(stats[d](y) > gamma))
    return counts


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("hypothesis, target", [
        ("H0", None), ("H1", Swerling1(1.0)),
        ("H1", NonFluctuating(0.6 - 0.4j))])
    def test_counts_equal_serial_sum(self, monkeypatch, ref_setup, workers,
                                     hypothesis, target):
        sc, err, comp = ref_setup
        vs = float(np.sum(np.abs(comp.templates) ** 2))
        gammas = {d: threshold(d, 0.05, 12, 2, 1, 1.0, vs) for d in ALL}
        cfg = TrialConfig(trials=POOL_TRIALS, seed=31, hypothesis=hypothesis,
                          target_draw=target)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_trials(sc, err, comp, gammas, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert ({d: got[d].detections for d in ALL}
                == serial_counts(sc, err, comp, gammas, cfg))

    @pytest.mark.parametrize("workers, budget_blocks, max_threads", [
        (2, 100, 2), (8, 2, 2), (8, 0.5, 1)])
    def test_blocks_run_on_pool_within_byte_budget(self, monkeypatch,
                                                   ref_setup, workers,
                                                   budget_blocks,
                                                   max_threads):
        # every block runs off the caller's thread, on no more workers
        # than the CPUs or the byte budget allow; a block larger than the
        # budget runs alone
        sc, err, comp = ref_setup
        threads = set()

        def statistic(y):
            threads.add(threading.get_ident())
            return ncd_statistic(y)

        block_bytes = BLOCK_TRIALS * sc.m_tx * sc.n_rx * sc.k_pulses * 16
        monkeypatch.setattr(analysis, "ncd_statistic", statistic)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_BYTES_IN_FLIGHT",
                            int(budget_blocks * block_bytes))
        cfg = TrialConfig(trials=POOL_TRIALS, seed=4, hypothesis="H0")
        run_trials(sc, err, comp, {DetectorKind.NCD: 30.0}, cfg)
        assert threading.get_ident() not in threads
        assert 1 <= len(threads) <= max_threads

    def test_ks_distance_independent_of_worker_count(self, monkeypatch,
                                                     ref_setup):
        sc, _, comp = ref_setup
        ks = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count",
                                lambda w=workers: w)
            ks.append(h0_statistic_distribution_check(
                DetectorKind.HD, sc, comp, POOL_TRIALS, seed=5).ks_distance)
        assert ks[0] == ks[1] == ks[2]

    def test_block_exception_reaches_caller(self, monkeypatch, ref_setup):
        sc, err, comp = ref_setup
        raised, caught = [], []

        def failing(y):
            if len(y) == 17:  # the partial last block
                raised.append(ValueError("bad block"))
                raise raised[0]
            return ncd_statistic(y)

        def call():
            try:
                run_trials(sc, err, comp, {DetectorKind.NCD: 30.0}, cfg)
            except ValueError as exc:
                caught.append(exc)

        monkeypatch.setattr(analysis, "ncd_statistic", failing)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        cfg = TrialConfig(trials=POOL_TRIALS, seed=2, hypothesis="H0")
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(caught) == 1 and caught[0] is raised[0]

