"""Tests for the seeded trial engine."""

import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmimo import analysis, cli, montecarlo
from dmimo.analysis import (
    DetectorKind,
    Receiver,
    analyze_detector,
    law,
    threshold,
)
from dmimo.detectors import (
    acd_statistic,
    cd_statistic,
    doppler_projectors,
    hd_statistic,
    ncd_statistic,
)
from dmimo.montecarlo import (
    BLOCK_TRIALS,
    MAX_SEED,
    MIN_SEED,
    EmpiricalResult,
    TrialConfig,
    _block_rng,
    draw_noise,
    draw_swerling1_alpha,
    run_sweep,
    run_trials,
)
from dmimo.presets import reference_scenario
from dmimo.scene import (
    NonFluctuating,
    Swerling1,
    SyncErrors,
    colocated_scenario,
)
from oracles import (
    DistributionCheck,
    h0_statistic_distribution_check,
    iter_coordinate_blocks,
    iter_measurement_blocks,
)

ALL = list(DetectorKind)


@pytest.fixture
def ref_rx(ref_scenario, zero_err):
    return Receiver.build(ref_scenario, zero_err)


class TestDraws:
    def test_noise_moments(self):
        rng = _block_rng(7, 0, 0)
        w = draw_noise(rng, 16, sigma2=2.5, shape=(20000,))
        assert abs(np.mean(w)) < 5 * np.sqrt(2.5 / (16 * 20000))
        assert np.mean(np.abs(w) ** 2) == pytest.approx(2.5, rel=0.01)

    def test_noise_determinism(self):
        a = draw_noise(_block_rng(3, 0, 1), 8, shape=(4,))
        b = draw_noise(_block_rng(3, 0, 1), 8, shape=(4,))
        assert np.array_equal(a, b)

    def test_noise_matches_componentwise_assembly(self):
        # oracle: the per-component normal draw, assembled as re + 1j*im
        shape, k, sigma2 = (5, 2, 1), 12, 2.5
        z = _block_rng(17, 0, 3).normal(scale=np.sqrt(sigma2 / 2.0),
                                        size=shape + (k, 2))
        oracle = z[..., 0] + 1j * z[..., 1]
        got = draw_noise(_block_rng(17, 0, 3), k, sigma2, shape)
        assert got.shape == oracle.shape
        assert got.tobytes() == oracle.tobytes()

    def test_alpha_moment(self):
        rng = _block_rng(11, 0, 0)
        a = draw_swerling1_alpha(rng, 1.7, (100000,))
        assert np.mean(np.abs(a) ** 2) == pytest.approx(1.7, rel=0.02)

    def test_alpha_exponential_cdf(self):
        # |alpha|^2 should follow 1 - exp(-r / rho_bar)
        rng = _block_rng(13, 0, 0)
        r = np.sort(np.abs(draw_swerling1_alpha(rng, 1.0, (100000,))) ** 2)
        ecdf = np.arange(1, r.size + 1) / r.size
        ks = np.max(np.abs(ecdf - (1.0 - np.exp(-r))))
        assert ks < 0.01

    def test_alpha_scalar_form(self):
        a = draw_swerling1_alpha(_block_rng(5, 0, 0), 2.0)
        assert isinstance(a, complex)

    def test_alpha_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            draw_swerling1_alpha(_block_rng(0, 0, 0), 0.0)


class TestTrialConfig:
    def test_bad_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0, seed=0)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=10, seed=0, pair=-1)

    # seed 1.5 ran seed 1's stream (the uint64 key truncates it), trials
    # True ran one trial and reported True, trials 1000.5 failed in
    # range(), and seed -1 surfaced as Philox's OverflowError
    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", 2.0), ("seed", True), ("seed", "3"),
        ("trials", True), ("trials", 1000.5), ("trials", 1000.0),
        ("pair", False), ("pair", 1.0), ("pair", np.float64(2.0))])
    def test_non_integer_fields(self, field, value):
        fields = dict(trials=1000, seed=1, pair=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrialConfig(**fields)

    @pytest.mark.parametrize("seed", [-1, MIN_SEED - 1, MAX_SEED + 1,
                                      2**64])
    def test_seed_outside_range(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            TrialConfig(trials=1000, seed=seed)

    @pytest.mark.parametrize("seed", [MIN_SEED, MAX_SEED, np.int64(7)])
    def test_integer_seeds_in_range_run(self, seed, ref_rx):
        cfg = TrialConfig(trials=10, seed=seed, pair=np.uint8(1))
        run_trials(ref_rx, {DetectorKind.NCD: 30.0}, cfg)


class TestDeterminism:
    def test_identical_runs(self, ref_rx):
        vs = np.sum(np.abs(ref_rx.comp.templates) ** 2)
        gammas = {d: threshold(law(d, 12, 2, 1, 1.0, vs), 1e-2) for d in ALL}
        cfg = TrialConfig(trials=3000, seed=42, target_draw=Swerling1(1.0))
        r1 = run_trials(ref_rx, gammas, cfg)
        r2 = run_trials(ref_rx, gammas, cfg)
        for d in ALL:
            assert r1[d] == r2[d]

    def test_prefix_consistency_across_trial_counts(self, ref_rx):
        # the first block of a long run equals the whole of a short run
        short = TrialConfig(trials=BLOCK_TRIALS, seed=9,
                            target_draw=Swerling1(1.0))
        long = TrialConfig(trials=2 * BLOCK_TRIALS + 100, seed=9,
                           target_draw=Swerling1(1.0))
        _, (c_short, g_short) = next(iter_coordinate_blocks(ref_rx, short))
        _, (c_long, g_long) = next(iter_coordinate_blocks(ref_rx, long))
        assert np.array_equal(c_short, c_long)
        assert np.array_equal(g_short, g_long)

    def test_block_order_independent_counts(self, ref_rx):
        # counting is associative: summing per-block exceedances in
        # reversed order reproduces run_trials
        gamma = threshold(law(DetectorKind.NCD, 12, 2, 1, 1.0), 1e-2)
        cfg = TrialConfig(trials=3 * BLOCK_TRIALS, seed=21)
        blocks = [cg for _, cg in iter_coordinate_blocks(ref_rx, cfg)]
        total = sum(int(np.count_nonzero(ncd_statistic(c) + g > gamma))
                    for c, g in reversed(blocks))
        got = run_trials(ref_rx, {DetectorKind.NCD: gamma}, cfg)
        assert got[DetectorKind.NCD].detections == total

    def test_seed_changes_results(self, ref_rx):
        gammas = {DetectorKind.NCD: threshold(
            law(DetectorKind.NCD, 12, 2, 1, 1.0), 0.5)}
        runs = [run_trials(ref_rx, gammas, TrialConfig(trials=2000, seed=s))
                for s in (1, 2)]
        assert (runs[0][DetectorKind.NCD].detections
                != runs[1][DetectorKind.NCD].detections)


class TestH0Calibration:
    @pytest.mark.parametrize("det", ALL)
    def test_exceedance_matches_pfa(self, det, ref_rx):
        vs = float(np.sum(np.abs(ref_rx.comp.templates) ** 2))
        pf = 1e-2
        gamma = threshold(law(det, 12, 2, 1, 1.0, vs), pf)
        cfg = TrialConfig(trials=100000, seed=77)
        res = run_trials(ref_rx, {det: gamma}, cfg)[det]
        sigma = np.sqrt(pf * (1 - pf) / cfg.trials)
        assert abs(res.p_hat - pf) <= 3 * sigma

    def test_result_bookkeeping(self):
        r = EmpiricalResult.from_counts(DetectorKind.CD, 250, 1000)
        assert r.p_hat == 0.25
        assert r.ci_halfwidth == pytest.approx(3 * np.sqrt(0.25 * 0.75 / 1000))


class TestH1Match:
    @pytest.mark.parametrize("det", ALL)
    def test_swerling_average_within_ci(self, det, ref_rx):
        pt = analyze_detector(det, ref_rx, 1e-4)
        cfg = TrialConfig(trials=50000, seed=101, target_draw=Swerling1(1.0))
        res = run_trials(ref_rx, {det: pt.gamma}, cfg)[det]
        sigma = np.sqrt(pt.pd * (1 - pt.pd) / cfg.trials)
        assert abs(res.p_hat - pt.pd) <= 3 * sigma

    def test_fixed_alpha_noise_free_limit(self, ref_scenario, zero_err):
        from dataclasses import replace
        sc = replace(ref_scenario, sigma2=1e-12)
        rx = Receiver.build(sc, zero_err)
        gamma = threshold(law(DetectorKind.NCD, 12, 2, 1, sc.sigma2), 1e-4)
        cfg = TrialConfig(trials=500, seed=3,
                          target_draw=NonFluctuating(1.0 + 0.0j))
        res = run_trials(rx, {DetectorKind.NCD: gamma},
                         cfg)[DetectorKind.NCD]
        assert res.p_hat == 1.0

    def test_ncd_phase_screen_invariance(self, ref_rx):
        # NCD counts are unchanged by any fixed phase screen applied to
        # the measurements' coordinates
        gamma = threshold(law(DetectorKind.NCD, 12, 2, 1, 1.0), 1e-3)
        cfg = TrialConfig(trials=20000, seed=55, target_draw=Swerling1(1.0))
        base = run_trials(ref_rx, {DetectorKind.NCD: gamma},
                          cfg)[DetectorKind.NCD]
        blocks = list(iter_coordinate_blocks(ref_rx, cfg))
        c_shape = blocks[0][1][0].shape[1:]
        rng = np.random.default_rng(2)
        screen = np.exp(1j * rng.uniform(-np.pi, np.pi, c_shape))
        screened = sum(
            int(np.count_nonzero(ncd_statistic(c * screen) + g > gamma))
            for _, (c, g) in blocks)
        assert screened == base.detections


class TestDistributionChecks:
    @pytest.mark.parametrize("det", ALL)
    def test_ks_within_gate(self, det, ref_rx):
        rep = h0_statistic_distribution_check(det, ref_rx, 100000, seed=8)
        assert isinstance(rep, DistributionCheck)
        assert rep.ks_distance < 0.005

    def test_report_orders(self, ref_rx):
        rep = h0_statistic_distribution_check(DetectorKind.NCD, ref_rx,
                                              5000, seed=1)
        assert rep.order == 24
        assert rep.scale == 1.0


# three full blocks and a partial one
POOL_TRIALS = 3 * BLOCK_TRIALS + 17


def serial_counts(rx, gammas, cfg):
    """Exceedance counts summed serially over the oracle's coordinate
    blocks."""
    counts = dict.fromkeys(gammas, 0)
    for crx, (c, g) in iter_coordinate_blocks(rx, cfg):
        for d, gamma in gammas.items():
            stat = analysis.statistic(d, crx)
            counts[d] += int(np.count_nonzero(stat(c, g) > gamma))
    return counts


def mixed_runs(sc, target=None, seed=31):
    """(rx, gammas, cfg) of three runs sharing one sweep: a
    distributed r = 3 run of two full blocks (Doppler errors take the
    return out of span S_hat), a co-located r = 1 run of one, and a
    distributed run whose last block is partial."""
    runs = []
    doppler = _path_errors(2, 1, df=12.0)
    for pair, (scenario, err, trials, dets) in enumerate([
            (sc, doppler, 2 * BLOCK_TRIALS, ALL),
            (colocated_scenario(sc), SyncErrors.zeros(2, 1), BLOCK_TRIALS,
             ALL[:3]),
            (sc, doppler, POOL_TRIALS, ALL)]):
        rx = Receiver.build(scenario, err)
        vs = float(np.sum(np.abs(rx.comp.templates) ** 2))
        gammas = {d: threshold(law(d, 12, 2, 1, 1.0, vs), 0.05) for d in dets}
        cfg = TrialConfig(trials=trials, seed=seed, pair=pair,
                          target_draw=target)
        runs.append((rx, gammas, cfg))
    return runs


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0-None", "H1-target1", "H1-target2"])
    def test_counts_equal_serial_sum(self, monkeypatch, ref_scenario,
                                     workers, target):
        # one pool over the blocks of runs of different ranks and block
        # sizes gives each run exactly its serial counts
        runs = mixed_runs(ref_scenario, target)
        ranks = [montecarlo._coordinates(rx)[0].x.shape[-1]
                 for rx, *_ in runs]
        assert ranks == [3, 1, 3]
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_sweep(runs)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(runs)
        for res, (rx, gammas, cfg) in zip(got, runs):
            assert ({d: r.detections for d, r in res.items()}
                    == serial_counts(rx, gammas, cfg))
        assert run_trials(*runs[2]) == got[2]

    @pytest.mark.parametrize("budget_largest, workers", [(2, 2), (1.5, 1)])
    def test_byte_budget_counts_largest_block(self, monkeypatch, pool_spy,
                                              ref_scenario, budget_largest,
                                              workers):
        # the co-located blocks are a third the size of the distributed
        # ones; the worker count is set by the largest, wherever it runs
        runs = mixed_runs(ref_scenario)[1:]
        sizes = [BLOCK_TRIALS * montecarlo._coordinates(rx)[0].x.nbytes
                 for rx, *_ in runs]
        assert sizes[1] == 3 * sizes[0]
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 8)
        monkeypatch.setattr(montecarlo, "_BYTES_IN_FLIGHT",
                            int(budget_largest * sizes[1]))
        run_sweep(runs)
        assert pool_spy.pools == [workers]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pending_futures_bounded_by_window(self, monkeypatch, pool_spy,
                                               ref_scenario, workers):
        # blocks are submitted as results are read, never all up front
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        runs = mixed_runs(ref_scenario)
        n_blocks = sum(-(-cfg.trials // 64) for *_, cfg in runs)
        assert n_blocks > 100 * workers
        run_sweep(runs)
        assert pool_spy.pools == [workers]
        assert pool_spy.peak_unread == 2 * workers

    def test_no_runs_no_pool(self, pool_spy):
        assert run_sweep([]) == []
        assert pool_spy.pools == []

    @pytest.mark.parametrize("workers, budget_blocks, max_threads", [
        (2, 100, 2), (8, 2, 2), (8, 0.5, 1)])
    def test_blocks_run_on_pool_within_byte_budget(self, monkeypatch,
                                                   ref_rx, workers,
                                                   budget_blocks,
                                                   max_threads):
        # every block runs off the caller's thread, on no more workers
        # than the CPUs or the byte budget allow; a block larger than the
        # budget runs alone
        threads = set()

        def statistic(y):
            threads.add(threading.get_ident())
            return ncd_statistic(y)

        block_bytes = BLOCK_TRIALS * montecarlo._coordinates(
            ref_rx)[0].x.nbytes
        monkeypatch.setattr(analysis, "ncd_statistic", statistic)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_BYTES_IN_FLIGHT",
                            int(budget_blocks * block_bytes))
        cfg = TrialConfig(trials=POOL_TRIALS, seed=4)
        run_trials(ref_rx, {DetectorKind.NCD: 30.0}, cfg)
        assert threading.get_ident() not in threads
        assert 1 <= len(threads) <= max_threads

    def test_ks_distance_independent_of_worker_count(self, monkeypatch,
                                                     ref_rx):
        ks = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count",
                                lambda w=workers: w)
            ks.append(h0_statistic_distribution_check(
                DetectorKind.HD, ref_rx, POOL_TRIALS, seed=5).ks_distance)
        assert ks[0] == ks[1] == ks[2]

    def test_block_exception_reaches_caller(self, monkeypatch,
                                           ref_scenario):
        # the partial block of the sweep's last run raises
        raised, caught = [], []

        def failing(y):
            if len(y) == 17:
                raised.append(ValueError("bad block"))
                raise raised[0]
            return ncd_statistic(y)

        def call():
            try:
                run_sweep(runs)
            except ValueError as exc:
                caught.append(exc)

        monkeypatch.setattr(analysis, "ncd_statistic", failing)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        runs = mixed_runs(ref_scenario, seed=2)
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(caught) == 1 and caught[0] is raised[0]


def copied(c, g):
    """A block's coordinates and energies, copied out of the worker's
    scratch."""
    return c.copy(), g.copy()


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for (c, g), (c_want, g_want) in zip(got, want):
        assert c.shape == c_want.shape and g.shape == g_want.shape
        assert c.tobytes() == c_want.tobytes()
        assert g.tobytes() == g_want.tobytes()


class TestScratch:
    """Pool workers draw each block in place on a per-thread scratch;
    the blocks are the serial oracle's, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0", "swerling", "fixed"])
    def test_pooled_blocks_equal_serial(self, monkeypatch, ref_scenario,
                                        workers, target):
        # a run of three full blocks and a partial one, and a sweep that
        # mixes distributed (r = 3) and co-located (r = 1) pairs
        doppler = _path_errors(2, 1, df=12.0)
        rx = Receiver.build(ref_scenario, doppler)
        single = [(rx, None, TrialConfig(trials=POOL_TRIALS, seed=12,
                                          target_draw=target))]
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        for runs in (single, mixed_runs(ref_scenario, target)):
            jobs = [montecarlo._coordinates(rx) + (cfg, copied)
                    for rx, _, cfg in runs]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = list(montecarlo._map_blocks(jobs))
            finally:
                sys.setswitchinterval(interval)
            for i, (rx, _, cfg) in enumerate(runs):
                assert_same_bits(
                    [cg for run, cg in got if run == i],
                    [cg for _, cg in iter_coordinate_blocks(rx, cfg)])

    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0", "swerling", "fixed"])
    def test_blocks_follow_the_draw_order(self, monkeypatch, ref_scenario,
                                          target):
        # fresh arrays drawn in the documented order give each block bit
        # for bit, with the product added in runs of 5 trials and a
        # ragged last run
        rx = Receiver.build(ref_scenario, _path_errors(2, 1, df=12.0))
        crx, outside = montecarlo._coordinates(rx)
        monkeypatch.setattr(montecarlo, "_PRODUCT_BYTES", 5 * crx.x.nbytes)
        cfg = TrialConfig(trials=BLOCK_TRIALS + 17, seed=8, pair=2,
                          target_draw=target)
        scratch = montecarlo._Scratch()
        for j, nb in enumerate([BLOCK_TRIALS, 17]):
            rng = _block_rng(8, 2, j)
            if isinstance(target, Swerling1):
                alpha = draw_swerling1_alpha(rng, 1.0, (nb,))
            elif isinstance(target, NonFluctuating):
                alpha = np.full(nb, target.alpha)
            c = draw_noise(rng, 3, 1.0, (nb, 2, 1))
            g = 1.0 * rng.standard_gamma(outside, nb)
            if target is not None:
                c = c + alpha[:, None, None, None] * crx.x
            assert_same_bits(
                [montecarlo._coordinate_block(crx, outside, cfg, j),
                 montecarlo._coordinate_block(crx, outside, cfg, j,
                                              scratch)],
                [(c, g), (c, g)])

    def test_block_without_scratch_is_fresh(self, ref_rx):
        crx, outside = montecarlo._coordinates(ref_rx)
        cfg = TrialConfig(trials=POOL_TRIALS, seed=3,
                          target_draw=Swerling1(1.0))
        first = montecarlo._coordinate_block(crx, outside, cfg, 0)
        kept = copied(*first)
        montecarlo._coordinate_block(crx, outside, cfg, 1)
        assert_same_bits([first], [kept])

    def test_scratch_reused_until_shape_changes(self, ref_rx):
        crx, outside = montecarlo._coordinates(ref_rx)
        cfg = TrialConfig(trials=POOL_TRIALS, seed=3,
                          target_draw=Swerling1(1.0))
        scratch = montecarlo._Scratch()
        c0, g0 = montecarlo._coordinate_block(crx, outside, cfg, 0, scratch)
        c1, g1 = montecarlo._coordinate_block(crx, outside, cfg, 1, scratch)
        assert np.shares_memory(c0, c1) and np.shares_memory(g0, g1)
        c3, g3 = montecarlo._coordinate_block(crx, outside, cfg, 3, scratch)
        assert len(c3) == len(g3) == 17
        assert not np.shares_memory(c3, c1)


RECIPES = sorted((Path(__file__).resolve().parent.parent
                  / "recipes").glob("*.json"))


class TestStreams:
    def test_recipe_pairs_draw_distinct_streams(self, monkeypatch, tmp_path):
        # every (sweep point, system) pair of every recipe is keyed by
        # (seed, pair); under the former key seed + pair, pair 0 of
        # timing_errors (seed 2029) drew the stream of pair 5 of
        # snr_offset_multi_band (seed 2024)
        keys = {}

        def record(runs):
            keys.setdefault(recipe.stem, []).extend(
                (cfg.seed, cfg.pair) for *_, cfg in runs)
            return run_sweep(runs)

        monkeypatch.setattr(cli, "run_sweep", record)
        for recipe in RECIPES:
            cli.main(["simulate", "--experiment", str(recipe), "--trials", "1",
                      "--out", str(tmp_path / f"{recipe.stem}.csv")])
        assert len(keys) == len(RECIPES) == 8
        every = [k for ks in keys.values() for k in ks]
        assert len(set(every)) == len(every)
        a, b = keys["timing_errors"][0], keys["snr_offset_multi_band"][5]
        assert (a, b) == ((2029, 0), (2024, 5))
        assert sum(a) == sum(b)
        assert not np.array_equal(_block_rng(*a, 0).standard_normal(64),
                                  _block_rng(*b, 0).standard_normal(64))

    def test_blocks_are_disjoint_counter_ranges(self):
        # the block index is the counter's high word: block 1 is not
        # block 0 advanced, and block 0 of another pair is another stream
        first = _block_rng(3, 0, 0).standard_normal(4096)
        assert not np.array_equal(_block_rng(3, 0, 1).standard_normal(64),
                                  first[:64])
        assert not np.any(np.isin(_block_rng(3, 1, 0).standard_normal(64),
                                  first))


def _path_errors(M, N, dt=0.0, df=0.0, dp=0.0):
    return SyncErrors(dt=np.full((M, N), dt) * np.arange(1, M + 1)[:, None],
                      df=np.full((M, N), df) * np.arange(1, M + 1)[:, None],
                      dp=np.full((M, N), dp) * np.arange(1, M + 1)[:, None],
                      dc_rx=np.zeros(N))


def definition(det, comp, y):
    """The paper's statistic of ``det`` on the measurement y, from the
    definitions in ``detectors``."""
    if det is DetectorKind.NCD:
        return ncd_statistic(y)
    if det is DetectorKind.ACD:
        return acd_statistic(y, comp.theta_hat)
    if det is DetectorKind.CD:
        return cd_statistic(y, comp.templates)
    return hd_statistic(y, doppler_projectors(comp.S_hat))


def random_case(seed, random_scenario):
    """A random receiver and five random measurement cubes for it."""
    rng = np.random.default_rng(4000 + seed)
    # every fourth scenario has K <= M + 1, every third is co-located
    short = dict(m_tx=3, k_pulses=3) if seed % 4 == 1 else {}
    sc, err = random_scenario(rng, **short)
    sc = replace(sc, tau_s=sc.tau_s + 0.3e-5)  # keeps tau + dt >= 0
    if seed % 3 == 0:
        sc = colocated_scenario(sc)
    shape = (5, sc.m_tx, sc.n_rx, sc.k_pulses)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Receiver.build(sc, err), y


class TestCoordinates:
    @pytest.mark.parametrize("seed", range(12))
    def test_statistics_equal_on_full_cube(self, seed, random_scenario):
        # T(B^H y, energy outside) equals T(y) for any measurement y:
        # every vector a detector reads lies in the spans of the basis
        rx, y = random_case(seed, random_scenario)
        basis = montecarlo._basis(rx)
        crx, outside = montecarlo._coordinates(rx)
        M, N, K, r = basis.shape
        gram = np.einsum("mnkr,mnks->mnrs", np.conj(basis), basis)
        assert np.allclose(gram, np.eye(r), atol=1e-12)
        assert r <= min(K, M + 1)
        assert outside == M * N * (K - r)
        c = np.einsum("mnkr,tmnk->tmnr", np.conj(basis), y)
        g = (np.sum(np.abs(y) ** 2, axis=(1, 2, 3))
             - np.sum(np.abs(c) ** 2, axis=(1, 2, 3)))
        for d in ALL:
            try:
                want = definition(d, rx.comp, y)
            except ValueError:  # HD on rank-deficient steering
                with pytest.raises(ValueError):
                    analysis.statistic(d, crx)
                continue
            got = analysis.statistic(d, crx)(c, g)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_cube_statistics_equal_definitions(self, seed, random_scenario):
        # in the K-sample frame the receiver's statistics are the paper's
        # definitions, on a batch and on the single cube the noncentrality
        # reads
        rx, y = random_case(seed, random_scenario)
        for d in ALL:
            want = definition(d, rx.comp, y)
            stat = analysis.statistic(d, rx)
            np.testing.assert_allclose(stat(y), want, rtol=1e-12)
            np.testing.assert_allclose(stat(y[0]), want[0], rtol=1e-12)

    @pytest.mark.parametrize("case", ["colocated", "k_below_m"])
    def test_hd_without_bases_raises_projector_error(self, case,
                                                     ref_scenario, zero_err):
        # co-located steering without sync errors repeats one Doppler
        # column; K = 1 < M leaves no room for two
        sc = (colocated_scenario(ref_scenario) if case == "colocated"
              else reference_scenario("multi_band", k_pulses=1))
        rx = Receiver.build(sc, zero_err)
        with pytest.raises(ValueError) as want:
            doppler_projectors(rx.comp.S_hat)
        for frame in (rx, montecarlo._coordinates(rx)[0]):
            with pytest.raises(ValueError) as got:
                analysis.statistic(DetectorKind.HD, frame)
            assert str(got.value) == str(want.value)

    def test_colocated_rank_one(self, ref_scenario, zero_err):
        rx = Receiver.build(colocated_scenario(ref_scenario), zero_err)
        assert montecarlo._basis(rx).shape == (2, 1, 12, 1)
        assert montecarlo._coordinates(rx)[1] == 2 * 11

    # Two-sample KS of each statistic: the engine's coordinate blocks
    # against full (trials, M, N, K) measurement cubes drawn on an
    # independent stream.
    KS_TRIALS = 16384
    KS_ALPHA = 1e-3

    @pytest.mark.parametrize("case", [
        "h0", "swerling", "fixed", "timing", "frequency", "phase",
        "colocated", "array", "short"])
    def test_law_matches_full_cube(self, case, ref_scenario,
                                   random_scenario):
        # imported here: scipy is the test's reference, not the package's
        from scipy import stats

        sc, M = ref_scenario, 2
        err = SyncErrors.zeros(M, 1)
        target, dets = Swerling1(1.0), ALL
        trials = self.KS_TRIALS
        if case == "h0":
            target = None
        elif case == "fixed":
            target = NonFluctuating(0.6 - 0.8j)
        elif case == "timing":
            err = _path_errors(M, 1, dt=0.2e-5)
        elif case == "frequency":
            err = _path_errors(M, 1, df=12.0)
        elif case == "phase":
            err = _path_errors(M, 1, dp=0.7)
        elif case == "colocated":
            sc, dets = colocated_scenario(sc), ALL[:3]
        elif case == "array":
            sc, err = random_scenario(np.random.default_rng(77), m_tx=4,
                                      n_rx=3, k_pulses=32)
            trials = BLOCK_TRIALS
        elif case == "short":
            # K = M + 1, and the Doppler errors take x out of span S_hat:
            # r = K, so no energy lies outside
            sc = reference_scenario("multi_band", k_pulses=3)
            err = _path_errors(M, 1, df=12.0)
        rx = Receiver.build(sc, err)
        crx, outside = montecarlo._coordinates(rx)
        if case == "short":
            assert outside == 0
        cfg = TrialConfig(trials=trials, seed=610, target_draw=target)
        oracle_cfg = TrialConfig(trials=trials, seed=611, target_draw=target)
        cubes = list(iter_measurement_blocks(sc, err, oracle_cfg))
        p_values = {}
        for d in dets:
            stat = analysis.statistic(d, crx)
            got = np.concatenate([v for _, v in montecarlo._map_blocks(
                [(crx, outside, cfg, stat)])])
            want = np.concatenate([definition(d, rx.comp, y) for y in cubes])
            p_values[d] = stats.ks_2samp(got, want).pvalue
        assert min(p_values.values()) > self.KS_ALPHA, p_values
