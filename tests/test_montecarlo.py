"""Tests for the seeded trial engine."""

import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmimo import analysis, cli, detectors, montecarlo
from dmimo.analysis import DetectorKind, Receiver, analyze_detector, law
from dmimo.detectors import CompensationSet, cd_statistic, ncd_statistic
from dmimo.experiments import load_experiment
from dmimo.montecarlo import (
    BLOCK_TRIALS,
    MAX_SEED,
    MIN_SEED,
    TrialConfig,
    _block_rng,
    draw_noise,
    run_sweep,
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
    acd_statistic,
    coordinate_frame,
    doppler_projectors,
    draw_swerling1_alpha,
    h0_statistic_distribution_check,
    hd_receiver_bases,
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
        w = draw_noise(rng, 16, shape=(20000,))
        assert abs(np.mean(w)) < 5 * np.sqrt(1.0 / (16 * 20000))
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_noise_determinism(self):
        a = draw_noise(_block_rng(3, 0, 1), 8, shape=(4,))
        b = draw_noise(_block_rng(3, 0, 1), 8, shape=(4,))
        assert np.array_equal(a, b)

    def test_noise_matches_componentwise_assembly(self):
        # oracle: the per-component normal draw, assembled as re + 1j*im
        shape, k = (5, 2, 1), 12
        z = _block_rng(17, 0, 3).normal(scale=np.sqrt(0.5),
                                        size=shape + (k, 2))
        oracle = z[..., 0] + 1j * z[..., 1]
        got = draw_noise(_block_rng(17, 0, 3), k, shape)
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
        run_sweep([(ref_rx, {DetectorKind.NCD: 30.0}, cfg)])


class TestDeterminism:
    def test_identical_runs(self, ref_rx):
        vs = np.sum(np.abs(ref_rx.templates) ** 2)
        gammas = {d: law(d, 12, 2, 1, vs).isf(1e-2) for d in ALL}
        cfg = TrialConfig(trials=3000, seed=42, target_draw=Swerling1(1.0))
        r1 = run_sweep([(ref_rx, gammas, cfg)])[0]
        r2 = run_sweep([(ref_rx, gammas, cfg)])[0]
        assert r1 == r2
        assert list(r1) == ALL
        assert all(type(n) is int for n in r1.values())

    def test_prefix_consistency_across_trial_counts(self, ref_rx,
                                                    random_scenario):
        # the first block of a long run equals the whole of a short run,
        # at the reference geometry and at (M, N, K) = (8, 8, 64) alike
        short = TrialConfig(trials=BLOCK_TRIALS, seed=9,
                            target_draw=Swerling1(1.0))
        long = TrialConfig(trials=2 * BLOCK_TRIALS + 100, seed=9,
                           target_draw=Swerling1(1.0))
        for rx in (ref_rx, array_rx(random_scenario)):
            [(_, want)] = iter_coordinate_blocks(rx, short)
            _, got = next(iter_coordinate_blocks(rx, long))
            assert len(want[0]) == BLOCK_TRIALS
            assert_same_bits([got], [want])

    def test_block_order_independent_counts(self, ref_rx):
        # counting is associative: summing per-block exceedances in
        # reversed order reproduces run_sweep
        gamma = law(DetectorKind.NCD, 12, 2, 1).isf(1e-2)
        cfg = TrialConfig(trials=3 * BLOCK_TRIALS, seed=21)
        blocks = [block for _, block in iter_coordinate_blocks(ref_rx, cfg)]
        total = sum(int(np.count_nonzero(ncd_statistic(c) + g > gamma))
                    for c, g, _ in reversed(blocks))
        got = run_sweep([(ref_rx, {DetectorKind.NCD: gamma}, cfg)])[0]
        assert got[DetectorKind.NCD] == total

    def test_seed_changes_results(self, ref_rx):
        gammas = {DetectorKind.NCD: law(DetectorKind.NCD, 12, 2, 1).isf(0.5)}
        runs = run_sweep([(ref_rx, gammas, TrialConfig(trials=2000, seed=s))
                          for s in (1, 2)])
        assert runs[0][DetectorKind.NCD] != runs[1][DetectorKind.NCD]


class TestH0Calibration:
    @pytest.mark.parametrize("det", ALL)
    def test_exceedance_matches_pfa(self, det, ref_rx):
        vs = float(np.sum(np.abs(ref_rx.templates) ** 2))
        pf = 1e-2
        gamma = law(det, 12, 2, 1, vs).isf(pf)
        cfg = TrialConfig(trials=100000, seed=77)
        p_hat = run_sweep([(ref_rx, {det: gamma}, cfg)])[0][det] / cfg.trials
        sigma = np.sqrt(pf * (1 - pf) / cfg.trials)
        assert abs(p_hat - pf) <= 3 * sigma


class TestH1Match:
    @pytest.mark.parametrize("det", ALL)
    def test_swerling_average_within_ci(self, det, ref_rx):
        pt = analyze_detector(det, ref_rx, 1e-4)
        cfg = TrialConfig(trials=50000, seed=101, target_draw=Swerling1(1.0))
        detections = run_sweep([(ref_rx, {det: pt.gamma}, cfg)])[0][det]
        p_hat = detections / cfg.trials
        sigma = np.sqrt(pt.pd * (1 - pt.pd) / cfg.trials)
        assert abs(p_hat - pt.pd) <= 3 * sigma

    def test_fixed_alpha_noise_free_limit(self, zero_err):
        sc = reference_scenario("multi_band", snr_db=(120.0, 120.0))
        rx = Receiver.build(sc, zero_err)
        gamma = law(DetectorKind.NCD, 12, 2, 1).isf(1e-4)
        cfg = TrialConfig(trials=500, seed=3,
                          target_draw=NonFluctuating(1.0 + 0.0j))
        got = run_sweep([(rx, {DetectorKind.NCD: gamma}, cfg)])[0]
        assert got[DetectorKind.NCD] == cfg.trials

    def test_ncd_phase_screen_invariance(self, ref_rx):
        # NCD counts are unchanged by any fixed phase screen applied to
        # the measurements' coordinates
        gamma = law(DetectorKind.NCD, 12, 2, 1).isf(1e-3)
        cfg = TrialConfig(trials=20000, seed=55, target_draw=Swerling1(1.0))
        base = run_sweep([(ref_rx, {DetectorKind.NCD: gamma},
                           cfg)])[0][DetectorKind.NCD]
        blocks = list(iter_coordinate_blocks(ref_rx, cfg))
        c_shape = blocks[0][1][0].shape[1:]
        rng = np.random.default_rng(2)
        screen = np.exp(1j * rng.uniform(-np.pi, np.pi, c_shape))
        screened = sum(
            int(np.count_nonzero(ncd_statistic(c * screen) + g > gamma))
            for _, (c, g, _) in blocks)
        assert screened == base


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
    for crx, block in iter_coordinate_blocks(rx, cfg):
        for d, gamma in gammas.items():
            stat = analysis.statistic(d, crx)
            counts[d] += int(np.count_nonzero(stat(*block) > gamma))
    return counts


def mixed_runs(sc, target=None, seed=31):
    """(rx, gammas, cfg) of three runs sharing one sweep: a
    distributed r_S = 2 run of two full blocks (Doppler errors take the
    return out of span S_hat, so its blocks add the shared coordinate),
    a co-located r_S = 1 run of one, and a distributed run whose last
    block is partial."""
    runs = []
    doppler = _path_errors(2, 1, df=12.0)
    for pair, (scenario, err, trials, dets) in enumerate([
            (sc, doppler, 2 * BLOCK_TRIALS, ALL),
            (colocated_scenario(sc), SyncErrors.zeros(2, 1), BLOCK_TRIALS,
             ALL[:3]),
            (sc, doppler, POOL_TRIALS, ALL)]):
        rx = Receiver.build(scenario, err)
        vs = float(np.sum(np.abs(rx.templates) ** 2))
        gammas = {d: law(d, 12, 2, 1, vs).isf(0.05) for d in dets}
        cfg = TrialConfig(trials=trials, seed=seed, pair=pair,
                          target_draw=target)
        runs.append((rx, gammas, cfg))
    return runs


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, workers", [(6, 6), (None, 1)],
                             ids=["cpu-count", "cpu-count-unknown"])
    def test_worker_count_without_affinity_call(self, monkeypatch, cpus,
                                                workers):
        # a platform without os.sched_getaffinity falls back on the CPU
        # count, and on one worker where that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert montecarlo._worker_count() == workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0-None", "H1-target1", "H1-target2"])
    def test_counts_equal_serial_sum(self, monkeypatch, ref_scenario,
                                     workers, target):
        # one pool over the blocks of runs of different frames (w = 3 and
        # the shared coordinate distributed, w = 1 co-located) gives each
        # run exactly its serial counts
        runs = mixed_runs(ref_scenario, target)
        sizes = [rx.frame()[1].size for rx, *_ in runs]
        assert sizes == [4, 1, 4]
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_sweep(runs)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(runs)
        for counts, (rx, gammas, cfg) in zip(got, runs):
            assert counts == serial_counts(rx, gammas, cfg)
        assert run_sweep(runs[2:]) == got[2:]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_array_blocks_counts_equal_serial_sum(self, monkeypatch,
                                                  random_scenario, workers):
        # at (M, N, K) = (4, 4, 32) with Doppler errors the spans hold
        # 4 * 4 * 4 = 64 coordinates per trial, of which a block draws
        # d = 4, so its 12,305 trials are a full block of BLOCK_TRIALS
        # and a partial one, and the pool's counts are the serial sum
        # over the oracle's blocks at any worker count
        sc, _ = random_scenario(np.random.default_rng(65), with_errors=False,
                                m_tx=4, n_rx=4, k_pulses=32)
        rx = Receiver.build(sc, _path_errors(4, 4, df=12.0))
        crx, signal, inside, outside = rx.frame()
        assert (signal.size, inside, outside) == (4, 61, 4 * 4 * 28 - 1)
        gammas = {d: rx.law(d).isf(0.05) for d in ALL}
        cfg = TrialConfig(trials=3 * 4096 + 17, seed=23,
                          target_draw=Swerling1(1.0))
        blocks = [c for _, (c, *_) in iter_coordinate_blocks(rx, cfg)]
        assert [len(c) for c in blocks] == [BLOCK_TRIALS, 4113]
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        assert run_sweep([(rx, gammas, cfg)]) == [
            serial_counts(rx, gammas, cfg)]

    def test_no_runs_no_pool(self, pool_spy):
        assert run_sweep([]) == []
        assert pool_spy.pools == []

    @pytest.mark.parametrize("workers, trials, max_threads", [
        (2, POOL_TRIALS, 2), (8, POOL_TRIALS, 4), (8, 17, 1)],
        ids=["2cpus-4blocks", "8cpus-4blocks", "8cpus-1block"])
    def test_blocks_run_on_pool_within_cpus_and_blocks(self, monkeypatch,
                                                       pool_spy, ref_rx,
                                                       workers, trials,
                                                       max_threads):
        # every block runs off the caller's thread, on no more workers
        # than the CPUs or the blocks: POOL_TRIALS is four blocks, and 17
        # trials are one
        threads = set()

        def statistic(y):
            threads.add(threading.get_ident())
            return ncd_statistic(y)

        monkeypatch.setattr(analysis, "ncd_statistic", statistic)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        cfg = TrialConfig(trials=trials, seed=4)
        run_sweep([(ref_rx, {DetectorKind.NCD: 30.0}, cfg)])
        assert pool_spy.pools == [max_threads]
        assert threading.get_ident() not in threads
        assert 1 <= len(threads) <= max_threads

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

    def test_pool_map_returns_results_in_job_order(self):
        # jobs 0 and 1 wait until job 2 has ended, so the jobs end out of
        # order, and the results still come back in job order
        third_done = threading.Event()
        ended = []

        def fn(k, scratch):
            if k < 2:
                assert third_done.wait(timeout=60)
            ended.append(k)
            if k == 2:
                third_done.set()
            return k * k

        got = montecarlo._pool_map(fn, list(range(9)), 3)
        assert got == [k * k for k in range(9)]
        assert ended[0] == 2 and sorted(ended) == list(range(9))

    def test_pool_map_starts_no_job_after_one_raises(self):
        # one worker takes the jobs in order: none starts after job 4
        # raises, and its exception is raised as it is
        started = []
        error = ValueError("job 4")

        def fn(k, scratch):
            started.append(k)
            if k == 4:
                raise error
            return k

        with pytest.raises(ValueError) as exc:
            montecarlo._pool_map(fn, list(range(10)), 1)
        assert exc.value is error
        assert started == [0, 1, 2, 3, 4]

    def test_simulate_bytes_independent_of_worker_count(self, monkeypatch,
                                                        tmp_path):
        # delay_offset_benchmark adds co-located rank-1 pairs, HD error
        # rows, and runs of different block sizes to one pool; 40,000
        # trials end each run in a partial block.  The exit status is the
        # gate's verdict, 0 or 1; the bytes are what must not move
        names = ("timing_errors", "delay_offset_benchmark")
        recipes = Path(__file__).resolve().parent.parent / "recipes"
        argv = {name: ["simulate", "--experiment",
                       str(recipes / f"{name}.json"), "--trials", "40000"]
                for name in names}
        got = {name: set() for name in names}
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count",
                                lambda w=workers: w)
            for name in names:
                out = tmp_path / f"{name}_{workers}.csv"
                assert cli.main(argv[name] + ["--out", str(out)]) in (0, 1)
                got[name].add(out.read_bytes())
        # a fresh interpreter on three workers, with every allocation
        # filled with a byte pattern: a scratch element read before it
        # is written changes the bytes
        import subprocess
        code = """if True:
            import json, sys
            from dmimo import cli, montecarlo
            montecarlo._worker_count = lambda: 3
            for argv in json.loads(sys.argv[1]):
                assert cli.main(argv) in (0, 1)
        """
        runs = [argv[name] + ["--out", str(tmp_path / f"{name}_perturb.csv")]
                for name in names]
        src = str(Path(montecarlo.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                       check=True, env=dict(os.environ, PYTHONPATH=src,
                                            MALLOC_PERTURB_="165"))
        for name in names:
            got[name].add((tmp_path / f"{name}_perturb.csv").read_bytes())
            assert len(got[name]) == 1, name

    def test_sweep_loads_no_futures_and_joins_its_workers(self, tmp_path):
        # a fresh interpreter: a small simulate on three workers loads
        # neither concurrent.futures nor logging, and run_sweep has joined
        # every worker when it returns and when a block raises
        import subprocess
        code = """if True:
            import sys, threading
            from dmimo import analysis, cli, montecarlo
            from dmimo.analysis import DetectorKind, Receiver
            from dmimo.presets import reference_scenario
            from dmimo.scene import SyncErrors
            montecarlo._worker_count = lambda: 3
            before = threading.active_count()
            code = cli.main(["simulate", "--experiment", sys.argv[1],
                             "--out", sys.argv[2]])
            assert code in (0, 1), code
            assert threading.active_count() == before
            def failing(y):
                raise ValueError("bad block")
            analysis.ncd_statistic = failing
            rx = Receiver.build(reference_scenario("multi_band"),
                                SyncErrors.zeros(2, 1))
            cfg = montecarlo.TrialConfig(trials=20000, seed=1)
            try:
                montecarlo.run_sweep([(rx, {DetectorKind.NCD: 30.0}, cfg)])
            except ValueError as exc:
                assert str(exc) == "bad block"
            else:
                raise AssertionError("the block's error was not raised")
            assert threading.active_count() == before
            for name in ("concurrent.futures", "logging"):
                assert name not in sys.modules, name
        """
        doc = {"scenario": {"waveform_set": "multi_band"},
               "sweep": {"variable": "snr_db", "start": 0.0, "stop": 5.0,
                         "points": 2},
               "trials": 20000, "pfa_target": 1e-4}
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(doc))
        src = str(Path(montecarlo.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code, str(exp),
                        str(tmp_path / "s.csv")], check=True,
                       env=dict(os.environ, PYTHONPATH=src))
        assert (tmp_path / "s.csv").read_text().count("\n") == 1 + 2 * 4




def assert_same_bits(got, want):
    """Two lists of blocks (c, g, g_span), or of any array tuples, hold
    the same shapes and bytes."""
    assert len(got) == len(want)
    for block, block_want in zip(got, want):
        assert len(block) == len(block_want)
        for a, b in zip(block, block_want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def array_rx(random_scenario):
    """A receiver at (M, N, K) = (8, 8, 64) with Doppler errors: its
    spans hold 8 * 8 * 8 = 512 coordinates per trial, and the return
    leaves them."""
    sc, _ = random_scenario(np.random.default_rng(513), with_errors=False,
                            m_tx=8, n_rx=8, k_pulses=64)
    return Receiver.build(sc, _path_errors(8, 8, df=12.0))


# one worker's scratch: the coordinates and the Swerling I normals at
# BLOCK_TRIALS * 4 * 2 floats, the moduli and the two energies at
# BLOCK_TRIALS floats
SCRATCH_BYTES = (2 * 4 * 2 + 3) * BLOCK_TRIALS * 8


class TestBlockBytes:
    """Every run draws at most four coordinates per trial, so every full
    block holds BLOCK_TRIALS trials and a worker holds one scratch of
    fixed size, whatever the geometry."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_array_run_peak_within_block_bytes(self, monkeypatch,
                                               random_scenario, workers):
        # at (M, N, K) = (8, 8, 64) a trial's spans hold 512 coordinates
        # and a block draws d = 4 of them.  Over 2 * BLOCK_TRIALS trials
        # of a Swerling I run (two full blocks) the memory numpy
        # allocates peaks below one scratch per worker and 1 MiB for the
        # frame and the statistics, and the counts are the serial sum
        rx = array_rx(random_scenario)
        assert rx.frame()[1].size == 4
        gammas = {d: rx.law(d).isf(0.05) for d in ALL}
        cfg = TrialConfig(trials=2 * BLOCK_TRIALS, seed=5,
                          target_draw=Swerling1(1.0))
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        tracemalloc.start()
        try:
            got = run_sweep([(rx, gammas, cfg)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= workers * SCRATCH_BYTES + (1 << 20)
        assert got == [serial_counts(rx, gammas, cfg)]

    def test_every_frame_draws_at_most_four_coordinates(self,
                                                        random_scenario):
        # every (sweep point, system) pair of the 8 recipes, and the 12
        # random receivers of TestCoordinates, draws d <= 4 coordinates
        # per trial, and a run of BLOCK_TRIALS + 1 trials is one full
        # block and one of a single trial
        receivers = [random_case(seed, random_scenario)[0]
                     for seed in range(12)]
        for recipe in RECIPES:
            spec = load_experiment(recipe)
            receivers += [rx for rx, _ in cli._analytic_pairs(spec)
                          if rx is not None]
        assert len(receivers) > 12 + 8
        cfg = TrialConfig(trials=BLOCK_TRIALS + 1, seed=3)
        for rx in receivers:
            frame = rx.frame()
            assert frame[1].size <= 4
            assert [len(montecarlo._coordinate_block(
                        *frame, cfg, j, montecarlo._Scratch())[0])
                    for j in (0, 1)] == [BLOCK_TRIALS, 1]


class TestScratch:
    """Pool workers draw each block in place on a per-thread scratch;
    the blocks are the serial oracle's, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0", "swerling", "fixed"])
    def test_pooled_blocks_equal_serial(self, ref_scenario, workers,
                                        target):
        # a run of three full blocks and a partial one, and a sweep that
        # mixes distributed (d = 4) and co-located (d = 1) pairs
        doppler = _path_errors(2, 1, df=12.0)
        rx = Receiver.build(ref_scenario, doppler)
        single = [(rx, None, TrialConfig(trials=POOL_TRIALS, seed=12,
                                          target_draw=target))]
        for runs in (single, mixed_runs(ref_scenario, target)):
            frames = [rx.frame() + (cfg,) for rx, _, cfg in runs]
            jobs = [(i, j) for i, (*_, cfg) in enumerate(frames)
                    for j in range(-(-cfg.trials // BLOCK_TRIALS))]

            def copied(job, scratch):
                # the block's coordinates and energies, copied out of
                # the worker's scratch
                i, j = job
                block = montecarlo._coordinate_block(*frames[i], j, scratch)
                return tuple(a.copy() for a in block)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = montecarlo._pool_map(copied, jobs, workers)
            finally:
                sys.setswitchinterval(interval)
            for i, (rx, _, cfg) in enumerate(runs):
                assert_same_bits(
                    [block for (run, _), block in zip(jobs, got) if run == i],
                    [block for _, block in iter_coordinate_blocks(rx, cfg)])

    @pytest.mark.parametrize("target", [
        None, Swerling1(4.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0", "swerling", "fixed"])
    def test_blocks_follow_the_draw_order(self, ref_scenario, target):
        # fresh arrays drawn in the documented order give each block bit
        # for bit, a full block and a partial one, on a fresh scratch and
        # on one that an earlier block filled: H0 and a fixed target draw d
        # coordinates per trial, to which the fixed return adds; a
        # Swerling I block draws the unit moduli sqrt(Exp(1)), scaled to
        # hypot(1, sqrt(rho_bar) hypot(a, e)) along the return's
        # direction, then d - 1 coordinates of unit noise across it.
        # Then the energy inside the spans, then the energy outside, to
        # which the inside energy and the shared coordinate add.  At d =
        # 4 the return (a, 0, 0, e) leaves the spans, and the moduli and
        # the last noise coordinate turn onto coordinates 0 and 3; at d =
        # w = 3 (timing errors) the moduli are coordinate 0
        frames = [Receiver.build(ref_scenario, err).frame()
                  for err in (_path_errors(2, 1, df=12.0),
                              _path_errors(2, 1, dt=0.2e-5))]
        assert [(f[1].size, f[0].x.size, f[2], f[3]) for f in frames] == [
            (4, 3, 2 * 2 - 3, 2 * (12 - 2) - 1), (3, 3, 1, 2 * (12 - 2))]
        cfg = TrialConfig(trials=BLOCK_TRIALS + 17, seed=8, pair=2,
                          target_draw=target)
        scratch = montecarlo._Scratch()
        for name in ("normals", "noise"):
            scratch.get(name, (BLOCK_TRIALS, 4, 2)).fill(np.nan)
        for name in ("modulus", "inside", "outside"):
            scratch.get(name, (BLOCK_TRIALS,)).fill(np.nan)
        for crx, signal, inside, outside in frames:
            d, w = signal.size, crx.x.size
            assert np.all(signal[1:w] == 0) and np.all(signal.imag == 0)
            a, e = signal[0].real, signal[-1].real if d > w else 0.0
            for j, nb in enumerate([BLOCK_TRIALS, 17]):
                rng = _block_rng(8, 2, j)
                if isinstance(target, Swerling1):
                    m = np.sqrt(rng.standard_exponential(nb)) * math.hypot(
                        1.0, 2.0 * math.hypot(a, e))
                    y = np.empty((nb, d, 2))
                    y[:, 1:] = draw_noise(rng, d - 1, (nb,)).view(
                        np.float64).reshape(nb, d - 1, 2)
                    z = y.view(np.complex128)[..., 0]
                    z[:, 0] = m
                    if d > w:
                        t = math.atan2(e, a)
                        cos, sin = math.cos(t), math.sin(t)
                        shared = z[:, -1].copy()
                        z[:, 0], z[:, -1] = shared * -sin, shared * cos
                        y[:, 0, 0] += cos * m
                        y[:, -1, 0] += sin * m
                else:
                    z = draw_noise(rng, d, (nb,))
                g_span = rng.standard_gamma(inside, nb)
                g = rng.standard_gamma(outside, nb) + g_span
                if isinstance(target, NonFluctuating):
                    z = z + target.alpha * signal
                if d > w:
                    g = g + (z[:, -1].real ** 2 + z[:, -1].imag ** 2)
                c = z[:, :w].reshape(nb, 1, 1, w)
                assert_same_bits(
                    [montecarlo._coordinate_block(crx, signal, inside,
                                                  outside, cfg, j,
                                                  montecarlo._Scratch()),
                     montecarlo._coordinate_block(crx, signal, inside,
                                                  outside, cfg, j, scratch)],
                    [(c, g, g_span), (c, g, g_span)])

    def test_one_coordinate_swerling_block_draws_no_normal(
            self, ref_scenario):
        # a one-coordinate frame (a co-located pair) under Swerling I:
        # alpha s + CN(0, 1) is CN(0, 1 + rho_bar |s|^2), so fresh
        # arrays drawn in this order give each block bit for bit, a
        # full block and a partial one: the unit moduli sqrt(Exp(1)),
        # which scale to the real coordinate modulus
        # hypot(1, |sqrt(rho_bar) s|), then the energy inside the spans,
        # then the energy outside, to which the inside energy adds
        rx = Receiver.build(colocated_scenario(ref_scenario),
                            SyncErrors.zeros(2, 1))
        crx, signal, inside, outside = rx.frame()
        assert signal.size == crx.x.size == 1
        cfg = TrialConfig(trials=BLOCK_TRIALS + 17, seed=8, pair=2,
                          target_draw=Swerling1(4.0))
        scale = math.hypot(1.0, abs(2.0 * signal[0]))
        scratch = montecarlo._Scratch()
        # an earlier block's values, which this block must overwrite
        scratch.get("noise", (BLOCK_TRIALS, 4, 2)).fill(np.nan)
        for j, nb in enumerate([BLOCK_TRIALS, 17]):
            rng = _block_rng(8, 2, j)
            y = np.sqrt(rng.standard_exponential(nb)) * scale
            g_span = rng.standard_gamma(inside, nb)
            g = rng.standard_gamma(outside, nb) + g_span
            c = (y + 0j).reshape(nb, 1, 1, 1)
            blocks = [montecarlo._coordinate_block(crx, signal, inside,
                                                   outside, cfg, j,
                                                   montecarlo._Scratch()),
                      montecarlo._coordinate_block(crx, signal, inside,
                                                   outside, cfg, j, scratch)]
            assert_same_bits(blocks, [(c, g, g_span), (c, g, g_span)])
            assert all(np.all(block[0].imag == 0.0) for block in blocks)
            assert all(map(np.shares_memory, blocks[1],
                           [scratch.buffers[name]
                            for name in ("noise", "outside", "inside")]))

    def test_scratch_reused_by_smaller_blocks(self, ref_rx):
        # a partial block, and a block of fewer coordinates, are views
        # of the buffers the first block allocated, in their own shapes
        frame = ref_rx.frame()
        cfg = TrialConfig(trials=POOL_TRIALS, seed=3,
                          target_draw=Swerling1(1.0))
        scratch = montecarlo._Scratch()
        c0, g0, s0 = montecarlo._coordinate_block(*frame, cfg, 0, scratch)
        c1, g1, s1 = montecarlo._coordinate_block(*frame, cfg, 1, scratch)
        assert all(map(np.shares_memory, (c0, g0, s0), (c1, g1, s1)))
        c3, g3, s3 = montecarlo._coordinate_block(*frame, cfg, 3, scratch)
        w = frame[0].x.size
        assert (c3.shape, g3.shape, s3.shape) == ((17, 1, 1, w), (17,), (17,))
        assert all(map(np.shares_memory, (c3, g3, s3), (c1, g1, s1)))
        small = Receiver.build(colocated_scenario(ref_rx.sc),
                               SyncErrors.zeros(2, 1)).frame()
        assert small[1].size < frame[1].size
        c, g, s = montecarlo._coordinate_block(*small, cfg, 0, scratch)
        w = small[0].x.size
        assert (c.shape, g.shape, s.shape) == (
            (BLOCK_TRIALS, 1, 1, w), (BLOCK_TRIALS,), (BLOCK_TRIALS,))
        assert all(map(np.shares_memory, (c, g, s), (c1, g1, s1)))
        assert all(map(np.shares_memory, (c, g, s),
                       [scratch.buffers[name]
                        for name in ("noise", "outside", "inside")]))

    @pytest.mark.parametrize("target", [
        None, Swerling1(1.0), NonFluctuating(0.6 - 0.4j)],
        ids=["H0", "swerling", "fixed"])
    def test_sweep_allocates_each_buffer_once(self, monkeypatch,
                                              ref_scenario, target):
        # a sweep that alternates co-located (d = 1) and distributed
        # (d = 4) runs, each ending in a partial block, allocates each
        # of the worker's buffers once: every later block is a view of
        # what the first one allocated
        doppler = _path_errors(2, 1, df=12.0)
        colocated = colocated_scenario(ref_scenario)
        runs = []
        for pair, extra in enumerate([17, 1696, 5, 1]):
            sc, err = ((colocated, SyncErrors.zeros(2, 1)) if pair % 2 == 0
                       else (ref_scenario, doppler))
            rx = Receiver.build(sc, err)
            gammas = {d: rx.law(d).isf(0.05) for d in ALL[:3]}
            cfg = TrialConfig(trials=BLOCK_TRIALS + extra, seed=41,
                              pair=pair, target_draw=target)
            runs.append((rx, gammas, cfg))
        assert [rx.frame()[1].size for rx, *_ in runs] == [1, 4, 1, 4]
        want = [serial_counts(*run) for run in runs]
        buffers = {}
        get = montecarlo._Scratch.get

        def spy(scratch, name, shape):
            view = get(scratch, name, shape)
            owner = view if view.base is None else view.base
            held = buffers.setdefault((scratch, name), [])
            if not any(owner is b for b in held):
                held.append(owner)
            return view

        monkeypatch.setattr(montecarlo._Scratch, "get", spy)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
        assert run_sweep(runs) == want
        swerling = {"modulus", "normals"} if isinstance(
            target, Swerling1) else set()
        assert {name for _, name in buffers} == {
            "noise", "inside", "outside"} | swerling
        assert all(len(held) == 1 for held in buffers.values()), {
            key[1]: len(held) for key, held in buffers.items()}


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

    def test_blocks_draw_distinct_streams(self):
        # every block is an SFC64 stream seeded by the SeedSequence of
        # entropy seed and spawn key (pair, block): block 1 is not block 0
        # advanced, block 0 of another pair is another stream, and
        # swapping seed and pair swaps the key, not the stream
        rng = _block_rng(3, 1, 7)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        seq = rng.bit_generator.seed_seq
        assert (seq.entropy, seq.spawn_key) == (3, (1, 7))
        first = _block_rng(3, 0, 0).standard_normal(4096)
        for key in [(3, 0, 1), (3, 1, 0), (0, 3, 0)]:
            assert not np.any(np.isin(_block_rng(*key).standard_normal(64),
                                      first)), key

    def test_numpy_random_loads_on_the_first_draw(self):
        # the CLI's start-up does not import numpy.random
        import subprocess
        code = ("import sys, dmimo.cli; "
                "assert 'numpy.random' not in sys.modules; "
                "dmimo.montecarlo._block_rng(1, 0, 0); "
                "assert 'numpy.random' in sys.modules")
        src = str(Path(montecarlo.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))


def _path_errors(M, N, dt=0.0, df=0.0, dp=0.0):
    return SyncErrors(dt=np.full((M, N), dt) * np.arange(1, M + 1)[:, None],
                      df=np.full((M, N), df) * np.arange(1, M + 1)[:, None],
                      dp=np.full((M, N), dp) * np.arange(1, M + 1)[:, None],
                      dc_rx=np.zeros(N))


def definition(det, comp, y):
    """The paper's statistic of ``det`` on the measurement y, from the
    definitions in ``detectors`` and, for ACD and HD, ``oracles``."""
    if det is DetectorKind.NCD:
        return ncd_statistic(y)
    if det is DetectorKind.ACD:
        return acd_statistic(y, comp.theta_hat)
    if det is DetectorKind.CD:
        return cd_statistic(y, comp.templates)
    return hd_receiver_bases(y, doppler_projectors(comp.S_hat))


def random_case(seed, random_scenario):
    """A random receiver, its compensation set and five random
    measurement cubes for it."""
    rng = np.random.default_rng(4000 + seed)
    # every fourth scenario has K <= M + 1, every third is co-located
    short = dict(m_tx=3, k_pulses=3) if seed % 4 == 1 else {}
    sc, err = random_scenario(rng, **short)
    sc = replace(sc, tau_s=sc.tau_s + 0.3e-5)  # keeps tau + dt >= 0
    if seed % 3 == 0:
        sc = colocated_scenario(sc)
    shape = (5, sc.m_tx, sc.n_rx, sc.k_pulses)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (Receiver.build(sc, err), CompensationSet.from_scenario(sc, err),
            y)


class TestCoordinates:
    @pytest.mark.parametrize("seed", range(12))
    def test_statistics_equal_on_full_cube(self, seed, random_scenario):
        # T(Q^H B^H y, energy in the spans outside W, energy outside W)
        # equals T(y) for any measurement y: every vector a detector
        # reads lies in W, the span of Q's columns in the coordinates of
        # the span bases B
        rx, comp, y = random_case(seed, random_scenario)
        basis = rx.span
        crx, signal, inside, outside, q = coordinate_frame(rx)
        M, (N, K, r) = rx.sc.m_tx, basis.shape
        gram = np.einsum("nkr,nks->nrs", np.conj(basis), basis)
        assert np.allclose(gram, np.eye(r), atol=1e-12)
        assert r <= min(K, M)
        w = q.shape[1]
        assert w <= 3 and np.allclose(np.conj(q.T) @ q, np.eye(w),
                                      atol=1e-12)
        shared = signal.size - w
        assert shared in (0, 1)
        assert (inside, outside) == (M * N * r - w,
                                     M * N * (K - r) - shared)
        span = np.einsum("nkr,tmnk->tmnr", np.conj(basis), y)
        c = (span.reshape(len(y), -1) @ np.conj(q)).reshape(-1, 1, 1, w)
        energy = np.sum(np.abs(y) ** 2, axis=(1, 2, 3))
        g_span = np.sum(np.abs(span) ** 2, axis=(1, 2, 3))
        g_w = np.sum(np.abs(c) ** 2, axis=(1, 2, 3))
        for d in ALL:
            try:
                want = definition(d, comp, y)
            except ValueError:  # HD on rank-deficient steering
                with pytest.raises(ValueError):
                    analysis.statistic(d, crx)
                continue
            got = analysis.statistic(d, crx)(c, energy - g_w, g_span - g_w)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_cube_statistics_equal_definitions(self, seed, random_scenario):
        # in the K-sample frame the receiver's statistics are the paper's
        # definitions, on a batch and on the single cube the noncentrality
        # reads
        rx, comp, y = random_case(seed, random_scenario)
        for d in ALL:
            want = definition(d, comp, y)
            stat = analysis.statistic(d, rx)
            np.testing.assert_allclose(stat(y), want, rtol=1e-12)
            np.testing.assert_allclose(stat(y[0]), want[0], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_span_projector_equals_qr_oracle(self, seed, random_scenario):
        # where the QR oracle finds every S_hat_n of rank M, so does the
        # span's SVD, and U U^H projects onto the same subspace as Q Q^H
        rx, comp, _ = random_case(seed, random_scenario)
        M = rx.sc.m_tx
        try:
            q = doppler_projectors(comp.S_hat)
        except ValueError:
            assert np.any(rx.rank < M)
            return
        assert rx.rank.tolist() == [M] * rx.sc.n_rx
        u = rx.span  # (N, K, M): the paths of a receiver share it
        np.testing.assert_allclose(
            u @ np.conj(u).swapaxes(-1, -2), q @ np.conj(q).swapaxes(-1, -2),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["colocated", "k_below_m"])
    def test_hd_without_bases_raises_projector_error(self, case,
                                                     ref_scenario, zero_err):
        # co-located steering without sync errors repeats one Doppler
        # column; K = 1 < M leaves no room for two.  Both frames raise the
        # one error, naming the receiver and its rank
        sc = (colocated_scenario(ref_scenario) if case == "colocated"
              else reference_scenario("multi_band", k_pulses=1))
        rx = Receiver.build(sc, zero_err)
        assert rx.rank.tolist() == [1]
        texts = []
        for frame in (rx, rx.frame()[0]):
            with pytest.raises(ValueError, match="RX 0 has rank 1 < M = 2"
                               ) as got:
                analysis.statistic(DetectorKind.HD, frame)
            texts.append(str(got.value))
        assert texts[0] == texts[1]

    def test_colocated_rank_one(self, ref_scenario, zero_err):
        # one span coordinate per path, and x, the phasors and the
        # templates all along one direction of the two
        rx = Receiver.build(colocated_scenario(ref_scenario), zero_err)
        assert rx.span.shape == (1, 12, 1)
        _, signal, inside, outside = rx.frame()
        assert (signal.size, inside, outside) == (1, 1, 2 * 11)

    # span_d counts the span coordinates and the shared one, M N r_S +
    # shared, which the frame splits into d <= 4 drawn coordinates and
    # the inside energy's dimensions
    @pytest.mark.parametrize("scene, span_d", [
        ("reference", 5), ("colocated", 2), ("zero_errors", 4),
        ("array", 513), ("beyond_a_double", 5)])
    def test_frame_equals_reference_bits(self, scene, span_d, ref_scenario,
                                         random_scenario):
        # Receiver.frame forms the engine's frame bit for bit as the
        # reference does: the receiver's fields in W coordinates, the
        # return's d coordinates (the shared one last where the return
        # leaves the spans), and the inside and outside dimensions
        sc, err = ref_scenario, _path_errors(2, 1, df=12.0)
        if scene == "colocated":
            sc, err = colocated_scenario(sc), SyncErrors.zeros(2, 1)
        elif scene == "zero_errors":
            err = SyncErrors.zeros(2, 1)
        elif scene == "array":
            sc, _ = random_scenario(np.random.default_rng(513),
                                    with_errors=False, m_tx=8, n_rx=8,
                                    k_pulses=64)
            err = _path_errors(8, 8, df=12.0)
        elif scene == "beyond_a_double":
            sc = reference_scenario("multi_band", k_pulses=3)
            sc = replace(sc, xi=sc.xi * 2.0 ** 600)
        rx = Receiver.build(sc, err)
        with np.errstate(over="ignore"):  # the rescale path, and only there
            assert (np.linalg.norm(rx.x) == np.inf) == (
                scene == "beyond_a_double")
        crx, signal, inside, outside = rx.frame()
        want_crx, want_signal, want_inside, want_outside, _ = (
            coordinate_frame(rx))
        assert signal.size <= 4 and signal.size + inside == span_d
        assert_same_bits([(signal, crx.x)], [(want_signal, want_crx.x)])
        for name in ("phasors", "templates", "rank"):
            got, want = getattr(crx, name), getattr(want_crx, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert crx.span is want_crx.span is None
        assert (crx.sc, crx.varsigma) == (want_crx.sc, want_crx.varsigma)
        assert (inside, outside) == (want_inside, want_outside)

    @pytest.mark.parametrize("seed", range(12))
    def test_frame_turn_is_unitary(self, seed, random_scenario):
        # W's basis is turned so that the return reads (a, 0, ..., 0),
        # a real and nonnegative: the turn is unitary, and every
        # statistic on random coordinates reads as it does in the
        # unturned basis from the rank routine alone
        rx = random_case(seed, random_scenario)[0]
        crx, signal, *_ = rx.frame()
        spans = [rx.coordinates(v).ravel()
                 for v in (rx.x, rx.phasors, rx.templates)]
        x = crx.x.ravel()
        assert x[0].imag == 0.0 and x[0].real >= 0.0
        assert np.all(x[1:] == 0.0) and signal[0] == x[0]
        assert x[0].real == pytest.approx(np.linalg.norm(spans[0]),
                                          rel=1e-12)
        q0, _ = detectors._basis(np.stack(
            [v * analysis._unit_scale(v) for v in spans if np.any(v)], -1))
        q = coordinate_frame(rx)[-1]
        turn = np.conj(q.T) @ q0
        np.testing.assert_allclose(np.conj(turn.T) @ turn,
                                   np.eye(len(turn)), rtol=0, atol=1e-12)
        x0, phasors0, templates0 = (np.conj(q0.T) @ v for v in spans)
        crx0 = replace(crx, x=x0[None, None], phasors=phasors0[None, None],
                       templates=templates0[None, None])
        rng = np.random.default_rng(900 + seed)
        t, n = 64, len(spans[0])
        y = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
        g_span = rng.standard_gamma(3.0, t)
        g = g_span + rng.standard_gamma(5.0, t)
        for d in ALL:
            try:
                want = analysis.statistic(d, crx0)
            except ValueError:  # HD on rank-deficient steering
                continue
            got = analysis.statistic(d, crx)(
                (y @ np.conj(q)).reshape(t, 1, 1, -1), g, g_span)
            np.testing.assert_allclose(
                got, want((y @ np.conj(q0)).reshape(t, 1, 1, -1), g, g_span),
                rtol=1e-12, atol=0, err_msg=d.value)
            np.testing.assert_allclose(
                analysis.statistic(d, crx)(crx.x), want(crx0.x), rtol=1e-12,
                atol=0, err_msg=d.value)

    @pytest.mark.filterwarnings("error")
    def test_frame_of_a_return_beyond_a_double(self):
        # gains 2^600 times larger put ||x||^2 beyond a double: the frame
        # is the same, its signal 2^600 times larger, exactly
        sc = reference_scenario("multi_band", k_pulses=3)
        err = _path_errors(2, 1, df=12.0)
        crx, signal, *dims = Receiver.build(sc, err).frame()
        big = Receiver.build(replace(sc, xi=sc.xi * 2.0 ** 600), err)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(big.x) == np.inf
        big_crx, big_signal, *big_dims = big.frame()
        assert signal.size == crx.x.size + 1  # the shared coordinate
        np.testing.assert_array_equal(big_signal, signal * 2.0 ** 600)
        np.testing.assert_array_equal(big_crx.x, crx.x * 2.0 ** 600)
        np.testing.assert_array_equal(big_crx.phasors, crx.phasors)
        assert big_dims == dims

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc", [
        "recipes/doppler_errors.json", "recipes/delay_offset_benchmark.json",
        "tests/data/analytic_array_seed1.json"])
    def test_frame_scales_by_a_power_of_two_across_the_overflow(self, doc):
        # x scaled by 2^k to max |x| near 2^600, where ||x||^2 overflows:
        # the norms are taken at unit scale either way, so the signal is
        # 2^k times the unscaled one and the rest of the frame is equal,
        # bit for bit, at the first, middle and last pair of the document
        spec = load_experiment(Path(__file__).resolve().parent.parent / doc)
        pairs = [rx for rx, _ in cli._analytic_pairs(spec) if rx is not None]
        for rx in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
            k = 600 - math.frexp(np.abs(rx.x).max())[1]
            big = replace(rx, x=rx.x * 2.0 ** k)
            with np.errstate(over="ignore"):
                assert np.linalg.norm(big.x) == np.inf
            crx, signal, *dims = rx.frame()
            big_crx, big_signal, *big_dims = big.frame()
            np.testing.assert_array_equal(big_signal, signal * 2.0 ** k)
            np.testing.assert_array_equal(big_crx.phasors, crx.phasors)
            np.testing.assert_array_equal(big_crx.templates, crx.templates)
            assert big_dims == dims

    # Two-sample KS of each statistic: the engine's coordinate blocks
    # against full (trials, M, N, K) measurement cubes drawn on an
    # independent stream.
    KS_TRIALS = 16384
    KS_ALPHA = 1e-3
    CASES = ["h0", "swerling", "fixed", "timing", "frequency", "phase",
             "colocated", "array", "short", "two_rx", "colocated_doppler",
             "zero_gain", "square"]

    def case(self, case, ref_scenario, random_scenario):
        """(scenario, errors, target, detectors, trials) of a named
        case."""
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
            # r_S = M, so one dimension lies outside, the shared one
            sc = reference_scenario("multi_band", k_pulses=3)
            err = _path_errors(M, 1, df=12.0)
        elif case == "two_rx":
            # RX 0 sees two Dopplers and Doppler errors (rank 2, x
            # outside its span); RX 1 sees one Doppler from both TX
            # (rank 1, x inside), so its basis carries an extra column
            sc, _ = random_scenario(np.random.default_rng(78), m_tx=M,
                                    n_rx=2, k_pulses=12)
            doppler = sc.doppler_hz.copy()
            doppler[1, 1] = doppler[0, 1]
            sc = replace(sc, doppler_hz=doppler)
            zeros = np.zeros((M, 2))
            err = SyncErrors(dt=zeros, df=np.array([[5.0, 0.0], [10.0, 0.0]]),
                             dp=zeros, dc_rx=np.zeros(2))
            dets = ALL[:3]
        elif case == "colocated_doppler":
            # one Doppler error on every path: S_hat stays rank 1, and
            # x leaves its span
            zeros = np.zeros((M, 1))
            sc, dets = colocated_scenario(sc), ALL[:3]
            err = SyncErrors(dt=zeros, df=np.full((M, 1), 12.0), dp=zeros,
                             dc_rx=np.zeros(1))
        elif case == "zero_gain":
            # x = 0: no shared coordinate, and the CD templates vanish
            sc = replace(sc, xi=np.zeros((M, 1)))
        elif case == "square":
            # K = M: the spans fill every path, nothing lies outside
            sc = reference_scenario("multi_band", k_pulses=M)
            err = _path_errors(M, 1, df=12.0)
        return sc, err, target, dets, trials

    @pytest.mark.parametrize("case, shared", [
        ("swerling", 0), ("timing", 0), ("frequency", 1), ("colocated", 0),
        ("array", 1), ("short", 1), ("two_rx", 1), ("colocated_doppler", 1),
        ("zero_gain", 0), ("square", 0)])
    def test_block_draws_span_coordinates_and_one_shared(
            self, case, shared, ref_scenario, random_scenario):
        # a block draws exactly w complex coordinates per trial, w the
        # rank of x, the phasors and the templates in the coordinates of
        # the spans (r_S the largest rank of S_hat_n), and the shared one
        # only where the return has energy e > 0 outside the spans; e is
        # that shared coordinate's signal
        sc, err, *_ = self.case(case, ref_scenario, random_scenario)
        rx = Receiver.build(sc, err)
        S_hat = CompensationSet.from_scenario(sc, err).S_hat
        M, N, K = rx.x.shape
        r = max(np.linalg.matrix_rank(s) for s in S_hat)
        read = np.stack([rx.coordinates(v).ravel()
                         for v in (rx.x, rx.phasors, rx.templates)], -1)
        w = np.linalg.matrix_rank(read)
        crx, signal, inside, outside = rx.frame()
        assert crx.x.shape == (1, 1, w)
        assert signal.size == w + shared <= 4
        assert (inside, outside) == (M * N * r - w, M * N * (K - r) - shared)
        np.testing.assert_array_equal(signal[:w], crx.x.ravel())
        residual = [x - s @ np.linalg.lstsq(s, x, rcond=None)[0]
                    for xs, s in zip(rx.x.transpose(1, 0, 2), S_hat)
                    for x in xs]
        e = np.linalg.norm(residual)
        if shared:
            assert signal[-1] == pytest.approx(e, rel=1e-9)
        else:
            assert e <= 1e-9 * max(1.0, np.linalg.norm(rx.x))
        cfg = TrialConfig(trials=100, seed=1, target_draw=Swerling1(1.0))
        scratch = montecarlo._Scratch()
        c, g, g_span = montecarlo._coordinate_block(crx, signal, inside,
                                                    outside, cfg, 0, scratch)
        assert c.shape == (100, 1, 1, w)
        assert g.shape == g_span.shape == (100,)
        assert all(map(np.shares_memory, (c, g, g_span),
                       [scratch.buffers[name]
                        for name in ("noise", "outside", "inside")]))

    @pytest.mark.parametrize("case", CASES)
    def test_law_matches_full_cube(self, case, ref_scenario,
                                   random_scenario):
        # imported here: scipy is the test's reference, not the package's
        from scipy import stats

        sc, err, target, dets, trials = self.case(case, ref_scenario,
                                                  random_scenario)
        rx = Receiver.build(sc, err)
        comp = CompensationSet.from_scenario(sc, err)
        crx, signal, inside, outside = rx.frame()
        if case == "short":
            assert (signal.size, outside) == (crx.x.size + 1, 1)
        if case == "square":
            assert (signal.size, outside) == (crx.x.size, 0)
        cfg = TrialConfig(trials=trials, seed=610, target_draw=target)
        oracle_cfg = TrialConfig(trials=trials, seed=611, target_draw=target)
        cubes = list(iter_measurement_blocks(sc, err, oracle_cfg))
        p_values = {}
        for d in dets:
            stat = analysis.statistic(d, crx)
            got = np.concatenate([stat(*block) for _, block
                                  in iter_coordinate_blocks(rx, cfg)])
            want = np.concatenate([definition(d, comp, y) for y in cubes])
            p_values[d] = stats.ks_2samp(got, want).pvalue
        assert min(p_values.values()) > self.KS_ALPHA, p_values
