"""Tests for the matched-filter output model."""

import cmath
import importlib
import json
import math
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dmimo
from dmimo import analysis, cli, detectors, scene
from dmimo.detectors import CompensationSet, steering_span
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
from dmimo.waveforms import PulseSpec, caf, pulse_set
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

    @pytest.mark.filterwarnings("error")
    def test_phase_beyond_a_double_is_a_value_error(self):
        with pytest.raises(ValueError, match="steering phase .* overflows"):
            doppler_steering([1e308], 12, 1.0)

    def test_phase_of_2_52_rad_is_a_value_error(self):
        # 2 pi T_s k f for k = 11 is 0.99 2^52 rad, then -1.01 2^52 rad
        f = 2.0 ** 52 / (2 * math.pi * 11)
        doppler_steering([0.99 * f], 12, 1.0)
        with pytest.raises(ValueError, match=r"steering phase .* reaches "
                           r"2\^52 rad"):
            doppler_steering([-1.01 * f], 12, 1.0)


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

    def test_colocated_tensor_equals_per_entry_calls(self, sb_scenario):
        co = colocated_scenario(replace(
            sb_scenario, n_rx=3, tau_s=np.zeros((2, 3)),
            doppler_hz=np.zeros((2, 3)), psi_rad=np.zeros((2, 3)),
            xi=np.ones((2, 3))))
        _, X, _ = _model_factors(co, SyncErrors.zeros(2, 3))
        for m, n, mb in np.ndindex(X.shape):
            want = caf(co.pulses[m], co.pulses[m], 0.0, 0.0) if m == mb else 0
            assert X[m, n, mb] == want

    def test_tensor_equals_per_entry_calls(self, sb_scenario,
                                           random_scenario):
        # one array pass over every (m, n, mb), bit for bit the scalar
        # call at that entry's delay and Doppler offsets; the single-band
        # cross entries take the Fresnel form
        rng = np.random.default_rng(29)
        cases = [random_scenario(rng) for _ in range(4)]
        cases.append((sb_scenario, SyncErrors(
            dt=[[2e-7], [-1e-7]], df=[[3.0], [-5.0]], dp=np.zeros((2, 1)),
            dc_rx=[0.0])))
        for sc, err in cases:
            _, X, _ = _model_factors(sc, err)
            for m, n, mb in np.ndindex(X.shape):
                nu = sc.tau_s[m, n] + err.dt[m, n] - sc.tau_s[mb, n]
                f = sc.doppler_hz[mb, n] - sc.doppler_hz[m, n] - err.df[m, n]
                assert X[m, n, mb] == caf(sc.pulses[m], sc.pulses[mb], nu, f)

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
            pulses=pulse_set("multi_band", 2, 400e3, tp, 3.0, 3.0),
            n_rx=1, k_pulses=4, pri_s=2e-3, carrier_hz=3e9,
            tau_s=np.zeros((2, 1)), doppler_hz=np.zeros((2, 1)),
            psi_rad=np.zeros((2, 1)), xi=np.ones((2, 1)),
            target=Swerling1(1.0))
        _, _, h = _model_factors(sc, SyncErrors.zeros(2, 1))
        assert np.allclose(h, 1.0)

    def test_reference_auto_entry(self, ref_scenario, zero_err):
        # direct substitution: xi e^{j 0.1 pi} e^{-j 2 pi f_c tau_11}
        # e^{j 2 pi f_11 (tau_11 - tau_11)}
        _, _, h = _model_factors(ref_scenario, zero_err)
        expect = ref_scenario.xi[0, 0] * cmath.exp(1j * (0.1 * math.pi
                                        - 2 * math.pi * 3e9 * 0.61e-5))
        assert h[0, 0, 0] == pytest.approx(expect, rel=1e-9)

    def test_entry_magnitudes(self, random_scenario):
        rng = np.random.default_rng(5)
        sc, err = random_scenario(rng)
        _, _, h = _model_factors(sc, err)
        assert h.shape == (sc.m_tx, sc.n_rx, sc.m_tx)
        for m in range(sc.m_tx):
            for n in range(sc.n_rx):
                assert np.allclose(np.abs(h[m, n]), sc.xi[:, n])


class TestModelEquivalence:
    def test_single_tx_closed_form(self):
        tp = 1e-5
        sc = Scenario(
            pulses=(PulseSpec(400e3, tp, 1.0, 3.0),),
            n_rx=1, k_pulses=6, pri_s=2e-3, carrier_hz=3e9,
            tau_s=np.array([[0.4 * tp]]), doppler_hz=np.array([[120.0]]),
            psi_rad=np.array([[0.7]]), xi=np.array([[1.3 * 0.8]]),
            target=Swerling1(1.0))
        alpha = 0.9 - 0.4j
        x = alpha * noise_free_mf_output(sc, SyncErrors.zeros(1, 1))
        k = np.arange(6)
        expect = (alpha * 1.3 * 0.8
                  * np.exp(-2j * np.pi * 3e9 * 0.4 * tp) * np.exp(0.7j)
                  * np.exp(2j * np.pi * k * 2e-3 * 120.0))
        assert np.allclose(x[0, 0], expect, rtol=1e-9)

    def test_factorized_equals_scalar_reference(self, ref_scenario, zero_err):
        alpha = 0.8 + 0.2j
        x = alpha * noise_free_mf_output(ref_scenario, zero_err)
        assert np.allclose(x, scalar_cube(ref_scenario, zero_err, alpha),
                           rtol=0, atol=1e-10 * np.abs(x).max())

    def test_factorized_equals_scalar_randomized(self, random_scenario):
        # 50 random draws over delays, Dopplers, phases, and sync errors
        rng = np.random.default_rng(17)
        for _ in range(50):
            sc, err = random_scenario(rng)
            alpha = complex(rng.normal(), rng.normal())
            x = alpha * noise_free_mf_output(sc, err)
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
                h_mb = (sc.xi[mb, 0]
                        * cmath.exp(1j * sc.psi_rad[mb, 0])
                        * cmath.exp(-2j * math.pi * sc.carrier_hz * sc.tau_s[mb, 0])
                        * cmath.exp(2j * math.pi * sc.doppler_hz[m, 0]
                                    * (sc.tau_s[m, 0] - sc.tau_s[mb, 0])))
                assert h[m, 0, mb] == pytest.approx(h_mb, rel=1e-9)


class TestColocated:
    def test_parameters_constant_across_paths(self, ref_scenario):
        co = colocated_scenario(ref_scenario)
        assert np.ptp(co.tau_s) == 0.0
        assert np.ptp(co.doppler_hz) == 0.0
        assert np.ptp(co.psi_rad) == 0.0

    def test_no_cross_term_energy(self, ref_scenario, zero_err):
        co = colocated_scenario(ref_scenario)
        alpha = 1.1 - 0.3j
        x = alpha * noise_free_mf_output(co, zero_err)
        for m in range(2):
            mags = np.abs(x[m, 0])
            assert np.allclose(mags, abs(alpha) * co.xi[m, 0],
                               rtol=1e-9)

    def test_scalar_form_matches(self, ref_scenario, zero_err):
        co = colocated_scenario(ref_scenario)
        alpha = 0.4 + 0.6j
        x = alpha * noise_free_mf_output(co, zero_err)
        assert np.allclose(x, scalar_cube(co, zero_err, alpha), rtol=1e-9)

    def test_energy_sum_collapses(self, ref_scenario, zero_err):
        # ||S X h||^2 summed over paths = K sum |xi|^2 for the benchmark
        co = colocated_scenario(ref_scenario)
        x = noise_free_mf_output(co, zero_err)
        total = np.sum(np.abs(x) ** 2)
        expect = co.k_pulses * np.sum(co.xi ** 2)
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
        rho_bar = 1.0
        snr_db = 10 * math.log10(xi ** 2 * rho_bar)
        assert xi_from_snr(snr_db, rho_bar) == pytest.approx(xi, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            link_budget_xi(0.0, 1e3, 1.0, 1.0, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("snr_db, rho_bar", [
        (np.float64(300.0), 1e-300),   # the quotient overflows
        (np.float64(4000.0), 1.0),     # 10 ** (snr / 10) does
        (np.float64(0.0), 1e-310)])    # 1 / rho_bar does
    def test_gain_beyond_a_double_is_a_value_error(self, snr_db, rho_bar):
        with pytest.raises(ValueError, match="channel gain .* overflows"):
            xi_from_snr(snr_db, rho_bar)


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

    @pytest.mark.parametrize("make, message", [
        (lambda sc: Swerling1(0.0), "mean RCS must be positive"),
        (lambda sc: replace(sc, k_pulses=0), "M, N, K must all be >= 1"),
        (lambda sc: replace(sc, pri_s=0.0), "PRI must be positive"),
        (lambda sc: replace(sc, pri_s=-1e-3), "PRI must be positive"),
        (lambda sc: replace(sc, tau_s=np.full((2, 1), -1e-6)),
         "propagation delays must be nonnegative"),
        (lambda sc: replace(sc, xi=np.full((2, 1), -1.0)),
         "path amplitudes must be nonnegative"),
        (lambda sc: replace(sc, doppler_hz=np.full((2, 1), np.nan)),
         "doppler_hz contains non-finite entries"),
        (lambda sc: doppler_steering([200.0], 0, sc.pri_s),
         "K must be >= 1")],
        ids=["swerling1-zero-rcs", "zero-k", "zero-pri", "negative-pri",
             "negative-delay", "negative-xi", "nan-doppler",
             "steering-zero-k"])
    def test_rejections(self, ref_scenario, make, message):
        with pytest.raises(ValueError) as exc:
            make(ref_scenario)
        assert str(exc.value) == message


def _analyze_csv(tmp_path, doc, name):
    exp, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    exp.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--experiment", str(exp),
                     "--out", str(out)]) == 0
    return out.read_bytes()


def _package_caches():
    """(module, name) of every cache in the package: each object of a
    dmimo module that has cache_clear, under the name it is defined with."""
    found = []
    for info in pkgutil.iter_modules(dmimo.__path__):
        mod = importlib.import_module(f"dmimo.{info.name}")
        found += [(mod, name) for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_clear")
                  and obj.__module__ == mod.__name__]
    return tuple(found)


# Every run-wide cache of the package, emptied by the tests that count
# computations or compare against fresh builds.
CACHES = _package_caches()


def _clear_caches():
    for owner, name in CACHES:
        getattr(owner, name).cache_clear()


def _rebind_caches(monkeypatch, wrap):
    """Rebind every name that holds a package cache, in every loaded
    dmimo module, to ``wrap(name, cache)``; returns the caches by name."""
    reals = {name: getattr(owner, name) for owner, name in CACHES}
    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "dmimo"]
    for name, real in reals.items():
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, wrap(name, real))
    return reals


def _three_tx_doc(sweep):
    # sync errors make the receiver's estimate differ from the truth
    return {
        "scenario": {
            "m_tx": 3, "n_rx": 2, "k_pulses": 8,
            "tau_s": [[0.0, 2e-6], [4e-6, 1e-6], [7e-6, 3e-6]],
            "doppler_hz": [[100.0, -50.0], [180.0, 20.0], [260.0, 90.0]]},
        "errors": {"dt_s": [[1e-7, 2e-7], [0.0, 3e-7], [1e-7, 0.0]],
                   "df_hz": [[5.0, 0.0], [0.0, -4.0], [2.0, 1.0]]},
        "sweep": sweep,
    }


@pytest.fixture
def computations(monkeypatch):
    """Count the computations behind each cache: CAF tensor evaluations
    (with the shape of each), steering matrices, SVDs (one per span of a
    set of estimated steering matrices) and gamma quantiles, starting
    from empty caches."""
    counts = {"caf": [], "steering": 0, "svd": 0, "quantile": 0}

    def spy(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            if key == "caf":
                counts["caf"].append(np.shape(args[2]))
            else:
                counts[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(scene, "caf", "caf")
    spy(scene, "doppler_steering", "steering")
    spy(detectors.np.linalg, "svd", "svd")
    spy(analysis, "inv_reg_upper_gamma", "quantile")
    _clear_caches()
    return counts


class TestAmbiguityCache:
    def test_snr_sweep_evaluates_each_tensor_once(self, tmp_path,
                                                  computations):
        # the true model and the receiver's estimate are the only two
        # distinct CAF argument sets of an SNR sweep with sync errors,
        # and each is one array pass over every (m, n, mb)
        doc = _three_tx_doc({"variable": "snr_db", "start": -5.0,
                             "stop": 10.0, "points": 4})
        _analyze_csv(tmp_path, doc, "snr")
        assert computations["caf"] == [(3, 2, 3), (3, 2, 3)]

    def test_snr_sweep_computes_receiver_pieces_once(self, tmp_path,
                                                     computations):
        # two steering matrices (truth and estimate), one span of the
        # estimate (one SVD of all N = 2 receivers) and one quantile per
        # order with p > 1 (NCD and HD), for the whole sweep
        doc = _three_tx_doc({"variable": "snr_db", "start": -5.0,
                             "stop": 10.0, "points": 4})
        _analyze_csv(tmp_path, doc, "snr")
        assert computations["steering"] == 2
        assert computations["svd"] == 1
        assert computations["quantile"] == 2

    def test_doppler_sweep_computes_receiver_pieces_per_point(
            self, tmp_path, computations):
        # every point moves the Dopplers, so its steering matrices and
        # span are new; the thresholds still depend on (p, Pfa) alone
        points = 4
        doc = {"scenario": {},
               "errors": {"df_hz": [[3.0], [-2.0]]},
               "sweep": {"variable": "doppler_offset", "start": 50.0,
                         "stop": 200.0, "points": points}}
        _analyze_csv(tmp_path, doc, "doppler")
        assert computations["caf"] == [(2, 1, 2)] * (2 * points)
        assert computations["steering"] == 2 * points
        assert computations["svd"] == points
        assert computations["quantile"] == 2

    def test_delay_sweep_matches_fresh_builds(self, tmp_path, monkeypatch):
        # every delay point needs new tensors while the steering
        # matrices, spans and thresholds repeat; a stale hit would show as
        # a row that differs from a run that empties every cache before
        # each computation
        doc = {
            "scenario": {"waveform_set": "single_band"},
            "errors": {"dt_s": [[2e-7], [-1e-7]], "df_hz": [[3.0], [0.0]]},
            "sweep": {"variable": "delay_offset", "start": -0.5,
                      "stop": 0.4, "points": 7},
            "colocated_benchmark": True,
        }
        _clear_caches()
        cached = _analyze_csv(tmp_path, doc, "cached")
        cached_again = _analyze_csv(tmp_path, doc, "cached_again")

        def fresh(name, real):
            def cleared(*key):
                real.cache_clear()
                return real(*key)
            return cleared

        _rebind_caches(monkeypatch, fresh)
        assert cached == cached_again == _analyze_csv(tmp_path, doc, "fresh")

    def test_shared_tensor_is_read_only(self, ref_scenario, zero_err):
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        _, X, _ = _model_factors(ref_scenario, zero_err)
        assert X is comp.X_hat
        with pytest.raises(ValueError):
            comp.X_hat[0, 0, 0] = 0.0

    def test_cached_steering_and_bases_are_read_only(self, ref_scenario,
                                                     zero_err):
        # one shared object per distinct input, whatever array holds it
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        S, _, _ = _model_factors(ref_scenario, zero_err)
        span = steering_span(comp.S_hat)
        assert S is comp.S_hat
        assert span is steering_span(comp.S_hat.copy())
        u, rank = span
        for arr, index in ((comp.S_hat, (0, 0, 0)), (u, (0, 0, 0)),
                           (rank, 0)):
            with pytest.raises(ValueError):
                arr[index] = 0


RECIPES = sorted((Path(__file__).resolve().parents[1] / "recipes")
                 .glob("*.json"))
# sync errors and co-located rows: each SNR point asks the X and S caches
# for three distinct keys, the truth, the estimate and the co-located one
THREE_KEY_DOC = dict(_three_tx_doc({"variable": "snr_db", "start": -5.0,
                                    "stop": 10.0, "points": 4}),
                     colocated_benchmark=True)


@pytest.mark.parametrize("doc", RECIPES + [THREE_KEY_DOC],
                         ids=[r.stem for r in RECIPES] + ["three-keys"])
def test_run_cache_bound_loses_no_hit(tmp_path, monkeypatch, doc):
    # every cache misses once per distinct key it is asked for, and no
    # more: the one bound, RUN_CACHE_SIZE, evicts no key a run asks for
    # again
    keys = {name: set() for _, name in CACHES}

    def spy(name, real):
        def counted(*args):
            keys[name].add(tuple(
                (a.tobytes(), a.shape, a.dtype.str)
                if isinstance(a, np.ndarray) else a for a in args))
            return real(*args)
        return counted

    _clear_caches()
    reals = _rebind_caches(monkeypatch, spy)
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    _analyze_csv(tmp_path, doc, "run")
    misses = {name: real.cache_info().misses for name, real in reals.items()}
    assert misses == {name: len(k) for name, k in keys.items()}
    if doc is THREE_KEY_DOC:
        assert misses["_ambiguity"] == misses["_steering"] == 3
