"""Tests for the detector statistics and GLRT amplitude estimates."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dmimo import montecarlo
from dmimo.analysis import DetectorKind, Receiver, statistic
from dmimo.detectors import (
    CompensationSet,
    _energy,
    cd_statistic,
    ncd_statistic,
    steering_span,
)
from dmimo.presets import reference_scenario
from dmimo.scene import (
    Scenario,
    SyncErrors,
    Swerling1,
    _model_factors,
    doppler_steering,
    noise_free_mf_output,
)
from dmimo.montecarlo import TrialConfig
from dmimo.waveforms import multi_band_chirp
from oracles import acd_statistic, alpha_mle, beta_mle, doppler_projectors


def random_measurement(rng, M=2, N=1, K=12):
    return rng.normal(size=(M, N, K)) + 1j * rng.normal(size=(M, N, K))


def single_tx_scenario(b=1.3, xi=0.8):
    tp = 1e-5
    return Scenario(
        pulses=(multi_band_chirp(1, 400e3, tp, 3.0),),
        n_rx=1, k_pulses=12, pri_s=2e-3, carrier_hz=3e9,
        tau_s=np.array([[0.3 * tp]]), doppler_hz=np.array([[210.0]]),
        psi_rad=np.array([[0.4]]), b=np.array([b]), xi=np.array([[xi]]),
        sigma2=1.0, target=Swerling1(1.0))


def span_hd(y, S):
    """The package's HD on paths (M, 1, K) of one RX with Doppler steering
    S (K, M'): ``statistic`` on a receiver whose per-path span basis is
    that of ``steering_span``, the energy of each path's coordinates."""
    u, rank = steering_span(S[None])
    M, _, K = y.shape[-3:]
    rx = Receiver(sc=SimpleNamespace(m_tx=M, k_pulses=K), x=None,
                  varsigma=0.0, phasors=None, templates=None,
                  span=np.broadcast_to(u, (M,) + u.shape), rank=rank)
    return statistic(DetectorKind.HD, rx)(y)


class TestNcd:
    def test_zero_input(self):
        assert ncd_statistic(np.zeros((2, 1, 3), dtype=complex)) == 0.0

    def test_unit_magnitude_samples(self):
        y = np.array([1.0, 1j, -1.0]).reshape(1, 1, 3)
        assert ncd_statistic(y) == pytest.approx(3.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        y = random_measurement(rng, 3, 2, 7)
        brute = sum(abs(y[m, n, k]) ** 2
                    for m in range(3) for n in range(2) for k in range(7))
        assert ncd_statistic(y) == pytest.approx(brute, rel=1e-12)

    def test_exact_phase_invariance(self):
        rng = np.random.default_rng(1)
        y = random_measurement(rng)
        screen = np.exp(1j * rng.uniform(-np.pi, np.pi, y.shape))
        assert ncd_statistic(y * screen) == ncd_statistic(y)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(5, 2, 1, 12)) + 1j * rng.normal(size=(5, 2, 1, 12))
        got = ncd_statistic(batch)
        assert np.allclose(got, [ncd_statistic(b) for b in batch])


class TestAcd:
    def test_zero_input(self):
        theta = np.zeros((2, 1, 3))
        assert acd_statistic(np.zeros((2, 1, 3), dtype=complex), theta) == 0.0

    def test_noise_free_single_tx_coherent_gain(self):
        sc = single_tx_scenario()
        err = SyncErrors.zeros(1, 1)
        alpha = 0.7 * np.exp(0.3j)
        x = noise_free_mf_output(sc, err, alpha)
        comp = CompensationSet.from_scenario(sc, err)
        got = acd_statistic(x, comp.theta_hat)
        expect = (abs(alpha) * sc.b[0] * sc.xi[0, 0] * sc.k_pulses) ** 2
        assert got == pytest.approx(expect, rel=1e-9)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        y = random_measurement(rng)
        theta = rng.uniform(-np.pi, np.pi, y.shape)
        brute = abs(sum(np.exp(-1j * theta[m, n, k]) * y[m, n, k]
                        for m in range(2) for n in range(1)
                        for k in range(12))) ** 2
        assert acd_statistic(y, theta) == pytest.approx(brute, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            acd_statistic(np.zeros((2, 1, 3), dtype=complex), np.zeros((2, 1, 4)))


class TestCd:
    @pytest.fixture
    def ref_comp(self, ref_scenario, zero_err):
        return CompensationSet.from_scenario(ref_scenario, zero_err)

    def test_orthogonal_measurement(self, ref_comp):
        v = ref_comp.templates
        rng = np.random.default_rng(4)
        y = random_measurement(rng)
        # project out the template direction globally
        inner = np.sum(np.conj(v) * y)
        y = y - inner * v / np.sum(np.abs(v) ** 2)
        assert cd_statistic(y, ref_comp.templates) == pytest.approx(0.0, abs=1e-18)

    def test_template_itself_gives_varsigma_squared(self, ref_comp):
        v = ref_comp.templates
        varsigma = np.sum(np.abs(v) ** 2)
        assert cd_statistic(v, ref_comp.templates) == pytest.approx(varsigma ** 2, rel=1e-12)

    def test_noise_free_reference(self, ref_scenario, zero_err, ref_comp):
        # noise-free statistic equals |alpha|^2 varsigma^2, i.e. the
        # noncentrality identity lambda_CD * varsigma sigma^2 / 2
        alpha = 1.2 * np.exp(-0.8j)
        x = noise_free_mf_output(ref_scenario, zero_err, alpha)
        varsigma = np.sum(np.abs(ref_comp.templates) ** 2)
        got = cd_statistic(x, ref_comp.templates)
        assert got == pytest.approx(abs(alpha) ** 2 * varsigma ** 2, rel=1e-9)
        lam = 2 * got / (varsigma * ref_scenario.sigma2)
        assert lam * varsigma * ref_scenario.sigma2 / 2 == pytest.approx(got)


class TestHd:
    def test_in_subspace_equals_ncd(self):
        S = doppler_steering([200.0, 190.0], 12, 2e-3)
        rng = np.random.default_rng(5)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = (S @ c).reshape(1, 1, 12)
        got = span_hd(y, S)
        assert got == pytest.approx(ncd_statistic(y), rel=1e-12)

    def test_orthogonal_to_subspace(self):
        S = doppler_steering([200.0, 190.0], 12, 2e-3)
        rng = np.random.default_rng(6)
        y = random_measurement(rng, 1, 1, 12)
        q, _ = np.linalg.qr(S)
        y = y - np.einsum("kj,j->k", q, np.einsum("kj,k->j", np.conj(q), y[0, 0]))
        assert span_hd(y.reshape(1, 1, 12), S) == pytest.approx(0.0, abs=1e-22)

    def test_pythagoras_residual(self):
        S = doppler_steering([200.0, 150.0], 12, 2e-3)
        rng = np.random.default_rng(7)
        y = random_measurement(rng, 2, 1, 12)
        q, _ = np.linalg.qr(S)
        hd = span_hd(y, S)
        ncd = ncd_statistic(y)
        assert hd <= ncd + 1e-12
        resid = 0.0
        for m in range(2):
            proj = q @ (np.conj(q).T @ y[m, 0])
            resid += np.sum(np.abs(y[m, 0] - proj) ** 2)
        assert ncd - hd == pytest.approx(resid, rel=1e-10)

    def test_projector_idempotent(self):
        S = doppler_steering([200.0, 190.0], 12, 2e-3)
        rng = np.random.default_rng(8)
        y = random_measurement(rng, 2, 1, 12)
        q = doppler_projectors(S[None])[0]
        y_proj = np.einsum("kj,mnj->mnk", q, np.einsum("kj,mnk->mnj", np.conj(q), y))
        once = span_hd(y, S)
        twice = span_hd(y_proj, S)
        assert abs(twice - once) <= 1e-12 * once

    def test_basis_must_be_per_path(self, ref_scenario, zero_err):
        # the receiver holds one basis per path (M, N, K, r_S), and maps
        # a cube or a batch to (..., M, N, r_S); one (N, K, r_S) basis
        # per receiver is the oracle's form, not the package's
        rx = Receiver.build(ref_scenario, zero_err)
        assert rx.span.shape == (2, 1, 12, 2)
        y = np.zeros((5, 2, 1, 12), dtype=complex)
        assert rx.coordinates(y).shape == (5, 2, 1, 2)
        assert rx.coordinates(y[0]).shape == (2, 1, 2)
        with pytest.raises(ValueError):
            replace(rx, span=rx.span[0]).coordinates(y)

    def test_k_below_m_rejected(self):
        # K = 1 pulse leaves room for one of the M = 2 Doppler columns
        rx = Receiver.build(reference_scenario("multi_band", k_pulses=1),
                            SyncErrors.zeros(2, 1))
        with pytest.raises(ValueError,
                           match=r"RX 0 has rank 1 < M = 2 \(K = 1\)"):
            statistic(DetectorKind.HD, rx)

    def test_duplicate_doppler_columns_rejected(self, random_scenario):
        # both TX reach RX 1 at one Doppler; RX 0 keeps full rank
        sc, err = random_scenario(np.random.default_rng(3), with_errors=False,
                                  m_tx=2, n_rx=2, k_pulses=12)
        f = sc.doppler_hz.copy()
        f[:, 1] = 200.0
        rx = Receiver.build(replace(sc, doppler_hz=f), err)
        assert rx.rank.tolist() == [2, 1]
        with pytest.raises(ValueError,
                           match=r"RX 1 has rank 1 < M = 2 \(K = 12\)"):
            statistic(DetectorKind.HD, rx)


class TestMles:
    def test_alpha_exact_recovery(self, ref_scenario, zero_err):
        x = noise_free_mf_output(ref_scenario, zero_err, 1.0)
        alpha0 = 0.3 - 1.1j
        assert alpha_mle(alpha0 * x, x) == pytest.approx(alpha0, rel=1e-12)

    def test_alpha_zero_measurement(self, ref_scenario, zero_err):
        x = noise_free_mf_output(ref_scenario, zero_err, 1.0)
        assert alpha_mle(np.zeros_like(x), x) == 0.0

    def test_alpha_matches_normal_equations(self, ref_scenario, zero_err):
        x = noise_free_mf_output(ref_scenario, zero_err, 1.0)
        rng = np.random.default_rng(9)
        y = random_measurement(rng)
        # stacked least squares oracle
        A = x.reshape(-1, 1)
        sol, *_ = np.linalg.lstsq(A, y.reshape(-1), rcond=None)
        assert alpha_mle(y, x) == pytest.approx(complex(sol[0]), rel=1e-10)

    def test_alpha_rejects_zero_template(self):
        with pytest.raises(ValueError):
            alpha_mle(np.ones((1, 1, 2)), np.zeros((1, 1, 2)))

    def test_beta_exact_recovery(self):
        S = doppler_steering([200.0, 190.0], 12, 2e-3)
        c = np.array([1.0 - 0.5j, 0.2 + 2.0j])
        assert np.allclose(beta_mle(S @ c, S), c, rtol=1e-10)

    def test_beta_orthogonal_input(self):
        S = doppler_steering([200.0, 190.0], 12, 2e-3)
        rng = np.random.default_rng(10)
        y = rng.normal(size=12) + 1j * rng.normal(size=12)
        q, _ = np.linalg.qr(S)
        y -= q @ (np.conj(q).T @ y)
        assert np.allclose(beta_mle(y, S), 0.0, atol=1e-12)

    def test_beta_projection_identity(self):
        S = doppler_steering([200.0, 150.0], 12, 2e-3)
        rng = np.random.default_rng(11)
        y = random_measurement(rng, 1, 1, 12)
        beta = beta_mle(y[0, 0], S)
        assert np.sum(np.abs(S @ beta) ** 2) == pytest.approx(
            span_hd(y, S), rel=1e-10)


class TestGlrtConsistency:
    def test_cd_equals_amplitude_mle_identity(self, ref_scenario, zero_err):
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        v = comp.templates
        varsigma = np.sum(np.abs(v) ** 2)
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = random_measurement(rng)
            a_hat = alpha_mle(y, v)
            assert cd_statistic(y, comp.templates) == pytest.approx(
                abs(a_hat) ** 2 * varsigma ** 2, rel=1e-9)

    def test_acd_cd_proportional_single_tx(self):
        sc = single_tx_scenario(b=1.3, xi=0.8)
        err = SyncErrors.zeros(1, 1)
        comp = CompensationSet.from_scenario(sc, err)
        rng = np.random.default_rng(13)
        ratio = (sc.b[0] * sc.xi[0, 0]) ** 2
        for _ in range(10):
            y = random_measurement(rng, 1, 1, 12)
            assert cd_statistic(y, comp.templates) == pytest.approx(
                ratio * acd_statistic(y, comp.theta_hat), rel=1e-9)


class TestCompensationSet:
    def test_zero_errors_equal_true_model(self, ref_scenario, zero_err):
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        S, X, h = _model_factors(ref_scenario, zero_err)
        assert comp.S_hat.shape == (1, 12, 2)
        assert comp.X_hat.shape == comp.h_hat.shape == (2, 1, 2)
        assert np.array_equal(comp.S_hat, S)
        assert np.array_equal(comp.X_hat, X)
        assert np.array_equal(comp.h_hat, h)

    def test_phase_of_2_52_rad_is_a_value_error(self, ref_scenario,
                                                 zero_err):
        # each term of theta_hat is 0.6 2^52 rad, so the model and the
        # steering build, but on path (0, 0) their sum reaches 2^52 rad
        limit, tau = 2.0 ** 52, ref_scenario.tau_s[0, 0]
        span_s = ref_scenario.pri_s * (ref_scenario.k_pulses - 1)
        sc = replace(ref_scenario,
                     carrier_hz=0.6 * limit / (2 * math.pi * tau),
                     doppler_hz=np.full((2, 1), -0.6 * limit
                                        / (2 * math.pi * span_s)))
        _model_factors(sc, zero_err)
        with pytest.raises(ValueError, match=r"^the compensation phase "
                           r"theta_hat reaches 2\^52 rad"):
            CompensationSet.from_scenario(sc, zero_err)

    def test_templates_match_manual_product(self, ref_scenario, zero_err):
        comp = CompensationSet.from_scenario(ref_scenario, zero_err)
        v = comp.templates
        for m in range(2):
            X = np.diag(comp.X_hat[m, 0])
            manual = comp.S_hat[0] @ (X @ comp.h_hat[m, 0])
            assert np.allclose(v[m, 0], manual)


def abs_squared_forms(y, rx=None, theta=None):
    """The four statistics with their squared magnitudes as
    np.abs(...) ** 2, keyed by the statistic they check: NCD, the CD
    correlation against the receiver's templates and phasors (ACD in
    coordinates), ACD on the compensation phases, and HD on the
    receiver's per-path span bases.  A batch of span coordinates, whose
    receiver holds no span, is HD's projection as it stands: a path's
    coordinates are its coefficients in the orthonormal basis."""
    def cd(v):
        return np.abs(np.einsum("mnk,...mnk->...", np.conj(v), y)) ** 2

    coeffs = y
    if rx.span is not None:
        coeffs = np.einsum("mnkj,tmnk->tmnj", np.conj(rx.span), y)
    forms = {"ncd": np.sum(np.abs(y) ** 2, axis=(-3, -2, -1)),
             "cd": cd(rx.templates), "cd_phasors": cd(rx.phasors),
             "hd": np.sum(np.abs(coeffs) ** 2, axis=(1, 2, 3))}
    if theta is not None:
        rot = np.exp(-1j * theta)
        forms["acd"] = np.abs(np.sum(rot * y, axis=(-3, -2, -1))) ** 2
    return forms


def energy_forms(y, rx=None, theta=None):
    """The same statistics from ``detectors``, HD through
    ``analysis.statistic`` in the receiver's frame."""
    forms = {"ncd": ncd_statistic(y), "cd": cd_statistic(y, rx.templates),
             "cd_phasors": cd_statistic(y, rx.phasors),
             "hd": statistic(DetectorKind.HD, rx)(y)}
    if theta is not None:
        forms["acd"] = acd_statistic(y, theta)
    return forms


class TestEnergyForm:
    """Every statistic takes its squared magnitudes as the sum of squares
    of the float view; that agrees with np.abs(...) ** 2 to rounding."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cubes(self, seed, random_scenario):
        rng = np.random.default_rng(5000 + seed)
        sc, err = random_scenario(rng)
        sc = replace(sc, tau_s=sc.tau_s + 0.3e-5)  # keeps tau + dt >= 0
        rx = Receiver.build(sc, err)
        y = random_measurement(rng, sc.m_tx, sc.n_rx, sc.k_pulses)
        y = np.stack([y, 3.0 * y.conj(), 1e-3 * y])
        theta_hat = CompensationSet.from_scenario(sc, err).theta_hat
        want = abs_squared_forms(y, rx, theta_hat)
        got = energy_forms(y, rx, theta_hat)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-15,
                                       atol=0, err_msg=name)
        for name, v in energy_forms(y[0], rx, theta_hat).items():
            np.testing.assert_allclose(v, want[name][0], rtol=1e-15,
                                       atol=0, err_msg=name)

    def test_elementwise_is_the_summed_form(self):
        # |z|^2 of single values, as ACD and CD take it, equals the
        # summed form over one trailing axis bit for bit
        rng = np.random.default_rng(7)
        z = random_measurement(rng, 64, 2, 3)
        assert np.array_equal(_energy(z), _energy(z[..., None], (-1,)))
        assert _energy(z[0, 0, 0]) == _energy(z[0, 0, :1], (0,))

    @pytest.mark.parametrize("seed", range(4))
    def test_coordinate_batches(self, seed, random_scenario):
        rng = np.random.default_rng(6000 + seed)
        sc, err = random_scenario(rng)
        sc = replace(sc, tau_s=sc.tau_s + 0.3e-5)
        rx = Receiver.build(sc, err)
        frame = rx.frame()
        crx = frame[0]
        assert crx.span is None
        cfg = TrialConfig(trials=3000, seed=seed, target_draw=Swerling1(2.0))
        c, _ = montecarlo._coordinate_block(*frame, cfg, 0)
        want = abs_squared_forms(c, crx)
        got = energy_forms(c, crx)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-15,
                                       atol=0, err_msg=name)
        # HD on the coordinates is HD on the cubes they span, to the
        # rounding of the basis's orthonormality
        cubes = np.einsum("mnkj,tmnj->tmnk", rx.span, c)
        np.testing.assert_allclose(
            got["hd"], statistic(DetectorKind.HD, rx)(cubes), rtol=1e-13,
            atol=0)
