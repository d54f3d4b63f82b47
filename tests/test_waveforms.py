"""Tests for pulse envelopes and the cross-ambiguity function."""

import math

import numpy as np
import pytest
from scipy import integrate

from dmimo.waveforms import (
    MULTI_BAND,
    SINGLE_BAND_DOWN,
    SINGLE_BAND_UP,
    PulseSpec,
    caf,
    down_chirp,
    multi_band_chirp,
    pulse_set,
    up_chirp,
)
from oracles import caf_grid, caf_quadrature, caf_symmetry_partner, sample_pulse

BETA = 400e3
TP = 1e-5
ETA = 3.0
KAPPA = 3.0


@pytest.fixture
def mb_pair():
    return (multi_band_chirp(1, BETA, TP, ETA), multi_band_chirp(2, BETA, TP, ETA))


@pytest.fixture
def sb_pair():
    return (up_chirp(BETA, TP, KAPPA), down_chirp(BETA, TP, KAPPA))


ALL_SPECS = [
    multi_band_chirp(1, BETA, TP, ETA),
    multi_band_chirp(2, BETA, TP, ETA),
    up_chirp(BETA, TP, KAPPA),
    down_chirp(BETA, TP, KAPPA),
]


class TestSamplePulse:
    def test_multi_band_at_origin(self):
        p = sample_pulse(multi_band_chirp(1, BETA, TP, ETA), 0.0)
        assert p == pytest.approx(1.0 / math.sqrt(TP), rel=1e-12)
        assert p.imag == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_outside_support(self, spec):
        assert sample_pulse(spec, -TP / 2) == 0.0
        assert sample_pulse(spec, 1.5 * TP) == 0.0

    def test_up_chirp_midpoint(self):
        # direct substitution at t = T_p / 2
        expect = np.exp(1j * math.pi * BETA * (TP / 4 + KAPPA * TP / 2)) / math.sqrt(TP)
        got = sample_pulse(up_chirp(BETA, TP, KAPPA), TP / 2)
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_unit_energy(self, spec):
        energy, _ = integrate.quad(
            lambda t: abs(sample_pulse(spec, t)) ** 2, 0.0, TP, limit=200)
        assert energy == pytest.approx(1.0, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        spec = down_chirp(BETA, TP, KAPPA)
        ts = np.linspace(-TP, 2 * TP, 37)
        vec = sample_pulse(spec, ts)
        assert np.allclose(vec, [sample_pulse(spec, t) for t in ts])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec("triangle", BETA, TP)
        with pytest.raises(ValueError):
            PulseSpec("multi_band", -1.0, TP)


class TestCaf:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_auto_origin_is_unity(self, spec):
        assert caf(spec, spec, 0.0, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_multi_band_orthogonal_at_origin(self, mb_pair):
        a, b = mb_pair
        assert abs(caf(a, b, 0.0, 0.0)) < 1e-9

    def test_single_band_cross_is_large(self, sb_pair):
        u, d = sb_pair
        assert abs(caf(u, d, 0.0, 0.0)) > 0.1

    def test_frozen_single_band_offset(self, sb_pair):
        # dense trapezoid oracle with 2^18 points over the overlap
        u, d = sb_pair
        got = caf(u, d, 0.51 * TP, 0.0)
        assert got == pytest.approx(-0.3854923604404731 + 0.2166766178432362j,
                                    abs=1e-8)

    @pytest.mark.parametrize("nu", [TP, -TP, 1.2 * TP, -3 * TP])
    def test_exact_zero_for_disjoint_support(self, nu, sb_pair):
        u, d = sb_pair
        assert caf(u, d, nu, 137.0) == 0.0

    def test_cauchy_schwarz_bound(self, mb_pair, sb_pair):
        rng = np.random.default_rng(7)
        specs = list(mb_pair) + list(sb_pair)
        for _ in range(50):
            a, b = rng.choice(len(specs), 2)
            nu = rng.uniform(-TP, TP)
            f = rng.uniform(-2 * BETA, 2 * BETA)
            assert abs(caf(specs[a], specs[b], nu, f)) <= 1.0 + 1e-9

    def test_conjugate_symmetry_identity(self, mb_pair, sb_pair):
        rng = np.random.default_rng(11)
        specs = list(mb_pair) + list(sb_pair)
        for _ in range(100):
            a = specs[rng.integers(len(specs))]
            b = specs[rng.integers(len(specs))]
            nu = rng.uniform(-TP, TP)
            f = rng.uniform(-BETA, BETA)
            assert caf(a, b, nu, f) == pytest.approx(
                caf_symmetry_partner(a, b, nu, f), abs=1e-8)

    def test_quadrature_convergence(self, sb_pair):
        # doubling the oracle's node density changes nothing at the 1e-9
        # level, and the closed form sits on both
        u, d = sb_pair
        pts = [(0.31 * TP, 90.0), (0.51 * TP, 0.0), (-0.2 * TP, -150.0)]
        base = [caf_quadrature(u, d, nu, f) for nu, f in pts]
        dense = [caf_quadrature(u, d, nu, f, points_per_cycle=20.0)
                 for nu, f in pts]
        assert np.allclose(base, dense, rtol=0.0, atol=1e-9)
        assert np.allclose([caf(u, d, nu, f) for nu, f in pts], dense,
                           rtol=0.0, atol=1e-11)


FAMILIES = (MULTI_BAND, SINGLE_BAND_UP, SINGLE_BAND_DOWN)


def random_spec(rng, family, beta_hz, t_p):
    return PulseSpec(family, beta_hz, t_p, eta=rng.uniform(0.0, 4.0),
                     kappa=rng.uniform(0.0, 4.0), m=int(rng.integers(1, 5)))


def linear_coefficient_root(a, b, nu):
    """Doppler f that zeroes the integrand's linear phase coefficient at
    the overlap midpoint, the sinc's cancellation-prone point."""
    (sa, ca), (sb, cb) = a.chirp, b.chirp
    tp = a.t_p
    mid = 0.5 * (max(0.0, nu) + min(tp, tp + nu))
    q = math.pi * (sa * a.beta_hz - sb * b.beta_hz) / tp
    l0 = math.pi * (a.beta_hz * ca - b.beta_hz * cb
                    + 2.0 * sb * b.beta_hz * nu / tp)
    return -(l0 + 2.0 * q * mid) / (2.0 * math.pi)


def assert_matches_oracle(a, b, nu, f):
    got, want = caf(a, b, nu, f), caf_quadrature(a, b, nu, f)
    err = abs(got - want)
    assert err <= 1e-10, (a, b, nu, f, got, want)
    if abs(want) > 1e-3:
        assert err <= 1e-9 * abs(want), (a, b, nu, f, got, want)


class TestClosedFormVsQuadrature:
    """The closed form against the Gauss-Legendre oracle: 1e-10 absolute,
    and 1e-9 relative where |chi| > 1e-3."""

    @pytest.mark.parametrize("fa", FAMILIES)
    @pytest.mark.parametrize("fb", FAMILIES)
    @pytest.mark.parametrize("tbp", [4, 40])
    def test_random_draws(self, fa, fb, tbp):
        rng = np.random.default_rng([FAMILIES.index(fa),
                                     FAMILIES.index(fb), tbp])
        beta = tbp / TP
        for i in range(40):
            # every other draw gives b its own bandwidth
            beta_b = beta * rng.uniform(0.5, 2.0) if i % 2 else beta
            a = random_spec(rng, fa, beta, TP)
            b = random_spec(rng, fb, beta_b, TP)
            nu = rng.uniform(-TP, TP)
            if i % 5 == 1:
                # a sliver of overlap: nu within 1e-12..1e-2 Tp of +-Tp
                nu = math.copysign(TP * (1.0 - 10 ** rng.uniform(-12, -2)),
                                   nu)
            f = rng.uniform(-2.0 * beta, 2.0 * beta)
            if i % 5 == 3:
                f = linear_coefficient_root(a, b, nu) * (
                    1.0 + rng.uniform(-1e-6, 1e-6))
            assert_matches_oracle(a, b, nu, f)

    @pytest.mark.parametrize("fa", FAMILIES)
    @pytest.mark.parametrize("fb", FAMILIES)
    def test_sliver_of_overlap_relative(self, fa, fb):
        # |chi| <= L / T_p is tiny on a sliver, so hold it to 1e-9 relative:
        # every family pair reaches the sinc form there
        a = PulseSpec(fa, BETA, TP, eta=ETA, kappa=KAPPA, m=1)
        b = PulseSpec(fb, BETA, TP, eta=ETA, kappa=KAPPA, m=2)
        for gap in np.geomspace(1e-13, 1e-5, 17):
            for nu in (TP * (1.0 - gap), -TP * (1.0 - gap)):
                got, want = caf(a, b, nu, 70.0), caf_quadrature(a, b, nu, 70.0)
                assert abs(got - want) <= 1e-9 * abs(want), (gap, nu, got, want)

    def test_nearly_equal_sweep_rates(self):
        # the quadratic phase coefficient q is tiny but nonzero, where the
        # sinc and Fresnel forms hand over
        rng = np.random.default_rng(5)
        for rel in np.geomspace(1e-16, 1e-2, 29):
            for fam in FAMILIES:
                a = PulseSpec(fam, BETA, TP, eta=ETA, kappa=KAPPA)
                b = PulseSpec(fam, BETA * (1.0 + rel), TP, eta=ETA,
                              kappa=KAPPA)
                nu = rng.uniform(-TP, TP)
                for f in (rng.uniform(-2.0 * BETA, 2.0 * BETA),
                          rng.uniform(-1e3, 1e3),
                          linear_coefficient_root(a, b, nu)):
                    assert_matches_oracle(a, b, nu, f)

    @pytest.mark.parametrize("fa,fb", [
        (SINGLE_BAND_UP, SINGLE_BAND_DOWN), (SINGLE_BAND_DOWN, SINGLE_BAND_UP),
        (MULTI_BAND, MULTI_BAND)])
    def test_time_bandwidth_5000(self, fa, fb):
        # the analytic_wideband scale: 50 MHz over 100 us
        beta, tp = 50e6, 1e-4
        rng = np.random.default_rng(FAMILIES.index(fa) * 3
                                    + FAMILIES.index(fb))
        a = PulseSpec(fa, beta, tp, eta=3.0, kappa=3.0, m=1)
        b = PulseSpec(fb, beta, tp, eta=3.0, kappa=3.0, m=2)
        for nu in (0.0, rng.uniform(-tp, tp)):
            assert_matches_oracle(a, b, nu, rng.uniform(-1e4, 1e4))


class TestCafGrid:
    def test_zero_doppler_slice_character(self, mb_pair):
        a, b = mb_pair
        auto = caf_grid(a, a, (-TP, TP), (0.0, 0.0), 41, 2)
        cross = caf_grid(a, b, (-TP, TP), (0.0, 0.0), 41, 2)
        peak = np.abs(auto[:, 0]).max()
        assert np.abs(auto[20, 0]) == pytest.approx(1.0, abs=1e-9)  # nu = 0
        assert peak == pytest.approx(1.0, abs=1e-9)
        assert np.abs(cross[:, 0]).max() < 0.35  # cross stays well below auto

    def test_corner_grid_all_zero(self, sb_pair):
        u, d = sb_pair
        g = caf_grid(u, d, (-TP, TP), (-100.0, 100.0), 2, 2)
        assert np.all(g == 0.0)

    def test_matches_pointwise_calls(self, sb_pair):
        u, d = sb_pair
        g = caf_grid(u, d, (-0.9 * TP, 0.9 * TP), (-300.0, 300.0), 8, 8)
        nus = np.linspace(-0.9 * TP, 0.9 * TP, 8)
        fs = np.linspace(-300.0, 300.0, 8)
        for i in range(8):
            for j in range(8):
                assert g[i, j] == caf(u, d, nus[i], fs[j])

    def test_rejects_degenerate_axes(self, sb_pair):
        with pytest.raises(ValueError):
            caf_grid(*sb_pair, (-TP, TP), (0.0, 0.0), 1, 4)


class TestPulseSet:
    def test_multi_band_any_m(self):
        specs = pulse_set("multi_band", 3, BETA, TP)
        assert [s.m for s in specs] == [1, 2, 3]

    def test_single_band_requires_two_tx(self):
        with pytest.raises(ValueError):
            pulse_set("single_band", 3, BETA, TP)

    def test_unknown_set(self):
        with pytest.raises(ValueError):
            pulse_set("ofdm", 2, BETA, TP)
