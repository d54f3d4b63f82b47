"""Tests for pulse envelopes and the cross-ambiguity function."""

import math

import numpy as np
import pytest
from scipy import integrate

from dmimo.waveforms import PulseSpec, caf, pulse_set
from oracles import caf_grid, caf_quadrature, caf_symmetry_partner, sample_pulse

BETA = 400e3
TP = 1e-5
ETA = 3.0
KAPPA = 3.0


MB_PAIR = pulse_set("multi_band", 2, BETA, TP, ETA, KAPPA)
SB_PAIR = pulse_set("single_band", 2, BETA, TP, ETA, KAPPA)


@pytest.fixture
def mb_pair():
    return MB_PAIR


@pytest.fixture
def sb_pair():
    return SB_PAIR


ALL_SPECS = [*MB_PAIR, *SB_PAIR]


class TestSamplePulse:
    def test_multi_band_at_origin(self):
        p = sample_pulse(MB_PAIR[0], 0.0)
        assert p == pytest.approx(1.0 / math.sqrt(TP), rel=1e-12)
        assert p.imag == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_outside_support(self, spec):
        assert sample_pulse(spec, -TP / 2) == 0.0
        assert sample_pulse(spec, 1.5 * TP) == 0.0

    def test_up_chirp_midpoint(self):
        # direct substitution at t = T_p / 2
        expect = np.exp(1j * math.pi * BETA * (TP / 4 + KAPPA * TP / 2)) / math.sqrt(TP)
        got = sample_pulse(SB_PAIR[0], TP / 2)
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_unit_energy(self, spec):
        energy, _ = integrate.quad(
            lambda t: abs(sample_pulse(spec, t)) ** 2, 0.0, TP, limit=200)
        assert energy == pytest.approx(1.0, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        spec = SB_PAIR[1]
        ts = np.linspace(-TP, 2 * TP, 37)
        vec = sample_pulse(spec, ts)
        assert np.allclose(vec, [sample_pulse(spec, t) for t in ts])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            PulseSpec(BETA, TP, 1.0, math.inf)
        with pytest.raises(ValueError, match="must be positive"):
            PulseSpec(-1.0, TP, 1.0, 0.0)

    def test_factories_are_their_chirps(self):
        # each pulse of pulse_set is the chirp (beta, T_p, s, c) written
        # out from its formula, and the CAF reads nothing else: the values
        # over a (nu, f) grid agree bit for bit
        pairs = list(zip(pulse_set("multi_band", 3, BETA, TP, ETA, KAPPA),
                         [PulseSpec(BETA, TP, 1.0, ETA * m) for m in (1, 2, 3)]))
        pairs += zip(SB_PAIR, [PulseSpec(BETA, TP, 1.0, KAPPA),
                               PulseSpec(BETA, TP, -1.0, 2.0 + KAPPA)])
        nus = np.linspace(-1.1 * TP, 1.1 * TP, 9)[:, None]
        fs = np.linspace(-2 * BETA, 2 * BETA, 7)[None, :]
        for made, written in pairs:
            assert made == written
            for other in (pairs[1][0], pairs[-1][0]):
                assert caf(made, other, nus, fs).tobytes() == caf(
                    written, other, nus, fs).tobytes()


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


FAMILIES = ("multi_band", "single_band_up", "single_band_down")


def family_pulse(family, beta_hz, t_p, eta=ETA, kappa=KAPPA, m=1):
    """The pulse ``pulse_set`` builds: multi-band chirp m, or the up or
    down chirp of the single-band pair."""
    if family == "multi_band":
        return pulse_set("multi_band", m, beta_hz, t_p, eta, kappa)[m - 1]
    up, down = pulse_set("single_band", 2, beta_hz, t_p, eta, kappa)
    return up if family == "single_band_up" else down


def random_spec(rng, family, beta_hz, t_p):
    return family_pulse(family, beta_hz, t_p, eta=rng.uniform(0.0, 4.0),
                        kappa=rng.uniform(0.0, 4.0),
                        m=int(rng.integers(1, 5)))


def linear_coefficient_root(a, b, nu):
    """Doppler f that zeroes the integrand's linear phase coefficient at
    the overlap midpoint, the sinc's cancellation-prone point."""
    sa, ca, sb, cb = a.s, a.c, b.s, b.c
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


def assert_array_matches_points(draws):
    """One array call over the draws (a, b, nu, f) equals the per-point
    calls bit for bit: the same operations run on every entry."""
    a, b, nu, f = zip(*draws)
    got = caf(np.array(a, dtype=object), np.array(b, dtype=object),
              np.array(nu), np.array(f))
    assert got.shape == (len(draws),)
    for g, d in zip(got, draws):
        want = caf(*d)
        assert g.tobytes() == np.complex128(want).tobytes(), (d, g, want)


def caf_branch(a, b, nu, f):
    """Which form of the closed form an argument set takes: 'zero' for
    disjoint supports, 'sinc', or 'fresnel' with the stationary point
    'inside' the overlap, or 'below' or 'above' it (the auxiliary form),
    and the sign of the quadratic coefficient q."""
    tp = a.t_p
    lo, hi = max(0.0, nu), min(tp, tp + nu)
    if hi <= lo:
        return "zero"
    sa, ca, sb, cb = a.s, a.c, b.s, b.c
    q = math.pi * (sa * a.beta_hz - sb * b.beta_hz) / tp
    half = 0.5 * (hi - lo)
    if abs(q) * half * half <= 1e-14:
        return "sinc"
    mid = 0.5 * (lo + hi)
    slope = (math.pi * (a.beta_hz * ca - b.beta_hz * cb
                        + 2.0 * sb * b.beta_hz * nu / tp)
             + 2.0 * math.pi * f + 2.0 * q * mid)
    t_s = -0.5 * slope / q
    where = ("inside" if -half < t_s < half
             else "below" if t_s <= -half else "above")
    return f"fresnel-{where}-q{'<' if q < 0 else '>'}0"


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
        draws = []
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
            draws.append((a, b, nu, f))
        assert_array_matches_points(draws)

    @pytest.mark.parametrize("fa", FAMILIES)
    @pytest.mark.parametrize("fb", FAMILIES)
    def test_sliver_of_overlap_relative(self, fa, fb):
        # |chi| <= L / T_p is tiny on a sliver, so hold it to 1e-9 relative:
        # every family pair reaches the sinc form there
        a = family_pulse(fa, BETA, TP, m=1)
        b = family_pulse(fb, BETA, TP, m=2)
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
                a = family_pulse(fam, BETA, TP)
                b = family_pulse(fam, BETA * (1.0 + rel), TP)
                nu = rng.uniform(-TP, TP)
                for f in (rng.uniform(-2.0 * BETA, 2.0 * BETA),
                          rng.uniform(-1e3, 1e3),
                          linear_coefficient_root(a, b, nu)):
                    assert_matches_oracle(a, b, nu, f)

    @pytest.mark.parametrize("fa,fb", [
        ("single_band_up", "single_band_down"),
        ("single_band_down", "single_band_up"), ("multi_band", "multi_band")])
    def test_time_bandwidth_5000(self, fa, fb):
        # the analytic_wideband scale: 50 MHz over 100 us
        beta, tp = 50e6, 1e-4
        rng = np.random.default_rng(FAMILIES.index(fa) * 3
                                    + FAMILIES.index(fb))
        a = family_pulse(fa, beta, tp, m=1)
        b = family_pulse(fb, beta, tp, m=2)
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

    def test_array_call_matches_grid(self, sb_pair):
        # delays down the rows, Dopplers across the columns
        u, d = sb_pair
        g = caf_grid(u, d, (-1.1 * TP, 1.1 * TP), (-300.0, 300.0), 9, 5)
        nus = np.linspace(-1.1 * TP, 1.1 * TP, 9)
        fs = np.linspace(-300.0, 300.0, 5)
        assert np.array_equal(caf(u, d, nus[:, None], fs[None, :]), g)

    def test_array_entries_on_every_branch(self):
        # up/down pairs put the stationary point inside the overlap or on
        # either side of it, with q of either sign; equal sweep rates and
        # slivers near |nu| = T_p take the sinc; |nu| >= T_p is zero
        rng = np.random.default_rng(23)
        beta = 40 / TP
        draws = []
        for fa in FAMILIES:
            for fb in FAMILIES:
                for i in range(30):
                    a = random_spec(rng, fa, beta, TP)
                    b = random_spec(rng, fb, beta * (1.5 if i % 3 else 1.0),
                                    TP)
                    nu = rng.uniform(-1.3 * TP, 1.3 * TP)
                    if i % 5 == 1:
                        nu = math.copysign(
                            TP * (1.0 - 10 ** rng.uniform(-12, -2)), nu)
                    draws.append((a, b, nu, rng.uniform(-4 * beta, 4 * beta)))
        branches = {caf_branch(*d) for d in draws}
        assert branches == {"zero", "sinc"} | {
            f"fresnel-{where}-q{sign}0" for where in ("inside", "below",
                                                     "above")
            for sign in "<>"}
        assert any(abs(abs(nu) - TP) < 1e-6 * TP and caf(a, b, nu, f) != 0
                   for a, b, nu, f in draws)
        assert_array_matches_points(draws)
        zero = [caf(*d) for d in draws if caf_branch(*d) == "zero"]
        assert all(z.tobytes() == bytes(16) for z in map(np.complex128, zero))

    def test_array_arguments_broadcast(self, mb_pair):
        # pulses along one axis, delays along another, one Doppler
        specs = np.array(mb_pair, dtype=object)
        nus = np.linspace(-0.5 * TP, 0.5 * TP, 3)
        got = caf(specs[:, None, None], specs[None, None, :],
                  nus[None, :, None], 40.0)
        assert got.shape == (2, 3, 2)
        for m, j, mb in np.ndindex(got.shape):
            assert got[m, j, mb] == caf(mb_pair[m], mb_pair[mb], nus[j], 40.0)

    def test_array_rejections(self, mb_pair):
        a, b = mb_pair
        with pytest.raises(ValueError, match="finite"):
            caf(a, b, np.array([0.0, np.nan]), 0.0)
        with pytest.raises(ValueError, match="common duration"):
            caf(np.array([a, PulseSpec(BETA, 2 * TP, 1.0, 2 * ETA)]), b,
                0.0, 0.0)
        with pytest.raises(ValueError, match="overflows a double"):
            caf(a, b, np.zeros(2), np.array([0.0, 1e308]))

    def test_rejects_degenerate_axes(self, sb_pair):
        with pytest.raises(ValueError):
            caf_grid(*sb_pair, (-TP, TP), (0.0, 0.0), 1, 4)


class TestPulseSet:
    def test_multi_band_any_m(self):
        specs = pulse_set("multi_band", 3, BETA, TP, ETA, KAPPA)
        assert [s.c for s in specs] == [ETA * m for m in (1, 2, 3)]

    def test_single_band_requires_two_tx(self):
        with pytest.raises(ValueError):
            pulse_set("single_band", 3, BETA, TP, ETA, KAPPA)

    def test_unknown_set(self):
        with pytest.raises(ValueError):
            pulse_set("ofdm", 2, BETA, TP, ETA, KAPPA)

    @pytest.mark.parametrize("eta, kappa, multi_band, single_band", [
        (3.0, 3.0, (3.0, 6.0, 9.0, 12.0), ((1.0, 3.0), (-1.0, 5.0))),
        (0.25, 30.0, (0.25, 0.5, 0.75, 1.0), ((1.0, 30.0), (-1.0, 32.0)))],
        ids=["presets", "eta-0.25-kappa-30"])
    def test_pinned_pulses(self, eta, kappa, multi_band, single_band):
        # (beta, T_p, s, c) of every pulse: (1, eta m) for TX m of
        # multi_band, (1, kappa) and (-1, 2 + kappa) for the single_band pair
        def fields(pulses):
            return [(p.beta_hz, p.t_p, p.s, p.c) for p in pulses]
        for m_tx in (1, 2, 3, 4):
            assert fields(pulse_set("multi_band", m_tx, BETA, TP, eta,
                                    kappa)) == [
                (BETA, TP, 1.0, c) for c in multi_band[:m_tx]]
        assert fields(pulse_set("single_band", 2, BETA, TP, eta, kappa)) == [
            (BETA, TP, s, c) for s, c in single_band]

    @pytest.mark.parametrize("args, message", [
        (("multi_band", 2, BETA, TP, -1.0, KAPPA),
         "multi-band needs eta >= 0"),
        (("single_band", 2, BETA, TP, ETA, -1.0), "kappa must be nonnegative"),
        (("single_band", 3, BETA, TP, ETA, KAPPA),
         "single_band waveform set is defined for M=2 only"),
        (("ofdm", 2, BETA, TP, ETA, KAPPA), "unknown waveform set 'ofdm'")],
        ids=["negative-eta", "negative-kappa", "single-band-of-3", "unknown"])
    def test_rejections(self, args, message):
        with pytest.raises(ValueError) as exc:
            pulse_set(*args)
        assert str(exc.value) == message
