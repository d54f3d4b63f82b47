"""Tests for the special-function kernel.

Frozen expected values were produced with independent oracles: adaptive
mpmath quadrature of the gamma integrand, numerical integration of the
noncentral chi-square density, and 40-digit mpmath series evaluation.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from dmimo.specfun import (
    _FRESNEL_SERIES_MAX,
    Probability,
    _gamma_series,
    fresnel,
    fresnel_aux,
    inv_reg_upper_gamma,
    marcum_q,
    reg_upper_gamma,
)
from oracles import marcum_q_per_term

# Marcum-Q's bits on a grid of orders m and noncentralities lambda = a^2
# (analytic_array's rows reach lambda = 1008), at two thresholds b: the
# Pfa 1e-4 threshold sqrt(2 q), q = inv_reg_upper_gamma(m, 1e-4), held
# here as its bits, and the H1 mean, b = sqrt(2 m + lambda).  Per order:
# (b at Pfa 1e-4, [(Q at Pfa 1e-4, Q at the mean) per lambda]).
MARCUM_LAMBDAS = (0.0, 0.01, 0.5, 3.7, 24.0, 100.0, 1008.0, 4096.0, 1e4)
MARCUM_PINS = {
    1: ('0x1.12af03c69eb28p+2', [
        ('0x1.a36e2eb1c4333p-14', '0x1.78b56362cef36p-2'),
        ('0x1.b6eba29ed467fp-14', '0x1.78b5fc7ddf1efp-2'),
        ('0x1.d6752f9e86d87p-12', '0x1.7cc8da493d831p-2'),
        ('0x1.cc93ebf75a9f9p-7', '0x1.a638251b17ebbp-2'),
        ('0x1.86cd54679583ep-1', '0x1.d77d535d9ba02p-2'),
        ('0x1.ffffffe062818p-1', '0x1.ebb7ab8add7d1p-2'),
        ('0x1.ffffffffffaa3p-1', '0x1.f9922bc2a0883p-2'),
        ('0x1.0000000000000p+0', '0x1.fccf1b830ef81p-2'),
        ('0x1.0000000000000p+0', '0x1.fdf522aa3739cp-2'),
    ]),
    4: ('0x1.690ff10f8606bp+2', [
        ('0x1.a36e2eb1c4336p-14', '0x1.bbdf975b12a2ep-2'),
        ('0x1.aa57a6f2c35e6p-14', '0x1.bbdf9f86695d2p-2'),
        ('0x1.b23ea8af29a68p-13', '0x1.bc24905ae6173p-2'),
        ('0x1.bb584f809ce67p-9', '0x1.c2a556bdfdf0dp-2'),
        ('0x1.e1acfe448e524p-2', '0x1.db14ecd75c760p-2'),
        ('0x1.ffffe7eb86ccep-1', '0x1.ec3439e7cbc95p-2'),
        ('0x1.ffffffffffaa3p-1', '0x1.f9963c5e6933bp-2'),
        ('0x1.0000000000000p+0', '0x1.fccf9b0514c75p-2'),
        ('0x1.0000000000000p+0', '0x1.fdf5441d41d85p-2'),
    ]),
    24: ('0x1.34f68edfbaf4bp+3', [
        ('0x1.a36e2eb1c4310p-14', '0x1.e432b796b3886p-2'),
        ('0x1.a592828973511p-14', '0x1.e432b7b3ba3d3p-2'),
        ('0x1.0d46271cfc10bp-13', '0x1.e433ca36f35a8p-2'),
        ('0x1.12de33e0a5e9bp-11', '0x1.e4631027f53a0p-2'),
        ('0x1.2307226c5d350p-4', '0x1.e765b9fcdd900p-2'),
        ('0x1.fe67c1724c874p-1', '0x1.eed33629029ebp-2'),
        ('0x1.ffffffffffaa3p-1', '0x1.f9b0b3b626c01p-2'),
        ('0x1.0000000000000p+0', '0x1.fcd2e8178cbfep-2'),
        ('0x1.0000000000000p+0', '0x1.fdf622924d80ap-2'),
    ]),
    512: ('0x1.153be5c7a8063p+5', [
        ('0x1.a36e2eb1c49f9p-14', '0x1.f9fb5ea27a9c8p-2'),
        ('0x1.a3d15593ca1dep-14', '0x1.f9fb5ea27e8dap-2'),
        ('0x1.b734a47a677eap-14', '0x1.f9fb5ec673803p-2'),
        ('0x1.25c82c5a421d1p-13', '0x1.f9fb66401dac1p-2'),
        ('0x1.9118e7c8a6013p-11', '0x1.f9fc8b212d96ap-2'),
        ('0x1.feec339a97fc0p-5', '0x1.fa0bb2f873ab2p-2'),
        ('0x1.ffffffffffaa3p-1', '0x1.fb594e34da883p-2'),
        ('0x1.0000000000000p+0', '0x1.fd1a3434830ecp-2'),
        ('0x1.0000000000000p+0', '0x1.fe0a441525584p-2'),
    ]),
    4096: ('0x1.7497e1a1efd67p+6', [
        ('0x1.a36e2eb1c1722p-14', '0x1.fddf4f6096ddep-2'),
        ('0x1.a39009e67d501p-14', '0x1.fddf4f60a818ap-2'),
        ('0x1.aa1743b03fb60p-14', '0x1.fddf4f60d49fap-2'),
        ('0x1.d71ce18d3b884p-14', '0x1.fddf4f6b73020p-2'),
        ('0x1.b69dcbf271095p-13', '0x1.fddf5127ac746p-2'),
        ('0x1.bd5f2c7e44b60p-10', '0x1.fddf6d4f01ffap-2'),
        ('0x1.fff367315e62ap-1', '0x1.fde7ddfe2de85p-2'),
        ('0x1.0000000000000p+0', '0x1.fe1e8de65d30ep-2'),
        ('0x1.0000000000000p+0', '0x1.fe723b45774f1p-2'),
    ]),
}

# The bits of both Lentz continued fractions, so that no change to their
# floating-point order passes unseen.  reg_upper_gamma(s, x) at
# x = s + 1 + k sqrt(s), k in GAMMA_CF_OFFSETS, all on the fraction's side
# x >= s + 1; integer orders are ints, as marcum_q passes them.
GAMMA_CF_OFFSETS = (0.0, 1.0, 4.0, 12.0, 40.0)
GAMMA_CF_PINS = {
    1: (
        '0x1.152aaa3bf81ccp-3',
        '0x1.97db0ccceb0b0p-5',
        '0x1.44e51f113d4d3p-9',
        '0x1.be6c6fdb01613p-21',
        '0x1.536452ee2f764p-61',
    ),
    2.5: (
        '0x1.c3df10d623ed0p-3',
        '0x1.21db1eb4a4f4ap-4',
        '0x1.7d2ba19a400efp-10',
        '0x1.fef5ed6052b2fp-27',
        '0x1.5646403eb4181p-88',
    ),
    4: (
        '0x1.0f62f41b2db48p-2',
        '0x1.4ee940cb70418p-4',
        '0x1.13546bfc062dap-10',
        '0x1.3bb602523b67bp-30',
        '0x1.0bdc84d24a702p-106',
    ),
    24: (
        '0x1.93541a825b63fp-2',
        '0x1.e3db5ba19a307p-4',
        '0x1.27d8e8fec7f2dp-12',
        '0x1.0b07e61ea5e58p-48',
        '0x1.07ebbfe6d9effp-214',
    ),
    100: (
        '0x1.c9d58dd67a1c5p-2',
        '0x1.1807308576dccp-3',
        '0x1.ef55debe8a993p-14',
        '0x1.db8f29a8fbfe7p-66',
        '0x1.3bea7b18bffd9p-353',
    ),
    512: (
        '0x1.e7f449b143c8ep-2',
        '0x1.2ff7a36a53fc7p-3',
        '0x1.01dd9d222eaf7p-14',
        '0x1.16a51917835b9p-83',
        '0x1.8d387173a3d58p-562',
    ),
    1008: (
        '0x1.eeda7b62b0a8dp-2',
        '0x1.35ccb8373242dp-3',
        '0x1.b0fad99a99a84p-15',
        '0x1.33a1b528fee30p-89',
        '0x1.0670ce36fd59cp-654',
    ),
    4096: (
        '0x1.f77d8aa8820e3p-2',
        '0x1.3d4d806a91c64p-3',
        '0x1.56173fc6f5562p-15',
        '0x1.4aa3f1b73764fp-98',
        '0x1.694fde3a7b858p-832',
    ),
}
# fresnel(x) and fresnel_aux(x) on (1.5, 1e8], past the series switch and
# short of the asymptotic branch: (C, S, g, f) per x in FRESNEL_CF_ARGS.
FRESNEL_CF_ARGS = (math.nextafter(1.5, 2.0), 1.6, 2.0, 3.7, 10.0, 123.456,
                   1e4, 1e6, 1e8)
FRESNEL_CF_PINS = (
    ('0x1.c7f28bb514002p-2', '0x1.651f5ec0b3644p-1',
     '0x1.99c2b0fcbb15dp-6', '0x1.a099d7ac27a36p-3'),
    ('0x1.763b966945a16p-2', '0x1.471c4954fadfep-1',
     '0x1.5c45afb248232p-6', '0x1.899cf40bb7540p-3'),
    ('0x1.f3f8b36d044bfp-2', '0x1.5fa85c0e05e06p-2',
     '0x1.80e9925f7680fp-7', '0x1.40af47e3f43f5p-3'),
    ('0x1.1579e6de533eep-1', '0x1.2663d30d37fa8p-1',
     '0x1.041fe70bc4d19p-9', '0x1.5fd10146dc01cp-4'),
    ('0x1.ffe5717bb4039p-2', '0x1.df67f36bf6e03p-2',
     '0x1.a8e844bfc7728p-14', '0x1.04c064a048fe6p-5'),
    ('0x1.0116554a80d89p-1', '0x1.00bfac3748b3ap-1',
     '0x1.ce8b632283fe2p-25', '0x1.51f248a50afd9p-9'),
    ('0x1.00000000007edp-1', '0x1.fff7a7dbc78fep-2',
     '0x1.c84f5f1a32336p-44', '0x1.0b04870e04882p-15'),
    ('0x1.ffffffff43358p-2', '0x1.ffffeaa37a541p-2',
     '0x1.de79cb83c0b49p-64', '0x1.55c85af339003p-22'),
    ('0x1.ffffffd38a872p-2', '0x1.0000000febb6bp-1',
     '0x1.f5b7dbf8775c1p-84', '0x1.b57b55b2347b3p-29'),
)


class TestProbability:
    def test_accepts_in_range(self):
        assert float(Probability(0.0)) == 0.0
        assert float(Probability(1.0)) == 1.0
        assert float(Probability(0.25)) == 0.25

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Probability(bad)

    def test_behaves_as_float(self):
        assert Probability(0.5) + 0.25 == 0.75


class TestRegUpperGamma:
    def test_full_domain_is_one(self):
        assert reg_upper_gamma(5, 0.0) == 1.0

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x)
        assert reg_upper_gamma(1, math.log(2)) == pytest.approx(0.5, rel=1e-14)

    def test_frozen_midpoint(self):
        # mpmath quadrature of t^23 e^-t over [24, inf) / Gamma(24)
        assert reg_upper_gamma(24, 24) == pytest.approx(0.4728497205477440, rel=1e-12)

    @pytest.mark.parametrize("s", range(1, 61))
    def test_monotone_nonincreasing_in_x(self, s):
        xs = np.linspace(0.0, 4.0 * s, 60)
        vals = [reg_upper_gamma(s, x) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_decays_to_zero(self):
        assert reg_upper_gamma(3, 200.0) < 1e-60

    @pytest.mark.parametrize("s,x", [(-1, 1.0), (0, 1.0), (2, -0.5),
                                     (float("nan"), 1.0), (2, float("inf"))])
    def test_domain_errors(self, s, x):
        with pytest.raises(ValueError):
            reg_upper_gamma(s, x)

    @pytest.mark.parametrize("s", [2**53, 2.0**60, 10**20, 10**309],
                             ids=["2**53", "2.0**60", "1e20", "1e309"])
    def test_rejects_orders_from_2_53(self, s):
        # s + 1 rounds to s, which divided by zero in the continued
        # fraction; 10**309 is beyond a double
        with pytest.raises(ValueError, match=r"2\*\*53"):
            reg_upper_gamma(s, 2.0**53)

    @pytest.mark.parametrize("s", sorted(GAMMA_CF_PINS))
    def test_continued_fraction_bits_pinned(self, s):
        for k, want in zip(GAMMA_CF_OFFSETS, GAMMA_CF_PINS[s], strict=True):
            assert reg_upper_gamma(s, s + 1.0 + k * math.sqrt(s)).hex() == \
                want, k

    def test_inverse_and_marcum_reject_orders_from_2_53(self):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            inv_reg_upper_gamma(2**53, 1e-3)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            marcum_q(2**53, 1.0, 2.0**27)


class TestInvRegUpperGamma:
    def test_exponential_inverse(self):
        assert inv_reg_upper_gamma(1, 1e-4) == pytest.approx(math.log(1e4), rel=1e-12)

    def test_frozen_order_24(self):
        # mpmath root of the regularized upper gamma at q = 1e-4
        assert inv_reg_upper_gamma(24, 1e-4) == pytest.approx(46.610453138115764, rel=1e-12)

    def test_round_trip(self):
        assert inv_reg_upper_gamma(3, reg_upper_gamma(3, 7.0)) == pytest.approx(7.0, rel=1e-9)

    @pytest.mark.parametrize("s", [1, 12, 24, 48])
    def test_round_trip_grid(self, s):
        # keep q away from the saturated endpoints where the round-trip
        # is ill-conditioned in double precision
        for x in [0.6 * s, 0.8 * s, s, 1.3 * s, 1.8 * s]:
            q = reg_upper_gamma(s, x)
            assert inv_reg_upper_gamma(s, q) == pytest.approx(x, rel=1e-9)

    @pytest.mark.parametrize("s", [1, 2.5, 12, 24, 100, 1024, 4096])
    def test_matches_scipy_inverse(self, s):
        for q in np.logspace(-15, math.log10(0.999), 12):
            assert inv_reg_upper_gamma(s, q) == pytest.approx(
                special.gammainccinv(s, q), rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.2])
    def test_rejects_degenerate_probability(self, q):
        with pytest.raises(ValueError):
            inv_reg_upper_gamma(5, q)


class TestMarcumQ:
    def test_tail_over_full_support(self):
        assert marcum_q(3, 2.5, 0.0) == 1.0

    def test_central_case(self):
        assert marcum_q(1, 0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_central_equals_gamma_tail(self):
        for m in (1, 2, 12, 24):
            b = 1.7
            assert marcum_q(m, 0.0, b) == pytest.approx(
                reg_upper_gamma(m, b * b / 2), rel=1e-13)

    def test_frozen_unit_point(self):
        # numerical integration of the noncentral chi-square(2, 1) density
        assert marcum_q(1, 1.0, 1.0) == pytest.approx(0.7328798037968202, rel=1e-12)

    def test_monotone_in_arguments(self):
        a_grid = np.linspace(0.0, 4.0, 9)
        b_grid = np.linspace(0.0, 4.0, 9)
        for m in (1, 4):
            for b in b_grid:
                vals = [marcum_q(m, a, b) for a in a_grid]
                assert all(x <= y + 1e-13 for x, y in zip(vals, vals[1:]))
            for a in a_grid:
                vals = [marcum_q(m, a, b) for b in b_grid]
                assert all(x >= y - 1e-13 for x, y in zip(vals, vals[1:]))

    def test_matches_noncentral_chi_square_cdf(self):
        # 1 - Q_m(a, b) is the noncentral chi-square(2m, a^2) CDF at b^2,
        # checked against direct quadrature of the density.
        for m in (1, 2, 3, 6, 12):
            for a in (0.3, 1.0, 2.0, 3.5, 5.0):
                for b in (0.5, 1.0, 2.0, 3.0, 4.5):
                    cdf, _ = integrate.quad(
                        lambda x: stats.ncx2.pdf(x, 2 * m, a * a), 0.0, b * b,
                        limit=200)
                    assert 1.0 - marcum_q(m, a, b) == pytest.approx(cdf, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 4, 24, 256, 1024])
    def test_matches_scipy_tail(self, m):
        # Q_m(a, b) is the noncentral chi-square(2m, a^2) tail at b^2;
        # b^2 runs from 3 sd below the mean to 5 sd above it
        for lam in (0.25, 0.5 * m, 2.0 * m):
            mean, sd = 2 * m + lam, math.sqrt(4 * m + 4 * lam)
            for z in (-3.0, 0.0, 3.0, 5.0):
                x = max(mean + z * sd, 1e-3)
                assert marcum_q(m, math.sqrt(lam), math.sqrt(x)) == \
                    pytest.approx(stats.ncx2.sf(x, 2 * m, lam), rel=1e-9)

    @pytest.mark.parametrize("m", [1, 4, 64, 128, 1024])
    def test_deep_tail_matches_scipy(self, m):
        # Q down to 1e-15, where the higher Poisson terms carry most of the
        # sum; scipy's ncx2.sf agrees with 40-digit mpmath to 3e-14 here
        for lam in sorted({1.0, float(m), 4.0 * m}):
            for q in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
                x = stats.ncx2.isf(q, 2 * m, lam)
                assert marcum_q(m, math.sqrt(lam), math.sqrt(x)) == \
                    pytest.approx(stats.ncx2.sf(x, 2 * m, lam), rel=1e-10)

    def test_frozen_deep_tail_point(self):
        # 40-digit mpmath sum of the Poisson mixture
        assert marcum_q(128, 12.868229512710542, 27.858005692978796) == \
            pytest.approx(8.01053041195088194962679522513e-18, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 4, 64, 512, 4096])
    def test_recurrence_matches_per_term_sum(self, m):
        # The per-term sum evaluates a fresh incomplete gamma per Poisson
        # term.  It stops at an absolute weight of 1e-18, which leaves it
        # short by up to about 1e-17, hence the absolute slack below 1e-7.
        for lam in sorted({0.5, float(m), 4.0 * m}):
            for q in (0.9, 0.5, 1e-2, 1e-4, 1e-7, 1e-10):
                b = math.sqrt(stats.ncx2.isf(q, 2 * m, lam))
                old = marcum_q_per_term(m, math.sqrt(lam), b)
                assert marcum_q(m, math.sqrt(lam), b) == \
                    pytest.approx(old, rel=1e-10, abs=1e-17)

    def test_large_noncentrality_saturates(self):
        assert marcum_q(24, 40.0, 10.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", sorted(MARCUM_PINS))
    def test_bits_pinned(self, m):
        b_pfa, values = MARCUM_PINS[m]
        b_pfa = float.fromhex(b_pfa)
        assert len(values) == len(MARCUM_LAMBDAS)
        for lam, (at_pfa, at_mean) in zip(MARCUM_LAMBDAS, values):
            a, b_mean = math.sqrt(lam), math.sqrt(2 * m + lam)
            assert float(marcum_q(m, a, b_pfa)).hex() == at_pfa, lam
            assert float(marcum_q(m, a, b_mean)).hex() == at_mean, lam

    def test_walk_short_of_its_stopping_rule_raises(self):
        # at lambda = 2e8 the Poisson weights spread 1e4 terms either side
        # of the mode, so the upward walk's 10,000 terms leave a sixth of
        # the mass unsummed: the truncated sum read 0.8413, where the
        # tail is 1
        assert stats.ncx2.sf(18.42, 2, 2e8) == 1.0
        with pytest.raises(ValueError, match=r"^Marcum-Q series at "
                           r"noncentrality a\^2 = 200000000\.0 does not "
                           r"converge in 10000 terms$"):
            marcum_q(1, math.sqrt(2e8), math.sqrt(18.42))
        # below about 2.7e6 the walk stops by its rule
        assert marcum_q(1, math.sqrt(2.6e6), math.sqrt(18.42)) == \
            pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a2", [1.3e5, 1.6e5, 1.9e5])
    def test_walk_of_zero_terms_is_zero(self, a2):
        # with the threshold at 10x the H1 mean every term underflows, so
        # the walk meets no stopping rule in its 10,000 terms; it raised
        # there, where the tail's Chernoff bound proves the sum is zero
        m, b2 = 24, 10.0 * (48 + a2)
        assert stats.ncx2.sf(b2, 2 * m, a2) == 0.0
        assert marcum_q(m, math.sqrt(a2), math.sqrt(b2)) == 0.0

    @pytest.mark.parametrize("m", [0, -2])
    def test_order_domain_error(self, m):
        with pytest.raises(ValueError):
            marcum_q(m, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(1, -1.0, 1.0), (1, 1.0, -1.0)],
                             ids=["negative-a", "negative-b"])
    def test_argument_domain_error(self, args):
        with pytest.raises(ValueError) as exc:
            marcum_q(*args)
        assert str(exc.value) == "Marcum-Q arguments must be nonnegative"


class TestGammaSeries:
    # s * _gamma_series(s, x) is Kummer's 1F1(1; s+1; x) (DLMF 8.5.1)
    def test_empty_product(self):
        assert _gamma_series(1.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        # 1F1(1; 2; x) = (e^x - 1) / x
        assert _gamma_series(1.0, 1.0) == pytest.approx(math.e - 1.0,
                                                        rel=1e-14)

    def test_frozen_point(self):
        # 40-digit mpmath hyp1f1(1, 25, 8.7)
        assert 24.0 * _gamma_series(24.0, 8.7) == pytest.approx(
            1.5185273772818669, rel=1e-13)

    def test_contiguous_relation(self):
        # 1F1(1; b; x) = 1 + (x / b) 1F1(1; b+1; x) at b = s + 1
        for s in (1.0, 9.0, 24.0):
            for x in (-5.0, -1.0, 0.3, 2.0, 8.7, 40.0):
                lhs = s * _gamma_series(s, x)
                rhs = 1.0 + x * _gamma_series(s + 1.0, x)
                assert lhs == pytest.approx(rhs, rel=1e-12)


def scipy_fresnel(x):
    s, c = special.fresnel(x)
    return complex(c, s)


class TestFresnel:
    def test_matches_scipy(self):
        # 1e-13 absolute on |x| <= 200: a dense grid, tiny arguments, and
        # both sides of the series / continued-fraction switch
        switch = _FRESNEL_SERIES_MAX
        xs = np.concatenate([
            np.linspace(-200.0, 200.0, 8001),
            np.linspace(-3.0, 3.0, 1201),
            np.geomspace(1e-300, 1e-3, 60),
            [switch, np.nextafter(switch, 0.0), np.nextafter(switch, 2.0),
             switch - 1e-9, switch + 1e-9, -switch]])
        worst = max(abs(fresnel(float(x)) - scipy_fresnel(x)) for x in xs)
        assert worst <= 1e-13

    def test_zero_and_tiny_arguments(self):
        assert fresnel(0.0) == 0.0
        # C(x) = x - ..., S(x) = pi x^3 / 6 - ...
        assert fresnel(1e-8) == pytest.approx(complex(1e-8, math.pi * 1e-24 / 6),
                                              rel=1e-15)

    def test_odd_symmetry(self):
        for x in np.concatenate([np.linspace(0.0, 5.0, 101),
                                 np.geomspace(5.0, 1e4, 40)]):
            assert fresnel(-float(x)) == -fresnel(float(x))

    @pytest.mark.parametrize("x", [1e3, 1e4, 1e6, 1e15, 1e17, 1e300])
    def test_large_argument_limit(self, x):
        # |C + jS - (1 + j)/2| <= 1 / (pi x)
        bound = 1.0 / (math.pi * x) + 1e-16
        assert abs(fresnel(x) - (0.5 + 0.5j)) <= bound
        assert abs(fresnel(-x) + (0.5 + 0.5j)) <= bound

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            fresnel(x)


def asymptotic_aux(x):
    # DLMF 7.12.2-3, three terms each: f ~ (1 - 3/z^2 + 105/z^4) / (pi x),
    # g ~ (1 - 15/z^2 + 945/z^4) / (pi x z), z = pi x^2
    z = math.pi * x * x
    lead = 1.0 / (math.pi * x)
    f = lead * (1.0 - 3.0 / z**2 + 105.0 / z**4)
    g = lead / z * (1.0 - 15.0 / z**2 + 945.0 / z**4)
    return complex(g, f)


class TestFresnelAux:
    def test_defining_identity_against_scipy(self):
        # C + jS = (1 + j)/2 - (g + jf) exp(j pi x^2 / 2), for x where the
        # subtraction keeps the scipy side accurate
        for x in np.linspace(0.0, 6.0, 601):
            want = ((0.5 + 0.5j - scipy_fresnel(x))
                    * np.exp(-0.5j * math.pi * x * x))
            assert abs(fresnel_aux(float(x)) - want) <= 1e-14

    def test_asymptotic_expansion(self):
        for x in np.geomspace(20.0, 1e12, 120):
            assert fresnel_aux(float(x)) == pytest.approx(
                asymptotic_aux(float(x)), rel=1e-13)

    def test_no_overflow_for_huge_arguments(self):
        assert fresnel_aux(1e300) == pytest.approx(1j / (math.pi * 1e300),
                                                   rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fresnel_aux(-1.0)

    @pytest.mark.parametrize("x, want", zip(FRESNEL_CF_ARGS, FRESNEL_CF_PINS,
                                            strict=True))
    def test_continued_fraction_bits_pinned(self, x, want):
        c_s, g_f = fresnel(x), fresnel_aux(x)
        assert (c_s.real.hex(), c_s.imag.hex(),
                g_f.real.hex(), g_f.imag.hex()) == want
