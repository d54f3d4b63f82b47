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
    fresnel,
    fresnel_aux,
    inv_reg_upper_gamma,
    kummer_1f1_first_unit,
    marcum_q,
    reg_upper_gamma,
)
from oracles import marcum_q_per_term


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

    @pytest.mark.parametrize("m", [0, -2])
    def test_order_domain_error(self, m):
        with pytest.raises(ValueError):
            marcum_q(m, 1.0, 1.0)


class TestKummer1F1:
    def test_empty_product(self):
        assert kummer_1f1_first_unit(2.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        assert kummer_1f1_first_unit(1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_frozen_point(self):
        # 40-digit mpmath hyp1f1(1, 25, 8.7)
        assert kummer_1f1_first_unit(25.0, 8.7) == pytest.approx(
            1.5185273772818669, rel=1e-13)

    def test_contiguous_relation(self):
        # 1F1(1, b, x) = 1 + (x / b) 1F1(1, b+1, x)
        for b in (0.5, 1.0, 2.0, 10.0, 25.0):
            for x in (-5.0, -1.0, 0.3, 2.0, 8.7, 40.0):
                lhs = kummer_1f1_first_unit(b, x)
                rhs = 1.0 + (x / b) * kummer_1f1_first_unit(b + 1.0, x)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            kummer_1f1_first_unit(0.0, 1.0)

    def test_overflow_diagnostic(self):
        with pytest.raises(OverflowError):
            kummer_1f1_first_unit(2.0, 1e4)


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
