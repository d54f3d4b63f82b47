"""Every analytic digit `dmimo analyze` prints for the shipped recipes,
recomputed at 50 digits.

`tests/data/analyze/` pins the code's own past output.  This check holds
each printed `gamma` and `pd_analytic` cell against mpmath instead: from
the pair's law (p, c) and the unrounded lambda that `analyze_detector`
returns in process,

    gamma = c x,  Q(p, x) = Pfa              (findroot on gammainc)
    Pd    = Q(p, g) + lam' g^p e^-g 1F1(1, p+1, g lam' / (lam' + 2/rb))
                      / (p! (lam' + 2/rb)),  g = gamma / c

the Swerling I average at per-unit-RCS noncentrality lam' = lambda / rb.
A printed cell must lie within half a unit of its 12th significant
digit.  The law and lambda are taken unrounded, since feeding the
printed 12-digit lambda or varsigma back in moves the result by up to
1e-11 relative, more than the printed precision allows.
"""

import functools
from pathlib import Path

import pytest
from mpmath import mp

from dmimo import cli
from dmimo.experiments import load_experiment
from dmimo.scene import Swerling1

RECIPES = sorted((Path(__file__).resolve().parent.parent / "recipes")
                 .glob("*.json"))
DIGITS = 12


@functools.lru_cache(maxsize=None)
def _quantile(p, pfa):
    # x with Q(p, x) = pfa at 50 digits, from the double's neighbourhood
    with mp.workdps(50):
        x0 = mp.mpf(-mp.log(pfa)) + p
        return mp.findroot(
            lambda x: mp.gammainc(p, x, mp.inf, regularized=True) - pfa,
            x0)


def _swerling1_pd(p, g, lam_prime, rho_bar):
    with mp.workdps(50):
        denom = lam_prime + 2 / rho_bar
        return (mp.gammainc(p, g, mp.inf, regularized=True)
                + lam_prime * g ** p * mp.exp(-g)
                * mp.hyp1f1(1, p + 1, g * lam_prime / denom)
                / (mp.factorial(p) * denom))


def _within_half_unit(printed, exact):
    with mp.workdps(50):
        unit = mp.mpf(10) ** (mp.floor(mp.log10(abs(exact))) - DIGITS + 1)
        return abs(mp.mpf(printed) - exact) <= unit / 2


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda p: p.stem)
def test_printed_gamma_and_pd_match_mpmath(recipe):
    spec = load_experiment(recipe)
    pfa = mp.mpf(spec.pfa_target)
    checked = 0
    for rx, rows in cli._analytic_pairs(spec):
        for row, pt in rows:
            if pt is None:
                continue
            assert isinstance(rx.sc.target, Swerling1)
            chi2 = rx.law(pt.detector)
            p = chi2.p
            rho_bar = rx.sc.target.mean_rcs
            with mp.workdps(50):
                x = _quantile(p, pfa)
                gamma = mp.mpf(chi2.c) * x
                pd = _swerling1_pd(p, x, mp.mpf(pt.lam) / rho_bar,
                                   mp.mpf(rho_bar))
            where = (f"{row['sweep_value']} {row['system']} "
                     f"{row['detector']}")
            assert _within_half_unit(cli._fmt(row["gamma"]), gamma), where
            assert _within_half_unit(cli._fmt(row["pd_analytic"]),
                                     pd), where
            checked += 1
    assert checked > 0
