"""Closed-form detection performance for the four detectors.

Every statistic T is (a scaled) chi-square: under H0, 2T/c is central
chi-square with 2p degrees of freedom, and under H1 noncentral with
parameter lambda, where the order p and scale c are

    NCD  p = KMN    c = sigma^2
    ACD  p = 1      c = KMN sigma^2
    CD   p = 1      c = varsigma sigma^2
    HD   p = N M^2  c = sigma^2

with varsigma = ||v||^2 the energy of the CD templates v.  The
noncentrality is the detector's own statistic applied to the noise-free
return x at unit amplitude, lambda = 2 rho T(x) / c, so ``statistic`` is
the one map from a detector to its statistic, for the closed forms here
and for the Monte Carlo engine alike.  One kernel serves false-alarm
probability, threshold inversion, fixed-amplitude detection probability
(Marcum-Q tail), and the Swerling I average in terms of the regularized
gamma and 1F1(1, b, x).

The false-alarm expressions use the right tail Pf = Q(p, gamma / c)
throughout, consistent with the underlying chi-square tail integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .detectors import (
    CompensationSet,
    acd_statistic,
    cd_statistic,
    doppler_projectors,
    hd_statistic,
    ncd_statistic,
)
from .scene import Scenario, Swerling1, SyncErrors, noise_free_mf_output
from .specfun import (
    Probability,
    inv_reg_upper_gamma,
    kummer_1f1_first_unit,
    marcum_q,
    reg_upper_gamma,
)

__all__ = [
    "DetectorKind",
    "PerfPoint",
    "statistic",
    "noncentrality",
    "pfa",
    "threshold",
    "pd_nonfluctuating",
    "pd_swerling1",
    "analyze_detector",
]


class DetectorKind(enum.Enum):
    NCD = "NCD"
    ACD = "ACD"
    CD = "CD"
    HD = "HD"


@dataclass(frozen=True)
class PerfPoint:
    """Analytic operating point of one detector."""

    detector: DetectorKind
    gamma: float
    pfa: Probability
    pd: Probability
    lam: float
    varsigma: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("noncentrality must be nonnegative")
        if self.detector is DetectorKind.CD and not (self.varsigma or 0) > 0:
            raise ValueError("CD operating point requires varsigma > 0")


def _order(det: DetectorKind, K: int, M: int, N: int) -> int:
    if det is DetectorKind.NCD:
        return K * M * N
    if det is DetectorKind.HD:
        return N * M * M
    return 1


def _scale(det: DetectorKind, K: int, M: int, N: int, sigma2: float,
           varsigma=None) -> float:
    if det is DetectorKind.NCD or det is DetectorKind.HD:
        return sigma2
    if det is DetectorKind.ACD:
        return K * M * N * sigma2
    if varsigma is None:
        raise ValueError("CD requires the varsigma scaling factor")
    return varsigma * sigma2


def statistic(det: DetectorKind, comp: CompensationSet, basis=None):
    """The detector's statistic T(y, g=0), plus the CD scaling factor
    varsigma (None for the other detectors).  The CD templates and HD
    projectors are built here, once, and varsigma is the energy of those
    same templates.

    Without ``basis``, y is a measurement: one (M, N, K) cube or a batch
    (..., M, N, K).  With ``basis`` (M, N, K, r), r orthonormal columns
    per path whose span holds every vector the detector reads, y is a
    batch of sufficient coordinates c = B^H y (trials, M, N, r), and g
    the energy of each measurement outside those spans, summed over
    paths.  Every vector the detector reads then enters through its r
    coordinates B^H v, computed here once, and T(c, g) equals T of the
    measurement to rounding.  Only NCD reads g.
    """
    def onto(v):
        # the (M, N, K, ...) vectors read per path, in the basis' coordinates
        if basis is None:
            return v
        return np.einsum("mnkr,mnk...->mnr...", np.conj(basis), v)

    if det is DetectorKind.NCD:
        return (lambda y, g=0.0: ncd_statistic(y) + g), None
    if det is DetectorKind.ACD:
        if basis is None:
            return (lambda y, g=0.0: acd_statistic(y, comp.theta_hat)), None
        # ACD is the CD correlation with the unit phasors exp(j theta_hat)
        # as templates
        phasors = onto(np.exp(1j * comp.theta_hat))
        return (lambda y, g=0.0: cd_statistic(y, phasors)), None
    if det is DetectorKind.CD:
        v = comp.templates
        varsigma = float(np.sum(np.abs(v) ** 2))
        v = onto(v)
        return (lambda y, g=0.0: cd_statistic(y, v)), varsigma
    q = doppler_projectors(comp.S_hat)
    if basis is not None:
        q = onto(np.broadcast_to(q, (len(basis),) + q.shape))
    return (lambda y, g=0.0: hd_statistic(y, q)), None


def noncentrality(det: DetectorKind, sc: Scenario, err: SyncErrors,
                  comp: CompensationSet, rho: float):
    """Noncentrality lambda = 2 rho T(x) / c at target RCS rho = |alpha|^2,
    with T the detector's statistic and x the noise-free return at unit
    amplitude, plus the CD scaling factor varsigma (None for the other
    detectors).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    stat, varsigma = statistic(det, comp)
    x = noise_free_mf_output(sc, err, 1.0)
    c = _scale(det, sc.k_pulses, sc.m_tx, sc.n_rx, sc.sigma2, varsigma)
    return 2.0 * rho * float(stat(x)) / c, varsigma


def pfa(det: DetectorKind, gamma: float, K: int, M: int, N: int,
        sigma2: float, varsigma=None) -> Probability:
    """Probability of false alarm at threshold gamma."""
    if gamma < 0:
        raise ValueError("threshold must be nonnegative")
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sigma2, varsigma)
    return Probability(reg_upper_gamma(p, gamma / c))


def threshold(det: DetectorKind, pfa_target: float, K: int, M: int, N: int,
              sigma2: float, varsigma=None) -> float:
    """Threshold gamma with pfa(gamma) = pfa_target."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError("target false-alarm rate must lie strictly in (0, 1)")
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sigma2, varsigma)
    if p == 1:
        return c * math.log(1.0 / pfa_target)
    return c * inv_reg_upper_gamma(p, pfa_target)


def pd_nonfluctuating(det: DetectorKind, gamma: float, lam: float, K: int,
                      M: int, N: int, sigma2: float, varsigma=None) -> Probability:
    """Detection probability for a fixed-amplitude target."""
    if lam < 0 or gamma < 0:
        raise ValueError("lambda and gamma must be nonnegative")
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sigma2, varsigma)
    return marcum_q(p, math.sqrt(lam), math.sqrt(2.0 * gamma / c))


def _swerling1_average(p: int, g: float, lam_prime: float, rho_bar: float) -> float:
    # Exponential-RCS average of the Marcum tail:
    #   Q(p, g) + lam' g^p 1F1(1, p+1, g lam'/(lam'+2/rb))
    #            / (p! (lam'+2/rb) e^g)
    # with g the threshold normalized by the statistic scale.
    if g == 0.0:
        return 1.0
    if lam_prime == 0.0:
        return reg_upper_gamma(p, g)
    denom = lam_prime + 2.0 / rho_bar
    arg = g * lam_prime / denom
    log_factor = p * math.log(g) - math.lgamma(p + 1) - g
    return (reg_upper_gamma(p, g)
            + (lam_prime / denom) * math.exp(log_factor)
            * kummer_1f1_first_unit(p + 1.0, arg))


def pd_swerling1(det: DetectorKind, gamma: float, lambda_prime: float,
                 rho_bar: float, K: int, M: int, N: int, sigma2: float,
                 varsigma=None) -> Probability:
    """Average detection probability for a Swerling I target with mean RCS
    rho_bar, given the per-unit-RCS noncentrality lambda_prime."""
    if lambda_prime < 0:
        raise ValueError("lambda_prime must be nonnegative")
    if not rho_bar > 0:
        raise ValueError("mean RCS must be positive")
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sigma2, varsigma)
    val = _swerling1_average(p, gamma / c, lambda_prime, rho_bar)
    return Probability(min(1.0, max(0.0, val)))


def analyze_detector(det: DetectorKind, sc: Scenario, err: SyncErrors,
                     comp: CompensationSet, pfa_target: float) -> PerfPoint:
    """Operating point at a target false-alarm rate: threshold, per-target
    noncentrality, and detection probability under the scenario's target
    model (Swerling I average or fixed amplitude)."""
    K, M, N = sc.k_pulses, sc.m_tx, sc.n_rx
    lam_prime, varsigma = noncentrality(det, sc, err, comp, 1.0)
    gamma = threshold(det, pfa_target, K, M, N, sc.sigma2, varsigma)
    if isinstance(sc.target, Swerling1):
        pd = pd_swerling1(det, gamma, lam_prime, sc.target.rho_bar,
                          K, M, N, sc.sigma2, varsigma)
        lam = lam_prime * sc.target.rho_bar
    else:
        rho = abs(sc.target.alpha) ** 2
        lam = lam_prime * rho
        pd = pd_nonfluctuating(det, gamma, lam, K, M, N, sc.sigma2, varsigma)
    return PerfPoint(detector=det, gamma=gamma,
                     pfa=Probability(pfa_target), pd=pd,
                     lam=lam, varsigma=varsigma)
