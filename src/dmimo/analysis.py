"""Closed-form detection performance for the four detectors.

Every statistic T is (a scaled) chi-square: under H0, 2T/c is central
chi-square with 2p degrees of freedom, and under H1 noncentral with
parameter lambda; ``law`` gives (p, c), and the closed forms take it.  A
``Receiver``, built once per (sweep point, system) pair, holds every
quantity a detector reads, and ``statistic(det, rx)`` is the one map from
a detector to its statistic, in one form for the measurement cube and
for the Monte Carlo engine's sufficient coordinates.  The noncentrality
is that statistic on the noise-free return x at unit amplitude,
lambda = 2 rho T(x) / c, read in the K-sample frame.  One kernel serves
false-alarm probability, threshold inversion, fixed-amplitude detection
probability (Marcum-Q tail), and the Swerling I average in terms of the
regularized gamma and 1F1(1, b, x).

The false-alarm expressions use the right tail Pf = Q(p, gamma / c)
throughout, consistent with the underlying chi-square tail integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .detectors import (
    CompensationSet,
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
    "Receiver",
    "law",
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


def law(det: DetectorKind, K: int, M: int, N: int, sigma2: float,
        varsigma=None) -> tuple[int, float]:
    """The one map from a detector to its law (p, c): under H0, 2T/c is
    central chi-square with 2p degrees of freedom, where

        NCD  p = KMN    c = sigma^2
        ACD  p = 1      c = KMN sigma^2
        CD   p = 1      c = varsigma sigma^2
        HD   p = N M^2  c = sigma^2

    with varsigma = ||v||^2 the energy of the CD templates v.  Raises
    ValueError for CD without varsigma, and where the product c overflows."""
    if det is DetectorKind.NCD:
        return K * M * N, sigma2
    if det is DetectorKind.HD:
        return N * M * M, sigma2
    if det is DetectorKind.ACD:
        c = K * M * N * sigma2
    elif varsigma is None:
        raise ValueError("CD requires the varsigma scaling factor")
    else:
        c = varsigma * sigma2
    if not math.isfinite(c):
        raise ValueError(f"{det.value} statistic scale c = {c} is not finite")
    return 1, c


@dataclass(frozen=True)
class Receiver:
    """Everything the detectors read at one (sweep point, system) pair,
    built once: the scenario, the compensation set, varsigma, and per
    path, in one frame, the return x at unit amplitude, the ACD phasors
    exp(j theta_hat), the CD templates and the HD Doppler bases
    (M, N, K, M), or the error text where HD has none.  ``build`` gives
    the K-sample frame, ``onto`` sufficient coordinates."""

    sc: Scenario
    comp: CompensationSet
    x: np.ndarray
    varsigma: float
    phasors: np.ndarray
    templates: np.ndarray
    doppler: np.ndarray | str

    @classmethod
    def build(cls, sc: Scenario, err: SyncErrors) -> "Receiver":
        """The pair's receiver, from the scenario and its sync errors;
        raises ValueError where the compensation set cannot be built."""
        comp = CompensationSet.from_scenario(sc, err)
        templates = comp.templates
        try:
            q = doppler_projectors(comp.S_hat)
            doppler = np.broadcast_to(q, (sc.m_tx,) + q.shape)
        except ValueError as exc:
            doppler = str(exc)
        return cls(sc=sc, comp=comp, x=noise_free_mf_output(sc, err, 1.0),
                   varsigma=float(np.sum(np.abs(templates) ** 2)),
                   phasors=np.exp(1j * comp.theta_hat),
                   templates=templates, doppler=doppler)

    def onto(self, basis) -> "Receiver":
        """The same receiver in the coordinates of ``basis`` (M, N, K, r):
        r orthonormal columns per path, spanning every vector read."""
        def coords(v):
            if isinstance(v, str):  # HD's error text
                return v
            return np.einsum("mnkr,mnk...->mnr...", np.conj(basis), v)

        return replace(self, x=coords(self.x), phasors=coords(self.phasors),
                       templates=coords(self.templates),
                       doppler=coords(self.doppler))

    def law(self, det: DetectorKind) -> tuple[int, float]:
        """The detector's chi-square law (p, c) at this pair."""
        return law(det, self.sc.k_pulses, self.sc.m_tx, self.sc.n_rx,
                   self.sc.sigma2, self.varsigma)


def statistic(det: DetectorKind, rx: Receiver):
    """The detector's statistic T(y, g) in the receiver's frame: y is a
    cube (M, N, K) or a batch of them, or a batch of coordinates
    (trials, M, N, r) with g the energy outside their spans, which only
    NCD reads.  ACD is the CD correlation with the phasors as templates.
    Raises ValueError for HD where the receiver has no Doppler bases."""
    if det is DetectorKind.NCD:
        return lambda y, g=0.0: ncd_statistic(y) + g
    if det is DetectorKind.ACD:
        return lambda y, g=0.0: cd_statistic(y, rx.phasors)
    if det is DetectorKind.CD:
        return lambda y, g=0.0: cd_statistic(y, rx.templates)
    if isinstance(rx.doppler, str):
        raise ValueError(rx.doppler)
    return lambda y, g=0.0: hd_statistic(y, rx.doppler)


def noncentrality(det: DetectorKind, rx: Receiver, rho: float) -> float:
    """Noncentrality lambda = 2 rho T(x) / c at target RCS rho = |alpha|^2,
    T the detector's statistic and x the receiver's noise-free return at
    unit amplitude."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    _, c = rx.law(det)
    return 2.0 * rho * float(statistic(det, rx)(rx.x)) / c


def pfa(law: tuple[int, float], gamma: float) -> Probability:
    """Probability of false alarm at threshold gamma under the law (p, c)."""
    if gamma < 0:
        raise ValueError("threshold must be nonnegative")
    p, c = law
    return Probability(reg_upper_gamma(p, gamma / c))


def threshold(law: tuple[int, float], pfa_target: float) -> float:
    """Threshold gamma with pfa(law, gamma) = pfa_target."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError("target false-alarm rate must lie strictly in (0, 1)")
    p, c = law
    if p == 1:
        return c * math.log(1.0 / pfa_target)
    return c * inv_reg_upper_gamma(p, pfa_target)


def pd_nonfluctuating(law: tuple[int, float], gamma: float,
                      lam: float) -> Probability:
    """Detection probability for a fixed-amplitude target."""
    if lam < 0 or gamma < 0:
        raise ValueError("lambda and gamma must be nonnegative")
    p, c = law
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


def pd_swerling1(law: tuple[int, float], gamma: float, lambda_prime: float,
                 rho_bar: float) -> Probability:
    """Average detection probability for a Swerling I target with mean RCS
    rho_bar, given the per-unit-RCS noncentrality lambda_prime."""
    if lambda_prime < 0:
        raise ValueError("lambda_prime must be nonnegative")
    if not rho_bar > 0:
        raise ValueError("mean RCS must be positive")
    p, c = law
    val = _swerling1_average(p, gamma / c, lambda_prime, rho_bar)
    return Probability(min(1.0, max(0.0, val)))


def analyze_detector(det: DetectorKind, rx: Receiver,
                     pfa_target: float) -> PerfPoint:
    """Operating point at a target false-alarm rate: threshold, per-target
    noncentrality, and detection probability under the scenario's target
    model (Swerling I average or fixed amplitude)."""
    sc = rx.sc
    lam_prime = noncentrality(det, rx, 1.0)
    chi2 = rx.law(det)
    gamma = threshold(chi2, pfa_target)
    if isinstance(sc.target, Swerling1):
        pd = pd_swerling1(chi2, gamma, lam_prime, sc.target.rho_bar)
        lam = lam_prime * sc.target.rho_bar
    else:
        rho = abs(sc.target.alpha) ** 2
        lam = lam_prime * rho
        pd = pd_nonfluctuating(chi2, gamma, lam)
    return PerfPoint(detector=det, gamma=gamma,
                     pfa=Probability(pfa_target), pd=pd, lam=lam,
                     varsigma=rx.varsigma if det is DetectorKind.CD else None)
