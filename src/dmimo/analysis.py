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
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .detectors import (
    _RCOND_LIMIT,
    CompensationSet,
    cd_statistic,
    ncd_statistic,
    steering_span,
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
    ValueError for CD without varsigma, and where c is not finite or is
    below sys.float_info.min, since a subnormal c has too few significant
    bits for 12 printed digits.  That covers a product that overflows or
    underflows, and an ACD whose KMN is beyond a double."""
    if det is DetectorKind.NCD:
        p, c = K * M * N, sigma2
    elif det is DetectorKind.HD:
        p, c = N * M * M, sigma2
    elif det is DetectorKind.ACD:
        p = 1
        try:
            c = K * M * N * sigma2
        except OverflowError:  # int too large to convert to float
            c = math.inf
    elif varsigma is None:
        raise ValueError("CD requires the varsigma scaling factor")
    else:
        p, c = 1, varsigma * sigma2
    if not sys.float_info.min <= c < math.inf:
        raise ValueError(f"{det.value} statistic scale c = {c} is not finite "
                         f"and at least {sys.float_info.min}")
    return p, c


@dataclass(frozen=True)
class Receiver:
    """Everything the detectors read at one (sweep point, system) pair,
    built once: the scenario, varsigma, the rank of each receiver's
    Doppler steering S_hat_n (N,), and per path, in one frame, the return
    x at unit amplitude, the ACD phasors exp(j theta_hat), the CD
    templates and the orthonormal basis of span S_hat_n (M, N, K, r_S)
    from ``detectors.steering_span``, which HD projects onto and the
    Monte Carlo draws its coordinates in.  ``build`` gives the K-sample
    frame, and ``frame`` the Monte Carlo frame: the receiver in the
    coordinates of that span, where ``span`` is None, with the return's
    coordinates and the dimensions left outside them."""

    sc: Scenario
    x: np.ndarray
    varsigma: float
    phasors: np.ndarray
    templates: np.ndarray
    span: np.ndarray | None
    rank: np.ndarray

    @classmethod
    def build(cls, sc: Scenario, err: SyncErrors) -> "Receiver":
        """The pair's receiver, from the scenario and its sync errors;
        raises ValueError where the compensation set or the model cannot
        be built (an estimated delay outside [0, PRI), a phase of 2^52 rad
        or more)."""
        comp = CompensationSet.from_scenario(sc, err)
        templates = comp.templates
        u, rank = steering_span(comp.S_hat)
        with np.errstate(over="ignore"):  # law checks the scale c
            varsigma = float(np.sum(np.abs(templates) ** 2))
        return cls(sc=sc, x=noise_free_mf_output(sc, err, 1.0),
                   varsigma=varsigma,
                   phasors=np.exp(1j * comp.theta_hat),
                   templates=templates,
                   span=np.broadcast_to(u, (sc.m_tx,) + u.shape), rank=rank)

    def coordinates(self, y) -> np.ndarray:
        """The span coordinates (..., M, N, r_S) of a cube (M, N, K) or a
        batch of them: per path, y's inner products with the columns of
        ``self.span``."""
        return np.einsum("mnkr,...mnk->...mnr", np.conj(self.span), y)

    def frame(self) -> tuple["Receiver", np.ndarray, int]:
        """The Monte Carlo frame (crx, signal, outside): the receiver in
        the coordinates of its span, the return at unit amplitude as the
        d coordinates a block draws per trial, and the complex dimensions
        left to the energy outside them.

        In ``crx`` every vector read is its r_S coordinates per path in
        ``self.span``, and the span itself is None: in its own
        coordinates each path's projection onto it is the identity, so
        HD reads no basis.  ``signal`` holds the return's (M, N, r_S)
        span coordinates; where its part outside the spans has norm
        e > _RCOND_LIMIT ||x|| over all paths, e follows as the one
        shared coordinate, and ``outside`` is M N (K - r_S) - 1, else
        M N (K - r_S).  Where ||x||^2 overflows a double, both norms are
        taken at x scaled to unit size."""
        M, N, K, r = self.span.shape
        crx = replace(self, x=self.coordinates(self.x),
                      phasors=self.coordinates(self.phasors),
                      templates=self.coordinates(self.templates), span=None)
        x_perp = self.x - np.einsum("mnkr,mnr->mnk", self.span, crx.x)
        with np.errstate(over="ignore"):  # an infinite norm is rescaled
            e, norm = np.linalg.norm(x_perp), np.linalg.norm(self.x)
        if norm == np.inf:
            s = _unit_scale(self.x)
            e = np.linalg.norm(x_perp * s) / s
            norm = np.linalg.norm(self.x * s) / s
        e = float(e)
        signal = crx.x.ravel()
        if e > _RCOND_LIMIT * norm:
            signal = np.append(signal, e)
        return crx, signal, M * N * (K - r) - (signal.size - crx.x.size)

    def law(self, det: DetectorKind) -> tuple[int, float]:
        """The detector's chi-square law (p, c) at this pair."""
        return law(det, self.sc.k_pulses, self.sc.m_tx, self.sc.n_rx,
                   self.sc.sigma2, self.varsigma)


def statistic(det: DetectorKind, rx: Receiver):
    """The detector's statistic T(y, g) in the receiver's frame: y is a
    cube (M, N, K) or a batch of them, or a batch of coordinates
    (trials, M, N, r) with g the energy outside their spans, which only
    NCD reads.  ACD is the CD correlation with the phasors as templates.
    HD is the energy of y's coordinates in the receiver's span, NCD's sum
    before it adds g: a K-sample cube is mapped there by
    ``Receiver.coordinates``, and in the span's coordinates (the
    receiver of ``Receiver.frame``) y already holds them.  HD raises
    ValueError where a receiver's Doppler steering has rank below M (as
    it has for K < M), naming the receiver and its rank.

    The coordinate forms run on every Monte Carlo block, on the pool's
    threads, so none of them may call BLAS: a BLAS call runs on threads
    of its own, which contend with the pool's workers for the CPUs.
    Every form is einsums and ufuncs."""
    if det is DetectorKind.NCD:
        return lambda y, g=0.0: ncd_statistic(y) + g
    if det is DetectorKind.ACD:
        return lambda y, g=0.0: cd_statistic(y, rx.phasors)
    if det is DetectorKind.CD:
        return lambda y, g=0.0: cd_statistic(y, rx.templates)
    M, K = rx.sc.m_tx, rx.sc.k_pulses
    for n, r in enumerate(rx.rank):
        if r < M:
            raise ValueError(f"Doppler steering matrix for RX {n} has rank "
                             f"{r} < M = {M} (K = {K}); HD needs rank M")
    if rx.span is None:
        return lambda y, g=0.0: ncd_statistic(y)
    return lambda y, g=0.0: ncd_statistic(rx.coordinates(y))


def _unit_scale(x) -> float:
    """The power of two s that brings max |x| into [1/2, 1) (1 where x is
    0): s x is exact, so a quadratic form of s x is the form of x times
    s^2 without its overflow or underflow."""
    return math.ldexp(1.0, -math.frexp(float(np.max(np.abs(x))))[1])


def noncentrality(det: DetectorKind, rx: Receiver, rho: float) -> float:
    """Noncentrality lambda = 2 rho T(x) / c at target RCS rho = |alpha|^2,
    T the detector's statistic and x the receiver's noise-free return at
    unit amplitude.  Where T(x) is below the least normal double (CD's
    grows as xi^4, and a strong fixed target's gains are small) or
    overflows one (CD's at an SNR of 2000 dB), T reads s x and c becomes
    c s^2, s the power of two that brings max |x| into [1/2, 1): T is
    quadratic, so the ratio is the same.  Raises ValueError where lambda
    itself overflows a double."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    _, c = rx.law(det)
    stat = statistic(det, rx)
    with np.errstate(over="ignore"):  # an infinite T(x) is rescaled
        t = float(stat(rx.x))
        if not sys.float_info.min <= t < math.inf:
            s = _unit_scale(rx.x)
            if sys.float_info.min <= c * s * s < math.inf:
                t, c = float(stat(rx.x * s)), c * s * s
    lam = 2.0 * rho * t / c
    if not lam < math.inf:
        raise ValueError(f"{det.value} noncentrality lambda = 2 rho T(x) / c "
                         "overflows a double")
    return lam


def pfa(law: tuple[int, float], gamma: float) -> Probability:
    """Probability of false alarm at threshold gamma under the law (p, c)."""
    if gamma < 0:
        raise ValueError("threshold must be nonnegative")
    p, c = law
    return Probability(reg_upper_gamma(p, gamma / c))


def threshold(law: tuple[int, float], pfa_target: float) -> float:
    """Threshold gamma = c q with pfa(law, gamma) = pfa_target, q the
    quantile of the unit-scale law.  For p > 1 q is cached on
    (p, pfa_target), at most 64 of them.  Raises ValueError where gamma
    overflows a double."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError("target false-alarm rate must lie strictly in (0, 1)")
    p, c = law
    q = (math.log(1.0 / pfa_target) if p == 1
         else _gamma_quantile(p, pfa_target))
    gamma = c * q
    if gamma == math.inf:
        raise ValueError(f"threshold gamma = c q = {c} * {q} overflows "
                         "a double")
    return gamma


# The quantile depends on the order and the target alone, never on the
# SNR, so a sweep inverts each (p, Pfa) once; entries are two floats.
@functools.lru_cache(maxsize=64)
def _gamma_quantile(p, pfa_target):
    return inv_reg_upper_gamma(p, pfa_target)


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
    rho = sc.target.mean_rcs
    lam = lam_prime * rho
    if isinstance(sc.target, Swerling1):
        pd = pd_swerling1(chi2, gamma, lam_prime, rho)
    else:
        pd = pd_nonfluctuating(chi2, gamma, lam)
    return PerfPoint(detector=det, gamma=gamma,
                     pfa=Probability(pfa_target), pd=pd, lam=lam,
                     varsigma=rx.varsigma if det is DetectorKind.CD else None)
