"""Closed-form detection performance for the four detectors.

Every statistic T is (a scaled) chi-square: under H0, 2T/c is central
chi-square with 2p degrees of freedom, and under H1 noncentral with
parameter lambda; ``law`` gives the ``ChiSquareLaw`` (p, c), whose
methods are the closed forms.  A ``Receiver``, built once per (sweep
point, system) pair, holds every quantity a detector reads, and
``statistic(det, rx)`` is the one map from a detector to its statistic,
in one form for the measurement cube and for the Monte Carlo engine's
sufficient coordinates.  The noncentrality is that statistic on the
noise-free return x at unit amplitude, lambda' = 2 T(x) / c at unit RCS,
read in the K-sample frame; a target of RCS rho has lambda = rho lambda'.
One kernel serves false-alarm probability, threshold inversion,
fixed-amplitude detection probability (Marcum-Q tail), and the
Swerling I average in terms of the regularized gamma and its power
series.

The false-alarm expressions use the right tail Pf = Q(p, gamma / c)
throughout, consistent with the underlying chi-square tail integral.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .detectors import (
    _RCOND_LIMIT,
    CompensationSet,
    _basis,
    cd_statistic,
    ncd_statistic,
    steering_span,
)
from .scene import (
    Scenario,
    Swerling1,
    SyncErrors,
    _run_cache,
    noise_free_mf_output,
)
from .specfun import (
    Probability,
    _gamma_prefactor,
    _gamma_series,
    inv_reg_upper_gamma,
    marcum_q,
    reg_upper_gamma,
)

__all__ = [
    "DetectorKind",
    "PerfPoint",
    "ChiSquareLaw",
    "Receiver",
    "law",
    "statistic",
    "noncentrality",
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
    pd: Probability
    lam: float
    varsigma: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("noncentrality must be nonnegative")
        if self.detector is DetectorKind.CD and not (self.varsigma or 0) > 0:
            raise ValueError("CD operating point requires varsigma > 0")


@dataclass(frozen=True)
class ChiSquareLaw:
    """A statistic's law: under H0, 2T/c is central chi-square with 2p
    degrees of freedom, and under H1 noncentral with parameter lambda.
    Raises ValueError where c is not finite or is below
    sys.float_info.min, since a subnormal c has too few significant bits
    for 12 printed digits."""

    p: int
    c: float

    def __post_init__(self):
        if not sys.float_info.min <= self.c < math.inf:
            raise ValueError(f"statistic scale c = {self.c} is not finite "
                             f"and at least {sys.float_info.min}")

    def sf(self, gamma: float) -> Probability:
        """Probability of false alarm Q(p, gamma / c) at threshold gamma."""
        if gamma < 0:
            raise ValueError("threshold must be nonnegative")
        return Probability(reg_upper_gamma(self.p, gamma / self.c))

    def isf(self, pfa: float) -> float:
        """Threshold gamma = c q with sf(gamma) = pfa, q the quantile of
        the unit-scale law.  For p > 1 q is cached run-wide on (p, pfa).
        Raises ValueError where gamma overflows a double."""
        if not 0.0 < pfa < 1.0:
            raise ValueError("target false-alarm rate must lie strictly in "
                             "(0, 1)")
        q = (math.log(1.0 / pfa) if self.p == 1
             else _gamma_quantile(self.p, pfa))
        gamma = self.c * q
        if gamma == math.inf:
            raise ValueError(f"threshold gamma = c q = {self.c} * {q} "
                             "overflows a double")
        return gamma

    def pd(self, gamma: float, lam: float, target) -> Probability:
        """Detection probability at threshold gamma for a target of
        noncentrality lam: the Marcum-Q tail for a fixed amplitude, and
        for a Swerling I target, lam at its mean RCS, the exponential-RCS
        average

            Q(p, g) + w g^p 1F1(1; p+1; g w) / (p! e^g),  w = lam/(lam+2)

        with g = gamma / c.  By DLMF 8.5.1, g^p e^-g 1F1(1; p+1; z) / p!
        is the lower incomplete gamma's prefactor at (p, g) times its
        power series at (p, z).  Raises ValueError where that series
        overflows a double, which takes a threshold whose false-alarm
        rate is below the smallest double."""
        if lam < 0 or gamma < 0:
            raise ValueError("lambda and gamma must be nonnegative")
        p, g = self.p, gamma / self.c
        if not isinstance(target, Swerling1):
            return marcum_q(p, math.sqrt(lam), math.sqrt(2.0 * gamma / self.c))
        if g == 0.0:
            val = 1.0
        else:
            denom = lam + 2.0
            val = (reg_upper_gamma(p, g) + (lam / denom) * _gamma_prefactor(
                p, g) * _gamma_series(p, g * lam / denom))
        if not math.isfinite(val):
            raise ValueError("the Swerling I series overflows a double")
        return Probability(min(1.0, max(0.0, val)))


# (p, Pfa) alone, never the SNR, sets the quantile: a sweep inverts each once
@_run_cache
def _gamma_quantile(p, pfa_target):
    return inv_reg_upper_gamma(p, pfa_target)


def law(det: DetectorKind, K: int, M: int, N: int,
        varsigma=None) -> ChiSquareLaw:
    """The one map from a detector to its law (p, c), where

        NCD  p = KMN    c = 1
        ACD  p = 1      c = KMN
        CD   p = 1      c = varsigma
        HD   p = N M^2  c = 1

    with varsigma = ||v||^2 the energy of the CD templates v, in units of
    the noise power.  Raises ValueError for CD without varsigma, and,
    naming the detector, where ``ChiSquareLaw`` rejects c: that covers a
    subnormal varsigma and an ACD whose KMN is beyond a double."""
    if det is DetectorKind.NCD:
        p, c = K * M * N, 1.0
    elif det is DetectorKind.HD:
        p, c = N * M * M, 1.0
    elif det is DetectorKind.ACD:
        p = 1
        try:
            c = float(K * M * N)
        except OverflowError:  # int too large to convert to float
            c = math.inf
    elif varsigma is None:
        raise ValueError("CD requires the varsigma scaling factor")
    else:
        p, c = 1, varsigma
    try:
        return ChiSquareLaw(p, c)
    except ValueError as exc:
        raise ValueError(f"{det.value} {exc}") from None


@dataclass(frozen=True)
class Receiver:
    """Everything the detectors read at one (sweep point, system) pair,
    built once: the scenario, varsigma, the rank of each receiver's
    Doppler steering S_hat_n (N,), per path, in one frame, the return x
    at unit amplitude, the ACD phasors exp(j theta_hat) and the CD
    templates, and per receiver the orthonormal basis (N, K, r_S) of
    span S_hat_n from ``detectors.steering_span``, which HD projects
    every path of that receiver onto.  The basis and the phasors are
    cached read-only arrays, shared by every build with the same
    steering and the same theta_hat, as along an SNR sweep.  ``build``
    gives the K-sample frame, and ``frame`` the Monte Carlo frame: the
    receiver in at most three coordinates, where ``span`` is None, with
    the return's coordinates and the dimensions left to two energies."""

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
        return cls(sc=sc, x=noise_free_mf_output(sc, err),
                   varsigma=varsigma,
                   phasors=_phasors(comp.theta_hat),
                   templates=templates, span=u, rank=rank)

    def coordinates(self, y) -> np.ndarray:
        """The span coordinates (..., M, N, r_S) of a cube (M, N, K) or a
        batch of them: per path, y's inner products with the columns of
        its receiver's basis in ``self.span``."""
        return np.einsum("nkr,...mnk->...mnr", np.conj(self.span), y)

    def frame(self) -> tuple["Receiver", np.ndarray, int, int]:
        """The Monte Carlo frame (crx, signal, inside, outside): the
        receiver in the coordinates of W, the span of every vector a
        detector reads, the return at unit amplitude as the d <= 4
        coordinates a block draws per trial, and the complex dimensions
        left to the energy inside the spans and to the energy outside.

        W is spanned by x, the ACD phasors and the CD templates, each
        flattened to its M N r_S coordinates in the bases ``self.span``.
        Their nonzero columns, each scaled by ``_unit_scale`` so that a
        return beyond a double keeps its exact frame, give W's w <= 3
        orthonormal columns through ``detectors._basis``, turned (a
        Householder reflection times a phase) so that x reads
        (a, 0, ..., 0) exactly, a real and nonnegative.  In ``crx`` the
        three are their coordinates in W, as (1, 1, w) arrays, and the
        span is None; ``inside`` is the M N r_S - w span dimensions
        outside W.  ``signal`` holds x's w coordinates; where its part
        outside the spans has norm e > _RCOND_LIMIT ||x|| over all
        paths, e follows as the one shared coordinate, and ``outside``
        is M N (K - r_S) - 1, else M N (K - r_S).  Both norms are taken
        at x scaled to unit size, so ||x||^2 never overflows a double."""
        N, K, r = self.span.shape
        M = self.x.shape[0]
        read = [self.coordinates(v).ravel()
                for v in (self.x, self.phasors, self.templates)]
        x_perp = self.x - np.einsum("nkr,mnr->mnk", self.span,
                                    read[0].reshape(M, N, r))
        s = _unit_scale(self.x)
        e, norm = (np.linalg.norm(v * s) / s for v in (x_perp, self.x))
        q, _ = _basis(np.stack([v * _unit_scale(v) for v in read
                                if np.any(v)], -1))
        x, phasors, templates = (np.conj(q.T) @ v for v in read)
        s, e0 = _unit_scale(x), np.arange(x.size) == 0
        a = np.linalg.norm(x * s)
        if a > 0:  # reflect x's direction v onto -phase e_0, then turn
            v = x * s / a
            phase = v[0] / abs(v[0]) if v[0] else 1.0
            u = v + phase * e0
            turn = -np.conj(phase) * (np.eye(x.size) - 2 * np.outer(
                u, np.conj(u)) / np.vdot(u, u))
            phasors, templates = turn @ phasors, turn @ templates
        x = np.where(e0, a / s, 0j)
        crx = replace(self, x=x[None, None], phasors=phasors[None, None],
                      templates=templates[None, None], span=None)
        e = float(e)
        signal = np.append(x, e) if e > _RCOND_LIMIT * norm else x
        return (crx, signal, M * N * r - x.size,
                M * N * (K - r) - (signal.size - x.size))

    def law(self, det: DetectorKind) -> ChiSquareLaw:
        """The detector's ``ChiSquareLaw`` at this pair."""
        return law(det, self.sc.k_pulses, self.sc.m_tx, self.sc.n_rx,
                   self.varsigma)


# theta_hat is SNR-free: an SNR sweep evaluates each system's phasors once
@_run_cache
def _phasors(theta_hat):
    return np.exp(1j * theta_hat)


def statistic(det: DetectorKind, rx: Receiver):
    """The detector's statistic T(y, g, g_span) in the receiver's frame:
    y is a cube (M, N, K) or a batch of them, or, on the receiver of
    ``Receiver.frame``, a batch of coordinates (trials, 1, 1, w) in W,
    with g all the energy outside W and g_span the part of it inside
    the spans.  NCD is the energy of y plus g.  ACD is the CD
    correlation with the phasors as templates.  HD is the energy of y's
    coordinates in the receiver's span: a K-sample cube is mapped there
    by ``Receiver.coordinates``, and in W it is the energy of y plus
    g_span.  HD raises ValueError where a receiver's Doppler steering
    has rank below M (as it has for K < M), naming the receiver and its
    rank.

    The coordinate forms run on every Monte Carlo block, on the pool's
    threads, so none of them may call BLAS: in a program that imports
    dmimo, a BLAS call may run on threads of its own, which contend with
    the pool's workers for the CPUs.  The ``dmimo`` command runs BLAS on
    one thread.  Every form is einsums and ufuncs."""
    if det is DetectorKind.NCD:
        return lambda y, g=0.0, g_span=0.0: ncd_statistic(y) + g
    if det is DetectorKind.ACD:
        return lambda y, g=0.0, g_span=0.0: cd_statistic(y, rx.phasors)
    if det is DetectorKind.CD:
        return lambda y, g=0.0, g_span=0.0: cd_statistic(y, rx.templates)
    M, K = rx.sc.m_tx, rx.sc.k_pulses
    for n, r in enumerate(rx.rank):
        if r < M:
            raise ValueError(f"Doppler steering matrix for RX {n} has rank "
                             f"{r} < M = {M} (K = {K}); HD needs rank M")
    if rx.span is None:
        return lambda y, g=0.0, g_span=0.0: ncd_statistic(y) + g_span
    return lambda y, g=0.0, g_span=0.0: ncd_statistic(rx.coordinates(y))


def _unit_scale(x) -> float:
    """The power of two s that brings max |x| into [1/2, 1) (1 where x is
    0): s x is exact, so a quadratic form of s x is the form of x times
    s^2 without its overflow or underflow."""
    return math.ldexp(1.0, -math.frexp(float(np.max(np.abs(x))))[1])


def noncentrality(det: DetectorKind, rx: Receiver) -> float:
    """Noncentrality lambda' = 2 T(x) / c at unit target RCS, T the
    detector's statistic and x the receiver's noise-free return at unit
    amplitude; a target of RCS rho has lambda = rho lambda', which
    ``analyze_detector`` forms and checks.  Where T(x) is below the least
    normal double (CD's grows as xi^4, and a strong fixed target's gains
    are small) or overflows one (CD's at an SNR of 2000 dB), T reads s x
    and c becomes c s^2, s the power of two that brings max |x| into
    [1/2, 1): T is quadratic, so the ratio is the same."""
    c = rx.law(det).c
    stat = statistic(det, rx)
    with np.errstate(over="ignore"):  # an infinite T(x) is rescaled
        t = float(stat(rx.x))
        if not sys.float_info.min <= t < math.inf:
            s = _unit_scale(rx.x)
            if sys.float_info.min <= c * s * s < math.inf:
                t, c = float(stat(rx.x * s)), c * s * s
    return 2.0 * t / c


def analyze_detector(det: DetectorKind, rx: Receiver,
                     pfa_target: float) -> PerfPoint:
    """Operating point at a target false-alarm rate: threshold, the
    target's noncentrality lambda = rho lambda' at its mean RCS rho, and
    detection probability under the scenario's target model (Swerling I
    average or fixed amplitude).  Raises ValueError where lambda
    overflows a double."""
    target = rx.sc.target
    lam = noncentrality(det, rx) * target.mean_rcs
    if not lam < math.inf:
        raise ValueError(f"{det.value} noncentrality lambda = 2 rho T(x) / c "
                         "overflows a double")
    chi2 = rx.law(det)
    gamma = chi2.isf(pfa_target)
    return PerfPoint(detector=det, gamma=gamma, pd=chi2.pd(gamma, lam, target),
                     lam=lam,
                     varsigma=rx.varsigma if det is DetectorKind.CD else None)
