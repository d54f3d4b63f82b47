"""Chirp pulse envelopes and their cross-ambiguity function.

Two waveform families are provided: multi-band chirps, which occupy
disjoint frequency bands and are orthogonal at zero delay/Doppler, and
overlapping single-band up/down chirps with high cross ambiguity.  All
pulses are unit energy and supported on [0, T_p].

The cross-ambiguity function

    chi_ab(nu, f) = integral p_a(mu) conj(p_b(mu - nu)) exp(j 2 pi f mu) dmu

is evaluated in closed form.  Every pulse has the quadratic phase
pi beta (s t^2 / T_p + c t), so the integrand over the support overlap is
exp(j (q mu^2 + l mu + c0)): pulses with equal sweep rates (q = 0) give a
sinc, and all others give Fresnel integrals (Levanon & Mozeson, Radar
Signals, Wiley 2004, on the LFM ambiguity function).  Either costs O(1)
per call, whatever the time-bandwidth product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .specfun import fresnel, fresnel_aux

__all__ = [
    "PulseSpec",
    "multi_band_chirp",
    "up_chirp",
    "down_chirp",
    "caf",
]

MULTI_BAND = "multi_band"
SINGLE_BAND_UP = "single_band_up"
SINGLE_BAND_DOWN = "single_band_down"

_FAMILIES = (MULTI_BAND, SINGLE_BAND_UP, SINGLE_BAND_DOWN)
ETA = 3.0    # default band gap parameter (multi-band)
KAPPA = 3.0  # default center-frequency shift parameter (single-band)

# Largest quadratic phase excursion |q| (L/2)^2 over the overlap that the
# sinc form absorbs: sweep rates that differ by a hair, or a sliver of
# overlap.  The sinc's relative error is bounded by this value; the
# Fresnel form loses digits to cancellation as the excursion shrinks.
_SINC_MAX_EXCURSION = 1e-14


@dataclass(frozen=True)
class PulseSpec:
    """Parametric description of one transmit pulse envelope.

    family     one of multi_band / single_band_up / single_band_down
    beta_hz    sweep bandwidth
    t_p        pulse duration in seconds
    eta        band gap parameter (multi-band only)
    kappa      center-frequency shift parameter (single-band only)
    m          1-based transmitter index (multi-band only)
    """

    family: str
    beta_hz: float
    t_p: float
    eta: float = 0.0
    kappa: float = 0.0
    m: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown pulse family {self.family!r}")
        if not (self.beta_hz > 0 and self.t_p > 0):
            raise ValueError("bandwidth and duration must be positive")
        if self.eta < 0 or self.kappa < 0:
            raise ValueError("eta and kappa must be nonnegative")
        if self.family == MULTI_BAND and self.m < 1:
            raise ValueError("multi-band TX index must be >= 1")

    @property
    def chirp(self) -> tuple[float, float]:
        """(s, c) with the envelope phase pi beta (s t^2 / T_p + c t)."""
        if self.family == MULTI_BAND:
            return 1.0, self.eta * self.m
        if self.family == SINGLE_BAND_UP:
            return 1.0, self.kappa
        return -1.0, 2.0 + self.kappa


def multi_band_chirp(m: int, beta_hz: float, t_p: float, eta: float) -> PulseSpec:
    return PulseSpec(MULTI_BAND, beta_hz, t_p, eta=eta, m=m)


def up_chirp(beta_hz: float, t_p: float, kappa: float) -> PulseSpec:
    return PulseSpec(SINGLE_BAND_UP, beta_hz, t_p, kappa=kappa)


def down_chirp(beta_hz: float, t_p: float, kappa: float) -> PulseSpec:
    return PulseSpec(SINGLE_BAND_DOWN, beta_hz, t_p, kappa=kappa)


def caf(a: PulseSpec, b: PulseSpec, nu: float, f: float) -> complex:
    """Cross-ambiguity chi_ab(nu, f) at delay nu (s) and Doppler f (Hz).

    Exact zero for |nu| >= T_p (disjoint supports).  Closed form: the
    integrand's phase over the overlap [lo, hi] is q mu^2 + l mu + c0.  With
    a negligible quadratic term this is a sinc about the overlap midpoint;
    otherwise the square is completed around the stationary point t* and
    the integral is a difference of Fresnel integrals, taken through the
    auxiliary functions when t* lies outside the overlap so that no large
    phase cancels.  Agrees with dense Gauss-Legendre quadrature to a few
    1e-12 absolute at time-bandwidth products from 4 to 5000, and to
    1e-9 relative on a sliver of overlap near |nu| = T_p.
    """
    if not (math.isfinite(nu) and math.isfinite(f)):
        raise ValueError("delay and Doppler must be finite")
    tp = a.t_p
    if b.t_p != tp:
        raise ValueError("pulses must share a common duration")
    lo = max(0.0, nu)
    hi = min(tp, tp + nu)
    if hi <= lo:
        return 0.0 + 0.0j

    (sa, ca), (sb, cb) = a.chirp, b.chirp
    ba, bb = a.beta_hz, b.beta_hz
    q = math.pi * (sa * ba - sb * bb) / tp
    l = (math.pi * (ba * ca - bb * cb + 2.0 * sb * bb * nu / tp)
         + 2.0 * math.pi * f)
    c0 = math.pi * bb * (cb * nu - sb * nu * nu / tp)

    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # phase(mid + t) = phase(mid) + slope t + q t^2 for t in [-half, half];
    # phases relative to the midpoint keep a sliver of overlap accurate
    slope = l + 2.0 * q * mid
    w = slope * half
    rot = cmath.exp(1j * ((q * mid + l) * mid + c0))
    if abs(q) * half * half <= _SINC_MAX_EXCURSION:
        sinc = math.sin(w) / w if w else 1.0
        return rot * (2.0 * half * sinc / tp)

    # exp(j q (t - t*)^2) = exp(+-j pi x^2 / 2) with x = k (t - t*)
    k = math.sqrt(2.0 * abs(q) / math.pi)
    t_s = -0.5 * slope / q
    x_lo, x_hi = k * (-half - t_s), k * (half - t_s)
    if x_lo < 0.0 < x_hi:
        diff = fresnel(x_hi) - fresnel(x_lo)
        if q < 0.0:
            diff = diff.conjugate()
        val = diff * rot * cmath.exp(0.5j * slope * t_s)
    else:
        # C + jS = sgn(x) ((1 + j)/2 - (g + jf)(|x|) exp(j pi x^2 / 2)), and
        # exp(j phase(t*)) exp(+-j pi x^2 / 2) is exp(j phase(t))
        aux_lo, aux_hi = fresnel_aux(abs(x_lo)), fresnel_aux(abs(x_hi))
        if q < 0.0:
            aux_lo, aux_hi = aux_lo.conjugate(), aux_hi.conjugate()
        val = (rot * cmath.exp(1j * q * half * half)
               * (aux_lo * cmath.exp(-1j * w) - aux_hi * cmath.exp(1j * w)))
        if x_hi <= 0.0:
            val = -val
    return val / (k * tp)


def pulse_set(waveform_set: str, m_tx: int, beta_hz: float, t_p: float,
              eta: float = ETA, kappa: float = KAPPA) -> tuple[PulseSpec, ...]:
    """Build the M transmit pulses for a named waveform set.

    'multi_band' supports any M; 'single_band' is the up/down pair (M=2).
    """
    if waveform_set == "multi_band":
        return tuple(multi_band_chirp(m, beta_hz, t_p, eta)
                     for m in range(1, m_tx + 1))
    if waveform_set == "single_band":
        if m_tx != 2:
            raise ValueError("single_band waveform set is defined for M=2 only")
        return (up_chirp(beta_hz, t_p, kappa), down_chirp(beta_hz, t_p, kappa))
    raise ValueError(f"unknown waveform set {waveform_set!r}")
