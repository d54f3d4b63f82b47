"""Chirp pulse envelopes and their cross-ambiguity function.

Two waveform families are provided: multi-band chirps, which occupy
disjoint frequency bands and are orthogonal at zero delay/Doppler, and
overlapping single-band up/down chirps with high cross ambiguity.  All
pulses are unit energy and supported on [0, T_p].

The cross-ambiguity function

    chi_ab(nu, f) = integral p_a(mu) conj(p_b(mu - nu)) exp(j 2 pi f mu) dmu

is evaluated by Gauss-Legendre panels over the support overlap, with the
panel density scaled to the instantaneous frequency of the integrand.  One
quadrature path serves every family and arbitrary (nu, f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseSpec",
    "multi_band_chirp",
    "up_chirp",
    "down_chirp",
    "sample_pulse",
    "caf",
]

MULTI_BAND = "multi_band"
SINGLE_BAND_UP = "single_band_up"
SINGLE_BAND_DOWN = "single_band_down"

_FAMILIES = (MULTI_BAND, SINGLE_BAND_UP, SINGLE_BAND_DOWN)

# Gauss-Legendre nodes reused across panels.
_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


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
    def max_inst_freq_hz(self) -> float:
        """Upper bound on the envelope's instantaneous frequency magnitude,
        used to size the quadrature."""
        b = self.beta_hz
        if self.family == MULTI_BAND:
            return b * (1.0 + 0.5 * self.eta * self.m)
        # up: b*t/T_p + kappa*b/2; down: -b*t/T_p + b + kappa*b/2
        return b * (1.0 + 0.5 * self.kappa)


def multi_band_chirp(m: int, beta_hz: float, t_p: float, eta: float) -> PulseSpec:
    return PulseSpec(MULTI_BAND, beta_hz, t_p, eta=eta, m=m)


def up_chirp(beta_hz: float, t_p: float, kappa: float) -> PulseSpec:
    return PulseSpec(SINGLE_BAND_UP, beta_hz, t_p, kappa=kappa)


def down_chirp(beta_hz: float, t_p: float, kappa: float) -> PulseSpec:
    return PulseSpec(SINGLE_BAND_DOWN, beta_hz, t_p, kappa=kappa)


def sample_pulse(spec: PulseSpec, t):
    """Complex envelope p(t); zero outside [0, T_p].  Accepts scalars or
    numpy arrays."""
    t = np.asarray(t, dtype=float)
    b, tp = spec.beta_hz, spec.t_p
    if spec.family == MULTI_BAND:
        phase = math.pi * b * (t * t / tp + spec.eta * spec.m * t)
    elif spec.family == SINGLE_BAND_UP:
        phase = math.pi * b * (t * t / tp + spec.kappa * t)
    else:
        phase = math.pi * b * (-t * t / tp + 2.0 * t + spec.kappa * t)
    inside = (t >= 0.0) & (t <= tp)
    out = np.where(inside, np.exp(1j * phase) / math.sqrt(tp), 0.0 + 0.0j)
    return out[()] if out.ndim == 0 else out


def caf(a: PulseSpec, b: PulseSpec, nu: float, f: float) -> complex:
    """Cross-ambiguity chi_ab(nu, f) at delay nu (s) and Doppler f (Hz).

    Exact zero for |nu| >= T_p (disjoint supports).  Relative accuracy is
    about 1e-9 or better with the default panel density.
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

    # >= 10 quadrature points per cycle of the worst-case integrand
    rate = a.max_inst_freq_hz + b.max_inst_freq_hz + abs(f)
    npts = max(64, int(math.ceil(10.0 * tp * rate)))
    n_panels = int(math.ceil(npts / _GL_ORDER))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    mu = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    integrand = (sample_pulse(a, mu)
                 * np.conj(sample_pulse(b, mu - nu))
                 * np.exp(2j * math.pi * f * mu))
    return complex(np.sum(w * integrand))


def pulse_set(waveform_set: str, m_tx: int, beta_hz: float, t_p: float,
              eta: float = 3.0, kappa: float = 3.0) -> tuple[PulseSpec, ...]:
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
