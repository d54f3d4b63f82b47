"""Chirp pulse envelopes and their cross-ambiguity function.

A pulse is the unit-energy chirp on [0, T_p] with the phase
pi beta (s t^2 / T_p + c t), held as `PulseSpec` (beta, T_p, s, c).
Multi-band chirps occupy disjoint bands and are orthogonal at zero
delay/Doppler; the single-band up/down pair overlaps in one band.

The cross-ambiguity function

    chi_ab(nu, f) = integral p_a(mu) conj(p_b(mu - nu)) exp(j 2 pi f mu) dmu

is evaluated in closed form.  Both phases are quadratic, so the
integrand over the support overlap is exp(j (q mu^2 + l mu + c0)):
pulses with equal sweep rates (q = 0) give a sinc, and all others give
Fresnel integrals (Levanon & Mozeson, Radar Signals, Wiley 2004, on the
LFM ambiguity function).  Either costs O(1) per sample, whatever the
time-bandwidth product.  `caf` takes arrays of pulses, delays and
Dopplers that broadcast together: the sinc form runs over every entry in
one array pass, and the Fresnel form, which only pulses of unequal sweep
rates take, runs per entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import fresnel, fresnel_aux

__all__ = [
    "PulseSpec",
    "caf",
]

# Largest quadratic phase excursion |q| (L/2)^2 over the overlap that the
# sinc form absorbs: sweep rates that differ by a hair, or a sliver of
# overlap.  The sinc's relative error is bounded by this value; the
# Fresnel form loses digits to cancellation as the excursion shrinks.
_SINC_MAX_EXCURSION = 1e-14


@dataclass(frozen=True)
class PulseSpec:
    """The unit-energy chirp of bandwidth beta_hz on [0, t_p] whose
    phase is pi beta (s t^2 / T_p + c t): s = +1 sweeps up, s = -1
    sweeps down, and c beta / 2 is its start frequency."""

    beta_hz: float
    t_p: float
    s: float
    c: float

    def __post_init__(self):
        if not (self.beta_hz > 0 and self.t_p > 0):
            raise ValueError("bandwidth and duration must be positive")
        if not (math.isfinite(self.s) and math.isfinite(self.c)):
            raise ValueError("sweep direction and start must be finite")


def _chirp(p):
    """(beta, s, c, t_p) of a pulse; arrays of them for an array of pulses."""
    if isinstance(p, PulseSpec):
        return p.beta_hz, p.s, p.c, p.t_p
    p = np.asarray(p, dtype=object)
    params = np.array([(x.beta_hz, x.s, x.c, x.t_p) for x in p.flat],
                      dtype=float).reshape(p.shape + (4,))
    return tuple(np.moveaxis(params, -1, 0))


def caf(a, b, nu, f):
    """Cross-ambiguity chi_ab(nu, f) at delay nu (s) and Doppler f (Hz).

    ``a`` and ``b`` are pulses or arrays of them, and their chirp
    parameters broadcast against the delay and Doppler arrays: the result
    is complex when every argument is a scalar, else an array of the
    broadcast shape whose entries equal the scalar calls.

    Exact zero for |nu| >= T_p (disjoint supports).  Closed form: the
    integrand's phase over the overlap [lo, hi] is q mu^2 + l mu + c0.  With
    a negligible quadratic term this is a sinc about the overlap midpoint,
    evaluated over the whole array at once; otherwise the square is
    completed around the stationary point t* and the integral is a
    difference of Fresnel integrals, taken per entry, through the
    auxiliary functions when t* lies outside the overlap so that no large
    phase cancels.  Agrees with dense Gauss-Legendre quadrature to a few
    1e-12 absolute at time-bandwidth products from 4 to 5000, and to
    1e-9 relative on a sliver of overlap near |nu| = T_p.
    """
    nu, f = np.asarray(nu, dtype=float), np.asarray(f, dtype=float)
    if not (np.isfinite(nu).all() and np.isfinite(f).all()):
        raise ValueError("delay and Doppler must be finite")
    (ba, sa, ca, tp), (bb, sb, cb, tp_b) = _chirp(a), _chirp(b)
    if (np.asarray(tp_b) != tp).any():
        raise ValueError("pulses must share a common duration")
    scalar = nu.ndim == f.ndim == np.ndim(ba) == np.ndim(bb) == 0
    if scalar:  # one entry, so that every result below is an array
        nu = nu.reshape(1)

    # entries off the overlap or off the sinc form are replaced below
    with np.errstate(all="ignore"):
        lo = np.maximum(0.0, nu)
        hi = np.minimum(tp, tp + nu)
        q = np.pi * (sa * ba - sb * bb) / tp
        l = (np.pi * (ba * ca - bb * cb + 2.0 * sb * bb * nu / tp)
             + 2.0 * np.pi * f)
        c0 = np.pi * bb * (cb * nu - sb * nu * nu / tp)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # phase(mid + t) = phase(mid) + slope t + q t^2 for t in
        # [-half, half]; phases relative to the midpoint keep a sliver of
        # overlap accurate
        slope = l + 2.0 * q * mid
        w = slope * half
        # rot reads every argument, so it has the broadcast shape
        rot = np.exp(1j * ((q * mid + l) * mid + c0))
        sinc = np.where(w != 0.0, np.sin(w) / w, 1.0)
        overlap = hi > lo
        val = np.where(overlap, rot * (2.0 * half * sinc / tp), 0.0)
    quadratic = np.broadcast_to(
        overlap & (np.abs(q) * half * half > _SINC_MAX_EXCURSION), val.shape)
    if quadratic.any():
        entries = np.broadcast_arrays(val, q, half, slope, w, rot, tp)[1:]
        for i in zip(*np.nonzero(quadratic)):
            val[i] = _fresnel_form(*(v[i].item() for v in entries))
    if not np.isfinite(val).all():
        raise ValueError("the CAF phase overflows a double at these "
                         "arguments")
    return val[0] if scalar else val


def _fresnel_form(q, half, slope, w, rot, tp):
    # One entry with a quadratic phase term:
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
              eta: float, kappa: float) -> tuple[PulseSpec, ...]:
    """Build the M transmit pulses for a named waveform set.

    'multi_band' gives TX m = 1..M the up-chirp (s, c) = (1, eta m), any
    M; 'single_band' is the up/down pair (1, kappa), (-1, 2 + kappa), M = 2.
    """
    if waveform_set == "multi_band":
        if eta < 0:
            raise ValueError("multi-band needs eta >= 0")
        chirps = [(1.0, eta * m) for m in range(1, m_tx + 1)]
    elif waveform_set == "single_band":
        if m_tx != 2:
            raise ValueError("single_band waveform set is defined for M=2 only")
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        chirps = [(1.0, kappa), (-1.0, 2.0 + kappa)]
    else:
        raise ValueError(f"unknown waveform set {waveform_set!r}")
    return tuple(PulseSpec(beta_hz, t_p, s, c) for s, c in chirps)
