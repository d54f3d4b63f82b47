"""Noise-free matched-filter output model for distributed and co-located
MIMO radar.

For each TX-RX path (m, n) the K slow-time samples factor as

    x_mn = alpha * S_n @ X_mn @ h_mn

with S_n the K x M Doppler steering matrix, X_mn a diagonal matrix of
cross-ambiguity samples, and h_mn the channel vector carrying amplitudes
and carrier/propagation phases.  One builder evaluates S (N, K, M), the
diagonals X (M, N, M) and h (M, N, M) for every path at once; the same
builder, run at the estimated parameters, gives the receiver's
compensation templates.  X is one array pass of the closed-form CAF over
every (m, n, mb).

Two factors are cached for the whole run, each keyed on the exact bytes
of what it reads and shared read-only, so a hit returns what a fresh
evaluation would:

  X  on the pulses, the co-located switch and the delay and Doppler
     offsets; at most 64 tensors of M^2 N entries.  Sweeps over SNR or
     phase reuse it at every point; delay and Doppler sweeps do not.
  S  on the Dopplers, K and the PRI; at most 8 matrices, since each
     holds N K M samples.  Every sweep but a Doppler sweep reuses it.

`detectors.steering_span` caches the span bases and ranks of the
estimated S (one SVD, which HD and the Monte Carlo read) the same way on
its bytes, and `analysis.threshold` its gamma quantiles on (p, Pfa);
every sweep reuses those thresholds.  An independent scalar
evaluation of the samples (auto term plus M-1 cross terms) lives with
the tests as the oracle for the factorized form.

Timing/frequency/phase sync errors enter through `SyncErrors`; the
all-zeros instance reproduces the error-free model exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .waveforms import PulseSpec, caf

__all__ = [
    "NonFluctuating",
    "Swerling1",
    "Scenario",
    "SyncErrors",
    "doppler_steering",
    "noise_free_mf_output",
    "colocated_scenario",
    "xi_from_snr",
]


@dataclass(frozen=True)
class NonFluctuating:
    """Fixed complex target amplitude."""
    alpha: complex

    @property
    def mean_rcs(self) -> float:
        """|alpha|^2; raises OverflowError beyond the largest double."""
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class Swerling1:
    """Exponential RCS with mean rho_bar; amplitude is complex Gaussian and
    constant within a CPI."""
    rho_bar: float

    def __post_init__(self):
        if not self.rho_bar > 0:
            raise ValueError("mean RCS must be positive")

    @property
    def mean_rcs(self) -> float:
        return self.rho_bar


def _frozen_array(value, shape, name):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Full radar geometry and parameter set, at unit noise power.

    pulses      M transmit pulse envelopes (one per TX)
    tau_s       (M, N) propagation delays, each < PRI
    doppler_hz  (M, N) effective Doppler f_mn (target Doppler with any
                TX/RX carrier offsets already folded in)
    psi_rad     (M, N) initial phase offsets
    xi          (M, N) path amplitudes xi_mn, the paper's transmit
                amplitude times channel gain b_m xi_mn
    """

    pulses: tuple[PulseSpec, ...]
    n_rx: int
    k_pulses: int
    pri_s: float
    carrier_hz: float
    tau_s: np.ndarray
    doppler_hz: np.ndarray
    psi_rad: np.ndarray
    xi: np.ndarray
    target: NonFluctuating | Swerling1
    # Co-located selector: force the ambiguity matrices to identity-like
    # form (cross entries exactly zero, auto entries chi_mm(0, 0)).
    force_orthogonal: bool = False

    def __post_init__(self):
        M, N = len(self.pulses), self.n_rx
        if M < 1 or N < 1 or self.k_pulses < 1:
            raise ValueError("M, N, K must all be >= 1")
        if not self.pri_s > 0:
            raise ValueError("PRI must be positive")
        object.__setattr__(self, "tau_s", _frozen_array(self.tau_s, (M, N), "tau_s"))
        object.__setattr__(self, "doppler_hz",
                           _frozen_array(self.doppler_hz, (M, N), "doppler_hz"))
        object.__setattr__(self, "psi_rad",
                           _frozen_array(self.psi_rad, (M, N), "psi_rad"))
        object.__setattr__(self, "xi", _frozen_array(self.xi, (M, N), "xi"))
        if np.any(self.tau_s < 0):
            raise ValueError("propagation delays must be nonnegative")
        if np.any(self.tau_s >= self.pri_s):
            raise ValueError("delays must be below one PRI (unambiguous range)")
        if np.any(self.xi < 0):
            raise ValueError("path amplitudes must be nonnegative")

    @property
    def m_tx(self) -> int:
        return len(self.pulses)


@dataclass(frozen=True)
class SyncErrors:
    """Per-path timing (s), frequency (Hz), and phase (rad) errors, plus the
    per-RX carrier error (Hz).  dt and df move both the matched filter's
    sampling point on the true return and the estimates tau + dt and
    f + df; dp moves only the estimated phase psi + dp.  dc_rx only adds
    -2 pi dc_n tau_mn to the carrier phase of the true return at RX n: no
    Doppler term, and the receiver does not estimate it."""

    dt: np.ndarray
    df: np.ndarray
    dp: np.ndarray
    dc_rx: np.ndarray

    def __post_init__(self):
        M, N = np.shape(self.dt)
        object.__setattr__(self, "dt", _frozen_array(self.dt, (M, N), "dt"))
        object.__setattr__(self, "df", _frozen_array(self.df, (M, N), "df"))
        object.__setattr__(self, "dp", _frozen_array(self.dp, (M, N), "dp"))
        object.__setattr__(self, "dc_rx", _frozen_array(self.dc_rx, (N,), "dc_rx"))

    @classmethod
    def zeros(cls, m_tx: int, n_rx: int) -> "SyncErrors":
        z = np.zeros((m_tx, n_rx))
        return cls(z, z.copy(), z.copy(), np.zeros(n_rx))


# From 2^52 rad up a double's spacing is 1 rad or more: a phase keeps no
# fraction of a radian, and two roundings of one path's phase (the model's
# and the compensation's) no longer agree on its angle.
_PHASE_LIMIT = 2.0 ** 52


def _checked_phase(phase, name):
    """The phases ``phase``, computed under np.errstate(all="ignore");
    raises ValueError naming them where one overflows a double or reaches
    _PHASE_LIMIT in magnitude."""
    if not np.isfinite(phase).all():
        raise ValueError(f"{name} overflows a double")
    if not (np.abs(phase) < _PHASE_LIMIT).all():
        raise ValueError(f"{name} reaches 2^52 rad, where a double keeps "
                         "no fraction of a radian")
    return phase


def doppler_steering(f, k_pulses: int, pri_s: float) -> np.ndarray:
    """Doppler steering matrices: for Dopplers f of shape (..., M), an
    array (..., K, M) whose column m is the unit-modulus geometric sequence
    exp(j 2 pi k T_s f_m), k = 0..K-1."""
    if k_pulses < 1:
        raise ValueError("K must be >= 1")
    f = np.atleast_1d(np.asarray(f, dtype=float))
    k = np.arange(k_pulses)[:, None]
    with np.errstate(all="ignore"):  # checked below
        phase = 2.0 * math.pi * pri_s * k * f[..., None, :]
    return np.exp(1j * _checked_phase(
        phase, "the Doppler steering phase 2 pi T_s k f"))


# 64 distinct tensors of 16 M^2 N bytes each (8 KiB at M = N = 8)
@functools.lru_cache(maxsize=64)
def _ambiguity(pulses, force_orthogonal, nu_bytes, f_bytes, shape):
    # The key holds every argument the CAF reads (the pulses, the
    # co-located switch, and the exact bytes of the delay and Doppler
    # offsets), so a hit returns what a fresh evaluation would.  The
    # result is shared between callers, hence read-only.
    p = np.array(pulses, dtype=object)
    if force_orthogonal:
        X = np.zeros(shape, dtype=complex)
        tx = np.arange(len(pulses))
        X[tx, :, tx] = caf(p, p, 0.0, 0.0)[:, None]
    else:
        nu = np.frombuffer(nu_bytes).reshape(shape)
        f_off = np.frombuffer(f_bytes).reshape(shape)
        X = caf(p[:, None, None], p[None, None, :], nu, f_off)
    X.flags.writeable = False
    return X


# An entry holds N K M complex samples (64 KiB at M = N = 8, K = 64), so
# fewer are kept than of the ambiguity tensors: a sweep point reads at
# most three distinct ones (true, estimated and co-located Dopplers).
@functools.lru_cache(maxsize=8)
def _steering(f_bytes, shape, k_pulses, pri_s):
    # keyed and shared read-only like _ambiguity
    S = doppler_steering(np.frombuffer(f_bytes).reshape(shape), k_pulses,
                         pri_s)
    S.flags.writeable = False
    return S


def _model_factors(sc: Scenario, err: SyncErrors):
    """(S, X, h) factors of every path's noise-free output.

    S  (N, K, M) Doppler steering matrices S_n; read-only, and shared by
       every build with the same Dopplers, K and PRI
    X  (M, N, M) ambiguity diagonals: X[m, n, mb] is the response of MF m
       at RX n to the pulse of TX mb (force_orthogonal keeps only the auto
       entries, chi_mm(0, 0)); read-only, and shared by every build with
       the same pulses, delay and Doppler offsets
    h  (M, N, M) channel vectors h_mn, path amplitudes xi times phases
    """
    f = sc.doppler_hz.T
    S = _steering(f.tobytes(), f.shape, sc.k_pulses, sc.pri_s)
    # axes [m, n, mb]: MF m at RX n, sampling at its own path's delay and
    # Doppler plus the sync errors, against the return of TX mb
    nu = (sc.tau_s + err.dt)[:, :, None] - sc.tau_s.T[None]
    f_off = (sc.doppler_hz.T[None] - sc.doppler_hz[:, :, None]
             - err.df[:, :, None])
    X = _ambiguity(tuple(sc.pulses), sc.force_orthogonal, nu.tobytes(),
                   f_off.tobytes(), nu.shape)
    with np.errstate(all="ignore"):  # checked below
        phase = (sc.psi_rad.T[None]
                 - 2.0 * math.pi * (sc.carrier_hz + err.dc_rx)[None, :, None]
                 * sc.tau_s.T[None]
                 + 2.0 * math.pi * (sc.doppler_hz + err.df)[:, :, None] * nu)
    _checked_phase(phase, "the carrier and Doppler phase "
                   "2 pi (f_c tau - f nu) of a path")
    h = sc.xi.T[None] * np.exp(1j * phase)
    return S, X, h


def _model_output(S, X, h) -> np.ndarray:
    """(M, N, K) stack of S_n X_mn h_mn over every path."""
    return np.einsum("nkj,mnj->mnk", S, X * h)


def noise_free_mf_output(sc: Scenario, err: SyncErrors,
                         alpha: complex) -> np.ndarray:
    """(M, N, K) array of noise-free slow-time samples, factorized form."""
    return alpha * _model_output(*_model_factors(sc, err))


def colocated_scenario(template: Scenario) -> Scenario:
    """Synchronous co-located benchmark: delays, Dopplers, and phases made
    constant across paths, cross-ambiguity terms suppressed exactly."""
    M, N = template.m_tx, template.n_rx
    const = lambda v: np.full((M, N), v)
    return replace(
        template,
        tau_s=const(template.tau_s[0, 0]),
        doppler_hz=const(template.doppler_hz[0, 0]),
        psi_rad=const(template.psi_rad[0, 0]),
        force_orthogonal=True,
    )


def xi_from_snr(snr_db: float, rho_bar: float) -> float:
    """Path amplitude xi (the paper's b xi) of the per-path SNR snr_db =
    xi^2 E{|alpha|^2} at unit noise power; ValueError where it is beyond
    a double.  The arithmetic is in Python floats, which overflow without
    a warning."""
    try:
        xi = math.sqrt(10.0 ** (float(snr_db) / 10.0) / rho_bar)
    except OverflowError:  # 10 ** (snr_db / 10) beyond a double
        xi = math.inf
    if xi == math.inf:
        raise ValueError(f"the channel gain for an SNR of {snr_db} dB "
                         "overflows a double")
    return xi
