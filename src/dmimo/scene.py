"""Noise-free matched-filter output model for distributed and co-located
MIMO radar.

For each TX-RX path (m, n) the K slow-time samples factor as

    x_mn = alpha * S_n @ X_mn @ h_mn

with S_n the K x M Doppler steering matrix, X_mn a diagonal matrix of
cross-ambiguity samples, and h_mn the channel vector carrying amplitudes
and carrier/propagation phases.  One builder evaluates S (N, K, M), the
diagonals X (M, N, M) and h (M, N, M) for every path at once; the same
builder, run at the estimated parameters, gives the receiver's
compensation templates.  X depends only on the pulses and the delay and
Doppler offsets, so it is cached on exactly those and shared read-only:
a sweep over SNR or phase evaluates the CAF for its first point only.
An independent scalar evaluation of the samples (auto term plus M-1
cross terms) lives with the tests as the oracle for the factorized form.

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


@dataclass(frozen=True)
class Swerling1:
    """Exponential RCS with mean rho_bar; amplitude is complex Gaussian and
    constant within a CPI."""
    rho_bar: float

    def __post_init__(self):
        if not self.rho_bar > 0:
            raise ValueError("mean RCS must be positive")


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
    """Full radar geometry and parameter set.

    pulses      M transmit pulse envelopes (one per TX)
    tau_s       (M, N) propagation delays, each < PRI
    doppler_hz  (M, N) effective Doppler f_mn (target Doppler with any
                TX/RX carrier offsets already folded in)
    psi_rad     (M, N) initial phase offsets
    b           (M,) transmit amplitudes
    xi          (M, N) channel gains
    """

    pulses: tuple[PulseSpec, ...]
    n_rx: int
    k_pulses: int
    pri_s: float
    carrier_hz: float
    tau_s: np.ndarray
    doppler_hz: np.ndarray
    psi_rad: np.ndarray
    b: np.ndarray
    xi: np.ndarray
    sigma2: float
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
        if not self.sigma2 > 0:
            raise ValueError("noise power must be positive")
        object.__setattr__(self, "tau_s", _frozen_array(self.tau_s, (M, N), "tau_s"))
        object.__setattr__(self, "doppler_hz",
                           _frozen_array(self.doppler_hz, (M, N), "doppler_hz"))
        object.__setattr__(self, "psi_rad",
                           _frozen_array(self.psi_rad, (M, N), "psi_rad"))
        object.__setattr__(self, "b", _frozen_array(self.b, (M,), "b"))
        object.__setattr__(self, "xi", _frozen_array(self.xi, (M, N), "xi"))
        if np.any(self.tau_s < 0):
            raise ValueError("propagation delays must be nonnegative")
        if np.any(self.tau_s >= self.pri_s):
            raise ValueError("delays must be below one PRI (unambiguous range)")
        if np.any(self.b < 0) or np.any(self.xi < 0):
            raise ValueError("amplitudes and channel gains must be nonnegative")

    @property
    def m_tx(self) -> int:
        return len(self.pulses)


@dataclass(frozen=True)
class SyncErrors:
    """Per-path timing (s), frequency (Hz), and phase (rad) errors, plus the
    per-RX carrier error (Hz)."""

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

    @property
    def is_zero(self) -> bool:
        return not (self.dt.any() or self.df.any() or self.dp.any()
                    or self.dc_rx.any())


def doppler_steering(f, k_pulses: int, pri_s: float) -> np.ndarray:
    """Doppler steering matrices: for Dopplers f of shape (..., M), an
    array (..., K, M) whose column m is the unit-modulus geometric sequence
    exp(j 2 pi k T_s f_m), k = 0..K-1."""
    if k_pulses < 1:
        raise ValueError("K must be >= 1")
    f = np.atleast_1d(np.asarray(f, dtype=float))
    k = np.arange(k_pulses)[:, None]
    return np.exp(2j * math.pi * pri_s * k * f[..., None, :])


# 64 distinct tensors of 16 M^2 N bytes each (8 KiB at M = N = 8)
@functools.lru_cache(maxsize=64)
def _ambiguity(pulses, force_orthogonal, nu_bytes, f_bytes, shape):
    # The key holds every argument the CAF loop reads (the pulses, the
    # co-located switch, and the exact bytes of the delay and Doppler
    # offsets), so a hit returns what a fresh evaluation would.  The
    # result is shared between callers, hence read-only.
    nu = np.frombuffer(nu_bytes).reshape(shape)
    f_off = np.frombuffer(f_bytes).reshape(shape)
    X = np.zeros(shape, dtype=complex)
    for m, n, mb in np.ndindex(shape):
        if not force_orthogonal:
            X[m, n, mb] = caf(pulses[m], pulses[mb], nu[m, n, mb],
                              f_off[m, n, mb])
        elif mb == m:
            X[m, n, m] = caf(pulses[m], pulses[m], 0.0, 0.0)
    X.flags.writeable = False
    return X


def _model_factors(sc: Scenario, err: SyncErrors):
    """(S, X, h) factors of every path's noise-free output.

    S  (N, K, M) Doppler steering matrices S_n
    X  (M, N, M) ambiguity diagonals: X[m, n, mb] is the response of MF m
       at RX n to the pulse of TX mb (force_orthogonal keeps only the auto
       entries, chi_mm(0, 0)); read-only, and shared by every build with
       the same pulses, delay and Doppler offsets
    h  (M, N, M) channel vectors h_mn
    """
    S = doppler_steering(sc.doppler_hz.T, sc.k_pulses, sc.pri_s)
    # axes [m, n, mb]: MF m at RX n, sampling at its own path's delay and
    # Doppler plus the sync errors, against the return of TX mb
    nu = (sc.tau_s + err.dt)[:, :, None] - sc.tau_s.T[None]
    f_off = (sc.doppler_hz.T[None] - sc.doppler_hz[:, :, None]
             - err.df[:, :, None])
    X = _ambiguity(tuple(sc.pulses), sc.force_orthogonal, nu.tobytes(),
                   f_off.tobytes(), nu.shape)
    phase = (sc.psi_rad.T[None]
             - 2.0 * math.pi * (sc.carrier_hz + err.dc_rx)[None, :, None]
             * sc.tau_s.T[None]
             + 2.0 * math.pi * (sc.doppler_hz + err.df)[:, :, None] * nu)
    h = (sc.b[:, None] * sc.xi).T[None] * np.exp(1j * phase)
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


def xi_from_snr(snr_db: float, b: float, sigma2: float, rho_bar: float) -> float:
    """Back-solve the channel gain so the per-path SNR
    |b xi|^2 E{|alpha|^2} / sigma^2 hits the requested value."""
    if b <= 0:
        raise ValueError("transmit amplitude must be positive")
    return math.sqrt(10.0 ** (snr_db / 10.0) * sigma2 / rho_bar) / b
