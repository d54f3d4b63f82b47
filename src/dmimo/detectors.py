"""Test statistics for the four detectors.

Measurements are (M, N, K) complex arrays: one K-vector of slow-time
samples per matched filter per receiver.  Statistics accept either a
single measurement cube or a batch with a leading trial axis.  Each takes
the measurement and the one receiver quantity it reads: nothing (NCD) or
the templates (CD); ACD is the CD correlation with the compensation
phasors exp(j theta_hat) as templates, and HD is the NCD energy of each
path's coordinates in the span of its Doppler steering, whose bases
``steering_span`` finds.
These are the paper's definitions; the package reads them through
``analysis.statistic`` on an ``analysis.Receiver``, which holds each
such quantity once per (sweep point, system) pair.  The CD
correlation also reads a batch of sufficient coordinates
(trials, 1, 1, w), given the templates in the same frame.

  NCD  energy sum of all MF outputs (no phase knowledge)
  ACD  global sum after per-sample phase compensation, equal weights
  CD   matched correlation against the full steering/ambiguity/channel
       template, coherent across antennas
  HD   per-path projection onto the Doppler steering subspace, then
       non-coherent summation
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scene import (
    Scenario,
    SyncErrors,
    _checked_phase,
    _model_factors,
    _model_output,
    _run_cache,
)

__all__ = [
    "CompensationSet",
    "ncd_statistic",
    "cd_statistic",
    "steering_span",
]

_RCOND_LIMIT = 1e-12


@dataclass(frozen=True)
class CompensationSet:
    """Receiver-side compensation quantities built from parameter estimates.

    S_hat      (N, K, M) Doppler steering matrices
    X_hat      (M, N, M) ambiguity diagonals
    h_hat      (M, N, M) channel vectors
    theta_hat  (M, N, K) per-sample compensation phases
    """

    S_hat: np.ndarray
    X_hat: np.ndarray
    h_hat: np.ndarray
    theta_hat: np.ndarray

    @classmethod
    def from_scenario(cls, sc: Scenario, err: SyncErrors) -> "CompensationSet":
        """Form the hatted quantities from estimates tau + dt, f + df,
        psi + dp.  With zero errors this equals the true path model.
        Raises ValueError where an estimated delay lies outside [0, PRI)
        or a phase, theta_hat among them, reaches 2^52 rad.

        The hatted steering/ambiguity/channel expressions coincide with
        the error-free model evaluated at the estimated parameters, so the
        scene's model builder is reused on a shifted scenario.
        """
        tau_hat = sc.tau_s + err.dt
        if np.any(tau_hat < 0) or np.any(tau_hat >= sc.pri_s):
            raise ValueError("estimated delays tau + dt must lie in [0, PRI)")
        est = replace(sc,
                      tau_s=tau_hat,
                      doppler_hz=sc.doppler_hz + err.df,
                      psi_rad=sc.psi_rad + err.dp)
        S_hat, X_hat, h_hat = _model_factors(
            est, SyncErrors.zeros(sc.m_tx, sc.n_rx))
        k = np.arange(sc.k_pulses)
        with np.errstate(all="ignore"):  # checked below
            theta_hat = (est.psi_rad[:, :, None]
                         - 2.0 * math.pi * sc.carrier_hz
                         * est.tau_s[:, :, None]
                         + 2.0 * math.pi * sc.pri_s
                         * est.doppler_hz[:, :, None] * k[None, None, :])
        _checked_phase(theta_hat, "the compensation phase theta_hat")
        return cls(S_hat=S_hat, X_hat=X_hat, h_hat=h_hat, theta_hat=theta_hat)

    @property
    def templates(self) -> np.ndarray:
        """(M, N, K) stack of S_hat X_hat h_hat template vectors."""
        return _model_output(self.S_hat, self.X_hat, self.h_hat)


def _check_cube(y):
    y = np.asarray(y)
    if y.ndim not in (3, 4):
        raise ValueError("measurement must be (M, N, K) or (trials, M, N, K)")
    return y


def _energy(z, axes=()) -> np.ndarray | float:
    """|z|^2 summed over ``axes`` of z (none: elementwise), as the sum of
    squares of its float64 view, real and imaginary parts.  Every
    statistic takes its squared magnitudes here, so the closed forms and
    the Monte Carlo read one form."""
    z = np.asarray(z, dtype=np.complex128)
    if not axes:
        # the einsum's re * re + im * im, without its per-element loop
        return np.square(z.real) + np.square(z.imag)
    summed = [a % z.ndim for a in axes]
    parts = z[..., None].view(np.float64)  # (..., 2)
    every = list(range(parts.ndim))
    return np.einsum(parts, every, parts, every,
                     [a for a in range(z.ndim) if a not in summed])


def ncd_statistic(y) -> np.ndarray | float:
    """Energy sum over all MF outputs; invariant to any per-sample phase."""
    y = _check_cube(y)
    out = _energy(y, (-3, -2, -1))
    return out[()] if out.ndim == 0 else out


def cd_statistic(y, templates) -> np.ndarray | float:
    """Matched correlation against the (M, N, K) compensation templates
    ``CompensationSet.templates``, coherently summed over every path."""
    y = _check_cube(y)
    v = np.asarray(templates)
    if v.shape != y.shape[-3:]:
        raise ValueError("template dimensions must match the measurement")
    out = _energy(np.einsum("mnk,...mnk->...", np.conj(v), y))
    return out[()] if out.ndim == 0 else out


@_run_cache
def steering_span(S_hat) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (N, K, r_S) of the spans of the Doppler steering
    matrices S_hat (N, K, M), and each receiver's numerical rank (N,).

    One rank-revealing SVD of the unit-normed columns: a receiver's rank
    counts its singular values above _RCOND_LIMIT times its largest, so
    it is min(K, M) at most and 1 for co-located steering without sync
    errors.  The bases are the leading r_S left singular vectors, r_S the
    largest rank, so a receiver of lower rank carries extra orthonormal
    columns.  Cached run-wide (``scene._run_cache``), read-only."""
    return _basis(S_hat)


def _basis(a) -> tuple[np.ndarray, np.ndarray]:
    """The package's one rank-revealing routine: one SVD of the
    unit-normed columns of each matrix of ``a`` (..., n, k), its numerical
    rank (...) the count of singular values above _RCOND_LIMIT times its
    largest, and the orthonormal basis (..., n, r) of its leading left
    singular vectors, r the largest rank.  The columns must be nonzero
    and their norms finite."""
    cols = a / np.linalg.norm(a, axis=-2, keepdims=True)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = np.sum(s > _RCOND_LIMIT * s[..., :1], axis=-1)
    return u[..., :rank.max()], rank
