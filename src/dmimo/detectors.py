"""Test statistics for the four detectors.

Measurements are (M, N, K) complex arrays: one K-vector of slow-time
samples per matched filter per receiver.  Statistics accept either a
single measurement cube or a batch with a leading trial axis.  Each takes
the measurement and the one receiver quantity it reads: nothing (NCD),
the compensation phases (ACD), the templates (CD) or the Doppler
projectors (HD).  These are the paper's definitions; the package reads
them through ``analysis.statistic`` on an ``analysis.Receiver``, which
holds each such quantity once per (sweep point, system) pair.  The CD
correlation and the HD projection also read a batch of sufficient
coordinates (trials, M, N, r), given the quantity in the same frame.

  NCD  energy sum of all MF outputs (no phase knowledge)
  ACD  global sum after per-sample phase compensation, equal weights
  CD   matched correlation against the full steering/ambiguity/channel
       template, coherent across antennas
  HD   per-path projection onto the Doppler steering subspace, then
       non-coherent summation
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .scene import Scenario, SyncErrors, _model_factors, _model_output

__all__ = [
    "CompensationSet",
    "ncd_statistic",
    "acd_statistic",
    "cd_statistic",
    "hd_statistic",
    "doppler_projectors",
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
        theta_hat = (est.psi_rad[:, :, None]
                     - 2.0 * math.pi * sc.carrier_hz * est.tau_s[:, :, None]
                     + 2.0 * math.pi * sc.pri_s * est.doppler_hz[:, :, None]
                     * k[None, None, :])
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


def acd_statistic(y, theta_hat) -> np.ndarray | float:
    """Squared magnitude of the phase-compensated global sum."""
    y = _check_cube(y)
    rot = np.exp(-1j * np.asarray(theta_hat))
    if rot.shape != y.shape[-3:]:
        raise ValueError("theta_hat dimensions must match the measurement")
    out = _energy(np.sum(rot * y, axis=(-3, -2, -1)))
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


def doppler_projectors(S_hat) -> np.ndarray:
    """Orthonormal bases Q_n (N, K, M) for the Doppler steering subspaces,
    via QR factorization rather than explicit Gram inversion.  The bases
    (or the rank-deficiency error) are cached on the exact bytes of
    ``S_hat``, at most 8 sets, and shared read-only.

    Raises on K < M and on numerically rank-deficient steering matrices
    (near-duplicate Doppler columns), naming the offending receiver.
    """
    S_hat = np.asarray(S_hat)
    N, K, M = S_hat.shape
    if K < M:
        raise ValueError(f"HD needs K >= M, got K={K}, M={M}")
    qs = _doppler_bases(S_hat.tobytes(), S_hat.shape, S_hat.dtype.str)
    if isinstance(qs, str):
        raise ValueError(qs)
    return qs


# keyed and bounded like scene._steering, whose matrices it reads
@functools.lru_cache(maxsize=8)
def _doppler_bases(s_bytes, shape, dtype):
    # the bases, or the rank-deficiency error text, so a sweep that meets
    # the same deficient matrix again does not repeat its SVDs
    S_hat = np.frombuffer(s_bytes, dtype=dtype).reshape(shape)
    qs = np.empty(shape, dtype=complex)
    for n in range(shape[0]):
        sv = np.linalg.svd(S_hat[n], compute_uv=False)
        if sv[-1] < _RCOND_LIMIT * sv[0]:
            return (f"Doppler steering matrix for RX {n} is numerically "
                    f"rank deficient (reciprocal condition "
                    f"{sv[-1] / sv[0]:.2e})")
        qs[n], _ = np.linalg.qr(S_hat[n])
    qs.flags.writeable = False
    return qs


def hd_statistic(y, basis) -> np.ndarray | float:
    """Energy of each path's projection onto its Doppler steering subspace,
    summed non-coherently over paths.  ``basis`` is
    ``doppler_projectors(S_hat)``, one (K, M) orthonormal basis per
    receiver, or one basis per path (M, N, K, M); in sufficient
    coordinates K is r."""
    y = _check_cube(y)
    basis = np.asarray(basis)
    if basis.ndim == 4:
        # one (trials, K) x (K, M) matrix product per path, then the
        # energy per trial over paths and basis columns
        batch = y.reshape((-1,) + y.shape[-3:])
        coeffs = np.matmul(batch.transpose(1, 2, 0, 3), np.conj(basis))
        out = _energy(coeffs, (0, 1, 3))
        return out if y.ndim == 4 else out[0]
    # coeffs: (..., M, N, M') inner products with the orthonormal basis
    coeffs = np.einsum("nkj,...mnk->...mnj", np.conj(basis), y)
    out = _energy(coeffs, (-3, -2, -1))
    return out[()] if out.ndim == 0 else out

