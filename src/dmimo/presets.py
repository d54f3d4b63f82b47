"""Canonical two-TX / one-RX test scenario used throughout the demos,
experiment recipes, and tests.

Defaults: M=2, N=1, K=12, PRF 500 Hz, 3 GHz carrier, 10 us pulses with
400 kHz chirps, delays (0.61, 0.10) T_p, Dopplers (200, 190) Hz, phases
(0.1, 0.3) pi, unit noise power, Swerling I target with unit mean RCS, and
channel gains back-solved from the per-path SNR.
"""

from __future__ import annotations

import numpy as np

from .scene import Scenario, Swerling1, xi_from_snr
from .waveforms import pulse_set

__all__ = ["reference_scenario", "K_PULSES", "PULSE_S", "BANDWIDTH_HZ",
           "PRI_S", "CARRIER_HZ", "TAU_OVER_TP", "DOPPLER_HZ", "PSI_OVER_PI"]

K_PULSES = 12
PULSE_S = 1e-5
BANDWIDTH_HZ = 400e3
PRI_S = 1.0 / 500.0
CARRIER_HZ = 3e9
# per-TX (tau / T_p, Doppler in Hz, psi / pi) of the two reference paths
TAU_OVER_TP = (0.61, 0.10)
DOPPLER_HZ = (200.0, 190.0)
PSI_OVER_PI = (0.1, 0.3)


def reference_scenario(waveform_set: str = "multi_band",
                       snr_db: tuple[float, float] = (0.0, 0.0),
                       k_pulses: int = K_PULSES,
                       sigma2: float = 1.0,
                       rho_bar: float = 1.0,
                       tau_over_tp: tuple[float, float] = TAU_OVER_TP,
                       doppler_hz: tuple[float, float] = DOPPLER_HZ,
                       psi_over_pi: tuple[float, float] = PSI_OVER_PI) -> Scenario:
    """Build the two-path reference scenario with per-path SNRs in dB."""
    pulses = pulse_set(waveform_set, 2, BANDWIDTH_HZ, PULSE_S)
    xi = np.array([[xi_from_snr(snr_db[0], 1.0, sigma2, rho_bar)],
                   [xi_from_snr(snr_db[1], 1.0, sigma2, rho_bar)]])
    return Scenario(
        pulses=pulses,
        n_rx=1,
        k_pulses=k_pulses,
        pri_s=PRI_S,
        carrier_hz=CARRIER_HZ,
        tau_s=np.array([[tau_over_tp[0] * PULSE_S], [tau_over_tp[1] * PULSE_S]]),
        doppler_hz=np.array([[doppler_hz[0]], [doppler_hz[1]]]),
        psi_rad=np.array([[psi_over_pi[0] * np.pi], [psi_over_pi[1] * np.pi]]),
        b=np.ones(2),
        xi=xi,
        sigma2=sigma2,
        target=Swerling1(rho_bar),
    )
