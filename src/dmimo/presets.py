"""Defaults of the experiment schema, and the reference scenario built
from them.

`dmimo.experiments` fills every scenario field a document leaves out
from this table: the multi-band set (eta = kappa = 3), M=2, N=1, K=12,
500 Hz PRF, 3 GHz carrier, 10 us pulses of 400 kHz chirps, delays
(0.61, 0.10) T_p, Dopplers (200, 190) Hz, phases (0.1, 0.3) pi, a
Swerling I target of unit mean RCS, and path amplitudes back-solved from
the per-path SNR at unit noise power.  `reference_scenario` is the scenario
of a document that sets nothing else; the demos and tests build on it.
"""

from __future__ import annotations

__all__ = ["reference_scenario", "WAVEFORM_SET", "ETA", "KAPPA", "M_TX",
           "N_RX", "K_PULSES", "PULSE_S", "BANDWIDTH_HZ", "PRI_S",
           "CARRIER_HZ", "TAU_OVER_TP", "DOPPLER_HZ", "PSI_OVER_PI", "RHO_BAR"]

WAVEFORM_SET = "multi_band"
ETA = 3.0    # band gap of the multi-band set
KAPPA = 3.0  # start-frequency shift of the single-band pair
M_TX = 2
N_RX = 1
K_PULSES = 12
PULSE_S = 1e-5
BANDWIDTH_HZ = 400e3
PRI_S = 1.0 / 500.0
CARRIER_HZ = 3e9
# per-TX (tau / T_p, Doppler in Hz, psi / pi) of the two reference paths
TAU_OVER_TP = (0.61, 0.10)
DOPPLER_HZ = (200.0, 190.0)
PSI_OVER_PI = (0.1, 0.3)
RHO_BAR = 1.0  # mean RCS of the default Swerling I target


def reference_scenario(waveform_set: str = WAVEFORM_SET,
                       snr_db: tuple[float, float] = (0.0, 0.0),
                       k_pulses: int = K_PULSES):
    """The two-path reference scenario with per-path SNRs in dB: what the
    experiment parser builds from a scenario document holding only these
    three fields.  Raises ExperimentError (a ValueError) where the parser
    would."""
    # imported at call time: experiments reads this module's table
    from .experiments import _parse_scenario
    return _parse_scenario({"waveform_set": waveform_set,
                            "snr_db": list(snr_db), "k_pulses": k_pulses})[0]
