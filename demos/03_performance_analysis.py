"""Closed-form detection performance and the effect of sync errors.

Average detection probability for a Swerling I target is computed in
closed form at a fixed false-alarm rate, first as a function of SNR, then
with phase and Doppler estimation errors at the receiver.  The phase
error hurts only the coherent detector; a Doppler error also degrades
the hybrid detector but barely touches the non-coherent one.
"""

import math

import numpy as np

from dmimo.analysis import DetectorKind, Receiver, analyze_detector
from dmimo.presets import reference_scenario
from dmimo.scene import SyncErrors

ALL = list(DetectorKind)
ZERO = SyncErrors.zeros(2, 1)


def table(err, title):
    print(title)
    print(f"{'SNR dB':>8s} " + " ".join(f"{d.value:>8s}" for d in ALL))
    for snr in np.arange(-10.0, 11.0, 2.5):
        sc = reference_scenario("multi_band", snr_db=(snr, snr))
        rx = Receiver.build(sc, err)
        pds = [analyze_detector(d, rx, 1e-4).pd for d in ALL]
        print(f"{snr:8.1f} " + " ".join(f"{p:8.4f}" for p in pds))
    print()


table(ZERO, "no sync errors (Pf = 1e-4):")

phase_err = SyncErrors(dt=np.zeros((2, 1)), df=np.zeros((2, 1)),
                       dp=np.array([[0.053 * math.pi], [0.79 * math.pi]]),
                       dc_rx=np.zeros(1))
table(phase_err, "phase errors (0.053 pi, 0.79 pi): only CD suffers")

doppler_err = SyncErrors(dt=np.zeros((2, 1)), df=np.array([[-25.0], [10.0]]),
                         dp=np.zeros((2, 1)), dc_rx=np.zeros(1))
table(doppler_err, "Doppler errors (-25 Hz, +10 Hz): ACD and CD collapse, "
                   "HD dips, NCD is unmoved")
