"""The four detection statistics on one noisy measurement.

A two-transmitter scenario is built with the library defaults, a noisy
slow-time measurement is formed for a fixed target amplitude in noise of
unit power, the unit of every statistic and threshold, and all four
statistics come from ``analysis.statistic`` on the scenario's receiver
and are evaluated against their false-alarm thresholds, each from the
detector's chi-square law ``rx.law(det)`` and its ``isf``.
"""

import numpy as np

from dmimo.analysis import DetectorKind, Receiver, statistic
from dmimo.montecarlo import draw_noise, _block_rng
from dmimo.presets import reference_scenario
from dmimo.scene import SyncErrors

sc = reference_scenario("multi_band", snr_db=(3.0, 3.0))
rx = Receiver.build(sc, SyncErrors.zeros(2, 1))

alpha = 1.0 + 0.0j
rng = _block_rng(seed=7, pair=0, block=0)
y = alpha * rx.x + draw_noise(rng, sc.k_pulses, (sc.m_tx, sc.n_rx))

print(f"{'detector':>8s} {'statistic':>12s} {'threshold':>12s} {'decide':>8s}")
for det in DetectorKind:
    value = statistic(det, rx)(y)
    gamma = rx.law(det).isf(1e-4)
    verdict = "target" if value > gamma else "noise"
    print(f"{det.value:>8s} {value:12.3f} {gamma:12.3f} {verdict:>8s}")

alpha_hat = np.vdot(rx.templates, y) / rx.varsigma
print(f"\nleast-squares amplitude estimate: {alpha_hat:.3f} (true {alpha})")
