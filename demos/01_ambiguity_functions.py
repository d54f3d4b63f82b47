"""Chirp waveform sets and their cross-ambiguity behavior.

Two pulse libraries are compared on the same bandwidth and duration: a
multi-band set whose pulses occupy disjoint sub-bands, and a single-band
up/down chirp pair sharing the full band.  The multi-band pair is
orthogonal at the origin; the single-band pair is deliberately not, which
is what makes the cross terms in the distributed measurement model
non-negligible.
"""

import numpy as np

from dmimo.presets import ETA, KAPPA
from dmimo.waveforms import caf, pulse_set

BETA = 400e3
TP = 1e-5

multi = pulse_set("multi_band", 2, BETA, TP, ETA, KAPPA)
single = pulse_set("single_band", 2, BETA, TP, ETA, KAPPA)

print("origin values chi(0, 0):")
for name, (a, b) in (("multi-band", multi), ("single-band", single)):
    print(f"  {name:12s} auto |chi_11| = {abs(caf(a, a, 0.0, 0.0)):.6f}   "
          f"cross |chi_12| = {abs(caf(a, b, 0.0, 0.0)):.2e}")

print("\nzero-Doppler cross slice |chi_12(nu, 0)|:")
print(f"{'nu/Tp':>8s} {'multi-band':>12s} {'single-band':>12s}")
for frac in np.linspace(-0.8, 0.8, 9):
    row = [abs(caf(a, b, frac * TP, 0.0)) for a, b in (multi, single)]
    print(f"{frac:8.2f} {row[0]:12.4e} {row[1]:12.4e}")

print("\nA pulse correlated against a copy more than one pulse length away "
      "is exactly zero:")
a, _ = multi
print(f"  chi_11(1.2 Tp, 0) = {caf(a, a, 1.2 * TP, 0.0)}")
