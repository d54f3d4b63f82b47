"""Closed-form analysis against seeded Monte Carlo simulation.

For each detector the analytic Swerling I detection probability is
printed next to an empirical estimate from 100 000 seeded trials, with
the difference and the 3 sigma binomial half-width at the analytic
value.  The false-alarm side is shown the same way: the empirical rate
of 100 000 noise-only trials at each detector's threshold for
Pf = 1e-2, from its central chi-square law, next to 1e-2 and its
3 sigma half-width.  The seeds fix every printed number; whether a
difference falls inside 3 sigma is a chance event of each stream (about
0.3% per row when the closed forms are right), which the demo shows and
does not check.
"""

import math

from dmimo.analysis import DetectorKind, Receiver, analyze_detector
from dmimo.montecarlo import TrialConfig, run_sweep
from dmimo.presets import reference_scenario
from dmimo.scene import Swerling1, SyncErrors

ALL = list(DetectorKind)
TRIALS = 100_000
H0_PFA = 1e-2

sc = reference_scenario("multi_band", snr_db=(0.0, 0.0))
rx = Receiver.build(sc, SyncErrors.zeros(2, 1))
points = {d: analyze_detector(d, rx, 1e-4) for d in ALL}

cfg = TrialConfig(trials=TRIALS, seed=12345, target_draw=Swerling1(1.0))
# run_sweep counts, per detector, the trials above its threshold
counts = run_sweep([(rx, {d: points[d].gamma for d in ALL}, cfg)])[0]

print(f"{TRIALS} trials, Pf = 1e-4, SNR = 0 dB:")
print(f"{'detector':>8s} {'analytic':>10s} {'empirical':>10s} "
      f"{'|diff|':>9s} {'3 sigma':>9s}")
for d in ALL:
    pd, ph = points[d].pd, counts[d] / TRIALS
    sigma3 = 3 * math.sqrt(pd * (1 - pd) / TRIALS)
    print(f"{d.value:>8s} {pd:10.4f} {ph:10.4f} {abs(pd - ph):9.4f} "
          f"{sigma3:9.4f}")

# a run without a target draw is noise only (H0)
h0 = run_sweep([(rx, {d: rx.law(d).isf(H0_PFA) for d in ALL},
                 TrialConfig(trials=TRIALS, seed=200))])[0]
sigma3 = 3 * math.sqrt(H0_PFA * (1 - H0_PFA) / TRIALS)
print(f"\nfalse-alarm rate at the Pf = {H0_PFA:g} thresholds "
      f"({TRIALS} noise-only trials):")
for d in ALL:
    print(f"{d.value:>8s} {h0[d] / TRIALS:10.4f}   "
          f"({H0_PFA:g} +- {sigma3:.4f})")
