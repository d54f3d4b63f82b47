"""Closed-form analysis against seeded Monte Carlo simulation.

For each detector the analytic Swerling I detection probability is
compared with an empirical estimate from 100 000 seeded trials; the two
agree within the 3 sigma binomial interval.  The H0 statistics are also
checked against their central chi-square laws with a Kolmogorov-Smirnov
distance.
"""

import math

from dmimo.analysis import DetectorKind, Receiver, analyze_detector
from dmimo.montecarlo import (
    TrialConfig,
    h0_statistic_distribution_check,
    run_trials,
)
from dmimo.presets import reference_scenario
from dmimo.scene import Swerling1, SyncErrors

ALL = list(DetectorKind)
TRIALS = 100_000

sc = reference_scenario("multi_band", snr_db=(0.0, 0.0))
rx = Receiver.build(sc, SyncErrors.zeros(2, 1))
points = {d: analyze_detector(d, rx, 1e-4) for d in ALL}

cfg = TrialConfig(trials=TRIALS, seed=12345, target_draw=Swerling1(1.0))
res = run_trials(rx, {d: points[d].gamma for d in ALL}, cfg)

print(f"{TRIALS} trials, Pf = 1e-4, SNR = 0 dB:")
print(f"{'detector':>8s} {'analytic':>10s} {'empirical':>10s} "
      f"{'|diff|':>9s} {'3 sigma':>9s}")
for d in ALL:
    pd, ph = points[d].pd, res[d].p_hat
    sigma3 = 3 * math.sqrt(pd * (1 - pd) / TRIALS)
    print(f"{d.value:>8s} {pd:10.4f} {ph:10.4f} {abs(pd - ph):9.4f} "
          f"{sigma3:9.4f}")

print("\nH0 statistic vs central chi-square law (KS distance, "
      f"{TRIALS} trials):")
for i, d in enumerate(ALL):
    rep = h0_statistic_distribution_check(d, rx, TRIALS, seed=200 + i)
    print(f"{d.value:>8s}  2T/c ~ chi2_{2 * rep.order:<4d} "
          f"KS = {rep.ks_distance:.4f}")
