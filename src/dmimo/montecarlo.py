"""Seeded Monte Carlo trial engine.

Trials are generated in fixed-size blocks.  Block ``j`` of a run draws
from a fresh Philox generator keyed by ``(seed, j)``, so any block can be
produced independently of the others: results are bit-identical across
runs, and the first ``B`` trials of a long run equal the first ``B``
trials of a short one.  Aggregation is plain counting, which is
associative, so block order never matters.

Per trial the target amplitude is drawn once and held for the whole CPI,
while the noise is independent across every matched filter output.  Every
detector of one ``run_trials`` call sees the same measurement blocks
(common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import DetectorKind, _order, _scale
from .detectors import (
    CompensationSet,
    acd_statistic,
    cd_statistic,
    doppler_projectors,
    hd_statistic,
    ncd_statistic,
)
from .scene import (
    NonFluctuating,
    Scenario,
    Swerling1,
    SyncErrors,
    noise_free_mf_output,
)
from .specfun import Probability

__all__ = [
    "BLOCK_TRIALS",
    "TrialConfig",
    "EmpiricalResult",
    "DistributionCheck",
    "draw_noise",
    "draw_swerling1_alpha",
    "run_trials",
    "h0_statistic_distribution_check",
]

BLOCK_TRIALS = 8192


@dataclass(frozen=True)
class TrialConfig:
    """Simulation run description.

    hypothesis "H0" runs pure noise; "H1" adds the target return with an
    amplitude drawn per trial from target_draw (NonFluctuating holds a
    fixed complex alpha, Swerling1 redraws CN(0, rho_bar) every trial).
    """

    trials: int
    seed: int
    hypothesis: str = "H1"
    target_draw: NonFluctuating | Swerling1 | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.hypothesis not in ("H0", "H1"):
            raise ValueError("hypothesis must be 'H0' or 'H1'")
        if self.hypothesis == "H1" and self.target_draw is None:
            raise ValueError("H1 runs need a target_draw")


@dataclass(frozen=True)
class EmpiricalResult:
    """Detection count for one detector with a 3 sigma binomial interval."""

    detector: DetectorKind
    detections: int
    trials: int
    p_hat: Probability
    ci_halfwidth: float

    @classmethod
    def from_counts(cls, det: DetectorKind, detections: int,
                    trials: int) -> "EmpiricalResult":
        p = detections / trials
        half = 3.0 * np.sqrt(p * (1.0 - p) / trials)
        return cls(detector=det, detections=detections, trials=trials,
                   p_hat=Probability(p), ci_halfwidth=float(half))


@dataclass(frozen=True)
class DistributionCheck:
    """Kolmogorov-Smirnov comparison of an H0 statistic with its
    central chi-square law (2T/c against chi-square with 2p dof)."""

    detector: DetectorKind
    trials: int
    ks_distance: float
    order: int
    scale: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_noise(stream: np.random.Generator, k_pulses: int,
               sigma2: float = 1.0, shape=()) -> np.ndarray:
    """Circular complex Gaussian noise, per-component variance sigma2/2.

    Returns an array of shape ``shape + (k_pulses,)``.
    """
    z = stream.standard_normal(size=tuple(shape) + (k_pulses, 2))
    z *= np.sqrt(sigma2 / 2.0)
    return z.view(np.complex128)[..., 0]


def draw_swerling1_alpha(stream: np.random.Generator, rho_bar: float,
                         size=()) -> np.ndarray | complex:
    """Target amplitudes CN(0, rho_bar); |alpha|^2 is exponential with
    mean rho_bar."""
    if not rho_bar > 0:
        raise ValueError("mean RCS must be positive")
    z = stream.normal(scale=np.sqrt(rho_bar / 2.0), size=tuple(size) + (2,))
    out = z[..., 0] + 1j * z[..., 1]
    return complex(out) if out.ndim == 0 else out


def _iter_measurement_blocks(sc: Scenario, err: SyncErrors, cfg: TrialConfig):
    """Yield (M, N, K)-per-trial measurement batches, one block at a time.

    Draw order inside a block is fixed (amplitudes first, then noise) so
    the stream layout does not depend on the hypothesis under test.
    """
    M, N, K = sc.m_tx, sc.n_rx, sc.k_pulses
    x_unit = noise_free_mf_output(sc, err, 1.0)
    n_blocks = -(-cfg.trials // BLOCK_TRIALS)
    for j in range(n_blocks):
        nb = min(BLOCK_TRIALS, cfg.trials - j * BLOCK_TRIALS)
        rng = _block_rng(cfg.seed, j)
        if isinstance(cfg.target_draw, Swerling1):
            alpha = draw_swerling1_alpha(rng, cfg.target_draw.rho_bar, (nb,))
        elif isinstance(cfg.target_draw, NonFluctuating):
            alpha = np.full(nb, cfg.target_draw.alpha, dtype=complex)
        else:
            alpha = np.zeros(nb, dtype=complex)
        w = draw_noise(rng, K, sc.sigma2, (nb, M, N))
        if cfg.hypothesis == "H1":
            w += alpha[:, None, None, None] * x_unit
        yield w


def _statistic(det: DetectorKind, comp: CompensationSet):
    """The detector's statistic as a function of a measurement batch.  The
    CD templates and HD projectors are built here, once, not per block."""
    if det is DetectorKind.NCD:
        return ncd_statistic
    if det is DetectorKind.ACD:
        return lambda y: acd_statistic(y, comp.theta_hat)
    if det is DetectorKind.CD:
        v = comp.templates
        return lambda y: cd_statistic(y, comp, templates=v)
    q = doppler_projectors(comp.S_hat)
    return lambda y: hd_statistic(y, comp.S_hat, basis=q)


def run_trials(sc: Scenario, err: SyncErrors, comp: CompensationSet,
               dets, gammas: dict, cfg: TrialConfig) -> dict:
    """Run the configured trials and count threshold exceedances.

    gammas maps each requested detector to its threshold.  Returns a
    DetectorKind -> EmpiricalResult map.
    """
    dets = list(dets)
    missing = [d for d in dets if d not in gammas]
    if missing:
        raise ValueError(f"no threshold supplied for {missing[0].value}")
    stats_of = {d: _statistic(d, comp) for d in dets}
    counts = {d: 0 for d in dets}
    for y in _iter_measurement_blocks(sc, err, cfg):
        for d in dets:
            counts[d] += int(np.count_nonzero(stats_of[d](y) > gammas[d]))
    return {d: EmpiricalResult.from_counts(d, counts[d], cfg.trials)
            for d in dets}


def h0_statistic_distribution_check(det: DetectorKind, sc: Scenario,
                                    comp: CompensationSet, trials: int,
                                    seed: int) -> DistributionCheck:
    """KS distance between the empirical H0 statistic and its theoretical
    central chi-square law."""
    # imported here to keep scipy (about half a second) off the CLI's start-up
    from scipy import stats

    cfg = TrialConfig(trials=trials, seed=seed, hypothesis="H0")
    statistic = _statistic(det, comp)
    vals = np.concatenate([
        np.atleast_1d(statistic(y))
        for y in _iter_measurement_blocks(sc, SyncErrors.zeros(sc.m_tx, sc.n_rx),
                                         cfg)])
    K, M, N = sc.k_pulses, sc.m_tx, sc.n_rx
    varsigma = None
    if det is DetectorKind.CD:
        varsigma = float(np.sum(np.abs(comp.templates) ** 2))
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sc.sigma2, varsigma)
    ks = stats.kstest(2.0 * vals / c, stats.chi2(df=2 * p).cdf).statistic
    return DistributionCheck(detector=det, trials=trials,
                             ks_distance=float(ks), order=p, scale=c)
