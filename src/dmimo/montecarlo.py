"""Seeded Monte Carlo trial engine.

Trials are generated in fixed-size blocks.  Block ``j`` of a run draws
from a fresh Philox generator keyed by ``(seed, j)``, so any block can be
produced independently of the others: results are bit-identical across
runs, and the first ``B`` trials of a long run equal the first ``B``
trials of a short one.  The blocks of a run are evaluated on a thread
pool, one worker per CPU the process may run on (fewer when the blocks
are large, to bound the memory held at once), and each detector's
per-block exceedance counts are summed in block order: the counts are
bit-identical for any worker count.

Per trial the target amplitude is drawn once and held for the whole CPI,
while the noise is independent across every matched filter output.  Every
detector of one ``run_trials`` call sees the same measurement blocks
(common random numbers).  Each detector's statistic T comes from
``analysis.statistic``, the same T whose value on the noise-free return x
gives the closed forms' noncentrality lambda = 2 rho T(x) / c, so the
simulation and the closed forms evaluate one statistic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .analysis import DetectorKind, _order, _scale, statistic
from .detectors import CompensationSet
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


def _measurement_block(sc: Scenario, x_unit: np.ndarray, cfg: TrialConfig,
                       j: int) -> np.ndarray:
    """Block ``j`` of a run: its (trials, M, N, K) measurement batch, with
    ``x_unit`` the noise-free output at unit amplitude.

    Draw order inside a block is fixed (amplitudes first, then noise) so
    the stream layout does not depend on the hypothesis under test.
    """
    M, N, K = sc.m_tx, sc.n_rx, sc.k_pulses
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
    return w


# Measurement bytes the pool may hold at once.  A worker's peak is about
# twice its batch (the statistics' temporaries), so this bounds the
# pool's memory on hosts with many CPUs; a larger block runs alone.
_BYTES_IN_FLIGHT = 128 << 20


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(sc: Scenario, err: SyncErrors, cfg: TrialConfig, fn) -> list:
    """``fn`` of every measurement block of the run, in block order.

    Blocks run on a thread pool of one worker per usable CPU, at most one
    per block and at most _BYTES_IN_FLIGHT of measurement batches at once
    (always at least one worker): the Philox draws, the ufuncs and einsum
    release the GIL, and each block reads only its own stream, so the
    results do not depend on the worker count.  An exception raised in a
    block propagates to the caller.
    """
    x_unit = noise_free_mf_output(sc, err, 1.0)
    n_blocks = -(-cfg.trials // BLOCK_TRIALS)
    block_bytes = min(BLOCK_TRIALS, cfg.trials) * x_unit.nbytes
    workers = max(1, min(_worker_count(), n_blocks,
                         _BYTES_IN_FLIGHT // block_bytes))

    def block(j):
        return fn(_measurement_block(sc, x_unit, cfg, j))

    # imported here to keep concurrent.futures off the CLI's start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block, range(n_blocks)))


def run_trials(sc: Scenario, err: SyncErrors, comp: CompensationSet,
               gammas: dict, cfg: TrialConfig) -> dict:
    """Run the configured trials and count threshold exceedances.

    gammas maps each detector to run to its threshold; the detectors run
    in its insertion order, each on the statistic from
    ``analysis.statistic``.  Returns a DetectorKind -> EmpiricalResult map.
    """
    checks = [(statistic(d, comp)[0], gamma) for d, gamma in gammas.items()]

    def block_counts(y):
        return [int(np.count_nonzero(stat(y) > gamma))
                for stat, gamma in checks]

    # integer sums in block order: the counts are the serial ones exactly
    counts = [sum(c) for c in zip(*_map_blocks(sc, err, cfg, block_counts))]
    return {d: EmpiricalResult.from_counts(d, n, cfg.trials)
            for d, n in zip(gammas, counts)}


def h0_statistic_distribution_check(det: DetectorKind, sc: Scenario,
                                    comp: CompensationSet, trials: int,
                                    seed: int) -> DistributionCheck:
    """KS distance between the empirical H0 statistic and its theoretical
    central chi-square law."""
    # imported here to keep scipy (about half a second) off the CLI's start-up
    from scipy import stats

    cfg = TrialConfig(trials=trials, seed=seed, hypothesis="H0")
    stat, varsigma = statistic(det, comp)
    zeros = SyncErrors.zeros(sc.m_tx, sc.n_rx)
    vals = np.concatenate([np.atleast_1d(v) for v in
                           _map_blocks(sc, zeros, cfg, stat)])
    K, M, N = sc.k_pulses, sc.m_tx, sc.n_rx
    p = _order(det, K, M, N)
    c = _scale(det, K, M, N, sc.sigma2, varsigma)
    ks = stats.kstest(2.0 * vals / c, stats.chi2(df=2 * p).cdf).statistic
    return DistributionCheck(detector=det, trials=trials,
                             ks_distance=float(ks), order=p, scale=c)
