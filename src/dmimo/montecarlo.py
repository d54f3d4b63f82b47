"""Seeded Monte Carlo trial engine on sufficient coordinates.

Streams.  A run's stream is keyed by (seed, pair): ``simulate`` numbers
the (sweep point, system) pairs of an experiment 0, 1, 2, ..., so no two
pairs, and no two experiments with different seeds, share a stream.
Trials are generated in blocks of BLOCK_TRIALS; block ``j`` draws from a
Philox generator with the run's key and ``j`` in the high word of its
counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  Any block can be produced independently of the others: results
are bit-identical across runs, and the first ``B`` trials of a long run
equal the first ``B`` trials of a short one.

One pool per sweep.  ``run_sweep`` takes every run of a sweep (``simulate``
passes all its pairs at once) and evaluates the blocks of all of them on
one thread pool, one worker per CPU the process may run on (fewer when
the largest block of the sweep is large, to bound the memory held at
once).  Blocks are submitted in run order, then block order, and lazily:
at most two per worker are pending at a time, so the futures held do not
grow with trials or pairs.  Each detector's per-block exceedance counts
are summed in block order: the counts are bit-identical for any worker
count.

Coordinates.  Per trial the target amplitude alpha is drawn once and held
for the whole CPI, and the measurement of path (m, n) is the K-vector
y_mn = alpha x_mn + w_mn, with w white circular Gaussian noise of
variance sigma^2.  No statistic reads all K dimensions: the ACD phasors,
the CD templates and the HD projectors of path (m, n) all lie in
span S_hat_n, and the signal adds the one direction x_mn.  With B_mn an
orthonormal basis of span{S_hat_n, x_mn} (r columns, r <= M + 1), every
statistic is an exact function of the coordinates c_mn = B_mn^H y_mn and,
for NCD, of the energy g outside the spans, summed over paths.  White
Gaussian noise is invariant under unitary maps, so B_mn^H w_mn is
CN(0, sigma^2 I_r), the part of w_mn outside the span is independent of
it, and its energy over all paths is sigma^2 Gamma(M N (K - r), 1).  A
block therefore draws, in this order, alpha (Swerling I runs only), then
c = alpha B^H x + CN(0, sigma^2 I_r) of shape (trials, M, N, r), then g:
r complex coordinates per path and one energy per trial instead of K
samples per path, and no (trials, M, N, K) cube.  The argument rests on
the invariance alone, not on any closed form under test.

Every detector of one run sees the same coordinate blocks (common random
numbers) and reads them through ``analysis.statistic`` on the pair's
``analysis.Receiver``, moved into the run's coordinates: the same form
whose value on x in the K-sample frame gives the closed forms'
noncentrality lambda = 2 rho T(x) / c, so the simulation and the closed
forms evaluate one statistic.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analysis import DetectorKind, Receiver, statistic
from .detectors import _RCOND_LIMIT
from .scene import NonFluctuating, Swerling1
from .specfun import Probability

__all__ = [
    "BLOCK_TRIALS",
    "TrialConfig",
    "EmpiricalResult",
    "draw_noise",
    "draw_swerling1_alpha",
    "run_sweep",
    "run_trials",
]

BLOCK_TRIALS = 8192


@dataclass(frozen=True)
class TrialConfig:
    """Simulation run description.

    A run without target_draw is pure noise (H0); with one it adds the
    target return, its amplitude drawn per trial (NonFluctuating holds a
    fixed complex alpha, Swerling1 redraws CN(0, rho_bar) every trial).
    (seed, pair) keys the run's random stream; ``simulate`` gives each
    (sweep point, system) pair of an experiment its own ``pair``.
    """

    trials: int
    seed: int
    target_draw: NonFluctuating | Swerling1 | None = None
    pair: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.pair < 0:
            raise ValueError("pair must be nonnegative")


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


def _block_rng(seed: int, pair: int, block: int) -> np.random.Generator:
    """Generator of block ``block`` of the stream keyed by (seed, pair)."""
    key = np.array([seed, pair], dtype=np.uint64)
    counter = np.array([0, 0, 0, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draw_noise(stream: np.random.Generator, dims: int,
               sigma2: float = 1.0, shape=()) -> np.ndarray:
    """Circular complex Gaussian noise, per-component variance sigma2/2.

    Returns an array of shape ``shape + (dims,)``: the last axis counts
    the complex dimensions per path, K for a measurement cube and r for
    sufficient coordinates.
    """
    z = stream.standard_normal(size=tuple(shape) + (dims, 2))
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


def _block_alpha(stream: np.random.Generator, cfg: TrialConfig,
                 nb: int) -> np.ndarray:
    """The block's nb target amplitudes, the first draw of its stream."""
    if isinstance(cfg.target_draw, Swerling1):
        return draw_swerling1_alpha(stream, cfg.target_draw.rho_bar, (nb,))
    if isinstance(cfg.target_draw, NonFluctuating):
        return np.full(nb, cfg.target_draw.alpha, dtype=complex)
    return np.zeros(nb, dtype=complex)


def _basis(rx: Receiver) -> np.ndarray:
    """Per-path orthonormal bases (M, N, K, r) of span{S_hat_n, x_mn}, of
    one rank r for the run.

    Every vector a statistic reads lies in span S_hat_n: the ACD phasors
    and the CD templates are combinations of its columns, and the HD
    projectors span it.  A rank-revealing SVD of the unit-normed columns
    finds each path's rank (M + 1 at most, 1 for co-located steering
    without sync errors); r is the largest, so a path of lower rank
    carries extra orthonormal columns, which keeps the coordinates exact.
    """
    M, N, K = rx.x.shape
    steering = np.broadcast_to(rx.comp.S_hat, (M,) + rx.comp.S_hat.shape)
    cols = np.concatenate([steering, rx.x[..., None]], axis=-1)
    norms = np.linalg.norm(cols, axis=-2, keepdims=True)
    cols = cols / np.where(norms > 0.0, norms, 1.0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.max(np.sum(s > _RCOND_LIMIT * s[..., :1], axis=-1)))
    return u[..., :r]


def _coordinates(rx: Receiver):
    """The receiver in the sufficient coordinates of its run, and the
    complex dimensions outside their spans, M N (K - r)."""
    basis = _basis(rx)
    M, N, K, r = basis.shape
    return rx.onto(basis), M * N * (K - r)


def _coordinate_block(rx: Receiver, outside: int, cfg: TrialConfig,
                      j: int):
    """Block ``j`` of a run: the coordinates c (trials, M, N, r) of its
    measurement batch, and the energy g (trials,) outside their spans.

    Draw order inside a block is fixed: the amplitudes (a Swerling I run
    only; other runs draw none), then the coordinates' noise, then the
    energy outside.
    """
    nb = min(BLOCK_TRIALS, cfg.trials - j * BLOCK_TRIALS)
    rng = _block_rng(cfg.seed, cfg.pair, j)
    alpha = _block_alpha(rng, cfg, nb)
    sigma2 = rx.sc.sigma2
    c = draw_noise(rng, rx.x.shape[-1], sigma2, (nb,) + rx.x.shape[:-1])
    g = sigma2 * rng.standard_gamma(outside, nb)
    if cfg.target_draw is not None:
        c += alpha[:, None, None, None] * rx.x
    return c, g


# Coordinate bytes the pool may hold at once.  A worker's peak is about
# twice its batch (the statistics' temporaries): at (M, N, K) =
# (8, 8, 64) a 75 MB block adds 145-190 MiB per worker.  So this bounds
# the pool's memory on hosts with many CPUs; the workers are counted
# against the largest block of the sweep, and a block larger than this
# runs alone.
_BYTES_IN_FLIGHT = 128 << 20


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(runs):
    """Yield ``(i, fn(c, g))`` for every coordinate block of every run
    ``i`` of ``runs``, ``(rx, outside, cfg, fn)`` tuples with ``rx`` in
    coordinates, in run order, then block order, from the sweep's one
    pool (see the module docstring).  Its workers are at most the usable
    CPUs, the blocks, and _BYTES_IN_FLIGHT over the largest block, and at
    least one; the Philox draws, the ufuncs and the matrix products
    release the GIL.  An exception raised in a block propagates to the
    caller.  An empty ``runs`` starts no pool.
    """
    if not runs:
        return
    n_blocks = [-(-cfg.trials // BLOCK_TRIALS) for _, _, cfg, _ in runs]
    block_bytes = max(min(BLOCK_TRIALS, cfg.trials) * rx.x.nbytes
                      for rx, _, cfg, _ in runs)
    workers = max(1, min(_worker_count(), sum(n_blocks),
                         _BYTES_IN_FLIGHT // block_bytes))

    def block(rx, outside, cfg, fn, j):
        return fn(*_coordinate_block(rx, outside, cfg, j))

    # imported here to keep concurrent.futures off the CLI's start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for i, run in enumerate(runs):
                for j in range(n_blocks[i]):
                    if len(pending) == 2 * workers:
                        head, future = pending.popleft()
                        yield head, future.result()
                    pending.append((i, pool.submit(block, *run, j)))
            while pending:
                head, future = pending.popleft()
                yield head, future.result()
        finally:
            # after an error, blocks not yet started are not run
            for _, future in pending:
                future.cancel()


def run_sweep(runs) -> list:
    """Run every configured run of a sweep and count threshold
    exceedances, all blocks on one pool.

    ``runs`` is a list of ``(rx, gammas, cfg)`` tuples: the run's
    ``analysis.Receiver``, a map from each detector to run, in order, to
    its threshold, and the run's TrialConfig.  Returns one DetectorKind
    -> EmpiricalResult map per run, in run order.
    """
    jobs = []
    for rx, gammas, cfg in runs:
        crx, outside = _coordinates(rx)
        checks = [(statistic(d, crx), gamma) for d, gamma in gammas.items()]

        def block_counts(c, g, checks=checks):
            return [int(np.count_nonzero(stat(c, g) > gamma))
                    for stat, gamma in checks]

        jobs.append((crx, outside, cfg, block_counts))
    # integer sums in block order: the counts are the serial ones exactly
    totals = [[0] * len(gammas) for *_, gammas, _ in runs]
    for i, counts in _map_blocks(jobs):
        totals[i] = [t + n for t, n in zip(totals[i], counts)]
    return [{d: EmpiricalResult.from_counts(d, n, cfg.trials)
             for d, n in zip(gammas, counts)}
            for (*_, gammas, cfg), counts in zip(runs, totals)]


def run_trials(rx: Receiver, gammas: dict, cfg: TrialConfig) -> dict:
    """Run the configured trials and count threshold exceedances: the
    one-run case of ``run_sweep``.  Returns a DetectorKind ->
    EmpiricalResult map."""
    return run_sweep([(rx, gammas, cfg)])[0]

