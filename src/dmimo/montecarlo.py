"""Seeded Monte Carlo trial engine on sufficient coordinates.

Streams.  A run's stream is keyed by (seed, pair): ``simulate`` numbers
the (sweep point, system) pairs of an experiment 0, 1, 2, ..., so no two
pairs, and no two experiments with different seeds, share a stream.
Trials are generated in blocks of B = BLOCK_TRIALS.  Block ``j``
covers trials [jB, (j+1)B) and draws from an SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(pair, j))``, so every (seed, pair,
block) key hashes to its own initial state.  Any block can be produced
independently of the others: results are bit-identical across runs, and
the first ``n`` trials of a long run equal the first ``n`` trials of a
short one.

One pool per sweep.  ``run_sweep`` takes every run of a sweep (``simulate``
passes all its pairs at once) and evaluates the blocks of all of them on
one pool of plain threads, one worker per CPU the process may run on,
and no more workers than blocks.  Each worker takes the next (run,
block) job under one lock and writes the block's exceedance counts into
the job's slot, so the pool keeps a few integers per block and no
block's arrays.  A run's counts are exact integer sums over its blocks:
they are the same for any worker count and any order in which the
blocks finish.  The pool needs ``threading`` alone, so a sweep loads
neither ``concurrent.futures`` nor ``logging``.

Scratch.  Each worker draws its blocks in place into one scratch of its
own, kept from block to block: one buffer per name, allocated once for
BLOCK_TRIALS trials at d = 4, of which a block views the Swerling I
moduli ``modulus`` (trials,), the coordinates ``noise`` (trials, d, 2),
read as their complex view, a Swerling I block's d - 1 unit normals
``normals`` (trials, d - 1, 2), drawn apart because a draw fills a
contiguous array and then copied or turned into ``noise``, and the two
energies ``inside`` and ``outside`` (trials,).  A block's c, g and
g_span are views of the scratch.  No block statistic calls BLAS: in a
program that imports dmimo, BLAS may run threads of its own, which would
contend with the workers for the CPUs (see ``analysis.statistic``).  The
``dmimo`` command runs BLAS on one thread.

Coordinates.  Per trial the target amplitude alpha is drawn once and held
for the whole CPI, and the measurement of path (m, n) is the K-vector
y_mn = alpha x_mn + w_mn, with w white circular Gaussian noise of unit
power, the unit of every energy.  The detectors read y in four ways
only: NCD its energy, HD its energy in the spans S_hat_n, and ACD and CD
one linear form each, on the phasors and on the templates, which lie in
those spans.  With B_n the receiver's orthonormal basis of span S_hat_n
(``Receiver.span[n]``, shared by the receiver's M paths; r_S columns,
the largest rank over the receivers) and W the span of the coordinates
of x, the phasors and the templates in it (w <= 3 dimensions), every
statistic is an exact function of y's w coordinates in W, of the
energy g_span of its other M N r_S - w span coordinates, and of the
energy outside the spans, summed over paths.
White Gaussian noise is invariant under unitary maps, so its
coordinates in W are CN(0, I), and the noise in the rest of the spans
and outside them is independent of them and invariant under any unitary
map of those spaces.  The signal lies in W but for its part outside the
spans, x_perp with e = ||x_perp|| over all paths, one direction of the
outside space: where e > _RCOND_LIMIT ||x||, one complex coordinate
alpha e + CN(0, 1) along it, and the energy of the other
M N (K - r_S) - 1 outside dimensions is Gamma(M N (K - r_S) - 1, 1).
Every statistic is a function of |.|^2 of linear forms of y, so
invariant under a common phase of y, and the circular noise is too.
Under Swerling I alpha is CN(0, rho_bar), so the d drawn coordinates
y = alpha s + CN(0, I) are CN(0, I + rho_bar s s^H): along s one of
modulus sqrt(Exp(1)) hypot(1, sqrt(rho_bar) ||s||), its phase dropped,
and d - 1 complex unit normals across s; hypot never forms
rho_bar ||s||^2, so y overflows only where |y| does.  ``Receiver.frame``
turns W so that s reads (a, 0, ..., 0[, e]), a and e real and
nonnegative: the modulus is coordinate 0 and the normals the others,
and where e > 0 the rotation by (a, e) / hypot(a, e) turns the modulus
and the last normal onto coordinate 0 and the shared one; at d = 1 (a
co-located pair without sync errors) no Gaussian is drawn.  A block
therefore draws, in this order, the moduli and d - 1 normals (Swerling
I) or d complex coordinates (H0, and a fixed target, which adds
alpha s) per trial, d <= 4 being w plus the shared one where the run
has it, then the two energies: no (trials, M, N, K) cube.  The argument
rests on the invariances and the Gaussian law of a Swerling I return
alone, not on any closed form under test.
The noise is white by assumption, here as in the closed forms.  The M
matched filters at one receiver filter the same received noise, so two
of them are correlated by their pulses' cross-ambiguity at the
difference of their sampling delays, |rho| = |chi(tau_hat_mn -
tau_hat_m'n, f_hat_m'n - f_hat_mn)|, which neither models.  The true
false-alarm rate at the 1e-4 thresholds under that correlation, by
quadrature:

    waveform set, delays                 |rho|    NCD Pfa   HD Pfa
    single_band, reference (0.61, 0.10)  0.442    4.1e-4    4.6e-4
    single_band, worst on a grid         0.475    4.8e-4    5.3e-4
    multi_band (eta = 3), reference      0.0075   1.0e-4    1.0e-4
    multi_band, worst on a grid          0.118    1.15e-4   1.2e-4

Every detector of one run sees the same coordinate blocks (common random
numbers) and reads them through ``analysis.statistic`` on the pair's
``analysis.Receiver``, moved into the run's coordinates: the same form
whose value on x in the K-sample frame gives the closed forms'
noncentrality lambda = 2 rho T(x) / c, so the simulation and the closed
forms evaluate one statistic.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .analysis import Receiver, statistic
from .detectors import _energy
from .scene import NonFluctuating, Swerling1

__all__ = [
    "BLOCK_TRIALS",
    "MIN_SEED",
    "MAX_SEED",
    "TrialConfig",
    "draw_noise",
    "run_sweep",
]

BLOCK_TRIALS = 8192

# The seed is the entropy of every block's SeedSequence, which takes any
# nonnegative integer; the range keeps it to one signed 64-bit word, the
# seeds the CLI and the recipes accept.
MIN_SEED = 0
MAX_SEED = 2**63 - 1


@dataclass(frozen=True)
class TrialConfig:
    """Simulation run description.

    A run without target_draw is pure noise (H0); with one it adds the
    target return, its amplitude drawn per trial (NonFluctuating holds a
    fixed complex alpha, Swerling1 redraws |alpha|^2 ~ rho_bar Exp(1)
    every trial; see the module docstring for why its phase is not
    drawn, and why a block then draws one complex coordinate fewer).
    (seed, pair) keys the run's random stream; ``simulate`` gives each
    (sweep point, system) pair of an experiment its own ``pair``.
    trials, seed and pair are integers, not bools, and the seed lies in
    [MIN_SEED, MAX_SEED]; anything else raises ValueError.
    """

    trials: int
    seed: int
    target_draw: NonFluctuating | Swerling1 | None = None
    pair: int = 0

    def __post_init__(self):
        for name in ("trials", "seed", "pair"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not MIN_SEED <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must lie in [{MIN_SEED}, {MAX_SEED}]")
        if self.pair < 0:
            raise ValueError("pair must be nonnegative")


def _block_rng(seed: int, pair: int, block: int) -> np.random.Generator:
    """Generator of block ``block`` of the stream keyed by (seed, pair)."""
    seq = np.random.SeedSequence(seed, spawn_key=(pair, block))
    return np.random.Generator(np.random.SFC64(seq))


def draw_noise(stream: np.random.Generator, dims: int, shape=(),
               out=None) -> np.ndarray:
    """Unit-power circular complex Gaussian noise, component variance 1/2.

    Returns an array of shape ``shape + (dims,)``: the last axis counts
    the complex dimensions, K per path for a measurement cube and d per
    trial for a coordinate block.  The standard normals are drawn into
    ``out``, a float64 array of shape ``shape + (dims, 2)`` (a fresh one
    if None), scaled in place and returned as its complex view.
    """
    z = stream.standard_normal(size=tuple(shape) + (dims, 2), out=out)
    z *= np.sqrt(0.5)
    return z.view(np.complex128)[..., 0]


class _Scratch:
    """One worker's block arrays, kept from block to block: each name
    holds one flat buffer, allocated once at BLOCK_TRIALS floats for a
    (trials,) array and BLOCK_TRIALS * 4 * 2 for a (trials, d, 2) one,
    d <= 4.  A block's draws are written into views of them in place, so
    the c, g and g_span a block returns are views, overwritten by the
    worker's next block."""

    def __init__(self):
        self.buffers = {}

    def get(self, name: str, shape: tuple) -> np.ndarray:
        """A float64 array ``name`` of ``shape``, its contents
        undefined."""
        if name not in self.buffers:
            per_trial = 4 * 2 if len(shape) > 1 else 1
            self.buffers[name] = np.empty(BLOCK_TRIALS * per_trial)
        return self.buffers[name][:math.prod(shape)].reshape(shape)


def _coordinate_block(crx: Receiver, signal: np.ndarray, inside: int,
                      outside: int, cfg: TrialConfig, j: int,
                      scratch: _Scratch):
    """Block ``j`` of a run in the frame ``Receiver.frame`` gives: the
    coordinates c (trials, 1, 1, w) of its measurement batch in W, the
    energy g (trials,) outside W and the part g_span (trials,) of it
    inside the spans.  The block covers trials [jB, (j+1)B) of the run,
    B = BLOCK_TRIALS.

    Draw order inside a block is fixed, each draw into an array of
    ``scratch``.  A Swerling I block draws the unit moduli sqrt(Exp(1)),
    scaled to hypot(1, sqrt(rho_bar) hypot(a, e)) along the return
    ``signal`` = (a, 0, ..., 0[, e]), then d - 1 complex unit normals
    per trial across it, d = ``signal.size``, a draw that is empty at
    d = 1 and leaves the stream where it was: the moduli are coordinate
    0, and where the shared coordinate exists the plane rotation by
    (a, e) / hypot(a, e) turns them and the last normal onto
    coordinates 0 and d - 1.  H0 and fixed-target blocks draw d
    coordinates per trial, to which a fixed target adds alpha
    ``signal``.  Every block then draws the energy of the ``inside``
    dimensions, then that of the ``outside`` ones.  g is the sum of
    the two energies, and a shared coordinate then adds its |.|^2 to
    it.  c, g and g_span are views of ``scratch``'s arrays.
    """
    d, w = signal.size, crx.x.size
    nb = min(BLOCK_TRIALS, cfg.trials - j * BLOCK_TRIALS)
    rng = _block_rng(cfg.seed, cfg.pair, j)
    target = cfg.target_draw
    noise = scratch.get("noise", (nb, d, 2))
    z = noise.view(np.complex128)[..., 0]
    if isinstance(target, Swerling1):
        a, e = signal[0].real, signal[-1].real if d > w else 0.0
        modulus = rng.standard_exponential(out=scratch.get("modulus", (nb,)))
        np.sqrt(modulus, out=modulus)
        modulus *= math.hypot(1.0, math.sqrt(target.rho_bar)
                              * math.hypot(a, e))
        # empty where d = 1, a draw that leaves rng where it was
        normals = draw_noise(rng, d - 1, (nb,),
                             scratch.get("normals", (nb, d - 1, 2)))
        z[:, 1:w] = normals[:, :w - 1]
        if d > w:  # turn (modulus, last normal) onto coordinates 0 and d - 1
            turn = math.atan2(e, a)
            cos, sin = math.cos(turn), math.sin(turn)
            np.multiply(normals[:, -1], -sin, out=z[:, 0])
            np.multiply(normals[:, -1], cos, out=z[:, -1])
            noise[:, 0, 0] += cos * modulus
            noise[:, -1, 0] += sin * modulus
        else:
            z[:, 0] = modulus
    else:
        draw_noise(rng, d, (nb,), noise)
    g_span = rng.standard_gamma(inside, out=scratch.get("inside", (nb,)))
    g = rng.standard_gamma(outside, out=scratch.get("outside", (nb,)))
    g += g_span
    if isinstance(target, NonFluctuating):
        # one alpha for every trial: the (d,) product, broadcast
        z += target.alpha * signal
    if d > w:
        g += _energy(z[:, -1])
    return z[:, :w].reshape(nb, 1, 1, w), g, g_span


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, jobs, workers: int) -> list:
    """``[fn(job, scratch) for job in jobs]`` on ``workers`` plain
    threads, each with one ``_Scratch`` of its own.  A worker takes the
    next job under one lock and writes its result into the job's slot,
    so the list is in job order whatever order the jobs end in.  The
    first exception a job raises is raised as it is once every thread
    has ended, and no job starts after it."""
    results = [None] * len(jobs)
    todo = enumerate(jobs)
    lock = threading.Lock()
    errors = []

    def work():
        scratch = _Scratch()
        while True:
            with lock:
                task = None if errors else next(todo, None)
            if task is None:
                return
            k, job = task
            try:
                results[k] = fn(job, scratch)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def run_sweep(runs) -> list:
    """Run every configured run of a sweep and count threshold
    exceedances, all blocks on one pool.

    ``runs`` is a list of ``(rx, gammas, cfg)`` tuples: the run's
    ``analysis.Receiver``, a map from each detector to run, in order, to
    its threshold, and the run's TrialConfig.  Returns, per run in run
    order, a map from each of its detectors to the number of its
    ``cfg.trials`` trials whose statistic exceeds the threshold.

    Every block of every run is one job of one ``_pool_map`` (see the
    module docstring), whose workers are at most the usable CPUs and the
    blocks, and at least one; the draws, the ufuncs and the einsums
    release the GIL.  A run reads its frame from ``rx.frame()``.  A
    block runs with overflow ignored: a statistic or energy beyond the
    largest double reads inf, which exceeds every finite threshold, as
    its exact value does, so the count stays right.  An exception raised
    in a block reaches the caller.  An empty ``runs`` starts no pool.
    """
    if not runs:
        return []
    frames, jobs = [], []
    for i, (rx, gammas, cfg) in enumerate(runs):
        crx, *frame = rx.frame()
        checks = [(statistic(d, crx), gamma) for d, gamma in gammas.items()]
        frames.append((crx, *frame, cfg, checks))
        jobs += [(i, j) for j in range(-(-cfg.trials // BLOCK_TRIALS))]
    workers = max(1, min(_worker_count(), len(jobs)))

    def block_counts(job, scratch):
        i, j = job
        *frame, checks = frames[i]
        with np.errstate(over="ignore"):  # inf exceeds every gamma
            block = _coordinate_block(*frame, j, scratch)
            return [int(np.count_nonzero(stat(*block) > gamma))
                    for stat, gamma in checks]

    totals = [[0] * len(gammas) for _, gammas, _ in runs]
    for (i, _), counts in zip(jobs, _pool_map(block_counts, jobs, workers)):
        totals[i] = [t + n for t, n in zip(totals[i], counts)]
    return [dict(zip(gammas, counts))
            for (_, gammas, _), counts in zip(runs, totals)]
