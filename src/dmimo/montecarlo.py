"""Seeded Monte Carlo trial engine on sufficient coordinates.

Streams.  A run's stream is keyed by (seed, pair): ``simulate`` numbers
the (sweep point, system) pairs of an experiment 0, 1, 2, ..., so no two
pairs, and no two experiments with different seeds, share a stream.
Trials are generated in blocks of B trials, B fixed by the run's
geometry alone (``_block_trials``): BLOCK_TRIALS, or fewer where a block
of d complex coordinates per trial would pass _BLOCK_BYTES.  Block ``j``
covers trials [jB, (j+1)B) and draws from an SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(pair, j))``, so every (seed, pair,
block) key hashes to its own initial state.  Any block can be produced
independently of the others: results are bit-identical across runs, and
at one geometry the first ``n`` trials of a long run equal the first
``n`` trials of a short one.

One pool per sweep.  ``run_sweep`` takes every run of a sweep (``simulate``
passes all its pairs at once) and evaluates the blocks of all of them on
one pool of plain threads, one worker per CPU the process may run on,
and no more workers than blocks.  No block holds more than _BLOCK_BYTES
of coordinates, so the pool's memory is bounded per worker.  Each worker
takes the next (run, block) job under one lock and writes the block's
exceedance counts into the job's slot, so the pool keeps a few integers
per block and no block's arrays.  A run's counts are exact integer sums
over its blocks: they are the same for any worker count and any order
in which the blocks finish.  The pool needs ``threading`` alone, so a
sweep loads neither ``concurrent.futures`` nor ``logging``.

Scratch.  Each worker draws its blocks in place into one scratch of its
own, kept from block to block, whose buffers only grow: the Swerling I
moduli (trials,), the standard normals of the coordinates (trials, d,
2), scaled in place and read as their complex view, the energies
(trials,), and, for a Swerling I run, the product |alpha| s (trials, d,
2), one einsum pass, added to the coordinates in place.  Each of the two
batches is at most _BLOCK_BYTES.  A block's c and g are views of the
scratch.  ``run_sweep`` queues the runs of largest d first, so where
every full block holds BLOCK_TRIALS trials (d <= 64), a partial block or
a smaller d reuses what a full block allocated.  No block statistic
calls BLAS, whose own threads would contend with the workers for the
CPUs (see ``analysis.statistic``).

Coordinates.  Per trial the target amplitude alpha is drawn once and held
for the whole CPI, and the measurement of path (m, n) is the K-vector
y_mn = alpha x_mn + w_mn, with w white circular Gaussian noise of
variance sigma^2.  No statistic but NCD reads outside span S_hat_n: the
ACD phasors and the CD templates of path (m, n) are combinations of its
columns, and HD projects onto it.  With B_n the receiver's orthonormal
basis ``Receiver.span`` of that span (r_S columns, the largest rank over
the receivers; the one SVD of ``detectors.steering_span``, whose basis
HD projects onto too), every statistic is an exact function of the
coordinates c_mn = B_n^H y_mn and, for NCD, of the energy g outside
the spans, summed over paths; HD's projection is the identity on them,
so HD is their energy.  White Gaussian noise is invariant under
unitary maps, so B_n^H w_mn is CN(0, sigma^2 I), and
the noise outside the spans is independent of it and invariant under
any unitary map of that outside space.  The signal's part outside the
spans, x_perp with e = ||x_perp|| over all paths, is one direction of
it: where e > _RCOND_LIMIT ||x||, one complex coordinate alpha e +
CN(0, sigma^2) along it, and the energy of the other M N (K - r_S) - 1
outside dimensions is sigma^2 Gamma(M N (K - r_S) - 1, 1); NCD's g is
the sum of the two.  Every statistic is a function of |.|^2 of linear
forms of y, so invariant under a common phase of y, and the circular
noise is too: a Swerling I block draws the real modulus
|alpha| = sqrt(rho_bar Exp(1)) in place of the complex alpha.  A block
therefore draws, in this order, the moduli (Swerling I runs only), then
d complex coordinates per trial (M N r_S, plus the shared one where the
run has it), then the energies: no (trials, M, N, K) cube.
The argument rests on the invariances alone, not on any closed form
under test.  ``Receiver.frame`` forms this frame.

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

# Coordinate bytes of one block, 16 d per trial of d complex coordinates.
# Every shipped recipe has d <= 5 and keeps BLOCK_TRIALS; at (M, N, K) =
# (8, 8, 64), d = 513 and a block holds 512 trials.
_BLOCK_BYTES = 8 << 20

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
    drawn).  (seed, pair) keys the run's random stream; ``simulate``
    gives each (sweep point, system) pair of an experiment its own
    ``pair``.  trials, seed and pair are integers, not bools, and the
    seed lies in [MIN_SEED, MAX_SEED]; anything else raises ValueError.
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


def draw_noise(stream: np.random.Generator, dims: int,
               sigma2: float = 1.0, shape=(), out=None) -> np.ndarray:
    """Circular complex Gaussian noise, per-component variance sigma2/2.

    Returns an array of shape ``shape + (dims,)``: the last axis counts
    the complex dimensions, K per path for a measurement cube and d per
    trial for a coordinate block.  The standard normals are drawn into
    ``out``, a float64 array of shape ``shape + (dims, 2)`` (a fresh one
    if None), scaled in place and returned as its complex view.
    """
    z = stream.standard_normal(size=tuple(shape) + (dims, 2), out=out)
    z *= np.sqrt(sigma2 / 2.0)
    return z.view(np.complex128)[..., 0]


class _Scratch:
    """One worker's block arrays, kept from block to block: each name
    holds one flat buffer that only grows, and ``arrays[name]`` is the
    view the last block got of it.  A block's draws are written into
    them in place, so the c and g a block returns are views, overwritten
    by the worker's next block."""

    def __init__(self):
        self.buffers = {}
        self.arrays = {}

    def get(self, name: str, shape: tuple) -> np.ndarray:
        """A float64 array ``name`` of ``shape``, its contents
        undefined."""
        size = math.prod(shape)
        flat = self.buffers.get(name)
        if flat is None or flat.size < size:
            # the old buffer and its view are freed before the new one
            self.buffers[name] = self.arrays[name] = flat = None
            self.buffers[name] = flat = np.empty(size)
        self.arrays[name] = view = flat[:size].reshape(shape)
        return view


def _block_trials(d: int) -> int:
    """Trials per block of a run with d complex coordinates per trial:
    the largest power of two whose 16 d bytes per trial fit in
    _BLOCK_BYTES, at most BLOCK_TRIALS and at least 1."""
    fit = _BLOCK_BYTES // (16 * d)
    return min(BLOCK_TRIALS, 1 << (fit.bit_length() - 1)) if fit else 1


def _coordinate_block(crx: Receiver, signal: np.ndarray, outside: int,
                      cfg: TrialConfig, j: int,
                      scratch: _Scratch | None = None):
    """Block ``j`` of a run in the frame ``Receiver.frame`` gives: the span
    coordinates c (trials, M, N, r_S) of its measurement batch, and the
    energy g (trials,) outside their spans.  The block covers trials
    [jB, (j+1)B) of the run, B = ``_block_trials(signal.size)``.

    Draw order inside a block is fixed: the moduli |alpha| (a Swerling I
    run only; other runs draw none), then the d = ``signal.size``
    coordinates per trial, then the energy of the ``outside``
    dimensions.  Each is drawn into an array of ``scratch`` and scaled in
    place.  The return is added in place: |alpha| ``signal`` for
    Swerling I, formed in one block-sized array, alpha ``signal`` for a
    fixed target.  A shared coordinate then adds its |.|^2 to g.  With a
    scratch, c and g are its arrays; without one, fresh arrays.
    """
    if scratch is None:
        scratch = _Scratch()
    d = signal.size
    block = _block_trials(d)
    nb = min(block, cfg.trials - j * block)
    rng = _block_rng(cfg.seed, cfg.pair, j)
    target = cfg.target_draw
    if isinstance(target, Swerling1):
        modulus = rng.standard_exponential(out=scratch.get("modulus", (nb,)))
        modulus *= target.rho_bar
        np.sqrt(modulus, out=modulus)
    sigma2 = crx.sc.sigma2
    noise = scratch.get("noise", (nb, d, 2))
    z = draw_noise(rng, d, sigma2, (nb,), noise)
    g = rng.standard_gamma(outside, out=scratch.get("energy", (nb,)))
    g *= sigma2
    if isinstance(target, Swerling1):
        # real times complex, on the float views
        s = signal.view(np.float64).reshape(d, 2)
        product = scratch.get("product", (nb, d, 2))
        np.einsum("t,ks->tks", modulus, s, out=product)
        noise += product
    elif isinstance(target, NonFluctuating):
        # one alpha for every trial: the (d,) product, broadcast
        z += target.alpha * signal
    if d > crx.x.size:
        g += _energy(z[:, -1])
    return z[:, :crx.x.size].reshape((nb,) + crx.x.shape), g


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
    release the GIL.  A run reads its frame from ``rx.frame()``.  Its
    blocks hold ``_block_trials(d)`` trials each, d = ``signal.size``, so
    none holds more than _BLOCK_BYTES of coordinates.  The jobs are
    queued largest d first (a stable sort), so at d <= 64 a worker's
    scratch stops growing after its first full block; the counts are
    exact integer sums, which the order cannot change.  A block runs
    with overflow ignored: a statistic or energy beyond the largest
    double reads inf, which exceeds every finite threshold, as its exact
    value does, so the count stays right.  An exception raised in a
    block reaches the caller.  An empty ``runs`` starts no pool.
    """
    if not runs:
        return []
    frames, jobs = [], []
    for i, (rx, gammas, cfg) in enumerate(runs):
        crx, signal, outside = rx.frame()
        checks = [(statistic(d, crx), gamma) for d, gamma in gammas.items()]
        frames.append((crx, signal, outside, cfg, checks))
        block = _block_trials(signal.size)
        jobs += [(i, j) for j in range(-(-cfg.trials // block))]
    jobs.sort(key=lambda job: -frames[job[0]][1].size)
    workers = max(1, min(_worker_count(), len(jobs)))

    def block_counts(job, scratch):
        i, j = job
        *frame, checks = frames[i]
        with np.errstate(over="ignore"):  # inf exceeds every gamma
            c, g = _coordinate_block(*frame, j, scratch)
            return [int(np.count_nonzero(stat(c, g) > gamma))
                    for stat, gamma in checks]

    totals = [[0] * len(gammas) for _, gammas, _ in runs]
    for (i, _), counts in zip(jobs, _pool_map(block_counts, jobs, workers)):
        totals[i] = [t + n for t, n in zip(totals[i], counts)]
    return [dict(zip(gammas, counts))
            for (_, gammas, _), counts in zip(runs, totals)]
