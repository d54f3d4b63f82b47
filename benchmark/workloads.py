"""Seeded experiment generator for the three benchmark workloads.

Each workload is one dmimo experiment document drawn from the benchmark's
seed with the standard library's Mersenne Twister, so the same seed gives
byte-identical JSON on any platform and numpy version.  Every draw stays
inside the scenario's valid domain: delays in [0, PRI) and estimated delays
tau + dt >= 0.  (Outside that domain, a negative estimated delay makes
``dmimo analyze`` stop with a raw ValueError traceback from
``CompensationSet.from_scenario`` instead of an ``error:`` line; the
generator never produces such a file.)

  mc_reference       ``dmimo simulate`` on the two-TX / one-RX reference
                     geometry: single-band up/down chirps, K = 12,
                     Swerling I, snr_db sweep, co-located benchmark rows.
  analytic_array     ``dmimo analyze`` at M = N = 8, K = 64 with multi-band
                     chirps (TBP 4) and a fixed-amplitude target.
  analytic_wideband  ``dmimo analyze`` at TBP 5000 (50 MHz, 100 us) with
                     M = 2, N = 1, K = 8 and a Swerling I target.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

__all__ = ["WORKLOADS", "DEFAULT_SEED", "BLOCK_TRIALS", "generate",
           "experiment_bytes", "sha256"]

DEFAULT_SEED = 1
BLOCK_TRIALS = 8192          # trials per Monte Carlo block in dmimo

PRI_S = 2e-3
CARRIER_HZ = 3e9

# Reference geometry of the paper's two-TX / one-RX scenario.
_REF_PULSE_S = 1e-5
_REF_BANDWIDTH_HZ = 400e3
_REF_TAU_OVER_TP = (0.61, 0.10)
_REF_DOPPLER_HZ = (200.0, 190.0)
_REF_PSI_OVER_PI = (0.1, 0.3)

MC_TRIALS = 4 * BLOCK_TRIALS
MC_POINTS = 6
ARRAY_POINTS = 4
WIDEBAND_POINTS = 2


def _matrix(rng, rows, cols, draw):
    return [[draw(rng) for _ in range(cols)] for _ in range(rows)]


def _mc_reference(rng):
    tp = _REF_PULSE_S
    tau = [[t * tp] for t in _REF_TAU_OVER_TP]
    # Small sync errors: a twentieth of a pulse, a few Hz, a tenth of pi.
    # The smallest delay is 0.10 Tp, so tau + dt stays positive.
    errors = {
        "dt_s": _matrix(rng, 2, 1, lambda r: r.uniform(-0.05, 0.05) * tp),
        "df_hz": _matrix(rng, 2, 1, lambda r: r.uniform(-5.0, 5.0)),
        "dp_rad": _matrix(rng, 2, 1,
                          lambda r: r.uniform(-0.1, 0.1) * math.pi),
    }
    return {
        "scenario": {
            "waveform_set": "single_band",
            "m_tx": 2, "n_rx": 1, "k_pulses": 12,
            "pri_s": PRI_S, "carrier_hz": CARRIER_HZ,
            "pulse_s": tp, "bandwidth_hz": _REF_BANDWIDTH_HZ,
            "tau_s": tau,
            "doppler_hz": [[f] for f in _REF_DOPPLER_HZ],
            "psi_rad": [[p * math.pi] for p in _REF_PSI_OVER_PI],
            "target": {"model": "swerling1", "rho_bar": 1.0},
        },
        "errors": errors,
        "sweep": {"variable": "snr_db", "start": -10.0, "stop": 10.0,
                  "points": MC_POINTS},
        "pfa_target": 1e-4,
        "trials": MC_TRIALS,
        "seed": rng.randrange(2 ** 31),
        "colocated_benchmark": True,
    }


def _array_geometry(rng, m_tx, n_rx, tp, spread_tp, doppler_step_hz):
    """Delays clustered inside ``spread_tp`` pulse widths, so every pair of
    pulses overlaps and every CAF is a full quadrature; Dopplers distinct
    per receiver (one random permutation of a comb per RX), so each
    Doppler steering matrix has full column rank."""
    tau0 = rng.uniform(2.0 * tp, 0.5 * PRI_S)
    tau = _matrix(rng, m_tx, n_rx,
                  lambda r: tau0 + r.uniform(0.0, spread_tp) * tp)
    comb = [(m - (m_tx - 1) / 2.0) * doppler_step_hz for m in range(m_tx)]
    doppler = [[0.0] * n_rx for _ in range(m_tx)]
    for n in range(n_rx):
        order = list(range(m_tx))
        rng.shuffle(order)
        for m in range(m_tx):
            jitter = rng.uniform(-0.2, 0.2) * doppler_step_hz
            doppler[m][n] = 100.0 + comb[order[m]] + jitter
    psi = _matrix(rng, m_tx, n_rx, lambda r: r.uniform(0.0, 2.0 * math.pi))
    return tau, doppler, psi


def _analytic_array(rng):
    M, N, K = 8, 8, 64
    tp = _REF_PULSE_S
    tau, doppler, psi = _array_geometry(rng, M, N, tp, 0.9, 50.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "scenario": {
            "waveform_set": "multi_band",
            "m_tx": M, "n_rx": N, "k_pulses": K,
            "pri_s": PRI_S, "carrier_hz": CARRIER_HZ,
            "pulse_s": tp, "bandwidth_hz": _REF_BANDWIDTH_HZ,
            "tau_s": tau, "doppler_hz": doppler, "psi_rad": psi,
            "target": {"model": "fixed", "alpha_re": math.cos(phase),
                       "alpha_im": math.sin(phase)},
        },
        "errors": {
            "dt_s": _matrix(rng, M, N, lambda r: r.uniform(-0.02, 0.02) * tp),
            "df_hz": _matrix(rng, M, N, lambda r: r.uniform(-2.0, 2.0)),
            "dp_rad": _matrix(rng, M, N,
                              lambda r: r.uniform(-0.05, 0.05) * math.pi),
        },
        "sweep": {"variable": "snr_db", "start": -24.0, "stop": -9.0,
                  "points": ARRAY_POINTS},
        "pfa_target": 1e-4,
        "seed": rng.randrange(2 ** 31),
    }


def _analytic_wideband(rng):
    M, N, K = 2, 1, 8
    tp, beta = 1e-4, 50e6
    tau, doppler, psi = _array_geometry(rng, M, N, tp, 0.5, 60.0)
    # Timing errors inside one range-resolution cell (1 / beta): larger
    # errors put every matched filter off its peak and Pd collapses to Pfa.
    return {
        "scenario": {
            "waveform_set": "multi_band",
            "m_tx": M, "n_rx": N, "k_pulses": K,
            "pri_s": PRI_S, "carrier_hz": CARRIER_HZ,
            "pulse_s": tp, "bandwidth_hz": beta,
            "tau_s": tau, "doppler_hz": doppler, "psi_rad": psi,
            "target": {"model": "swerling1", "rho_bar": 1.0},
        },
        "errors": {
            "dt_s": _matrix(rng, M, N, lambda r: r.uniform(-0.5, 0.5) / beta),
            "df_hz": _matrix(rng, M, N, lambda r: r.uniform(-2.0, 2.0)),
            "dp_rad": _matrix(rng, M, N,
                              lambda r: r.uniform(-0.05, 0.05) * math.pi),
        },
        "sweep": {"variable": "snr_db", "start": -12.0, "stop": 3.0,
                  "points": WIDEBAND_POINTS},
        "pfa_target": 1e-4,
        "seed": rng.randrange(2 ** 31),
    }


# name -> (dmimo subcommand, generator)
WORKLOADS = {
    "mc_reference": ("simulate", _mc_reference),
    "analytic_array": ("analyze", _analytic_array),
    "analytic_wideband": ("analyze", _analytic_wideband),
}


def generate(workload: str, seed: int) -> dict:
    """Experiment document for ``workload`` drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload][1](rng)


def experiment_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
