"""Experiment files: JSON schema, validation, and sweep construction.

An experiment document describes one scenario, one set of sync errors,
and a one-dimensional sweep.  Field names carry explicit units (tau_s,
doppler_hz, psi_rad); normalized quantities appear only in the CSV
output.  Validation is strict: unknown fields and out-of-range values
are rejected with the JSON path of the offending entry.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import presets
from .analysis import DetectorKind
from .montecarlo import MAX_SEED, MIN_SEED
from .scene import NonFluctuating, Scenario, Swerling1, SyncErrors, xi_from_snr
from .waveforms import ETA, KAPPA, pulse_set

__all__ = [
    "ExperimentError",
    "ExperimentSpec",
    "SWEEP_VARIABLES",
    "MIN_TRIALS",
    "MIN_PFA",
    "MIN_SEED",
    "MAX_SEED",
    "load_experiment",
    "parse_experiment",
    "scenario_at",
    "sweep_value_si",
]

SWEEP_VARIABLES = (
    "snr_offset_db",   # SNR of TX 2 relative to TX 1, dB
    "delay_offset",    # tau_2 - tau_1, in pulse durations
    "phase_offset",    # psi_2 - psi_1, in units of pi
    "doppler_offset",  # f_2 - f_1, Hz
    "snr_db",          # common SNR of every path, dB
)
_TWO_TX_SWEEPS = frozenset(SWEEP_VARIABLES) - {"snr_db"}

# Bounds shared by the JSON fields and the CLI flags.  A false-alarm rate
# lies in (MIN_PFA, 1), so 1 / pfa stays finite.  The seed bounds are the
# Monte Carlo streams' (montecarlo.MIN_SEED, MAX_SEED).
MIN_TRIALS = 1
MIN_PFA = sys.float_info.min


class ExperimentError(ValueError):
    """Schema violation; the message starts with the JSON path."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    errors: SyncErrors
    pulse_s: float
    snr_db: tuple
    rho_mean: float
    sweep_variable: str
    sweep_values: tuple
    detectors: tuple
    pfa_target: float
    trials: int
    seed: int
    colocated_benchmark: bool


def _require_mapping(doc, path):
    if not isinstance(doc, dict):
        raise ExperimentError(f"{path}: expected an object")
    return doc


def _reject_unknown(doc, path, allowed):
    for key in doc:
        if key not in allowed:
            raise ExperimentError(f"{path}.{key}: unknown field")


def _check_number(v, where):
    # bool is a subclass of int, but not a JSON number; an int beyond the
    # largest double has no float value
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ExperimentError(f"{where}: expected a number")
    if isinstance(v, int) and not _in_double_range(v):
        raise ExperimentError(f"{where}: must be finite, got an integer "
                              "beyond the largest double")


def _in_double_range(v):
    # an exact comparison: Python compares an int with a float without
    # converting the int
    return -sys.float_info.max <= v <= sys.float_info.max


def _number(doc, path, field, default=None, minimum=None, positive=False):
    if field not in doc:
        if default is None:
            raise ExperimentError(f"{path}.{field}: required field missing")
        return default
    v = doc[field]
    _check_number(v, f"{path}.{field}")
    if not math.isfinite(v):
        raise ExperimentError(f"{path}.{field}: must be finite")
    if positive and not v > 0:
        raise ExperimentError(f"{path}.{field}: must be positive")
    if minimum is not None and v < minimum:
        raise ExperimentError(f"{path}.{field}: must be at least {minimum}")
    return float(v)


def _integer(doc, path, field, default=None, minimum=None, maximum=None):
    if field not in doc:
        if default is None:
            raise ExperimentError(f"{path}.{field}: required field missing")
        return default
    v = doc[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ExperimentError(f"{path}.{field}: expected an integer")
    if minimum is not None and v < minimum:
        raise ExperimentError(f"{path}.{field}: must be at least {minimum}")
    if maximum is not None and v > maximum:
        raise ExperimentError(f"{path}.{field}: must be at most {maximum}")
    return v


def _check_entries(raw, where):
    # every entry of nested lists is a JSON number, not a string or a bool
    if not isinstance(raw, list):
        return _check_number(raw, where)
    if set(map(type, raw)) <= {int, float} and all(
            map(_in_double_range, raw)):  # a row of numbers
        return
    for i, v in enumerate(raw):
        _check_entries(v, f"{where}[{i}]")


def _matrix(doc, path, field, shape, default):
    if field not in doc:
        return np.asarray(default, dtype=float)
    raw = doc[field]
    _check_entries(raw, f"{path}.{field}")
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError:  # ragged lists
        raise ExperimentError(f"{path}.{field}: expected nested number lists")
    if arr.shape != shape:
        raise ExperimentError(
            f"{path}.{field}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ExperimentError(f"{path}.{field}: entries must be finite")
    return arr


_SCENARIO_FIELDS = frozenset({
    "waveform_set", "m_tx", "n_rx", "k_pulses", "pri_s", "carrier_hz",
    "pulse_s", "bandwidth_hz", "eta", "kappa", "tau_s", "doppler_hz",
    "psi_rad", "b", "snr_db", "sigma2", "target"})
_ERROR_FIELDS = frozenset({"dt_s", "df_hz", "dp_rad", "dc_rx_hz"})
_SWEEP_FIELDS = frozenset({"variable", "start", "stop", "points"})
_TOP_FIELDS = frozenset({
    "scenario", "errors", "sweep", "detectors", "pfa_target", "trials",
    "seed", "colocated_benchmark"})


def _parse_target(doc, path):
    if "target" not in doc:
        return Swerling1(1.0), 1.0
    t = _require_mapping(doc["target"], f"{path}.target")
    model = t.get("model")
    if model == "swerling1":
        _reject_unknown(t, f"{path}.target", {"model", "rho_bar"})
        rho_bar = _number(t, f"{path}.target", "rho_bar", 1.0, positive=True)
        return Swerling1(rho_bar), rho_bar
    if model == "fixed":
        _reject_unknown(t, f"{path}.target", {"model", "alpha_re", "alpha_im"})
        re = _number(t, f"{path}.target", "alpha_re", 1.0)
        im = _number(t, f"{path}.target", "alpha_im", 0.0)
        alpha = complex(re, im)
        if alpha == 0:
            raise ExperimentError(f"{path}.target: fixed amplitude is zero")
        return NonFluctuating(alpha), abs(alpha) ** 2
    raise ExperimentError(
        f"{path}.target.model: expected 'swerling1' or 'fixed'")


def _reference_paths(per_tx, M, N, scale=1.0):
    # Default (M, N) path parameters: the two-TX reference geometry, the
    # same at every RX; any other M starts from zeros.
    if M != 2:
        return np.zeros((M, N))
    return np.tile(np.array(per_tx)[:, None] * scale, (1, N))


def _parse_scenario(doc):
    path = "scenario"
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, path, _SCENARIO_FIELDS)
    waveform_set = doc.get("waveform_set", "multi_band")
    if waveform_set not in ("multi_band", "single_band"):
        raise ExperimentError(
            f"{path}.waveform_set: expected 'multi_band' or 'single_band'")
    M = _integer(doc, path, "m_tx", 2, minimum=1)
    N = _integer(doc, path, "n_rx", 1, minimum=1)
    K = _integer(doc, path, "k_pulses", presets.K_PULSES, minimum=1)
    pri_s = _number(doc, path, "pri_s", presets.PRI_S, positive=True)
    carrier = _number(doc, path, "carrier_hz", presets.CARRIER_HZ, positive=True)
    tp = _number(doc, path, "pulse_s", presets.PULSE_S, positive=True)
    beta = _number(doc, path, "bandwidth_hz", presets.BANDWIDTH_HZ, positive=True)
    eta = _number(doc, path, "eta", ETA, positive=True)
    kappa = _number(doc, path, "kappa", KAPPA, positive=True)
    target, rho_mean = _parse_target(doc, path)

    tau = _matrix(doc, path, "tau_s", (M, N),
                  _reference_paths(presets.TAU_OVER_TP, M, N, tp))
    f = _matrix(doc, path, "doppler_hz", (M, N),
                _reference_paths(presets.DOPPLER_HZ, M, N))
    psi = _matrix(doc, path, "psi_rad", (M, N),
                  _reference_paths(presets.PSI_OVER_PI, M, N, math.pi))
    b = _matrix(doc, path, "b", (M,), np.ones(M))
    snr = _matrix(doc, path, "snr_db", (M,), np.zeros(M))
    sigma2 = _number(doc, path, "sigma2", 1.0, positive=True)

    xi = np.empty((M, N))
    for m in range(M):
        xi[m] = xi_from_snr(snr[m], b[m], sigma2, rho_mean)
    try:
        sc = Scenario(
            pulses=pulse_set(waveform_set, M, beta, tp, eta, kappa),
            n_rx=N, k_pulses=K, pri_s=pri_s, carrier_hz=carrier,
            tau_s=tau, doppler_hz=f, psi_rad=psi, b=b, xi=xi,
            sigma2=sigma2, target=target)
    except ValueError as exc:
        raise ExperimentError(f"{path}: {exc}")
    return sc, tp, tuple(snr), rho_mean


def _parse_errors(doc, M, N):
    path = "errors"
    if doc is None:
        return SyncErrors.zeros(M, N)
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, path, _ERROR_FIELDS)
    dt = _matrix(doc, path, "dt_s", (M, N), np.zeros((M, N)))
    df = _matrix(doc, path, "df_hz", (M, N), np.zeros((M, N)))
    dp = _matrix(doc, path, "dp_rad", (M, N), np.zeros((M, N)))
    dc = _matrix(doc, path, "dc_rx_hz", (N,), np.zeros(N))
    return SyncErrors(dt=dt, df=df, dp=dp, dc_rx=dc)


def _parse_sweep(doc):
    path = "sweep"
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, path, _SWEEP_FIELDS)
    var = doc.get("variable")
    if var not in SWEEP_VARIABLES:
        raise ExperimentError(
            f"{path}.variable: expected one of {', '.join(SWEEP_VARIABLES)}")
    start = _number(doc, path, "start")
    stop = _number(doc, path, "stop")
    points = _integer(doc, path, "points", minimum=2)
    return var, tuple(np.linspace(start, stop, points))


def _parse_detectors(raw):
    if raw is None:
        return tuple(DetectorKind)
    if not isinstance(raw, list) or not raw:
        raise ExperimentError("detectors: expected a non-empty list")
    out = []
    for i, name in enumerate(raw):
        try:
            out.append(DetectorKind(name))
        except ValueError:
            raise ExperimentError(
                f"detectors[{i}]: unknown detector {name!r}")
    return tuple(out)


def parse_experiment(doc) -> ExperimentSpec:
    doc = _require_mapping(doc, "$")
    _reject_unknown(doc, "$", _TOP_FIELDS)
    if "scenario" not in doc:
        raise ExperimentError("$.scenario: required field missing")
    if "sweep" not in doc:
        raise ExperimentError("$.sweep: required field missing")
    sc, tp, snr, rho_mean = _parse_scenario(doc["scenario"])
    err = _parse_errors(doc.get("errors"), sc.m_tx, sc.n_rx)
    var, values = _parse_sweep(doc["sweep"])
    if var in _TWO_TX_SWEEPS and sc.m_tx != 2:
        raise ExperimentError(
            f"sweep.variable: {var} needs exactly 2 transmitters")
    pfa = _number(doc, "$", "pfa_target", 1e-4)
    if not MIN_PFA < pfa < 1.0:
        raise ExperimentError(f"$.pfa_target: must lie in ({MIN_PFA}, 1)")
    trials = _integer(doc, "$", "trials", 100000, minimum=MIN_TRIALS)
    seed = _integer(doc, "$", "seed", 0, minimum=MIN_SEED, maximum=MAX_SEED)
    colocated = doc.get("colocated_benchmark", False)
    if not isinstance(colocated, bool):
        raise ExperimentError("$.colocated_benchmark: expected true or false")
    return ExperimentSpec(
        scenario=sc, errors=err, pulse_s=tp, snr_db=snr, rho_mean=rho_mean,
        sweep_variable=var, sweep_values=values,
        detectors=_parse_detectors(doc.get("detectors")), pfa_target=pfa,
        trials=trials, seed=seed, colocated_benchmark=colocated)


def load_experiment(path) -> ExperimentSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"{path}: invalid JSON ({exc})")
    return parse_experiment(doc)


def scenario_at(spec: ExperimentSpec, value: float) -> Scenario:
    """Scenario at one sweep point.

    Offset sweeps move path 2 relative to path 1; snr_db sets the common
    SNR of every path.
    """
    sc = spec.scenario
    var = spec.sweep_variable
    if var == "snr_db":
        snr = np.full(sc.m_tx, value)
    elif var == "snr_offset_db":
        snr = np.array([spec.snr_db[0], spec.snr_db[0] + value])
    else:
        snr = None
    if snr is not None:
        xi = np.empty_like(np.asarray(sc.xi))
        for m in range(sc.m_tx):
            xi[m] = xi_from_snr(snr[m], sc.b[m], sc.sigma2, spec.rho_mean)
        return replace(sc, xi=xi)
    if var == "delay_offset":
        tau = np.array(sc.tau_s)
        tau[1] = tau[0] + value * spec.pulse_s
        return replace(sc, tau_s=tau)
    if var == "phase_offset":
        psi = np.array(sc.psi_rad)
        psi[1] = psi[0] + value * math.pi
        return replace(sc, psi_rad=psi)
    f = np.array(sc.doppler_hz)
    f[1] = f[0] + value
    return replace(sc, doppler_hz=f)


def sweep_value_si(variable: str, value: float, pulse_s: float) -> float:
    """Sweep value in absolute SI units (seconds, radians, hertz; dB values
    pass through)."""
    if variable == "delay_offset":
        return value * pulse_s
    if variable == "phase_offset":
        return value * math.pi
    return value
