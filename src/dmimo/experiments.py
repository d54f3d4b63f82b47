"""Experiment files: JSON schema, validation, and sweep construction.

An experiment document describes one scenario, one set of sync errors,
and a one-dimensional sweep.  Field names carry explicit units (tau_s,
doppler_hz, psi_rad); normalized quantities appear only in the CSV
output.  Validation is strict: unknown fields and out-of-range values
are rejected with the JSON path of the offending entry.

A sweep variable sets one array (the per-TX SNR, tau_s, psi_rad or
doppler_hz) in one unit (T_p for delay_offset, pi for phase_offset, 1
otherwise).  snr_db sets every TX's SNR to the value; the four offsets
need exactly 2 TX and set TX 2's entries at every RX to TX 1's plus
value * unit, the sweep value in SI units.
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
from .waveforms import pulse_set

__all__ = [
    "ExperimentError",
    "ExperimentSpec",
    "SWEEP_VARIABLES",
    "MIN_TRIALS",
    "MIN_PFA",
    "MAX_POINTS",
    "load_experiment",
    "parse_experiment",
    "scenario_at",
]

# sweep variable: (the array it sets, its unit; None is the pulse length)
SWEEP_VARIABLES = {
    "snr_offset_db": ("snr_db", 1.0),      # SNR of TX 2 relative to TX 1, dB
    "delay_offset": ("tau_s", None),       # tau_2 - tau_1, in pulse lengths
    "phase_offset": ("psi_rad", math.pi),  # psi_2 - psi_1, in units of pi
    "doppler_offset": ("doppler_hz", 1.0),  # f_2 - f_1, Hz
    "snr_db": ("snr_db", 1.0),             # common SNR of every path, dB
}

# Bounds shared by the JSON fields and the CLI flags.  A false-alarm rate
# lies in (MIN_PFA, 1), so 1 / pfa stays finite.  A sweep or a CAF slice
# has at most MAX_POINTS points.  The seed bounds are the Monte Carlo
# streams' (montecarlo.MIN_SEED, MAX_SEED).
_MAX_ENTRIES = np.iinfo(np.intp).max // 16  # of an array of complex doubles
MIN_TRIALS = 1
MIN_PFA = sys.float_info.min
MAX_POINTS = _MAX_ENTRIES


class ExperimentError(ValueError):
    """Schema violation; the message starts with the JSON path."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    errors: SyncErrors
    snr_db: tuple
    sweep_variable: str
    sweep_values: tuple
    detectors: tuple
    pfa_target: float
    trials: int
    seed: int
    colocated_benchmark: bool

    @property
    def sweep_unit(self) -> float:
        """One unit of the sweep value in SI units (s, rad, Hz or dB)."""
        unit = SWEEP_VARIABLES[self.sweep_variable][1]
        return self.scenario.pulses[0].t_p if unit is None else unit


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
    # largest double has no float value, found by an exact comparison, as
    # Python compares an int with a float without converting the int
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ExperimentError(f"{where}: expected a number")
    if isinstance(v, int) and not (
            -sys.float_info.max <= v <= sys.float_info.max):
        raise ExperimentError(f"{where}: must be finite, got an integer "
                              "beyond the largest double")


def _number(doc, path, field, default=None, positive=False):
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
    "psi_rad", "snr_db", "target"})
_ERROR_FIELDS = frozenset({"dt_s", "df_hz", "dp_rad", "dc_rx_hz"})
_SWEEP_FIELDS = frozenset({"variable", "start", "stop", "points"})
_TOP_FIELDS = frozenset({
    "scenario", "errors", "sweep", "detectors", "pfa_target", "trials",
    "seed", "colocated_benchmark"})


def _parse_target(doc, path):
    t = _require_mapping(doc.get("target", {"model": "swerling1"}),
                         f"{path}.target")
    model = t.get("model")
    if model == "swerling1":
        _reject_unknown(t, f"{path}.target", {"model", "rho_bar"})
        return Swerling1(
            _number(t, f"{path}.target", "rho_bar", presets.RHO_BAR,
                    positive=True))
    if model == "fixed":
        _reject_unknown(t, f"{path}.target", {"model", "alpha_re", "alpha_im"})
        re = _number(t, f"{path}.target", "alpha_re", 1.0)
        im = _number(t, f"{path}.target", "alpha_im", 0.0)
        target = NonFluctuating(complex(re, im))
        try:
            rho = target.mean_rcs
        except OverflowError:
            rho = math.inf
        if not 0 < rho < math.inf:
            raise ExperimentError(f"{path}.target: |alpha|^2 = {rho} of the "
                                  "fixed amplitude must be finite and "
                                  "positive")
        return target
    raise ExperimentError(
        f"{path}.target.model: expected 'swerling1' or 'fixed'")


def _reference_paths(per_tx, M, N, scale=1.0):
    # Default (M, N) path parameters: the two-TX reference geometry, the
    # same at every RX; any other M starts from zeros.
    if M != 2:
        return np.zeros((M, N))
    return np.tile(np.array(per_tx)[:, None] * scale, (1, N))


def _channel_gains(snr_db, target, n_rx):
    # (M, N) path amplitudes that give TX m the SNR snr_db[m] (dB) per path
    return np.array([[xi_from_snr(snr, target.mean_rcs)] * n_rx
                     for snr in snr_db])


def _parse_scenario(doc):
    path = "scenario"
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, path, _SCENARIO_FIELDS)
    waveform_set = doc.get("waveform_set", presets.WAVEFORM_SET)
    if waveform_set not in ("multi_band", "single_band"):
        raise ExperimentError(
            f"{path}.waveform_set: expected 'multi_band' or 'single_band'")
    unread = "kappa" if waveform_set == "multi_band" else "eta"
    if unread in doc:
        raise ExperimentError(
            f"{path}.{unread}: not read by the {waveform_set} waveform set")
    M = _integer(doc, path, "m_tx", presets.M_TX, 1, _MAX_ENTRIES)
    N = _integer(doc, path, "n_rx", presets.N_RX, 1, _MAX_ENTRIES // M)
    K = _integer(doc, path, "k_pulses", presets.K_PULSES, 1,
                 _MAX_ENTRIES // (M * N))
    pri_s = _number(doc, path, "pri_s", presets.PRI_S, positive=True)
    carrier = _number(doc, path, "carrier_hz", presets.CARRIER_HZ, positive=True)
    tp = _number(doc, path, "pulse_s", presets.PULSE_S, positive=True)
    beta = _number(doc, path, "bandwidth_hz", presets.BANDWIDTH_HZ, positive=True)
    eta = _number(doc, path, "eta", presets.ETA, positive=True)
    kappa = _number(doc, path, "kappa", presets.KAPPA, positive=True)
    target = _parse_target(doc, path)

    tau = _matrix(doc, path, "tau_s", (M, N),
                  _reference_paths(presets.TAU_OVER_TP, M, N, tp))
    f = _matrix(doc, path, "doppler_hz", (M, N),
                _reference_paths(presets.DOPPLER_HZ, M, N))
    psi = _matrix(doc, path, "psi_rad", (M, N),
                  _reference_paths(presets.PSI_OVER_PI, M, N, math.pi))
    snr = _matrix(doc, path, "snr_db", (M,), np.zeros(M))
    try:
        sc = Scenario(
            pulses=pulse_set(waveform_set, M, beta, tp, eta, kappa),
            n_rx=N, k_pulses=K, pri_s=pri_s, carrier_hz=carrier,
            tau_s=tau, doppler_hz=f, psi_rad=psi,
            xi=_channel_gains(snr, target, N), target=target)
    except ValueError as exc:
        raise ExperimentError(f"{path}: {exc}")
    return sc, tuple(snr)


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
    points = _integer(doc, path, "points", None, 2, MAX_POINTS)
    if not math.isfinite(stop - start):
        raise ExperimentError(f"{path}: stop - start must be finite")
    return var, tuple(np.linspace(start, stop, points))


def _parse_detectors(raw):
    if raw is None:
        return tuple(DetectorKind)
    if not isinstance(raw, list) or not raw:
        raise ExperimentError("detectors: expected a non-empty list")
    out = []
    for i, name in enumerate(raw):
        try:
            det = DetectorKind(name)
        except ValueError:
            raise ExperimentError(f"detectors[{i}]: unknown detector {name!r}")
        if det in out:
            raise ExperimentError(
                f"detectors[{i}]: duplicate detector {name!r}")
        out.append(det)
    return tuple(out)


def parse_experiment(doc) -> ExperimentSpec:
    doc = _require_mapping(doc, "$")
    _reject_unknown(doc, "$", _TOP_FIELDS)
    if "scenario" not in doc:
        raise ExperimentError("$.scenario: required field missing")
    if "sweep" not in doc:
        raise ExperimentError("$.sweep: required field missing")
    sc, snr = _parse_scenario(doc["scenario"])
    err = _parse_errors(doc.get("errors"), sc.m_tx, sc.n_rx)
    var, values = _parse_sweep(doc["sweep"])
    if var != "snr_db" and sc.m_tx != 2:
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
        scenario=sc, errors=err, snr_db=snr, sweep_variable=var,
        sweep_values=values,
        detectors=_parse_detectors(doc.get("detectors")), pfa_target=pfa,
        trials=trials, seed=seed, colocated_benchmark=colocated)


def load_experiment(path) -> ExperimentSpec:
    """The experiment in the UTF-8 JSON file at ``path``; a file that
    does not decode, parse or nest within the recursion limit raises."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise ExperimentError(f"{path}: invalid JSON ({exc})")
    return parse_experiment(doc)


def scenario_at(spec: ExperimentSpec, value: float) -> Scenario:
    """Scenario at one sweep point, by the rule in the module docstring."""
    sc = spec.scenario
    field = SWEEP_VARIABLES[spec.sweep_variable][0]
    arr = np.array(spec.snr_db if field == "snr_db" else getattr(sc, field))
    if spec.sweep_variable == "snr_db":
        arr[:] = value
    else:
        arr[1] = arr[0] + value * spec.sweep_unit
    return replace(sc, **({"xi": _channel_gains(arr, sc.target, sc.n_rx)}
                          if field == "snr_db" else {field: arr}))
