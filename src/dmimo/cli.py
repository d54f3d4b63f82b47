"""Command line front end.

Subcommands:
  caf        zero-Doppler cross-ambiguity slices for a waveform set
  analyze    analytic performance sweep from an experiment file
  simulate   analyze plus seeded Monte Carlo confirmation columns
  threshold  print one detection threshold

All outputs are CSV with a header row, '.' decimals, and line-feed
terminators; rows are ordered by sweep index, then system, then
detector, so output bytes depend only on the experiment file and seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .analysis import DetectorKind, Receiver, analyze_detector, law, threshold
from .experiments import (
    MAX_SEED,
    MIN_PFA,
    MIN_SEED,
    MIN_TRIALS,
    ExperimentError,
    ExperimentSpec,
    load_experiment,
    scenario_at,
    sweep_value_si,
)
from .montecarlo import TrialConfig, run_sweep
from .scene import SyncErrors, colocated_scenario
from .waveforms import caf

__all__ = ["main"]

_ANALYZE_COLUMNS = [
    "sweep_variable", "sweep_value", "sweep_value_si", "system", "detector",
    "gamma", "lambda", "varsigma", "pfa_target", "pd_analytic", "error"]
_SIMULATE_COLUMNS = _ANALYZE_COLUMNS + [
    "pd_empirical", "ci_halfwidth", "trials", "seed"]
_CAF_COLUMNS = ["m", "mbar", "nu_over_tp", "nu_s", "f_hz", "re", "im", "abs"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _open_out(path):
    if not path:
        raise SystemExit("error: --out must name a file")
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise SystemExit(f"error: cannot write --out {path}: {exc.strerror}")


def _write_rows(fh, columns, rows):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(row.get(c)) for c in columns])


def _load(path) -> ExperimentSpec:
    try:
        return load_experiment(path)
    except (OSError, ExperimentError) as exc:
        raise SystemExit(f"error: {exc}")


def cmd_caf(args) -> int:
    spec = _load(args.experiment)
    with _open_out(args.out) as fh:
        _write_rows(fh, _CAF_COLUMNS, _caf_rows(spec, args.points))
    return 0


def _caf_rows(spec: ExperimentSpec, points: int):
    pulses = spec.scenario.pulses
    tp = spec.pulse_s
    nus = np.linspace(-tp, tp, points)
    rows = []
    for m, pm in enumerate(pulses):
        for mb, pmb in enumerate(pulses):
            for nu in nus:
                val = caf(pm, pmb, float(nu), 0.0)
                rows.append({
                    "m": m + 1, "mbar": mb + 1,
                    "nu_over_tp": float(nu) / tp, "nu_s": float(nu),
                    "f_hz": 0.0, "re": val.real, "im": val.imag,
                    "abs": abs(val)})
    return rows


def _sweep_systems(spec: ExperimentSpec):
    """(sweep value, system name, scenario, errors, error text) per
    (sweep point, system), in fixed output order."""
    for value in spec.sweep_values:
        try:
            sc = scenario_at(spec, float(value))
        except ValueError as exc:
            yield float(value), "distributed", None, None, str(exc)
            continue
        yield float(value), "distributed", sc, spec.errors, None
        if spec.colocated_benchmark:
            co = colocated_scenario(sc)
            yield (float(value), "colocated", co,
                   SyncErrors.zeros(co.m_tx, co.n_rx), None)


def _analytic_pairs(spec: ExperimentSpec):
    """Per (sweep point, system): (receiver, rows), where rows holds one
    (CSV row, operating point) per detector.  The operating point is None
    on error rows, and the receiver is None when the whole pair is in
    error."""
    for value, system, sc, err, bad in _sweep_systems(spec):
        base = {
            "sweep_variable": spec.sweep_variable, "sweep_value": value,
            "sweep_value_si": sweep_value_si(spec.sweep_variable, value,
                                            spec.pulse_s),
            "system": system, "pfa_target": spec.pfa_target}
        if bad is None:
            try:
                rx = Receiver.build(sc, err)
            except ValueError as exc:
                bad = str(exc)
        if bad is not None:
            yield None, [
                (dict(base, detector=det.value, error=bad), None)
                for det in spec.detectors]
            continue
        rows = []
        for det in spec.detectors:
            row = dict(base, detector=det.value)
            try:
                pt = analyze_detector(det, rx, spec.pfa_target)
            except ValueError as exc:
                rows.append((dict(row, error=str(exc)), None))
                continue
            row.update(gamma=pt.gamma, pd_analytic=float(pt.pd),
                       varsigma=pt.varsigma)
            row["lambda"] = pt.lam
            rows.append((row, pt))
        yield rx, rows


def cmd_analyze(args) -> int:
    spec = _load(args.experiment)
    with _open_out(args.out) as fh:
        rows = [row for _, pair_rows in _analytic_pairs(spec)
                for row, _ in pair_rows]
        _write_rows(fh, _ANALYZE_COLUMNS, rows)
    return 0


def cmd_simulate(args) -> int:
    spec = _load(args.experiment)
    trials = args.trials if args.trials is not None else spec.trials
    seed = args.seed if args.seed is not None else spec.seed
    with _open_out(args.out) as fh:
        rows, gate_failed = _simulate_rows(spec, trials, seed)
        _write_rows(fh, _SIMULATE_COLUMNS, rows)
    if gate_failed:
        print("warning: empirical results deviate from analysis beyond "
              "the confidence gate", file=sys.stderr)
        return 1
    return 0


def _simulate_rows(spec: ExperimentSpec, trials: int, seed: int):
    """(CSV rows, whether any row fails the confidence gate).  Every
    detector of one (sweep point, system) pair is evaluated on the same
    Monte Carlo stream, keyed by the seed and the pair's index; the Monte
    Carlo blocks of all pairs run in one ``run_sweep`` call."""
    pairs = list(_analytic_pairs(spec))
    runs = {}
    for index, (rx, pair_rows) in enumerate(pairs):
        gammas = {pt.detector: pt.gamma for _, pt in pair_rows
                  if pt is not None}
        if gammas:
            cfg = TrialConfig(trials=trials, seed=seed, pair=index,
                              target_draw=rx.sc.target)
            runs[index] = (rx, gammas, cfg)
    results = dict(zip(runs, run_sweep(list(runs.values()))))
    rows = []
    gate_failed = False
    for index, (_, pair_rows) in enumerate(pairs):
        for row, pt in pair_rows:
            row = dict(row, trials=trials, seed=seed)
            if pt is not None:
                res = results[index][pt.detector]
                row.update(pd_empirical=float(res.p_hat),
                           ci_halfwidth=res.ci_halfwidth)
                half = max(res.ci_halfwidth, 3.0 / trials)
                if abs(res.p_hat - pt.pd) > half:
                    gate_failed = True
            rows.append(row)
    return rows, gate_failed


def cmd_threshold(args) -> int:
    det = DetectorKind(args.detector)
    try:
        gamma = threshold(law(det, args.k_pulses, args.m_tx, args.n_rx,
                              args.sigma2, args.varsigma), args.pfa)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(_fmt(gamma))
    return 0


def _bounded_int(minimum, maximum=None):
    """argparse type: an integer within the JSON schema's bounds."""
    def parse(text):
        v = int(text)
        if v < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        if maximum is not None and v > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}")
        return v
    parse.__name__ = "int"
    return parse


def _float_between(low, high=math.inf):
    """argparse type: a finite number strictly between low and high."""
    def parse(text):
        v = float(text)
        if not (math.isfinite(v) and low < v < high):
            raise argparse.ArgumentTypeError(
                f"must be finite and greater than {low}" if high == math.inf
                else f"must lie strictly in ({low}, {high})")
        return v
    parse.__name__ = "float"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmimo",
        description="Distributed MIMO radar detection analysis and "
                    "simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("caf", help="export zero-Doppler ambiguity slices")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=_bounded_int(2), default=401)
    p.set_defaults(func=cmd_caf)

    p = sub.add_parser("analyze", help="run the analytic sweep")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate",
                       help="run the sweep with Monte Carlo confirmation")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=_bounded_int(MIN_TRIALS), default=None)
    p.add_argument("--seed", type=_bounded_int(MIN_SEED, MAX_SEED),
                   default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold", help="print one detection threshold")
    p.add_argument("--detector", required=True,
                   choices=[d.value for d in DetectorKind])
    p.add_argument("--pfa", type=_float_between(MIN_PFA, 1), required=True)
    p.add_argument("--k-pulses", type=_bounded_int(1), required=True)
    p.add_argument("--m-tx", type=_bounded_int(1), required=True)
    p.add_argument("--n-rx", type=_bounded_int(1), required=True)
    p.add_argument("--sigma2", type=_float_between(0), default=1.0)
    p.add_argument("--varsigma", type=_float_between(0), default=None)
    p.set_defaults(func=cmd_threshold)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
