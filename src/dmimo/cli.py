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
import contextlib
import csv
import functools
import math
import os
import sys

import numpy as np

from .analysis import DetectorKind, Receiver, analyze_detector, law, threshold
from .experiments import (
    MAX_POINTS,
    MIN_PFA,
    MIN_TRIALS,
    ExperimentError,
    ExperimentSpec,
    load_experiment,
    scenario_at,
)
from .montecarlo import MAX_SEED, MIN_SEED, TrialConfig, run_sweep
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


@contextlib.contextmanager
def _open_out(path):
    """The --out file, open for writing.  An OSError while it is opened,
    written or closed ends in one error line.  A run that fails removes
    the file if this call created it, and never a path that existed
    before, such as /dev/full."""
    if not path:
        raise SystemExit("error: --out must name a file")
    try:
        try:
            fh, created = open(path, "x", newline=""), True
        except FileExistsError:
            fh, created = open(path, "w", newline=""), False
        try:
            with fh:
                yield fh
        except BaseException:
            if created:
                os.remove(path)
            raise
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
        try:
            rows = _caf_rows(spec, args.points)
        except ValueError as exc:  # a CAF phase beyond a double
            raise SystemExit(f"error: {exc}")
        _write_rows(fh, _CAF_COLUMNS, rows)
    return 0


def _caf_rows(spec: ExperimentSpec, points: int):
    pulses = spec.scenario.pulses
    tp = pulses[0].t_p
    nus = np.linspace(-tp, tp, points)
    rows = []
    for m, pm in enumerate(pulses):
        for mb, pmb in enumerate(pulses):
            for nu, val in zip(nus.tolist(), caf(pm, pmb, nus, 0.0).tolist()):
                rows.append({
                    "m": m + 1, "mbar": mb + 1, "nu_over_tp": nu / tp,
                    "nu_s": nu, "f_hz": 0.0, "re": val.real,
                    "im": val.imag, "abs": abs(val)})
    return rows


def _analytic_pairs(spec: ExperimentSpec):
    """Per (sweep point, system), in output order: (receiver, rows), with
    one (CSV row, operating point) per detector.  The operating point is
    None on an error row, the receiver where the pair or its point fails."""
    systems = {"distributed": lambda sc: Receiver.build(sc, spec.errors),
               "colocated": lambda sc: Receiver.build(
                   colocated_scenario(sc), SyncErrors.zeros(sc.m_tx, sc.n_rx))}
    for value in map(float, spec.sweep_values):
        try:
            sc, bad = scenario_at(spec, value), None
        except ValueError as exc:
            sc, bad = None, str(exc)
        for system in list(systems)[:1 + spec.colocated_benchmark]:
            base = dict(sweep_variable=spec.sweep_variable, sweep_value=value,
                        sweep_value_si=value * spec.sweep_unit, system=system,
                        pfa_target=spec.pfa_target)
            try:
                if bad is not None:  # every system of the point fails
                    raise ValueError(bad)
                rx = systems[system](sc)
            except ValueError as exc:
                yield None, [
                    (dict(base, detector=det.value, error=str(exc)), None)
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
                           varsigma=pt.varsigma, **{"lambda": pt.lam})
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
    counts = dict(zip(runs, run_sweep(list(runs.values()))))
    rows = []
    gate_failed = False
    for index, (_, pair_rows) in enumerate(pairs):
        for row, pt in pair_rows:
            row = dict(row, trials=trials, seed=seed)
            if pt is not None:
                p_hat, half, passed = _gate(counts[index][pt.detector],
                                            trials, pt.pd)
                row.update(pd_empirical=p_hat, ci_halfwidth=half)
                gate_failed |= not passed
            rows.append(row)
    return rows, gate_failed


def _gate(detections: int, trials: int, pd: float):
    """The confidence gate of one row, the only place its policy lives:
    the empirical Pd p_hat = detections / trials, its 3 sigma Wald
    half-width 3 sqrt(p_hat (1 - p_hat) / trials), and whether p_hat
    lies within max(half-width, 3 / trials) of the analytic pd."""
    p_hat = detections / trials
    half = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, half, abs(p_hat - pd) <= max(half, 3.0 / trials)


def cmd_threshold(args) -> int:
    det = DetectorKind(args.detector)
    try:
        gamma = threshold(law(det, args.k_pulses, args.m_tx, args.n_rx,
                              args.varsigma), args.pfa)
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


@functools.cache  # built by the first main call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmimo",
        description="Distributed MIMO radar detection analysis and "
                    "simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("caf", help="export zero-Doppler ambiguity slices")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=_bounded_int(2, MAX_POINTS), default=401)
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
                   choices=[d.value for d in DetectorKind],
                   help="the detector; HD's order p = N M^2 assumes rank M "
                        "at every receiver")
    p.add_argument("--pfa", type=_float_between(MIN_PFA, 1), required=True,
                   help="the false-alarm rate, in (0, 1)")
    for flag, what in (("--k-pulses", "pulses per coherent interval, K"),
                       ("--m-tx", "transmitters, M"),
                       ("--n-rx", "receivers, N")):
        p.add_argument(flag, type=_bounded_int(1), required=True, help=what)
    p.add_argument("--varsigma", type=_float_between(0), default=None,
                   help="CD template energy varsigma; CD requires it")
    p.set_defaults(func=cmd_threshold)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:  # arrays no address space holds
        raise SystemExit(f"error: {str(exc) or 'out of memory'}")


if __name__ == "__main__":
    sys.exit(main())
