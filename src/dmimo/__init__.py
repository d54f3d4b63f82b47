"""Distributed MIMO radar detection: signal model, detectors, closed-form
performance, and seeded Monte Carlo validation."""

from .analysis import (
    DetectorKind,
    PerfPoint,
    Receiver,
    analyze_detector,
    noncentrality,
    pd_nonfluctuating,
    pd_swerling1,
    pfa,
    statistic,
    threshold,
)
from .detectors import (
    CompensationSet,
    cd_statistic,
    hd_statistic,
    ncd_statistic,
)
from .experiments import ExperimentSpec, load_experiment, parse_experiment
from .montecarlo import TrialConfig, run_sweep
from .presets import reference_scenario
from .scene import (
    NonFluctuating,
    Scenario,
    Swerling1,
    SyncErrors,
    colocated_scenario,
    noise_free_mf_output,
)
from .waveforms import PulseSpec, caf, down_chirp, multi_band_chirp, up_chirp

__all__ = [
    "DetectorKind",
    "PerfPoint",
    "Receiver",
    "analyze_detector",
    "noncentrality",
    "pd_nonfluctuating",
    "pd_swerling1",
    "pfa",
    "statistic",
    "threshold",
    "CompensationSet",
    "cd_statistic",
    "hd_statistic",
    "ncd_statistic",
    "ExperimentSpec",
    "load_experiment",
    "parse_experiment",
    "TrialConfig",
    "run_sweep",
    "reference_scenario",
    "NonFluctuating",
    "Scenario",
    "Swerling1",
    "SyncErrors",
    "colocated_scenario",
    "noise_free_mf_output",
    "PulseSpec",
    "caf",
    "down_chirp",
    "multi_band_chirp",
    "up_chirp",
]
