import sys

# first, so numpy starts with the dmimo command's BLAS threads and the
# in-process main calls compute as the command does
import dmimo.cli
import numpy as np
import pytest

from dmimo import montecarlo
from dmimo.presets import reference_scenario
from dmimo.scene import Scenario, SyncErrors, Swerling1
from dmimo.waveforms import pulse_set


def pytest_terminal_summary(terminalreporter):
    # one pass/fail line per acceptance criterion, shown even when pytest
    # capture is active
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def ref_scenario():
    """Two-TX / one-RX multi-band reference scenario at 0 dB per-path SNR."""
    return reference_scenario("multi_band")


@pytest.fixture
def sb_scenario():
    return reference_scenario("single_band")


@pytest.fixture
def zero_err(ref_scenario):
    return SyncErrors.zeros(ref_scenario.m_tx, ref_scenario.n_rx)


@pytest.fixture
def random_scenario():
    """Factory for randomized scenarios (and matching sync errors) used by
    the model-equivalence and statistic property tests."""

    def make(rng, with_errors=True, m_tx=None, n_rx=None, k_pulses=None):
        tp = 1e-5
        M = m_tx if m_tx is not None else int(rng.integers(1, 4))
        N = n_rx if n_rx is not None else int(rng.integers(1, 3))
        K = k_pulses if k_pulses is not None else int(rng.integers(4, 17))
        sc = Scenario(
            pulses=pulse_set("multi_band", M, 400e3, tp, 3.0, 3.0),
            n_rx=N,
            k_pulses=K,
            pri_s=2e-3,
            carrier_hz=3e9,
            tau_s=rng.uniform(0.0, 1.5 * tp, (M, N)),
            doppler_hz=rng.uniform(-300.0, 300.0, (M, N)),
            psi_rad=rng.uniform(-np.pi, np.pi, (M, N)),
            xi=rng.uniform(0.5, 2.0, (M, 1)) * rng.uniform(0.1, 1.0, (M, N)),
            target=Swerling1(1.0),
        )
        if with_errors:
            err = SyncErrors(
                dt=rng.uniform(-0.3 * tp, 0.3 * tp, (M, N)),
                df=rng.uniform(-30.0, 30.0, (M, N)),
                dp=rng.uniform(-np.pi, np.pi, (M, N)),
                dc_rx=rng.uniform(-5.0, 5.0, N),
            )
        else:
            err = SyncErrors.zeros(M, N)
        return sc, err

    return make


@pytest.fixture
def pool_spy(monkeypatch):
    """Wrap ``montecarlo._pool_map`` to record the workers of every pool
    started, in ``pool_spy.pools``."""
    pool_map = montecarlo._pool_map

    def spy(fn, jobs, workers):
        spy.pools.append(workers)
        return pool_map(fn, jobs, workers)

    spy.pools = []
    monkeypatch.setattr(montecarlo, "_pool_map", spy)
    return spy
