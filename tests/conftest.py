import concurrent.futures
import sys

import numpy as np
import pytest

from dmimo.presets import reference_scenario
from dmimo.scene import Scenario, SyncErrors, Swerling1
from dmimo.waveforms import multi_band_chirp


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
            pulses=tuple(multi_band_chirp(m + 1, 400e3, tp, 3.0) for m in range(M)),
            n_rx=N,
            k_pulses=K,
            pri_s=2e-3,
            carrier_hz=3e9,
            tau_s=rng.uniform(0.0, 1.5 * tp, (M, N)),
            doppler_hz=rng.uniform(-300.0, 300.0, (M, N)),
            psi_rad=rng.uniform(-np.pi, np.pi, (M, N)),
            b=rng.uniform(0.5, 2.0, M),
            xi=rng.uniform(0.1, 1.0, (M, N)),
            sigma2=1.0,
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
    """Replace ``concurrent.futures.ThreadPoolExecutor`` with a subclass
    that records the ``max_workers`` of every pool constructed and the
    most futures submitted but not yet read at any one time."""

    class PoolSpy(concurrent.futures.ThreadPoolExecutor):
        pools = []
        peak_unread = 0

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            PoolSpy.pools.append(max_workers)
            self._unread = set()

        def submit(self, fn, /, *args, **kwargs):
            # submit and result are both called on the caller's thread
            future = super().submit(fn, *args, **kwargs)
            self._unread.add(future)
            PoolSpy.peak_unread = max(PoolSpy.peak_unread,
                                      len(self._unread))
            read = future.result

            def result(timeout=None):
                self._unread.discard(future)
                return read(timeout)

            future.result = result
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", PoolSpy)
    return PoolSpy
