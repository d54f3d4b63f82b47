import sys

import numpy as np
import pytest

import dmimo.cli  # noqa: F401  (loads every dmimo module)
from dmimo import analysis, detectors, montecarlo, scene, specfun, waveforms
from dmimo.analysis import DetectorKind
from dmimo.presets import reference_scenario
from tracer import LAYER_MODULES, Tracer, summarize


def _dmimo_bindings():
    """Every (module, attribute) -> object binding in loaded dmimo modules,
    plus function defaults and the wrapped class members."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "dmimo" or name.startswith("dmimo.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if callable(value) and getattr(value, "__defaults__", None):
                out[(name, attr, "__defaults__")] = value.__defaults__
    for member in ("from_scenario", "templates"):
        out[("CompensationSet", member)] = \
            detectors.CompensationSet.__dict__[member]
    return out


def test_uninstall_restores_every_original():
    before = _dmimo_bindings()
    tr = Tracer("t").install()
    assert waveforms.caf is not before[("dmimo.waveforms", "caf")]
    tr.uninstall()
    after = _dmimo_bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_from_imports_and_defaults_are_rebound():
    original = waveforms.caf
    tr = Tracer("t").install()
    try:
        # bound by "from .waveforms import caf" in scene and cli
        assert scene.caf is waveforms.caf is dmimo.cli.caf
        assert scene.caf is not original
        # default argument bound at definition time
        assert scene.af_matrix.__wrapped__.__defaults__[0] is waveforms.caf
        assert analysis.noncentrality is dmimo.cli.noncentrality
        assert montecarlo.draw_noise.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert scene.caf is original
    assert scene.af_matrix.__defaults__[0] is original


def test_counts_match_known_call_numbers():
    sc = reference_scenario("multi_band")
    err = scene.SyncErrors.zeros(sc.m_tx, sc.n_rx)
    M, N = sc.m_tx, sc.n_rx
    tr = Tracer("t").install()
    try:
        scene.noise_free_mf_output(sc, err, 1.0)
        comp = detectors.CompensationSet.from_scenario(sc, err)
        comp.templates
        comp.templates
        for det in DetectorKind:
            analysis.analyze_detector(det, sc, err, comp, 1e-4)
        rng = np.random.default_rng(0)
        montecarlo.draw_noise(rng, 12, 1.0, (3, M, N))
        specfun.marcum_q(4, 1.0, 2.0)
    finally:
        tr.uninstall()
    c = tr.counts
    # one model build is M^2 N CAF calls; the compensation set is another,
    # and each of the four detectors rebuilds the model once
    assert c["scene.mf_output"] == 1 + 4
    assert c["detectors.compensation"] == 1
    assert c["waveforms.caf"] == (1 + 1 + 4) * M * M * N
    assert c["waveforms.sample_pulse"] == 2 * c["waveforms.caf"]
    assert c["detectors.templates"] == 2 + 1      # CD analysis reads it
    for kind in ("NCD", "ACD", "CD", "HD"):
        assert c[f"analysis.analyze_detector.{kind}"] == 1
    assert c["montecarlo.draw_noise"] == 1
    assert c["specfun.marcum_q"] == 1
    assert c["specfun.reg_upper_gamma"] > 1     # called inside marcum_q

    stats = summarize(tr.counts, tr.spans)
    assert stats["waveforms.caf"]["calls"] == c["waveforms.caf"]
    assert "waveforms.sample_pulse" in stats          # counted ...
    assert stats["waveforms.sample_pulse"]["s"] == 0.0  # ... not timed
    for name, s in stats.items():
        assert s["self_s"] <= s["s"] + 1e-12, name


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer("run-7", clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wi() + wi()

    wi = tr.wrap("m.inner", inner)
    wo = tr.wrap("m.outer", outer)
    assert wo() == 2
    stats = summarize(tr.counts, tr.spans)
    # clock: outer 0..5, inner 1..2 and 3..4
    assert stats["m.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0,
                                "p50_s": 5.0, "p90_s": 5.0}
    assert stats["m.inner"]["calls"] == 2
    assert stats["m.inner"]["s"] == 2.0
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert {s[4] for s in tr.spans} == {"run-7"}


def test_wrapper_propagates_exceptions_and_closes_span():
    tr = Tracer("t")

    def boom():
        raise ValueError("x")

    w = tr.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        w()
    assert tr.counts["m.boom"] == 1
    assert tr.spans[0][0] == "m.boom" and tr.spans[0][2] >= tr.spans[0][1]


def test_double_install_rejected():
    tr = Tracer("t").install()
    try:
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()


def test_layer_modules_have_public_functions():
    import importlib
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"dmimo.{short}")
        assert mod.__all__
