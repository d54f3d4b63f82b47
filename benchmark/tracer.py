"""Span tracer that times dmimo's layers from outside the package.

``Tracer.install`` wraps the public functions of the layer modules (the
names in each module's ``__all__`` that the module defines) plus the two
``CompensationSet`` members the benchmark reports, and rebinds every
reference to an original inside the loaded ``dmimo`` modules: module
globals bound by ``from .x import y`` and function default arguments
(``scene.af_matrix(..., caf_engine=caf)``).  ``Tracer.uninstall`` puts
every original back.

Each wrapped call is counted and recorded as a span (name, start, end,
parent span index, run id) in memory; ``dump`` writes them out at the end
of the run.  ``waveforms.sample_pulse`` is counted but not timed: it is
the integrand evaluation inside ``caf``, and a span of its own would move
most of the CAF's cost out of the ``waveforms.caf`` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

__all__ = ["LAYER_MODULES", "Tracer", "load_spans", "summarize"]

LAYER_MODULES = ("experiments", "scene", "waveforms", "detectors",
                 "analysis", "specfun", "montecarlo")

# Span names that differ from "<module>.<function>".
ALIASES = {
    "experiments.load_experiment": "experiments.load",
    "montecarlo.draw_swerling1_alpha": "montecarlo.draw_alpha",
    "scene.noise_free_mf_output": "scene.mf_output",
    "detectors.ncd_statistic": "detectors.ncd",
    "detectors.acd_statistic": "detectors.acd",
    "detectors.cd_statistic": "detectors.cd",
    "detectors.hd_statistic": "detectors.hd",
    "detectors.doppler_projectors": "detectors.projectors",
}

# Class members wrapped in addition to the module-level functions.
METHODS = {
    "detectors.compensation": ("detectors", "CompensationSet",
                               "from_scenario"),
    "detectors.templates": ("detectors", "CompensationSet", "templates"),
}

COUNT_ONLY = frozenset({"waveforms.sample_pulse"})


def _detector_suffix(args, kwargs):
    det = kwargs["det"] if "det" in kwargs else args[0]
    return getattr(det, "value", str(det))


# analyze_detector gets one span name per detector kind.
PER_CALL_NAMES = {"analysis.analyze_detector": _detector_suffix}


class Tracer:
    """Counts and spans of the wrapped dmimo functions of one run."""

    def __init__(self, run_id: str = "", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    # -- wrappers -------------------------------------------------------
    def wrap(self, name, fn, count_only=False, suffix=None):
        """Wrapper around ``fn`` that counts each call under ``name`` and,
        unless ``count_only``, records it as a span."""
        counts, spans, stack, clock = (self.counts, self.spans, self._stack,
                                       self.clock)
        run_id = self.run_id

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            counts[span] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, run_id)
        return traced

    # -- install / uninstall -------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer functions and rebind every reference to them
        inside the loaded ``dmimo`` modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}   # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"dmimo.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                name = ALIASES.get(qual, qual)
                wrappers[id(fn)] = (fn, self.wrap(
                    name, fn, count_only=qual in COUNT_ONLY,
                    suffix=PER_CALL_NAMES.get(qual)))

        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "dmimo"
                                        or n.startswith("dmimo."))]

        def wrapped(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                new = wrapped(value)
                if new is not None:
                    self._set(mod, attr, new)
        # Default arguments bound at definition time, e.g. caf_engine=caf.
        for fn, _ in list(wrappers.values()):
            if fn.__defaults__ and any(wrapped(v) for v in fn.__defaults__):
                self._set(fn, "__defaults__", tuple(
                    wrapped(v) or v for v in fn.__defaults__))
            if fn.__kwdefaults__ and any(
                    wrapped(v) for v in fn.__kwdefaults__.values()):
                self._set(fn, "__kwdefaults__", {
                    k: wrapped(v) or v for k, v in fn.__kwdefaults__.items()})
        for name, (short, cls_name, member) in METHODS.items():
            cls = getattr(importlib.import_module(f"dmimo.{short}"), cls_name)
            raw = cls.__dict__[member]
            if isinstance(raw, property):
                new = property(self.wrap(name, raw.fget), raw.fset,
                               raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._patches.append((cls, member, raw))
            setattr(cls, member, new)
        return self

    def uninstall(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "counts": dict(self.counts),
                       "spans": [list(s) for s in self.spans]}, fh)


def load_spans(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["counts"], [tuple(s) for s in doc["spans"]]


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def summarize(counts, spans):
    """Per span name: calls, total (inclusive) seconds, self seconds (the
    span minus the time its child spans cover), and per-call median and
    90th percentile in seconds.  Names that were only counted get calls."""
    child_time = defaultdict(float)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_s = defaultdict(float)
    for index, (name, start, end, *_rest) in enumerate(spans):
        durations[name].append(end - start)
        self_s[name] += (end - start) - child_time[index]
    out = {}
    for name in set(counts) | set(durations):
        d = sorted(durations.get(name, ()))
        out[name] = {"calls": int(counts.get(name, len(d))),
                     "s": float(sum(d)), "self_s": float(self_s[name]),
                     "p50_s": _quantile(d, 0.5), "p90_s": _quantile(d, 0.9)}
    return out
