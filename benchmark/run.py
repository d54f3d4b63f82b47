"""dmimo benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dmimo checkout.  The workload's experiment file is
generated from the seed (``workloads.py``); then the workload's ``dmimo``
command is run as a child process (``child.py``, the console-script entry
point with two clocks), one at a time, until ``S`` seconds have passed.
Every output file is checked independently (``checks.py``) outside the
timed region.  Standard output ends with one JSON line:

  --trace 0   the end-to-end metrics, all from untraced invocations:
              setup_s       median of child wall time minus time in main
              work_per_s    median throughput inside main: simulated
                            row-trials per second (mc_trials_per_s) for
                            simulate, CSV rows per second (rows_per_s) for
                            analyze
              (both divided by the time of a bracketing control
              process, CONTROL, so "s" is one control run; the raw
              values are kept under diagnostics.unscaled)
              peak_rss_mib  median of the child's maximum resident set
              ok_row_frac   rows that are neither ``error`` rows nor
                            rejected by the check, over rows attempted
                            (1 - failed_frac)
  --trace 1   the per-layer metrics: untraced and traced invocations
              alternate; layer numbers are medians over the traced ones.

``attempted`` and ``failed`` count invocations.  An invocation fails when
it crashes, exits non-zero other than ``simulate``'s gate exit 1, writes a
short CSV, or writes a row that the independent check rejects.  A full
result record with provenance is written under ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
MAX_WALL_S = 170.0           # whole run, set-up and checks included
# The control: a fresh interpreter importing numpy and scipy.stats, without
# dmimo.  It runs before and after every invocation; the timed end-to-end
# values are divided by its time, which cancels most of the host's speed
# drift (see README.md).  Their "s" is thus one control run, not a second.
CONTROL = "import numpy, scipy.stats"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# Spans reported with calls, total, self time and per-call percentiles.
SPANS = (
    "montecarlo.draw_noise", "montecarlo.draw_alpha", "montecarlo.run_trials",
    "detectors.ncd", "detectors.acd", "detectors.cd", "detectors.hd",
    "detectors.templates", "detectors.projectors", "detectors.compensation",
    "scene.mf_output", "waveforms.caf", "analysis.noncentrality",
    "analysis.threshold", "specfun.marcum_q", "specfun.inv_reg_upper_gamma",
    "specfun.reg_upper_gamma", "specfun.kummer_1f1_first_unit",
)
KINDS = ("NCD", "ACD", "CD", "HD")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median(values):
    return statistics.median(values) if values else 0.0


# -- provenance -----------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(root, env, workload, seed, exp_sha):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: env.get(k) for k in BLAS_ENV},
        "blas_threads_note": "thread variables are left as found; unset "
                             "means the library default (at most nproc)",
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "experiment_sha256": exp_sha,
        "isolation": "no CPU pinning or cache control is applied; timings "
                     "include interference from other load on the host",
    }


# -- one child invocation -------------------------------------------------

def _invoke(cmd, env, out_dir, tag, timeout):
    """Run one child, killed after ``timeout`` seconds; returns wall
    seconds, peak RSS in KiB and exit code."""
    stdout = open(out_dir / f"{tag}.stdout", "wb")
    stderr = open(out_dir / f"{tag}.stderr", "wb")
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            # interrupted: stop the child and reap it before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        stdout.close()
        stderr.close()
    return wall, usage.ru_maxrss, proc.returncode


class Runner:
    """Invokes the workload's dmimo command and checks every output."""

    def __init__(self, root, workload, seed, out_dir):
        self.root = root
        self.workload = workload
        self.subcommand = workloads.WORKLOADS[workload][0]
        self.doc = workloads.generate(workload, seed)
        self.exp_bytes = workloads.experiment_bytes(self.doc)
        self.out_dir = out_dir
        self.exp_path = out_dir / "experiment.json"
        self.exp_path.write_bytes(self.exp_bytes)
        self.csv_path = out_dir / "out.csv"
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        self._checked = {}   # CSV sha256 -> (row results, notes)
        self.samples = []
        self.last_good_csv = None

    def warm_up(self, timeout):
        """Import dmimo once so byte-code and page caches are filled
        before anything is timed."""
        _invoke([sys.executable, "-c", "import dmimo.cli"], self.env,
                self.out_dir, "warmup", timeout)
        self.control_before = self.control(timeout)

    def control(self, timeout):
        """Wall seconds of one run of the control process."""
        wall, _, rc = _invoke([sys.executable, "-c", CONTROL], os.environ,
                              self.out_dir, "control", timeout)
        if rc != 0:
            raise RuntimeError(f"control process exited with status {rc}")
        return wall

    def invoke(self, traced, timeout):
        i = len(self.samples)
        timing = self.out_dir / f"timing{i}.json"
        trace = self.out_dir / f"trace{i}.json"
        for p in (timing, trace, self.csv_path):
            if p.exists():
                p.unlink()
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(timing),
               str(trace) if traced else "-", f"{self.workload}-{i}", "--",
               self.subcommand, "--experiment", str(self.exp_path),
               "--out", str(self.csv_path)]
        wall, rss_kib, rc = _invoke(cmd, self.env, self.out_dir, f"run{i}",
                                    timeout)
        control_after = self.control(timeout)
        sample = {"traced": traced, "wall_s": wall, "rss_kib": rss_kib,
                  "rc": rc,
                  "control_s": (self.control_before + control_after) / 2}
        self.control_before = control_after
        try:
            sample.update(json.loads(timing.read_text()))
        except (OSError, ValueError):
            sample["raised"] = "no timing record"
        self._check(sample)
        if traced and trace.exists():
            counts, spans = tracer.load_spans(trace)
            sample["layers"] = tracer.summarize(counts, spans)
        self.samples.append(sample)
        return sample

    def _check(self, sample):
        """Row results and the invocation verdict (outside the timing)."""
        problems = []
        module = sample.get("module") or ""
        if not Path(module).resolve().is_relative_to(self.root / "src"):
            problems.append(f"dmimo imported from {module!r}, not src/")
        raised = sample.get("raised")
        if raised:
            problems.append(f"child raised {raised}")
        gate = self.subcommand == "simulate" and sample.get("returned") == 1
        if sample["rc"] != 0 and not (gate and sample["rc"] == 1):
            problems.append(f"exit status {sample['rc']}")
        sample["gate_exit"] = 1 if gate else 0
        try:
            text = self.csv_path.read_text()
        except OSError:
            text = ""
        sha = workloads.sha256(text.encode())
        if sha not in self._checked:
            self._checked[sha] = checks.check_csv(text, self.doc,
                                                  self.subcommand)
        results, notes = self._checked[sha]
        written = checks.parse_csv(text)[1]
        sample["csv_sha256"] = sha
        sample["check_notes"] = notes
        sample["rows"] = len(results)
        sample["rows_written"] = len(written)
        sample["ok_rows"] = sum(r.status == "ok" for r in results)
        sample["error_rows"] = sum(r.status == "error" for r in results)
        bad = [r.reason for r in results if r.status == "failed"]
        sample["failed_check_rows"] = len(bad)
        if bad:
            problems.append(f"{len(bad)} rows failed the check: {bad[0]}")
        # rows that are not error rows, i.e. were analysed (and simulated)
        done = [row for row, r in zip(written, results)
                if r.status != "error"]
        # (sweep point, system) pairs with at least one simulated row
        sample["simulated_systems"] = len({
            (r.get("sweep_value"), r.get("system")) for r in done})
        if self.subcommand == "simulate":
            sample["work"] = sum(int(r["trials"]) for r in done
                                 if (r.get("trials") or "").isdigit())
        else:
            sample["work"] = sample["rows_written"]
        if "rows_written" in notes:
            problems.append("short or long CSV")
        sample["problems"] = problems
        sample["failed"] = bool(problems)
        if not problems:
            self.last_good_csv = text


# -- metrics --------------------------------------------------------------

def end_to_end(samples):
    """Times are divided by each invocation's bracketing control time.  If
    every invocation crashed, the whole wall time counts as set-up and
    the work rate is 0."""
    plain = [s for s in samples if not s["traced"]]
    timed = [s for s in plain if "main_s" in s and not s["raised"]
             and s["main_s"] > 0]
    rows = sum(s["rows"] for s in plain)
    ok = sum(s["ok_rows"] for s in plain)
    if timed:
        setup = [(s["wall_s"] - s["main_s"]) / s["control_s"] for s in timed]
        work = [s["work"] / s["main_s"] * s["control_s"] for s in timed]
    else:
        timed = plain
        setup = [s["wall_s"] / s["control_s"] for s in timed]
        work = [0.0]
    return {
        "setup_s": _metric(_median(setup), "s"),
        "work_per_s": _metric(_median(work), "1/s"),
        "peak_rss_mib": _metric(_median([s["rss_kib"] / 1024.0
                                         for s in timed]), "MiB"),
        "ok_row_frac": _metric(ok / rows if rows else 0.0, "frac"),
    }


def _layer_values(layers, doc, rows_written, simulated_systems):
    """Per-layer metrics of one traced invocation."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0.0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        out[f"{name}.p50_ms"] = (1e3 * get(name, "p50_s"), "ms")
        out[f"{name}.p90_ms"] = (1e3 * get(name, "p90_s"), "ms")
    for kind in KINDS:
        name = f"analysis.analyze_detector.{kind}"
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")

    sc = doc["scenario"]
    M, N, K = sc["m_tx"], sc["n_rx"], sc["k_pulses"]
    systems = doc["sweep"]["points"] * (2 if doc.get("colocated_benchmark")
                                        else 1)
    noise_calls = get("montecarlo.draw_noise", "calls")
    out["montecarlo.draw_noise.ms_per_block"] = (per(
        get("montecarlo.draw_noise", "s"), noise_calls, 1e3), "ms")
    for det in ("ncd", "acd", "cd", "hd"):
        name = f"detectors.{det}"
        out[f"{name}.ms_per_block"] = (per(get(name, "s"),
                                           get(name, "calls"), 1e3), "ms")
    trials = doc.get("trials", 0)
    blocks_per_run = -(-trials // workloads.BLOCK_TRIALS)
    out["montecarlo.blocks_per_row"] = (per(
        noise_calls, simulated_systems * blocks_per_run), "count")
    # complex128 noise samples drawn, all blocks full (trials are a
    # multiple of the block size)
    out["montecarlo.noise_bytes"] = (
        noise_calls * workloads.BLOCK_TRIALS * M * N * K * 16, "B")
    out["scene.mf_output.per_row"] = (per(get("scene.mf_output", "calls"),
                                          rows_written), "calls/row")
    out["waveforms.caf.calls_per_point"] = (per(
        get("waveforms.caf", "calls"), systems * M * M * N), "count")
    out["waveforms.caf.us_per_call"] = (per(
        get("waveforms.caf", "s"), get("waveforms.caf", "calls"), 1e6), "us")
    out["experiments.load_s"] = (get("experiments.load", "s"), "s")
    return out


def per_layer(samples, doc):
    """Medians over the traced invocations; a value no invocation gave
    (all crashed) reads 0."""
    plain = [s for s in samples if not s["traced"] and "main_s" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    values = {k: (unit, []) for k, (_, unit)
              in _layer_values({}, doc, 0, 0).items()}
    for s in traced:
        for key, (v, unit) in _layer_values(
                s["layers"], doc, s["rows_written"],
                s["simulated_systems"]).items():
            values[key][1].append(v)
    out = {k: _metric(_median(v), unit) for k, (unit, v) in values.items()}
    out["cli.import_s"] = _metric(_median([s["import_s"] for s in plain]), "s")
    out["run.wall_s"] = _metric(_median([s["wall_s"] for s in plain]), "s")
    # wall times over their bracketing control, so host drift between the
    # traced and untraced invocations cancels
    rel_plain = _median([s["wall_s"] / s["control_s"] for s in plain])
    rel_traced = _median([s["wall_s"] / s["control_s"] for s in traced])
    out["trace.overhead_frac"] = _metric(
        rel_traced / rel_plain - 1.0 if rel_plain and rel_traced else 0.0,
        "frac")
    return out


# -- main -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd().resolve()
    if not (root / "src" / "dmimo" / "cli.py").is_file():
        print("error: src/dmimo/cli.py not found; run from the root of a "
              "dmimo checkout", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}" \
        f"-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + MAX_WALL_S
    runner = Runner(root, args.workload, args.seed, out_dir)
    runner.warm_up(timeout=MAX_WALL_S / 2)
    samples = runner.samples
    need = {False, True} if args.trace else {False}
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - t0 >= args.seconds and need <= {s["traced"] for s in samples}:
            break
        longest = max((s["wall_s"] for s in samples), default=0.0)
        if samples and now + 1.5 * longest + 5.0 > deadline:
            break
        # traced runs alternate with untraced ones, untraced first
        runner.invoke(traced=bool(args.trace) and len(samples) % 2 == 1,
                      timeout=deadline - now)

    reference = _reference_check(runner, args)
    metrics = per_layer(samples, runner.doc) if args.trace else \
        end_to_end(samples)
    failed = sum(s["failed"] for s in samples)
    correct = failed == 0 and not reference.get("problems")
    rows = sum(s["rows"] for s in samples)
    diagnostics = {
        "invocations": len(samples),
        "traced_invocations": sum(s["traced"] for s in samples),
        "failed_frac": (sum(s["rows"] - s["ok_rows"] for s in samples) / rows
                        if rows else 1.0),
        "error_rows_per_invocation": [s["error_rows"] for s in samples],
        "cli.gate_exit": [s["gate_exit"] for s in samples],
        "unscaled": _unscaled(samples),
        "csv_sha256": sorted({s["csv_sha256"] for s in samples}),
        "reference": reference,
        "problems": sorted({p for s in samples for p in s["problems"]}),
    }
    record = {
        "provenance": _provenance(root, runner.env, args.workload, args.seed,
                                  workloads.sha256(runner.exp_bytes)),
        "args": vars(args),
        "diagnostics": diagnostics,
        "metrics": metrics,
        "samples": samples,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1,
                                                    default=str))
    _print_report(args, samples, metrics, diagnostics)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def _unscaled(samples):
    """Medians of the untraced invocations before the control scaling."""
    timed = [s for s in samples if "main_s" in s and not s["traced"]
             and not s["raised"]]
    return {"setup_s": _median([s["wall_s"] - s["main_s"] for s in timed]),
            "work_per_s": _median([s["work"] / s["main_s"] for s in timed
                                   if s["main_s"] > 0]),
            "control_s": _median([s["control_s"] for s in samples
                                  if not s["traced"]])}


def _reference_check(runner, args):
    """At the default seed, compare the output with the stored reference
    within checks.REF_RTOL.  The SHA-256 of both is reported so a byte
    change is visible; only a value outside the tolerance is a problem."""
    ref_path = REFERENCE_DIR / f"{args.workload}.csv"
    if args.seed != workloads.DEFAULT_SEED or not ref_path.is_file():
        return {"compared": False}
    text = runner.last_good_csv
    if text is None:
        return {"compared": False, "problems": ["no valid output to compare"]}
    ref = ref_path.read_text()
    return {"compared": True,
            "sha256": workloads.sha256(text.encode()),
            "reference_sha256": workloads.sha256(ref.encode()),
            "problems": checks.compare_reference(text, ref,
                                                 runner.subcommand)}


def _print_report(args, samples, metrics, diag):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{diag['invocations']} invocations "
          f"({diag['traced_invocations']} traced)")
    n = sum(1 for s in samples if s["traced"] == bool(args.trace))
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']} (n={n})")
    if not args.trace:
        alias = "mc_trials_per_s" if args.workload == "mc_reference" \
            else "rows_per_s"
        raw = diag["unscaled"]
        print(f"  work_per_s is {alias} on this workload; setup_s and "
              f"work_per_s are in units of one control run "
              f"({raw['control_s']:.4g} s of wall time here)")
        print(f"  unscaled: setup_s {raw['setup_s']:.4g} s, work_per_s "
              f"{raw['work_per_s']:.6g} 1/s")
    print(f"  failed_frac {diag['failed_frac']:.6g}; cli.gate_exit "
          f"{diag['cli.gate_exit']}; csv sha256 {diag['csv_sha256']}")
    ref = diag["reference"]
    if ref.get("compared"):
        same = ref["sha256"] == ref["reference_sha256"]
        print(f"  reference: {len(ref['problems'])} values outside "
              f"{checks.REF_RTOL:g}; sha256 {'same' if same else 'differs'}")
    for p in diag["problems"]:
        print(f"  problem: {p}")


if __name__ == "__main__":
    sys.exit(main())
