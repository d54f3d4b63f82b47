import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_reference", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "src/dmimo/cli.py not found" in proc.stderr


@pytest.mark.parametrize("trace,keys", [
    ("0", {"setup_s", "work_per_s", "peak_rss_mib", "ok_row_frac"}),
    ("1", {"montecarlo.draw_noise.calls", "montecarlo.blocks_per_row",
           "waveforms.caf.calls_per_point", "trace.overhead_frac"}),
])
def test_result_line(trace, keys):
    proc = _run(ROOT, "--workload", "mc_reference", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert keys <= set(result["metrics"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[group]}
    for m in bench[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _sample(traced=False, wall=3.0, main=2.0, control=1.0, raised=None):
    s = {"traced": traced, "wall_s": wall, "control_s": control,
         "rss_kib": 102400, "raised": raised, "rows": 4, "ok_rows": 4,
         "work": 4, "rows_written": 4, "simulated_systems": 1}
    if main is not None:
        s.update(main_s=main, import_s=0.5)
    return s


def test_end_to_end_divides_by_the_control():
    import run
    m = run.end_to_end([_sample(control=2.0)])
    assert m["setup_s"]["value"] == pytest.approx(0.5)
    assert m["work_per_s"]["value"] == pytest.approx(4.0)
    assert m["ok_row_frac"]["value"] == 1.0


def test_end_to_end_reports_a_total_crash():
    import run
    crashed = _sample(raised="RuntimeError")
    crashed["ok_rows"] = 0
    m = run.end_to_end([crashed, _sample(main=None, raised="no timing")
                        | {"ok_rows": 0}])
    assert m["setup_s"]["value"] == pytest.approx(3.0)
    assert m["work_per_s"]["value"] == 0.0
    assert m["ok_row_frac"]["value"] == 0.0


def test_overhead_frac_cancels_host_drift():
    import run
    import workloads
    doc = workloads.generate("analytic_wideband", 1)
    traced = _sample(traced=True, wall=6.0, control=2.0)
    traced["layers"] = {}
    m = run.per_layer([_sample(wall=3.0, control=1.0), traced], doc)
    assert m["trace.overhead_frac"]["value"] == pytest.approx(0.0)
    assert m["waveforms.caf.calls"]["value"] == 0.0
