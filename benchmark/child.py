"""One timed ``dmimo`` invocation, run as a child process by ``run.py``.

This is the ``dmimo`` console script (``from dmimo.cli import main;
sys.exit(main())``) with a clock around the import of ``dmimo.cli`` and
one around ``main``.  The parent measures the child's wall time; the wall
time minus ``main_s`` is the set-up time (interpreter start and imports).

    python3 child.py TIMING_JSON TRACE_JSON|- RUN_ID -- DMIMO_ARGS...

With a trace path the layer functions are wrapped by ``tracer.Tracer``
between the import and ``main`` and the spans are written to that path.
"""

import json
import sys
import time


def _run(timing_path, trace_path, run_id, argv):
    t0 = time.perf_counter()
    import dmimo.cli
    t1 = time.perf_counter()
    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer(run_id).install()
    record = {"import_s": t1 - t0, "module": dmimo.cli.__file__,
              "returned": None, "raised": None}
    t2 = time.perf_counter()
    c2 = time.process_time()
    try:
        code = dmimo.cli.main(argv)
        record["returned"] = code
        return code
    except SystemExit as exc:
        record["raised"] = "SystemExit"
        record["exit_code"] = exc.code if isinstance(exc.code, int) else 1
        raise
    except BaseException as exc:
        record["raised"] = type(exc).__name__
        raise
    finally:
        record["main_s"] = time.perf_counter() - t2
        record["main_cpu_s"] = time.process_time() - c2
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_path)
        with open(timing_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.exit("usage: child.py TIMING_JSON TRACE_JSON|- RUN_ID -- ARGS...")
    sys.exit(_run(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[5:]))
