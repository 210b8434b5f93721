"""Runs one `pacreason` invocation in this fresh interpreter and prints one
JSON line describing it.

    python3 child.py TRACE INVOCATION_ID ARGV_JSON

The import of `pacreason.cli` is timed first, before anything else is
imported, because that is the fixed cost every `pacreason` invocation pays.
With TRACE=1 the public functions of each module are wrapped (see
tracing.py) and the spans are returned with the result.  The CLI's stdout is
captured and returned as `report`.  A fixed pure-Python loop is timed just
before and just after the run: `calibration_s`, the host's speed at the time
of the measurement.
"""

import sys
import time

started = time.perf_counter()
import pacreason.cli  # noqa: E402

setup_s = time.perf_counter() - started

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed loop of the dict, set and integer work that
    pacreason's own inner loops are made of."""
    begin = time.perf_counter()
    table = {}
    for i in range(60000):
        key = frozenset((i % 97, -(i % 89)))
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - begin


def main() -> None:
    trace = sys.argv[1] == "1"
    argv = json.loads(sys.argv[3])
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(sys.argv[2])
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    crash = None
    calibration_s = calibrate()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pacreason.cli.main(argv)
        except Exception:  # a crash is reported as a failed invocation
            rc, crash = None, traceback.format_exc()
    elapsed = time.perf_counter() - begin
    calibration_s = (calibration_s + calibrate()) / 2
    result = {
        "module": pacreason.cli.__file__,
        "setup_s": setup_s,
        "run_s": elapsed,
        "calibration_s": calibration_s,
        "rc": rc,
        "crash": crash,
        "stderr": err.getvalue()[-2000:],
        "report": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
