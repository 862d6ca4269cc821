"""Run one meandrics CLI command in a fresh interpreter and measure it.

    python3 job.py RESULT_JSON SPAWN_TIME TRACE -- CLI_ARGS...

Stdout belongs to the command.  SPAWN_TIME is run.py's
``time.monotonic()`` just before it started this process, so interpreter
start plus ``import meandrics.cli`` is measured as a user pays it.  The
timed region is ``cli.main`` and the final stdout flush.  The result file
gets the exit code, the timings, CPU time, peak RSS and, with TRACE=1,
the spans recorded by ``tracing.install``.
"""

import sys
import time

from meandrics import cli

_READY = time.monotonic()

import json  # noqa: E402  (after the timed import)
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    result_path, spawned, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py RESULT_JSON SPAWN_TIME TRACE -- CLI_ARGS...")
    result = {"setup_s": _READY - float(spawned), "cli_file": cli.__file__}
    tracer = None
    if trace_flag == "1":
        import tracing                     # beside this script on sys.path
        tracer = tracing.Tracer()
        tracing.install(tracer)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:              # argparse usage errors
        code = exc.code
    except Exception:                      # reported as a failed job
        result["exception"] = traceback.format_exc()
        code = 70
    sys.stdout.flush()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    rc = code if isinstance(code, int) else (0 if code is None else 1)
    result["wall_s"] = wall
    result["cpu_s"] = ((after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime))
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
