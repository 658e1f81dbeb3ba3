"""One benchmark round in a fresh interpreter.

    python3 perfbench/workload.py PLAN.json RESULT.json

PLAN.json names the source directory to import ``cascade`` from, the
argument lists to pass to ``cascade.cli.main`` and whether to trace.
The round times the import of ``cascade.cli`` (``setup_s``), then the
calls (``wall_s``, and ``cpu_s`` as user plus system time of this
process and the children it waited for, such as the harness's worker
pool), and records the peak resident set of this process and of its
largest child.  Each call's exit code and standard output go to
RESULT.json for the checks.  With ``"setup_only"`` the round stops after
the import; with ``"trace_dir"`` it records layer spans there
(``tracer.py``), and with ``"count_leq"`` it also counts order-oracle
calls.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _usage() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import cascade.cli as cli

    result = {"setup_s": time.perf_counter() - start}
    if not plan.get("setup_only"):
        tracer = None
        if plan.get("trace_dir"):
            import tracer as tracing

            tracer = tracing.Tracer(plan["trace_dir"])
            tracing.install(tracer, count_leq=plan.get("count_leq", False))
        calls = []
        cpu0, _ = _usage()
        start = time.perf_counter()
        for argv in plan["calls"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # the check reports the failed call
                    rc = "exception: " + traceback.format_exc(limit=-3)
            calls.append({"rc": rc, "stdout": out.getvalue()})
        result["wall_s"] = time.perf_counter() - start
        cpu1, peak = _usage()
        result.update(cpu_s=cpu1 - cpu0, peak_rss_mb=peak, calls=calls)
        if tracer is not None:
            tracer.flush()
            result["layers"] = tracing.metrics(*tracing.collect(plan["trace_dir"]))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
