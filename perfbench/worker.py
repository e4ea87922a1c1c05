"""One cold benchmark process: set up one workload, run it once, report.

Usage: python3 perfbench/worker.py WORKLOAD MODE SEED

MODE is ``setup`` (stop at the first call, so only set-up is timed), ``run``
(run the workload untraced) or ``trace`` (run it with the tracer installed).
ennola must be importable; run.py puts the checkout's ``src`` on PYTHONPATH.
A CLI workload writes its document to stdout, which run.py hashes. The report
is the last line of stderr, a JSON object after ``perfbench-report ``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import workloads

REPORT_PREFIX = "perfbench-report "


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB. ru_maxrss is not used: at
    exec, Linux carries the spawning process's peak over into it."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _failure() -> str:
    import traceback

    return traceback.format_exc(limit=-3)


def _run_cli(ennola, argv: list[str], tracer) -> dict:
    error = None
    start = time.perf_counter()
    try:
        if tracer:
            with tracer.span("workload"):
                code = ennola.cli.main(argv)
                sys.stdout.flush()
        else:
            code = ennola.cli.main(argv)
            sys.stdout.flush()
        if code != 0:
            error = f"main() returned {code}"
    except (Exception, SystemExit):
        error = _failure()
    end = time.perf_counter()
    if tracer and tracer.library_end is not None:
        tracer.add_span("render", tracer.library_end, end, parent=0)
    return {"wall_s": end - start, "attempted": 1, "failed": int(error is not None),
            "error": error}


def _run_products(ennola, pairs: list, tracer) -> dict:
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    latencies = []
    failed = 0
    error = None
    start = time.perf_counter()
    with span("workload"):
        for ma, mb in pairs:
            t0 = time.perf_counter()
            with span("pair"):
                try:
                    a, b = ennola.pi_class(ma), ennola.pi_class(mb)
                    ok = ennola.star_product(a, b) == ennola.circ_product(a, b)
                    if not ok and error is None:
                        error = f"star != circ at {ma} x {mb}"
                except Exception:
                    ok = False
                    error = error or _failure()
            latencies.append(time.perf_counter() - t0)
            failed += not ok
    wall = time.perf_counter() - start
    if len(pairs) != workloads.PRODUCTS_PAIRS:
        error = f"{len(pairs)} pairs, expected {workloads.PRODUCTS_PAIRS}"
        failed = len(pairs)
    return {"wall_s": wall, "attempted": len(pairs), "failed": failed, "error": error,
            "op_s": latencies}


def main() -> None:
    name, mode, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    import ennola

    if name in workloads.CLI_ARGV:
        import ennola.cli

        argv = list(workloads.CLI_ARGV[name])
    else:
        pairs = workloads.product_pairs(ennola.enumerate_mp, seed)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(workloads.LIBRARY_CALL.get(name))
        tracer.install()
    report = {"first_call": time.monotonic()}

    if mode != "setup":
        if name in workloads.CLI_ARGV:
            report.update(_run_cli(ennola, argv, tracer))
        else:
            report.update(_run_products(ennola, pairs, tracer))
        report["rss_kb"] = _peak_rss_kb()
        if tracer:
            report["trace"] = tracer.metrics()
            report["calls"] = {key: {"calls": n, "self_s": t} for key, (n, t) in tracer.stats.items()}
            report["spans"] = tracer.spans
    sys.stderr.write(REPORT_PREFIX + json.dumps(report) + "\n")
    sys.stderr.flush()


if __name__ == "__main__":
    main()
