"""Benchmark of ennola: cold-process workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of table, model, products (see README.md), or ``all``
to run each in turn. Every workload run is a fresh single-threaded Python
process started by worker.py, one at a time, so the functools caches start
empty as on every CLI call and the peak resident set belongs to one workload
run.

With --trace 0, after the set-up probes, workload runs repeat while the next
one is expected to end within S seconds of the start (at least one runs). The
last line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json: medians over the runs of wall_s and peak_rss_mb, the median
of setup_s over probes and runs, and op_p50_ms and op_p95_ms over every op.
An op is one product pair on products, and one CLI call from process start to
exit on the CLI workloads. Every time is scaled to a reference host speed,
measured by a calibration loop that runs on the other CPU meanwhile.

With --trace 1, one untraced and one traced workload run are made, whatever
S is, and the last line holds the per-layer metrics of BENCHMARK.json; the
full spans are written to perfbench/out/.

Exit status 0 when a result is printed, whether or not every op succeeded;
2 when the benchmark cannot run, for example without ennola sources beside it
or with fewer than two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"
REPORT_PREFIX = "perfbench-report "

# Set-up takes about 0.11 s and moves by tens of percent from one process to
# the next on a shared host, so its median needs several samples. Each probe
# costs about 0.2 s of the run; more would leave room for fewer workload runs.
SETUP_PROBES = 8
# Leaves a run that hangs in its last worker within 180 s overall.
WORKER_TIMEOUT_S = 120
# The speed of a shared host drifts, on a 2-vCPU virtual machine by up to 2x
# within half an hour, and alike on both of its cores. So while a worker runs,
# the harness runs a fixed calibration loop on the other core, and every
# end-to-end time is scaled by the loop's rate over the benchmark run's
# workers relative to this one (chunks per second, a typical rate on a 2-vCPU
# Xeon at 2.1 GHz). README.md gives the spreads with and without scaling.
REFERENCE_RATE = 5500.0


class WorkerFailed(Exception):
    """A worker process ended without a report."""


def _calibration_chunk() -> None:
    """A fixed piece of pure-Python work, about 0.2 ms on the reference host."""
    total = 0
    for i in range(2000):
        total += i * i % 7


def _calibrate_until_exit(proc: subprocess.Popen) -> tuple[int, float]:
    """Run calibration chunks until proc exits; return how many ran and when
    proc was seen to exit. Kills proc if it outlives WORKER_TIMEOUT_S."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    chunks = 0
    while proc.poll() is None:
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(proc.args, WORKER_TIMEOUT_S)
        _calibration_chunk()
        chunks += 1
    return chunks, time.monotonic()


def spawn(workload: str, mode: str, seed: int, checker=None) -> dict:
    """Run one worker process and return its report, with the harness's
    timings, the calibration chunks run meanwhile and, for a CLI workload, the
    checks of its stdout."""
    # A fixed hash seed keeps set and dict orders, and so the order of work,
    # the same in every process; with random seeds wall_s moved by up to 8 %.
    # Bytecode caches are written and used, as in an installed package.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Output goes to files, not pipes, so the worker never waits on the
    # harness while the harness runs the calibration loop.
    OUT.mkdir(exist_ok=True)
    stdout_file, stderr_file = OUT / "worker.stdout", OUT / "worker.stderr"
    with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, mode, str(seed)],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        try:
            chunks, end = _calibrate_until_exit(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    stdout = stdout_file.read_bytes()
    lines = stderr_file.read_text(errors="replace").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(REPORT_PREFIX):
        tail = "\n".join(lines[-15:])
        raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode}:\n{tail}")
    report = json.loads(lines[-1][len(REPORT_PREFIX):])
    report["setup_s"] = report["first_call"] - start
    report["life_s"] = end - start
    report["chunks"] = chunks
    report["bytes_out"] = len(stdout)
    report["problems"] = [report["error"]] if report.get("error") else []
    report["inputs"] = {}
    if checker and workload in workloads.CLI_ARGV:
        inputs, problems = checker.check(workload, stdout)
        report["inputs"] = {**inputs, "output_bytes": len(stdout)}
        report["problems"] += problems
        report["failed"] = max(report["failed"], int(bool(problems)))
    return report


def quantile(values: list[float], p: float) -> float:
    """The p-quantile, p in hundredths, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def host_speed(reports: list[dict]) -> float:
    """The calibration loop's rate while these workers ran, as a share of
    REFERENCE_RATE: below 1 on a host slower than the reference."""
    seconds = sum(r["life_s"] for r in reports)
    return sum(r["chunks"] for r in reports) / seconds / REFERENCE_RATE


def run_workload(workload: str, seed: int, seconds: int, trace: bool, checker) -> dict:
    deadline = time.monotonic() + seconds
    spawn(workload, "setup", seed)  # warm-up: bytecode and file cache; not timed
    if trace:
        runs = [spawn(workload, mode, seed, checker) for mode in ("run", "trace")]
    else:
        setups = [spawn(workload, "setup", seed) for _ in range(SETUP_PROBES)]
        runs = []
        while not runs or time.monotonic() + max(r["life_s"] for r in runs) <= deadline:
            runs.append(spawn(workload, "run", seed, checker))

    result = {
        "workload": workload,
        "seed": seed,
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "inputs": runs[-1]["inputs"],
    }
    if workload in workloads.CLI_ARGV:
        result["inputs"]["seed"] = "ignored: the CLI workloads are deterministic"
    else:
        result["inputs"].update(
            pairs=runs[-1]["attempted"], q=workloads.PRODUCTS_Q,
            max_size=workloads.PRODUCTS_MAX_SIZE, seed=seed,
        )

    if trace:
        untraced, traced = runs
        metrics = {
            **traced["trace"],
            "cli.bytes_out": traced["bytes_out"],
            "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"]) * host_speed(runs),
        }
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"trace-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "metrics": metrics,
            "calls": traced["calls"], "spans": traced["spans"],
        }))
        result["note"] = f"spans in {spans_file.relative_to(ROOT)}"
    else:
        speed = host_speed(setups + runs)
        if workload in workloads.CLI_ARGV:
            ops_ms = [r["life_s"] * 1000 for r in runs]
        else:
            ops_ms = [t * 1000 for r in runs for t in r["op_s"]]
        wall_s = statistics.median(r["wall_s"] for r in runs)
        result["note"] = (
            f"{len(setups) + len(runs)} set-up samples, {len(ops_ms)} op samples; "
            f"host speed {speed:.4f} of the reference, unscaled wall_s {wall_s:.6g} s"
        )
        metrics = {
            "wall_s": wall_s * speed,
            "setup_s": statistics.median(r["setup_s"] for r in setups + runs) * speed,
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in runs),
            "op_p50_ms": statistics.median(ops_ms) * speed,
            "op_p95_ms": quantile(ops_ms, 0.95) * speed,
        }
    result["metrics"] = metrics
    return result


def print_summary(result: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']}: {result['runs']} workload runs, seed {result['seed']}")
    print("inputs: " + json.dumps(result["inputs"]))
    for name, unit in units.items():
        print(f"  {name:44} {result['metrics'][name]:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':44} {ratio:.6g} ({result['failed']}/{result['attempted']} ops)")
    print(f"  {result['note']}")
    for problem in result["problems"]:
        print("  problem: " + problem.replace("\n", "\n    "))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if len(os.sched_getaffinity(0)) < 2:
        print("perfbench: needs two CPUs, one for the workload and one for "
              "the calibration loop", file=sys.stderr)
        return 2
    if not (SRC / "ennola" / "__init__.py").is_file():
        print(f"perfbench: no ennola sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    from checks import OutputChecker  # imports ennola, so only after the path is set

    checker = OutputChecker()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, trace, checker) for w in names]
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        if set(result["metrics"]) != set(units):
            print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
            return 2
        print_summary(result, units)

    def metrics_of(result: dict, prefix: str = "") -> dict:
        return {prefix + name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {k: v for r in results for k, v in metrics_of(r, r["workload"] + ":").items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
