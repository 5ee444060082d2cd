"""Repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adhoc_sql --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs a fixed amount of work twice, untraced then traced, and reports
the per-layer metrics: span self times, work counts and ratios, and
the tracing overhead (traced wall minus untraced wall).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary, the host fingerprint and the answer digests.

Each run writes under ``.perfbench-out/`` in the checkout: a fresh
``REPRO_KERNEL_CACHE_DIR`` (removed at exit), ``result.json`` and, for
traced runs, ``trace.json`` (Chrome trace-event format).
"""

from __future__ import annotations

import os

# One thread: pin the numeric libraries before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SPIN_ITERATIONS = 1_000_000
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 9

#: Per-layer self times reported in seconds, by span name.
LAYER_SPANS = (
    "relational.datagen", "relational.sql_parse",
    "hardware.fabric_build", "optimizer.optimize", "engine.compile",
    "engine.dataflow_execute", "engine.dataflow_run",
    "engine.volcano_run", "obs.checksum", "serve.run",
    "serve.telemetry_finalize", "analysis.observatory_finalize",
    "serve.report", "serve.accounting_check", "serve.telemetry_check",
    "analysis.observatory_check", "serve.oracle_check",
)
OBSERVER_SPANS = (
    "serve.telemetry_finalize", "analysis.observatory_finalize",
    "serve.accounting_check", "serve.telemetry_check",
    "analysis.observatory_check", "serve.oracle_check",
)
COUNTS = ("flow.messages", "engine.rows_in", "engine.kernel_cache_lookups",
          "serve.plan_cache_lookups", "analysis.observatory_windows",
          "serve.telemetry_windows", "serve.telemetry_exemplars")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    """What a cross-host comparison must match to be valid."""
    import numpy as np
    spins = []
    for _ in range(3):
        started = time.perf_counter()
        for _i in range(SPIN_ITERATIONS):
            pass
        spins.append(time.perf_counter() - started)
    flags = {k: v for k, v in sorted(os.environ.items())
             if k.startswith("REPRO_") and k != "REPRO_KERNEL_CACHE_DIR"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "spin_1m_s": statistics.median(spins),
        "repro_flags": flags,
    }


def fresh_kernel_cache(run_dir: str) -> None:
    """Point the kernel cache at a new empty directory, cold in memory.

    No run then depends on kernels an earlier run left behind, and
    nothing is written outside the checkout.
    """
    os.environ["REPRO_KERNEL_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="kernels-", dir=run_dir)
    try:
        from repro.engine import codegen
    except ImportError:     # no compiled kernels in this version
        return
    codegen.reset()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-int(q) * len(ordered) // 100))
    return ordered[rank - 1] if ordered else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_steps(workload, tracer, tally, steps=None, seconds=0.0) -> float:
    """Run ``steps`` steps, or until ``seconds`` and the minimum pass."""
    started = time.perf_counter()
    done = 0
    while True:
        workload.step(tracer, tally)
        done += 1
        elapsed = time.perf_counter() - started
        if steps is not None:
            if done >= steps:
                return elapsed
        elif elapsed >= seconds and done >= workload.min_steps:
            return elapsed


def measure_untraced(workload, args, tally):
    from spans import NULL_TRACER
    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        workload.setup(NULL_TRACER, tally)
        setups.append(time.perf_counter() - started)
    with workload.observe_host_latency(tally):
        timed = run_steps(workload, NULL_TRACER, tally,
                          seconds=args.seconds)
    sim = workload.sim_metrics(tally)
    completed = len(tally.latencies_ms)
    metrics = {
        "queries_per_s": (ratio(completed, timed), "1/s"),
        "query_p50_ms": (percentile(tally.latencies_ms, 50), "ms"),
        "query_p90_ms": (percentile(tally.latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_s": (sim["sim_s"], "sim_s"),
        "sim_moved_mb": (sim["sim_moved_mb"], "sim_MB"),
        "sim_p99_ms": (sim["sim_p99_ms"], "sim_ms"),
        "sim_goodput_qps": (sim["sim_goodput_qps"], "sim_1/s"),
    }
    notes = {"timed_s": timed, "latency_samples": completed,
             "setup_samples_s": setups, "digests": sim["digests"]}
    return metrics, notes


def measure_traced(workload, args, tally, run_dir):
    from spans import NULL_TRACER, Tracer
    from workloads import SEGMENTS, Tally
    from repro.engine import DataflowEngine
    from repro.flow.stages import StageGraph
    from repro.optimizer import Optimizer

    steps = workload.trace_steps

    def untraced_pass() -> float:
        fresh_kernel_cache(run_dir)
        workload.restart()
        started = time.perf_counter()
        workload.setup(NULL_TRACER, tally)
        run_steps(workload, NULL_TRACER, tally, steps=steps)
        return time.perf_counter() - started

    workload.setup(NULL_TRACER, tally)          # warm, not measured
    before = untraced_pass()

    fresh_kernel_cache(run_dir)
    workload.restart()
    traced = Tally()
    tracer = Tracer()
    tracer.patch(Optimizer, "rank", "optimizer.optimize",
                 on_result=lambda ranked: tracer.count(
                     "optimizer.placements_ranked", len(ranked)))
    tracer.patch(DataflowEngine, "compile", "engine.compile")
    tracer.patch(StageGraph, "run", "engine.dataflow_run")
    try:
        with tracer.span("bench"):
            workload.setup(tracer, traced)
            run_steps(workload, tracer, traced, steps=steps)
    finally:
        tracer.uninstall()
    # The untraced wall brackets the traced pass, so a slow drift of
    # the host does not read as tracing overhead.
    untraced_wall = (before + untraced_pass()) / 2
    root = tracer.spans[0]
    traced_wall = root[2] - root[1]
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.failures += traced.failures
    tracer.write_chrome(os.path.join(run_dir, "trace.json"),
                        f"perfbench {args.workload} (host wall clock)")

    self_times = tracer.self_times()
    self_sum = sum(self_times.values())
    if abs(self_sum - traced_wall) > 1e-6 * max(1.0, traced_wall):
        tally.fail(f"span self times sum to {self_sum} s, traced wall "
                   f"is {traced_wall} s")
    counts = dict(traced.counts)
    counts.update(tracer.counts)
    metrics = {f"{name}_s": (self_times.get(name, 0.0), "s")
               for name in LAYER_SPANS}
    metrics["bench.harness_s"] = (
        self_times.get("bench", 0.0) + self_times.get("bench.query", 0.0),
        "s")
    for name in COUNTS + ("optimizer.placements_ranked",):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["engine.kernel_cache_hit_ratio"] = (ratio(
        counts.get("engine.kernel_cache_hits", 0),
        counts.get("engine.kernel_cache_lookups", 0)), "ratio")
    metrics["serve.plan_cache_hit_ratio"] = (ratio(
        counts.get("serve.plan_cache_hits", 0),
        counts.get("serve.plan_cache_lookups", 0)), "ratio")
    # Running the simulated data flow: StageGraph.run for standalone
    # statements; the serving session itself (front-end, scheduler and
    # simulation of every query) on serve_mix.
    run_s = (self_times.get("engine.dataflow_run", 0.0)
             + self_times.get("serve.run", 0.0))
    metrics["engine.run_us_per_message"] = (
        ratio(run_s * 1e6, counts.get("flow.messages", 0)), "us")
    metrics["engine.run_ns_per_row"] = (
        ratio(run_s * 1e9, counts.get("engine.rows_in", 0)), "ns")
    observers = sum(self_times.get(name, 0.0) for name in OBSERVER_SPANS)
    metrics["analysis.observer_share"] = (
        ratio(observers, self_times.get("serve.run", 0.0)), "ratio")
    for segment in SEGMENTS:
        metrics[f"sim.moved_bytes.{segment}"] = (
            counts.get(f"sim.moved_bytes.{segment}", 0), "bytes")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_share"] = (
        ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.steps"] = (steps, "count")
    notes = {"self_sum_s": self_sum, "traced_wall_s": traced_wall,
             "observer_base_serve_run_s": self_times.get("serve.run", 0.0)}
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout; "
              f"no src/repro under {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    from workloads import WORKLOADS, Tally, make_workload
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-",
        dir=os.path.join(root, OUT_DIR))
    try:
        fresh_kernel_cache(run_dir)
        host = host_fingerprint()
        workload = make_workload(args.workload, args.seed)
        tally = Tally()
        if args.trace:
            metrics, notes = measure_traced(workload, args, tally,
                                            run_dir)
        else:
            metrics, notes = measure_untraced(workload, args, tally)
    finally:
        for entry in os.listdir(run_dir):
            if entry.startswith("kernels-"):
                shutil.rmtree(os.path.join(run_dir, entry),
                              ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "notes": notes,
              "failures": tally.failures[:50], **result}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for message in tally.failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} -> {run_dir}")
    print("host " + json.dumps(host, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:>16.6f} {unit}")
    print(f"  {'failed_share':36} "
          f"{ratio(tally.failed, tally.attempted):>16.6f} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
