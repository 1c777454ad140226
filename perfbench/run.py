"""Repository benchmark: one workload, one fresh process, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-zipf --seed 0 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off
in CPU seconds of the benchmark process (set-up includes its import
probes' CPU); wall-clock figures go to the run record only.
``--trace 1`` prints the per-layer metrics of a traced pass, run after a
warm-up pass and between two untraced passes whose median wall time
gives the tracing overhead.
``--corrupt`` damages one output before the correctness gate, which must
then fail (exit code 1).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full run record
(tier choices, gate notes, pass times) goes to ``.perfbench/runs/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Set-up repeats per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: Fresh-interpreter import probes per run (median taken).
IMPORT_REPEATS = 5

#: Seed used while developing the benchmark and any change measured
#: with it; gain claims must also hold on the held-out seed 97.
DEV_SEED = 0

WORKLOAD_NAMES = ("paper-figures", "fleet-zipf", "fleet-retuned", "stream-fleet")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds() -> float:
    """CPU seconds a fresh interpreter takes to start and import the
    benchmark and the program (median of ``IMPORT_REPEATS`` processes)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    samples = []
    for _ in range(IMPORT_REPEATS):
        began = children_cpu_s()
        subprocess.run(
            [sys.executable, "-c", "import perfbench.workloads"],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        samples.append(children_cpu_s() - began)
    return statistics.median(samples)


def release_free_memory() -> None:
    """Collect garbage and hand freed heap pages back to the system, so
    each pass's peak RSS starts from the same floor."""
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (``VmHWM``) at the current RSS,
    so each pass reports its own peak; a no-op where not permitted."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss` (process peak where
    ``/proc`` is unavailable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output; the gate must fail")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before NumPy loads: the program runs serially,
    # and an idle BLAS worker spinning on the second core adds CPU time
    # that depends on the host.  The import probes inherit it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    from perfbench import workloads
    from perfbench.instrument import instrument
    from perfbench.tiers import TierLog
    from perfbench.tracer import Tracer

    imported_s = time.perf_counter() - STARTED
    tier_log = TierLog()
    tier_log.install()
    cell_timer = workloads.CellTimer()
    cell_timer.install()
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.PaperFigures:
        workload = cls(args.seed, workdir, cell_timer)
    else:
        workload = cls(args.seed, workdir)
    tracer = Tracer() if args.trace else None
    counters = instrument(tracer) if tracer else None

    repeats = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.enabled = True
        began = time.process_time()
        workload.setup()
        repeats.append(time.process_time() - began)
        if tracer:
            tracer.enabled = False
    setup_s = (0.0 if tracer else import_seconds()) + statistics.median(repeats)
    # Pass 0 warms the process up (first imports of lazily loaded code,
    # allocator growth) and is gated but not measured.  Untraced runs:
    # a fixed count of measured passes per run length.  Traced runs: the
    # traced pass between two untraced ones, whose median wall time is
    # the overhead's baseline.
    schedule = (
        [False, False, True, False] if tracer
        else [False] * (1 + workload.passes_for(args.seconds))
    )
    began = time.perf_counter()
    workload.generate(len(schedule))
    generate_s = time.perf_counter() - began

    verdict = workloads.Verdict(attempted=0)
    passes = []
    peaks = []
    traced = None
    for index, on in enumerate(schedule):
        workload.prepare_pass(index)
        # Each pass starts from a collected, trimmed heap, with everything
        # set-up left behind moved out of the collector's reach, and its
        # own peak-RSS mark.
        release_free_memory()
        gc.freeze()
        reset_peak_rss()
        if on:
            tiers_before = tier_log.counts.copy()
            tracer.enabled = True
        result = workload.run_pass(index)
        if on:
            tracer.enabled = False
            chosen = tier_log.counts - tiers_before
            traced = result
        peaks.append(peak_rss_mb())
        if args.corrupt and index == 0:
            workload.corrupt(result)
        workload.check_pass(index, result, verdict)
        result.output = None
        passes.append(result)
    verdict.failed = min(verdict.failed, verdict.attempted)
    tiers = tier_log.summary()

    measured, peaks = passes[1:], peaks[1:]
    walls = [p.wall_s for p in measured]
    cpus = [p.cpu_s for p in measured]
    p50s = [percentile(p.latencies_s, 50) * 1e3 for p in measured]
    p90s = [percentile(p.latencies_s, 90) * 1e3 for p in measured]
    latencies = [x for p in measured for x in p.latencies_s]
    if tracer:
        untraced = statistics.median(p.wall_s for p in measured if p is not traced)
        metrics = per_layer(tracer, counters, traced, chosen, untraced)
        spans = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        tracer.restore()
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "ops_per_cpu_s": (sum(p.ops for p in measured) / sum(cpus), "1/s"),
            "cpu_latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "cpu_latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    correct = verdict.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corrupt": args.corrupt,
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "error_rate": verdict.failed / verdict.attempted,
        "gate_notes": verdict.notes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "import_s": imported_s,
        "setup_repeats_s": repeats,
        "generate_s": generate_s,
        "pass_walls_s": walls,
        "pass_cpus_s": cpus,
        "pass_cpu_latency_p50_ms": p50s,
        "pass_cpu_latency_p90_ms": p90s,
        "pass_peak_rss_mb": peaks,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(p.ops / p.wall_s for p in measured),
        "warmup_cpu_s": passes[0].cpu_s,
        "latency_samples": len(latencies),
        "cpu_latency_ms_by_percentile": {
            q: percentile(latencies, q) * 1e3 for q in (50, 90, 95, 99)
        },
        "tiers": tiers,
    }
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for note in verdict.notes:
        print(f"gate: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def per_layer(tracer, counters, traced, chosen, untraced_wall):
    """Every per-layer metric: span totals (set-up repeats plus the
    traced pass) and counters read during the traced pass."""
    from perfbench.layers import per_layer_metrics
    from perfbench.workloads import skew

    totals = tracer.totals()
    counts = traced.counts
    waits = [w for w in traced.waits_s if math.isfinite(w)]
    values = {
        "service.rejected": counts.get("service.rejected", 0),
        "queue.wait_ms_p50": percentile(waits, 50) * 1e3 if waits else 0.0,
        "queue.wait_ms_p99": percentile(waits, 99) * 1e3 if waits else 0.0,
        "cluster.shard_busy_skew": skew(list(counters.busy_ns.values())),
        "router.accept_skew": counts.get("router.accept_skew", 0.0),
        "scheduler.entries": counters.entries,
        "scheduler.engine_runs": counters.engine_runs,
        "scheduler.dedup_ratio": (
            1.0 - counters.engine_runs / counters.entries
            if counters.entries else 0.0
        ),
        "engine.cache_hit_ratio": counts.get("engine.cache_hit_ratio", 0.0),
        "costmodel.choose.compiled": chosen.get("compiled", 0),
        "costmodel.choose.fused": chosen.get("fused", 0),
        "costmodel.choose.rounds": chosen.get("rounds", 0),
        "hub.batch_rows": counters.batch_rows,
        "hub.padding_ratio": (
            counters.padded_cells / counters.valid_cells
            if counters.valid_cells else 1.0
        ),
        "ingest.backlog_max": counters.backlog_max,
        "ingest.lag_s_max": counters.lag_s_max,
        "journal.bytes": counts.get("journal.bytes", 0),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
    }
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        if name.endswith(".calls"):
            value = totals.get(name[: -len(".calls")], (0, 0.0))[0]
        elif name.endswith(".self_s"):
            value = totals.get(name[: -len(".self_s")], (0, 0.0))[1]
        else:
            value = values[name]
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
