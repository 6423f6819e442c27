"""Campaign-level benchmark of the MPLS tunnel-discovery pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload campaign_cold --seed 1 \
        --seconds 20 --trace 0

Set-up runs ``SETUP_UNITS`` times (``setup_s`` = imports plus their
median), then a closed-loop window of ``--seconds`` times ops with
tracing off.  ``--trace 1`` follows it with a second, traced window
of the same length over the same op sequence and reports per-layer
numbers instead, plus the tracing overhead (traced minus untraced
``op_ms_p50``).  See ``perfbench/README.md`` for the workloads, the
metrics and which layer metric should move which end-to-end metric.

The last line of standard output is the JSON result; the line before
it stamps the host (reported only, never used to normalise).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
#: Outputs (span files, scratch warehouses and probe logs), relative
#: to the working directory — the checkout being measured.
OUTPUT_DIR = Path(".perfbench")
WORKLOAD_NAMES = (
    "campaign_cold", "serve_tenants", "monitor_epochs", "replay_analysis",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop (host drift marker)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return round(statistics.median(samples), 3)


def host_stamp() -> dict:
    """What the run ran on; reported only."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "calibration_ms": calibration_ms(),
    }


def tail_ms(values):
    """The highest percentile with at least ten samples beyond it:
    the 11th-slowest value.  Returns (value, percentile, samples)."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def end_to_end(ops, elapsed: float, setup_s: float) -> dict:
    latencies = [op.seconds * 1000.0 for op in ops if op.ok]
    tail, _, _ = tail_ms(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / elapsed if elapsed else 0.0, "1/s"),
        "op_ms_mean": (
            statistics.fmean(latencies) if latencies else 0.0, "ms"
        ),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(traced, untraced, layer_of, layers) -> dict:
    """Per-op means of the traced window's layer numbers."""
    ops = [op for op in traced if op.ok and op.trace is not None]
    count = max(1, len(ops))

    def total(field, names):
        return sum(
            getattr(op.trace, field).get(name, 0)
            for op in ops for name in names
        )

    def per_op_ms(field, *names):
        return (total(field, names) * 1000.0 / count, "ms")

    def counter(name):
        return sum(op.counts.get(name, 0) for op in ops)

    def per_op(name):
        return (counter(name) / count, "count")

    def ratio(hits, base):
        return (hits / base if base else 0.0, "ratio")

    names_of = {layer: [] for layer in layers}
    for name, layer in layer_of.items():
        names_of[layer].append(name)
    metrics = {
        f"{layer}.self_ms": per_op_ms("selves", *names_of[layer])
        for layer in layers
    }
    walls = [op.seconds * 1000.0 for op in ops]
    spans_self = sum(
        sum(op.trace.selves.values()) for op in ops
    ) * 1000.0
    metrics["other.self_ms"] = ((sum(walls) - spans_self) / count, "ms")
    hits = counter("engine.trajectory_hits")
    lookups = hits + counter("engine.trajectory_misses")
    cache_hits = counter("measure.cache.hits")
    requests = cache_hits + counter("measure.probes")
    attempts = counter("revelation.attempts")
    carried = counter("monitor.pairs_skipped")
    pairs = carried + counter("monitor.pairs_reprobed")
    untraced_p50 = statistics.median(
        [op.seconds * 1000.0 for op in untraced if op.ok] or [0.0]
    )
    traced_p50 = statistics.median(walls or [0.0])
    metrics.update({
        "synth.render_ms": per_op_ms("incl", "synth.render"),
        "synth.churn_ms": per_op_ms("incl", "synth.churn"),
        "routing.calls": (
            total("calls", ["routing.resolve"]) / count, "count"
        ),
        "dataplane.packets_simulated": per_op("engine.packets_simulated"),
        "dataplane.hops_walked": per_op("engine.hops_walked"),
        "dataplane.trajectory_hit_ratio": ratio(hits, lookups),
        "dataplane.trajectory_lookups": (lookups / count, "count"),
        "dataplane.cached_trajectories": per_op("cached_trajectories"),
        "measure.probes": per_op("measure.probes"),
        "measure.cache_hit_ratio": ratio(cache_hits, requests),
        "measure.requests": (requests / count, "count"),
        "measure.retries": per_op("measure.retries"),
        "measure.replay_load_ms": per_op_ms("incl", "measure.replay_load"),
        "faults.injected": per_op("faults.injected"),
        "core.reveal_success_ratio": ratio(
            counter("campaign.revelations.success"), attempts
        ),
        "core.reveal_attempts": (attempts / count, "count"),
        "campaign.trace_ms": per_op_ms("incl", "campaign.trace"),
        "campaign.ping_ms": per_op_ms("incl", "campaign.ping"),
        "campaign.extract_ms": per_op_ms("incl", "campaign.extract"),
        "campaign.revelation_ms": per_op_ms("incl", "campaign.revelation"),
        "serve.turn_ms": per_op_ms("selves", "serve.turn"),
        "serve.turns": per_op("serve_turns"),
        "serve.attach_ms": per_op_ms("selves", "serve.attach"),
        "monitor.staleness_ms": per_op_ms("incl", "monitor.staleness"),
        "monitor.evidence_probes": per_op("monitor.evidence_probes"),
        "monitor.carried_ratio": ratio(carried, pairs),
        "monitor.pairs": (pairs / count, "count"),
        "store.checkpoint_ms": per_op_ms("selves", "store.checkpoint"),
        "store.bytes_written": (counter("store_bytes") / count, "bytes"),
        "store.fold_ms": per_op_ms("incl", "store.fold"),
        "trace.op_ms_mean": (sum(walls) / count, "ms"),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "trace.spans_per_op": (
            sum(op.trace.spans for op in ops) / count, "count"
        ),
    })
    return metrics


def work_mismatches(untraced, traced) -> list:
    """Ops the two windows both ran whose work differs."""
    before = {op.index: op for op in untraced}
    problems = []
    for op in traced:
        twin = before.get(op.index)
        if twin is None or not (op.ok and twin.ok):
            continue
        for name in ("engine.hops_walked", "measure.probes"):
            if op.counts.get(name) != twin.counts.get(name):
                problems.append(
                    f"op {op.index}: traced {name} "
                    f"{op.counts.get(name)} != {twin.counts.get(name)}"
                )
        if op.digest != twin.digest:
            problems.append(f"op {op.index}: traced digest differs")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    import_s = time.perf_counter() - _STARTED
    host = host_stamp()
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    tracer = None
    traced = []
    try:
        units = workload.setup()
        setup_s = import_s + workload.extra_setup_s + statistics.median(units)
        gc.collect()
        gc.freeze()
        ops, elapsed = workload.window(args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            try:
                traced, _ = workload.window(args.seconds, tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [
        f"op {op.index} (topology {op.topology}): {op.error}"
        for op in ops + traced if not op.ok
    ]
    latencies = [op.seconds * 1000.0 for op in ops if op.ok]
    _, percentile, samples = tail_ms(latencies)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_units_s": [round(unit, 4) for unit in units],
        "op_ms_p50": round(statistics.median(latencies or [0.0]), 3),
        "op_ms_tail": {"percentile": round(percentile, 2),
                       "samples": samples},
        "host": host,
    }
    if args.trace:
        problems += work_mismatches(ops, traced)
        metrics = per_layer(
            traced, ops, tracer.layer_of, tracing.LAYERS
        )
        spans_path = str(
            OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        )
        details["spans"] = {"path": spans_path,
                            "count": tracer.write(spans_path)}
    else:
        metrics = end_to_end(ops, elapsed, setup_s)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = len(ops) + len(traced)
    failed = sum(1 for op in ops + traced if not op.ok)
    print("# " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
