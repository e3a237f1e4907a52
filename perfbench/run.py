#!/usr/bin/env python3
"""Repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the worker (`perfbench/worker`, a Cargo package of its own that
builds the library crates from source) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then starts one fresh worker process per repeat
until `--seconds` have been spent. Every repeat generates the same inputs
from `--seed`, runs the timed phase once and checks the outputs; the
metrics are medians across repeats.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced repeats and reports the per-layer metrics, taken from
spans around each call into the library and from the chip profiler; a
traced repeat whose simulated counts differ from the untraced ones fails
the run. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Workloads, metrics and the
predictions they serve are described in `perfbench/NOTES.md`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("chip-t64-sparse", "chip-t4-bloat", "serve-mix", "design-sweep")
CHIP_WORKLOADS = ("chip-t64-sparse", "chip-t4-bloat", "design-sweep")

# Repeats per run, whatever --seconds says, so that a median exists.
MIN_UNTRACED = 3
MIN_TRACED = 2
# A worker that runs longer than this is treated as hung.
WORKER_TIMEOUT_S = 150

# Gated end-to-end metrics: (name, unit). Every workload has each of them.
# Of host time, only setup_s is gated: the benchmark format requires it.
# Host time of the timed phase is printed, not gated: on a shared 2-core
# host its spread over ten runs reached 0.26-0.31, above the largest bound
# a gated metric may have (see NOTES.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
)

# Per-layer metrics: (name, unit). A layer a workload does not run reads 0.
PER_LAYER = (
    ("chip.idle_frac", "fraction"),
    ("chip.host_ns_per_component_cycle", "ns"),
    ("chip.host_ns_per_hacc", "ns"),
    ("chip.compile_s", "s"),
    ("chip.run_s", "s"),
    ("chip.stall.operand_fetch", "core-cycles"),
    ("chip.stall.hashpad_full", "core-cycles"),
    ("chip.stall.noc_backpressure", "core-cycles"),
    ("chip.stall.dispatch_starvation", "core-cycles"),
    ("hbm.in_flight_peak", "count"),
    ("hbm.queue_peak", "count"),
    ("hbm.bytes_read", "bytes"),
    ("hbm.bytes_written", "bytes"),
    ("hbm.mean_latency_cycles", "cycles"),
    ("neuramem.accumulate_ratio", "HACC/eviction"),
    ("neuramem.hashpad_peak", "lines"),
    ("noc.packets", "count"),
    ("noc.mean_hops", "hops"),
    ("sparse.generate_s", "s"),
    ("sparse.reference_s", "s"),
    ("serve.arrivals_s", "s"),
    ("serve.cost_table_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.report_s", "s"),
    ("serve.host_ns_per_request", "ns"),
    ("serve.max_in_flight", "count"),
    ("serve.redispatched", "count"),
    ("serve.mean_batch", "requests"),
    ("serve.trace_events", "count"),
    ("lab.task_s", "s"),
    ("lab.worker_idle_frac", "fraction"),
    ("lab.tail_s", "s"),
    ("lab.emit_s", "s"),
    ("lab.artifact_bytes", "bytes"),
    ("trace.overhead_frac", "fraction"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, target_dir):
    """Builds the worker; returns the path of its executable."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(root, "perfbench", "worker", "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        fail(f"building the worker failed (exit {done.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def run_worker(binary, workload, seed, traced, spans_path):
    """Runs one repeat in a fresh process and returns its parsed report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--spans", spans_path]
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{workload} worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} worker printed no report")
    return json.loads(lines[-1])


def sim_cycles(report, workload):
    """Simulated chip cycles: of the SpGEMM runs, or the serve fleet's busy cycles."""
    name = "chip_cycles" if workload in CHIP_WORKLOADS else "serve_busy_cycles"
    return report["e2e"][name]["value"]


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def first_mismatch(reference, other):
    """Name of the first simulated count that differs, or None."""
    for name in sorted(set(reference) | set(other)):
        if reference.get(name) != other.get(name):
            return name
    return None


def print_table(workload, seed, untraced, traced, gated, failed, attempted):
    """Every end-to-end metric the workload has, by name and unit."""
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced repeats, one fresh process each")
    rows = [
        ("wall_s", median_of(untraced, "wall_s"), "s"),
        ("setup_s", gated["setup_s"], "s"),
        ("peak_rss_mb", gated["peak_rss_mb"], "MB"),
    ]
    for name in untraced[0]["e2e"]:
        unit = untraced[0]["e2e"][name]["unit"]
        rows.append((name, statistics.median(r["e2e"][name]["value"] for r in untraced), unit))
    rows.append(("failed_frac", failed / attempted, f"of {attempted}"))
    for name, value, unit in rows:
        print(f"  {name:<22} {value:>16.6g} {unit}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in untraced)
    print(f"  untraced wall_s per repeat, in run order: {walls}")
    if workload in CHIP_WORKLOADS:
        print("  note: the cycle model is not validated against hardware; analytic_err_pct is "
              "the analytic tier's error against the cycle model")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run so that it kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(root, target_dir)
    binary = build(root, target_dir)
    spans_dir = os.path.join(target_dir, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{args.workload}.json")

    # Alternate untraced and traced repeats in trace mode; stop starting new
    # ones once the next would end past --seconds.
    untraced, traced = [], []
    started = time.monotonic()
    repeat_s = 0.0
    while True:
        enough = len(untraced) >= MIN_UNTRACED and (not args.trace or len(traced) >= MIN_TRACED)
        elapsed = time.monotonic() - started
        if enough and elapsed + repeat_s > args.seconds:
            break
        want_traced = args.trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        report = run_worker(binary, args.workload, args.seed, want_traced, spans_path)
        repeat_s = max(repeat_s, time.monotonic() - t0)
        (traced if want_traced else untraced).append(report)

    attempted = sum(r["attempted"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    correct = failed == 0
    reference = untraced[0]["sim"]
    for kind, reports in (("untraced", untraced), ("traced", traced)):
        for report in reports:
            mismatch = first_mismatch(reference, report["sim"])
            if mismatch is not None:
                print(f"perfbench: a {kind} repeat changed simulated count {mismatch}",
                      file=sys.stderr)
                correct = False

    gated = {
        "setup_s": median_of(untraced, "setup_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "sim_cycles": sim_cycles(untraced[0], args.workload),
    }
    print_table(args.workload, args.seed, untraced, traced, gated, failed, attempted)
    if args.trace:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace.overhead_frac"] = (
            median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
