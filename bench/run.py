"""The benchmark's one command.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this (fresh) process, prints every metric by name with
its unit, checks answers, writes `bench/out/<workload>.json` and ends with the
one-line JSON result `BENCHMARK.json` promises.  `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics from a traced
run and writes the spans to `bench/out/trace-<workload>.jsonl`.  `--all` runs
every workload, each in its own process.  `--smoke` shrinks the inputs so the
whole harness runs in seconds (bench/test_smoke.py).

Exit code 1 means a checked answer was wrong.
"""

from __future__ import annotations

import os

# One compute thread per process: the load is generated from this process and
# the shard workers are processes, so library thread pools would only add noise.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import gc
import json
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from harness import (
    OUT_DIR,
    PAPER,
    SMOKE,
    answer_is_correct,
    fingerprint,
    make_inputs,
    peak_rss_mb,
    percentile,
    quartiles,
    reset_peak_rss,
)
from layers import probe_layers
from tracing import Tracer, layer_self_seconds, write_jsonl
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A traced run alternates this many untraced/traced windows of the workload.
TRACE_WINDOWS = 4


def _diagnostics(notes: dict) -> dict:
    """Workload notes as printable scalars: sample lists become their median."""
    return {
        (f"{key}_p50" if isinstance(value, list) else key): (
            percentile(value, 50) if isinstance(value, list) else value
        )
        for key, value in notes.items()
    }


def cold_setup(workload_class, inputs):
    """One cold set-up: (the ready workload, seconds it took, first answer wrong?)."""
    gc.collect()
    workload = workload_class(inputs)
    started = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    seconds = time.perf_counter() - started
    wrong = not answer_is_correct(workload.first_answer, inputs.data, inputs.query(0))
    return workload, seconds, wrong


def end_to_end(workload_class, inputs, seconds: float) -> dict:
    """A cold set-up, the measured phase, answer checks, then the remaining
    cold set-ups; tracing off.

    Memory is read around the first index alone: the later set-ups exist only
    to steady `setup_s`, and what the allocator keeps of one index after
    close() would otherwise be counted into the next one's peak."""
    workload, first_setup, wrong = cold_setup(workload_class, inputs)
    setups = [first_setup]
    try:
        measured = workload.measure(seconds)
        # Before the answer checks: their brute force allocates a
        # collection-sized temporary that is the benchmark's, not the program's.
        rss_self = peak_rss_mb(resource.RUSAGE_SELF)
        checked, wrong_measured = workload.verify()
    finally:
        workload.close()
    # The shard workers have been waited for, so RUSAGE_CHILDREN holds the
    # largest one's peak.
    rss_children = peak_rss_mb(resource.RUSAGE_CHILDREN)
    for _ in range(inputs.scale.setups - 1):
        again, setup_seconds, wrong_first = cold_setup(workload_class, inputs)
        again.close()
        setups.append(setup_seconds)
        wrong += wrong_first
    # The shared reference box has slow phases that last 10-20 s and cost
    # 10-30 %; a run's median follows them, its better quartile of equal-work
    # segments does not (README.md, "Steadiness").  Latency samples arrive in
    # segment order, the same number per segment.
    segments = np.array_split(np.asarray(measured.latencies_s), len(measured.segment_qps))
    qps = quartiles(measured.segment_qps)
    p50 = quartiles([percentile(segment, 50) * 1e3 for segment in segments])
    p90 = quartiles([percentile(segment, 90) * 1e3 for segment in segments])
    latencies = measured.latencies_s
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "qps": qps[2],
            "latency_ms_p50": p50[0],
            "latency_ms_p90": p90[0],
            "peak_rss_mb": rss_self + rss_children,
        },
        "attempted": measured.attempted + checked + len(setups),
        "failed": measured.failed + wrong + wrong_measured,
        "wrong_answers": wrong + wrong_measured,
        "diagnostics": {
            "loop": workload.loop,
            "measured_s": measured.seconds,
            "segments": len(segments),
            "segment_qps_quartiles": qps,
            "segment_latency_ms_p50_quartiles": p50,
            "segment_latency_ms_p90_quartiles": p90,
            "latency_samples": len(latencies),
            "latency_ms_p50_all": percentile(latencies, 50) * 1e3,
            "latency_ms_p90_all": percentile(latencies, 90) * 1e3,
            "latency_ms_p99_all": percentile(latencies, 99) * 1e3,
            "latency_ms_max": max(latencies) * 1e3,
            "setups_s": setups,
            "answers_checked": checked + len(setups),
            "peak_rss_self_mb": rss_self,
            "peak_rss_children_mb": rss_children,
            **_diagnostics(measured.notes),
        },
    }


def traced(workload_class, inputs, seconds: float) -> dict:
    """The layer probes, then the workload in alternating untraced and traced
    windows: the traced ones give the spans, the pair gives tracing's cost."""
    tracer = Tracer()
    metrics = probe_layers(inputs, tracer)
    workload = workload_class(inputs)
    p50 = {False: [], True: []}
    spans, samples, attempted, failed = [], 0, 0, 0
    try:
        workload.setup()
        for window in range(TRACE_WINDOWS):
            tracing = window % 2 == 1
            if tracing:
                tracer.install()
            try:
                measured = workload.measure(
                    seconds / 2 / TRACE_WINDOWS, warmup=window == 0
                )
            finally:
                tracer.uninstall()
            p50[tracing].append(percentile(measured.latencies_s, 50))
            attempted += measured.attempted
            failed += measured.failed
            if tracing:
                spans.extend(tracer.take_spans())
                samples += len(measured.latencies_s)
        checked, wrong = workload.verify()
    finally:
        workload.close()
    plain, with_spans = statistics.median(p50[False]), statistics.median(p50[True])
    metrics["bench.trace_overhead_pct"] = (with_spans - plain) / plain * 100.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}.jsonl"
    write_jsonl(spans, trace_file)
    self_seconds = layer_self_seconds(spans)
    return {
        "metrics": metrics,
        "attempted": attempted + checked,
        "failed": failed + wrong,
        "wrong_answers": wrong,
        "diagnostics": {
            "loop": workload.loop,
            "trace_file": str(trace_file.relative_to(ROOT)),
            "spans": len(spans),
            "traced_latency_samples": samples,
            "self_ms_per_latency_sample": {
                layer: total / samples * 1e3 for layer, total in sorted(self_seconds.items())
            },
        },
    }


def run_one(args) -> int:
    scale = SMOKE if args.smoke else PAPER
    workload_class = WORKLOADS[args.workload]
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    machine = fingerprint()
    inputs = make_inputs(args.seed, scale)
    gc.collect()
    reset_peak_rss()
    report = (traced if args.trace else end_to_end)(workload_class, inputs, args.seconds)
    if set(report["metrics"]) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(report['metrics']) ^ set(units))}"
        )
    metrics = {
        name: {"value": float(report["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": report["wrong_answers"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[args.workload]
    full = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": scale.name,
        "trace": args.trace,
        **result,
        "diagnostics": report["diagnostics"],
        "fingerprint": machine,
    }
    default_name = f"{args.workload}.trace.json" if args.trace else f"{args.workload}.json"
    out = pathlib.Path(args.out) if args.out else OUT_DIR / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} scale {scale.name} trace {args.trace}")
    print(f"  why: {why}")
    for key, value in machine.items():
        print(f"  machine.{key} = {value}")
    for key, value in report["diagnostics"].items():
        print(f"  {key} = {value}")
    print(f"  ops_attempted = {result['attempted']}")
    print(f"  ops_failed = {result['failed']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; the worst exit code."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable,
                __file__,
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def child_pids() -> list[int]:
    """PIDs whose parent is this process, reaped or not (Linux /proc)."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = pathlib.Path("/proc", entry, "stat").read_text()
            except OSError:  # ended while we were looking
                continue
            # "pid (comm) state ppid ...": comm may hold spaces and brackets.
            if int(stat.rpartition(")")[2].split()[1]) == me:
                children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    `Index.close()` joins the shard workers, but creating a shared-memory
    segment also starts multiprocessing's resource tracker, which otherwise
    ends only some time after this process has.  Stopping it closes its pipe
    and waits for it; on its way out it unlinks any segment still registered,
    so an index that an exception kept from closing leaves none behind either.
    That index's workers are killed first: forked, they hold the tracker's
    pipe open, and it would never see the pipe close while they live.
    """
    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid != tracker._pid:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # already gone, or already waited for
                pass
    tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="2,000 x 32 inputs, seconds-long")
    parser.add_argument("--out", help="where to write the run's JSON report")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(SPEC["run_seconds"])
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        return run_all(args) if args.all else run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
