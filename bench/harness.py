"""Shared pieces of the benchmark: scales, seeded inputs, statistics, answer
checks and the machine fingerprint.

Everything here is used by more than one workload or by both the end-to-end
run and the layer probes; anything used once lives next to its single caller.
"""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro import HistogramIntersection, exact_top_k, make_corel_like
from repro.datasets.corel import make_corel_like_queries
from repro.workload.ground_truth import result_scores_match

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Run outputs, traces and the live-update scratch stores; ignored by git.
OUT_DIR = BENCH_DIR / "out"

METRIC = "histogram"
K = 10


@dataclass(frozen=True)
class Scale:
    """Input sizes and per-workload work units.

    A *segment* is the fixed amount of work whose rate is one `qps` sample;
    a run measures as many whole segments as fit its `--seconds`.
    """

    name: str
    cardinality: int
    dimensionality: int
    num_queries: int
    setups: int  # cold set-ups per run; `setup_s` is their median
    verify_sample: int  # answers checked against brute force per run
    single_segment: int  # exact_single: queries per segment
    single_warmup: int
    batch_size: int  # compressed_batch: queries per batch
    batch_segment: int  # ... batches per segment
    batch_warmup: int
    rate: float  # sharded_serving: Poisson arrivals per second
    serving_warmup: int  # ... arrivals replayed before the measured ones
    latency_limit_s: float  # ... a slower request counts as failed
    cycles_per_period: int  # live_updates: cycles before each reorganize()
    insert_rows: int  # ... rows per insert
    queries_per_cycle: int
    live_warmup_cycles: int
    probe_seconds: float  # --trace: length of the short open-loop replay in the layer probes


#: The paper's Corel collection: 59,619 x 166 float64 is 79 MB, far larger
#: than cache, so full-column scans are memory-bound while the blocks over
#: pruned survivors fit cache.
PAPER = Scale(
    name="paper",
    cardinality=59_619,
    dimensionality=166,
    num_queries=1024,
    setups=5,
    verify_sample=64,
    single_segment=500,
    single_warmup=500,
    batch_size=32,
    batch_segment=8,
    batch_warmup=8,
    rate=120.0,
    serving_warmup=120,
    latency_limit_s=0.5,
    cycles_per_period=40,
    insert_rows=8,
    queries_per_cycle=32,
    live_warmup_cycles=2,
    probe_seconds=3.0,
)

#: Seconds-long end-to-end check of the harness itself (bench/test_smoke.py).
SMOKE = Scale(
    name="smoke",
    cardinality=2_000,
    dimensionality=32,
    num_queries=128,
    setups=2,
    verify_sample=16,
    single_segment=100,
    single_warmup=20,
    batch_size=32,
    batch_segment=2,
    batch_warmup=1,
    rate=200.0,
    serving_warmup=10,
    latency_limit_s=0.5,
    cycles_per_period=3,
    insert_rows=8,
    queries_per_cycle=8,
    live_warmup_cycles=1,
    probe_seconds=0.2,
)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload receives; the library only ever sees arrays."""

    scale: Scale
    seed: int
    data: np.ndarray
    queries: np.ndarray

    def query(self, index: int) -> np.ndarray:
        return self.queries[index % self.queries.shape[0]]

    def query_batch(self, index: int, size: int) -> np.ndarray:
        rows = (np.arange(size) + index * size) % self.queries.shape[0]
        return self.queries[rows]


def make_inputs(seed: int, scale: Scale) -> Inputs:
    """Corel-like collection from `seed`, member queries from `seed + 1`."""
    data = make_corel_like(
        cardinality=scale.cardinality, dimensionality=scale.dimensionality, seed=seed
    )
    oids = make_corel_like_queries(data, scale.num_queries, seed=seed + 1)
    return Inputs(scale=scale, seed=seed, data=data, queries=data[oids].copy())


# -- statistics --------------------------------------------------------------


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of a few per-segment values."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def median_time(function, repeats: int) -> float:
    """Median wall time of `repeats` calls of `function`."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux), so that generating the
    inputs — which peaks at five collection-sized temporaries — is not what
    `peak_rss_mb` reports.  Where the kernel refuses, the mark simply stays."""
    try:
        pathlib.Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(who: int) -> float:
    """Peak resident set of `resource.RUSAGE_SELF` (since the last reset) or
    of the largest waited-for child (`resource.RUSAGE_CHILDREN`)."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- answer checking ---------------------------------------------------------


def answer_is_correct(result, vectors: np.ndarray, query: np.ndarray, oids=None) -> bool:
    """Whether `result` is the exact top-k of `query` over `vectors`.

    The reference is the library's brute force.  It sums each row's
    contributions in storage order while BOND sums them in query order, so
    scores agree to rounding, not bitwise: the check is the same OID set
    with the same scores within 1e-9.  `oids[i]` is the OID of row `i` when
    the rows are not numbered from zero (a live delta tail).
    """
    reference = exact_top_k(vectors, query, K, HistogramIntersection())
    expected = reference.oids if oids is None else oids[reference.oids]
    return bool(
        np.array_equal(np.sort(result.oids), np.sort(expected))
        and result_scores_match(result, reference)
    )


# -- machine fingerprint -----------------------------------------------------


def memcpy_gb_per_s(megabytes: int = 64) -> float:
    """Best of five large copies, bytes copied once per second."""
    source = np.ones(megabytes * 131_072, dtype=np.float64)
    target = np.empty_like(source)
    best = min(median_time(lambda: np.copyto(target, source), 1) for _ in range(5))
    return source.nbytes / best / 1e9


def filesystem_of(path: pathlib.Path) -> str:
    """Filesystem type of the mount holding `path` (Linux), else 'unknown'."""
    try:
        mounts = pathlib.Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    resolved = str(path.resolve())
    best = ("", "unknown")
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best[0]):
            best = (mount, fields[2])
    return best[1]


def fingerprint() -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "memcpy_gb_per_s": memcpy_gb_per_s(),
        "loadavg_at_start": os.getloadavg()[0],
        "scratch_filesystem": filesystem_of(BENCH_DIR),
        "thread_pins": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "argv": sys.argv[1:],
    }
