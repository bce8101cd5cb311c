"""The four workloads.  Names are final; later issues cite them.

Each workload is a class with the same small surface:

* `setup()` — from "arrays in memory" to "first answer" (timed by the caller
  as one cold set-up); leaves the workload ready to measure;
* `measure(seconds)` — the measured phase: whole fixed-work segments until
  `seconds` have passed, returning a :class:`Measurement`;
* `verify()` — answer checks, outside every timed window;
* `close()` — releases pools, segments, files; idempotent.

Why each was chosen — what it stresses, what it bypasses — is recorded once,
in BENCHMARK.json, and expanded in README.md.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Index, Query, SearchService, ServingConfig, make_corel_like, poisson_arrivals
from repro.api.index import WAL_NAME
from repro.errors import ReproError

from harness import BENCH_DIR, K, METRIC, OUT_DIR, Inputs, answer_is_correct


@dataclass
class Measurement:
    """What one measured phase produced."""

    seconds: float = 0.0  # wall time of the measured phase
    latencies_s: list[float] = field(default_factory=list)  # one per latency sample
    segment_qps: list[float] = field(default_factory=list)  # one per equal-work segment
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)  # workload-specific diagnostics


def _segments_until(seconds: float, run_segment) -> float:
    """Run whole segments until `seconds` have passed; the time it took.

    Stops when the next segment would end further past the deadline than this
    one ended before it, so the measured time is `seconds` give or take half
    a segment and every segment is complete (equal work per `qps` sample).
    """
    started = time.perf_counter()
    while True:
        segment_started = time.perf_counter()
        run_segment()
        now = time.perf_counter()
        if (now - started) + (now - segment_started) / 2 >= seconds:
            return now - started


class Workload:
    name = ""
    loop = ""  # "closed, 1 client" or "open, <rate>/s"

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.scale = inputs.scale
        self.index: Index | None = None
        self.first_answer = None  # the answer to query 0 that ended set-up
        self.answers: dict[int, object] = {}  # query number -> a measured answer

    def query(self, number: int, **extra) -> Query:
        return Query(self.inputs.query(number), k=K, metric=METRIC, **extra)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """(answers checked, answers wrong) over a seeded sample of the
        answers the measured phase produced."""
        rng = np.random.default_rng(self.inputs.seed + 4)
        numbers = sorted(self.answers)
        sample = rng.choice(
            numbers, size=min(self.scale.verify_sample, len(numbers)), replace=False
        )
        wrong = sum(
            not answer_is_correct(
                self.answers[int(number)], self.inputs.data, self.inputs.query(int(number))
            )
            for number in sample
        )
        return len(sample), wrong

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None


class ExactSingle(Workload):
    name = "exact_single"
    loop = "closed, 1 client"

    def setup(self) -> None:
        self.index = Index.build(self.inputs.data)
        self.first_answer = self.index.answer(self.query(0))

    def measure(self, seconds: float, *, warmup: bool = True) -> Measurement:
        index, measured = self.index, Measurement()
        for number in range(self.scale.single_warmup if warmup else 0):
            index.answer(self.query(number))
        gc.collect()
        cursor = 0

        def segment() -> None:
            nonlocal cursor
            segment_started = time.perf_counter()
            for number in range(cursor, cursor + self.scale.single_segment):
                started = time.perf_counter()
                answer = index.answer(self.query(number))
                measured.latencies_s.append(time.perf_counter() - started)
                self.answers[number % self.scale.num_queries] = answer
            cursor += self.scale.single_segment
            measured.segment_qps.append(
                self.scale.single_segment / (time.perf_counter() - segment_started)
            )

        measured.seconds = _segments_until(seconds, segment)
        measured.attempted = cursor
        return measured


class CompressedBatch(Workload):
    name = "compressed_batch"
    loop = "closed, 1 client"

    def batch_query(self, number: int) -> Query:
        vectors = self.inputs.query_batch(number, self.scale.batch_size)
        return Query(vectors, k=K, metric=METRIC, mode="compressed")

    def setup(self) -> None:
        self.index = Index.build(self.inputs.data)
        self.first_answer = self.index.answer(self.batch_query(0))[0]

    def measure(self, seconds: float, *, warmup: bool = True) -> Measurement:
        index, size, measured = self.index, self.scale.batch_size, Measurement()
        for number in range(self.scale.batch_warmup if warmup else 0):
            index.answer(self.batch_query(number))
        gc.collect()
        cursor = 0

        def segment() -> None:
            nonlocal cursor
            segment_started = time.perf_counter()
            for number in range(cursor, cursor + self.scale.batch_segment):
                started = time.perf_counter()
                answers = index.answer(self.batch_query(number))
                measured.latencies_s.append(time.perf_counter() - started)
                for row, answer in enumerate(answers):
                    self.answers[(number * size + row) % self.scale.num_queries] = answer
            cursor += self.scale.batch_segment
            measured.segment_qps.append(
                self.scale.batch_segment * size / (time.perf_counter() - segment_started)
            )

        measured.seconds = _segments_until(seconds, segment)
        measured.attempted = cursor * size
        measured.notes["latency_sample"] = f"one batch of {size}"
        return measured


class ShardedServing(Workload):
    name = "sharded_serving"
    SEGMENTS = 10

    @property
    def loop(self) -> str:
        return f"open, Poisson {self.scale.rate:g}/s, timed from each request's due time"

    def service(self) -> SearchService:
        config = ServingConfig(latency_budget=0.002, max_batch_size=32, admission="fifo")
        return SearchService(self.index, config=config)

    def setup(self) -> None:
        self.index = Index.build(self.inputs.data, shards=2, shard_executor="process")

        async def first() -> object:
            async with self.service() as service:
                return await service.submit(self.inputs.query(0), k=K, metric=METRIC)

        self.first_answer = asyncio.run(first())

    def measure(self, seconds: float, *, warmup: bool = True) -> Measurement:
        return asyncio.run(self._replay(seconds, warmup))

    async def _replay(self, seconds: float, warmup: bool) -> Measurement:
        scale, measured = self.scale, Measurement()
        skipped = scale.serving_warmup if warmup else 0
        count = skipped + max(self.SEGMENTS, round(scale.rate * seconds))
        schedule = poisson_arrivals(count, rate=scale.rate, seed=self.inputs.seed + 2)
        # Stretched so that every seed offers exactly `rate` over the run: the
        # gaps stay Poisson, but a seed's luck with its mean rate (+-2.4 % at
        # this length, which latency amplifies) no longer reads as noise.
        due = schedule.scaled(count / scale.rate / schedule.times[-1]).times
        latency = np.full(count, np.inf)  # inf: never answered
        lag = np.zeros(count)
        gc.collect()
        async with self.service() as service:
            loop = asyncio.get_running_loop()
            origin = loop.time() + 0.05

            async def request(number: int) -> None:
                delay = origin + due[number] - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lag[number] = loop.time() - (origin + due[number])
                try:
                    answer = await service.submit(self.inputs.query(number), k=K, metric=METRIC)
                except ReproError:  # QueueFull, deadline, backend: a failed operation
                    return
                latency[number] = loop.time() - (origin + due[number])
                self.answers[number % scale.num_queries] = answer

            await asyncio.gather(*(request(number) for number in range(count)))
            stats = service.stats()
        latency, lag = latency[skipped:], lag[skipped:]
        answered = np.isfinite(latency)
        measured.latencies_s = latency[answered].tolist()
        measured.seconds = float((due[skipped:] + latency)[answered].max() - due[skipped])
        measured.attempted = count - skipped
        measured.failed = int(np.count_nonzero(~(latency <= scale.latency_limit_s)))
        for rows in np.array_split(np.arange(skipped, count), self.SEGMENTS):
            done = due[rows] + latency[rows - skipped]
            finished = done[np.isfinite(done)]
            if finished.size:
                span = finished.max() - due[rows[0]]
                measured.segment_qps.append(finished.size / span)
        measured.notes.update(
            generator_lag_ms_p90=float(np.percentile(lag, 90)) * 1e3,
            latency_limit_ms=scale.latency_limit_s * 1e3,
            serving_stats={
                key: value
                for key, value in stats.as_dict().items()
                if key not in ("cost", "breakers")
            },
        )
        return measured


@dataclass
class _Period:
    """The writes of one live-update period, for replay during verification."""

    row_numbers: list[int] = field(default_factory=list)  # rows of the insert pool, in order
    deleted: list[int] = field(default_factory=list)  # OIDs in the period's coordinates


class LiveUpdates(Workload):
    name = "live_updates"
    loop = "closed, 1 client"
    flush_policy = "WAL fsync before every acknowledgement (the library default)"

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.home = OUT_DIR / f"scratch-{self.name}-{inputs.seed}-{time.time_ns()}"
        self.timings: dict[str, float] = {}
        self.rng = np.random.default_rng(inputs.seed + 5)
        self.periods: list[_Period] = []
        self.period = _Period()  # the writes since the last reorganize()
        self.inserted = 0
        self.asked = 0  # queries answered so far; the next query's number

    @functools.cached_property
    def pool(self) -> np.ndarray:
        """Rows to insert: their own seeded draw, never a row of the collection."""
        return make_corel_like(
            cardinality=4096, dimensionality=self.scale.dimensionality, seed=self.inputs.seed + 3
        )

    def setup(self) -> None:
        shutil.rmtree(self.home, ignore_errors=True)
        self.home.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with Index.build(self.inputs.data) as built:
            built.save(self.home)
        saved = time.perf_counter()
        self.index = Index.open(self.home)
        opened = time.perf_counter()
        self.first_answer = self.index.answer(self.query(0))
        self.timings = {"save_s": saved - started, "open_s": opened - saved}

    # -- one cycle of writes -------------------------------------------------

    def write_cycle(self, measured: Measurement) -> None:
        """Insert a block of rows, delete one base row and one of the new rows."""
        index, period = self.index, self.period
        numbers = [(self.inserted + i) % len(self.pool) for i in range(self.scale.insert_rows)]
        self.inserted += self.scale.insert_rows
        started = time.perf_counter()
        oids = index.insert(self.pool[numbers])
        acked = time.perf_counter()
        victims = [int(self.rng.integers(index.cardinality)), int(self.rng.choice(oids))]
        deleting = time.perf_counter()
        index.delete(victims)
        done = time.perf_counter()
        period.row_numbers.extend(numbers)
        period.deleted.extend(victims)
        measured.notes.setdefault("insert_s", []).append(acked - started)
        measured.notes.setdefault("delete_s", []).append(done - deleting)
        measured.attempted += 2

    def reorganize(self, measured: Measurement) -> None:
        started = time.perf_counter()
        self.index.reorganize()
        measured.notes.setdefault("reorganize_s", []).append(time.perf_counter() - started)
        measured.attempted += 1
        self.periods.append(self.period)
        self.period = _Period()

    def _run_period(self, measured: Measurement, cycles: int, *, sample: bool) -> None:
        index, scale = self.index, self.scale
        period_started = time.perf_counter()
        for _ in range(cycles):
            self.write_cycle(measured)
            for _ in range(scale.queries_per_cycle):
                started = time.perf_counter()
                index.answer(self.query(self.asked))
                elapsed = time.perf_counter() - started
                self.asked += 1
                if sample:
                    measured.latencies_s.append(elapsed)
        self.reorganize(measured)
        if sample:
            queries = cycles * scale.queries_per_cycle
            measured.segment_qps.append(queries / (time.perf_counter() - period_started))
            measured.attempted += queries

    def measure(self, seconds: float, *, warmup: bool = True) -> Measurement:
        measured = Measurement()
        if warmup:
            self._run_period(Measurement(), self.scale.live_warmup_cycles, sample=False)
        gc.collect()
        measured.seconds = _segments_until(
            seconds,
            lambda: self._run_period(measured, self.scale.cycles_per_period, sample=True),
        )
        measured.notes["flush_policy"] = self.flush_policy
        measured.notes["scratch_dir"] = str(self.home.relative_to(BENCH_DIR.parent))
        return measured

    # -- verification --------------------------------------------------------

    def _after(self, rows: np.ndarray, period: _Period) -> np.ndarray:
        """`rows` after one period's writes and its reorganize: the live base
        rows, then the live inserted rows."""
        rows = np.vstack([rows, self.pool[period.row_numbers]])
        keep = np.ones(rows.shape[0], dtype=bool)
        keep[period.deleted] = False
        return rows[keep]

    def verify(self) -> tuple[int, int]:
        """Check answers against brute force over the recomputed collection:
        half the sample with a live tail (overlay path), half after the final
        reorganize (the rebuilt state)."""
        index, half = self.index, max(1, self.scale.verify_sample // 2)
        scratch = Measurement()
        # The logical collection, recomputed from the write log alone.
        base = functools.reduce(self._after, self.periods, self.inputs.data)
        wrong = int(not np.array_equal(index.vectors, base))
        for _ in range(self.scale.live_warmup_cycles):
            self.write_cycle(scratch)
        logical = np.vstack([base, self.pool[self.period.row_numbers]])
        live = np.ones(logical.shape[0], dtype=bool)
        live[self.period.deleted] = False
        live_oids = np.flatnonzero(live)
        for number in range(half):
            answer = index.answer(self.query(number))
            wrong += not answer_is_correct(
                answer, logical[live], self.inputs.query(number), oids=live_oids
            )
        self.reorganize(scratch)
        rebuilt = self._after(base, self.periods[-1])
        wrong += int(not np.array_equal(index.vectors, rebuilt))
        for number in range(half, 2 * half):
            answer = index.answer(self.query(number))
            wrong += not answer_is_correct(answer, rebuilt, self.inputs.query(number))
        return 2 * half + 2, wrong

    # -- facts the layer probes read ----------------------------------------

    def wal_bytes(self) -> int:
        log = self.home / WAL_NAME
        return log.stat().st_size if log.exists() else 0

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.home, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (ExactSingle, CompressedBatch, ShardedServing, LiveUpdates)
}
