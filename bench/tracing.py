"""Outside-in span tracing: wrappers, installed from `bench/` only, around
the library's public callables at each layer boundary.

A span is (id, name, layer, start, end, parent, request, thread) plus any
counts the wrapped call's result carries (the `CostAccount` delta of a
search).  Spans stay in memory until `write_jsonl`.  The parent of a span is
the span open in the same thread; a span opened on a pool thread (a shard
task dispatched by a sharded search) adopts the sharded search that is
fanning out — exact while batches are serialised, which the serving layer's
single executor worker guarantees.  `request` is the id of the outermost
span, shared by everything below it.

Work inside shard worker processes is invisible from here; the pools are
forked while the wrappers are uninstalled, so the workers run unwrapped code.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass

import repro.api.index as index_module
import repro.core.parallel as parallel_module
from repro.api.backends import Backend, ShardedBondBackend
from repro.api.index import Index
from repro.api.planner import QueryPlanner
from repro.cluster.executor import ProcessShardExecutor
from repro.core.bond import BondSearcher
from repro.core.candidates import CandidateSet
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import ShardedBondSearcher
from repro.kernels.block import HistogramIntersectionKernel
from repro.kernels.interval import HistogramIntersectionIntervalKernel

_MISSING = object()


@dataclass(frozen=True)
class Target:
    owner: object  # class or module holding the callable
    attribute: str
    name: str  # span name
    layer: str  # the repo module the time is attributed to
    fans_out: bool = False  # dispatches child calls onto pool threads


def _cost_counts(result) -> dict:
    """Counted work of a search result (single or batch), if it carries any."""
    cost = getattr(result, "cost", None)
    if cost is None:
        return {}
    return {"bytes_read": cost.bytes_read, "arithmetic_ops": cost.arithmetic_ops}


#: The layer boundaries, outermost first.  The histogram kernels are the ones
#: every workload's metric resolves to.
TARGETS = (
    Target(Index, "answer", "api.index.answer", "api.facade"),
    Target(Index, "execute", "api.index.execute", "api.facade"),
    Target(QueryPlanner, "plan", "api.planner.plan", "api.planner"),
    Target(Backend, "answer", "api.backend.answer", "api.backends"),
    Target(ShardedBondBackend, "answer", "api.backend.answer", "api.backends"),
    Target(BondSearcher, "search", "core.bond.search", "core.bond"),
    Target(BondSearcher, "search_batch", "core.batch.search_batch", "core.batch"),
    Target(CompressedBondSearcher, "search", "core.compressed.search", "core.compressed"),
    Target(
        CompressedBondSearcher, "search_batch", "core.compressed.search_batch", "core.compressed"
    ),
    Target(
        HistogramIntersectionKernel, "accumulate_scan", "kernels.block.accumulate_scan", "kernels.block"
    ),
    Target(
        HistogramIntersectionKernel,
        "contribution_block",
        "kernels.block.contribution_block",
        "kernels.block",
    ),
    Target(
        HistogramIntersectionIntervalKernel,
        "accumulate_block",
        "kernels.interval.accumulate_block",
        "kernels.interval",
    ),
    Target(
        HistogramIntersectionIntervalKernel,
        "accumulate_row_block",
        "kernels.interval.accumulate_row_block",
        "kernels.interval",
    ),
    Target(CandidateSet, "prune", "core.candidates.prune", "core.candidates"),
    Target(ShardedBondSearcher, "search", "core.parallel.search", "core.parallel", True),
    Target(
        ShardedBondSearcher, "search_batch", "core.parallel.search_batch", "core.parallel", True
    ),
    # Called through its module global, so the module attribute is the seam.
    Target(parallel_module, "merge_shard_results", "core.parallel.merge", "core.parallel"),
    Target(ProcessShardExecutor, "search", "cluster.executor.search", "cluster"),
    Target(ProcessShardExecutor, "search_batch", "cluster.executor.search_batch", "cluster"),
    Target(Index, "insert", "mutability.insert", "mutability"),
    Target(Index, "delete", "mutability.delete", "mutability"),
    Target(Index, "reorganize", "mutability.reorganize", "mutability"),
    Target(index_module, "overlay_answer", "mutability.overlay", "mutability"),
    Target(index_module, "save_decomposed", "storage.persistence.save", "storage.persistence"),
    Target(os, "fsync", "os.fsync", "storage.persistence"),
)


class Tracer:
    """Installs the wrappers and collects the spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._thread = threading.local()  # .span: the span open on this thread
        self._fanout: dict | None = None  # the sharded search running right now
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        for target in TARGETS:
            owner = target.owner
            own = vars(owner).get(target.attribute, _MISSING)
            original = getattr(owner, target.attribute)
            setattr(owner, target.attribute, self._wrap(original, target))
            self._undo.append((owner, target.attribute, own))

    def uninstall(self) -> None:
        for owner, attribute, own in reversed(self._undo):
            if own is _MISSING:
                delattr(owner, attribute)  # it was inherited; inherit again
            else:
                setattr(owner, attribute, own)
        self._undo.clear()

    def _begin(self, target: Target) -> tuple[dict, dict | None]:
        enclosing = getattr(self._thread, "span", None)
        parent = enclosing or self._fanout  # a pool thread has no open span of its own
        span = {
            "id": next(self._ids),
            "name": target.name,
            "layer": target.layer,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        if span["request"] is None:
            span["request"] = span["id"]
        if target.fans_out:
            self._fanout = span
        self._thread.span = span
        return span, enclosing

    def _end(self, span: dict, enclosing: dict | None, result) -> None:
        span["end"] = time.perf_counter()
        self._thread.span = enclosing
        if self._fanout is span:
            self._fanout = None
        if result is not None:
            span.update(_cost_counts(result))
        self.spans.append(span)

    def _wrap(self, original, target: Target):
        def traced(*args, **kwargs):
            span, enclosing = self._begin(target)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._end(span, enclosing, result)

        traced.__wrapped__ = original
        return traced

    # -- reports -------------------------------------------------------------

    def take_spans(self) -> list[dict]:
        """The spans collected so far; the tracer starts an empty list."""
        spans, self.spans = self.spans, []
        return spans


def durations(spans: list[dict], name: str) -> list[float]:
    return [span["end"] - span["start"] for span in spans if span["name"] == name]


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per layer, the summed self time: each span's duration minus the part
    of it that its child spans cover (children on parallel threads overlap,
    so the cover is the union of their intervals, clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        own = (span["end"] - span["start"]) - covered
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals


def write_jsonl(spans: list[dict], path) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
