"""Crash-safe live mutability: WAL, overlay identity, recovery, epochs.

The contract under test (PR 9):

* the write-ahead log is checksummed, fsync-before-ack, torn-tail-repairing,
  and lineage-tokened;
* an updated index answers **bitwise identically** to one rebuilt from
  scratch at the same logical state (modulo the documented OID compaction at
  reorganisation, which the tests undo with an explicit order-preserving
  mapping);
* a simulated kill at any armed fault point (``wal.append``, ``wal.fsync``,
  ``manifest.commit``, ``file.rename``, ``store.read_fragment``) leaves the
  store directory opening as *either* the old or the new state — never a
  torn one — and reopening twice is deterministic;
* the serving layer keeps answering, bitwise identically, while
  ``reorganize()`` publishes a new epoch.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, Query
from repro.core.bond import BondSearcher
from repro.core.result import BatchSearchResult
from repro.errors import FaultInjectionError, QueryError, StorageError
from repro.mutability.tail import TailState
from repro.mutability.wal import (
    WAL_HEADER,
    WalRecord,
    WriteAheadLog,
    read_wal,
    wal_token,
)
from repro.reliability.faults import FaultPlan
from repro.storage.decomposed import DecomposedStore
from repro.storage.formats import FragmentFormat
from repro.storage.persistence import MANIFEST_NAME, load_manifest, manifest_mutability
from repro.storage.sharding import ShardPlan

DIMS = 16


def hist(rng: np.random.Generator, n: int, dims: int = DIMS) -> np.ndarray:
    """L1-normalised histogram rows (valid for the histogram metric)."""
    rows = rng.random((n, dims)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def base(rng) -> np.ndarray:
    return hist(rng, 80)


def query_for(vector: np.ndarray, k: int = 5, **kwargs) -> Query:
    return Query(vector, k=k, metric="histogram", **kwargs)


class Shadow:
    """Reference model: the logical collection plus the OID bookkeeping."""

    def __init__(self, base_rows: np.ndarray) -> None:
        self.rows = [np.array(row) for row in base_rows]
        self.alive = [True] * len(self.rows)

    def insert(self, rows: np.ndarray) -> None:
        for row in np.atleast_2d(rows):
            self.rows.append(np.array(row))
            self.alive.append(True)

    def delete(self, oids) -> None:
        for oid in np.atleast_1d(oids):
            self.alive[int(oid)] = False

    def reorganize(self) -> None:
        self.rows = [row for row, keep in zip(self.rows, self.alive) if keep]
        self.alive = [True] * len(self.rows)

    @property
    def live(self) -> int:
        return sum(self.alive)

    def rebuilt(self) -> np.ndarray:
        return np.array([row for row, keep in zip(self.rows, self.alive) if keep])

    def mapping(self) -> dict[int, int]:
        """Current OID -> rank in the rebuilt (compacted) collection.

        Compaction preserves the relative order of surviving OIDs, so the
        mapping is order-preserving and the stack's by-OID tie-break selects
        the same rows on both sides.
        """
        return {
            oid: rank
            for rank, oid in enumerate(i for i, keep in enumerate(self.alive) if keep)
        }


#: The backend lattice of the overlay-equals-rebuild test:
#: ``name -> (Index options, Query options)``.  ``exact`` and ``compressed``
#: leave the backend to the planner (``bond`` / ``compressed_bond``); the
#: metrics alternate so both pruning directions are covered.
OVERLAY_BACKENDS = {
    "exact": ({}, {"metric": "histogram"}),
    "compressed": ({}, {"metric": "histogram", "mode": "compressed"}),
    "sharded_bond": ({"shards": 3}, {"metric": "euclidean", "backend": "sharded_bond"}),
    "sharded_bond-process": (
        {"shards": 3, "shard_executor": "process"},
        {"metric": "histogram", "backend": "sharded_bond"},
    ),
    "sharded_bond-compressed": (
        {"shards": 3},
        {"metric": "euclidean", "mode": "compressed", "backend": "sharded_bond"},
    ),
    "sequential_scan": ({}, {"metric": "histogram", "backend": "sequential_scan"}),
    "partial_abandon": ({}, {"metric": "histogram", "backend": "partial_abandon"}),
    "rtree": ({}, {"metric": "euclidean", "backend": "rtree"}),
    "vafile": ({}, {"metric": "histogram", "mode": "compressed", "backend": "vafile"}),
}

OVERLAY_SCENARIOS = ("basic", "tie", "k_ge_live", "shard_wiped", "base_wiped", "one_dimension")

OVERLAY_CASES = [
    pytest.param(backend, scenario, id=backend if scenario == "basic" else f"{backend}-{scenario}")
    for backend in OVERLAY_BACKENDS
    for scenario in OVERLAY_SCENARIOS
]


def overlay_scenario(name: str, rng: np.random.Generator, metric: str):
    """``(base rows, inserted rows, deleted OIDs, k)`` of one edge case."""
    if name == "one_dimension":
        return rng.random((80, 1)), rng.random((5, 1)), [3, 81], 6
    if name == "k_ge_live":
        # 12 - 2 base rows and 3 - 1 tail rows live; k exceeds them all.
        return hist(rng, 12), hist(rng, 3), [0, 5, 13], 15
    if name == "base_wiped":
        return hist(rng, 20), hist(rng, 5), list(range(20)), 3
    base, rows = hist(rng, 80), hist(rng, 5)
    if name == "basic":
        return base, rows, [3, 81], 6
    if name == "shard_wiped":
        start, stop = ShardPlan.balanced(80, 3).ranges[1]
        return base, rows, [*range(start, stop), 81], 6
    assert name == "tie"
    # The probe (row 10) is peaked, unlike every other row, and k deleted
    # rows copy it: were tombstones to keep their bounds, they would set
    # the first pruning threshold and prune every live row but row 10.
    # Among the other rows, the worst becomes a copy of the one at the k-th
    # place (its rival, deleted too), so the copy ties at the k-th place.
    # The inserted rows copy poor matches.
    k = 6
    base[10] = 0.1 / (DIMS - 1)
    base[10, 0] = 0.9
    copies = list(range(20, 20 + k))
    base[copies] = base[10]
    if metric == "histogram":
        closeness = np.minimum(base, base[10]).sum(axis=1)
    else:
        closeness = -((base - base[10]) ** 2).sum(axis=1)
    others = [
        int(oid) for oid in np.argsort(-closeness, kind="stable") if oid not in {10, *copies}
    ]
    rival, twin = others[k - 2], others[-1]
    base[twin] = base[rival]
    return base, base[others[-6:-1]].copy(), [*copies, rival], k


def results_of(answer) -> list:
    return answer.results if isinstance(answer, BatchSearchResult) else [answer]


#: ``(backend, mode, metric)`` of every exact backend row scorer (both
#: engine kinds of ``sharded_bond``), over each metric it serves.
ROW_SCORERS = [
    (backend, mode, metric)
    for backend, mode in (
        ("bond", "exact"),
        ("sharded_bond", "exact"),
        ("sequential_scan", "exact"),
        ("partial_abandon", "exact"),
        ("rtree", "exact"),
        ("compressed_bond", "compressed"),
        ("sharded_bond", "compressed"),
        ("vafile", "compressed"),
    )
    for metric in ("histogram", "euclidean")
    if not (backend == "rtree" and metric == "histogram")
]


def assert_matches_rebuild(index: Index, shadow: Shadow, queries: np.ndarray, k: int = 5):
    """The live index answers == a from-scratch rebuild, bitwise (mapped OIDs)."""
    reference = Index.build(shadow.rebuilt(), name="rebuilt")
    mapping = shadow.mapping()
    for vector in np.atleast_2d(queries):
        q = query_for(vector, k=min(k, shadow.live))
        live = index.answer(q)
        rebuilt = reference.answer(q)
        assert [mapping[int(oid)] for oid in live.oids] == rebuilt.oids.tolist()
        assert np.array_equal(live.scores, rebuilt.scores)


# -- the write-ahead log ----------------------------------------------------------


class TestWalFormat:
    def test_round_trip(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log", token="deadbeef")
        rows = hist(rng, 3)
        assert wal.append_insert(rows) == 1
        assert wal.append_delete(np.array([4, 7], dtype=np.int64)) == 2
        wal.close()
        records, last_lsn = read_wal(tmp_path / "wal.log", token="deadbeef")
        assert last_lsn == 2
        assert [record.lsn for record in records] == [1, 2]
        assert np.array_equal(records[0].vectors, rows)
        assert records[1].oids.tolist() == [4, 7]

    def test_lazy_creation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", token="deadbeef")
        assert not (tmp_path / "wal.log").exists()
        wal.append_delete(np.array([1], dtype=np.int64))
        assert (tmp_path / "wal.log").exists()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal(tmp_path / "wal.log", token="deadbeef") == ([], 0)

    def test_torn_tail_is_truncated(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, token="deadbeef")
        wal.append_insert(hist(rng, 2))
        wal.append_delete(np.array([0], dtype=np.int64))
        wal.close()
        intact = path.stat().st_size
        # A crash mid-append leaves a half-written record behind.
        with open(path, "ab") as handle:
            handle.write(b"WALR-half-a-record")
        records, last_lsn = read_wal(path, token="deadbeef")
        assert last_lsn == 2 and len(records) == 2
        assert path.stat().st_size == intact  # repaired in place
        # And the repair is idempotent / deterministic.
        again, _ = read_wal(path, token="deadbeef")
        assert [record.lsn for record in again] == [1, 2]

    def test_corrupt_crc_truncates_from_there(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, token="deadbeef")
        wal.append_insert(hist(rng, 1))
        after_first = path.stat().st_size
        wal.append_insert(hist(rng, 1))
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the last record's CRC
        path.write_bytes(bytes(data))
        records, last_lsn = read_wal(path, token="deadbeef")
        assert last_lsn == 1 and len(records) == 1
        assert path.stat().st_size == after_first

    def test_token_mismatch_is_ignored_and_retired(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        stale = WriteAheadLog(path, token="00000000")
        stale.append_insert(hist(rng, 1))
        stale.close()
        records, last_lsn = read_wal(path, token="11111111")
        assert (records, last_lsn) == ([], 0)
        # The stale log was retired under the new token: a fresh handle's
        # appends are not hidden behind a stale header.
        wal = WriteAheadLog(path, token="11111111", next_lsn=9)
        wal.append_delete(np.array([2], dtype=np.int64))
        wal.close()
        records, last_lsn = read_wal(path, token="11111111")
        assert last_lsn == 9 and records[0].oids.tolist() == [2]

    def test_out_of_order_lsn_raises(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, token="deadbeef", next_lsn=5)
        wal.append_insert(hist(rng, 1))
        wal.close()
        # Forge a second record that goes backwards.
        forged = WriteAheadLog(tmp_path / "other.log", token="deadbeef", next_lsn=3)
        forged.append_insert(hist(rng, 1))
        forged.close()
        with open(path, "ab") as handle:
            handle.write((tmp_path / "other.log").read_bytes()[16:])
        with pytest.raises(StorageError):
            read_wal(path, token="deadbeef")

    def test_failed_fsync_rolls_back(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, token="deadbeef")
        wal.append_insert(hist(rng, 1))
        before = path.stat().st_size
        plan = FaultPlan(seed=1).arm("wal.fsync", error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                wal.append_delete(np.array([0], dtype=np.int64))
        assert path.stat().st_size == before
        assert wal.next_lsn == 2  # the failed LSN was never consumed
        wal.append_delete(np.array([0], dtype=np.int64))
        wal.close()
        records, last_lsn = read_wal(path, token="deadbeef")
        assert last_lsn == 2 and len(records) == 2

    def test_wal_token_is_deterministic(self):
        assert wal_token(b"manifest") == wal_token(b"manifest")
        assert wal_token(b"a") != wal_token(b"b")
        assert len(wal_token(b"x")) == 8


# -- in-memory live updates -------------------------------------------------------


class TestLiveUpdates:
    def test_insert_assigns_and_answers(self, base, rng):
        index = Index.build(base, name="live")
        new_rows = hist(rng, 3)
        oids = index.insert(new_rows)
        assert oids.tolist() == [80, 81, 82]
        assert index.live_count == 83 and index.tail_rows == 3
        result = index.answer(query_for(new_rows[1], k=1))
        assert result.oids.tolist() == [81]

    def test_delete_hides_immediately(self, base):
        index = Index.build(base, name="live")
        target = index.answer(query_for(base[7], k=1)).oids[0]
        assert index.delete([int(target)]) == 1
        assert int(target) not in index.answer(query_for(base[7], k=5)).oids

    def test_delete_validates_before_logging(self, base):
        index = Index.build(base, name="live")
        with pytest.raises(StorageError):
            index.delete([80])
        with pytest.raises(StorageError):
            index.delete([-1])
        with pytest.raises(QueryError):
            index.delete(np.zeros((2, 2), dtype=np.int64))
        assert index.tail_rows == 0 and index.deleted_count == 0

    def test_insert_validates_dimensionality(self, base):
        index = Index.build(base, name="live")
        with pytest.raises(QueryError):
            index.insert(np.ones((1, DIMS + 1)))

    def test_empty_tail_is_the_fast_path(self, base):
        # An update-free index answers through exactly the pre-mutability
        # code path: bitwise identical across two fresh builds.
        q = query_for(base[3], k=7)
        first = Index.build(base, name="a").answer(q)
        second = Index.build(base, name="b").answer(q)
        assert np.array_equal(first.oids, second.oids)
        assert np.array_equal(first.scores, second.scores)

    @pytest.mark.parametrize(("backend", "scenario"), OVERLAY_CASES)
    def test_overlay_matches_rebuild_across_modes(
        self, rng, backend, scenario, monkeypatch
    ):
        index_options, query_options = OVERLAY_BACKENDS[backend]
        metric = query_options["metric"]
        base, rows, deleted, k = overlay_scenario(scenario, rng, metric)
        shadow = Shadow(base)
        shadow.insert(rows)
        shadow.delete(deleted)
        mapping = shadow.mapping()
        probes = np.vstack([base[10], rows[0]])
        if metric == "histogram" and base.shape[1] == 1:
            probes = np.ones((2, 1))  # the only L1-normalised 1-D query
        with Index.build(base, name="live", **index_options) as index, Index.build(
            shadow.rebuilt(), name="rebuilt", **index_options
        ) as reference:
            index.insert(rows)
            index.delete(deleted)
            # Spies: bond's base search runs at the caller's k (it drops the
            # deleted rows inside its scan), and answering builds no index
            # (no tail sub-index).
            searched_k, built = [], []
            for name in ("search", "search_batch"):
                original = getattr(BondSearcher, name)

                def spy(searcher, queries, k, *args, _original=original, **kwargs):
                    searched_k.append(k)
                    return _original(searcher, queries, k, *args, **kwargs)

                monkeypatch.setattr(BondSearcher, name, spy)
            index_init = Index.__init__
            monkeypatch.setattr(
                Index, "__init__", lambda *a, **kw: built.append(a) or index_init(*a, **kw)
            )
            for vectors in (probes[0], probes):
                query = Query(vectors, k=k, batch=vectors.ndim == 2, **query_options)
                live, rebuilt = index.answer(query), reference.answer(query)
                for live_one, rebuilt_one in zip(results_of(live), results_of(rebuilt)):
                    assert [mapping[int(oid)] for oid in live_one.oids] == rebuilt_one.oids.tolist()
                    assert np.array_equal(live_one.scores, rebuilt_one.scores)
        assert built == []
        if backend == "exact":
            assert searched_k, "the base search did not run on BondSearcher"
            assert set(searched_k) == {k}

    @pytest.mark.parametrize(
        ("backend", "mode", "metric"), ROW_SCORERS, ids=lambda value: str(value)
    )
    @pytest.mark.parametrize("fragment_format", ["float64", "float32"])
    def test_score_rows_matches_the_backends_own_search(
        self, rng, backend, mode, metric, fragment_format
    ):
        # The overlay's rebuild identity rests on this: a backend scores a
        # row outside the index exactly as its searches score it inside one.
        rows = hist(rng, 40)
        quantised = FragmentFormat.coerce(fragment_format)
        columns = np.ascontiguousarray(quantised.widen(quantised.quantise(rows)).T)
        with Index.build(rows, format=fragment_format, shards=2) as index:
            query = Query(
                hist(rng, 3), k=len(rows), metric=metric, mode=mode, backend=backend, batch=True
            )
            plan = index.plan(query)
            scores = plan.backend.score_rows(index, query, plan.metric, columns)
            answer = index.answer(query)
        assert scores.shape == (3, len(rows))
        for row, result in enumerate(answer.results):
            assert sorted(result.oids.tolist()) == list(range(len(rows)))
            assert np.array_equal(scores[row, result.oids], result.scores)

    def test_mmap_index_spills_nothing_on_the_query_path(self, rng, monkeypatch):
        base = hist(rng, 80)
        with Index.build(base, name="mapped", format="float32/mmap") as index:
            index.answer(query_for(base[0]))  # the base fragments spill here, once
            spilled = []
            original = tempfile.TemporaryDirectory
            monkeypatch.setattr(
                tempfile,
                "TemporaryDirectory",
                lambda *a, **kw: spilled.append(kw.get("prefix")) or original(*a, **kw),
            )
            for cycle in range(20):
                oids = index.insert(hist(rng, 2))
                index.delete([cycle, int(oids[0])])
                index.answer(query_for(base[40]))
        assert spilled == []

    def test_batch_overlay_matches_rebuild(self, base, rng):
        index = Index.build(base, name="live")
        shadow = Shadow(base)
        rows = hist(rng, 4)
        index.insert(rows)
        shadow.insert(rows)
        index.delete([0, 82])
        shadow.delete([0, 82])
        reference = Index.build(shadow.rebuilt(), name="rebuilt")
        mapping = shadow.mapping()
        matrix = np.vstack([base[5], rows[0]])
        live = index.answer(Query(matrix, k=4, metric="histogram", batch=True))
        rebuilt = reference.answer(Query(matrix, k=4, metric="histogram", batch=True))
        for live_one, rebuilt_one in zip(live.results, rebuilt.results):
            assert [mapping[int(oid)] for oid in live_one.oids] == rebuilt_one.oids.tolist()
            assert np.array_equal(live_one.scores, rebuilt_one.scores)

    def test_partial_shard_failure_mode_matches_rebuild(self, base, rng):
        index = Index.build(base, name="live", shards=3, on_shard_failure="partial")
        shadow = Shadow(base)
        rows = hist(rng, 3)
        index.insert(rows)
        shadow.insert(rows)
        index.delete([2])
        shadow.delete([2])
        assert_matches_rebuild(index, shadow, np.vstack([base[4], rows[1]]))

    def test_reorganize_compacts_and_preserves_answers(self, base, rng):
        index = Index.build(base, name="live")
        shadow = Shadow(base)
        rows = hist(rng, 6)
        index.insert(rows)
        shadow.insert(rows)
        index.delete([1, 83])
        shadow.delete([1, 83])
        before_scores = index.answer(query_for(base[20], k=5)).scores
        index.reorganize()
        shadow.reorganize()
        assert index.tail_rows == 0 and index.deleted_count == 0
        assert index.cardinality == shadow.live
        after = index.answer(query_for(base[20], k=5))
        assert np.array_equal(after.scores, before_scores)
        assert_matches_rebuild(index, shadow, base[20])

    def test_reorganize_on_clean_index_is_noop(self, base):
        index = Index.build(base, name="live")
        assert index.reorganize() == 0
        assert index.generation == 0

    def test_reorganize_refusing_to_empty(self, base):
        index = Index.build(base[:2], name="tiny")
        index.delete([0, 1])
        with pytest.raises(StorageError):
            index.reorganize()

    def test_planner_surcharges_but_keeps_ranking(self, base, rng):
        index = Index.build(base, name="live")
        clean_plan = index.plan(query_for(base[0]))
        index.insert(hist(rng, 2))
        live_plan = index.plan(query_for(base[0]))
        assert live_plan.backend_name == clean_plan.backend_name
        assert live_plan.estimate.score > clean_plan.estimate.score
        assert "live tail overlay" in index.explain(query_for(base[0]))

    def test_failover_still_overlays(self, base, rng):
        index = Index.build(base, name="live")
        shadow = Shadow(base)
        rows = hist(rng, 2)
        index.insert(rows)
        shadow.insert(rows)
        plan = FaultPlan(seed=3).arm("backend.answer", where={"backend": "bond"})
        reference = Index.build(shadow.rebuilt(), name="rebuilt")
        q = query_for(rows[0], k=3)
        # Rebuild identity is a per-backend property; both sides must land
        # on the same failover substitute to compare bitwise.
        with plan:
            live = index.answer(q, failover=True)
            rebuilt = reference.answer(q, failover=True)
        mapping = shadow.mapping()
        assert [mapping[int(oid)] for oid in live.oids] == rebuilt.oids.tolist()
        assert np.array_equal(live.scores, rebuilt.scores)


# -- property: any interleaving == rebuild-from-scratch ---------------------------


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("reorganize"), st.just(0)),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=10**6)),
    ),
    min_size=1,
    max_size=12,
)


class TestInterleavingProperty:
    @given(operations=OPERATIONS, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_matches_rebuild(self, operations, seed):
        op_rng = np.random.default_rng(seed)
        rows0 = hist(op_rng, 30)
        index = Index.build(rows0, name="prop")
        shadow = Shadow(rows0)
        for kind, argument in operations:
            if kind == "insert":
                rows = hist(op_rng, argument)
                oids = index.insert(rows)
                shadow.insert(rows)
                assert oids.tolist() == list(
                    range(len(shadow.rows) - argument, len(shadow.rows))
                )
            elif kind == "delete":
                if shadow.live <= 5:
                    continue
                live_oids = [i for i, keep in enumerate(shadow.alive) if keep]
                target = live_oids[argument % len(live_oids)]
                index.delete([target])
                shadow.delete([target])
            elif kind == "reorganize":
                index.reorganize()
                shadow.reorganize()
                assert index.cardinality == shadow.live
            else:  # query
                probe = shadow.rows[argument % len(shadow.rows)]
                assert_matches_rebuild(index, shadow, probe, k=4)
        assert index.live_count == shadow.live
        assert_matches_rebuild(index, shadow, shadow.rebuilt()[0], k=4)


# -- the tail is the one record of pending writes: merged() == the shadow ----------


def empty_tail(base_rows: np.ndarray) -> TailState:
    return TailState.empty(
        base_cardinality=base_rows.shape[0],
        dimensionality=base_rows.shape[1],
        format=FragmentFormat.coerce(None),
    )


class TestTailMerged:
    """``TailState.merged`` is the reorganised collection: live base rows,
    then live tail rows in insert order, with deletes applied in log order
    in the coordinate system current when each was issued."""

    BASE = np.array([[0.0], [1.0], [2.0]])

    def test_delete_then_append_does_not_resurrect(self):
        # The delete marks OID 1 dead; the append takes OID 3, never 1.
        tail = empty_tail(self.BASE).with_delete(np.array([1]), lsn=1)
        tail = tail.with_insert(np.array([[3.0]]), lsn=2)
        assert tail.total_cardinality == 4
        assert tail.merged(self.BASE).tolist() == [[0.0], [2.0], [3.0]]

    def test_delete_of_a_pending_tail_row_applies_in_log_order(self):
        tail = empty_tail(self.BASE).with_insert(np.array([[3.0], [4.0]]), lsn=1)  # OIDs 3, 4
        tail = tail.with_delete(np.array([3]), lsn=2)
        assert tail.merged(self.BASE).tolist() == [[0.0], [1.0], [2.0], [4.0]]

    def test_double_delete_is_idempotent(self):
        tail = empty_tail(self.BASE).with_insert(np.array([[3.0]]), lsn=1)
        once = tail.with_delete(np.array([0, 3]), lsn=2)
        twice = once.with_delete(np.array([0, 3]), lsn=3)
        assert twice.deleted_base.tolist() == [0]
        assert np.array_equal(twice.merged(self.BASE), once.merged(self.BASE))
        assert twice.merged(self.BASE).tolist() == [[1.0], [2.0]]

    def test_delete_cannot_name_a_not_yet_inserted_oid(self):
        # Log order matters: when the delete is issued, OID 3 does not exist.
        with pytest.raises(StorageError):
            empty_tail(self.BASE).with_delete(np.array([3]), lsn=1)

    def test_merged_rejects_a_base_of_another_shape(self):
        with pytest.raises(StorageError):
            empty_tail(self.BASE).merged(np.zeros((4, 1)))

    def test_caller_mutating_its_rows_after_insert_changes_nothing(self, base, rng):
        index = Index.build(base, name="copy")
        rows = hist(rng, 2)
        expected = rows.copy()
        index.insert(rows)
        rows[:] = 0.0
        index.reorganize()
        assert np.array_equal(index.vectors[-2:], expected)

    @given(seed=st.integers(min_value=0, max_value=2**16), steps=st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_random_op_sequences_match_the_shadow(self, seed, steps):
        op_rng = np.random.default_rng(seed)
        base_rows = op_rng.random((int(op_rng.integers(1, 6)), 3))
        tail, shadow = empty_tail(base_rows), Shadow(base_rows)
        for lsn in range(1, steps + 1):
            if op_rng.random() < 0.5:
                rows = op_rng.random((int(op_rng.integers(1, 4)), 3))
                tail = tail.with_insert(rows, lsn=lsn)
                shadow.insert(rows)
            else:
                # Any OID of the coordinate system, dead ones included.
                oids = op_rng.integers(0, len(shadow.rows), size=int(op_rng.integers(1, 4)))
                tail = tail.with_delete(oids, lsn=lsn)
                shadow.delete(oids)
            assert tail.live_count == shadow.live
            merged = tail.merged(base_rows)
            assert merged.shape == (shadow.live, 3)
            if shadow.live:
                assert np.array_equal(merged, shadow.rebuilt())


class TestTailTransitions:
    """The counters of ``TailState`` transitions, and their immutability: a
    transition returns a new state and never touches the one it came from."""

    BASE = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

    def test_insert_counts(self):
        tail = empty_tail(self.BASE).with_insert(np.ones((2, 2)), lsn=1)
        tail = tail.with_insert(np.zeros((1, 2)), lsn=2)
        assert (tail.tail_rows, tail.live_tail_count, tail.total_cardinality) == (3, 3, 6)
        assert tail.live_count == 6 and tail.last_lsn == 2
        assert not tail.is_empty

    def test_delete_counts_split_base_and_tail(self):
        tail = empty_tail(self.BASE).with_insert(np.ones((2, 2)), lsn=1)  # OIDs 3, 4
        tail = tail.with_delete(np.array([1, 4]), lsn=2)
        assert tail.deleted_base.tolist() == [1]
        assert tail.dead.tolist() == [False, True]
        assert (tail.deleted_base_count, tail.live_tail_count, tail.live_count) == (1, 1, 3)
        assert tail.total_cardinality == 5

    def test_deleted_base_oids_stay_sorted_and_unique(self):
        base = np.zeros((8, 1))
        tail = empty_tail(base).with_delete(np.array([5, 1, 5]), lsn=1)
        tail = tail.with_delete(np.array([3, 1]), lsn=2)
        assert tail.deleted_base.tolist() == [1, 3, 5]

    def test_insert_after_a_delete_keeps_the_deleted_base(self):
        tail = empty_tail(self.BASE).with_delete(np.array([0, 2]), lsn=1)
        tail = tail.with_insert(np.full((1, 2), 3.0), lsn=2)
        assert tail.deleted_base.tolist() == [0, 2]
        assert tail.merged(self.BASE).tolist() == [[1.0, 1.0], [3.0, 3.0]]

    def test_merged_applies_an_append_then_a_delete(self):
        base = np.array([[0.0, 0.0], [1.0, 1.0]])
        tail = empty_tail(base).with_insert(np.array([[2.0, 2.0]]), lsn=1)
        tail = tail.with_delete(np.array([0]), lsn=2)
        assert tail.merged(base).tolist() == [[1.0, 1.0], [2.0, 2.0]]

    @pytest.mark.parametrize("oid", [-1, 5], ids=["negative", "past-the-tail"])
    def test_delete_outside_the_coordinate_system_raises(self, oid):
        tail = empty_tail(self.BASE).with_insert(np.ones((2, 2)), lsn=1)  # OIDs [0, 5)
        with pytest.raises(StorageError):
            tail.with_delete(np.array([oid]), lsn=2)

    def test_transitions_leave_the_prior_state_untouched(self):
        first = empty_tail(self.BASE).with_insert(np.ones((1, 2)), lsn=1)
        raw, dead = first.raw.copy(), first.dead.copy()
        first.with_insert(np.zeros((2, 2)), lsn=2)
        first.with_delete(np.array([0, 3]), lsn=3)
        assert np.array_equal(first.raw, raw) and np.array_equal(first.dead, dead)
        assert first.deleted_base_count == 0 and first.last_lsn == 1

    def test_merged_leaves_the_tail_intact(self):
        tail = empty_tail(self.BASE).with_insert(np.full((2, 2), 7.0), lsn=1)
        tail = tail.with_delete(np.array([1, 3]), lsn=2)
        once = tail.merged(self.BASE)
        once[:] = -1.0
        assert tail.merged(self.BASE).tolist() == [[0.0, 0.0], [2.0, 2.0], [7.0, 7.0]]
        assert (tail.tail_rows, tail.live_tail_count, tail.deleted_base_count) == (2, 1, 1)

    def test_empty_tail_merges_to_a_copy_of_the_base(self):
        tail = empty_tail(self.BASE)
        assert tail.is_empty and tail.live_count == 3
        merged = tail.merged(self.BASE)
        assert np.array_equal(merged, self.BASE)
        assert not np.shares_memory(merged, self.BASE)

    def test_a_wholly_deleted_tail_merges_to_the_base(self):
        tail = empty_tail(self.BASE).with_insert(np.ones((2, 2)), lsn=1)
        tail = tail.with_delete(np.array([3, 4]), lsn=2)
        assert not tail.is_empty and tail.live_tail_count == 0
        assert np.array_equal(tail.merged(self.BASE), self.BASE)

    def test_empty_delete_changes_only_the_lsn(self):
        tail = empty_tail(self.BASE).with_insert(np.ones((1, 2)), lsn=1)
        tail = tail.with_delete(np.array([0]), lsn=2)
        after = tail.with_delete(np.array([], dtype=np.int64), lsn=3)
        assert after.deleted_base.tolist() == [0] and after.dead.tolist() == [False]
        assert after.last_lsn == 3

    def test_live_rows_of_an_empty_tail(self):
        oids, columns = empty_tail(self.BASE).live_rows()
        assert oids.shape == (0,) and columns.shape == (2, 0)

    def test_live_rows_skip_dead_rows_and_keep_their_oids(self):
        rows = np.array([[3.0, 3.5], [4.0, 4.5], [5.0, 5.5]])
        tail = empty_tail(self.BASE).with_insert(rows, lsn=1)  # OIDs 3, 4, 5
        tail = tail.with_delete(np.array([4]), lsn=2)
        oids, columns = tail.live_rows()
        assert oids.tolist() == [3, 5]
        assert np.array_equal(columns, rows[[0, 2]].T)

    def test_live_rows_are_built_once(self):
        tail = empty_tail(self.BASE).with_insert(np.ones((2, 2)), lsn=1)
        assert tail.live_rows() is tail.live_rows()

    @pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
    def test_live_rows_hold_what_the_reorganised_store_will(self, rng, dtype):
        fmt = FragmentFormat.coerce(dtype)
        base_rows = hist(rng, 10)
        tail = TailState.empty(base_cardinality=10, dimensionality=DIMS, format=fmt)
        tail = tail.with_insert(hist(rng, 4), lsn=1).with_delete(np.array([2, 11]), lsn=2)
        oids, columns = tail.live_rows()
        assert oids.tolist() == [10, 12, 13]
        store = DecomposedStore(tail.merged(base_rows), format=fmt)
        assert np.array_equal(columns.T, store.matrix[-3:])


# -- non-finite rows are refused before they are logged ------------------------------


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRows:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "+inf", "-inf"])
    def test_build_refuses_non_finite_rows(self, base, value):
        rows = base.copy()
        rows[7, 3] = value
        with pytest.raises(QueryError):
            Index.build(rows, name="bad")

    @pytest.mark.parametrize("batch", [1, 4], ids=["single", "batch"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "+inf", "-inf"])
    def test_insert_refuses_non_finite_rows_before_logging(
        self, tmp_path, base, rng, value, batch
    ):
        index = Index.build(base, name="attached")
        home = tmp_path / "store"
        index.save(home)
        index.insert(hist(rng, 1))
        wal_bytes = (home / "wal.log").stat().st_size
        rows = hist(rng, batch)
        rows[batch - 1, 2] = value
        with pytest.raises(QueryError):
            index.insert(rows[0] if batch == 1 else rows)
        assert (home / "wal.log").stat().st_size == wal_bytes
        assert index.tail_rows == 1
        assert Index.open(home).tail_rows == 1


# -- the write lifecycle: tail now, base after the next reorganisation -------------


class TestReorganizeLifecycle:
    def test_insert_counts_at_once_and_joins_the_base_at_reorganize(self, base, rng):
        index = Index.build(base, name="grow")
        rows = hist(rng, 2)
        index.insert(rows)
        assert (index.cardinality, index.live_count, index.tail_rows) == (80, 82, 2)
        index.reorganize()
        assert (index.cardinality, index.live_count, len(index)) == (82, 82, 82)
        assert np.array_equal(index.vectors, np.concatenate([base, rows]))

    def test_delete_hides_at_once_and_shrinks_at_reorganize(self, base):
        index = Index.build(base, name="shrink")
        index.delete([0, 1])
        assert (index.cardinality, index.live_count) == (80, 78)
        result = index.answer(query_for(base[0], k=80))
        assert len(result.oids) == 78 and not {0, 1} & set(result.oids.tolist())
        index.reorganize()
        assert (index.cardinality, index.live_count) == (78, 78)
        assert np.array_equal(index.vectors, base[2:])

    def test_counters_clear_at_reorganize(self, base, rng):
        index = Index.build(base, name="clear")
        index.insert(hist(rng, 1))
        index.delete([2])
        assert (index.tail_rows, index.deleted_count) == (1, 1)
        assert index.reorganize() == 1 == index.generation
        assert index.tail_rows == 0 and index.deleted_count == 0

    @pytest.mark.parametrize("metric,own_score", [("histogram", 1.0), ("euclidean", 0.0)])
    def test_an_inserted_row_is_its_own_nearest_neighbour_after_reorganize(
        self, base, rng, metric, own_score
    ):
        index = Index.build(base, name="self")
        rows = hist(rng, 10)
        index.insert(rows)
        index.reorganize()
        result = index.answer(Query(rows[5], k=1, metric=metric))
        assert result.oids.tolist() == [85]
        assert result.scores[0] == pytest.approx(own_score)

    @pytest.mark.parametrize("shape", [(0, DIMS), (2, 2, DIMS)], ids=["no-rows", "3-d"])
    def test_insert_refuses_a_malformed_batch(self, base, shape):
        index = Index.build(base, name="shape")
        with pytest.raises(QueryError):
            index.insert(np.full(shape, 1.0 / DIMS))
        assert index.tail_rows == 0

    def test_caller_mutating_its_oids_after_delete_changes_nothing(self, base):
        index = Index.build(base, name="copy")
        oids = np.array([3, 4], dtype=np.int64)
        index.delete(oids)
        oids[:] = 0
        index.reorganize()
        assert np.array_equal(index.vectors, np.delete(base, [3, 4], axis=0))

    def test_empty_delete_logs_nothing(self, tmp_path, base, rng):
        index = Index.build(base, name="attached")
        home = tmp_path / "store"
        index.save(home)
        index.insert(hist(rng, 1))
        wal_bytes = (home / "wal.log").stat().st_size
        assert index.delete([]) == 0
        assert (home / "wal.log").stat().st_size == wal_bytes
        assert index.deleted_count == 0

    def test_oids_continue_past_dead_tail_rows(self, base, rng):
        index = Index.build(base, name="oids")
        assert index.insert(hist(rng, 2)).tolist() == [80, 81]
        index.delete([81])
        assert index.insert(hist(rng, 1)).tolist() == [82]
        assert (index.tail_rows, index.live_count) == (3, 82)

    def test_reorganize_after_the_tail_is_wholly_deleted_keeps_the_base(self, base, rng):
        index = Index.build(base, name="undo")
        index.insert(hist(rng, 2))
        index.delete([80, 81])
        assert index.reorganize() == 1
        assert index.cardinality == 80
        assert np.array_equal(index.vectors, base)

    def test_reorganize_rebalances_the_shard_plan(self, base, rng):
        index = Index.build(base, name="sharded", shards=3)
        assert index.shard_plan == ShardPlan.balanced(80, 3)
        index.insert(hist(rng, 10))
        index.delete(list(range(5)))
        index.reorganize()
        assert index.shard_plan == ShardPlan.balanced(85, 3)

    def test_sharded_answers_after_reorganize_match_unsharded(self, base, rng):
        sharded = Index.build(base, name="sharded", shards=3)
        plain = Index.build(base, name="plain")
        rows = hist(rng, 6)
        for index in (sharded, plain):
            index.insert(rows)
            index.delete([4, 30, 83])
            index.reorganize()
        for probe in (base[10], rows[2]):
            left = sharded.answer(query_for(probe, k=7, backend="sharded_bond"))
            right = plain.answer(query_for(probe, k=7))
            assert np.array_equal(left.oids, right.oids)
            assert np.array_equal(left.scores, right.scores)

    def test_replayed_tail_merges_like_the_live_one(self, tmp_path, base, rng):
        attached = Index.build(base, name="replay")
        home = tmp_path / "store"
        attached.save(home)
        live = Index.build(base, name="live")
        first, second = hist(rng, 3), hist(rng, 2)
        for index in (attached, live):
            index.insert(first)
            index.delete([1, 81])
            index.insert(second)
        reopened = Index.open(home)
        assert (reopened.tail_rows, reopened.deleted_count) == (5, 1)
        reopened.reorganize()
        live.reorganize()
        assert np.array_equal(reopened.vectors, live.vectors)

    def test_save_after_reorganize_round_trips(self, tmp_path, base, rng):
        index = Index.build(base, name="resave")
        index.insert(hist(rng, 4))
        index.delete([0, 82])
        index.reorganize()
        index.save(tmp_path / "store")
        reopened = Index.open(tmp_path / "store")
        assert np.array_equal(reopened.vectors, index.vectors)
        probe = index.vectors[40]
        assert answers(reopened, probe) == answers(index, probe)


# -- crash consistency over the persisted store -----------------------------------


def make_attached(tmp_path, base, rng):
    """A saved (attached) index with a couple of live WAL records."""
    index = Index.build(base, name="crash")
    home = tmp_path / "store"
    index.save(home)
    extra = hist(rng, 3)
    index.insert(extra)
    index.delete([1])
    shadow = Shadow(base)
    shadow.insert(extra)
    shadow.delete([1])
    return index, home, shadow


def answers(index: Index, probes: np.ndarray, k: int = 5):
    out = []
    for vector in np.atleast_2d(probes):
        result = index.answer(query_for(vector, k=k))
        out.append((result.oids.tolist(), result.scores.tolist()))
    return out


class TestCrashConsistency:
    def test_wal_append_fault_acknowledges_nothing(self, tmp_path, base, rng):
        index, home, shadow = make_attached(tmp_path, base, rng)
        before = answers(index, base[:3])
        plan = FaultPlan(seed=5).arm("wal.append", error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                index.insert(hist(rng, 1))
        # The failed insert was never acknowledged: live state unchanged,
        # and a reopen (the crash view) agrees exactly.
        assert answers(index, base[:3]) == before
        reopened = Index.open(home)
        assert answers(reopened, base[:3]) == before
        assert_matches_rebuild(reopened, shadow, base[:3])

    def test_wal_fsync_fault_acknowledges_nothing(self, tmp_path, base, rng):
        index, home, shadow = make_attached(tmp_path, base, rng)
        before = answers(index, base[:3])
        plan = FaultPlan(seed=5).arm("wal.fsync", error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                index.delete([5])
        assert answers(index, base[:3]) == before
        reopened = Index.open(home)
        assert answers(reopened, base[:3]) == before

    def test_torn_wal_tail_replays_acknowledged_prefix(self, tmp_path, base, rng):
        index, home, shadow = make_attached(tmp_path, base, rng)
        before = answers(index, base[:3])
        # Simulate the kill: a torn half-record at the end of the log.
        with open(home / "wal.log", "ab") as handle:
            handle.write(b"\x52\x4c\x41\x57half-written")
        first = Index.open(home)
        assert answers(first, base[:3]) == before
        second = Index.open(home)  # replay is deterministic
        assert answers(second, base[:3]) == before
        assert_matches_rebuild(second, shadow, base[:3])

    @pytest.mark.parametrize("point", ["manifest.commit", "file.rename"])
    def test_reorganize_crash_keeps_old_generation(self, tmp_path, base, rng, point):
        index, home, shadow = make_attached(tmp_path, base, rng)
        before = answers(index, base[:3])
        plan = FaultPlan(seed=5).arm(point, error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                index.reorganize()
        # The commit never happened: live epoch, WAL, and directory all
        # still serve the old generation plus the replayable tail.
        assert index.generation == 0
        assert answers(index, base[:3]) == before
        reopened = Index.open(home)
        assert reopened.generation == 0
        assert reopened.tail_rows == 3 and reopened.deleted_count == 1
        assert answers(reopened, base[:3]) == before
        # And the interrupted reorganisation is simply retryable.
        assert reopened.reorganize() == 1
        assert np.array_equal(
            np.array(answers(reopened, base[:3]), dtype=object)[:, 1].tolist(),
            np.array(before, dtype=object)[:, 1].tolist(),
        )

    def test_reorganize_commit_survives_reopen(self, tmp_path, base, rng):
        index, home, shadow = make_attached(tmp_path, base, rng)
        index.reorganize()
        shadow.reorganize()
        assert index.generation == 1
        reopened = Index.open(home)
        assert reopened.generation == 1
        assert reopened.tail_rows == 0 and reopened.deleted_count == 0
        assert_matches_rebuild(reopened, shadow, base[:3])
        # Old-generation fragment files were garbage-collected after commit.
        assert not (home / "dim_00000.col").exists()
        assert (home / "dim_00000.g00000001.col").exists()

    def test_read_fragment_fault_then_clean_reopen(self, tmp_path, base, rng):
        index, home, shadow = make_attached(tmp_path, base, rng)
        plan = FaultPlan(seed=5).arm(
            "store.read_fragment", error=FaultInjectionError, times=1
        )
        with plan:
            with pytest.raises(FaultInjectionError):
                Index.open(home)
        reopened = Index.open(home)
        assert_matches_rebuild(reopened, shadow, base[:3])

    def test_recovery_is_wal_order_faithful(self, tmp_path, base, rng):
        # Delete-then-insert and insert-then-delete of the same OID differ;
        # replay must preserve log order exactly.
        index = Index.build(base, name="order")
        home = tmp_path / "store"
        index.save(home)
        rows = hist(rng, 2)
        oids = index.insert(rows)
        index.delete([int(oids[0])])
        more = hist(rng, 1)
        index.insert(more)
        shadow = Shadow(base)
        shadow.insert(rows)
        shadow.delete([int(oids[0])])
        shadow.insert(more)
        reopened = Index.open(home)
        assert reopened.live_count == index.live_count
        assert_matches_rebuild(reopened, shadow, np.vstack([rows[1], more[0]]))


# -- crash-atomic save ------------------------------------------------------------


class TestSaveAtomicity:
    def test_save_with_pending_tail_refuses(self, tmp_path, base, rng):
        index = Index.build(base, name="save")
        index.insert(hist(rng, 1))
        with pytest.raises(StorageError):
            index.save(tmp_path / "store")
        assert not (tmp_path / "store" / MANIFEST_NAME).exists()

    def test_interrupted_fresh_save_leaves_no_store(self, tmp_path, base):
        index = Index.build(base, name="save")
        plan = FaultPlan(seed=7).arm("manifest.commit", error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                index.save(tmp_path / "store")
        assert not (tmp_path / "store" / MANIFEST_NAME).exists()
        with pytest.raises(StorageError):
            Index.open(tmp_path / "store")
        # The save is retryable and the retry is complete.
        index.save(tmp_path / "store")
        reopened = Index.open(tmp_path / "store")
        assert reopened.cardinality == len(base)

    def test_interrupted_overwrite_keeps_old_store(self, tmp_path, base, rng):
        first = Index.build(base, name="old")
        home = tmp_path / "store"
        first.save(home)
        replacement = Index.build(hist(rng, 40), name="new")
        plan = FaultPlan(seed=7).arm("file.rename", error=FaultInjectionError, times=1)
        with plan:
            with pytest.raises(FaultInjectionError):
                replacement.save(home, overwrite=True)
        survivor = Index.open(home)
        assert survivor.cardinality == len(base)
        assert survivor.name == "old"

    def test_stale_manifest_tmp_swept_on_open(self, tmp_path, base):
        index = Index.build(base, name="save")
        home = tmp_path / "store"
        index.save(home)
        (home / (MANIFEST_NAME + ".tmp")).write_text("{torn}")
        Index.open(home)
        assert not (home / (MANIFEST_NAME + ".tmp")).exists()

    def test_save_then_mutate_then_reopen(self, tmp_path, base, rng):
        index = Index.build(base, name="save")
        home = tmp_path / "store"
        index.save(home)
        assert not (home / "wal.log").exists()  # lazy: no updates, no log
        index.insert(hist(rng, 2))
        assert (home / "wal.log").exists()
        manifest = load_manifest(home)
        assert manifest_mutability(manifest) == {"generation": 0, "wal_lsn": 0}
        reopened = Index.open(home)
        assert reopened.tail_rows == 2

    def test_reorganize_persists_the_options_save_persists(self, tmp_path, base, rng):
        def options(index):
            return (
                index.compressed.bits,
                index.shards,
                index.on_shard_failure,
                index.shard_executor,
                index.format.spec,
                index.approx_config,
            )

        built = Index.build(
            base,
            name="opts",
            bits=6,
            shards=2,
            on_shard_failure="partial",
            shard_executor="process",
            format="float32",
            approx={"n_clusters": 4, "seed": 3},
        )
        home = tmp_path / "store"
        built.save(home)
        saved = load_manifest(home)["index"]
        with Index.open(home) as after_save:
            assert options(after_save) == options(built)
        built.insert(hist(rng, 2))
        assert built.reorganize() == 1
        assert load_manifest(home)["index"] == saved
        with Index.open(home) as after_reorganize:
            assert after_reorganize.generation == 1
            assert options(after_reorganize) == options(built)
        built.close()


# -- layout compatibility ---------------------------------------------------------


class TestLayoutCompatibility:
    def test_v4_manifest_opens_with_defaults(self, tmp_path, base, rng):
        index = Index.build(base, name="compat")
        home = tmp_path / "store"
        index.save(home)
        manifest = json.loads((home / MANIFEST_NAME).read_text())
        manifest["layout_version"] = 4
        manifest.pop("mutability")
        (home / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        reopened = Index.open(home)
        assert reopened.generation == 0
        # A pre-mutability store is fully updatable after opening.
        reopened.insert(hist(rng, 1))
        again = Index.open(home)
        assert again.tail_rows == 1


# -- serving stays live through reorganisation ------------------------------------


class TestServingDuringReorganize:
    def test_concurrent_queries_are_bitwise_stable(self, base, rng):
        # Inserts only (no deletes), so reorganisation neither changes the
        # logical collection nor renumbers OIDs: answers captured after an
        # insert must stay bitwise identical while reorganize() swaps the
        # epoch underneath the query threads.  The hammers pin a fixed
        # backend whose kernel is reentrant (``sequential_scan``) — the
        # cached searchers of the pruning backends carry per-search scratch
        # and were never safe to *share* across OS threads, epoch machinery
        # or not; what this test owns is the swap itself.  Inserts happen
        # between hammer rounds (a fresh row can legitimately enter the
        # top-k).

        def probe_answers(index, probes, k=5):
            out = []
            for row in probes:
                result = index.execute(
                    query_for(row, k=k), backend="sequential_scan"
                )
                out.append((result.oids.tolist(), result.scores.tolist()))
            return out

        index = Index.build(base, name="serve")
        rows = hist(rng, 5)
        index.insert(rows)
        probes = np.vstack([base[2], rows[0], base[40]])
        for _ in range(3):
            expected = probe_answers(index, probes)
            planned = answers(index, probes)
            stop = threading.Event()
            failures: list = []

            def hammer():
                while not stop.is_set():
                    try:
                        if probe_answers(index, probes) != expected:
                            failures.append("answer drifted during reorganisation")
                            return
                    except Exception as exc:  # pragma: no cover - failure path
                        failures.append(repr(exc))
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                index.reorganize()
                # The swap is invisible on both the fixed-backend path and
                # the planner path (single-threaded: planner state is shared).
                assert probe_answers(index, probes) == expected
                assert answers(index, probes) == planned
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not failures, failures
            index.insert(hist(rng, 2))

    def test_search_service_answers_through_reorganize(self, base, rng):
        from repro.serving import SearchService, ServingConfig

        index = Index.build(base, name="serve")
        rows = hist(rng, 4)
        index.insert(rows)
        probe = rows[1]
        expected = Index.build(np.vstack([base, rows]), name="ref").answer(
            query_for(probe, k=3)
        )

        async def main():
            config = ServingConfig(latency_budget=0.0)
            async with SearchService(index, config=config) as service:
                first = await service.submit(probe, k=3, metric="histogram")
                index.reorganize()
                second = await service.submit(probe, k=3, metric="histogram")
                return first, second

        first, second = asyncio.run(main())
        for result in (first, second):
            assert np.array_equal(result.oids, expected.oids)
            assert np.array_equal(result.scores, expected.scores)


# -- epoch pinning ----------------------------------------------------------------


class TestEpochPinning:
    def test_pin_survives_epoch_swap(self, base, rng):
        index = Index.build(base, name="pin")
        index.insert(hist(rng, 2))
        with index.pin() as epoch:
            assert epoch.pins == 1
            index.reorganize()  # publishes a new epoch...
            assert index._current_epoch() is epoch  # ...but this block reads the old one
            assert index.tail_rows == 2
        assert epoch.pins == 0
        assert index.tail_rows == 0  # unpinned reads see the new epoch

    def test_generation_counter(self, base, rng):
        index = Index.build(base, name="pin")
        assert index.generation == 0
        index.insert(hist(rng, 1))
        assert index.reorganize() == 1
        index.insert(hist(rng, 1))
        assert index.reorganize() == 2
