"""Live mutability: WAL-backed inserts/deletes, reorganisation, recovery.

A decomposed store is rebuilt periodically in the paper's model, but a real
image collection keeps growing between rebuilds.  This example walks the
crash-safe update surface of the ``Index`` facade:

* ``index.insert(rows)`` / ``index.delete(oids)`` take effect immediately —
  answers overlay the in-memory delta tail on the base fragments and are
  **bitwise identical** to an index rebuilt from scratch at the same
  logical state;
* on a saved (attached) index every update is appended to a checksummed
  write-ahead log and fsynced *before* the call returns, so an
  acknowledged update survives any crash;
* ``index.reorganize()`` merges the tail into fresh base fragments and
  commits them durably as the next manifest generation (temp file + fsync +
  atomic rename) — queries keep answering throughout;
* ``Index.open(path)`` recovers: newest committed generation, plus a replay
  of whatever WAL suffix the last crash left behind.

Run with::

    python examples/live_updates.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import Index, Query, make_corel_like


def show(label: str, result) -> None:
    oids = ", ".join(f"{oid}" for oid in result.oids[:5])
    print(f"  {label:<28} top-5 OIDs: [{oids}]")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="live-updates-") as scratch:
        walk_through(Path(scratch) / "store")


def walk_through(home: Path) -> None:
    # 1. Build and persist a collection: the saved index is "attached" —
    #    from here on, every update is WAL-logged before it is acknowledged.
    histograms = make_corel_like(cardinality=5_000, dimensionality=64, seed=17)
    index = Index.build(histograms, name="corel-live")
    index.save(home)
    print(f"saved {index.cardinality} rows to {home} (generation {index.generation})")

    probe = histograms[123]
    show("fresh index", index.answer(Query(probe, k=5, metric="histogram")))

    # 2. Insert: new rows are answerable the moment insert() returns, and
    #    the returned OIDs extend the existing coordinate system.
    rng = np.random.default_rng(99)
    fresh = rng.random((3, 64))
    fresh /= fresh.sum(axis=1, keepdims=True)
    oids = index.insert(fresh)
    print(f"\ninserted 3 rows -> OIDs {oids.tolist()} "
          f"(tail: {index.tail_rows} rows, WAL fsynced)")
    show("after insert", index.answer(Query(fresh[0], k=5, metric="histogram")))

    # 3. Delete: hides rows immediately; the delete is durable too.
    index.delete([123])
    result = index.answer(Query(probe, k=5, metric="histogram"))
    assert 123 not in result.oids
    print(f"\ndeleted OID 123 -> live rows: {index.live_count}")
    show("after delete", result)

    # 4. The overlay answer is bitwise identical to a full rebuild at the
    #    same logical state (the paper-grade identity the tests enforce).
    #    The rebuild compacts OIDs: every row after the deleted one moves
    #    down by one.
    logical = np.vstack([np.delete(histograms, 123, axis=0), fresh])
    with Index.build(logical, name="rebuilt") as rebuilt:
        for vector in (probe, fresh[1]):
            live = index.answer(Query(vector, k=5, metric="histogram"))
            reference = rebuilt.answer(Query(vector, k=5, metric="histogram"))
            assert np.array_equal(live.oids - (live.oids > 123), reference.oids)
            assert np.array_equal(live.scores, reference.scores)
    print("\noverlay OIDs and scores == rebuild (bitwise):", live.scores[:3])

    # 5. Reorganise: merge the tail into fresh fragments and commit them as
    #    the next generation.  OIDs compact (the deleted row's successors
    #    shift down by one) — exactly the renumbering a rebuild implies.
    generation = index.reorganize()
    print(f"\nreorganized -> generation {generation}, "
          f"{index.cardinality} base rows, tail empty: {index.tail_rows == 0}")

    # 6. Recovery: mutate again, then reopen the directory as a crashed
    #    process would.  The committed generation loads, and the WAL suffix
    #    replays the acknowledged-but-unmerged updates.
    index.insert(fresh[:1])
    with Index.open(home) as reopened:
        print(f"\nreopened: generation {reopened.generation}, "
              f"replayed tail rows: {reopened.tail_rows}")
        a = index.answer(Query(fresh[0], k=5, metric="histogram"))
        b = reopened.answer(Query(fresh[0], k=5, metric="histogram"))
        assert np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)
    print("recovered answers are bitwise identical to the live index")
    index.close()


if __name__ == "__main__":
    main()
