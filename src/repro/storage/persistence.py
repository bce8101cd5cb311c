"""On-disk persistence of decomposed collections.

The paper's physical design is literally "one table per dimension"; this
module gives that a concrete on-disk shape so a collection can be ingested
once and queried across process restarts:

* every dimension fragment is stored as its own little-endian binary file
  (``dim_00000.col`` ...) in the store's fragment dtype — reading one
  dimension never touches the others, which is the whole point of the
  layout;
* the optional row-sum column (needed by the Ev bound) is a separate file,
  always ``<f8`` regardless of the fragment dtype;
* a JSON manifest records the shape, fragment format and layout version.

The format is deliberately simple (raw columns + manifest) rather than a
custom container: it keeps the one-fragment-one-file property visible and
makes the storage layout auditable with nothing but ``ls`` and ``numpy``.

Layout versions: version 1 predates checksums; version 2 added per-fragment
CRC-32 + ``fold64`` integrity records; version 3 added the fragment-format
record (coefficient dtype x residency, plus a per-file ``fragments`` map);
version 4 added the optional ``approx`` manifest section pointing at the
approximate tier's sidecar arrays (``approx_*.apx``: IVF centroids /
permutation / offsets, and then also the levels / adjacency of an HNSW graph
since retired, whose records an index now ignores on open), each carrying
the same CRC-32 + ``fold64`` records as the fragments.  Version 5 made saves
**crash-atomic** and added the ``mutability`` section (store generation +
WAL watermark, see below).  v1-v4 manifests still load — they carry no
approximate structures / updates — and a float64 generation-0 store saved
by this build writes byte-identical fragment files to version 2.

Crash atomicity (version 5): every data file is written *first* (fragments,
row sums, approximate sidecars — under generation-tagged names when the
target directory already holds a committed store, so nothing is overwritten
in place), then the manifest is written to ``manifest.json.tmp``, fsynced,
and atomically renamed over ``manifest.json``.  **The rename is the commit
point**: a crash at any earlier instant leaves the previous manifest (and
every file it references) untouched, a crash after it leaves the new store
fully referenced — a reader sees the old store or the new store, never a
torn one.  After a successful commit, data files the new manifest no longer
references (the previous generation's fragments, aborted ``*.tmp`` leftovers)
are garbage-collected best-effort; ``load_decomposed`` also sweeps stale
temp files so an aborted save cannot accumulate garbage.

The ``mutability`` manifest section records ``generation`` (0 for a fresh
directory; each overwriting save or ``Index.reorganize`` commit increments
it) and ``wal_lsn`` — the last write-ahead-log sequence number merged into
the committed fragments.  ``Index.open`` replays only WAL records beyond
that watermark; see :mod:`repro.mutability.wal`.

Integrity: every fragment file's CRC-32 is recorded in the manifest at save
time, together with a fast vectorised ``fold64`` digest (word count +
wrapping 64-bit word sum).  ``load_decomposed(..., verify="checksum")`` —
and through it ``Index.open(verify="checksum")`` — verifies every fragment
it reads and raises a typed :class:`~repro.errors.CorruptFragmentError`
naming the fragment on any mismatch, instead of loading garbage; a manifest
whose schema version this build cannot serve raises
:class:`~repro.errors.ManifestVersionError`.  When fragments are opened as
memory maps the verification *streams* the file in fixed-size chunks
instead of touching the mapping, so verify="checksum" does not defeat mmap
laziness by faulting the whole collection into anonymous memory — pages
read during verification pass through the page cache and remain evictable.

Why two records per fragment: ``zlib.crc32`` holds the GIL and tops out
around 2 GB/s, which would put checksum verification at ~20% of a
page-cache-warm open — far over the < 5% overhead budget.  The ``fold64``
digest is a single ``np.add.reduce`` over the fragment viewed as little-endian
64-bit words, runs at memory bandwidth (~10 GB/s) directly on the
already-loaded array, and catches any single corrupted byte deterministically
(a changed word changes the wrapping sum unless a second, exactly
compensating corruption exists — a 2^-64 event for random bit rot).  The
fault-free verify path therefore computes only the fold; the CRC-32 stays
the authoritative, externally checkable record and is re-computed to
corroborate whenever the fold disagrees (or when a manifest carries no fold
record at all, in which case verification falls back to the full CRC-32).
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib

import numpy as np

from repro.engine.cost import CostModel
from repro.errors import CorruptFragmentError, ManifestVersionError, StorageError
from repro.reliability.faults import fault_point
from repro.storage.decomposed import DecomposedStore
from repro.storage.formats import FragmentFormat

#: Version tag written into every manifest; bump on layout changes.
#: Version 2 added per-fragment content checksums; version 3 added the
#: fragment-format record (dtype x residency); version 4 added the optional
#: ``approx`` section (sidecar arrays of the IVF cluster plan and of the
#: since-retired HNSW graph);
#: version 5 added atomic manifest commits, store generations and the
#: ``mutability`` section (generation + WAL watermark).
LAYOUT_VERSION = 5
#: Manifest versions this build can still read (version 1 predates
#: checksums, so it loads but cannot be checksum-verified; versions 1 and 2
#: imply the historical in-RAM ``float64`` fragment format; versions 1-3
#: carry no approximate-tier structures, so an index opened from them plans
#: the approximate backends against lazily rebuilt structures; versions 1-4
#: predate generations and are read as generation 0 with no WAL).
SUPPORTED_LAYOUT_VERSIONS = frozenset({1, 2, 3, 4, 5})
#: Fragment verification modes of :func:`load_decomposed`.
VERIFY_MODES = ("none", "checksum")
MANIFEST_NAME = "manifest.json"
ROW_SUM_NAME = "row_sums.col"

#: Chunk size of the streamed (mmap-friendly) verification readers.  4 MiB
#: is large enough to amortise syscalls and a multiple of 8, so only the
#: final chunk can carry a partial fold64 word.
VERIFY_CHUNK_BYTES = 4 * 1024 * 1024

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def fragment_checksum(data) -> str:
    """The authoritative manifest checksum of one fragment's raw bytes."""
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def fragment_digest(column: np.ndarray) -> str:
    """The fast-verify digest of one fragment (see the module docstring).

    Word count plus the wrapping sum of the fragment's raw bytes viewed as
    little-endian 64-bit words, computed straight off the loaded array so
    the fault-free verify path costs one memory-bandwidth reduction and no
    extra copy.  A byte length that is not a multiple of 8 (possible for
    narrow fragment dtypes) contributes one final zero-padded word; for the
    8-byte-multiple columns every earlier layout version wrote, the digest
    is bit-compatible with version 2.
    """
    raw = np.ascontiguousarray(column).reshape(-1).view(np.uint8)
    full = raw.size - raw.size % 8
    words = raw[:full].view("<u8")
    count = int(words.size)
    total = int(np.add.reduce(words, dtype=np.uint64)) if count else 0
    if full != raw.size:
        tail = np.zeros(8, dtype=np.uint8)
        tail[: raw.size - full] = raw[full:]
        total += int(tail.view("<u8")[0])
        count += 1
    return f"fold64:{count:016x}:{total & _U64_MASK:016x}"


def generation_suffix(generation: int) -> str:
    """File-name tag of one store generation (empty for generation 0).

    Generation 0 keeps the historical untagged names, so a fresh save is
    byte- and name-identical to earlier layout versions; later generations
    tag every data file, which is what lets an overwriting commit write next
    to the live files instead of over them.
    """
    if generation < 0:
        raise StorageError(f"generation must be non-negative, got {generation}")
    return "" if generation == 0 else f".g{generation:08d}"


def fragment_file_name(dimension: int, generation: int = 0) -> str:
    """File name of one dimension fragment."""
    return f"dim_{dimension:05d}{generation_suffix(generation)}.col"


def row_sum_file_name(generation: int = 0) -> str:
    """File name of the row-sum column."""
    return f"row_sums{generation_suffix(generation)}.col"


def manifest_mutability(manifest: dict) -> dict:
    """The ``mutability`` record of a manifest (defaulted for v1-v4)."""
    record = manifest.get("mutability") or {}
    return {
        "generation": int(record.get("generation", 0)),
        "wal_lsn": int(record.get("wal_lsn", 0)),
    }


def next_generation(path: str | pathlib.Path) -> int:
    """The generation an overwriting save of ``path`` must commit as.

    A fresh directory starts at 0.  A directory holding a committed store
    commits the *next* generation — reading the current one from the
    manifest, or, if the manifest is unreadable (interrupted earlier write
    on a pre-atomic layout), one past the largest generation tag among the
    data files, so the new files still cannot collide with anything present.
    """
    path = pathlib.Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        return 0
    try:
        manifest = json.loads(manifest_path.read_text())
        return manifest_mutability(manifest)["generation"] + 1
    except (ValueError, TypeError, OSError):
        highest = 0
        for existing in path.glob("*.col"):
            parts = existing.name.split(".")
            for part in parts[1:-1]:
                if part.startswith("g") and part[1:].isdigit():
                    highest = max(highest, int(part[1:]))
        return highest + 1


def _commit_manifest(
    path: pathlib.Path, manifest: dict, *, generation: int, durable: bool
) -> bytes:
    """Atomically publish ``manifest``; returns the exact bytes written.

    The temp-write + fsync + ``os.replace`` sequence is the storage layer's
    single commit point: everything the manifest references must already be
    on disk when this runs.
    """
    manifest_path = path / MANIFEST_NAME
    temp_path = path / (MANIFEST_NAME + ".tmp")
    payload = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    try:
        with open(temp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("manifest.commit", generation=generation)
        fault_point("file.rename", source=temp_path.name, target=manifest_path.name)
        os.replace(temp_path, manifest_path)
    except BaseException:
        temp_path.unlink(missing_ok=True)
        raise
    if durable:
        _fsync_directory(path)
    return payload


def _fsync_directory(path: pathlib.Path) -> None:
    """Best-effort fsync of a directory entry (not all platforms allow it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def _collect_referenced(manifest: dict) -> set[str]:
    """Every data file name the manifest references (GC keeps exactly these)."""
    referenced = set(manifest.get("fragments", {}))
    referenced.update(manifest.get("checksums", {}))
    for structure in (manifest.get("approx") or {}).values():
        for record in (structure.get("arrays") or {}).values():
            if isinstance(record, dict) and "file" in record:
                referenced.add(str(record["file"]))
    return referenced


def _sweep_unreferenced(path: pathlib.Path, manifest: dict) -> None:
    """Best-effort removal of data files the committed manifest doesn't own.

    Runs only after a successful commit: anything matching the layout's data
    patterns (``*.col``, ``*.apx``, ``*.tmp``) that the new manifest does not
    reference belongs to a superseded generation or an aborted save.  The
    write-ahead log is never touched — its lifecycle belongs to the WAL
    lineage token, not the sweep.
    """
    referenced = _collect_referenced(manifest)
    for pattern in ("*.col", "*.apx", "*.tmp"):
        for candidate in path.glob(pattern):
            if candidate.name in referenced or candidate.name == "wal.log":
                continue
            try:
                candidate.unlink()
            except OSError:  # pragma: no cover - GC is best effort
                pass


def _write_data_file(path: pathlib.Path, array: np.ndarray, *, durable: bool) -> None:
    """Write one data file, fsyncing when the save must be durable."""
    with open(path, "wb") as handle:
        array.tofile(handle)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())


def save_decomposed(
    store: DecomposedStore,
    directory: str | pathlib.Path,
    *,
    overwrite: bool = False,
    extra_manifest: dict | None = None,
    generation: int | None = None,
    wal_lsn: int = 0,
    durable: bool = False,
    sidecar_files: dict[str, np.ndarray] | None = None,
) -> pathlib.Path:
    """Write a decomposed store to ``directory`` (one file per fragment).

    Fragments are written in the store's own format dtype — persisting a
    float32 store writes half the bytes of a float64 one, and reopening it
    with ``residency="mmap"`` maps those files directly.

    The save is **crash-atomic**: all data files land first (under
    generation-tagged names when the directory already holds a store, so the
    live files are never overwritten in place), then the manifest commits
    via temp-file + fsync + atomic rename, and only then are superseded data
    files garbage-collected.  A kill at any instant leaves the directory
    opening as either the previous or the new store.

    Parameters
    ----------
    store:
        The collection to persist.
    directory:
        Target directory; created if missing.
    overwrite:
        Allow committing over a directory that already contains a manifest.
    extra_manifest:
        Additional manifest entries merged in next to the layout keys (the
        :class:`repro.api.Index` facade records its build options under an
        ``"index"`` key so ``Index.open`` can restore them).  Keys must not
        collide with the layout's own.
    generation:
        Generation to commit as; default derives it from the target (fresh
        directory: 0, committed store: its generation + 1).
    wal_lsn:
        Last write-ahead-log LSN whose effect is contained in these
        fragments; ``Index.open`` replays only records beyond it.
    durable:
        fsync every data file (and the directory) rather than just the
        manifest — the reorganisation path needs this before it may drop
        WAL records; plain saves of static collections can skip it.
    sidecar_files:
        Extra data files (the approximate tier's ``*.apx`` payloads) to
        write *before* the commit, so the manifest never references files
        that do not exist yet.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / MANIFEST_NAME
    if manifest_path.exists() and not overwrite:
        raise StorageError(f"{path} already contains a persisted collection (pass overwrite=True)")
    if generation is None:
        generation = next_generation(path)

    fragment_format = store.format
    struct_string = fragment_format.struct_string
    checksums: dict[str, str] = {}
    digests: dict[str, str] = {}
    fragments: dict[str, dict] = {}
    for dimension in range(store.dimensionality):
        column = np.ascontiguousarray(store.fragment_tail(dimension), dtype=struct_string)
        file_name = fragment_file_name(dimension, generation)
        _write_data_file(path / file_name, column, durable=durable)
        checksums[file_name] = fragment_checksum(column)
        digests[file_name] = fragment_digest(column)
        fragments[file_name] = {
            "dtype": fragment_format.dtype,
            "residency": fragment_format.residency,
        }

    has_row_sums = True
    try:
        row_sums = store.row_sums().tail
    except StorageError:
        has_row_sums = False
    if has_row_sums:
        row_sum_name = row_sum_file_name(generation)
        row_sum_column = np.ascontiguousarray(row_sums, dtype="<f8")
        _write_data_file(path / row_sum_name, row_sum_column, durable=durable)
        checksums[row_sum_name] = fragment_checksum(row_sum_column)
        digests[row_sum_name] = fragment_digest(row_sum_column)
        fragments[row_sum_name] = {
            "dtype": "float64",
            "residency": fragment_format.residency,
        }

    for file_name, data in (sidecar_files or {}).items():
        _write_data_file(path / file_name, np.ascontiguousarray(data), durable=durable)

    manifest = {
        "layout_version": LAYOUT_VERSION,
        "name": store.name,
        "cardinality": store.cardinality,
        "dimensionality": store.dimensionality,
        "dtype": struct_string,
        "format": fragment_format.to_manifest(),
        "fragments": fragments,
        "has_row_sums": has_row_sums,
        "checksums": checksums,
        "digests": digests,
        "mutability": {"generation": int(generation), "wal_lsn": int(wal_lsn)},
    }
    if extra_manifest:
        collisions = sorted(set(extra_manifest) & set(manifest))
        if collisions:
            raise StorageError(f"extra manifest keys collide with the layout's: {collisions}")
        manifest.update(extra_manifest)
    _commit_manifest(path, manifest, generation=generation, durable=durable)
    _sweep_unreferenced(path, manifest)
    return path


def load_manifest(directory: str | pathlib.Path) -> dict:
    """Read and validate the manifest of a persisted collection."""
    path = pathlib.Path(directory)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"{path} does not contain a persisted collection (missing {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("layout_version") not in SUPPORTED_LAYOUT_VERSIONS:
        raise ManifestVersionError(
            f"unsupported layout version {manifest.get('layout_version')!r} "
            f"(this build reads {sorted(SUPPORTED_LAYOUT_VERSIONS)})"
        )
    for key in ("cardinality", "dimensionality", "dtype"):
        if key not in manifest:
            raise StorageError(f"manifest is missing the required key {key!r}")
    return manifest


def manifest_format(manifest: dict) -> FragmentFormat:
    """The fragment format a manifest describes.

    Version 3 manifests carry an explicit ``format`` record; versions 1 and 2
    predate the abstraction and always meant in-RAM ``float64`` columns.
    """
    record = manifest.get("format")
    if record is None:
        return FragmentFormat()
    return FragmentFormat.from_manifest(record)


def _verify_fragment(
    file_name: str, column: np.ndarray, checksums: dict, digests: dict
) -> None:
    """Check one loaded fragment against the manifest's integrity records.

    Fault-free cost is one ``fold64`` reduction over the loaded array; the
    full CRC-32 only runs to corroborate a fold mismatch, or when the
    manifest carries no fold record for this fragment at all.
    """
    _report_verification(
        file_name,
        lambda: fragment_digest(column),
        lambda: fragment_checksum(np.ascontiguousarray(column)),
        checksums,
        digests,
    )


def _verify_fragment_file(
    file_name: str, fragment_path: pathlib.Path, checksums: dict, digests: dict
) -> None:
    """Streamed variant of :func:`_verify_fragment` for memory-mapped loads.

    Reads the file in :data:`VERIFY_CHUNK_BYTES` chunks through ordinary
    buffered I/O instead of touching a mapping, so verification of a
    larger-than-RAM collection holds one chunk in memory at a time.
    """
    _report_verification(
        file_name,
        lambda: _streamed_fold64(fragment_path),
        lambda: _streamed_crc32(fragment_path),
        checksums,
        digests,
    )


def _report_verification(
    file_name: str, compute_digest, compute_checksum, checksums: dict, digests: dict
) -> None:
    """Shared verdict logic of the in-memory and streamed verifiers."""
    expected_digest = digests.get(file_name)
    if expected_digest is not None:
        if compute_digest() == expected_digest:
            return
        expected_crc = checksums.get(file_name)
        actual_crc = compute_checksum()
        if expected_crc == actual_crc:
            # The bytes match their authoritative checksum, so the fold
            # record itself is what rotted: the manifest is not trustworthy.
            raise CorruptFragmentError(
                f"fragment {file_name} matches its CRC-32 but not the manifest's "
                f"fold64 record {expected_digest!r}; the manifest integrity "
                "records are inconsistent"
            )
        raise CorruptFragmentError(
            f"fragment {file_name} failed checksum verification "
            f"(manifest records {expected_crc!r}, file hashes to {actual_crc!r})"
        )
    expected = checksums.get(file_name)
    actual = compute_checksum()
    if expected != actual:
        raise CorruptFragmentError(
            f"fragment {file_name} failed checksum verification "
            f"(manifest records {expected!r}, file hashes to {actual!r})"
        )


def _streamed_fold64(path: pathlib.Path) -> str:
    """The ``fold64`` digest of a file, read in fixed-size chunks.

    Matches :func:`fragment_digest` bit for bit: full little-endian 64-bit
    words summed with wraparound, plus one zero-padded word for a trailing
    partial.  The accumulator is a Python int masked to 64 bits, so no numpy
    scalar overflow warnings fire on legitimate wraparound.
    """
    total = 0
    count = 0
    leftover = b""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(VERIFY_CHUNK_BYTES)
            if not chunk:
                break
            # Chunks are 8-byte multiples, so a partial word only survives
            # past the loop on the final (short) read.
            full = len(chunk) - len(chunk) % 8
            if full:
                words = np.frombuffer(chunk, dtype="<u8", count=full // 8)
                total = (total + int(np.add.reduce(words, dtype=np.uint64))) & _U64_MASK
                count += full // 8
            leftover = chunk[full:]
    if leftover:
        total = (total + int.from_bytes(leftover.ljust(8, b"\x00"), "little")) & _U64_MASK
        count += 1
    return f"fold64:{count:016x}:{total:016x}"


def _streamed_crc32(path: pathlib.Path) -> str:
    """The CRC-32 checksum of a file, read in fixed-size chunks."""
    crc = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(VERIFY_CHUNK_BYTES):
            crc = zlib.crc32(chunk, crc)
    return f"crc32:{crc & 0xFFFFFFFF:08x}"


def load_decomposed(
    directory: str | pathlib.Path,
    *,
    cost: CostModel | None = None,
    dimensions: list[int] | None = None,
    verify: str = "none",
    format: FragmentFormat | str | None = None,
) -> DecomposedStore:
    """Load a persisted collection back into a :class:`DecomposedStore`.

    ``dimensions`` restricts the load to a subset of fragments (the on-disk
    analogue of a subspace query: unneeded fragment files are never opened);
    the returned store then has that reduced dimensionality.

    ``format`` overrides the persisted fragment format: ``None`` reopens the
    collection exactly as saved.  A ``residency="mmap"`` target whose dtype
    matches the files memory-maps the fragment files in place — the store
    comes up without reading a single coefficient, and the OS pages
    fragments in as queries touch them.  A *narrower* dtype than persisted
    re-quantises each column at load (one ``astype``, identical to having
    built the store narrow); a *wider* one widens exactly.

    ``verify="checksum"`` verifies every fragment read against the integrity
    records the manifest captured at save time (the fast ``fold64`` digest,
    corroborated by the authoritative CRC-32 on any disagreement — see the
    module docstring); a mismatch raises
    :class:`~repro.errors.CorruptFragmentError` naming the fragment.
    Memory-mapped targets are verified by streaming the files in chunks, so
    verification never faults the whole mapping in.  A collection persisted
    before checksums existed (layout version 1) cannot be verified and
    raises :class:`~repro.errors.ManifestVersionError` — re-save it first.
    """
    if verify not in VERIFY_MODES:
        raise StorageError(f"unknown verify mode {verify!r}; supported: {VERIFY_MODES}")
    path = pathlib.Path(directory)
    manifest = load_manifest(path)
    # An interrupted (pre-commit) save can leave a temp manifest behind; the
    # committed manifest is authoritative, so the leftover is swept here.
    (path / (MANIFEST_NAME + ".tmp")).unlink(missing_ok=True)
    generation = manifest_mutability(manifest)["generation"]
    cardinality = int(manifest["cardinality"])
    dimensionality = int(manifest["dimensionality"])
    stored_dtype = np.dtype(manifest["dtype"])
    target = manifest_format(manifest) if format is None else FragmentFormat.coerce(format)
    checksums = manifest.get("checksums")
    digests = manifest.get("digests") or {}
    if verify == "checksum" and checksums is None:
        raise ManifestVersionError(
            f"{path} was persisted with layout version "
            f"{manifest.get('layout_version')!r}, which predates fragment "
            "checksums; re-save the collection to enable verify='checksum'"
        )
    wanted = list(range(dimensionality)) if dimensions is None else list(dimensions)
    if any(dimension < 0 or dimension >= dimensionality for dimension in wanted):
        raise StorageError("requested dimension outside the persisted dimensionality")

    # Map in place only when the on-disk dtype already matches the target —
    # a dtype change has to rewrite every value anyway, so it loads eagerly
    # and lets the store spill a fresh mapping if one was asked for.
    map_in_place = target.is_mapped and stored_dtype == target.np_dtype
    expected_bytes = cardinality * stored_dtype.itemsize
    tails: list[np.ndarray] = []
    for dimension in wanted:
        file_name = fragment_file_name(dimension, generation)
        fragment_path = path / file_name
        fault_point("store.read_fragment", dimension=dimension, file=file_name)
        if not fragment_path.exists():
            raise StorageError(f"missing fragment file {fragment_path.name}")
        if map_in_place:
            if verify == "checksum":
                _verify_fragment_file(file_name, fragment_path, checksums, digests)
            if fragment_path.stat().st_size != expected_bytes:
                raise CorruptFragmentError(
                    f"fragment {fragment_path.name} holds "
                    f"{fragment_path.stat().st_size} bytes, expected {expected_bytes}"
                )
            tails.append(np.memmap(fragment_path, dtype=stored_dtype, mode="r"))
            continue
        column = np.fromfile(fragment_path, dtype=stored_dtype)
        if verify == "checksum":
            _verify_fragment(file_name, column, checksums, digests)
        if column.shape[0] != cardinality:
            raise CorruptFragmentError(
                f"fragment {fragment_path.name} has {column.shape[0]} values, expected {cardinality}"
            )
        if column.dtype != target.np_dtype:
            # Narrowing re-quantises (round-to-nearest, same as a narrow
            # build); widening is exact.
            column = target.quantise(np.asarray(column, dtype=np.float64))
        tails.append(column)

    has_row_sums = bool(manifest.get("has_row_sums", True))
    row_sum_tail = None
    row_sum_name = row_sum_file_name(generation)
    row_sum_path = path / row_sum_name
    # The persisted row sums are only the store's T(v) column when the loaded
    # fragments hold exactly the persisted values — a dtype change shifts the
    # coefficients, so the sums are recomputed over the widened result.
    dtype_unchanged = stored_dtype == target.np_dtype
    if has_row_sums and dimensions is None and dtype_unchanged and row_sum_path.exists():
        row_sums = np.fromfile(row_sum_path, dtype="<f8")
        if verify == "checksum":
            _verify_fragment(row_sum_name, row_sums, checksums, digests)
        if row_sums.shape[0] == cardinality:
            row_sum_tail = row_sums

    store = DecomposedStore.from_fragments(
        tails,
        format=target,
        cost=cost,
        name=str(manifest.get("name", path.name)),
        row_sum_tail=row_sum_tail,
    )
    if has_row_sums and row_sum_tail is None:
        store.materialize_row_sums()
    return store


def persisted_size_bytes(directory: str | pathlib.Path) -> int:
    """Total bytes of all fragment files (excluding the manifest)."""
    path = pathlib.Path(directory)
    load_manifest(path)
    return sum(file.stat().st_size for file in path.glob("*.col"))


# -- approximate-tier sidecar arrays (layout version 4) -----------------------
#
# The IVF cluster plan persists as flat little-endian arrays next to the
# fragment files, one ``approx_<structure>_<name>.apx`` file each (the
# distinct extension keeps ``persisted_size_bytes`` a pure fragment measure).  The manifest's ``approx`` section records dtype, shape
# and the same CRC-32 + fold64 integrity pair as the fragments; loads always
# verify the fold64 digest — the arrays are small, so the check is free
# relative to the read.


def approx_sidecar_records(
    arrays: dict[str, np.ndarray], *, structure: str, generation: int = 0
) -> tuple[dict[str, dict], dict[str, np.ndarray]]:
    """Manifest records plus to-be-written payloads for one structure's arrays.

    Returns ``(records, files)``: ``records`` goes under the manifest's
    ``approx.<structure>.arrays`` key, ``files`` maps file names to the
    contiguous arrays to persist.  Splitting record computation from writing
    lets :meth:`repro.api.Index.save` embed the integrity records in the
    manifest it hands to :func:`save_decomposed` and pass the payloads as
    ``sidecar_files`` — written before the commit, so the manifest never
    references a file that is not on disk.  Sidecar names carry the same
    generation tag as the fragments.
    """
    records: dict[str, dict] = {}
    files: dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        data = np.ascontiguousarray(array)
        if data.dtype.byteorder == ">":
            data = data.astype(data.dtype.newbyteorder("<"))
        file_name = f"approx_{structure}_{name}{generation_suffix(generation)}.apx"
        records[name] = {
            "file": file_name,
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "checksum": fragment_checksum(data),
            "digest": fragment_digest(data),
        }
        files[file_name] = data
    return records, files


def write_approx_sidecars(
    directory: str | pathlib.Path, files: dict[str, np.ndarray]
) -> None:
    """Write the sidecar payloads of :func:`approx_sidecar_records`."""
    path = pathlib.Path(directory)
    for file_name, data in files.items():
        data.tofile(path / file_name)


def load_approx_array(directory: str | pathlib.Path, record: dict) -> np.ndarray:
    """Load one sidecar array back, verifying its fold64 digest.

    A digest mismatch is corroborated against the authoritative CRC-32
    exactly like fragment verification, and surfaces as a typed
    :class:`~repro.errors.CorruptFragmentError` naming the file.
    """
    file_name = str(record["file"])
    fragment_path = pathlib.Path(directory) / file_name
    fault_point("store.read_fragment", file=file_name)
    if not fragment_path.exists():
        raise StorageError(f"missing approximate-tier sidecar file {file_name}")
    data = np.fromfile(fragment_path, dtype=np.dtype(record["dtype"]))
    _verify_fragment(
        file_name,
        data,
        {file_name: record.get("checksum")},
        {file_name: record.get("digest")},
    )
    shape = tuple(int(extent) for extent in record["shape"])
    expected = int(np.prod(shape)) if shape else 1
    if data.size != expected:
        raise CorruptFragmentError(
            f"sidecar {file_name} holds {data.size} values, expected {expected}"
        )
    return data.reshape(shape)
