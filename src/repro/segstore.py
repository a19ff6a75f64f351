"""One log-structured shard protocol for every JSON-lines store in the repo.

A *shard* is a directory of keyed records, one canonical JSON object per
line.  :class:`~repro.obs.store.RunStore` and
:class:`~repro.serve.store.DecisionStore` are two *policies* over the
protocol in this module; nothing here knows what a record means.

- **append** -- :func:`append_line` lands one whole line on the shard's
  ``open.jsonl`` with a single ``O_APPEND`` write: no locks, any number
  of concurrent writers.
- **read** -- a record read from a shard is a ``(doc, canonical line)``
  pair (:func:`read_pairs`); :func:`read_docs` returns just the records
  for readers that need no identity or order.  Only the
  newline-terminated lines of a file count: a torn tail (dead or
  in-flight writer) is left unconsumed so a later read picks it up
  whole, and lines that are not UTF-8, not JSON, not an object or carry
  no ``key`` are skipped, never raised.  A ``seg-*`` line is trusted as
  its own canonical line, since only :func:`fold` writes segments and it
  writes nothing else.  Any other file -- the open tail, a ``pend-*``
  snapshot, a store's legacy files -- may hold a foreign writer's
  spelling of a record, so each of its records is canonicalized once,
  when the pair is read.
- **fold** -- :func:`fold` compacts every file of a shard into one
  immutable segment ``seg-<sha256(body)[:12]>.jsonl``.  The store's
  ``resolve`` callback picks and orders the surviving
  ``(key, canonical line)`` pairs; as long as it is a pure function of
  the record *set*, so are the segment's name and bytes, and a re-fold
  is a no-op.  Folding is safe under concurrent writers (see
  :func:`fold`) and publishes the segment *before* it removes anything.
- **sidecar** -- a segment may carry a ``.idx.json`` mapping each key to
  its line offsets (:func:`load_index`), so a reader can seek to one
  group without parsing the segment.  Sidecars are derived data: a
  missing or malformed one is rebuilt from its segment.
- **publish** -- everything that is not an append (segments, sidecars,
  and any other whole-file artifact in the repo) goes through
  :func:`write_atomic`: tmp + rename, and it raises when it cannot.
  :func:`read_object` is its tolerant reader.

What a policy supplies: where a record shards, which records survive a
fold and in what order (``resolve``), and whether segments get a
sidecar.  Stdlib only; imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "OPEN",
    "append_line",
    "canonical_line",
    "complete_lines",
    "fold",
    "index_path",
    "is_segment",
    "load_index",
    "order_key",
    "parse_line",
    "read_docs",
    "read_pairs",
    "read_object",
    "write_atomic",
]

#: the one file of a shard that writers append to
OPEN = "open.jsonl"

#: bump when the sidecar layout changes incompatibly
INDEX_SCHEMA_VERSION = 1


#: ``json.dumps(doc, sort_keys=True)`` without building an encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True)


def canonical_line(doc: dict) -> str:
    """The canonical JSONL line of a record -- its dedup identity."""
    return _CANONICAL.encode(doc)


def order_key(doc: dict, line: str) -> tuple[float, str]:
    """Deterministic history order: (wall_time, canonical line).

    The tiebreak on the full canonical line makes the order total, so
    sorting is reproducible in any merge/compaction order and identical
    records collapse rather than reorder.
    """
    try:
        wt = float(doc.get("wall_time", 0.0))
    except (TypeError, ValueError):
        wt = 0.0
    return (wt, line)


# -- reading -----------------------------------------------------------------------


def complete_lines(path: str | os.PathLike, start: int = 0,
                   ) -> tuple[list[str], int]:
    """Newline-terminated lines of ``path`` from byte ``start``.

    Returns ``(lines, end)`` where ``end`` is the offset just past the
    last *complete* line -- a torn trailing line (dead or in-flight
    writer) is left unconsumed so a later read can pick it up whole.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            blob = fh.read()
    except OSError:
        return [], start
    end = blob.rfind(b"\n")
    if end < 0:
        return [], start
    lines = blob[: end + 1].decode("utf-8", errors="replace").splitlines()
    return [ln for ln in lines if ln.strip()], start + end + 1


def parse_line(line: str) -> Optional[dict]:
    """The keyed record on ``line``, or None for anything else."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None  # torn or foreign line: skip
    if isinstance(doc, dict) and isinstance(doc.get("key"), str) and doc["key"]:
        return doc
    return None


def read_docs(path: str | os.PathLike, start: int = 0,
              ) -> tuple[list[dict], int]:
    """Records of the complete lines of ``path`` from byte ``start``,
    and the offset to resume from (see :func:`complete_lines`)."""
    lines, end = complete_lines(path, start)
    return [doc for doc in map(parse_line, lines) if doc is not None], end


def is_segment(path: str | os.PathLike) -> bool:
    """Whether ``path`` names a segment: a file :func:`fold` wrote,
    whose every line is already canonical."""
    return os.path.basename(path).startswith("seg-")


def read_pairs(path: str | os.PathLike, start: int = 0,
               key: Optional[str] = None,
               ) -> tuple[list[tuple[dict, str]], int]:
    """``(record, canonical line)`` pairs of the complete lines of
    ``path`` from byte ``start`` (group ``key``'s records alone when
    given), and the offset to resume from.

    A segment's line is its own canonical line; a record of any other
    file is canonicalized here, once (see the module docstring).
    """
    lines, end = complete_lines(path, start)
    trusted = is_segment(path)
    pairs = []
    for line in lines:
        doc = parse_line(line)
        if doc is not None and (key is None or doc["key"] == key):
            pairs.append((doc, line if trusted else canonical_line(doc)))
    return pairs, end


def read_object(path: Path) -> Optional[dict]:
    """The JSON object published as ``path``, or None.

    Absent, torn by a dead writer, not UTF-8, not JSON, or JSON that is
    not an object: all read as None, never as an error
    (``UnicodeDecodeError`` and ``JSONDecodeError`` are both
    ``ValueError``).
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


# -- writing -----------------------------------------------------------------------


def write_atomic(path: Path, data: str | bytes) -> None:
    """Publish ``data`` as ``path``: whole or not at all, or raise.

    Readers never see a partial file and racing writers of the same
    content agree on the result.  A failure (full disk, read-only
    directory) propagates -- callers that delete their inputs afterwards
    depend on that.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def append_line(path: str | os.PathLike, line: str) -> None:
    """Land ``line`` on ``path`` with one ``O_APPEND`` write."""
    data = (line + "\n").encode("utf-8")
    for _ in range(16):
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        except FileNotFoundError:  # first record of the shard
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            continue
        try:
            os.write(fd, data)
            ino = os.fstat(fd).st_ino
        finally:
            os.close(fd)
        # A concurrent fold() may have renamed (or renamed and already
        # unlinked) the tail between our open and write, in which case
        # the line could die with the snapshot.  Re-land it on the live
        # tail; if the snapshot survives long enough to be folded, the
        # duplicate collapses in the store's resolve.
        try:
            if os.stat(path).st_ino == ino:
                break
        except OSError:
            pass


# -- sidecar -----------------------------------------------------------------------


def index_path(seg: Path) -> Path:
    return seg.with_suffix(".idx.json")


def _index(sized_keys: Iterable[tuple[Optional[str], int]]) -> dict:
    """Sidecar document for lines given as (key or None, byte length)."""
    keys: dict[str, list[int]] = {}
    records = off = 0
    for key, size in sized_keys:
        if key is not None:
            keys.setdefault(key, []).append(off)
            records += 1
        off += size
    return {"schema": INDEX_SCHEMA_VERSION, "records": records, "keys": keys}


def _scan(seg: Path) -> Iterator[tuple[Optional[str], int]]:
    try:
        blob = seg.read_bytes()
    except OSError:
        return
    for raw in blob.splitlines(keepends=True):
        doc = None
        if raw.endswith(b"\n"):
            doc = parse_line(raw.decode("utf-8", errors="replace"))
        yield (doc["key"] if doc is not None else None), len(raw)


def load_index(seg: Path) -> dict:
    """The sidecar of ``seg``: ``{"keys": {key: [line offsets]}, ...}``.

    A missing, malformed or non-object sidecar is rebuilt from the
    segment and re-published.
    """
    sidecar = index_path(seg)
    idx = read_object(sidecar)
    if idx is not None and isinstance(idx.get("keys"), dict):
        return idx
    idx = _index(_scan(seg))
    try:
        write_atomic(sidecar, canonical_line(idx))
    except OSError:
        pass  # derived data: a read-only store must still open
    return idx


# -- fold --------------------------------------------------------------------------


def fold(shard: Path,
         resolve: Callable[[list[dict]], list[tuple[str, str]]],
         sidecar: bool = False) -> tuple[int, list[Path]]:
    """Fold every file of ``shard`` into one immutable segment.

    ``resolve(records)`` returns the surviving ``(key, canonical line)``
    pairs in segment order.  Returns ``(records in the segment, files
    removed)``; ``(0, [])`` when the shard holds no record.

    Concurrent writers are safe: the open tail is atomically renamed to
    a ``pend-*`` snapshot first (writers holding a stale fd keep landing
    lines in it; writers opening by path start a fresh ``open.jsonl``),
    and after the segment is published any late lines in the snapshot
    are moved to the new open tail before the snapshot is removed.  A
    fold that dies half way leaves its snapshot behind; readers treat
    it as one more mutable file and the next fold consumes it.  Nothing
    is unlinked until the segment exists.
    """
    open_f = shard / OPEN
    try:
        os.rename(open_f, shard / f"pend-{os.urandom(6).hex()}.jsonl")
    except OSError:
        pass  # no tail yet, or another fold took it
    folded = [f for f in sorted(shard.glob("*.jsonl")) if f.name != OPEN]
    consumed: dict[Path, int] = {}
    docs: list[dict] = []
    for f in folded:
        got, consumed[f] = read_docs(f)
        docs.extend(got)
    pairs = resolve(docs)
    if not pairs:
        return 0, []
    raw = [(line + "\n").encode("utf-8") for _key, line in pairs]
    body = b"".join(raw)
    seg = shard / f"seg-{hashlib.sha256(body).hexdigest()[:12]}.jsonl"
    if not seg.exists():
        write_atomic(seg, body)
    if sidecar:
        idx = _index((key, len(r)) for (key, _line), r in zip(pairs, raw))
        write_atomic(index_path(seg), canonical_line(idx))
    kept = {line for _key, line in pairs}
    for f in folded:
        if not f.name.startswith("pend-"):
            continue
        while True:
            late, consumed[f] = read_docs(f, consumed[f])
            for doc in late:
                line = canonical_line(doc)
                if line not in kept:
                    append_line(open_f, line)
            if not late:
                break
    removed = []
    for f in folded:
        if f == seg:
            continue
        try:
            f.unlink()
            removed.append(f)
        except OSError:
            pass
        try:
            index_path(f).unlink()
        except OSError:
            pass
    return len(pairs), removed
