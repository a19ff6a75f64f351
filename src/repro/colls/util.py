"""Shared helpers for collective algorithms: tags, segmentation, buffers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.constants import COLL_TAG_BASE, INTERNAL_TAG_BASE

__all__ = ["coll_tag_block", "Segmenter", "vrank", "unvrank", "charge_reduce", "combine"]

# Collective traffic lives in its own tag region, below the runtime's
# internal region, above anything user code should use.  Blocks are
# allocated monotonically — never recycled — so a long-lived collective
# (e.g. a nonblocking inter-node phase still draining) can never alias
# the tags of a later call on the same communicator.  The region spans
# COLL_TAG_BASE up to the internal base: 2^25 blocks of 4096 tags.
_TAG_BLOCK = 4096
_TAG_SLOTS = (INTERNAL_TAG_BASE - COLL_TAG_BASE) // _TAG_BLOCK


def coll_tag_block(comm: Communicator) -> int:
    """Allocate a fresh block of tags for one collective call.

    Ranks allocate identically because MPI requires collective calls to be
    issued in the same order on every rank of a communicator.

    Raises once a communicator has issued ``_TAG_SLOTS`` collectives:
    reusing a block while a prior collective is still in flight would
    silently cross-match messages, and the allocator cannot know which
    blocks have drained.  Communicators needing more should ``dup()``
    themselves a fresh tag space.
    """
    seq = getattr(comm, "_coll_seq", 0)
    if seq >= _TAG_SLOTS:
        raise RuntimeError(
            f"collective tag space exhausted on {comm!r}: {seq} collectives "
            f"issued (max {_TAG_SLOTS}); reusing tag blocks could alias an "
            "in-flight collective — dup() the communicator for a fresh space"
        )
    comm._coll_seq = seq + 1
    return COLL_TAG_BASE + seq * _TAG_BLOCK


def vrank(rank: int, root: int, size: int) -> int:
    """Virtual rank with the root rotated to 0."""
    return (rank - root) % size


def unvrank(v: int, root: int, size: int) -> int:
    """Inverse of :func:`vrank`."""
    return (v + root) % size


class Segmenter:
    """Splits one message into pipeline segments.

    The segment *structure* (count and nominal byte sizes) derives only
    from the declared ``(nbytes, segsize)`` pair, so every rank of a
    collective -- with or without a payload in hand -- agrees on how many
    messages will flow.  When a payload is supplied (1-D numpy array),
    segment *data* is an nseg-way element-aligned split of it (views, no
    copies); actual view byte counts may differ from the nominal sizes by
    up to one element, which is timing-irrelevant.
    """

    def __init__(
        self,
        nbytes: float,
        segsize: Optional[float],
        payload: Optional[np.ndarray] = None,
    ):
        if payload is not None:
            if payload.ndim != 1:
                raise ValueError("payloads must be 1-D numpy arrays")
            if nbytes is None:
                nbytes = payload.nbytes
        self.nbytes = float(nbytes)
        self.payload = payload
        if segsize is None or segsize <= 0 or segsize >= nbytes or nbytes == 0:
            nseg = 1
        else:
            nseg = int(np.ceil(nbytes / segsize))
            # Float ceil overshoots when nbytes is a near-integer multiple
            # of segsize, minting a ~0-byte trailing segment (a spurious
            # zero-size message on the wire).  Merge such a sliver into
            # the previous segment instead.
            trailing = self.nbytes - (nseg - 1) * segsize
            if nseg > 1 and trailing <= segsize * 1e-6:
                nseg -= 1
        self.nseg = nseg
        bounds = []
        off = 0.0
        per = self.nbytes / nseg if segsize is None or nseg == 1 else segsize
        for i in range(nseg):
            # the last segment absorbs the remainder (which after a merge
            # may slightly exceed the nominal segment size)
            step = self.nbytes - off if i == nseg - 1 else min(per, self.nbytes - off)
            bounds.append((off, step))
            off += step
        self._bounds = bounds
        if self.nbytes > 0:
            assert all(step > 0 for _off, step in bounds), (
                f"degenerate segment in {self.nbytes}B / {segsize} split"
            )
        if payload is None:
            self._elem_bounds = None
        else:
            eb = np.linspace(0, payload.size, nseg + 1).astype(int)
            self._elem_bounds = [
                (int(eb[i]), int(eb[i + 1] - eb[i])) for i in range(nseg)
            ]

    def seg_nbytes(self, i: int) -> float:
        return self._bounds[i][1]

    def seg_view(self, i: int) -> Optional[np.ndarray]:
        """View of segment ``i`` of the payload (None in timing-only mode)."""
        if self.payload is None:
            return None
        off, n = self._elem_bounds[i]
        return self.payload[off : off + n]

    def assemble(self, pieces: list) -> Optional[np.ndarray]:
        """Concatenate received segment payloads (timing mode: None)."""
        if self.payload is not None:
            return self.payload
        if any(p is None for p in pieces):
            return None
        return np.concatenate(pieces)


def charge_reduce(comm: Communicator, nbytes: float, avx: bool):
    """Charge reduction CPU time for ``nbytes`` of combined input."""
    if nbytes > 0:
        yield from comm.reduce_compute(nbytes, avx=avx)


def combine(op, acc, incoming):
    """Apply ``op`` to payloads, tolerating timing-only (None) buffers."""
    if acc is None or incoming is None:
        return acc if incoming is None else incoming
    return op(acc, incoming)
