"""The leader composite: one hierarchy level as a collective module.

A level (:class:`~repro.core.subcomms.Level`) splits its ``outer``
communicator into groups, each led by its first rank.
:class:`LeaderComposite` presents the standard module interface on
``outer`` but internally composes

- an **inner** module on ``level.comm`` (my group), and
- a **bridge** module on ``level.leaders`` (the group leaders),

so an ``outer`` collective becomes group-collective -> leader bridge ->
group-collective (HiCCL's per-level primitives).  HAN uses it at two
levels, with the same code:

- the **island** level (split NVLink nodes, HiCCL's fabric/node split;
  the HCCL demo's scale-up vs scale-out ports) as HAN's intra-node
  stage: the device module inside each island, host shared memory
  between the island leaders, and a device->host staging hop;
- the **group** level (dragonfly groups, fat-tree edge switches) as
  HAN's inter-node module: the inter module both inside each group and
  across the group leaders, so expensive global links carry each byte
  once per group instead of once per node.

Rooted collectives are *leader-normalized*: every group reduces or
gathers to its leader, leaders bridge, and when the caller's root is not
its group's leader the result rides one more group-level fan-out plus
the staging hop.  Scatter takes the bridge module flat on ``outer``:
its per-receiver blocks are thin (and on islands host-bound, so they
must cross PCIe anyway), so routing them through the leaders would only
add latency.

When the caller passes a ``segsize`` (HAN's ``ibs``/``irs``), bcast and
reduce cut the message into sub-segments and overlap the two sub-levels
across them -- HAN's segmentation rule one level up (see
:meth:`LeaderComposite._stages`).  Without one (HAN's intra stage) the
stages run back to back.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.modules.base import CollModule, NotSupportedError
from repro.modules.shm_common import ShmModule, gpu_copy
from repro.mpi.op import SUM

__all__ = ["LeaderComposite", "han_segments"]


def han_segments(nbytes: float, fs: Optional[float], payload=None):
    """Split a message into HAN pipeline segments.

    Returns ``(u, seg_bytes, views)``: the segment count (identical on
    every rank because it depends only on ``nbytes`` and ``fs``), the
    nominal byte size of each segment, and element-aligned views of
    ``payload`` (``None`` entries when no payload).
    """
    if fs is None or fs <= 0 or nbytes <= fs:
        u = 1
    else:
        u = int(math.ceil(nbytes / fs))
    seg_bytes = [min(fs, nbytes - i * fs) if u > 1 else nbytes for i in range(u)]
    if payload is None:
        views = [None] * u
    else:
        bounds = np.linspace(0, payload.size, u + 1).astype(int)
        views = [payload[bounds[i] : bounds[i + 1]] for i in range(u)]
    return u, seg_bytes, views


def _joined(pieces):
    if any(p is None for p in pieces):
        return None
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class LeaderComposite(CollModule):
    name = "leaders"
    nonblocking = True  # ibcast / ireduce run the composite as a child

    def __init__(self, level, inner, bridge, hop: Optional[str] = None):
        self.level = level
        self.inner = inner  # drives level.comm (my group)
        self.bridge = bridge  # drives level.leaders (the group leaders)
        #: staging path charged when a result leaves the leaders for a
        #: non-leader root (``"d2h"`` on islands), ``None`` for no hop
        self.hop = hop
        self._last = None  # this rank's latest non-blocking call
        # A level exists only where it has two or more groups, so the outer
        # comm never has a single rank and no collective special-cases it.
        # Groups must be contiguous runs in outer-rank order: a leader's
        # rank on the bridge is then its group's run index, and the
        # leader-gather concatenation is already in outer-rank order.
        # Block placement guarantees this; fail loudly otherwise.
        self._group: list[int] = []  # outer rank -> group index
        self._rank: list[int] = []  # outer rank -> rank within its group
        self._sizes: list[int] = []
        seen: set = set()
        for w in level.outer.group:
            color = level.color(w)
            if color not in seen:
                seen.add(color)
                self._sizes.append(0)
            elif color != last:
                raise ValueError(
                    f"{level.name} groups are not contiguous in rank order"
                )
            last = color
            self._group.append(len(self._sizes) - 1)
            self._rank.append(self._sizes[-1])
            self._sizes[-1] += 1

    # -- helpers -------------------------------------------------------------------

    def _check(self, comm) -> None:
        if comm is not self.level.outer:
            raise ValueError(
                f"the {self.level.name} composite drives its level's "
                "outer comm only"
            )

    @property
    def _is_leader(self) -> bool:
        return self.level.leaders is not None

    def _deliver(self, comm, root, value, nbytes, **kw):
        """Hand a result held by the root group's leader to ``root``.

        A leader root already has it.  Otherwise it rides one group-level
        fan-out plus a staging hop, so the result is where the caller
        expects it (host-resident, ready for an inter-node ``ir``, on
        islands).
        """
        if self._rank[root] == 0:
            return value if comm.rank == root else None
        if self._group[comm.rank] != self._group[root]:
            return None
        res = yield from self.inner.bcast(
            self.level.comm, nbytes, root=0, payload=value, **kw
        )
        if comm.rank != root:
            return None
        if self.hop is not None:
            yield from gpu_copy(comm, nbytes, self.hop)
        return res

    def _cut(self, nbytes, segsize, payload):
        """Sub-segments of a pipelined call and their sub-level chunk size.

        The undivided call would have pipelined ``v = ceil(nbytes /
        segsize)`` chunks through one sub-level.  Cut into ``v``
        sub-segments of ``segsize``, each sub-level call carries 1/v of
        the message, so it gets 1/v of the chunk size and keeps a
        ``v``-deep chunk pipeline of its own.
        """
        v, sub, views = han_segments(nbytes, segsize, payload)
        return v, sub, views, segsize / v if v > 1 else segsize

    def _stages(self, comm, v, first, second=None):
        """Run ``first(j)``, then ``second(j, its result)``, for every
        sub-segment *j*; returns the last stage's per-segment results.

        One sub-segment runs its stages back to back on this rank.  More
        run as children of this rank in a dataflow: every ``first(j)``
        starts at once and ``second(j)`` as soon as ``first(j)`` has
        delivered, so the second sub-level carries sub-segment *j* while
        the first still carries *j+1* (HAN's ``sbib`` overlap one level
        up).  Running them one ahead instead, like HAN's own task loop,
        drains both sub-levels at every sub-segment boundary; on a
        chained dragonfly that costs more than the group level saves.
        """
        if v == 1:
            x = yield from first(0)
            if second is not None:
                x = yield from second(0, x)
            return [x]
        kind = f"{self.name}.stage"
        reqs = [self._spawn(comm, first(j), kind) for j in range(v)]
        if second is not None:
            for j in range(v):
                x = yield from comm.wait(reqs[j])
                reqs[j] = self._spawn(comm, second(j, x), kind)
        out = yield from comm.waitall(reqs)
        return list(out)

    # -- collectives ---------------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None,
              segsize=None):
        """Root group fan-out -> bridge across leaders -> the other groups
        fan out from their leaders."""
        self._check(comm)
        lv, rg, lead = self.level, self._group[root], self._is_leader
        v, sub, views, chunk = self._cut(
            nbytes, segsize, payload if comm.rank == root else None
        )
        kw = dict(algorithm=algorithm, segsize=chunk)

        def fan_out(j, x=None, r=0):  # my group's bcast from its rank r
            y = yield from self.inner.bcast(
                lv.comm, sub[j], root=r, payload=x, **kw
            )
            return y

        def bridge(j, x=None):
            y = yield from self.bridge.bcast(
                lv.leaders, sub[j], root=rg, payload=x, **kw
            )
            return y if x is None else x

        if self._group[comm.rank] != rg:
            first, second = (bridge, fan_out) if lead else (fan_out, None)
        else:
            def first(j):
                x = yield from fan_out(j, views[j], self._rank[root])
                if lead and comm.rank != root and self.hop is not None:
                    # the leader needs a staged copy to feed the bridge
                    yield from gpu_copy(comm, sub[j], self.hop)
                return x

            second = bridge if lead else None
        pieces = yield from self._stages(comm, v, first, second)
        return payload if comm.rank == root else _joined(pieces)

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM,
               algorithm=None, segsize=None):
        """Every group reduces to its leader, leaders reduce across the
        bridge to the root group's leader, plus a delivery fan-out when
        the root is not that leader."""
        self._check(comm)
        lv, rg = self.level, self._group[root]
        v, sub, views, chunk = self._cut(nbytes, segsize, payload)
        kw = dict(algorithm=algorithm, segsize=chunk)

        def partial(j):
            x = yield from self.inner.reduce(
                lv.comm, sub[j], root=0, payload=views[j], op=op, **kw
            )
            return x

        def bridge(j, x):
            y = yield from self.bridge.reduce(
                lv.leaders, sub[j], root=rg, payload=x, op=op, **kw
            )
            return y

        pieces = yield from self._stages(
            comm, v, partial, bridge if self._is_leader else None
        )
        total = _joined(pieces) if self._is_leader else None
        res = yield from self._deliver(
            comm, root, total, nbytes, algorithm=algorithm, segsize=segsize
        )
        return res

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None,
                  segsize=None):
        """Group reduce -> bridge allreduce across leaders -> group bcast."""
        self._check(comm)
        lv, kw = self.level, dict(algorithm=algorithm, segsize=segsize)
        partial = yield from self.inner.reduce(
            lv.comm, nbytes, root=0, payload=payload, op=op, **kw
        )
        total = None
        if self._is_leader:
            total = yield from self.bridge.allreduce(
                lv.leaders, nbytes, payload=partial, op=op, **kw
            )
        res = yield from self.inner.bcast(
            lv.comm, nbytes, root=0, payload=total, **kw
        )
        return res

    def gather(self, comm, nbytes, root=0, payload=None):
        """Group gather to leaders, bridge gather across leaders; groups are
        rank-contiguous, so the concatenation is already in rank order."""
        self._check(comm)
        if len(set(self._sizes)) != 1:
            raise NotSupportedError(
                f"{self.level.name} gather needs equal-sized groups"
            )
        lv, rg = self.level, self._group[root]
        block = yield from self.inner.gather(
            lv.comm, nbytes, root=0, payload=payload
        )
        full = None
        if self._is_leader:
            full = yield from self.bridge.gather(
                lv.leaders, nbytes * self._sizes[0], root=rg, payload=block
            )
        res = yield from self._deliver(comm, root, full, nbytes * comm.size)
        return res

    def scatter(self, comm, nbytes, root=0, payload=None):
        """Flat on the outer comm with the bridge module (see module doc)."""
        self._check(comm)
        result = yield from self.bridge.scatter(
            comm, nbytes, root=root, payload=payload
        )
        return result

    # composed through rank 0 exactly like the shared-memory modules: the
    # gather / reduce ride the levels, the bcast / flat scatter follow
    allgather = ShmModule.allgather
    reduce_scatter = ShmModule.reduce_scatter

    def alltoall(self, comm, nbytes, payload=None):
        """Gather-transpose-scatter through rank 0: the gather rides the
        levels, the transpose is free, the scatter runs flat."""
        self._check(comm)
        p = comm.size
        gathered = yield from self.gather(
            comm, nbytes * p, root=0, payload=payload
        )
        send = None
        if gathered is not None:
            per = gathered.size // (p * p)
            # [src][dst][per] -> [dst][src][per]
            send = gathered.reshape(p, p, per).transpose(1, 0, 2).reshape(-1)
        result = yield from self.scatter(
            comm, nbytes * p * p, root=0, payload=send
        )
        return result

    def barrier(self, comm):
        """Group barrier -> leader barrier -> group release."""
        self._check(comm)
        lv = self.level
        yield from self.inner.barrier(lv.comm)
        if self._is_leader:
            yield from self.bridge.barrier(lv.leaders)
        yield from self.inner.barrier(lv.comm)

    # -- non-blocking: the whole composite as a child of this rank ----------------

    def _child(self, comm, gen, kind):
        """Run one call as a child of this rank, after its previous call.

        A call issues its sub-level collectives as its data arrives, and
        MPI requires every rank of a communicator to issue collectives in
        one order.  Two overlapping calls (HAN's allreduce keeps an ``ir``
        and an ``ib`` in flight) would interleave theirs by timing, which
        differs between a leader and its group, so calls on one rank are
        chained and the order on every sub-level comm is the call order.
        """
        prev = self._last

        def chained():
            if prev is not None and not prev.complete:
                yield prev.event
            result = yield from gen
            return result

        self._last = self._spawn(comm, chained(), kind)
        return self._last

    def ibcast(self, comm, nbytes, root=0, payload=None, algorithm=None,
               segsize=None):
        gen = self.bcast(comm, nbytes, root, payload, algorithm, segsize)
        return self._child(comm, gen, f"{self.name}.ibcast")

    def ireduce(self, comm, nbytes, root=0, payload=None, op=SUM,
                algorithm=None, segsize=None):
        gen = self.reduce(comm, nbytes, root, payload, op, algorithm, segsize)
        return self._child(comm, gen, f"{self.name}.ireduce")
