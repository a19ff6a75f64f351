"""The HAN collective module: task-based hierarchical collectives.

Implements the paper's designs:

- **MPI_Bcast** (Fig 1): node leaders run ``ib(0), sbib(1) ... sbib(u-1),
  sb(u-1)`` -- each ``sbib`` starts the non-blocking inter-node broadcast
  of segment *i* and overlaps it with the intra-node broadcast of segment
  *i-1*; other processes run ``sb(0) ... sb(u-1)``.
- **MPI_Allreduce** (Fig 5): a four-stage pipeline per segment --
  intra-node reduce ``sr``, inter-node reduce ``ir``, inter-node
  broadcast ``ib``, intra-node broadcast ``sb`` -- with the inter-node
  allreduce deliberately split into explicit ``ir`` + ``ib`` "to further
  increase the pipeline and improve the performance for large messages"
  (paper III-B1).  ``ir``/``ib`` use the same algorithm and root to
  maximize their overlap on opposite network directions (Fig 6).
- extensions the paper mentions (section III): Reduce, Gather, Allgather,
  Scatter, Barrier, built from the same task vocabulary.

Configurations come from an explicit :class:`HanConfig`, a decision
function (usually an autotuned lookup table, :mod:`repro.tuning`), or the
built-in static default.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from repro.colls.allgather import allgather_ring
from repro.colls.alltoall import alltoall_pairwise
from repro.colls.bcast import bcast_linear
from repro.colls.gather import gather_binomial
from repro.colls.reduce import reduce_linear
from repro.colls.reduce_scatter import reduce_scatter_ring
from repro.colls.scatter import scatter_binomial, scatter_linear
from repro.core.composite import LeaderComposite, _joined, han_segments
from repro.core.config import HanConfig
from repro.core.subcomms import build_hierarchy
from repro.modules import make_module
from repro.modules.base import CollModule, observed
from repro.mpi.constants import INTERNAL_TAG_BASE
from repro.mpi.op import SUM
from repro.sim.engine import AnyOf

__all__ = ["HanModule", "han_segments"]

# Runtime-internal tags for the degraded-mode probe protocol (far above
# the collective tag blocks and the dissemination-barrier tag window).
_PROBE_TAG = INTERNAL_TAG_BASE + 2048
_VOTE_TAG = INTERNAL_TAG_BASE + 2049
_VERDICT_TAG = INTERNAL_TAG_BASE + 2050
_SHARE_TAG = INTERNAL_TAG_BASE + 2051
#: payload of the degraded-mode probe message -- nonzero so it rides
#: the fluid network and actually stalls on a dead link
_PROBE_BYTES = 4096.0

#: the four untuned defaults :meth:`HanModule.default_config` serves
_DEFAULT_SMALL = HanConfig(fs=None, imod="libnbc", smod="sm")
_DEFAULT_MID_SM, _DEFAULT_MID_SOLO = (
    HanConfig(fs=512 * 1024, imod="adapt", smod=smod, ibalg="binary",
              iralg="binary", ibs=256 * 1024, irs=256 * 1024)
    for smod in ("sm", "solo"))
_DEFAULT_LARGE = HanConfig(fs=2 * 1024 * 1024, imod="adapt", smod="solo",
                           ibalg="chain", iralg="chain", ibs=512 * 1024,
                           irs=512 * 1024)


def _coll_span(fn):
    """Observe a collective generator method: one span per call.

    When no recorder is attached (``engine.obs is None``) the original
    generator is returned untouched — zero wrapping, zero overhead.
    """
    coll_name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, comm, *args, **kwargs):
        gen = fn(self, comm, *args, **kwargs)
        rec = comm.runtime.engine.obs
        if rec is None:
            return gen
        nbytes = args[0] if args and isinstance(args[0], (int, float)) else (
            kwargs.get("nbytes", 0)
        )
        return observed(rec, comm, gen, coll_name, "coll", nbytes=nbytes,
                        size=comm.size)

    return wrapper


def _phase(comm, phase, seg, gen):
    """Task ``gen`` as phase ``phase`` of segment ``seg``.

    With a recorder attached the phase is one span; without one ``gen``
    is returned untouched, so untraced task streams pay no extra frame.
    """
    rec = comm.runtime.engine.obs
    if rec is None:
        return gen
    return observed(rec, comm, gen, phase, "phase", seg=seg)


def _issue(comm, phase, seg, start, *args, **kwargs):
    """Issue the non-blocking task ``start(*args, **kwargs)`` now; returns
    the generator that completes it.  A recorder sees one span from issue
    to completion.
    """
    rec = comm.runtime.engine.obs
    if rec is None:
        return comm.wait(start(*args, **kwargs))
    sid = rec.begin(f"rank{comm.world_rank}", phase, "phase", seg=seg)
    req = start(*args, **kwargs)

    def complete():
        try:
            value = yield req.event
        finally:
            rec.end(sid)
        return value

    return complete()


def _ready(value):
    """A task that is already done: returns ``value`` without an event."""
    return value
    yield  # noqa: unreachable -- makes this a generator


class HanModule(CollModule):
    """HAN, usable anywhere a collective module is expected."""

    name = "han"
    nonblocking = False

    def __init__(
        self,
        config: Optional[HanConfig] = None,
        decision_fn: Optional[Callable[[int, int, float, str], HanConfig]] = None,
        degraded_timeout: Optional[float] = None,
        group_level: bool = False,
    ):
        #: fixed configuration (overrides the decision function)
        self.config = config
        #: callable ``(n_nodes, ppn, nbytes, coll_type) -> HanConfig``
        self.decision_fn = decision_fn
        #: seconds to wait for an inter-node probe reply before declaring
        #: the fabric degraded; ``None`` (default) disables the probe and
        #: leaves every schedule bit-identical to the pre-probe module
        self.degraded_timeout = degraded_timeout
        #: add the topology-group level (dragonfly group / fat-tree edge)
        #: between node and network: inter-node stages cross expensive
        #: global links once per group, not once per node.  It only
        #: engages with at least two groups of at least two nodes.
        self.group_level = group_level
        self._mods: dict[str, CollModule] = {}

    # -- configuration ------------------------------------------------------------

    def module(self, name: str) -> CollModule:
        mod = self._mods.get(name)
        if mod is None:
            mod = self._mods[name] = make_module(name)
        return mod

    def _modules(self, hier, cfg) -> tuple[CollModule, CollModule]:
        """The (inter, intra) modules HAN's tasks call for ``cfg``.

        A level of the hierarchy beyond the node splits the stage it lies
        in, so the stage's module is swapped for the leader composite over
        that level: the island level splits the intra stage (for device
        modules only -- host transports never see the NVLink islands),
        the group level, present when the constructor asked for it,
        splits the inter stage.  Either way HAN's task code is unchanged.
        """
        imod, smod = self.module(cfg.imod), self.module(cfg.smod)
        for level in hier.levels:
            if level.name == "group":
                imod = self._composite(hier, level, imod, imod)
            elif level.name == "island" and smod.device:
                smod = self._composite(hier, level, smod, self.module("sm"), "d2h")
        return imod, smod

    @staticmethod
    def _composite(hier, level, inner, bridge, hop=None) -> LeaderComposite:
        """The leader composite over ``level``, cached per hierarchy."""
        cache = getattr(hier, "_composites", None)
        if cache is None:
            cache = hier._composites = {}
        key = (level.name, inner, bridge)
        comp = cache.get(key)
        if comp is None:
            comp = cache[key] = LeaderComposite(level, inner, bridge, hop)
        return comp

    def _plan(self, hier, nbytes, coll, config, segsize=None):
        """Resolve ``coll``'s configuration and the modules its tasks call:
        ``(cfg, imod, smod)``."""
        cfg = self.resolve_config(hier.num_nodes, hier.local_size, nbytes,
                                  coll, config)
        if segsize is not None:
            cfg = cfg.with_(fs=segsize)
        return (cfg, *self._modules(hier, cfg))

    @staticmethod
    def _position_map(comm, hier) -> dict:
        """(node position, local rank) -> parent rank, cached per hierarchy."""
        pos = getattr(hier, "_pos_to_parent", None)
        if pos is None:
            pos = {
                (hier.up_rank_of(i), hier.local_rank_of(i)): i
                for i in range(comm.size)
            }
            hier._pos_to_parent = pos
        return pos

    def resolve_config(
        self, num_nodes: int, ppn: int, nbytes: float, coll: str,
        config: Optional[HanConfig] = None,
    ) -> HanConfig:
        """The configuration one ``coll`` call runs under: the per-call
        ``config``, else the fixed one, else the decision function's pick
        for this geometry, else :meth:`default_config`."""
        if config is not None:
            return config
        if self.config is not None:
            return self.config
        if self.decision_fn is not None:
            return self.decision_fn(num_nodes, ppn, nbytes, coll)
        return self.default_config(nbytes)

    @staticmethod
    def default_config(nbytes: float) -> HanConfig:
        """Untuned static fallback (what HAN ships before autotuning).

        Mirrors the shipped coll/han defaults: latency-friendly binomial
        trees for small and mid-range messages, a pipelined chain once
        there are enough segments to fill it, SOLO above the 512KB
        SM/SOLO crossover (paper III-C).  Returns one of four shared
        frozen configs; none is built per call.
        """
        if nbytes <= 64 * 1024:
            return _DEFAULT_SMALL
        if nbytes <= 512 * 1024:
            return _DEFAULT_MID_SM
        if nbytes <= 4 * 1024 * 1024:
            return _DEFAULT_MID_SOLO
        return _DEFAULT_LARGE

    # -- degraded mode (dead inter-node link detection + flat fallback) -------------

    def _probe_up(self, up):
        """Leader-side liveness probe of every up-comm peer.

        Exchanges a ``_PROBE_BYTES`` message with each peer and races every
        reply against one shared deadline ``degraded_timeout`` seconds
        out.  A reply crossing a dead link stalls in the fluid network,
        so the deadline wins and the leader votes "degraded".
        """
        engine = up.runtime.engine
        peers = [p for p in range(up.size) if p != up.rank]
        recvs = [up.irecv(source=p, tag=_PROBE_TAG) for p in peers]
        for p in peers:
            up.isend(p, nbytes=_PROBE_BYTES, tag=_PROBE_TAG)
        deadline = engine.event("han:probe-deadline")
        token = engine.schedule(self.degraded_timeout, deadline.succeed)
        bad = False
        for req in recvs:
            idx, _ = yield AnyOf([req.event, deadline])
            bad = bad or idx == 1
        if not bad:
            engine.cancel(token)
        return bad

    def _check_degraded(self, comm, hier):
        """Collectively decide (once per communicator) if the inter-node
        fabric is unusable for hierarchical schedules.

        Node leaders probe their up-comm layer; the per-leader votes are
        OR-reduced at up-rank 0 and the verdict fanned back out — both
        over zero-byte control messages, which bypass the fluid network
        and therefore still arrive across the very link being diagnosed
        (a simulator artifact standing in for an out-of-band RAS plane).
        The verdict is cached per parent rank, so only the first
        collective on a communicator pays the probe cost.
        """
        if self.degraded_timeout is None or hier.up.size == 1:
            return False
        state = comm.runtime.coll_state(("han:degraded", comm.cid))
        if comm.rank in state:
            return state[comm.rank]
        low, up = hier.low, hier.up
        verdict = False
        if hier.local_rank == 0:
            bad = yield from self._probe_up(up)
            if up.rank == 0:
                for src in range(1, up.size):
                    msg = yield from up.recv(source=src, tag=_VOTE_TAG)
                    bad = bad or msg.payload
                reqs = [
                    up.isend(dst, nbytes=0, payload=bad, tag=_VERDICT_TAG)
                    for dst in range(1, up.size)
                ]
                yield from up.waitall(reqs)
            else:
                yield from up.send(0, nbytes=0, payload=bad, tag=_VOTE_TAG)
                msg = yield from up.recv(source=0, tag=_VERDICT_TAG)
                bad = msg.payload
            verdict = bad
        if low.size > 1:
            if hier.local_rank == 0:
                reqs = [
                    low.isend(dst, nbytes=0, payload=verdict, tag=_SHARE_TAG)
                    for dst in range(1, low.size)
                ]
                yield from low.waitall(reqs)
            else:
                msg = yield from low.recv(source=0, tag=_SHARE_TAG)
                verdict = msg.payload
        state[comm.rank] = verdict
        return verdict

    # -- MPI_Bcast (paper Fig 1) -----------------------------------------------------

    @_coll_span
    def bcast(
        self, comm, nbytes, root=0, payload=None, config=None,
        algorithm=None, segsize=None,
    ):
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm, self.group_level)
        degraded = yield from self._check_degraded(comm, hier)
        if degraded:
            # Dead inter-node link: a hierarchical schedule would wedge on
            # it, so fall back to a flat star rooted at the coordinator
            # (linear bcast routes radiate from one node and can avoid a
            # failed non-root link).
            out = yield from bcast_linear(comm, nbytes, root=root, payload=payload)
            return out
        cfg, imod, smod = self._plan(hier, nbytes, "bcast", config, segsize)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)
        u, seg_bytes, views = han_segments(
            nbytes, cfg.fs, payload if comm.rank == root else None
        )

        if low.size == 1:
            # Degenerate: one rank per node -> pure inter-node bcast.
            out = yield from imod.bcast(
                up, nbytes, root=root_up, payload=payload,
                algorithm=cfg.ibalg, segsize=cfg.ibs,
            )
            return out

        pieces: list = [None] * u
        if hier.local_rank == root_local and up.size > 1:
            # leaders: ib(0), sbib(1) ... sbib(u-1), sb(u-1)
            prev = yield from _issue(
                up, "ib", 0, imod.ibcast, up, seg_bytes[0], root=root_up,
                payload=views[0], algorithm=cfg.ibalg, segsize=cfg.ibs,
            )
            for i in range(1, u):
                # sbib(i): start ib(i), overlap it with sb(i-1)
                done = _issue(
                    up, "ib", i, imod.ibcast, up, seg_bytes[i], root=root_up,
                    payload=views[i], algorithm=cfg.ibalg, segsize=cfg.ibs,
                )
                pieces[i - 1] = yield from _phase(comm, "sb", i - 1, smod.bcast(
                    low, seg_bytes[i - 1], root=root_local, payload=prev
                ))
                prev = yield from done
            pieces[u - 1] = yield from _phase(comm, "sb", u - 1, smod.bcast(
                low, seg_bytes[u - 1], root=root_local, payload=prev
            ))
        else:
            # other processes: sb(0) ... sb(u-1); on a single node the
            # "leader" (the root: only it holds views) feeds the intra level
            for i in range(u):
                pieces[i] = yield from _phase(comm, "sb", i, smod.bcast(
                    low, seg_bytes[i], root=root_local, payload=views[i]
                ))
        return payload if comm.rank == root else _joined(pieces)

    # -- MPI_Allreduce (paper Fig 5) -----------------------------------------------------

    @_coll_span
    def allreduce(
        self, comm, nbytes, payload=None, op=SUM, config=None,
        algorithm=None, segsize=None,
    ):
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError(
                "HAN's MPI_Allreduce assumes a commutative operation "
                "(paper section III-B1)"
            )
        hier = yield from build_hierarchy(comm, self.group_level)
        degraded = yield from self._check_degraded(comm, hier)
        if degraded:
            # Flat star fallback: reduce-to-root + broadcast-from-root
            # (star routes avoid a dead link between non-root nodes).
            red = yield from reduce_linear(comm, nbytes, root=0, payload=payload, op=op)
            out = yield from bcast_linear(comm, nbytes, root=0, payload=red)
            return out
        cfg, imod, smod = self._plan(hier, nbytes, "allreduce", config, segsize)
        low, up = hier.low, hier.up
        u, seg_bytes, views = han_segments(nbytes, cfg.fs, payload)
        if up.size == 1:
            # single node: pure shared-memory allreduce
            result = yield from smod.allreduce(low, nbytes, payload=payload, op=op)
            return result

        intra = low.size > 1  # one rank per node: explicit ir + ib only

        pieces: list = [None] * u
        if hier.local_rank == 0:
            srres: dict = {}
            irs: dict = {}
            ibs: dict = {}
            for i in range(u + 3):
                if 0 <= i - 1 < u:
                    # start ir(i-1): inter-node reduce of the intra result
                    irs[i - 1] = _issue(
                        up, "ir", i - 1, imod.ireduce, up, seg_bytes[i - 1],
                        root=0, op=op, algorithm=cfg.iralg, segsize=cfg.irs,
                        payload=srres.pop(i - 1) if intra else views[i - 1],
                    )
                if 0 <= i - 2 < u:
                    # start ib(i-2): broadcast the reduced segment back
                    red = yield from irs.pop(i - 2)
                    ibs[i - 2] = _issue(
                        up, "ib", i - 2, imod.ibcast, up, seg_bytes[i - 2],
                        root=0, payload=red, algorithm=cfg.ibalg,
                        segsize=cfg.ibs,
                    )
                if 0 <= i - 3 < u:
                    # sb(i-3): distribute on the node
                    res = yield from ibs.pop(i - 3)
                    if intra:
                        res = yield from _phase(comm, "sb", i - 3, smod.bcast(
                            low, seg_bytes[i - 3], root=0, payload=res
                        ))
                    pieces[i - 3] = res
                if intra and i < u:
                    # sr(i): intra-node reduction of the next segment
                    srres[i] = yield from _phase(comm, "sr", i, smod.reduce(
                        low, seg_bytes[i], root=0, payload=views[i], op=op
                    ))
        else:
            # other processes: the sbsr task stream
            for i in range(u + 3):
                if 0 <= i - 3 < u:
                    pieces[i - 3] = yield from _phase(
                        comm, "sb", i - 3, smod.bcast(
                            low, seg_bytes[i - 3], root=0, payload=None
                        ))
                if i < u:
                    yield from _phase(comm, "sr", i, smod.reduce(
                        low, seg_bytes[i], root=0, payload=views[i], op=op
                    ))
        return _joined(pieces)

    # -- extensions (paper section III: "similar designs can be extended") ------------

    @_coll_span
    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, config=None,
        algorithm=None, segsize=None,
    ):
        """Hierarchical reduce: pipelined sr + ir (the irsr task stream)."""
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError("HAN reduce assumes a commutative operation")
        hier = yield from build_hierarchy(comm, self.group_level)
        cfg, imod, smod = self._plan(hier, nbytes, "reduce", config, segsize)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)
        u, seg_bytes, views = han_segments(nbytes, cfg.fs, payload)

        if up.size == 1:
            result = yield from smod.reduce(
                low, nbytes, root=root_local, payload=payload, op=op
            )
            return result if comm.rank == root else None

        if hier.local_rank != root_local:
            for i in range(u):
                yield from _phase(comm, "sr", i, smod.reduce(
                    low, seg_bytes[i], root=root_local, payload=views[i], op=op
                ))
            return None
        # the irsr task stream: irsr(i) starts the inter-node reduce of
        # segment i-1, overlaps it with the intra reduce of segment i, and
        # completes it at task end
        pieces: list = [None] * u
        srres: dict = {}
        for i in range(u + 1):
            if 0 <= i - 1 < u:
                done = _issue(
                    up, "ir", i - 1, imod.ireduce, up, seg_bytes[i - 1],
                    root=root_up, payload=srres.pop(i - 1), op=op,
                    algorithm=cfg.iralg, segsize=cfg.irs,
                )
            if i < u:
                srres[i] = yield from _phase(
                    comm, "sr", i, smod.reduce(
                        low, seg_bytes[i], root=root_local, payload=views[i],
                        op=op,
                    ) if low.size > 1 else _ready(views[i]))
            if 0 <= i - 1 < u:
                pieces[i - 1] = yield from done
        return _joined(pieces) if comm.rank == root else None

    @_coll_span
    def gather(self, comm, nbytes, root=0, payload=None, config=None):
        """Intra-node gather (sg) then inter-node gather (ig) of node blocks."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm, self.group_level)
        _, _, smod = self._plan(hier, nbytes, "gather", config)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)

        node_block = payload
        if low.size > 1:
            node_block = yield from smod.gather(
                low, nbytes, root=root_local, payload=payload
            )
        if hier.local_rank != root_local:
            return None
        if up.size > 1:
            gathered = yield from gather_binomial(
                up, nbytes * low.size, root=root_up, payload=node_block
            )
        else:
            gathered = node_block
        return gathered if comm.rank == root else None

    @_coll_span
    def allgather(self, comm, nbytes, payload=None, config=None):
        """sg + inter-node allgather + sb, as sketched in the paper."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm, self.group_level)
        _, _, smod = self._plan(hier, nbytes, "allgather", config)
        low, up = hier.low, hier.up

        node_block = payload
        if low.size > 1:
            node_block = yield from smod.gather(
                low, nbytes, root=0, payload=payload
            )
        full = None
        if hier.local_rank == 0:
            if up.size > 1:
                full = yield from allgather_ring(
                    up, nbytes * low.size, payload=node_block
                )
            else:
                full = node_block
        if low.size > 1:
            full = yield from smod.bcast(
                low, nbytes * comm.size, root=0, payload=full
            )
        return full

    @_coll_span
    def scatter(self, comm, nbytes, root=0, payload=None, config=None):
        """Inter-node scatter of node blocks, then intra-node scatter."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm, self.group_level)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)

        node_block = None
        if hier.local_rank == root_local:
            if up.size > 1:
                node_block = yield from scatter_binomial(
                    up, nbytes, root=root_up, payload=payload
                )
            else:
                node_block = payload
        if low.size == 1:
            return node_block
        # intra-node scatter from the layer member (simple linear over shm)
        result = yield from scatter_linear(
            low, nbytes / up.size, root=root_local, payload=node_block
        )
        return result

    @_coll_span
    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM, config=None):
        """Hierarchical reduce-scatter: intra reduce-scatter of node
        slices, then an inter-node reduce-scatter per layer.

        ``nbytes`` is the TOTAL vector size; rank *i* ends with block
        *i* of the fully reduced vector (``nbytes / size`` bytes).  The
        send buffer is pre-permuted so the intra stage hands local rank
        *j* exactly the blocks owned by layer *j*, node-major; the
        per-layer inter stage then finishes the reduction and the
        scatter simultaneously -- no dedicated final intra scatter is
        needed because the layered up-comms already place block *m* of
        slice *j* on the rank at position ``(m, j)``.
        """
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError(
                "hierarchical reduce_scatter requires a commutative op"
            )
        hier = yield from build_hierarchy(comm, self.group_level)
        _, _, smod = self._plan(hier, nbytes, "reduce_scatter", config)
        low, up = hier.low, hier.up
        P, p, n_nodes = comm.size, low.size, up.size

        if payload is not None and payload.size % P != 0:
            # nested block splits only line up on divisible payloads
            out = yield from reduce_scatter_ring(
                comm, nbytes, payload=payload, op=op
            )
            return out
        if p == 1:
            out = yield from reduce_scatter_ring(
                up, nbytes, payload=payload, op=op
            )
            return out
        if n_nodes == 1:
            out = yield from smod.reduce_scatter(
                low, nbytes, payload=payload, op=op
            )
            return out

        send = payload
        if payload is not None:
            # group my P blocks by owning local rank, node-major inside
            # each group: slice j = the blocks of ranks (m, j), m ascending
            pos = self._position_map(comm, hier)
            per = payload.size // P
            blocks = payload.reshape(P, per)
            send = np.concatenate(
                [blocks[pos[(m, j)]] for j in range(p) for m in range(n_nodes)]
            )
        # intra: local rank j keeps slice j, reduced over this node
        slice_ = yield from smod.reduce_scatter(
            low, nbytes, payload=send, op=op
        )
        # inter (per layer): up-rank m keeps block m of the slice --
        # which is exactly this rank's own block of the full vector
        out = yield from reduce_scatter_ring(
            up, nbytes / p, payload=slice_, op=op
        )
        return out

    @_coll_span
    def alltoall(self, comm, nbytes, payload=None, config=None):
        """Truly hierarchical all-to-all, every rank active in both
        phases (no leader bottleneck):

        1. **intra**: node-local all-to-all of destination-layer groups
           (each group holds the ``n_nodes`` blocks bound for one local
           rank position, node-major),
        2. **inter**: per-layer all-to-all of node-sized groups,
        3. a free local reorder into global source-rank order.

        ``nbytes`` is one rank-to-rank block; every rank sends and
        receives ``size`` blocks, moving ``size * nbytes`` bytes across
        each of the two phases.
        """
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm, self.group_level)
        _, _, smod = self._plan(hier, nbytes, "alltoall", config)
        low, up = hier.low, hier.up
        P, p, n_nodes = comm.size, low.size, up.size

        if payload is not None and payload.size % P != 0:
            out = yield from alltoall_pairwise(comm, nbytes, payload=payload)
            return out
        if p == 1:
            out = yield from alltoall_pairwise(up, nbytes, payload=payload)
            return out
        if n_nodes == 1:
            out = yield from smod.alltoall(low, nbytes, payload=payload)
            return out

        send = payload
        if payload is not None:
            # group my P send blocks by destination local rank k,
            # node-major inside each group
            pos = self._position_map(comm, hier)
            per = payload.size // P
            blocks = payload.reshape(P, per)
            send = np.concatenate(
                [blocks[pos[(m, k)]] for k in range(p) for m in range(n_nodes)]
            )
        # 1) intra exchange: one block per local peer = n_nodes sub-blocks
        r1 = yield from smod.alltoall(low, nbytes * n_nodes, payload=send)
        send_up = None
        if r1 is not None:
            # [src_local][dst_node][per] -> [dst_node][src_local][per]
            per = r1.size // P
            send_up = (
                r1.reshape(p, n_nodes, per).transpose(1, 0, 2).reshape(-1)
            )
        # 2) inter exchange on my layer: one block per node = p sub-blocks
        r2 = yield from alltoall_pairwise(up, nbytes * p, payload=send_up)
        if r2 is None:
            return None
        # 3) reorder [src_node][src_local] into global source-rank order
        per = r2.size // P
        r3 = r2.reshape(n_nodes, p, per)
        out = np.concatenate(
            [r3[hier.up_rank_of(i), hier.local_rank_of(i)] for i in range(P)]
        )
        return out

    @_coll_span
    def barrier(self, comm, config=None):
        """sb-style barrier: low, then up (layer 0), then low again.

        ADAPT has no barrier (neither has Open MPI's coll/adapt), so under
        an ADAPT config the up stage takes Libnbc's, the other inter-node
        module, as a communicator's barrier would fall through to the
        next component offering one.
        """
        if comm.size == 1:
            return
        hier = yield from build_hierarchy(comm, self.group_level)
        cfg = self.resolve_config(hier.num_nodes, hier.local_size, 0,
                                  "barrier", config)
        if cfg.imod == "adapt":
            cfg = HanConfig(fs=cfg.fs, smod=cfg.smod)
        imod, smod = self._modules(hier, cfg)
        low, up = hier.low, hier.up
        if low.size > 1:
            yield from smod.barrier(low)
        if hier.local_rank == 0 and up.size > 1:
            yield from imod.barrier(up)
        if low.size > 1:
            yield from smod.barrier(low)
