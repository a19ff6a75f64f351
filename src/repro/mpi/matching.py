"""Messages in flight and MPI matching semantics.

Matching follows the MPI rules: a receive names ``(source, tag)`` with
wildcards; messages from one sender are matched in the order they were
sent (non-overtaking), which the runtime enforces with per-channel
sequence numbers and a hold-back buffer -- flows of different sizes may
physically finish out of order, the *matching* never does.

One :class:`Transit` per ``isend`` is the only representation a message
has from issue to receive completion, and its bound methods are the
callbacks of every stage.  On every run, quiet, noisy or traced, the
envelopes that reach their receivers in one instant are one
:class:`Arrivals` event, with every payload whose data latency is the
envelope's (a zero-byte one lands inside it): three events per message
(DESIGN.md section 4o argues why that is exact); a payload whose
latency an overhead hook moved gets a cell of its own.  One
:class:`Barrier` per barrier instance runs the built-in barrier's
rounds with those cells but no :class:`Transit`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.mpi.communicator import Message
from repro.mpi.constants import (
    ANY_SOURCE, ANY_TAG, COLL_TAG_BASE, INTERNAL_TAG_BASE,
)
from repro.mpi.request import Request
from repro.sim.engine import SimEvent
from repro.sim.fluid import EPS_BYTES

__all__ = ["Arrivals", "Barrier", "Channel", "Hop", "Matcher", "Transit", "Wire"]

EAGER = "eager"
RNDV = "rndv"


def begin_send(obs, src: int, dst: int, tag: int, nbytes: float,
               protocol: str) -> tuple[int, int]:
    """Open the obs record of a message from world rank ``src`` to
    ``dst`` and the sender's ``send`` span: ``(message id, span id)``.
    The send grant that follows is labelled ``"send_ov"`` and the
    receive grant ``"recv_ov"``, both with the message id, which is
    what ``obs.critpath`` joins a message's two ends on."""
    mid = obs.msg_begin(src, dst, tag, nbytes, protocol)
    return mid, obs.begin(f"rank{src}", "send", "p2p", peer=dst, tag=tag,
                          nbytes=nbytes, mid=mid)


def begin_recv(obs, rank: int, source: int, tag: int) -> int:
    """Open world rank ``rank``'s ``recv`` span for a receive from
    communicator rank ``source`` (or a wildcard); its end carries the
    message's ``nbytes``."""
    return obs.begin(f"rank{rank}", "recv", "p2p", source=source, tag=tag)


class Matcher:
    """Posted-receive and unexpected-message queues for one (comm, rank)."""

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        #: ``(source, tag, request)`` of every receive still waiting
        self.posted: list[tuple[int, int, Request]] = []
        self.unexpected: list[Transit] = []

    def deliver(self, msg: "Transit") -> None:
        """An envelope reached the receiver; match or queue it."""
        for i, (source, tag, req) in enumerate(self.posted):
            if _matches(source, tag, msg):
                del self.posted[i]
                msg.bind(req)
                return
        self.unexpected.append(msg)

    def post(self, source: int, tag: int, req: Request) -> None:
        """A receive was posted; match a queued envelope or wait."""
        for i, msg in enumerate(self.unexpected):
            if _matches(source, tag, msg):
                del self.unexpected[i]
                msg.bind(req)
                return
        self.posted.append((source, tag, req))


def _matches(source: int, tag: int, msg: "Transit") -> bool:
    # ANY_TAG is for user traffic: collective and runtime-internal tags
    # are matched by name only, or a wildcard receive would swallow a
    # barrier round
    return (source == msg.ch.src or source == ANY_SOURCE) and (
        tag == msg.tag or (tag == ANY_TAG and msg.tag < COLL_TAG_BASE)
    )


class Wire:
    """What the messages of one runtime share: engine, fabric, the open
    arrival events and barrier instances, the ``message_stats`` tallies.

    Not the runtime itself: channels sit in the runtime's registry, and a
    reference back would turn every finished runtime into cyclic garbage
    (a tuning sweep builds one per measurement).
    """

    __slots__ = ("engine", "fabric", "arrivals", "barriers", "hops", "fused")

    def __init__(self, engine, fabric) -> None:
        self.engine = engine
        self.fabric = fabric
        #: arrival instant -> the event messages landing then may join
        self.arrivals: dict[float, Arrivals] = {}
        #: (cid, epoch) -> the barrier instance some rank is in
        self.barriers: dict[tuple[int, int], Barrier] = {}
        #: messages barrier instances have issued (they have no channel)
        self.hops = 0
        self.fused = 0

    def arrive(self, when: float, msg) -> None:
        """Let the envelope of ``msg`` (a :class:`Transit` or a
        :class:`Hop`) reach its receiver at ``when``: it joins the instant's
        :class:`Arrivals` event while that is the newest entry of the
        instant, and opens a new one otherwise."""
        batch = self.arrivals.get(when)
        if batch is not None and self.engine.is_last(when, batch.cell):
            batch.msgs.append(msg)
        else:
            self.arrivals[when] = Arrivals(self, when, msg)


class Channel:
    """One (comm, src, dst) pair: the FIFO that keeps envelope delivery
    in send order, plus everything about the pair that never changes,
    resolved once instead of per message."""

    __slots__ = (
        "wire", "matcher", "src", "src_world", "dst_world", "src_cpu",
        "dst_cpu", "latency", "next_send_seq", "next_deliver_seq", "holdback",
    )

    def __init__(self, wire: "Wire", matcher: Matcher, src: int,
                 src_world: int, dst_world: int) -> None:
        self.wire = wire
        self.matcher = matcher
        self.src = src  # communicator rank of the sender
        self.src_world = src_world
        self.dst_world = dst_world
        fabric = wire.fabric
        self.src_cpu = fabric.progress[src_world]
        self.dst_cpu = fabric.progress[dst_world]
        #: one-way latency of the envelope and of the payload's first byte
        #: (what control_latency() returns; its per-rank-pair cache would
        #: only ever miss here, once per new channel)
        self.latency = fabric.plan(src_world, dst_world, 0).latency
        self.next_send_seq = 0
        self.next_deliver_seq = 0
        self.holdback: Optional[dict[int, Transit]] = None

    def deliver_in_order(self, msg: "Transit") -> None:
        """Pass envelopes to the matcher strictly in send order."""
        held = self.holdback
        if msg.seq != self.next_deliver_seq:
            if held is None:
                held = self.holdback = {}
            held[msg.seq] = msg
            return
        deliver = self.matcher.deliver
        while msg is not None:
            self.next_deliver_seq += 1
            deliver(msg)
            msg = held.pop(self.next_deliver_seq, None) if held else None


class Transit:
    """One message, from ``isend`` to the completion of its receive.

    Slotted and built positionally: one per message makes this the
    hottest allocation of a paper-scale run.
    """

    __slots__ = (
        "ch", "tag", "nbytes", "payload", "eager", "recv_ov", "seq",
        "send_req", "recv_req", "arrived", "mid", "rides",
    )

    def __init__(self, ch: Channel, tag: int, nbytes: float, payload: object,
                 eager: bool, recv_ov: float, send_req: Request, mid: int):
        self.ch = ch
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.eager = eager
        self.recv_ov = recv_ov
        self.seq = ch.next_send_seq
        ch.next_send_seq += 1
        self.send_req = send_req
        self.recv_req: Optional[Request] = None  # set by the match
        self.arrived = False  # data physically at the receiver
        #: observability message id (-1 when no recorder is attached)
        self.mid = mid
        self.rides = False  # the payload is in its envelope's Arrivals

    # -- sender side -----------------------------------------------------------

    def sent(self) -> None:
        """The send overhead is paid: the envelope joins the
        :class:`Arrivals` event one channel latency on, and an eager
        payload rides in it unless the overhead hook, asked here as
        ``Fabric.start_transfer`` asks it, gives the data another
        latency.  A latency too small to advance the clock gets cells
        of its own (DESIGN.md section 4o)."""
        ch = self.ch
        wire = ch.wire
        engine = wire.engine
        obs = engine.obs
        if obs is not None:
            obs.msg_send_done(self.mid)
        latency = ch.latency
        when = engine.now + latency
        if self.eager:
            data = wire.fabric.data_latency(ch.src_world, latency)
            self.rides = when > engine.now and data == latency
        if when > engine.now:
            wire.arrive(when, self)
        else:
            engine.schedule(latency, partial(ch.deliver_in_order, self))
        if self.eager:
            if not self.rides:
                engine.schedule(data, partial(
                    wire.fabric.start_flow,
                    ch.src_world, ch.dst_world, self.nbytes, self.landed,
                ))
            self.send_req.event.succeed(None)  # buffered at the receiver

    # -- receiver side ---------------------------------------------------------

    def bind(self, req: Request) -> None:
        """Matched with a posted receive."""
        self.recv_req = req
        if not self.eager:
            # Rendezvous: the receiver answers the RTS with a CTS, then
            # the data streams.
            ch = self.ch
            wire = ch.wire
            wire.engine.schedule(
                wire.fabric.control_latency(ch.dst_world, ch.src_world),
                self.stream,
            )
        elif self.arrived:
            self.finish()

    def stream(self) -> None:
        ch = self.ch
        ch.wire.fabric.start_transfer(
            ch.src_world, ch.dst_world, self.nbytes, self.landed
        )

    def landed(self) -> None:
        """The last byte is at the receiver."""
        self.arrived = True
        obs = self.ch.wire.engine.obs
        if obs is not None:
            obs.msg_arrived(self.mid)
        if not self.eager:
            # data lands only after the match, so the recv is known;
            # complete both sides
            self.send_req.event.succeed(None)
            self.finish()
        elif self.recv_req is not None:
            self.finish()

    def finish(self) -> None:
        self.ch.dst_cpu.request_call(
            self.recv_ov, self.received, "recv_ov", mid=self.mid
        )

    def received(self) -> None:
        """The receive overhead is paid: hand the message over."""
        ch = self.ch
        obs = ch.wire.engine.obs
        if obs is not None:
            obs.msg_recv_done(self.mid)
        self.recv_req.event.succeed(
            Message(ch.src, self.tag, self.nbytes, self.payload)
        )


class Arrivals:
    """The envelopes that reach their receivers in one instant, back to
    back, and the payloads that ride in them, retired as one event.

    In cells of their own, message *k*'s envelope and riding payload
    would be two adjacent cells (envelope, ``start_flow``), plus a third
    that ``start_flow`` appends to the instant for an instantaneous
    payload.  A message joins only while this event is the newest entry
    of its instant, so :meth:`fire` walks those very cells in their
    order; it lands the instantaneous payloads itself only if it is
    still the newest entry then -- otherwise the cells behind it come
    first, as they would have, and one trailing event lands them.
    """

    __slots__ = ("wire", "msgs", "cell")

    def __init__(self, wire: Wire, when: float, first: Transit) -> None:
        self.wire = wire
        self.msgs = [first]
        self.cell = wire.engine.schedule_at(when, self.fire)

    def fire(self) -> None:
        wire = self.wire
        engine = wire.engine
        now = engine.now
        if wire.arrivals.get(now) is self:
            del wire.arrivals[now]
        msgs = self.msgs
        wire.fused += len(msgs)
        fabric = wire.fabric
        instant = []
        for msg in msgs:
            if type(msg) is Hop:  # a barrier round: no channel, no flow
                if msg.rides:
                    instant.append(msg)
                else:
                    msg.delivered()
                continue
            ch = msg.ch
            ch.deliver_in_order(msg)
            if msg.rides:
                if msg.nbytes > EPS_BYTES:
                    fabric.start_flow(
                        ch.src_world, ch.dst_world, msg.nbytes, msg.landed
                    )
                else:
                    instant.append(msg)
        if instant:
            if engine.is_last(now, self.cell):
                self.land(instant)
            else:
                engine.schedule(0.0, lambda: self.land(instant))

    @staticmethod
    def land(msgs: list) -> None:
        for msg in msgs:
            msg.landed()


class Barrier:
    """One instance of ``Communicator.barrier``, run for all its ranks.

    Rank *r*'s round *k* is a ``sendrecv`` loop's: a zero-byte message
    to ``r + 2**k`` and one from ``r - 2**k`` (mod size).  Each message
    keeps the engine cells and hook calls a zero-byte :class:`Transit`
    has, in the same order: the send grant on the sender's progress
    server, its envelope's place in an :class:`Arrivals` event, the
    payload's landing there (or in cells of its own), the receive grant
    at landing or when the round starts, whichever is later.  It skips
    the per-round request, channel, matcher, :class:`Message`, ``AllOf``
    and generator resume: a rank waits on one event, succeeded in the
    cell its last round completes (DESIGN.md section 4o: why it is exact).

    Under an obs recorder each round emits what the loop's ``isend`` /
    ``irecv`` pair would, at the same instants and in the same order: a
    message record per round (tag ``INTERNAL_TAG_BASE + epoch % 1024``)
    and a ``send`` and a ``recv`` span per rank and round.  Whether a
    round is traced is settled when it starts: a recorder attached later
    sees only the rounds that start after it, and a round's spans and
    send record close in the recorder that opened them, as the ``isend``
    / ``irecv`` callbacks close their spans.

    The instance leaves the wire's registry when its last rank does.
    """

    __slots__ = (
        "wire", "key", "group", "cpus", "send_ov", "recv_ov", "tag",
        "round", "early", "released", "procs", "left", "open",
    )

    def __init__(self, wire: Wire, key: tuple[int, int],
                 group: tuple[int, ...], send_ov: float,
                 recv_ov: float) -> None:
        self.wire = wire
        self.key = key
        self.group = group  # world ranks, indexed by communicator rank
        progress = wire.fabric.progress
        self.cpus = [progress[w] for w in group]
        self.send_ov = send_ov
        self.recv_ov = recv_ov
        self.tag = INTERNAL_TAG_BASE + key[1] % 1024
        n = len(group)
        #: the round each rank is in (-1: not entered yet)
        self.round = [-1] * n
        #: (rank, k) -> the id (-1 untraced) of a round-k message that
        #: landed before its receiver reached round k
        self.early: dict[tuple[int, int], int] = {}
        self.released: list[Optional[SimEvent]] = [None] * n
        #: the process waiting in the barrier, per rank: a killed one
        #: starts no further round, as its closed generator would not
        self.procs: list = [None] * n
        self.left = 0
        #: per rank: (recorder, message id, send span, recv span) of its
        #: round, if a recorder was attached when the round started
        self.open: list = [None] * n

    def enter(self, rank: int) -> SimEvent:
        """``rank`` calls the barrier: start its first round."""
        engine = self.wire.engine
        ev = self.released[rank] = SimEvent(engine, "barrier")
        self.procs[rank] = engine._running
        self._start(rank, 0)
        return ev

    def _start(self, rank: int, k: int) -> None:
        """Round ``k``'s isend, then its irecv."""
        self.round[rank] = k
        self.wire.hops += 1
        obs = self.wire.engine.obs
        mid = -1
        if obs is not None:
            n = len(self.group)
            me = self.group[rank]
            mid, send = begin_send(obs, me, self.group[(rank + (1 << k)) % n],
                                   self.tag, 0.0, EAGER)
        self.cpus[rank].request_call(
            self.send_ov, partial(self._sent, rank), "send_ov", mid=mid
        )
        if obs is not None:
            self.open[rank] = (
                obs, mid, send,
                begin_recv(obs, me, (rank - (1 << k)) % n, self.tag),
            )
        early = self.early.pop((rank, k), None)
        if early is not None:
            self._grant_recv(rank, early)

    def _sent(self, rank: int) -> None:
        """The send overhead of ``rank``'s round is paid: on the wire,
        as :meth:`Transit.sent` puts a zero-byte message there."""
        wire = self.wire
        engine = wire.engine
        fabric = wire.fabric
        group = self.group
        k = self.round[rank]  # the round's receive cannot be done yet
        dst = (rank + (1 << k)) % len(group)
        latency = fabric.plan(group[rank], group[dst], 0).latency
        data = fabric.data_latency(group[rank], latency)
        now = engine.now
        when = now + latency
        mid = -1
        traced = self.open[rank]
        if traced is not None:
            rec, mid, send, _recv = traced
            rec.msg_send_done(mid)
            rec.end(send)
        hop = Hop(self, dst, k, when > now and data == latency, mid)
        if when > now:
            wire.arrive(when, hop)
        else:
            engine.schedule(latency, hop.delivered)
        if not hop.rides:
            # the payload's flow start, then its landing at the end of
            # that instant, one cell each
            engine.schedule(data, partial(engine.schedule, 0.0, hop.landed))

    def _landed(self, rank: int, k: int, mid: int) -> None:
        """Round ``k``'s message (id ``mid``) is at ``rank``."""
        if self.round[rank] == k:  # the receive is posted
            self._grant_recv(rank, mid)
        else:
            self.early[rank, k] = mid

    def _grant_recv(self, rank: int, mid: int) -> None:
        """Queue ``rank``'s receive overhead for message ``mid``."""
        self.cpus[rank].request_call(
            self.recv_ov, partial(self._received, rank, mid),
            "recv_ov", mid=mid,
        )

    def _received(self, rank: int, mid: int) -> None:
        """The receive overhead of ``rank``'s round is paid."""
        obs = self.wire.engine.obs
        if obs is not None:
            obs.msg_recv_done(mid)
        traced = self.open[rank]
        if traced is not None:
            self.open[rank] = None
            traced[0].end(traced[3], nbytes=0.0)
        k = self.round[rank] + 1
        if 1 << k < len(self.group):
            if not self.procs[rank].finished:
                self._start(rank, k)
            return
        self.left += 1
        if self.left == len(self.group):
            del self.wire.barriers[self.key]
        self.released[rank].succeed()


class Hop:
    """A barrier instance's round-``k`` message to ``rank``, as an
    :class:`Arrivals` event carries it."""

    __slots__ = ("barrier", "rank", "k", "rides", "mid", "left")

    def __init__(self, barrier: Barrier, rank: int, k: int,
                 rides: bool, mid: int) -> None:
        self.barrier = barrier
        self.rank = rank
        self.k = k
        self.rides = rides  # the payload lands with the envelope
        self.mid = mid  # observability message id (-1: none)
        self.left = 1 if rides else 2  # halves (envelope, payload) to land

    def delivered(self) -> None:
        """The envelope half is at the receiver."""
        self.left -= 1
        if not self.left:
            self.barrier._landed(self.rank, self.k, self.mid)

    def landed(self) -> None:
        """The payload is at the receiver (a riding one with its
        envelope)."""
        obs = self.barrier.wire.engine.obs
        if obs is not None:
            obs.msg_arrived(self.mid)
        self.delivered()
