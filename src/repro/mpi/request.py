"""Non-blocking operation handles."""

from __future__ import annotations

from typing import Any

from repro.sim.engine import SimEvent

__all__ = ["Request"]


class Request:
    """Handle for a pending non-blocking operation.

    ``event`` fires with the operation's result: the delivered
    :class:`~repro.mpi.communicator.Message` for receives, ``None`` for
    sends, and an operation-defined value for non-blocking collectives.
    Wait through the owning communicator::

        req = comm.irecv(source=3)
        msg = yield from comm.wait(req)
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: SimEvent, kind: str):
        self.event = event
        self.kind = kind

    @property
    def complete(self) -> bool:
        return self.event.triggered

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: ``(done, value)``."""
        return self.event.triggered, self.event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.complete else "pending"
        return f"<Request {self.kind} {state}>"
