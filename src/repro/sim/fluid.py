"""Max-min fair-share fluid bandwidth allocator.

Data transfers in the simulator are *flows*: an amount of bytes crossing a
set of shared *resources* (NIC tx/rx channels, network links, per-node
memory buses).  At any instant, every active flow receives a rate decided
by progressive filling (max-min fairness): the most contended resource is
saturated first, flows through it are fixed at the fair share, and the
procedure repeats on the residual network.  This is the classic flow-level
network model (as used by e.g. SimGrid) and is what produces, without any
hand-tuned constants:

- fair bandwidth sharing and *congestion at a process* when many flows hit
  one NIC (the effect of [Gropp et al., EuroMPI'16] cited by the paper);
- *imperfect overlap* between inter-node (`ib`) and intra-node (`sb`)
  broadcasts when both touch the same memory bus (paper section III-A2).

Each flow may additionally carry a private ``rate_cap`` (bytes/s),
modelling the achievable point-to-point bandwidth of the MPI library for a
given message size (the `P2PProfile` of Fig 11); a cap is just an extra
single-flow resource.

Incremental solving
-------------------

The solver is event-driven.  Flow starts, retirements, aborts and
capacity rescales leave *seeds*; one `PRIORITY_LATE` callback per
instant re-solves what the seeds can change and (re)arms a single "next
completion" callback on the engine, so a collective step that starts P
flows triggers one recomputation, not P.  Completions come off a lazy
heap of ``(t_done, fid, epoch)`` entries.

A re-solve covers only the flows that share a *bound* resource with a
seed, transitively (:meth:`FluidSolver._affected_component`), and it is
exact, not an approximation: progressive filling never moves bandwidth
between components that share no bound resource, so flows outside the
closure keep their rates.  Bit-identity with a global re-solve of every
flow (the oracle of ``tests/sim/fluid_oracle.py``) rests on three
disciplines:

1. *Committed drains*: a flow's ``remaining`` is drained only when its
   rate changes (:meth:`FluidSolver._apply_rates`); observers use the
   non-committing ``drained_at`` view.
2. *Exact completion instants*: ``t_done = drained_at + remaining/rate``
   is computed once per rate commit and placed on the engine heap
   verbatim via :meth:`Engine.schedule_at`.
3. *Order-stable kernels*: flows are solved in fid order, and both
   kernels (:meth:`FluidSolver._fill_scalar` for small components,
   :meth:`FluidSolver._fill_vectorized` from ``_VECTOR_MIN`` flows up)
   accumulate each resource's weight sum and residual in (fid, route)
   order; the load of a resource is likewise always a fid-order sum of
   its flows' rates from 0.0 (:meth:`FluidSolver._refresh_load`).

Slack resources
---------------

A resource is *slack* when every incident flow has weight 1 and a
finite cap, and their caps, counted once per route crossing, sum to at
most ``capacity * (1 - 1e-9)``.  A slack resource never fixes a rate:
in any filling round its fair share (residual over active flows) exceeds
the smallest active cap by more than the kernel's ``1e-12`` tie window,
so a cap always binds first and the filling runs as if the resource
were absent.  (Weights break this: capacity 10 under A (weight 1, cap
5) and B (weight 9, cap 4) fills A at 1.)  Three per-resource tallies,
kept at start, rate commit, retirement and abort, decide it in O(1):
the sum of caps, the flows below their cap, and the flows that are
weighted or uncapped.  They buy three shortcuts that change no bit:

(a) *Start lane.*  A weight-1, capped new flow whose every resource
    stays slack with it and carries no below-cap flow takes its cap in
    :meth:`FluidSolver.start_flow` (the drain and ``t_done`` arithmetic
    of ``_apply_rates``) and appends it to each resource load (it is the
    largest fid, so that is the fid-order sum).  It is never a seed.  The
    instant's recompute callback still runs, re-solves nothing if nothing
    else is dirty or due, and arms the next completion as before, so the
    engine sees the same cells and the same schedule calls.
(b) *Retire skip.*  When the only seeds are retirements and aborts and
    every flow left on their resources runs at its cap, nothing is
    re-solved: a removal only raises the fair shares there, and a flow
    at its cap cannot take more, so every round fixes the same flows at
    the same values.  Only the loads are refreshed.
(c) *Closure cut.*  The component walk does not cross a slack resource.
    Dirty resources always expand: a retirement can leave a bound
    resource slack and free the flows behind it.

Under an obs recorder the utilization samples cover every resource
whose load moved, a lane start's route included, so the recorder's
deduplicated counter stream is a full re-solve's.  Like the component
split itself, these arguments hold up to near-ties inside the kernel's
``1e-12`` window, which a smaller problem can group into rounds
differently; the differential and slack batteries under ``tests/sim``
and every timing lock find none.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.sim.engine import Engine, PRIORITY_LATE

__all__ = [
    "EPS_BYTES",
    "FluidSolver",
    "Flow",
    "clear_fill_memo",
    "fill_memo_sizes",
    "process_memo",
]

#: flows with fewer remaining bytes are considered done; a payload this
#: small never reaches the solver (``start_flow`` completes it at once)
EPS_BYTES = 1e-6
_INF = math.inf

#: a resource whose flows' caps sum to at most capacity * _SLACK is slack
#: (see the module docstring): the margin dwarfs the kernel's 1e-12 tie
#: window and any rounding in the incrementally kept sums
_SLACK = 1.0 - 1e-9

#: components of at least this many flows take the numpy kernel, smaller
#: ones the scalar one (numpy's per-call cost dominates below it)
_VECTOR_MIN = 128

#: process-wide progressive-fill memo (see FluidSolver._progressive_fill):
#: (caps id, flow item id, ...) -> rates, where a caps id names one
#: capacity vector and an item id one flow's (route, rate_cap, weight),
#: both interned (see _intern).  Generational eviction: when the current
#: generation reaches half of _FILL_MEMO_MAX it replaces the previous one,
#: and a hit there is promoted back, so hot entries never age out.  It
#: only ever returns lists a kernel produced for the identical inputs.
_FILL_MEMO: dict = {}
_FILL_MEMO_OLD: dict = {}
_FILL_MEMO_MAX = 200_000

#: intern tables for the memo key parts: capacity vector -> id and
#: (route, rate_cap, weight) -> id.  Every id comes from one process-wide
#: counter that nothing resets, so an id names one value for the life of
#: the process: the tables may be dropped at any time (clear_fill_memo,
#: or a table reaching _FILL_MEMO_MAX) and an id a live solver or flow
#: still holds can only miss afterwards, never alias another value.
_CAPS_IDS: dict = {}
_ITEM_IDS: dict = {}
_NEXT_ID = itertools.count()


def _intern(table: dict, value) -> int:
    got = table.get(value)
    if got is None:
        if len(table) >= _FILL_MEMO_MAX:
            table.clear()
        got = table[value] = next(_NEXT_ID)
    return got


def _fill_memo_store(key: tuple, value: np.ndarray) -> None:
    global _FILL_MEMO, _FILL_MEMO_OLD
    memo = _FILL_MEMO
    if len(memo) >= _FILL_MEMO_MAX // 2:
        _FILL_MEMO_OLD = memo
        memo = _FILL_MEMO = {}
    memo[key] = value


def _fill_memo_get(key: tuple):
    value = _FILL_MEMO.get(key)
    if value is None:
        value = _FILL_MEMO_OLD.get(key)
        if value is not None:
            _fill_memo_store(key, value)  # promote: hot entries never age out
    return value


def fill_memo_sizes() -> tuple[int, int]:
    """(current, previous) generation entry counts — test/bench hook."""
    return len(_FILL_MEMO), len(_FILL_MEMO_OLD)


#: every other process-lifetime simulator memo (see process_memo)
_PROCESS_MEMOS: list[dict] = []


def process_memo() -> dict:
    """A dict that lives until the next :func:`clear_fill_memo`.

    For results a layer above the solver may keep for the life of the
    process (the measurement harness's barrier exit schedules); handing
    them out here is what makes ``clear_fill_memo()`` the one cold-start
    switch.
    """
    memo: dict = {}
    _PROCESS_MEMOS.append(memo)
    return memo


def clear_fill_memo() -> None:
    """Cold start: forget everything this process has learned.

    Drops both fill-memo generations *and* every :func:`process_memo`,
    so the next simulation does exactly the work a fresh process would.
    Benchmarks call it before each repetition (and fail a repetition
    whose event count differs from the first), tests call it for
    isolation; a memo that must survive it does not belong in the
    simulator.  Results never depend on it -- only the work done.
    """
    _FILL_MEMO.clear()
    _FILL_MEMO_OLD.clear()
    _CAPS_IDS.clear()
    _ITEM_IDS.clear()
    for memo in _PROCESS_MEMOS:
        memo.clear()


@dataclass(slots=True)
class Flow:
    """One active data transfer inside the fluid solver."""

    fid: int
    remaining: float  # bytes still to transfer, as of `drained_at`
    resources: np.ndarray  # resource ids this flow crosses (may be empty)
    rate_cap: float  # private upper bound on rate (bytes/s), inf if none
    on_complete: Callable[[], None]
    rate: float = 0.0  # current allocated rate, maintained by the solver
    weight: float = 1.0  # share weight on contended resources
    meta: dict = field(default_factory=dict)
    # -- solver bookkeeping (see the module docstring) --------------------
    drained_at: float = 0.0  # instant `remaining` was last committed
    t_done: float = _INF  # completion instant at the current rate
    epoch: int = 0  # bumped per rate commit; invalidates heap entries
    res_list: list = field(default_factory=list)  # resources.tolist() cache
    res_unique: list = field(default_factory=list)  # distinct rids, route order
    res_uset: frozenset = frozenset()  # distinct rids, for the component BFS
    # interned (route, rate_cap, weight): set on the flow's first memoized
    # multi-flow fill, -1 before (singleton fills never need it)
    memo_id: int = -1


class FluidSolver:
    """Shared-bandwidth network state attached to a simulation engine.

    Resources are created once (topology build time) via
    :meth:`add_resource`; flows come and go via :meth:`start_flow`.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._capacity: list[float] = []
        self._names: list[str] = []
        self._flows: dict[int, Flow] = {}
        self._next_fid = 0
        self._last_update = 0.0
        self._completion_token = None
        self._token_time = _INF
        self._recompute_pending = False
        self._dead_resources = 0  # resources currently at zero capacity
        # resource -> set of incident flow ids, dirty seeds accumulated
        # since the last recompute, and the lazy completion heap of
        # [t_done, fid, epoch] entries.
        self._res_flows: list[set[int]] = []
        self._dirty_fids: set[int] = set()
        self._dirty_rids: set[int] = set()
        self._cheap: list[list] = []
        # per-resource slack tallies (module docstring, "Slack
        # resources"): caps of weight-1 capped flows per route crossing,
        # incident flows below their cap, incident flows that are
        # weighted or uncapped; and capacity * _SLACK
        self._cap_sum: list[float] = []
        self._below: list[int] = []
        self._unslack: list[int] = []
        self._slack_cap: list[float] = []
        # statistics
        self.total_flows = 0
        self.recomputes = 0
        #: flows handed to the progressive-filling kernel, summed over
        #: recomputes — the solver's work metric
        self.kernel_flows_solved = 0
        #: fills answered by the process-wide memo: rates depend only on
        #: routes, weights, caps and capacities, never on remaining bytes,
        #: so warm iterations, pipeline rounds and the many short-lived
        #: solvers of a tuning sweep reuse solved components verbatim
        self.fill_cache_hits = 0
        self._caps_id = -1  # interned tuple(self._capacity); -1 = stale
        # (res_list, res_unique, res_uset) per cached fabric route array,
        # keyed by id() and checked by identity against the held array
        self._route_derived: dict[int, tuple] = {}
        # the instantaneous load vector and its time integrals (busy
        # seconds, bytes served), kept by _advance_accounting
        self._load = np.zeros(0)
        self._busy_time = np.zeros(0)
        self._served_bytes = np.zeros(0)
        self._acct_tmp = np.zeros(0)
        # numpy mirror of _capacity, rebuilt lazily with the accounting
        # arrays (growing per add_resource is O(R^2) at topology build)
        self._cap_arr = np.zeros(0)
        #: False when every resource load is known zero (no active flows)
        self._load_any = False
        # the recorder the last utilization samples went to; a change
        # forces a full emission for the freshly attached observer
        self._obs_last_recorder = None
        # routes of the lane starts since the last recompute (obs only):
        # their loads moved outside any re-solve
        self._lane_rids: set[int] = set()

    # -- resources -----------------------------------------------------------

    def add_resource(self, capacity: float, name: str = "") -> int:
        """Register a shared resource with ``capacity`` bytes/s; returns id."""
        if not capacity > 0:
            raise ValueError(f"add_resource: capacity must be > 0, got {capacity!r}")
        self._capacity.append(float(capacity))
        self._names.append(name)
        self._res_flows.append(set())
        self._cap_sum.append(0.0)
        self._below.append(0)
        self._unslack.append(0)
        self._slack_cap.append(float(capacity) * _SLACK)
        self._caps_id = -1  # capacity vector changed: new memo keyspace
        # accounting arrays grow lazily (_ensure_arrays): a paper-scale
        # fabric registers thousands of resources back to back
        return len(self._capacity) - 1

    def _ensure_arrays(self) -> None:
        """Grow the per-resource numpy arrays to match the resource count."""
        n = len(self._capacity)
        if self._load.size == n:
            return
        old = self._load.size
        for attr in ("_load", "_busy_time", "_served_bytes"):
            grown = np.zeros(n)
            grown[:old] = getattr(self, attr)
            setattr(self, attr, grown)
        self._cap_arr = np.asarray(self._capacity, dtype=np.float64)
        self._acct_tmp = np.zeros(n)  # scratch for _advance_accounting

    def resource_name(self, rid: int) -> str:
        return self._names[rid]

    @property
    def num_resources(self) -> int:
        return len(self._capacity)

    def capacity(self, rid: int) -> float:
        return self._capacity[rid]

    def set_capacity(self, rid: int, capacity: float) -> None:
        """Rescale a resource's capacity at the current simulated time.

        Bytes already drained at the old rates are accounted first, then
        a rate recomputation is requested, so in-flight flows see the new
        capacity from this instant on.  ``capacity`` may be 0.0 (a dead
        link): flows crossing the resource stall at rate zero and resume
        when a later :meth:`set_capacity` restores it.
        """
        self.set_capacities([(rid, capacity)])

    def set_capacities(self, updates: Iterable[tuple[int, float]]) -> None:
        """Apply a batch of ``(rid, capacity)`` rescales at the current time.

        Equivalent to calling :meth:`set_capacity` per pair, but advances
        the accounting integrals once and seeds a single recompute — the
        fault injectors use this for whole-fault-domain windows (a link
        flap touches every lane of a trunk at the same instant).
        """
        changed: list[tuple[int, float]] = []
        for rid, capacity in updates:
            if not capacity >= 0:
                raise ValueError(
                    f"set_capacity: capacity must be >= 0, got {capacity!r}"
                )
            if float(capacity) != self._capacity[rid]:
                changed.append((rid, float(capacity)))
        if not changed:
            return
        self._advance_accounting()
        for rid, capacity in changed:
            old = self._capacity[rid]
            self._dead_resources += (capacity == 0.0) - (old == 0.0)
            self._capacity[rid] = capacity
            self._cap_arr[rid] = capacity
            self._slack_cap[rid] = capacity * _SLACK
            self._dirty_rids.add(rid)
            # its flows are seeds too, so no retire skip passes them over
            self._dirty_fids |= self._res_flows[rid]
        self._caps_id = -1
        self._mark_dirty()

    def scale_capacity(self, rid: int, factor: float) -> None:
        """Multiply a resource's current capacity by ``factor`` (>= 0)."""
        if not factor >= 0:
            raise ValueError(f"scale_capacity: factor must be >= 0, got {factor!r}")
        self.set_capacity(rid, self._capacity[rid] * factor)

    # -- flows ---------------------------------------------------------------

    def start_flow(
        self,
        nbytes: float,
        resources: Sequence[int],
        on_complete: Callable[[], None],
        rate_cap: float = _INF,
        weight: float = 1.0,
        label: str = "",
    ) -> int:
        """Begin transferring ``nbytes`` across ``resources``.

        ``on_complete`` fires (via the engine, at the completion instant)
        once the last byte has drained.  Zero-byte flows complete on the
        next timestep without touching the solver.
        """
        # spelled `not x > 0` so that NaN fails the checks too
        if not nbytes >= 0:
            raise ValueError(f"start_flow: nbytes must be >= 0, got {nbytes!r}")
        if not rate_cap > 0:
            raise ValueError(f"start_flow: rate_cap must be > 0, got {rate_cap!r}")
        if not 0 < weight < _INF:
            raise ValueError(
                f"start_flow: weight must be finite and > 0, got {weight!r}"
            )
        if type(resources) is np.ndarray and resources.dtype == np.intp:
            # trusted fast path: the fabric passes cached, pre-validated
            # route arrays (per-flow min/max reductions are a hot spot)
            rids = resources
        else:
            rids = np.asarray(resources, dtype=np.intp)
            if rids.size and (rids.min() < 0 or rids.max() >= len(self._capacity)):
                raise IndexError("flow references unknown resource id")
        if nbytes <= EPS_BYTES or (rids.size == 0 and rate_cap == _INF):
            # Instantaneous: no bandwidth constraint applies.
            self.engine.schedule(0.0, on_complete)
            return -1
        fid = self._next_fid
        self._next_fid += 1
        self.total_flows += 1
        derived = self._route_derived.get(id(rids))
        if derived is None or derived[0] is not rids:
            res_list = rids.tolist()
            res_unique = list(dict.fromkeys(res_list))
            derived = (rids, res_list, res_unique, frozenset(res_list))
            if rids is resources:  # only cache caller-owned (fabric) arrays
                self._route_derived[id(rids)] = derived
        flow = Flow(
            fid=fid,
            remaining=float(nbytes),
            resources=rids,
            rate_cap=float(rate_cap),
            on_complete=on_complete,
            weight=float(weight),
            drained_at=self.engine.now,
            res_list=derived[1],
        )
        flow.res_unique = derived[2]
        flow.res_uset = derived[3]
        self._flows[fid] = flow
        res_flows = self._res_flows
        for rid in flow.res_unique:
            res_flows[rid].add(fid)
        obs = self.engine.obs
        if obs is not None:
            flow.meta["obs_t0"] = self.engine.now
            flow.meta["obs_label"] = label
            flow.meta["obs_nbytes"] = float(nbytes)
        self._mark_dirty()  # a lane start too: that cell arms its completion
        if flow.weight == 1.0 and flow.rate_cap < _INF:
            cap_sum = self._cap_sum
            for rid in flow.res_list:
                cap_sum[rid] += flow.rate_cap
            if self._start_lane(flow):
                if obs is not None:
                    self._lane_rids |= flow.res_uset
                return fid
        else:
            unslack = self._unslack
            for rid in flow.res_unique:
                unslack[rid] += 1
        below = self._below
        for rid in flow.res_unique:
            below[rid] += 1  # at rate 0.0, below any cap
        self._dirty_fids.add(fid)
        return fid

    def _start_lane(self, f: Flow) -> bool:
        """Give a fresh flow its cap now if no rate can move (lane (a)).

        Every resource of ``f`` must stay slack with it and carry no
        below-cap flow: then its own cap alone binds ``f``, and ``f``
        binds no other flow.  A lane flow is never counted below cap; the
        instant's recompute arms its completion.
        """
        unslack, below = self._unslack, self._below
        cap_sum, slack_cap = self._cap_sum, self._slack_cap
        for rid in f.res_unique:
            if unslack[rid] or below[rid] or cap_sum[rid] > slack_cap[rid]:
                return False
        self._advance_accounting()  # the elapsed interval ran at the old loads
        # _apply_rates' commit from rate 0.0 at the start instant, where
        # the drain `remaining - 0.0 * 0.0` leaves `remaining` as it is
        cap = f.rate = f.rate_cap
        f.epoch += 1
        f.t_done = self.engine.now + f.remaining / cap
        heapq.heappush(self._cheap, [f.t_done, f.fid, f.epoch])
        load = self._load
        for rid in f.res_unique:
            load[rid] += cap
        self._load_any = True
        return True

    def abort_flow(self, fid: int) -> None:
        """Drop a flow without firing its completion callback."""
        f = self._flows.get(fid)
        if f is None:
            return
        self._advance_accounting()
        self._unlink(f)
        self._dirty_fids.discard(fid)
        self._mark_dirty()

    def _unlink(self, f: Flow) -> None:
        """Take a retiring or aborted flow off its resources, dirtying them."""
        fid = f.fid
        del self._flows[fid]
        res_flows, dirty = self._res_flows, self._dirty_rids
        for rid in f.res_unique:
            res_flows[rid].discard(fid)
            dirty.add(rid)
        if f.rate < f.rate_cap:
            below = self._below
            for rid in f.res_unique:
                below[rid] -= 1
        if f.weight == 1.0 and f.rate_cap < _INF:
            cap_sum = self._cap_sum
            for rid in f.res_list:
                # an emptied resource restarts its sum from an exact 0.0
                cap_sum[rid] = cap_sum[rid] - f.rate_cap if res_flows[rid] else 0.0
        else:
            unslack = self._unslack
            for rid in f.res_unique:
                unslack[rid] -= 1

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rate(self, fid: int) -> float:
        """Current rate of a flow (bytes/s); 0.0 for completed/unknown fids.

        Completed and aborted flows — including the ``-1`` pseudo-fid of
        instantaneous flows — report 0.0 rather than raising, so callers
        may poll a saved fid without tracking completion themselves.
        """
        f = self._flows.get(fid)
        return f.rate if f is not None else 0.0

    def flow_remaining(self, fid: int) -> float:
        """Bytes a flow still has to transfer at the current instant.

        A non-committing view (the flow's drain state is not mutated);
        0.0 for completed/unknown fids.
        """
        f = self._flows.get(fid)
        if f is None:
            return 0.0
        rem = f.remaining - f.rate * (self.engine.now - f.drained_at)
        return rem if rem > 0.0 else 0.0

    # -- solver core -----------------------------------------------------------

    def _mark_dirty(self) -> None:
        """Request a rate recomputation at the end of this timestep."""
        if not self._recompute_pending:
            self._recompute_pending = True
            self.engine.schedule(0.0, self._recompute, priority=PRIORITY_LATE)

    def _advance_accounting(self) -> None:
        """Integrate per-resource accounting for the elapsed interval.

        ``_load`` held over the whole interval since the last rate event,
        so busy seconds and served bytes accumulate exactly; every load
        or capacity change calls here first.
        """
        dt = self.engine.now - self._last_update
        self._last_update = self.engine.now
        self._ensure_arrays()
        if dt <= 0 or not self._load_any:
            return
        load = self._load
        # in-place where= add and a reused scratch buffer: equivalent
        # elementwise operations to busy_time[load > 0] += dt and
        # served += load * dt, minus the index/temporary allocations
        np.add(self._busy_time, dt, out=self._busy_time, where=load > 0.0)
        np.multiply(load, dt, out=self._acct_tmp)
        np.add(self._served_bytes, self._acct_tmp, out=self._served_bytes)

    def _recompute(self) -> None:
        self._recompute_pending = False
        self.recomputes += 1
        self._advance_accounting()
        due = self._pop_due(self.engine.now)
        if due:
            self._retire(due)
        touched = self._resolve()
        obs = self.engine.obs
        if obs is not None:
            if self._lane_rids:
                touched = sorted(self._lane_rids.union(touched))
                self._lane_rids = set()
            self._sample_utilization(obs, touched)
        else:
            self._obs_last_recorder = None
        self._schedule_next()

    def _resolve(self) -> Optional[list[int]]:
        """Re-solve what the seeds can change; consumes the seeds.

        Returns the sorted rids whose utilization an obs recorder should
        sample (None without one).
        """
        dirty_fids = self._dirty_fids
        dirty_rids = self._dirty_rids
        obs = self.engine.obs
        if not dirty_fids:
            # retire skip (b): freed bandwidth no flow left there can take
            below = self._below
            for rid in dirty_rids:
                if below[rid]:
                    break
            else:
                self._dirty_rids = set()
                self._refresh_load([], dirty_rids)
                self._load_any = bool(self._flows)
                return None if obs is None else sorted(dirty_rids)
        elif len(dirty_fids) == 1 and not dirty_rids:
            # one fresh flow alone on its resources is its own component:
            # the generic path's arithmetic, minus the walk and the sums
            (fid,) = dirty_fids
            f = self._flows.get(fid)
            if f is not None and all(
                len(self._res_flows[rid]) == 1 for rid in f.res_unique
            ):
                dirty_fids.clear()
                self._apply_rates([f], self._fill_scalar([f]))
                self.kernel_flows_solved += 1
                load = self._load
                r = f.rate
                for rid in f.res_unique:
                    load[rid] = r
                self._load_any = True
                return None if obs is None else sorted(f.res_unique)
        comp_fids, comp_rids = self._affected_component()
        dirty_fids.clear()
        self._dirty_rids = set()
        flows = [self._flows[fid] for fid in sorted(comp_fids)]
        changed: list[Flow] = []
        if flows:
            rates = self._progressive_fill(flows)
            changed = self._apply_rates(flows, rates)
            self.kernel_flows_solved += len(flows)
        self._refresh_load(changed, dirty_rids)
        self._load_any = bool(self._flows)
        return None if obs is None else sorted(comp_rids)

    def _refresh_load(self, changed: list[Flow], dirty_rids: set[int]) -> None:
        """Re-sum ``_load`` on the resources whose load may have moved.

        Those are the routes of the flows whose rate ``_apply_rates``
        changed, plus the dirty rids (retirements, aborts, rescales).
        Every other resource kept its flows' rates and at most gained
        flows at rate 0.0, whose exact ``+ 0.0`` moves no sum (or a lane
        rate, appended as the last term).  Each refreshed rid re-sums its
        incident rates from 0.0 in fid order with plain scalar adds (not
        ``sum``, which compensates on 3.12+), a double crossing counting
        once.  ``dirty_rids`` is consumed.
        """
        rids = dirty_rids
        for f in changed:
            rids |= f.res_uset
        flows = self._flows
        res_flows = self._res_flows
        load = self._load
        for rid in rids:
            acc = 0.0
            for fid in sorted(res_flows[rid]):
                acc += flows[fid].rate
            load[rid] = acc

    def _affected_component(self) -> tuple[set[int], set[int]]:
        """Closure of flows transitively sharing a bound resource with the seeds.

        Seeds are flows started or rescaled since the last recompute
        (``_dirty_fids``) plus resources whose capacity changed or whose
        flows retired or aborted (``_dirty_rids``).  The walk crosses no
        slack resource except a dirty one (closure cut (c)).  The
        returned rid set holds every route of the flows found, and the
        flowless dirty rids (so their load/obs samples refresh).
        """
        flows = self._flows
        res_flows = self._res_flows
        unslack, cap_sum, slack_cap = self._unslack, self._cap_sum, self._slack_cap
        # frontier expansion via C-level set unions: per level, the
        # frontier flows' resources, then the flows on the new bound ones
        seen_f: set[int] = set()
        seen_r: set[int] = set(self._dirty_rids)
        frontier: set[int] = {fid for fid in self._dirty_fids if fid in flows}
        for rid in self._dirty_rids:
            frontier |= res_flows[rid]
        while frontier:
            seen_f |= frontier
            new_r: set[int] = set()
            for fid in frontier:
                new_r |= flows[fid].res_uset
            new_r -= seen_r
            seen_r |= new_r
            frontier = set()
            for rid in new_r:
                if unslack[rid] or cap_sum[rid] > slack_cap[rid]:
                    frontier |= res_flows[rid]
            frontier -= seen_f
        return seen_f, seen_r

    def _pop_due(self, now: float) -> list[Flow]:
        """Pop every flow whose completion instant has arrived (fid order).

        An entry is live only while its fid is active and its epoch is the
        flow's (each rate commit bumps the epoch, orphaning older entries).
        """
        heap = self._cheap
        flows = self._flows
        due: list[Flow] = []
        while heap and heap[0][0] <= now:
            t, fid, epoch = heapq.heappop(heap)
            f = flows.get(fid)
            if f is not None and f.epoch == epoch:
                due.append(f)
        due.sort(key=lambda f: f.fid)
        return due

    def _retire(self, due: list[Flow]) -> None:
        """Remove finished flows and fire their completion callbacks, as
        normal-priority events *now*, so flows they start join this
        instant's next recompute."""
        obs = self.engine.obs
        for f in due:
            self._unlink(f)
            if obs is not None and "obs_t0" in f.meta:
                self._emit_flow_spans(obs, f)
            self.engine.schedule(0.0, f.on_complete)

    def _apply_rates(self, flows: list[Flow], rates: list[float]) -> list[Flow]:
        """Commit newly solved rates; returns the flows whose rate moved.

        A flow drains (remaining -= rate * dt) only here, and only when
        its rate *differs*, so a global re-solve commits exactly the
        flows a component re-solve commits, with identical operands.
        """
        now = self.engine.now
        cheap = self._cheap
        below = self._below
        moved = [(f, r) for f, r in zip(flows, rates) if r != f.rate]
        for f, r in moved:
            cap = f.rate_cap
            if (r < cap) != (f.rate < cap):  # crossed its cap
                step = 1 if r < cap else -1
                for rid in f.res_unique:
                    below[rid] += step
            rem = f.remaining - f.rate * (now - f.drained_at)
            f.remaining = rem if rem > 0.0 else 0.0
            f.drained_at = now
            f.rate = r
            f.epoch += 1
            if r > 0.0:
                f.t_done = now + f.remaining / r
                heapq.heappush(cheap, [f.t_done, f.fid, f.epoch])
            else:
                f.t_done = _INF
        return [f for f, _r in moved]

    def _sample_utilization(self, obs, touched: Optional[list[int]]) -> None:
        """Emit per-resource utilization counter samples (obs attached).

        ``touched`` (sorted) limits them to resources whose load may have
        moved (others would repeat a value the recorder deduplicates); a
        new recorder gets every resource once.
        """
        if obs is not self._obs_last_recorder:
            self._obs_last_recorder = obs
            touched = None
        cap = self._cap_arr
        util = np.divide(
            self._load, cap, out=np.zeros_like(self._load), where=cap > 0
        )
        rids = range(len(self._capacity)) if touched is None else touched
        for rid in rids:
            obs.counter(
                f"res:{self._names[rid] or rid}", "utilization",
                round(float(util[rid]), 9),
            )

    def _emit_flow_spans(self, obs, f: Flow) -> None:
        """One completed span per distinct resource the flow crossed."""
        t0 = f.meta["obs_t0"]
        label = f.meta["obs_label"] or f"flow{f.fid}"
        nbytes = f.meta["obs_nbytes"]
        sid = -1
        for rid in f.res_unique:
            sid = obs.complete(
                f"res:{self._names[rid] or rid}", label,
                t0, self.engine.now, "flow", nbytes=nbytes, fid=f.fid,
            )
        # metrics plane: one observation per flow (not per resource), so
        # size/latency distributions count transfers, not route hops
        obs.flow_done(nbytes, self.engine.now - t0, sid=sid)

    def _progressive_fill(self, flows: list[Flow]) -> list[float]:
        """The solved rate of each of ``flows`` (fid order), memoized.

        A miss runs :meth:`_fill`; a single flow always takes the
        scalar kernel and skips the memo.
        """
        if len(flows) == 1:
            return self._fill_scalar(flows)
        # the same flows (routes, caps, weights) in the same fid order
        # under the same capacity vector reuse a kernel's output verbatim
        caps_id = self._caps_id
        if caps_id < 0:
            caps_id = self._caps_id = _intern(_CAPS_IDS, tuple(self._capacity))
        ids = [f.memo_id for f in flows]
        if -1 in ids:  # some flow's first memoized fill
            for i, f in enumerate(flows):
                if f.memo_id < 0:
                    f.memo_id = _intern(
                        _ITEM_IDS, (tuple(f.res_list), f.rate_cap, f.weight)
                    )
                ids[i] = f.memo_id
        key = (caps_id, *ids)
        cached = _fill_memo_get(key)
        if cached is not None:
            self.fill_cache_hits += 1
            return cached
        rate = self._fill(flows)
        _fill_memo_store(key, rate)
        return rate

    def _fill(self, flows: list[Flow]) -> list[float]:
        """Progressive filling by the kernel that suits the component size."""
        if len(flows) >= _VECTOR_MIN:
            return self._fill_vectorized(flows)
        return self._fill_scalar(flows)

    def _fill_scalar(self, flows: list[Flow]) -> list[float]:
        """Progressive filling with per-flow rate caps, one float at a time.

        Bit-exact mirror of :meth:`_fill_vectorized`: per round, weight
        sums accumulate from 0.0 in (fid, route) order, the order of
        ``np.add.at``; a flow's share is the minimum over its route;
        every flow within ``1e-12`` of the bottleneck is fixed; the fixed
        rates leave the residuals in (fid, route) order again.  Clipping a
        residual at 0.0 after each subtraction instead of once per round
        gives the same 0.0, as rates are non-negative.
        """
        cap = self._capacity
        routes = [f.res_list for f in flows]
        residual: dict[int, float] = {}
        for route in routes:
            for rid in route:
                residual[rid] = cap[rid]
        rate = [0.0] * len(flows)
        active: Sequence[int] = range(len(flows))
        while active:
            wsum: dict[int, float] = {}
            for i in active:
                w = flows[i].weight
                for rid in routes[i]:
                    wsum[rid] = wsum.get(rid, 0.0) + w
            share = {rid: residual[rid] / w for rid, w in wsum.items()}
            allocs = []
            bottleneck = _INF
            for i in active:
                f = flows[i]
                a = _INF
                for rid in routes[i]:
                    s = share[rid]
                    if s < a:
                        a = s
                a *= f.weight
                if f.rate_cap < a:
                    a = f.rate_cap
                allocs.append(a)
                if a < bottleneck:
                    bottleneck = a
            if not bottleneck < _INF:
                # the remaining flows are unconstrained: each gets its cap
                for i in active:
                    rate[i] = flows[i].rate_cap
                break
            limit = bottleneck * (1 + 1e-12)
            rest = []
            for i, a in zip(active, allocs):
                if a <= limit:
                    rate[i] = a
                    for rid in routes[i]:
                        left = residual[rid] + -a
                        residual[rid] = 0.0 if left < 0.0 else left
                else:
                    rest.append(i)
            active = rest
        return rate

    def _fill_vectorized(self, flows: list[Flow]) -> list[float]:
        """Progressive filling over every resource, vectorized with numpy.

        For large components (and the test oracle's global solve);
        ``flows`` must be in fid order.
        """
        nf = len(flows)
        lens = np.fromiter((f.resources.size for f in flows), dtype=np.intp, count=nf)
        caps_flow = np.fromiter((f.rate_cap for f in flows), dtype=np.float64, count=nf)
        weights = np.fromiter((f.weight for f in flows), dtype=np.float64, count=nf)
        if int(lens.sum()) == 0:
            return caps_flow.tolist()
        flat_rids = np.concatenate([f.resources for f in flows if f.resources.size])
        flat_fids = np.repeat(np.arange(nf), lens)

        residual = self._cap_arr.copy()
        nr = residual.size
        rate = np.zeros(nf)
        active = np.ones(nf, dtype=bool)

        # each round fixes at least the bottleneck flow; a round whose
        # active flows cross no resource still fixes them at their caps
        for _ in range(nf):
            act_edge = active[flat_fids]
            rids = flat_rids[act_edge]
            fids = flat_fids[act_edge]
            # Weighted fair share on each resource still carrying active flows.
            wsum = np.zeros(nr)
            np.add.at(wsum, rids, weights[fids])
            used = wsum > 0
            share = np.full(nr, _INF)
            share[used] = residual[used] / wsum[used]
            # Per-unit-weight allocation each active flow could get.
            flow_share = np.full(nf, _INF)
            np.minimum.at(flow_share, fids, share[rids])
            alloc = np.where(active, np.minimum(flow_share * weights, caps_flow), _INF)
            bottleneck = alloc[active].min()
            if not np.isfinite(bottleneck):
                # the remaining flows are unconstrained: each gets its cap
                rate[active] = caps_flow[active]
                break
            # Fix every flow whose allocation equals the bottleneck value.
            newly = active & (alloc <= bottleneck * (1 + 1e-12))
            rate[newly] = alloc[newly]
            # Subtract their usage from the residual capacities.
            edge_fixed = newly[flat_fids]
            np.add.at(residual, flat_rids[edge_fixed], -rate[flat_fids[edge_fixed]])
            np.clip(residual, 0.0, None, out=residual)
            active &= ~newly
            if not active.any():
                break
        return rate.tolist()

    def _schedule_next(self) -> None:
        """(Re)arm the completion callback at the earliest ``t_done``.

        Peeks the lazy heap (discarding orphaned entries) and places the
        instant on the engine heap *exactly* (``schedule_at``), so a
        completion fires at its bit-identical time.
        """
        if not self._flows:
            if self._completion_token is not None:
                self.engine.cancel(self._completion_token)
                self._completion_token = None
            return
        heap = self._cheap
        flows = self._flows
        t_next = _INF
        while heap:
            t, fid, epoch = heap[0]
            f = flows.get(fid)
            if f is not None and f.epoch == epoch:
                t_next = t
                break
            heapq.heappop(heap)
        if not math.isfinite(t_next):
            if self._completion_token is not None:
                self.engine.cancel(self._completion_token)
                self._completion_token = None
            if self._dead_resources:
                return  # stalled on a dead resource until its restore
            raise RuntimeError(
                "fluid solver stall: active flow with zero rate and no "
                "pending capacity change"
            )
        if self._completion_token is not None:
            if self._token_time == t_next:
                return  # the pending token already targets it
            self.engine.cancel(self._completion_token)
        self._completion_token = self.engine.schedule_at(
            t_next, self._on_token, priority=PRIORITY_LATE
        )
        self._token_time = t_next

    def _on_token(self) -> None:
        self._completion_token = None  # spent: _schedule_next must not reuse it
        self._recompute()

    # -- introspection ---------------------------------------------------------

    def kernel_stats(self) -> dict:
        """Solver work counters for benchmarks and obs snapshots."""
        return {
            "recomputes": self.recomputes,
            "kernel_flows_solved": self.kernel_flows_solved,
            "total_flows": self.total_flows,
            "fill_cache_hits": self.fill_cache_hits,
        }

    def sync_accounting(self) -> None:
        """Fold the interval since the last rate event into the integrals.

        Call before reading them mid-run; idempotent, and it leaves every
        flow's drain state untouched.
        """
        self._advance_accounting()

    def busy_time(self, rid: int) -> float:
        """Seconds (up to the last sync) the resource carried any flow;
        unlike :meth:`utilization`, a time integral."""
        self._ensure_arrays()
        return float(self._busy_time[rid])

    def served_bytes(self, rid: int) -> float:
        """Total bytes that crossed the resource (up to the last sync)."""
        self._ensure_arrays()
        return float(self._served_bytes[rid])

    def mean_utilization(self, rid: int, horizon: Optional[float] = None) -> float:
        """Served bytes over ``capacity * horizon`` (default: now).

        Uses the resource's *current* capacity; under mid-run rescales
        this is an approximation, while :meth:`busy_time` stays exact.
        """
        self._ensure_arrays()
        h = self.engine.now if horizon is None else horizon
        cap = self._capacity[rid]
        if h <= 0 or cap <= 0:
            return 0.0
        return float(self._served_bytes[rid]) / (cap * h)

    def utilization(self) -> np.ndarray:
        """Instantaneous fraction of each resource's capacity in use."""
        self._ensure_arrays()
        load = np.zeros(self.num_resources)
        for f in self._flows.values():
            if f.resources.size:
                load[f.resources] += f.rate
        cap = self._cap_arr
        # dead (zero-capacity) resources report zero utilization
        return np.divide(load, cap, out=np.zeros_like(load), where=cap > 0)
