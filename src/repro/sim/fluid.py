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

The solver is event-driven: on every batch of flow arrivals/departures the
rates are recomputed and a single "next completion" callback is
(re)scheduled on the engine.  Same-instant arrivals are batched through a
`PRIORITY_LATE` callback so a collective step that starts P flows triggers
one recomputation, not P.

Two solver modes share one memoized progressive-filling entry point
(:meth:`FluidSolver._progressive_fill`) over two bit-identical kernels:

``"incremental"`` (the default)
    A resource→flow incidence index is maintained; each recompute
    re-solves only the connected component of flows that (transitively)
    share a resource with whatever changed — a flow started/aborted/
    retired, or a capacity rescale.  This is *exact*, not an
    approximation: the max-min allocation of disjoint components is
    independent (progressive filling never moves bandwidth across
    components), so flows outside the component keep their rates — and
    because rates, remaining bytes and completion instants are only
    re-committed when a rate actually *changes*, the floating-point
    history of every flow is bit-identical to the reference mode.
    Completions are tracked in a lazy heap of ``(t_done, fid, epoch)``
    entries instead of an O(n) horizon scan.  Components are small, so
    they are solved by the scalar kernel (``_fill_scalar``).

``"reference"``
    The retained global solver: every recompute re-solves all flows with
    the vectorized numpy kernel (``_fill_vectorized``) and scans all
    completion horizons.  It exists as the verification oracle
    for the differential suite (``tests/sim/test_fluid_differential.py``)
    and as an escape hatch (``REPRO_FLUID_SOLVER=reference``).

Bit-identity between the modes rests on three disciplines:

1. *Committed drains*: a flow's ``remaining`` is drained only when its
   rate changes; observers use the non-committing ``drained_at`` view.
   (The reference mode follows the same discipline, so both modes
   perform the identical sequence of floating-point operations per flow.)
2. *Exact completion instants*: ``t_done = drained_at + remaining/rate``
   is computed once per rate commit and placed on the engine heap
   verbatim via :meth:`Engine.schedule_at`; a flow retires exactly when
   ``t_done <= now`` in both modes.
3. *Order-stable kernels*: flows are solved in fid order, and both
   kernels accumulate each resource's weight sum and residual in
   (fid, route) order, so a component solve sees the same value
   sequence per resource as the global solve restricted to that
   component; the instantaneous load of a resource is likewise always a
   fid-order sum of its flows' rates from 0.0
   (see :meth:`FluidSolver._refresh_load`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
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

#: environment override for the default solver mode (benchmark A/B switch)
_MODE_ENV = "REPRO_FLUID_SOLVER"
_MODES = ("incremental", "reference")

#: process-wide progressive-fill memo (see FluidSolver._progressive_fill):
#: (caps id, flow item id, ...) -> rates, where a caps id names one
#: capacity vector and an item id one flow's (route, rate_cap, weight),
#: both interned (see _intern), so a key is a flat tuple of ints.
#: Bounded by *generational* eviction: entries live in a current
#: generation and one read-mostly previous generation; when the current
#: generation reaches half of _FILL_MEMO_MAX it becomes the previous one
#: (dropping the old previous generation wholesale), and hits on the
#: previous generation promote the entry back into the current one.
#: Hot entries therefore survive eviction indefinitely, while cold ones
#: age out after at most two rotations — unlike the former wholesale
#: clear(), which threw away the entire working set at the cap.
#: REPRO_FLUID_FILL_MEMO=0 disables it (differential tests use this to
#: exercise the kernel itself; benchmarks use it for the pre-memo
#: baseline) — results are bit-identical either way, the memo only ever
#: returns arrays the kernel itself produced for the identical inputs.
_FILL_MEMO: dict = {}
_FILL_MEMO_OLD: dict = {}
_FILL_MEMO_MAX = 200_000
_FILL_MEMO_ENV = "REPRO_FLUID_FILL_MEMO"

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


def _fill_memo_enabled() -> bool:
    return os.environ.get(_FILL_MEMO_ENV, "1") != "0"


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
    # -- solver bookkeeping (see module docstring, "Bit-identity") --------
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

    ``mode`` selects the solver strategy (``"incremental"`` or
    ``"reference"``); when ``None`` it comes from the
    ``REPRO_FLUID_SOLVER`` environment variable, defaulting to
    ``"incremental"``.  Both modes produce bit-identical rates,
    completion times and accounting integrals.
    """

    def __init__(self, engine: Engine, mode: Optional[str] = None):
        if mode is None:
            mode = os.environ.get(_MODE_ENV, "incremental")
        if mode not in _MODES:
            raise ValueError(f"unknown fluid solver mode {mode!r}; want one of {_MODES}")
        self.engine = engine
        self.mode = mode
        self._incremental = mode == "incremental"
        self._capacity: list[float] = []
        self._names: list[str] = []
        self._flows: dict[int, Flow] = {}
        self._next_fid = 0
        self._last_update = 0.0
        self._completion_token = None
        self._token_time = _INF
        self._recompute_pending = False
        self._dead_resources = 0  # resources currently at zero capacity
        # incremental-mode state: resource -> set of incident flow ids,
        # dirty seeds accumulated since the last recompute, and the lazy
        # completion heap of [t_done, fid, epoch] entries.
        self._res_flows: list[set[int]] = []
        self._dirty_fids: set[int] = set()
        self._dirty_rids: set[int] = set()
        self._cheap: list[list] = []
        # statistics
        self.total_flows = 0
        self.recomputes = 0
        #: flows handed to the progressive-filling kernel, summed over
        #: recomputes — the incremental mode's work metric (the reference
        #: mode counts every active flow at every recompute).
        self.kernel_flows_solved = 0
        #: solve-memo bookkeeping: a max-min allocation depends only on
        #: the component's structure (routes, weights, rate caps) and the
        #: current capacities — not on remaining bytes — so identical
        #: configurations (ubiquitous on tuning paths: warm iterations,
        #: per-segment pipeline rounds, repeated measurement runtimes)
        #: reuse the solved rates verbatim.  The memo is process-wide
        #: (keyed by the interned capacity vector), so the many
        #: short-lived solvers an autotuning sweep creates share one warm
        #: cache.
        self.fill_cache_hits = 0
        self._fill_memo_on = _fill_memo_enabled()
        self._caps_id = -1  # interned tuple(self._capacity); -1 = stale
        # route arrays arriving on the trusted fast path are cached,
        # immutable fabric plans — derive (res_list, res_unique, res_uset)
        # once per distinct array object instead of per flow start.  The
        # cached array reference keeps the id() key stable and is checked
        # by identity before reuse.
        self._route_derived: dict[int, tuple] = {}
        # time-integrated accounting, maintained by _advance_accounting():
        # per-resource seconds with nonzero load, and bytes served.  The
        # instantaneous load vector (_load) is refreshed on the resources
        # whose flows or rates changed, at each recompute.
        self._load = np.zeros(0)
        self._busy_time = np.zeros(0)
        self._served_bytes = np.zeros(0)
        self._acct_tmp = np.zeros(0)
        # numpy mirror of _capacity, rebuilt lazily with the accounting
        # arrays (growing per add_resource is O(R^2) at topology build)
        self._cap_arr = np.zeros(0)
        #: False when every resource load is known zero (no active flows)
        #: — lets the per-event accounting integration skip its numpy work
        self._load_any = False
        # utilization counters go to this recorder; a recorder change
        # (attach/detach) forces a full re-emission so partial sampling
        # never hides a rid from a freshly attached observer.
        self._obs_last_recorder = None

    # -- resources -----------------------------------------------------------

    def add_resource(self, capacity: float, name: str = "") -> int:
        """Register a shared resource with ``capacity`` bytes/s; returns id."""
        if not capacity > 0:
            raise ValueError(f"add_resource: capacity must be > 0, got {capacity!r}")
        self._capacity.append(float(capacity))
        self._names.append(name)
        self._res_flows.append(set())
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
            self._dirty_rids.add(rid)
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
        for rid in flow.res_unique:
            self._res_flows[rid].add(fid)
        self._dirty_fids.add(fid)
        obs = self.engine.obs
        if obs is not None:
            flow.meta["obs_t0"] = self.engine.now
            flow.meta["obs_label"] = label
            flow.meta["obs_nbytes"] = float(nbytes)
        self._mark_dirty()
        return fid

    def abort_flow(self, fid: int) -> None:
        """Drop a flow without firing its completion callback."""
        f = self._flows.pop(fid, None)
        if f is None:
            return
        self._advance_accounting()
        for rid in f.res_unique:
            self._res_flows[rid].discard(fid)
            self._dirty_rids.add(rid)
        self._dirty_fids.discard(fid)
        self._mark_dirty()

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

        ``_load`` holds the bytes/s crossing each resource over the
        interval since the last rate event (it was refreshed when rates
        last changed), so busy seconds and served bytes accumulate
        exactly — including across mid-flow capacity rescales, which
        call here *before* touching capacity.  Flow byte drains are kept
        separately, per flow, committed only at rate changes (see the
        module docstring).
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
        now = self.engine.now
        if self._incremental:
            due = self._pop_due(now)
        else:
            due = sorted(
                (f for f in self._flows.values() if f.t_done <= now),
                key=lambda f: f.fid,
            )
        if due:
            self._retire(due)
        if self._incremental:
            touched = self._recompute_incremental()
        else:
            touched = self._recompute_reference()
        obs = self.engine.obs
        if obs is not None:
            self._sample_utilization(obs, touched)
        else:
            self._obs_last_recorder = None
        self._schedule_next()

    def _recompute_reference(self) -> None:
        """Global re-solve: all flows, all resources (the oracle path)."""
        self._dirty_fids.clear()
        self._dirty_rids.clear()
        flows = list(self._flows.values())  # fids are monotonic: dict order == fid order
        if flows:
            rates = self._progressive_fill(flows)
            self._apply_rates(flows, rates, push_heap=False)
            self.kernel_flows_solved += len(flows)
        self._load[:] = 0.0
        for f in self._flows.values():
            if f.resources.size:
                self._load[f.resources] += f.rate
        self._load_any = bool(self._flows)
        return None

    def _recompute_incremental(self) -> Optional[list[int]]:
        """Re-solve only the component(s) touching the dirty seeds."""
        # Fast path: one freshly started flow sharing no resource with
        # any other — its component is itself, so the BFS, the sort and
        # the dict-based load refresh all collapse.  Produces the exact
        # arithmetic of the generic path restricted to one flow
        # (_progressive_fill dispatches singletons to _fill_scalar too).
        dirty_fids = self._dirty_fids
        if len(dirty_fids) == 1 and not self._dirty_rids:
            (fid,) = dirty_fids
            f = self._flows.get(fid)
            if f is not None and all(
                len(self._res_flows[rid]) == 1 for rid in f.res_unique
            ):
                dirty_fids.clear()
                self._apply_rates([f], self._fill_scalar([f]), push_heap=True)
                self.kernel_flows_solved += 1
                load = self._load
                r = f.rate
                for rid in f.res_unique:
                    load[rid] = r
                self._load_any = True
                if self.engine.obs is None:
                    return None
                return sorted(f.res_unique)
        comp_fids, comp_rids = self._affected_component()
        dirty_rids = self._dirty_rids
        self._dirty_fids.clear()
        self._dirty_rids = set()
        if not comp_rids and not comp_fids:
            return None
        flows = [self._flows[fid] for fid in sorted(comp_fids)]
        changed: list[Flow] = []
        if flows:
            rates = self._progressive_fill(flows)
            changed = self._apply_rates(flows, rates, push_heap=True)
            self.kernel_flows_solved += len(flows)
        self._refresh_load(changed, dirty_rids)
        self._load_any = bool(self._flows)
        # the sorted rids feed only the utilization samples
        return None if self.engine.obs is None else sorted(comp_rids)

    def _refresh_load(self, changed: list[Flow], dirty_rids: set[int]) -> None:
        """Re-sum ``_load`` on the resources whose load may have moved.

        Those are the routes of the flows whose rate ``_apply_rates``
        changed, plus the dirty rids (flows retired or aborted there, or
        a capacity rescale).  Every other resource kept the rate of each
        of its flows and at most gained flows still at rate 0.0 (a start
        on a dead resource), whose exact ``+ 0.0`` moves no sum, so its
        load is already the value a rebuild would produce.  Each
        refreshed rid re-sums its incident rates from 0.0 in fid order
        with plain scalar adds (not ``sum``, which compensates on 3.12+):
        the exact IEEE sequence of the reference rebuild's per-flow
        ``load[route] += rate``, where a rid appearing twice in one route
        (a double bus crossing) counts once.  ``dirty_rids`` is consumed.
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
        """Closure of flows transitively sharing a resource with the seeds.

        Seeds are flows started since the last recompute (``_dirty_fids``)
        plus resources whose capacity changed or whose flows retired or
        aborted (``_dirty_rids``).  The returned rid set additionally
        contains flowless dirty rids (so their load/obs samples refresh).
        """
        flows = self._flows
        res_flows = self._res_flows
        # frontier expansion via C-level set unions: per level, gather
        # the frontier flows' resources (shared per-route frozensets),
        # then the flows incident to the newly seen resources.  Visits
        # the exact membership the scalar per-edge walk visited, ~3x
        # cheaper on the big components of paper-scale runs.
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
                frontier |= res_flows[rid]
            frontier -= seen_f
        return seen_f, seen_r

    def _pop_due(self, now: float) -> list[Flow]:
        """Pop every flow whose completion instant has arrived (fid order).

        Heap entries are lazily invalidated: an entry is live only if its
        fid is still active *and* its epoch matches the flow's (each rate
        commit bumps the epoch, orphaning older entries).
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
        """Remove finished flows and fire their completion callbacks.

        Callbacks run as normal-priority events *now* so any flows they
        start are folded into the same recompute batch (same-instant
        completions were already batched by the caller's due scan).
        """
        obs = self.engine.obs
        for f in due:
            del self._flows[f.fid]
            for rid in f.res_unique:
                self._res_flows[rid].discard(f.fid)
                self._dirty_rids.add(rid)
            if obs is not None and "obs_t0" in f.meta:
                self._emit_flow_spans(obs, f)
            self.engine.schedule(0.0, f.on_complete)

    def _apply_rates(
        self, flows: list[Flow], rates: list[float], push_heap: bool
    ) -> list[Flow]:
        """Commit newly solved rates; untouched rates commit nothing.

        Returns the flows whose rate changed, in ``flows`` order.

        The commit discipline is the heart of cross-mode bit-identity: a
        flow drains (remaining -= rate * dt) only here, and only when the
        solved rate *differs* from the current one.  Since disjoint
        components solve to identical values, a reference-mode global
        re-solve commits exactly the flows an incremental component
        re-solve commits, with identical operands.
        """
        now = self.engine.now
        cheap = self._cheap
        changed = []
        for f, r in zip(flows, rates):
            if r == f.rate:
                continue
            changed.append(f)
            rem = f.remaining - f.rate * (now - f.drained_at)
            f.remaining = rem if rem > 0.0 else 0.0
            f.drained_at = now
            f.rate = r
            f.epoch += 1
            if r > 0.0:
                f.t_done = now + f.remaining / r
                if push_heap:
                    heapq.heappush(cheap, [f.t_done, f.fid, f.epoch])
            else:
                f.t_done = _INF
        return changed

    def _sample_utilization(self, obs, touched: Optional[list[int]]) -> None:
        """Emit per-resource utilization counter samples (obs attached).

        ``touched`` (sorted) limits emission to the resources the
        recompute touched; unchanged resources would emit the identical
        value and be deduplicated by the recorder anyway.  A recorder
        change forces a full emission so fresh observers see every
        resource once.
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

        A miss runs the mode's kernel: the scalar one for the
        incremental mode's components, the vectorized one for the
        reference mode's global solve.  A single flow always takes the
        scalar kernel and skips the memo.
        """
        if len(flows) == 1:
            return self._fill_scalar(flows)
        # Solve memo: rates depend only on routes, weights, rate caps and
        # capacities (never on remaining bytes), so an identical
        # configuration — same flows in the same fid order under the same
        # capacity vector — reuses the previously solved list verbatim
        # (bit-identical by construction: it *is* a kernel's output, and
        # the two kernels agree bit for bit).  Resources outside the
        # flows' union carry no edges and cannot influence the solution,
        # so the capacity vector, not the component's rids, keys it.
        key = None
        if self._fill_memo_on:
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
        if self._incremental:
            rate = self._fill_scalar(flows)
        else:
            rate = self._fill_vectorized(flows)
        if key is not None:
            _fill_memo_store(key, rate)
        return rate

    def _fill_scalar(self, flows: list[Flow]) -> list[float]:
        """Progressive filling with per-flow rate caps, one float at a time.

        Bit-exact mirror of :meth:`_fill_vectorized`.  Per round, each
        resource's weight sum adds its active flows' weights from 0.0 in
        (fid, route) order, the order of ``np.add.at``; a flow's share
        is the minimum over its route, which no order changes; every
        flow within ``1e-12`` of the bottleneck is fixed; and the fixed
        rates leave the residuals in (fid, route) order again.  A
        residual is clipped at 0.0 after each subtraction rather than
        once per round: rates are non-negative, so a residual that dips
        below zero stays below and both clip it to the same 0.0.  The
        incremental mode's components are small (about 40 flows over 15
        resources on a tuning sweep's fresh solves), where numpy's
        per-call cost outweighs these loops.
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

        The reference mode's kernel (the oracle the differential suite
        holds :meth:`_fill_scalar` to); ``flows`` must be in fid order.
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

        The incremental mode peeks the lazy heap (discarding orphaned
        entries); the reference mode scans every flow.  Both modes place
        the instant on the engine heap *exactly* (``schedule_at``), so a
        completion fires at the bit-identical time in either mode.
        """
        if not self._flows:
            if self._completion_token is not None:
                self.engine.cancel(self._completion_token)
                self._completion_token = None
            return
        if self._incremental:
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
        else:
            t_next = min(f.t_done for f in self._flows.values())
        if not math.isfinite(t_next):
            if self._completion_token is not None:
                self.engine.cancel(self._completion_token)
                self._completion_token = None
            if self._dead_resources:
                # Flows stalled on a zero-capacity (dead) resource are
                # legitimate: a later set_capacity() restore re-triggers
                # the recompute and they resume where they left off.
                return
            raise RuntimeError(
                "fluid solver stall: active flow with zero rate and no "
                "pending capacity change"
            )
        if self._completion_token is not None:
            if self._token_time == t_next:
                # the earliest completion is unchanged; the pending token
                # already targets it — skip the cancel/reschedule churn
                return
            self.engine.cancel(self._completion_token)
        self._completion_token = self.engine.schedule_at(
            t_next, self._on_token, priority=PRIORITY_LATE
        )
        self._token_time = t_next

    def _on_token(self) -> None:
        # the token just fired off the engine heap; forget it *before*
        # recomputing so _schedule_next never "reuses" a consumed token
        self._completion_token = None
        self._recompute()

    # -- introspection ---------------------------------------------------------

    def kernel_stats(self) -> dict:
        """Solver work counters for benchmarks and obs snapshots."""
        return {
            "mode": self.mode,
            "recomputes": self.recomputes,
            "kernel_flows_solved": self.kernel_flows_solved,
            "total_flows": self.total_flows,
            "fill_cache_hits": self.fill_cache_hits,
        }

    def sync_accounting(self) -> None:
        """Fold the interval since the last rate event into the integrals.

        The busy-time integrals advance lazily (at rate-change events);
        call this before reading them mid-run.  Idempotent, and does not
        perturb the simulation: flow drain state is untouched (remaining
        bytes are committed per flow, at rate changes only).
        """
        self._advance_accounting()

    def busy_time(self, rid: int) -> float:
        """Seconds (up to the last sync) the resource carried any flow.

        This is the *time-integrated* busy measure the observability
        timeline uses — unlike :meth:`utilization`, which reports only
        the instantaneous rates at the moment of the call.
        """
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
