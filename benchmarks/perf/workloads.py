"""The four workloads of the perf benchmark.

Each class builds its inputs in ``__init__`` (part of set-up), warms the
code paths once in :meth:`warm_up`, and then runs any number of
identical, closed-loop, single-thread repetitions.  A repetition returns
a :class:`Rep`: its host wall time, the samples of its two phases, the
outcome of its output checks, and the simulated numbers and counters the
program itself reports.

``repro`` is imported inside the constructors, never at module import,
so importing this module is free and set-up time includes the imports.
Classes of the program are reached through their modules at call time
(``self.fleet.fleet_report``), so the tracer's ``setattr`` wrappers are
seen.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import gen

__all__ = ["WORKLOADS", "Checks", "Rep"]

KiB, MiB = 1024, 1024 * 1024
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())


class Checks:
    """Attempted and failed output checks of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


@dataclasses.dataclass
class Rep:
    wall_s: float
    #: seconds per sample of the workload's two phases
    phase_a: list
    phase_b: list
    checks: Checks
    #: simulated numbers (exact; must repeat bit for bit)
    sim: dict = dataclasses.field(default_factory=dict)
    #: the program's own counters (must repeat exactly)
    counts: dict = dataclasses.field(default_factory=dict)
    #: host-time extras the per-layer report uses
    extra: dict = dataclasses.field(default_factory=dict)


def usable_presets() -> tuple[list[str], int]:
    """Preset names whose hardware band can be formed, and how many
    cannot (``gpu_pod`` today: see README, "the gpu_pod band() finding")."""
    from repro.hardware import MACHINE_PRESETS

    usable, skipped = [], 0
    for name in sorted(MACHINE_PRESETS):
        try:
            MACHINE_PRESETS[name]().band()
        except ValueError:
            skipped += 1
        else:
            usable.append(name)
    return usable, skipped


class Scale4096:
    """One huge simulation: per-event Python dominates."""

    name = "scale4096"
    modules = ("repro.experiments.scaling4096",)
    seed_independent = True
    phases = ("bcast", "allreduce")

    def __init__(self, seed: int, quick: bool, scratch: Path):
        from repro.experiments import scaling4096
        from repro.sim import fluid

        self.driver = scaling4096
        self.fluid = fluid
        self.scale = "quick" if quick else "paper"
        self.pinned = None if quick else PINNED["scale4096"]
        self.first = None

    def _run(self, scale: str) -> tuple[dict, list, float]:
        # every CLI invocation starts with a cold fill memo
        self.fluid.clear_fill_memo()
        inner = self.driver.measure_collective
        walls = []

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                walls.append(time.perf_counter() - t0)

        self.driver.measure_collective = timed
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = self.driver.run(scale=scale, save=False)
        finally:
            self.driver.measure_collective = inner
        return out, walls, time.perf_counter() - t0

    def warm_up(self) -> None:
        self._run("quick")

    def repetition(self) -> Rep:
        out, walls, wall = self._run(self.scale)
        checks = Checks()
        if self.first is None:
            self.first = out
        for coll in self.driver.COLLS:
            t, ev = out["times"][coll], out["events"][coll]
            checks.check(math.isfinite(t) and t > 0, f"{coll}: time {t!r}")
            checks.check(
                (t, ev) == (self.first["times"][coll],
                            self.first["events"][coll]),
                f"{coll}: ({t!r}, {ev}) differs from repetition 1")
            if self.pinned is not None:
                checks.check(t == self.pinned["times"][coll],
                             f"{coll}: {t!r} != pinned "
                             f"{self.pinned['times'][coll]!r}")
        return Rep(
            wall_s=wall, phase_a=[walls[0]], phase_b=[walls[1]],
            checks=checks,
            sim={"bcast_sim_s": out["times"]["bcast"],
                 "allreduce_sim_s": out["times"]["allreduce"]},
            counts={"events": sum(out["events"].values()),
                    "fill_memo_entries": sum(self.fluid.fill_memo_sizes())},
        )


class TuneSweep:
    """Many small simulations plus the tuner and its on-disk cache."""

    name = "tune_sweep"
    modules = ("repro.hardware", "repro.tuning")
    seed_independent = True
    phases = ("cold sweep", "cache replay")
    #: replays per repetition; one replay is a few ms, so the phase
    #: sample is taken five times
    REPLAYS = 5

    def __init__(self, seed: int, quick: bool, scratch: Path):
        from repro.hardware import shaheen2
        from repro.sim import fluid
        from repro.sim.engine import Engine
        from repro.tuning import autotuner, cache, space

        self.fluid, self.engine = fluid, Engine
        self.autotuner, self.cache = autotuner, cache
        self.scratch = scratch
        self.warm_machine = shaheen2(num_nodes=4, ppn=4)
        self.warm_space = space.SearchSpace(
            seg_sizes=(512 * KiB,), messages=(64.0 * KiB, 1.0 * MiB),
            adapt_algorithms=("chain",), inner_segs=(None,))
        if quick:
            self.machine, self.space = self.warm_machine, self.warm_space
        else:
            # the fig08 medium geometry with a two-segment, two-algorithm space
            self.machine = shaheen2(num_nodes=16, ppn=12)
            self.space = space.SearchSpace(
                seg_sizes=(512 * KiB, 1 * MiB),
                messages=tuple(2.0 ** k for k in range(14, 25, 2)),
                adapt_algorithms=("chain", "binomial"))
        self.pinned = None if quick else PINNED["tune_sweep"]
        self.first = None

    def _sweep(self, machine, space, cache, method="task"):
        tuner = self.autotuner.Autotuner(
            machine, space=space, warm_iters=6, workers=0, cache=cache)
        return tuner.tune(("bcast",), method)

    @staticmethod
    def _winners(report) -> list:
        return [[coll, n, p, m, list(cfg.key()), t]
                for coll, n, p, m, cfg, t in report.winners()]

    def warm_up(self) -> None:
        self._sweep(self.warm_machine, self.warm_space, None)

    def ground_truth(self) -> float:
        """``tuned_regret``: geomean over messages of the last
        repetition's task winner, as timed by an exhaustive sweep, over
        the exhaustive best (the quantity of the paper's Fig 9)."""
        exh = self._sweep(self.machine, self.space, None, "exhaustive")
        n, p = self.machine.num_nodes, self.machine.ppn
        log_sum = 0.0
        for m in self.space.messages:
            cands = exh.candidates[("bcast", m)]
            picked = self.last_report.table.get("bcast", n, p, m)
            t = next(t for cfg, t in cands if cfg == picked)
            log_sum += math.log(t / min(t for _cfg, t in cands))
        return math.exp(log_sum / len(self.space.messages))

    def repetition(self) -> Rep:
        self.fluid.clear_fill_memo()
        root = tempfile.mkdtemp(dir=self.scratch, prefix="mcache-")
        events0 = self.engine.events_total
        try:
            t0 = time.perf_counter()
            cold_cache = self.cache.MeasurementCache(root)
            cold = self._sweep(self.machine, self.space, cold_cache)
            t1 = time.perf_counter()
            replays, replay_s = [], []
            for _ in range(self.REPLAYS):
                t = time.perf_counter()
                warm_cache = self.cache.MeasurementCache(root)
                replays.append(
                    (self._sweep(self.machine, self.space, warm_cache),
                     warm_cache.stats()))
                replay_s.append(time.perf_counter() - t)
            wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.last_report = cold
        checks = Checks()
        winners = self._winners(cold)
        if self.first is None:
            self.first = (winners, cold.tuning_cost)
        checks.check((winners, cold.tuning_cost) == self.first,
                     "winners or tuning cost differ from repetition 1")
        if self.pinned is not None:
            checks.check(cold.tuning_cost == self.pinned["tuning_cost"],
                         f"tuning cost {cold.tuning_cost!r} != pinned")
            checks.check(winners == self.pinned["winners"],
                         "winners differ from pinned")
        for replay, stats in replays:
            checks.check(
                replay.tuning_cost == cold.tuning_cost
                and replay.candidates == cold.candidates
                and replay.table.entries == cold.table.entries,
                "replay is not bit-identical to the cold sweep")
            checks.check(stats["misses"] == 0,
                         f"replay missed the cache {stats['misses']} times")
        cstats = cold_cache.stats()
        return Rep(
            wall_s=wall, phase_a=[t1 - t0], phase_b=replay_s, checks=checks,
            sim={"sim_tuning_cost_s": cold.tuning_cost,
                 "winner_times": [w[-1] for w in winners]},
            counts={"events": self.engine.events_total - events0,
                    "searches": cold.searches,
                    "cache_puts": cstats["stores"],
                    "cache_misses": cstats["misses"],
                    "cache_hits": sum(s["hits"] for _r, s in replays),
                    "fill_memo_entries": sum(self.fluid.fill_memo_sizes())},
        )


class ServeMixed:
    """No simulation: reads and writes of the decision store side by side."""

    name = "serve_mixed"
    modules = ("repro.hardware", "repro.serve")
    seed_independent = False
    phases = ("read batch", "churn round")

    def __init__(self, seed: int, quick: bool, scratch: Path):
        from repro.core.config import HanConfig
        from repro.hardware import MACHINE_PRESETS
        from repro.hardware.spec import NicSpec
        from repro.serve import service, store

        self.service, self.store = service, store
        self.scratch = scratch
        self.size = gen.SERVE_QUICK if quick else gen.SERVE_FULL
        presets, self.presets_skipped = usable_presets()
        inputs = gen.serve_inputs(seed, presets, self.size)
        self.inputs = inputs
        machines = []
        for preset, variant in inputs["bands"]:
            m = MACHINE_PRESETS[preset]()
            # one hardware band per variant: same node, faster NIC
            machines.append(dataclasses.replace(m, nic=NicSpec(
                bw=m.nic.bw * (1 + 0.25 * variant), latency=m.nic.latency)))
        self.machines = machines
        self.configs = [HanConfig(**doc) for doc in gen.CONFIG_POOL]

        # the compacted on-disk store every repetition starts from
        self.template = scratch / "decisions-template"
        t0 = time.perf_counter()
        tmpl = store.DecisionStore(self.template)
        for rec in inputs["records"]:
            self._put(tmpl, rec, rec[7])
        t1 = time.perf_counter()
        tmpl.compact()
        self.setup_times = {"append_s": t1 - t0,
                            "compact_s": time.perf_counter() - t1}

        # queries and, per query, what a correct answer looks like
        bands = [store.band_digest(m) for m in machines]
        planted = {(b, coll, n, p, nbytes): (self.configs[c], t)
                   for b, coll, n, p, nbytes, c, t, _w in inputs["records"]}
        sizes = sorted({rec[4] for rec in inputs["records"]})
        self.pool, self.expect = [], []
        for kind, b, coll, n, p, nbytes in inputs["queries"]:
            band = bands[b] if b >= 0 else inputs["unknown_bands"][-1 - b]
            self.pool.append(service.Query(coll, nbytes, commsize=n * p,
                                           band=band))
            lo = hi = config = None
            if kind == "exact":
                config = planted[(b, coll, n, p, nbytes)][0]
            elif kind == "interpolated":
                below = max(s for s in sizes if s < nbytes)
                above = min(s for s in sizes if s > nbytes)
                lo = planted[(b, coll, n, p, below)][1]
                hi = planted[(b, coll, n, p, above)][1]
            self.expect.append((kind, config, lo, hi))

    def _put(self, store, rec, wall_time: float) -> None:
        b, coll, n, p, nbytes, c, t, _w = rec
        store.put_decision(self.machines[b], coll, nbytes, self.configs[c],
                           expected_time=t, source="perfbench", n=n, p=p,
                           wall_time=wall_time)

    def _batch(self, index: int, width: int) -> tuple[list, list]:
        start = (index * width) % len(self.pool)
        return (self.pool[start:start + width],
                self.expect[start:start + width])

    @staticmethod
    def _check(checks: Checks, decisions, expects) -> None:
        checks.attempted += len(expects)
        if len(decisions) != len(expects):
            checks.fail(f"{len(decisions)} answers to {len(expects)} queries")
            return
        for d, (kind, config, lo, hi) in zip(decisions, expects):
            if d.refused or d.provenance != kind:
                checks.fail(f"{kind} query answered {d.provenance}"
                            f"{' (refused)' if d.refused else ''}")
            elif kind == "exact" and d.config != config:
                checks.fail(f"exact hit served {d.config}, planted {config}")
            elif kind == "interpolated" and not lo <= d.expected_time <= hi:
                checks.fail(f"interpolated time {d.expected_time!r} "
                            f"outside [{lo!r}, {hi!r}]")

    def _cycle(self, read_batches: int, churn_rounds: int) -> Rep:
        size = self.size
        root = Path(tempfile.mkdtemp(dir=self.scratch, prefix="decisions-"))
        checks = Checks()
        try:
            shutil.copytree(self.template, root / "store")
            t0 = time.perf_counter()
            store = self.store.DecisionStore(root / "store")
            svc = self.service.DecisionService(store)
            open_s = time.perf_counter() - t0
            reads = []
            for i in range(read_batches):
                batch, expects = self._batch(i, size["read_batch"])
                t = time.perf_counter()
                out = svc.decide_batch(batch)
                reads.append(time.perf_counter() - t)
                self._check(checks, out, expects)
            churns = []
            for j, index in enumerate(self.inputs["churn"][:churn_rounds]):
                batch, expects = self._batch(read_batches + j,
                                             size["churn_batch"])
                t = time.perf_counter()
                self._put(store, self.inputs["records"][index], 2e9 + j)
                out = svc.decide_batch(batch)
                churns.append(time.perf_counter() - t)
                self._check(checks, out, expects)
            stats, store_stats = svc.stats(), store.stats()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        decisions = stats["decisions"]
        return Rep(
            # the oracle checks between batches are not part of the wall
            wall_s=open_s + sum(reads) + sum(churns),
            phase_a=reads, phase_b=churns, checks=checks,
            counts={"queries": stats["queries"],
                    "exact": decisions.get("exact", 0),
                    "nearest": decisions.get("nearest", 0),
                    "interpolated": decisions.get("interpolated", 0),
                    "default": decisions.get("default", 0),
                    "violations": stats["violations"],
                    "store_records": store_stats["records"],
                    "presets_skipped": self.presets_skipped},
            extra={"open_s": open_s, "cold_batch_s": reads[0]},
        )

    def warm_up(self) -> None:
        self._cycle(2, 1)

    def repetition(self) -> Rep:
        return self._cycle(self.size["read_batches"],
                           self.size["churn_rounds"])


class StoreCycle:
    """Write-first use of the run store: ingest, compact, report, read."""

    name = "store_cycle"
    modules = ("repro.hardware", "repro.obs.fleet", "repro.obs.insights",
               "repro.obs.store")
    seed_independent = False
    #: one ingest sample = ``follow_every`` appends + one streaming follow
    phases = ("ingest chunk", "compact+read")

    def __init__(self, seed: int, quick: bool, scratch: Path):
        from repro.core.config import HanConfig
        from repro.hardware import MACHINE_PRESETS
        from repro.obs import fleet, insights, store

        self.fleet, self.insights, self.store = fleet, insights, store
        self.scratch = scratch
        self.size = gen.STORE_QUICK if quick else gen.STORE_FULL
        presets, _skipped = usable_presets()
        inputs = gen.store_inputs(seed, presets, self.size)
        machines = {name: MACHINE_PRESETS[name]() for name in presets}
        configs = [HanConfig(**doc)
                   for doc in gen.CONFIG_POOL[:self.size["configs"]]]
        protos = [
            store.summarize_point(machines[preset], coll, nbytes, 0.0,
                                  config=configs[c], source="perfbench")
            for preset, coll, nbytes, c in inputs["points"]
        ]
        self.docs = [dict(protos[i], time=t, wall_time=w)
                     for i, t, w in inputs["runs"]]
        #: key -> wall_times of its runs, oldest first
        self.history: dict[str, list] = {}
        for doc in self.docs:
            self.history.setdefault(doc["key"], []).append(doc["wall_time"])
        for walls in self.history.values():
            walls.sort()
        bad = machines[inputs["violation"][0]]
        self.expected = {("regression", protos[i]["key"])
                         for i in inputs["regressions"]}
        self.expected.add(
            ("guideline", f"{bad.name} {bad.num_nodes}x{bad.ppn}"))

    @staticmethod
    def _identity(finding: dict) -> tuple:
        data = finding["data"]
        if finding["kind"] == "regression":
            return ("regression", data.get("key"))
        if finding["name"].startswith("allreduce<="):
            return ("guideline", data.get("machine"))
        return (finding["kind"], finding["name"])

    def _cycle(self, docs: list, verify: bool) -> Rep:
        root = Path(tempfile.mkdtemp(dir=self.scratch, prefix="runs-"))
        every = self.size["follow_every"]
        checks = Checks()
        try:
            t0 = time.perf_counter()
            store = self.store.RunStore(root)
            engine = self.insights.InsightEngine()
            cursor = None
            chunks, chunk_start = [], time.perf_counter()
            for i, doc in enumerate(docs, 1):
                store.append(doc)
                if i % every == 0:
                    cursor = engine.follow(store, cursor)
                    now = time.perf_counter()
                    chunks.append(now - chunk_start)
                    chunk_start = now
            engine.follow(store, cursor)
            t1 = time.perf_counter()
            store.compact()
            reopened = self.store.RunStore(root)
            report = self.fleet.fleet_report([reopened])
            latest = {key: reopened.latest(key) for key in reopened.keys()}
            t2 = time.perf_counter()
            segment_bytes = sum(f.stat().st_size
                                for f in root.glob("*/seg-*.jsonl"))
            if verify:
                self._verify(checks, reopened, latest, report, engine)
            estats = engine.stats()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return Rep(
            wall_s=t2 - t0, phase_a=chunks, phase_b=[t2 - t1],
            checks=checks,
            counts={"appends": store.appends,
                    "insight_records": estats["records"],
                    "duplicates": estats["duplicates"],
                    "findings": len(report["findings"]),
                    "segment_bytes": segment_bytes},
        )

    def _verify(self, checks, reopened, latest, report, engine) -> None:
        seen = 0
        for key, runs in reopened.groups():
            want = self.history.get(key, [])
            got = [r["wall_time"] for r in runs]
            seen += len(want)
            checks.attempted += len(want)
            if got != want:
                checks.fail(f"group {key[:12]}: {len(got)} runs read, "
                            f"{len(want)} appended")
        checks.check(seen == len(self.docs),
                     f"{seen} of {len(self.docs)} appended records readable")
        for key, walls in self.history.items():
            doc = latest.get(key)
            checks.check(doc is not None and doc["wall_time"] == walls[-1],
                         f"latest({key[:12]}) is not the newest run")
        found = collections.Counter(
            self._identity(f) for f in report["findings"])
        for e in sorted(self.expected):
            checks.check(found.pop(e, 0) == 1,
                         f"planted finding not reported exactly once: {e}")
        for f in sorted(found, key=str):
            checks.check(False, f"spurious finding: {f}")
        streamed = self.fleet.fleet_report([], engine=engine)
        checks.check(streamed["findings"] == report["findings"],
                     "streaming findings differ from the batch report")

    def warm_up(self) -> None:
        self._cycle(self.docs[:4 * self.size["follow_every"]], verify=False)

    def repetition(self) -> Rep:
        return self._cycle(self.docs, verify=True)


WORKLOADS = {cls.name: cls
             for cls in (Scale4096, TuneSweep, ServeMixed, StoreCycle)}
