"""The benchmark's four workloads, their inputs and their output checks.

Each workload drives one real entry point of the program:

* ``campaign_cold`` — a standalone campaign on a fresh render (what a
  fresh ``repro campaign`` process does);
* ``serve_tenants`` — tenant campaigns through an in-process
  ``CampaignServer`` with two closed-loop lanes;
* ``monitor_epochs`` — ``MonitorLoop`` chains under churn and faults,
  checkpointing into a warehouse, folded into a timeline;
* ``replay_analysis`` — campaigns re-run from a recorded probe log
  through ``ReplayBackend``.

Inputs are a pure function of ``--seed``: the seed shuffles a fixed
universe of topology seeds, and every op's topology is read off that
order.  Each run therefore samples many topologies, so a run's median
does not hinge on one topology's size (campaign cost differs by about
±15% between topologies), while ops on one topology do identical work.

Every op's output is checked against ``expected.json``: digests of the
reference walk (``attach(trajectory_cache=False)``, the engine's
walk-per-probe path) for every topology of the universe, made by
``oracle.py``.  A timed op never runs the oracle; an op that raises,
stops partial or mismatches counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.campaign.postprocess import Aggregator
from repro.core.frpla import FrplaAnalyzer
from repro.measure import RecordingBackend, ReplayBackend, SimBackend
from repro.monitor import MonitorConfig, MonitorLoop
from repro.obs import EventLog, MetricsRegistry, Obs
from repro.probing.prober import Prober
from repro.serve import ServeClient, SnapshotRegistry, TenantSpec
from repro.serve.registry import TopologySpec, render_internet
from repro.store import chain_snapshots, fold_timeline

#: Topology seeds every workload draws from (``oracle.py`` stores the
#: reference digests of each).
UNIVERSE = tuple(range(1, 25))
#: ``campaign_cold`` and ``replay_analysis`` topologies (~1656 routers).
COLD_SCALE = 8.0
#: ``serve_tenants`` and ``monitor_epochs`` topologies (~312 routers).
WARM_SCALE = 1.0
#: Set-up repetitions per run; ``setup_s`` reports their median.  On
#: ``serve_tenants`` and ``replay_analysis`` each unit prepares one
#: topology of the run's pool.
SETUP_UNITS = 5
#: Monitor chain shape.
EPOCHS = 6
CHURN_PROFILE = "steady"
FAULT_PROFILE = "loss-light"
MAX_RETRIES = 2
#: Closed-loop tenant lanes on ``serve_tenants`` (the host has 2 cores).
LANES = 2
#: Tenant of the ``serve_tenants`` set-up units, apart from the lanes so
#: both lanes start the window level.
WARMUP_TENANT = "warmup"
#: Seconds one served campaign may take before it counts as failed.
OP_TIMEOUT = 120.0
EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: CPUs a single-client run takes in turn, one step on each.  On the
#: 2-core reference host each CPU's speed drifts on its own (a fixed
#: loop timed on both in turn: correlation 0.28), so a client left on
#: one CPU reads that CPU's state for the whole run.
CPUS = sorted(os.sched_getaffinity(0))

#: Program counters read as per-op deltas.
COUNTERS = (
    "engine.hops_walked",
    "engine.packets_simulated",
    "engine.trajectory_hits",
    "engine.trajectory_misses",
    "measure.probes",
    "measure.cache.hits",
    "measure.retries",
    "faults.injected",
    "revelation.attempts",
    "campaign.revelations.success",
    "monitor.evidence_probes",
    "monitor.pairs_skipped",
    "monitor.pairs_reprobed",
)


@dataclass
class Op:
    """One timed operation."""

    index: int
    topology: int
    seconds: float
    ok: bool = False
    error: Optional[str] = None
    digest: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)
    #: The op's span context (traced windows only).
    trace: object = None


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """The stored reference digests."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def topology_order(workload: str, seed: int) -> List[int]:
    """The run's topology order: ``UNIVERSE`` shuffled by the seed."""
    order = list(UNIVERSE)
    random.Random(f"perfbench:{workload}:{seed}").shuffle(order)
    return order


def sha(document) -> str:
    """Digest of a JSON-ready document (canonical encoding)."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _alias_resolver(internet) -> Callable[[int], Optional[str]]:
    def alias_of(address: int) -> Optional[str]:
        router = internet.router_of_address(address)
        return None if router is None else router.name

    return alias_of


def frpla_analyzer(result, internet, campaign: Optional[Campaign] = None):
    """The FRPLA analyzer a campaign's report reads, classified by the
    per-AS ``Aggregator`` (``CampaignContext`` builds the same pair)."""
    aggregator = Aggregator(
        result, internet.asn_of_address, alias_of=_alias_resolver(internet)
    )
    if campaign is not None:
        return campaign.frpla(result, classify=aggregator.role_of)
    frpla = FrplaAnalyzer(
        internet.asn_of_address, aggregator.role_of,
        obs=Obs(MetricsRegistry(), EventLog()),
    )
    frpla.add_traces(result.traces)
    return frpla


def campaign_digest(result, frpla) -> str:
    """Digest of a campaign's semantic result: the tunnel inventory
    per (ingress, egress) with revealed hops, the FRPLA shift per
    (AS, role), every RTLA return-tunnel estimate (the per-AS
    verdicts are medians of these), the data-quality grade and the
    probe totals."""
    return sha({
        "tunnels": [
            [ingress, egress, list(revelation.revealed),
             revelation.method.value, revelation.technique]
            for (ingress, egress), revelation in sorted(
                result.revelations.items()
            )
            if revelation.success
        ],
        "frpla": [
            [asn, role, frpla.shift(asn, role)]
            for asn in frpla.asns() for role in frpla.roles(asn)
        ],
        "rtla": [
            [estimate.address, estimate.te_return_length,
             estimate.er_return_length, estimate.tunnel_length]
            for estimate in result.rtla.estimates()
        ],
        "volumes": [
            len(result.traces), len(result.pings), len(result.pairs),
            result.probes_sent, result.revelation_probes,
            len(result.quarantine),
        ],
        "partial": result.partial,
        "data_quality": result.data_quality,
    })


def campaign_config(internet) -> CampaignConfig:
    """The config ``repro campaign`` runs with."""
    return CampaignConfig(suspicious_asns=tuple(internet.transit_asns))


def cold_campaign(topology: int, trajectory_cache: bool = True):
    """One ``repro campaign``: render, attach, run, build the analyzers.

    ``trajectory_cache=False`` is the reference walk the expected
    digests come from.
    """
    spec = TopologySpec(scale=COLD_SCALE, seed=topology)
    if trajectory_cache:
        attached = SnapshotRegistry().attach(spec)
    else:
        attached = render_internet(spec).attach(trajectory_cache=False)
    campaign = Campaign(
        attached.prober, attached.vps, attached.asn_of_address,
        campaign_config(attached),
    )
    result = campaign.run(attached.campaign_targets())
    return attached, result, frpla_analyzer(result, attached, campaign)


def monitor_config(warehouse: str, topology: int,
                   epochs: int = EPOCHS) -> MonitorConfig:
    """The monitoring chain of one topology."""
    return MonitorConfig(
        warehouse=warehouse,
        epochs=epochs,
        scale=WARM_SCALE,
        seed=topology,
        churn_profile=CHURN_PROFILE,
        fault_profile=FAULT_PROFILE,
        max_retries=MAX_RETRIES,
    )


def timeline_digest(warehouse: str, chain: str) -> str:
    """Digest of a chain's folded ``repro.monitor/1`` timeline."""
    return sha(fold_timeline(chain_snapshots(warehouse, chain=chain)[chain]))


def counter_deltas(metrics, base: Optional[Dict[str, int]] = None):
    """``COUNTERS`` of a registry, minus ``base``."""
    base = base or {}
    return {
        name: metrics.get(name) - base.get(name, 0) for name in COUNTERS
    }


def take_cpu(step: int) -> None:
    """Pin the calling thread to step ``step``'s CPU of ``CPUS``."""
    os.sched_setaffinity(0, {CPUS[step % len(CPUS)]})


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ---------------------------------------------------------------------------


class Workload:
    """Base: set-up units, a closed-loop window of ops, output checks."""

    name = ""
    #: Expected-digest table the ops are checked against.
    table = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = load_expected()[self.table]
        self.units = SETUP_UNITS
        self.order = topology_order(self.name, seed)
        self.extra_setup_s = 0.0

    def op_topology(self, index: int) -> int:
        """Topology seed of op ``index`` (by default, ops cycle over the
        pool of topologies set-up prepared)."""
        return self.order[index % self.units]

    def setup_topology(self, unit: int) -> int:
        """Topology seed of set-up unit ``unit``."""
        return self.order[unit]

    def plan(self, ops: int) -> Dict[str, List[int]]:
        """The topologies set-up and the first ``ops`` ops use."""
        return {
            "setup": [self.setup_topology(unit) for unit in range(self.units)],
            "ops": [self.op_topology(index) for index in range(ops)],
        }

    def setup(self) -> List[float]:
        """Run every set-up unit; returns their durations."""
        durations = []
        try:
            for unit in range(self.units):
                take_cpu(unit)
                start = time.perf_counter()
                self.setup_unit(unit)
                durations.append(time.perf_counter() - start)
                gc.collect()
        finally:
            os.sched_setaffinity(0, CPUS)
        return durations

    def setup_unit(self, unit: int) -> None:
        raise NotImplementedError

    def window(self, seconds: float, tracer=None):
        """Closed loop: steps until ``seconds`` pass.  Garbage is
        collected between steps, never inside one.

        Returns the ops and the seconds the program worked: the sum of
        the op durations.  One client runs one op at a time and every
        moment of program work lies inside some op, so the output
        checks, counter reads and collections between ops stay out.
        """
        ops: List[Op] = []
        deadline = time.perf_counter() + seconds
        gc.disable()
        try:
            for step in itertools.count():
                if time.perf_counter() >= deadline:
                    break
                take_cpu(step)
                ops.extend(self.step(step, tracer))
                gc.collect()
        finally:
            gc.enable()
            os.sched_setaffinity(0, CPUS)
        return ops, sum(op.seconds for op in ops)

    def step(self, step: int, tracer) -> List[Op]:
        """One closed-loop step's ops."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    @staticmethod
    def timed(op: Op, tracer, work: Callable):
        """Run ``work()`` as ``op`` — timed, and traced as one op when
        a tracer is given.  Returns its value, or None after recording
        the failure on ``op``."""
        ctx = tracer.begin(op.index) if tracer else None
        start = time.perf_counter()
        try:
            return work()
        except Exception as exc:  # a failed op is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            op.seconds = time.perf_counter() - start
            if ctx is not None:
                tracer.finish(ctx)
                op.trace = ctx

    def check_campaign(self, op: Op, result, frpla) -> None:
        """Fill ``op.ok`` from a campaign result."""
        if result.partial:
            op.error = f"partial: {result.stop_reason}"
        else:
            self.check(op, campaign_digest(result, frpla))

    def check(self, op: Op, digest: Optional[str]) -> None:
        """Fill ``op.ok`` from its digest."""
        op.digest = digest
        want = self.expected.get(str(op.topology))
        if want is None:
            op.error = f"no expected digest for topology {op.topology}"
        elif digest != want:
            op.error = (
                f"digest {digest} != expected {want} "
                f"(topology {op.topology})"
            )
        else:
            op.ok = True


class CampaignCold(Workload):
    """A fresh render and a full scale-8 campaign per op."""

    name = "campaign_cold"
    table = "campaign_s8"

    def op_topology(self, index: int) -> int:
        return self.order[index % len(self.order)]

    def setup_topology(self, unit: int) -> int:
        return self.op_topology(-1 - unit)

    def setup_unit(self, unit: int) -> None:
        self.run_op(-1 - unit, None)  # a discarded warm-up op

    def step(self, step: int, tracer) -> List[Op]:
        return [self.run_op(step, tracer)]

    def run_op(self, index: int, tracer) -> Op:
        topology = self.op_topology(index)
        op = Op(index, topology, 0.0)
        done = self.timed(op, tracer, lambda: cold_campaign(topology))
        if done is not None:
            attached, result, frpla = done
            engine = attached.engine
            op.counts = counter_deltas(engine.obs.metrics)
            op.counts["cached_trajectories"] = (
                engine.cache_stats()["cached_trajectories"]
            )
            self.check_campaign(op, result, frpla)
        return op


class ReplayAnalysis(Workload):
    """Campaigns re-run from recorded scale-8 probe logs."""

    name = "replay_analysis"
    table = "campaign_s8"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (internet, probe-log path) per set-up unit.
        self.logs: List[tuple] = []

    def setup_unit(self, unit: int) -> None:
        topology = self.setup_topology(unit)
        internet = render_internet(
            TopologySpec(scale=COLD_SCALE, seed=topology)
        )
        attached = internet.attach()
        path = os.path.join(self.workdir, f"replay-{topology}.jsonl")
        recording = RecordingBackend(SimBackend(attached.engine), path)
        try:
            Campaign(
                Prober(recording), internet.vps, internet.asn_of_address,
                campaign_config(internet),
            ).run(internet.campaign_targets())
        finally:
            recording.close()
            attached.detach()
        self.logs.append((internet, path))
        warm = self.run_op(unit, None)  # a discarded warm-up op
        if not warm.ok:
            raise RuntimeError(f"replay warm-up failed: {warm.error}")

    def step(self, step: int, tracer) -> List[Op]:
        return [self.run_op(step, tracer)]

    def run_op(self, index: int, tracer) -> Op:
        internet, path = self.logs[index % self.units]
        op = Op(index, self.op_topology(index), 0.0)

        def replay():
            prober = Prober(ReplayBackend(path), obs=Obs())
            campaign = Campaign(
                prober, internet.vps, internet.asn_of_address,
                campaign_config(internet),
            )
            result = campaign.run(internet.campaign_targets())
            return prober, result, frpla_analyzer(result, internet, campaign)

        done = self.timed(op, tracer, replay)
        if done is not None:
            prober, result, frpla = done
            op.counts = counter_deltas(prober.obs.metrics)
            op.counts["cached_trajectories"] = 0
            self.check_campaign(op, result, frpla)
        return op


class MonitorEpochs(Workload):
    """Monitoring chains; an op is one epoch.

    Epoch ``k`` runs from the loop's ``stop_before_epoch(k)`` callback
    to the next one.  The first epoch of a chain also covers building
    the chain's internet, and the last one covers folding the
    timeline, so every moment of a chain is inside some op.
    """

    name = "monitor_epochs"
    table = "timeline_s1"

    def op_topology(self, index: int) -> int:
        return self.order[(index // EPOCHS) % len(self.order)]

    def setup_topology(self, unit: int) -> int:
        return self.order[-1 - unit]

    def setup_unit(self, unit: int) -> None:
        # A discarded one-epoch chain: build, campaign, checkpoint, fold.
        warehouse = tempfile.mkdtemp(dir=self.workdir)
        try:
            config = monitor_config(
                warehouse, self.setup_topology(unit), epochs=1
            )
            report = MonitorLoop(config).run()
            timeline_digest(warehouse, report.chain)
        finally:
            shutil.rmtree(warehouse)

    def step(self, chain: int, tracer) -> List[Op]:
        topology = self.op_topology(chain * EPOCHS)
        warehouse = tempfile.mkdtemp(dir=self.workdir)
        ops: List[Op] = []
        state: Dict[str, object] = {}
        loops: List[MonitorLoop] = []

        def open_op(epoch: int) -> None:
            state["op"] = Op(chain * EPOCHS + epoch, topology, 0.0)
            state["base"] = (
                counter_deltas(loops[0].obs.metrics) if loops else {}
            )
            state["bytes"] = _dir_bytes(warehouse)
            state["ctx"] = (
                tracer.begin(chain * EPOCHS + epoch) if tracer else None
            )
            state["start"] = time.perf_counter()

        def close_op() -> None:
            end = time.perf_counter()
            op = state["op"]
            op.seconds = end - state["start"]
            if state["ctx"] is not None:
                tracer.finish(state["ctx"])
                op.trace = state["ctx"]
            if loops:
                op.counts = counter_deltas(
                    loops[0].obs.metrics, state["base"]
                )
                op.counts["cached_trajectories"] = (
                    loops[0].internet.engine.cache_stats()[
                        "cached_trajectories"
                    ]
                )
            op.counts["store_bytes"] = (
                _dir_bytes(warehouse) - state["bytes"]
            )
            ops.append(op)

        def before_epoch(epoch: int) -> bool:
            if epoch > 0:
                close_op()
                gc.collect()
                open_op(epoch)
            return False

        error = None
        open_op(0)
        try:
            loops.append(MonitorLoop(
                monitor_config(warehouse, topology),
                stop_before_epoch=before_epoch,
            ))
            report = loops[0].run()
            if report.partial:
                error = f"partial chain: {report.stop_reason}"
            else:
                timeline = fold_timeline(
                    chain_snapshots(warehouse, chain=report.chain)[
                        report.chain
                    ]
                )
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        close_op()
        if error is None and len(ops) != EPOCHS:
            error = f"chain ran {len(ops)} of {EPOCHS} epochs"
        digest = sha(timeline) if error is None else None
        for op in ops:
            if error is None:
                self.check(op, digest)
            else:
                op.error = error
        shutil.rmtree(warehouse)
        return ops


class ServeTenants(Workload):
    """Two closed-loop tenant lanes against one ``CampaignServer``."""

    name = "serve_tenants"
    table = "campaign_s1"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.registry: Optional[SnapshotRegistry] = None
        self.client: Optional[ServeClient] = None

    def setup(self) -> List[float]:
        start = time.perf_counter()
        self.registry = SnapshotRegistry()
        self.client = ServeClient(registry=self.registry, max_active=LANES)
        self.extra_setup_s = time.perf_counter() - start
        return super().setup()

    def setup_unit(self, unit: int) -> None:
        # Renders the unit's snapshot and warms its shared route memos.
        topology = self.setup_topology(unit)
        result = self.client.submit(
            self._spec(WARMUP_TENANT, topology)
        ).wait(timeout=OP_TIMEOUT)
        op = Op(-1, topology, 0.0)
        self._check_result(op, result)
        if not op.ok:
            raise RuntimeError(f"serve warm-up failed: {op.error}")

    @staticmethod
    def _spec(tenant: str, topology: int) -> TenantSpec:
        return TenantSpec(
            tenant=tenant,
            topology=TopologySpec(scale=WARM_SCALE, seed=topology),
        )

    def _check_result(self, op: Op, result) -> None:
        internet = self.registry.rendered(self._spec("", op.topology).topology)
        self.check_campaign(op, result, frpla_analyzer(result, internet))

    def window(self, seconds: float, tracer=None):
        """Both lanes until ``seconds`` pass.  Returns the ops and the
        wall time until the lanes joined; the output checks run after
        that."""
        ops: List[Op] = []
        finished: List[tuple] = []
        indices = itertools.count()
        contexts: Dict[str, object] = {}
        server = self.client.server
        turns_before = server.obs.metrics.get("serve.batches_dispatched")
        if tracer is not None:
            self._install(tracer, contexts)
        deadline = time.perf_counter() + seconds

        def lane(tenant: str) -> None:
            # One campaign in flight per lane, so the tenant names the op.
            while time.perf_counter() < deadline:
                index = next(indices)
                topology = self.op_topology(index)
                op = Op(index, topology, 0.0)
                start = time.perf_counter()
                try:
                    handle = self.client.submit(
                        self._spec(tenant, topology)
                    )
                    result = handle.wait(timeout=OP_TIMEOUT)
                except Exception as exc:  # counted, not fatal
                    op.seconds = time.perf_counter() - start
                    op.error = f"{type(exc).__name__}: {exc}"
                    ops.append(op)
                    continue
                op.seconds = time.perf_counter() - start
                ctx = contexts.pop(tenant, None)
                if ctx is not None:
                    ctx.op = index
                    tracer.finish(ctx)
                    op.trace = ctx
                op.counts = counter_deltas(handle.session.metrics)
                engine = getattr(ctx, "engine", None)
                op.counts["cached_trajectories"] = (
                    engine.cache_stats()["cached_trajectories"]
                    if engine is not None else 0
                )
                if ctx is not None:
                    ctx.engine = None
                # Checked after the window: a digest computed here
                # would take the interpreter lock from the other lane.
                finished.append((op, result))

        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=lane, args=(f"lane{k}",), name=f"perfbench-lane{k}"
            )
            for k in range(LANES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        lanes = len(server.scheduler.stats())
        if lanes != LANES + 1:
            raise RuntimeError(
                f"scheduler holds {lanes} lanes, not {LANES} and the warm-up's"
            )
        for op, result in finished:
            self._check_result(op, result)
            ops.append(op)
        ops.sort(key=lambda op: op.index)
        turns = (
            server.obs.metrics.get("serve.batches_dispatched")
            - turns_before
        )
        for op in ops:
            op.counts["serve_turns"] = turns / max(1, len(ops))
        return ops, elapsed

    def _install(self, tracer, contexts: Dict[str, object]) -> None:
        """Session-thread op binding for the traced window.

        A session's first call into the program is its registry
        attach, so the attach wrapper opens the op on the session's
        executor thread; the spec's ``campaign_config`` call then
        names the tenant the op belongs to.
        """
        def remember_engine(ctx, attached) -> None:
            ctx.engine = attached.engine

        traced_attach = tracer.wrap(
            self.registry.attach, "serve.attach", "serve",
            on_return=remember_engine,
        )

        def attach(*args, **kwargs):
            tracer.begin()
            return traced_attach(*args, **kwargs)

        tracer.replace(self.registry, "attach", attach)
        original = TenantSpec.campaign_config

        def campaign_config(spec, internet):
            ctx = tracer.current()
            if ctx is not None:
                contexts[spec.tenant] = ctx
            return original(spec, internet)

        tracer.replace(TenantSpec, "campaign_config", campaign_config)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignCold, ServeTenants, MonitorEpochs, ReplayAnalysis)
}
