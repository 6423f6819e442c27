"""Span tracing for the benchmark's traced run.

The benchmark never edits the program: it wraps the public functions
that form each layer's boundary, at the name where their caller looks
them up (a class attribute for methods, a module global for
functions), and removes the wrappers when the traced window ends.

Every wrapped call inside an op records a span — name, start, end,
parent, op — into per-op in-memory buffers, written out once the run
ends.  A layer's *self time* is a span's duration minus the time its
child spans cover; the ``other`` bucket is the op's wall time minus
every layer's self time, so the layer self times of an op sum to its
traced wall time exactly.

Ops bind to the thread that runs them (:meth:`Tracer.begin`); calls
made outside an op (set-up, output checks) pass straight through.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: The program's layers, named after the packages under ``src/repro``.
LAYERS = (
    "synth", "routing", "dataplane", "measure", "faults", "probing",
    "core", "campaign", "serve", "monitor", "store",
)


class OpContext:
    """One op's spans and per-layer totals (written by one thread at a
    time: the thread the op is bound to)."""

    __slots__ = (
        "op", "stack", "selves", "incl", "calls", "engine",
        "sid", "nid", "start", "end", "parent",
    )

    def __init__(self, op: Optional[int] = None) -> None:
        self.op = op
        self.stack: List[list] = []
        #: span name -> self seconds
        self.selves: Dict[str, float] = {}
        #: span name -> inclusive seconds
        self.incl: Dict[str, float] = {}
        #: span name -> calls
        self.calls: Dict[str, int] = {}
        #: The forwarding engine the op probed through, when known.
        self.engine = None
        self.sid = array("q")
        self.nid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")

    @property
    def spans(self) -> int:
        """Spans recorded in this op."""
        return len(self.sid)


class Tracer:
    """Installs layer wrappers and accumulates spans per op."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        #: span name -> layer
        self.layer_of: Dict[str, str] = {}
        #: Finished ops, in completion order.
        self.ops: List[OpContext] = []

    # ------------------------------------------------------------------
    # Op binding

    def begin(self, op: Optional[int] = None) -> OpContext:
        """Open an op on the calling thread."""
        ctx = OpContext(op)
        self._local.ctx = ctx
        return ctx

    def current(self) -> Optional[OpContext]:
        """The op bound to the calling thread, if any."""
        return getattr(self._local, "ctx", None)

    def finish(self, ctx: OpContext) -> None:
        """Close an op: unbind it here and keep its spans."""
        if self.current() is ctx:
            self._local.ctx = None
        self.ops.append(ctx)

    # ------------------------------------------------------------------
    # Wrapping

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, layer: str,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span charged to ``layer``.

        ``on_return(ctx, value)`` runs after the call inside an op (the
        serve workload uses it to learn a session's engine).
        """
        if layer not in LAYERS or self.layer_of.get(name, layer) != layer:
            raise ValueError(f"span {name!r} cannot join layer {layer!r}")
        self.layer_of[name] = layer
        nid = self._name_id(name)
        local = self._local
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            ctx = getattr(local, "ctx", None)
            if ctx is None:
                return fn(*args, **kwargs)
            stack = ctx.stack
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                ctx.selves[name] = (
                    ctx.selves.get(name, 0.0) + duration - frame[1]
                )
                ctx.incl[name] = ctx.incl.get(name, 0.0) + duration
                ctx.calls[name] = ctx.calls.get(name, 0) + 1
                ctx.sid.append(sid)
                ctx.nid.append(nid)
                ctx.start.append(start)
                ctx.end.append(end)
                ctx.parent.append(parent)
            if on_return is not None:
                on_return(ctx, value)
            return value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner: object, attr: str, name: str, layer: str,
              on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`uninstall`).  ``owner`` is a class, a module or an
        instance — wherever the caller looks the name up."""
        self.replace(owner, attr, self.wrap(
            getattr(owner, attr), name, layer, on_return
        ))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output

    def write(self, path: str) -> int:
        """Write every finished op's spans as gzipped CSV; returns the
        span count.  Columns: op, span, parent, name, start_us, end_us
        (whole microseconds since the tracer was created)."""
        origin = self._origin
        names = self._names
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op,span,parent,name,start_us,end_us\n")
            for ctx in self.ops:
                op = -1 if ctx.op is None else ctx.op
                out.write("".join(
                    f"{op},{sid},{parent},{names[nid]},"
                    f"{round((start - origin) * 1e6)},"
                    f"{round((end - origin) * 1e6)}\n"
                    for sid, parent, nid, start, end in zip(
                        ctx.sid, ctx.parent, ctx.nid, ctx.start, ctx.end
                    )
                ))
                count += ctx.spans
        return count


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.campaign import orchestrator
    from repro.campaign.orchestrator import Campaign
    from repro.core.frpla import FrplaAnalyzer
    from repro.core.rtla import RtlaAnalyzer
    from repro.core.signatures import SignatureInventory
    from repro.dataplane.engine import ForwardingEngine
    from repro.faults import FaultyBackend
    from repro.measure import ReplayBackend, SimBackend
    from repro.measure.service import ProbeService
    from repro.monitor import loop as monitor_loop
    from repro.monitor.staleness import StalenessEngine
    from repro.probing.prober import Prober
    from repro.routing.control import ControlPlane
    from repro.serve import registry
    from repro.serve.scheduler import ScheduledBackend
    from repro.store.checkpoint import CampaignCheckpoint
    from repro.synth.churn import ChurnModel

    import workloads

    table = [
        (registry, ("render_internet",), "synth.render", "synth"),
        (monitor_loop, ("build_internet",), "synth.render", "synth"),
        (ChurnModel, ("advance",), "synth.churn", "synth"),
        (ControlPlane, ("resolve", "resolve_prefix", "hot_potato_egress"),
         "routing.resolve", "routing"),
        (ForwardingEngine, ("send_probe", "send_probe_batch"),
         "dataplane.send", "dataplane"),
        (ProbeService, ("traceroute_probe", "ping_probe", "udp_probe",
                        "traceroute_batch", "ping_batch"),
         "measure.service", "measure"),
        (SimBackend, ("submit", "submit_batch"), "measure.backend",
         "measure"),
        (ReplayBackend, ("submit",), "measure.backend", "measure"),
        (ReplayBackend, ("__init__",), "measure.replay_load", "measure"),
        (FaultyBackend, ("submit", "submit_batch"), "faults.inject",
         "faults"),
        (Prober, ("traceroute", "ping", "ping_sweep", "udp_probe"),
         "probing.probe", "probing"),
        (orchestrator, ("reveal_tunnel",), "core.reveal", "core"),
        (RtlaAnalyzer, ("add_trace", "add_ping"), "core.rtla", "core"),
        (FrplaAnalyzer, ("add_traces",), "core.frpla", "core"),
        (SignatureInventory, ("observe_trace",), "core.signatures",
         "core"),
        (Campaign, ("run",), "campaign.run", "campaign"),
        (Campaign, ("trace_phase",), "campaign.trace", "campaign"),
        (Campaign, ("ping_phase",), "campaign.ping", "campaign"),
        (Campaign, ("extract_pairs",), "campaign.extract", "campaign"),
        (Campaign, ("revelation_phase",), "campaign.revelation",
         "campaign"),
        (ScheduledBackend, ("submit", "submit_batch"), "serve.turn",
         "serve"),
        (StalenessEngine, ("assess",), "monitor.staleness", "monitor"),
        (CampaignCheckpoint, ("begin", "record_trace", "record_ping",
                              "record_pairs", "record_revelation",
                              "finish"),
         "store.checkpoint", "store"),
        (workloads, ("fold_timeline",), "store.fold", "store"),
    ]
    for owner, attrs, name, layer in table:
        for attr in attrs:
            tracer.patch(owner, attr, name, layer)
