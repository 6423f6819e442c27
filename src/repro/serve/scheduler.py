"""Weighted fair scheduling of probe batches across tenants.

The scheduler is a *turnstile*: at most ``concurrency`` grants (one,
by default) are outstanding at any moment, and the next grant always
goes to the waiting tenant with the smallest **virtual time** —
probes charged divided by weight, the classic weighted-fair-queueing
invariant.  A tenant with weight 10 therefore moves ten probes for
every one a weight-1 tenant moves while both are backlogged, and a
tenant that got lucky while its competitor was briefly idle
automatically waits longer afterwards (virtual times reconverge).

Campaign sessions run in worker threads; the scheduler's state lives
on the server's asyncio loop.  :class:`ScheduledBackend` is the
bridge: a transparent :class:`~repro.measure.backend.ProbeBackend`
wrapper that blocks the session thread on a grant before forwarding
each ``submit``/``submit_batch`` to the real backend, then releases
the turnstile.  Because grants are serialized, the shared simulator
is never entered concurrently — which is also what keeps a served
campaign byte-identical to a standalone run: scheduling decides
*when* a batch runs, never what it probes.

Counters (server registry, ``serve.*`` family): queue depth gauge
``serve.queue_depth``, ``serve.batches_dispatched``,
``serve.probes_granted``, and per-tenant
``serve.tenant.<name>.batches`` / ``.probes``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.obs import Obs

__all__ = ["FairScheduler", "ScheduledBackend"]


class _Lane(object):
    """Per-tenant scheduler state (loop-thread only)."""

    __slots__ = (
        "name", "weight", "charged", "granted_probes",
        "granted_batches", "waiters", "refs",
    )

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        #: Probes charged so far; ``charged / weight`` is the lane's
        #: virtual time.
        self.charged = 0.0
        self.granted_probes = 0
        self.granted_batches = 0
        #: FIFO of ``(cost, future)`` waiting for a grant.
        self.waiters: Deque[Tuple[int, asyncio.Future]] = deque()
        #: Running sessions referencing this lane; a lane with no
        #: refs is *retired* — it keeps its totals for stats but no
        #: longer holds the turnstile for its virtual time.
        self.refs = 0

    @property
    def virtual_time(self) -> float:
        """Weighted consumption — the quantity the scheduler levels."""
        return self.charged / self.weight


class FairScheduler:
    """Deficit-weighted turnstile over tenant lanes.

    All state mutation happens on the owning asyncio loop;
    :meth:`acquire` is a coroutine, :meth:`release` is loop-thread
    sync (sessions call it via ``call_soon_threadsafe``).
    """

    def __init__(
        self, obs: Optional[Obs] = None, concurrency: int = 1
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.obs = obs if obs is not None else Obs()
        self.concurrency = concurrency
        self._lanes: Dict[str, _Lane] = {}
        self._active = 0

    # ------------------------------------------------------------------
    # Lane lifecycle (loop thread)

    def register(self, tenant: str, weight: float = 1.0) -> None:
        """Open (or re-enter) the lane for a starting session.

        Called when a session *starts running* — never at submission,
        so queued tenants without a thread can never become the
        turnstile's pace-setting laggard.  A newcomer starts at the
        minimum live virtual time (it owes nothing, is owed nothing);
        repeat registration bumps the refcount and re-applies the
        weight.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = _Lane(tenant, weight)
            floor = min(
                (
                    other.virtual_time
                    for other in self._lanes.values()
                    if other.refs > 0
                ),
                default=0.0,
            )
            lane.charged = floor * weight
            self._lanes[tenant] = lane
        else:
            lane.weight = weight
        lane.refs += 1

    def retire(self, tenant: str) -> None:
        """A session on this lane finished; release its pacing hold.

        The lane keeps its grant totals for stats, but once no
        running session references it the scheduler stops waiting for
        it to catch up, and any stranded waiters are granted so the
        owning thread can unwind.
        """
        lane = self._lanes.get(tenant)
        if lane is None:
            return
        lane.refs = max(0, lane.refs - 1)
        if lane.refs == 0:
            while lane.waiters:
                _, future = lane.waiters.popleft()
                if not future.done():
                    future.set_result(None)
        self._dispatch()

    # ------------------------------------------------------------------
    # The turnstile

    async def acquire(self, tenant: str, cost: int) -> None:
        """Wait for this tenant's turn to move ``cost`` probes."""
        lane = self._lanes[tenant]
        future = asyncio.get_running_loop().create_future()
        lane.waiters.append((max(1, int(cost)), future))
        self._dispatch()
        await future

    def release(self, tenant: str, cost: int) -> None:
        """Return the grant taken by :meth:`acquire` (loop thread)."""
        self._active -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant free turnstile slots, pacing by virtual time.

        The grant always goes to the globally minimum-virtual-time
        *live* lane.  If that lane is momentarily between probes (not
        waiting), the turnstile deliberately idles until it shows up
        or retires — without this hold, two alternating tenants
        degrade to 1:1 round-robin no matter their weights, because
        at each release the other tenant is the only waiter.  The
        hold is bounded by the laggard's between-probe compute (or
        its session teardown), so throughput stays intact while the
        10:1 weighted ratio becomes exact.
        """
        metrics = self.obs.metrics
        while self._active < self.concurrency:
            live = [
                lane for lane in self._lanes.values() if lane.refs > 0
            ]
            waiting = [lane for lane in live if lane.waiters]
            if not waiting:
                break
            floor = min(
                (lane.virtual_time, lane.name) for lane in live
            )
            lane = min(
                waiting,
                key=lambda lane: (lane.virtual_time, lane.name),
            )
            if (lane.virtual_time, lane.name) > floor:
                break  # hold the slot for the pace-setting laggard
            cost, future = lane.waiters.popleft()
            if future.done():  # cancelled while queued
                continue
            self._active += 1
            lane.charged += cost
            lane.granted_probes += cost
            lane.granted_batches += 1
            metrics.inc("serve.batches_dispatched")
            metrics.inc("serve.probes_granted", cost)
            metrics.inc(f"serve.tenant.{lane.name}.batches")
            metrics.inc(f"serve.tenant.{lane.name}.probes", cost)
            future.set_result(None)
        metrics.set_gauge("serve.queue_depth", self.queue_depth())

    # ------------------------------------------------------------------
    # Introspection

    def queue_depth(self) -> int:
        """Probe batches currently waiting for a grant."""
        return sum(len(lane.waiters) for lane in self._lanes.values())

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant grant totals (snapshot; loop thread)."""
        return {
            lane.name: {
                "weight": lane.weight,
                "granted_probes": lane.granted_probes,
                "granted_batches": lane.granted_batches,
                "virtual_time": round(lane.virtual_time, 3),
            }
            for lane in self._lanes.values()
        }


class ScheduledBackend:
    """Probe backend that waits its turn at the fair scheduler.

    Transparent to the whole measurement stack: every attribute the
    :class:`~repro.measure.service.ProbeService`, prober or campaign
    probes for (``engine``, ``obs``, ``name``, ``fault_state``…)
    delegates to the wrapped
    backend, so wrapping changes scheduling and nothing else.  The
    blocking handshake runs the scheduler coroutine on the server's
    loop from the session's worker thread.
    """

    def __init__(self, inner, scheduler: FairScheduler, tenant: str,
                 loop: asyncio.AbstractEventLoop) -> None:
        self._inner = inner
        self._scheduler = scheduler
        self._tenant = tenant
        self._loop = loop

    def __getattr__(self, name: str):
        """Delegate everything but the turnstile to the inner backend."""
        return getattr(self._inner, name)

    # ------------------------------------------------------------------

    def _turn(self, cost: int) -> None:
        """Block this thread until the scheduler grants ``cost``."""
        asyncio.run_coroutine_threadsafe(
            self._scheduler.acquire(self._tenant, cost), self._loop
        ).result()

    def _done(self, cost: int) -> None:
        """Release the grant back to the turnstile."""
        self._loop.call_soon_threadsafe(
            self._scheduler.release, self._tenant, cost
        )

    def submit(self, request):
        """One probe, after a one-probe grant."""
        self._turn(1)
        try:
            return self._inner.submit(request)
        finally:
            self._done(1)

    def submit_batch(self, requests):
        """One batch, charged by its probe count."""
        batch = list(requests)
        cost = max(1, len(batch))
        self._turn(cost)
        try:
            return self._inner.submit_batch(batch)
        finally:
            self._done(cost)
