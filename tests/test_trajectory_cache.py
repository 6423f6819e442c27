"""Correctness tests for the engine's trajectory cache.

The cached dataplane must be *observationally invisible*: every
measurement (traceroute hops, pings, UDP alias probes) produced by a
trajectory-cached engine must equal, field for field, what the
original walk-per-probe engine produces — on the synthetic Internet
and on all four GNS3 golden scenarios, and as recorded probe logs
clean and under fault profiles — and topology edits must flush the
cache so failure injection cannot see stale paths.
"""

import pytest

from repro.dataplane.engine import ForwardingEngine
from repro.faults import FaultyBackend, fault_profile
from repro.measure import RecordingBackend, SimBackend
from repro.mpls.config import MplsConfig, PoppingMode
from repro.mpls.rsvp import TeTunnel
from repro.net.topology import Network
from repro.net.vendors import CISCO
from repro.probing.prober import Prober
from repro.routing.control import ControlPlane
from repro.synth.gns3 import SCENARIOS, build_gns3
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


@pytest.fixture(scope="module")
def twins():
    cached = build_internet(InternetConfig(seed=77))
    uncached = build_internet(
        InternetConfig(seed=77, trajectory_cache=False)
    )
    return cached, uncached


class TestCachedEqualsUncached:
    def test_traceroutes_byte_identical_on_internet(self, twins):
        cached, uncached = twins
        targets = cached.campaign_targets()[:20]
        for vp_c, vp_u in zip(cached.vps, uncached.vps):
            for dst in targets:
                trace_c = cached.prober.traceroute(vp_c, dst, start_ttl=2)
                trace_u = uncached.prober.traceroute(
                    vp_u, dst, start_ttl=2
                )
                assert trace_c == trace_u
                # Repeat with a warm cache: still identical.
                assert cached.prober.traceroute(
                    vp_c, dst, start_ttl=2
                ) == trace_u

    def test_pings_and_udp_probes_identical(self, twins):
        cached, uncached = twins
        vp_c, vp_u = cached.vps[0], uncached.vps[0]
        trace = cached.prober.traceroute(
            vp_c, cached.campaign_targets()[0], start_ttl=2
        )
        for address in trace.addresses:
            assert cached.prober.ping(vp_c, address) == (
                uncached.prober.ping(vp_u, address)
            )
            assert cached.prober.udp_probe(vp_c, address) == (
                uncached.prober.udp_probe(vp_u, address)
            )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_gns3_scenarios_byte_identical(self, scenario):
        cached = build_gns3(scenario)
        uncached = build_gns3(scenario, trajectory_cache=False)
        trace_c = cached.traceroute("CE2.left")
        trace_u = uncached.traceroute("CE2.left")
        assert trace_c == trace_u
        assert cached.render(trace_c) == uncached.render(trace_u)


class TestCacheManagement:
    def test_counters_and_stats(self):
        internet = build_internet(InternetConfig(seed=77))
        engine = internet.engine
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        internet.prober.traceroute(vp, dst, start_ttl=2)
        assert engine.trajectory_misses > 0
        # A TTL ladder over one flow shares a single trajectory.
        assert engine.trajectory_hits > 0
        internet.prober.traceroute(vp, dst, start_ttl=2)
        stats = engine.cache_stats()
        assert stats["trajectory_hits"] == engine.trajectory_hits
        assert 0.0 < stats["hit_rate"] <= 1.0
        assert stats["cached_trajectories"] == len(engine._trajectories)
        assert stats["packets_simulated"] == engine.packets_simulated

    def test_invalidate_flushes_trajectories(self):
        internet = build_internet(InternetConfig(seed=77))
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        internet.prober.traceroute(vp, dst, start_ttl=2)
        assert internet.engine._trajectories
        internet.control.invalidate()
        assert not internet.engine._trajectories
        # The trace after a flush still matches the one before it.
        before = internet.prober.traceroute(vp, dst, start_ttl=2)
        internet.control.invalidate()
        after = internet.prober.traceroute(vp, dst, start_ttl=2)
        assert before == after

    def test_te_tunnel_install_flushes_trajectories(self):
        network = Network()
        src = network.add_router("src", asn=1)
        config = MplsConfig.from_vendor(CISCO, ttl_propagate=False)
        ingress = network.add_router("in", asn=2, mpls=config)
        top = network.add_router("top", asn=2, mpls=config)
        bot = network.add_router("bot", asn=2, mpls=config)
        egress = network.add_router("out", asn=2, mpls=config)
        dst = network.add_router("dst", asn=3)
        network.add_link(src, ingress)
        network.add_link(ingress, top, weight=1)
        network.add_link(top, egress, weight=1)
        network.add_link(ingress, bot, weight=5)
        network.add_link(bot, egress, weight=5)
        network.add_link(egress, dst)
        control = ControlPlane(network)
        engine = ForwardingEngine(network, control)
        before = engine.send_probe(src, dst.loopback, ttl=255, flow_id=1)
        assert "top" in before.forward_path
        assert engine._trajectories
        control.install_te_tunnel(
            TeTunnel(
                name="detour", path=("in", "bot", "out"),
                popping=PoppingMode.UHP,
            )
        )
        assert not engine._trajectories
        after = engine.send_probe(src, dst.loopback, ttl=255, flow_id=1)
        assert "bot" in after.forward_path

    def test_uncached_engine_matches_probe_counters(self):
        network = Network()
        routers = [
            network.add_router(f"R{i}", asn=1, vendor=CISCO)
            for i in range(4)
        ]
        for a, b in zip(routers, routers[1:]):
            network.add_link(a, b)
        cached = ForwardingEngine(network)
        uncached_control = ControlPlane(network)
        uncached = ForwardingEngine(
            network, uncached_control, trajectory_cache=False
        )
        for ttl in range(1, 5):
            outcome_c = cached.send_probe(
                routers[0], routers[3].loopback, ttl=ttl, flow_id=1
            )
            outcome_u = uncached.send_probe(
                routers[0], routers[3].loopback, ttl=ttl, flow_id=1
            )
            assert outcome_c == outcome_u
        # Both engines account one probe + one reply per responsive hop.
        assert cached.packets_simulated == uncached.packets_simulated


def _record_log(tmp_path, trajectory_cache, profile):
    """Probe through a recording backend; returns the log's bytes."""
    internet = build_internet(
        InternetConfig(
            profiles=tuple(paper_profiles(0.4)),
            vantage_points=3,
            stubs_per_transit=2,
            seed=11,
            trajectory_cache=trajectory_cache,
        )
    )
    backend = SimBackend(internet.engine)
    if profile != "clean":
        backend = FaultyBackend(backend, fault_profile(profile))
    path = tmp_path / f"{trajectory_cache}.jsonl"
    recording = RecordingBackend(backend, str(path))
    prober = Prober(recording, obs=internet.engine.obs)
    vp = internet.vps[0]
    for dst in internet.campaign_targets()[:6]:
        prober.traceroute(vp, dst)
        prober.ping(vp, dst)
    recording.close()
    return path.read_bytes()


class TestRecordedLogsMatchWalkedOracle:
    @pytest.mark.parametrize("profile", ["clean", "hostile", "flap"])
    def test_probe_logs_byte_identical(self, tmp_path, profile):
        # Flaps rewire links mid-run, so the flap profile also checks
        # that invalidation keeps the cache in step with the oracle.
        cached = _record_log(tmp_path, True, profile)
        walked = _record_log(tmp_path, False, profile)
        assert cached == walked
