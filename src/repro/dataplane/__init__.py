"""Dataplane: packets, trajectories and the per-hop engine."""

from repro.dataplane.engine import EndReason, ForwardingEngine, ProbeOutcome
from repro.dataplane.packet import Packet

__all__ = [
    "EndReason",
    "ForwardingEngine",
    "Packet",
    "ProbeOutcome",
]
