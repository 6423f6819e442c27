"""Regenerate ``expected.json``: reference digests for every topology.

Every digest comes from the reference walk — engines attached with
``trajectory_cache=False``, so each probe takes the walk-per-probe
path (``_send_probe_walked``) instead of the memoised trajectories
the timed ops use.  The scale-1 campaign digest is cross-checked
against ``run_standalone`` (the served-campaign twin), so a served
result that matches it also equals the standalone run.

Run from the repository root (takes a few minutes):

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from repro.monitor import MonitorLoop  # noqa: E402
from repro.serve import TenantSpec  # noqa: E402
from repro.serve.registry import TopologySpec, render_internet  # noqa: E402
from repro.serve.session import run_standalone  # noqa: E402
from repro.synth.internet import InternetConfig, build_internet  # noqa: E402
from repro.synth.profiles import scaled_profiles  # noqa: E402


def campaign_s8(topology: int) -> str:
    _, result, frpla = workloads.cold_campaign(
        topology, trajectory_cache=False
    )
    assert not result.partial, result.stop_reason
    return workloads.campaign_digest(result, frpla)


def campaign_s1(topology: int) -> str:
    spec = TopologySpec(scale=workloads.WARM_SCALE, seed=topology)
    internet = render_internet(spec).attach(trajectory_cache=False)
    result = workloads.Campaign(
        internet.prober, internet.vps, internet.asn_of_address,
        workloads.campaign_config(internet),
    ).run(internet.campaign_targets())
    digest = workloads.campaign_digest(
        result, workloads.frpla_analyzer(result, internet)
    )
    standalone, _ = run_standalone(TenantSpec(tenant="oracle", topology=spec))
    twin = workloads.campaign_digest(
        standalone, workloads.frpla_analyzer(standalone, internet)
    )
    if twin != digest:
        raise SystemExit(
            f"topology {topology}: run_standalone {twin} != reference "
            f"{digest}"
        )
    return digest


def timeline_s1(topology: int, scratch: str) -> str:
    warehouse = tempfile.mkdtemp(dir=scratch)
    try:
        config = workloads.monitor_config(warehouse, topology)
        internet = build_internet(InternetConfig(
            profiles=tuple(scaled_profiles(config.scale)),
            vantage_points=config.vantage_points,
            stubs_per_transit=config.stubs_per_transit,
            seed=topology,
            trajectory_cache=False,
        ))
        report = MonitorLoop(config, internet=internet).run()
        assert not report.partial, report.stop_reason
        return workloads.timeline_digest(warehouse, report.chain)
    finally:
        shutil.rmtree(warehouse)


def main() -> int:
    os.makedirs(".perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(dir=".perfbench")
    try:
        document = {
            "schema": "perfbench.expected/1",
            "reference": "attach(trajectory_cache=False) walk per probe",
            "universe": list(workloads.UNIVERSE),
            "campaign_s8": {}, "campaign_s1": {}, "timeline_s1": {},
        }
        for topology in workloads.UNIVERSE:
            document["campaign_s8"][str(topology)] = campaign_s8(topology)
            document["campaign_s1"][str(topology)] = campaign_s1(topology)
            document["timeline_s1"][str(topology)] = timeline_s1(
                topology, scratch
            )
            print(topology, {
                table: document[table][str(topology)]
                for table in ("campaign_s8", "campaign_s1", "timeline_s1")
            }, flush=True)
    finally:
        shutil.rmtree(scratch)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
