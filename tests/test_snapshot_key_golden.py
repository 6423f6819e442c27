"""Golden snapshot keys: the literal content keys of real entry points.

Warehouse snapshots are keyed by a SHA-256 over the topology
descriptor, the identity-relevant campaign config and the target set.
A refactor that changes any of those — a field added to a config
class, a descriptor entry stamped differently — silently orphans
every existing warehouse.  These keys were computed before the
compiled data plane, windowed probing and the fork prewarm were
removed, and must never change without an explicit format bump.

Each run stops after one probe (``probe_budget=1``): the key is fixed
when the checkpoint opens, before any probing.
"""

import contextlib
import io

from repro.cli import main
from repro.monitor import MonitorConfig, MonitorLoop
from repro.serve import ServeClient, SnapshotRegistry, TenantSpec, TopologySpec
from repro.store import CampaignStore

DEFAULT_CAMPAIGN_KEY = (
    "8fbb5c89df77bf6819dfa4c863f606990ba0a799603aa599126b7a129b847212"
)
HOSTILE_CAMPAIGN_KEY = (
    "8886a7d45a602f43d9bf5c36b18e9269c005ed4af3eadf57f4e0e5ae7864a1f0"
)
MONITOR_EPOCH0_KEY = (
    "f1ab450d32f6c615f7815bf0e5476c0f99ce11f860d32fd6384dd26b25eab954"
)
SERVED_TENANT_KEY = (
    "20bda6498de095fde4b142da317e2d2d1b51223001fd7f1c652e2fe626389d11"
)


def _keys(root):
    return [
        snapshot.manifest()["key"]
        for snapshot in CampaignStore(root).snapshots()
    ]


def _campaign_keys(root, *extra):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "campaign", "--checkpoint", str(root), "--probe-budget", "1",
            *extra,
        ])
    assert code == 0
    return _keys(root)


def test_default_campaign_key(tmp_path):
    assert _campaign_keys(tmp_path / "wh") == [DEFAULT_CAMPAIGN_KEY]


def test_hostile_campaign_key(tmp_path):
    keys = _campaign_keys(tmp_path / "wh", "--fault-profile", "hostile")
    assert keys == [HOSTILE_CAMPAIGN_KEY]


def test_monitor_epoch0_key(tmp_path):
    warehouse = str(tmp_path / "wh")
    report = MonitorLoop(
        MonitorConfig(warehouse=warehouse, epochs=1, probe_budget=1)
    ).run()
    assert report.epochs[0].key == MONITOR_EPOCH0_KEY
    assert _keys(warehouse) == [MONITOR_EPOCH0_KEY]


def test_served_tenant_key(tmp_path):
    warehouse = str(tmp_path / "wh")
    spec = TenantSpec(
        tenant="golden",
        topology=TopologySpec(
            scale=0.3, seed=11, vantage_points=3, stubs_per_transit=2
        ),
        checkpoint_dir=warehouse,
        probe_budget=1,
    )
    client = ServeClient(registry=SnapshotRegistry())
    try:
        client.submit(spec).wait(timeout=300)
    finally:
        client.close()
    assert _keys(warehouse) == [SERVED_TENANT_KEY]
