#!/usr/bin/env python3
"""Render a monitoring timeline (``repro monitor --json``).

Reads a ``repro.monitor/1`` timeline document and prints an
operator-oriented digest: the chain's epoch table (tunnels, carried
pairs, probe spend, churn events), every pair's lifecycle
(born/died/resized/technique-changed), and the per-AS churn-rate
rollup.  Pointed at a warehouse directory instead, it discovers the
monitor chains stamped into the snapshot manifests and digests each
epoch's ``monitor.json`` sidecar — no timeline export needed.  A
fleet warehouse's ``fleet.json`` aggregate is summarised up front;
epochs that crashed or were parked mid-run are flagged as in-flight
(resumable) rather than rendered as zero-tunnel rows.
Self-contained on purpose: it only needs the files, not the ``repro``
package, so it can run anywhere the artefact lands (CI, a laptop, a
jump host).

Usage::

    python tools/timeline_inspect.py timeline.json
    python tools/timeline_inspect.py WAREHOUSE_DIR
"""

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Lifecycle event kinds a ``repro.monitor/1`` document may carry.
EVENT_KINDS = ("born", "died", "resized", "technique-changed")


def load_json(path: str) -> Optional[dict]:
    """One JSON document; None when missing, corrupt, or not a dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


def render_timeline(document: dict) -> str:
    """A ``repro.monitor/1`` timeline document as readable text."""
    chain = document.get("chain") or {}
    summary = document.get("summary") or {}
    lines = ["# Monitor timeline", ""]
    lines.append(f"  chain          {chain.get('id')}")
    lines.append(f"  churn profile  {chain.get('churn_profile')}")
    lines.append(f"  epochs         {chain.get('epochs')}")
    lines.append("")

    lines.append("## Epochs")
    lines.append(
        "  epoch  tunnels  pairs  carried  stale  probes  churn"
    )
    total_probes = 0
    total_carried = 0
    for head in document.get("epochs") or []:
        probes = int(head.get("probes_sent") or 0)
        carried = int(head.get("pairs_carried") or 0)
        total_probes += probes
        total_carried += carried
        epoch = head.get("epoch")
        lines.append(
            f"  {epoch if epoch is not None else '?':>5}"
            f"  {head.get('tunnels') or 0:>7}"
            f"  {head.get('pairs') or 0:>5}"
            f"  {carried:>7}"
            f"  {head.get('pairs_stale') or 0:>5}"
            f"  {probes:>6}"
            f"  {len(head.get('churn_events') or []):>5}"
            + ("  [partial]" if head.get("partial") else "")
        )
    lines.append(
        f"  total campaign probes: {total_probes} "
        f"({total_carried} pair revelations carried forward)"
    )
    lines.append("")

    lines.append("## Lifecycle summary")
    lines.append(
        f"  pairs tracked  {summary.get('pairs_tracked', 0)} "
        f"(stable {summary.get('stable_pairs', 0)})"
    )
    for kind in ("born", "died", "resized", "technique_changed"):
        lines.append(f"  {kind:<18s} {summary.get(kind, 0)}")
    lines.append("")

    eventful = [
        entry
        for entry in document.get("pairs") or []
        if entry.get("events")
    ]
    if eventful:
        lines.append("## Lifecycles")
        for entry in eventful:
            history = "; ".join(
                describe_event(event) for event in entry["events"]
            )
            lines.append(
                f"  {entry.get('ingress')}->{entry.get('egress')} "
                f"(AS{entry.get('asn')}): {history}"
            )
        lines.append("")

    per_as = document.get("per_as") or []
    if per_as:
        lines.append("## Per-AS churn rate (events / epoch)")
        for row in sorted(
            per_as,
            key=lambda row: (-row.get("churn_rate", 0), row["asn"]),
        ):
            lines.append(
                f"  AS{row['asn']:<6} rate "
                f"{row.get('churn_rate', 0):>6.2f}  "
                f"({row.get('lifecycle_events', 0)} events over "
                f"{row.get('pairs_seen', 0)} pairs)"
            )
        lines.append("")
    return "\n".join(lines)


def describe_event(event: dict) -> str:
    """One lifecycle event as compact text (``e3 resized 4->6``)."""
    kind = event.get("event")
    text = f"e{event.get('epoch')} {kind}"
    if kind == "resized":
        text += f" {event.get('from')}->{event.get('to')}"
    elif kind == "technique-changed":
        before = "/".join(str(part) for part in event.get("from") or [])
        after = "/".join(str(part) for part in event.get("to") or [])
        text += f" {before}->{after}"
    return text


def find_chains(
    root: str,
) -> List[Tuple[str, List[Tuple[int, str]]]]:
    """Monitor chains in a warehouse: ``(chain, [(epoch, path)])``.

    Chains are recognised by the ``monitor`` stamp ``repro monitor``
    writes into each snapshot manifest's topology fingerprint.
    """
    chains: Dict[str, List[Tuple[int, str]]] = {}
    try:
        children = sorted(os.listdir(root))
    except OSError:
        return []
    for child in children:
        path = os.path.join(root, child)
        manifest = load_json(os.path.join(path, "MANIFEST.json"))
        if manifest is None:
            continue
        fingerprint = manifest.get("fingerprint") or {}
        topology = fingerprint.get("topology") or {}
        stamp = topology.get("monitor")
        if not isinstance(stamp, dict):
            continue
        chains.setdefault(str(stamp.get("chain")), []).append(
            (int(stamp.get("epoch") or 0), path)
        )
    return [
        (chain, sorted(members))
        for chain, members in sorted(chains.items())
    ]


def epoch_completed(path: str) -> bool:
    """Did the epoch at ``path`` run to completion?

    Same criterion the monitor loop and fleet fold use: a completed
    ``run.json`` *and* a written ``result.json``.  A crash between
    the two (or mid-epoch) leaves a resumable, not-yet-complete
    epoch whose checkpoint records must not be read as results.
    """
    run = load_json(os.path.join(path, "run.json")) or {}
    result = load_json(os.path.join(path, "result.json"))
    return bool(run.get("completed")) and result is not None


def render_fleet_summary(root: str) -> Optional[str]:
    """One-paragraph digest of the warehouse's ``fleet.json``."""
    document = load_json(os.path.join(root, "fleet.json"))
    if document is None or document.get("kind") != "fleet":
        return None
    summary = document.get("summary") or {}
    quality = document.get("data_quality") or {}
    lines = [
        f"# Fleet aggregate ({document.get('schema')})",
        "",
        f"  chains           {summary.get('chains', 0)} "
        f"({summary.get('complete_chains', 0)} complete)",
        f"  epochs folded    {summary.get('epochs_completed', 0)}",
        f"  alerts           {summary.get('alerts', 0)}",
        f"  grade            {summary.get('grade')} "
        f"(confidence {quality.get('confidence')})",
    ]
    incomplete = quality.get("incomplete") or []
    if incomplete:
        lines.append(
            "  incomplete       " + ", ".join(
                str(chain) for chain in incomplete
            )
        )
    lines.append("")
    return "\n".join(lines)


def render_warehouse(root: str) -> Optional[str]:
    """Digest every monitor chain found under a warehouse root.

    Epoch rows come from each snapshot's ``monitor.json`` sidecar plus
    its ``run.json``/``result.json``; None when the directory holds no
    monitor chains at all.  Epochs that never completed (a chain
    crashed or was parked mid-epoch) are flagged as in-flight rather
    than rendered as zero-tunnel rows, and a chain with *no*
    completed epoch gets an explicit resume hint instead of an empty
    table pretending the chain measured nothing.
    """
    chains = find_chains(root)
    if not chains:
        return None
    lines = []
    fleet = render_fleet_summary(root)
    if fleet is not None:
        lines.append(fleet)
    for chain, members in chains:
        # The manifest stamp always carries the profile; the sidecar
        # only exists for epochs that completed.
        manifest = load_json(
            os.path.join(members[0][1], "MANIFEST.json")
        ) or {}
        stamp = (
            (manifest.get("fingerprint") or {})
            .get("topology", {})
            .get("monitor", {})
        ) or {}
        lines.append(
            f"# Monitor chain {chain} ({len(members)} epochs, "
            f"churn profile {stamp.get('churn_profile')!r})"
        )
        lines.append("")
        lines.append(
            "  epoch  tunnels  carried  stale  probes  churn  snapshot"
        )
        completed_epochs = 0
        for epoch, path in members:
            if not epoch_completed(path):
                lines.append(
                    f"  {epoch:>5}  [in-flight: crashed or parked "
                    "mid-epoch; checkpoint is resumable]  "
                    f"{os.path.basename(path)}"
                )
                continue
            completed_epochs += 1
            sidecar = load_json(
                os.path.join(path, "monitor.json")
            ) or {}
            run = load_json(os.path.join(path, "run.json")) or {}
            result = load_json(
                os.path.join(path, "result.json")
            ) or {}
            probes = sidecar.get(
                "campaign_probes",
                (run.get("probes_sent") or 0)
                + (run.get("revelation_probes") or 0),
            )
            lines.append(
                f"  {epoch:>5}"
                f"  {len(result.get('tunnels') or []):>7}"
                f"  {sidecar.get('pairs_carried', 0):>7}"
                f"  {sidecar.get('pairs_stale', 0):>5}"
                f"  {probes:>6}"
                f"  {len(sidecar.get('churn_events') or []):>5}"
                f"  {os.path.basename(path)}"
                + ("  [partial]" if run.get("partial") else "")
            )
        if completed_epochs == 0:
            lines.append(
                "  (no completed epochs yet — the chain crashed or "
                "was parked before finishing its first epoch; "
                "re-run the same monitor command, or resume the "
                "fleet, to continue from the checkpoints)"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if argv[1:] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    try:
        if os.path.isdir(path):
            digest = render_warehouse(path)
            if digest is None:
                print(
                    f"no monitor chains under {path}", file=sys.stderr
                )
                return 1
            print(digest)
            return 0
        document = load_json(path)
        if document is None or "epochs" not in document:
            print(
                f"{path} is not a repro.monitor/1 timeline document",
                file=sys.stderr,
            )
            return 1
        print(render_timeline(document))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
