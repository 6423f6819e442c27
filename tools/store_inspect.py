#!/usr/bin/env python3
"""Summarise a campaign warehouse (``repro campaign --checkpoint``).

Walks a warehouse root (or a single snapshot directory) and prints an
operator-oriented digest per snapshot: identity fingerprint, per-phase
record counts and sizes, checkpointed probe/budget progression, run
status, and the revealed-tunnel summary when ``result.json`` exists.
It also validates the crash-safety invariants the resume path relies
on — per-phase ``index`` contiguity and the global ``seq`` chain — and
flags damaged tails instead of crashing on them.  A snapshot whose
process died before writing ``run.json`` is reported as a resumable
mid-epoch crash, and a warehouse-level ``fleet.json`` (a fleet run's
``repro.fleet/1`` aggregate) is summarised up front.  Self-contained on
purpose: it only needs the files, not the ``repro`` package, so it can
run anywhere the artefact lands (CI, a laptop, a jump host).

Usage::

    python tools/store_inspect.py STORE_DIR_OR_SNAPSHOT
"""

import json
import os
import sys
from typing import List, Optional, Tuple

PHASES = ("trace", "ping", "pairs", "revelation")


def load_json(path: str) -> Optional[dict]:
    """One JSON document; None when missing, corrupt, or not a dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


def load_phase(path: str) -> Tuple[List[dict], int, bool]:
    """Load a phase file's valid record prefix.

    Returns ``(records, file_bytes, damaged)`` where ``damaged`` is
    True when lines after the valid prefix exist (truncated write or
    corruption) — the resume path would drop them, and so do we.
    """
    records: List[dict] = []
    damaged = False
    try:
        size = os.path.getsize(path)
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return records, 0, False
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                damaged = True
                break
            if (
                not isinstance(record, dict)
                or record.get("index") != len(records)
            ):
                damaged = True
                break
            records.append(record)
    return records, size, damaged


def find_snapshots(root: str) -> List[str]:
    """Snapshot directories under ``root`` (or ``root`` itself)."""
    if os.path.isfile(os.path.join(root, "MANIFEST.json")):
        return [root]
    found = []
    try:
        children = sorted(os.listdir(root))
    except OSError:
        return []
    for child in children:
        path = os.path.join(root, child)
        if os.path.isfile(os.path.join(path, "MANIFEST.json")):
            found.append(path)
    return found


def monitor_stamp(path: str) -> Optional[dict]:
    """The snapshot's monitor-chain stamp, when it belongs to one.

    ``repro monitor`` stamps each epoch's topology fingerprint with
    ``{"chain", "epoch", "churn_profile"}``; standalone campaign
    snapshots have no stamp and return None.
    """
    manifest = load_json(os.path.join(path, "MANIFEST.json")) or {}
    fingerprint = manifest.get("fingerprint") or {}
    topology = fingerprint.get("topology") or {}
    stamp = topology.get("monitor")
    return stamp if isinstance(stamp, dict) else None


def group_snapshots(
    paths: List[str],
) -> Tuple[List[Tuple[str, List[Tuple[int, str]]]], List[str]]:
    """Split snapshots into monitor chains and standalone ones.

    Returns ``(chains, standalone)`` where each chain is
    ``(chain_id, [(epoch, path), ...])`` sorted by epoch, so the
    digest prints a chain's epochs in temporal order rather than the
    content-key order the directory listing happens to have.
    """
    chains: dict = {}
    standalone: List[str] = []
    for path in paths:
        stamp = monitor_stamp(path)
        if stamp is None:
            standalone.append(path)
            continue
        chain = str(stamp.get("chain"))
        epoch = int(stamp.get("epoch") or 0)
        chains.setdefault(chain, []).append((epoch, path))
    ordered = [
        (chain, sorted(members))
        for chain, members in sorted(chains.items())
    ]
    return ordered, standalone


def summarize_snapshot(path: str) -> dict:
    """Digest one snapshot directory into a summary dict."""
    manifest = load_json(os.path.join(path, "MANIFEST.json")) or {}
    phases = {}
    position = 0
    seq_broken = False
    last_state = None
    quarantined = 0
    for phase in PHASES:
        records, size, damaged = load_phase(
            os.path.join(path, "phases", f"{phase}.jsonl")
        )
        surviving = 0
        for record in records:
            if not seq_broken and record.get("seq") == position:
                position += 1
                surviving += 1
                state = record.get("state")
                if isinstance(state, dict):
                    last_state = state
                    quarantined += len(
                        state.get("quarantine_added") or []
                    )
            else:
                seq_broken = True
        phases[phase] = {
            "records": len(records),
            "surviving": surviving,
            "bytes": size,
            "damaged": damaged or len(records) != surviving,
        }
    return {
        "path": path,
        "manifest": manifest,
        "phases": phases,
        "chain_length": position,
        "last_state": last_state,
        "quarantined": quarantined,
        "run": load_json(os.path.join(path, "run.json")),
        "result": load_json(os.path.join(path, "result.json")),
    }


def render(summary: dict) -> str:
    """One snapshot's summary as aligned, human-readable text."""
    manifest = summary["manifest"]
    fingerprint = manifest.get("fingerprint") or {}
    topology = fingerprint.get("topology") or {}
    targets = fingerprint.get("targets") or {}
    lines = [f"# Snapshot {summary['path']}", ""]
    lines.append(
        f"  schema   {manifest.get('schema', '(missing manifest)')}"
    )
    key = manifest.get("key") or "?"
    lines.append(f"  key      {key[:16]}…")
    if topology:
        described = ", ".join(
            f"{name}={value}" for name, value in sorted(topology.items())
        )
        lines.append(f"  topology {described}")
    if targets:
        lines.append(f"  targets  {targets.get('count')} destinations")
    lines.append("")

    lines.append("## Phase records")
    for phase, stats in summary["phases"].items():
        note = ""
        if stats["damaged"]:
            dropped = stats["records"] - stats["surviving"]
            detail = (
                f"{dropped} record(s) unusable"
                if dropped
                else "corrupt trailing bytes dropped on resume"
            )
            note = f"  [damaged tail: {detail}]"
        lines.append(
            f"  {phase:<12s} {stats['surviving']:>6d} records "
            f"{stats['bytes']:>10d} B{note}"
        )
    lines.append(f"  checkpoint chain: {summary['chain_length']} records")
    lines.append("")

    state = summary["last_state"]
    if state:
        result = state.get("result") or {}
        service = state.get("service") or {}
        lines.append("## Checkpointed progression")
        lines.append(
            f"  probes_sent        {result.get('probes_sent', '?')}"
        )
        lines.append(
            f"  revelation_probes  {result.get('revelation_probes', '?')}"
        )
        lines.append(
            f"  service probes     {service.get('probes_sent', '?')}"
        )
        scopes = service.get("scope_spent") or {}
        for scope, spent in sorted(scopes.items()):
            lines.append(f"  scope {scope:<12s} {spent}")
        counters = state.get("counters") or {}
        chaos = {
            name: value
            for name, value in counters.items()
            if name.startswith(("faults.", "measure.quarantined"))
            or name
            in ("measure.retries_exhausted", "campaign.pings_parked")
        }
        if chaos or summary.get("quarantined"):
            lines.append(
                f"  quarantined records  {summary.get('quarantined', 0)}"
            )
        for name, value in sorted(chaos.items()):
            lines.append(f"  {name:<28s} {value}")
        lines.append("")

    run = summary["run"]
    if run:
        status = "partial" if run.get("partial") else "complete"
        lines.append(f"## Last run: {status}")
        if run.get("stop_reason"):
            lines.append(f"  stop reason: {run['stop_reason']}")
        for name in (
            "traces", "pings", "pairs", "revelations",
            "probes_sent", "revelation_probes",
        ):
            if name in run:
                lines.append(f"  {name:<18s} {run[name]}")
        lines.append("")
    elif summary["chain_length"]:
        # Phase records but no run.json: the process died mid-epoch
        # before writing any status.  Say so instead of silently
        # omitting the section — the checkpoint prefix is intact and
        # the run is resumable.
        lines.append("## Last run: crashed mid-epoch (no run.json)")
        lines.append(
            f"  {summary['chain_length']} checkpointed records "
            "survive; re-running the same campaign/monitor/fleet "
            "command resumes from them bit-identically"
        )
        lines.append("")

    result = summary["result"]
    if result:
        volumes = result.get("volumes") or {}
        tunnels = result.get("tunnels") or []
        lines.append("## Result summary")
        lines.append(
            f"  tunnels revealed   "
            f"{volumes.get('tunnels_revealed', len(tunnels))}"
        )
        per_as = result.get("per_as") or []
        for row in per_as:
            if not isinstance(row, dict) or not row.get("revealed_pairs"):
                continue
            lines.append(
                f"  AS{row.get('asn') if row.get('asn') is not None else '?':<6} "
                f"{str(row.get('name') or '?'):<24s} "
                f"{row.get('revealed_pairs')}/{row.get('ie_pairs')} "
                f"pairs revealed, {row.get('lsr_ips')} LSR IPs"
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
    snapshots = find_snapshots(argv[1])
    if not snapshots:
        print(f"no campaign snapshots under {argv[1]}", file=sys.stderr)
        return 1
    chains, standalone = group_snapshots(snapshots)
    fleet = load_json(os.path.join(argv[1], "fleet.json"))
    try:
        if isinstance(fleet, dict) and fleet.get("kind") == "fleet":
            summary = fleet.get("summary") or {}
            print(
                f"# Fleet aggregate: {summary.get('chains', 0)} "
                f"chains, {summary.get('epochs_completed', 0)} epochs "
                f"folded, grade {summary.get('grade')}, "
                f"{summary.get('alerts', 0)} alert(s)"
            )
            print()
        for chain, members in chains:
            stamp = monitor_stamp(members[0][1]) or {}
            epochs = ", ".join(
                f"e{epoch}={os.path.basename(path)}"
                for epoch, path in members
            )
            print(
                f"# Monitor chain {chain} "
                f"({len(members)} epochs, churn profile "
                f"{stamp.get('churn_profile')!r})"
            )
            print(f"  epoch order: {epochs}")
            print()
            for _, path in members:
                print(render(summarize_snapshot(path)))
        for path in standalone:
            print(render(summarize_snapshot(path)))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
