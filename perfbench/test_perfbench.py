"""Tests of the benchmark itself (about 20 s).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.routing.control import ControlPlane  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        random.seed(1)
        first = cls(7, str(tmp_path)).plan(60)
        random.seed(2)
        assert cls(7, str(tmp_path)).plan(60) == first
        assert cls(8, str(tmp_path)).plan(60) != first
        assert set(first["setup"] + first["ops"]) <= set(workloads.UNIVERSE)


@pytest.fixture
def one_setup_unit(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_UNITS", 1)


def _windows(name, tmp_path, seconds=0.5):
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    tracer = tracing.Tracer()
    try:
        workload.setup()
        plain, _ = workload.window(seconds)
        tracing.install_layers(tracer)
        try:
            traced, _ = workload.window(seconds, tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    return plain, traced, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_window_does_the_same_work(tmp_path, name, one_setup_unit):
    plain, traced, tracer = _windows(name, tmp_path)
    assert plain and traced
    assert all(op.ok for op in plain + traced), [
        op.error for op in plain + traced if not op.ok
    ]
    common = {op.index for op in plain} & {op.index for op in traced}
    assert common
    assert run.work_mismatches(plain, traced) == []
    for op in traced:
        assert op.trace is not None and op.trace.spans > 0
        assert sum(op.trace.selves.values()) <= op.seconds
    assert not hasattr(ControlPlane.resolve, "__wrapped__")
    metrics = run.per_layer(traced, plain, tracer.layer_of, tracing.LAYERS)
    layers = sum(
        metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS
    ) + metrics["other.self_ms"][0]
    assert layers == pytest.approx(metrics["trace.op_ms_mean"][0])
    # Each layer runs where it should and reads zero where it is bypassed.
    walks = name != "replay_analysis"
    assert (metrics["routing.calls"][0] > 0) == walks
    assert (metrics["dataplane.hops_walked"][0] > 0) == walks
    assert (metrics["dataplane.self_ms"][0] > 0) == walks
    assert (metrics["serve.turns"][0] > 0) == (name == "serve_tenants")
    monitored = name == "monitor_epochs"
    assert (metrics["faults.injected"][0] > 0) == monitored
    assert (metrics["store.checkpoint_ms"][0] > 0) == monitored
    assert (metrics["monitor.staleness_ms"][0] > 0) == monitored
    assert metrics["measure.probes"][0] > 0
    assert metrics["campaign.trace_ms"][0] > 0


def test_an_altered_expected_digest_fails_the_op(tmp_path, one_setup_unit):
    workload = workloads.ReplayAnalysis(5, str(tmp_path))
    workload.setup()
    ops, _ = workload.window(0.2)
    assert ops and all(op.ok for op in ops)
    workload.expected = dict(workload.expected)
    workload.expected[str(workload.order[0])] = "0" * 16
    ops, _ = workload.window(0.2)
    assert ops and not any(op.ok for op in ops)
    assert "digest" in ops[0].error


def test_tail_is_the_eleventh_slowest_op():
    values = list(range(1, 101))
    assert run.tail_ms(values) == (90, 90.0, 100)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
