"""Tests of the benchmark itself.

The layer counts and plan-quality metrics must repeat bit for bit between
runs of the same code, so that a change can name a count as its claim.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [
    m["name"]
    for m in SPEC["per_layer"]
    if not m["name"].endswith("self_s") and not m["name"].startswith(("layers.", "tracing."))
]


@pytest.fixture
def restore_package():
    """The harness re-imports the package; give later tests back the original modules."""

    def ours():
        return [k for k in sys.modules if k == "anticip_mpc" or k.startswith("anticip_mpc.")]

    saved = {k: sys.modules[k] for k in ours()}
    yield
    for k in ours():
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload, n_scenarios", [("reference", 2), ("fullbody", 1)])
def test_counts_and_quality_repeat_exactly(workload, n_scenarios, tmp_path, restore_package, monkeypatch):
    monkeypatch.setattr(harness, "MIN_REPLANS", 0)  # two passes are enough here
    traced = [
        harness.run_workload(workload, 7, 0.0, True, tmp_path, n_scenarios=n_scenarios)
        for _ in range(2)
    ]
    untraced = harness.run_workload(workload, 7, 0.0, False, tmp_path, n_scenarios=n_scenarios)
    for result in traced + [untraced]:
        assert result["correct"], result["problems"]
    counts = [{k: r["metrics"][k] for k in COUNT_METRICS} for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["mpc.replans"] == 10 * n_scenarios
    # tracing must not change the plans
    assert traced[0]["quality"] == traced[1]["quality"] == untraced["quality"]
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_self_times_partition_the_root():
    def span(name, parent, start, end, info=None):
        return Span(name, parent, 0, start, end, info)

    spans = [
        span("solver.solve", -1, 0.0, 10.0, {"iterations": 1, "outer_iterations": 1,
                                             "converged": True, "grad_inf": 0.5}),
        span("solver.backward_pass", 0, 1.0, 3.0, {"reg_bumps": 2}),
        span("solver.forward_pass", 0, 4.0, 8.0, {"accepted": True}),
        span("costs.value", 2, 4.5, 5.5),
        span("costs.value", 2, 6.0, 7.0),
        span("kinematics.fk_batch", -1, 20.0, 21.0, {"rows": 5}),  # outside planning
    ]
    m = layer_metrics(spans, {0}, {0}, n_loaded=1, scale={0: 1.0})
    assert m["solver.solve.self_s"] == 4.0
    assert m["solver.forward_pass.self_s"] == 2.0
    assert m["costs.value.self_s"] == 2.0
    assert m["kinematics.fk_batch.calls"] == 0
    assert m["solver.line_search.trials_per_search"] == 2.0
    assert m["solver.line_search.accept_ratio"] == 0.5
    assert m["solver.backward_pass.reg_bumps"] == 2
    planning = sum(m[f"{name}.self_s"] for name in harness.PLANNING_LAYERS)
    assert planning == 10.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_nearby_probes():
    runner = harness.Runner(None, None, None)
    runner.probes = [(0.0, 0.010), (1.0, 0.020), (2.0, 0.060), (20.0, 0.001)]
    assert runner.scale_at(1.5) == pytest.approx(harness.PROBE_REF_S / 0.020)
    assert runner.scale_at(40.0) == pytest.approx(harness.PROBE_REF_S / 0.001)  # nearest only
