"""Smoke tests for the benchmark itself, at a tiny size.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layers each workload's traced round reaches at this commit.
CORE_LAYERS = ["fock.partial_trace_ms", "fock.entropy_ms", "fock.occupation_ms",
               "states.build_ms", "geometry.squeezing_ms", "entanglement.closed_form_ms",
               "entanglement.fit_ms", "entanglement.report_ms", "fock.partial_trace_peak_mb"]
REACHED = {
    "boson-deep": CORE_LAYERS,
    "sweep-wide": CORE_LAYERS + ["entanglement.sweep_self_ms", "entanglement.render_ms"],
    "cli-mix": CORE_LAYERS + ["entanglement.sweep_self_ms", "entanglement.render_ms",
                              "cli.main_self_ms", "entanglement.crossover_ms",
                              "entanglement.crossover_iterations"],
}


@pytest.fixture(scope="module")
def workloads():
    run.prepare()
    import workloads

    return workloads


@pytest.fixture(scope="module")
def tiny(workloads):
    return workloads.Size(deep_xs=4, deep_round=2, wide_points=8, cli_entropy=1,
                          min_passes=2, launches=2, repeats=1)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, trace, tiny):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=trace, size=tiny)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] is True
    json.dumps(record)  # the record written next to the result must serialise
    if trace:
        assert [m for m in REACHED[name] if not result["metrics"][m]["value"] > 0] == []


def test_every_boundary_is_rebound_and_restored(workloads):
    import importlib

    import tracer

    def held():
        return {(caller, attr): getattr(importlib.import_module(f"collapsar.{caller}"), attr)
                for _, _, attr, callers in tracer.BOUNDARIES for caller in callers}

    before = held()
    trace = tracer.Tracer()
    with trace.traced_round():
        during = held()
    assert [k for k in before if during[k] is before[k]] == []
    assert held() == before


def test_a_caller_without_the_name_stops_tracing(workloads, monkeypatch):
    from collapsar import cli

    import tracer

    monkeypatch.delattr(cli, "partial_trace")
    with pytest.raises(RuntimeError, match="partial_trace"):
        with tracer.Tracer().traced_round():
            pass
    from collapsar import entanglement, fock

    assert entanglement.partial_trace is fock.partial_trace


def test_children_self_times_fit_inside_report_span(tiny):
    _, record = run.run_workload("sweep-wide", seed=3, seconds=0, trace=True, size=tiny)
    spans = record["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_time = [(end - start) - children[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def inside(i, ancestor):
        while i >= 0:
            i = spans[i][3]
            if i == ancestor:
                return True
        return False

    reports = [i for i, s in enumerate(spans) if s[0] == "entanglement.report"]
    assert reports
    for r in reports:
        below = sum(self_time[i] for i in range(len(spans)) if inside(i, r))
        assert below > 0.0
        assert below <= spans[r][2] - spans[r][1] + 1e-12


def test_inputs_follow_the_seed(workloads, tiny):
    env = workloads.child_env(run.ROOT)
    for name in WORKLOADS:
        first = workloads.make(name, 5, tiny, env).inputs()
        assert workloads.make(name, 5, tiny, env).inputs() == first
        assert workloads.make(name, 6, tiny, env).inputs() != first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
