"""Smoke test of the rig itself (not collected by tier-1, whose
``testpaths`` is ``tests``)::

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import cProfile
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def test_quick_suite_reports_every_declared_metric_once(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
         "--seed", "2011", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout
    with open(tmp_path / "results.json") as handle:
        results = json.load(handle)
    assert results["quick"] is True
    assert results["hygiene_changed"] == []
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    printed = [line.split() for line in done.stdout.splitlines()]
    for workload in (w["name"] for w in bench["workloads"]):
        record = results["workloads"][workload]
        assert record["failed"] == 0
        assert set(record["metrics"]) == set(declared)
        for name, unit in declared.items():
            assert record["metrics"][name]["unit"] == unit
            rows = [row for row in printed
                    if row[:2] == [workload, name]]
            assert len(rows) == 1 and rows[0][-1] == unit, (workload, name)
    with open(tmp_path / "trace.json") as handle:
        trace = json.load(handle)
    for spans in trace.values():
        assert spans and tracing.spans_nest(spans)


def test_layers_cover_the_profile_exactly():
    profile = cProfile.Profile()
    profile.enable()
    sorted(json.dumps({"k": list(range(50))}) for _ in range(200))
    profile.disable()
    table = tracing.layer_table(profile, n_requests=200)
    assert set(table) == set(tracing.LAYERS)
    assert abs(sum(row["share"] for row in table.values()) - 1.0) < 1e-9
    # Nothing under repro/ ran, so every second is the residual.
    assert table[tracing.OTHER]["share"] > 0.999


def test_layer_of_maps_paths_to_the_named_layers():
    assert tracing.layer_of("/x/src/repro/core/similarity.py") \
        == "core.similarity"
    assert tracing.layer_of("/x/src/repro/core/cache.py") \
        == "core.controller"
    assert tracing.layer_of("/x/src/repro/sim/load.py") == "sim.engine"
    assert tracing.layer_of("/x/src/repro/cli.py") == tracing.OTHER
    assert tracing.layer_of("/usr/lib/python3/json/encoder.py") is None


def test_spans_nest_rejects_a_child_outside_its_parent():
    recorder = tracing.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    assert tracing.spans_nest(recorder.spans)
    recorder.spans[1]["end_s"] = recorder.spans[0]["end_s"] + 1.0
    assert not tracing.spans_nest(recorder.spans)
