"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs for one second: once untraced on the default seed and
once traced on the held-out seed, so every correctness gate is exercised
on both seeds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_on_default_seed(workload):
    result = _result(_bench(workload, DEFAULT_SEED, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_and_spans_on_held_out_seed(workload):
    result = _result(_bench(workload, HELD_OUT_SEED, trace=1))
    # traced passes are gated against the untraced warm-up pass byte for byte
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # reported self times are non-negative and within their parent's total
    assert metrics["cli.main.self_ms"]["value"] >= 0
    assert 0 <= metrics["fitting.solve.self_ms"]["value"] <= metrics["fitting.fit.ms"]["value"]

    lines = (ROOT / ".perfbench" / f"trace-{workload}-seed{HELD_OUT_SEED}.jsonl"
             ).read_text(encoding="utf-8").splitlines()
    assert "machine" in json.loads(lines[0])
    spans = {s["id"]: s for s in map(json.loads, lines[1:])}
    assert spans
    # every item of every traced pass has its own identifier
    items = {(s["pass"], s["item"]) for s in spans.values()
             if not s["item"].startswith("pass-")}
    n_passes = 1 + max(s["pass"] for s in spans.values())
    assert len(items) == n_passes * WORKLOADS[workload].items_per_pass
    children = {}
    for span in spans.values():
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    for span in spans.values():
        duration = span["end_ns"] - span["start_ns"]
        covered = sum(c["end_ns"] - c["start_ns"] for c in children.get(span["id"], ()))
        self_ns = duration - covered
        assert 0 <= self_ns <= duration
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
            assert self_ns <= parent["end_ns"] - parent["start_ns"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_writes_identical_outputs(workload, tmp_path):
    bench = WORKLOADS[workload](DEFAULT_SEED, tmp_path)
    bench.setup()
    untraced = bench.run_pass(DEFAULT_SEED)
    tracer = Tracer(item_of=bench.item_of)
    with tracer.recording(0):
        traced = bench.run_pass(DEFAULT_SEED)
    assert traced.outputs == untraced.outputs
    assert bench.gate(traced) == []
    assert tracer.spans and not tracer.absent
    # the benchmark's own self times: each within its span, and together
    # they add up to the time of the outermost spans
    children = tracer.children()
    self_times = [tracer.self_ns(span, children) for span in tracer.spans]
    assert all(0 <= t <= span.duration for t, span in zip(self_times, tracer.spans))
    roots = sum(span.duration for span in tracer.spans if span.parent is None)
    assert sum(self_times) == roots


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("ladder", DEFAULT_SEED, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
