"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each workload reports every metric BENCHMARK.json names,
that its outputs pass the benchmark's own checks, and that the exact
counts the per-layer metrics rely on match the code as it stands.
Kept out of the tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import harness  # noqa: E402
from workloads import ExportWorkload, TrainWorkload  # noqa: E402

TINY = {
    "train-net2": TrainWorkload("net2", batch=4, steps=2, eval_images=8, eval_batch=8,
                                threshold_init=0.0),
    "train-mnist2": TrainWorkload("mnist2", batch=8, steps=2, eval_images=16, eval_batch=16,
                                  threshold_init=1.0),
    "export-net2": ExportWorkload("net2"),
}

# exact per-operation counts at this commit: 21 (net2) or 3 (mnist2)
# weight tensors, each quantized once for the step and twice for the
# regularizer's loss and gradient, at max_k=2 rounds each; the export
# cycle quantizes once at max_k=3 and packs twice (cost_report packs again)
COUNTS = {
    "train-net2": {"quant.round_pow2_calls": 126, "quant.quantize_layer_calls": 63,
                   "packing.pack_model_calls": 0, "quant.all_fired_share": 1.0},
    "train-mnist2": {"quant.round_pow2_calls": 18, "quant.quantize_layer_calls": 9,
                     "packing.pack_model_calls": 0, "quant.all_fired_share": 0.0},
    "export-net2": {"quant.round_pow2_calls": 63, "quant.quantize_layer_calls": 21,
                    "packing.pack_model_calls": 2},
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUPS", 1)


def tiny_run(name, trace, seed=3):
    return harness.run_workload(name, seed, 0.0, trace, workload=TINY[name])


def test_metric_names_match_benchmark_json(spec):
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    res = tiny_run(name, trace=0)
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["error_rate"] == 0.0
    assert set(res["metrics"]) == set(harness.END_TO_END)
    for value in res["metrics"].values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric_and_exact_counts(name):
    res = tiny_run(name, trace=1)
    assert res["correct"], res["errors"]
    assert set(res["metrics"]) == set(harness.PER_LAYER)
    for metric, want in COUNTS[name].items():
        assert res["metrics"][metric] == want, metric
    if name == "export-net2":
        assert res["metrics"]["nn.layers.Conv2D.forward_ms"] == 0.0
        assert res["k_hist"][0] > 0 and min(res["k_hist"]) > 0
    else:
        assert res["metrics"]["nn.layers.Conv2D.gflops"] > 0
        assert res["metrics"]["trainer.loop.evaluate_ms"] > 0


def test_same_seed_runs_end_bit_identical():
    a, b = tiny_run("train-mnist2", 0), tiny_run("train-mnist2", 0)
    assert a["digest"] == b["digest"]
    assert a["final_loss"] == b["final_loss"]
    assert tiny_run("train-mnist2", 0, seed=4)["digest"] != a["digest"]


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "export-net2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
