"""Self-tests of the benchmark on its tiny inputs.

Each test drives perfbench/run.py as the benchmark's users do, with
``--size tiny`` so the whole module takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--size", "tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (w, t): result_of(run_bench("--workload", w, "--trace", str(t)))
        for w in bench.WORKLOADS
        for t in (0, 1)
    }


def test_every_metric_prints_with_its_unit(results):
    for (workload, trace), res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        expected = bench.PER_LAYER if trace else bench.END_TO_END
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected, workload
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_outputs_match_the_reference_with_and_without_wrappers(results):
    # the reference was recorded untraced, so a clean traced run shows
    # the wrappers leave every output unchanged
    for (workload, trace), res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (workload, trace)


def test_traced_call_counts_repeat_exactly(results):
    again = result_of(run_bench("--workload", "catalogue", "--trace", "1"))
    first = results[("catalogue", 1)]["metrics"]
    calls = [k for k in first if k.endswith(".calls")]
    assert first["herbrand.classify_index.calls"]["value"] > 0
    assert {k: first[k]["value"] for k in calls} == {k: again["metrics"][k]["value"] for k in calls}


def copy_of_the_benchmark(tmp_path, with_program: bool):
    """A checkout holding this benchmark, and the program's sources if asked."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    return str(tmp_path)


def test_corrupted_reference_fails_every_prime(tmp_path):
    checkout = copy_of_the_benchmark(tmp_path, with_program=True)
    path = os.path.join(checkout, "perfbench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)

    def corrupt(node):
        if isinstance(node, dict):
            return {k: corrupt(v) for k, v in node.items()}
        return "0" * len(node)

    ref["tiny"] = corrupt(ref["tiny"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    for workload in bench.WORKLOADS:
        res = result_of(run_bench("--workload", workload, cwd=checkout))
        assert not res["correct"]
        assert res["failed"] == res["attempted"] > 0, workload


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run_bench("--workload", "catalogue",
                     cwd=copy_of_the_benchmark(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_metrics_this_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
