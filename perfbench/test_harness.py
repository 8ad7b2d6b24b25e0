"""Self-test of the benchmark harness at a tiny input size.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a recorded reference is matched, that a corrupted reference value is
reported as a failed operation, and that the harness refuses to run without
the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the harness has; BENCHMARK.json gates a subset of them
WORKLOADS = ["solve-small", "solve-large", "eval-pairs"]


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, reference, *extra):
    return run("--workload", workload, "--seed", "5", "--seconds", "1", "--size", "tiny",
               "--reference", str(reference), *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_reference_and_corruption(workload, tmp_path):
    reference = tmp_path / "reference.json"
    assert result(tiny(workload, reference, "--trace", "0", "--record"))["correct"]

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        res = result(tiny(workload, reference, "--trace", trace))
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())

    data = json.loads(reference.read_text())
    outputs = data["5"]
    key = sorted(outputs)[0]
    outputs[key] = "0/1" if outputs[key] != "0/1" else "1/1"
    reference.write_text(json.dumps(data))
    res = result(tiny(workload, reference, "--trace", "0"))
    assert not res["correct"] and res["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
