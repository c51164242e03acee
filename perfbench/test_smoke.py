"""Smoke test: every workload, at a tiny size, emits each declared metric with its unit.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_workload_emits_every_declared_metric(workload, trace):
    lines, result = run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                        "--trace", str(trace), "--tiny")
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:   # the table a person reads names each metric too
        assert any(line.split()[:1] == [m["name"]] for line in lines)
    assert any(line.split()[:1] == ["fail_rate"] for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_count_metrics_repeat_for_a_seed(trace):
    args = ("--workload", "balanced-spread", "--seed", "9", "--seconds", "0.5",
            "--trace", str(trace), "--tiny")
    first, second = run(*args)[1], run(*args)[1]
    counts = [name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "Mqueries", "Mqueries/call")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "forest-audit", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
