"""Smoke test for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GROUPS))
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_invalid_op_counts_as_failed():
    import one_pass

    cli = one_pass.import_cli()
    good = workloads.ops_for("bridge", 5, "tiny")[0]
    bad = workloads.Op("bad_x", "approx_s", "approx", "cantor:1", {"x": "1/0", "q_max": 10})
    rejected = workloads.Op("bad_q", "approx_s", "approx", "cantor:1", {"q_max": "many"})
    ops = [good, bad, rejected]
    out = one_pass.WORK / "work" / "smoke"
    try:
        records = one_pass.execute_ops(cli, ops, one_pass.build_configs(cli, ops, 5, out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert [bool(r["failures"]) for r in records] == [False, True, True]
    assert records[1]["failures"][0].startswith("raised: ZeroDivisionError")
    assert records[2]["failures"][0].startswith("config: ")


def test_verdict_failures_read_the_manifest_checks():
    import one_pass

    assert one_pass.verdict_failures({"growth_bound_violations": 0, "agree": True}) == []
    assert one_pass.verdict_failures({"converse_violations": 2, "monotone_ok": False}) == [
        "converse_violations=2", "monotone_ok=False"]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "bridge", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(reversed(base)), "lower", 0.1)[0] == "no worse"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([0.0] * 4, [0.0, 0.25, 0.0, 0.0], "lower", 0.0)[0] == "worse"
