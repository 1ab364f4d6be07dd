"""Smoke test for the benchmark: one tiny task per workload, untraced and
traced, through the same entry point the full benchmark uses.  Checks that
the last output line follows the result format and names exactly the
metrics ``BENCHMARK.json`` declares."""
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_declared_metrics(workload, trace, capsys, tmp_path):
    record = tmp_path / "record.json"
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--smoke", "--out", str(record)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    runs = json.loads(record.read_text())["task_runs"]
    assert len(runs) == result["attempted"] and all(r["report"] for r in runs)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
