"""Smoke tests: every workload at tiny sizes, traced and untraced.

    python3 -m pytest perfbench -q
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(slide_objects=3, views=3, hide_objects=3, stream_objects=3,
                       stream_views=3, train_steps=2, stream_calls=6,
                       eval_points=64, setup_reps=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_without_errors(workload, trace, tmp_path):
    result = workloads.run(workload, seed=3, seconds=0.01, trace=trace,
                           work=tmp_path / "work", sizes=TINY)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["unit"] and isinstance(m["value"], float)
               for m in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["correct"]
    assert not (tmp_path / "work").exists()
    if trace:
        samples = result["samples"]
        assert samples["absent"] == []
        # the spans cover the traced unit: only the loop around them is unattributed
        uncovered = result["metrics"]["trace.uncovered_ms"]["value"]
        assert 0.0 <= uncovered <= 0.02 * 1e3 * samples["traced_unit_s"]
        # on the CLI workloads that holds by construction (cli.main is the
        # top-level span); the layers must also cover most of cli.main itself
        if workload != "stream_hiding64":
            assert 0.0 <= samples["cli_main_self_share"] <= 0.25


def test_declared_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_missing_function_is_reported_absent(monkeypatch):
    from shapestream import attention
    monkeypatch.delattr(attention, "causal_linear_attention_t")
    tr = tracer.Tracer()
    assert tr.absent == ["attention.causal_linear_attention_t"]
    assert tr.per_unit()["attention.causal_linear_attention_t.calls"] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "data_slide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
