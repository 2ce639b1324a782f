"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run real passes of every workload in worker processes, so they take
a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as harness  # noqa: E402
import tracer as tracing  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def passes():
    """One untraced and two traced passes of every workload, same seed."""
    out = {}
    for workload in harness.WORKLOADS:
        base = ["--workload", workload, "--seed", str(SEED)]
        out[workload] = {
            "untraced": harness.worker(base, 300),
            "traced": [harness.worker(base + ["--trace"], 300) for _ in range(2)],
        }
        for p in [out[workload]["untraced"], *out[workload]["traced"]]:
            assert "error" not in p, p["error"]
    return out


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_counts_repeat(passes, workload):
    first, second = passes[workload]["traced"]
    assert first["counts"] == second["counts"]
    units = tracing.metric_units()
    for name, value in first["layers"].items():
        if units[name][0] != "s":
            assert second["layers"][name] == value, name


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_pass_gives_the_untraced_answers(passes, workload):
    book = json.loads((HERE / "answers.json").read_text())[workload]
    checker = harness.Checker(book, SEED)
    untraced = passes[workload]["untraced"]["verdicts"]
    for p in passes[workload]["traced"]:
        assert p["verdicts"] == untraced
        checker.check(p["verdicts"])
    checker.check(untraced)
    assert checker.attempted == 3 * len(untraced) and checker.failed == 0, checker.bad


def test_every_wrapper_fires_somewhere(passes):
    # a counter stuck at 0 means some module kept its own reference
    totals: dict = {}
    for by_kind in passes.values():
        for name, count in by_kind["traced"][0]["counts"].items():
            totals[name] = totals.get(name, 0) + count
    missing = [name for name, count in totals.items() if count == 0]
    assert not missing
    assert len(totals) == len(tracing.TARGETS) + len(tracing.UNIVERSES) + 1


def test_tracer_restores_every_binding():
    import choiceless.labchecks  # noqa: F401 - loads every traced module

    def bindings():
        out = {}
        for module in tracing._choiceless_modules():
            for key, value in vars(module).items():
                out[(module.__name__, key)] = value
                if isinstance(value, dict) and key != "__builtins__":
                    out.update({(module.__name__, key, k): v for k, v in value.items()})
                if isinstance(value, type):
                    out.update({(module.__name__, key, k): v for k, v in vars(value).items()})
        return out

    before = bindings()
    with tracing.Tracer() as tracer:
        during = bindings()
    after = bindings()
    changed = [k for k in before if during.get(k) is not before[k]]
    assert len(changed) >= len(tracing.TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert all(stat == [0, 0] for stat in tracer.stats.values())


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
