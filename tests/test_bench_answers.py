"""The benchmark checks every pass against its recorded answers
(`perfbench/answers.json`).  Here the same workloads (`perfbench/workloads.py`,
loaded from its file without editing it) run at seeds 0 and 1, so a change
that would fail the benchmark's answer check fails here first."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
ANSWERS = json.loads((PERFBENCH / "answers.json").read_text())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["injections", "refutation", "closure"])
def test_verdicts_match_the_recorded_answers(workload, seed):
    book = ANSWERS[workload]
    verdicts, _ = workloads.run(workload, workloads.build(workload, seed))
    assert verdicts == {**book["any_seed"], **book["seeds"][str(seed)]}
    assert all(v["ok"] for v in verdicts.values())
