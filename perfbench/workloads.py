"""The benchmark's workloads: inputs made from a seed, one timed pass,
and the answer fields each verdict is checked on.  Why each workload is
in the benchmark is said in BENCHMARK.json.

A verdict is one check of a suite, or one model closure of the
``closure`` workload.  Its answer holds only fields that do not depend on
how fast the code is: ``ok``, the check's parameters (less the seed) and
its details, less ``runs``, which measures the search method rather than
its answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from choiceless import cardtable, labchecks

# The seven unary cardinal operations of the closure universe.
CLOSURE_OPS = ("fin", "injseq", "anyseq", "power", "pairs2", "square", "partitions")
# Each model closes its axioms once per group; the 49 depth-2 terms are
# split into this many seeded groups, so every term is closed against
# every model on every seed and only the grouping depends on the seed.
# One 16-term sample per model instead made the pass time vary by half
# from seed to seed; the full 49 terms at once made one closure take 26 s.
CLOSURE_GROUPS = 4

def build(workload: str, seed: int):
    """The workload's inputs for a seed.  Same seed, same inputs."""
    if workload in ("injections", "refutation"):
        return {"seed": seed}
    if workload == "closure":
        ops = [getattr(cardtable, op) for op in CLOSURE_OPS]
        terms = [f(g(cardtable.M)) for f in ops for g in ops]
        rng = random.Random(seed)
        plan: List[Tuple[str, int, list]] = []
        for model in cardtable.MODELS:
            order = terms[:]
            rng.shuffle(order)
            for group in range(CLOSURE_GROUPS):
                plan.append((model, group, order[group::CLOSURE_GROUPS]))
        return plan
    raise KeyError(f"unknown workload {workload!r}")


def run(workload: str, inputs) -> Tuple[Dict[str, dict], Tuple[int, int]]:
    """One pass over the inputs.

    Returns verdict id -> answer fields, and the leaves and runs the
    exhaustive searches report.  An exception escaping a suite leaves all
    its verdicts out, and the caller counts every missing verdict as
    failed; one escaping a model closure fails that verdict alone."""
    checks = labchecks.run_suite(workload, None if workload == "closure" else inputs)
    verdicts = {c["id"]: _check_answer(c) for c in checks}
    exhaustive = [c["details"] for c in checks if c["id"].startswith("refute-exhaustive-")]
    totals = (sum(d["tables"] for d in exhaustive), sum(d["runs"] for d in exhaustive))
    if workload == "closure":
        for model, group, extra in inputs:
            vid = f"close-{model}-{group}"
            try:
                closure = cardtable.close(
                    cardtable.model_axioms(model),
                    extra_terms=cardtable.model_extra_terms(model) + extra,
                )
            except Exception as exc:  # noqa: BLE001 - a verdict that raised fails
                verdicts[vid] = {"ok": False, "error": repr(exc)}
                continue
            verdicts[vid] = {
                "ok": closure.contradiction is None,
                "contradiction": closure.contradiction is not None,
                "facts": len(closure.facts),
                "digest": facts_digest(closure),
            }
    return verdicts, totals


def facts_digest(closure) -> str:
    """Digest of the derived facts alone, not of traces or rule names."""
    h = hashlib.sha256()
    for rel, a, b in closure.sorted_facts():
        h.update(f"{rel} {cardtable.display(a)} {cardtable.display(b)}\n".encode())
    return h.hexdigest()[:16]


def _check_answer(check: dict) -> dict:
    answer = {
        "ok": check["ok"],
        "params": {k: v for k, v in check["params"].items() if k != "seed"},
        "details": {k: v for k, v in check.get("details", {}).items() if k != "runs"},
    }
    # normalise tuples and the like to what JSON gives back
    return json.loads(json.dumps(answer, sort_keys=True))
