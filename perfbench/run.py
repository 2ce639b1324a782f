"""The lab's benchmark harness (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``injections``, ``refutation`` or ``closure``, see
``workloads.py``) as a closed loop: each pass runs in a fresh worker
process, a client starts its next pass when the previous one has ended,
and passes keep starting until S seconds have gone.  Every verdict of
every pass is checked against ``answers.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failure ratio, counted over all verdicts of all passes.

* ``--trace 0``: the end-to-end metrics, tracing off, with one client
  per CPU (at most two) looping side by side.  ``setup_s`` is the median
  of the set-up-only workers (import the program, build the inputs) run
  before each pass; ``wall_s`` and ``peak_rss_mb`` are medians over all
  passes.  Both times are given at a reference machine speed, measured
  by each pass's worker around its pass (see ``calibrate.py``); the
  times as measured go to standard error.
* ``--trace 1``: the per-layer metrics, one client.  Untraced and
  traced passes alternate; counts must repeat exactly across traced
  passes, times are medians, and ``trace.overhead_s`` is the traced
  median wall time less the untraced one.  The last traced pass's spans go to ``perfbench/out/``.

Exits with 2, printing no result, when the program or the recorded
answers are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

import tracer as tracing
from calibrate import REFERENCE_UNIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("injections", "refutation", "closure")
# set-up-only workers before each untraced pass; their median is setup_s
SETUP_SAMPLES_PER_PASS = 5
# Untraced runs keep one closed-loop client per CPU, up to two.  On a
# small shared VM each vCPU slows down and speeds up on its own (their
# speeds barely correlate), so a second client doubles the passes behind
# each median without making the run longer.
CLIENTS = min(2, len(os.sched_getaffinity(0)))
# a run must end within 180 s, builds aside
DEADLINE_S = 165.0
NO_PROGRAM = 3


class NoProgram(Exception):
    pass


def worker(args: List[str], timeout: float) -> dict:
    """Run one worker process to completion and return its JSON line.

    Set-up failures raise ``NoProgram``; a pass that crashes, times out or
    prints nothing usable comes back as ``{"error": ...}``."""
    # a fixed hash seed makes set iteration, and so the traced counts,
    # repeat exactly from one process to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode == NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


class Checker:
    """Counts attempted and failed verdicts against the recorded answers.

    Answers that depend on the seed are recorded for a range of seeds.
    For a seed outside it those verdicts must still be ok and must agree
    across every pass of the run."""

    def __init__(self, book: dict, seed: int):
        self.expected: Dict[str, dict] = dict(book["any_seed"])
        recorded = book["seeds"].get(str(seed))
        self.unrecorded = set() if recorded is not None else set(book["seeds"]["0"])
        self.expected.update(recorded or {})
        self.first: Dict[str, Optional[dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.bad: List[str] = []

    def check(self, verdicts: Dict[str, dict]):
        for vid in sorted(set(self.expected) | self.unrecorded | set(verdicts)):
            got = verdicts.get(vid)
            if vid in self.expected:
                want = self.expected[vid]
            elif vid in self.unrecorded:
                want = self.first.setdefault(vid, got)
            else:
                want = None
            self.attempted += 1
            if got is None or not got.get("ok") or got != want:
                self.failed += 1
                self.bad.append(vid)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    book = json.loads((HERE / "answers.json").read_text())[workload]
    base = ["--workload", workload, "--seed", str(seed)]

    def remaining() -> float:
        return deadline - time.monotonic()

    # the first import writes the bytecode cache; its time is not a sample
    worker(base + ["--setup-only"], remaining())

    traced: List[dict] = []

    def closed_loop():
        """One client: its next pass starts when the previous one ended.
        Untraced runs take set-up samples before each pass, spread over the
        run so that one slow spell of the machine does not set the figure;
        traced runs follow each untraced pass with a traced one."""
        setups: List[float] = []
        passes: List[dict] = []
        loop_start = time.monotonic()
        while not passes or (time.monotonic() - loop_start < seconds and remaining() > 0):
            batch = []
            if not trace:
                batch = [worker(base + ["--setup-only"], remaining()) for _ in range(SETUP_SAMPLES_PER_PASS)]
            done = worker(base, remaining())
            if "unit_s" in done:
                # the set-up samples were taken just before, on this client
                scale = REFERENCE_UNIT_S / done["unit_s"]
                done["ref_wall_s"] = done["wall_s"] * scale
                setups.extend(b["setup_s"] * scale for b in batch if "setup_s" in b)
            passes.append(done)
            if trace:
                spans = HERE / "out" / f"spans-{workload}-{seed}.json"
                traced.append(worker(base + ["--trace", "--spans", str(spans)], remaining()))
            if any("error" in p for p in passes + traced):
                break
        return setups, passes

    clients = 1 if trace else CLIENTS
    with ThreadPoolExecutor(clients) as pool:
        done = [f.result() for f in [pool.submit(closed_loop) for _ in range(clients)]]
    setups = [s for d in done for s in d[0]]
    passes = [p for d in done for p in d[1]]
    checker = Checker(book, seed)
    for p in passes + traced:
        checker.check(p.get("verdicts", {}))

    errors = [p["error"] for p in passes + traced if "error" in p]
    for err in errors:
        print(err, file=sys.stderr)
    if checker.bad:
        print(f"failed verdicts: {sorted(set(checker.bad))}", file=sys.stderr)
    correct = not errors and checker.failed == 0
    walls = [p["wall_s"] for p in passes if "wall_s" in p]
    ref_walls = [p["ref_wall_s"] for p in passes if "ref_wall_s" in p]
    print(f"{len(passes)} untraced passes, wall_s as measured {[round(w, 3) for w in walls]}, "
          f"at reference speed {[round(w, 3) for w in ref_walls]}", file=sys.stderr)
    if not trace:
        metrics = {
            "setup_s": (_median(setups), "s"),
            "wall_s": (_median(ref_walls), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes if "peak_rss_mb" in p]), "MiB"),
        }
    else:
        units = tracing.metric_units()
        layered = [p for p in traced if "layers" in p]
        if any(p["counts"] != layered[0]["counts"] for p in layered):
            print("traced counts differ between passes of one seed", file=sys.stderr)
            correct = False
        metrics = {}
        for name, (unit, _) in units.items():
            if name == "trace.overhead_s":
                value = _median([p["wall_s"] for p in layered]) - _median(walls)
            elif unit == "s":
                value = _median([p["layers"][name] for p in layered])
            else:
                value = layered[0]["layers"][name] if layered else 0
            metrics[name] = (value, unit)
    return {
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (HERE / "answers.json").is_file():
        print("no recorded answers at perfbench/answers.json", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoProgram as exc:
        print(f"cannot run the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
