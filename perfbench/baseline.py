"""Measure the baselines kept in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --seeds 0 1

Runs ``run.py`` once untraced and once traced for every workload and
seed, and stores each result line under ``baselines[workload][seed]``
together with the machine it ran on.  The other keys of the file (the
layer table) are left as they are.  Timings belong to the commit and the
machine they were taken on; counts repeat on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    path = HERE / "baseline.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "processor": platform.processor() or platform.machine(),
    }
    doc["run_seconds"] = seconds
    for workload in WORKLOADS:
        for seed in args.seeds:
            entry = doc.setdefault("baselines", {}).setdefault(workload, {})
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, cwd=HERE.parent, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                    return 1
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                metrics[f"failed_of_attempted.trace{trace}"] = f"{result['failed']}/{result['attempted']}"
                entry.setdefault(str(seed), {}).update(metrics)
                print(f"{workload} seed {seed} trace {trace}: done", flush=True)
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
