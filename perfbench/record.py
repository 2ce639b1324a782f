"""Record the answers every verdict is checked on.

    python3 perfbench/record.py --seeds 0-31

Runs one untraced pass per workload and seed, and writes
``perfbench/answers.json``.  Answers of verdicts whose ids start with a
prefix in ``SEEDED_PREFIXES`` are kept per seed; all others
must agree on every seed and are kept once.  Refuses to record a verdict
that is not ok.  Run it only on a commit whose answers are trusted: the
file is the benchmark's reference, and a later change must match it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, worker  # noqa: E402

SEEDED_PREFIXES = ("refute-builtin-", "close-")


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "answers.json"
    book = json.loads(path.read_text()) if path.is_file() else {}
    for workload in args.workloads:
        entry = book.setdefault(workload, {"any_seed": {}, "seeds": {}})
        for seed in args.seeds:
            done = worker(["--workload", workload, "--seed", str(seed)], 600)
            if "error" in done:
                print(done["error"], file=sys.stderr)
                return 1
            for vid, answer in sorted(done["verdicts"].items()):
                if not answer["ok"]:
                    print(f"{workload} seed {seed}: {vid} is not ok", file=sys.stderr)
                    return 1
                if vid.startswith(SEEDED_PREFIXES):
                    entry["seeds"].setdefault(str(seed), {})[vid] = answer
                elif entry["any_seed"].setdefault(vid, answer) != answer:
                    print(f"{workload}: {vid} differs on seed {seed}", file=sys.stderr)
                    return 1
            entry["seeds"].setdefault(str(seed), {})
            print(f"{workload} seed {seed}: {len(done['verdicts'])} verdicts", flush=True)
        path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
