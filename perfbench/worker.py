"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace] [--spans FILE]

Prints one JSON line: the set-up time (importing the program and building
the inputs), and unless ``--setup-only`` the machine's speed around the
pass (see ``calibrate.py``), the pass's wall time, peak resident memory
and verdicts.  With ``--trace`` the pass runs under the
tracer and the line also carries its exact counts and per-layer metrics;
``--spans`` writes the coarse spans to FILE.  Exits with 3 when the
program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NO_PROGRAM = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if not (SRC / "choiceless" / "__init__.py").is_file():
        print(f"no program at {SRC}/choiceless", file=sys.stderr)
        return NO_PROGRAM
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import workloads
    except Exception as exc:  # noqa: BLE001 - any import failure means no program
        print(f"cannot import the program: {exc!r}", file=sys.stderr)
        return NO_PROGRAM
    inputs = workloads.build(args.workload, args.seed)
    out: dict = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import calibrate

    units = calibrate.unit_times()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    verdicts, totals = {}, (0, 0)
    t = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            verdicts, totals = workloads.run(args.workload, inputs)
    except Exception:  # noqa: BLE001 - a pass that raised is reported, not lost
        out["error"] = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - t
    out["unit_s"] = statistics.median(units + calibrate.unit_times())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["verdicts"] = verdicts
    if tracer is not None:
        out["counts"] = tracer.counts()
        out["layers"] = tracing.layer_metrics(tracer, *totals)
        if args.spans:
            _write_spans(tracer.spans, Path(args.spans))
    print(json.dumps(out, sort_keys=True))
    return 0


def _write_spans(spans, path: Path):
    origin = min((s[3] for s in spans), default=0)
    rows = [
        {"name": name, "label": label, "parent": parent,
         "start_s": (t0 - origin) / 1e9, "end_s": (t1 - origin) / 1e9}
        for name, label, parent, t0, t1 in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows))


if __name__ == "__main__":
    sys.exit(main())
