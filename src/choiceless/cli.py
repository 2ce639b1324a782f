"""Batch front end: verification suites, refutation engines against
built-in or scripted oracles, extractors, relation-table closures, and
witness re-checking.  Reports are deterministic for a fixed seed and
print as text or JSON; exit code 0 means every check passed."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import cardtable, labchecks, oracles
from .atoms import DenseOrderStructure, PureSetStructure
from .refute import (
    BudgetExhausted,
    EngineBug,
    OracleAnswerError,
    WitnessInvalid,
    verify_witness_json,
    witness_to_json,
)
from .symsets import count_least_supported, count_supported

USAGE_ERROR = 2
# the verify settings that are sizes, each with its own option
SIZE_SETTINGS = ("max_support", "max_atoms", "trials", "stream_length")


def _report(command: str, config: dict, checks: List[dict]) -> dict:
    failures = sum(1 for c in checks if not c["ok"])
    return {
        "version": 1,
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "checks": checks,
        "failures": failures,
    }


def _emit(report: dict, as_json: bool, out_path: Optional[str]) -> int:
    if as_json or out_path:
        blob = json.dumps(report, indent=2, sort_keys=True)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        if as_json:
            print(blob)
    if not as_json:
        for c in report["checks"]:
            mark = "PASS" if c["ok"] else "FAIL"
            print(f"[{mark}] {c['id']}: {c['claim']}")
            if not c["ok"] and c.get("details"):
                print(f"       {c['details']}")
        print(f"{report['failures']} failing check(s)")
    return 0 if report["failures"] == 0 else 1


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return USAGE_ERROR


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_verify(args) -> int:
    config = {key: getattr(args, key) for key in labchecks.SETTINGS}
    for key in SIZE_SETTINGS:
        if config[key] < 0:
            return _usage_error(f"{_flag(key)} must be at least 0, not {config[key]}")
    try:
        checks = labchecks.run_suite(args.suite, config)
    except KeyError as exc:
        return _usage_error(str(exc))
    return _emit(_report(f"verify:{args.suite}", config, checks), args.json, args.out)


def cmd_refute(args) -> int:
    engine = args.engine
    spec = oracles.REFUTE[engine]
    name = args.oracle or next(iter(spec.oracles))
    if args.model and args.model != spec.model:
        return _usage_error(f"engine {engine} argues inside the {spec.model!r} model")
    if name.startswith("@"):
        try:
            table = _read_json(name[1:])
            structure, support, oracle = oracles.scripted_refute_oracle(engine, table)
        except KeyError as exc:
            return _usage_error(f"oracle table {name[1:]} has no {exc} key")
        except (OSError, TypeError, ValueError) as exc:
            return _usage_error(f"cannot read oracle table {name[1:]}: {exc}")
        size = len(support)
    elif name in spec.oracles:
        size = spec.sizes[0] if args.support is None else args.support
        if size < 0:
            return _usage_error(f"--support must be at least 0, not {size}")
        structure, support, oracle = oracles.build_refute_oracle(engine, name, size, args.seed)
    else:
        return _usage_error(
            f"unknown oracle {name!r} for {engine}; have {list(spec.oracles)} or @table.json"
        )
    params = {"engine": engine, "oracle": name}
    try:
        witness = spec.run(oracle, budget=args.budget)
    except (OracleAnswerError, EngineBug, WitnessInvalid) as exc:
        ok, details = False, {"error": str(exc)}
    except ValueError as exc:  # the engine's precondition on its input
        return _usage_error(f"{engine}: {exc}")
    else:
        payload = witness_to_json(witness, engine, oracle)
        if args.emit_witness:
            with open(args.emit_witness, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        ok = not isinstance(witness, BudgetExhausted)
        params.update(support=size, seed=args.seed)
        details = {"witness": payload["witness"], "probes": len(oracle.transcript)}
    check = labchecks.check(
        f"refute-{engine}-{name}",
        "engine produced a verified contradiction witness",
        params,
        ok,
        **details,
    )
    return _emit(_report("refute", params, [check]), args.json, None)


def cmd_extract(args) -> int:
    engine, T = args.engine, args.stream_length
    spec = oracles.EXTRACT[engine]
    name = args.oracle or next(iter(spec.oracles))
    if name not in spec.oracles:
        return _usage_error(f"unknown oracle {name!r} for {engine}; have {list(spec.oracles)}")
    if T < 0 or args.copies < 1:
        return _usage_error("-T must be at least 0 and --copies at least 1")
    result = spec.run(name, T, args.copies)
    ok = result.ok if spec.oracles[name].honest else not result.ok
    check = labchecks.check(
        f"extract-{engine}-{name}",
        "honest oracles stream pairwise-distinct values; cheating "
        "oracles are convicted by a collapse report",
        {"engine": engine, "oracle": name, "T": T},
        ok,
        values=len(result.values),
        collapse=repr(result.collapse) if result.collapse else None,
    )
    return _emit(_report("extract", check["params"], [check]), args.json, None)


def cmd_table(args) -> int:
    if args.scenario == "forbidden":
        cl = cardtable.forbidden_pattern_closure()
        check = labchecks.check(
            "table-forbidden",
            "power below one-to-one sequences with the sequence kinds "
            "agreeing closes to a contradiction",
            {"scenario": "forbidden"},
            cl.contradiction is not None,
            trace=cl.explain_contradiction(),
        )
        return _emit(_report("table", check["params"], [check]), args.json, None)
    if args.model is None:
        checks = labchecks.check_closure()
        return _emit(_report("table", {}, checks), args.json, None)
    if args.model not in cardtable.MODELS:
        return _usage_error(f"unknown model {args.model!r}; have {list(cardtable.MODELS)}")
    cl = cardtable.model_closure(args.model)
    facts = [cardtable.show_fact(f) for f in cl.sorted_facts()]
    check = labchecks.check(
        f"table-{args.model}",
        "model axioms close without contradiction",
        {"model": args.model},
        cl.contradiction is None,
        facts=facts,
    )
    report = _report("table", check["params"], [check])
    if args.json:
        return _emit(report, True, None)
    print(f"closure of {args.model}: {len(cl.facts)} facts,", "consistent" if check["ok"] else "CONTRADICTION")
    for line in facts:
        print(" ", line)
    return 0 if check["ok"] else 1


def cmd_verify_witness(args) -> int:
    try:
        data = _read_json(args.path)
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot read witness {args.path}: {exc}")
    try:
        verify_witness_json(data)
    except Exception as exc:  # noqa: BLE001 - outcome, not crash
        print(f"INVALID witness: {exc}")
        return 1
    print("witness verified")
    return 0


def cmd_count_supports(args) -> int:
    if args.n < 0:
        return _usage_error(f"-n must be at least 0, not {args.n}")
    if args.model == "mostowski":
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(args.n)]
    elif args.model == "fraenkel":
        s = PureSetStructure(args.n)
        E = s.atoms()
    else:
        return _usage_error("count-supports knows the models: mostowski, fraenkel")
    total = count_supported(s, E)
    least = count_least_supported(s, E)
    if args.json:
        print(json.dumps({"model": args.model, "n": args.n, "supported": total, "least": least}, sort_keys=True))
    else:
        print(f"{args.model}: |E| = {args.n}: {total} subsets supported by E, {least} with least support E")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="choiceless",
        description="desk-scale laboratory for cardinal arithmetic over atom "
        "universes with finite supports",
    )
    sub = p.add_subparsers(dest="command", required=True)
    default = labchecks.SETTINGS

    def common(sp):
        sp.add_argument("--seed", type=int, default=default["seed"])
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--budget", type=int, default=default["budget"], help="pair-model sample size")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", default="all", choices=sorted(labchecks.SUITES))
    for key in SIZE_SETTINGS:
        v.add_argument(_flag(key), type=int, default=default[key])
    v.add_argument("--fast", action="store_true", default=default["fast"], help="trim the slowest checks")
    v.add_argument("--out", help="also write the JSON report to this path")
    common(v)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("refute", help="run a refutation engine against an oracle")
    r.add_argument("engine", choices=sorted(oracles.REFUTE))
    r.add_argument("--oracle", default=None, help="built-in name or @table.json")
    r.add_argument("--model", default=None, help="cross-check the engine's model")
    r.add_argument("--support", type=int, default=None)
    r.add_argument("--emit-witness", help="write the witness certificate to this path")
    common(r)
    r.set_defaults(fn=cmd_refute)

    e = sub.add_parser("extract", help="run an omega-sequence extractor")
    e.add_argument("engine", choices=sorted(oracles.EXTRACT))
    e.add_argument("--oracle", default=None)
    e.add_argument("-T", "--stream-length", type=int, default=default["stream_length"])
    e.add_argument("--copies", type=int, default=1, help="surplus engine: n")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_extract)

    t = sub.add_parser("table", help="close model axioms and check the relation table")
    t.add_argument("--model", default=None)
    t.add_argument("--scenario", choices=["forbidden"], default=None)
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_table)

    w = sub.add_parser("verify-witness", help="re-check a witness certificate file")
    w.add_argument("path")
    w.set_defaults(fn=cmd_verify_witness)

    c = sub.add_parser("count-supports", help="count supported subsets over a support")
    c.add_argument("--model", default="mostowski")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_count_supports)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) < 0:
        return _usage_error(f"--budget must be at least 0, not {args.budget}")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
