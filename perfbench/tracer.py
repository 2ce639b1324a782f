"""Per-layer tracing from outside the program.

The tracer replaces the public functions and methods of each module
(layer) with wrappers while it is active, and puts the originals back on
exit.  Nothing under ``src/`` knows about it.

* Fine-grained calls (millions per pass) are never recorded one by one:
  each wrapper keeps a call count and a self time, accumulated on a call
  stack.  Self time is a call's duration minus the durations of the
  wrapped calls made inside it.
* Coarse boundaries (check functions, ``cardtable.close``, engine runs)
  also record a full span: name, label, parent span, start and end.

Every namespace that binds a traced function is patched, including
module-level dicts such as ``labchecks.REFUTE_ENGINES``, because several
modules import the type-layer functions by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

UNIVERSES = ("pure_set", "dense_order", "pair_model", "categorical")


def _exhaustive_label(engine, support_size, *_, **__):
    return f"{engine}.{support_size}"


# (module, attribute path, metric name, span?, label function)
TARGETS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("atoms", "extendable", "atoms.extendable", False, None),
    ("atoms", "extend_fixing", "atoms.extend_fixing", False, None),
    ("atoms", "fresh_realizer", "atoms.fresh_realizer", False, None),
    ("atoms", "LiftedAutomorphism.apply", "atoms.lift_apply", False, None),
    ("symsets", "types_over", "symsets.types_over", False, None),
    ("symsets", "restrict_type", "symsets.restrict_type", False, None),
    ("symsets", "least_support", "symsets.least_support", False, None),
    ("symsets", "SupportedSubset.is_supported_by", "symsets.is_supported_by", False, None),
    ("symsets", "SupportedSubset.canonical_key", "symsets.canonical_key", False, None),
    ("constructions", "class_rank", "constructions.class_rank", False, None),
    ("constructions", "act", "constructions.act", False, None),
    ("refute", "refute_fin_to_seq_fraenkel", "refute.engine.fin-to-seq", True, None),
    ("refute", "refute_fin_to_seqstar_fraenkel", "refute.engine.fin-to-seqstar", True, None),
    ("refute", "refute_seq_to_power_fraenkel", "refute.engine.seq-to-power", True, None),
    ("refute", "refute_nat_to_power_fraenkel", "refute.engine.nat-to-power", True, None),
    ("refute", "refute_unordered_to_ordered_pairmodel", "refute.engine.unordered-to-ordered", True, None),
    ("refute", "InjectionOracle.query", "refute.query", False, None),
    ("refute", "oracle_key", "refute.oracle_key", False, None),
    ("refute", "verify_witness", "refute.verify_witness", False, None),
    ("oracles", "build_refute_oracle", "oracles.build_refute_oracle", False, None),
    ("cardtable", "close", "cardtable.close", True, None),
    ("labchecks", "check_injections", "labchecks.check_injections", True, None),
    ("labchecks", "run_builtin_refutations", "labchecks.run_builtin_refutations", True, None),
    ("labchecks", "run_random_refutations", "labchecks.run_random_refutations", True, None),
    ("labchecks", "check_exhaustive_refutations", "labchecks.check_exhaustive_refutations", True, None),
    ("labchecks", "exhaustive_refutation_paths", "labchecks.exhaustive_refutation_paths", True, _exhaustive_label),
    ("labchecks", "check_seq_counting", "labchecks.check_seq_counting", True, None),
    ("labchecks", "check_closure", "labchecks.check_closure", True, None),
)

LAYERS = ("atoms", "symsets", "constructions", "refute", "oracles", "cardtable", "labchecks")
ENGINES = ("fin-to-seq", "fin-to-seqstar", "seq-to-power", "nat-to-power", "unordered-to-ordered")
EXHAUSTIVE_RUNS = tuple(
    f"{engine}.{size}"
    for engine in ("fin-to-seq", "fin-to-seqstar", "nat-to-power")
    for size in (0, 1)
)
CHECK_FUNCTIONS = tuple(
    name for _, _, name, span, _ in TARGETS if span and name.startswith("labchecks.")
)


def _resolve(module, path: str):
    """(owner, attribute, original function) for a dotted attribute path."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


class Tracer:
    """Context manager: wraps every target while active.

    ``stats[name]`` is ``[calls, self_ns]``; ``spans`` holds
    ``(name, label, parent_index, start_ns, end_ns)`` for coarse calls.
    """

    def __init__(self):
        self.stats: Dict[str, List[int]] = {}
        self.universe_calls: Dict[str, int] = {}
        self.close_facts = 0
        self.spans: List[Optional[tuple]] = []
        self._stack: List[List[int]] = [[0]]
        self._span_stack: List[int] = [-1]
        self._undo: List[Tuple[object, object, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, fn, stat, before=None):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - child[0]

        return wrapper

    def _spanned(self, fn, name, stat, label_fn, after=None):
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_fn(*args, **kwargs) if label_fn else ""
            index = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(index)
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                span_stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - child[0]
                spans[index] = (name, label, parent, t0, t1)

        return wrapper

    def _count_universe(self, args):
        kind = args[0].structure.kind
        self.universe_calls[kind] = self.universe_calls.get(kind, 0) + 1

    def _count_facts(self, closure):
        self.close_facts += len(closure.facts)

    def _make_wrapper(self, fn, name, span, label_fn):
        stat = self.stats.setdefault(name, [0, 0])
        if span:
            after = self._count_facts if name == "cardtable.close" else None
            return self._spanned(fn, name, stat, label_fn, after)
        before = self._count_universe if name == "atoms.lift_apply" else None
        return self._timed(fn, stat, before)

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        for mod_name, path, name, span, label_fn in TARGETS:
            module = importlib.import_module(f"choiceless.{mod_name}")
            owner, attr, fn = _resolve(module, path)
            wrapper = self._make_wrapper(fn, name, span, label_fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for namespace in _choiceless_modules():
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patch(namespace, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                self._patch(value, dkey, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        return False

    # -- results ----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Every exact count the trace gives, keyed by metric name."""
        out = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        for universe in UNIVERSES:
            out[f"atoms.lift_apply.{universe}.calls"] = self.universe_calls.get(universe, 0)
        out["cardtable.close.facts"] = self.close_facts
        return out

    def self_seconds(self) -> Dict[str, float]:
        return {name: stat[1] / 1e9 for name, stat in self.stats.items()}

    def span_seconds(self) -> Dict[str, float]:
        """Total span time per check function, and per (engine, support)
        run of the exhaustive search."""
        out: Dict[str, float] = {}
        for name, label, _, t0, t1 in self.spans:
            if not name.startswith("labchecks."):
                continue
            key = f"{name}.{label}" if label else name
            out[key] = out.get(key, 0.0) + (t1 - t0) / 1e9
        return out


def _choiceless_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "choiceless" or name.startswith("choiceless."))
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, exhaustive_tables: int, exhaustive_runs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name.

    The exhaustive-search totals come from the pass's own check details,
    since the search reports them itself."""
    counts = tracer.counts()
    self_s = tracer.self_seconds()
    spans = tracer.span_seconds()
    c = lambda name: counts.get(f"{name}.calls", 0)  # noqa: E731
    m: Dict[str, float] = {}

    for fn in ("extendable", "extend_fixing"):
        m[f"atoms.{fn}.calls"] = c(f"atoms.{fn}")
        m[f"atoms.{fn}.self_s"] = self_s[f"atoms.{fn}"]
    for universe in UNIVERSES:
        m[f"atoms.lift_apply.{universe}.calls"] = counts[f"atoms.lift_apply.{universe}.calls"]
    m["atoms.lift_apply.self_s"] = self_s["atoms.lift_apply"]
    m["atoms.fresh_realizer.calls"] = c("atoms.fresh_realizer")

    for fn in ("types_over", "restrict_type", "least_support", "canonical_key"):
        m[f"symsets.{fn}.calls"] = c(f"symsets.{fn}")
        m[f"symsets.{fn}.self_s"] = self_s[f"symsets.{fn}"]
    m["symsets.is_supported_by.calls"] = c("symsets.is_supported_by")

    for fn in ("class_rank", "act"):
        m[f"constructions.{fn}.calls"] = c(f"constructions.{fn}")
        m[f"constructions.{fn}.self_s"] = self_s[f"constructions.{fn}"]
    m["constructions.restrict_per_rank"] = _ratio(
        c("symsets.restrict_type"), c("constructions.class_rank")
    )

    engine_runs = 0
    for engine in ENGINES:
        m[f"refute.engine.{engine}.calls"] = c(f"refute.engine.{engine}")
        engine_runs += c(f"refute.engine.{engine}")
    for fn in ("query", "oracle_key", "verify_witness"):
        m[f"refute.{fn}.calls"] = c(f"refute.{fn}")
        m[f"refute.{fn}.self_s"] = self_s[f"refute.{fn}"]
    m["refute.probes_per_run"] = _ratio(c("refute.query"), engine_runs)
    m["refute.keys_per_probe"] = _ratio(c("refute.oracle_key"), c("refute.query"))
    m["refute.verifies_per_leaf"] = _ratio(c("refute.verify_witness"), exhaustive_tables)

    m["oracles.build_refute_oracle.calls"] = c("oracles.build_refute_oracle")
    m["oracles.build_refute_oracle.self_s"] = self_s["oracles.build_refute_oracle"]

    m["cardtable.close.calls"] = c("cardtable.close")
    m["cardtable.close.self_s"] = self_s["cardtable.close"]
    m["cardtable.close.facts"] = counts["cardtable.close.facts"]

    for name in CHECK_FUNCTIONS:
        if name == "labchecks.exhaustive_refutation_paths":
            for run in EXHAUSTIVE_RUNS:
                m[f"{name}.{run}.wall_s"] = spans.get(f"{name}.{run}", 0.0)
        else:
            m[f"{name}.wall_s"] = spans.get(name, 0.0)
    m["labchecks.exhaustive.tables"] = exhaustive_tables
    m["labchecks.exhaustive.runs"] = exhaustive_runs
    m["labchecks.exhaustive.leaf_ratio"] = _ratio(exhaustive_tables, exhaustive_runs)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            seconds for name, seconds in self_s.items() if name.startswith(layer + ".")
        )
    return m


# metric name -> (unit, better); the order is the order of BENCHMARK.json
def metric_units() -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    for name in _metric_names():
        if name.endswith((".self_s", ".wall_s", ".overhead_s")):
            out[name] = ("s", "lower")
        elif name in ("labchecks.exhaustive.tables", "cardtable.close.facts"):
            out[name] = ("count", "higher")
        elif name == "labchecks.exhaustive.leaf_ratio":
            out[name] = ("ratio", "higher")
        elif name.endswith(("_per_rank", "_per_run", "_per_probe", "_per_leaf")):
            out[name] = ("ratio", "lower")
        else:
            out[name] = ("count", "lower")
    return out


def _metric_names() -> List[str]:
    tracer = Tracer()
    for _, _, name, _, _ in TARGETS:
        tracer.stats[name] = [0, 0]
    return list(layer_metrics(tracer, 0, 0)) + ["trace.overhead_s"]
