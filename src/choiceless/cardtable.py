"""Deduction engine over cardinal-relation facts, plus the arithmetic
lemmas the refutation arguments lean on.

Facts relate expressions built from one base cardinal (finite subsets,
one-to-one and arbitrary finite sequences, power object, pair sets,
squares, partitions, small multiples).  Closure applies a fixed rule
set over a fixed finite expression universe: no rule ever invents a new
expression, so the closure is a terminating least fixed point and every
derived fact carries a replayable trace.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from math import factorial
from typing import Dict, Iterable, KeysView, List, Optional, Sequence, Set, Tuple


class CExpr:
    """Cardinal expression; structural identity.  The key and its hash are
    computed once, from the inner expression's key."""

    __slots__ = ("op", "inner", "n", "_key", "_hash")

    def __init__(self, op: str, inner: Optional["CExpr"] = None, n: Optional[int] = None):
        key = (op, inner._key if inner is not None else None, n)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *_):
        raise AttributeError("expressions are immutable")

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, CExpr) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return display(self)


BASE = CExpr("base")
ALEPH0 = CExpr("aleph0")


def fin(e: CExpr) -> CExpr:
    return CExpr("fin", e)


def injseq(e: CExpr) -> CExpr:
    return CExpr("injseq", e)


def anyseq(e: CExpr) -> CExpr:
    return CExpr("anyseq", e)


def power(e: CExpr) -> CExpr:
    return CExpr("pow", e)


def pairs2(e: CExpr) -> CExpr:
    return CExpr("pairs2", e)


def square(e: CExpr) -> CExpr:
    return CExpr("square", e)


def partitions(e: CExpr) -> CExpr:
    return CExpr("part", e)


def times(n: int, e: CExpr) -> CExpr:
    if n < 1:
        raise ValueError("multiplier must be positive")
    return CExpr("times", e, n)


_SHOW = {
    "base": "m",
    "aleph0": "aleph0",
    "fin": "Fin({0})",
    "injseq": "Seq({0})",
    "anyseq": "seq({0})",
    "pow": "2^({0})",
    "pairs2": "[{0}]^2",
    "square": "({0})^2",
    "part": "Part({0})",
}


def display(e: CExpr) -> str:
    if e.op in ("base", "aleph0"):
        return _SHOW[e.op]
    if e.op == "times":
        return f"{e.n}*{display(e.inner)}"
    return _SHOW[e.op].format(display(e.inner))


def subterms(e: CExpr) -> Set[CExpr]:
    out = {e}
    if e.inner is not None:
        out |= subterms(e.inner)
    return out


# facts: (rel, a, b) with rel in {le, ne, eq, lestar, nle, inc}
Fact = Tuple[str, CExpr, CExpr]

_RELS = {"le", "ne", "eq", "lestar", "nle", "inc"}


def expand(rel: str, a: CExpr, b: CExpr) -> List[Fact]:
    if rel == "lt":
        return [("le", a, b), ("ne", a, b)]
    if rel == "gt":
        return [("le", b, a), ("ne", a, b)]
    if rel in _RELS:
        return [(rel, a, b)]
    raise ValueError(f"unknown relation {rel!r}")


def show_fact(f: Fact) -> str:
    rel, a, b = f
    sym = {
        "le": "<=",
        "ne": "!=",
        "eq": "=",
        "lestar": "<=*",
        "nle": "!<=",
        "inc": "||",
    }[rel]
    return f"{display(a)} {sym} {display(b)}"


class Contradiction(Exception):
    def __init__(self, facts: Sequence[Fact], closure: "Closure"):
        self.facts = list(facts)
        self.closure = closure
        super().__init__(" with ".join(show_fact(f) for f in facts))


class Closure:
    """Least fixed point of the rule set over a finite term universe."""

    def __init__(self, universe: Set[CExpr]):
        self.universe = universe
        # each fact's first derivation, in the order the facts were found;
        # the one fact store, read as a set through `facts`
        self.trace: Dict[Fact, Tuple[str, Tuple[Fact, ...]]] = {}
        self.facts: KeysView[Fact] = self.trace.keys()
        self.contradiction: Optional[List[Fact]] = None
        # rounds run (the last adds nothing, or meets the contradiction)
        self.rounds = 0
        self.contradiction_round: Optional[int] = None

    def add(self, fact: Fact, rule: str, premises: Tuple[Fact, ...] = ()) -> bool:
        if fact in self.trace:
            return False
        self.trace[fact] = (rule, premises)
        return True

    def has(self, rel: str, a: CExpr, b: CExpr) -> bool:
        if rel == "lt":
            return self.has("le", a, b) and self.has("ne", a, b)
        if rel == "gt":
            return self.has("lt", b, a)
        return (rel, a, b) in self.facts

    def holds_between(self, a: CExpr, b: CExpr) -> Set[str]:
        """Human-level relation symbols the closure settles for the pair."""
        out = set()
        if self.has("eq", a, b):
            out.add("=")
        if self.has("lt", a, b):
            out.add("<")
        if self.has("lt", b, a):
            out.add(">")
        if self.has("ne", a, b):
            out.add("!=")
        if self.has("inc", a, b) or self.has("inc", b, a):
            out.add("||")
        return out

    def explain(self, fact: Fact, depth: int = 0, seen: Optional[set] = None) -> List[str]:
        seen = seen if seen is not None else set()
        rule, premises = self.trace[fact]
        lines = ["  " * depth + f"{show_fact(fact)}   [{rule}]"]
        if fact in seen:
            return lines
        seen.add(fact)
        for p in premises:
            lines.extend(self.explain(p, depth + 1, seen))
        return lines

    def explain_contradiction(self) -> List[str]:
        """The `explain` lines of each clashing fact; none if consistent."""
        return [line for f in self.contradiction or () for line in self.explain(f)]

    def rule_counts(self) -> Dict[str, int]:
        """Facts recorded per rule, axiom and schema, read off the trace."""
        return dict(sorted(Counter(rule for rule, _ in self.trace.values()).items()))

    def sorted_facts(self) -> List[Fact]:
        return sorted(self.facts, key=lambda f: (f[0], f[1].key(), f[2].key()))


def close(
    axioms: Iterable[Tuple[str, CExpr, CExpr, str]],
    extra_terms: Iterable[CExpr] = (),
) -> Closure:
    """Close a fact set under the rule pack.

    Axioms are (relation, lhs, rhs, label); strict relations expand into
    their components.  Detecting an inconsistency stops the run and
    records the clashing pair, replayable through the trace.
    """
    universe: Set[CExpr] = {BASE, ALEPH0}
    prepared: List[Tuple[Fact, str]] = []
    for rel, a, b, label in axioms:
        universe |= subterms(a) | subterms(b)
        for f in expand(rel, a, b):
            prepared.append((f, label))
    for t in extra_terms:
        universe |= subterms(t)
    cl = Closure(universe)
    for f, label in prepared:
        cl.add(f, f"axiom:{label}")
    _add_schemas(cl)
    try:
        _fixpoint(cl)
    except Contradiction as c:
        cl.contradiction = c.facts
    return cl


def _add_schemas(cl: Closure):
    U = cl.universe

    def have(*ts):
        return all(t in U for t in ts)

    for e in sorted(U, key=lambda t: t.key()):
        pe, fe = power(e), fin(e)
        if have(pe):
            cl.add(("le", e, pe), "schema:cantor")
            cl.add(("ne", e, pe), "schema:cantor")
        if have(fe):
            cl.add(("le", e, fe), "schema:singleton-map")
        if have(fe, pe):
            cl.add(("le", fe, pe), "schema:finite-sets-are-subsets")
            cl.add(("ne", fe, pe), "schema:strictly-few-finite-sets")
        if have(injseq(e), pe):
            cl.add(("ne", injseq(e), pe), "schema:one-to-one-sequences-never-power")
        if have(anyseq(e), pe):
            cl.add(("ne", anyseq(e), pe), "schema:sequences-never-power")
        if have(square(e), fin(fin(e))):
            cl.add(("le", square(e), fin(fin(e))), "schema:pair-as-nested-set")
        if have(injseq(e), fin(fin(e))):
            cl.add(("le", injseq(e), fin(fin(e))), "schema:sequence-as-chain")
        if have(injseq(e), anyseq(e)):
            cl.add(("le", injseq(e), anyseq(e)), "schema:one-to-one-is-a-sequence")
        if have(e, square(e)):
            cl.add(("le", e, square(e)), "schema:diagonal")
        if have(pairs2(e), fe):
            cl.add(("le", pairs2(e), fe), "schema:pairs-are-finite-sets")
        if have(power(ALEPH0), power(fe)):
            cl.add(
                ("le", power(ALEPH0), power(fe)), "schema:size-classes-of-finite-sets"
            )
        if have(partitions(e), power(pairs2(e))):
            cl.add(
                ("le", partitions(e), power(pairs2(e))),
                "schema:partition-edge-sets",
            )
        if have(power(e), partitions(e)):
            cl.add(("le", power(e), partitions(e)), "schema:subsets-split-in-two")
        for n in range(1, 9):
            if have(times(n, e), times(n + 1, e)):
                cl.add(
                    ("le", times(n, e), times(n + 1, e)), "schema:copies-embed"
                )
        if have(times(1, e)):
            cl.add(("eq", times(1, e), e), "schema:one-copy")


def _index(facts: Iterable[Fact], index=None):
    """Facts by relation, by (relation, lhs), by (relation, rhs) and by each
    term they mention, every list in the order the facts come in.  Given
    an index, appends the facts to it; otherwise starts a new one."""
    by_rel, lhs, rhs, touch = index or (defaultdict(list) for _ in range(4))
    for f in facts:
        rel, a, b = f
        by_rel[rel].append(f)
        lhs[rel, a].append(f)
        rhs[rel, b].append(f)
        touch[a].append(f)
        if b != a:
            touch[b].append(f)
    return by_rel, lhs, rhs, touch


def _fixpoint(cl: Closure):
    """Semi-naive rounds.  A round joins the facts new since the last round
    against the facts known at its start, found through indexes; a join of
    old facts alone would only re-derive what the last round recorded.
    Each rule walks its matches in derivation order, so a round records
    the same facts, in the same order and from the same premises, as
    joining all pairs, and the trace is the same in every process.  A rule
    whose other premise is a single lookup checks every fact."""
    U = cl.universe

    def emit(fact, rule, premises):
        rel, a, b = fact
        if a not in U or b not in U:
            return
        if cl.add(fact, rule, premises):
            _check_contra(cl, fact)

    pos: Dict[Fact, int] = {}  # round-start facts by trace position
    index = None  # the same facts, indexed; both grow by each round's batch
    changed = True
    while changed:
        cl.rounds += 1
        batch = list(itertools.islice(cl.trace, len(pos), None))
        pos.update(zip(batch, itertools.count(len(pos))))
        by_rel, lhs, rhs, touch = index = _index(batch, index)
        new_rel, new_lhs, new_rhs, new_touch = _index(batch)
        new = set(batch)
        les = by_rel["le"]

        def walk(*groups):
            return sorted(set(itertools.chain(*groups)), key=pos.__getitem__)

        # symmetry and definitional components
        for f in new_rel["eq"]:
            _, a, b = f
            emit(("eq", b, a), "eq-symmetric", (f,))
            emit(("le", a, b), "eq-both-ways", (f,))
            emit(("le", b, a), "eq-both-ways", (f,))
        for f in new_rel["ne"]:
            _, a, b = f
            emit(("ne", b, a), "ne-symmetric", (f,))
        for f in new_rel["inc"]:
            _, a, b = f
            emit(("inc", b, a), "incomparable-symmetric", (f,))
            emit(("nle", a, b), "incomparable-means-no-map", (f,))
            emit(("nle", b, a), "incomparable-means-no-map", (f,))
        for f in new_rel["le"]:
            _, a, b = f
            emit(("lestar", a, b), "injection-gives-surjection", (f,))
        # transitive and mixed rules
        for f in les:
            _, a, b = f
            for g in (lhs if f in new else new_lhs)["le", b]:
                emit(("le", a, g[2]), "le-transitive", (f, g))
            if ("le", b, a) in pos:
                emit(("eq", a, b), "cantor-bernstein", (f, ("le", b, a)))
        for f in les:
            _, a, b = f
            if f in new:
                ups = walk(lhs["ne", b], rhs["ne", b])
            else:  # a new ne fact at b, or an old one beside a new le(b, c)
                cs = [h[2] for h in new_lhs["le", b]]
                via = [g for c in cs for g in (("ne", b, c), ("ne", c, b)) if g in pos]
                ups = walk(new_lhs["ne", b], new_rhs["ne", b], via)
            for g in ups:
                c = g[2] if g[1] == b else g[1]
                if ("le", b, c) in pos:
                    emit(("ne", a, c), "strictness-travels-up", (f, ("le", b, c), g))
            for g in walk(g for g in (("ne", a, b), ("ne", b, a)) if g in pos):
                for h in (lhs if f in new or g in new else new_lhs)["le", b]:
                    emit(("ne", a, h[2]), "strictness-travels-down", (f, g, h))
        for f in by_rel["nle"]:
            _, a, b = f
            into, out = (rhs, lhs) if f in new else (new_rhs, new_lhs)
            for g in walk(into["le", b], out["le", a]):
                if g[2] == b:
                    emit(("nle", a, g[1]), "no-map-into-smaller", (f, g))
                if g[1] == a:
                    emit(("nle", g[2], b), "no-map-from-larger", (f, g))
            if ("nle", b, a) in cl.facts:
                emit(("inc", a, b), "mutually-unmapped", (f, ("nle", b, a)))
        # equality substitution
        for f in by_rel["eq"]:
            _, a, b = f
            for g in (touch if f in new else new_touch)[a]:
                rel, x, y = g
                if x == a:
                    emit((rel, b, y), "substitute-equal", (f, g))
                if y == a:
                    emit((rel, x, b), "substitute-equal", (f, g))
        # power monotone under surjections
        for f in new_rel["lestar"]:
            _, a, b = f
            emit(("le", power(a), power(b)), "power-of-surjection", (f,))
        # sequences agreeing forces a countable subset
        for f in new_rel["eq"]:
            _, a, b = f
            if a.op == "injseq" and b.op == "anyseq" and a.inner == b.inner:
                emit(("le", ALEPH0, a.inner), "repeats-give-counting", (f,))
        # a countable power side kills sequence codings
        for f in new_rel["le"]:
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                emit(("nle", b, injseq(b.inner)), "no-power-into-one-to-one-sequences", (f,))
        for f in new_rel["le"]:
            _, a, b = f
            if a == ALEPH0:
                emit(("nle", power(b), anyseq(b)), "no-power-into-sequences", (f,))
        # Dedekind-finite power: strict surplus and partition growth
        for f in new_rel["nle"]:
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                for n in range(1, 9):
                    emit(("ne", times(n, b), times(n + 1, b)), "surplus-copy-is-new", (f,))
                emit(("ne", b, partitions(b.inner)), "partitions-outgrow-subsets", (f,))
        changed = len(cl.trace) > len(pos)


def _check_contra(cl: Closure, fact: Fact):
    rel, a, b = fact
    clash = None
    if rel == "ne" and a == b:
        clash = [fact]
    elif rel == "le" and ("nle", a, b) in cl.facts:
        clash = [fact, ("nle", a, b)]
    elif rel == "nle" and ("le", a, b) in cl.facts:
        clash = [("le", a, b), fact]
    elif rel == "eq" and ("ne", a, b) in cl.facts:
        clash = [fact, ("ne", a, b)]
    elif rel == "ne" and ("eq", a, b) in cl.facts:
        clash = [("eq", a, b), fact]
    if clash:
        cl.contradiction_round = cl.rounds
        raise Contradiction(clash, cl)


# ---------------------------------------------------------------------------
# built-in axiom sets


M = BASE


def model_axioms(name: str) -> List[Tuple[str, CExpr, CExpr, str]]:
    """Per-model relation axioms between the derived cardinals of one
    infinite base cardinal."""
    if name == "fraenkel":
        return [
            ("inc", fin(M), injseq(M), "fraenkel:finite-vs-one-to-one"),
            ("inc", fin(M), anyseq(M), "fraenkel:finite-vs-sequences"),
            ("inc", injseq(M), power(M), "fraenkel:one-to-one-vs-power"),
            ("inc", anyseq(M), power(M), "fraenkel:sequences-vs-power"),
            ("nle", ALEPH0, power(M), "fraenkel:power-dedekind-finite"),
            ("lt", M, pairs2(M), "fraenkel:more-pairs-than-atoms"),
        ]
    if name == "mostowski":
        chain = [
            M,
            pairs2(M),
            square(M),
            fin(M),
            power(M),
            injseq(M),
            fin(fin(M)),
            injseq(fin(M)),
            fin(power(M)),
            fin(fin(fin(M))),
            fin(fin(fin(fin(M)))),
            anyseq(M),
            power(fin(M)),
        ]
        out = [
            ("lt", a, b, "mostowski:chain")
            for a, b in zip(chain, chain[1:])
        ]
        out.append(("lestar", power(M), fin(M), "mostowski:power-maps-onto-finite-sets"))
        out.append(("nle", ALEPH0, power(M), "mostowski:power-dedekind-finite"))
        return out
    if name == "vs":
        return [
            ("lt", injseq(M), anyseq(M), "vs:one-to-one-below-sequences"),
            ("lt", anyseq(M), fin(M), "vs:sequences-below-finite-sets"),
            ("lt", fin(M), power(M), "vs:finite-sets-below-power"),
        ]
    if name == "vc":
        return [
            ("lt", fin(M), injseq(M), "vc:finite-sets-below-one-to-one"),
            ("lt", injseq(M), power(M), "vc:one-to-one-below-power"),
            ("lt", power(M), anyseq(M), "vc:power-below-sequences"),
        ]
    if name == "vp":
        return [
            ("lt", square(M), pairs2(M), "vp:squares-below-pairs"),
            ("lt", M, pairs2(M), "vp:more-pairs-than-atoms"),
        ]
    if name == "aleph0":
        eqs = [
            fin(M),
            injseq(M),
            anyseq(M),
            square(M),
            pairs2(M),
            fin(fin(M)),
        ]
        out = [("eq", M, ALEPH0, "aleph0:base-countable")]
        out.extend(("eq", e, M, "aleph0:countable-collapse") for e in eqs)
        return out
    raise ValueError(f"unknown model {name!r}")


MODELS = ("fraenkel", "mostowski", "vs", "vc", "vp", "aleph0")


def model_extra_terms(name: str) -> List[CExpr]:
    # every model can state the table entries; some carry demo extras
    base = [M, fin(M), injseq(M), anyseq(M), power(M)]
    if name == "fraenkel":
        return base + [
            times(1, power(M)),
            times(2, power(M)),
            times(3, power(M)),
            partitions(M),
            power(pairs2(M)),
        ]
    if name == "mostowski":
        return base + [power(power(M))]
    return base


def model_closure(name: str) -> Closure:
    return close(model_axioms(name), extra_terms=model_extra_terms(name))


# ---------------------------------------------------------------------------
# summary table


TABLE_TERMS = [M, fin(M), injseq(M), anyseq(M), power(M)]

TABLE_CLAIMS: Dict[Tuple[int, int], Set[str]] = {
    (0, 1): {"=", "<"},
    (0, 2): {"=", "<"},
    (0, 3): {"=", "<"},
    (0, 4): {"<"},
    (1, 2): {">", "=", "<", "||"},
    (1, 3): {">", "=", "<", "||"},
    (1, 4): {"<"},
    (2, 3): {"=", "<"},
    (2, 4): {">", "!=", "<", "||"},
    (3, 4): {">", "!=", "<", "||"},
}

ZF_FACTS: List[Tuple[str, CExpr, CExpr]] = [
    ("lt", M, power(M)),
    ("lt", fin(M), power(M)),
    ("ne", injseq(M), power(M)),
    ("ne", anyseq(M), power(M)),
]

ORDER_SCENARIOS = {
    "one-to-one-equals-sequences-below-power": (
        "aleph0",
        [("eq", injseq(M), anyseq(M)), ("lt", anyseq(M), power(M))],
    ),
    "one-to-one-below-sequences-below-power": (
        "vs",
        [("lt", injseq(M), anyseq(M)), ("lt", anyseq(M), power(M))],
    ),
    "power-between-sequence-kinds": (
        "vc",
        [("lt", injseq(M), power(M)), ("lt", power(M), anyseq(M))],
    ),
    "power-below-both-sequence-kinds": (
        "mostowski",
        [("lt", power(M), injseq(M)), ("lt", injseq(M), anyseq(M))],
    ),
}


def forbidden_pattern_closure() -> Closure:
    """Power below the one-to-one sequences while the two sequence kinds
    agree: must close to a contradiction."""
    return close(
        [
            ("le", power(M), injseq(M), "scenario:power-into-one-to-one"),
            ("eq", injseq(M), anyseq(M), "scenario:sequence-kinds-agree"),
        ]
    )


def check_summary_table() -> dict:
    """Close every built-in model, then check the pairwise-relation table,
    the provable entries, the four three-way orderings, and the one
    forbidden pattern."""
    report: dict = {"models": {}, "cells": [], "zf": [], "orders": [], "ok": True}
    closures = {}
    for name in MODELS:
        cl = model_closure(name)
        closures[name] = cl
        entry = {
            "model": name,
            "consistent": cl.contradiction is None,
            "facts": len(cl.facts),
        }
        report["models"][name] = entry
        report["ok"] &= entry["consistent"]
    for (i, j), claims in sorted(TABLE_CLAIMS.items()):
        a, b = TABLE_TERMS[i], TABLE_TERMS[j]
        found = {}
        for sym in sorted(claims):
            holders = [
                name
                for name in MODELS
                if closures[name].contradiction is None
                and sym in closures[name].holds_between(a, b)
            ]
            found[sym] = holders
        ok = all(found[sym] for sym in found)
        report["cells"].append(
            {
                "pair": [display(a), display(b)],
                "claims": {sym: found[sym] for sym in sorted(found)},
                "ok": ok,
            }
        )
        report["ok"] &= ok
    for rel, a, b in ZF_FACTS:
        holders = [
            name
            for name in MODELS
            if closures[name].contradiction is None and closures[name].has(rel, a, b)
        ]
        ok = set(holders) == set(
            name for name in MODELS if closures[name].contradiction is None
        )
        report["zf"].append(
            {"fact": f"{rel} {display(a)} {display(b)}", "models": holders, "ok": ok}
        )
        report["ok"] &= ok
    for label, (model, facts) in sorted(ORDER_SCENARIOS.items()):
        cl = closures[model]
        ok = cl.contradiction is None and all(cl.has(r, a, b) for r, a, b in facts)
        report["orders"].append({"scenario": label, "model": model, "ok": ok})
        report["ok"] &= ok
    forbidden = forbidden_pattern_closure()
    fb_ok = forbidden.contradiction is not None
    report["forbidden"] = {
        "scenario": "power <= one-to-one sequences = sequences",
        "contradiction": fb_ok,
        "trace": forbidden.explain_contradiction(),
    }
    report["ok"] &= fb_ok
    return report


# ---------------------------------------------------------------------------
# arithmetic lemmas


def factorial_bounds(n: int) -> Tuple[bool, bool]:
    """Exact integer comparisons n! >= 2^(2n+1) and n! > 2^(2n+1) + 2."""
    if n < 0:
        raise ValueError("n must be a natural number")
    f = factorial(n)
    t = 2 ** (2 * n + 1)
    return (f >= t, f > t + 2)


def ramsey_upper(colors: int) -> int:
    """Sound upper bound on the least clique size forcing a monochromatic
    triangle under edge colorings with the given number of colors, via
    the recurrence U(1) = 3, U(r) = r*(U(r-1) - 1) + 2."""
    if colors < 1:
        raise ValueError("need at least one color")
    u = 3
    for r in range(2, colors + 1):
        u = r * (u - 1) + 2
    return u


def _has_mono_triangle(coloring: int, triangles: List[int]) -> bool:
    for mask in triangles:
        hit = coloring & mask
        if hit == mask or hit == 0:
            return True
    return False


def ramsey_two_exactness() -> Tuple[bool, bool]:
    """Brute-force certificate that 6 is exact for two colors: some
    coloring of the 5-clique has no single-color triangle, every coloring
    of the 6-clique has one."""

    def triangle_masks(n: int) -> List[int]:
        edges = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
        out = []
        for tri in itertools.combinations(range(n), 3):
            a, b, c = tri
            mask = (
                1 << edges[(a, b)] | 1 << edges[(a, c)] | 1 << edges[(b, c)]
            )
            out.append(mask)
        return out

    tri5 = triangle_masks(5)
    some_good_5 = any(
        not _has_mono_triangle(col, tri5) for col in range(1 << 10)
    )
    tri6 = triangle_masks(6)
    all_bad_6 = all(_has_mono_triangle(col, tri6) for col in range(1 << 15))
    return some_good_5, all_bad_6
