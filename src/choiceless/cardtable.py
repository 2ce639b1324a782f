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


# how each operation shows, given its inner expression's display and n
_SHOW = {
    "base": "m", "aleph0": "aleph0", "e": "e", "times": "{1}*{0}",
    "fin": "Fin({0})", "injseq": "Seq({0})", "anyseq": "seq({0})", "pow": "2^({0})",
    "pairs2": "[{0}]^2", "square": "({0})^2", "part": "Part({0})",
}


class CExpr:
    """Cardinal expression, hash-consed: there is one object per distinct
    (op, inner, n), so equality and hashing are identity.  Its sort key and
    its display are computed once, from the inner expression's."""

    __slots__ = ("op", "inner", "n", "_key", "_show")
    _table: Dict[Tuple[str, Optional["CExpr"], Optional[int]], "CExpr"] = {}

    def __new__(cls, op: str, inner: Optional["CExpr"] = None, n: Optional[int] = None):
        self = cls._table.get((op, inner, n))
        if self is None:
            key = (op, inner and inner._key, n)
            show = _SHOW[op].format(inner and inner._show, n)
            self = cls._table[op, inner, n] = object.__new__(cls)
            for name, value in zip(cls.__slots__, (op, inner, n, key, show)):
                object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *_):
        raise AttributeError("expressions are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # rebuilding finds the one interned object
        return CExpr, (self.op, self.inner, self.n)

    def key(self):
        return self._key

    def __repr__(self):
        return self._show


def _built(op: str, inner: Optional[CExpr], n: Optional[int] = None) -> Optional[CExpr]:
    """The expression if it was ever built, else None.  A probe of the
    closure builds nothing: an expression never built is in no universe."""
    return CExpr._table.get((op, inner, n))


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


def display(e: CExpr) -> str:
    return e._show


def subterms(e: CExpr) -> Set[CExpr]:
    out = {e}
    if e.inner is not None:
        out |= subterms(e.inner)
    return out


# facts: (rel, a, b) with rel one of these, each shown by its symbol
_RELS = {"le": "<=", "ne": "!=", "eq": "=", "lestar": "<=*", "nle": "!<=", "inc": "||"}
Fact = Tuple[str, CExpr, CExpr]
# axioms: (rel, a, b, label), where rel may also be a strict "lt" or "gt"
Axiom = Tuple[str, CExpr, CExpr, str]


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
    return f"{display(a)} {_RELS[rel]} {display(b)}"


class Contradiction(Exception):
    def __init__(self, facts: Sequence[Fact], closure: "Closure"):
        self.facts = list(facts)
        self.closure = closure
        super().__init__(" with ".join(show_fact(f) for f in facts))


class Closure:
    """Least fixed point of the rule set over a finite term universe.  `trace`
    is the one ordered fact store, and bit masks over the terms in `CExpr.key`
    order index it: bit j of `out[rel][i]` and bit i of `into[rel][j]` are set
    iff (rel, terms[i], terms[j]) is a fact."""

    def __init__(self, universe: Set[CExpr]):
        self.universe = universe
        self.terms = sorted(universe, key=CExpr.key)
        self.rank = {t: i for i, t in enumerate(self.terms)}
        self.out = {rel: [0] * len(self.terms) for rel in sorted(_RELS)}
        self.into = {rel: [0] * len(self.terms) for rel in sorted(_RELS)}
        # each fact's first derivation, in the order the facts were found
        self.trace: Dict[Fact, Tuple[str, Tuple[Fact, ...]]] = {}
        self.facts: KeysView[Fact] = self.trace.keys()
        self.contradiction: Optional[List[Fact]] = None
        # rounds run (the last adds nothing, or meets the contradiction)
        self.rounds = 0
        self.contradiction_round: Optional[int] = None

    def add(self, fact: Fact, rule: str, premises: Tuple[Fact, ...] = ()) -> bool:
        rel, a, b = fact
        i, j = self.rank[a], self.rank[b]
        row = self.out[rel]
        if row[i] >> j & 1:
            return False
        row[i] |= 1 << j
        self.into[rel][j] |= 1 << i
        self.trace[fact] = (rule, premises)
        return True

    def has(self, rel: str, a: CExpr, b: CExpr) -> bool:
        """Whether each component fact's bit is set (a term outside the universe has none)."""
        rank = self.rank
        return all(x in rank and y in rank and self.out[r][rank[x]] >> rank[y] & 1 for r, x, y in expand(rel, a, b))

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
        """The facts by relation, then by the `CExpr.key` order of each side,
        read off the masks with no sort: relations in name order, rows in
        rank order, each row's set bits from low to high."""
        terms = self.terms
        return [(rel, a, terms[j]) for rel, rows in self.out.items() for a, row in zip(terms, rows) if row for j in _bits(row)]


def close(
    axioms: Iterable[Axiom],
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


_E = CExpr("e")  # the term a schema ranges over

# ZF schemas, each row (relation, lhs, rhs, name) over the term e
_SCHEMAS = [
    ("le", _E, power(_E), "cantor"),
    ("ne", _E, power(_E), "cantor"),
    ("le", _E, fin(_E), "singleton-map"),
    ("le", fin(_E), power(_E), "finite-sets-are-subsets"),
    ("ne", fin(_E), power(_E), "strictly-few-finite-sets"),
    ("ne", injseq(_E), power(_E), "one-to-one-sequences-never-power"),
    ("ne", anyseq(_E), power(_E), "sequences-never-power"),
    ("le", square(_E), fin(fin(_E)), "pair-as-nested-set"),
    ("le", injseq(_E), fin(fin(_E)), "sequence-as-chain"),
    ("le", injseq(_E), anyseq(_E), "one-to-one-is-a-sequence"),
    ("le", _E, square(_E), "diagonal"),
    ("le", pairs2(_E), fin(_E), "pairs-are-finite-sets"),
    ("le", power(ALEPH0), power(fin(_E)), "size-classes-of-finite-sets"),
    ("le", partitions(_E), power(pairs2(_E)), "partition-edge-sets"),
    ("le", power(_E), partitions(_E), "subsets-split-in-two"),
    *(("le", times(n, _E), times(n + 1, _E), "copies-embed") for n in range(1, 9)),
    ("eq", times(1, _E), _E, "one-copy"),
]


def _steps(t: CExpr) -> Tuple[Optional[CExpr], Tuple[Tuple[str, Optional[int]], ...]]:
    """A schema side as the term it starts from (None for e) and the
    (op, n) steps that build it from there, innermost first."""
    if t is _E or t.inner is None:
        return (None if t is _E else t), ()
    start, steps = _steps(t.inner)
    return start, steps + ((t.op, t.n),)


# the schema rows compiled: (relation, lhs steps, rhs steps, rule)
_ROWS = [(rel, _steps(lhs), _steps(rhs), f"schema:{name}") for rel, lhs, rhs, name in _SCHEMAS]


def _add_schemas(cl: Closure):
    """Record each schema row at every term e, in term order, where both
    of its sides are in the universe.  Each step of a side is one lookup
    in the intern table, which builds nothing: a side never built is in
    no universe."""
    U, get = cl.rank, CExpr._table.get
    for e in cl.terms:
        for rel, (a, lsteps), (b, rsteps), rule in _ROWS:
            a, b = a or e, b or e
            for op, n in lsteps:
                a = get((op, a, n))
            if a in U:
                for op, n in rsteps:
                    b = get((op, b, n))
                if b in U:
                    cl.add((rel, a, b), rule)


def _bits(mask: int) -> List[int]:
    """The places of a mask's set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _fixpoint(cl: Closure):
    """Semi-naive rounds.  A round joins the facts new since the last round
    against the facts known at its start, read off the round-start masks
    less the partners whose conclusion is known: a join meets only partners
    that derive a new fact, and a pair of old facts never does.  Each rule
    meets them in trace order, sorted by position, so a round records the
    same facts, in the same order and from the same premises, as joining
    all pairs, and the trace is the same in every process."""
    trace, terms, rank, out, into = cl.trace, cl.terms, cl.rank, cl.out, cl.into
    le, ne, eq, nle, nle_in = out["le"], out["ne"], out["eq"], out["nle"], into["nle"]
    powers = [rank.get(_built("pow", t)) for t in terms]

    def emit(fact, rule, premises):
        if fact[1] in rank and fact[2] in rank and cl.add(fact, rule, premises):
            _check_contra(cl, fact)

    def in_order(rel, pairs):
        """The round-start facts (rel, terms[i], terms[j]) of the pairs, in trace order."""
        return sorted([(rel, terms[i], terms[j]) for i, j in pairs], key=pos.__getitem__)

    pos: Dict[Fact, int] = {}  # round-start facts by trace position
    changed = True
    while changed:
        cl.rounds += 1
        batch = list(itertools.islice(reversed(trace), len(trace) - len(pos)))[::-1]  # from the end
        pos.update(zip(batch, itertools.count(len(pos))))
        new_rel = defaultdict(list)
        for f in batch:
            new_rel[f[0]].append(f)
        new_les, new_eqs, new_nles = new_rel["le"], new_rel["eq"], new_rel["nle"]
        out0 = {rel: rows[:] for rel, rows in out.items()}  # the masks at the round's start
        into0 = {rel: rows[:] for rel, rows in into.items()}
        le0, le0_in, ne0_any = out0["le"], into0["le"], [x | y for x, y in zip(out0["ne"], into0["ne"])]
        near = [x & y for x, y in zip(le0, ne0_any)]  # le(b, c) with ne(b, c) or ne(c, b)

        # symmetry and definitional components
        for f in new_eqs:
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
        for f in new_les:
            _, a, b = f
            emit(("lestar", a, b), "injection-gives-surjection", (f,))
        # transitive and mixed rules.  An old le(a, b) joins a new fact only
        # if b starts a new le (which le(b, a) does) or is a term of a new ne
        heads = {rank[g[1]] for g in new_les}
        pairs = {(rank[f[1]], rank[f[2]]) for f in new_les} | {(i, j) for j in heads for i in _bits(le0_in[j])}
        for f in in_order("le", [(i, j) for i, j in pairs if le0[j] & ~le[i] or le0[j] >> i & 1 and not eq[i] >> j & 1]):
            _, a, b = f
            i, j = rank[a], rank[b]
            for g in in_order("le", [(j, c) for c in _bits(le0[j] & ~le[i])]):
                emit(("le", a, g[2]), "le-transitive", (f, g))
            if le0[j] >> i & 1:
                emit(("eq", a, b), "cantor-bernstein", (f, ("le", b, a)))
        # strictness: le(a, b) meets the le(b, c) with an ne fact between b
        # and c, and every le(b, c) if there is one between a and b
        pairs |= {(i, j) for j in {rank[t] for g in new_rel["ne"] for t in g[1:]} for i in _bits(le0_in[j])}
        for f in in_order("le", [(i, j) for i, j in pairs if (le0[j] if ne0_any[i] >> j & 1 else near[j]) & ~ne[i]]):
            _, a, b = f
            i, j = rank[a], rank[b]
            # each c cites the earlier of ne(b, c) and ne(c, b)
            ups = [min((g for g in (("ne", b, terms[c]), ("ne", terms[c], b)) if g in pos), key=pos.__getitem__)
                   for c in _bits(near[j] & ~ne[i])]
            for g in sorted(ups, key=pos.__getitem__):
                c = g[1] if g[2] is b else g[2]
                emit(("ne", a, c), "strictness-travels-up", (f, ("le", b, c), g))
            for g in sorted({g for g in (("ne", a, b), ("ne", b, a)) if g in pos}, key=pos.__getitem__):
                for h in in_order("le", [(j, c) for c in _bits(le0[j] & ~ne[i])]):
                    emit(("ne", a, h[2]), "strictness-travels-down", (f, g, h))
        # an old nle(a, b) joins a new le fact only at a or b, and meets an nle(b, a) no earlier
        # round saw only where nle(b, a) is new (one the loop records is later than every old one)
        nle0, nle0_in, tails = out0["nle"], into0["nle"], {rank[g[2]] for g in new_les}
        news = {(rank[f[1]], rank[f[2]]) for f in new_nles}
        olds = {(i, y) for i in heads for y in _bits(nle0[i])} | {(x, j) for j in tails for x in _bits(nle0_in[j])}
        for f in in_order("nle", news | olds | {(j, i) for i, j in news if nle0[j] >> i & 1}):
            _, a, b = f
            i, j = rank[a], rank[b]
            into_b = {(x, j) for x in _bits(le0_in[j] & ~nle[i])}
            for g in in_order("le", into_b | {(i, y) for y in _bits(le0[i] & ~nle_in[j])}):
                if g[2] is b:
                    emit(("nle", a, g[1]), "no-map-into-smaller", (f, g))
                if g[1] is a:
                    emit(("nle", g[2], b), "no-map-from-larger", (f, g))
            if nle[j] >> i & 1:
                emit(("inc", a, b), "mutually-unmapped", (f, ("nle", b, a)))
        # equality substitution, where an old eq(a, b) joins only the new
        # facts that mention a
        touched = {rank[t] for _, a, b in batch for t in (a, b)}
        pairs = {(rank[f[1]], rank[f[2]]) for f in new_eqs} | {(i, y) for i in touched for y in _bits(out0["eq"][i])}
        for f in in_order("eq", pairs):
            _, a, b = f
            i, j = rank[a], rank[b]
            gs = {(rel, a, terms[y]) for rel, rows in out0.items() if (d := rows[i] & ~out[rel][j]) for y in _bits(d)}
            gs |= {(rel, terms[x], a) for rel, rows in into0.items() if (d := rows[i] & ~into[rel][j]) for x in _bits(d)}
            for g in sorted(gs, key=pos.__getitem__):
                rel, x, y = g
                if x is a:
                    emit((rel, b, y), "substitute-equal", (f, g))
                if y is a:
                    emit((rel, x, b), "substitute-equal", (f, g))
        # power monotone under surjections
        for f in new_rel["lestar"]:
            p, q = powers[rank[f[1]]], powers[rank[f[2]]]
            if p is not None and q is not None and not le[p] >> q & 1:
                emit(("le", terms[p], terms[q]), "power-of-surjection", (f,))
        # sequences agreeing forces a countable subset
        for f in new_eqs:
            _, a, b = f
            if a.op == "injseq" and b.op == "anyseq" and a.inner == b.inner:
                emit(("le", ALEPH0, a.inner), "repeats-give-counting", (f,))
        # a countable power side kills sequence codings
        for f in new_les:
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                emit(("nle", b, _built("injseq", b.inner)), "no-power-into-one-to-one-sequences", (f,))
        for f in new_les:
            _, a, b = f
            if a == ALEPH0:
                emit(("nle", _built("pow", b), _built("anyseq", b)), "no-power-into-sequences", (f,))
        # Dedekind-finite power: strict surplus and partition growth
        for f in new_nles:
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                copies = [_built("times", b, n) for n in range(1, 10)]
                for small, big in zip(copies, copies[1:]):
                    emit(("ne", small, big), "surplus-copy-is-new", (f,))
                emit(("ne", b, _built("part", b.inner)), "partitions-outgrow-subsets", (f,))
        changed = len(trace) > len(pos)


# the relation that clashes with each one on the same pair, listed in name order
_CLASHES = {"le": "nle", "nle": "le", "eq": "ne", "ne": "eq"}


def _check_contra(cl: Closure, fact: Fact):
    rel, a, b = fact
    if rel == "ne" and a is b:
        clash = [fact]
    elif rel in _CLASHES and cl.out[_CLASHES[rel]][cl.rank[a]] >> cl.rank[b] & 1:
        clash = sorted([fact, (_CLASHES[rel], a, b)])
    else:
        return
    cl.contradiction_round = cl.rounds
    raise Contradiction(clash, cl)


# ---------------------------------------------------------------------------
# built-in axiom sets


M = BASE

# the table entries; every model closes over these
TABLE_TERMS = [M, fin(M), injseq(M), anyseq(M), power(M)]

_MOSTOWSKI_CHAIN = [
    M, pairs2(M), square(M), fin(M), power(M), injseq(M), fin(fin(M)), injseq(fin(M)),
    fin(power(M)), fin(fin(fin(M))), fin(fin(fin(fin(M)))), anyseq(M), power(fin(M)),
]

# each built-in model: its relation axioms between the derived cardinals
# of one infinite base cardinal, labelled within the model, and the terms
# it closes over besides TABLE_TERMS
_MODELS: Dict[str, Tuple[List[Axiom], List[CExpr]]] = {
    "fraenkel": ([
        ("inc", fin(M), injseq(M), "finite-vs-one-to-one"),
        ("inc", fin(M), anyseq(M), "finite-vs-sequences"),
        ("inc", injseq(M), power(M), "one-to-one-vs-power"),
        ("inc", anyseq(M), power(M), "sequences-vs-power"),
        ("nle", ALEPH0, power(M), "power-dedekind-finite"),
        ("lt", M, pairs2(M), "more-pairs-than-atoms"),
    ], [times(1, power(M)), times(2, power(M)), times(3, power(M)), partitions(M), power(pairs2(M))]),
    "mostowski": ([
        *(("lt", a, b, "chain") for a, b in zip(_MOSTOWSKI_CHAIN, _MOSTOWSKI_CHAIN[1:])),
        ("lestar", power(M), fin(M), "power-maps-onto-finite-sets"),
        ("nle", ALEPH0, power(M), "power-dedekind-finite"),
    ], [power(power(M))]),
    "vs": ([
        ("lt", injseq(M), anyseq(M), "one-to-one-below-sequences"),
        ("lt", anyseq(M), fin(M), "sequences-below-finite-sets"),
        ("lt", fin(M), power(M), "finite-sets-below-power"),
    ], []),
    "vc": ([
        ("lt", fin(M), injseq(M), "finite-sets-below-one-to-one"),
        ("lt", injseq(M), power(M), "one-to-one-below-power"),
        ("lt", power(M), anyseq(M), "power-below-sequences"),
    ], []),
    "vp": ([
        ("lt", square(M), pairs2(M), "squares-below-pairs"),
        ("lt", M, pairs2(M), "more-pairs-than-atoms"),
    ], []),
    "aleph0": ([
        ("eq", M, ALEPH0, "base-countable"),
        *(("eq", e, M, "countable-collapse")
          for e in (fin(M), injseq(M), anyseq(M), square(M), pairs2(M), fin(fin(M)))),
    ], []),
}

MODELS = tuple(_MODELS)


def _model(name: str) -> Tuple[List[Axiom], List[CExpr]]:
    try:
        return _MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None


def model_axioms(name: str) -> List[Axiom]:
    return [(rel, a, b, f"{name}:{label}") for rel, a, b, label in _model(name)[0]]


def model_extra_terms(name: str) -> List[CExpr]:
    return TABLE_TERMS + _model(name)[1]


def model_closure(name: str) -> Closure:
    return close(model_axioms(name), extra_terms=model_extra_terms(name))


# ---------------------------------------------------------------------------
# summary table


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
