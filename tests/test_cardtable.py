import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from unittest import mock

import pytest

from choiceless import cardtable
from choiceless.cardtable import (
    ALEPH0,
    M,
    MODELS,
    TABLE_TERMS,
    CExpr,
    Contradiction,
    anyseq,
    check_summary_table,
    close,
    display,
    factorial_bounds,
    fin,
    forbidden_pattern_closure,
    injseq,
    model_axioms,
    model_closure,
    model_extra_terms,
    pairs2,
    partitions,
    power,
    ramsey_two_exactness,
    ramsey_upper,
    show_fact,
    square,
    times,
)


# every rule name `_fixpoint` writes into a trace
FIXPOINT_RULES = {
    "eq-symmetric",
    "eq-both-ways",
    "ne-symmetric",
    "incomparable-symmetric",
    "incomparable-means-no-map",
    "injection-gives-surjection",
    "le-transitive",
    "cantor-bernstein",
    "strictness-travels-up",
    "strictness-travels-down",
    "no-map-into-smaller",
    "no-map-from-larger",
    "mutually-unmapped",
    "substitute-equal",
    "power-of-surjection",
    "repeats-give-counting",
    "no-power-into-one-to-one-sequences",
    "no-power-into-sequences",
    "surplus-copy-is-new",
    "partitions-outgrow-subsets",
}


def naive_fixpoint(cl):
    """The all-pairs closure the semi-naive `_fixpoint` replaces: every
    round re-joins every fact against every other one, walking `cl.facts`
    in trace order.  Test-only oracle."""
    U = cl.universe

    def emit(fact, rule, premises):
        rel, a, b = fact
        if a not in U or b not in U:
            return
        added = cl.add(fact, rule, premises)
        if added:
            cardtable._check_contra(cl, fact)

    changed = True
    while changed:
        cl.rounds += 1
        before = len(cl.facts)
        snapshot = list(cl.facts)
        by_rel = {}
        for f in snapshot:
            by_rel.setdefault(f[0], []).append(f)
        les = by_rel.get("le", [])
        le_set = {(a, b) for _, a, b in les}
        # symmetry and definitional components
        for f in by_rel.get("eq", []):
            _, a, b = f
            emit(("eq", b, a), "eq-symmetric", (f,))
            emit(("le", a, b), "eq-both-ways", (f,))
            emit(("le", b, a), "eq-both-ways", (f,))
        for f in by_rel.get("ne", []):
            _, a, b = f
            emit(("ne", b, a), "ne-symmetric", (f,))
        for f in by_rel.get("inc", []):
            _, a, b = f
            emit(("inc", b, a), "incomparable-symmetric", (f,))
            emit(("nle", a, b), "incomparable-means-no-map", (f,))
            emit(("nle", b, a), "incomparable-means-no-map", (f,))
        for f in by_rel.get("le", []):
            _, a, b = f
            emit(("lestar", a, b), "injection-gives-surjection", (f,))
        # transitive and mixed rules
        for f in les:
            _, a, b = f
            for g in les:
                if g[1] == b:
                    emit(("le", a, g[2]), "le-transitive", (f, g))
            if (b, a) in le_set:
                g = ("le", b, a)
                emit(("eq", a, b), "cantor-bernstein", (f, g))
        for f in les:
            _, a, b = f
            for g in by_rel.get("ne", []):
                if g[1] == b or g[2] == b:
                    c = g[2] if g[1] == b else g[1]
                    if (b, c) in le_set:
                        emit(
                            ("ne", a, c),
                            "strictness-travels-up",
                            (f, ("le", b, c), g),
                        )
            for g in by_rel.get("ne", []):
                if {g[1], g[2]} == {a, b}:
                    for h in les:
                        if h[1] == b:
                            emit(
                                ("ne", a, h[2]),
                                "strictness-travels-down",
                                (f, g, h),
                            )
        for f in by_rel.get("nle", []):
            _, a, b = f
            for g in les:
                if g[2] == b:
                    emit(("nle", a, g[1]), "no-map-into-smaller", (f, g))
                if g[1] == a:
                    emit(("nle", g[2], b), "no-map-from-larger", (f, g))
            if ("nle", b, a) in cl.facts:
                emit(("inc", a, b), "mutually-unmapped", (f, ("nle", b, a)))
        # equality substitution
        for f in by_rel.get("eq", []):
            _, a, b = f
            for g in snapshot:
                rel, x, y = g
                if x == a:
                    emit((rel, b, y), "substitute-equal", (f, g))
                if y == a:
                    emit((rel, x, b), "substitute-equal", (f, g))
        # power monotone under surjections
        for f in by_rel.get("lestar", []):
            _, a, b = f
            emit(("le", power(a), power(b)), "power-of-surjection", (f,))
        # sequences agreeing forces a countable subset
        for f in by_rel.get("eq", []):
            _, a, b = f
            if a.op == "injseq" and b.op == "anyseq" and a.inner == b.inner:
                emit(("le", ALEPH0, a.inner), "repeats-give-counting", (f,))
        # a countable power side kills sequence codings
        for f in les:
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                emit(
                    ("nle", b, injseq(b.inner)),
                    "no-power-into-one-to-one-sequences",
                    (f,),
                )
        for f in les:
            _, a, b = f
            if a == ALEPH0:
                emit(
                    ("nle", power(b), anyseq(b)),
                    "no-power-into-sequences",
                    (f,),
                )
        # Dedekind-finite power: strict surplus and partition growth
        for f in by_rel.get("nle", []):
            _, a, b = f
            if a == ALEPH0 and b.op == "pow":
                for n in range(1, 9):
                    emit(
                        ("ne", times(n, b), times(n + 1, b)),
                        "surplus-copy-is-new",
                        (f,),
                    )
                emit(
                    ("ne", b, partitions(b.inner)),
                    "partitions-outgrow-subsets",
                    (f,),
                )
        changed = len(cl.facts) > before


def assert_same_closure(make):
    """Build a closure with `_fixpoint` and again with the naive oracle."""
    fast = make()
    with mock.patch.object(cardtable, "_fixpoint", naive_fixpoint):
        slow = make()
    assert fast.facts == slow.facts
    assert fast.rounds == slow.rounds
    assert fast.contradiction == slow.contradiction
    assert fast.contradiction_round == slow.contradiction_round
    # same first derivation of every fact, recorded in the same order
    assert list(fast.trace.items()) == list(slow.trace.items())
    return fast


OPS = [fin, injseq, anyseq, power, pairs2, square, partitions]
DEPTH_TWO = [f(g(M)) for f in OPS for g in OPS]
DEPTH_THREE = [f(t) for f in OPS for t in DEPTH_TWO]


def depth_two_groups(seed=0):
    """Each model with the 49 depth-2 terms, shuffled by a seeded generator
    and dealt into 4 fixed groups."""
    rng = random.Random(seed)
    out = []
    for name in MODELS:
        order = DEPTH_TWO[:]
        rng.shuffle(order)
        out.extend((name, order[k::4]) for k in range(4))
    return out


class TestSemiNaiveClosure:
    @pytest.mark.parametrize("name", MODELS)
    def test_models_match_naive(self, name):
        assert_same_closure(lambda: model_closure(name))

    def test_forbidden_matches_naive(self):
        assert assert_same_closure(forbidden_pattern_closure).contradiction

    @pytest.mark.parametrize("name", MODELS)
    def test_depth_two_groups_match_naive(self, name):
        groups = [extra for model, extra in depth_two_groups() if model == name]
        assert len(groups) == 4 and sorted(map(len, groups)) == [12, 12, 12, 13]
        for extra in groups:
            terms = model_extra_terms(name) + extra
            assert_same_closure(lambda: close(model_axioms(name), extra_terms=terms))

    @pytest.mark.parametrize("name", MODELS)
    def test_second_depth_two_grouping_matches_naive(self, name):
        for model, extra in depth_two_groups(seed=1):
            if model == name:
                terms = model_extra_terms(name) + extra
                assert_same_closure(lambda: close(model_axioms(name), extra_terms=terms))

    @pytest.mark.parametrize("name", MODELS)
    def test_depth_three_group_matches_naive(self, name):
        # the first of 16 groups dealt from the 343 depth-3 terms shuffled
        # with seed 0, closed in every model
        order = DEPTH_THREE[:]
        random.Random(0).shuffle(order)
        extra = order[::16]
        assert len(set(DEPTH_THREE)) == 343 and len(extra) == 22
        terms = model_extra_terms(name) + extra
        assert_same_closure(lambda: close(model_axioms(name), extra_terms=terms))

    def test_equalities_over_depth_two_terms_match_naive(self):
        # mostly eq axioms over depth-2 terms, beside order facts whose
        # consequences touch those terms rounds later: old eq facts must
        # still meet every fact a later round derives at their left side
        rels = ["eq"] * 5 + ["le", "le", "lt", "ne", "nle", "inc", "lestar"]
        rng = random.Random(3)
        clashes = 0
        for _ in range(30):
            axioms = [
                (rng.choice(rels), rng.choice(DEPTH_TWO), rng.choice(DEPTH_TWO), "r")
                for _ in range(rng.randint(3, 9))
            ]
            extra = rng.sample(DEPTH_TWO, 6)
            cl = assert_same_closure(lambda: close(axioms, extra_terms=extra))
            clashes += cl.contradiction is not None
        assert 0 < clashes < 30

    def test_reverse_embeddings_arriving_later_match_naive(self):
        # a cycle of embeddings: each le(a, b) is old by the time le(b, a)
        # arrives through transitivity, and Cantor-Bernstein must join them
        pool = [M, fin(M), injseq(M), anyseq(M), power(M), pairs2(M), square(M), partitions(M)]
        rng = random.Random(5)
        late = 0
        for _ in range(12):
            cycle = rng.sample(pool, rng.randint(3, 6))
            axioms = [("le", a, b, "r") for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            axioms += [("ne", rng.choice(pool), rng.choice(pool), "r") for _ in range(rng.randint(0, 2))]
            cl = assert_same_closure(lambda: close(axioms))
            late += any(
                rule == "cantor-bernstein" and cl.trace[premises[1]][0] == "le-transitive"
                for rule, premises in cl.trace.values()
            )
        assert late

    def test_late_order_fact_meets_old_strictness(self):
        # le(b, c) arrives in round 2, when ne(b, c) and ne(c, b) are both
        # old; strictness-travels-up must still join them through it
        a, b, x, y, c = pairs2(M), square(M), partitions(M), anyseq(M), injseq(M)
        axioms = [("le", a, b), ("le", b, x), ("le", x, y), ("le", y, c), ("ne", b, c)]
        cl = assert_same_closure(lambda: close([(*f, "t") for f in axioms]))
        assert cl.trace[("ne", a, c)][0] == "strictness-travels-up"

    @pytest.mark.parametrize("crowd", [0, 12])
    def test_new_order_fact_meets_both_old_ne_facts(self, crowd):
        # le(a, b) arrives in round 2, through power-of-surjection, when
        # ne(c, b), ne(b, c) and le(b, c) are all old: strictness-travels-up
        # joins it from the le(b, c) side and must cite the earlier ne fact,
        # also where b has an ne fact with each of a crowd of other terms
        x, y, c = pairs2(M), square(M), anyseq(M)
        a, b = power(x), power(y)
        others = [t for t in DEPTH_TWO if t not in (a, b, c)][:crowd]
        axioms = [("ne", b, t) for t in others] + [("ne", c, b), ("ne", b, c), ("le", b, c), ("lestar", x, y)]
        cl = assert_same_closure(lambda: close([(*f, "t") for f in axioms], extra_terms=[a]))
        assert cl.trace[("le", a, b)] == ("power-of-surjection", (("lestar", x, y),))
        assert cl.trace[("ne", a, c)] == ("strictness-travels-up", (("le", a, b), ("le", b, c), ("ne", c, b)))
        ne_at_b = [f for f in cl.facts if f[0] == "ne" and b in f[1:]]
        le_from_b = [f for f in cl.facts if f[0] == "le" and f[1] == b]
        assert len(ne_at_b) > 3 * len(le_from_b) or not crowd

    def test_contradictions_mid_round_match_naive(self):
        pool = [M, ALEPH0, fin(M), injseq(M), anyseq(M), power(M), pairs2(M)]
        rels = ["le", "ne", "eq", "lestar", "nle", "inc", "lt", "gt"]
        rng = random.Random(7)
        clashes = 0
        for _ in range(40):
            axioms = [
                (rng.choice(rels), rng.choice(pool), rng.choice(pool), "r")
                for _ in range(rng.randint(1, 6))
            ]
            clashes += assert_same_closure(lambda: close(axioms)).contradiction is not None
        assert 0 < clashes < 40

    def test_old_no_map_fact_meets_its_new_reverse(self):
        # nle(b, a) arrives in round 2, through no-map-into-smaller, when
        # nle(a, b) is old: mutually-unmapped must join the two in round 2
        a, b, c = square(M), partitions(M), anyseq(M)
        axioms = [("nle", a, b), ("nle", b, c), ("le", a, c)]
        cl = assert_same_closure(lambda: close([(*f, "t") for f in axioms]))
        assert cl.trace[("nle", b, a)] == ("no-map-into-smaller", (("nle", b, c), ("le", a, c)))
        assert cl.trace[("inc", a, b)] == ("mutually-unmapped", (("nle", a, b), ("nle", b, a)))

    def test_no_map_facts_match_naive(self):
        # mostly nle and le axioms: an old nle(a, b) must still meet an
        # nle(b, a) that the last round derived
        rels = ["nle"] * 4 + ["le"] * 4 + ["inc", "eq", "ne", "lestar"]
        pool = [M, ALEPH0, *(f(M) for f in OPS), *DEPTH_TWO[:16]]
        rng = random.Random(0)
        unmapped = 0
        for _ in range(40):
            axioms = [(rng.choice(rels), rng.choice(pool), rng.choice(pool), "r") for _ in range(rng.randint(2, 14))]
            extra = rng.sample(pool, 5)
            cl = assert_same_closure(lambda: close(axioms, extra_terms=extra))
            unmapped += any(rule == "mutually-unmapped" for rule, _ in cl.trace.values())
        assert unmapped

    def test_closure_statistics(self):
        cl = forbidden_pattern_closure()
        assert (cl.rounds, cl.contradiction_round) == (2, 2)
        counts = cl.rule_counts()
        assert list(counts) == sorted(counts)
        assert sum(counts.values()) == len(cl.facts)
        assert counts["axiom:scenario:power-into-one-to-one"] == 1
        ok = model_closure("vc")
        assert ok.contradiction_round is None and ok.rounds == 3


# prints a digest of every (fact, rule, premises) triple, in trace order,
# of the six model closures and the forbidden pattern
TRACE_DIGEST = """
import hashlib
from choiceless.cardtable import MODELS, forbidden_pattern_closure, model_closure

def key(f):
    return (f[0], f[1].key(), f[2].key())

h = hashlib.sha256()
for cl in [model_closure(m) for m in MODELS] + [forbidden_pattern_closure()]:
    for fact, (rule, premises) in cl.trace.items():
        h.update(repr((key(fact), rule, [key(p) for p in premises])).encode())
print(h.hexdigest())
"""


TRACE_DIGEST_PINNED = "729eb8f5167fdaa7f62d2727c0fab33b535f4fa8a0975c103d94290d4b7bfab5"


def test_trace_is_the_same_in_every_process():
    # `hash(None)` is an address, so anything that walks a set of facts
    # would record different first derivations from one process to the next
    src = os.path.dirname(os.path.dirname(cardtable.__file__))
    digests = [
        subprocess.run(
            [sys.executable, "-c", TRACE_DIGEST],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    # the digest recorded while expressions hashed by structure: a trace
    # reordered by identity hashing fails even when every process agrees
    assert digests == [TRACE_DIGEST_PINNED + "\n"] * 2


# builds the terms of each model and of the forbidden pattern, then closes
# them; prints how many expressions each closure added to the intern table
INTERN_GROWTH = """
from choiceless.cardtable import (
    MODELS, CExpr, close, forbidden_pattern_closure, model_axioms, model_extra_terms,
)

growth = {}
for m in MODELS:
    axioms, extra = model_axioms(m), model_extra_terms(m)
    before = len(CExpr._table)
    close(axioms, extra_terms=extra)
    growth[m] = len(CExpr._table) - before
before = len(CExpr._table)
forbidden_pattern_closure()  # its two axioms reuse module-level terms
growth["forbidden"] = len(CExpr._table) - before
print(growth)
"""


def _at(t, e):
    """The schema term t with e for the term it ranges over, if built: the
    recursive walk that the compiled rows of `_add_schemas` replace."""
    if t is cardtable._E:
        return e
    if t.inner is None:
        return t
    inner = _at(t.inner, e)
    return None if inner is None else cardtable._built(t.op, inner, t.n)


def schemas_by_walk(cl):
    """`_add_schemas` over the schema rows as written, through `_at`."""
    U = cl.universe
    for e in sorted(U, key=CExpr.key):
        for rel, lhs, rhs, name in cardtable._SCHEMAS:
            a, b = _at(lhs, e), _at(rhs, e)
            if a in U and b in U:
                cl.add((rel, a, b), f"schema:{name}")


def test_compiled_schema_rows_match_the_walk():
    # every model, alone and with each depth-2 group, and the forbidden
    # pattern, with the rounds left out so that the schemas alone show
    groups = [(m, []) for m in MODELS] + depth_two_groups()
    makers = [
        lambda m=m, extra=extra: close(model_axioms(m), extra_terms=model_extra_terms(m) + extra)
        for m, extra in groups
    ]
    with mock.patch.object(cardtable, "_fixpoint", lambda cl: None):
        for make in makers + [forbidden_pattern_closure]:
            fast = make()
            with mock.patch.object(cardtable, "_add_schemas", schemas_by_walk):
                slow = make()
            assert any(rule.startswith("schema:") for rule, _ in fast.trace.values())
            assert list(fast.trace.items()) == list(slow.trace.items())


def display_by_walk(e):
    """The rendering `display` caches, rebuilt from the parts."""
    if e.op == "times":
        return f"{e.n}*{display_by_walk(e.inner)}"
    forms = {
        "fin": "Fin({})", "injseq": "Seq({})", "anyseq": "seq({})", "pow": "2^({})",
        "pairs2": "[{}]^2", "square": "({})^2", "part": "Part({})",
    }
    if e.op in forms:
        return forms[e.op].format(display_by_walk(e.inner))
    return {"base": "m", "aleph0": "aleph0", "e": "e"}[e.op]


def test_cached_display_matches_the_walk():
    # the depth-2 terms are built at import, each model's terms here
    for name in MODELS:
        model_closure(name)
    exprs = list(CExpr._table.values())
    assert len(exprs) > 100
    for e in exprs:
        assert display(e) == repr(e) == display_by_walk(e)


class TestSortedFacts:
    @staticmethod
    def _closures():
        # every seed-0 and seed-1 workload closure, then the depth-3 group
        # of `test_depth_three_group_matches_naive` in the richest model
        for seed in (0, 1):
            for name, extra in depth_two_groups(seed):
                yield close(model_axioms(name), extra_terms=model_extra_terms(name) + extra)
        order = DEPTH_THREE[:]
        random.Random(0).shuffle(order)
        yield close(model_axioms("mostowski"), extra_terms=model_extra_terms("mostowski") + order[::16])

    def test_rank_order_is_the_key_tuple_order(self):
        closures = list(self._closures())
        assert len(closures) == 49
        for cl in closures:
            want = sorted(cl.facts, key=lambda f: (f[0], f[1].key(), f[2].key()))
            assert cl.sorted_facts() == want


def masks_by_rebuild(cl):
    """The term ranks and bit masks of a closure, rebuilt from its fact set."""
    rank = {t: i for i, t in enumerate(sorted(cl.universe, key=CExpr.key))}
    out = {rel: [0] * len(rank) for rel in sorted(cardtable._RELS)}
    into = copy.deepcopy(out)
    for rel, a, b in cl.facts:
        out[rel][rank[a]] |= 1 << rank[b]
        into[rel][rank[b]] |= 1 << rank[a]
    return rank, out, into


def has_by_lookup(cl, rel, a, b):
    """`Closure.has` as the fact-set lookups the masks replaced."""
    return all(f in cl.facts for f in cardtable.expand(rel, a, b))


def holds_between_by_lookup(cl, a, b):
    """`Closure.holds_between` through `has_by_lookup`."""
    out = {sym for sym, f in (("=", ("eq", a, b)), ("<", ("lt", a, b)), (">", ("lt", b, a)), ("!=", ("ne", a, b)))
           if has_by_lookup(cl, *f)}
    if has_by_lookup(cl, "inc", a, b) or has_by_lookup(cl, "inc", b, a):
        out.add("||")
    return out


def clash_by_lookup(cl, fact):
    """The clash `_check_contra` raises on for a fact, by fact-set lookups."""
    rel, a, b = fact
    if rel == "ne" and a == b:
        return [fact]
    if rel == "le" and ("nle", a, b) in cl.facts:
        return [fact, ("nle", a, b)]
    if rel == "nle" and ("le", a, b) in cl.facts:
        return [("le", a, b), fact]
    if rel == "eq" and ("ne", a, b) in cl.facts:
        return [fact, ("ne", a, b)]
    if rel == "ne" and ("eq", a, b) in cl.facts:
        return [("eq", a, b), fact]
    return None


def clash_by_masks(cl, fact):
    round_ = cl.contradiction_round
    try:
        cardtable._check_contra(cl, fact)
    except Contradiction as c:
        return c.facts
    finally:
        cl.contradiction_round = round_
    return None


def assert_masks_index_the_facts(cl, pairs):
    """The masks equal a rebuild from the facts, and `has`, `holds_between`
    and `_check_contra` answer as the lookups they replaced, on the pairs."""
    rank, out, into = masks_by_rebuild(cl)
    assert cl.terms == list(rank) and cl.rank == rank
    assert cl.out == out and cl.into == into
    for a, b in pairs:
        for rel in ("lt", "gt", *cardtable._RELS):
            assert cl.has(rel, a, b) == has_by_lookup(cl, rel, a, b)
            if rel in cardtable._RELS and a in rank and b in rank:  # it sees recorded facts only
                assert clash_by_masks(cl, (rel, a, b)) == clash_by_lookup(cl, (rel, a, b))
        assert cl.holds_between(a, b) == holds_between_by_lookup(cl, a, b)


def mid_round_axiom_sets():
    """The 40 seeded axiom sets of `test_contradictions_mid_round_match_naive`."""
    pool = [M, ALEPH0, fin(M), injseq(M), anyseq(M), power(M), pairs2(M)]
    rels = ["le", "ne", "eq", "lestar", "nle", "inc", "lt", "gt"]
    rng = random.Random(7)
    return [[(rng.choice(rels), rng.choice(pool), rng.choice(pool), "r") for _ in range(rng.randint(1, 6))]
            for _ in range(40)]


class TestMasks:
    # a term built but in no universe of these closures: no fact names it
    OUTSIDE = power(power(power(power(M))))

    def test_workload_closures(self):
        # every pair of table terms, aleph0 and a term outside the universe
        terms = TABLE_TERMS + [ALEPH0, self.OUTSIDE]
        closures = list(TestSortedFacts._closures())
        for cl in closures:
            assert_masks_index_the_facts(cl, itertools.product(terms, repeat=2))
        assert sum(len(cl.facts) for cl in closures) > 10000

    def test_closures_made_by_the_naive_oracle(self):
        # the oracle records every fact through `Closure.add`
        with mock.patch.object(cardtable, "_fixpoint", naive_fixpoint):
            closures = [model_closure(name) for name in MODELS] + [forbidden_pattern_closure()]
            for cl in closures:
                assert_masks_index_the_facts(cl, itertools.product(cl.terms[:12] + [self.OUTSIDE], repeat=2))
        assert closures[-1].contradiction

    def test_mid_round_contradictions(self):
        clashes = 0
        for axioms in mid_round_axiom_sets():
            cl = close(axioms)
            assert_masks_index_the_facts(cl, itertools.product(cl.terms + [self.OUTSIDE], repeat=2))
            clashes += cl.contradiction is not None
        assert 0 < clashes < 40

    def test_a_fact_recorded_without_its_bits_is_caught(self):
        # seeded fault: `add` keeps the trace but not the masks, so no fact
        # is indexed and the joins of the rounds find no partner
        def add_without_bits(cl, fact, rule, premises=()):
            if fact in cl.trace:
                return False
            cl.trace[fact] = (rule, premises)
            return True

        with mock.patch.object(cardtable.Closure, "add", add_without_bits):
            with pytest.raises(AssertionError):
                assert_same_closure(lambda: model_closure("vc"))
        assert_same_closure(lambda: model_closure("vc"))


class TestCExpr:
    def test_structural_equality_and_hash(self):
        # hash-consed: building an expression twice gives the one object
        a, b = power(fin(M)), power(fin(M))
        assert a is b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_constructor_and_builder_share_the_object(self):
        assert CExpr("times", M, 2) is times(2, M)

    def test_close_builds_no_expression(self):
        # in a fresh process, so no earlier test has built a probe already
        src = os.path.dirname(os.path.dirname(cardtable.__file__))
        out = subprocess.run(
            [sys.executable, "-c", INTERN_GROWTH],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == repr(dict.fromkeys(MODELS + ("forbidden",), 0))

    def test_key_value(self):
        assert power(fin(M)).key() == ("pow", ("fin", ("base", None, None), None), None)

    @pytest.mark.parametrize("attr", ["op", "inner", "n", "_key", "_show", "_hash", "other"])
    def test_immutable(self, attr):
        e = power(fin(M))
        with pytest.raises(AttributeError):
            setattr(e, attr, None)
        with pytest.raises(AttributeError):
            delattr(e, attr)
        assert e == power(fin(M)) and (e.op, e.inner, e.n) == ("pow", fin(M), None) and repr(e) == "2^(Fin(m))"

    @pytest.mark.parametrize("trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_and_pickles_give_the_interned_object(self, trip):
        for e in (M, ALEPH0, power(fin(M)), times(3, power(M)), partitions(square(M))):
            assert trip(e) is e
        fact = trip(("le", fin(M), power(M)))
        assert fact[1] is fin(M) and fact[2] is power(M)

    def test_multipliers_differ(self):
        assert times(2, M) != times(3, M)
        assert times(2, M) == CExpr("times", M, 2)


class TestClosureRules:
    def test_cantor_bernstein_contradiction(self):
        cl = close(
            [
                ("le", fin(M), power(M), "t"),
                ("le", power(M), fin(M), "t"),
            ]
        )
        assert cl.contradiction is not None
        # the trace replays down to axioms
        assert any("axiom" in ln for ln in cl.explain_contradiction())

    def test_transitivity_and_strictness(self):
        cl = close(
            [
                ("lt", M, fin(M), "t"),
                ("lt", fin(M), power(M), "t"),
                ("lt", power(M), injseq(M), "t"),
                ("lt", injseq(M), anyseq(M), "t"),
            ]
        )
        assert cl.contradiction is None
        assert cl.has("lt", M, anyseq(M))
        assert cl.has("lt", M, injseq(M))

    def test_incomparable_bookkeeping(self):
        cl = close([("inc", fin(M), injseq(M), "t")])
        assert cl.has("nle", fin(M), injseq(M))
        assert cl.has("nle", injseq(M), fin(M))
        assert cl.has("inc", injseq(M), fin(M))

    def test_incomparable_with_le_contradiction(self):
        cl = close(
            [
                ("inc", fin(M), injseq(M), "t"),
                ("le", fin(M), injseq(M), "t"),
            ]
        )
        assert cl.contradiction is not None

    def test_power_monotone_under_surjections(self):
        cl = close(
            [("lestar", power(M), fin(M), "t")],
            extra_terms=[power(power(M)), power(fin(M))],
        )
        assert cl.has("le", power(power(M)), power(fin(M)))

    def test_no_surjection_transitivity_assumed(self):
        cl = close(
            [
                ("lestar", fin(M), M, "t"),
                ("lestar", injseq(M), fin(M), "t"),
            ]
        )
        assert not cl.has("lestar", injseq(M), M)
        assert not cl.has("le", injseq(M), M)

    def test_countable_power_blocks_sequence_codings(self):
        cl = close(
            [("le", ALEPH0, M, "t")],
            extra_terms=[injseq(M), anyseq(M), power(M)],
        )
        assert cl.has("nle", power(M), anyseq(M))
        assert cl.has("nle", power(M), injseq(M))

    def test_contradiction_is_recorded(self):
        cl = close([("lt", M, fin(M), "t"), ("le", fin(M), M, "t")])
        assert cl.contradiction is not None

    def test_strict_relations_read_through_expand(self):
        cl = model_closure("vp")
        assert cl.has("lt", M, pairs2(M)) and cl.has("gt", pairs2(M), M)
        assert not cl.has("gt", M, pairs2(M))
        with pytest.raises(ValueError, match="unknown relation 'ge'"):
            cl.has("ge", M, pairs2(M))

    def test_schema_rows_apply_at_every_term(self):
        # e = Fin(m) meets Cantor's row; e = m does not, 2^m being absent
        cl = close([], extra_terms=[power(fin(M))])
        assert cl.trace[("le", fin(M), power(fin(M)))] == ("schema:cantor", ())
        assert cl.trace[("le", M, fin(M))] == ("schema:singleton-map", ())
        assert not cl.has("le", M, power(M))


class TestModelClosures:
    def test_all_models_consistent(self):
        for name in MODELS:
            assert model_closure(name).contradiction is None, name

    def test_closure_idempotent_and_traces_grounded(self):
        closures = {name: model_closure(name) for name in MODELS}
        for name, cl in closures.items():
            again = close(
                [(rel, a, b, "refeed") for rel, a, b in cl.facts],
                extra_terms=cl.universe,
            )
            assert again.facts == cl.facts, name
        closures["forbidden"] = forbidden_pattern_closure()
        for name, cl in closures.items():
            # holds by construction: `facts` is the key view of `trace`
            assert set(cl.trace) == cl.facts, name
            # every premise is recorded before the fact that cites it
            earlier = set()
            for fact, (rule, premises) in cl.trace.items():
                assert rule in FIXPOINT_RULES or rule.startswith(("axiom:", "schema:")), rule
                for p in premises:
                    assert p in earlier, (name, fact, p)
                earlier.add(fact)

    @pytest.mark.parametrize("lookup", [model_axioms, model_extra_terms])
    def test_unknown_model_is_refused(self, lookup):
        with pytest.raises(ValueError, match="unknown model 'zf'"):
            lookup("zf")

    @pytest.mark.parametrize("name", MODELS)
    def test_every_model_closes_over_the_table_terms(self, name):
        assert model_extra_terms(name)[: len(TABLE_TERMS)] == TABLE_TERMS
        assert all(label.startswith(f"{name}:") for *_, label in model_axioms(name))

    def test_mostowski_chain_closure(self):
        cl = model_closure("mostowski")
        assert cl.has("lt", M, anyseq(M))
        assert cl.has("lt", M, injseq(M))
        assert cl.has("lt", pairs2(M), anyseq(M))
        assert cl.has("eq", power(fin(M)), power(power(M)))

    def test_fraenkel_derived_facts(self):
        cl = model_closure("fraenkel")
        assert cl.has("lt", times(1, power(M)), times(2, power(M)))
        assert cl.has("lt", times(2, power(M)), times(3, power(M)))
        assert cl.has("lt", power(M), partitions(M))
        assert cl.has("lt", power(M), power(pairs2(M)))
        # the power object being Dedekind finite pulls the base down with it
        assert cl.has("nle", ALEPH0, M)

    def test_vp_square_below_pairs(self):
        cl = model_closure("vp")
        assert cl.has("lt", square(M), pairs2(M))
        assert cl.has("lt", M, power(M))

    def test_aleph0_collapse(self):
        cl = model_closure("aleph0")
        assert cl.has("eq", injseq(M), anyseq(M))
        assert cl.has("lt", anyseq(M), power(M))


class TestSummaryTable:
    def test_full_report(self):
        report = check_summary_table()
        assert report["ok"]
        for cell in report["cells"]:
            assert cell["ok"], cell
        assert report["forbidden"]["contradiction"]
        assert report["forbidden"]["trace"]

    def test_forbidden_pattern_trace_replays(self):
        cl = forbidden_pattern_closure()
        assert cl.contradiction is not None
        assert "axiom:scenario" in "\n".join(cl.explain_contradiction())

    def test_seq_vs_power_cell_spread(self):
        report = check_summary_table()
        cell = next(
            c for c in report["cells"] if c["pair"] == ["Seq(m)", "2^(m)"]
        )
        assert set(cell["claims"]) == {">", "!=", "<", "||"}
        for holders in cell["claims"].values():
            assert holders


class TestArithmetic:
    def test_factorial_examples(self):
        assert factorial_bounds(10) == (True, True)
        assert factorial_bounds(9) == (False, False)
        assert factorial_bounds(0) == (False, False)

    def test_threshold_scan(self):
        weak = [n for n in range(31) if factorial_bounds(n)[0]]
        strong = [n for n in range(31) if factorial_bounds(n)[1]]
        assert weak == list(range(10, 31))
        assert strong == list(range(10, 31))

    def test_ramsey_recurrence(self):
        assert ramsey_upper(1) == 3
        assert ramsey_upper(2) == 6
        assert ramsey_upper(3) == 17
        values = [ramsey_upper(r) for r in range(1, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_ramsey_two_exactness(self):
        assert ramsey_two_exactness() == (True, True)


def test_display_forms():
    assert display(power(fin(M))) == "2^(Fin(m))"
    assert display(times(2, power(M))) == "2*2^(m)"
    assert show_fact(("inc", fin(M), injseq(M))) == "Fin(m) || Seq(m)"
