import os
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
    CExpr,
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


def depth_two_groups():
    """Each model with the 49 depth-2 terms, shuffled by a seeded generator
    and dealt into 4 fixed groups."""
    ops = [fin, injseq, anyseq, power, pairs2, square, partitions]
    terms = [f(g(M)) for f in ops for g in ops]
    rng = random.Random(0)
    out = []
    for name in MODELS:
        order = terms[:]
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

    def test_late_order_fact_meets_old_strictness(self):
        # le(b, c) arrives in round 2, when ne(b, c) and ne(c, b) are both
        # old; strictness-travels-up must still join them through it
        a, b, x, y, c = pairs2(M), square(M), partitions(M), anyseq(M), injseq(M)
        axioms = [("le", a, b), ("le", b, x), ("le", x, y), ("le", y, c), ("ne", b, c)]
        cl = assert_same_closure(lambda: close([(*f, "t") for f in axioms]))
        assert cl.trace[("ne", a, c)][0] == "strictness-travels-up"

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
    assert digests[0] == digests[1]


class TestCExpr:
    def test_structural_equality_and_hash(self):
        a, b = power(fin(M)), power(fin(M))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_key_value(self):
        assert power(fin(M)).key() == ("pow", ("fin", ("base", None, None), None), None)

    @pytest.mark.parametrize("attr", ["op", "inner", "n", "_key", "_hash", "other"])
    def test_immutable(self, attr):
        e = power(fin(M))
        with pytest.raises(AttributeError):
            setattr(e, attr, None)
        assert e == power(fin(M))

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
