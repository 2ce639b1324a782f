import copy
import itertools
import json
import pickle
import random

import pytest

from choiceless import labchecks, oracles, refute
from choiceless.atoms import (
    CAPS,
    Atom,
    BudgetExceeded,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    Rational,
)
from choiceless.constructions import (
    AtomsDom,
    FinDom,
    HFSet,
    HFTuple,
    LabeledNatSetDom,
    NatDom,
    NatSetDom,
    PairDom,
    PartitionDom,
    PowDom,
    SeqDom,
    SeqStarDom,
    SubsetDom,
    UnordPairsDom,
    hf_from_json,
    hf_to_json,
    hfset,
    hftuple,
)
from choiceless.labchecks import (
    _grouped,
    _Scripted,
    exhaustive_refutation_paths,
    run_random_refutations,
)
from choiceless.refute import (
    BudgetExhausted,
    EngineBug,
    EquivarianceBreak,
    InjectionOracle,
    InjectivityCollapse,
    OracleAnswerError,
    Refuted,
    StreamResult,
    WitnessInvalid,
    WitnessTampered,
    disjointify_finite,
    extract_fin_to_atom_mostowski,
    extract_from_partition_injection,
    extract_from_surplus,
    extract_seqstar_to_seq,
    oracle_key,
    partition_to_edges,
    refute_fin_to_seq_fraenkel,
    refute_fin_to_seqstar_fraenkel,
    refute_nat_to_power_fraenkel,
    refute_seq_to_power_fraenkel,
    refute_unordered_to_ordered_pairmodel,
    rgs_partitions,
    seq_count,
    surjection_to_power_injection,
    verify_witness,
    witness_to_json,
)
from choiceless.symsets import SupportedSubset, count_supported


# every built-in refutation oracle at every built-in support size
BUILTIN_ORACLES = [
    (engine, name, size)
    for engine, spec in oracles.REFUTE.items()
    for name in spec.oracles
    for size in spec.sizes
]


class TestOracleShell:
    def test_answers_memoised(self):
        s = PureSetStructure(2)
        calls = {"n": 0}

        def fn(x):
            calls["n"] += 1
            return hftuple(())

        o = InjectionOracle(fn, FinDom(AtomsDom()), SeqDom(), structure=s)
        x = hfset(s.atoms()[:1])
        assert o.query(x) == o.query(x)
        assert calls["n"] == 1 and len(o.transcript) == 1

    def test_repeated_answer_raises_verified_collapse(self):
        s = PureSetStructure(2)
        a, b = s.atoms()
        o = InjectionOracle(lambda x: hftuple(()), FinDom(AtomsDom()), SeqDom(), structure=s)
        first = hfset(a)
        y = o.query(first)
        assert o.query(hfset(a)) is y  # a memo hit is not a collapse
        with pytest.raises(Refuted) as caught:
            o.query(hfset(b))
        w = caught.value.witness
        assert isinstance(w, InjectivityCollapse)
        assert w.x1 is first and w.x2 == hfset(b) and w.y == hftuple(())
        assert verify_witness(w, s, (), o.transcript)

    def test_extractor_convicted_partway_keeps_its_values(self):
        t = DenseOrderStructure()
        fn = lambda x: t.atom(min(len(x.items), 3))
        o = InjectionOracle(fn, FinDom(AtomsDom()), AtomsDom(), structure=t)
        r = extract_fin_to_atom_mostowski(o, 10)
        assert not r.ok
        assert r.values == [t.atom(i) for i in range(4)]
        assert r.collapse.x1 == hfset(r.values[:3]) and r.collapse.x2 == hfset(r.values)
        assert verify_witness(r.collapse, t, (), o.transcript)

    def test_bool_query_refused_after_its_int_fills_the_memo(self):
        o = InjectionOracle(lambda n: n + 1, NatDom(), NatDom())
        assert o.query(1) == 2
        with pytest.raises(OracleAnswerError):
            o.query(True)
        assert o.transcript == [(1, 2)]

    def test_subset_answers_need_the_oracles_structure(self):
        s = PureSetStructure()
        o = InjectionOracle(lambda n: SupportedSubset.empty(s), NatDom(), PowDom())
        with pytest.raises(OracleAnswerError):
            o.query(0)

    @pytest.mark.parametrize(
        "domain,good,bad",
        [
            (NatSetDom(), frozenset({0, 1}), frozenset({True})),
            (LabeledNatSetDom(2), (1, frozenset()), (True, frozenset())),
            (LabeledNatSetDom(2), (0, frozenset({1})), (0, frozenset({True}))),
        ],
        ids=["natural", "label", "labelled-natural"],
    )
    def test_nat_domains_refuse_bools(self, domain, good, bad):
        assert domain.contains(good) and not domain.contains(bad)

    @pytest.mark.parametrize("bad", [True, False, -1, 1.0, "2"], ids=repr)
    def test_nat_domains_refuse_non_naturals(self, bad):
        # a bool, a negative int or a non-int, as the value, as a set
        # member, or as a label or a member of a labelled set
        cases = [
            (NatDom(), 2, bad),
            (NatSetDom(), frozenset({0, 2}), frozenset({2, bad})),
            (LabeledNatSetDom(2), (1, frozenset({2})), (1, frozenset({bad}))),
            (LabeledNatSetDom(2), (0, frozenset()), (bad, frozenset())),
        ]
        for domain, good, refused in cases:
            assert domain.contains(good) and not domain.contains(refused)

    @pytest.mark.parametrize(
        "bad",
        [
            {frozenset({0, 1}), frozenset({2, 3})},
            [frozenset({0, 1}), frozenset({2, 3})],
            frozenset({frozenset(), frozenset({0, 1, 2, 3})}),
            frozenset({(0, 1), frozenset({2, 3})}),
            frozenset({frozenset({0, 1, 2}), frozenset({2, 3})}),
        ],
        ids=["set", "list", "empty-block", "tuple-block", "overlapping-blocks"],
    )
    def test_partition_domain_refuses_non_partitions(self, bad):
        domain = PartitionDom(frozenset(range(4)))
        assert domain.contains(frozenset({frozenset({0, 1}), frozenset({2, 3})}))
        assert not domain.contains(bad)

    @pytest.mark.parametrize("value", [True, False, (0, True), frozenset({False})], ids=repr)
    def test_oracle_key_refuses_a_bool(self, value):
        # True == 1, so a bool keyed as a natural would meet 1's entry
        with pytest.raises(TypeError, match="booleans are not oracle values"):
            oracle_key(value)

    def test_codomain_enforced(self):
        s = PureSetStructure(2)
        a, b = s.atoms()
        o = InjectionOracle(
            lambda x: hftuple(a, a), FinDom(AtomsDom()), SeqDom(), structure=s
        )
        with pytest.raises(OracleAnswerError):
            o.query(hfset(a))


class TestFinToSeq:
    def test_sort_oracle_equivariance_break(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 0, 0)
        w = refute_fin_to_seq_fraenkel(o)
        assert isinstance(w, EquivarianceBreak)
        assert verify_witness(w, s, E, o.transcript)

    def test_constant_oracle_collapse(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "const-empty", 0, 0)
        w = refute_fin_to_seq_fraenkel(o)
        assert isinstance(w, InjectivityCollapse)

    def test_with_declared_support(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 3, 0)
        w = refute_fin_to_seq_fraenkel(o)
        assert isinstance(w, EquivarianceBreak)
        assert w.pi.fixes_pointwise(E)


class TestFinToSeqstar:
    def test_constant_collapse(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seqstar", "const-empty", 0, 0)
        assert isinstance(refute_fin_to_seqstar_fraenkel(o), InjectivityCollapse)

    def test_id_order_break(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seqstar", "pair-id-order", 0, 0)
        w = refute_fin_to_seqstar_fraenkel(o)
        assert isinstance(w, EquivarianceBreak)

    def test_support_only_fixed_value(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seqstar", "support-only", 2, 0)
        w = refute_fin_to_seqstar_fraenkel(o)
        assert isinstance(w, InjectivityCollapse)

    def test_two_distinct_support_values_pair_exchange(self):
        s = PureSetStructure(1)
        (e,) = s.atoms()
        state = {"n": 0}

        def fn(x):
            state["n"] += 1
            return hftuple([e] * state["n"])

        o = InjectionOracle(
            fn, FinDom(AtomsDom()), SeqStarDom(), support=(e,), structure=s
        )
        w = refute_fin_to_seqstar_fraenkel(o)
        assert isinstance(w, EquivarianceBreak)
        # the input moved to the other probed pair
        assert oracle_key(w.x) != oracle_key(o.transcript[1][0])


class TestSeqToPower:
    def test_requires_support_of_four(self):
        s, E, o = oracles.build_refute_oracle("seq-to-power", "const-empty", 3, 0)
        with pytest.raises(ValueError):
            refute_seq_to_power_fraenkel(o)

    def test_counting_details(self):
        s, E, o = oracles.build_refute_oracle("seq-to-power", "atoms-of-input", 4, 0)
        w = refute_seq_to_power_fraenkel(o)
        assert w.details == {"seq_count": 65, "supported_bound": 32}
        assert seq_count(4) == 65 == 1 + 4 + 12 + 24 + 24

    def test_escaping_answer_break(self):
        s = PureSetStructure(4)
        E = tuple(s.atoms())
        extra = s.fresh(1)[0]
        from choiceless.symsets import SupportedSubset

        def fn(x):
            return SupportedSubset.of_atoms(s, list(x.items) + [extra])

        from choiceless.constructions import PowDom

        o = InjectionOracle(fn, SeqDom(), PowDom(), support=E, structure=s)
        w = refute_seq_to_power_fraenkel(o)
        assert isinstance(w, EquivarianceBreak)

    def test_probe_bound_is_all_sequences(self):
        s, E, o = oracles.build_refute_oracle("seq-to-power", "random", 4, 1)
        refute_seq_to_power_fraenkel(o)
        assert len(o.transcript) <= 65


class TestNatToPower:
    def test_first_n_atoms_escapes_at_one(self):
        s, E, o = oracles.build_refute_oracle("nat-to-power", "first-n-atoms", 0, 0)
        w = refute_nat_to_power_fraenkel(o)
        assert isinstance(w, EquivarianceBreak) and w.x == 1

    def test_constant_collapse_at_second_probe(self):
        s, E, o = oracles.build_refute_oracle("nat-to-power", "const-empty", 0, 0)
        w = refute_nat_to_power_fraenkel(o)
        assert isinstance(w, InjectivityCollapse)
        assert len(o.transcript) == 2

    def test_probe_bound(self):
        s, E, o = oracles.build_refute_oracle("nat-to-power", "random", 1, 3)
        refute_nat_to_power_fraenkel(o)
        assert len(o.transcript) <= 2 ** 2 + 1


class TestPairModelEngine:
    def test_min_max_oracle_case_four(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "base-id-order", 0, 0)
        w = refute_unordered_to_ordered_pairmodel(o, budget=6)
        assert isinstance(w, EquivarianceBreak)

    def test_constant_collapse(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "const-pair", 0, 0)
        assert isinstance(
            refute_unordered_to_ordered_pairmodel(o, budget=6), InjectivityCollapse
        )

    def test_decorated_bit_flip(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "decorated", 0, 0)
        w = refute_unordered_to_ordered_pairmodel(o, budget=6)
        assert isinstance(w, EquivarianceBreak)
        # the cited map flips a decorated atom while fixing the input pair
        moved = [a for a, b in w.pi.pairs.items() if a != b]
        assert any(a.level >= 1 for a in moved)

    def test_stray_base_swap(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "stray-per-pair", 0, 0)
        w = refute_unordered_to_ordered_pairmodel(o, budget=6)
        assert isinstance(w, EquivarianceBreak)

    def test_budget_exhaustion_is_reported_not_faked(self):
        s = PairStructure(0)
        pool = s.fresh(80)
        state = {"n": 0}

        def fn(x):
            state["n"] += 1
            a, b = sorted(x, key=lambda at: at.payload)
            if state["n"] % 3 == 0:
                return hftuple(a, b)
            if state["n"] % 3 == 1:
                return hftuple(b, a)
            return hftuple(pool[40 + state["n"] % 30], a)

        o = InjectionOracle(
            fn,
            UnordPairsDom(AtomsDom()),
            PairDom(AtomsDom(), AtomsDom()),
            structure=s,
        )
        w = refute_unordered_to_ordered_pairmodel(o, budget=3)
        assert isinstance(w, BudgetExhausted)
        assert w.budget == 3 and w.needed > w.budget

    def test_a_budget_past_the_cap_is_refused_before_probing(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "base-id-order", 0, 0)
        with pytest.raises(BudgetExceeded, match="201 atoms exceeds the cap of 200"):
            refute_unordered_to_ordered_pairmodel(o, budget=CAPS["budget"] + 1)
        assert len(o.transcript) == 0

    def test_negative_budget_rejected(self):
        s, E, o = oracles.build_refute_oracle("unordered-to-ordered", "base-id-order", 0, 0)
        with pytest.raises(ValueError):
            refute_unordered_to_ordered_pairmodel(o, budget=-1)
        assert len(o.transcript) == 0

    def test_hostile_tables_always_sound(self):
        """Random tables over varied support shapes (bases, decorated atoms)
        either fall to a verified witness or report budget exhaustion."""
        outcomes = {"EquivarianceBreak": 0, "InjectivityCollapse": 0, "BudgetExhausted": 0}
        for trial in range(60):
            rng = random.Random(trial)
            s = PairStructure(0)
            nb = rng.randint(0, 2)
            E = s.fresh(nb)
            if nb >= 2 and rng.random() < 0.5:
                E = E + [s.pair_atom(1, E[0], E[1], rng.choice((0, 1)))]
            pool = s.fresh(6, avoid=E)

            def fn(x, rng=rng, s=s, E=E, pool=pool):
                a, b = sorted(x, key=lambda at: at.payload)
                options = list(E) + pool[:3] + [a, b]
                if rng.random() < 0.4:
                    options.append(s.pair_atom(1, a, b, rng.choice((0, 1))))
                return hftuple(rng.choice(options), rng.choice(options))

            o = InjectionOracle(
                fn,
                UnordPairsDom(AtomsDom()),
                PairDom(AtomsDom(), AtomsDom()),
                support=tuple(E),
                structure=s,
            )
            w = refute_unordered_to_ordered_pairmodel(o, budget=rng.choice((4, 6)))
            outcomes[type(w).__name__] += 1
        assert sum(outcomes.values()) == 60

    def test_support_closure_required(self):
        s = PairStructure(2)
        a, b = s.base_atom(0), s.base_atom(1)
        u = s.pair_atom(1, a, b, 0)
        o = InjectionOracle(
            lambda x: hftuple(a, b),
            UnordPairsDom(AtomsDom()),
            PairDom(AtomsDom(), AtomsDom()),
            support=(u,),  # components are missing
            structure=s,
        )
        with pytest.raises(ValueError):
            refute_unordered_to_ordered_pairmodel(o, budget=4)

    def test_pinned_level_falls_back(self):
        # support contains a level-1 atom, so the level-1 bit is pinned and
        # the flip fallback chain must still find a witness
        s = PairStructure(0)
        c0, c1 = s.fresh(2)
        u = s.pair_atom(1, c0, c1, 0)
        E = (c0, c1, u)

        def fn(x):
            a, b = sorted(x, key=lambda at: at.payload)
            return hftuple(s.pair_atom(1, a, b, 0), a)

        o = InjectionOracle(
            fn,
            UnordPairsDom(AtomsDom()),
            PairDom(AtomsDom(), AtomsDom()),
            support=E,
            structure=s,
        )
        w = refute_unordered_to_ordered_pairmodel(o, budget=6)
        assert isinstance(w, (EquivarianceBreak, InjectivityCollapse))


class TestWitnessVerification:
    def test_witness_invalid_is_not_an_assertion_error(self):
        # library code never raises an AssertionError, and `python -O`
        # leaves a raised exception alone
        assert not issubclass(WitnessInvalid, AssertionError)
        assert issubclass(WitnessInvalid, Exception)

    def test_cited_fields_are_read_only(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 1, 0)
        w = refute_fin_to_seq_fraenkel(o)
        c = InjectivityCollapse(w.x, w.x, hftuple(()))
        assert o.vouches_for(w) and not o.vouches_for(c)
        for witness, field in [(w, "pi"), (w, "fixed"), (w, "x"), (c, "x1"), (c, "x2"), (c, "y")]:
            with pytest.raises(WitnessTampered, match=f"cited field '{field}'"):
                setattr(witness, field, None)
            with pytest.raises(AttributeError):
                delattr(witness, field)
        assert issubclass(WitnessTampered, WitnessInvalid)
        w.details = {"seen": 1}
        assert w.details == {"seen": 1} and o.vouches_for(w)
        o.query(hfset(s.fresh(2)))
        assert not o.vouches_for(w)

    def test_fields_written_in_init_still_refuse_every_later_write(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 1, 0)
        w = refute_fin_to_seq_fraenkel(o)
        x, y = o.transcript[0]
        c = InjectivityCollapse(x, x, y)
        b = EquivarianceBreak(w.pi, list(E), x)
        assert (c.x1, c.x2, c.y, c.details) == (x, x, y, {})
        assert (b.fixed, b.x, b.details) == (tuple(E), x, {}) and b.pi.pairs == w.pi.pairs and b.pi is not w.pi
        for witness, fields in ((c, ("x1", "x2", "y")), (b, ("pi", "fixed", "x")), (w, ("pi", "fixed", "x"))):
            for field in fields:
                before = getattr(witness, field)
                with pytest.raises(WitnessTampered, match=f"cited field '{field}'"):
                    setattr(witness, field, before)
                with pytest.raises(WitnessTampered, match=f"cited field '{field}'"):
                    delattr(witness, field)
                assert getattr(witness, field) is before
            witness.details = {"kept": True}
            assert witness.details == {"kept": True}
        with pytest.raises(ValueError):
            InjectivityCollapse(x, x)

    @pytest.mark.parametrize("oracle,kind", [("const-empty", "injectivity-collapse"), ("sort", "equivariance-break")])
    def test_copies_and_pickles_rebuild_a_witness_that_still_verifies(self, oracle, kind):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", oracle, 1, 0)
        w = refute_fin_to_seq_fraenkel(o)
        assert w.kind == kind
        w.details = {"kept": [1]}
        for rebuild in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin = rebuild(w)
            assert type(twin) is type(w) and twin is not w and twin.details == {"kept": [1]}
            for field in type(w).__slots__:
                before = getattr(twin, field)
                if field == "pi":
                    assert type(before) is type(w.pi) and before.pairs == w.pi.pairs
                    with pytest.raises(WitnessTampered):
                        before.pairs[E[0]] = E[0]
                else:
                    assert before == getattr(w, field)
                with pytest.raises(WitnessTampered, match=f"cited field '{field}'"):
                    setattr(twin, field, before)
            assert verify_witness(twin, s, E, o.transcript)

    def test_tampered_collapse_rejected(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "const-empty", 0, 0)
        w = refute_fin_to_seq_fraenkel(o)
        tampered = InjectivityCollapse(w.x1, w.x1, w.y)
        with pytest.raises(WitnessInvalid):
            verify_witness(tampered, s, E, o.transcript)

    def test_unprobed_input_rejected(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "const-empty", 0, 0)
        w = refute_fin_to_seq_fraenkel(o)
        ghost = hfset(s.fresh(2))
        tampered = InjectivityCollapse(ghost, w.x2, w.y)
        with pytest.raises(WitnessInvalid):
            verify_witness(tampered, s, E, o.transcript)

    def test_break_requires_support_fixing(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 2, 0)
        w = refute_fin_to_seq_fraenkel(o)
        from choiceless.atoms import PartialAutomorphism

        pairs = dict(w.pi.pairs)
        e0, e1 = E[0], E[1]
        pairs[e0], pairs[e1] = pairs.get(e1, e1), pairs.get(e0, e0)
        tampered = EquivarianceBreak(PartialAutomorphism(pairs), E, w.x)
        with pytest.raises(WitnessInvalid):
            verify_witness(tampered, s, E, o.transcript)

    def test_commuting_map_rejected(self):
        s = PureSetStructure(0)
        o = oracles.builtin_oracle("fin-to-seq", "sort", s)
        w = refute_fin_to_seq_fraenkel(o)
        from choiceless.atoms import PartialAutomorphism

        identity = PartialAutomorphism({a: a for a in w.pi.pairs})
        with pytest.raises(WitnessInvalid):
            verify_witness(EquivarianceBreak(identity, (), w.x), s, (), o.transcript)

    @pytest.mark.parametrize(
        "engine,name,size", BUILTIN_ORACLES, ids=[f"{e}-{n}-{k}" for e, n, k in BUILTIN_ORACLES]
    )
    def test_json_roundtrip_all_engines(self, tmp_path, engine, name, size):
        s, E, o = oracles.build_refute_oracle(engine, name, size, 0)
        w = oracles.REFUTE[engine].run(o, budget=6)
        path = tmp_path / f"{engine}.json"
        path.write_text(json.dumps(witness_to_json(w, engine, o), sort_keys=True))
        assert oracles.replay_witness(json.loads(path.read_text()))

    @pytest.mark.parametrize("seed", range(4))
    def test_honest_oracles_fall_by_equivariance_break(self, seed):
        # an honest oracle is injective, so no two probes can collapse
        honest = [(e, n, k) for e, n, k in BUILTIN_ORACLES if oracles.REFUTE[e].oracles[n].honest]
        assert len(honest) == 9
        for engine, name, size in honest:
            s, E, o = oracles.build_refute_oracle(engine, name, size, seed)
            w = oracles.REFUTE[engine].run(o, budget=6)
            assert isinstance(w, EquivarianceBreak), (engine, name, size, w)

    def test_json_detects_tampering(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 0, 0)
        w = refute_fin_to_seq_fraenkel(o)
        data = witness_to_json(w, "fin-to-seq", o)
        # drop the probed entry the witness cites
        data["transcript"] = []
        with pytest.raises(WitnessInvalid):
            oracles.replay_witness(data)


POOLED = [engine for engine, spec in oracles.REFUTE.items() if spec.pool is not None]


class _NaiveScripted:
    """Serves the answer at each scripted pool index; signals exhaustion."""

    class Exhausted(Exception):
        pass

    def __init__(self, pool_fn, script):
        self.pool_fn = pool_fn
        self.script = script
        self.used = 0
        self.branch = None

    def __call__(self, x):
        pool = self.pool_fn(x)
        if self.used >= len(self.script):
            self.branch = len(pool)
            raise _NaiveScripted.Exhausted()
        idx = self.script[self.used]
        self.used += 1
        return pool[idx]


def naive_exhaustive_paths(engine, support_size):
    """The exhaustive search that `exhaustive_refutation_paths` replaces:
    it branches on every pool index, so a value the pool offers k times
    is searched k times, and every leaf counts once.  Test-only oracle."""
    spec = oracles.REFUTE[engine]
    s, E = spec.universe(support_size)
    answers = spec.pool(s, E)
    dom, cod = spec.domains()
    kinds = {}
    stats = {"tables": 0, "runs": 0, "witnesses": kinds}
    stack = [()]
    while stack:
        script = stack.pop()
        stats["runs"] += 1
        fn = _NaiveScripted(answers, script)
        o = InjectionOracle(fn, dom, cod, support=E, structure=s)
        try:
            w = spec.run(o)
        except _NaiveScripted.Exhausted:
            stack.extend(script + (i,) for i in range(fn.branch))
            continue
        verify_witness(w, s, E, o.transcript)
        stats["tables"] += 1
        kinds[type(w).__name__] = kinds.get(type(w).__name__, 0) + 1
    return stats


class _OutOfScript(Exception):
    pass


def play(engine, support_size, script, member=None):
    """One quotiented run over a fresh universe.  Probe i gets the
    representative of answer value script[i], or, when member is (i, j),
    the j-th member of that value's group.  Gives ("need", values on
    offer) when the script runs out, else the verified witness's kind
    and, per probe, the values on offer and the chosen group's size."""
    spec = oracles.REFUTE[engine]
    s, E = spec.universe(support_size)
    answers = _grouped(spec.pool(s, E))
    offered = []

    def fn(x):
        groups = answers(x)
        i = len(offered)
        if i == len(script):
            raise _OutOfScript(len(groups))
        group = groups[script[i]]
        offered.append((len(groups), len(group)))
        return group[member[1] if member and member[0] == i else 0]

    o = InjectionOracle(fn, *spec.domains(), support=E, structure=s)
    try:
        w = spec.run(o)
    except _OutOfScript as exc:
        return ("need", exc.args[0])
    verify_witness(w, s, E, o.transcript)
    return (type(w).__name__, tuple(offered))


class TestExhaustiveTables:
    @pytest.mark.parametrize("size", [0, 1])
    @pytest.mark.parametrize("engine", POOLED)
    def test_value_quotient_matches_naive_search(self, engine, size):
        fast = exhaustive_refutation_paths(engine, size)
        slow = naive_exhaustive_paths(engine, size)
        assert "failure" not in fast
        assert fast["tables"] == slow["tables"] > 0
        assert fast["witnesses"] == slow["witnesses"]
        assert fast["runs"] <= slow["runs"]
        if engine == "nat-to-power":
            assert fast["runs"] == {0: 21, 1: 521}[size]

    @pytest.mark.parametrize("size", [0, 1])
    @pytest.mark.parametrize("engine", POOLED)
    def test_outcome_does_not_depend_on_the_representative(self, engine, size):
        """Serving any other member of a chosen value's group, at any one
        probe of a sampled leaf, gives the same probe shape, the same
        witness kind and a witness that re-verifies."""
        leaves, runs, stack = [], 0, [()]
        while stack:
            script = stack.pop()
            runs += 1
            out = play(engine, size, script)
            if out[0] == "need":
                stack.extend(script + (i,) for i in range(out[1]))
            else:
                leaves.append((script, out))
        assert runs == exhaustive_refutation_paths(engine, size)["runs"]
        first_of_kind = {out[0]: (script, out) for script, out in reversed(leaves)}
        sample = list(first_of_kind.values()) + random.Random(size).sample(leaves, min(12, len(leaves)))
        assert set(first_of_kind) == {"InjectivityCollapse", "EquivarianceBreak"}
        served = 0
        for script, out in sample:
            for i, (_, members) in enumerate(out[1]):
                for j in range(1, members):
                    assert play(engine, size, script, (i, j)) == out, (script, i, j)
                    served += 1
        assert served > 0 or engine != "nat-to-power"

    def test_script_index_outside_the_values_raises(self):
        for idx in (2, -1):
            with pytest.raises(IndexError):
                _Scripted(lambda x: [["a"], ["b", "b"]], (idx,))(0)

    def test_every_truncated_table_is_refuted(self):
        for engine in ("fin-to-seq", "fin-to-seqstar"):
            for size in (0, 1):
                stats = exhaustive_refutation_paths(engine, size)
                assert stats["tables"] > 0
                assert sum(stats["witnesses"].values()) == stats["tables"]

    @pytest.mark.parametrize(
        "engine,tables,runs,witnesses",
        [
            ("fin-to-seq", 8142, 8468, {"EquivarianceBreak": 6837, "InjectivityCollapse": 1305}),
            ("fin-to-seqstar", 231, 239, {"EquivarianceBreak": 224, "InjectivityCollapse": 7}),
            ("nat-to-power", 37894, 521, {"EquivarianceBreak": 13374, "InjectivityCollapse": 24520}),
        ],
        ids=["fin-to-seq", "fin-to-seqstar", "nat-to-power"],
    )
    def test_support_two_totals(self, engine, tables, runs, witnesses):
        stats = exhaustive_refutation_paths(engine, 2)
        assert stats == {"tables": tables, "runs": runs, "witnesses": witnesses}

    @pytest.mark.parametrize("engine", POOLED)
    def test_each_leaf_is_verified_once(self, engine, monkeypatch):
        """The engine's own check is the leaf's one verification: the
        search verifies again only a witness the oracle does not vouch for."""
        calls, leaves = [], []
        verify = refute.verify_witness

        def counted(*args):
            calls.append(args[0])
            return verify(*args)

        run = oracles.REFUTE[engine].run

        def leaf(o, **kw):
            w = run(o, **kw)
            leaves.append(w)
            return w

        monkeypatch.setattr(refute, "verify_witness", counted)
        monkeypatch.setattr(labchecks, "verify_witness", counted)
        monkeypatch.setitem(oracles.REFUTE, engine, oracles.REFUTE[engine]._replace(run=leaf))
        stats = exhaustive_refutation_paths(engine, 1)
        assert "failure" not in stats and len(leaves) > 0
        assert [id(w) for w in calls] == [id(w) for w in leaves]

    def test_nat_to_power_support_zero(self):
        stats = exhaustive_refutation_paths("nat-to-power", 0)
        assert stats["tables"] == sum(stats["witnesses"].values())

    def test_random_adversaries_never_fool_engines(self):
        for c in run_random_refutations(80, seed=123):
            assert c["ok"], c


class _LoggedOracle(InjectionOracle):
    """Logs every query as a hit, a new input or a collapse onto an
    earlier input; keeps each instance made."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []
        _LoggedOracle.made.append(self)

    def query(self, x):
        probes = len(self.transcript)
        try:
            y = super().query(x)
        except Refuted as done:
            self.events.append(("collapse", x, done.witness.x1))
            raise
        self.events.append(("hit" if len(self.transcript) == probes else "new", x))
        return y


def _keyed_replay(queries, transcript):
    """The memo as first written, keyed by `oracle_key`: the events it
    gives the same queries, answered from the transcript."""
    answer = {oracle_key(x): y for x, y in transcript}
    memo, first, events = set(), {}, []
    for x in queries:
        k = oracle_key(x)
        if k in memo:
            events.append(("hit", k))
            continue
        memo.add(k)
        f = first.setdefault(oracle_key(answer[k]), k)
        events.append(("new", k) if f == k else ("collapse", k, f))
    return events


def _equal_copy(x, structure):
    """A new object equal to the oracle value x."""
    if isinstance(x, (frozenset, tuple)):
        return copy.deepcopy(x)
    return hf_from_json(hf_to_json(x), structure)


def _builtin_runs(engine):
    """Run the engine once per built-in oracle, seed and size."""
    spec = oracles.ENGINES[engine]
    for name in spec.oracles:
        if engine in oracles.REFUTE:
            for size, seed in itertools.product(spec.sizes, range(3)):
                spec.run(oracles.build_refute_oracle(engine, name, size, seed)[2], budget=8)
        else:
            for copies in (1, 2) if engine == "surplus" else (1,):
                spec.run(name, 20, copies)


@pytest.mark.parametrize("engine", sorted(oracles.ENGINES))
def test_value_keys_agree_with_oracle_keys(engine, monkeypatch):
    """Differential test of the value-keyed memo and answer grouping
    against `oracle_key`: every built-in oracle's queries, followed by
    an equal copy of each probed input, hit and collapse alike under
    both keys; every answer pool of the support 0-1 searches groups
    alike under both keys."""
    _LoggedOracle.made = []
    monkeypatch.setattr(oracles, "InjectionOracle", _LoggedOracle)
    _builtin_runs(engine)
    assert _LoggedOracle.made
    for o in _LoggedOracle.made:
        for x, _ in list(o.transcript):
            o.query(_equal_copy(x, o.structure))
        queries = [e[1] for e in o.events]
        got = [(e[0],) + tuple(map(oracle_key, e[1:])) for e in o.events]
        assert got == _keyed_replay(queries, o.transcript)
    if engine not in POOLED:
        return
    offered = []
    grouped = labchecks._grouped

    def spy(pool_fn):
        answers = grouped(pool_fn)

        def logged(x):
            offered.append((pool_fn(x), answers(x)))
            return answers(x)

        return logged

    monkeypatch.setattr(labchecks, "_grouped", spy)
    for size in (0, 1):
        exhaustive_refutation_paths(engine, size)
    assert offered
    for pool, groups in offered:
        by_key = {}
        for y in pool:
            by_key.setdefault(oracle_key(y), []).append(oracle_key(y))
        assert [list(map(oracle_key, g)) for g in groups] == list(by_key.values())


# every type a transcript value may have, and the values nested in it; a
# dense atom's payload is a `Rational`, whose numerator and denominator
# are plain ints
_NESTED = {
    Atom: lambda a: (a.payload,),
    Rational: lambda q: (),
    HFTuple: lambda t: t.items,
    HFSet: lambda s: s.members,
    SupportedSubset: lambda S: (S.support, S.mask),
    tuple: iter,
    frozenset: iter,
    int: lambda n: (),
}


@pytest.mark.parametrize("engine", sorted(oracles.ENGINES))
def test_every_transcript_value_refuses_assignment_and_deletion(engine, monkeypatch):
    """Every probe and answer of every built-in oracle, and every value
    nested in one, refuses to set or delete each slot of its class and a
    name it has no slot for."""
    _LoggedOracle.made = []
    monkeypatch.setattr(oracles, "InjectionOracle", _LoggedOracle)
    _builtin_runs(engine)
    todo = [entry for o in _LoggedOracle.made for entry in o.transcript]
    assert todo
    seen = set()
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        todo.extend(_NESTED[type(v)](v))
        for name in [n for c in type(v).__mro__ for n in getattr(c, "__slots__", ())] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)


class TestExtractors:
    def test_fin_to_atom_honest_and_cheat(self):
        t = DenseOrderStructure()
        r = extract_fin_to_atom_mostowski(oracles.builtin_oracle("fin-to-atom", "fresh-max", t), 100)
        assert r.ok and len(set(map(oracle_key, r.values))) == 100
        t2 = DenseOrderStructure()
        rc = extract_fin_to_atom_mostowski(oracles.builtin_oracle("fin-to-atom", "max-or-zero", t2), 100)
        assert not rc.ok

    @pytest.mark.parametrize("name", sorted(oracles.EXTRACT["fin-to-atom"].oracles))
    def test_fin_to_atom_answer_ignores_insertion_order(self, name):
        # the oracles read a set's members in the frozenset's order, which
        # may follow insertion order; the answer must not
        t = DenseOrderStructure()
        answer = oracles.EXTRACT["fin-to-atom"].oracles[name].answers(t, (), random.Random(0))
        atoms = [t.atom(Rational(k, 7)) for k in range(-20, 30, 3)] + [t.atom(5), t.atom(0), t.atom(Rational(1, 3))]
        rng = random.Random(1)
        for size in (0, 1, 2, 9, len(atoms)):
            members = atoms[:size]
            want = answer(hfset(sorted(members, key=lambda a: a.payload)))
            for _ in range(6):
                rng.shuffle(members)
                assert answer(HFSet(members)) == want

    def test_fin_to_atom_collapse_verifies(self):
        t = DenseOrderStructure()
        o = oracles.builtin_oracle("fin-to-atom", "max-or-zero", t)
        r = extract_fin_to_atom_mostowski(o, 10)
        assert not r.ok
        assert verify_witness(r.collapse, t, (), o.transcript)

    def test_seqstar_growing_lengths(self):
        t = DenseOrderStructure()
        o = oracles.builtin_oracle("seqstar-to-seq", "same-set-reversed", t)
        r = extract_seqstar_to_seq(o, t.atom(0), 50)
        assert r.ok and len(r.values) == 50

    def test_surplus_n_one_and_two(self):
        for n in (1, 2):
            o = oracles.builtin_oracle("surplus", "shift-encode", params=(n,))
            r = extract_from_surplus(n, o, 100)
            assert r.ok and len(set(r.values)) == 100

    def test_surplus_probe_order(self):
        probes = []

        def fn(x):
            probes.append(x)
            if x == (0, frozenset()):
                return (0, frozenset())
            return (0, frozenset({7}))

        from choiceless.constructions import LabeledNatSetDom

        o = InjectionOracle(fn, LabeledNatSetDom(2), LabeledNatSetDom(1))
        r = extract_from_surplus(1, o, 2)
        assert r.ok and probes[:2] == [(0, frozenset()), (1, frozenset())]

    def test_partition_seed_blocks(self):
        ground = list(range(40))
        seen = []

        def fn(p):
            seen.append(p)
            return frozenset({len(seen) + 3})

        gset = frozenset(ground)
        from choiceless.constructions import PartitionDom, SubsetDom

        o = InjectionOracle(fn, PartitionDom(gset), SubsetDom(gset))
        r = extract_from_partition_injection(o, ground, ground[:4], 3)
        assert r.ok
        # first probed partition merges the five seed blocks into one
        assert seen[0] == frozenset({frozenset(ground)})

    def test_partition_conviction(self):
        ground = list(range(24))
        o = oracles.builtin_oracle("partition", "const", params=(frozenset(ground),))
        r = extract_from_partition_injection(o, ground, ground[:4], 10)
        assert not r.ok and len(o.transcript) == 2


def signature_partition_extract(oracle, ground, distinguished, count):
    """The partition extractor as first written, kept as the oracle for
    block splitting: every round it recomputes each point's membership
    signature over the four singletons, the ground set and every value
    emitted so far, and takes the blocks in signature order."""
    ground = list(dict.fromkeys(ground))
    X = [frozenset({p}) for p in list(distinguished)[:4]] + [frozenset(ground)]
    emitted = []
    try:
        while len(emitted) < count:
            chi = {}
            for g in ground:
                chi.setdefault(tuple(0 if g in x else 1 for x in X), []).append(g)
            blocks = [frozenset(chi[sig]) for sig in sorted(chi)]
            probes_left = 2 ** len(blocks) + 2
            for q in rgs_partitions(len(blocks)):
                if probes_left <= 0:
                    raise EngineBug("per-round probe bound exhausted")
                probes_left -= 1
                y = oracle.query(frozenset(frozenset().union(*(blocks[i] for i in qb)) for qb in q))
                if any(b & y and not b <= y for b in blocks):
                    X.append(y)
                    emitted.append(y)
                    break
            else:
                raise EngineBug("partition supply exhausted before the pigeonhole")
    except Refuted as done:
        return StreamResult(emitted, done.witness)
    return StreamResult(emitted)


def _random_partition_oracle(seed, ground):
    """A seeded adversary.  At a per-seed rate its answer is a union of
    some blocks of the probed partition, which splits nothing, or a draw
    from a small pool, which repeats; otherwise it is a random subset."""
    rng = random.Random(seed)
    rate = rng.random()
    pool = [frozenset(rng.sample(ground, rng.randint(0, len(ground)))) for _ in range(rng.randint(2, 30))]

    def fn(p):
        r = rng.random()
        if r < rate / 2:
            return frozenset().union(*(b for b in p if rng.random() < 0.5))
        if r < rate:
            return rng.choice(pool)
        return frozenset(g for g in ground if rng.random() < 0.5)

    gset = frozenset(ground)
    return InjectionOracle(fn, PartitionDom(gset), SubsetDom(gset))


class TestPartitionRefinement:
    def outcomes(self, make_oracle, ground, count):
        """Values, verdict and transcript of both extractors, each against
        its own copy of the oracle."""
        out = []
        for extract in (extract_from_partition_injection, signature_partition_extract):
            o = make_oracle()
            try:
                r = extract(o, ground, ground[:4], count)
                out.append((r.values, r.ok, o.transcript))
            except EngineBug as exc:
                out.append((str(exc), None, o.transcript))
        return out

    @pytest.mark.parametrize("T", [10, 100])
    def test_fresh_singleton_matches_signatures(self, T):
        ground = list(range(T + 28))

        def make():
            return oracles.builtin_oracle("partition", "fresh-singleton", params=(frozenset(ground),))

        new, old = self.outcomes(make, ground, T)
        assert new == old and new[1] and len(new[0]) == T

    def test_seeded_random_oracles_match_signatures(self):
        ground = list(range(12))
        verdicts = set()
        for seed in range(300):
            new, old = self.outcomes(lambda: _random_partition_oracle(seed, ground), ground, 5)
            assert new == old, seed
            verdicts.add(new[1])
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "size,points",
        [(10, [0, 0, 1, 2]), (10, [0, 1, 2, 99]), (10, [0, 1, 2]), (4, [0, 1, 2, 3])],
        ids=["repeated", "outside", "three", "no-rest"],
    )
    def test_bad_distinguished_points_rejected(self, size, points):
        ground = list(range(size))
        o = oracles.builtin_oracle("partition", "fresh-singleton", params=(frozenset(ground),))
        with pytest.raises(ValueError, match="four distinct distinguished points"):
            extract_from_partition_injection(o, ground, points, 5)


class TestFiniteCombinatorics:
    def test_disjointify_example(self):
        d = disjointify_finite([0, 1, 2], [{0}, {0, 1}])
        assert d.classes == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert d.signatures == [(0, 0), (1, 0), (1, 1)]

    def test_disjointify_empty_list(self):
        d = disjointify_finite([0, 1, 2], [])
        assert d.classes == [frozenset({0, 1, 2})]

    def test_disjointify_singletons(self):
        m = list(range(5))
        d = disjointify_finite(m, [{i} for i in m])
        assert len(d.classes) == 5

    def test_disjointify_rejects_duplicates(self):
        with pytest.raises(ValueError):
            disjointify_finite([0, 1], [{0}, {0}])

    def test_surjection_preimage_table(self):
        table = surjection_to_power_injection({0: 0, 1: 1, 2: 0})
        assert table[frozenset({0})] == frozenset({0, 2})
        assert table[frozenset()] == frozenset()
        assert len(set(table.values())) == 4

    def test_surjection_onto_check(self):
        with pytest.raises(ValueError):
            surjection_to_power_injection({0: 0}, onto={0, 1})

    def test_surjection_bijective_case(self):
        table = surjection_to_power_injection({0: 1, 1: 0})
        assert len(table) == 4 and len(set(table.values())) == 4

    def test_partition_edges_examples(self):
        assert partition_to_edges([{0}, {1}, {2}]) == frozenset()
        assert len(partition_to_edges([{0, 1, 2}])) == 3

    def test_partition_edges_bell_four(self):
        m = [0, 1, 2, 3]
        edge_sets = set()
        count = 0
        for q in rgs_partitions(4):
            edge_sets.add(partition_to_edges([frozenset(m[i] for i in b) for b in q]))
            count += 1
        assert count == 15 and len(edge_sets) == 15

    def test_partition_edges_rejects_overlap(self):
        with pytest.raises(ValueError):
            partition_to_edges([{0, 1}, {1, 2}])


class TestAnswerPools:
    """A pool lists cheap keys and builds an answer per key; item i must be
    the eager list's item i, so `rng.choice` draws the answers it drew."""

    @staticmethod
    def cases():
        s = PureSetStructure(8)
        xs = s.atoms()
        for n in range(6):
            for max_len in range(3):
                yield oracles._seqs_up_to(xs[:n], max_len), [
                    hftuple(p) for k in range(max_len + 1) for p in itertools.permutations(xs[:n], k)
                ]
                yield oracles._tuples_up_to(xs[:n], max_len), [
                    hftuple(p) for k in range(max_len + 1) for p in itertools.product(xs[:n], repeat=k)
                ]
        for n in range(3):
            E, extra = xs[:n], xs[6:]
            supports = [(), E[:1], E[:2], extra, E[:1] + extra, E]
            eager = [SupportedSubset.from_bits(s, sup, b) for sup in supports for b in range(count_supported(s, sup))]
            yield oracles._subsets_over(s, supports), eager

    def test_item_i_is_the_eager_lists_item_i(self):
        for (build, keys), eager in self.cases():
            assert len(keys) == len(eager) > 0
            assert [build(key) for key in keys] == eager

    def test_draws_match_the_eager_lists(self):
        for (build, keys), eager in self.cases():
            for seed in range(3):
                by_key, by_list = random.Random(seed), random.Random(seed)
                assert [build(by_key.choice(keys)) for _ in range(20)] == [by_list.choice(eager) for _ in range(20)]

    @pytest.mark.parametrize("engine", ["fin-to-seq", "fin-to-seqstar"])
    def test_a_random_adversary_builds_each_drawn_answer_once(self, engine):
        # word answers are equal exactly when their keys are, so equal draws must be one object
        s = PureSetStructure(0)
        fn = oracles.REFUTE[engine].oracles["random"].answers(s, tuple(s.fresh(1)), random.Random(5))
        draws = [fn(None) for _ in range(300)]
        assert len({id(y) for y in draws}) == len(set(draws)) < len(draws)
