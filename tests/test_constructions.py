import itertools
import random
from math import factorial

import pytest

from choiceless import labchecks
from choiceless.atoms import (
    AtomStructure,
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    extend_fixing,
    f_rel,
    fresh_realizer,
)
from choiceless.constructions import (
    AtomsDom,
    FinDom,
    NotASeq,
    PairDom,
    PowDom,
    SeqDom,
    SeqStarDom,
    UnordPairsDom,
    act,
    categorical_power_to_seq,
    categorical_seq_to_power,
    class_rank,
    class_rank_by_scan,
    default_anchors,
    hf_from_json,
    hf_key,
    hf_to_json,
    hfset,
    hftuple,
    kuratowski,
    member,
    mostowski_power_to_seq,
    nth_permutation,
    pairmodel_pair_to_unordered,
    seq_to_chain,
    size_class_map,
)
from choiceless.symsets import SupportedSubset, least_support, types_over


@pytest.fixture
def pure4():
    s = PureSetStructure(4)
    return s, s.atoms()


class TestHFObjects:
    def test_set_extensionality(self, pure4):
        _, (a, b, c, d) = pure4
        assert hfset(a, b) == hfset(b, a, b)
        assert hftuple(a, b) != hftuple(b, a)

    def test_member_examples(self, pure4):
        _, (a, b, c, d) = pure4
        assert not member(SeqDom(), hftuple(a, b, a))
        assert member(SeqStarDom(), hftuple(a, a, a))
        assert member(FinDom(FinDom(AtomsDom())), hfset(hfset(a), hfset(a, b)))
        assert member(UnordPairsDom(AtomsDom()), hfset(a, b))
        assert not member(UnordPairsDom(AtomsDom()), hfset(a))
        assert member(PairDom(AtomsDom(), AtomsDom()), hftuple(a, a))

    def test_pow_membership(self):
        s = PureSetStructure(2)
        S = SupportedSubset.empty(s)
        assert member(PowDom(), S, s)
        other = PureSetStructure(2)
        assert not member(PowDom(), S, other)

    def test_json_roundtrip(self, pure4):
        _, (a, b, c, d) = pure4
        x = hfset(hftuple(a, b), hfset(c), hfset())
        assert hf_from_json(hf_to_json(x)) == x
        assert hf_from_json(hf_to_json(7)) == 7


class TestKuratowski:
    def test_formula(self, pure4):
        _, (a, b, *_) = pure4
        assert kuratowski(a, b) == hfset(hfset(a), hfset(a, b))

    def test_diagonal_collapse(self, pure4):
        _, (a, *_) = pure4
        assert kuratowski(a, a) == hfset(hfset(a))

    def test_orientation(self, pure4):
        _, (a, b, *_) = pure4
        assert kuratowski(a, b) != kuratowski(b, a)

    def test_injective_on_all_pairs(self, pure4):
        _, pool = pure4
        images = {
            (x, y): hf_key(kuratowski(x, y))
            for x, y in itertools.product(pool, repeat=2)
        }
        assert len(set(images.values())) == 16

    def test_codomain(self, pure4):
        _, (a, b, *_) = pure4
        assert member(FinDom(FinDom(AtomsDom())), kuratowski(a, b))


class TestSeqToChain:
    def test_examples(self, pure4):
        _, (a0, a1, *_) = pure4
        assert seq_to_chain([]) == hfset()
        assert seq_to_chain([a0]) == hfset(hfset(a0))
        assert seq_to_chain([a0, a1]) == hfset(hfset(a0), hfset(a0, a1))

    def test_duplicates_rejected(self, pure4):
        _, (a, b, *_) = pure4
        with pytest.raises(NotASeq):
            seq_to_chain([a, b, a])

    def test_injective_up_to_length_three(self, pure4):
        _, pool = pure4
        seqs = [p for k in range(4) for p in itertools.permutations(pool, k)]
        images = {p: hf_key(seq_to_chain(p)) for p in seqs}
        assert len(set(images.values())) == len(seqs)

    def test_codomain(self, pure4):
        _, (a, b, c, _) = pure4
        assert member(FinDom(FinDom(AtomsDom())), seq_to_chain([a, b, c]))


class TestSizeClassMap:
    def test_singletons(self, pure4):
        _, pool = pure4
        assert len(size_class_map({1}, pool[:3])) == 3

    def test_zero(self, pure4):
        _, pool = pure4
        assert size_class_map({0}, pool[:3]) == {hfset()}

    def test_union_of_classes(self, pure4):
        _, pool = pure4
        assert len(size_class_map({1, 2}, pool[:3])) == 6

    def test_distinct_classes_distinct_families(self, pure4):
        _, pool = pure4
        families = {}
        for sizes in [frozenset(x) for x in [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}]]:
            fam = frozenset(hf_key(t) for t in size_class_map(sizes, pool))
            families[sizes] = fam
        assert len(set(families.values())) == len(families)

    def test_pool_too_small(self, pure4):
        _, pool = pure4
        with pytest.raises(ValueError):
            size_class_map({4}, pool)


class TestPairModelInjection:
    def test_base_formula(self):
        s = PairStructure(2)
        x, y = s.base_atom(0), s.base_atom(1)
        out = pairmodel_pair_to_unordered(s, x, y)
        assert out == hfset(
            s.pair_atom(1, x, y, 0), s.pair_atom(1, x, y, 1)
        )

    def test_level_arithmetic(self):
        s = PairStructure(2)
        x, y = s.base_atom(0), s.base_atom(1)
        u = s.pair_atom(1, x, y, 0)
        out = pairmodel_pair_to_unordered(s, x, u)
        assert all(at.level == 2 for at in out)

    def test_injective_on_sixteen_pairs(self):
        s = PairStructure(4)
        pool = [s.base_atom(i) for i in range(4)]
        images = {
            (x, y): hf_key(pairmodel_pair_to_unordered(s, x, y))
            for x, y in itertools.product(pool, repeat=2)
        }
        assert len(set(images.values())) == 16

    def test_equivariance_under_any_presentation(self):
        rng = random.Random(3)
        s = PairStructure(4)
        pool = [s.base_atom(i) for i in range(4)]
        for _ in range(100):
            img = rng.sample(pool, 4)
            u0 = s.pair_atom(1, pool[0], pool[1], 0)
            flip = rng.choice((0, 1))
            pi = extend_fixing(
                s, [], {**dict(zip(pool, img)), u0: s.pair_atom(1, img[0], img[1], flip)}
            )
            assert pi is not None
            for x, y in [(pool[0], pool[2]), (pool[3], pool[3])]:
                lhs = act(pi, pairmodel_pair_to_unordered(s, x, y))
                rhs = pairmodel_pair_to_unordered(s, pi.apply(x), pi.apply(y))
                assert lhs == rhs

    def test_check_flips_the_level_bit(self, monkeypatch):
        """Keeping one decoration and the first component is injective and
        commutes with moving the bases, but not with flipping the level
        bit; the injection check must fail it."""

        def one_decoration(s, x, y):
            return hfset(s.pair_atom(x.level + y.level + 1, x, y, 0), x)

        monkeypatch.setattr(labchecks, "pairmodel_pair_to_unordered", one_decoration)
        checks = {c["id"]: c["ok"] for c in labchecks.check_injections(0, probes=20)}
        assert checks["inject-decorated-pairs"] is False
        monkeypatch.undo()
        checks = {c["id"]: c["ok"] for c in labchecks.check_injections(0, probes=20)}
        assert checks["inject-decorated-pairs"] is True

    def test_codomain(self):
        s = PairStructure(2)
        x, y = s.base_atom(0), s.base_atom(1)
        assert member(UnordPairsDom(AtomsDom()), pairmodel_pair_to_unordered(s, x, y))


class TestPermutationUnranking:
    def test_against_itertools(self):
        for n in range(1, 7):
            items = list(range(n))
            for k, ref in enumerate(itertools.permutations(items), start=1):
                assert nth_permutation(items, k) == ref

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nth_permutation([1, 2], 3)


class TestMostowskiPowerToSeq:
    # frozen via the lexicographic permutation stream: the empty set is the
    # first subset with empty least support (k = 1), the full set the second
    EMPTY_TAIL = (9, 8, 7, 6, 5, 4, 3, 2, 0, 1)
    FULL_TAIL = (9, 8, 7, 6, 5, 4, 3, 1, 2, 0)

    def test_empty_set_value(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        out = mostowski_power_to_seq(SupportedSubset.empty(s), anchors)
        assert out == hftuple([anchors[i] for i in self.EMPTY_TAIL])

    def test_full_set_value(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        out = mostowski_power_to_seq(SupportedSubset.all_atoms(s), anchors)
        assert out == hftuple([anchors[i] for i in self.FULL_TAIL])

    def test_small_support_prefix(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        e = s.atom(100)
        S = SupportedSubset.of_atoms(s, [e])
        out = mostowski_power_to_seq(S, anchors)
        assert out.items[0] == e and len(out.items) == 11
        assert member(SeqDom(), out)

    def test_injective_on_small_support_universe(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        universe = [s.atom(100 + i) for i in range(5)]
        images = []
        for k in range(3):
            for sup in itertools.combinations(universe, k):
                for bits in range(1 << (2 * k + 1)):
                    S = SupportedSubset.from_bits(s, sup, bits)
                    if least_support(S) != tuple(sup):
                        continue
                    images.append(hf_key(mostowski_power_to_seq(S, anchors)))
        # one image per subset in the class partition of the whole universe:
        # 2 over the empty support, 6 per singleton, 18 per pair
        assert len(images) == len(set(images))
        assert len(images) == 2 + 5 * 6 + 10 * 18

    def test_anchor_support_collision_free(self):
        # supports meeting the anchor block still decode apart
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        S1 = SupportedSubset.of_atoms(s, [anchors[0]])
        S2 = SupportedSubset.of_atoms(s, [anchors[1]])
        o1 = mostowski_power_to_seq(S1, anchors)
        o2 = mostowski_power_to_seq(S2, anchors)
        assert o1 != o2

    def test_rank_is_one_based_within_class(self):
        s = DenseOrderStructure()
        assert class_rank(SupportedSubset.empty(s))[0] == 1
        assert class_rank(SupportedSubset.all_atoms(s))[0] == 2

    def test_rank_counting_matches_scan_oracle(self):
        s = DenseOrderStructure()
        E = [s.atom(100 + i) for i in range(3)]
        for k in range(4):
            for sup in itertools.combinations(E, k):
                for bits in range(1 << (2 * k + 1)):
                    S = SupportedSubset.from_bits(s, sup, bits)
                    if least_support(S) == tuple(sup):
                        assert class_rank(S)[0] == class_rank_by_scan(S)

    def test_pure_rank_counting_matches_scan_oracle(self):
        s = PureSetStructure(4)
        E = s.atoms()
        for k in range(5):
            for sup in itertools.combinations(E, k):
                for bits in range(1 << (k + 1)):
                    S = SupportedSubset.from_bits(s, sup, bits)
                    if least_support(S) == tuple(sup):
                        assert class_rank(S)[0] == class_rank_by_scan(S)

    def test_categorical_rank_counting_matches_scan_oracle(self):
        s = CategoricalStructure()
        E = tuple(s.fresh(1))
        assert len(types_over(s, E)) == 17
        # the scan makes one least-support pass per smaller vector, so
        # sample the vectors up to its budget of 2^16
        for bits in (1, 2, 3, 5, 255, 4096 + 17, 1 << 16):
            S = SupportedSubset.from_bits(s, E, bits)
            assert class_rank(S)[0] == class_rank_by_scan(S)

    def test_restriction_tables_restrict_no_type(self, monkeypatch):
        made = []

        def counted(self, t, E, sub, restrict=AtomStructure.restrict):
            made.append(self.kind)
            return restrict(self, t, E, sub)

        monkeypatch.setattr(AtomStructure, "restrict", counted)
        # class_rank reads the table onto every sub-support of a two-atom
        # least support, and none of them restricts a type
        for s in (PureSetStructure(), DenseOrderStructure(), CategoricalStructure()):
            S = SupportedSubset.of_atoms(s, s.fresh(2))
            assert class_rank(S)[1] == S.support
        assert made == []

    def test_large_support_branch_and_range_disjointness(self):
        """A subset pinning eleven points maps to a permutation of its own
        support; its images never meet the anchored small-support range."""
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        E11 = anchors[:11]
        big1 = SupportedSubset.of_atoms(s, E11)
        ts = types_over(s, E11)
        stripes = sum(1 << k for k, t in enumerate(ts) if t[0] == "gap" and t[1] % 2 == 0)
        big2 = SupportedSubset(s, E11, stripes)
        family = []
        for S in (big1, big2):
            assert len(least_support(S)) == 11
            out = mostowski_power_to_seq(S, anchors)
            assert set(out.items) == set(E11) and len(out.items) == 11
            family.append(hf_key(out))
        assert family[0] != family[1]
        k1, _ = class_rank(big1)
        assert 1 <= k1 <= factorial(11)
        for ksz in range(3):
            for sup in itertools.combinations(anchors[:5], ksz):
                for bits in range(1 << (2 * ksz + 1)):
                    S = SupportedSubset.from_bits(s, sup, bits)
                    if least_support(S) == tuple(sup):
                        family.append(hf_key(mostowski_power_to_seq(S, anchors)))
        assert len(set(family)) == len(family)


class TestCategoricalMaps:
    def test_phi_empty_sequence_selects_unary_relation(self):
        s = CategoricalStructure()
        s.fresh(1)
        S = categorical_seq_to_power(s, [])
        holder = fresh_realizer(s, [f_rel(0, ())])
        plain = fresh_realizer(s, [])
        assert S.contains(holder) and not S.contains(plain)

    def test_phi_support_and_membership(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        S = categorical_seq_to_power(s, [e0])
        assert S.support == (e0,)
        w = fresh_realizer(s, [f_rel(0, (e0,))])
        assert S.contains(w)

    def test_phi_order_sensitive(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        S01 = categorical_seq_to_power(s, [e0, e1])
        S10 = categorical_seq_to_power(s, [e1, e0])
        w = fresh_realizer(s, [f_rel(0, (e0, e1))])
        assert S01.contains(w) and not S10.contains(w)
        assert S01 != S10

    def test_phi_commutes_with_an_automorphism_moving_its_support(self):
        s = CategoricalStructure()
        a, b, c, d = s.fresh(4)
        s.declare_rel((b, a))
        s.declare_rel((d, c))
        pi = extend_fixing(s, [], {a: c, b: d})
        assert pi is not None
        moved = categorical_seq_to_power(s, (b, a)).apply(pi)
        assert moved == categorical_seq_to_power(s, (pi.apply(b), pi.apply(a)))
        assert moved.support == (c, d)

    def test_phi_rejects_duplicates(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        with pytest.raises(NotASeq):
            categorical_seq_to_power(s, [e0, e0])

    def test_psi_examples(self):
        s = CategoricalStructure()
        a, b = s.fresh(2)
        assert categorical_power_to_seq(SupportedSubset.empty(s), a, b) == hftuple(a)
        full = categorical_power_to_seq(SupportedSubset.all_atoms(s), a, b)
        assert full == hftuple(a, b, b, b)

    def test_psi_support_prefix(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        a, b = s.fresh(2)
        S = SupportedSubset.of_atoms(s, [e0])
        out = categorical_power_to_seq(S, a, b)
        assert out.items[0] == e0 and out.items[1] == a

    def test_psi_same_class_different_lengths(self):
        s = CategoricalStructure()
        a, b = s.fresh(2)
        S1 = SupportedSubset.empty(s)
        S2 = SupportedSubset.all_atoms(s)
        o1 = categorical_power_to_seq(S1, a, b)
        o2 = categorical_power_to_seq(S2, a, b)
        assert len(o1.items) != len(o2.items)
        assert member(SeqStarDom(), o1) and member(SeqStarDom(), o2)

    def test_psi_needs_distinct_markers(self):
        s = CategoricalStructure()
        (a,) = s.fresh(1)
        with pytest.raises(ValueError):
            categorical_power_to_seq(SupportedSubset.empty(s), a, a)


def test_pattern_counting_matches_bruteforce():
    """The rank engine's below-threshold counter against direct
    enumeration of group-constant bit patterns."""
    import random

    from choiceless.constructions import _constant_patterns_below

    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randint(0, 10)
        groups = [rng.randint(0, 4) for _ in range(n)]
        v = rng.randint(0, (1 << n) + 3)
        ids = sorted(set(groups))
        brute = 0
        for bits in itertools.product((0, 1), repeat=len(ids)):
            assign = dict(zip(ids, bits))
            if sum(assign[g] << p for p, g in enumerate(groups)) < v:
                brute += 1
        assert _constant_patterns_below(groups, v) == brute, (groups, v)


def test_act_on_nested_objects():
    s = PureSetStructure(4)
    a, b, c, d = s.atoms()
    pi = extend_fixing(s, [], {a: b, b: a})
    x = hfset(hftuple(a, b), hfset(c))
    assert act(pi, x) == hfset(hftuple(b, a), hfset(c))
    assert act(pi, 5) == 5
