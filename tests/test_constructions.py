import ast
import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import factorial

import pytest

from choiceless import labchecks, oracles
from choiceless.atoms import (
    CATEGORICAL,
    DENSE_ORDER,
    PAIR_MODEL,
    PURE_SET,
    SHAPE_MEMO_SIZE,
    Atom,
    AtomStructure,
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    Rational,
    atom_from_json,
    atom_to_json,
    extend_fixing,
    f_lt,
    f_rel,
    fibres_of,
    fresh_realizer,
    intern_weak,
)
from choiceless.constructions import (
    AtomsDom,
    FinDom,
    HFSet,
    HFTuple,
    NotASeq,
    PairDom,
    PowDom,
    SeqDom,
    SeqStarDom,
    Anchors,
    UnordPairsDom,
    _constant_patterns_below,
    _rank_shape,
    act,
    categorical_power_to_seq,
    categorical_seq_to_power,
    class_rank,
    default_anchors,
    hf_from_json,
    hf_key,
    hf_to_json,
    hfset,
    hftuple,
    kuratowski,
    mostowski_power_to_seq,
    nth_permutation,
    pairmodel_pair_to_unordered,
    record,
    seq_to_chain,
    size_class_map,
)
from choiceless.symsets import SupportedSubset, least_support, sort_support, types_over


def class_rank_by_scan(S: SupportedSubset, scan_budget: int = 1 << 16) -> int:
    """Independent oracle for `class_rank`: enumerate every smaller bit
    vector and test class membership directly."""
    S0 = S.canonical()
    E = S0.support
    v = S0.mask
    if v > scan_budget:
        raise ValueError(f"rank scan over {v} candidates exceeds {scan_budget}")
    rank = 1
    for w in range(v):
        if least_support(SupportedSubset(S.structure, E, w)) == E:
            rank += 1
    return rank


def _constant_patterns_below_by_full_walk(groups, v: int) -> int:
    """Count integers w < v, over len(groups) bit positions, whose bits are
    constant inside each group.

    Walk the bits of v from the top along the tight path, which pins the
    group of every visited position; dropping a forced 1 to 0 ends the
    comparison, so the groups living entirely below that point are free."""
    n = len(groups)
    if v >= 1 << n:
        return 1 << len(set(groups))
    top = {}
    for pos, g in enumerate(groups):
        top[g] = pos
    below = [0] * (n + 1)
    for g, m in top.items():
        below[m + 1] += 1
    for pos in range(1, n + 1):
        below[pos] += below[pos - 1]
    assigned: dict = {}
    total = 0
    for pos in range(n - 1, -1, -1):
        g = groups[pos]
        if v >> pos & 1:
            if assigned.get(g, 0) == 0:
                total += 1 << below[pos]
            if assigned.setdefault(g, 1) != 1:
                return total  # tight path broken
        else:
            if assigned.setdefault(g, 0) != 0:
                return total
    return total


def categorical_seq_to_power_by_type_list(structure, ys) -> SupportedSubset:
    """Oracle for `categorical_seq_to_power`: test every type over the
    support for the relation formula."""
    ys = tuple(ys)
    E = sort_support(structure, ys)
    index = {e: j for j, e in enumerate(E)}
    local = ("rel", len(ys), 0, tuple(index[y] for y in ys))
    chosen = (t[0] == "typ" and local in t[2] for t in types_over(structure, E))
    mask = int("".join("1" if f else "0" for f in chosen)[::-1] or "0", 2)
    return SupportedSubset(structure, E, mask)


# run in a fresh process, so no earlier test has listed the types already
TYPE_LIST_SIZES = """
from choiceless import labchecks
from choiceless.atoms import CategoricalStructure

listed, counted = set(), set()

def recording(name, sizes):
    method = getattr(CategoricalStructure, name)

    def recorded(n):
        sizes.add(n)
        return method(n)

    setattr(CategoricalStructure, name, staticmethod(recorded))

recording("_type_list", listed)
recording("_type_count", counted)
labchecks.check_injections(0)
print((sorted(listed), sorted(counted)))
"""


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
        assert not SeqDom().contains(hftuple(a, b, a))
        assert SeqStarDom().contains(hftuple(a, a, a))
        assert FinDom(FinDom(AtomsDom())).contains(hfset(hfset(a), hfset(a, b)))
        assert UnordPairsDom(AtomsDom()).contains(hfset(a, b))
        assert not UnordPairsDom(AtomsDom()).contains(hfset(a))
        assert PairDom(AtomsDom(), AtomsDom()).contains(hftuple(a, a))

    @pytest.mark.parametrize("dom", [SeqDom(), SeqStarDom()], ids=["Seq", "SeqStar"])
    def test_sequence_domains_refuse_what_is_not_a_sequence_of_owned_atoms(self, pure4, dom):
        s, (a, b, c, d) = pure4
        dense = DenseOrderStructure([0]).atoms()[0]
        assert dom.contains(hftuple(a, b), s) and dom.contains(hftuple(), s) and dom.contains(hftuple(a, dense))
        for bad in (hfset(a, b), (a, b), a, 3, hftuple(a, 3), hftuple(a, hftuple(b)), hftuple(hfset(a))):
            assert not dom.contains(bad) and not dom.contains(bad, s)
        assert not dom.contains(hftuple(a, dense), s) and not dom.contains(hftuple(dense), s)

    def test_pow_membership(self):
        s = PureSetStructure(2)
        S = SupportedSubset.empty(s)
        assert PowDom().contains(S, s)
        other = PureSetStructure(2)
        assert not PowDom().contains(S, other)

    def test_items_must_be_hf_values_at_any_depth(self, pure4):
        _, (a, *_) = pure4
        for build in (
            lambda: hfset(hftuple(Fraction(1))),
            lambda: hfset(True),
            lambda: hftuple(True),
            lambda: hftuple(a, SupportedSubset.empty(pure4[0])),
        ):
            with pytest.raises(TypeError, match="not an HF object"):
                build()

    @pytest.mark.parametrize("trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copy_and_pickle_round_trips(self, trip):
        s = PairStructure(2)
        a, b = s.atoms()
        p = s.pair_atom(1, a, b, 1)
        for x in (hftuple(a, 7, hfset(p)), hfset(hftuple(a, b), hfset(p), hfset(), 3), hfset(), hftuple()):
            y = trip(x)
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            assert y.items == x.items and hf_key(y) == hf_key(x)

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
        assert FinDom(FinDom(AtomsDom())).contains(kuratowski(a, b))


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
        assert FinDom(FinDom(AtomsDom())).contains(seq_to_chain([a, b, c]))


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
        assert UnordPairsDom(AtomsDom()).contains(pairmodel_pair_to_unordered(s, x, y))


class TestPermutationUnranking:
    def test_against_itertools(self):
        for n in range(1, 7):
            items = list(range(n))
            for k, ref in enumerate(itertools.permutations(items), start=1):
                assert nth_permutation(items, k) == ref

    def test_first_and_last_up_to_ten_items(self):
        # the items as given, then reversed, and nothing past either end
        for n in range(11):
            items = [f"x{j}" for j in range(n)]
            assert nth_permutation(items, 1) == tuple(items)
            assert nth_permutation(items, factorial(n)) == tuple(reversed(items))
            for k in (0, factorial(n) + 1):
                with pytest.raises(ValueError):
                    nth_permutation(items, k)

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
        out = mostowski_power_to_seq(SupportedSubset.empty(s).complement(), anchors)
        assert out == hftuple([anchors[i] for i in self.FULL_TAIL])

    def test_small_support_prefix(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        e = s.atom(100)
        S = SupportedSubset.of_atoms(s, [e])
        out = mostowski_power_to_seq(S, anchors)
        assert out.items[0] == e and len(out.items) == 11
        assert SeqDom().contains(out)

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

    def test_anchors_are_sorted_once_and_a_raw_list_still_works(self):
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        assert isinstance(anchors, Anchors) and list(anchors) == sorted(anchors, key=lambda a: a.payload)
        S = SupportedSubset.of_atoms(s, [s.atom(100)])
        assert mostowski_power_to_seq(S, list(reversed(anchors))) == mostowski_power_to_seq(S, anchors)

    def test_unused_anchors_match_a_scan_of_all_twenty(self):
        # a support among the anchors pushes the first ten unused ones right
        s = DenseOrderStructure()
        anchors = default_anchors(s)
        rng = random.Random(28)
        for n in range(11):
            E = sorted(rng.sample(list(anchors[: n + 2]) + [s.atom(100)], n), key=lambda a: a.payload)
            S = SupportedSubset.of_atoms(s, E)
            k, support = class_rank(S)
            unused = [c for c in anchors if c not in set(support)][:10]
            want = tuple(support) + nth_permutation(unused, factorial(10) - k)
            assert mostowski_power_to_seq(S, anchors).items == want

    def test_nineteen_anchors_are_refused(self):
        s = DenseOrderStructure()
        with pytest.raises(ValueError, match="exactly 20 distinct"):
            mostowski_power_to_seq(SupportedSubset.empty(s), list(default_anchors(s))[:19])

    def test_a_repeated_anchor_is_refused(self):
        s = DenseOrderStructure()
        anchors = list(default_anchors(s))
        with pytest.raises(ValueError, match="exactly 20 distinct"):
            mostowski_power_to_seq(SupportedSubset.empty(s), anchors[:19] + anchors[:1])

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
        assert class_rank(SupportedSubset.empty(s).complement())[0] == 2

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

    def test_categorical_two_atom_ranks_match_scan_oracle(self):
        # the regime of the injections check: a two-atom homogeneous
        # support and every vector below 2^6
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(2))
        ranked = 0
        for bits in range(64):
            S = SupportedSubset.from_bits(s, E, bits)
            if least_support(S) == E:
                assert class_rank(S) == (class_rank_by_scan(S), E)
                ranked += 1
        assert ranked > 0

    def test_injections_never_list_two_atom_types(self):
        # a supported subset reads its type count; the 6,146 types over
        # two homogeneous atoms are never listed
        src = os.path.dirname(os.path.dirname(labchecks.__file__))
        out = subprocess.run(
            [sys.executable, "-c", TYPE_LIST_SIZES],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        listed, counted = ast.literal_eval(out.strip())
        assert 2 in counted and 2 not in listed

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

    @pytest.mark.parametrize("facts", [(), ((0,), (2, 0), (1, 3, 0))], ids=["no-facts", "related"])
    def test_phi_matches_type_list_oracle(self, facts):
        s = CategoricalStructure()
        e = s.fresh(3)
        e.append(fresh_realizer(s, [f_lt(e[0])]))  # below e[0], so ids and order differ
        for args in facts:
            s.declare_rel([e[i] for i in args])
        for k in range(3):
            for ys in itertools.permutations(e, k):
                got = categorical_seq_to_power(s, ys)
                want = categorical_seq_to_power_by_type_list(s, ys)
                assert (got.support, got.mask) == (want.support, want.mask)

    def test_psi_examples(self):
        s = CategoricalStructure()
        a, b = s.fresh(2)
        assert categorical_power_to_seq(SupportedSubset.empty(s), a, b) == hftuple(a)
        full = categorical_power_to_seq(SupportedSubset.empty(s).complement(), a, b)
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
        S2 = SupportedSubset.empty(s).complement()
        o1 = categorical_power_to_seq(S1, a, b)
        o2 = categorical_power_to_seq(S2, a, b)
        assert len(o1.items) != len(o2.items)
        assert SeqStarDom().contains(o1) and SeqStarDom().contains(o2)

    def test_psi_needs_distinct_markers(self):
        s = CategoricalStructure()
        (a,) = s.fresh(1)
        with pytest.raises(ValueError):
            categorical_power_to_seq(SupportedSubset.empty(s), a, a)


def least_support_by_walk(S: SupportedSubset):
    """The atom-level walk `least_support` memoises: drop each support
    atom in turn and ask whether the rest still supports S."""
    E = S.support
    return tuple(e for e in E if not S.is_supported_by(tuple(x for x in E if x != e)))


def canonical_by_walk(S: SupportedSubset):
    """S over its walked least support: the types whose fibre under the
    restriction table holds a selected type."""
    least = least_support_by_walk(S)
    table = S.structure.projection(S.support, least)
    return least, sum(1 << g for g in {g for k, g in enumerate(table) if S.mask >> k & 1})


def class_rank_by_sub_supports(S: SupportedSubset):
    """`class_rank` as it was before the rank was memoised by shape: one
    restriction table per sub-support of the atoms."""
    E, v = canonical_by_walk(S)
    rank = 1 + v
    for keep in range(len(E)):
        for sub in itertools.combinations(E, keep):
            sign = -1 if (len(E) - keep) % 2 else 1
            rank += sign * _constant_patterns_below(fibres_of(S.structure.projection(E, sub)), v)
    return rank, E


def _memo():
    return AtomStructure._shape_memo.cache_info()


def _gapped_support(kind, n):
    """An n-atom support whose atoms were made out of order, over ids
    with gaps or Fraction payloads that do not sort as they were made."""
    if kind == "pure":
        s = PureSetStructure()
        return s, [s.atom(i) for i in (12, 3, 7)[:n]]
    s = DenseOrderStructure()
    return s, [s.atom(q) for q in (Fraction(7, 3), Fraction(-1, 2), Fraction(5, 11))[:n]]


class TestShapeMemo:
    @pytest.mark.parametrize("kind", ["pure", "dense"])
    def test_memo_matches_the_atom_walk_cold_and_warm(self, kind):
        for n in range(4):
            s, atoms = _gapped_support(kind, n)
            for mask in range(1 << s._type_count(n)):
                AtomStructure._shape_memo.cache_clear()
                cold = SupportedSubset(s, atoms, mask)
                walked = canonical_by_walk(cold)
                got = (least_support(cold), cold.canonical().mask, class_rank(cold))
                assert _memo().currsize == 2  # the least support and the rank
                warm = SupportedSubset(s, atoms, mask)
                assert (least_support(warm), warm.canonical().mask, class_rank(warm)) == got
                assert _memo().currsize == 2
                assert (got[0], got[1]) == walked
                assert got[2] == class_rank_by_sub_supports(cold)
                assert got[2][0] == class_rank_by_scan(cold)

    def test_memo_stays_within_its_bound(self):
        s = DenseOrderStructure(range(5))
        E = s.atoms()
        masks = 1 << s._type_count(len(E))
        assert masks > SHAPE_MEMO_SIZE
        for mask in range(masks):
            least_support(SupportedSubset(s, E, mask))
        info = _memo()
        assert info.maxsize == SHAPE_MEMO_SIZE
        assert info.currsize <= SHAPE_MEMO_SIZE

    @pytest.mark.parametrize("facts", [False, True], ids=["no-facts", "fact"])
    def test_categorical_subsets_walk_the_atoms(self, facts):
        s = CategoricalStructure()
        a, b, c = s.fresh(3)
        if facts:
            s.declare_rel((a, b))
            s.declare_rel((c, a))
        E = sort_support(s, (a, b))
        rng = random.Random(0)
        width = s._type_count(2)
        AtomStructure._shape_memo.cache_clear()
        masks = [*range(64), *(rng.getrandbits(width) for _ in range(4))]
        for mask in masks:
            S = SupportedSubset(s, E, mask)
            assert s.by_shape(_rank_shape, *canonical_by_walk(S)) == class_rank_by_sub_supports(S)[0]
            assert (least_support(S), S.canonical().mask) == canonical_by_walk(S)
            assert class_rank(S) == class_rank_by_sub_supports(S)
        # keyed by diagram: new atoms with E's facts among them hit the
        # memo, and the same atoms with the reverse fact miss it
        d, e = s.fresh(2)
        for args, hit in (((d, e), True), ((e, d), False)):
            t = copy.deepcopy(s)  # a twin of s, with its positions and facts
            if facts or not hit:
                t.declare_rel(args)
            for mask in masks:
                S, before = SupportedSubset(t, (d, e), mask), _memo()
                assert least_support(S) == least_support_by_walk(S)
                assert (_memo().hits - before.hits, _memo().misses - before.misses) == ((1, 0) if hit else (0, 1))

    def test_categorical_ranks_are_unchanged(self):
        # the values the categorical path gave before the memo
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(2))
        got = []
        for bits in range(64):
            S = SupportedSubset.from_bits(s, E, bits)
            got.append((tuple(E.index(a) for a in least_support(S)), S.canonical().mask, class_rank(S)[0]))
        assert got == [((), 0, 1), ((0,), 1, 1), ((1,), 1, 1)] + [((0, 1), v, v - 2) for v in range(3, 64)]


def _head_by_walk(s: CategoricalStructure, E, sub):
    """The head of the homogeneous `projection(E, sub)` as it was read off
    the atoms before tables were keyed by diagram: an atom of E outside sub
    sits at the position of its own type over sub."""
    return tuple(sub.index(e) if e in sub else s._type_position(len(sub), s.type_of(e, sub)) for e in E)


def _random_categorical(seed: int, size: int = 5) -> CategoricalStructure:
    """`size` nodes with random relation facts of arity 1 to 4."""
    rng = random.Random(seed)
    s = CategoricalStructure()
    atoms = s.fresh(size)
    for _ in range(rng.randrange(6, 14)):
        s.declare_rel(rng.sample(atoms, rng.randint(1, 4)))
    return s


def _supports_by_diagram(seeds):
    """The two-atom supports of the seeded structures, grouped by shape."""
    groups = {}
    for seed in seeds:
        s = _random_categorical(seed)
        for E in itertools.combinations(s.atoms(), 2):
            E = sort_support(s, E)
            groups.setdefault(s.shape_of(E), []).append((s, E))
    return groups


class TestDiagramKeys:
    @pytest.mark.parametrize("seed", range(4))
    def test_tables_and_fibres_match_the_atom_walk(self, seed):
        # every support of at most two atoms onto every sub-support: the
        # walked head, then the tail that no relation fact touches
        s = _random_categorical(seed)
        for n in range(3):
            for E in itertools.combinations(s.atoms(), n):
                E = sort_support(s, E)
                for k in range(n + 1):
                    for sub in itertools.combinations(E, k):
                        positions = tuple(E.index(e) for e in sub)
                        tail = CategoricalStructure._shape_table((n, frozenset()), positions)[n:]
                        want = _head_by_walk(s, E, sub) + tail
                        assert s.projection(E, sub) == want
                        assert s.fibres(E, sub) == fibres_of(want)

    def test_equal_diagrams_share_one_memo_entry(self):
        groups = _supports_by_diagram(range(4))
        # some diagram recurs across structures, and not every one is equal
        assert len(groups) > 1 and any(len({id(s) for s, _ in group}) > 1 for group in groups.values())
        for mask in (27, 63, random.Random(0).getrandbits(6146)):
            AtomStructure._shape_memo.cache_clear()
            for group in groups.values():
                for s, E in group:
                    S = SupportedSubset(s, E, mask)
                    assert (least_support(S), S.canonical().mask) == canonical_by_walk(S)
            assert (_memo().currsize, _memo().misses) == (len(groups), len(groups))

    def test_class_rank_matches_the_scan(self):
        for s, E in (group[0] for group in _supports_by_diagram(range(4)).values()):
            for mask in range(0, 64, 9):
                S = SupportedSubset(s, E, mask)
                assert class_rank(S)[0] == class_rank_by_scan(S)


def test_pattern_counting_matches_bruteforce():
    """The rank engine's below-threshold counter against direct
    enumeration of group-constant bit patterns."""
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
        assert _constant_patterns_below(fibres_of(groups), v) == brute, (groups, v)


def test_pattern_counting_matches_full_walk_on_long_tables():
    """Small vectors over long tables, as the rank engine meets them on a
    two-atom homogeneous support."""
    rng = random.Random(1)
    for _ in range(3000):
        n = rng.randint(0, 64)
        groups = tuple(rng.randint(0, rng.randint(0, n)) for _ in range(n))
        v = rng.randrange(1 << 8)
        want = _constant_patterns_below_by_full_walk(groups, v)
        assert _constant_patterns_below(fibres_of(groups), v) == want, (groups, v)


def test_pattern_counting_accepts_groups_outside_zero_to_g():
    """Group ids with gaps leave empty fibres, which are no group."""
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 12)
        groups = tuple(rng.choice((0, 3, 7, 40)) for _ in range(n))
        fibres = fibres_of(groups)
        assert len(fibres) == max(groups, default=-1) + 1
        for v in (rng.randrange((1 << n) + 4), rng.getrandbits(n + 2)):
            assert _constant_patterns_below(fibres, v) == _constant_patterns_below_by_full_walk(groups, v)


@pytest.mark.parametrize("facts", [False, True], ids=["no-facts", "fact"])
@pytest.mark.parametrize("keep", [0, 1])
def test_pattern_counting_matches_full_walk_on_two_atom_homogeneous_tables(keep, facts):
    """Vectors of the full width over both projections of a two-atom
    homogeneous support onto one atom: 6,146 positions in 17 fibres."""
    rng = random.Random(f"wide-{keep}-{facts}")
    s = CategoricalStructure()
    E = sort_support(s, s.fresh(2))
    if facts:
        s.declare_rel(E[::-1])
    sub = E[keep : keep + 1]
    table = s.projection(E, sub)
    fibres = s.fibres(E, sub)
    assert len(table) == 6146 and fibres == fibres_of(table)
    for _ in range(12):
        union = sum(f for f in fibres if rng.getrandbits(1))
        for v in (rng.getrandbits(6146), union, union ^ 1 << rng.randrange(6146), rng.randrange(1 << 8), 1 << 6146):
            assert _constant_patterns_below(fibres, v) == _constant_patterns_below_by_full_walk(table, v)


def test_act_on_nested_objects():
    s = PureSetStructure(4)
    a, b, c, d = s.atoms()
    pi = extend_fixing(s, [], {a: b, b: a})
    x = hfset(hftuple(a, b), hfset(c))
    assert act(pi, x) == hfset(hftuple(b, a), hfset(c))
    assert act(pi, 5) == 5


def act_by_chain(pi, x):
    """The reference for `act`: an isinstance chain that recurses into every member, atoms included."""
    if isinstance(x, Atom):
        return pi.apply(x)
    if isinstance(x, (HFTuple, HFSet)):
        return type(x)(act_by_chain(pi, i) for i in x.items)
    if isinstance(x, SupportedSubset):
        return x.apply(pi)
    if isinstance(x, (int, frozenset, tuple)):
        return x
    raise TypeError(f"cannot act on {x!r}")


def _lifted(kind):
    """Atoms of one universe and a lift that has recorded a few of them.  Built
    the same way on every call, so two calls give two lifts that start equal."""
    if kind == "pure_set":
        s = PureSetStructure(8)
        xs = s.atoms()
        return s, xs, extend_fixing(s, [], {xs[0]: xs[1], xs[1]: xs[0]})
    if kind == "dense_order":
        s = DenseOrderStructure(Fraction(k, 3) for k in range(-4, 8))
        xs = s.atoms()
        return s, xs, extend_fixing(s, xs[:2], {xs[5]: s.atom(Fraction(7, 2))})
    if kind == "pair_model":
        s = PairStructure(4)
        b = [s.base_atom(i) for i in range(4)]
        low = [s.pair_atom(1, b[0], b[1], 0), s.pair_atom(1, b[2], b[3], 1), s.pair_atom(1, b[0], b[2], 0)]
        xs = b + low + [s.pair_atom(2, low[2], b[3], 1)]
        return s, xs, extend_fixing(s, [], {b[0]: b[1], b[1]: b[0], low[0]: s.pair_atom(1, b[1], b[0], 1)})
    s = CategoricalStructure()
    xs = [fresh_realizer(s, []) for _ in range(6)]
    s.declare_rel([xs[1], xs[2]])
    s.declare_rel([xs[3], xs[0], xs[4]])
    return s, xs, extend_fixing(s, xs[4:], {xs[0]: labchecks.same_type_realizer(s, xs[0], xs[4:])})


def _nested(xs, rng, depth):
    """A random HF value over the atoms xs, naturals among them, nested up to `depth`."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(xs) if rng.random() < 0.8 else rng.randint(0, 5)
    return rng.choice((HFTuple, HFSet))(_nested(xs, rng, depth - 1) for _ in range(rng.randint(0, 4)))


class _TaggedTuple(HFTuple):
    __slots__ = ()


class _Impostor:
    """Not an atom, though it carries an atom's fields."""

    __slots__ = ("world", "payload")

    def __init__(self, atom):
        self.world, self.payload = atom.world, atom.payload


@pytest.mark.parametrize("kind", ["pure_set", "dense_order", "pair_model", "categorical"])
def test_act_matches_the_recursive_chain(kind):
    # two lifts built alike, one driven by `act` and one by the chain: the same
    # images, asked in the same order, so the lifts record the same pairs
    rng = random.Random(27)
    s, xs, pi = _lifted(kind)
    _, _, rho = _lifted(kind)
    values = [_nested(xs, rng, 3) for _ in range(60)]
    values += [_TaggedTuple(xs[:3]), 7, frozenset({1, 2}), (3, frozenset())]
    if kind != "pair_model":
        values += [SupportedSubset(s, xs[2:4], 0b101), SupportedSubset(s, xs[:1], 0b1)]
    for x in values:
        got, want = act(pi, x), act_by_chain(rho, x)
        assert got == want and type(got) is type(want), x
    assert [(a.payload, b.payload) for a, b in pi.items()] == [(a.payload, b.payload) for a, b in rho.items()]
    assert all(type(b) is Atom for b in pi.pairs.values())
    for bad in ("a", 2.5, [xs[0]], None):
        with pytest.raises(TypeError):
            act(pi, bad)


def test_act_asks_a_lift_in_canonical_order():
    # the categorical lift picks each image when asked, so the images of
    # a set's members must not depend on how the set hashes them
    def lifted():
        cs = CategoricalStructure()
        e0 = fresh_realizer(cs, [])
        xs = [fresh_realizer(cs, []) for _ in range(6)]
        return xs, extend_fixing(cs, [], {e0: fresh_realizer(cs, [])})

    xs, pi = lifted()
    act(pi, hfset(xs))
    ys, rho = lifted()
    for y in sorted(ys, key=lambda a: a.payload):
        rho.apply(y)
    assert [(a.payload, b.payload) for a, b in pi.items()] == [(a.payload, b.payload) for a, b in rho.items()]


@pytest.mark.parametrize("kind", ["pure_set", "dense_order", "pair_model", "categorical"])
def test_record_asks_a_lift_what_act_asks(kind):
    # two lifts built alike, one driven by `record` and one by `act`: the
    # same atoms asked in the same order, so after every value the lifts
    # hold the same pairs in the same order
    rng = random.Random(30)
    s, xs, pi = _lifted(kind)
    _, _, rho = _lifted(kind)
    values = []
    if kind != "pair_model":  # first, while their atoms have no image yet
        values += [SupportedSubset(s, xs[-2:], 0b11), SupportedSubset(s, xs[2:4], 0b101), SupportedSubset(s, xs[:1], 0b1)]
    values += [_nested(xs, rng, 3) for _ in range(60)]
    values += [_TaggedTuple(xs[:3]), 7, frozenset({1, 2}), (3, frozenset())]
    asked = 0
    for x in values:
        assert record(pi, x) is None
        act(rho, x)
        pairs = [(a.payload, b.payload) for a, b in pi.pairs.items()]
        assert pairs == [(a.payload, b.payload) for a, b in rho.pairs.items()], x
        asked = max(asked, len(pairs))
    assert asked > len(_lifted(kind)[2].pairs)  # the values asked for new images
    for bad in ("a", 2.5, [xs[0]], None):
        with pytest.raises(TypeError):
            record(pi, bad)


def hf_key_by_recursion(x):
    """The reference for `hf_key`: the key of every member rebuilt on every call."""
    if isinstance(x, Atom):
        return (0, x.world, x.sort_key())
    if isinstance(x, (HFTuple, HFSet)):
        return (1 if isinstance(x, HFTuple) else 2, len(x.items), tuple(map(hf_key_by_recursion, x.items)))
    if isinstance(x, int):
        return (3, x)
    raise TypeError(f"not an HF object: {x!r}")


@pytest.mark.parametrize("kind", ["pure_set", "dense_order", "pair_model", "categorical"])
def test_cached_key_matches_the_recursion(kind):
    rng = random.Random(30)
    _, xs, _ = _lifted(kind)
    values = [_nested(xs, rng, 4) for _ in range(80)] + [hfset(), hftuple(), hfset(hfset())]
    for x in values:
        assert hf_key(x) == hf_key_by_recursion(x)
        if type(x) is HFSet:
            assert hf_key(x) is x.key is hf_key(x)  # read once, then kept
    assert sum(type(x) is HFSet for x in values) > 10


class OldHF:
    """HF values as they were built before sets kept a frozenset: a set
    dedupes its items by `old_key`, then sorts them by it.  The reference
    for the canonical order and for equality."""

    def __init__(self, tag, items):
        if tag == "s":
            uniq = {old_key(x): x for x in items}
            items = (uniq[k] for k in sorted(uniq))
        self.tag, self.items = tag, tuple(items)

    def __eq__(self, other):
        return isinstance(other, OldHF) and (self.tag, self.items) == (other.tag, other.items)

    def __hash__(self):
        return hash((self.tag, self.items))


def old_key(x):
    if isinstance(x, Atom):
        return (0, x.world, x.sort_key())
    if isinstance(x, OldHF):
        return (1 if x.tag == "t" else 2, len(x.items), tuple(old_key(i) for i in x.items))
    if isinstance(x, int):
        return (3, x)
    raise TypeError(f"not an HF object: {x!r}")


def to_old(x):
    """x rebuilt by the old constructor, sets from their unordered members."""
    if isinstance(x, HFSet):
        return OldHF("s", map(to_old, x.members))
    if isinstance(x, HFTuple):
        return OldHF("t", map(to_old, x.items))
    return x


def built_during(monkeypatch, run):
    """Every HF value constructed while `run()` runs, in order.  The hook
    sits where `__new__` and `act` both build, the class's `_trusted`; a
    set found interned is recorded again, as the same object."""
    built = []
    with monkeypatch.context() as m:
        for cls in (HFSet, HFTuple):

            def trusted(cls, items, _trusted=cls._trusted.__func__):
                built.append(_trusted(cls, items))
                return built[-1]

            m.setattr(cls, "_trusted", classmethod(trusted))
        run()
    return built


def every_probe_and_answer():
    for engine, spec in oracles.REFUTE.items():
        for name in spec.oracles:
            for size in spec.sizes:
                s, E, o = oracles.build_refute_oracle(engine, name, size, 0)
                spec.run(o, budget=6)


class TestFrozensetSets:
    def test_sets_match_the_old_constructor(self, monkeypatch):
        # the injection probes, with their moves applied, then every probe
        # and answer of every built-in oracle at every built-in size
        values = built_during(monkeypatch, lambda: (labchecks.check_injections(0), every_probe_and_answer()))
        assert {type(v) for v in values} == {HFSet, HFTuple}
        first_equal, first_same_key, first_old_equal = {}, {}, {}
        for i, v in enumerate(values):
            old = to_old(v)
            assert tuple(map(to_old, v.items)) == old.items
            assert hf_key(v) == old_key(old)
            j = first_equal.setdefault(v, i)
            assert hash(values[j]) == hash(v)
            # ==, hf_key and the old == split the values into the same classes
            assert first_same_key.setdefault(hf_key(v), i) == j
            assert first_old_equal.setdefault(old, i) == j
        assert 1 < len(first_equal) < len(values)


class TestInternedSets:
    @staticmethod
    def nested(xs):
        return hfset(hftuple(xs[0], 3), hfset(xs[1], hfset(xs[2])), hfset(), 0)

    def test_equal_sets_are_one_object_however_built(self, pure4):
        s, xs = pure4
        x = self.nested(xs)
        pi = extend_fixing(s, xs)  # the identity: act rebuilds every member
        builds = [
            HFSet(reversed(x.items)),
            hfset(*x.items),
            hfset(list(x.items)),
            act(pi, x),
            copy.copy(x),
            copy.deepcopy(x),
            pickle.loads(pickle.dumps(x)),
            hf_from_json(hf_to_json(x)),
            hf_from_json(hf_to_json(x), s),
        ]
        assert all(y is x for y in builds)
        assert HFSet([xs[0], xs[1]]) is kuratowski(xs[0], xs[1]).items[1]
        assert HFSet(x.items[:2]) is not x and HFSet(x.items[:2]) != x

    def test_hash_and_eq_are_identity(self, pure4):
        _, xs = pure4
        assert HFSet.__eq__ is object.__eq__ and HFSet.__hash__ is object.__hash__
        x = self.nested(xs)
        sets = [y for y in (x, *x.members, hfset(), hfset(xs), hfset(0, 1, 2)) if isinstance(y, HFSet)]
        again = [HFSet(reversed(y.items)) for y in sets]
        for y, z in itertools.product(sets, sets + again):
            assert (y == z) is (y is z) is (hash(y) == hash(z)) is (hf_key(y) == hf_key(z))
        assert all(y is z for y, z in zip(sets, again))

    def test_a_set_leaves_the_table_with_its_last_reference(self, pure4):
        _, xs = pure4
        mark = 10**9 + 7  # a member nobody else builds

        def has_mark(members):
            return any(mark in getattr(m, "members", {m}) for m in members)

        def marked():
            sets = [v for v in (ref() for ref in HFSet._table.values()) if v is not None]
            return sorted(len(v) for v in sets if has_mark(v.members))

        x = hfset(xs[0], hfset(mark))
        x.items  # the cached canonical order makes no cycle
        held = marked()
        assert sum(map(has_mark, HFSet._table)) == 2
        del x
        # each entry went with its set, not only the set it referred to
        assert held == [1, 2] and marked() == [] and not any(map(has_mark, HFSet._table))

    def test_interned_sets_still_refuse_a_bool_or_a_float(self):
        one = hfset(1)
        for bad in ([True], [1.0], [one, True], (hfset(), 1, False)):
            with pytest.raises(TypeError, match="not an HF object"):
                HFSet(bad)
        assert HFSet([1]) is one and HFSet._table[frozenset({True})]() is one

    def test_the_cached_key_refuses_writes_and_survives_copies(self, pure4):
        _, xs = pure4
        x = self.nested(xs)
        with pytest.raises(AttributeError):
            x.key = (2, 0, ())  # not even before its first read
        key = hf_key(x)
        assert x.key is key == hf_key_by_recursion(x)
        for write in (lambda: setattr(x, "key", (2, 0, ())), lambda: delattr(x, "key")):
            with pytest.raises(AttributeError):
                write()
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y is x and y.key is key

    def test_hf_set_takes_no_subclass(self):
        with pytest.raises(TypeError, match="no subclasses"):
            type("Tagged", (HFSet,), {"__slots__": ()})

    def test_a_lift_never_gives_act_an_unchecked_member(self, pure4):
        s, (a, b, c, d) = pure4
        # a lift's images are exactly atoms, so `act` may skip the type check;
        # and an atom's subclass, which would pass `_hf_only`'s check, cannot be defined
        with pytest.raises(TypeError, match="exactly an Atom"):
            extend_fixing(s, [], {a: _Impostor(b)})
        with pytest.raises(TypeError, match="no subclasses"):
            type("Tagged", (Atom,), {"__slots__": ()})
        pi = extend_fixing(s, [], {a: b, b: a})
        assert act(pi, hfset(a, hftuple(b, 2))) is hfset(b, hftuple(a, 2))


KINDS = ["pure_set", "dense_order", "pair_model", "categorical"]


class TestInternedAtoms:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_atoms_are_one_object_however_built(self, kind):
        s, xs, _ = _lifted(kind)
        for a in xs:
            builds = [
                Atom(a.world, a.payload),
                s.materialise(Atom(a.world, a.payload)),
                copy.copy(a),
                copy.deepcopy(a),
                pickle.loads(pickle.dumps(a)),
            ]
            if s.json_tag:
                builds.append(atom_from_json(atom_to_json(a)))
            if kind in ("pure_set", "dense_order"):
                builds.append(s.atom(a.payload))
            if kind == "dense_order":
                builds += [s.atom(Fraction(a.payload)), s.atom(str(a.payload))]
            assert all(b is a for b in builds), a

    def test_hash_and_eq_are_identity(self):
        assert Atom.__eq__ is object.__eq__ and Atom.__hash__ is object.__hash__
        assert Atom.__slots__ == ("world", "payload", "__weakref__")

    def test_atom_takes_no_subclass(self):
        with pytest.raises(TypeError, match="no subclasses"):
            type("Tagged", (Atom,), {"__slots__": ()})

    def test_an_atom_leaves_the_table_with_its_last_reference(self):
        big = 10**9 + 7  # ids nobody else builds
        s = PairStructure()
        x, y = s.base_atom(big), s.base_atom(big + 1)
        top = s.pair_atom(1, x, y, 0)
        first = weakref.ref(x)

        def entries():  # the table's keys that name an atom built here
            return sum(any(str(i) in repr(key) for i in (big, big + 1)) for key in Atom._table)

        assert Atom._table[PAIR_MODEL, big]() is x and Atom._table[PAIR_MODEL, top.payload]() is top
        assert entries() == 3
        del s, x, y  # `top` holds its components through its payload
        assert first() is not None and entries() == 3
        del top
        assert first() is None and entries() == 0
        again = Atom(PAIR_MODEL, big)  # a new object, under the one live entry
        assert first() is None and Atom._table[PAIR_MODEL, big]() is again and entries() == 1

    def test_a_late_callback_keeps_the_newer_entry(self):
        class Value:
            pass

        table, old, new = {}, Value(), Value()
        intern_weak(table, "k", old)
        stale = table["k"]  # held, so its callback runs when `old` dies
        intern_weak(table, "k", new)
        del old
        assert stale() is None and table["k"]() is new
        del new
        assert table == {}

    def test_a_dense_payload_is_a_rational_whoever_builds_it_first(self, monkeypatch):
        monkeypatch.setattr(Atom, "_table", {})  # so that 7/2 and 9/2 are first built here
        a = Atom(DENSE_ORDER, Fraction(7, 2))
        s = DenseOrderStructure()
        assert s.atom(Fraction(7, 2)) is a is s.atom("7/2") is s.atom(3.5)
        b = Atom(DENSE_ORDER, "9/2")
        assert Atom(DENSE_ORDER, Fraction(9, 2)) is b is s.atom(Rational(9, 2))
        assert type(a.payload) is Rational and type(b.payload) is Rational
        assert len(Atom._table) == 2

    def test_a_bool_or_other_non_int_id_is_refused_not_pinned(self, monkeypatch):
        monkeypatch.setattr(Atom, "_table", {})  # so that the bool form is built first
        for world, bad in itertools.product((PURE_SET, PAIR_MODEL, CATEGORICAL), (True, 1.0, Fraction(1))):
            with pytest.raises(TypeError, match="takes ints"):
                Atom(world, bad)
        one = Atom(PURE_SET, 1)
        assert type(one.payload) is int and json.dumps(atom_to_json(one)) == '{"world": "pure", "id": 1}'
        # a pair atom's level and bit are matched by `==` too
        s = PairStructure(2)
        b0, b1 = s.atoms()
        with pytest.raises(TypeError, match="takes ints"):
            s.pair_atom(1, b0, b1, True)
        data = {"world": "pairs", "level": True, "pair": [atom_to_json(b0), atom_to_json(b1)], "bit": 0}
        with pytest.raises(TypeError, match="takes ints"):
            atom_from_json(data)
        p = s.pair_atom(1, b0, b1, 1)
        text = json.dumps(atom_to_json(p))
        assert type(p.payload[0]) is type(p.payload[2]) is int
        assert '"level": 1' in text and '"bit": 1' in text and "true" not in text

    def test_a_live_atom_does_not_let_a_loose_payload_through(self, monkeypatch):
        # the same refusals as above, with the int form built first: a hit in
        # the table must refuse what a miss refuses, not return the live atom
        monkeypatch.setattr(Atom, "_table", {})
        for world in (PURE_SET, PAIR_MODEL, CATEGORICAL):
            one = Atom(world, 1)
            for bad in (True, 1.0, Fraction(1)):
                with pytest.raises(TypeError, match="takes ints"):
                    Atom(world, bad)
            assert Atom(world, 1) is one and type(one.payload) is int
        s = PairStructure(2)
        b0, b1 = s.atoms()
        p = s.pair_atom(1, b0, b1, 1)
        for level, bit in ((1, True), (True, 1), (1.0, 1), (1, 1.0)):
            with pytest.raises(TypeError, match="takes ints"):
                Atom(PAIR_MODEL, (level, (b0, b1), bit))
        with pytest.raises(TypeError, match="takes ints"):
            s.pair_atom(1, b0, b1, True)
        assert s.pair_atom(1, b0, b1, 1) is p
        # a dense hit still takes an equal Fraction or int, and builds no Rational
        q, r = Atom(DENSE_ORDER, Fraction(7, 2)), Atom(DENSE_ORDER, 3)
        monkeypatch.setattr(Rational, "__new__", None)
        assert Atom(DENSE_ORDER, Fraction(7, 2)) is q and Atom(DENSE_ORDER, 3) is r is Atom(DENSE_ORDER, Fraction(6, 2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_object_exactly_when_the_keys_agree(self, kind):
        # differential: identity, the fast path, against `hf_key`, the slow
        # one, over values built by three independent paths: the generator,
        # JSON (a deep copy where the universe has none), and the generator
        # again over a structure built anew
        s, xs, _ = _lifted(kind)
        rebuild = (lambda x: hf_from_json(hf_to_json(x))) if s.json_tag else copy.deepcopy
        _, ys, _ = _lifted(kind)
        rng = random.Random(32)
        values = [_nested(xs, rng, 3) for _ in range(60)] + xs
        rng = random.Random(32)
        rebuilt = [_nested(ys, rng, 3) for _ in range(60)] + [rebuild(x) for x in values]

        def same(x, y):  # one object, but for tuples, which are not interned
            if type(x) is type(y) is HFTuple:
                return len(x) == len(y) and all(map(same, x.items, y.items))
            return x is y

        agreeing = 0
        for x, y in itertools.product(values, rebuilt):
            agree = hf_key(x) == hf_key(y)
            assert same(x, y) is (x == y) is agree, (x, y)
            agreeing += agree
        # each value agrees with its two rebuilds, and some with other values
        assert 2 * len(values) < agreeing < len(values) * len(rebuilt) // 4
