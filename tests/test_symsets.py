import copy
import itertools
import json
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless.atoms import (
    DENSE_ORDER,
    Atom,
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    Rational,
    StructureMismatch,
    TypeBudgetExceeded,
    extend_fixing,
    f_lt,
    f_rel,
    fibres_of,
    fresh_realizer,
)
from choiceless.cli import main
from choiceless.constructions import (
    categorical_seq_to_power,
    class_rank,
    hf_to_json,
    hfset,
)
from choiceless.symsets import (
    SupportedSubset,
    _fibred,
    _pull,
    _push,
    classify_fraenkel,
    count_least_supported,
    count_supported,
    least_support,
    restrict_type,
    sort_support,
    types_over,
)


# -- the slow paths of the mask moves and of the least-support count, kept
# verbatim as oracles for the fast paths that replaced them


def _mask_by_flags(flags) -> int:
    """The int whose bit k is set iff the k-th flag is true."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


def _pull_by_genexpr(table, mask: int) -> int:
    """Re-encode a mask over the sub-support onto the support whose
    restriction table is `table`: bit k is bit table[k] of `mask`."""
    return _mask_by_flags(mask >> g & 1 for g in table)


def _push_by_genexpr(table, mask: int) -> int:
    """The mask over the sub-support that selects each type whose fibre
    under `table` holds a selected bit of `mask`."""
    hit = {g for g, b in zip(table, format(mask, "b")[::-1]) if b == "1"}
    return sum(1 << g for g in hit)


def _is_supported_by_genexpr(S: SupportedSubset, sub) -> bool:
    table = S.structure.projection(S.support, sub)
    return _pull_by_genexpr(table, _push_by_genexpr(table, S.mask)) == S.mask


def count_least_supported_by_recursion(structure, support) -> int:
    """Number of subsets whose smallest support is exactly this set."""
    E = sort_support(structure, support)

    def rec(sub, memo) -> int:
        if sub in memo:
            return memo[sub]
        total = count_supported(structure, sub)
        for k in range(len(sub)):
            for smaller in itertools.combinations(sub, k):
                total -= rec(smaller, memo)
        memo[sub] = total
        return total

    return rec(E, {})


def _structure_with_support(kind):
    """A structure and a support on which restriction is not trivial."""
    if kind == "pure_set":
        s = PureSetStructure(6)
        return s, s.atoms()[1:]
    if kind == "dense_order":
        s = DenseOrderStructure()
        return s, [s.atom(Fraction(q)) for q in (3, 1, 5, 2, 4)]
    s = CategoricalStructure()
    E = s.fresh(2)
    s.declare_rel(E)
    return s, E


class TestTypeCounts:
    def test_dense_counts_match_formula(self):
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(6)]
        for n in range(7):
            assert len(types_over(s, E[:n])) == 2 * n + 1

    def test_pure_counts(self):
        s = PureSetStructure(4)
        E = s.atoms()
        for n in range(5):
            assert len(types_over(s, E[:n])) == n + 1

    def test_count_supported_examples(self):
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(2)]
        assert count_supported(s, E) == 32
        assert count_supported(s, []) == 2
        p = PureSetStructure(3)
        assert count_supported(p, p.atoms()) == 16

    def test_categorical_count_over_empty(self):
        s = CategoricalStructure()
        s.fresh(1)
        # over no parameters the only atomic formula is the unary relation
        assert len(types_over(s, [])) == 2

    @pytest.mark.parametrize(
        "make",
        [PureSetStructure, DenseOrderStructure, CategoricalStructure],
        ids=["pure_set", "dense_order", "categorical"],
    )
    def test_type_lists_cached_per_structure(self, make):
        # the list depends only on the class and the support size, so two
        # structures share it even over supports of different atoms
        s, t = make(), make()
        E = s.fresh(2)
        t.fresh(3)
        F = t.fresh(2)
        assert [a.payload for a in E] != [a.payload for a in F]
        ts = types_over(s, E)
        assert types_over(s, E[::-1]) is ts
        assert types_over(t, F) is ts
        assert types_over(t, F[:1]) is not ts

    @staticmethod
    def _assert_tables_match_restrict_type(s, E):
        """Every sub-support's table against the type-at-a-time oracle."""
        E = sort_support(s, E)
        ts = types_over(s, E)
        for keep in range(len(E) + 1):
            for sub in itertools.combinations(E, keep):
                table = s.projection(E, sub)
                assert len(table) == len(ts)
                below = types_over(s, sub)
                for k, t in enumerate(ts):
                    assert below[table[k]] == restrict_type(s, t, E, sub)

    @pytest.mark.parametrize("kind", ["pure_set", "dense_order", "categorical"])
    def test_restriction_table_matches_restrict_type(self, kind):
        self._assert_tables_match_restrict_type(*_structure_with_support(kind))

    def test_categorical_table_follows_relation_facts(self):
        # the same two-atom support shape, with different facts among the
        # support atoms: the eq entries differ, the rest is shared
        tables = []
        for facts in ([], [(0,), (1, 0)]):
            s = CategoricalStructure()
            E = sort_support(s, s.fresh(2))
            for args in facts:
                s.declare_rel([E[i] for i in args])
            self._assert_tables_match_restrict_type(s, E)
            tables.append([s.projection(E, sub) for sub in (E[:1], E[1:])])
        for plain, related in zip(*tables):
            assert plain[:2] != related[:2]
            assert plain[2:] == related[2:]

    def test_categorical_table_sees_facts_declared_later(self):
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(2))
        before = s.projection(E, E[:1])
        s.declare_rel([E[1], E[0]])
        assert s.projection(E, E[:1]) != before
        self._assert_tables_match_restrict_type(s, E)

    @pytest.mark.parametrize(
        "make",
        [PureSetStructure, DenseOrderStructure, CategoricalStructure],
        ids=["pure_set", "dense_order", "categorical"],
    )
    def test_tables_shared_by_supports_of_one_shape(self, make):
        # two structures, supports with different atoms, the sub-support
        # at the same positions: one payload-free table between them
        s, t = make(), make()
        E = sort_support(s, s.fresh(2))
        t.fresh(3)
        F = sort_support(t, t.fresh(2))
        assert [a.payload for a in E] != [a.payload for a in F]
        shapes = make._shape_table.cache_info
        for keep in ((), (0,), (1,), (0, 1)):
            mine = s.projection(E, tuple(E[j] for j in keep))
            built = shapes().misses
            theirs = t.projection(F, tuple(F[j] for j in keep))
            assert shapes().misses == built
            assert mine is theirs

    @pytest.mark.parametrize(
        "make",
        [PureSetStructure, DenseOrderStructure, CategoricalStructure],
        ids=["pure_set", "dense_order", "categorical"],
    )
    def test_fibres_built_once_per_shape(self, make):
        # two supports of one shape in two structures: the second reads the
        # fibres the first built, and both are the fibres of the table
        s, t = make(), make()
        E = sort_support(s, s.fresh(2))
        t.fresh(3)
        F = sort_support(t, t.fresh(2))
        fibres = make._shape_fibres.cache_info
        make._shape_fibres.cache_clear()
        for built, keep in enumerate(((), (0,), (1,), (0, 1)), start=1):
            mine = s.fibres(E, tuple(E[j] for j in keep))
            assert fibres().misses == built
            theirs = t.fibres(F, tuple(F[j] for j in keep))
            assert fibres().misses == built
            assert mine == theirs == fibres_of(s.projection(E, tuple(E[j] for j in keep)))

    def test_categorical_fibres_are_those_of_the_shape_tables(self):
        # built from the relation masks' pattern, never from the table, for
        # every diagram on up to two atoms
        for n in range(3):
            facts = [ids for m in (1, 2) for ids in itertools.permutations(range(n), m)]
            for chosen in itertools.product((False, True), repeat=len(facts)):
                shape = (n, frozenset(ids for ids, on in zip(facts, chosen) if on))
                for keep in range(n + 1):
                    for positions in itertools.combinations(range(n), keep):
                        table = CategoricalStructure._shape_table(shape, positions)
                        assert CategoricalStructure._shape_fibres(shape, positions) == fibres_of(table)

    def test_types_partition_materialised_atoms(self):
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(3)]
        probes = [s.atom(Fraction(k, 2) - 1) for k in range(12)]
        for a in probes:
            holders = [t for t in types_over(s, E) if s.holds(t, E, a)]
            assert len(holders) == 1

    def test_pure_bruteforce_invariant_count(self):
        # all subsets of a 10-atom pool invariant under every permutation
        # fixing a 3-atom support, counted by orbit generators
        s = PureSetStructure(10)
        pool = s.atoms()
        E = pool[:3]
        rest = pool[3:]
        swaps = [(rest[i], rest[i + 1]) for i in range(len(rest) - 1)]
        count = 0
        for mask in range(1 << 10):
            subset = {pool[i] for i in range(10) if mask >> i & 1}
            if any((a in subset) != (b in subset) for a, b in swaps):
                continue
            count += 1
        assert count == 16 == count_supported(s, E)

    def test_least_supported_counts(self):
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(3)]
        assert [count_least_supported(s, E[:n]) for n in range(4)] == [2, 6, 18, 54]
        # law: summing class sizes over all sub-supports recovers the total
        total = sum(
            count_least_supported(s, sub)
            for k in range(4)
            for sub in itertools.combinations(E, k)
        )
        assert total == count_supported(s, E) == 128

    @pytest.mark.parametrize("make", [DenseOrderStructure, PureSetStructure])
    def test_least_supported_counts_match_recursion(self, make):
        s = make()
        E = s.fresh(8)
        for n in range(9):
            assert count_least_supported(s, E[:n]) == count_least_supported_by_recursion(s, E[:n])

    def test_least_supported_closed_forms(self):
        # 2 * 3^n over the dense order, 2 (empty and full) over the bare set
        d, p = DenseOrderStructure(), PureSetStructure()
        E, F = d.fresh(40), p.fresh(40)
        for n in range(41):
            assert count_least_supported(d, E[:n]) == 2 * 3**n
            assert count_least_supported(p, F[:n]) == 2

    def test_categorical_least_supported_counts_match_recursion(self):
        s = CategoricalStructure()
        E = s.fresh(2)
        s.declare_rel(E)
        for n in range(3):
            assert count_least_supported(s, E[:n]) == count_least_supported_by_recursion(s, E[:n])

    @pytest.mark.parametrize(
        "make",
        [PureSetStructure, DenseOrderStructure, CategoricalStructure],
        ids=["pure_set", "dense_order", "categorical"],
    )
    def test_type_count_is_the_list_length(self, make):
        for n in range(3 if make is CategoricalStructure else 6):
            assert make._type_count(n) == len(make._type_list(n))


class TestMaskMoves:
    @pytest.mark.parametrize("kind", ["pure_set", "dense_order", "categorical"])
    def test_mask_moves_match_genexpr_oracles(self, kind):
        rng = random.Random(kind)
        s, atoms = _structure_with_support(kind)
        E = sort_support(s, atoms)
        width = len(types_over(s, E))
        for keep in range(len(E) + 1):
            for sub in itertools.combinations(E, keep):
                table = s.projection(E, sub)
                fibres = fibres_of(table)
                assert s.fibres(E, sub) == fibres
                below = len(types_over(s, sub))
                for _ in range(12):
                    # masks over the sub-support, pulled up onto E
                    small = rng.getrandbits(min(below, 6))
                    for mask in (small, rng.getrandbits(below)):
                        assert _pull(fibres, mask) == _pull_by_genexpr(table, mask)
                    # masks over E, pushed down and tested for support
                    pulled = _pull(fibres, rng.getrandbits(below))
                    for mask in (rng.getrandbits(6), rng.getrandbits(width), pulled):
                        assert _push(fibres, mask) == _push_by_genexpr(table, mask)
                        S = SupportedSubset(s, E, mask)
                        assert S.is_supported_by(sub) == _is_supported_by_genexpr(S, sub)
                    assert SupportedSubset(s, E, pulled).is_supported_by(sub)


    @pytest.mark.parametrize("kind", ["pure_set", "dense_order", "categorical"])
    def test_kernels_ignore_bits_past_their_width(self, kind):
        # _pull reads the mask bits below the sub-support's type count,
        # _push those below the table width, and _fibred refuses a bit past
        # the table width, as the genexpr oracles do
        rng = random.Random(kind)
        s, atoms = _structure_with_support(kind)
        E = sort_support(s, atoms)
        for keep in range(len(E) + 1):
            for sub in itertools.combinations(E, keep):
                table = s.projection(E, sub)
                fibres = s.fibres(E, sub)
                below, width = len(types_over(s, sub)), len(table)
                for _ in range(6):
                    small, big = rng.getrandbits(below), rng.getrandbits(width)
                    high = small | 1 << below + rng.randrange(8)
                    assert _pull(fibres, high) == _pull(fibres, small) == _pull_by_genexpr(table, high)
                    for mask in (big, _pull(fibres, small)):
                        wide = mask | 1 << width + rng.randrange(8)
                        assert _push(fibres, wide) == _push(fibres, mask) == _push_by_genexpr(table, wide)
                        oracle = _pull_by_genexpr(table, _push_by_genexpr(table, mask)) == mask
                        assert _fibred(fibres, mask) == oracle
                        assert not _fibred(fibres, wide)

    @pytest.mark.parametrize("facts", [False, True], ids=["no-facts", "fact"])
    @pytest.mark.parametrize("keep", [0, 1])
    def test_kernels_match_the_oracles_on_two_atom_homogeneous_tables(self, keep, facts):
        # a two-atom homogeneous support onto either of its atoms: 6,146
        # table positions in 17 fibres, with masks of the full width
        rng = random.Random(f"wide-{keep}-{facts}")
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(2))
        if facts:
            s.declare_rel(E[::-1])
        sub = E[keep : keep + 1]
        table = s.projection(E, sub)
        fibres = s.fibres(E, sub)
        assert (len(table), len(fibres)) == (6146, 17)
        assert fibres == fibres_of(table)
        for _ in range(24):
            small = rng.getrandbits(17)
            assert _pull(fibres, small) == _pull_by_genexpr(table, small)
            pulled = _pull(fibres, small)
            for mask in (rng.getrandbits(6146), pulled, pulled ^ 1 << rng.randrange(6146)):
                assert _push(fibres, mask) == _push_by_genexpr(table, mask)
                oracle = _pull_by_genexpr(table, _push_by_genexpr(table, mask)) == mask
                assert _fibred(fibres, mask) == oracle
            assert _fibred(fibres, pulled)


class TestSupportedSubset:
    def test_the_own_support_needs_no_fibres(self):
        # re-encoding onto atoms of the support, or asking whether the
        # support supports the subset, builds no identity fibres
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(2))
        S = SupportedSubset(s, E, 12345)
        built = CategoricalStructure._shape_fibres.cache_info().misses
        union = S.union(S.reencode(E[:1]))
        assert (union.support, union.mask) == (E, S.mask)
        assert S.is_supported_by(E[::-1])
        assert CategoricalStructure._shape_fibres.cache_info().misses == built

    @pytest.mark.parametrize("make", [PureSetStructure, DenseOrderStructure, CategoricalStructure])
    def test_type_positions_are_those_in_the_type_list(self, make):
        # every type of every shape up to two atoms, the 6,146 homogeneous
        # types over two atoms among them
        s = make()
        atoms = sort_support(s, s.fresh(2))
        for n in range(3):
            S = SupportedSubset(s, atoms[:n], 0)
            ts = S.types()
            assert [S._position(t) for t in ts] == [ts.index(t) for t in ts] == list(range(len(ts)))
            assert [s._type_position(n, t) for t in ts] == list(range(len(ts)))

    def test_membership_reads_the_type_list_position(self):
        s = CategoricalStructure()
        e = sort_support(s, s.fresh(2))
        for formulas in ([], [f_lt(e[0])], [f_lt(e[1])], [f_rel(0, e[:1])], [f_rel(1, e[1:]), f_lt(e[1])],
                         [f_rel(2, e), f_rel(0, e[::-1]), f_lt(e[0])], [f_rel(1, (e[1], e[0])), f_rel(0, ())]):
            fresh_realizer(s, formulas)
        rng = random.Random(30)
        for S in [SupportedSubset(s, e, rng.getrandbits(6146)) for _ in range(4)] + [SupportedSubset(s, e[1:], 0b101010101)]:
            E = S.support
            for a in s.atoms():
                t = ("eq", E.index(a)) if a in E else s.type_of(a, E)
                assert S.contains(a) == bool(S.mask >> S.types().index(t) & 1)
            assert 0 < len(S.denote()) < len(s.atoms())

    def test_a_subset_refuses_reassignment(self):
        # its least support and canonical key are cached, so a changed mask
        # or support would leave them stale
        s = PureSetStructure(3)
        E = s.atoms()
        S = SupportedSubset.of_atoms(s, E[:1]).reencode(E)
        least, key, mask = least_support(S), S.canonical_key(), S.mask
        for name, value in (("mask", 0b1000), ("support", E[1:]), ("structure", PureSetStructure(3)), ("_least", ())):
            with pytest.raises(AttributeError):
                setattr(S, name, value)
        with pytest.raises(AttributeError):
            del S.mask
        assert (least_support(S), S.canonical_key(), S.mask) == (least, key, mask) == ((E[0],), key, 0b0001)

    def test_interval_least_support(self):
        s = DenseOrderStructure()
        e0, e1, e2 = (s.atom(i) for i in range(3))
        ts = types_over(s, [e0, e1, e2])
        S = SupportedSubset(s, [e0, e1, e2], 1 << ts.index(("gap", 1)))
        assert least_support(S) == (e0, e1)

    def test_full_set_has_empty_support(self):
        s = DenseOrderStructure()
        e0, e2 = s.atom(0), s.atom(2)
        S = SupportedSubset.all_atoms(s).reencode([e0, e2])
        assert least_support(S) == ()

    def test_singleton_support(self):
        s = PureSetStructure(2)
        a0, a1 = s.atoms()
        S = SupportedSubset.of_atoms(s, [a0]).reencode([a0, a1])
        assert least_support(S) == (a0,)

    def test_least_support_bruteforce(self):
        """Exhaustively: the least support is the unique minimal sub-support,
        no proper subset of it supports the set, and shrinking to it is
        idempotent."""
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(4)]
        for bits in range(1 << 9):
            S = SupportedSubset.from_bits(s, E, bits)
            L = least_support(S)
            supports = [
                sub
                for k in range(5)
                for sub in itertools.combinations(E, k)
                if S.is_supported_by(sub)
            ]
            minimal = [
                sub
                for sub in supports
                if not any(set(o) < set(sub) for o in supports)
            ]
            assert minimal == [tuple(L)]
            shrunk = S.canonical()
            assert least_support(shrunk) == L and shrunk == S

    def test_least_support_by_invariance_probes(self):
        """Independent reading of 'support': probe automorphisms fixing the
        candidate set leave the denotation alone."""
        rng = random.Random(2)
        s = PureSetStructure(9)
        pool = s.atoms()
        E = pool[:3]
        for bits in range(1 << 4):
            S = SupportedSubset.from_bits(s, E, bits)
            L = least_support(S)
            for sub in itertools.combinations(E, 2):
                moved = [a for a in pool if a not in sub]
                for _ in range(12):
                    img = rng.sample(moved, len(moved))
                    pi = extend_fixing(s, sub, dict(zip(moved, img)))
                    fixed_setwise = {pi.apply(a) for a in S.denote(pool)} == set(
                        S.denote(pool)
                    )
                    if not fixed_setwise:
                        assert not set(L) <= set(sub)
                        break
                else:
                    continue

    def test_equality_across_supports(self):
        s = PureSetStructure(6)
        pool = s.atoms()
        S1 = SupportedSubset.of_atoms(s, pool[:2])
        S2 = SupportedSubset.of_atoms(s, pool[:2]).reencode(pool[:5])
        assert S1 == S2 and hash(S1) == hash(S2)
        S3 = SupportedSubset.of_atoms(s, pool[:3])
        assert S1 != S3

    @staticmethod
    def _algebra_case(kind):
        """A structure, a support E, a pool of atoms realising many types
        over E, and an automorphism moving E onto a support it reorders or
        shifts.  Subsets live over E[:k] and E[-k:], so their union needs
        E: two atoms for the homogeneous structure, three otherwise."""
        if kind == "pure_set":
            s = PureSetStructure(6)
            pool = s.atoms()
            E = pool[:3]
            return s, E, pool, extend_fixing(s, [], dict(zip(E, E[::-1])))
        if kind == "dense_order":
            s = DenseOrderStructure()
            pool = [s.atom(Fraction(k, 2)) for k in range(-2, 8)]
            E = [s.atom(i) for i in range(3)]
            return s, E, pool, extend_fixing(s, [], {e: s.atom(e.payload + 1) for e in E})
        s = CategoricalStructure()
        pool = s.fresh(8)
        E = [pool[2], pool[5]]
        a = [x for x in pool if x not in E]
        for args in ([a[0]], [a[1], E[0]], [E[1], a[2]], [a[3], E[0], E[1]], [E[1], E[0]]):
            s.declare_rel(args)
        image = s.fresh(2)
        s.declare_rel(image[::-1])
        return s, E, pool, extend_fixing(s, [], dict(zip(E, image)))

    @pytest.mark.parametrize("kind", ["pure_set", "dense_order", "categorical"])
    def test_boolean_algebra_closure(self, kind):
        # the mask algebra against the denotation on a materialised pool
        s, E, pool, pi = self._algebra_case(kind)
        k = len(E) - 1
        rng = random.Random(3)

        def sample(support):
            full = (1 << len(types_over(s, support))) - 1
            masks = [0, full] + [rng.randint(0, full) for _ in range(3)]
            return [SupportedSubset(s, support, m) for m in masks]

        def members(S):
            return set(S.denote(pool))

        for S1, S2 in itertools.product(sample(E[:k]), sample(E[-k:])):
            u, i = S1.union(S2), S1.intersection(S2)
            assert u.support == i.support == tuple(E)
            assert members(u) == members(S1) | members(S2)
            assert members(i) == members(S1) & members(S2)
        for S in sample(E):
            assert members(S.complement()) == set(pool) - members(S)
            moved = S.apply(pi)
            assert all(moved.contains(pi.apply(a)) == S.contains(a) for a in pool)
        if kind == "pure_set":
            # reversing the support renames every ("eq", j) bit to n-1-j
            S = SupportedSubset(s, E, 0b0011)
            assert S.apply(pi).support == S.support and S.apply(pi).bits() == "0110"

    @pytest.mark.parametrize("kind", ["pure_set", "dense_order", "categorical"])
    def test_internal_results_match_a_public_rebuild(self, kind):
        # these results skip `sort_support`: each must hold the support and mask
        # that the public constructor gives when it sorts and checks them again
        s, E, pool, pi = self._algebra_case(kind)
        rng = random.Random(5)
        extra = E[::-1] if kind == "categorical" else pool[-2:][::-1]  # two atoms carry 6,146 types there
        results = []
        for support in (E, E[:1], E[::-1], []):
            full = (1 << s._type_count(len(support))) - 1
            for mask in {0, full, rng.randint(0, full), rng.randint(0, full)}:
                S = SupportedSubset(s, support, mask)
                T = SupportedSubset(s, E[-1:], rng.randint(0, (1 << s._type_count(1)) - 1))
                results += [S.apply(pi), S.reencode(extra), S.canonical(), S.complement()]
                results += [S.union(T), S.intersection(T), SupportedSubset.of_atoms(s, support[::-1])]
        for R in results:
            public = SupportedSubset(s, R.support, R.mask)
            assert type(R.support) is tuple and (R.support, R.mask) == (public.support, public.mask)
            assert R.canonical_key() == public.canonical_key()

    def test_public_constructor_still_checks_its_support(self):
        s, E, pool, pi = self._algebra_case("dense_order")
        for support in ([*E, PureSetStructure(1).atoms()[0]], [*E, Atom(DENSE_ORDER, Rational(99))]):
            with pytest.raises(StructureMismatch):
                SupportedSubset(s, support, 0)
        for mask in (-1, 1 << 7):
            with pytest.raises(ValueError):
                SupportedSubset(s, E, mask)
        assert SupportedSubset(s, E[::-1] + E, (1 << 7) - 1).support == tuple(E)

    def test_denotation_invariant_under_support_fixers(self):
        s = PureSetStructure(10)
        pool = s.atoms()
        E = pool[:2]
        rng = random.Random(7)
        for bits in range(1 << 3):
            S = SupportedSubset.from_bits(s, E, bits)
            moved = pool[2:]
            for _ in range(10):
                img = rng.sample(moved, len(moved))
                pi = extend_fixing(s, E, dict(zip(moved, img)))
                den = set(S.denote(pool))
                assert {pi.apply(a) for a in den} == den

    def test_bits_json_roundtrip(self):
        s = DenseOrderStructure()
        E = [s.atom(i) for i in range(2)]
        S = SupportedSubset.from_bits(s, E, 19)
        data = S.to_json()
        assert data["bits"] == S.bits()
        assert SupportedSubset.from_json(s, data) == S
        # bits other than a string of 0s and 1s are refused, not misread
        p = PureSetStructure(3)
        bad = SupportedSubset.of_atoms(p, p.atoms()[:1]).to_json()
        for bits in ("2x", 7):
            bad["bits"] = bits
            with pytest.raises(ValueError):
                SupportedSubset.from_json(p, bad)

    def test_out_of_range_mask_is_refused(self):
        # two bare atoms carry three types, so a mask lies in [0, 8)
        s = PureSetStructure(2)
        E = s.atoms()
        assert SupportedSubset.from_bits(s, E, 7).bits() == "111"
        for bits in (-1, 8, 9):
            with pytest.raises(ValueError):
                SupportedSubset.from_bits(s, E, bits)
        with pytest.raises(ValueError):
            SupportedSubset(s, E, 1 << 3)


class TestClassifyFraenkel:
    def test_finite_inside_support(self):
        s = PureSetStructure(4)
        a0, a1 = s.atoms()[:2]
        c = classify_fraenkel(SupportedSubset.of_atoms(s, [a0, a1]))
        assert c.kind == "finite" and set(c.members) == {a0, a1}

    def test_cofinite_complement_inside_support(self):
        s = PureSetStructure(4)
        E = s.atoms()[:2]
        outside = SupportedSubset(s, E, 1 << types_over(s, E).index(("free",)))
        c = classify_fraenkel(outside)
        assert c.kind == "cofinite" and set(c.members) == set(E)

    def test_outside_plus_singleton(self):
        s = PureSetStructure(5)
        E = s.atoms()[:2]
        ts = types_over(s, E)
        S = SupportedSubset(s, E, 1 << ts.index(("free",)) | 1 << ts.index(("eq", 0)))
        c = classify_fraenkel(S)
        assert c.kind == "cofinite" and c.members == (E[1],)

    def test_wrong_structure_kind(self):
        s = DenseOrderStructure()
        with pytest.raises(StructureMismatch):
            classify_fraenkel(SupportedSubset.empty(s))

    def test_every_supported_subset_classified(self):
        s = PureSetStructure(6)
        E = s.atoms()[:3]
        for bits in range(1 << 4):
            S = SupportedSubset.from_bits(s, E, bits)
            c = classify_fraenkel(S)
            assert set(c.members) <= set(E)


@pytest.mark.parametrize(
    "case", ["types_over", "of_atoms", "all_atoms", "from_json", "count_supported", "refute-table"]
)
def test_pair_model_has_no_types(case, tmp_path, capsys):
    s = PairStructure(2)
    a, b = s.atoms()
    subset = {"structure": s.kind, "support": [], "bits": "1"}
    calls = {
        "types_over": lambda: types_over(s, []),
        "of_atoms": lambda: SupportedSubset.of_atoms(s, [a]),
        "all_atoms": lambda: SupportedSubset.all_atoms(s),
        "from_json": lambda: SupportedSubset.from_json(s, subset),
        "count_supported": lambda: count_supported(s, [a]),
    }
    if case in calls:
        with pytest.raises(StructureMismatch):
            calls[case]()
        return
    # an oracle table that answers with a pair-model subset is unreadable
    table = [[hf_to_json(hfset(a, b)), {"subset": subset}]]
    tfile = tmp_path / "table.json"
    tfile.write_text(json.dumps({"structure": s.to_json(), "support": [], "table": table}))
    code = main(["refute", "unordered-to-ordered", "--oracle", f"@{tfile}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1


class TestCategoricalTypes:
    def test_type_count_formula_one_param(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        # one equality type plus (two gaps) x (three relation formulas free)
        assert len(types_over(s, [e0])) == 1 + 2 * 2 ** 3

    def test_type_count_two_params_within_budget(self):
        s = CategoricalStructure()
        assert len(types_over(s, s.fresh(2))) == 2 + 3 * 2 ** 11 == 6146

    def test_three_params_exceed_type_budget_quickly(self):
        s = CategoricalStructure()
        E = sort_support(s, s.fresh(3))
        calls = [
            lambda: types_over(s, E),
            lambda: count_supported(s, E),
            lambda: count_least_supported(s, E),
            lambda: SupportedSubset(s, E, 0),
            lambda: SupportedSubset.from_bits(s, E, "0"),
            lambda: SupportedSubset.of_atoms(s, E),
            lambda: s.projection(E, E[:2]),
            lambda: s.projection(E, ()),
            lambda: class_rank(SupportedSubset.of_atoms(s, E)),
            lambda: categorical_seq_to_power(s, E),
            lambda: categorical_seq_to_power(s, E[::-1]),
        ]
        for call in calls:
            t0 = time.perf_counter()
            with pytest.raises(TypeBudgetExceeded):
                call()
            assert time.perf_counter() - t0 < 1.0

    def test_same_type_atoms_swap(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        for t in types_over(s, [e0]):
            if t[0] != "typ":
                continue
            # realize the type twice if consistent, then swap
            a = fresh_realizer(s, [])
            if not s.holds(t, (e0,), a):
                continue
            b = fresh_realizer(s, [])
            if s.holds(t, (e0,), b):
                assert extend_fixing(s, [e0], {a: b}) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 511), st.integers(0, 511))
def test_union_supports_agree(b1, b2):
    s = DenseOrderStructure()
    E = [s.atom(i) for i in range(4)]
    S1 = SupportedSubset.from_bits(s, E, b1 % (1 << 9))
    S2 = SupportedSubset.from_bits(s, E, b2 % (1 << 9))
    assert (S1 == S2) == (S1.bits() == S2.bits())


def _categorical_sample():
    s = CategoricalStructure()
    e0, e1 = s.fresh(2)
    fresh_realizer(s, [f_rel(1, (e0, e1)), f_lt(e0)])
    return s


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureSetStructure(3),
        lambda: DenseOrderStructure([Fraction(-1), Fraction(0), Fraction(1)]),
        _categorical_sample,
    ],
    ids=["pure_set", "dense_order", "categorical"],
)
def test_supported_subsets_survive_copy_and_pickle(make):
    s = make()
    S = SupportedSubset(s, s.atoms()[:2], 0b101)
    assert copy.copy(S) == S and copy.copy(S).structure is s
    # a deep copy or a pickle copies the structure too, and the subset
    # rebuilt over the copy has the same support, mask and canonical key
    for s2, S2 in (copy.deepcopy((s, S)), pickle.loads(pickle.dumps((s, S)))):
        assert S2.structure is s2 and s2 is not s and s2.atoms() == s.atoms()
        assert (S2.support, S2.mask) == (S.support, S.mask)
        assert S2.canonical_key() == S.canonical_key() and least_support(S2) == least_support(S)
        assert S2 == SupportedSubset(s2, S.support, S.mask)
