import bisect
import copy
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless import atoms
from choiceless.atoms import (
    CAPS,
    CATEGORICAL,
    DENSE_ORDER,
    PAIR_MODEL,
    PURE_SET,
    Atom,
    BudgetExceeded,
    CategoricalStructure,
    DenseOrderStructure,
    LevelBudgetExceeded,
    PairStructure,
    PartialAutomorphism,
    PureSetStructure,
    Rational,
    StructureMismatch,
    UnsatisfiableType,
    _cat_rel_formulas,
    atom_from_json,
    atom_to_json,
    extend_fixing,
    extendable,
    f_lt,
    f_rel,
    fresh_realizer,
)


def dense(*qs):
    s = DenseOrderStructure()
    return s, [s.atom(Fraction(q)) for q in qs]


class TestExtendable:
    def test_pure_any_injection_extends(self):
        s = PureSetStructure(2)
        a, b = s.atoms()
        assert extendable(s, PartialAutomorphism({a: b, b: a}))

    def test_pure_non_injective_rejected(self):
        s = PureSetStructure(3)
        a, b, c = s.atoms()
        assert not extendable(s, PartialAutomorphism({a: c, b: c}))

    def test_dense_monotone_accepted(self):
        s, _ = dense(1, 2, 3, "5/2")
        p = PartialAutomorphism({s.atom(1): s.atom(2), s.atom(3): s.atom("5/2")})
        assert extendable(s, p)

    def test_dense_order_reversal_rejected(self):
        s, _ = dense(1, 2, 3, "3/2")
        p = PartialAutomorphism({s.atom(1): s.atom(2), s.atom(3): s.atom("3/2")})
        assert not extendable(s, p)

    def test_pair_bit_flip_fixing_components(self):
        s = PairStructure(2)
        a, b = s.base_atom(0), s.base_atom(1)
        u0, u1 = s.pair_atom(1, a, b, 0), s.pair_atom(1, a, b, 1)
        assert extendable(s, PartialAutomorphism({a: a, b: b, u0: u1}))

    def test_pair_level_mismatch_rejected(self):
        s = PairStructure(2)
        a, b = s.base_atom(0), s.base_atom(1)
        u = s.pair_atom(1, a, b, 0)
        assert not extendable(s, PartialAutomorphism({a: u}))

    def test_pair_conflicting_bits_rejected(self):
        s = PairStructure(2)
        a, b = s.base_atom(0), s.base_atom(1)
        u0, u1 = s.pair_atom(1, a, b, 0), s.pair_atom(1, a, b, 1)
        v0 = s.pair_atom(1, b, a, 0)
        v1 = s.pair_atom(1, b, a, 1)
        # flipping u but not v needs two different level-1 bits at once
        p = PartialAutomorphism({a: a, b: b, u0: u1, v0: v0})
        assert not extendable(s, p)
        assert extendable(s, PartialAutomorphism({a: a, b: b, u0: u1, v0: v1}))

    def test_mixed_worlds_raise(self):
        s = PureSetStructure(1)
        t, _ = dense(0)
        with pytest.raises(StructureMismatch):
            PartialAutomorphism({s.atoms()[0]: t.atom(0)})

    def test_unmaterialised_atom_raises(self):
        s = PureSetStructure(1)
        other = PureSetStructure(5)
        ghost = other.atoms()[4]
        with pytest.raises(StructureMismatch):
            extendable(s, PartialAutomorphism({ghost: ghost}))

    def test_extend_fixing_checks_ownership(self):
        s = PureSetStructure(1)
        (a,) = s.atoms()
        ghost = PureSetStructure(5).atoms()[4]
        _, (q,) = dense(0)
        for fixed, constraints in (([ghost], {}), ([a], {ghost: a}), ([], {q: q})):
            with pytest.raises(StructureMismatch):
                extend_fixing(s, fixed, constraints)

    def test_closed_under_restriction(self):
        rng = random.Random(5)
        s = DenseOrderStructure()
        pool = [s.atom(i) for i in range(8)]
        for _ in range(200):
            k = rng.randint(0, 4)
            src = rng.sample(pool, k)
            img = rng.sample(pool, k)
            p = PartialAutomorphism(dict(zip(src, img)))
            if extendable(s, p):
                for drop in src:
                    q = PartialAutomorphism(
                        {a: b for a, b in p.pairs.items() if a != drop}
                    )
                    assert extendable(s, q)


class TestDenseBruteForce:
    """Cross-check the monotonicity test against an independent search for
    an increasing extension into a refined grid."""

    @staticmethod
    def exists_increasing_extension(pairs):
        src = sorted(q for q, _ in pairs)
        img = {q: v for q, v in pairs}
        grid = set()
        for q, v in pairs:
            grid.add(v)
        values = sorted(set(img.values()))
        lo = min(values, default=Fraction(0)) - 1
        hi = max(values, default=Fraction(0)) + 1
        grid |= {lo, hi}
        grid = sorted(grid)
        refined = [lo - 1]
        for a, b in zip(grid, grid[1:]):
            refined += [a, (a + b) / 2]
        refined += [grid[-1], hi + 1]
        # try every increasing assignment of sources to grid points that
        # agrees with the prescribed images
        n = len(src)
        for combo in itertools.combinations(sorted(set(refined)), n):
            if all(combo[i] == img[src[i]] for i in range(n)):
                return True
        return False

    def test_against_random_partial_maps(self):
        rng = random.Random(11)
        s = DenseOrderStructure()
        pool = [s.atom(Fraction(i, 2)) for i in range(14)]
        for _ in range(300):
            k = rng.randint(1, 5)
            src = rng.sample(pool, k)
            img = rng.sample(pool, k)
            pairs = [(a.payload, b.payload) for a, b in zip(src, img)]
            p = PartialAutomorphism(dict(zip(src, img)))
            assert extendable(s, p) == self.exists_increasing_extension(pairs)


class TestExtendFixing:
    def test_dense_fix_zero(self):
        s, _ = dense(0, 1, 2)
        pi = extend_fixing(s, [s.atom(0)], {s.atom(1): s.atom(2)})
        assert pi is not None
        assert pi.apply(s.atom(0)) == s.atom(0)
        assert pi.apply(s.atom(1)) == s.atom(2)

    def test_dense_swap_inside_interval_impossible(self):
        s, _ = dense(0, 1, 2, 3)
        pi = extend_fixing(s, [s.atom(0), s.atom(3)], {s.atom(1): s.atom(2), s.atom(2): s.atom(1)})
        assert pi is None

    def test_pure_transposition_fixing_one(self):
        s = PureSetStructure(3)
        a, b, c = s.atoms()
        pi = extend_fixing(s, [a], {b: c, c: b})
        assert pi is not None
        assert pi.apply(a) == a and pi.apply(b) == c and pi.apply(c) == b

    def test_returned_map_is_extendable_and_fixes(self):
        rng = random.Random(3)
        s = PureSetStructure(8)
        pool = s.atoms()
        for _ in range(100):
            E = rng.sample(pool, rng.randint(0, 3))
            rest = [a for a in pool if a not in E]
            src = rng.sample(rest, 2)
            img = rng.sample(rest, 2)
            pi = extend_fixing(s, E, dict(zip(src, img)))
            if pi is None:
                continue
            for a in pool:
                pi.apply(a)
            snap = PartialAutomorphism(pi.pairs)
            assert extendable(s, snap)
            assert snap.fixes_pointwise(E)

    def test_constraint_conflicting_with_fix_is_none(self):
        s = PureSetStructure(2)
        a, b = s.atoms()
        assert extend_fixing(s, [a], {a: b}) is None

    def test_dense_interpolation_is_exact(self):
        s, _ = dense(0, 4)
        pi = extend_fixing(s, [s.atom(0)], {s.atom(4): s.atom(8)})
        assert pi.apply(s.atom(2)).payload == Fraction(4)
        assert pi.apply(s.atom(1)).payload == Fraction(2)
        # outside the hull the map shifts rigidly, staying monotone
        assert pi.apply(s.atom(5)).payload == Fraction(9)

    def test_pair_lift_acts_levelwise(self):
        s = PairStructure(3)
        x, y, z = (s.base_atom(i) for i in range(3))
        u0 = s.pair_atom(1, x, y, 0)
        pi = extend_fixing(s, [], {u0: s.pair_atom(1, x, y, 1)})
        assert pi is not None
        # level-1 bit is set: every level-1 atom flips its bit
        assert pi.apply(s.pair_atom(1, z, z, 0)) == s.pair_atom(1, z, z, 1)
        # level-2 bit is free and defaults to the identity
        w = s.pair_atom(2, u0, z, 1)
        img = pi.apply(w)
        assert img.payload[0] == 2 and img.payload[2] == 1

    def test_pair_orbits_follow_components(self):
        s = PairStructure(3)
        a, b, c = (s.base_atom(i) for i in range(3))
        u_ab = s.pair_atom(1, a, b, 0)
        u_ba = s.pair_atom(1, b, a, 0)
        u_aa = s.pair_atom(1, a, a, 0)
        # over the empty support the two mixed pairs share an orbit, the
        # diagonal one does not
        assert extend_fixing(s, [], {u_ab: u_ba}) is not None
        assert extend_fixing(s, [], {u_ab: u_aa}) is None
        # fixing a separates the mixed pairs; fixing c does not
        assert extend_fixing(s, [a], {u_ab: u_ba}) is None
        assert extend_fixing(s, [c], {u_ab: u_ba}) is not None

    def test_pair_bit_orbits_respect_pinning(self):
        s = PairStructure(2)
        a, b = s.base_atom(0), s.base_atom(1)
        u0 = s.pair_atom(1, a, b, 0)
        u1 = s.pair_atom(1, a, b, 1)
        assert extend_fixing(s, [], {u0: u1}) is not None
        assert extend_fixing(s, [a, b], {u0: u1}) is not None
        # pinning one bit-0 atom pins the level-1 bit
        assert extend_fixing(s, [u0], {u0: u1}) is None
        assert extend_fixing(s, [s.pair_atom(1, b, b, 0)], {u0: u1}) is None

    def test_pair_lift_permutes_the_base_atoms(self):
        # the lift records no preimage of b2, yet b2 stays in its image
        s = PairStructure(3)
        b0, b1, b2 = s.atoms()
        pi = extend_fixing(s, [], {b0: b1})
        assert pi.apply(b0) == b1
        assert {pi.apply(x) for x in (b0, b1, b2)} == {b0, b1, b2}


class TestCategorical:
    def test_fresh_below(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        a = fresh_realizer(s, [f_lt(e0)])
        assert s.lt(a, e0)

    def test_fresh_with_relation(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        a = fresh_realizer(s, [f_rel(0, (e0, e1))])
        assert s.rel_holds((a, e0, e1))
        assert not s.rel_holds((a, e1, e0))

    @pytest.mark.parametrize("tag", ["eq", "gt", "free"])
    def test_only_lt_and_rel_formulas_are_realised(self, tag):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        before = s.atoms()
        with pytest.raises(ValueError, match="realises lt and rel formulas"):
            fresh_realizer(s, [f_lt(e0), (tag, e0)])
        assert s.atoms() == before

    def test_duplicate_relation_parameters_rejected(self):
        s = CategoricalStructure()
        e0 = fresh_realizer(s, [])
        with pytest.raises(UnsatisfiableType):
            fresh_realizer(s, [f_rel(0, (e0, e0))])

    def test_minimal_diagram(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        a = fresh_realizer(s, [f_rel(0, (e0,))])
        assert s.rel_holds((a, e0))
        assert not s.rel_holds((a, e1))
        assert not s.rel_holds((e0, a))

    def test_homogeneity_same_type_atoms_swap(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        a = fresh_realizer(s, [f_rel(0, (e0, e1)), f_lt(e0)])
        b = fresh_realizer(s, [f_rel(0, (e0, e1)), f_lt(e0)])
        pi = extend_fixing(s, [e0, e1], {a: b})
        assert pi is not None and extendable(s, PartialAutomorphism(pi.pairs))

    def test_relation_preservation_required(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        a = fresh_realizer(s, [f_rel(0, (e0, e1))])
        plain = fresh_realizer(s, [])
        assert extend_fixing(s, [e0, e1], {a: plain}) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_type_of_reads_the_facts_as_the_formula_enumeration_does(self, seed):
        """Differential test: the 1-type read off the relation facts equals
        the type found by testing every relation formula over E, on random
        facts of arity 1 to 4, many of whose entries lie outside E."""
        rng = random.Random(seed)
        s = CategoricalStructure()
        nodes = []
        for _ in range(7):
            nodes.append(fresh_realizer(s, [f_lt(rng.choice(nodes))] if nodes and rng.random() < 0.5 else []))
        for _ in range(rng.randint(0, 14)):
            s.declare_rel(rng.sample(nodes, rng.randint(1, 4)))
        for _ in range(10):
            E = tuple(s.sorted_by_order(rng.sample(nodes, rng.randint(0, 3))))
            for atom in (a for a in nodes if a not in E):
                below = sum(1 for x in E if s.lt(x, atom))
                rels = frozenset(
                    f
                    for f in _cat_rel_formulas(len(E))
                    if s.formula_holds(("rel", f[1], f[2], tuple(E[j] for j in f[3])), atom)
                )
                assert s.type_of(atom, E) == ("typ", below, rels)

    def test_back_and_forth_keeps_partial_iso(self):
        s = CategoricalStructure()
        e0, e1 = s.fresh(2)
        a = fresh_realizer(s, [f_rel(0, (e0, e1))])
        b = fresh_realizer(s, [f_rel(0, (e0, e1))])
        pi = extend_fixing(s, [e0, e1], {a: b})
        for atom in list(s.atoms()):
            pi.apply(atom)
        assert extendable(s, PartialAutomorphism(pi.pairs))

    def test_back_and_forth_random_soak(self):
        """Random growth plus random lifts: the recorded finite map always
        stays a partial isomorphism."""
        rng = random.Random(31)
        for trial in range(25):
            s = CategoricalStructure()
            atoms = s.fresh(3)
            for _ in range(rng.randint(0, 5)):
                params = rng.sample(atoms, rng.randint(0, min(2, len(atoms))))
                slot = rng.randint(0, len(params))
                formulas = [f_rel(slot, tuple(params))]
                if rng.random() < 0.5 and params:
                    formulas.append(f_lt(params[0]))
                try:
                    atoms.append(fresh_realizer(s, formulas))
                except Exception:
                    continue
            E = rng.sample(atoms, rng.randint(0, 2))
            pi = extend_fixing(s, E, {})
            for atom in rng.sample(list(s.atoms()), min(6, len(s.atoms()))):
                pi.apply(atom)
                assert extendable(s, PartialAutomorphism(pi.pairs))

    # When no materialised node realises the wanted type in the cut, the lift
    # adds a fresh image.  Each case below leaves a rejected candidate at the
    # spot a naive placement (lo + 1, hi - 1, midpoint) would pick.

    def test_fresh_image_above_all_images_avoids_rejected_node(self):
        s = CategoricalStructure()
        a = fresh_realizer(s, [])
        b = fresh_realizer(s, [f_rel(0, ())])
        c, d = s.fresh(2)  # d sits at lo + 1 and lacks the unary fact
        pi = extend_fixing(s, [], {a: c})
        img = pi.apply(b)
        assert s.lt(c, img)
        assert s.rel_holds((img,))
        assert extendable(s, PartialAutomorphism(pi.pairs))

    def test_fresh_image_below_all_images_avoids_rejected_node(self):
        s = CategoricalStructure()
        w, x = s.fresh(2)  # w sits at hi - 1 and lacks the unary fact
        b = fresh_realizer(s, [f_rel(0, ())])
        c = fresh_realizer(s, [])
        pi = extend_fixing(s, [], {c: x})
        img = pi.apply(b)
        assert s.lt(img, x)
        assert s.rel_holds((img,))
        assert extendable(s, PartialAutomorphism(pi.pairs))

    def test_fresh_image_between_images_avoids_rejected_node(self):
        s = CategoricalStructure()
        p, m, q = s.fresh(3)  # m sits at the midpoint of p and q
        b = fresh_realizer(s, [f_rel(1, (m,)), f_lt(m)])
        pi = extend_fixing(s, [p], {m: q})
        img = pi.apply(b)
        assert s.lt(p, img) and s.lt(img, q)
        assert s.rel_holds((q, img))
        assert extendable(s, PartialAutomorphism(pi.pairs))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=5, unique=True), st.data())
def test_pure_extension_property(ids, data):
    """Any injective constraint set on atoms outside the fixed set extends
    while fixing that set pointwise."""
    s = PureSetStructure(16)
    pool = s.atoms()
    E = [pool[i] for i in ids]
    rest = [a for a in pool if a not in E]
    k = data.draw(st.integers(0, 3))
    src = data.draw(st.permutations(rest))[:k]
    img = data.draw(st.permutations(rest))[:k]
    pi = extend_fixing(s, E, dict(zip(src, img)))
    assert pi is not None
    assert pi.fixes_pointwise(E)
    assert extendable(s, PartialAutomorphism(pi.pairs))


def test_atom_json_roundtrip():
    s = PairStructure(2)
    a, b = s.base_atom(0), s.base_atom(1)
    w = s.pair_atom(2, s.pair_atom(1, a, b, 1), b, 0)
    assert atom_from_json(atom_to_json(w)) == w
    # no engine argues in the dense order, so its atoms have no JSON either way
    q = DenseOrderStructure().atom(Fraction(7, 3))
    with pytest.raises(ValueError, match="has no JSON"):
        atom_to_json(q)
    with pytest.raises(ValueError, match="no universe reads atoms of world 'dense'"):
        atom_from_json({"world": "dense", "q": "7/3"})


def test_dense_order_store_membership_fresh_and_json():
    s = DenseOrderStructure([Fraction(1, 3), 2])
    # membership by value, whoever built the atom
    assert Atom(DENSE_ORDER, Fraction(1, 3)) in s and Atom(DENSE_ORDER, Fraction(2)) in s
    assert Atom(DENSE_ORDER, Fraction(1, 2)) not in s
    assert Atom(PURE_SET, 2) not in s
    # fresh points lie above the materialised ones and the avoided ones
    fresh = s.fresh(2, avoid=[Atom(DENSE_ORDER, Fraction(7, 2))])
    assert [a.payload for a in fresh] == [Fraction(9, 2), Fraction(11, 2)]
    assert all(a in s for a in fresh)
    assert [a.payload for a in DenseOrderStructure().fresh(2)] == [1, 2]
    assert [a.payload for a in s.atoms()] == [Fraction(1, 3), 2, Fraction(9, 2), Fraction(11, 2)]
    # no engine argues in the dense order, so it has no JSON
    assert not hasattr(s, "to_json") and not hasattr(s, "from_json")


def _pair_sample():
    s = PairStructure(2)
    a, b = s.atoms()
    s.pair_atom(2, s.pair_atom(1, a, b, 1), b, 0)
    return s


def _categorical_sample():
    s = CategoricalStructure()
    e0, e1 = s.fresh(2)
    fresh_realizer(s, [f_rel(1, (e0, e1)), f_lt(e0)])
    return s


EACH_UNIVERSE = pytest.mark.parametrize(
    "make",
    [
        lambda: PureSetStructure(3),
        lambda: DenseOrderStructure([Fraction(-2), Fraction(1, 3), Fraction(5, 2)]),
        _pair_sample,
        _categorical_sample,
    ],
    ids=["pure_set", "dense_order", "pair_model", "categorical"],
)
ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


@EACH_UNIVERSE
def test_universe_json_roundtrip_and_materialise(make):
    s = make()
    if s.json_tag:  # the universes an engine argues in
        data = s.to_json()
        assert type(s).from_json(data).to_json() == data
        for a in s.atoms():
            assert atom_from_json(atom_to_json(a)) == a
    else:
        assert not hasattr(s, "to_json")
        for a in s.atoms():
            with pytest.raises(ValueError, match="has no JSON"):
                atom_to_json(a)
    if s.kind == CATEGORICAL:
        # a node id does not carry its position, so only owned nodes pass
        node = s.atoms()[-1]
        assert s.materialise(node) is node
        with pytest.raises(StructureMismatch):
            s.materialise(Atom(CATEGORICAL, 99))
        return
    other = type(s)()
    for a in s.atoms():
        assert a not in other
        assert other.materialise(a) == a
        assert a in other


@EACH_UNIVERSE
@pytest.mark.parametrize("trip", ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
def test_atoms_survive_copy_and_pickle(make, trip):
    s = make()
    for a in s.atoms():
        b = trip(a)
        assert type(b) is Atom and b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert b in s and b.sort_key() == a.sort_key()


def test_materialise_refuses_an_atom_of_another_universe():
    half = DenseOrderStructure().atom(Fraction(1, 2))
    for s in (PureSetStructure(2), DenseOrderStructure(), PairStructure(2), _categorical_sample()):
        foreign = half if s.kind == PURE_SET else Atom(PURE_SET, 0)
        with pytest.raises(StructureMismatch, match="does not belong"):
            s.materialise(foreign)
        assert foreign not in s
    # a pair atom over bare-set components, built directly and read from JSON
    bare = (Atom(PURE_SET, 0), Atom(PURE_SET, 1))
    with pytest.raises(StructureMismatch):
        PairStructure().materialise(Atom(PAIR_MODEL, (1, bare, 0)))
    with pytest.raises(StructureMismatch):
        PairStructure.from_json({"kind": "pairs", "atoms": [atom_to_json(bare[0])]})


def test_a_dense_payload_refuses_change_and_survives_copies():
    s = DenseOrderStructure()
    b = s.atom(Fraction(1, 2))
    for name in ("_numerator", "_denominator", "extra"):
        with pytest.raises(AttributeError):
            setattr(b.payload, name, 7)
        with pytest.raises(AttributeError):
            delattr(b.payload, name)
    assert repr(b) == "a(1/2)" and b == Atom(DENSE_ORDER, Fraction(1, 2)) and b in s
    copies = [copy.copy(b.payload), copy.deepcopy(b.payload), pickle.loads(pickle.dumps(b.payload))]
    for q in copies:
        assert type(q) is Rational and q == Fraction(1, 2) and hash(q) == hash(Fraction(1, 2))
    # arithmetic gives plain fractions, which `atom` freezes again
    assert type(b.payload + 1) is Fraction and type(s.atom(b.payload + 1).payload) is Rational


def test_pair_level_budget():
    s = PairStructure(2)
    a, b = s.base_atom(0), s.base_atom(1)
    u = a
    for level in range(1, CAPS["level"] + 1):
        u = s.pair_atom(level, u, b, 0)
    with pytest.raises(LevelBudgetExceeded, match="level-9 pair atom exceeds the cap of 8 levels"):
        s.pair_atom(CAPS["level"] + 1, u, a, 0)
    assert issubclass(LevelBudgetExceeded, BudgetExceeded)


@pytest.mark.parametrize(
    "level,below,bit,message",
    [
        (1, 0, 2, "bit must be 0 or 1"),
        (1, 0, -1, "bit must be 0 or 1"),
        (0, 0, 0, "below level n"),
        (1, 1, 0, "below level n"),
    ],
    ids=["bit-2", "bit-minus-1", "level-0", "component-at-level"],
)
def test_pair_atom_refuses_a_bad_bit_or_level(level, below, bit, message):
    # `below` is the level of the first component
    s = PairStructure(2)
    a, b = s.base_atom(0), s.base_atom(1)
    x = s.pair_atom(below, a, b, 0) if below else a
    before = s.atoms()
    with pytest.raises(ValueError, match=message):
        s.pair_atom(level, x, b, bit)
    assert s.atoms() == before


def listing_probe_atoms(structure, count, avoid):
    """`probe_atoms` as first written: list the whole materialised pool,
    filter it, then cut it to `count`.  Test-only oracle."""
    avoid = set(avoid)
    out = [a for a in structure.atoms() if a not in avoid][:count]
    if len(out) < count:
        out += structure.fresh(count - len(out), avoid=avoid | set(out))
    return out


@pytest.mark.parametrize("ids", [range(5), (0, 2, 3, 7, 10), (4, 9)], ids=["contiguous", "gapped", "no-zero"])
def test_lazy_bare_set_probe_matches_the_listing(ids):
    """The bare set's lazy probe gives the atoms the listing gives, in the
    same order, materialising the same fresh fallback, for every count up
    to three past the pool and avoid sets that mix in foreign atoms."""
    own = [Atom(PURE_SET, i) for i in (0, 2, 3, 4, 8, 11)]
    foreign = [Atom(DENSE_ORDER, Fraction(2)), Atom(PAIR_MODEL, 0), Atom(CATEGORICAL, 3)]
    for k in range(3):
        for avoid in itertools.combinations(own + foreign, k):
            for count in range(len(ids) + 4):
                lazy, listing = PureSetStructure(), PureSetStructure()
                for i in ids:
                    lazy.atom(i), listing.atom(i)
                got = lazy.probe_atoms(count, avoid)
                assert got == listing_probe_atoms(listing, count, avoid), (avoid, count)
                assert [a.world for a in got] == [PURE_SET] * count
                assert lazy.to_json() == listing.to_json()


class TestRationalComparisons:
    """`Rational` compares two exact Rationals by cross-multiplying; `Fraction` is the
    slow path it must agree with, and it still serves every mixed comparison."""

    OPS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__")

    @staticmethod
    def values(seed=0, n=120):
        """Seeded fractions: negatives, zero, large terms, and equal values built several ways."""
        rng = random.Random(seed)
        qs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
        qs += [Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**30)) for _ in range(n // 4)]
        qs += [Fraction(0), Fraction(-1, 3), Fraction(2, 6), Fraction("1/3"), Fraction(10**50 + 1, 10**50)]
        return qs

    @staticmethod
    def rationals(qs, seed=1):
        # each value built from another spelling: an unreduced pair, a string or the Fraction itself
        rng = random.Random(seed)
        out = []
        for q in qs:
            k = rng.randint(1, 9)
            out.append(rng.choice([Rational(q), Rational(q.numerator * k, q.denominator * k), Rational(str(q))]))
        return out

    def test_exact_rationals_never_reach_fractions_comparison(self, monkeypatch):
        qs = self.values()[:20]
        rs = self.rationals(qs)
        want = [[getattr(p, op)(q) for op in self.OPS[:4]] for p in qs for q in qs]
        monkeypatch.setattr(Fraction, "_richcmp", lambda *_: pytest.fail("a Rational pair took the slow path"))
        assert [[getattr(p, op)(q) for op in self.OPS[:4]] for p in rs for q in rs] == want

    def test_comparisons_match_fraction_on_either_side(self):
        qs = self.values()
        rs = self.rationals(qs)
        others = [5, -3, 0, 10**45, Fraction(7, 2), Fraction(-1, 3), 2.5, -0.125]
        ops = [getattr(operator, op.strip("_")) for op in self.OPS]
        for (p, r), (q, s) in itertools.product(zip(qs, rs), repeat=2):
            assert [op(r, s) for op in ops] == [op(p, q) for op in ops], (p, q)
        for (p, r), x in itertools.product(zip(qs, rs), others):
            assert [op(r, x) for op in ops] == [op(p, x) for op in ops], (p, x)
            assert [op(x, r) for op in ops] == [op(x, p) for op in ops], (x, p)
        assert all(hash(r) == hash(q) for q, r in zip(qs, rs))

    def test_sorted_min_max_and_bisect_match_fraction(self):
        qs = self.values(seed=2)
        rs = self.rationals(qs, seed=3)
        # stable orders of equal keys must agree too, so compare the orders of indices
        order = sorted(range(len(qs)), key=qs.__getitem__)
        assert sorted(range(len(rs)), key=rs.__getitem__) == order
        assert min(range(len(rs)), key=rs.__getitem__) == min(range(len(qs)), key=qs.__getitem__)
        assert max(range(len(rs)), key=rs.__getitem__) == max(range(len(qs)), key=qs.__getitem__)
        line_q, line_r = [qs[i] for i in order], [rs[i] for i in order]
        for x in qs[:40] + rs[:40] + [0, -7, 10**41, Fraction(1, 3), Fraction(10**50 + 1, 10**50)]:
            for find in (bisect.bisect_left, bisect.bisect_right):
                assert find(line_r, x) == find(line_q, x), x


class _CountedReads(dict):
    """A dict that logs how it is read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, *args):
        self.reads.append("get")
        return super().get(*args)

    def __contains__(self, key):
        self.reads.append("in")
        return super().__contains__(key)

    def __getitem__(self, key):
        self.reads.append("[]")
        return super().__getitem__(key)


def test_a_lift_reads_a_recorded_image_once():
    s, (a, b, c, d) = dense(0, 1, 2, 5)
    pi = extend_fixing(s, [a], {b: c})
    pi.pairs = _CountedReads(pi.pairs)
    assert pi.apply(b) == c and pi.pairs.reads == ["get"]
    image = pi.apply(d)  # unrecorded: one read, then the lift records it
    assert type(image) is Atom and pi.pairs[d] == image
    pi.pairs.reads.clear()
    assert pi.apply(d) == image and pi.pairs.reads == ["get"]


def test_extend_fixing_checks_the_one_lift_it_returns(monkeypatch):
    s, (a, b, c, d) = dense(0, 1, 2, 5)
    seen, built = [], []
    real_extendable, real_init = atoms.extendable, PartialAutomorphism.__init__
    monkeypatch.setattr(atoms, "extendable", lambda st, pa: seen.append(pa) or real_extendable(st, pa))
    monkeypatch.setattr(PartialAutomorphism, "__init__", lambda pa, m: built.append(pa) or real_init(pa, m))
    pi = extend_fixing(s, [a], {b: c})
    assert seen == built == [pi] and pi.structure is s and pi.apply(d) in s
    assert extend_fixing(s, [a, c], {b: d}) is None  # b < c but d > c
    assert len(seen) == len(built) == 2


class _Impostor:
    """Not an atom, though it carries an atom's fields."""

    __slots__ = ("world", "payload")

    def __init__(self, atom):
        self.world, self.payload = atom.world, atom.payload


def test_a_lift_refuses_an_image_that_is_not_exactly_an_atom():
    with pytest.raises(TypeError, match="no subclasses"):

        class Tagged(Atom):
            __slots__ = ()

    s, (a, b, c, d) = dense(0, 1, 2, 5)
    for bad in ({b: _Impostor(c)}, {_Impostor(b): _Impostor(c)}):
        with pytest.raises(TypeError, match="exactly an Atom"):
            extend_fixing(s, [a], bad)
    # an impostor key is no atom the structure owns; an atom built anew is the key itself
    with pytest.raises(StructureMismatch, match="does not belong"):
        extend_fixing(s, [a], {_Impostor(b): c})
    assert extend_fixing(s, [a], {Atom(b.world, b.payload): c}).apply(b) is c


def test_homogeneous_positions_are_rationals_and_compare_in_integers(monkeypatch):
    cs = CategoricalStructure()
    xs = [fresh_realizer(cs, []) for _ in range(4)]
    cs.declare_rel([xs[1], xs[2]])
    fresh_realizer(cs, [f_lt(xs[0])])
    pi = extend_fixing(cs, xs[3:], {xs[1]: fresh_realizer(cs, [f_lt(xs[3]), f_rel(0, (xs[2],))])})
    monkeypatch.setattr(Fraction, "_richcmp", lambda *_: pytest.fail("a position took Fraction's comparison"))
    pi.apply(xs[0]), pi.apply(xs[2])  # each image realised inside a cut
    assert all(type(q) is Rational for q in cs._pos.values())
    order = cs.sorted_by_order(cs.atoms())
    assert all(cs.lt(u, v) for u, v in zip(order, order[1:]))
