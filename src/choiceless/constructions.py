"""Hereditarily finite objects over atoms, derived domains, and the
explicit injections between them.

The domain grammar covers what the derived-cardinal constructions need:
finite sets, one-to-one and arbitrary finite sequences, ordered pairs,
unordered pairs, and the power object represented by `SupportedSubset`.
Each injection is a plain function; equivariance is a contract checked
by the test-suite probes rather than by construction.

HF values are immutable.  An `HFSet` keeps its members in the frozenset
`members` and sorts them into the canonical order `items` only when read.
Sets are hash-consed as atoms are: `HFSet._table`, a dict of weak
references, keeps one live set per value, so `==` and `hash` are
identity, and a set keys itself once (`key`).  A public build checks
member types even on a hit, as {True} == {1}; `act` maps checked
members, so skips the check.  `HFTuple` is not interned: most tuples
are short-lived, and each would miss the table and then leave it.
"""

from __future__ import annotations

import itertools
import weakref
from math import factorial
from typing import Iterable, Optional, Sequence, Set, Tuple

from .atoms import (
    Atom,
    AtomStructure,
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    StructureMismatch,
    _cat_formula_bits,
    _is_nat,
    atom_from_json,
    atom_to_json,
    intern_weak,
)
from .symsets import SupportedSubset, sort_support


class NotASeq(ValueError):
    """Sequence input has a repeated entry."""


# ---------------------------------------------------------------------------
# HF objects


class _HF:
    """An immutable HF container; `items` is its members in canonical order."""

    __slots__ = ("items",)

    def __setattr__(self, *_):
        raise AttributeError("HF objects are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild it: `__setattr__` refuses
        return type(self), (self.items,)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return self.brackets[0] + ", ".join(map(repr, self.items)) + self.brackets[1]


class HFTuple(_HF):
    __slots__ = ()
    tag, brackets = "t", "<>"

    def __new__(cls, items: Iterable):
        return cls._trusted(_hf_only(tuple(items)))

    @classmethod
    def _trusted(cls, items: Iterable):
        self = object.__new__(cls)
        object.__setattr__(self, "items", tuple(items))
        return self

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.items == other.items

    def __hash__(self):
        return hash((self.tag, self.items))


class HFSet(_HF):
    """Extensional finite set, one object per value.  `members` is its
    frozenset of members, which hashing, `len` and `in` read.  `items` is
    the canonical order and `key` its `hf_key`, both kept from first read."""

    __slots__ = ("members", "key", "__weakref__")
    tag, brackets = "s", "{}"
    _table: dict[frozenset, weakref.ref[HFSet]] = {}

    def __new__(cls, items: Iterable):
        return cls._trusted(_hf_only(frozenset(items)))

    def __init_subclass__(cls, **kwargs):
        raise TypeError("HFSet is interned by its members alone, so it has no subclasses")

    @classmethod
    def _trusted(cls, items: Iterable):
        members = frozenset(items)
        ref = HFSet._table.get(members)
        if ref is None or (self := ref()) is None:
            self = intern_weak(HFSet._table, members, object.__new__(cls))
            object.__setattr__(self, "members", members)
        return self

    def __getattr__(self, name):  # reached only while `items` or `key` is unset
        if name == "items":
            value = tuple(sorted(self.members, key=hf_key))
        elif name == "key":
            value = (2, len(self.members), tuple(map(hf_key, self.items)))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members


_HF_TYPES = frozenset({Atom, HFTuple, HFSet, int})


def _hf_only(items):
    """The items, once each is an atom, an HF value or a natural.  Types
    match exactly, so a bool (an int to Python) is refused."""
    if not _HF_TYPES.issuperset(map(type, items)):
        raise TypeError(f"not an HF object: {next(x for x in items if type(x) not in _HF_TYPES)!r}")
    return items


def hfset(*items) -> HFSet:
    if len(items) == 1 and isinstance(items[0], (list, tuple, set, frozenset)):
        return HFSet(items[0])
    return HFSet(items)


def hftuple(*items) -> HFTuple:
    if len(items) == 1 and isinstance(items[0], (list, tuple)):
        return HFTuple(items[0])
    return HFTuple(items)


def hf_key(x):
    if isinstance(x, Atom):
        return (0, x.world, x.sort_key())
    if type(x) is HFSet:
        return x.key
    if isinstance(x, HFTuple):
        return (1, len(x.items), tuple(map(hf_key, x.items)))
    if isinstance(x, int):
        return (3, x)
    raise TypeError(f"not an HF object: {x!r}")


def atoms_of(x) -> Set[Atom]:
    if isinstance(x, Atom):
        return {x}
    if isinstance(x, (HFTuple, HFSet)):
        return set().union(*map(atoms_of, x.members if isinstance(x, HFSet) else x.items))
    return set()


def act(pi, x):
    """Apply an automorphism to an HF object, a supported subset, or a
    kernel value (plain naturals are fixed).  Set members go in canonical
    order, since the categorical lift's images depend on the order asked."""
    if isinstance(x, Atom):
        return pi.apply(x)
    if isinstance(x, (HFTuple, HFSet)):
        return type(x)._trusted(pi.apply(i) if type(i) is Atom else act(pi, i) for i in x.items)
    if isinstance(x, SupportedSubset):
        return x.apply(pi)
    if isinstance(x, (int, frozenset, tuple)):
        return x
    raise TypeError(f"cannot act on {x!r}")


def record(pi, x):
    """Ask pi for the image of each atom that `act(pi, x)` asks for, in
    the same order, and build no image: a lift then records the pairs
    `act` would have left in it."""
    if isinstance(x, Atom):
        pi.apply(x)
    elif isinstance(x, (HFTuple, HFSet)):
        for i in x.items:
            if type(i) is Atom:
                pi.apply(i)
            else:
                record(pi, i)
    elif isinstance(x, SupportedSubset):
        for e in x.support:  # as `SupportedSubset.apply` asks
            pi.apply(e)
    elif not isinstance(x, (int, frozenset, tuple)):
        raise TypeError(f"cannot act on {x!r}")


def hf_to_json(x):
    if isinstance(x, Atom):
        return {"atom": atom_to_json(x)}
    if isinstance(x, HFTuple):
        return {"tuple": [hf_to_json(i) for i in x]}
    if isinstance(x, HFSet):
        return {"set": [hf_to_json(i) for i in x]}
    if isinstance(x, int):
        return {"nat": x}
    if isinstance(x, SupportedSubset):
        return {"subset": x.to_json()}
    raise TypeError(f"not serialisable: {x!r}")


def hf_from_json(data, structure: Optional[AtomStructure] = None):
    if "atom" in data:
        return atom_from_json(data["atom"])
    if "tuple" in data:
        return HFTuple(hf_from_json(i, structure) for i in data["tuple"])
    if "set" in data:
        return HFSet(hf_from_json(i, structure) for i in data["set"])
    if "nat" in data:
        if not _is_nat(data["nat"]):
            raise ValueError(f"a natural must be an integer of at least 0, not {data['nat']!r}")
        return data["nat"]
    if "subset" in data:
        if structure is None:
            raise ValueError("decoding a supported subset needs its structure")
        return SupportedSubset.from_json(structure, data["subset"])
    raise ValueError(f"bad HF JSON: {data!r}")


# ---------------------------------------------------------------------------
# domain grammar


class Domain:
    name = "?"

    def contains(self, x, structure: Optional[AtomStructure] = None) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class AtomsDom(Domain):
    name = "A"

    def contains(self, x, structure=None):
        if not isinstance(x, Atom):
            return False
        return structure is None or x.world == structure.kind


class FinDom(Domain):
    def __init__(self, inner: Domain):
        self.inner = inner
        self.name = f"Fin({inner.name})"

    def contains(self, x, structure=None):
        return isinstance(x, HFSet) and all(
            self.inner.contains(i, structure) for i in x.members
        )


_ATOMS = AtomsDom()  # the entry domain of the sequence domains


class SeqDom(Domain):
    """Finite sequences of atoms in which every entry appears at most once."""

    name = "Seq(A)"

    def contains(self, x, structure=None):
        if not isinstance(x, HFTuple):
            return False
        if not all(_ATOMS.contains(i, structure) for i in x):
            return False
        return len(set(x.items)) == len(x.items)


class SeqStarDom(Domain):
    name = "seq(A)"

    def contains(self, x, structure=None):
        return isinstance(x, HFTuple) and all(
            _ATOMS.contains(i, structure) for i in x
        )


class PairDom(Domain):
    def __init__(self, left: Domain, right: Domain):
        self.left, self.right = left, right
        self.name = f"({left.name} x {right.name})"

    def contains(self, x, structure=None):
        return (
            isinstance(x, HFTuple)
            and len(x.items) == 2
            and self.left.contains(x.items[0], structure)
            and self.right.contains(x.items[1], structure)
        )


class UnordPairsDom(Domain):
    def __init__(self, inner: Domain):
        self.inner = inner
        self.name = f"[{inner.name}]^2"

    def contains(self, x, structure=None):
        return (
            isinstance(x, HFSet)
            and len(x) == 2
            and all(self.inner.contains(i, structure) for i in x.members)
        )


class PowDom(Domain):
    """Subsets over the given structure.  Subsets over different
    structures never compare equal, so with no structure given there is
    no power object to belong to."""

    name = "P(A)"

    def contains(self, x, structure=None):
        return isinstance(x, SupportedSubset) and x.structure is structure


class NatDom(Domain):
    name = "N"

    def contains(self, x, structure=None):
        return _is_nat(x)


_NAT_TYPE = frozenset({int})  # exactly: a bool is not a natural


class NatSetDom(Domain):
    name = "P(N)"

    def contains(self, x, structure=None):
        return isinstance(x, frozenset) and _NAT_TYPE.issuperset(map(type, x)) and (not x or min(x) >= 0)


_NAT_SETS = NatSetDom()  # the set domain of the labelled pairs


class LabeledNatSetDom(Domain):
    """Pairs (label, finite set of naturals) with label < k."""

    def __init__(self, k: int):
        self.k = k
        self.name = f"{k} x P(N)"

    def contains(self, x, structure=None):
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and _is_nat(x[0])
            and x[0] < self.k
            and _NAT_SETS.contains(x[1])
        )


class SubsetDom(Domain):
    def __init__(self, ground: frozenset):
        self.ground = ground
        self.name = "P(ground)"

    def contains(self, x, structure=None):
        return isinstance(x, frozenset) and x <= self.ground


class PartitionDom(Domain):
    def __init__(self, ground: frozenset):
        self.ground = ground
        self.name = "Part(ground)"

    def contains(self, x, structure=None):
        if not isinstance(x, frozenset):
            return False
        blocks = list(x)
        if any(not isinstance(b, frozenset) or not b for b in blocks):
            return False
        union = set()
        for b in blocks:
            if union & b:
                return False
            union |= b
        return union == set(self.ground)


# ---------------------------------------------------------------------------
# explicit injections


def kuratowski(x: Atom, y: Atom) -> HFSet:
    """Ordered pair as the two-set {{x},{x,y}}; collapses to {{x}} on the
    diagonal, stays injective on ordered pairs."""
    return HFSet((HFSet((x,)), HFSet((x, y))))


def seq_to_chain(s) -> HFSet:
    """A one-to-one sequence as its chain of initial segments."""
    entries = list(s)
    if len(set(entries)) != len(entries):
        raise NotASeq(f"repeated entry in {entries!r}")
    return HFSet(HFSet(entries[: k + 1]) for k in range(len(entries)))


def size_class_map(sizes: Iterable[int], pool: Sequence[Atom]) -> Set[HFSet]:
    """All subsets of the pool whose size lies in the given class."""
    sizes = sorted(set(sizes))
    if any(k < 0 for k in sizes):
        raise ValueError("sizes must be naturals")
    if sizes and len(pool) < max(sizes) + 1:
        raise ValueError("pool too small to witness the largest size")
    out: Set[HFSet] = set()
    for k in sizes:
        for combo in itertools.combinations(pool, k):
            out.add(HFSet(combo))
    return out


def pairmodel_pair_to_unordered(structure: PairStructure, x: Atom, y: Atom) -> HFSet:
    """The ordered pair (x, y) of pair-model atoms as the unordered pair of
    the two decorated atoms one level above both components."""
    structure.check_owns(x, y)
    lvl = x.level + y.level + 1
    return HFSet((structure.pair_atom(lvl, x, y, 0), structure.pair_atom(lvl, x, y, 1)))


def nth_permutation(items: Sequence, k: int) -> Tuple:
    """The k-th permutation (1-based) in lexicographic order of the items
    as given, via factorial-base digits."""
    items = list(items)
    n = len(items)
    step = factorial(n)
    if not 1 <= k <= step:
        raise ValueError(f"permutation index {k} out of range for {n} items")
    k -= 1
    out = []
    for i in range(n, 0, -1):
        step //= i  # (i - 1)!
        idx, k = divmod(k, step)
        out.append(items.pop(idx))
    return tuple(out)


def _constant_patterns_below(fibres: Sequence[int], v: int) -> int:
    """Count the integers w < v whose bits are constant on each fibre
    (entry g of `fibres` holds the bit positions of group g; an empty
    entry is no group).

    Every such w is 0 from bit L = v.bit_length() up, which pins each
    fibre reaching there to 0.  Along the tight path from the top, every
    other fibre is fixed at its top bit to v's bit there, and the path
    ends at the top bit where v differs from the union of the fibres
    fixed to 1.  Each 1 of v met on the way, at a fibre's top or where the
    path ends, counts the patterns that drop it to 0 and agree with v
    above it: the fibres whose top lies lower are then free."""
    L = v.bit_length()
    tops = sorted(((f.bit_length() - 1, f) for f in fibres if f and not f >> L), reverse=True)
    tight = sum(f for top, f in tops if v >> top & 1)
    end = (tight ^ v).bit_length() - 1  # -1: v itself is on the path
    total, free = 0, len(tops)
    for top, _ in tops:
        if top < end:
            break
        free -= 1
        if v >> top & 1:
            total += 1 << free
    if end >= 0 and v >> end & 1:
        total += 1 << free
    return total


def class_rank(S: SupportedSubset) -> Tuple[int, Tuple[Atom, ...]]:
    """1-based rank of S among the subsets whose least support equals
    least_support(S), in canonical bit-vector order.

    Counted exactly, without enumeration: for each sub-support, the
    vectors below S that it supports are the bit patterns constant on each
    fibre of its restriction table, and alternating over sub-supports
    isolates the ones whose least support is the whole set (`by_shape`)."""
    S0 = S.canonical()
    return S.structure.by_shape(_rank_shape, S0.support, S0.mask), S0.support


def _rank_shape(fibres, n: int, v: int) -> int:
    """`class_rank` of the mask v over an n-atom least support whose
    projections' fibres `fibres` gives by positions."""
    # E itself has the identity table, below which every w < v counts
    rank = 1 + v
    for keep in range(n):
        sign = -1 if (n - keep) % 2 else 1
        for sub in itertools.combinations(range(n), keep):
            rank += sign * _constant_patterns_below(fibres(sub), v)
    return rank


class Anchors(tuple):
    """Twenty distinct dense-order atoms in increasing order: the anchor
    block of `mostowski_power_to_seq`, checked and sorted once."""

    def __new__(cls, atoms: Iterable[Atom]):
        atoms = sorted(atoms, key=lambda a: a.payload)
        if len(atoms) != 20 or len(set(atoms)) != 20:
            raise ValueError("exactly 20 distinct anchor atoms are required")
        return super().__new__(cls, atoms)


def default_anchors(structure: DenseOrderStructure) -> Anchors:
    return Anchors(structure.atom(i) for i in range(20))


def mostowski_power_to_seq(
    S: SupportedSubset,
    anchors: Optional[Sequence[Atom]] = None,
) -> HFTuple:
    """Power object into one-to-one sequences over a dense order.

    A subset with a large least support (>= 11 points) becomes the k-th
    permutation of that support, where k is the subset's canonical rank
    within its least-support class; the factorial of the support size
    dominates the class size, so the permutation exists.  A subset with a
    small least support becomes the support in increasing order followed
    by the (10!-k)-th permutation of the first ten unused anchor atoms.
    """
    structure = S.structure
    if not isinstance(structure, DenseOrderStructure):
        raise StructureMismatch("this injection lives over the dense order")
    if anchors is None:
        anchors = default_anchors(structure)
    elif not isinstance(anchors, Anchors):
        anchors = Anchors(anchors)
    k, E = class_rank(S)
    n = len(E)
    if n >= 11:
        return HFTuple(nth_permutation(E, k))
    taken = set(E)
    unused = [c for c in anchors[: 10 + n] if c not in taken][:10]  # E takes at most n of them
    tail = nth_permutation(unused, factorial(10) - k)
    return HFTuple(tuple(E) + tail)


def categorical_seq_to_power(
    structure: CategoricalStructure, ys: Sequence[Atom]
) -> SupportedSubset:
    """A one-to-one sequence of length n becomes the set of atoms standing
    in the (n+1)-ary relation with the sequence, supported by its entries."""
    ys = tuple(ys)
    structure.check_owns(*ys)
    if len(set(ys)) != len(ys):
        raise NotASeq(f"repeated entry in {ys!r}")
    E = sort_support(structure, ys)
    # The type count raises TypeBudgetExceeded before any string is built.
    width = structure._type_count(len(E))
    index = {e: j for j, e in enumerate(E)}
    b = _cat_formula_bits(len(E))[("rel", len(ys), 0, tuple(index[y] for y in ys))]
    # ("typ", gap, rels) sits at len(E) + gap * 2^F + m, and rels holds the
    # formula iff bit b of m is set: read from the top, the 2^F entries of
    # each gap are runs of 2^b selected and 2^b unselected types.  No
    # ("eq", j) type is selected: E[j] repeats an entry of ys, and
    # relation entries are pairwise distinct.
    run = 1 << b
    typs = ("1" * run + "0" * run) * ((width - len(E)) >> (b + 1))
    return SupportedSubset(structure, E, int(typs + "0" * len(E), 2))


def categorical_power_to_seq(
    S: SupportedSubset,
    a: Atom,
    b: Atom,
) -> HFTuple:
    """A supported subset becomes its least support in increasing order,
    then the marker atom a, then one copy of b per predecessor of the
    subset inside its least-support class."""
    structure = S.structure
    if not isinstance(structure, CategoricalStructure):
        raise StructureMismatch("this injection lives over the homogeneous structure")
    structure.check_owns(a, b)
    if a == b:
        raise ValueError("the two marker atoms must differ")
    k, E = class_rank(S)
    return HFTuple(tuple(E) + (a,) + (b,) * (k - 1))
