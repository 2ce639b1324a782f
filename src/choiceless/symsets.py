"""Finitely supported subsets of the atom line.

A subset of the atoms is stored as a finite support E plus a selection
of 1-types over E; its denotation is the union of the selected types'
realizer sets.  Over a fixed support the types are enumerated in a
frozen canonical order, so every supported subset has a canonical bit
vector, a canonical rank, and a decidable equality.

Restriction to a sub-support is read from a table (`restriction_table`)
that maps each type position over the support to a type position over
the sub-support, and subsets are re-encoded, shrunk and tested for
support on type positions.  The structure computes the table by index
arithmetic from the size of the support and the positions of the
sub-support inside it.  `restrict_type` restricts one type; it is the
oracle the tables are tested against.  The pair model has no 1-types:
`types_over` and `SupportedSubset` raise `StructureMismatch` for it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .atoms import (
    PURE_SET,
    Atom,
    AtomStructure,
    LiftedAutomorphism,
    OneType,
    StructureMismatch,
    atom_from_json,
    atom_to_json,
)


def sort_support(structure: AtomStructure, atoms: Iterable[Atom]) -> Tuple[Atom, ...]:
    atoms = list(dict.fromkeys(atoms))
    structure.check_owns(*atoms)
    return tuple(structure.sorted_by_order(atoms))


def types_over(structure: AtomStructure, support: Iterable[Atom]) -> List[OneType]:
    """The duplicate-free list of realized 1-types over the support, in
    canonical order.  Lengths: n+1 for the bare set, 2n+1 for the dense
    order; for the homogeneous structure the list enumerates every
    consistent combination of equality slot, order gap and relation
    facts.  The pair model has no 1-types and raises `StructureMismatch`."""
    return structure.types(sort_support(structure, support))


def count_supported(structure: AtomStructure, support: Iterable[Atom]) -> int:
    """Number of subsets of the atom line admitting this support."""
    return 1 << len(types_over(structure, support))


def count_least_supported(structure: AtomStructure, support: Iterable[Atom]) -> int:
    """Number of subsets whose smallest support is exactly this set."""
    E = sort_support(structure, support)

    def rec(sub: Tuple[Atom, ...], memo) -> int:
        if sub in memo:
            return memo[sub]
        total = count_supported(structure, sub)
        for k in range(len(sub)):
            for smaller in itertools.combinations(sub, k):
                total -= rec(smaller, memo)
        memo[sub] = total
        return total

    return rec(E, {})


# -- supported subsets --------------------------------------------------------


class SupportedSubset:
    """A subset of the atoms with an explicit finite support."""

    __slots__ = ("structure", "support", "selected", "_ckey", "_least")

    def __init__(
        self,
        structure: AtomStructure,
        support: Iterable[Atom],
        selected: Iterable[OneType],
    ):
        self.structure = structure
        self.support = sort_support(structure, support)
        selected = frozenset(selected)
        index = structure.type_index(self.support)
        if not all(t in index for t in selected):
            raise ValueError("selected types must be types over the support")
        self.selected = selected
        self._ckey = None
        self._least = None

    # construction helpers

    @staticmethod
    def from_bits(structure, support, bits) -> "SupportedSubset":
        ts = types_over(structure, support)
        if isinstance(bits, str):
            if len(bits) != len(ts):
                raise ValueError("bit string length must match the type count")
            if not set(bits) <= {"0", "1"}:
                raise ValueError(f"bit string {bits!r} holds a character other than 0 and 1")
            chosen = [t for t, b in zip(ts, bits) if b == "1"]
        else:
            chosen = [t for k, t in enumerate(ts) if bits >> k & 1]
        return SupportedSubset(structure, support, chosen)

    @staticmethod
    def empty(structure) -> "SupportedSubset":
        return SupportedSubset(structure, (), ())

    @staticmethod
    def all_atoms(structure) -> "SupportedSubset":
        return SupportedSubset(structure, (), types_over(structure, ()))

    @staticmethod
    def of_atoms(structure, atoms: Iterable[Atom]) -> "SupportedSubset":
        atoms = list(atoms)
        E = sort_support(structure, atoms)
        chosen = [
            t for t in types_over(structure, E) if any(t.holds(structure, a) for a in atoms)
        ]
        return SupportedSubset(structure, E, chosen)

    # basic views

    def types(self) -> List[OneType]:
        return types_over(self.structure, self.support)

    def positions(self) -> List[int]:
        """Positions of the selected types in `types()`."""
        index = self.structure.type_index(self.support)
        return [index[t] for t in self.selected]

    def bits(self) -> str:
        index = self.structure.type_index(self.support)
        out = bytearray(b"0" * len(index))
        for t in self.selected:
            out[index[t]] = ord("1")
        return out.decode()

    def bits_int(self) -> int:
        return int(self.bits()[::-1] or "0", 2)

    def contains(self, atom: Atom) -> bool:
        return any(t.holds(self.structure, atom) for t in self.selected)

    def denote(self, pool: Optional[Iterable[Atom]] = None) -> List[Atom]:
        pool = list(pool) if pool is not None else self.structure.atoms()
        return [a for a in pool if self.contains(a)]

    def __repr__(self):
        return f"SupportedSubset({self.support}, bits={self.bits()})"

    # re-encoding and equality

    def reencode(self, support: Iterable[Atom]) -> "SupportedSubset":
        """The same subset presented over a larger support."""
        big = sort_support(self.structure, tuple(self.support) + tuple(support))
        if not set(self.support) <= set(big):
            raise ValueError("new support must contain the old one")
        table = restriction_table(self.structure, big, self.support)
        keep = set(self.positions())
        ts = types_over(self.structure, big)
        return SupportedSubset(
            self.structure, big, [ts[k] for k, g in enumerate(table) if g in keep]
        )

    def is_supported_by(self, candidate: Iterable[Atom]) -> bool:
        """Is the (sub)set of atoms `candidate` already a support?"""
        sub = sort_support(self.structure, candidate)
        if not set(sub) <= set(self.support):
            return self.reencode(sub).is_supported_by(sub)
        # the selection must be a union of fibres of the projection
        table = restriction_table(self.structure, self.support, sub)
        hit = {table[k] for k in self.positions()}
        return sum(1 for g in table if g in hit) == len(self.selected)

    def canonical(self) -> "SupportedSubset":
        return _shrink(self, least_support(self))

    def canonical_key(self) -> tuple:
        if self._ckey is None:
            c = self.canonical()
            self._ckey = (
                c.structure.kind,
                tuple(a.sort_key() for a in c.support),
                c.bits(),
            )
        return self._ckey

    def __eq__(self, other):
        if not isinstance(other, SupportedSubset):
            return NotImplemented
        if self.structure is not other.structure:
            return False
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    # boolean algebra over a common support

    def complement(self) -> "SupportedSubset":
        others = [t for t in self.types() if t not in self.selected]
        return SupportedSubset(self.structure, self.support, others)

    def _aligned(self, other: "SupportedSubset"):
        E = tuple(set(self.support) | set(other.support))
        return self.reencode(E), other.reencode(E)

    def union(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset(a.structure, a.support, a.selected | b.selected)

    def intersection(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset(a.structure, a.support, a.selected & b.selected)

    # group action

    def apply(self, pi: LiftedAutomorphism) -> "SupportedSubset":
        s = self.structure
        images = [pi.apply(e) for e in self.support]
        new_support = sort_support(s, images)
        where = {e: k for k, e in enumerate(new_support)}
        # Only an ("eq", j) type needs its index renamed: an automorphism
        # of an ordered universe preserves the order that sorts a support,
        # so gap and relation descriptors keep their indices.
        moved = [
            ("eq", where[images[t.desc[1]]]) if t.desc[0] == "eq" else t.desc
            for t in self.selected
        ]
        return SupportedSubset(s, new_support, [OneType(s.kind, new_support, d) for d in moved])

    def to_json(self) -> dict:
        return {
            "structure": self.structure.kind,
            "support": [atom_to_json(a) for a in self.support],
            "bits": self.bits(),
        }

    @staticmethod
    def from_json(structure: AtomStructure, data: dict) -> "SupportedSubset":
        if data["structure"] != structure.kind:
            raise StructureMismatch("wrong structure kind in JSON")
        if not isinstance(data["bits"], str):
            raise ValueError("a subset's bits must be a string of 0s and 1s")
        support = [atom_from_json(a) for a in data["support"]]
        return SupportedSubset.from_bits(structure, support, data["bits"])


def restrict_type(structure: AtomStructure, t: OneType, sub: Sequence[Atom]) -> OneType:
    """The 1-type over a sub-support induced by a type over the support."""
    return structure.restrict(t, sort_support(structure, sub))


def restriction_table(
    structure: AtomStructure, support: Tuple[Atom, ...], sub: Tuple[Atom, ...]
) -> Tuple[int, ...]:
    """Entry k is the position in types_over(sub) of the restriction of
    types_over(support)[k] to the sub-support.  Both supports must be
    sorted, as `sort_support` returns them, and `sub` must lie inside
    `support`; neither is checked again here."""
    return structure.projection(support, sub)


def least_support(S: SupportedSubset) -> Tuple[Atom, ...]:
    """Smallest support: computed by discarding removable atoms, which is
    order-independent because the intersection of two supports is a
    support."""
    if S._least is not None:
        return S._least
    current = S
    changed = True
    while changed:
        changed = False
        for e in current.support:
            rest = tuple(x for x in current.support if x != e)
            if current.is_supported_by(rest):
                current = _shrink(current, rest)
                changed = True
                break
    S._least = current.support
    return current.support


def _shrink(S: SupportedSubset, sub: Tuple[Atom, ...]) -> SupportedSubset:
    """Re-present S over a smaller support that is known to support it:
    keep the types over `sub` whose fibre holds a selected type."""
    table = restriction_table(S.structure, S.support, sub)
    ts = types_over(S.structure, sub)
    return SupportedSubset(S.structure, sub, [ts[g] for g in {table[k] for k in S.positions()}])


class FraenkelClass:
    """Dichotomy tag for a supported subset of the bare atom set."""

    def __init__(self, kind: str, members: Tuple[Atom, ...]):
        self.kind = kind  # "finite" | "cofinite"
        self.members = members  # the set itself, or its complement

    def __repr__(self):
        return f"FraenkelClass({self.kind}, {self.members})"


def classify_fraenkel(S: SupportedSubset) -> FraenkelClass:
    """Every supported subset of the bare atom set is finite (and then a
    subset of its support) or co-finite (complement inside the support)."""
    if S.structure.kind != PURE_SET:
        raise StructureMismatch("dichotomy applies to the bare atom set only")
    eqs = [t for t in S.types() if t.desc[0] == "eq"]
    free = [t for t in S.types() if t.desc[0] == "free"][0]
    cofinite = free in S.selected
    # the set itself, or its complement, as the support atoms it selects
    members = tuple(t.support[t.desc[1]] for t in eqs if (t in S.selected) != cofinite)
    if not set(members) <= set(S.support):
        raise RuntimeError(f"dichotomy members {members} escape the support")
    return FraenkelClass("cofinite" if cofinite else "finite", members)
