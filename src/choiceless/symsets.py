"""Finitely supported subsets of the atom line.

A subset of the atoms is stored as a finite support E plus an int mask:
bit k selects the k-th 1-type over E, and the denotation is the union
of the selected types' realizer sets.  The type list depends only on
the universe and on the size of E, in a frozen canonical order, so
every supported subset has a canonical bit vector, a canonical rank,
and a decidable equality.

Restriction to a sub-support is read from a table (`restriction_table`)
that maps each type position over the support to a type position over
the sub-support, and subsets are re-encoded, shrunk and tested for
support by moving mask bits along it.  The structure computes the table
by index arithmetic from the size of the support and the positions of
the sub-support inside it.  `restrict_type` restricts one type; it is
the oracle the tables are tested against.  The pair model has no
1-types: `types_over` and `SupportedSubset` raise `StructureMismatch`
for it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .atoms import (
    PURE_SET,
    Atom,
    AtomStructure,
    LiftedAutomorphism,
    StructureMismatch,
    atom_from_json,
    atom_to_json,
)


def sort_support(structure: AtomStructure, atoms: Iterable[Atom]) -> Tuple[Atom, ...]:
    atoms = list(dict.fromkeys(atoms))
    structure.check_owns(*atoms)
    return tuple(structure.sorted_by_order(atoms))


def types_over(structure: AtomStructure, support: Iterable[Atom]) -> Tuple[tuple, ...]:
    """The duplicate-free list of realized 1-types over the support, in
    canonical order.  Lengths: n+1 for the bare set, 2n+1 for the dense
    order; for the homogeneous structure the list enumerates every
    consistent combination of equality slot, order gap and relation
    facts.  The pair model has no 1-types and raises `StructureMismatch`."""
    return structure._type_list(len(sort_support(structure, support)))


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


def _mask(flags: Iterable[bool]) -> int:
    """The int whose bit k is set iff the k-th flag is true."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


def _pull(table: Sequence[int], mask: int) -> int:
    """Re-encode a mask over the sub-support onto the support whose
    restriction table is `table`: bit k is bit table[k] of `mask`."""
    return _mask(mask >> g & 1 for g in table)


def _push(table: Sequence[int], mask: int) -> int:
    """The mask over the sub-support that selects each type whose fibre
    under `table` holds a selected bit of `mask`."""
    hit = {g for g, b in zip(table, format(mask, "b")[::-1]) if b == "1"}
    return sum(1 << g for g in hit)


class SupportedSubset:
    """A subset of the atoms with an explicit finite support: bit k of
    `mask` selects the k-th entry of `types_over(structure, support)`."""

    __slots__ = ("structure", "support", "mask", "_ckey", "_least")

    def __init__(self, structure: AtomStructure, support: Iterable[Atom], mask: int):
        self.structure = structure
        self.support = sort_support(structure, support)
        n = len(self.types())
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask {mask} selects outside the {n} types over the support")
        self.mask = mask
        self._ckey = None
        self._least = None

    # construction helpers

    @staticmethod
    def from_bits(structure, support, bits) -> "SupportedSubset":
        if isinstance(bits, str):
            n = len(types_over(structure, support))
            if len(bits) != n:
                raise ValueError("bit string length must match the type count")
            if not set(bits) <= {"0", "1"}:
                raise ValueError(f"bit string {bits!r} holds a character other than 0 and 1")
            bits = int(bits[::-1], 2)
        return SupportedSubset(structure, support, bits)

    @staticmethod
    def empty(structure) -> "SupportedSubset":
        return SupportedSubset(structure, (), 0)

    @staticmethod
    def all_atoms(structure) -> "SupportedSubset":
        return SupportedSubset(structure, (), (1 << len(types_over(structure, ()))) - 1)

    @staticmethod
    def of_atoms(structure, atoms: Iterable[Atom]) -> "SupportedSubset":
        E = sort_support(structure, atoms)
        ts = types_over(structure, E)
        eq = sum(1 << ts.index(("eq", j)) for j in range(len(E)))
        return SupportedSubset(structure, E, eq)

    # basic views

    def types(self) -> Tuple[tuple, ...]:
        return self.structure._type_list(len(self.support))

    def bits(self) -> str:
        return format(self.mask, f"0{len(self.types())}b")[::-1]

    def contains(self, atom: Atom) -> bool:
        s, E = self.structure, self.support
        s.check_owns(atom)
        t = ("eq", E.index(atom)) if atom in E else s.type_of(atom, E)
        return bool(self.mask >> self.types().index(t) & 1)

    def denote(self, pool: Optional[Iterable[Atom]] = None) -> List[Atom]:
        pool = list(pool) if pool is not None else self.structure.atoms()
        return [a for a in pool if self.contains(a)]

    def __repr__(self):
        return f"SupportedSubset({self.support}, bits={self.bits()})"

    # re-encoding and equality

    def reencode(self, support: Iterable[Atom]) -> "SupportedSubset":
        """The same subset presented over its support plus `support`."""
        big = sort_support(self.structure, tuple(self.support) + tuple(support))
        table = restriction_table(self.structure, big, self.support)
        return SupportedSubset(self.structure, big, _pull(table, self.mask))

    def is_supported_by(self, candidate: Iterable[Atom]) -> bool:
        """Is the (sub)set of atoms `candidate` already a support?"""
        sub = sort_support(self.structure, candidate)
        if not set(sub) <= set(self.support):
            return self.reencode(sub).is_supported_by(sub)
        # the selection must be a union of fibres of the projection
        table = restriction_table(self.structure, self.support, sub)
        return _pull(table, _push(table, self.mask)) == self.mask

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
        full = (1 << len(self.types())) - 1
        return SupportedSubset(self.structure, self.support, full ^ self.mask)

    def _aligned(self, other: "SupportedSubset"):
        E = tuple(set(self.support) | set(other.support))
        return self.reencode(E), other.reencode(E)

    def union(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset(a.structure, a.support, a.mask | b.mask)

    def intersection(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset(a.structure, a.support, a.mask & b.mask)

    # group action

    def apply(self, pi: LiftedAutomorphism) -> "SupportedSubset":
        s = self.structure
        images = [pi.apply(e) for e in self.support]
        new_support = sort_support(s, images)
        where = {e: k for k, e in enumerate(new_support)}
        # Only the ("eq", j) bits need renaming: an automorphism of an
        # ordered universe preserves the order that sorts a support, so
        # gap and relation descriptors keep their indices.
        ts = self.types()
        eq = [ts.index(("eq", j)) for j in range(len(images))]
        mask = self.mask & ~sum(1 << k for k in eq)
        for j, k in enumerate(eq):
            if self.mask >> k & 1:
                mask |= 1 << eq[where[images[j]]]
        return SupportedSubset(s, new_support, mask)

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


def restrict_type(
    structure: AtomStructure, t: tuple, support: Sequence[Atom], sub: Sequence[Atom]
) -> tuple:
    """The 1-type over a sub-support induced by the type t over the
    support."""
    return structure.restrict(t, sort_support(structure, support), sort_support(structure, sub))


def restriction_table(
    structure: AtomStructure, support: Tuple[Atom, ...], sub: Tuple[Atom, ...]
) -> Tuple[int, ...]:
    """Entry k is the position in types_over(sub) of the restriction of
    types_over(support)[k] to the sub-support.  Both supports must be
    sorted, as `sort_support` returns them, and `sub` must lie inside
    `support`; neither is checked again here."""
    return structure.projection(support, sub)


def least_support(S: SupportedSubset) -> Tuple[Atom, ...]:
    """Smallest support: the atoms without which the rest of the support
    no longer supports S.  One pass suffices because the intersection of
    two supports is a support."""
    if S._least is None:
        E = S.support
        S._least = tuple(e for e in E if not S.is_supported_by(tuple(x for x in E if x != e)))
    return S._least


def _shrink(S: SupportedSubset, sub: Tuple[Atom, ...]) -> SupportedSubset:
    """Re-present S over a smaller support that is known to support it:
    select the types over `sub` whose fibre holds a selected type."""
    table = restriction_table(S.structure, S.support, sub)
    return SupportedSubset(S.structure, sub, _push(table, S.mask))


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
    ts = S.types()
    cofinite = bool(S.mask >> ts.index(("free",)) & 1)
    # the set itself, or its complement, as the support atoms it selects
    members = tuple(
        e for j, e in enumerate(S.support) if bool(S.mask >> ts.index(("eq", j)) & 1) != cofinite
    )
    return FraenkelClass("cofinite" if cofinite else "finite", members)
