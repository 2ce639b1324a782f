"""Finitely supported subsets of the atom line.

A subset of the atoms is stored as a finite support E plus an int mask:
bit k selects the k-th 1-type over E, and the denotation is the union
of the selected types' realizer sets.  The type list depends only on
the universe and on the size of E, in a frozen canonical order, so
every supported subset has a canonical bit vector, a canonical rank,
and a decidable equality.  What needs only the width of a mask reads
the structure's type count, what needs one type's bit its position
(`_type_position`), and only what names every type lists them.

Restriction to a sub-support is a table (`projection`) that maps each
type position over the support to a type position over the sub-support.
Subsets are re-encoded, shrunk and tested for support by moving mask
bits fibre by fibre: the structure hands over the table's fibres
(`fibres`), entry g the int whose bit k is set iff the table sends k to
g, so a move costs one big-int step per fibre, not one per type.  The
structure computes them by index arithmetic from the shape of the
support (`shape_of`: its size, and for the homogeneous structure also
its diagram) and the positions of the sub-support inside it, once per
such pair.  The table and `restrict_type`, which restricts one type, are
the oracles the fibres are tested against.

`least_support` (with the canonical mask, which `canonical` reads) and
`class_rank` each make one call to the structure's `by_shape`, which
memoises the answer per class by (shape, mask), at most
`SHAPE_MEMO_SIZE` values.  The pair model has no 1-types: `types_over`
and `SupportedSubset` raise `StructureMismatch` for it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .atoms import (
    Atom,
    AtomStructure,
    LiftedAutomorphism,
    PureSetStructure,
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
    return 1 << structure._type_count(len(sort_support(structure, support)))


def count_least_supported(structure: AtomStructure, support: Iterable[Atom]) -> int:
    """Number of subsets whose smallest support is exactly this set.

    Möbius inversion over the subset lattice: the subsets supported by an
    n-atom support are those least-supported by one of its sub-supports,
    and a sub-support's count depends only on its size k, so the answer
    is the sum over k of (-1)^(n-k) C(n, k) 2^T(k), T(k) the type count."""
    n = len(sort_support(structure, support))
    total, c = 0, 1  # c = C(n, k), stepped along k
    for k in range(n + 1):
        total += (-1) ** (n - k) * (c << structure._type_count(k))
        c = c * (n - k) // (k + 1)
    return total


# -- supported subsets --------------------------------------------------------


def _pull(fibres: Sequence[int], mask: int) -> int:
    """Re-encode a mask over the sub-support onto the support whose
    restriction table has these fibres: the union of the fibres that
    `mask` selects.  Bits of `mask` at or past len(fibres) select none."""
    return sum(f for g, f in enumerate(fibres) if mask >> g & 1)  # disjoint, so the sum is the union


def _push(fibres: Sequence[int], mask: int) -> int:
    """The mask over the sub-support that selects each type whose fibre
    holds a selected bit of `mask`."""
    return sum(1 << g for g, f in enumerate(fibres) if mask & f)


def _fibred(fibres: Sequence[int], mask: int) -> bool:
    """Is the selection a union of fibres, that is, does the sub-support
    behind them support the subset?  No fibre holds a bit past the table."""
    return _pull(fibres, _push(fibres, mask)) == mask


class SupportedSubset:
    """A subset of the atoms with an explicit finite support: bit k of
    `mask` selects the k-th entry of `types_over(structure, support)`."""

    __slots__ = ("structure", "support", "mask", "_ckey", "_least")

    def __new__(cls, structure: AtomStructure, support: Iterable[Atom], mask: int):
        return cls._sorted(structure, sort_support(structure, support), mask)

    @classmethod
    def _sorted(cls, structure: AtomStructure, support: Tuple[Atom, ...], mask: int) -> "SupportedSubset":
        """The subset over a support that `sort_support` or a checked subset gave: only the mask is checked."""
        self = object.__new__(cls)
        _set_structure(self, structure)
        _set_support(self, support)
        n = self._width()
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask {mask} selects outside the {n} types over the support")
        _set_mask(self, mask)
        _set_ckey(self, None)
        _set_least(self, None)
        return self

    def __setattr__(self, *_):
        raise AttributeError("a supported subset is immutable; its least support and key are cached")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild it: `__setattr__` refuses
        return SupportedSubset, (self.structure, self.support, self.mask)

    # construction helpers

    @staticmethod
    def from_bits(structure, support, bits) -> "SupportedSubset":
        if isinstance(bits, str):
            n = structure._type_count(len(sort_support(structure, support)))
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
        return SupportedSubset(structure, (), (1 << structure._type_count(0)) - 1)

    @staticmethod
    def of_atoms(structure, atoms: Iterable[Atom]) -> "SupportedSubset":
        E = sort_support(structure, atoms)
        eq = sum(1 << structure._type_position(len(E), ("eq", j)) for j in range(len(E)))
        return SupportedSubset._sorted(structure, E, eq)

    # basic views

    def types(self) -> Tuple[tuple, ...]:
        return self.structure._type_list(len(self.support))

    def _width(self) -> int:
        """len(self.types()), read without listing the types."""
        return self.structure._type_count(len(self.support))

    def _position(self, t: tuple) -> int:
        """self.types().index(t), found without listing the types."""
        return self.structure._type_position(len(self.support), t)

    def bits(self) -> str:
        return format(self.mask, f"0{self._width()}b")[::-1]

    def contains(self, atom: Atom) -> bool:
        s, E = self.structure, self.support
        s.check_owns(atom)
        t = ("eq", E.index(atom)) if atom in E else s.type_of(atom, E)
        return bool(self.mask >> self._position(t) & 1)

    def denote(self, pool: Optional[Iterable[Atom]] = None) -> List[Atom]:
        pool = list(pool) if pool is not None else self.structure.atoms()
        return [a for a in pool if self.contains(a)]

    def __repr__(self):
        return f"SupportedSubset({self.support}, bits={self.bits()})"

    # re-encoding and equality

    def reencode(self, support: Iterable[Atom]) -> "SupportedSubset":
        """The same subset presented over its support plus `support`."""
        big = sort_support(self.structure, tuple(self.support) + tuple(support))
        if big == self.support:  # no new atom, and no identity fibres to build
            return self
        fibres = self.structure.fibres(big, self.support)
        return SupportedSubset._sorted(self.structure, big, _pull(fibres, self.mask))

    def is_supported_by(self, candidate: Iterable[Atom]) -> bool:
        """Is the (sub)set of atoms `candidate` already a support?"""
        sub = sort_support(self.structure, candidate)
        if sub == self.support:
            return True
        if not set(sub) <= set(self.support):
            return self.reencode(sub).is_supported_by(sub)
        return _fibred(self.structure.fibres(self.support, sub), self.mask)

    def canonical(self) -> "SupportedSubset":
        """S over its least support: the types over it whose fibre holds a
        selected type."""
        least = least_support(self)
        if least == self.support:
            return self
        return SupportedSubset._sorted(self.structure, least, self._least[1])

    def canonical_key(self) -> tuple:
        if self._ckey is None:
            least, mask = least_support(self), self._least[1]
            bits = format(mask, f"0{self.structure._type_count(len(least))}b")[::-1]
            _set_ckey(self, (self.structure.kind, tuple(a.sort_key() for a in least), bits))
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
        full = (1 << self._width()) - 1
        return SupportedSubset._sorted(self.structure, self.support, full ^ self.mask)

    def _aligned(self, other: "SupportedSubset"):
        E = tuple(set(self.support) | set(other.support))
        return self.reencode(E), other.reencode(E)

    def union(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset._sorted(a.structure, a.support, a.mask | b.mask)

    def intersection(self, other: "SupportedSubset") -> "SupportedSubset":
        a, b = self._aligned(other)
        return SupportedSubset._sorted(a.structure, a.support, a.mask & b.mask)

    # group action

    def apply(self, pi: LiftedAutomorphism) -> "SupportedSubset":
        s = self.structure
        images = [pi.apply(e) for e in self.support]
        new_support = sort_support(s, images)
        where = {e: k for k, e in enumerate(new_support)}
        # Only the ("eq", j) bits need renaming: an automorphism of an
        # ordered universe preserves the order that sorts a support, so
        # gap and relation descriptors keep their indices.
        eq = [self._position(("eq", j)) for j in range(len(images))]
        mask = self.mask & ~sum(1 << k for k in eq)
        for j, k in enumerate(eq):
            if self.mask >> k & 1:
                mask |= 1 << eq[where[images[j]]]
        return SupportedSubset._sorted(s, new_support, mask)

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


# each slot written through its own descriptor, past the refusing __setattr__
_set_structure = SupportedSubset.structure.__set__
_set_support = SupportedSubset.support.__set__
_set_mask = SupportedSubset.mask.__set__
_set_ckey = SupportedSubset._ckey.__set__
_set_least = SupportedSubset._least.__set__


def restrict_type(
    structure: AtomStructure, t: tuple, support: Sequence[Atom], sub: Sequence[Atom]
) -> tuple:
    """The 1-type over a sub-support induced by the type t over the
    support."""
    return structure.restrict(t, sort_support(structure, support), sort_support(structure, sub))


def least_support(S: SupportedSubset) -> Tuple[Atom, ...]:
    """Smallest support: the atoms without which the rest of the support
    no longer supports S.  One pass suffices because the intersection of
    two supports is a support.  The structure answers it by shape, with
    the canonical mask over it, and S keeps both for `canonical`."""
    if S._least is None:
        keep, mask = S.structure.by_shape(_least_shape, S.support, S.mask)
        _set_least(S, (tuple(S.support[j] for j in keep), mask))
    return S._least[0]


def _least_shape(fibres, n: int, mask: int) -> Tuple[Tuple[int, ...], int]:
    """The positions of the least support of `mask` over an n-atom
    support whose projections' fibres `fibres` gives, and the canonical
    mask over them: `least_support` and `canonical` by index arithmetic."""
    keep = tuple(j for j in range(n) if not _fibred(fibres(tuple(k for k in range(n) if k != j)), mask))
    return keep, mask if len(keep) == n else _push(fibres(keep), mask)


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
    if not isinstance(S.structure, PureSetStructure):
        raise StructureMismatch("dichotomy applies to the bare atom set only")
    cofinite = bool(S.mask >> S._position(("free",)) & 1)
    # the set itself, or its complement, as the support atoms it selects
    members = tuple(
        e for j, e in enumerate(S.support) if bool(S.mask >> S._position(("eq", j)) & 1) != cofinite
    )
    return FraenkelClass("cofinite" if cofinite else "finite", members)
