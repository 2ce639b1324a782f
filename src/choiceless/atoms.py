"""Atom universes and the symmetry groups acting on them.

Four universes are supported, each presented locally rather than as an
explicit group: a bare countable set acted on by all permutations, a
dense linear order acted on by its order automorphisms, a levelled
universe of pair atoms whose automorphisms are (base permutation, one
bit per level) presentations, and a lazily grown homogeneous structure
carrying a linear order plus a family of irreflexive relations.

Each universe is one structure class.  It owns everything that differs
between universes: fresh atoms and `materialise`, the extension test,
one step of a lifted automorphism, the canonical order of a support,
and the closure model it realises.  The two universes a refutation
engine argues in, the bare set and the pair model, also own the JSON of
their atoms and of themselves; the others have none.  All but the pair
model also own the 1-types over a support: plain descriptor tuples, one
list per support size, with their realisation, restriction and
projection onto a sub-support.  The pair model has lifts but no 1-types.

A group element is never written out in full.  A finite injective map
(`PartialAutomorphism`) plus an extension test (`extendable`) stands in
for it, and `extend_fixing` lifts such a map to a lazily evaluated
total automorphism of the materialised universe.
"""

from __future__ import annotations

import bisect
import itertools
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from operator import ge, gt, le, lt
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PURE_SET = "pure_set"
DENSE_ORDER = "dense_order"
PAIR_MODEL = "pair_model"
CATEGORICAL = "categorical"

# The cap of every size, keyed by the setting it bounds (`labchecks.SETTINGS` key or CLI dest; `types`
# and `level` bound sizes the library meets).  A guard beside the code it protects raises `BudgetExceeded`
# past its row.  Times are of a CLI process, at the cap unless a size is named (2 vCPUs, Python 3.11.7).
CAPS = {
    "max_support": 500,  # the counting check lists types up to it: 0.2 s; 1.6 s at 2,000, MemoryError at 4,000
    "max_atoms": 16,  # the 2^16 subsets of a brute-force pool take 0.6 s
    "trials": 2_000,  # the refutation suite takes 0.3 s; 2 s at 20,000
    "stream_length": 500,  # the extractors suite takes 0.4 s; 1.2 s at 1,000, 5.1 s and 182 MiB at 2,000
    "budget": 200,  # the pair engine probes every pair of its sample: 0.9 s, 114 MiB; 30 s at 1,000
    "support": 35,  # every engine answers in 0.1 s; past it the pair engine's bound passes 4,300 digits
    "copies": 1_000,  # a surplus sweep walks n+1 labels: 0.1 s at -T 500, also at 1,000,000
    "n": 14_000,  # count-supports, in 1-types: 2^14000, the largest count, has 4,215 digits
    "types": 2 ** 16,  # 1-types over one support: the homogeneous structure has 6,146 over 2 atoms
    "level": 8,  # levels of pair atoms
}

# most (class, function, shape, mask) values the shape memo
# behind `AtomStructure.by_shape` keeps; the injections check meets 115
SHAPE_MEMO_SIZE = 1024


class StructureMismatch(ValueError):
    """Atom used with a structure that does not own it."""


class UnsatisfiableType(ValueError):
    """Requested 1-type is inconsistent with the ambient theory."""


class BudgetExceeded(RuntimeError):
    """A size past its row of `CAPS`, refused before any work starts; `value` is the size asked
    for, and the message reads "<what> exceeds the cap of <cap> <unit>"."""

    def __init__(self, setting: str, value: int, what: str, unit: str):
        self.setting, self.value, self.cap = setting, value, CAPS[setting]
        super().__init__(f"{what} exceeds the cap of {self.cap} {unit}")


class LevelBudgetExceeded(BudgetExceeded):
    """A pair atom above the `level` row."""


class TypeBudgetExceeded(BudgetExceeded):
    """More 1-types over one support than the `types` row."""


class MissingImage(KeyError):
    """A finite partial automorphism was asked to act outside its domain."""


def intern_weak(table: dict, key, value):
    """`value`, recorded under `key` in an intern table of weak references.  Each
    reference carries (table, key), so one callback serves every entry, with no
    function object per entry: the entry goes when the value dies, unless a
    newer value holds the key by then."""
    table[key] = weakref.KeyedRef(value, _drop_dead, (table, key))
    return value


def _drop_dead(ref):
    table, key = ref.key
    if table.get(key) is ref:
        del table[key]


class Atom:
    """A single urelement, one object per (world, payload): `Atom(...)` returns
    the live one from `Atom._table`, so `==` and `hash` are identity, in C.  A
    new atom's payload takes its universe's form first (`payload_of`)."""

    __slots__ = ("world", "payload", "__weakref__")
    _table: dict[tuple, weakref.ref[Atom]] = {}

    def __new__(cls, world: str, payload):
        ref = Atom._table.get((world, payload))
        if ref is None or (self := ref()) is None:
            # the universe's form may be live under another key: s.atom("1/2")
            payload = UNIVERSES[world].payload_of(payload)
            ref = Atom._table.get((world, payload))
            if ref is None or (self := ref()) is None:
                self = intern_weak(Atom._table, (world, payload), object.__new__(cls))
                object.__setattr__(self, "world", world)
                object.__setattr__(self, "payload", payload)
        elif type(payload) is not int and UNIVERSES[world].payload_of is AtomStructure.payload_of:
            AtomStructure.payload_of(payload)  # a hit refuses what a miss refuses; a dense hit builds nothing
        return self

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Atom is interned by world and payload alone, so it has no subclasses")

    def __setattr__(self, *_):
        raise AttributeError("atoms are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild it: `__setattr__` refuses
        return Atom, (self.world, self.payload)

    @property
    def level(self) -> int:
        if self.world != PAIR_MODEL:
            raise StructureMismatch("level is only defined for pair-model atoms")
        return 0 if isinstance(self.payload, int) else self.payload[0]

    def sort_key(self):
        """World-local canonical key; comparable within one world only."""
        if self.world == PAIR_MODEL:
            return _pair_key(self)
        return self.payload

    def __repr__(self):
        return UNIVERSES[self.world].payload_repr(self.payload)


def _pair_key(atom: Atom):
    if isinstance(atom.payload, int):
        return (0, atom.payload)
    lvl, (x, y), eps = atom.payload
    return (lvl, _pair_key(x), _pair_key(y), eps)


def _cross(op):
    """`Rational`'s `op`: by cross products against an exact Rational (denominators are positive), else as a Fraction."""
    slow = getattr(Fraction, f"__{op.__name__}__")
    return lambda p, q: op(p._numerator * q._denominator, q._numerator * p._denominator) if type(q) is Rational else slow(p, q)


class Rational(Fraction):
    """A dense atom's payload: a `Fraction` whose slots refuse assignment and deletion,
    so its key in `Atom._table` keeps its hash.  It takes `Fraction`'s arguments, as copy and pickle do."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        q, self = Fraction(numerator, denominator), object.__new__(cls)
        Fraction._numerator.__set__(self, q.numerator)  # past the refusing __setattr__
        Fraction._denominator.__set__(self, q.denominator)
        return self

    def __setattr__(self, *_):
        raise AttributeError("a dense payload is immutable")

    __delattr__ = __setattr__

    __lt__, __le__, __gt__, __ge__ = map(_cross, (lt, le, gt, ge))


def _is_nat(x) -> bool:
    """Is x a natural?  A bool is not, though Python counts it an int."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _nat_id(x) -> int:
    """An atom id read from JSON, refused unless it is a natural."""
    if not _is_nat(x):
        raise ValueError(f"atom id {x!r} is not a natural")
    return x


def atom_to_json(atom: Atom) -> dict:
    cls = UNIVERSES[atom.world]
    if not cls.json_tag:
        raise ValueError(f"{atom!r}: a {cls.kind} atom has no JSON")
    return cls.payload_to_json(atom.payload)


def atom_from_json(data: dict) -> Atom:
    if data["world"] not in _BY_JSON_TAG:
        raise ValueError(f"no universe reads atoms of world {data['world']!r}")
    return _BY_JSON_TAG[data["world"]].payload_from_json(data)


# ---------------------------------------------------------------------------
# 1-types


# categorical 1-type formulas: ("lt", e), ("rel", n, i, (e0..en-1))
# where the relation formula asserts the n+1-ary fact with x inserted at
# slot i among the parameters.


def f_lt(e: Atom):
    return ("lt", e)


def f_rel(insert_at: int, params: Sequence[Atom]):
    params = tuple(params)
    if not 0 <= insert_at <= len(params):
        raise ValueError("insertion slot out of range")
    return ("rel", len(params), insert_at, params)


@lru_cache(maxsize=None)
def _cat_rel_formulas(n: int) -> Tuple[tuple, ...]:
    """Local relation formulas over n parameters, in frozen order: a
    duplicate-free parameter sequence plus an insertion slot for x."""
    out = []
    for m in range(n + 1):
        for seq in itertools.permutations(range(n), m):
            for i in range(m + 1):
                out.append(("rel", m, i, seq))
    out.sort(key=lambda f: (f[1], f[3], f[2]))
    return tuple(out)


@lru_cache(maxsize=None)
def _cat_formula_bits(n: int) -> Dict[tuple, int]:
    """Each relation formula over n parameters -> its index in `_cat_rel_formulas(n)`."""
    return {f: k for k, f in enumerate(_cat_rel_formulas(n))}


def _cat_remap(n: int, positions: Tuple[int, ...]) -> List[int]:
    """Entry k is the bit, over the atoms at `positions` of an n-atom
    support, of the k-th relation formula over the support renamed onto
    them, or 0 where one of its parameters lies outside them."""
    slot = {j: i for i, j in enumerate(positions)}
    bits = _cat_formula_bits(len(positions))
    return [
        1 << bits[("rel", m, i, tuple(slot[j] for j in seq))] if all(j in slot for j in seq) else 0
        for _, m, i, seq in _cat_rel_formulas(n)
    ]


def _cat_type_count(n: int) -> int:
    """Types over an n-atom categorical support, refused past the `types` cap before listing."""
    count = n + (n + 1) * 2 ** len(_cat_rel_formulas(n))
    if count > CAPS["types"]:
        raise TypeBudgetExceeded("types", count, f"a {n}-atom support with {count} types", "types")
    return count


def _positions(E: Sequence[Atom], sub: Sequence[Atom]) -> Tuple[int, ...]:
    """Where each atom of the sub-support sits in the support E."""
    where = {e: j for j, e in enumerate(E)}
    return tuple(where[e] for e in sub)


def fibres_of(table: Sequence[int]) -> Tuple[int, ...]:
    """Entry g is the int whose bit k is set iff table[k] == g, for every g
    up to the largest entry: the table's fibres, through which `symsets`
    moves mask bits.  One pass over the table, then one bytes-to-int
    conversion per fibre, where OR-ing in bit by bit would copy a fibre
    per bit."""
    rows = [bytearray((len(table) + 7) >> 3) for _ in range(max(table, default=-1) + 1)]
    for k, g in enumerate(table):
        rows[g][k >> 3] |= 1 << (k & 7)
    return tuple(int.from_bytes(row, "little") for row in rows)


def _unused_ints(used: set, count: int) -> List[int]:
    """The `count` smallest naturals outside `used`."""
    return list(itertools.islice((i for i in itertools.count() if i not in used), count))


def _complete_cycle(atom: Atom, mapping: Dict[Atom, Atom]) -> Atom:
    """Image of `atom` under the permutation completing the injective
    `mapping`: close the chain ending at `atom` back onto its head; fixes
    atoms untouched by the map, keeps the completion injective."""
    if atom not in set(mapping.values()):
        return atom
    inverse = {b: a for a, b in mapping.items()}
    head = atom
    while head in inverse:
        head = inverse[head]
    return head


# ---------------------------------------------------------------------------
# structures


class AtomStructure:
    """Base class: a finite materialised fragment of a countable universe.

    The 1-type methods here serve every universe but the pair model.  A
    1-type over a sorted support E is a plain descriptor tuple: ("eq", j)
    for the atom E[j], or a descriptor of atoms outside E that mentions
    E only by index: ("free",), ("gap", g) or ("typ", gap, rels).  Its
    realizers are the one orbit of the pointwise stabiliser of E that it
    names, so the types over E partition the atoms.  The type list over
    E depends only on the class and on len(E) (`_type_list`), and a
    type's position in it is found by index arithmetic (`_type_position`).
    A projection table (`projection`) and its fibres (`fibres`), which the
    kernels read, depend on a pair of supports only through the shape of
    E (`shape_of`) and the positions of the sub-support inside it, so
    each class computes the fibres by index arithmetic once per such
    pair.  What is computed from one support's fibres alone (`by_shape`)
    is memoised per class by shape and mask."""

    kind: str = ""
    model: str = ""  # the `cardtable.MODELS` closure the universe realises
    json_tag: str = ""  # "kind" of its JSON and "world" of its atoms'; empty where it has none
    repr_format: str = ""
    # the materialised atoms, which hash by identity, where a payload (a
    # Fraction, a pair) would be rehashed at every membership test; the
    # homogeneous structure keeps node positions instead
    _atoms: set

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def atoms(self) -> List[Atom]:
        """Materialised universe, canonically sorted."""
        return sorted(self._atoms, key=Atom.sort_key)

    def check_owns(self, *atoms: Atom):
        for a in atoms:
            if not isinstance(a, Atom) or a.world != self.kind:
                raise StructureMismatch(f"{a!r} does not belong to a {self.kind} structure")
            if a not in self:
                raise StructureMismatch(f"{a!r} is not materialised")

    # -- atoms --------------------------------------------------------------

    def atom(self, payload) -> Atom:
        """The atom with this payload, materialised."""
        atom = Atom(self.kind, payload)
        self._atoms.add(atom)
        return atom

    def fresh(self, count: int = 1, avoid: Iterable[Atom] = ()) -> List[Atom]:
        """Newly materialised atoms, none of them in `avoid`."""
        raise NotImplementedError

    def materialise(self, atom: Atom) -> Atom:
        """Register an atom built outside the structure; one of another universe is refused."""
        if atom.world != self.kind:
            raise StructureMismatch(f"{atom!r} does not belong to a {self.kind} structure")
        return self.atom(atom.payload)

    def _probe_pool(self, avoid: set) -> Iterable[Atom]:
        """The materialised atoms outside `avoid` that engines may probe,
        in canonical order."""
        return (a for a in self.atoms() if a not in avoid)

    def probe_atoms(self, count: int, avoid: Iterable[Atom]) -> List[Atom]:
        """Probe atoms outside `avoid`: the materialised pool first, in
        canonical order, then freshly materialised ones.  Keeps engines
        inside a scripted table's pool whenever it is big enough.  The
        pool is read only as far as the first `count` atoms it offers."""
        avoid = set(avoid)
        out = list(itertools.islice(self._probe_pool(avoid), count))
        if len(out) < count:
            out += self.fresh(count - len(out), avoid=avoid | set(out))
        return out

    def sorted_by_order(self, atoms: Iterable[Atom]) -> List[Atom]:
        """The atoms in the universe's canonical order."""
        return sorted(atoms, key=Atom.sort_key)

    # -- automorphisms ------------------------------------------------------

    def is_extendable(self, mapping: Dict[Atom, Atom]) -> bool:
        """Does the finite injective map of owned atoms extend to an
        automorphism of the (idealised, countable) structure?"""
        raise NotImplementedError

    def lift_state(self, mapping: Dict[Atom, Atom]):
        """Bookkeeping a lift of the extendable `mapping` carries."""
        return None

    def lift_image(self, lift: "LiftedAutomorphism", atom: Atom) -> Atom:
        """Image of an atom outside the lift's domain, consistent with one
        extension of the recorded pairs."""
        raise NotImplementedError

    # -- 1-types ------------------------------------------------------------

    @staticmethod
    def _type_list(n: int) -> Tuple[tuple, ...]:
        """The realized 1-types over any sorted n-atom support, in
        canonical order."""
        raise NotImplementedError

    @staticmethod
    def _type_count(n: int) -> int:
        """len(_type_list(n)), counted without listing the types."""
        raise NotImplementedError

    @staticmethod
    def _type_position(n: int, t: tuple) -> int:
        """_type_list(n).index(t), found without listing the types."""
        raise NotImplementedError

    def shape_of(self, E: Tuple[Atom, ...]):
        """What the projections from the sorted support E read of it: here its size."""
        return len(E)

    def projection(self, E: Tuple[Atom, ...], sub: Tuple[Atom, ...]) -> Tuple[int, ...]:
        """Entry k is the position in `types(sub)` of the restriction of
        `_type_list(len(E))[k]`, for sorted supports with `sub` inside E."""
        return self._shape_table(self.shape_of(E), _positions(E, sub))

    @staticmethod
    def _shape_table(shape, positions: Tuple[int, ...]) -> Tuple[int, ...]:
        """The projection from a support of this shape onto its atoms at `positions`."""
        raise NotImplementedError

    @classmethod
    @lru_cache(maxsize=None)
    def _shape_fibres(cls, shape, positions: Tuple[int, ...]) -> Tuple[int, ...]:
        """`fibres_of(_shape_table(shape, positions))`, built once per class and shape."""
        return fibres_of(cls._shape_table(shape, positions))

    def fibres(self, E: Tuple[Atom, ...], sub: Tuple[Atom, ...]) -> Tuple[int, ...]:
        """`fibres_of(projection(E, sub))`, read from the class's cache per shape."""
        return self._shape_fibres(self.shape_of(E), _positions(E, sub))

    def by_shape(self, fn: Callable, E: Tuple[Atom, ...], mask: int):
        """fn(fibres, len(E), mask), where fibres(positions) are those of the
        projection of the sorted support E onto its atoms at `positions`.
        That reads only the shape, so the value is memoised for the class
        by (shape, mask)."""
        return self._shape_memo(fn, len(E), self.shape_of(E), mask)

    @classmethod
    @lru_cache(maxsize=SHAPE_MEMO_SIZE)
    def _shape_memo(cls, fn: Callable, n: int, shape, mask: int):
        return fn(partial(cls._shape_fibres, shape), n, mask)

    def type_of(self, atom: Atom, E: Tuple[Atom, ...]) -> tuple:
        """The 1-type over E of an atom outside E."""
        raise NotImplementedError

    def holds(self, t: tuple, E: Tuple[Atom, ...], atom: Atom) -> bool:
        """Does the atom realise the 1-type t over the sorted support E?"""
        self.check_owns(atom)
        if t[0] == "eq":
            return atom == E[t[1]]
        return atom not in E and self.type_of(atom, E) == t

    def restrict(self, t: tuple, E: Tuple[Atom, ...], sub: Tuple[Atom, ...]) -> tuple:
        """The 1-type over the sorted sub-support induced by the type t
        over the sorted support E."""
        sub_index = {e: j for j, e in enumerate(sub)}
        if t[0] == "eq":
            e = E[t[1]]
            if e in sub_index:
                return ("eq", sub_index[e])
            return self.type_of(e, sub)
        return self._restrict_outside(t, E, sub_index)

    # -- payloads -----------------------------------------------------------

    @staticmethod
    def payload_of(payload):
        """The payload a new atom keeps: an int id, or a pair atom's (level, pair,
        bit) of ints.  The table matches payloads by `==`, so a bool, a float or
        a Fraction equal to an id is refused, lest every later atom 1 read `true`."""
        if {*map(type, payload[::2] if type(payload) is tuple else (payload,))} != {int}:
            raise TypeError(f"an atom payload takes ints, not {payload!r}")
        return payload

    @classmethod
    def payload_repr(cls, payload) -> str:
        return cls.repr_format.format(payload)


class PureSetStructure(AtomStructure):
    """Countable bare set; every permutation is an automorphism."""

    kind = PURE_SET
    model = "fraenkel"
    json_tag = "pure"
    repr_format = "u{}"

    def __init__(self, size: int = 0):
        self._atoms = {Atom(PURE_SET, i) for i in range(size)}

    def fresh(self, count: int = 1, avoid: Iterable[Atom] = ()) -> List[Atom]:
        used = {a.payload for a in itertools.chain(self._atoms, avoid)}
        return [self.atom(i) for i in _unused_ints(used, count)]

    def is_extendable(self, mapping):
        return True

    def lift_image(self, lift, atom):
        return _complete_cycle(atom, lift.pairs)

    @staticmethod
    def _type_list(n):
        return tuple(("eq", j) for j in range(n)) + (("free",),)

    @staticmethod
    def _type_count(n):
        return n + 1

    @staticmethod
    def _type_position(n, t):
        return t[1] if t[0] == "eq" else n

    def type_of(self, atom, E):
        return ("free",)

    def _restrict_outside(self, t, E, sub_index):
        return ("free",)

    @staticmethod
    def _shape_table(n, positions):
        # ("eq", j) keeps its atom's index in sub, or becomes free
        free = len(positions)
        slot = {j: i for i, j in enumerate(positions)}
        return tuple(slot.get(j, free) for j in range(n)) + (free,)

    @staticmethod
    def payload_to_json(payload) -> dict:
        return {"world": "pure", "id": payload}

    @staticmethod
    def payload_from_json(data: dict) -> Atom:
        return Atom(PURE_SET, _nat_id(data["id"]))

    def to_json(self):
        return {"kind": "pure", "atoms": sorted(a.payload for a in self._atoms)}

    @classmethod
    def from_json(cls, data: dict) -> "PureSetStructure":
        s = cls()
        s._atoms.update(Atom(PURE_SET, i) for i in map(_nat_id, data["atoms"]))
        return s


class DenseOrderStructure(AtomStructure):
    """Points of a dense linear order without endpoints (exact rationals)."""

    kind = DENSE_ORDER
    model = "mostowski"
    repr_format = "a({})"

    def __init__(self, positions: Iterable = ()):
        self._atoms = set()
        for q in positions:
            self.atom(q)

    def fresh(self, count: int = 1, avoid: Iterable[Atom] = ()) -> List[Atom]:
        """Fresh points above everything materialised so far."""
        top = max((a.payload for a in itertools.chain(self._atoms, avoid)), default=Fraction(0))
        return [self.atom(top + i) for i in range(1, count + 1)]

    def is_extendable(self, mapping):
        srcs = sorted(mapping, key=lambda a: a.payload)
        imgs = [mapping[a].payload for a in srcs]
        return all(p < q for p, q in zip(imgs, imgs[1:]))

    def lift_image(self, lift, atom):
        # piecewise linear through the recorded pairs, a translation
        # beyond the outermost ones
        nodes = sorted((a.payload, b.payload) for a, b in lift.pairs.items())
        q = atom.payload
        if not nodes:
            return self.atom(q)
        k = bisect.bisect([x for x, _ in nodes], q)
        if k == 0 or k == len(nodes):
            x0, y0 = nodes[0] if k == 0 else nodes[-1]
            return self.atom(q + (y0 - x0))
        (x0, y0), (x1, y1) = nodes[k - 1], nodes[k]
        return self.atom(y0 + (q - x0) * (y1 - y0) / (x1 - x0))

    @staticmethod
    def _type_list(n):
        # geometric left-to-right order: gap 0, e0, gap 1, e1, ..., gap n
        out = [("gap", 0)]
        for j in range(n):
            out += [("eq", j), ("gap", j + 1)]
        return tuple(out)

    @staticmethod
    def _type_count(n):
        return 2 * n + 1

    @staticmethod
    def _type_position(n, t):
        # ("gap", g) sits at 2g and ("eq", j) at 2j + 1
        return 2 * t[1] + (t[0] == "eq")

    def type_of(self, atom, E):
        return ("gap", sum(1 for x in E if x.payload < atom.payload))

    def _restrict_outside(self, t, E, sub_index):
        return ("gap", sum(1 for x in E[: t[1]] if x in sub_index))

    @staticmethod
    def _shape_table(n, positions):
        # ("gap", g) sits at 2g and ("eq", j) at 2j + 1; a gap, or an atom
        # outside sub, falls into the gap of sub below which it lies
        slot = {j: i for i, j in enumerate(positions)}
        below = [bisect.bisect_left(positions, g) for g in range(n + 1)]
        out = [0]
        for j in range(n):
            out.append(2 * slot[j] + 1 if j in slot else 2 * below[j])
            out.append(2 * below[j + 1])
        return tuple(out)

    payload_of = Rational  # a Fraction payload would compare slowly and could change


class PairStructure(AtomStructure):
    """Levelled pair atoms.

    Level 0 is a bare countable set.  An atom of level n >= 1 is a
    triple (n, <x, y>, bit) whose components live strictly below n.
    The automorphisms are exactly the maps presented by a permutation of
    the level-0 atoms together with one bit per level >= 1: the
    permutation acts inside the payload and the level's bit is XORed
    onto the atom's own bit.

    The model has lifts but no 1-types: `_type_list` and `_type_count`
    refuse, so neither `types_over` nor a `SupportedSubset` accepts a
    pair-model structure.
    """

    kind = PAIR_MODEL
    model = "vp"
    json_tag = "pairs"

    def __init__(self, base_size: int = 0):
        self._atoms = {Atom(PAIR_MODEL, i) for i in range(base_size)}

    base_atom = AtomStructure.atom  # a level-0 atom, as `materialise` registers it

    def fresh(self, count: int = 1, avoid: Iterable[Atom] = ()) -> List[Atom]:
        """Fresh level-0 atoms."""
        used = {a.payload for a in itertools.chain(self._atoms, avoid) if isinstance(a.payload, int)}
        return [self.base_atom(i) for i in _unused_ints(used, count)]

    def pair_atom(self, level: int, x: Atom, y: Atom, bit: int) -> Atom:
        self.check_owns(x, y)
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if level <= max(x.level, y.level):
            raise ValueError("components of a level-n atom must live below level n")
        if level > CAPS["level"]:
            raise LevelBudgetExceeded("level", level, f"a level-{level} pair atom", "levels")
        atom = Atom(PAIR_MODEL, (level, (x, y), bit))
        self._atoms.add(atom)
        return atom

    def materialise(self, atom: Atom) -> Atom:
        """Re-register an atom built structurally (components included)."""
        if atom.world != PAIR_MODEL or isinstance(atom.payload, int):
            return super().materialise(atom)
        lvl, (x, y), eps = atom.payload
        return self.pair_atom(lvl, self.materialise(x), self.materialise(y), eps)

    def _probe_pool(self, avoid):
        return (a for a in self.atoms() if a.level == 0 and a not in avoid)

    @staticmethod
    def hereditary_atoms(atom: Atom) -> List[Atom]:
        """The atom together with every component below it."""
        out = [atom]
        if not isinstance(atom.payload, int):
            _, (x, y), _ = atom.payload
            out.extend(PairStructure.hereditary_atoms(x))
            out.extend(PairStructure.hereditary_atoms(y))
        return out

    @staticmethod
    def pinned_levels(fixed: Iterable[Atom]) -> set:
        """Levels whose bit any automorphism fixing `fixed` must leave at 0."""
        below = (h for a in fixed for h in PairStructure.hereditary_atoms(a))
        return {h.payload[0] for h in below if not isinstance(h.payload, int)}

    @staticmethod
    def fixed_bases(fixed: Iterable[Atom]) -> set:
        """Level-0 atoms pinned pointwise by fixing `fixed`."""
        below = (h for a in fixed for h in PairStructure.hereditary_atoms(a))
        return {h for h in below if isinstance(h.payload, int)}

    @staticmethod
    def presentation(mapping: Dict[Atom, Atom]):
        """Find (base permutation fragment, bit per level) consistent with
        the map, or None.  Constraints propagate down through payload
        pairs."""
        g0: Dict[Atom, Atom] = {}
        bits: Dict[int, int] = {}
        stack = list(mapping.items())
        while stack:
            a, b = stack.pop()
            if a.level != b.level:
                return None
            if a.level == 0:
                if g0.get(a, b) != b:
                    return None
                g0[a] = b
            else:
                _, (x, y), ea = a.payload
                _, (x2, y2), eb = b.payload
                want = ea ^ eb
                if bits.get(a.level, want) != want:
                    return None
                bits[a.level] = want
                stack.append((x, x2))
                stack.append((y, y2))
        if len(set(g0.values())) != len(g0):
            return None
        return g0, bits

    def is_extendable(self, mapping):
        return self.presentation(mapping) is not None

    def lift_state(self, mapping):
        solved = self.presentation(mapping)
        if solved is None:
            raise ValueError("map admits no pair-model presentation")
        return solved

    def lift_image(self, lift, atom):
        g0, bits = lift.state
        if atom.level == 0:
            if atom not in g0:
                g0[atom] = _complete_cycle(atom, g0)
            return self.base_atom(g0[atom].payload)
        lvl, (x, y), eps = atom.payload
        ix, iy = lift.apply(x), lift.apply(y)
        return self.pair_atom(lvl, ix, iy, eps ^ bits.get(lvl, 0))

    @staticmethod
    def _type_list(*_):
        raise StructureMismatch("the pair model has no 1-types")

    _type_count = _type_position = _type_list

    @staticmethod
    def payload_repr(payload) -> str:
        if isinstance(payload, int):
            return f"b{payload}"
        lvl, (x, y), eps = payload
        return f"({lvl},<{x!r},{y!r}>,{eps})"

    @staticmethod
    def payload_to_json(payload) -> dict:
        if isinstance(payload, int):
            return {"world": "pairs", "base": payload}
        lvl, (x, y), eps = payload
        pair = [atom_to_json(x), atom_to_json(y)]
        return {"world": "pairs", "level": lvl, "pair": pair, "bit": eps}

    @staticmethod
    def payload_from_json(data: dict) -> Atom:
        if "base" in data:
            return Atom(PAIR_MODEL, _nat_id(data["base"]))
        x, y = (atom_from_json(d) for d in data["pair"])
        return Atom(PAIR_MODEL, (data["level"], (x, y), data["bit"]))

    def to_json(self):
        return {"kind": "pairs", "atoms": [atom_to_json(a) for a in self.atoms()]}

    @classmethod
    def from_json(cls, data: dict) -> "PairStructure":
        s = cls()
        for a in data["atoms"]:
            s.materialise(atom_from_json(a))
        return s


class CategoricalStructure(AtomStructure):
    """Lazily grown homogeneous structure: a dense linear order plus, for
    each n, an (n+1)-ary relation constrained only to have pairwise
    distinct entries.  Growth is minimal: a fresh node receives exactly
    the relation facts that were requested for it."""

    kind = CATEGORICAL
    repr_format = "n{}"

    def __init__(self):
        self._pos: Dict[int, Rational] = {}  # so the order compares in integers
        self._rfacts: set = set()  # (n, (node ids...)) with len(ids) == n + 1
        self._next = 0

    # -- materialisation ----------------------------------------------------

    def _new_node(self, position: Fraction) -> Atom:
        if position in self._pos.values():
            raise ValueError("positions must be pairwise distinct")
        nid = self._next
        self._next += 1
        self._pos[nid] = Rational(position)
        return Atom(CATEGORICAL, nid)

    def _realize(self, position: Fraction, rels) -> Atom:
        """A new node at `position` carrying exactly the relation formulas
        `rels`, whose parameters must be pairwise distinct."""
        atom = self._new_node(position)
        for _, n, i, params in rels:
            self.declare_rel(params[:i] + (atom,) + params[i:])
        return atom

    def fresh(self, count: int = 1, avoid: Iterable[Atom] = ()) -> List[Atom]:
        """New nodes above all others, with no relation facts."""
        return [fresh_realizer(self, []) for _ in range(count)]

    def materialise(self, atom: Atom) -> Atom:
        """A node id does not carry its position: only owned nodes pass."""
        self.check_owns(atom)
        return atom

    def __contains__(self, atom):
        return atom.world == CATEGORICAL and atom.payload in self._pos

    def atoms(self):
        return [Atom(CATEGORICAL, i) for i in sorted(self._pos)]

    # -- structure queries --------------------------------------------------

    def position(self, atom: Atom) -> Fraction:
        self.check_owns(atom)
        return self._pos[atom.payload]

    def lt(self, a: Atom, b: Atom) -> bool:
        return self.position(a) < self.position(b)

    def sorted_by_order(self, atoms: Iterable[Atom]) -> List[Atom]:
        return sorted(atoms, key=self.position)

    def declare_rel(self, args: Sequence[Atom]):
        """Record the (len-1)-indexed relation fact on `args`."""
        args = tuple(args)
        self.check_owns(*args)
        if len(set(args)) != len(args):
            raise UnsatisfiableType("relation entries must be pairwise distinct")
        self._rfacts.add((len(args) - 1, tuple(a.payload for a in args)))

    def rel_holds(self, args: Sequence[Atom]) -> bool:
        args = tuple(args)
        return (len(args) - 1, tuple(a.payload for a in args)) in self._rfacts

    def rfacts_touching(self, atom: Atom) -> List[Tuple[int, Tuple[int, ...]]]:
        nid = atom.payload
        return sorted(f for f in self._rfacts if nid in f[1])

    def rel_formulas(self, atom: Atom, over: Iterable[Atom]) -> list:
        """The relation formulas the atom satisfies with all parameters
        among `over`, in the order of `rfacts_touching`."""
        nid = atom.payload
        over_ids = {a.payload for a in over}
        out = []
        for n, ids in self.rfacts_touching(atom):
            if all(i == nid or i in over_ids for i in ids):
                params = tuple(Atom(CATEGORICAL, i) for i in ids if i != nid)
                out.append(f_rel(ids.index(nid), params))
        return out

    def formula_holds(self, formula, atom: Atom) -> bool:
        tag = formula[0]
        if tag == "lt":
            return self.lt(atom, formula[1])
        _, n, i, params = formula
        args = params[:i] + (atom,) + params[i:]
        return self.rel_holds(args)

    def _free_position(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
        """An unoccupied position strictly between the bounds."""
        taken = sorted(self._pos.values())
        if hi is None:
            candidates = [lo] if lo is not None else []
            candidates += taken
            return (max(candidates) + 1) if candidates else Fraction(0)
        below = [q for q in taken if q < hi and (lo is None or q >= lo)]
        if lo is not None:
            below.append(lo)
        return (max(below) + hi) / 2 if below else hi - 1

    # -- automorphisms ------------------------------------------------------

    def is_extendable(self, mapping):
        # order, relation facts, and their negations on the domain
        for a, b in itertools.combinations(mapping, 2):
            if self.lt(a, b) != self.lt(mapping[a], mapping[b]):
                return False
        image = {a.payload: b.payload for a, b in mapping.items()}
        inverse = {b: a for a, b in image.items()}
        for n, ids in self._rfacts:
            for m in (image, inverse):
                if all(i in m for i in ids) and (n, tuple(m[i] for i in ids)) not in self._rfacts:
                    return False
        return True

    def lift_image(self, lift, atom):
        # the image must realise, over the images, exactly the atomic type
        # the atom realises over the current domain (back-and-forth step)
        dom = dict(lift.pairs)
        below = [dom[a] for a in dom if self.lt(a, atom)]
        above = [dom[a] for a in dom if self.lt(atom, a)]
        lo = max((self.position(b) for b in below), default=None)
        hi = min((self.position(b) for b in above), default=None)
        want = {
            f_rel(i, tuple(dom[p] for p in params))
            for _, _, i, params in self.rel_formulas(atom, dom)
        }
        images = set(dom.values())
        for cand in self.atoms():
            q = self.position(cand)
            in_cut = (lo is None or q > lo) and (hi is None or q < hi)
            if in_cut and cand not in images and set(self.rel_formulas(cand, images)) == want:
                return cand
        # no materialised node fits: realise the type freshly at an
        # unoccupied position strictly inside the cut (lo, hi), since a
        # rejected candidate may occupy any fixed point there.  Every point
        # of the cut has the same order type over the images, so the
        # back-and-forth step stays sound.
        return self._realize(self._free_position(lo, hi), want)

    # -- 1-types ------------------------------------------------------------

    @staticmethod
    def _type_list(n):
        _cat_type_count(n)
        formulas = _cat_rel_formulas(n)
        out = [("eq", j) for j in range(n)]
        for gap in range(n + 1):
            for mask in range(1 << len(formulas)):
                rels = frozenset(f for k, f in enumerate(formulas) if mask >> k & 1)
                out.append(("typ", gap, rels))
        return tuple(out)

    _type_count = staticmethod(_cat_type_count)

    @staticmethod
    def _type_position(n, t):
        # ("typ", gap, rels) sits at n + gap * 2^F + mask, where bit k of
        # mask says whether rels holds the k-th of the F formulas
        if t[0] == "eq":
            return t[1]
        bits = _cat_formula_bits(n)
        return n + (t[1] << len(bits)) + sum(1 << bits[f] for f in t[2])

    def type_of(self, atom, E):
        # the relation formulas off the atom's facts, parameters renamed to their positions in E
        below = sum(1 for x in E if self.lt(x, atom))
        where = {e: j for j, e in enumerate(E)}
        rels = frozenset((tag, m, i, tuple(where[p] for p in ps)) for tag, m, i, ps in self.rel_formulas(atom, E))
        return ("typ", below, rels)

    def _restrict_outside(self, t, E, sub_index):
        _, gap, rels = t
        below = sum(1 for x in E[:gap] if x in sub_index)
        local = []
        for _, m, i, seq in rels:
            params = [E[j] for j in seq]
            if all(p in sub_index for p in params):
                local.append(("rel", m, i, tuple(sub_index[p] for p in params)))
        return ("typ", below, frozenset(local))

    def shape_of(self, E):
        # the size and the diagram: the relation facts among E, each atom
        # renamed to its position.  The structure is homogeneous, so supports
        # with one diagram lie in one orbit and share their projections; the
        # cap leaves 19 diagrams, so the shape caches stay small.
        _cat_type_count(len(E))
        where = {e.payload: j for j, e in enumerate(E)}
        return len(E), frozenset(tuple(map(where.get, ids)) for _, ids in self._rfacts if all(i in where for i in ids))

    @staticmethod
    def _head(shape, positions):
        # an atom of E outside sub has the type ("typ", gap, rels) over sub:
        # the gap of sub below it, and a formula for each fact of the diagram
        # on it whose other entries sub keeps, placed as `_type_position` does
        n, diagram = shape
        slot = {j: i for i, j in enumerate(positions)}
        bits = _cat_formula_bits(len(positions))
        head = [slot[j] if j in slot else len(positions) + (bisect.bisect_left(positions, j) << len(bits)) for j in range(n)]
        for ids in diagram:
            dropped = [i for i, j in enumerate(ids) if j not in slot]
            if len(dropped) == 1:
                i = dropped[0]
                head[ids[i]] += 1 << bits[("rel", len(ids) - 1, i, tuple(slot[j] for j in ids if j in slot))]
        return head

    @classmethod
    def _shape_table(cls, shape, positions):
        # the head, then ("typ", gap, rels) at n + gap * 2^F + mask, where bit
        # k of mask says whether rels holds the k-th of the F formulas over E:
        # each relation mask over E is remapped, formula by formula, to its
        # mask over sub
        n = shape[0]
        remap = _cat_remap(n, positions)
        new_mask = [0] * (1 << len(remap))
        for mask in range(1, len(new_mask)):
            low = mask & -mask
            new_mask[mask] = new_mask[mask ^ low] | remap[low.bit_length() - 1]
        width = 1 << len(_cat_rel_formulas(len(positions)))
        out = cls._head(shape, positions)
        for gap in range(n + 1):
            base = len(positions) + bisect.bisect_left(positions, gap) * width
            out.extend(base + x for x in new_mask)
        return tuple(out)

    @classmethod
    @lru_cache(maxsize=None)
    def _shape_fibres(cls, shape, positions):
        # fibres_of(_shape_table(shape, positions)) without the table: a mask
        # over sub is hit by the masks over E that set its kept formulas'
        # bits plus any of the dropped ones, so every fibre is one pattern
        # of the dropped bits, moved past the head to a kept combination in a
        # gap block; then each head entry sets its own bit
        n = shape[0]
        remap = _cat_remap(n, positions)
        pattern, kept, rels = 1, [0], [0]
        for k, r in enumerate(remap):
            if r:
                kept += [x | 1 << k for x in kept]
                rels += [y | r for y in rels]
            else:
                pattern |= pattern << (1 << k)
        width = len(rels)
        out = [0] * (len(positions) + (len(positions) + 1) * width)
        for gap in range(n + 1):
            base = len(positions) + bisect.bisect_left(positions, gap) * width
            for x, y in zip(kept, rels):
                out[base + y] |= pattern << (n + (gap << len(remap) | x))
        for j, g in enumerate(cls._head(shape, positions)):
            out[g] |= 1 << j
        return tuple(out)


# the one world -> class table; the JSON tags of the universes that have JSON index into it
UNIVERSES = {
    cls.kind: cls
    for cls in (PureSetStructure, DenseOrderStructure, PairStructure, CategoricalStructure)
}
_BY_JSON_TAG = {cls.json_tag: cls for cls in UNIVERSES.values() if cls.json_tag}


def fresh_realizer(structure: CategoricalStructure, formulas) -> Atom:
    """Materialise an atom realising at least the given positive formulas,
    each an `lt` or a `rel` formula; any other is refused.

    The new atom receives no relation fact that was not requested, so the
    universe keeps its minimal positive diagram.
    """
    if not isinstance(structure, CategoricalStructure):
        raise StructureMismatch("fresh_realizer needs a categorical structure")
    formulas = list(formulas)
    for f in formulas:
        if f[0] not in ("lt", "rel"):
            raise ValueError(f"a fresh atom realises lt and rel formulas, not {f!r}")
        structure.check_owns(*((f[1],) if f[0] == "lt" else f[3]))
    uppers = [f[1] for f in formulas if f[0] == "lt"]
    rels = [f for f in formulas if f[0] == "rel"]
    for _, n, i, params in rels:
        if len(set(params)) != len(params):
            raise UnsatisfiableType("relation parameters must be pairwise distinct")
    hi = min((structure.position(u) for u in uppers), default=None)
    return structure._realize(structure._free_position(None, hi), rels)


# ---------------------------------------------------------------------------
# partial automorphisms


class PartialAutomorphism:
    """A finite injective atom map, candidate fragment of a group element."""

    def __init__(self, mapping: Dict[Atom, Atom]):
        self.pairs: Dict[Atom, Atom] = dict(mapping)
        worlds = {a.world for a in self.pairs} | {b.world for b in self.pairs.values()}
        if len(worlds) > 1:
            raise StructureMismatch(f"mixed atom worlds {sorted(worlds)}")
        if {type(b) for b in self.pairs.values()} - {Atom}:  # `act` builds HF values from images unchecked
            raise TypeError("every image must be exactly an Atom")

    def items(self):
        return sorted(self.pairs.items(), key=lambda kv: kv[0].sort_key())

    def apply(self, atom: Atom) -> Atom:
        try:
            return self.pairs[atom]
        except KeyError:
            raise MissingImage(f"no image recorded for {atom!r}")

    def fixes_pointwise(self, atoms: Iterable[Atom]) -> bool:
        return all(self.pairs.get(a) == a for a in atoms)

    def to_json(self) -> list:
        return [[atom_to_json(a), atom_to_json(b)] for a, b in self.items()]

    @staticmethod
    def from_json(data) -> "PartialAutomorphism":
        return PartialAutomorphism(
            {atom_from_json(a): atom_from_json(b) for a, b in data}
        )

    def __repr__(self):
        inner = ", ".join(f"{a!r}->{b!r}" for a, b in self.items())
        return f"PartialAutomorphism({inner})"


def extendable(structure: AtomStructure, pa: PartialAutomorphism) -> bool:
    """Does the finite map extend to an automorphism of the (idealised,
    countable) structure?  Decided locally, per universe."""
    atoms = list(pa.pairs) + list(pa.pairs.values())
    structure.check_owns(*atoms)
    mapping = pa.pairs
    if len(set(mapping.values())) != len(mapping):
        return False
    return structure.is_extendable(mapping)


class LiftedAutomorphism(PartialAutomorphism):
    """A partial automorphism that knows how to grow: images of further
    atoms are produced on demand, staying consistent with one extension
    to the whole countable structure.  Only `extend_fixing` builds one: it
    sets the structure and state once `extendable` has passed the pairs,
    so the recorded pairs always form an extendable finite map."""

    def apply(self, atom: Atom) -> Atom:
        image = self.pairs.get(atom)  # a recorded image is an atom, never None
        if image is None:
            self.structure.check_owns(atom)
            image = self.pairs[atom] = self.structure.lift_image(self, atom)
        return image


def extend_fixing(
    structure: AtomStructure,
    fixed: Iterable[Atom],
    constraints: Optional[Dict[Atom, Atom]] = None,
) -> Optional[LiftedAutomorphism]:
    """Identity on `fixed` plus the given constraints, lifted to a lazily
    extendable automorphism; None iff no automorphism satisfies both."""
    mapping: Dict[Atom, Atom] = {a: a for a in fixed}
    for a, b in (constraints or {}).items():
        if mapping.get(a, b) != b:
            return None
        mapping[a] = b
    lift = LiftedAutomorphism(mapping)
    if not extendable(structure, lift):
        return None
    lift.structure, lift.state = structure, structure.lift_state(lift.pairs)
    return lift
