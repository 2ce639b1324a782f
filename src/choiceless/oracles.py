"""Built-in oracles: honest constructions, canonical cheats, and seeded
random adversaries for every engine.

An oracle built here is just an `InjectionOracle` whose function closes
over a structure.  Random adversaries draw answers from a curated pool;
the oracle memo makes them stable, so a seeded adversary is a total
table revealed lazily.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .atoms import (
    Atom,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    atom_from_json,
    structure_from_json,
)
from .constructions import (
    AtomsDom,
    FinDom,
    HFTuple,
    LabeledNatSetDom,
    NatDom,
    PairDom,
    PartitionDom,
    PowDom,
    SeqDom,
    SeqStarDom,
    SubsetDom,
    UnordPairsDom,
    atoms_of,
    hf_from_json,
    hftuple,
)
from .refute import InjectionOracle, oracle_from_table
from .symsets import SupportedSubset, types_over


def _seqs_up_to(atoms: Sequence[Atom], max_len: int) -> List[HFTuple]:
    out = [hftuple(())]
    for k in range(1, max_len + 1):
        out.extend(hftuple(p) for p in itertools.permutations(atoms, k))
    return out


def _tuples_up_to(atoms: Sequence[Atom], max_len: int) -> List[HFTuple]:
    out = [hftuple(())]
    for k in range(1, max_len + 1):
        out.extend(hftuple(p) for p in itertools.product(atoms, repeat=k))
    return out


def _subsets_over(structure, supports: Sequence[Sequence[Atom]]) -> List[SupportedSubset]:
    out = []
    for sup in supports:
        n_types = len(types_over(structure, sup))
        for bits in range(1 << n_types):
            out.append(SupportedSubset.from_bits(structure, sup, bits))
    return out


def fin_to_seq_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
    dom, cod = FinDom(AtomsDom()), SeqDom()
    if name == "sort":
        fn = lambda x: hftuple(sorted(x, key=lambda a: a.payload))
    elif name == "const-empty":
        fn = lambda x: hftuple(())
    elif name == "support-only":
        fn = lambda x: hftuple(E[: min(len(E), len(x.items) % (len(E) + 1))])
    elif name == "random":
        extra = structure.fresh(4, avoid=E)
        pool = _seqs_up_to(E + extra, 2)
        fn = lambda x: rng.choice(pool)
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, support=E, structure=structure, name=name)


def fin_to_seqstar_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
    dom, cod = FinDom(AtomsDom()), SeqStarDom()
    if name == "const-empty":
        fn = lambda x: hftuple(())
    elif name == "pair-id-order":
        fn = lambda x: hftuple(sorted(x, key=lambda a: a.payload))
    elif name == "support-only":
        fn = lambda x: hftuple(E * 2)
    elif name == "random":
        extra = structure.fresh(4, avoid=E)
        pool = _tuples_up_to(E + extra, 2)
        fn = lambda x: rng.choice(pool)
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, support=E, structure=structure, name=name)


def seq_to_power_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
    dom, cod = SeqDom(), PowDom()
    if name == "atoms-of-input":
        fn = lambda x: SupportedSubset.of_atoms(structure, list(x))
    elif name == "const-empty":
        fn = lambda x: SupportedSubset.empty(structure)
    elif name == "random":
        extra = structure.fresh(1, avoid=E)
        pool = _subsets_over(structure, [(), E[:1], E[:2], extra, E[:1] + extra])
        fn = lambda x: rng.choice(pool)
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, support=E, structure=structure, name=name)


def nat_to_power_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
    dom, cod = NatDom(), PowDom()
    if name == "first-n-atoms":
        pool = structure.fresh(16, avoid=E)
        fn = lambda n: SupportedSubset.of_atoms(structure, pool[: min(n, 16)]) if n else SupportedSubset.empty(structure)
    elif name == "const-empty":
        fn = lambda n: SupportedSubset.empty(structure)
    elif name == "random":
        extra = structure.fresh(2, avoid=E)
        pool = _subsets_over(structure, [(), E[:1], extra[:1], E[:1] + extra[:1]])
        fn = lambda n: rng.choice(pool)
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, support=E, structure=structure, name=name)


def unordered_to_ordered_oracle(name: str, structure: PairStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
    dom = UnordPairsDom(AtomsDom())
    cod = PairDom(AtomsDom(), AtomsDom())
    if name == "base-id-order":
        def fn(x):
            a, b = sorted(x, key=lambda at: at.payload)
            return hftuple(a, b)
    elif name == "const-pair":
        z = structure.fresh(2, avoid=E)
        fn = lambda x: hftuple(z[0], z[1])
    elif name == "decorated":
        def fn(x):
            a, b = sorted(x, key=lambda at: at.payload)
            return hftuple(structure.pair_atom(1, a, b, 0), a)
    elif name == "stray-per-pair":
        strays = structure.fresh(64, avoid=E)
        state = {"n": 0}

        def fn(x):
            state["n"] += 1
            a = min(x, key=lambda at: at.payload)
            return hftuple(strays[state["n"] % 64], a)
    elif name == "random":
        pool = structure.fresh(3, avoid=E)

        def fn(x):
            a, b = sorted(x, key=lambda at: at.payload)
            options = E + pool + [a, b, structure.pair_atom(1, a, b, rng.choice((0, 1)))]
            return hftuple(rng.choice(options), rng.choice(options))
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, support=E, structure=structure, name=name)


def fin_to_atom_oracle(name: str, structure: DenseOrderStructure, rng=None) -> InjectionOracle:
    dom, cod = FinDom(AtomsDom()), AtomsDom()
    if name == "fresh-max":
        def fn(x):
            top = max((a.payload for a in x), default=Fraction(-1))
            return structure.atom(top + 1)
    elif name == "max-or-zero":
        fn = lambda x: structure.atom(max((a.payload for a in x), default=Fraction(0)))
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, structure=structure, name=name)


def seqstar_to_seq_oracle(name: str, structure: DenseOrderStructure, rng=None) -> InjectionOracle:
    dom, cod = SeqStarDom(), SeqDom()
    if name == "fresh-block":
        fn = lambda x: hftuple([structure.atom(100 + i) for i in range(1, len(x.items) + 1)])
    elif name == "same-set-reversed":
        fn = lambda x: hftuple([structure.atom(100 + i) for i in range(len(x.items), 0, -1)])
    elif name == "const-empty":
        fn = lambda x: hftuple(())
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, structure=structure, name=name)


def surplus_oracle(name: str, n: int, rng=None) -> InjectionOracle:
    dom, cod = LabeledNatSetDom(n + 1), LabeledNatSetDom(max(n, 1))
    if name == "shift-encode":
        def fn(x):
            l, s = x
            return (0, frozenset({l} | {v + n + 2 for v in s}))
    elif name == "const":
        fn = lambda x: (0, frozenset())
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, name=name)


def partition_oracle(name: str, ground: Sequence[int], rng=None) -> InjectionOracle:
    gset = frozenset(ground)
    dom, cod = PartitionDom(gset), SubsetDom(gset)
    if name == "fresh-singleton":
        order = sorted(gset)
        state = {"next": 4}

        def fn(p):
            value = frozenset({order[state["next"] % len(order)]})
            state["next"] += 1
            return value
    elif name == "const":
        first = min(gset)
        fn = lambda p: frozenset({first})
    else:
        raise KeyError(name)
    return InjectionOracle(fn, dom, cod, name=name)


REFUTE_ORACLES: Dict[str, Tuple[str, ...]] = {
    "fin-to-seq": ("sort", "const-empty", "support-only", "random"),
    "fin-to-seqstar": ("const-empty", "pair-id-order", "support-only", "random"),
    "seq-to-power": ("atoms-of-input", "const-empty", "random"),
    "nat-to-power": ("first-n-atoms", "const-empty", "random"),
    "unordered-to-ordered": (
        "base-id-order",
        "const-pair",
        "decorated",
        "stray-per-pair",
        "random",
    ),
}

EXTRACT_ORACLES: Dict[str, Tuple[str, ...]] = {
    "fin-to-atom": ("fresh-max", "max-or-zero"),
    "seqstar-to-seq": ("fresh-block", "same-set-reversed", "const-empty"),
    "surplus": ("shift-encode", "const"),
    "partition": ("fresh-singleton", "const"),
}


ENGINE_MODEL = {
    "fin-to-seq": "fraenkel",
    "fin-to-seqstar": "fraenkel",
    "seq-to-power": "fraenkel",
    "nat-to-power": "fraenkel",
    "unordered-to-ordered": "vp",
    "fin-to-atom": "mostowski",
    "seqstar-to-seq": "mostowski",
    "surplus": "zf",
    "partition": "zf",
}

ENGINE_DOMAINS = {
    "fin-to-seq": lambda: (FinDom(AtomsDom()), SeqDom()),
    "fin-to-seqstar": lambda: (FinDom(AtomsDom()), SeqStarDom()),
    "seq-to-power": lambda: (SeqDom(), PowDom()),
    "nat-to-power": lambda: (NatDom(), PowDom()),
    "unordered-to-ordered": lambda: (
        UnordPairsDom(AtomsDom()),
        PairDom(AtomsDom(), AtomsDom()),
    ),
}


def build_refute_oracle(
    engine: str,
    name: str,
    support_size: int = 0,
    seed: int = 0,
):
    """Structure, support and oracle for a named refutation adversary."""
    rng = random.Random(seed)
    if engine in ("fin-to-seq", "fin-to-seqstar", "seq-to-power", "nat-to-power"):
        structure = PureSetStructure(support_size)
        support = tuple(structure.atoms())
        builder = {
            "fin-to-seq": fin_to_seq_oracle,
            "fin-to-seqstar": fin_to_seqstar_oracle,
            "seq-to-power": seq_to_power_oracle,
            "nat-to-power": nat_to_power_oracle,
        }[engine]
        return structure, support, builder(name, structure, support, rng)
    if engine == "unordered-to-ordered":
        structure = PairStructure(0)
        support = tuple(structure.fresh(support_size))
        return structure, support, unordered_to_ordered_oracle(name, structure, support, rng)
    raise KeyError(engine)


def scripted_refute_oracle(engine: str, data: dict):
    """Oracle backed by a table file: {"structure": ..., "support": [...],
    "table": [[query, answer], ...]} with the usual JSON encodings."""
    structure = structure_from_json(data["structure"])
    support = tuple(atom_from_json(a) for a in data.get("support", []))
    table = {
        hf_from_json(x, structure): hf_from_json(y, structure)
        for x, y in data["table"]
    }
    for value in list(table) + list(table.values()):
        if isinstance(value, SupportedSubset):
            continue
        for atom in atoms_of(value):
            structure.materialise(atom)
    dom, cod = ENGINE_DOMAINS[engine]()
    oracle = oracle_from_table(
        table, dom, cod, support=support, structure=structure, name="scripted"
    )
    return structure, support, oracle
