"""The engine registry and the built-in oracles.

Every engine the lab runs is declared once, in `ENGINES`: how to run
it, the model it argues in, its domain and codomain, its built-in
oracles (each honest or a cheat) and, for a refutation engine, its
built-in support sizes and the answer pool of its exhaustive search.
The CLI, the checks and the tests read this table and nothing else.

An oracle built here is just an `InjectionOracle` whose function closes
over a structure.  An honest oracle is a genuine injection: an
extractor must stream from it, and a refutation engine can defeat it
only by an equivariance break.  Random adversaries draw answers from a
curated pool; the oracle memo makes them stable, so a seeded adversary
is a total table revealed lazily.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import refute
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
    Domain,
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


def _oracle(engine: str, name: str, fn, structure=None, support=(), params=()) -> InjectionOracle:
    dom, cod = ENGINES[engine].domains(*params)
    return InjectionOracle(fn, dom, cod, support=support, structure=structure, name=name)


def fin_to_seq_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
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
    return _oracle("fin-to-seq", name, fn, structure, E)


def fin_to_seqstar_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
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
    return _oracle("fin-to-seqstar", name, fn, structure, E)


def seq_to_power_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
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
    return _oracle("seq-to-power", name, fn, structure, E)


def nat_to_power_oracle(name: str, structure: PureSetStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
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
    return _oracle("nat-to-power", name, fn, structure, E)


def unordered_to_ordered_oracle(name: str, structure: PairStructure, support: Sequence[Atom], rng=None) -> InjectionOracle:
    E = list(support)
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
    return _oracle("unordered-to-ordered", name, fn, structure, E)


def fin_to_atom_oracle(name: str, structure: DenseOrderStructure, rng=None) -> InjectionOracle:
    if name == "fresh-max":
        def fn(x):
            top = max((a.payload for a in x), default=Fraction(-1))
            return structure.atom(top + 1)
    elif name == "max-or-zero":
        fn = lambda x: structure.atom(max((a.payload for a in x), default=Fraction(0)))
    else:
        raise KeyError(name)
    return _oracle("fin-to-atom", name, fn, structure)


def seqstar_to_seq_oracle(name: str, structure: DenseOrderStructure, rng=None) -> InjectionOracle:
    if name == "fresh-block":
        fn = lambda x: hftuple([structure.atom(100 + i) for i in range(1, len(x.items) + 1)])
    elif name == "same-set-reversed":
        fn = lambda x: hftuple([structure.atom(100 + i) for i in range(len(x.items), 0, -1)])
    elif name == "const-empty":
        fn = lambda x: hftuple(())
    else:
        raise KeyError(name)
    return _oracle("seqstar-to-seq", name, fn, structure)


def surplus_oracle(name: str, n: int, rng=None) -> InjectionOracle:
    if name == "shift-encode":
        def fn(x):
            l, s = x
            return (0, frozenset({l} | {v + n + 2 for v in s}))
    elif name == "const":
        fn = lambda x: (0, frozenset())
    else:
        raise KeyError(name)
    return _oracle("surplus", name, fn, params=(n,))


def partition_oracle(name: str, ground: Sequence[int], rng=None) -> InjectionOracle:
    gset = frozenset(ground)
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
    return _oracle("partition", name, fn, params=(gset,))


# ---------------------------------------------------------------------------
# the engine registry


def _pure_set(n: int):
    structure = PureSetStructure(n)
    return structure, tuple(structure.atoms())


def _pair_model(n: int):
    structure = PairStructure(0)
    return structure, tuple(structure.fresh(n))


def _sequence_pool(tuples):
    def make(structure, support):
        outsider = structure.fresh(1)[0]

        def answers(x):
            alphabet = sorted(
                set(support) | set(getattr(x, "items", x)) | {outsider},
                key=lambda a: a.payload,
            )
            return tuples(alphabet, 2)

        return answers

    return make


def _nat_power_pool(structure, support):
    outsider = structure.fresh(1)[0]
    pool = _subsets_over(structure, [(), support[:1], (outsider,), support[:1] + (outsider,)])
    return lambda n: pool


class RefuteSpec(NamedTuple):
    """A refutation engine.

    `run(oracle, budget=...)` gives the engine's witness; only the pair
    engine reads `budget`, its sample size.  It reaches the engine by
    its name in `refute` when called, never through a stored reference.
    `universe(n)` gives a structure and an n-atom support, and
    `oracle(name, structure, support, rng)` a built-in oracle over them.
    The built-in checks run every size in `sizes`; the CLI defaults to
    the first, and random trial t uses `sizes[t % len(sizes)]`.
    `random_trials` puts the engine in the seeded random-table check.

    A `pool` puts it in the exhaustive check: `pool(structure, support)`
    adds what the answer pool needs to a fresh structure and gives the
    probe -> offered answers function.  A `shared_pool` never mentions
    an atom that a probe names first, so one structure serves the whole
    search and its canonical forms are computed once."""

    model: str
    domains: Callable[[], Tuple[Domain, Domain]]
    oracles: Dict[str, bool]
    run: Callable
    oracle: Callable[..., InjectionOracle]
    universe: Callable[[int], tuple] = _pure_set
    sizes: Tuple[int, ...] = (0, 1)
    random_trials: bool = True
    pool: Optional[Callable] = None
    shared_pool: bool = False


class ExtractSpec(NamedTuple):
    """An omega-sequence extractor.  `run(name, T, copies)` streams T
    values from the named built-in oracle; `copies` is the surplus
    engine's n, and `domains` takes the oracle's parameters."""

    model: str
    domains: Callable[..., Tuple[Domain, Domain]]
    oracles: Dict[str, bool]
    run: Callable


def _extract_seqstar(name: str, T: int, copies: int):
    structure = DenseOrderStructure()
    return refute.extract_seqstar_to_seq(seqstar_to_seq_oracle(name, structure), structure.atom(0), T)


def _extract_partition(name: str, T: int, copies: int):
    ground = list(range(T + 28))
    return refute.extract_from_partition_injection(partition_oracle(name, ground), ground, ground[:4], T)


ENGINES: Dict[str, object] = {
    "fin-to-seq": RefuteSpec(
        "fraenkel",
        lambda: (FinDom(AtomsDom()), SeqDom()),
        {"sort": True, "const-empty": False, "support-only": False, "random": False},
        run=lambda o, **_: refute.refute_fin_to_seq_fraenkel(o),
        oracle=fin_to_seq_oracle,
        pool=_sequence_pool(_seqs_up_to),
    ),
    "fin-to-seqstar": RefuteSpec(
        "fraenkel",
        lambda: (FinDom(AtomsDom()), SeqStarDom()),
        {"const-empty": False, "pair-id-order": True, "support-only": False, "random": False},
        run=lambda o, **_: refute.refute_fin_to_seqstar_fraenkel(o),
        oracle=fin_to_seqstar_oracle,
        pool=_sequence_pool(_tuples_up_to),
    ),
    "seq-to-power": RefuteSpec(
        "fraenkel",
        lambda: (SeqDom(), PowDom()),
        {"atoms-of-input": False, "const-empty": False, "random": False},
        run=lambda o, **_: refute.refute_seq_to_power_fraenkel(o),
        oracle=seq_to_power_oracle,
        sizes=(4,),
    ),
    "nat-to-power": RefuteSpec(
        "fraenkel",
        lambda: (NatDom(), PowDom()),
        {"first-n-atoms": True, "const-empty": False, "random": False},
        run=lambda o, **_: refute.refute_nat_to_power_fraenkel(o),
        oracle=nat_to_power_oracle,
        pool=_nat_power_pool,
        shared_pool=True,
    ),
    "unordered-to-ordered": RefuteSpec(
        "vp",
        lambda: (UnordPairsDom(AtomsDom()), PairDom(AtomsDom(), AtomsDom())),
        {"base-id-order": True, "const-pair": False, "decorated": True, "stray-per-pair": True, "random": False},
        run=lambda o, **kw: refute.refute_unordered_to_ordered_pairmodel(o, **kw),
        oracle=unordered_to_ordered_oracle,
        universe=_pair_model,
        sizes=(0,),
        random_trials=False,
    ),
    "fin-to-atom": ExtractSpec(
        "mostowski",
        lambda: (FinDom(AtomsDom()), AtomsDom()),
        {"fresh-max": True, "max-or-zero": False},
        run=lambda name, T, copies: refute.extract_fin_to_atom_mostowski(
            fin_to_atom_oracle(name, DenseOrderStructure()), T
        ),
    ),
    "seqstar-to-seq": ExtractSpec(
        "mostowski",
        lambda: (SeqStarDom(), SeqDom()),
        {"fresh-block": True, "same-set-reversed": True, "const-empty": False},
        run=_extract_seqstar,
    ),
    "surplus": ExtractSpec(
        "zf",
        lambda n: (LabeledNatSetDom(n + 1), LabeledNatSetDom(max(n, 1))),
        {"shift-encode": True, "const": False},
        run=lambda name, T, copies: refute.extract_from_surplus(copies, surplus_oracle(name, copies), T),
    ),
    "partition": ExtractSpec(
        "zf",
        lambda ground: (PartitionDom(ground), SubsetDom(ground)),
        {"fresh-singleton": True, "const": False},
        run=_extract_partition,
    ),
}

REFUTE: Dict[str, RefuteSpec] = {e: s for e, s in ENGINES.items() if isinstance(s, RefuteSpec)}
EXTRACT: Dict[str, ExtractSpec] = {e: s for e, s in ENGINES.items() if isinstance(s, ExtractSpec)}


def build_refute_oracle(
    engine: str,
    name: str,
    support_size: int = 0,
    seed: int = 0,
):
    """Structure, support and oracle for a named refutation adversary."""
    spec = REFUTE[engine]
    structure, support = spec.universe(support_size)
    return structure, support, spec.oracle(name, structure, support, random.Random(seed))


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
    dom, cod = ENGINES[engine].domains()
    oracle = oracle_from_table(
        table, dom, cod, support=support, structure=structure, name="scripted"
    )
    return structure, support, oracle
