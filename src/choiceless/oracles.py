"""The engine registry and the built-in oracles.

Every engine the lab runs is declared once, in `ENGINES`: how to run
it, the model it argues in, its domain and codomain, its built-in
oracles and, for a refutation engine, its built-in support sizes and
the answer pool of its exhaustive search.  Each built-in oracle is one
`Builtin` entry there, honest or a cheat, and `builtin_oracle` is the
only way to build one.  The CLI, the checks and the tests read this
table and nothing else.

A built-in oracle is just an `InjectionOracle` whose function closes
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


class Builtin(NamedTuple):
    """A built-in oracle.  `honest` says whether it is a genuine injection;
    `answers(structure, support, rng, *params)` gives its answer
    function.  It runs only when the oracle is built, since it may
    materialise atoms."""

    honest: bool
    answers: Callable


def _by_payload(atoms) -> List[Atom]:
    return sorted(atoms, key=lambda a: a.payload)


_CONST_EMPTY = Builtin(False, lambda *_: lambda x: hftuple(()))


def _random(n_fresh: int, pool: Callable) -> Callable:
    """A seeded random adversary: each answer is drawn from
    `pool(structure, E, extra)`, with `extra` the `n_fresh` fresh atoms."""

    def answers(structure, support, rng):
        E = list(support)
        offered = pool(structure, E, structure.fresh(n_fresh, avoid=E))
        return lambda x: rng.choice(offered)

    return answers


def _first_n_atoms(structure, support, rng):
    pool = structure.fresh(16, avoid=support)
    return lambda n: SupportedSubset.of_atoms(structure, pool[: min(n, 16)]) if n else SupportedSubset.empty(structure)


def _const_pair(structure, support, rng):
    z = structure.fresh(2, avoid=support)
    return lambda x: hftuple(z)


def _decorated(structure, support, rng):
    def fn(x):
        a, b = _by_payload(x)
        return hftuple(structure.pair_atom(1, a, b, 0), a)

    return fn


def _stray_per_pair(structure, support, rng):
    strays = structure.fresh(64, avoid=support)
    calls = itertools.count(1)
    return lambda x: hftuple(strays[next(calls) % 64], _by_payload(x)[0])


def _pair_random(structure, support, rng):
    pool = structure.fresh(3, avoid=support)

    def fn(x):
        a, b = _by_payload(x)
        options = [*support, *pool, a, b, structure.pair_atom(1, a, b, rng.choice((0, 1)))]
        return hftuple(rng.choice(options), rng.choice(options))

    return fn


def _fresh_singleton(structure, support, rng, ground):
    order = sorted(ground)
    calls = itertools.count(4)
    return lambda p: frozenset({order[next(calls) % len(order)]})


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
            alphabet = _by_payload(set(support) | set(getattr(x, "items", x)) | {outsider})
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
    `universe(n)` gives a structure and an n-atom support, and `oracles`
    names the built-in oracles over them.
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
    oracles: Dict[str, Builtin]
    run: Callable
    universe: Callable[[int], tuple] = _pure_set
    sizes: Tuple[int, ...] = (0, 1)
    random_trials: bool = True
    pool: Optional[Callable] = None
    shared_pool: bool = False


class ExtractSpec(NamedTuple):
    """An omega-sequence extractor.  `run(name, T, copies)` streams T
    values from the named built-in oracle; `copies` is the surplus
    engine's n, and `domains` and the oracles' `answers` take the
    oracle's parameters."""

    model: str
    domains: Callable[..., Tuple[Domain, Domain]]
    oracles: Dict[str, Builtin]
    run: Callable


def _extract_seqstar(name: str, T: int, copies: int):
    structure = DenseOrderStructure()
    oracle = builtin_oracle("seqstar-to-seq", name, structure)
    return refute.extract_seqstar_to_seq(oracle, structure.atom(0), T)


def _extract_partition(name: str, T: int, copies: int):
    ground = list(range(T + 28))
    oracle = builtin_oracle("partition", name, params=(frozenset(ground),))
    return refute.extract_from_partition_injection(oracle, ground, ground[:4], T)


ENGINES: Dict[str, object] = {
    "fin-to-seq": RefuteSpec(
        "fraenkel",
        lambda: (FinDom(AtomsDom()), SeqDom()),
        {
            "sort": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "const-empty": _CONST_EMPTY,
            "support-only": Builtin(
                False, lambda s, E, rng: lambda x: hftuple(E[: min(len(E), len(x.items) % (len(E) + 1))])
            ),
            "random": Builtin(False, _random(4, lambda s, E, extra: _seqs_up_to(E + extra, 2))),
        },
        run=lambda o, **_: refute.refute_fin_to_seq_fraenkel(o),
        pool=_sequence_pool(_seqs_up_to),
    ),
    "fin-to-seqstar": RefuteSpec(
        "fraenkel",
        lambda: (FinDom(AtomsDom()), SeqStarDom()),
        {
            "const-empty": _CONST_EMPTY,
            "pair-id-order": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "support-only": Builtin(False, lambda s, E, rng: lambda x: hftuple(E * 2)),
            "random": Builtin(False, _random(4, lambda s, E, extra: _tuples_up_to(E + extra, 2))),
        },
        run=lambda o, **_: refute.refute_fin_to_seqstar_fraenkel(o),
        pool=_sequence_pool(_tuples_up_to),
    ),
    "seq-to-power": RefuteSpec(
        "fraenkel",
        lambda: (SeqDom(), PowDom()),
        {
            "atoms-of-input": Builtin(False, lambda s, *_: lambda x: SupportedSubset.of_atoms(s, list(x))),
            "const-empty": Builtin(False, lambda s, *_: lambda x: SupportedSubset.empty(s)),
            "random": Builtin(
                False, _random(1, lambda s, E, extra: _subsets_over(s, [(), E[:1], E[:2], extra, E[:1] + extra]))
            ),
        },
        run=lambda o, **_: refute.refute_seq_to_power_fraenkel(o),
        sizes=(4,),
    ),
    "nat-to-power": RefuteSpec(
        "fraenkel",
        lambda: (NatDom(), PowDom()),
        {
            "first-n-atoms": Builtin(True, _first_n_atoms),
            "const-empty": Builtin(False, lambda s, *_: lambda n: SupportedSubset.empty(s)),
            "random": Builtin(
                False, _random(2, lambda s, E, extra: _subsets_over(s, [(), E[:1], extra[:1], E[:1] + extra[:1]]))
            ),
        },
        run=lambda o, **_: refute.refute_nat_to_power_fraenkel(o),
        pool=_nat_power_pool,
        shared_pool=True,
    ),
    "unordered-to-ordered": RefuteSpec(
        "vp",
        lambda: (UnordPairsDom(AtomsDom()), PairDom(AtomsDom(), AtomsDom())),
        {
            "base-id-order": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "const-pair": Builtin(False, _const_pair),
            "decorated": Builtin(True, _decorated),
            "stray-per-pair": Builtin(True, _stray_per_pair),
            "random": Builtin(False, _pair_random),
        },
        run=lambda o, **kw: refute.refute_unordered_to_ordered_pairmodel(o, **kw),
        universe=_pair_model,
        sizes=(0,),
        random_trials=False,
    ),
    "fin-to-atom": ExtractSpec(
        "mostowski",
        lambda: (FinDom(AtomsDom()), AtomsDom()),
        {
            "fresh-max": Builtin(
                True, lambda s, *_: lambda x: s.atom(max((a.payload for a in x), default=Fraction(-1)) + 1)
            ),
            "max-or-zero": Builtin(
                False, lambda s, *_: lambda x: s.atom(max((a.payload for a in x), default=Fraction(0)))
            ),
        },
        run=lambda name, T, copies: refute.extract_fin_to_atom_mostowski(
            builtin_oracle("fin-to-atom", name, DenseOrderStructure()), T
        ),
    ),
    "seqstar-to-seq": ExtractSpec(
        "mostowski",
        lambda: (SeqStarDom(), SeqDom()),
        {
            "fresh-block": Builtin(
                True, lambda s, *_: lambda x: hftuple([s.atom(100 + i) for i in range(1, len(x.items) + 1)])
            ),
            "same-set-reversed": Builtin(
                True, lambda s, *_: lambda x: hftuple([s.atom(100 + i) for i in range(len(x.items), 0, -1)])
            ),
            "const-empty": _CONST_EMPTY,
        },
        run=_extract_seqstar,
    ),
    "surplus": ExtractSpec(
        "zf",
        lambda n: (LabeledNatSetDom(n + 1), LabeledNatSetDom(max(n, 1))),
        {
            "shift-encode": Builtin(True, lambda s, E, rng, n: lambda x: (0, frozenset({x[0]} | {v + n + 2 for v in x[1]}))),
            "const": Builtin(False, lambda *_: lambda x: (0, frozenset())),
        },
        run=lambda name, T, copies: refute.extract_from_surplus(
            copies, builtin_oracle("surplus", name, params=(copies,)), T
        ),
    ),
    "partition": ExtractSpec(
        "zf",
        lambda ground: (PartitionDom(ground), SubsetDom(ground)),
        {
            "fresh-singleton": Builtin(True, _fresh_singleton),
            "const": Builtin(False, lambda s, E, rng, ground: lambda p: frozenset({min(ground)})),
        },
        run=_extract_partition,
    ),
}

REFUTE: Dict[str, RefuteSpec] = {e: s for e, s in ENGINES.items() if isinstance(s, RefuteSpec)}
EXTRACT: Dict[str, ExtractSpec] = {e: s for e, s in ENGINES.items() if isinstance(s, ExtractSpec)}


def builtin_oracle(engine: str, name: str, structure=None, support=(), rng=None, params=()) -> InjectionOracle:
    """The engine's built-in oracle `name` over a structure and support,
    with its domains from the spec.  An unknown name raises KeyError."""
    spec = ENGINES[engine]
    fn = spec.oracles[name].answers(structure, support, rng, *params)
    dom, cod = spec.domains(*params)
    return InjectionOracle(fn, dom, cod, support=support, structure=structure, name=name)


def build_refute_oracle(
    engine: str,
    name: str,
    support_size: int = 0,
    seed: int = 0,
):
    """Structure, support and oracle for a named refutation adversary."""
    structure, support = REFUTE[engine].universe(support_size)
    return structure, support, builtin_oracle(engine, name, structure, support, random.Random(seed))


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
