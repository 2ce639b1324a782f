"""The engine registry and the built-in oracles.

Every engine the lab runs is declared once, in `ENGINES`: how to run
it, its domain and codomain, its built-in oracles and, for a refutation
engine, the universe it argues in, its built-in support sizes and the
answer pool of its exhaustive search.  Each built-in oracle is one
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

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import refute
from .atoms import (
    CAPS,
    Atom,
    BudgetExceeded,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    StructureMismatch,
    atom_from_json,
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
from .refute import InjectionOracle, OracleAnswerError, Refuted, WitnessInvalid
from .symsets import SupportedSubset, count_supported


def _up_to(words: Callable) -> Callable[[Sequence[Atom], int], Tuple[Callable, List[tuple]]]:
    """The pool of every tuple `words(atoms, k)` gives for k up to a length, shortest first."""
    return lambda atoms, max_len: (HFTuple, [p for k in range(max_len + 1) for p in words(atoms, k)])


_seqs_up_to = _up_to(itertools.permutations)
_tuples_up_to = _up_to(lambda atoms, k: itertools.product(atoms, repeat=k))


def _subsets_over(structure, supports: Sequence[Sequence[Atom]]) -> Tuple[Callable, List[tuple]]:
    """The pool of every subset over each support in turn, by bits."""
    keys = [(tuple(sup), bits) for sup in supports for bits in range(count_supported(structure, sup))]
    return lambda key: SupportedSubset.from_bits(structure, *key), keys


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
    """A seeded random adversary: each answer is drawn from the pool
    `pool(structure, E, extra)`, with `extra` the `n_fresh` fresh atoms.
    A pool is the function that builds a key's answer and a list of keys,
    so only drawn answers are built, each once; `rng.choice` reads only
    the number of keys, so it draws as from the list of answers."""

    def answers(structure, support, rng):
        E = list(support)
        build, keys = pool(structure, E, structure.fresh(n_fresh, avoid=E))
        build = functools.lru_cache(maxsize=None)(build)
        return lambda x: build(rng.choice(keys))

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


def _sequence_pool(tuples):
    def make(structure, support):
        outsider = structure.fresh(1)[0]

        def answers(x):
            alphabet = _by_payload(set(support) | set(getattr(x, "items", x)) | {outsider})
            return list(map(*tuples(alphabet, 2)))

        return answers

    return make


def _nat_power_pool(structure, support):
    outsider = structure.fresh(1)[0]
    pool = list(map(*_subsets_over(structure, [(), support[:1], (outsider,), support[:1] + (outsider,)])))
    return lambda n: pool


class RefuteSpec(NamedTuple):
    """A refutation engine.

    `run(oracle, budget=...)` is the one way to run it: it refuses an
    oracle over another universe than `structure` before the first
    probe, and gives the witness whose `Refuted` ends the run.  Only the
    pair engine reads `budget`, its sample size.  `engine` reaches the
    engine's body by its name in `refute` when called, never through a
    stored reference.  `structure` is the class of the universe the
    engine argues in, whose `model` it refutes in; a scripted table over
    another is refused too.
    `universe(n)` gives a new structure of it and an n-atom support, and
    `oracles` names the built-in oracles over them.
    The built-in checks run every size in `sizes`; the CLI defaults to
    the first, and random trial t uses `sizes[t % len(sizes)]`.
    `random_trials` puts the engine in the seeded random-table check.

    A `pool` puts it in the exhaustive check: `pool(structure, support)`
    adds what the answer pool needs to a fresh structure and gives the
    probe -> offered answers function, whose answers the check groups by
    value.  One structure serves the whole search: the pooled engines
    run over the bare set and take every atom from `probe_atoms`, which
    there gives the smallest ids a run does not avoid, materialised or
    not, so each run sees the atoms that a new structure would give it."""

    domains: Callable[[], Tuple[Domain, Domain]]
    oracles: Dict[str, Builtin]
    engine: Callable
    structure: type = PureSetStructure
    sizes: Tuple[int, ...] = (0, 1)
    random_trials: bool = True
    pool: Optional[Callable] = None

    def universe(self, n: int):
        structure = self.structure(n)
        return structure, tuple(structure.atoms())

    def run(self, oracle: InjectionOracle, **kw):
        if not isinstance(oracle.structure, self.structure):
            raise StructureMismatch(
                f"the engine argues over {self.structure.__name__}, not {type(oracle.structure).__name__}"
            )
        try:
            return self.engine(oracle, **kw)
        except Refuted as done:
            return done.witness


class ExtractSpec(NamedTuple):
    """An omega-sequence extractor.  `run(name, T, copies)` streams T
    values from the named built-in oracle; `copies` is the surplus
    engine's n, and `domains` and the oracles' `answers` take the
    oracle's parameters."""

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
        lambda: (FinDom(AtomsDom()), SeqDom()),
        {
            "sort": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "const-empty": _CONST_EMPTY,
            "support-only": Builtin(
                False, lambda s, E, rng: lambda x: hftuple(E[: min(len(E), len(x.items) % (len(E) + 1))])
            ),
            "random": Builtin(False, _random(4, lambda s, E, extra: _seqs_up_to(E + extra, 2))),
        },
        engine=lambda o, **_: refute.refute_fin_to_seq_fraenkel(o),
        pool=_sequence_pool(_seqs_up_to),
    ),
    "fin-to-seqstar": RefuteSpec(
        lambda: (FinDom(AtomsDom()), SeqStarDom()),
        {
            "const-empty": _CONST_EMPTY,
            "pair-id-order": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "support-only": Builtin(False, lambda s, E, rng: lambda x: hftuple(E * 2)),
            "random": Builtin(False, _random(4, lambda s, E, extra: _tuples_up_to(E + extra, 2))),
        },
        engine=lambda o, **_: refute.refute_fin_to_seqstar_fraenkel(o),
        pool=_sequence_pool(_tuples_up_to),
    ),
    "seq-to-power": RefuteSpec(
        lambda: (SeqDom(), PowDom()),
        {
            "atoms-of-input": Builtin(False, lambda s, *_: lambda x: SupportedSubset.of_atoms(s, list(x))),
            "const-empty": Builtin(False, lambda s, *_: lambda x: SupportedSubset.empty(s)),
            "random": Builtin(
                False, _random(1, lambda s, E, extra: _subsets_over(s, [(), E[:1], E[:2], extra, E[:1] + extra]))
            ),
        },
        engine=lambda o, **_: refute.refute_seq_to_power_fraenkel(o),
        sizes=(4,),
    ),
    "nat-to-power": RefuteSpec(
        lambda: (NatDom(), PowDom()),
        {
            "first-n-atoms": Builtin(True, _first_n_atoms),
            "const-empty": Builtin(False, lambda s, *_: lambda n: SupportedSubset.empty(s)),
            "random": Builtin(
                False, _random(1, lambda s, E, extra: _subsets_over(s, [(), E[:1], extra, E[:1] + extra]))
            ),
        },
        engine=lambda o, **_: refute.refute_nat_to_power_fraenkel(o),
        pool=_nat_power_pool,
    ),
    "unordered-to-ordered": RefuteSpec(
        lambda: (UnordPairsDom(AtomsDom()), PairDom(AtomsDom(), AtomsDom())),
        {
            "base-id-order": Builtin(True, lambda *_: lambda x: hftuple(_by_payload(x))),
            "const-pair": Builtin(False, _const_pair),
            "decorated": Builtin(True, _decorated),
            "stray-per-pair": Builtin(True, _stray_per_pair),
            "random": Builtin(False, _pair_random),
        },
        engine=lambda o, **kw: refute.refute_unordered_to_ordered_pairmodel(o, **kw),
        structure=PairStructure,
        sizes=(0,),
        random_trials=False,
    ),
    "fin-to-atom": ExtractSpec(
        lambda: (FinDom(AtomsDom()), AtomsDom()),
        {
            "fresh-max": Builtin(
                True, lambda s, *_: lambda x: s.atom(max((a.payload for a in x.members), default=Fraction(-1)) + 1)
            ),
            "max-or-zero": Builtin(
                False, lambda s, *_: lambda x: s.atom(max((a.payload for a in x.members), default=Fraction(0)))
            ),
        },
        run=lambda name, T, copies: refute.extract_fin_to_atom_mostowski(
            builtin_oracle("fin-to-atom", name, DenseOrderStructure()), T
        ),
    ),
    "seqstar-to-seq": ExtractSpec(
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


def extract(engine: str, name: str, T: int, copies: int = 1):
    """T values streamed by the extractor from its built-in oracle `name`;
    a T past the `stream_length` cap is refused before anything runs."""
    if T > CAPS["stream_length"]:
        raise BudgetExceeded("stream_length", T, f"a stream of {T} values", "values")
    return EXTRACT[engine].run(name, T, copies)


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
    """Structure, support and oracle for a named refutation adversary, up to the `support` cap."""
    if support_size > CAPS["support"]:
        raise BudgetExceeded("support", support_size, f"a {support_size}-atom support", "atoms")
    structure, support = REFUTE[engine].universe(support_size)
    return structure, support, builtin_oracle(engine, name, structure, support, random.Random(seed))


def scripted_refute_oracle(engine: str, data: dict):
    """Oracle backed by a table file: {"structure": ..., "support": [...],
    "table": [[query, answer], ...]} with the usual JSON encodings.  A
    structure of another universe than the engine's is refused first."""
    cls, kind = REFUTE[engine].structure, data["structure"]["kind"]
    if kind != cls.json_tag:
        raise ValueError(f"{engine} argues over {cls.json_tag!r} structures, not {kind!r}")
    structure = cls.from_json(data["structure"])
    support = tuple(atom_from_json(a) for a in data.get("support", []))
    table = {
        hf_from_json(x, structure): hf_from_json(y, structure)
        for x, y in data["table"]
    }
    # refused unless of the table's universe; a subset's support was checked by its `from_json`
    for value in [*support, *table, *table.values()]:
        for atom in atoms_of(value):
            structure.materialise(atom)

    def fn(x):
        try:
            return table[x]
        except KeyError:
            raise OracleAnswerError(f"scripted table has no entry for {x!r}")

    dom, cod = REFUTE[engine].domains()
    oracle = InjectionOracle(fn, dom, cod, support=support, structure=structure, name="scripted")
    return structure, support, oracle


def replay_witness(data: dict) -> bool:
    """Re-check a certificate file.  Its transcript is the table of the
    engine's scripted oracle, and each input is queried in order, so the
    engine's domains, the codomain and universe checks and collapse
    detection run as they do in process; the witness is then verified
    against the replayed transcript.  Raises on the first failed check."""
    if data["engine"] not in REFUTE:
        raise WitnessInvalid(f"unknown engine {data['engine']!r}")
    structure, support, oracle = scripted_refute_oracle(data["engine"], {**data, "table": data["transcript"]})
    for x, _ in data["transcript"]:
        try:
            oracle.query(hf_from_json(x, structure))
        except Refuted:  # a collapse, verified; the replay goes on
            pass
    witness = refute.witness_from_json(data["witness"], structure, support)
    return refute.verify_witness(witness, structure, support, oracle.transcript)
