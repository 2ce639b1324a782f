"""Executable refutation engines and omega-sequence extractors.

Each engine interrogates a purported supported injection through an
oracle interface and either returns a contradiction witness that
re-verifies against the query transcript, or streams provably distinct
values.  Oracles are adversarial and lazy: a witness is a finite
certificate that only ever cites probed values, so it is independent of
the oracle's unqueried behaviour.
"""

from __future__ import annotations

import functools
import itertools
from math import ceil, factorial, log2
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .atoms import (
    Atom,
    AtomStructure,
    MissingImage,
    PairStructure,
    PartialAutomorphism,
    atom_from_json,
    atom_to_json,
    extend_fixing,
    extendable,
    structure_from_json,
)
from .cardtable import ramsey_upper
from .constructions import (
    Domain,
    HFSet,
    HFTuple,
    act,
    atoms_of,
    hf_from_json,
    hf_key,
    hf_to_json,
    hfset,
    hftuple,
)
from .symsets import SupportedSubset, least_support


class OracleAnswerError(ValueError):
    """Oracle produced a value outside its declared codomain."""


class EngineBug(RuntimeError):
    """An engine exceeded its probe bound without producing a witness."""


class WitnessInvalid(AssertionError):
    """A contradiction witness failed re-verification."""


class Refuted(Exception):
    """A verified witness ends the engine run; `.witness` carries it."""

    def __init__(self, witness):
        super().__init__(witness)
        self.witness = witness


def oracle_key(x):
    if isinstance(x, (HFTuple, HFSet, Atom)):
        return ("hf", hf_key(x))
    if isinstance(x, SupportedSubset):
        return ("ss", x.canonical_key())
    if isinstance(x, bool):
        raise TypeError("booleans are not oracle values")
    if isinstance(x, int):
        return ("n", x)
    if isinstance(x, tuple):
        return ("tu",) + tuple(oracle_key(i) for i in x)
    if isinstance(x, frozenset):
        return ("fs", tuple(sorted(oracle_key(i) for i in x)))
    raise TypeError(f"no canonical key for {x!r}")


class InjectionOracle:
    """Query interface to a purported injection, with a transcript.

    Answers are memoised, so the oracle is automatically stable; every
    answer is checked against the declared codomain before it enters the
    transcript.  The oracle remembers the first input behind each answer,
    so it is where collapses are found: a new input whose answer repeats
    an earlier one raises `Refuted` with the verified collapse.
    """

    def __init__(
        self,
        fn: Callable,
        domain: Domain,
        codomain: Domain,
        support: Sequence[Atom] = (),
        structure: Optional[AtomStructure] = None,
        name: str = "oracle",
    ):
        self.fn = fn
        self.domain = domain
        self.codomain = codomain
        self.support = tuple(support)
        self.structure = structure
        self.name = name
        self.transcript: List[Tuple[object, object]] = []
        self._memo: Dict[tuple, object] = {}
        self._first: Dict[tuple, object] = {}

    def query(self, x):
        key = oracle_key(x)
        if key in self._memo:
            return self._memo[key]
        if not self.domain.contains(x, self.structure):
            raise OracleAnswerError(f"query {x!r} outside domain {self.domain!r}")
        y = self.fn(x)
        if not self.codomain.contains(y, self.structure):
            raise OracleAnswerError(
                f"{self.name} answered {y!r} outside {self.codomain!r}"
            )
        self._memo[key] = y
        self.transcript.append((x, y))
        first = self._first.setdefault(oracle_key(y), x)
        if first is not x:
            raise Refuted(_checked(InjectivityCollapse(first, x, y), self))
        return y

    def probes(self) -> int:
        return len(self.transcript)


def oracle_from_table(table: Dict, *args, **kwargs) -> InjectionOracle:
    keyed = {oracle_key(x): y for x, y in table.items()}

    def fn(x):
        try:
            return keyed[oracle_key(x)]
        except KeyError:
            raise OracleAnswerError(f"scripted table has no entry for {x!r}")

    return InjectionOracle(fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# witnesses


class InjectivityCollapse:
    kind = "injectivity-collapse"

    def __init__(self, x1, x2, y):
        self.x1, self.x2, self.y = x1, x2, y
        self.details: dict = {}

    def __repr__(self):
        return f"InjectivityCollapse({self.x1!r}, {self.x2!r} -> {self.y!r})"


class EquivarianceBreak:
    kind = "equivariance-break"

    def __init__(self, pi: PartialAutomorphism, fixed, x):
        self.pi = pi
        self.fixed = tuple(fixed)
        self.x = x
        self.details: dict = {}

    def __repr__(self):
        return f"EquivarianceBreak(x={self.x!r}, pi={self.pi!r})"


class BudgetExhausted:
    kind = "budget-exhausted"

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget

    def __repr__(self):
        return f"BudgetExhausted(needed={self.needed}, budget={self.budget})"


def verify_witness(witness, structure: AtomStructure, support: Sequence[Atom], transcript) -> bool:
    """Re-check a witness against the transcript alone.  Raises
    ``WitnessInvalid`` with the failed condition, returns True otherwise."""
    answers = {oracle_key(x): (x, y) for x, y in transcript}
    if isinstance(witness, BudgetExhausted):
        return True
    if isinstance(witness, InjectivityCollapse):
        k1, k2 = oracle_key(witness.x1), oracle_key(witness.x2)
        if k1 == k2:
            raise WitnessInvalid("collapse inputs are equal")
        for k in (k1, k2):
            if k not in answers:
                raise WitnessInvalid("collapse input was never probed")
        if oracle_key(answers[k1][1]) != oracle_key(answers[k2][1]):
            raise WitnessInvalid("collapse answers differ")
        if oracle_key(answers[k1][1]) != oracle_key(witness.y):
            raise WitnessInvalid("cited common value does not match the transcript")
        return True
    if isinstance(witness, EquivarianceBreak):
        pi = witness.pi
        if not extendable(structure, pi):
            raise WitnessInvalid("cited map is not a partial automorphism")
        if not pi.fixes_pointwise(support):
            raise WitnessInvalid("cited map moves the declared support")
        kx = oracle_key(witness.x)
        if kx not in answers:
            raise WitnessInvalid("cited input was never probed")
        y = answers[kx][1]
        try:
            pix = act(pi, witness.x)
            piy = act(pi, y)
        except MissingImage:
            raise WitnessInvalid("cited map does not cover the cited objects")
        if oracle_key(pix) == kx:
            if oracle_key(piy) == oracle_key(y):
                raise WitnessInvalid("map fixes both the input and its value")
            return True
        kpix = oracle_key(pix)
        if kpix not in answers:
            raise WitnessInvalid("image input was never probed")
        if oracle_key(answers[kpix][1]) == oracle_key(piy):
            raise WitnessInvalid("oracle commutes with the cited map here")
        return True
    raise WitnessInvalid(f"unknown witness {witness!r}")


def _checked(witness, oracle: InjectionOracle):
    verify_witness(witness, oracle.structure, oracle.support, oracle.transcript)
    return witness


def refutation_engine(run):
    """Make `run` a refutation engine: the witness whose `Refuted` ends
    the run is the engine's result."""

    @functools.wraps(run)
    def engine(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except Refuted as done:
            return done.witness

    return engine


def _break(oracle: InjectionOracle, pi, x, *moved):
    """End the run with the verified equivariance break that cites pi at
    the input x, once pi's images of the objects in `moved` are
    materialised."""
    for value in moved:
        act(pi, value)
    raise Refuted(_checked(EquivarianceBreak(pi.snapshot(), oracle.support, x), oracle))


def _escape_break(oracle: InjectionOracle, x, y, used: Set[Atom], swap=()):
    """End the run with an equivariance break if the value y names an
    atom outside the support; return if it names none.  The first such
    atom is exchanged with a fresh probe atom, unless it lies in `swap`,
    a pair of input atoms whose exchange fixes x and is always made.  A
    subset names the atoms of its least support."""
    E = oracle.support
    subset = isinstance(y, SupportedSubset)
    for target in least_support(y) if subset else y:
        if target not in E:
            break
    else:
        return
    constraints = dict(zip(swap, swap[::-1]))
    if target not in swap:
        named = set(y.support) if subset else atoms_of(y)
        (z,) = oracle.structure.probe_atoms(1, used | named | {target})
        constraints.update({target: z, z: target})
    pi = extend_fixing(oracle.structure, E, constraints)
    moved = (y,) if isinstance(x, int) else (x, y)  # a natural carries no atoms
    _break(oracle, pi, x, *moved)


def seq_count(n: int) -> int:
    """Number of one-to-one finite sequences over an n-element set."""
    return sum(factorial(n) // factorial(n - k) for k in range(n + 1))


def all_seqs(items: Sequence) -> List[tuple]:
    out = []
    for k in range(len(items) + 1):
        out.extend(itertools.permutations(items, k))
    return out


# ---------------------------------------------------------------------------
# engines over the bare atom set


@refutation_engine
def refute_fin_to_seq_fraenkel(oracle: InjectionOracle):
    """Break a purported injection finite-sets -> one-to-one sequences.

    Probes the value on support-plus-a-fresh-pair inputs.  An answer that
    mentions an atom outside the support is killed by the swap of the
    fresh pair (which fixes the input setwise but moves the value); while
    answers stay inside the support they live in a finite set, so a
    repeat is forced."""
    s = oracle.structure
    E = list(oracle.support)
    used: Set[Atom] = set(E)
    for _ in range(seq_count(len(E)) + 1):
        a0, a1 = s.probe_atoms(2, used)
        used |= {a0, a1}
        x = hfset(E + [a0, a1])
        _escape_break(oracle, x, oracle.query(x), used, swap=(a0, a1))
    raise EngineBug("probe bound exhausted without witness")


@refutation_engine
def refute_fin_to_seqstar_fraenkel(oracle: InjectionOracle):
    """Break a purported injection finite-sets -> arbitrary sequences,
    probing two disjoint fresh pairs.  A value naming an atom outside the
    support dies by the pair swap; two support-only values either repeat
    (collapse) or are exchanged by the pair-to-pair map they should
    commute with."""
    s = oracle.structure
    E = list(oracle.support)
    used: Set[Atom] = set(E)

    def probe():
        nonlocal used
        p = s.probe_atoms(2, used)
        used |= set(p)
        x = hfset(p)
        y = oracle.query(x)
        _escape_break(oracle, x, y, used, swap=p)
        return p, x, y

    pair1, x1, y1 = probe()
    pair2, _, _ = probe()
    pi = extend_fixing(
        s,
        E,
        {pair1[0]: pair2[0], pair2[0]: pair1[0], pair1[1]: pair2[1], pair2[1]: pair1[1]},
    )
    _break(oracle, pi, x1, x1, y1)


@refutation_engine
def refute_seq_to_power_fraenkel(oracle: InjectionOracle):
    """Break a purported injection one-to-one-sequences -> power object.

    Enumerates every one-to-one sequence over the support; there are more
    of them than there are subsets supported by the support, so either
    two values repeat or some value needs an atom beyond the support, and
    a transposition of that atom with a fresh one breaks equivariance."""
    E = list(oracle.support)
    n = len(E)
    if n < 4:
        raise ValueError("this argument needs a support of at least 4 atoms")
    counting = {"seq_count": seq_count(n), "supported_bound": 2 * 2 ** n}
    if not counting["seq_count"] > counting["supported_bound"]:
        raise EngineBug("counting step failed; the argument does not apply")
    used: Set[Atom] = set(E)
    try:
        for entry in all_seqs(E):
            x = hftuple(entry)
            _escape_break(oracle, x, oracle.query(x), used)
    except Refuted as done:
        done.witness.details = counting
        raise
    raise EngineBug("pigeonhole failed; engine or counting is wrong")


@refutation_engine
def refute_nat_to_power_fraenkel(oracle: InjectionOracle):
    """Break a purported injection of the naturals into the power object:
    naturals are fixed by every automorphism, so a value whose least
    support escapes the declared support cannot be stable, and values
    supported by the support run out."""
    E = list(oracle.support)
    used: Set[Atom] = set(E)
    for n in range(2 ** (len(E) + 1) + 1):
        _escape_break(oracle, n, oracle.query(n), used)
    raise EngineBug("probe bound exhausted without witness")


# ---------------------------------------------------------------------------
# omega-sequence extractors


class StreamResult:
    """T pairwise-distinct extracted values, or the values emitted before
    a repeat together with the collapse report naming two probed inputs."""

    def __init__(self, values: list, collapse=None):
        self.values = values
        self.collapse = collapse

    @property
    def ok(self) -> bool:
        return self.collapse is None

    def __repr__(self):
        if self.ok:
            return f"StreamResult({len(self.values)} values)"
        return f"StreamResult(collapse={self.collapse!r})"


def extract_fin_to_atom_mostowski(oracle: InjectionOracle, count: int) -> StreamResult:
    """Iterate the value on the set of everything extracted so far; the
    inputs grow strictly, so a repeated atom convicts the oracle."""
    emitted: List[Atom] = []
    try:
        for _ in range(count):
            emitted.append(oracle.query(hfset(emitted)))
    except Refuted as done:
        return StreamResult(emitted, done.witness)
    return StreamResult(emitted)


def extract_seqstar_to_seq(oracle: InjectionOracle, marker: Atom, count: int) -> StreamResult:
    """Probe constant sequences of growing length; the one-to-one values
    over finitely many atoms run out, so new atoms keep appearing."""
    seen_atoms: List[Atom] = []
    known: Set[Atom] = set()
    n = 0
    idle = 0
    try:
        while len(seen_atoms) < count:
            y = oracle.query(hftuple([marker] * n))
            fresh = [a for a in y if a not in known]
            if fresh:
                idle = 0
                for a in fresh:
                    known.add(a)
                    seen_atoms.append(a)
            else:
                idle += 1
                if idle > seq_count(len(known)) + 1:
                    raise EngineBug("distinct one-to-one values over a finite set ran out")
            n += 1
    except Refuted as done:
        return StreamResult(seen_atoms, done.witness)
    return StreamResult(seen_atoms[:count])


def extract_from_surplus(n: int, oracle: InjectionOracle, count: int, seed=frozenset()) -> StreamResult:
    """From a purported injection (n+1) copies -> n copies of a power set,
    extract pairwise-distinct subsets: each sweep over the labelled
    current values has more inputs than available answers, so the first
    sweep without an escaping second component repeats an answer."""
    values: List[frozenset] = [seed]
    try:
        while len(values) < count:
            known = set(values)
            for value, label in itertools.product(list(values), range(n + 1)):
                y = oracle.query((label, value))
                if y[1] not in known:
                    values.append(y[1])
                    break
            else:
                raise EngineBug("sweep ended without escape or repeat")
    except Refuted as done:
        return StreamResult(values, done.witness)
    return StreamResult(values[:count])


def rgs_partitions(l: int):
    """Set partitions of range(l) as block tuples, in lexicographic order
    of their restricted-growth strings."""
    a = [0] * l
    while True:
        blocks: Dict[int, list] = {}
        for i, bi in enumerate(a):
            blocks.setdefault(bi, []).append(i)
        yield tuple(tuple(blocks[b]) for b in sorted(blocks))
        # next restricted growth string
        i = l - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, l):
                    a[j] = 0
                break
            a[i] = 0
            i -= 1
        else:
            return


def extract_from_partition_injection(
    oracle: InjectionOracle,
    ground: Sequence[int],
    distinguished: Sequence[int],
    count: int,
) -> StreamResult:
    """From a purported injection partitions -> subsets, extract
    pairwise-distinct subsets.  Starting from four singled-out points,
    each round refines the current blocks by the first probed value that
    is not a union of blocks; coarse partitions outnumber the unions, so
    the round always ends in an escape or a repeat."""
    ground = frozenset(ground)
    a = list(distinguished)[:4]
    if len(set(a)) != 4 or not set(a) < ground:
        raise ValueError("need four distinct distinguished points inside a larger ground set")
    # blocks in the order of their membership signatures over the values
    # so far: splitting each block by a new value, its part inside first,
    # keeps that order
    blocks = [frozenset({p}) for p in a] + [ground.difference(a)]
    emitted: List[frozenset] = []
    try:
        while len(emitted) < count:
            l = len(blocks)
            probes_left = 2 ** l + 2
            for q in rgs_partitions(l):
                if probes_left <= 0:
                    raise EngineBug("per-round probe bound exhausted")
                probes_left -= 1
                y = oracle.query(
                    frozenset(frozenset().union(*(blocks[i] for i in qb)) for qb in q)
                )
                if any(b & y and not b <= y for b in blocks):
                    blocks = [part for b in blocks for part in (b & y, b - y) if part]
                    emitted.append(y)
                    break
            else:
                raise EngineBug("partition supply exhausted before the pigeonhole")
    except Refuted as done:
        return StreamResult(emitted, done.witness)
    return StreamResult(emitted[:count])


# ---------------------------------------------------------------------------
# pair-model engine


def _pair_closed(E: Sequence[Atom]) -> bool:
    have = set(E)
    for e in E:
        if e.level > 0:
            _, (x, y), _ = e.payload
            if x not in have or y not in have:
                return False
    return True


@refutation_engine
def refute_unordered_to_ordered_pairmodel(
    oracle: InjectionOracle, budget: int = 8
):
    """Break a purported injection unordered-pairs -> ordered-pairs over
    the pair-model atoms.

    All pairs from a sample of fresh base atoms are probed and coloured
    by where the two value components land (a support atom, the smaller
    or larger input, another base atom, a decorated atom).  A repeated
    value collapses immediately; otherwise a colour-monochromatic triple
    drives the case split: min/max values die by swapping the pair,
    stray base atoms by a transposition with a fresh atom, decorated
    atoms by a bit flip at their level with structured fallbacks.  With a
    sample smaller than the coloring guarantee the engine may report
    budget exhaustion, never a wrong witness."""
    s = oracle.structure
    if not isinstance(s, PairStructure):
        raise ValueError("this engine runs over the pair model")
    if budget < 0:
        raise ValueError(f"the sample budget must be at least 0, not {budget}")
    E = list(oracle.support)
    if not _pair_closed(E):
        raise ValueError("support must contain the components of its pair atoms")
    k = len(E)
    r = k + 4
    needed = ramsey_upper(r * r)
    avoid = set(E) | PairStructure.fixed_bases(E)
    sample = s.probe_atoms(min(budget, needed), avoid)
    sample.sort(key=lambda a: a.payload)
    pinned = PairStructure.pinned_levels(E)

    # probe every pair; the oracle collapses eagerly on a repeated value
    answer: Dict[Tuple[int, int], HFTuple] = {
        (i, j): oracle.query(hfset(sample[i], sample[j]))
        for i, j in itertools.combinations(range(len(sample)), 2)
    }

    def colour(t: Atom, i: int, j: int) -> int:
        if t in E:
            return E.index(t)
        if t == sample[i]:
            return k
        if t == sample[j]:
            return k + 1
        if t.level == 0:
            return k + 2
        return k + 3

    tau = {
        ij: (colour(answer[ij].items[0], *ij), colour(answer[ij].items[1], *ij))
        for ij in answer
    }

    def try_case(iA: int, iB: int, iC: int, colours: Tuple[int, int]):
        xA, xB, xC = sample[iA], sample[iB], sample[iC]
        x = hfset(xA, xB)
        y = answer[(iA, iB)]
        if set(colours) == {k, k + 1}:
            _break(oracle, extend_fixing(s, E, {xA: xB, xB: xA}), x, x, y)
        if k + 2 in colours:
            t = y.items[colours.index(k + 2)]
            keep = set(E) | {xA, xB}
            (z,) = s.probe_atoms(1, avoid | set(sample) | atoms_of(y))
            pi = extend_fixing(s, list(keep), {t: z, z: t})
            if pi is not None:
                _break(oracle, pi, x, x, y)
        if k + 3 in colours:
            t = y.items[colours.index(k + 3)]
            lvl, payload_pair, eps = t.payload
            if lvl not in pinned:
                flipped = s.pair_atom(lvl, *payload_pair, 1 - eps)
                pi = extend_fixing(s, list(set(E) | {xA, xB}), {t: flipped})
                if pi is not None:
                    _break(oracle, pi, x, x, y)
            # bit pinned: move a stray base component, if any
            strays = [
                b
                for b in PairStructure.hereditary_atoms(t)
                if b.level == 0 and b not in avoid and b not in (xA, xB)
            ]
            if strays:
                (z,) = s.probe_atoms(1, avoid | set(sample) | atoms_of(y))
                pi = extend_fixing(s, list(set(E) | {xA, xB}), {strays[0]: z, z: strays[0]})
                if pi is not None and oracle_key(act(pi, y)) != oracle_key(y):
                    _break(oracle, pi, x)
            # value built over the input pair: swapping the pair may move it
            pi = extend_fixing(s, E, {xA: xB, xB: xA})
            if pi is not None and oracle_key(act(pi, y)) != oracle_key(y):
                _break(oracle, pi, x, x)
            # last resort: rotate the triple; the value is pinned, the input moves
            pi = extend_fixing(s, E, {xA: xB, xB: xC, xC: xA})
            if pi is not None:
                piy = act(pi, y)
                y2 = answer[(iB, iC)]
                if oracle_key(piy) != oracle_key(y2):
                    _break(oracle, pi, x, x)

    for iA, iB, iC in itertools.combinations(range(len(sample)), 3):
        c = tau[(iA, iB)]
        if tau[(iA, iC)] == c and tau[(iB, iC)] == c:
            if set(c) <= set(range(k)) | {k, k + 1} and set(c) != {k, k + 1}:
                raise EngineBug(
                    "support-determined values survived the eager collapse scan"
                )
            try_case(iA, iB, iC, c)
    if len(sample) < needed:
        return BudgetExhausted(needed, len(sample))
    raise EngineBug("guaranteed monochromatic triple not found")


# ---------------------------------------------------------------------------
# witness files


def witness_to_json(witness, engine: str, oracle: InjectionOracle) -> dict:
    out = {
        "version": 1,
        "engine": engine,
        "oracle": oracle.name,
        "structure": oracle.structure.to_json(),
        "support": [atom_to_json(a) for a in oracle.support],
        "transcript": [
            [hf_to_json(x), hf_to_json(y)] for x, y in oracle.transcript
        ],
        "witness": {"kind": witness.kind},
    }
    w = out["witness"]
    if isinstance(witness, InjectivityCollapse):
        w["x1"] = hf_to_json(witness.x1)
        w["x2"] = hf_to_json(witness.x2)
        w["y"] = hf_to_json(witness.y)
    elif isinstance(witness, EquivarianceBreak):
        w["pi"] = witness.pi.to_json()
        w["x"] = hf_to_json(witness.x)
    elif isinstance(witness, BudgetExhausted):
        w["needed"] = witness.needed
        w["budget"] = witness.budget
    if getattr(witness, "details", None):
        w["details"] = witness.details
    return out


def witness_from_json(data: dict):
    structure = structure_from_json(data["structure"])
    support = tuple(atom_from_json(a) for a in data["support"])
    transcript = [
        (hf_from_json(x, structure), hf_from_json(y, structure))
        for x, y in data["transcript"]
    ]
    w = data["witness"]
    if w["kind"] == InjectivityCollapse.kind:
        witness = InjectivityCollapse(
            hf_from_json(w["x1"], structure),
            hf_from_json(w["x2"], structure),
            hf_from_json(w["y"], structure),
        )
    elif w["kind"] == EquivarianceBreak.kind:
        witness = EquivarianceBreak(
            PartialAutomorphism.from_json(w["pi"]), support, hf_from_json(w["x"], structure)
        )
    elif w["kind"] == BudgetExhausted.kind:
        witness = BudgetExhausted(w["needed"], w["budget"])
    else:
        raise ValueError(f"unknown witness kind {w['kind']!r}")
    return witness, structure, support, transcript


def verify_witness_json(data: dict) -> bool:
    witness, structure, support, transcript = witness_from_json(data)
    return verify_witness(witness, structure, support, transcript)


# ---------------------------------------------------------------------------
# finite combinatorial maps


class DisjointClasses:
    def __init__(self, classes: List[frozenset], signatures: List[tuple]):
        self.classes = classes
        self.signatures = signatures

    def __repr__(self):
        return f"DisjointClasses({self.classes})"


def disjointify_finite(m: Iterable, ps: Sequence[Iterable]) -> DisjointClasses:
    """Split a finite set by membership signature against a list of
    distinct subsets: the classes partition the set, every listed subset
    is a union of classes, and the classes carry the induced total order
    (membership bit 0, non-membership 1, ordered lexicographically)."""
    m = list(dict.fromkeys(m))
    ps = [frozenset(p) for p in ps]
    if len(set(ps)) != len(ps):
        raise ValueError("listed subsets must be pairwise distinct")
    by_sig: Dict[tuple, list] = {}
    for x in m:
        sig = tuple(0 if x in p else 1 for p in ps)
        by_sig.setdefault(sig, []).append(x)
    sigs = sorted(by_sig)
    classes = [frozenset(by_sig[sig]) for sig in sigs]
    for p in ps:
        if any(c & p and not c <= p for c in classes):
            raise RuntimeError(f"a class straddles the listed subset {set(p)}")
    if ps and all(ps) and len(classes) < ceil(log2(len(ps) + 1)):
        raise RuntimeError(f"{len(ps)} distinct nonempty subsets left only {len(classes)} classes")
    return DisjointClasses(classes, sigs)


def surjection_to_power_injection(g: Dict, onto: Optional[Iterable] = None) -> Dict:
    """Turn a finite surjection y ->> x into the preimage injection
    P(x) -> P(y)."""
    image = set(g.values())
    if onto is not None and set(onto) != image:
        raise ValueError("map is not onto the declared codomain")
    table = {}
    xs = sorted(image, key=repr)
    for k in range(len(xs) + 1):
        for combo in itertools.combinations(xs, k):
            X = frozenset(combo)
            table[X] = frozenset(y for y, v in g.items() if v in X)
    if len(set(table.values())) != len(table):
        raise RuntimeError("preimage map is not injective")
    return table


def partition_to_edges(p: Iterable) -> frozenset:
    """A partition as the set of within-block unordered pairs."""
    blocks = [frozenset(b) for b in p]
    union: set = set()
    for b in blocks:
        if not b or union & b:
            raise ValueError("not a partition: empty or overlapping blocks")
        union |= b
    return frozenset(
        frozenset(pair) for b in blocks for pair in itertools.combinations(b, 2)
    )
