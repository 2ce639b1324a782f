"""Named desk-scale checks: the verification suites behind both the CLI
and the acceptance tests.

Every check returns a dict with at least ``id``, ``claim``, ``params``
and ``ok``; a failing check carries enough detail to be chased down.
Randomised checks take an explicit seed and are reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import ceil, log2
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import cardtable, oracles
from .atoms import (
    Atom,
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    extend_fixing,
    f_lt,
    fresh_realizer,
)
from .constructions import (
    act,
    categorical_power_to_seq,
    categorical_seq_to_power,
    default_anchors,
    hf_key,
    kuratowski,
    mostowski_power_to_seq,
    pairmodel_pair_to_unordered,
    seq_to_chain,
)
from .refute import (
    BudgetExhausted,
    InjectionOracle,
    WitnessInvalid,
    disjointify_finite,
    oracle_key,
    partition_to_edges,
    refute_seq_to_power_fraenkel,
    rgs_partitions,
    seq_count,
    verify_witness,
)
from .symsets import (
    SupportedSubset,
    classify_fraenkel,
    count_supported,
    least_support,
    types_over,
)


def check(cid: str, claim: str, params: dict, ok: bool, **details) -> dict:
    out = {"id": cid, "claim": claim, "params": params, "ok": bool(ok)}
    if details:
        out["details"] = details
    return out


# ---------------------------------------------------------------------------
# counting checks


def check_dense_counting(max_support: int) -> List[dict]:
    s = DenseOrderStructure()
    E = [s.atom(i) for i in range(max_support)]
    got = [count_supported(s, E[:n]) for n in range(max_support + 1)]
    want = [2 ** (2 * n + 1) for n in range(max_support + 1)]
    return [
        check(
            "dense-counting",
            "an n-point support of the dense order admits exactly 2^(2n+1) subsets",
            {"max_support": max_support},
            got == want,
            got=got,
            want=want,
        )
    ]


def check_pure_counting(max_support: int = 3) -> List[dict]:
    s = PureSetStructure(max_support)
    E = s.atoms()
    got = [count_supported(s, E[:n]) for n in range(max_support + 1)]
    want = [2 ** (n + 1) for n in range(max_support + 1)]
    return [
        check(
            "pure-counting",
            "an n-point support of the bare atom set admits exactly 2^(n+1) subsets",
            {"max_support": max_support},
            got == want,
            got=got,
            want=want,
        )
    ]


def invariant_subsets_bruteforce(pool_size: int, support_size: int) -> Tuple[int, bool]:
    """Enumerate all subsets of a finite pool, keep the ones invariant
    under every pool permutation fixing the support pointwise, and check
    the finite/cofinite dichotomy on each.  Returns (count, all_ok)."""
    s = PureSetStructure(pool_size)
    pool = s.atoms()
    E = pool[:support_size]
    rest = pool[support_size:]
    # invariance under the full stabiliser == invariance under adjacent swaps
    swaps = [(rest[i], rest[i + 1]) for i in range(len(rest) - 1)]
    count = 0
    ok = True
    for mask in range(1 << pool_size):
        subset = {pool[i] for i in range(pool_size) if mask >> i & 1}
        if any(
            ((a in subset) != (b in subset)) for a, b in swaps
        ):
            continue
        count += 1
        finite_side = subset if not (set(rest) <= subset) else set(pool) - subset
        if not finite_side <= set(E):
            ok = False
    return count, ok


def check_fraenkel_dichotomy(pool_size: int, max_support: int) -> List[dict]:
    out = []
    for n in range(max_support + 1):
        count, classified = invariant_subsets_bruteforce(pool_size, n)
        ok = classified and count == 2 ** (n + 1)
        out.append(
            check(
                f"fraenkel-dichotomy-{n}",
                "stabiliser-invariant subsets are finite inside or cofinite "
                "outside the support, and number 2^(n+1)",
                {"pool": pool_size, "support": n},
                ok,
                invariant_count=count,
            )
        )
    # the symbolic classifier agrees with itself on every encoded subset
    s = PureSetStructure(max_support)
    E = s.atoms()
    agree = True
    for n in range(max_support + 1):
        for bits in range(1 << len(types_over(s, E[:n]))):
            S = SupportedSubset.from_bits(s, E[:n], bits)
            c = classify_fraenkel(S)
            inside = set(c.members) <= set(E[:n])
            agree &= inside
    out.append(
        check(
            "fraenkel-classifier",
            "the classifier always places the finite side inside the support",
            {"max_support": max_support},
            agree,
        )
    )
    return out


# ---------------------------------------------------------------------------
# injection checks


def random_dense_automorphism(
    structure: DenseOrderStructure, fixed: Sequence[Atom], moved: Sequence[Atom], rng: random.Random
):
    """A random order automorphism fixing `fixed` pointwise and assigning
    fresh random rational images, above the fixed block, to `moved`."""
    top = max([a.payload for a in fixed], default=Fraction(0))
    values = sorted(
        top + Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 997)) for _ in moved
    )
    while len(set(values)) < len(values):
        values = sorted(
            top + Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 997)) for _ in moved
        )
    constraints = {
        a: structure.atom(v)
        for a, v in zip(sorted(moved, key=lambda x: x.payload), values)
    }
    return extend_fixing(structure, fixed, constraints)


def same_type_realizer(structure: CategoricalStructure, atom: Atom, over: Sequence[Atom]) -> Atom:
    """A fresh atom realising the same 1-type as `atom` over `over`."""
    formulas = [f_lt(u) for u in over if structure.lt(atom, u)]
    return fresh_realizer(structure, formulas + structure.rel_formulas(atom, over))


def check_injections(seed: int, probes: int = 100) -> List[dict]:
    rng = random.Random(seed)
    out = []

    # chains and two-sets over a 4-atom pool
    s = PureSetStructure(4)
    pool = s.atoms()
    kur = {}
    for x, y in itertools.product(pool, repeat=2):
        kur[(x, y)] = kuratowski(x, y)
    kur_ok = len(set(map(hf_key, kur.values()))) == len(kur)
    chains = {}
    for k in range(4):
        for p in itertools.permutations(pool, k):
            chains[p] = seq_to_chain(p)
    chain_ok = len(set(map(hf_key, chains.values()))) == len(chains)
    eq_ok = True
    for _ in range(probes):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        pi = extend_fixing(s, [], dict(zip(pool, shuffled)))
        for (x, y), v in kur.items():
            if act(pi, v) != kuratowski(pi.apply(x), pi.apply(y)):
                eq_ok = False
        for p, v in list(chains.items())[:8]:
            if act(pi, v) != seq_to_chain([pi.apply(a) for a in p]):
                eq_ok = False
    out.append(
        check(
            "inject-two-set-and-chain",
            "two-set pairing and chain-of-initial-segments are injective and "
            "commute with every atom permutation",
            {"pool": 4, "probes": probes},
            kur_ok and chain_ok and eq_ok,
            pairs=len(kur),
            chains=len(chains),
        )
    )

    # decorated pairs over the pair model
    p = PairStructure(4)
    bases = [p.base_atom(i) for i in range(4)]
    imgs = {}
    for x, y in itertools.product(bases, repeat=2):
        imgs[(x, y)] = pairmodel_pair_to_unordered(p, x, y)
    inj_ok = len(set(map(hf_key, imgs.values()))) == 16
    eqv_ok = True
    for _ in range(probes):
        shuffled = bases[:]
        rng.shuffle(shuffled)
        bit = rng.choice((0, 1))
        u0, flipped = p.pair_atom(1, bases[0], bases[1], 0), p.pair_atom(1, shuffled[0], shuffled[1], bit)
        pi = extend_fixing(p, [], {**dict(zip(bases, shuffled)), u0: flipped})
        if pi is None:
            eqv_ok = False
            continue
        probe_pairs = [(bases[0], bases[1]), (bases[2], bases[1])]
        for x, y in probe_pairs:
            lhs = act(pi, imgs[(x, y)])
            rhs = pairmodel_pair_to_unordered(p, pi.apply(x), pi.apply(y))
            if lhs != rhs:
                eqv_ok = False
    out.append(
        check(
            "inject-decorated-pairs",
            "the decorated-pair map is injective on all 16 ordered pairs and "
            "commutes with the pair-model automorphisms",
            {"pool": 4, "probes": probes},
            inj_ok and eqv_ok,
        )
    )

    # dense-order power-to-sequence over a 5-point support universe
    t = DenseOrderStructure()
    anchors = default_anchors(t)
    universe = [t.atom(100 + i) for i in range(5)]
    images = {}
    for k in range(3):
        for sup in itertools.combinations(universe, k):
            for bits in range(1 << (2 * k + 1)):
                S = SupportedSubset.from_bits(t, sup, bits)
                if least_support(S) != tuple(sup):
                    continue
                images[(sup, bits)] = mostowski_power_to_seq(S, anchors)
    most_inj = len(set(map(hf_key, images.values()))) == len(images)
    most_eqv = True
    for _ in range(probes):
        pi = random_dense_automorphism(t, anchors, universe, rng)
        for (sup, bits), v in list(images.items())[:: max(1, len(images) // 8)]:
            S = SupportedSubset.from_bits(t, sup, bits)
            lhs = act(pi, v)
            rhs = mostowski_power_to_seq(S.apply(pi), anchors)
            if lhs != rhs:
                most_eqv = False
    out.append(
        check(
            "inject-dense-power-to-seq",
            "the power-to-sequence map over the dense order is injective on "
            "all small-support subsets and commutes with anchored "
            "order automorphisms",
            {"supports": "size <= 2 over 5 points", "probes": probes},
            most_inj and most_eqv,
            subsets=len(images),
        )
    )

    # homogeneous-structure maps
    cs = CategoricalStructure()
    e = [fresh_realizer(cs, []) for _ in range(3)]
    phi_in: List[tuple] = [()]
    phi_in += [(a,) for a in e[:2]]
    phi_in += [(a, b) for a in e[:2] for b in e[:2] if a != b]
    phis = {ys: categorical_seq_to_power(cs, ys) for ys in phi_in}
    phi_inj = True
    for y1, y2 in itertools.combinations(phi_in, 2):
        if phis[y1] == phis[y2]:
            phi_inj = False
    marker_a, marker_b = fresh_realizer(cs, []), fresh_realizer(cs, [])
    psis = {}
    for sup in [(), (e[0],), (e[0], e[1])]:
        ts = types_over(cs, sup)
        ranks = 0
        for bits in range(1 << min(len(ts), 6)):
            S = SupportedSubset.from_bits(cs, sup, bits)
            if least_support(S) != tuple(cs.sorted_by_order(sup)):
                continue
            psis[(sup, bits)] = categorical_power_to_seq(S, marker_a, marker_b)
            ranks += 1
            if ranks >= 8:
                break
    psi_inj = len(set(map(hf_key, psis.values()))) == len(psis)
    # equivariance probes: move the parameters to fresh same-type atoms
    phi_eqv = True
    for _ in range(min(probes, 24)):
        tgt0 = same_type_realizer(cs, e[0], [marker_a, marker_b])
        pi = extend_fixing(cs, [marker_a, marker_b], {e[0]: tgt0})
        if pi is None:
            phi_eqv = False
            continue
        ys = (e[0],)
        lhs = categorical_seq_to_power(cs, tuple(pi.apply(a) for a in ys))
        rhs = phis[ys].apply(pi)
        if lhs != rhs:
            phi_eqv = False
    out.append(
        check(
            "inject-homogeneous-maps",
            "relation tagging embeds sequences into the power object, rank "
            "padding embeds it back into sequences, both injectively and "
            "stably under moving parameters to same-type atoms",
            {"sequences": len(phi_in), "subsets": len(psis)},
            phi_inj and psi_inj and phi_eqv,
        )
    )
    return out


# ---------------------------------------------------------------------------
# refutation checks


def run_builtin_refutations(seed: int, budget: int) -> List[dict]:
    out = []
    for engine, spec in oracles.REFUTE.items():
        results = {}
        ok = True
        for name in spec.oracles:
            for size in spec.sizes:
                s, E, o = oracles.build_refute_oracle(engine, name, size, seed)
                try:
                    w = spec.run(o, budget=budget)
                except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
                    ok = False
                    results[f"{name}/{size}"] = f"error: {exc}"
                    continue
                results[f"{name}/{size}"] = type(w).__name__
                # a sample below the coloring guarantee may legitimately run
                # out against an unstructured adversary; named constructions
                # must always fall
                if isinstance(w, BudgetExhausted) and name != "random":
                    ok = False
        out.append(
            check(
                f"refute-builtin-{engine}",
                "every built-in adversary is defeated by a witness that "
                "re-verifies against the transcript",
                {"engine": engine, "seed": seed},
                ok,
                results=results,
            )
        )
    return out


def run_random_refutations(trials: int, seed: int) -> List[dict]:
    """Seeded random total tables for each engine; every returned witness
    must re-verify (no false witnesses)."""
    out = []
    engines = {e: spec for e, spec in oracles.REFUTE.items() if spec.random_trials}
    per_engine = max(1, trials // len(engines))
    for engine, spec in engines.items():
        verified = 0
        failures: List[str] = []
        for t in range(per_engine):
            size = spec.sizes[t % len(spec.sizes)]
            s, E, o = oracles.build_refute_oracle(engine, "random", size, seed + t)
            try:
                w = spec.run(o)
                verified += 1
            except Exception as exc:  # noqa: BLE001
                failures.append(f"trial {t}: {exc}")
                if len(failures) > 3:
                    break
        out.append(
            check(
                f"refute-random-{engine}",
                "randomized adversarial tables never elicit a false witness",
                {"engine": engine, "trials": per_engine, "seed": seed},
                not failures and verified == per_engine,
                verified=verified,
                failures=failures,
            )
        )
    return out


def _grouped(pool_fn):
    """The probe -> answer pool function `pool_fn`, with each pool
    grouped by value: equal members (same `oracle_key`) form one group,
    in order of first appearance, so a group's first member is its
    representative and its size the value's multiplicity.  A pool list
    that `pool_fn` gives again is grouped once; the memo holds the list,
    so its identity cannot be reused."""
    memo: Dict[int, tuple] = {}

    def answers(x):
        pool = pool_fn(x)
        if id(pool) not in memo:
            groups: Dict[tuple, list] = {}
            for y in pool:
                groups.setdefault(oracle_key(y), []).append(y)
            memo[id(pool)] = (pool, list(groups.values()))
        return memo[id(pool)][1]

    return answers


class _Scripted:
    """Serves scripted answers in probe order, one representative per
    answer value; signals exhaustion with the multiplicities on offer."""

    class Exhausted(Exception):
        pass

    def __init__(self, answers, script):
        self.answers = answers
        self.script = script
        self.used = 0
        self.branch = None

    def __call__(self, x):
        groups = self.answers(x)
        if self.used >= len(self.script):
            self.branch = [len(g) for g in groups]
            raise _Scripted.Exhausted()
        idx = self.script[self.used]
        if not 0 <= idx < len(groups):
            raise IndexError(f"script index {idx} outside {len(groups)} answer values")
        self.used += 1
        return groups[idx][0]


def exhaustive_refutation_paths(engine: str, support_size: int) -> dict:
    """Depth-first enumeration of all total oracle tables over the
    engine's answer pool, quotiented to the engine's probe tree.

    The search branches once per distinct answer value, on its
    representative, and weights each leaf by the product of the chosen
    values' multiplicities; "tables" and "witnesses" count tables of the
    full pool, "runs" the engine runs made.  Every leaf must end in a
    witness that re-verifies; the first one that does not stops the
    search and is reported under "failure" with its script (the index
    of the answer value given at each probe)."""
    spec = oracles.REFUTE[engine]
    if spec.pool is None:
        raise KeyError(f"{engine} has no exhaustive answer pool")

    def setup():
        s, E = spec.universe(support_size)
        return s, E, _grouped(spec.pool(s, E))

    shared = setup() if spec.shared_pool else None
    dom, cod = spec.domains()

    kinds: Dict[str, int] = {}
    stats = {"tables": 0, "runs": 0, "witnesses": kinds}
    stack: List[tuple] = [((), 1)]
    while stack:
        script, weight = stack.pop()
        stats["runs"] += 1
        s, E, answers = shared or setup()
        fn = _Scripted(answers, script)
        o = InjectionOracle(fn, dom, cod, support=E, structure=s)
        try:
            w = spec.run(o)
            verify_witness(w, s, E, o.transcript)
        except _Scripted.Exhausted:
            stack.extend((script + (i,), weight * m) for i, m in enumerate(fn.branch))
            continue
        except WitnessInvalid as exc:  # the engine's own check or this one
            stats["failure"] = {"script": list(script), "error": str(exc)}
            break
        stats["tables"] += weight
        kind = type(w).__name__
        kinds[kind] = kinds.get(kind, 0) + weight
    return stats


def check_exhaustive_refutations(max_support: int = 1) -> List[dict]:
    out = []
    for engine, spec in oracles.REFUTE.items():
        if spec.pool is None:
            continue
        for size in range(max_support + 1):
            stats = exhaustive_refutation_paths(engine, size)
            out.append(
                check(
                    f"refute-exhaustive-{engine}-{size}",
                    "every total truncated table is defeated by a verified witness",
                    {"engine": engine, "support": size},
                    stats["tables"] > 0 and "failure" not in stats,
                    **stats,
                )
            )
    return out


# ---------------------------------------------------------------------------
# extractor checks


def _extract(engine: str, name: str, T: int, copies: int = 1):
    return oracles.EXTRACT[engine].run(name, T, copies)


def check_extractors(T: int) -> List[dict]:
    r = _extract("fin-to-atom", "fresh-max", T)
    rc = _extract("fin-to-atom", "max-or-zero", T)
    r2 = _extract("seqstar-to-seq", "fresh-block", T)
    rc2 = _extract("seqstar-to-seq", "const-empty", T)
    surplus_ok = True
    for n in (1, 2):
        rs = _extract("surplus", "shift-encode", T, n)
        surplus_ok &= rs.ok and len(set(rs.values)) == T
    surplus_ok &= not _extract("surplus", "const", T).ok
    rp = _extract("partition", "fresh-singleton", T)
    rpc = _extract("partition", "const", T)
    return [
        check(
            "extract-fin-to-atom",
            "the growing-set iteration streams distinct atoms on the honest "
            "oracle and convicts the repeating one",
            {"T": T},
            r.ok and len(set(map(oracle_key, r.values))) == T and not rc.ok,
        ),
        check(
            "extract-seqstar-to-seq",
            "constant-sequence probing keeps producing first-occurrence atoms "
            "and convicts a repeating oracle",
            {"T": T},
            r2.ok and len(set(map(oracle_key, r2.values))) == T and not rc2.ok,
        ),
        check(
            "extract-surplus",
            "the labelled sweep streams distinct subsets for one and two "
            "surplus copies and convicts the constant oracle",
            {"T": T, "n": [1, 2]},
            surplus_ok,
        ),
        check(
            "extract-partition",
            "block refinement streams distinct subsets on the honest oracle "
            "and convicts the constant one at its second probe",
            {"T": T},
            rp.ok and len(set(rp.values)) == T and not rpc.ok,
        ),
    ]


def check_disjointify(trials: int, seed: int, max_m: int = 12) -> List[dict]:
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        m = list(range(rng.randint(1, max_m)))
        n_subsets = rng.randint(0, min(10, 2 ** len(m) - 1))
        ps: List[frozenset] = []
        seen = set()
        guard = 0
        while len(ps) < n_subsets and guard < 200:
            guard += 1
            cand = frozenset(x for x in m if rng.random() < 0.5)
            if cand and cand not in seen:
                seen.add(cand)
                ps.append(cand)
        d = disjointify_finite(m, ps)
        union = set()
        for c in d.classes:
            if union & c:
                ok = False
            union |= c
        if union != set(m):
            ok = False
        for p in ps:
            if not all(c <= p or not c & p for c in d.classes):
                ok = False
        if len(d.classes) < ceil(log2(len(ps) + 1)):
            ok = False
    return [
        check(
            "disjointify-random",
            "membership signatures always partition the set, refine every "
            "listed subset, and number at least log2(count+1)",
            {"trials": trials, "seed": seed, "max_m": max_m},
            ok,
        )
    ]


# ---------------------------------------------------------------------------
# arithmetic and closure checks


def check_arithmetic(ramsey: bool = True) -> List[dict]:
    out = []
    weak = [n for n in range(31) if cardtable.factorial_bounds(n)[0]]
    strong = [n for n in range(31) if cardtable.factorial_bounds(n)[1]]
    out.append(
        check(
            "factorial-thresholds",
            "n! first reaches 2^(2n+1) and 2^(2n+1)+2 exactly at n = 10",
            {"scan": "0..30"},
            weak == list(range(10, 31)) and strong == list(range(10, 31)),
            first_weak=min(weak),
            first_strong=min(strong),
        )
    )
    values = [cardtable.ramsey_upper(r) for r in (1, 2, 3)]
    rams_ok = values == [3, 6, 17]
    exact = (True, True)
    if ramsey:
        exact = cardtable.ramsey_two_exactness()
    out.append(
        check(
            "ramsey-bound",
            "the triangle bound recurrence gives 3, 6, 17 and the two-color "
            "value 6 is exact by exhaustive coloring search",
            {"exhaustive": ramsey},
            rams_ok and exact == (True, True),
            values=values,
        )
    )
    return out


def check_closure() -> List[dict]:
    out = []
    report = cardtable.check_summary_table()
    out.append(
        check(
            "closure-table",
            "all model closures are contradiction-free and realize every "
            "claimed table relation; the forbidden ordering pattern closes "
            "to a contradiction",
            {},
            report["ok"],
            models={k: v["consistent"] for k, v in report["models"].items()},
            forbidden=report["forbidden"]["contradiction"],
        )
    )
    m4 = list(range(4))
    edge_sets = set()
    n_parts = 0
    for q in rgs_partitions(4):
        edge_sets.add(partition_to_edges([frozenset(m4[i] for i in b) for b in q]))
        n_parts += 1
    out.append(
        check(
            "closure-bell",
            "all 15 partitions of a 4-point set give 15 distinct edge sets",
            {},
            n_parts == 15 and len(edge_sets) == 15,
            partitions=n_parts,
            edge_sets=len(edge_sets),
        )
    )
    return out


def check_seq_counting() -> List[dict]:
    s, E, o = oracles.build_refute_oracle("seq-to-power", "atoms-of-input", 4, 0)
    w = refute_seq_to_power_fraenkel(o)
    details = getattr(w, "details", {})
    ok = (
        details.get("seq_count") == 65
        and details.get("supported_bound") == 32
        and seq_count(4) == 65
    )
    return [
        check(
            "seq-vs-power-counting",
            "a 4-point support carries 65 one-to-one sequences, beating the "
            "32 subsets it can support",
            {"support": 4},
            ok,
            **details,
        )
    ]


# ---------------------------------------------------------------------------
# suites


# The default of every suite setting; `verify`'s options read them too.
SETTINGS = {
    "seed": 0,
    "max_support": 5,
    "max_atoms": 8,
    "trials": 200,
    "stream_length": 100,
    "budget": 6,
    "fast": False,
}

# Each suite maps a full settings dict to its checks.  A suite calls the
# checks by their names here when it runs, never through a stored
# reference, so the benchmark's tracer sees every call it patches in.
SUITES: Dict[str, Callable[[dict], List[dict]]] = {
    "mostowski-counting": lambda c: check_dense_counting(c["max_support"]) + check_pure_counting(),
    "fraenkel-dichotomy": lambda c: check_fraenkel_dichotomy(c["max_atoms"], min(c["max_support"], 3)),
    "injections": lambda c: check_injections(c["seed"]),
    "refutation": lambda c: (
        run_builtin_refutations(c["seed"], c["budget"])
        + run_random_refutations(c["trials"], c["seed"])
        + check_exhaustive_refutations(max_support=0 if c["fast"] else 1)
        + check_seq_counting()
    ),
    "extractors": lambda c: check_extractors(c["stream_length"]) + check_disjointify(c["trials"], c["seed"]),
    "arithmetic": lambda c: check_arithmetic(ramsey=not c["fast"]),
    "closure": lambda c: check_closure(),
    "all": lambda c: [out for name, suite in SUITES.items() if name != "all" for out in suite(c)],
}


def run_suite(name: str, config: Optional[dict] = None) -> List[dict]:
    """The suite's checks, sorted by id; `config` overrides `SETTINGS`."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    checks = SUITES[name]({**SETTINGS, **(config or {})})
    return sorted(checks, key=lambda c: c["id"])
