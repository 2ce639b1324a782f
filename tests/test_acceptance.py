"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

Every tolerance here is exact (integer counts, structural equality);
randomised parts are seeded and their trial counts are stated inline.
"""

import itertools
import random
import time
from math import ceil, log2

from choiceless import oracles
from choiceless.atoms import (
    CategoricalStructure,
    DenseOrderStructure,
    PairStructure,
    PureSetStructure,
    extend_fixing,
)
from choiceless.cardtable import (
    check_summary_table,
    factorial_bounds,
    forbidden_pattern_closure,
    ramsey_two_exactness,
    ramsey_upper,
)
from choiceless.constructions import (
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
from choiceless.labchecks import (
    exhaustive_refutation_paths,
    random_dense_automorphism,
    same_type_realizer,
)
from choiceless.refute import (
    disjointify_finite,
    extract_fin_to_atom_mostowski,
    extract_from_partition_injection,
    extract_from_surplus,
    extract_seqstar_to_seq,
    oracle_key,
    partition_to_edges,
    rgs_partitions,
    seq_count,
)
from choiceless.symsets import (
    SupportedSubset,
    classify_fraenkel,
    count_supported,
    least_support,
    types_over,
)


def report(criterion: int, ok: bool, text: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {criterion}: {text}"


def test_criterion_1_support_counting():
    t0 = time.time()
    s = DenseOrderStructure()
    E = [s.atom(i) for i in range(5)]
    got = [count_supported(s, E[:n]) for n in range(6)]
    elapsed = time.time() - t0
    ok = got == [2, 8, 32, 128, 512, 2048] and elapsed < 1.0
    report(1, ok, f"dense-order support counts {got} in {elapsed:.3f}s")


def _dichotomy_all_perms(pool_size: int, support_size: int):
    """All subsets of the pool, invariance decided against every pool
    permutation fixing the support pointwise; returns (count, dichotomy_ok)."""
    rest = list(range(support_size, pool_size))
    perms = [
        dict(zip(rest, image)) for image in itertools.permutations(rest)
    ]
    invariant = []
    for mask in range(1 << pool_size):
        bits = {i for i in range(pool_size) if mask >> i & 1}
        good = True
        for pm in perms:
            if {pm.get(i, i) for i in bits} != bits:
                good = False
                break
        if good:
            invariant.append(bits)
    ok = len(invariant) == 2 ** (support_size + 1)
    support = set(range(support_size))
    for bits in invariant:
        finite_side = bits if not set(rest) <= bits else set(range(pool_size)) - bits
        ok &= finite_side <= support
    return len(invariant), ok


def test_criterion_2_fraenkel_dichotomy():
    ok = True
    counts = {}
    for pool, n in [(7, 0), (7, 1), (8, 2), (8, 3)]:
        count, good = _dichotomy_all_perms(pool, n)
        counts[(pool, n)] = count
        ok &= good
    # the symbolic classifier reproduces the dichotomy on every encoding:
    # its finite side is the denotation over the support and two atoms
    # outside it
    s = PureSetStructure(3)
    E = s.atoms()
    pool = E + s.fresh(2)
    for n in range(4):
        for bits in range(1 << (n + 1)):
            S = SupportedSubset.from_bits(s, E[:n], bits)
            c = classify_fraenkel(S)
            inside = set(S.denote(pool))
            ok &= set(c.members) == (inside if c.kind == "finite" else set(pool) - inside)
    report(2, ok, f"invariant-subset counts {sorted(counts.items())}")


def test_criterion_3_explicit_injections():
    rng = random.Random(2026)
    ok = True
    notes = []

    # two-set pairing and chains over a 4-atom pool
    s = PureSetStructure(4)
    pool = s.atoms()
    kur = {p: kuratowski(*p) for p in itertools.product(pool, repeat=2)}
    ok &= len(set(map(hf_key, kur.values()))) == 16
    chains = {
        p: seq_to_chain(p) for k in range(4) for p in itertools.permutations(pool, k)
    }
    ok &= len(set(map(hf_key, chains.values()))) == len(chains)
    for _ in range(100):
        img = rng.sample(pool, 4)
        pi = extend_fixing(s, [], dict(zip(pool, img)))
        x, y = rng.choice(pool), rng.choice(pool)
        ok &= act(pi, kur[(x, y)]) == kuratowski(pi.apply(x), pi.apply(y))
        p = tuple(rng.sample(pool, rng.randint(0, 3)))
        ok &= act(pi, seq_to_chain(p)) == seq_to_chain([pi.apply(a) for a in p])
    notes.append("two-set+chain")

    # decorated pairs on all 16 ordered pairs of 4 level-0 atoms
    pm = PairStructure(4)
    bases = [pm.base_atom(i) for i in range(4)]
    pm_imgs = {
        p: pairmodel_pair_to_unordered(pm, *p)
        for p in itertools.product(bases, repeat=2)
    }
    ok &= len(set(map(hf_key, pm_imgs.values()))) == 16
    for _ in range(100):
        img = rng.sample(bases, 4)
        bit = rng.choice((0, 1))
        u = pm.pair_atom(1, bases[0], bases[1], 0)
        pi = extend_fixing(
            pm, [], {**dict(zip(bases, img)), u: pm.pair_atom(1, img[0], img[1], bit)}
        )
        x, y = rng.choice(bases), rng.choice(bases)
        ok &= act(pi, pm_imgs[(x, y)]) == pairmodel_pair_to_unordered(
            pm, pi.apply(x), pi.apply(y)
        )
    notes.append("decorated-pairs")

    # dense-order power-to-sequence on all least-support-<=2 subsets over
    # a 5-point universe disjoint from the anchors
    t = DenseOrderStructure()
    anchors = default_anchors(t)
    universe = [t.atom(100 + i) for i in range(5)]
    most = {}
    for k in range(3):
        for sup in itertools.combinations(universe, k):
            for bits in range(1 << (2 * k + 1)):
                S = SupportedSubset.from_bits(t, sup, bits)
                if least_support(S) == tuple(sup):
                    most[(sup, bits)] = mostowski_power_to_seq(S, anchors)
    ok &= len(set(map(hf_key, most.values()))) == len(most) == 2 + 5 * 6 + 10 * 18
    keys = sorted(most, key=lambda k: (tuple(a.sort_key() for a in k[0]), k[1]))
    for _ in range(100):
        pi = random_dense_automorphism(t, anchors, universe, rng)
        sup, bits = keys[rng.randrange(len(keys))]
        S = SupportedSubset.from_bits(t, sup, bits)
        ok &= act(pi, most[(sup, bits)]) == mostowski_power_to_seq(S.apply(pi), anchors)
    notes.append(f"dense-power({len(most)})")

    # homogeneous-structure maps: relation tagging and rank padding
    cs = CategoricalStructure()
    e = cs.fresh(2)
    phi_in = [()] + [(a,) for a in e] + [(a, b) for a in e for b in e if a != b]
    phis = {ys: categorical_seq_to_power(cs, ys) for ys in phi_in}
    for y1, y2 in itertools.combinations(phi_in, 2):
        ok &= phis[y1] != phis[y2]
    ma, mb = cs.fresh(2)
    psis = {}
    for sup in [(), (e[0],)]:
        for bits in range(1 << min(len(types_over(cs, sup)), 5)):
            S = SupportedSubset.from_bits(cs, sup, bits)
            if least_support(S) == tuple(sup):
                psis[(sup, bits)] = categorical_power_to_seq(S, ma, mb)
    two = tuple(cs.sorted_by_order(e))
    taken = 0
    for bits in range(1 << 6):
        S = SupportedSubset.from_bits(cs, two, bits)
        if least_support(S) == two:
            psis[(two, bits)] = categorical_power_to_seq(S, ma, mb)
            taken += 1
            if taken >= 4:
                break
    ok &= len(set(map(hf_key, psis.values()))) == len(psis)
    for probe in range(100):
        tgt = same_type_realizer(cs, e[0], [ma, mb, e[1]])
        pi = extend_fixing(cs, [ma, mb, e[1]], {e[0]: tgt})
        ok &= pi is not None
        lhs = categorical_seq_to_power(cs, (pi.apply(e[0]),))
        ok &= lhs == phis[(e[0],)].apply(pi)
        sup, bits = ((), probe % 2)
        S = SupportedSubset.from_bits(cs, sup, bits)
        ok &= act(pi, psis[(sup, bits)]) == categorical_power_to_seq(
            S.apply(pi), ma, mb
        )
        if probe % 20 == 0:
            S1 = SupportedSubset.from_bits(cs, (e[0],), 1)
            ok &= act(pi, categorical_power_to_seq(S1, ma, mb)) == \
                categorical_power_to_seq(S1.apply(pi), ma, mb)
    notes.append(f"homogeneous(phi={len(phi_in)},psi={len(psis)})")
    report(3, ok, "zero collisions, 100 seeded probes per map: " + ", ".join(notes))


def test_criterion_4_refutation_completeness():
    ok = True
    table_stats = {}
    exhaustive = [e for e, spec in oracles.REFUTE.items() if spec.pool is not None]
    ok &= exhaustive == ["fin-to-seq", "fin-to-seqstar", "nat-to-power"]
    for engine in exhaustive:
        for size in (0, 1):
            stats = exhaustive_refutation_paths(engine, size)
            table_stats[f"{engine}/{size}"] = stats["tables"]
            ok &= stats["tables"] == sum(stats["witnesses"].values()) > 0
    # seeded adversarial tables; engines must always return a witness that
    # re-verifies (verification is built into every engine return)
    trials = {"fin-to-seq": 4000, "fin-to-seqstar": 4000, "nat-to-power": 1500, "seq-to-power": 500}
    ran = 0
    for engine, count in trials.items():
        spec = oracles.REFUTE[engine]
        for t in range(count):
            size = spec.sizes[t % len(spec.sizes)]
            _, _, o = oracles.build_refute_oracle(engine, "random", size, 77000 + ran)
            spec.run(o)
            ran += 1
    ok &= ran == sum(trials.values()) >= 10 ** 4
    report(4, ok, f"exhaustive tables {table_stats}; {ran} seeded adversaries, zero false witnesses")


def test_criterion_5_seq_power_counting():
    s, E, o = oracles.build_refute_oracle("seq-to-power", "atoms-of-input", 4, 0)
    w = oracles.REFUTE["seq-to-power"].run(o)
    counts = w.details
    ok = (
        counts.get("seq_count") == 65
        and counts.get("supported_bound") == 32
        and seq_count(4) == 65
        and 65 > 32
    )
    report(5, ok, f"|Seq(E)| = {counts.get('seq_count')} > {counts.get('supported_bound')} at |E| = 4")


def test_criterion_6_arithmetic_lemmas():
    t0 = time.time()
    weak = [n for n in range(31) if factorial_bounds(n)[0]]
    strong = [n for n in range(31) if factorial_bounds(n)[1]]
    thresholds_ok = weak == list(range(10, 31)) and strong == list(range(10, 31))
    r2 = ramsey_upper(2)
    exact = ramsey_two_exactness()
    elapsed = time.time() - t0
    ok = thresholds_ok and r2 == 6 and exact == (True, True) and elapsed < 10
    report(
        6,
        ok,
        f"factorial thresholds at n=10; triangle bound {r2} exact by search in {elapsed:.2f}s",
    )


def test_criterion_7_extractors():
    T = 100
    ok = True

    t = DenseOrderStructure()
    r = extract_fin_to_atom_mostowski(oracles.builtin_oracle("fin-to-atom", "fresh-max", t), T)
    ok &= r.ok and len(set(map(oracle_key, r.values))) == T
    rc = extract_fin_to_atom_mostowski(
        oracles.builtin_oracle("fin-to-atom", "max-or-zero", DenseOrderStructure()), T
    )
    ok &= (not rc.ok) and rc.collapse is not None

    t2 = DenseOrderStructure()
    r2 = extract_seqstar_to_seq(oracles.builtin_oracle("seqstar-to-seq", "fresh-block", t2), t2.atom(0), T)
    ok &= r2.ok and len(set(map(oracle_key, r2.values))) == T
    t2c = DenseOrderStructure()
    rc2 = extract_seqstar_to_seq(oracles.builtin_oracle("seqstar-to-seq", "const-empty", t2c), t2c.atom(0), T)
    ok &= not rc2.ok

    for n in (1, 2):
        rs = extract_from_surplus(n, oracles.builtin_oracle("surplus", "shift-encode", params=(n,)), T)
        ok &= rs.ok and len(set(rs.values)) == T
    ok &= not extract_from_surplus(1, oracles.builtin_oracle("surplus", "const", params=(1,)), T).ok

    ground = list(range(T + 28))
    rp = extract_from_partition_injection(
        oracles.builtin_oracle("partition", "fresh-singleton", params=(frozenset(ground),)), ground, ground[:4], T
    )
    ok &= rp.ok and len(set(rp.values)) == T
    rpc = extract_from_partition_injection(
        oracles.builtin_oracle("partition", "const", params=(frozenset(ground),)), ground, ground[:4], T
    )
    ok &= not rpc.ok

    rng = random.Random(777)
    trials = 10 ** 4
    for _ in range(trials):
        m = list(range(rng.randint(1, 12)))
        wanted = rng.randint(0, min(9, 2 ** len(m) - 1))
        ps, seen, guard = [], set(), 0
        while len(ps) < wanted and guard < 100:
            guard += 1
            cand = frozenset(x for x in m if rng.random() < 0.5)
            if cand and cand not in seen:
                seen.add(cand)
                ps.append(cand)
        d = disjointify_finite(m, ps)
        union = set()
        for c in d.classes:
            ok &= not (union & c)
            union |= c
        ok &= union == set(m)
        ok &= all(c <= p or not c & p for p in map(frozenset, ps) for c in d.classes)
        ok &= len(d.classes) >= ceil(log2(len(ps) + 1))
    report(7, ok, f"four extractors at T={T}, honest and cheating; {trials} signature splits")


def test_criterion_8_table_closure():
    rep = check_summary_table()
    ok = rep["ok"]
    for name in ("fraenkel", "mostowski", "vs", "vc", "vp"):
        ok &= rep["models"][name]["consistent"]
    ok &= all(cell["ok"] for cell in rep["cells"])
    forb = forbidden_pattern_closure()
    ok &= forb.contradiction is not None
    trace = []
    for f in forb.contradiction:
        trace.extend(forb.explain(f))
    ok &= any("axiom:scenario" in line for line in trace)
    m4 = list(range(4))
    edge_sets = set()
    count = 0
    for q in rgs_partitions(4):
        edge_sets.add(partition_to_edges([frozenset(m4[i] for i in b) for b in q]))
        count += 1
    ok &= count == 15 and len(edge_sets) == 15
    report(8, ok, f"five closures consistent, table realized, forbidden pattern traced, Bell(4)={count}")
