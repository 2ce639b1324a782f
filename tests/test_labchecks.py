"""The lab's own checks can fail: each is run against a broken counterpart
of what it checks and must report FAIL.  Also the driver the injection
checks share, the homogeneous probes over relation facts, the one
extractor verdict, and the cap on `--max-atoms`."""

import itertools

import pytest

from choiceless import labchecks, oracles
from choiceless.atoms import (
    CAPS,
    BudgetExceeded,
    CategoricalStructure,
    DenseOrderStructure,
    PureSetStructure,
    extend_fixing,
    fresh_realizer,
)
from choiceless.cli import main
from choiceless.constructions import hfset, hftuple, kuratowski, seq_to_chain
from choiceless.refute import StreamResult
from choiceless.symsets import FraenkelClass


def verdicts(checks):
    return {c["id"]: c["ok"] for c in checks}


def equivariant(moves, images, image_of, keys):
    """The driver's verdict on one map and its moves."""
    return labchecks.equivariance_check("probe", "", {}, [(images, image_of, keys)], moves, {})["ok"]


class TestCounting:
    def test_counts_agree_with_the_listed_types(self):
        checks = labchecks.run_suite("mostowski-counting")
        assert [(c["id"], c["ok"], c["params"]) for c in checks] == [
            ("dense-counting", True, {"max_support": 5}),
            ("pure-counting", True, {"max_support": 3}),
        ]
        assert checks[1]["details"] == {"got": [2, 4, 8, 16], "want": [2, 4, 8, 16]}

    def test_a_dense_type_list_one_type_short_fails(self, monkeypatch):
        full = DenseOrderStructure._type_list
        monkeypatch.setattr(DenseOrderStructure, "_type_list", staticmethod(lambda n: full(n)[:-1]))
        [c] = labchecks.check_counting("dense", 2)
        assert not c["ok"]
        # the closed forms still agree; the listed types do not
        assert c["details"] == {"got": [2, 8, 32], "want": [2, 8, 32], "listed": [1, 4, 16]}

    def test_the_pure_count_is_checked_against_its_types_too(self, monkeypatch):
        full = PureSetStructure._type_list
        monkeypatch.setattr(PureSetStructure, "_type_list", staticmethod(lambda n: full(n) + (("extra",),)))
        assert verdicts(labchecks.check_counting("pure", 3)) == {"pure-counting": False}


class TestFraenkelClassifier:
    def classifier_ok(self):
        return verdicts(labchecks.check_fraenkel_dichotomy(8, 3))["fraenkel-classifier"]

    def test_flipping_every_answer_fails(self, monkeypatch):
        real = labchecks.classify_fraenkel

        def flipped(S):
            return FraenkelClass("finite" if real(S).kind == "cofinite" else "cofinite", ())

        monkeypatch.setattr(labchecks, "classify_fraenkel", flipped)
        assert self.classifier_ok() is False
        monkeypatch.undo()
        assert self.classifier_ok() is True

    def test_dropping_a_member_fails(self, monkeypatch):
        real = labchecks.classify_fraenkel

        def dropped(S):
            c = real(S)
            return FraenkelClass(c.kind, c.members[1:])

        monkeypatch.setattr(labchecks, "classify_fraenkel", dropped)
        assert self.classifier_ok() is False


class TestBuiltinRefutations:
    def test_a_collapsing_honest_oracle_fails(self, monkeypatch):
        # a constant answer falls by a collapse, which an injection cannot give
        const = oracles.Builtin(True, lambda *_: lambda x: hftuple(()))
        monkeypatch.setitem(oracles.REFUTE["fin-to-seq"].oracles, "sort", const)
        checks = labchecks.run_builtin_refutations(0, 6)
        assert verdicts(checks)["refute-builtin-fin-to-seq"] is False
        monkeypatch.undo()
        assert all(verdicts(labchecks.run_builtin_refutations(0, 6)).values())


class TestProbe:
    def test_injective(self):
        assert equivariant([], {1: "a", 2: "b"}, None, ())
        assert not equivariant([], {1: "a", 2: "a"}, None, ())

        # every map is tested for injectivity before any move is drawn
        def moves():
            raise AssertionError("a move was drawn")
            yield

        maps = [({1: "a"}, None, (1,)), ({1: "a", 2: "a"}, None, ())]
        assert not labchecks.equivariance_check("probe", "", {}, maps, moves(), {})["ok"]

    def test_commutes_fails_a_map_that_ignores_the_move(self):
        s = PureSetStructure(3)
        pool = s.atoms()
        swap = extend_fixing(s, [pool[2]], {pool[0]: pool[1], pool[1]: pool[0]})
        chains = {(a,): seq_to_chain((a,)) for a in pool}

        def moved(pi, seq):
            return seq_to_chain(map(pi.apply, seq))

        def unmoved(pi, seq):
            return chains[seq]

        assert equivariant([swap], chains, moved, chains)
        assert not equivariant([swap], chains, unmoved, chains)
        # a move that no automorphism extends fails whatever the map
        assert not equivariant([swap, None], chains, moved, chains)
        assert equivariant([], chains, unmoved, chains)

    def test_commutes_fails_a_map_that_swaps_its_arguments(self):
        s = PureSetStructure(3)
        a, b, c = s.atoms()
        swap = extend_fixing(s, [c], {a: b, b: a})
        kur = {xy: kuratowski(*xy) for xy in [(a, c), (c, b)]}
        assert equivariant([swap], kur, lambda pi, xy: kuratowski(*map(pi.apply, xy)), kur)
        assert not equivariant([swap], kur, lambda pi, xy: kuratowski(*map(pi.apply, xy[::-1])), kur)

    def test_commutes_fails_images_that_differ_inside_a_nested_set(self):
        s = PureSetStructure(3)
        a, b, c = s.atoms()
        swap = extend_fixing(s, [c], {a: b, b: a})
        images = {(a,): hfset(hfset(c), hfset(a, c))}
        # the same outer size and the same first member; only {b, c} differs
        assert not equivariant([swap], images, lambda pi, x: hfset(hfset(c), hfset(a, c)), images)
        assert equivariant([swap], images, lambda pi, x: hfset(hfset(c), hfset(b, c)), images)

    def test_probed_subsets_are_built_once_whatever_the_moves(self, monkeypatch):
        # the dense power-to-sequence probes reuse the subsets built for the
        # images, so more moves build no more subsets, and the verdicts hold
        built = []
        real = labchecks.SupportedSubset.from_bits

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(labchecks.SupportedSubset, "from_bits", staticmethod(counted))
        counts = []
        for probes in (10, 100):
            built.clear()
            assert all(verdicts(labchecks.check_injections(0, probes)).values())
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_nested_sets_equal_and_hash_alike_whatever_the_order_built(self):
        s = PureSetStructure(2)
        a, b = s.atoms()
        x, y = hfset(hfset(a, b), hfset(b)), hfset(hfset(b), hfset(b, a), hfset(b))
        assert x == y and hash(x) == hash(y) and x.items == y.items
        assert x != hfset(hfset(a), hfset(a, b))


class TestHomogeneousMaps:
    """The probes of `inject-homogeneous-maps`, over nodes that carry
    relation facts, some of them reaching outside the probed nodes."""

    @staticmethod
    def probe(monkeypatch):
        """The probes' verdict and counts, every sequence input moved."""
        cs = CategoricalStructure()
        e = [fresh_realizer(cs, []) for _ in range(6)]
        for fact in [(e[0], e[3]), (e[4], e[0], e[1]), (e[1],), (e[2], e[0]), (e[1], e[3]), (e[5], e[0], e[4])]:
            cs.declare_rel(fact)
        calls = {"declare_rel": 0, "lift_image": 0}
        for name in calls:
            real = getattr(CategoricalStructure, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(CategoricalStructure, name, counted)
        moved = [ys for k in range(3) for ys in itertools.permutations(e[:2], k)]
        return labchecks.equivariance_check(*labchecks.homogeneous_maps(cs, e, 24, moved)), calls

    def test_the_maps_pass_over_relation_facts(self, monkeypatch):
        check, calls = self.probe(monkeypatch)
        assert (check["ok"], check["params"]) == (True, {"sequences": 5, "subsets": 20})
        # the moves realise e[0]'s facts over the markers, and the lifts place the other nodes
        assert calls["declare_rel"] > 0 and calls["lift_image"] > 0

    def test_a_realizer_that_drops_the_facts_fails(self, monkeypatch):
        monkeypatch.setattr(labchecks, "same_type_realizer", lambda cs, atom, over: fresh_realizer(cs, []))
        assert self.probe(monkeypatch)[0]["ok"] is False


class TestDisjointify:
    """`disjointify-random` fails classes that overlap, miss a point, or
    straddle a listed subset; each edit keeps the other two conditions
    and never lowers the number of classes."""

    @staticmethod
    def overlapping(m, classes):
        return classes + classes[:1]

    @staticmethod
    def incomplete(m, classes):
        return [c - {m[0]} for c in classes]

    @staticmethod
    def straddling(m, classes):
        # a point moves to a class of another signature
        if len(classes) < 2:
            return classes
        x = min(classes[0])
        return [classes[0] - {x}, classes[1] | {x}, *classes[2:]]

    @pytest.mark.parametrize("edit", ["overlapping", "incomplete", "straddling"])
    def test_a_bad_class_list_fails(self, monkeypatch, edit):
        assert verdicts(labchecks.check_disjointify(20, 0)) == {"disjointify-random": True}
        real = labchecks.disjointify_finite

        def edited(m, ps):
            d = real(m, ps)
            d.classes = getattr(self, edit)(list(m), d.classes)
            return d

        monkeypatch.setattr(labchecks, "disjointify_finite", edited)
        assert verdicts(labchecks.check_disjointify(20, 0)) == {"disjointify-random": False}


class TestExtractorVerdict:
    def test_an_honest_stream_with_a_repeat_fails_the_check_and_the_command(self, monkeypatch, capsys):
        monkeypatch.setattr(oracles, "extract", lambda engine, name, T, copies=1: StreamResult([frozenset()] * T))
        assert labchecks.extractor_verdict("partition", "fresh-singleton", 3)[1] is False
        assert verdicts(labchecks.check_extractors(3))["extract-partition"] is False
        assert main(["extract", "partition", "--oracle", "fresh-singleton", "-T", "3"]) == 1
        assert "[FAIL] extract-partition-fresh-singleton" in capsys.readouterr().out


class TestPoolCap:
    def test_a_pool_past_the_cap_is_refused_before_enumerating(self):
        with pytest.raises(BudgetExceeded, match="17-atom pool"):
            labchecks.invariant_subsets_bruteforce(CAPS["max_atoms"] + 1, 0)
        assert issubclass(BudgetExceeded, RuntimeError)


class TestTypeLayerCounts:
    def test_injections_kernel_work_is_pinned(self, monkeypatch):
        # from cold shape caches, one seed-0 injections check builds these
        # fibres and calls each mask kernel this often, on every machine
        from choiceless import constructions, symsets
        from choiceless.atoms import AtomStructure

        calls = dict.fromkeys(("_pull", "_push", "_fibred", "_constant_patterns_below"), 0)

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("_pull", "_push", "_fibred"):
            counted(symsets, name)
        counted(constructions, "_constant_patterns_below")
        caches = (AtomStructure._shape_fibres, CategoricalStructure._shape_fibres, AtomStructure._shape_memo)
        for cache in caches:
            cache.cache_clear()
        assert all(verdicts(labchecks.check_injections(0)).values())
        infos = [cache.cache_info() for cache in caches]
        assert [i.misses for i in infos] == [4, 4, 115]
        # the fibres handed to the kernels, the homogeneous ones read by shape too
        assert [i.hits + i.misses for i in infos[:2]] == [148, 72]
        # each _fibred call pushes the mask down and pulls it back up
        assert calls == {"_pull": 108, "_push": 128, "_fibred": 108, "_constant_patterns_below": 92}


class TestEngineLayerCounts:
    def test_refutation_witness_work_is_pinned(self, monkeypatch):
        # one seed-0 refutation suite, on every machine: a break records the
        # images of the values it cites without building them, so each
        # subset image is built once, by `verify_witness`; the recording
        # asks the lifts for as many images as building them did
        from choiceless import refute
        from choiceless.atoms import LiftedAutomorphism
        from choiceless.symsets import SupportedSubset

        calls = dict.fromkeys(("SupportedSubset.apply", "verify_witness", "LiftedAutomorphism.apply"), 0)

        def counted(owner, name, label):
            fn = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)

            def wrapper(*args):
                calls[label] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SupportedSubset, "apply", "SupportedSubset.apply")
        counted(refute, "verify_witness", "verify_witness")
        counted(LiftedAutomorphism, "apply", "LiftedAutomorphism.apply")
        assert all(verdicts(labchecks.run_suite("refutation", {"seed": 0})).values())
        assert calls == {"SupportedSubset.apply": 333, "verify_witness": 883, "LiftedAutomorphism.apply": 1655}
