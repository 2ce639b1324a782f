import argparse
import hashlib
import json
import itertools
import os
import resource
import subprocess
import sys
from typing import Callable, NamedTuple

import pytest

from choiceless import cardtable, labchecks, oracles, refute
from choiceless.atoms import CAPS, BudgetExceeded, CategoricalStructure, PairStructure, atom_to_json
from choiceless.cli import build_parser, main
from choiceless.constructions import hf_to_json, hfset, hftuple
from choiceless.refute import BudgetExhausted, EngineBug, EquivarianceBreak, InjectivityCollapse, WitnessInvalid


def run_module(*args, timeout=300, hash_seed="0"):
    """stdout of `python ARGS` in a fresh process that imports the
    program from this checkout."""
    src = os.path.dirname(os.path.dirname(labchecks.__file__))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        check=True,
        timeout=timeout,
    ).stdout


def run_capped(*argv):
    """`choiceless ARGV` in a fresh process under a 256 MiB address-space
    cap and a 60 s timeout; the cap limits that child process alone."""
    return subprocess.run(
        [sys.executable, "-m", "choiceless.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(labchecks.__file__))),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)),
        capture_output=True,
        text=True,
        timeout=60,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def usage_error(capsys, *argv):
    """A usage error exits 2 with one line on stderr and nothing else."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1


# JSON pieces of pure-set certificates, for tampering with them
def _atom(i):
    return {"id": i, "world": "pure"}


_DENSE = {"world": "dense", "q": "1/2"}


def _seq(*ids):
    return {"tuple": [{"atom": _atom(i)} for i in ids]}


def _map(*pairs):
    return [[_atom(a), _atom(b)] for a, b in pairs]


def answers_differ(data):
    data["transcript"][1][1] = _seq(0)


def wrong_common_value(data):
    data["witness"]["y"] = _seq(0)


def not_injective(data):
    data["witness"]["pi"] = _map((0, 1), (1, 1))


def short_map(data):
    data["witness"]["pi"] = _map((0, 1))


def unprobed_image(data):
    """The cited map sends the input {0, 1} to {0, 2}, over a new atom."""
    data["structure"]["atoms"].append(2)
    data["witness"]["pi"] = _map((0, 0), (1, 2))


def commuting_image(data):
    """As above, with {0, 2} answered by the image of (0, 1)."""
    unprobed_image(data)
    data["transcript"].append([{"set": [{"atom": _atom(0)}, {"atom": _atom(2)}]}, _seq(0, 2)])


def naturals_collapse(data):
    """A collapse whose inputs are the naturals 1 and 2, not finite sets."""
    for i, entry in enumerate(data["transcript"]):
        entry[0] = {"nat": i + 1}
    data["witness"].update(x1={"nat": 1}, x2={"nat": 2})


def repeating_answers(data):
    """A collapse whose common answer <u0, u0> is no one-to-one sequence."""
    for entry in data["transcript"]:
        entry[1] = _seq(0, 0)
    data["witness"]["y"] = _seq(0, 0)


def relabelled_engine(data):
    data["engine"] = "nat-to-power"


def unknown_engine(data):
    data["engine"] = "no-such-engine"


# each tampering, the fin-to-seq oracle whose certificate it edits, and
# the rejection `verify-witness` must name: the first six fail the
# witness, the last four the replay of the transcript through the engine
TAMPERINGS = [
    (answers_differ, "const-empty", "collapse answers differ"),
    (wrong_common_value, "const-empty", "cited common value does not match the transcript"),
    (not_injective, "sort", "cited map is not a partial automorphism"),
    (short_map, "sort", "cited map does not cover the cited objects"),
    (unprobed_image, "sort", "image input was never probed"),
    (commuting_image, "sort", "oracle commutes with the cited map here"),
    (naturals_collapse, "const-empty", "query 1 outside domain Fin(A)"),
    (repeating_answers, "const-empty", "scripted answered <u0, u0> outside Seq(A)"),
    (relabelled_engine, "sort", "query {u0, u1} outside domain N"),
    (unknown_engine, "sort", "unknown engine 'no-such-engine'"),
]


def engine_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == "engine").choices


# sha256 of `verify --suite all --json` stdout: any refactor must keep the
# report byte for byte (it does not depend on PYTHONHASHSEED)
PINNED_VERIFY_ALL = {
    "0": "ada196fab535a200038134189dbfbe30047287482b6709694e06409b3d6e8c9a",
    "42": "4c46d2a6c4a74f9f6f6d30acc1a61cb2390d516374506a70b6b5292feb703a2d",
}


def test_injections_report_is_the_same_under_python_O():
    # a self-check that lived in an assert statement would vanish under -O;
    # the refutation suite re-checks every witness its engines return, and
    # the closure suite reads every fact through the closure's bit masks
    for suite in ("injections", "refutation", "closure"):
        args = ("-m", "choiceless.cli", "verify", "--suite", suite, "--json")
        plain = run_module(*args)
        assert json.loads(plain)["failures"] == 0
        assert run_module("-O", *args) == plain


def test_injections_and_refutation_reports_do_not_depend_on_the_process():
    # atoms and HF sets hash by address, so their set orders change from one
    # process to the next, and strings hash by PYTHONHASHSEED: neither may
    # reach a report
    for suite in ("injections", "refutation"):
        args = ("-m", "choiceless.cli", "verify", "--suite", suite, "--json")
        assert run_module(*args, hash_seed="1") == run_module(*args) == run_module(*args)


@pytest.mark.parametrize("seed", sorted(PINNED_VERIFY_ALL))
def test_verify_all_report_is_pinned(seed, capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--json", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_ALL[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_VERIFY_ALL))
def test_verify_all_report_is_pinned_in_a_fresh_process(seed):
    out = run_module("-m", "choiceless.cli", "verify", "--suite", "all", "--json", "--seed", seed)
    assert hashlib.sha256(out).hexdigest() == PINNED_VERIFY_ALL[seed]


# sha256 of `table ... --json` stdout: every fact of each model closure in
# sorted order, the summary table, and the forbidden pattern's trace, none of
# which `verify --suite all` prints
PINNED_TABLE = {
    "--model fraenkel": "ab2a4917e9bac4016f5f7b0bef4fd1d60887b4579ed914a1928274cef1d56bfd",
    "--model mostowski": "9ad0661429aac7db2f6e91a49cb08adf4049a7210e1019818c6b573e1e360b26",
    "--model vs": "d5bba9ea042efc5e7f870422322a9d82d537d41325003e75c82600591828d33c",
    "--model vc": "2912031cd4fcbfde2afce73551230ae935c631a3d67c27499a3ec2959f943874",
    "--model vp": "00cb443655004d4394b361206dd7cd22639779f97717c5b6f5ee30787411ee25",
    "--model aleph0": "a3ad814d22466e119f657b671de66b9ef60660140925e5813919e8c41169d530",
    "": "8f41c5a136a1b87a6924422dfd5d5952e4b240d17af2c3b098d1a2958aa6cad2",
    "--scenario forbidden": "c879000a48c099c616d3f50e440bbaa6876ca93692538d6f4f1534774754bc15",
}


def test_every_model_table_is_pinned():
    assert {argv.split()[-1] for argv in PINNED_TABLE if argv.startswith("--model")} == set(cardtable.MODELS)


@pytest.mark.parametrize("argv", sorted(PINNED_TABLE))
def test_table_report_is_pinned(argv, capsys):
    code, out = run(capsys, "table", *argv.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TABLE[argv]


class TestVerify:
    def test_counting_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "mostowski-counting", "--max-support", "5")
        assert code == 0
        assert "dense-counting" in out and "PASS" in out

    def test_json_report_shape(self, capsys):
        code, out = run(capsys, "verify", "--suite", "arithmetic", "--fast", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        assert all("claim" in c for c in report["checks"])

    def test_deterministic_bytes(self, capsys):
        args = ("verify", "--suite", "injections", "--seed", "42", "--json")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_exhaustive_witness_is_a_failing_check(self, monkeypatch, capsys):
        engine = refute.refute_fin_to_seq_fraenkel

        def wrong(o):
            engine(o)
            x, y = o.transcript[0]
            return InjectivityCollapse(x, x, y)

        # the registry reaches each engine through its module attribute
        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", wrong)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': 'collapse inputs are equal'" in out and "'script': [" in out

    def test_reassigning_a_checked_witness_is_a_failing_check(self, monkeypatch, capsys):
        engine = refute.refute_fin_to_seq_fraenkel

        def reassigned(o):
            w = engine(o)
            setattr(w, "x" if isinstance(w, EquivarianceBreak) else "x1", o.transcript[0][0])
            return w

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", reassigned)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': \"the cited field 'x" in out

    def test_a_probe_recorded_after_the_check_is_verified_again(self, monkeypatch, capsys):
        """The engine's check is not trusted past a grown transcript: an
        entry that re-answers the witness's cited input fails the leaf."""
        engine = refute.refute_fin_to_seq_fraenkel

        def reanswered(o):
            w = engine(o)
            o.transcript.append((w.x if isinstance(w, EquivarianceBreak) else w.x1, 7))
            return w

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", reanswered)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': 'collapse answers differ'" in out or "'error': 'map fixes both" in out

    def test_mutating_a_checked_map_is_a_failing_check(self, monkeypatch, capsys):
        """A checked break's map is read-only: making it the identity,
        which refutes nothing, fails the leaf instead of counting it."""
        engine = refute.refute_fin_to_seq_fraenkel

        def identity(o):
            w = engine(o)
            if isinstance(w, EquivarianceBreak):
                for a in list(w.pi.pairs):
                    w.pi.pairs[a] = a
            return w

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", identity)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': 'the cited map of a witness is read-only'" in out

    def test_a_transcript_entry_swapped_after_the_check_is_verified_again(self, monkeypatch, capsys):
        """The engine's check is not trusted past a transcript whose entry
        for the cited input was replaced in place, at the same length."""
        engine = refute.refute_fin_to_seq_fraenkel

        def swapped(o):
            w = engine(o)
            x = w.x if isinstance(w, EquivarianceBreak) else w.x1
            (k,) = [k for k, (q, _) in enumerate(o.transcript) if q is x]
            o.transcript[k] = (x, 7)
            return w

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", swapped)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': 'collapse answers differ'" in out or "'error': 'map fixes both" in out

    def test_engine_raising_witness_invalid_in_exhaustive_search_is_a_failing_check(
        self, monkeypatch, capsys
    ):
        engine = refute.refute_fin_to_seq_fraenkel

        def rejected(o):
            engine(o)
            raise WitnessInvalid("cited map moves the declared support")

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", rejected)
        code, out = run(capsys, "verify", "--suite", "refutation", "--fast")
        assert code == 1
        assert "[FAIL] refute-exhaustive-fin-to-seq-0" in out
        assert "'error': 'cited map moves the declared support'" in out

    def test_negative_budget_is_a_usage_error(self, capsys):
        assert usage_error(capsys, "verify", "--suite", "refutation", "--budget", "-1")

    def test_a_budget_past_the_cap_is_a_usage_error(self, capsys):
        assert usage_error(capsys, "verify", "--suite", "refutation", "--budget", "201")

    def test_max_atoms_must_exceed_the_largest_support(self, capsys):
        # the largest support checked is min(--max-support, 3) = 3
        assert main(["verify", "--suite", "fraenkel-dichotomy", "--max-atoms", "3"]) == 2
        assert capsys.readouterr() == ("", "--max-atoms 3: a 3-atom pool has no atom outside a 3-atom support\n")
        code, out = run(capsys, "verify", "--suite", "fraenkel-dichotomy", "--max-atoms", "4")
        assert (code, out.splitlines()[-1]) == (0, "0 failing check(s)")
        assert usage_error(capsys, "verify", "--suite", "all", "--max-atoms", "1", "--max-support", "1", "--fast")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "fraenkel-dichotomy", "--max-atoms", "-1"),
            ("--suite", "extractors", "--stream-length", "-1"),
            ("--max-support", "-1"),
            ("--trials", "-5"),
        ],
        ids=["max-atoms", "stream-length", "max-support", "trials"],
    )
    def test_negative_size_is_a_usage_error(self, capsys, argv):
        assert usage_error(capsys, "verify", *argv)

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _ = run(
            capsys,
            "verify", "--suite", "mostowski-counting", "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["failures"] == 0

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestRefuteCommand:
    def test_witness_roundtrip(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        code, _ = run(
            capsys,
            "refute", "fin-to-seq", "--oracle", "sort", "--emit-witness", str(wfile),
        )
        assert code == 0
        code2, out2 = run(capsys, "verify-witness", str(wfile))
        assert code2 == 0 and "verified" in out2

    def test_default_oracle(self, capsys):
        code, out = run(capsys, "refute", "nat-to-power", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["ok"]

    def test_unknown_oracle_usage_error(self, capsys):
        code = main(["refute", "fin-to-seq", "--oracle", "bogus"])
        assert code == 2

    def test_tampered_witness_rejected(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        run(capsys, "refute", "fin-to-seqstar", "--oracle", "pair-id-order", "--emit-witness", str(wfile))
        data = json.loads(wfile.read_text())
        data["transcript"] = []
        wfile.write_text(json.dumps(data))
        code, out = run(capsys, "verify-witness", str(wfile))
        assert code == 1 and "INVALID" in out

    @pytest.mark.parametrize("tamper,oracle,message", TAMPERINGS, ids=[t.__name__ for t, *_ in TAMPERINGS])
    def test_each_tampering_is_named(self, tmp_path, capsys, tamper, oracle, message):
        wfile = tmp_path / "w.json"
        run(capsys, "refute", "fin-to-seq", "--oracle", oracle, "--emit-witness", str(wfile))
        data = json.loads(wfile.read_text())
        tamper(data)
        wfile.write_text(json.dumps(data))
        assert run(capsys, "verify-witness", str(wfile)) == (1, f"INVALID witness: {message}\n")

    def test_foreign_witness_rejected(self):
        s, E, o = oracles.build_refute_oracle("fin-to-seq", "sort", 0, 0)
        refute.refute_fin_to_seq_fraenkel(o)
        with pytest.raises(WitnessInvalid, match="^unknown witness 'foreign'$"):
            refute.verify_witness("foreign", s, E, o.transcript)

    def test_budget_certificate_refutes_nothing(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        code, out = run(capsys, "refute", "unordered-to-ordered", "--budget", "0", "--emit-witness", str(wfile))
        assert code == 1 and out.startswith("[FAIL]")
        data = json.loads(wfile.read_text())
        witness = refute.witness_from_json(data["witness"], None, ())
        assert isinstance(witness, BudgetExhausted)
        assert (witness.budget, data["witness"]["needed"]) == (0, witness.needed) and witness.needed > 0
        assert oracles.replay_witness(data)  # well formed, yet no refutation
        assert run(capsys, "verify-witness", str(wfile)) == (1, "budget exhausted: a budget result refutes nothing\n")

    @pytest.mark.parametrize("fallback", ["stray", "rotation"])
    def test_pinned_level_fallbacks(self, tmp_path, capsys, fallback):
        # the support holds a level-1 atom, so no level-1 bit can flip; a
        # value naming a stray base atom loses it to a fresh one, a value
        # built over the support alone falls to a rotation of the triple
        s = PairStructure(0)
        c0, c1, *sample = (s.base_atom(i) for i in (0, 1, 2, 3, 4))
        stray = s.base_atom(9)
        over_support = [s.pair_atom(1, c0, c1, 1), s.pair_atom(1, c1, c0, 0), s.pair_atom(1, c1, c0, 1)]
        table = [
            [
                hf_to_json(hfset(a, b)),
                hf_to_json(hftuple(s.pair_atom(1, a, stray, 0), b) if fallback == "stray" else hftuple(value, c0)),
            ]
            for (a, b), value in zip(itertools.combinations(sample, 2), over_support)
        ]
        support = [c0, c1, s.pair_atom(1, c0, c1, 0)]
        tfile, wfile = tmp_path / "table.json", tmp_path / "w.json"
        tfile.write_text(
            json.dumps({"structure": s.to_json(), "support": [atom_to_json(a) for a in support], "table": table})
        )
        code, _ = run(
            capsys,
            "refute", "unordered-to-ordered", "--oracle", f"@{tfile}", "--budget", "3",
            "--emit-witness", str(wfile),
        )
        assert code == 0
        assert run(capsys, "verify-witness", str(wfile)) == (0, "witness verified\n")
        pi = {a["base"]: b["base"] for a, b in json.loads(wfile.read_text())["witness"]["pi"] if "base" in a}
        if fallback == "stray":
            assert pi[2] == 2 and pi[3] == 3 and pi[9] != 9
        else:
            assert (pi[2], pi[3], pi[4]) == (3, 4, 2)

    def test_scripted_table_oracle(self, tmp_path, capsys):
        import itertools

        from choiceless.atoms import PureSetStructure
        from choiceless.constructions import hf_to_json, hfset, hftuple

        s = PureSetStructure(6)
        pool = s.atoms()
        table = [
            [hf_to_json(hfset(a, b)), hf_to_json(hftuple(()))]
            for a, b in itertools.combinations(pool, 2)
        ]
        tfile = tmp_path / "table.json"
        tfile.write_text(
            json.dumps({"structure": s.to_json(), "support": [], "table": table})
        )
        wfile = tmp_path / "w.json"
        code, _ = run(
            capsys,
            "refute", "fin-to-seqstar", "--oracle", f"@{tfile}",
            "--emit-witness", str(wfile),
        )
        assert code == 0
        code2, _ = run(capsys, "verify-witness", str(wfile))
        assert code2 == 0

    def test_incomplete_table_reported_not_crashed(self, tmp_path, capsys):
        from choiceless.atoms import PureSetStructure

        s = PureSetStructure(2)
        tfile = tmp_path / "table.json"
        tfile.write_text(
            json.dumps({"structure": s.to_json(), "support": [], "table": []})
        )
        code, out = run(capsys, "refute", "fin-to-seq", "--oracle", f"@{tfile}")
        assert code == 1 and "no entry" in out

    @pytest.mark.parametrize(
        "text",
        [
            None,  # no such file
            "{not json",
            "[1, 2]",
            json.dumps({"support": [], "table": []}),
            json.dumps({"structure": {"kind": "pure", "atoms": [0, 1]}, "support": []}),
            json.dumps(
                {
                    "structure": {"kind": "pure", "atoms": [0, 1]},
                    "support": [],
                    "table": [
                        [{"nat": 0}, {"subset": {"structure": "pure_set", "support": [], "bits": "x"}}]
                    ],
                }
            ),
            # a dense atom in a bare-set table: as an answer, and as a support atom
            json.dumps(
                {
                    "structure": {"kind": "pure", "atoms": [0, 1]},
                    "support": [],
                    "table": [[{"set": [{"atom": _atom(0)}, {"atom": _atom(1)}]}, {"tuple": [{"atom": _DENSE}]}]],
                }
            ),
            json.dumps(
                {
                    "structure": {"kind": "pure", "atoms": [0, 1]},
                    "support": [_DENSE],
                    "table": [[{"set": [{"atom": _atom(0)}, {"atom": _atom(1)}]}, {"tuple": []}]],
                }
            ),
        ],
        ids=[
            "missing", "not-json", "not-an-object", "no-structure", "no-table", "bad-bits",
            "foreign-answer-atom", "foreign-support-atom",
        ],
    )
    def test_unreadable_table_is_a_usage_error(self, tmp_path, capsys, text):
        tfile = tmp_path / "table.json"
        if text is not None:
            tfile.write_text(text)
        assert usage_error(capsys, "refute", "fin-to-seq", "--oracle", f"@{tfile}")

    @pytest.mark.parametrize(
        "engine, structure, support",
        [
            ("fin-to-seq", {"kind": "pure", "atoms": [0, 1]}, [{"world": "pure", "id": "x"}]),
            ("fin-to-seq", {"kind": "pure", "atoms": [0, "y"]}, []),
            ("fin-to-seq", {"kind": "pure", "atoms": [0, 1]}, [{"world": "pure", "id": True}]),
            ("unordered-to-ordered", {"kind": "pairs", "atoms": []}, [{"world": "pairs", "base": "z"}]),
            ("fin-to-seq", {"kind": "categorical", "nodes": [{"node": "n", "pos": "0/1"}], "rfacts": []}, []),
        ],
        ids=["string-id", "string-atom", "bool-id", "string-base", "string-node"],
    )
    def test_an_atom_id_that_is_not_a_natural_is_refused(self, tmp_path, engine, structure, support):
        tfile = tmp_path / "table.json"
        tfile.write_text(json.dumps({"structure": structure, "support": support, "table": []}))
        done = run_capped("refute", engine, "--oracle", f"@{tfile}")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("cannot read oracle table") and "is not a natural" in done.stderr
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr

    @pytest.mark.parametrize("bad", [True, 1.5, -1], ids=["bool", "float", "negative"])
    def test_bad_natural_is_refused(self, tmp_path, capsys, bad):
        subset = {"subset": {"structure": "pure_set", "support": [], "bits": "0"}}
        tfile = tmp_path / "table.json"
        tfile.write_text(
            json.dumps({"structure": {"kind": "pure", "atoms": []}, "table": [[{"nat": bad}, subset]]})
        )
        assert usage_error(capsys, "refute", "nat-to-power", "--oracle", f"@{tfile}")
        wfile = tmp_path / "w.json"
        run(capsys, "refute", "nat-to-power", "--emit-witness", str(wfile))
        data = json.loads(wfile.read_text())
        assert data["transcript"][0][0] == {"nat": 0}
        data["transcript"][0][0] = {"nat": bad}
        wfile.write_text(json.dumps(data))
        code, out = run(capsys, "verify-witness", str(wfile))
        assert code == 1 and "INVALID" in out and "natural" in out

    @pytest.mark.parametrize("text", [None, "", "[1, 2"], ids=["missing", "empty", "not-json"])
    def test_unreadable_witness_is_a_usage_error(self, tmp_path, capsys, text):
        wfile = tmp_path / "w.json"
        if text is not None:
            wfile.write_text(text)
        assert usage_error(capsys, "verify-witness", str(wfile))

    @pytest.mark.parametrize(
        "argv",
        [
            ("seq-to-power", "--support", "2"),
            ("seq-to-power", "--oracle", "random", "--support", "0"),
            ("fin-to-seq", "--support", "-1"),
        ],
        ids=["below-engine-minimum", "random-below-engine-minimum", "negative"],
    )
    def test_bad_support_is_a_usage_error(self, capsys, argv):
        assert usage_error(capsys, "refute", *argv)

    @pytest.mark.parametrize(
        "error",
        [EngineBug("probe bound exhausted without witness"), WitnessInvalid("collapse inputs are equal")],
        ids=["engine-bug", "witness-invalid"],
    )
    def test_engine_failure_is_a_failing_check(self, monkeypatch, capsys, error):
        def broken(o):
            raise error

        monkeypatch.setattr(refute, "refute_fin_to_seq_fraenkel", broken)
        code, out = run(capsys, "refute", "fin-to-seq", "--json")
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["id"] == "refute-fin-to-seq-sort" and not check["ok"]
        assert check["details"] == {"error": str(error)}

    @pytest.mark.parametrize("engine", ["unordered-to-ordered", "fin-to-seq"])
    def test_negative_budget_is_a_usage_error(self, capsys, engine):
        assert usage_error(capsys, "refute", engine, "--budget", "-1")

    def test_model_flag_cross_check(self, capsys):
        code = main(["refute", "fin-to-seq", "--model", "vp"])
        assert code == 2
        code2, _ = run(capsys, "refute", "fin-to-seq", "--model", "fraenkel")
        assert code2 == 0

    def test_seq_to_power_draws_its_sequences_lazily(self):
        # about e * 10! sequences: listed up front they outgrow the cap
        done = run_capped("refute", "seq-to-power", "--support", "10")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("0 failing check(s)\n")

    def test_pairmodel_budget_flag(self, capsys):
        code, out = run(
            capsys,
            "refute", "unordered-to-ordered", "--oracle", "base-id-order",
            "--budget", "6", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["details"]["witness"]["kind"] == "equivariance-break"


class TestExtractCommand:
    def test_honest_stream(self, capsys):
        code, out = run(capsys, "extract", "fin-to-atom", "-T", "50", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["details"]["values"] == 50

    def test_cheating_oracle_convicted(self, capsys):
        code, out = run(
            capsys, "extract", "partition", "--oracle", "const", "-T", "10", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["details"]["collapse"]

    def test_surplus_copies_flag(self, capsys):
        code, _ = run(capsys, "extract", "surplus", "--copies", "2", "-T", "30")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [("partition", "-T", "-3"), ("surplus", "--copies", "0")],
        ids=["negative-stream-length", "no-copies"],
    )
    def test_bad_size_is_a_usage_error(self, capsys, argv):
        assert usage_error(capsys, "extract", *argv)

    def test_unknown_oracle_usage_error(self, capsys):
        assert usage_error(capsys, "extract", "surplus", "--oracle", "bogus")

    def test_a_stream_past_the_cap_is_refused_before_running(self, monkeypatch):
        def never(*args):
            raise AssertionError("the extractor ran")

        monkeypatch.setitem(oracles.EXTRACT, "partition", oracles.EXTRACT["partition"]._replace(run=never))
        with pytest.raises(BudgetExceeded):
            oracles.extract("partition", "fresh-singleton", CAPS["stream_length"] + 1)
        assert issubclass(BudgetExceeded, RuntimeError)


class TestRegistry:
    def test_cli_and_suite_cover_every_engine(self):
        assert engine_choices("refute") == sorted(oracles.REFUTE)
        assert engine_choices("extract") == sorted(oracles.EXTRACT)
        assert sorted([*oracles.REFUTE, *oracles.EXTRACT]) == sorted(oracles.ENGINES)
        ids = {c["id"] for c in labchecks.run_suite("refutation", {"fast": True, "trials": 4})}
        assert {f"refute-builtin-{engine}" for engine in oracles.REFUTE} <= ids


    def test_suite_defaults_match_the_cli(self, capsys):
        for suite in ("extractors", "fraenkel-dichotomy", "mostowski-counting"):
            code, out = run(capsys, "verify", "--suite", suite, "--json")
            assert code == 0
            assert labchecks.run_suite(suite) == json.loads(out)["checks"], suite

    def test_verify_options_default_to_the_settings(self):
        args = build_parser().parse_args(["verify"])
        assert {key: getattr(args, key) for key in labchecks.SETTINGS} == labchecks.SETTINGS

    def test_unknown_builtin_oracle_is_a_key_error(self):
        with pytest.raises(KeyError):
            oracles.builtin_oracle("fin-to-seq", "bogus")
        with pytest.raises(KeyError):
            oracles.builtin_oracle("bogus", "sort")


class TestTableCommand:
    def test_model_closure_lists_chain(self, capsys):
        code, out = run(capsys, "table", "--model", "vc")
        assert code == 0
        assert "Seq(m) <= 2^(m)" in out
        assert "2^(m) <= seq(m)" in out
        assert "consistent" in out

    def test_full_table_check(self, capsys):
        code, out = run(capsys, "table", "--json")
        assert code == 0
        report = json.loads(out)
        assert all(c["ok"] for c in report["checks"])

    def test_forbidden_scenario(self, capsys):
        code, out = run(capsys, "table", "--scenario", "forbidden", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["ok"]
        assert report["checks"][0]["details"]["trace"]

    def test_forbidden_trace_lines_pinned(self, capsys):
        code, out = run(capsys, "table", "--scenario", "forbidden", "--json")
        assert code == 0
        assert json.loads(out)["checks"][0]["details"] == {
            "trace": [
                "2^(m) <= seq(m)   [le-transitive]",
                "  2^(m) <= Seq(m)   [axiom:scenario:power-into-one-to-one]",
                "  Seq(m) <= seq(m)   [schema:one-to-one-is-a-sequence]",
                "2^(m) !<= seq(m)   [no-power-into-sequences]",
                "  aleph0 <= m   [repeats-give-counting]",
                "    Seq(m) = seq(m)   [axiom:scenario:sequence-kinds-agree]",
            ]
        }

    def test_unknown_model(self, capsys):
        code = main(["table", "--model", "bogus"])
        assert code == 2


class TestCountSupports:
    def test_mostowski(self, capsys):
        code, out = run(capsys, "count-supports", "--model", "mostowski", "-n", "3")
        assert code == 0 and "128" in out and "54" in out

    def test_negative_size_is_a_usage_error(self, capsys):
        assert usage_error(capsys, "count-supports", "--model", "fraenkel", "-n", "-1")

    def test_large_support_answers_at_once(self):
        # a sum over sub-support sizes, not a recursion over sub-supports
        out = run_module(
            "-m", "choiceless.cli", "count-supports", "--model", "mostowski", "-n", "40", "--json",
            timeout=60,
        )
        assert json.loads(out) == {"least": 2 * 3**40, "model": "mostowski", "n": 40, "supported": 2**81}

    def test_fraenkel_json(self, capsys):
        code, out = run(capsys, "count-supports", "--model", "fraenkel", "-n", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"least": 2, "model": "fraenkel", "n": 2, "supported": 8}


# ---------------------------------------------------------------------------
# the size caps, swept from the CLI

PASS, FAIL = "0 failing check(s)\n", "1 failing check(s)\n"


class Cap(NamedTuple):
    """One way to reach a row of CAPS from the CLI: `argv(size, tmp_path)`,
    the size at the cap, the end of stdout there, and the one stderr
    line one size past it."""

    argv: Callable
    size: int
    out: str
    refusal: str


def _argv(*head):
    return lambda size, tmp_path: [*head, str(size)]


def _scripted(engine, table):
    """`refute ENGINE` against the scripted table `table(size)`."""

    def argv(size, tmp_path):
        path = tmp_path / f"table-{size}.json"
        path.write_text(json.dumps(table(size)))
        return ["refute", engine, "--oracle", f"@{path}"]

    return argv


def _pair_support(size):
    atoms = [{"world": "pairs", "base": i} for i in range(size)]
    return {"structure": {"kind": "pairs", "atoms": atoms}, "support": atoms, "table": []}


def _pair_chain(level):
    atom = {"world": "pairs", "base": 0}
    for lvl in range(1, level + 1):
        atom = {"world": "pairs", "level": lvl, "pair": [atom, {"world": "pairs", "base": 1}], "bit": 0}
    return {"structure": {"kind": "pairs", "atoms": [atom]}, "table": []}


def _categorical_answer(size):
    """0 answered by a subset over a homogeneous support of `size` atoms;
    past two atoms the type count is refused before the bits are read."""
    width = CategoricalStructure._type_count(size) if size <= 2 else 1
    subset = {"structure": "categorical", "support": [{"world": "cat", "node": i} for i in range(size)], "bits": "0" * width}
    structure = {"kind": "categorical", "nodes": [{"node": i, "pos": str(i)} for i in range(size)], "rfacts": []}
    return {"structure": structure, "table": [[{"nat": 0}, {"subset": subset}]]}


def _counts(model, n, types, least):
    return json.dumps({"least": least, "model": model, "n": n, "supported": 2**types}, sort_keys=True) + "\n"


STREAM = "--stream-length 501: a stream of 501 values exceeds the cap of 500 values"
TRIALS = "--trials 2001: a run of 2001 trials exceeds the cap of 2000 trials"

# Per row of CAPS, each way the CLI reaches it.  `n` caps 1-types, so its
# sizes are the largest -n each model takes; `types` and `level` cap sizes
# the library meets, which a scripted table reaches, and the size at the
# `types` cap is the largest support it admits.
SWEEP = {
    "max_support": {
        "verify": Cap(
            _argv("verify", "--suite", "mostowski-counting", "--max-support"), 500, PASS,
            "--max-support 501: a 501-atom support exceeds the cap of 500 atoms",
        ),
    },
    "max_atoms": {
        "verify": Cap(
            _argv("verify", "--suite", "fraenkel-dichotomy", "--max-atoms"), 16, PASS,
            "--max-atoms 17: a 17-atom pool exceeds the cap of 16 atoms",
        ),
    },
    "trials": {
        "refutation": Cap(_argv("verify", "--suite", "refutation", "--trials"), 2000, PASS, TRIALS),
        "extractors": Cap(_argv("verify", "--suite", "extractors", "--trials"), 2000, PASS, TRIALS),
    },
    "stream_length": {
        "extract": Cap(_argv("extract", "fin-to-atom", "-T"), 500, PASS, STREAM),
        "verify": Cap(_argv("verify", "--suite", "extractors", "--stream-length"), 500, PASS, STREAM),
    },
    "budget": {
        "refute": Cap(
            _argv("refute", "unordered-to-ordered", "--budget"), 200, PASS,
            "--budget 201: a sample of 201 atoms exceeds the cap of 200 atoms",
        ),
    },
    "support": {
        # the random oracle outlasts the sample: the run fails with a budget
        # result, whose colouring bound must still print
        "refute": Cap(
            _argv("refute", "unordered-to-ordered", "--oracle", "random", "--support"), 35, FAIL,
            "--support 36: a 36-atom support exceeds the cap of 35 atoms",
        ),
        "scripted": Cap(
            _scripted("unordered-to-ordered", _pair_support), 35, FAIL,
            "a 36-atom support exceeds the cap of 35 atoms",
        ),
    },
    "copies": {
        "extract": Cap(
            _argv("extract", "surplus", "--copies"), 1000, PASS,
            "--copies 1001: a surplus of 1001 copies exceeds the cap of 1000 copies",
        ),
    },
    "n": {
        "mostowski": Cap(
            _argv("count-supports", "--model", "mostowski", "--json", "-n"), 6999,
            _counts("mostowski", 6999, 13999, 2 * 3**6999),
            "-n 7000: a 7000-atom mostowski support with 14001 1-types exceeds the cap of 14000 1-types",
        ),
        "fraenkel": Cap(
            _argv("count-supports", "--model", "fraenkel", "--json", "-n"), 13999,
            _counts("fraenkel", 13999, 14000, 2),
            "-n 14000: a 14000-atom fraenkel support with 14001 1-types exceeds the cap of 14000 1-types",
        ),
    },
    "types": {
        "scripted": Cap(
            _scripted("nat-to-power", _categorical_answer), 2, FAIL,
            "a 3-atom support with 2251799813685251 types exceeds the cap of 65536 types",
        ),
    },
    "level": {
        "scripted": Cap(
            _scripted("unordered-to-ordered", _pair_chain), 8, FAIL,
            "a level-9 pair atom exceeds the cap of 8 levels",
        ),
    },
}


class TestSizeCaps:
    @pytest.mark.parametrize(
        "setting,case", [pytest.param(k, c, id=f"{k}-{c}") for k in CAPS for c in SWEEP.get(k, ["no-argv"])]
    )
    def test_at_and_past_the_cap(self, setting, case, tmp_path):
        # each run in a fresh process under run_capped's memory cap and timeout
        assert case in SWEEP.get(setting, {}), f"the {setting!r} row of CAPS has no argv"
        argv, size, out, refusal = SWEEP[setting][case]
        at = run_capped(*argv(size, tmp_path))
        assert (at.returncode, at.stderr) == (int(out == FAIL), "")
        assert at.stdout.endswith(out)
        past = run_capped(*argv(size + 1, tmp_path))
        assert (past.returncode, past.stdout, past.stderr.splitlines()) == (2, "", [refusal])

    def test_every_size_option_has_a_row(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        sizes = {a.dest for p in sub.choices.values() for a in p._actions if a.type is int}
        sizes.remove("seed")  # a seed is not a size
        assert sizes <= set(CAPS)
        assert set(SWEEP) == set(CAPS)
