import argparse
import hashlib
import json

import pytest

from choiceless import labchecks, oracles, refute
from choiceless.cli import build_parser, main
from choiceless.refute import EngineBug, InjectivityCollapse, WitnessInvalid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def usage_error(capsys, *argv):
    """A usage error exits 2 with one line on stderr and nothing else."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1


def engine_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == "engine").choices


# sha256 of `verify --suite all --json` stdout: any refactor must keep the
# report byte for byte (it does not depend on PYTHONHASHSEED)
PINNED_VERIFY_ALL = {
    "0": "71611088bf4be4e772081dbb36ac66d5db8b867c6f9135c3398f27c4ca39a386",
    "42": "0bff61b24512ad820d9c4ee7517c33b586581135194a7aed2fca3680ed15f1fd",
}


@pytest.mark.parametrize("seed", sorted(PINNED_VERIFY_ALL))
def test_verify_all_report_is_pinned(seed, capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--json", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_ALL[seed]


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
        ],
        ids=["missing", "not-json", "not-an-object", "no-structure", "no-table", "bad-bits"],
    )
    def test_unreadable_table_is_a_usage_error(self, tmp_path, capsys, text):
        tfile = tmp_path / "table.json"
        if text is not None:
            tfile.write_text(text)
        assert usage_error(capsys, "refute", "fin-to-seq", "--oracle", f"@{tfile}")

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

    def test_fraenkel_json(self, capsys):
        code, out = run(capsys, "count-supports", "--model", "fraenkel", "-n", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"least": 2, "model": "fraenkel", "n": 2, "supported": 8}
