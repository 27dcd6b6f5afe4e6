import json

import numpy as np
import pytest

from pairbundles import classify, cli, core
from pairbundles.cli import main
from pairbundles.core import Mat2, PairAB, SymMat2
from pairbundles.numerics import BoundReport
from pairbundles.witnesses import VerifyReport


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    if stdin is not None and monkeypatch is not None:
        import io
        import sys as _sys
        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def pair_doc(A, B):
    return json.dumps(PairAB(Mat2(np.asarray(A, dtype=complex)),
                             SymMat2(*B)).to_json())


@pytest.fixture
def identity_pair(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(pair_doc(np.eye(2), (1, 0, 3)))
    return str(p)


class TestClassify:
    def test_identity_diag(self, capsys, identity_pair):
        code, out, _ = run(capsys, ["classify", "--input", identity_pair])
        doc = json.loads(out)
        assert code == 0
        assert doc["label"] == "identity/diag_ad"
        assert doc["params"]["a"] == pytest.approx(1.0)
        assert doc["params"]["d"] == pytest.approx(3.0)

    def test_zero_pair_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["classify"],
                           stdin=pair_doc(np.zeros((2, 2)), (0, 0, 0)),
                           monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["label"] == "zero/zero"

    def test_wrong_matrix_size_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "A": [[[1, 0], [0, 0], [0, 0]]] * 3,
            "B": {"a": [0, 0], "b": [0, 0], "d": [0, 0]},
        }))
        code, _, err = run(capsys, ["classify", "--input", str(p)])
        assert code == 1
        assert "2x2" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, ["classify", "--input", str(p)])
        assert code == 1
        assert "line 1" in err

    def test_classifier_failure_exits_3_without_traceback(self, capsys,
                                                          tmp_path):
        # a valid pair on which stage 2 builds a singular reducer
        from pairbundles.witnesses import CATALOG, witness_eval
        fam = next(f for f in CATALOG
                   if f.name == "plus-minus-in-jordan-zero-d")
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(witness_eval(fam, 3e-9)[1].to_json()))
        code, out, err = run(capsys, ["classify", "--input", str(p)])
        # one JSON document on stdout and nothing, so no traceback, on stderr
        assert (code, err) == (3, "")
        assert json.loads(out) == {"error": "P must be invertible"}

    def test_overflowing_B_exits_3_without_traceback(self, capsys, tmp_path):
        p = tmp_path / "pair.json"
        p.write_text(pair_doc(1e-150 * np.eye(2), (1e200, 0, 1e200)))
        code, out, err = run(capsys, ["classify", "--input", str(p)])
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "error": "singular values of B overflow to nan"}

    def test_reduce_includes_representative(self, capsys, identity_pair):
        code, out, _ = run(capsys, ["reduce", "--input", identity_pair])
        assert code == 0
        doc = json.loads(out)
        assert "representative" in doc
        assert doc["label"] == "identity/diag_ad"


class TestClassifierContract:
    """`classify` and `reduce` import the classifier when they run; a
    result is one JSON document with exit 0, an ambiguity exit 2 and a
    failure exit 3, with nothing on stderr."""

    @pytest.mark.parametrize("cmd", ["classify", "reduce"])
    def test_result(self, capsys, identity_pair, cmd):
        cls = classify.classify_pair(PairAB(Mat2.identity(),
                                            SymMat2(1.0, 0.0, 3.0)))
        want = cls.to_json()
        if cmd == "reduce":
            want["representative"] = cli.representative(
                cls.label, cls.params).to_json()
        code, out, err = run(capsys, [cmd, "--input", identity_pair])
        assert (code, out, err) == (0, core.dumps(want, indent=2) + "\n", "")

    @pytest.mark.parametrize("cmd", ["classify", "reduce"])
    @pytest.mark.parametrize("error, exit_code, doc", [
        (classify.AmbiguityError(("identity/diag_ad", "identity/d_identity")),
         2, {"ambiguous": ["identity/diag_ad", "identity/d_identity"],
             "error": "ambiguous classification: "
                      "('identity/diag_ad', 'identity/d_identity')"}),
        (classify.ClassificationFailureError("no catalogued shape"),
         3, {"error": "no catalogued shape"}),
    ], ids=["ambiguous", "failure"])
    def test_errors(self, capsys, monkeypatch, identity_pair, cmd, error,
                    exit_code, doc):
        def fail(x):
            raise error

        monkeypatch.setattr(classify, "classify_pair", fail)
        code, out, err = run(capsys, [cmd, "--input", identity_pair])
        assert (code, json.loads(out), err) == (exit_code, doc, "")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_verify_zero_trials(self, capsys):
        code, _, err = run(capsys, ["verify", "dims", "--trials", "0"])
        assert code == 1
        assert "trials" in err

    def test_verify_has_no_budget(self, capsys):
        # the distance budget belongs to `dist`; no verify suite reads one
        code, _, err = run(capsys, ["verify", "dims", "--budget", "2"])
        assert code == 1
        assert "--budget" in err

    def test_bad_label(self, capsys):
        code, _, _ = run(capsys, ["dim", "not/a-label"])
        assert code == 1

    @pytest.mark.parametrize("content", [None, b"\xd0\xff{}"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_input_file(self, capsys, tmp_path, content):
        path = tmp_path / "pair.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, ["classify", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("cannot read the pair document")

    @pytest.mark.parametrize("argv", [["closure", "export", "psi1"],
                                      ["dim", "zero/zero"]])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv + [
            "--output", str(tmp_path / "missing" / "out.json")])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("cannot write --output")


class TestJsonNumbers:
    """JSON's true, false and strings are not numbers."""

    @pytest.mark.parametrize("A, B", [
        ([[True, False], [False, True]], {"a": True, "b": False, "d": 2}),
        ([[1, 0], [0, 1]], {"a": [True, 0], "b": 0, "d": 2}),
        ([[1, 0], [0, 1]], {"a": "1", "b": 0, "d": 2}),
    ], ids=["booleans", "boolean-part", "string"])
    def test_pair_document(self, capsys, tmp_path, A, B):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"A": A, "B": B}))
        code, out, err = run(capsys, ["classify", "--input", str(p)])
        assert code == 1 and out == ""
        assert "invalid pair document" in err

    @pytest.mark.parametrize("label, params", [
        ("identity/diag_ad", {"a": True, "d": "2"}),
        ("identity/diag_ad", {"a": 1, "d": "2"}),
        ("identity/diag_ad", {"a": False, "d": 2}),
        ("tau_form/one_zeta", {"tau": 0.5, "zeta": "1+2j"}),
        ("tau_form/one_zeta", {"tau": 0.5, "zeta": [1, True]}),
    ])
    def test_params(self, capsys, label, params):
        code, out, err = run(capsys, ["dim", label,
                                      "--params", json.dumps(params)])
        assert code == 1 and out == ""
        assert "invalid --params" in err

    def test_numbers_still_parse(self, capsys):
        params = {"tau": 0.5, "zeta": [1, 2]}
        code, out, _ = run(capsys, ["dim", "tau_form/one_zeta",
                                    "--params", json.dumps(params)])
        assert code == 0 and json.loads(out)["agrees"]


class TestStrictParams:
    """--params accepts an object of the label's own parameters only."""

    @pytest.mark.parametrize("cmd", [["dim"], ["mc", "--trials", "1"]],
                             ids=["dim", "mc"])
    @pytest.mark.parametrize("raw, says", [
        ('{"d": 2, "zeta_str": [1, 0], "theta": 7}',
         "unknown parameters: zeta_str"),
        ('{"d": 2, "theta": 7, "a": 1}',
         "parameters not used by identity/d_identity: a, theta"),
        ("[1, 2]", "parameters JSON must be an object"),
        ("2", "parameters JSON must be an object"),
    ], ids=["misspelt", "unused", "array", "number"])
    def test_rejected(self, capsys, cmd, raw, says):
        code, out, err = run(capsys, cmd[:1] + ["identity/d_identity"]
                             + cmd[1:] + ["--params", raw])
        assert code == 1 and out == ""
        assert err == f"invalid --params: {says}\n"

    def test_own_parameters_pass(self, capsys):
        code, out, _ = run(capsys, ["dim", "identity/d_identity",
                                    "--params", '{"d": 2}'])
        assert code == 0 and json.loads(out)["agrees"]


class TestDim:
    def test_matches_table(self, capsys):
        code, out, _ = run(capsys, ["dim", "one_theta/full_hermitian_like"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 14 and doc["agrees"]

    def test_zero_cell(self, capsys):
        code, out, _ = run(capsys, ["dim", "zero/zero"])
        assert code == 0
        assert json.loads(out)["dimension"] == 0

    @pytest.mark.parametrize("label, params", [
        ("one_zero/diag_a0", '{"a": 1e-7}'),
        ("one_theta/zero", '{"theta": 1e-7}'),
        ("tau_form/zero", '{"tau": 0.9999999}'),
        ("identity/diag_ad", '{"a": 1, "d": 1.0000001}'),
        ("one_zero/diag_a0", '{"a": 1e-300}'),
    ])
    def test_valid_point_near_the_domain_edge(self, capsys, label, params):
        """The rank is exact at the given point, so a valid point however
        close to the edge of its domain counts the table's dimension."""
        code, out, _ = run(capsys, ["dim", label, "--params", params])
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == label and doc["agrees"] is True


class TestClosure:
    def test_path_reports_edges_and_warnings(self, capsys):
        code, out, _ = run(capsys,
                           ["closure", "path", "zero/zero",
                            "one_zero/zero"])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_path"]
        assert doc["edges"]

    def test_non_path(self, capsys):
        code, out, _ = run(capsys,
                           ["closure", "path", "one_theta/zero",
                            "tau_form/zero"])
        assert code == 0
        assert not json.loads(out)["is_path"]

    def test_successors(self, capsys):
        code, out, _ = run(capsys, ["closure", "successors", "zero/zero"])
        assert code == 0
        doc = json.loads(out)
        assert "one_zero/zero" in doc["successors"]

    def test_export_psi2_json(self, capsys):
        code, out, _ = run(capsys, ["closure", "export", "psi2"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 3
        assert [e["src"] for e in doc["edges"]] == ["zero", "rank1"]

    def test_export_psi1_dot(self, capsys):
        code, out, _ = run(capsys,
                           ["closure", "export", "psi1", "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph")
        # all eight nodes with their figure dimensions
        for frag in ("zero (dim 0)", "one_zero (dim 4)",
                     "identity (dim 5)", "one_plus_minus (dim 5)",
                     "nilpotent (dim 6)", "jordan_i (dim 7)",
                     "one_theta (dim 8)", "tau_form (dim 8)"):
            assert frag in out

    def test_export_psi2_dot(self, capsys):
        code, out, _ = run(capsys,
                           ["closure", "export", "psi2", "--format", "dot"])
        assert code == 0
        assert out == ('digraph psi2 {\n  "zero";\n  "rank1";\n  "rank2";\n'
                       '  "zero" -> "rank1";\n  "rank1" -> "rank2";\n}\n')

    def test_export_psi_json_has_46_nodes(self, capsys):
        code, out, _ = run(capsys, ["closure", "export", "psi"])
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 46


class TestWitness:
    def test_eval(self, capsys):
        code, out, _ = run(capsys,
                           ["witness", "eval", "one_zero/zero",
                            "tau_form/zero", "--s", "0.1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] == pytest.approx(0.1 / 1.5)

    def test_verify(self, capsys):
        code, out, _ = run(capsys,
                           ["witness", "verify", "one_zero/zero",
                            "tau_form/zero"])
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    def test_repair_typo_family(self, capsys):
        code, out, _ = run(capsys,
                           ["witness", "repair", "one_plus_minus/zero",
                            "jordan_i/zero"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "repaired"
        assert doc["verify"]["status"] == "verified"

    def test_missing_edge(self, capsys):
        code, _, err = run(capsys,
                           ["witness", "verify", "one_theta/zero",
                            "tau_form/zero"])
        assert code == 1
        assert "no catalogued family" in err


class TestVerifySuites:
    def test_dims_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "dims"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] and not doc["failed"]
        assert doc["counts"]["dims"] == 48  # 46 cells + 2 orbit dims

    def test_bounds_suite_csv(self, capsys):
        code, out, _ = run(capsys,
                           ["verify", "bounds", "--trials", "25",
                            "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,status,margin"
        assert len(lines) == 6  # detxe + four modes
        assert all(line.split(",")[1] == "pass" for line in lines[1:])

    def test_bounds_suite_counts_redraws(self, capsys):
        code, out, _ = run(capsys, ["verify", "bounds", "--seed", "0",
                                    "--trials", "200"])
        assert code == 0
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        redraws = {mode: checks[f"bound-lemadet-{mode}"]["redraws"]
                   for mode in ("PAE", "cE", "PBF", "part3")}
        assert redraws == {"PAE": 0, "cE": 0, "PBF": 44, "part3": 0}
        assert "redraws" not in checks["bound-detxe"]

    def test_all_skipped_bound_has_null_margin(self, capsys, monkeypatch):
        def never_in_hypothesis(mode, rng):
            nan = float("nan")
            return BoundReport(False, nan, nan, nan, name=mode), 20

        monkeypatch.setattr(cli, "sample_lemadet_case", never_in_hypothesis)
        code, out, _ = run(capsys, ["verify", "bounds", "--trials", "3"])
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        for c in doc["checks"][1:]:
            assert c["margin"] is None
            assert c["margin_reason"] == "every sample skipped"
            assert (c["skipped"], c["redraws"]) == (3, 57)
        assert isinstance(doc["checks"][0]["margin"], float)

    def test_witness_without_residuals_has_null_margin(self, capsys,
                                                       monkeypatch):
        def empty_report(fam, tol):
            return VerifyReport(fam.name, (), (), "verified", "")

        monkeypatch.setattr(cli, "witness_verify", empty_report)
        code, out, _ = run(capsys, ["verify", "witness"])
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert all(c["margin"] is None and c["margin_reason"] == "no residuals"
                   for c in doc["checks"])

    def test_dumps_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            core.dumps({"margin": float("inf")})

    def test_witness_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "witness"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"]
        repaired = [c for c in doc["checks"]
                    if c.get("status") == "repaired"]
        assert len(repaired) == 2

    def test_witness_suite_verifies_each_family_once(self, capsys,
                                                     monkeypatch):
        # the suite hands a failing report on to the repair search, which
        # then verifies only corrected candidates
        from pairbundles import witnesses
        verified = []  # the family objects themselves, so ids stay unique

        def counting(verify):
            def wrapped(fam, *args, **kwargs):
                verified.append(fam)
                return verify(fam, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "witness_verify",
                            counting(cli.witness_verify))
        monkeypatch.setattr(witnesses, "witness_verify",
                            counting(witnesses.witness_verify))
        code, out, _ = run(capsys, ["verify", "witness"])
        assert code == 0
        assert len(json.loads(out)["checks"]) == len(witnesses.CATALOG)
        assert len({id(f) for f in verified}) == len(verified)
        assert {id(f) for f in witnesses.CATALOG} <= {id(f) for f in verified}

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(capsys,
                           ["verify", "dims", "--format", "csv",
                            "--output", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("id,status,margin")

    def test_bounds_deterministic(self, capsys):
        _, out1, _ = run(capsys, ["verify", "bounds", "--trials", "10",
                                  "--seed", "3"])
        _, out2, _ = run(capsys, ["verify", "bounds", "--trials", "10",
                                  "--seed", "3"])
        assert out1 == out2
        _, out3, _ = run(capsys, ["verify", "bounds", "--trials", "10",
                                  "--seed", "4"])
        assert out1 != out3


class TestDistAndMc:
    def test_dist_member_is_zero(self, capsys, identity_pair):
        code, out, _ = run(capsys,
                           ["dist", "identity/diag_ad", "--input",
                            identity_pair, "--budget", "2"])
        assert code == 0
        assert json.loads(out)["distance"] <= 1e-8

    def test_mc_zero_cell(self, capsys):
        code, out, _ = run(capsys,
                           ["mc", "zero/zero", "--trials", "40",
                            "--epsilon", "1e-3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []

    def test_mc_epsilon_out_of_range(self, capsys):
        code, _, _ = run(capsys,
                         ["mc", "zero/zero", "--epsilon", "0.5"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["mc", "one_plus_minus/swap_off_diag_b_one", "--epsilon", "1e-7",
         "--trials", "50"],
        ["verify", "graph", "--epsilon", "1e-7", "--trials", "50"],
    ], ids=["mc", "verify-graph"])
    def test_near_defective_one_plus_minus_trials(self, capsys, argv):
        # the trials around swap_off_diag_b_one are near-defective 1(+)-1
        # inputs, which once leaked a ZeroDivisionError
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert isinstance(json.loads(out), dict)


class TestOutOfRangeOptions:
    """A bad --epsilon, --seed or --tol is refused before any work starts:
    exit 1, one line on stderr, nothing on stdout."""

    @pytest.mark.parametrize("argv, says", [
        (["verify", "all", "--epsilon", "0.5"], "--epsilon must lie in (0, 0.1]"),
        (["verify", "graph", "--epsilon", "0"], "--epsilon must lie in (0, 0.1]"),
        (["verify", "graph", "--epsilon", "nan"],
         "--epsilon must lie in (0, 0.1]"),
        (["verify", "bounds", "--seed", "-1"], "--seed must be >= 0"),
        (["verify", "graph", "--seed", "-1", "--trials", "1"],
         "--seed must be >= 0"),
        (["verify", "all", "--seed", "-1"], "--seed must be >= 0"),
        (["mc", "zero/zero", "--seed", "-1"], "--seed must be >= 0"),
        (["mc", "zero/zero", "--epsilon", "0.5"],
         "--epsilon must lie in (0, 0.1]"),
        (["verify", "witness", "--tol", "nan"], "--tol must be finite and > 0"),
        (["verify", "bounds", "--tol", "nan"], "--tol must be finite and > 0"),
        (["verify", "all", "--tol", "0"], "--tol must be finite and > 0"),
        (["witness", "verify", "one_zero/zero", "tau_form/zero", "--tol", "-1"],
         "--tol must be finite and > 0"),
        (["witness", "repair", "one_zero/zero", "tau_form/zero",
          "--tol", "inf"], "--tol must be finite and > 0"),
    ], ids=["verify-all-epsilon", "verify-graph-epsilon-zero",
            "verify-graph-epsilon-nan", "verify-bounds-seed",
            "verify-graph-seed", "verify-all-seed", "mc-seed", "mc-epsilon",
            "verify-witness-tol-nan", "verify-bounds-tol-nan",
            "verify-all-tol-zero", "witness-verify-tol-negative",
            "witness-repair-tol-inf"])
    def test_refused(self, capsys, argv, says):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", says + "\n")

    @pytest.mark.parametrize("argv, says", [
        (["mc", "one_zero/diag_a0", "--params", '{"a": -1}'],
         "invalid parameters for one_zero/diag_a0: a must be positive"),
        (["mc", "one_zero/diag_a0", "--params", '{"a": Infinity}'],
         "invalid parameters for one_zero/diag_a0: a must be finite"),
        (["mc", "identity/d_identity", "--params", '{"d": NaN}'],
         "invalid parameters for identity/d_identity: d must be finite"),
        (["dim", "one_zero/diag_a0", "--params", '{"a": Infinity}'],
         "a must be finite"),
        (["dim", "tau_form/phase_form", "--params",
          '{"tau": 0.5, "phi": NaN, "b": 1, "zeta": [1, 0]}'],
         "phi must be finite"),
        (["dim", "tau_form/phase_form", "--params",
          '{"tau": 0.5, "phi": 1, "b": 1, "zeta": [Infinity, 0]}'],
         "zeta must be finite"),
        (["dim", "nilpotent/zeta_b_one", "--params",
          '{"zeta_star": [0, -Infinity], "b": 1}'],
         "zeta_star must be finite"),
        (["witness", "eval", "one_zero/zero", "tau_form/zero", "--s", "0.5"],
         "s must lie in (0, 0.3] (got 0.5)"),
    ], ids=["mc-negative", "mc-infinite", "mc-nan", "dim-infinite",
            "dim-nan-phi", "dim-infinite-zeta", "dim-infinite-zeta-star",
            "witness-eval-s"])
    def test_out_of_domain_values(self, capsys, argv, says):
        """A value outside its domain is one stderr line naming it, and
        exit 1, never a traceback."""
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", says + "\n")

    @pytest.mark.parametrize("argv", [
        ["classify", "--format", "json"],
        ["dim", "zero/zero", "--format", "csv"],
        ["closure", "path", "zero/zero", "zero/rank1", "--format", "csv"],
        ["witness", "eval", "one_zero/zero", "tau_form/zero", "--s", "0.1",
         "--tol", "1"],
        ["mc", "zero/zero", "--format", "json"],
    ], ids=["classify-format", "dim-format", "closure-path-format",
            "witness-eval-tol", "mc-format"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_dist_seed(self, capsys, identity_pair):
        code, out, err = run(capsys, ["dist", "identity/diag_ad", "--input",
                                      identity_pair, "--budget", "2",
                                      "--seed", "-1"])
        assert (code, out, err) == (1, "", "--seed must be >= 0\n")


class TestStrictPairDocument:
    """A pair document takes exactly the keys that `to_json` writes."""

    @pytest.mark.parametrize("doc, says", [
        ({"A": [[1, 0], [0, 1]], "B": {"a": 1, "b": 0, "d": 2}, "extra": 1},
         "PairAB JSON has unknown keys: extra"),
        ({"A": [[1, 0], [0, 1]], "B": {"a": 1, "b": 0, "d": 2, "zz": 7}},
         "SymMat2 JSON has unknown keys: zz"),
    ], ids=["top-level", "B"])
    def test_unknown_key(self, capsys, tmp_path, doc, says):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["classify", "--input", str(p)])
        assert (code, out, err) == (1, "", f"invalid pair document: {says}\n")

    def test_reduce_representative_classifies(self, capsys, tmp_path,
                                              identity_pair):
        code, out, _ = run(capsys, ["reduce", "--input", identity_pair])
        assert code == 0
        p = tmp_path / "rep.json"
        p.write_text(json.dumps(json.loads(out)["representative"]))
        code, out, _ = run(capsys, ["classify", "--input", str(p)])
        assert code == 0 and json.loads(out)["label"] == "identity/diag_ad"
