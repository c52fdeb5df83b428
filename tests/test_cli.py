"""Command-line surface: JSON reports, determinism, exit codes."""

import argparse
import json
from importlib import resources

import pytest

from lefkit import cli
from lefkit import lefschetz as lf
from lefkit.cli import main
from lefkit.monomials import parse_polynomial


def fixture_path(name):
    return str(resources.files("lefkit").joinpath("fixtures", f"{name.lower()}.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_oct(self, capsys):
        payload = run_json(capsys, "info", "--complex", fixture_path("oct"))
        assert payload["f_vector"] == [1, 6, 12, 8]
        assert payload["h_vector"] == [1, 3, 3, 1]
        assert payload["cohen_macaulay"]["holds"]
        assert payload["pseudomanifold"]["orientable"]
        assert payload["homology_sphere"]
        assert payload["balanced_coloring"] is not None

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "info", "--complex", fixture_path("dunce"))
        _, out2, _ = run(capsys, "info", "--complex", fixture_path("dunce"))
        assert out1 == out2


    def test_matrix_flags_are_refused(self, capsys):
        # --screen and --embed-matrices belong to wlp, kernel and spread only
        code, out, _ = run(capsys, "info", "--complex", fixture_path("oct"), "--screen", "7")
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "info", "--complex", fixture_path("oct"), "--embed-matrices")
        assert (code, out) == (2, "")


class TestHf:
    def test_cross4_capped(self, capsys):
        payload = run_json(
            capsys, "hf", "--complex", fixture_path("cross4"), "--caps", "3",
            "--degrees", "5,6",
        )
        assert payload["values"] == [160, 128]

    def test_quotient_by_linear_form(self, capsys):
        payload = run_json(
            capsys, "hf", "--complex", fixture_path("oct"), "--caps", "2",
            "--forms", "x1+x2+x3+x4+x5+x6", "--degrees", "0,1,2,3",
        )
        assert payload["values"] == [1, 5, 6, 1]

    def test_forms_from_json_file(self, capsys, tmp_path):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps(["x1+x2", "x3+x4", "x5+x6"]))
        payload = run_json(
            capsys, "hf", "--complex", fixture_path("oct"),
            "--forms", str(forms), "--degrees", "0,1,2,3,4",
        )
        assert payload["values"] == [1, 3, 3, 1, 0]

    def test_needs_caps_or_forms(self, capsys):
        code, _, err = run(capsys, "hf", "--complex", fixture_path("oct"))
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_capped_quotient_of_non_cm_complex_scans_to_socle_degree(self, capsys, tmp_path):
        # a triangle plus a disjoint edge is not Cohen-Macaulay, and the cap
        # powers are not linear, so only the frame's socle degree bounds it
        cx = tmp_path / "triangle_edge.json"
        cx.write_text(json.dumps({"name": "triangle+edge",
                                  "facets": [[1, 2], [2, 3], [1, 3], [4, 5]]}))
        payload = run_json(
            capsys, "hf", "--complex", str(cx), "--caps", "2", "--forms", "x1+2*x2+3*x3+x4",
        )
        assert payload["degrees"] == [0, 1, 2, 3]
        assert payload["values"] == [1, 4, 0, 0]

    @pytest.mark.parametrize("degrees", ["1,a", "1,,2", "2.5"])
    def test_bad_degrees_are_parse_errors(self, capsys, degrees):
        code, out, err = run(
            capsys, "hf", "--complex", fixture_path("oct"), "--caps", "2", "--degrees", degrees
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ParseError", "message": f"bad degrees {degrees!r}"}

    def test_forms_file_must_hold_strings(self, capsys, tmp_path):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps(["x1+x2", 7]))
        code, _, err = run(
            capsys, "hf", "--complex", fixture_path("oct"), "--forms", str(forms)
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


class TestWlpSlp:
    def test_wlp_oct_caps2(self, capsys):
        payload = run_json(capsys, "wlp", "--complex", fixture_path("oct"), "--caps", "2")
        assert payload["wlp"]["holds"] is False
        failing = [p for p in payload["wlp"]["per_degree"] if not p["full_rank"]]
        assert failing == [
            {
                "degree": 2, "dim_from": 12, "dim_to": 8, "rank": 7,
                "full_rank": False, "failure_mode": "surjectivity",
            }
        ]

    def test_wlp_screen_accompanies_exact(self, capsys):
        payload = run_json(
            capsys, "wlp", "--complex", fixture_path("c4"), "--caps", "2", "--screen", "5"
        )
        for p in payload["wlp"]["per_degree"]:
            assert "rank" in p
            assert p["screen"]["rank_mod_p"] <= p["rank"]

    def test_slp_edge(self, capsys):
        payload = run_json(capsys, "slp", "--complex", fixture_path("edge"), "--caps", "3")
        assert payload["slp"]["holds"] is True


class TestKernel:
    def test_oct_caps2_degree3(self, capsys):
        payload = run_json(
            capsys, "kernel", "--complex", fixture_path("oct"), "--caps", "2",
            "--degree", "3",
        )
        assert payload["dimension"] == 1
        assert len(payload["basis"]) == 1

    def test_embed_matrices(self, capsys):
        payload = run_json(
            capsys, "kernel", "--complex", fixture_path("oct"), "--caps", "2",
            "--degree", "3", "--embed-matrices",
        )
        assert payload["matrix"]["rows"] == 8
        assert payload["matrix"]["cols"] == 12

    def test_ball10_caps4_degree9(self, capsys):
        payload = run_json(
            capsys, "kernel", "--complex", fixture_path("ball10"), "--caps", "4",
            "--degree", "9",
        )
        assert payload["dimension"] == 7

    def test_witness_with_nonzero_contraction_is_falsification(self, capsys, monkeypatch):
        # x1^2 x2 - x2^3 keeps every exponent below 4, but L contracts it to
        # x1 x2 + x1^2 - x2^2
        witness = lf.InverseSystemPiece(3, (parse_polynomial("x1^2*x2 - x2^3"),))
        monkeypatch.setattr(lf, "kernel_transpose_basis", lambda frame, k: witness)
        code, out, err = run(
            capsys, "kernel", "--complex", fixture_path("oct"), "--caps", "4",
            "--degree", "3",
        )
        assert (code, out) == (5, "")
        assert json.loads(err) == {
            "error": "FalsificationError",
            "message": "kernel element fails divergence hypotheses: F must have zero divergence",
        }

    def test_bad_caps_is_precondition_error(self, capsys):
        code, _, err = run(
            capsys, "kernel", "--complex", fixture_path("oct"), "--caps", "1",
            "--degree", "1",
        )
        assert code == 3
        assert json.loads(err)["error"] == "RangeError"


class TestDerivedComplexes:
    def test_hesd_edge(self, capsys):
        payload = run_json(capsys, "hesd", "--complex", fixture_path("edge"), "--r", "2")
        assert len(payload["vertices"]) == 3
        assert sorted(payload["labels"].values()) == [[0, 2], [1, 1], [2, 0]]

    def test_incidence_fan4(self, capsys):
        payload = run_json(capsys, "incidence", "--complex", fixture_path("fan4"), "--i", "2")
        assert len(payload["vertices"]) == 9
        assert len(payload["facets"]) == 4

    def test_collapse_simplex(self, capsys, tmp_path):
        cx = tmp_path / "simplex.json"
        cx.write_text(json.dumps({"name": "simplex", "vertices": [1, 2, 3],
                                  "facets": [[1, 2, 3]], "meta": {}}))
        payload = run_json(capsys, "collapse", "--complex", str(cx), "--target", "0")
        assert payload["found"] and payload["residual_dim"] == 0

    def test_collapse_dunce_fails(self, capsys):
        payload = run_json(capsys, "collapse", "--complex", fixture_path("dunce"))
        assert payload["found"] is False

    def test_collapse_negative_budget_exit3(self, capsys):
        code, out, err = run(
            capsys, "collapse", "--complex", fixture_path("fan4"), "--budget", "-5"
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "RangeError"


class TestSpread:
    def test_ideal_argument(self, capsys):
        payload = run_json(capsys, "spread", "--ideal", "x1*x2; x2*x3; x1*x3")
        assert payload["analytic_spread"] == 3
        assert payload["maximal"] is True

    def test_facet_ideal_of_complex(self, capsys):
        payload = run_json(capsys, "spread", "--complex", fixture_path("fan4"))
        assert payload["analytic_spread"] == 4

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "spread")
        assert code == 2

    def test_both_sources_refused_after_loading_the_complex(self, capsys):
        code, out, err = run(capsys, "spread", "--complex", fixture_path("fan4"), "--ideal", "x1*x2")
        assert (code, out, json.loads(err)["error"]) == (2, "", "ParseError")
        code, out, err = run(capsys, "spread", "--complex", "no/such/file.json", "--ideal", "x1*x2")
        assert (code, out, json.loads(err)["error"]) == (2, "", "IOError")

    def test_mixed_degrees_exit3(self, capsys):
        code, _, err = run(capsys, "spread", "--ideal", "x1; x2*x3")
        assert code == 3
        assert json.loads(err)["error"] == "EquigenerationError"


class TestSopCommands:
    def test_colored_sop_c4(self, capsys):
        payload = run_json(capsys, "colored-sop", "--complex", fixture_path("c4"))
        assert sorted(payload["sop"]) == ["x1 + x3", "x2 + x4"]

    def test_colored_sop_c3_unbalanced(self, capsys):
        code, _, err = run(capsys, "colored-sop", "--complex", fixture_path("c3"))
        assert code == 4
        assert json.loads(err)["error"] == "HypothesisError"

    def test_dual_gen_oct(self, capsys):
        payload = run_json(capsys, "dual-gen", "--complex", fixture_path("oct"))
        assert payload["dual_generator"].count("x") == 24  # 8 squarefree cubics

    def test_dual_gen_fan4_hypothesis_failure(self, capsys):
        code, _, err = run(capsys, "dual-gen", "--complex", fixture_path("fan4"))
        assert code == 4

    def test_sop_verify_golden(self, capsys):
        payload = run_json(
            capsys, "sop-verify", "--complex", fixture_path("oct"),
            "--sop", "x1+x2; x3+x4; x5+x6",
            "--f", "x1+x2+x3+x4+x5+x6", "--caps", "2", "--t", "3",
        )
        assert payload["overall"] is True
        assert payload["conditions"] == {
            "U1": True, "U2": True, "U3": True, "U4": True, "U5": True
        }

    def test_sop_verify_refuses_a_constant_form(self, capsys):
        code, out, err = run(
            capsys, "sop-verify", "--complex", fixture_path("oct"),
            "--sop", "x1+x2; x3+x4; 1", "--f", "x1+x2+x3+x4+x5+x6",
            "--caps", "2", "--t", "3",
        )
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "HomogeneityError",
            "message": "sop entries must be homogeneous of positive degree: 1",
        }

    def test_sop_verify_parse_error(self, capsys):
        code, _, err = run(
            capsys, "sop-verify", "--complex", fixture_path("oct"),
            "--sop", "x1 + ; x3+x4", "--f", "x1", "--caps", "2", "--t", "3",
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


class TestOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "info", "--complex", fixture_path("c4"), "--out", str(target)
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["f_vector"] == [1, 4, 4]

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "info", "--complex", "no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("vertices", [5, [[1], [2]]])
    def test_malformed_vertices_are_parse_errors(self, capsys, tmp_path, vertices):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"facets": [[1, 2]], "vertices": vertices}))
        code, out, err = run(capsys, "info", "--complex", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ParseError"


# The README's command-line examples, one or more per subcommand, with the
# shipped fixtures for its complex files.
README_EXAMPLES = [
    ("info", "--complex", "oct"),
    ("hf", "--complex", "cross4", "--caps", "3", "--degrees", "5,6"),
    ("hf", "--complex", "ball10", "--caps", "4", "--forms", "x1+x2+x3+x4+x5+x6+x7+x8+x9+x10"),
    ("wlp", "--complex", "oct", "--caps", "2"),
    ("slp", "--complex", "edge", "--caps", "3"),
    ("kernel", "--complex", "ball10", "--caps", "4", "--degree", "9"),
    ("hesd", "--complex", "c4", "--r", "2"),
    ("incidence", "--complex", "fan4", "--i", "2"),
    ("spread", "--ideal", "x1*x2; x2*x3; x1*x3"),
    ("spread", "--complex", "fan4", "--embed-matrices"),
    ("collapse", "--complex", "fan4", "--target", "1"),
    ("colored-sop", "--complex", "oct"),
    ("dual-gen", "--complex", "oct"),
    ("sop-verify", "--complex", "oct", "--sop", "x1+x2; x3+x4; x5+x6",
     "--f", "x1+x2+x3+x4+x5+x6", "--caps", "2", "--t", "3"),
]


def with_complex(argv, path):
    """argv with each --complex value mapped through path."""
    return [path(a) if prev == "--complex" else a for prev, a in zip(("",) + argv, argv)]


def example_id(argv):
    return argv[0] if argv[1] == "--complex" else f"{argv[0]}-{argv[1].lstrip('-')}"


class TestSharedPath:
    def test_examples_cover_every_subcommand(self):
        commands = {argv[0] for argv in README_EXAMPLES}
        (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert commands == set(sub.choices)

    @pytest.mark.parametrize("argv", README_EXAMPLES, ids=example_id)
    def test_out_writes_the_bytes_of_stdout(self, capsys, tmp_path, argv):
        argv = with_complex(argv, fixture_path)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        target = tmp_path / "report.json"
        code, quiet, _ = run(capsys, *argv, "--out", str(target))
        assert (code, quiet) == (0, "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv", [a for a in README_EXAMPLES if "--complex" in a], ids=example_id
    )
    def test_missing_complex_is_io_error(self, capsys, argv):
        code, out, err = run(capsys, *with_complex(argv, lambda _: "no/such/file.json"))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "IOError"


class TestScale:
    def test_info_on_1500_vertex_path(self, capsys, tmp_path):
        path = tmp_path / "path1500.json"
        path.write_text(json.dumps({"name": "P1500", "facets": [[i, i + 1] for i in range(1, 1500)]}))
        payload = run_json(capsys, "info", "--complex", str(path))
        coloring = payload["balanced_coloring"]
        assert len(coloring) == 1500 and set(coloring.values()) == {1, 2}


class TestParser:
    def test_one_parser_per_process(self, capsys):
        assert cli._parser() is cli._parser()
        # a refused invocation leaves the shared parser usable
        assert run(capsys, "info", "--bogus")[0] == 2
        assert run_json(capsys, "info", "--complex", fixture_path("c4"))["f_vector"] == [1, 4, 4]
        assert run(capsys, "hesd", "--complex", fixture_path("edge"), "--r", "2")[0] == 0

    @pytest.mark.parametrize("argv, message", [
        (("info", "--complex", "oct", "--screen", "7"), "unrecognized arguments: --screen 7"),
        (("wlp", "--caps", "2"), "the following arguments are required: --complex"),
        (("nosuch", "--complex", "oct"), "invalid choice: 'nosuch'"),
        (("kernel", "--complex", "oct", "--caps", "2", "--degree", "x"), "invalid int value"),
    ], ids=["unknown-flag", "missing-complex", "unknown-subcommand", "bad-int"])
    def test_argument_errors_are_json_parse_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *with_complex(argv, fixture_path))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert message in error["message"]

    @pytest.mark.parametrize("argv", [("--help",), ("wlp", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: lefkit")
