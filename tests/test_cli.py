"""CLI integration: documents, determinism, and the exit-code contract."""

import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_kirby.cli import (
    MAX_INPUT_CHARS,
    canonical_json,
    main,
    parse_rational,
    parse_signs,
)
from contact_kirby.errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
)
from contact_kirby.exact import det
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import (
    convert,
    enumerate_presentations,
    linking_matrix,
    rot_vector,
    stabilization_budget,
)
from contact_kirby.transform import invariants_after_surgery, invariants_by_inverse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = (
        resources.files("contact_kirby")
        .joinpath("schemas/report-v1.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


SCHEMA = load_schema()


def assert_valid_document(out):
    document = json.loads(out)
    jsonschema.validate(document, SCHEMA)
    return document


class TestParseHelpers:
    def test_accepts_integers_and_fractions(self):
        assert parse_rational("-3/2") == parse_rational("-6/4")
        assert parse_rational("+1") == 1
        assert parse_rational(7) == 7

    def test_rejects_floats_and_garbage(self):
        for bad in ("1.5", "3/2/1", "a", "", None, 1.5):
            with pytest.raises(InvalidInputError):
                parse_rational(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidInputError):
            parse_rational("1/0")

    def test_signs(self):
        assert parse_signs("+-") == (1, -1)
        assert parse_signs("") == ()
        with pytest.raises(InvalidInputError):
            parse_signs("+x")


class TestExpand:
    def test_examples(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "-3/2")
        assert code == 0
        assert out.splitlines()[0] == "[-3, -2]"

        code, out, _ = run_cli(capsys, "expand", "-1")
        assert code == 0
        assert out.splitlines()[0] == "[-2]"

        code, out, _ = run_cli(capsys, "expand", "-6/5")
        assert code == 0
        assert out.splitlines()[0] == "[-3, -2, -2, -2, -2]"

    def test_round_trip_line(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "-3/2")
        assert out.splitlines()[1] == "round-trip: -3/2"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "-3/2", "--format", "json")
        assert code == 0
        document = assert_valid_document(out)
        assert document["coefficients"] == [-3, -2]
        assert document["round_trip"] == "-3/2"

    def test_rejects_positive(self, capsys):
        # 1/N would convert into N components, but expand refuses its sign first
        for coefficient in ("0", "5/3", "1/2", f"1/{10 ** 18}"):
            code, out, err = run_cli(capsys, "expand", coefficient)
            assert (code, out) == (2, "")
            assert err == f"error: only negative coefficients expand (got {coefficient})\n"

    def test_rejects_unparseable(self, capsys):
        code, _, err = run_cli(capsys, "expand", "0.5")
        assert code == 2
        assert err


class TestConvert:
    def test_m2_both_presentations(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--tb", "-2", "--rot", "-1", "--coeff", "3"
        )
        assert code == 0
        document = assert_valid_document(out)
        assert len(document["presentations"]) == 2
        expected = [[-1, -2, -2], [-2, -4, -3], [-2, -3, -4]]
        for pres in document["presentations"]:
            assert pres["linking_matrix"] == expected
            assert pres["determinant"] == 1

    def test_plus_one_single_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--tb", "-2", "--rot", "-1", "--coeff", "+1"
        )
        assert code == 0
        document = assert_valid_document(out)
        (pres,) = document["presentations"]
        assert pres["linking_matrix"] == [[-1]]

    def test_m1_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "2"
        )
        assert code == 0
        document = assert_valid_document(out)
        for pres in document["presentations"]:
            assert pres["linking_matrix"] == [[0, -1], [-1, -3]]
            assert pres["determinant"] == -1

    def test_signs_select_one_branch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convert", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--signs", "-",
        )
        assert code == 0
        document = assert_valid_document(out)
        (pres,) = document["presentations"]
        assert pres["signs"] == "-"

    def test_zero_coefficient_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "0"
        )
        assert code == 2
        assert "0-surgery" in err

    def test_invalid_knot_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "--tb", "-2", "--rot", "0", "--coeff", "3"
        )
        assert code == 2
        assert "parity" in err

    def test_table_format_runs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convert", "--tb", "-2", "--rot", "-1", "--coeff", "3",
            "--format", "table",
        )
        assert code == 0
        assert "presentation 1 of 2" in out
        assert "determinant: 1" in out

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "diagram.json"
        path.write_text(
            json.dumps(
                {
                    "knot": {"type": "unknot", "tb": -2, "rot": -1},
                    "coefficient": 3,
                    "signs": "+",
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "convert", "--input", str(path))
        assert code == 0
        document = assert_valid_document(out)
        assert document["input"]["coefficient"] == "3"
        assert len(document["presentations"]) == 1

    def test_input_file_conflicts_with_flags(self, tmp_path, capsys):
        path = tmp_path / "diagram.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "convert", "--input", str(path), "--tb", "-1"
        )
        assert code == 2
        assert "--input" in err

    def test_input_file_rejects_boolean_tb_and_rot(self, tmp_path, capsys):
        path = tmp_path / "diagram.json"
        for field, knot in (
            ("rot", {"tb": -1, "rot": False}),
            ("tb", {"tb": True, "rot": 0}),
        ):
            knot = dict(knot, type="unknot")
            path.write_text(
                json.dumps({"knot": knot, "coefficient": "-2"}), encoding="utf-8"
            )
            code, out, err = run_cli(capsys, "convert", "--input", str(path))
            assert code == 2
            assert out == ""
            assert f"knot {field} must be an integer" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--input", "/nonexistent.json")
        assert code == 2
        assert err == f"error: cannot read /nonexistent.json: {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.parametrize("depth", [1, 25])
    def test_unreadable_input_names_its_path_once(self, tmp_path, capsys, depth):
        # 25 levels of 200 characters pass PATH_MAX: open() fails before any
        # lookup, and the message writes the first 4096 characters and the length
        path = str(tmp_path.joinpath(*["x" * 200] * depth))
        shown = path if depth == 1 else f"{path[:4096]}... ({len(path)} characters)"
        code, out, err = run_cli(capsys, "convert", "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {shown}: ")
        assert err.count(path[:4096]) == 1
        assert err.count("\n") == 1
        assert len(err) < len(shown) + 60

    @pytest.mark.parametrize("length", [4096, 4097, 5000])
    def test_invalid_json_in_a_long_path(self, monkeypatch, capsys, length):
        from contact_kirby import _presentations

        # open() refuses a path past PATH_MAX, so the file is a stand-in
        monkeypatch.setattr(_presentations, "open", lambda *args, **kwargs: io.StringIO("{"), raising=False)
        path = "/" + "x" * (length - 1)
        shown = path if length <= 4096 else f"{path[:4096]}... ({length} characters)"
        code, out, err = run_cli(capsys, "convert", "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {shown}: ")
        assert err.count("x" * 4095) == 1
        assert err.count("\n") == 1


class TestAnalyze:
    def test_m2_branches(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--lk", "1",
        )
        assert code == 0
        document = assert_valid_document(out)
        results = [
            (
                p["invariants"]["tb_new"],
                p["invariants"]["rot_new"],
                p["invariants"]["bennequin"]["satisfied"],
            )
            for p in document["presentations"]
        ]
        assert results == [(-2, 3, False), (-2, -1, True)]

    def test_zero_linking_unchanged(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--lk", "0",
            "--ext-tb", "-3", "--ext-rot", "2",
        )
        assert code == 0
        document = assert_valid_document(out)
        for pres in document["presentations"]:
            assert pres["invariants"]["tb_new"] == -3
            assert pres["invariants"]["rot_new"] == 2

    def test_decrease_family_m3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--tb", "-3", "--rot", "-2", "--coeff", "2", "--lk", "-1",
        )
        assert code == 0
        document = assert_valid_document(out)
        for pres in document["presentations"]:
            assert pres["linking_matrix"] == [[-2, -3], [-3, -5]]
            assert pres["invariants"]["tb_new"] == 0

    def test_non_integral_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "--tb", "-1", "--rot", "0", "--coeff", "-3", "--lk", "1",
            "--signs", "++",
        )
        assert code == 3
        assert "/" in err  # message carries the exact rational value

    def test_singular_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "2", "--lk", "1",
        )
        assert code == 3
        assert "singular" in err


class TestClassify:
    def test_survivor(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--m", "2", "--n", "3")
        assert code == 0
        document = assert_valid_document(out)
        assert document["collection"] == "C2"
        assert document["survives"] is True
        statuses = [v["status"] for v in document["verdicts"]]
        assert statuses == [
            "overtwisted-certified",
            "consistent-with-standard-tight",
        ]

    def test_gate_rejection_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--m", "2", "--n", "2")
        assert code == 2
        assert "n = m +/- 1" in err

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "2", "--n", "3", "--format", "table"
        )
        assert code == 0
        assert "tight (asserted)" in out


class TestTable:
    def test_json_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "5", "--format", "json"
        )
        assert code == 0
        document = assert_valid_document(out)
        assert len(document["reports"]) == 10
        for report in document["reports"]:
            if report["collection"] == "C1":
                assert report["survives"] is False

    def test_text_default(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["m", "n", "collection", "branches", "survivor"]
        assert len(lines) == 5

    def test_negative_m_max_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--m-max", "-1")
        assert code == 2
        assert err


class TestContract:
    def test_determinism(self, capsys):
        invocations = [
            ("expand", "-17/12", "--format", "json"),
            ("convert", "--tb", "-3", "--rot", "-2", "--coeff", "4"),
            ("analyze", "--tb", "-3", "--rot", "-2", "--coeff", "4", "--lk", "1"),
            ("classify", "--m", "3", "--n", "4"),
            ("table", "--m-max", "4", "--format", "json"),
            ("table", "--m-max", "4"),
        ]
        for argv in invocations:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second
            assert first[0] == 0

    def test_json_round_trip_byte_identical(self, capsys):
        for argv in (
            ("convert", "--tb", "-2", "--rot", "-1", "--coeff", "3"),
            ("classify", "--m", "4", "--n", "5"),
            ("table", "--m-max", "3", "--format", "json"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            reparsed = json.loads(out)
            assert canonical_json(reparsed) + "\n" == out

    def test_no_floating_point_anywhere(self, capsys):
        for argv in (
            ("expand", "-8/5", "--format", "json"),
            ("convert", "--tb", "-2", "--rot", "-1", "--coeff", "-7/5"),
            ("analyze", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--lk", "1"),
            ("table", "--m-max", "4", "--format", "json"),
        ):
            _, out, _ = run_cli(capsys, *argv)

            def walk(node):
                if isinstance(node, dict):
                    for value in node.values():
                        walk(value)
                elif isinstance(node, list):
                    for value in node:
                        walk(value)
                else:
                    assert not isinstance(node, float)
                    if isinstance(node, str):
                        assert "." not in node or not any(
                            ch.isdigit() for ch in node
                        )

            walk(json.loads(out))

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--m", "2")
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_double_dash_option_value(self, capsys):
        # "--" is the value of the option, not the end-of-options marker
        code, out, err = run_cli(
            capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "-3", "--signs=--"
        )
        assert (code, err) == (0, "")
        document = assert_valid_document(out)
        assert document["input"]["signs"] == "--"
        assert [p["signs"] for p in document["presentations"]] == ["--"]
        for argv in (("table", "--m-max=--"), ("classify", "--m=--", "--n", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "invalid int value: '--'" in err

    @pytest.mark.parametrize("command", ["convert", "analyze"])
    @pytest.mark.parametrize(
        "signs, coeff", [("-+", "-3"), ("+-", "-3"), ("--+", "-4"), ("---", "-4")]
    )
    def test_signs_value_may_start_with_a_dash(self, capsys, command, signs, coeff):
        argv = [command, "--tb", "-1", "--rot", "0", "--coeff", coeff]
        if command == "analyze":
            argv += ["--lk", "0"]
        separate = run_cli(capsys, *argv, "--signs", signs)
        joined = run_cli(capsys, *argv, f"--signs={signs}")
        assert separate == joined
        assert separate[0] == 0
        assert [p["signs"] for p in json.loads(separate[1])["presentations"]] == [signs]

    def test_closed_stdout_exits_zero_without_traceback(self):
        self.assert_closed_stdout_exits_zero("json", b"{\n")

    def test_closed_stdout_exits_zero_in_text_format(self):
        self.assert_closed_stdout_exits_zero(
            "table", b"presentation 1 of 2048 (signs: +++++++++++)\n"
        )

    @staticmethod
    def assert_closed_stdout_exits_zero(fmt, first):
        # like `contact-kirby convert ... | head -1`; the output (2048
        # presentations) is far larger than a pipe buffer, so the child is
        # still writing when the reader closes its end
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [
                sys.executable, "-c", "from contact_kirby.cli import entry; entry()",
                "convert", "--tb", "-1", "--rot", "0", "--coeff", "-12", "--format", fmt,
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert child.stdout.readline() == first
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 0
        assert err == b""


class TestStreamedOutput:
    # tb = -1 and coefficient -9: one chain component with 8 stabilizations,
    # so 2^8 presentations; |p + q tb| = 10 makes lk = 10 integral
    DIAGRAM = ("--tb", "-1", "--rot", "0", "--coeff", "-9")

    def test_convert_and_analyze_stream_canonical_json(self, capsys):
        for argv in (
            ("convert",) + self.DIAGRAM,
            ("analyze",) + self.DIAGRAM + ("--lk", "10"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            document = json.loads(out)
            assert len(document["presentations"]) == 2 ** 8
            assert canonical_json(document) + "\n" == out

    def test_exit_3_prints_nothing(self, capsys):
        for argv in (
            ("analyze", "--tb", "-1", "--rot", "0", "--coeff", "-3", "--lk", "1",
             "--signs", "++"),
            ("analyze", "--tb", "-2", "--rot", "-1", "--coeff", "2", "--lk", "1"),
            # the first of four branches is integral, the other three are not
            ("analyze", "--tb", "-2", "--rot", "1", "--coeff", "-5/2", "--lk", "3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3
            assert out == ""
            assert err


class TestBatchedStdout:
    """``main`` hands stdout its text in pieces of ``io.DEFAULT_BUFFER_SIZE``.

    Under ``python -u`` each ``sys.stdout.write`` is one write(2), so the
    number of calls, not only the bytes, is part of the contract.
    """

    # -82/125: four chain entries, 2^12 branches over 60 classes
    DIAGRAM = ("--tb", "-2", "--rot", "1", "--coeff", "-82/125")

    class Recorder:
        def __init__(self):
            self.pieces = []

        def write(self, text):
            self.pieces.append(text)
            return len(text)

        def flush(self):
            pass

    def record(self, monkeypatch, argv):
        recorder = self.Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(list(argv)) == 0
        monkeypatch.undo()
        return recorder.pieces

    @staticmethod
    def assert_batched(pieces):
        text = "".join(pieces)
        assert len(pieces) <= -(-len(text) // io.DEFAULT_BUFFER_SIZE) + 2
        assert all(len(piece) == io.DEFAULT_BUFFER_SIZE for piece in pieces[:-1])
        return text

    # |p + q tb| = |-82 - 250| = 332, so lk 332 makes analyze integral
    @pytest.mark.parametrize("command", [("convert",), ("analyze", "--lk", "332")])
    def test_json_is_written_in_whole_pieces(self, monkeypatch, command):
        from contact_kirby import cli

        argv = (*command, *self.DIAGRAM)
        text = self.assert_batched(self.record(monkeypatch, argv))
        assert len(json.loads(text)["presentations"]) == 4096
        args = cli.build_parser().parse_args(list(argv))
        document, print_json, _ = args.func(args)
        expected = []
        print_json(document, expected.append)
        assert text == "".join(expected) == canonical_json(json.loads(text)) + "\n"

    def test_text_is_written_in_whole_pieces(self, monkeypatch, capsys):
        argv = ("convert", *self.DIAGRAM, "--format", "table")
        text = self.assert_batched(self.record(monkeypatch, argv))
        assert text.count("presentation ") == 4096
        assert run_cli(capsys, *argv) == (0, text, "")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_small_documents_are_one_write(self, monkeypatch, fmt):
        pieces = self.record(monkeypatch, ("expand", "-3/2", "--format", fmt))
        assert len(pieces) == 1

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_one_component_document_per_distinct_component(self, monkeypatch, capsys, fmt):
        from contact_kirby import _presentations

        calls = []
        original = _presentations._component_doc
        monkeypatch.setattr(_presentations, "_component_doc", lambda c: calls.append(c) or original(c))
        code, _, _ = run_cli(capsys, "convert", *self.DIAGRAM, "--format", fmt)
        assert code == 0
        knot = LegendrianUnknot(-2, 1)
        branches = enumerate_presentations(knot, Fraction(-82, 125))
        distinct = {c for pres in branches for c in pres.components}
        assert len(calls) == len(set(calls)) == len(distinct)
        assert set(calls) == distinct


def rebuilt_presentation(pres, ext=None) -> dict:
    """A presentation document built from the library alone, one key at a time."""
    matrix = linking_matrix(pres)
    doc = {
        "signs": pres.signs_string,
        "components": [
            {
                "index": c.index,
                "tb": c.knot.tb,
                "rot": c.knot.rot,
                "contact_coeff": c.contact_sign,
                "topological_coeff": c.knot.tb + c.contact_sign,
                "parent": c.parent,
                "stabilizations": {"plus": c.stabs_pos, "minus": c.stabs_neg},
            }
            for c in pres.components
        ],
        "linking_matrix": [list(row) for row in matrix.entries],
        "determinant": det(matrix),
    }
    if ext is not None:
        invariants = invariants_after_surgery(pres, ext)
        slack = -1 - invariants.tb_new - abs(invariants.rot_new)
        doc["invariants"] = {
            "tb_new": invariants.tb_new,
            "rot_new": invariants.rot_new,
            "bennequin": {"satisfied": slack >= 0, "slack": slack},
        }
    return doc


class TestBranchSplice:
    """Each branch is its class's text with its own signs spliced in.

    The splice must write exactly what the generic writer writes for the
    presentation document rebuilt from ``convert(k, r, signs)``.
    """

    CASES = [
        (("convert", "--tb", "-2", "--rot", "1", "--coeff", "1"), None),
        (("convert", "--tb", "-3", "--rot", "0", "--coeff", "-1"), None),
        (("analyze", "--tb", "-3", "--rot", "2", "--coeff", "-1", "--lk", "4"), 4),
        (("analyze", "--tb", "-2", "--rot", "-1", "--coeff", "1", "--lk", "2"), 2),
        (("convert", "--tb", "-1", "--rot", "0", "--coeff", "-7/3", "--signs=+-"), None),
        (("analyze", "--tb", "-1", "--rot", "0", "--coeff", "-7/3", "--signs=-+",
          "--lk", "10"), 10),
        (("convert", "--tb", "-2", "--rot", "-1", "--coeff", "-13/5"), None),
        (("convert", "--tb", "-1", "--rot", "0", "--coeff", "11/4"), None),
        (("analyze", "--tb", "-1", "--rot", "0", "--coeff", "-12", "--lk", "13"), 13),
        (("analyze", "--tb", "-4", "--rot", "-1", "--coeff", "9/5", "--lk", "-11"), -11),
    ]

    @staticmethod
    def expected(argv, lk):
        flags = dict(zip(argv[1::2], argv[2::2]))
        knot = LegendrianUnknot(int(flags["--tb"]), int(flags["--rot"]))
        r = parse_rational(flags["--coeff"])
        signs = next((a[len("--signs="):] for a in argv if a.startswith("--signs=")), None)
        if signs is None:
            branches = enumerate_presentations(knot, r)
        else:
            branches = [convert(knot, r, parse_signs(signs))]
        ext = None if lk is None else ExternalKnot(LegendrianUnknot(-1, 0), lk)
        return [rebuilt_presentation(pres, ext) for pres in branches]

    @pytest.mark.parametrize("argv, lk", CASES)
    def test_json_equals_the_generic_writer(self, capsys, argv, lk):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert out == json.dumps(document, indent=2, sort_keys=True) + "\n"
        expected = self.expected(argv, lk)
        assert document["presentations"] == expected
        rebuilt = dict(document, presentations=expected)
        assert out == canonical_json(rebuilt) + "\n"
        if all(not p["signs"] for p in expected):
            assert '"signs": ""' in out

    @pytest.mark.parametrize("argv, lk", CASES)
    def test_text_equals_the_text_of_the_rebuilt_documents(self, capsys, argv, lk):
        from contact_kirby import _presentations

        code, out, err = run_cli(capsys, *argv, "--format", "table")
        assert (code, err) == (0, "")
        expected = self.expected(argv, lk)
        assert out == "".join(
            _presentations._presentation_heading(idx, len(expected), doc["signs"])
            + _presentations._presentation_body(doc)
            for idx, doc in enumerate(expected)
        )

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_exit_3_prints_nothing(self, capsys, fmt):
        # 2^13 branches over 14 classes; lk 1 is not a multiple of |det| = 15
        argv = ("analyze", "--tb", "-1", "--rot", "0", "--coeff", "-14", "--lk", "1")
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


@st.composite
def surgeries(draw):
    """argv of ``convert``, or ``analyze`` at an integral lk, on a generated surgery.

    Returns the argv and the v1 document rebuilt from the library alone.
    """
    tb = draw(st.integers(-5, -1))
    rot = tb + 1 + 2 * draw(st.integers(0, -tb - 1))
    r = draw(
        st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 8)).filter(
            lambda r: stabilization_budget(r) <= 6 and r.numerator + r.denominator * tb
        )
    )
    budget = stabilization_budget(r)
    signs = draw(st.none() | st.text("+-", min_size=budget, max_size=budget))
    knot = LegendrianUnknot(tb, rot)
    argv = ["--tb", str(tb), "--rot", str(rot), "--coeff", str(r)]
    echo = {"knot": {"type": "unknot", "tb": tb, "rot": rot}, "coefficient": str(r), "signs": signs}
    if signs is not None:
        argv.append(f"--signs={signs}")
    ext = None
    if draw(st.booleans()):
        # lk a multiple of |det| = |p + q tb| makes both invariants integral
        lk = draw(st.integers(-3, 3)) * abs(r.numerator + r.denominator * tb)
        ext = ExternalKnot(LegendrianUnknot(-1, 0), lk)
        argv += ["--lk", str(lk)]
        echo["external"] = {"tb": -1, "rot": 0, "lk": lk}
    branches = (
        enumerate_presentations(knot, r) if signs is None else [convert(knot, r, parse_signs(signs))]
    )
    command = "convert" if ext is None else "analyze"
    document = {
        "schema_version": 1,
        "command": command,
        "input": echo,
        "presentations": [rebuilt_presentation(pres, ext) for pres in branches],
    }
    return [command] + argv, document


class TestPresentationsWriter:
    """``convert`` and ``analyze`` write each class once, then each branch from it."""

    @settings(deadline=None, max_examples=60)
    @given(surgeries())
    def test_json_equals_the_generic_writer_on_the_rebuilt_document(self, surgery):
        argv, document = surgery
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue() == canonical_json(document) + "\n"

    @pytest.mark.parametrize("command", [("convert",), ("analyze", "--lk", "332")])
    def test_each_class_is_rendered_once_per_format(self, monkeypatch, capsys, command):
        from contact_kirby import _presentations, cli

        rendered, bodies, documents = [], [], []
        dump, body, to_json = cli._dump, _presentations._presentation_body, cli.canonical_json

        def dump_class(value, indent):
            if isinstance(value, dict) and "components" in value:
                rendered.append(value)
            return dump(value, indent)

        monkeypatch.setattr(cli, "_dump", dump_class)
        monkeypatch.setattr(_presentations, "_presentation_body", lambda doc: bodies.append(doc) or body(doc))
        monkeypatch.setattr(cli, "canonical_json", lambda doc: documents.append(doc) or to_json(doc))
        branches = enumerate_presentations(LegendrianUnknot(-2, 1), Fraction(-82, 125))
        classes = len({id(pres.components) for pres in branches})
        assert classes == 60
        argv = (*command, *TestBatchedStdout.DIAGRAM)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(rendered) == len({id(doc) for doc in rendered}) == classes
        assert (len(documents), bodies) == (1, [])
        rendered.clear()
        documents.clear()
        assert run_cli(capsys, *argv, "--format", "table")[0] == 0
        assert len(bodies) == len({id(doc) for doc in bodies}) == classes
        assert (rendered, documents) == ([], [])


class TestBounds:
    def test_too_many_branches_exit_2(self, capsys):
        for argv in (
            ("convert", "--tb", "-1", "--rot", "0", "--coeff", "-40"),
            ("analyze", "--tb", "-1", "--rot", "0", "--coeff", "-40", "--lk", "1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert str(2 ** 39) in err

    def test_branch_cap_is_inclusive(self, capsys, monkeypatch):
        from contact_kirby import cli

        monkeypatch.setattr(cli, "MAX_BRANCH_BITS", 3)
        code, out, _ = run_cli(capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "-4")
        assert code == 0
        assert len(json.loads(out)["presentations"]) == 8
        code, out, err = run_cli(capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "-5")
        assert (code, out) == (2, "")
        assert "16" in err

    def test_signs_bypass_the_branch_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "-40",
            "--signs", "+-" * 19 + "+",
        )
        assert code == 0
        assert len(json.loads(out)["presentations"]) == 1

    def test_a_huge_budget_is_not_written_out(self, capsys):
        # 2^99999999 is never built; the message stays one short line
        code, out, err = run_cli(
            capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", "-100000000"
        )
        assert (code, out) == (2, "")
        assert f"has over {2 ** 64} stabilization branches (2^99999999)" in err
        assert len(err) < 200

    def test_component_cap_is_inclusive(self, capsys, monkeypatch):
        from contact_kirby import cli

        monkeypatch.setattr(cli, "MAX_COMPONENTS", 5)
        # 1/5 peels five (+1) components; -6/5 expands into a chain of five
        for coefficient, branches in (("1/5", 1), ("-6/5", 2)):
            for signs in ((), ("--signs", "+" * (branches - 1))):
                code, out, _ = run_cli(
                    capsys, "convert", "--tb", "-1", "--rot", "0", "--coeff", coefficient, *signs
                )
                assert code == 0
                document = json.loads(out)
                assert [len(p["components"]) for p in document["presentations"]] == [5] * (
                    branches if not signs else 1
                )
        for coefficient, signs in (("1/6", ()), ("-7/6", ()), ("-7/6", ("--signs", "+"))):
            for command in (("convert",), ("analyze", "--lk", "1")):
                code, out, err = run_cli(
                    capsys, *command, "--tb", "-1", "--rot", "0", "--coeff", coefficient, *signs
                )
                assert (code, out) == (2, "")
                assert "more than 5 components" in err
        # expand writes one entry per chain component
        code, out, _ = run_cli(capsys, "expand", "-6/5")
        assert (code, out.splitlines()[0]) == (0, "[-3, -2, -2, -2, -2]")
        code, out, err = run_cli(capsys, "expand", "-7/6")
        assert (code, out) == (2, "")
        assert "more than 5 components" in err

    def test_endless_conversions_exit_2_at_once(self, capsys):
        # stepping 1/N -> 1/(N-1), or expanding -(N+1)/N entry by entry,
        # would never end for N = 10^18
        for coefficient in ("1/1000000000000000000", "-1000000000000000001/1000000000000000000"):
            for signs in ((), ("--signs", "+")):
                code, out, err = run_cli(
                    capsys, "analyze", "--tb", "-1", "--rot", "0", "--coeff", coefficient,
                    "--lk", "1", *signs,
                )
                assert (code, out) == (2, "")
                assert "more than 128 components" in err

    def test_expand_refuses_too_many_entries(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "-1/128", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 128
        # -1/N expands into N entries
        for coefficient in ("-1/129", f"-1/{10 ** 18}"):
            for fmt in ("json", "table"):
                code, out, err = run_cli(capsys, "expand", coefficient, "--format", fmt)
                assert (code, out) == (2, "")
                assert err == (
                    f"error: coefficient {coefficient} converts into more than 128 "
                    "components; at most 128 are supported\n"
                )

    def test_m_max_above_the_bound_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "--m-max", "1001")
        assert (code, out) == (2, "")
        assert "1000" in err

    def test_classify_m_above_the_bound_exit_2(self, capsys):
        for m in (1001, 10 ** 4000):
            code, out, err = run_cli(capsys, "classify", "--m", str(m), "--n", str(m + 1))
            assert (code, out) == (2, "")
            assert "at most 1000" in err

    def test_classify_m_bound_is_inclusive(self, capsys, monkeypatch):
        from contact_kirby import cli

        monkeypatch.setattr(cli, "MAX_M_MAX", 5)
        code, out, _ = run_cli(capsys, "classify", "--m", "5", "--n", "6")
        assert code == 0
        assert json.loads(out)["diagram"]["m"] == 5
        for n in ("5", "7"):
            code, out, err = run_cli(capsys, "classify", "--m", "6", "--n", n)
            assert (code, out) == (2, "")
            assert "at most 5" in err

    NESTED = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize(
        "document",
        [
            NESTED,
            '{"knot": {"type": "unknot", "tb": ' + NESTED + ', "rot": 0}, "coefficient": "2"}',
            '{"knot": {"type": "unknot", "tb": -1, "rot": 0}, "coefficient": ' + NESTED + "}",
        ],
        ids=["array", "knot-tb", "coefficient"],
    )
    def test_a_deeply_nested_input_document_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "diagram.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = run_cli(capsys, "convert", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_input_is_read_up_to_its_bound(self, tmp_path, capsys):
        # a document carrying four flags of 128 KiB (one argument's limit) fits
        assert MAX_INPUT_CHARS == 2 ** 20 > 4 * 128 * 1024 + 100
        document = '{"knot": {"type": "unknot", "tb": -1, "rot": 0}, "coefficient": "2", "pad": ""}'
        # padded with two-byte characters: the bound counts characters
        text = document[:-2] + "\u00e9" * (MAX_INPUT_CHARS - len(document)) + '"}'
        path = tmp_path / "diagram.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "convert", "--input", str(path))
        assert code == 0
        assert json.loads(out)["input"]["coefficient"] == "2"
        path.write_text(text + " ", encoding="utf-8")
        code, out, err = run_cli(capsys, "convert", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: --input reads at most 1048576 characters\n"


class TestLongEchoes:
    """A message writes an integer of more than 20 digits as its digit count."""

    HUGE = 10 ** 4000

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("classify", "--m", str(HUGE), "--n", str(HUGE + 1)),
                "--m must be at most 1000 (got a 4001-digit integer)",
            ),
            (
                ("table", "--m-max", str(HUGE)),
                "--m-max must be between 0 and 1000 (got a 4001-digit integer)",
            ),
            (
                ("table", "--m-max", str(-HUGE)),
                "--m-max must be between 0 and 1000 (got a negative 4001-digit integer)",
            ),
            (
                ("classify", "--m", str(-HUGE), "--n", "0"),
                "tb = -m requires m >= 1 (got m=a negative 4001-digit integer)",
            ),
            (
                ("classify", "--m", "2", "--n", str(-HUGE)),
                "contact framing must be non-negative (got n=a negative 4001-digit integer)",
            ),
            (
                ("classify", "--m", "2", "--n", str(HUGE)),
                "topological condition n = m +/- 1 fails (m=2, n=a 4001-digit integer)",
            ),
            (
                ("convert", "--tb", str(HUGE), "--rot", "0", "--coeff", "1"),
                "tb must be at most -1 for a Legendrian unknot (got tb=a 4001-digit integer)",
            ),
            (
                ("convert", "--tb", "-2", "--rot", str(HUGE), "--coeff", "1"),
                "Bennequin inequality tb + |rot| <= -1 fails (tb=-2, rot=a 4001-digit integer)",
            ),
            (
                ("convert", "--tb", str(-HUGE), "--rot", "0", "--coeff", "1"),
                "parity rot = tb + 1 (mod 2) fails (tb=a negative 4001-digit integer, rot=0)",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", str(-HUGE)),
                "coefficient a negative 4001-digit integer has over 18446744073709551616 "
                "stabilization branches (2^a 4000-digit integer); without --signs at most "
                "65536 (2^16) are listed",
            ),
            (
                ("analyze", "--tb", "-1", "--rot", "0", "--coeff", f"{-HUGE}/3", "--lk", "1"),
                "coefficient a negative 4001-digit integer/3 has over 18446744073709551616 "
                "stabilization branches (2^a 4000-digit integer); without --signs at most "
                "65536 (2^16) are listed",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", f"1/{HUGE}"),
                "coefficient 1/a 4001-digit integer converts into more than 128 components; "
                "at most 128 are supported",
            ),
            (
                ("expand", f"-1/{HUGE}"),
                "coefficient -1/a 4001-digit integer converts into more than 128 components; "
                "at most 128 are supported",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", str(-HUGE), "--signs=+"),
                "sign vector has length 1 but this conversion stabilizes a 4000-digit "
                "integer times",
            ),
            (("expand", str(HUGE)), "only negative coefficients expand (got a 4001-digit integer)"),
        ],
    )
    def test_a_long_value_is_written_as_its_digit_count(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("classify", "--m", "1001", "--n", "1002"), "--m must be at most 1000 (got 1001)"),
            (("table", "--m-max", "1001"), "--m-max must be between 0 and 1000 (got 1001)"),
            (("table", "--m-max", "-1"), "--m-max must be between 0 and 1000 (got -1)"),
            (("classify", "--m", "0", "--n", "1"), "tb = -m requires m >= 1 (got m=0)"),
            (("classify", "--m", "-3", "--n", "0"), "tb = -m requires m >= 1 (got m=-3)"),
            (
                ("classify", "--m", "2", "--n", str(10 ** 20 - 1)),
                f"topological condition n = m +/- 1 fails (m=2, n={10 ** 20 - 1})",
            ),
            (
                ("classify", "--m", "2", "--n", str(10 ** 20)),
                "topological condition n = m +/- 1 fails (m=2, n=a 21-digit integer)",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", "-40"),
                "coefficient -40 has 549755813888 stabilization branches (2^39); "
                "without --signs at most 65536 (2^16) are listed",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", f"-{10 ** 20 - 1}/7"),
                f"coefficient -{10 ** 20 - 1}/7 has over 18446744073709551616 stabilization "
                "branches (2^14285714285714285714); without --signs at most 65536 (2^16) "
                "are listed",
            ),
            (
                ("analyze", "--tb", "-1", "--rot", "0", "--coeff", f"1/{10 ** 20 - 1}", "--lk", "1"),
                f"coefficient 1/{10 ** 20 - 1} converts into more than 128 components; "
                "at most 128 are supported",
            ),
            (
                ("convert", "--tb", "-1", "--rot", "0", "--coeff", "-5", "--signs=+"),
                "sign vector has length 1 but this conversion stabilizes 4 times",
            ),
        ],
    )
    def test_values_up_to_20_digits_are_written_in_full(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_digit_count_past_the_int_to_str_limit(self):
        from contact_kirby.errors import echo_int

        for digits in (21, 4300, 4301, 30103):
            assert echo_int(10 ** (digits - 1)) == f"a {digits}-digit integer"
            assert echo_int(1 - 10 ** digits) == f"a negative {digits}-digit integer"


def diagram_file(tmp_path, knot=(), coefficient="2", signs=None):
    document = {"knot": {"type": "unknot", "tb": -1, "rot": 0, **dict(knot)}}
    document["coefficient"] = coefficient
    if signs is not None:
        document["signs"] = signs
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestLongTextEchoes:
    """A message writes a text of more than 20 characters as its start and length."""

    DIAGRAM = ("convert", "--tb", "-1", "--rot", "0")
    RATIONAL = "coefficients must be integers or p/q strings, got "
    SIGNS = "signs must be a string over '+' and '-', got "
    ZERO = "zero denominator in "
    X20 = "'" + "x" * 20 + "'"
    ZEROS = "'1/" + "0" * 18 + "'"
    INT = "invalid int value: "
    CHOICE = "invalid choice: "

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("expand", "1." + "5" * 4998), RATIONAL + "'1." + "5" * 18 + "'... (5000 characters)"),
            (DIAGRAM + ("--coeff", "x" * 5000), RATIONAL + X20 + "... (5000 characters)"),
            (("expand", "1/" + "0" * 4000), ZERO + ZEROS + "... (4002 characters)"),
            (
                DIAGRAM + ("--coeff", "2", "--signs=" + "x" * 5000),
                SIGNS + X20 + "... (5000 characters)",
            ),
        ],
    )
    def test_a_long_flag_is_written_as_its_start_and_length(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"knot": {"tb": "x" * 5000}},
                'knot tb must be an integer, got "' + "x" * 19 + "... (5002 characters)",
            ),
            (
                {"knot": {"rot": [0] * 2000}},
                "knot rot must be an integer, got [0, 0, 0, 0, 0, 0, 0... (6000 characters)",
            ),
            ({"coefficient": "1/" + "0" * 4000}, ZERO + ZEROS + "... (4002 characters)"),
            ({"coefficient": [1] * 2000}, RATIONAL + "[1, 1, 1, 1, 1, 1, 1... (6000 characters)"),
            ({"signs": "x" * 5000}, SIGNS + X20 + "... (5000 characters)"),
        ],
    )
    def test_a_long_input_field_is_written_as_its_start_and_length(
        self, tmp_path, capsys, fields, message
    ):
        code, out, err = run_cli(capsys, "convert", "--input", diagram_file(tmp_path, **fields))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("expand", "x" * 20), RATIONAL + X20),
            (("expand", "x" * 21), RATIONAL + X20 + "... (21 characters)"),
            (("expand", "1/" + "0" * 18), ZERO + ZEROS),
            (("expand", "1.5"), RATIONAL + "'1.5'"),
            (DIAGRAM + ("--coeff", "2", "--signs=" + "+x" * 10), SIGNS + repr("+x" * 10)),
        ],
    )
    def test_texts_up_to_20_characters_are_written_in_full(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("convert", "--tb"), "contact-kirby convert: error: argument --tb: " + INT),
            (("convert", "--rot"), "contact-kirby convert: error: argument --rot: " + INT),
            (("analyze", "--lk"), "contact-kirby analyze: error: argument --lk: " + INT),
            (("analyze", "--ext-tb"), "contact-kirby analyze: error: argument --ext-tb: " + INT),
            (("analyze", "--ext-rot"), "contact-kirby analyze: error: argument --ext-rot: " + INT),
            (("classify", "--m"), "contact-kirby classify: error: argument --m: " + INT),
            (("classify", "--n"), "contact-kirby classify: error: argument --n: " + INT),
            (("table", "--m-max"), "contact-kirby table: error: argument --m-max: " + INT),
            (("expand", "--format"), "contact-kirby expand: error: argument --format: " + CHOICE),
            (("table", "--format"), "contact-kirby table: error: argument --format: " + CHOICE),
            ((), "contact-kirby: error: argument command: " + CHOICE),
        ],
    )
    @pytest.mark.parametrize(
        "length, shown",
        [(20, X20), (21, X20 + "... (21 characters)"), (5000, X20 + "... (5000 characters)")],
    )
    def test_an_argument_argparse_rejects_is_written_by_the_same_rule(
        self, capsys, argv, message, length, shown
    ):
        code, out, err = run_cli(capsys, *argv, "x" * length)
        last = err.splitlines()[-1]
        expected = message + shown
        assert (code, out) == (2, "")
        # the choices that follow an "invalid choice" are spelled
        # differently by different Python patch releases
        assert last == expected or last.startswith(expected + " (choose from ")
        assert len(last.encode()) < 200

    # a text of each length as echoed: its first 20 characters, then its length
    LENGTHS = [(20, ""), (21, "... (21 characters)"), (5000, "... (5000 characters)")]
    EXTRAS = "contact-kirby: error: unrecognized arguments: "
    HELP = "argument -h/--help: ignored explicit argument "

    @pytest.mark.parametrize(
        "argv, message",
        [
            (DIAGRAM + ("--coeff", "2", ""), EXTRAS + "{}"),
            (("expand", "-2", "--fo"), EXTRAS + "{}"),
            (("table", "--m-max=1", "--m"), EXTRAS + "{}"),
            (
                ("analyze", "--ext="),
                "contact-kirby analyze: error: ambiguous option: {} could match --ext-tb, --ext-rot",
            ),
        ],
    )
    @pytest.mark.parametrize("length, tail", LENGTHS)
    def test_an_argument_argparse_echoes_raw_is_written_by_the_same_rule(
        self, capsys, argv, message, length, tail
    ):
        # the last item of argv starts the argument, which x pads to length
        text = argv[-1] + "x" * (length - len(argv[-1]))
        code, out, err = run_cli(capsys, *argv[:-1], text)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == message.format(text[:20] + tail)
        assert len(err.splitlines()[-1].encode()) < 200

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("convert", "--help="), "contact-kirby convert: error: " + HELP),
            (("--help=",), "contact-kirby: error: " + HELP),
            (("convert", "--tb="), "contact-kirby convert: error: argument --tb: " + INT),
        ],
    )
    @pytest.mark.parametrize("length, tail", LENGTHS)
    def test_a_value_split_off_an_argument_is_written_by_the_same_rule(
        self, capsys, argv, message, length, tail
    ):
        code, out, err = run_cli(capsys, *argv[:-1], argv[-1] + "x" * length)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == message + self.X20 + tail
        assert len(err.splitlines()[-1].encode()) < 200

    @pytest.mark.parametrize("option", ["-h", "-hh"])
    @pytest.mark.parametrize("length, tail", LENGTHS)
    def test_a_value_given_to_h_is_written_by_the_same_rule(
        self, capsys, option, length, tail
    ):
        code, out, err = run_cli(capsys, "convert", option + "x" * length)
        if code == 0:  # Python 3.13 reads -h<text> as -h and prints the help
            assert out.startswith("usage: contact-kirby convert") and err == ""
            return
        last = err.splitlines()[-1]
        assert (code, out) == (2, "")
        assert last == "contact-kirby convert: error: " + self.HELP + self.X20 + tail
        assert len(last.encode()) < 200

    @pytest.mark.parametrize(
        "extras", [("x" * 5000, "x" * 5000 + "yy"), ("x" * 5000 + "yy", "x" * 5000)]
    )
    def test_long_extras_are_rewritten_longest_first(self, capsys, extras):
        # the shorter extra begins the longer one: rewritten first, it would
        # cut into the longer one's text
        code, out, err = run_cli(capsys, *self.DIAGRAM, "--coeff", "2", *extras)
        shown = " ".join(f"{'x' * 20}... ({len(text)} characters)" for text in extras)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == self.EXTRAS + shown

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"knot": {"tb": "-1"}}, 'knot tb must be an integer, got "-1"'),
            ({"knot": {"rot": None}}, "knot rot must be an integer, got null"),
            ({"knot": {"rot": [0] * 6}}, "knot rot must be an integer, got [0, 0, 0, 0, 0, 0]"),
            ({"coefficient": 1.5}, RATIONAL + "1.5"),
            ({"coefficient": None}, RATIONAL + "None"),
        ],
    )
    def test_short_input_fields_are_written_in_full(self, tmp_path, capsys, fields, message):
        code, out, err = run_cli(capsys, "convert", "--input", diagram_file(tmp_path, **fields))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOneSolvePerClass:
    """``analyze`` solves once per Legendrian class and prints every branch.

    Branches with the same rotation numbers share every input of the
    dense solve, so each branch's printed invariants must still be its
    own, and an exit 3 must name the first branch that fails.
    """

    @staticmethod
    def surgeries(rng, count):
        """Surgeries with tb -1..-5, |p| <= 30, q <= 8 and budget <= 9."""
        while count:
            r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 8))
            if stabilization_budget(r) > 9:
                continue
            tb = -rng.randint(1, 5)
            knot = LegendrianUnknot(tb, tb + 1 + 2 * rng.randint(0, -tb - 1))
            count -= 1
            yield knot, r

    def test_every_branch_prints_its_own_invariants(self, capsys):
        rng = random.Random(9728)
        codes = []
        for knot, r in self.surgeries(rng, 60):
            multiple = abs(r.numerator + r.denominator * knot.tb)
            for lk in (multiple * rng.randint(-2, 2), rng.randint(-6, 6)):
                ext = ExternalKnot(LegendrianUnknot(-1, 0), lk)
                code, out, err = run_cli(
                    capsys, "analyze", "--tb", str(knot.tb), "--rot", str(knot.rot),
                    "--coeff", str(r), "--lk", str(lk),
                )
                branches = enumerate_presentations(knot, r)
                failures = []
                for pres in branches:
                    try:
                        invariants_by_inverse(pres, ext)
                    except (SingularMatrixError, NonIntegralInvariantError) as exc:
                        failures.append(exc)
                codes.append(code)
                if failures:
                    assert (code, out, err) == (3, "", f"error: {failures[0]}\n")
                    continue
                assert (code, err) == (0, "")
                docs = json.loads(out)["presentations"]
                assert len(docs) == len(branches)
                for pres, doc in zip(branches, docs):
                    expected = invariants_after_surgery(pres, ext)
                    assert doc["signs"] == pres.signs_string
                    assert doc["invariants"]["tb_new"] == expected.tb_new
                    assert doc["invariants"]["rot_new"] == expected.rot_new
                    assert doc["determinant"] == det(linking_matrix(pres))
        assert codes.count(0) > 20 and codes.count(3) > 20

    def test_one_dense_solve_per_class(self, capsys, monkeypatch):
        from contact_kirby import transform

        calls = []

        def counted(pres, ext):
            calls.append(pres)
            return invariants_by_inverse(pres, ext)

        monkeypatch.setattr(transform, "invariants_by_inverse", counted)
        code, out, err = run_cli(
            capsys, "analyze", "--tb", "-1", "--rot", "0", "--coeff", "-14", "--lk", "15"
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["presentations"]) == 2 ** 13
        # one chain component with 13 stabilizations: 14 classes
        assert len(calls) == 14
        assert len({rot_vector(pres) for pres in calls}) == 14


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python reads integers of any length",
)
class TestIntegerDigitLimit:
    """Integers longer than Python converts from text exit 2, not with a traceback."""

    @staticmethod
    def too_long():
        return "9" * (sys.get_int_max_str_digits() + 101)

    @pytest.mark.parametrize("template", ["-{}", "-1/{}", "-{}/7"])
    def test_coefficients(self, capsys, template):
        coefficient = template.format(self.too_long())
        for argv in (
            ("expand", coefficient),
            ("convert", "--tb", "-1", "--rot", "0", "--coeff", coefficient),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: coefficient is too long to read")

    def test_input_document(self, tmp_path, capsys):
        path = tmp_path / "diagram.json"
        path.write_text(
            '{"knot": {"type": "unknot", "tb": -%s, "rot": 0}, "coefficient": 1}'
            % self.too_long()
        )
        code, out, err = run_cli(capsys, "convert", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}")

    def test_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "--tb", "-" + self.too_long(), "--rot", "0", "--coeff", "1"
        )
        assert (code, out) == (2, "")
        assert "invalid int value" in err

    # Each input below has at most the limit's n digits, so it is read;
    # some integer the command would print has n + 1.
    @staticmethod
    def longest():
        """10^(n-1), the smallest integer with n digits."""
        return 10 ** (sys.get_int_max_str_digits() - 1)

    def test_solved_invariants_too_long_to_write(self, capsys):
        # M = (tb + 1) = (-10^(n-1)); tb_new = -1 + 81 * 10^(n-1) has n + 1 digits
        tb, lk = -(self.longest() + 1), 9 * self.longest()
        for fmt in ("json", "table"):
            code, out, err = run_cli(
                capsys, "analyze", "--tb", str(tb), "--rot", "0", "--coeff", "1",
                "--lk", str(lk), "--format", fmt,
            )
            assert (code, out) == (2, "")
            assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_chain_values_too_long_to_write(self, capsys):
        # tb = -(10^n - 1): the chain component's tb - 2, the determinant
        # |-3 + tb| and the expansion [tb - 1] of tb itself all pass 10^n
        tb = str(-(10 * self.longest() - 1))
        for argv in (
            ("convert", "--tb", tb, "--rot", "0", "--coeff", "-3"),
            ("analyze", "--tb", tb, "--rot", "0", "--coeff", "-3", "--lk", "0"),
            # the matrix is checked before the first solve, which is not integral
            ("analyze", "--tb", tb, "--rot", "0", "--coeff", "-3", "--lk", "1"),
            ("expand", tb),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_non_integral_values_too_long_to_write(self, capsys):
        # M = (-10^(n-1)) is printable, but tb_new = -1 + lk^2 / 10^(n-1)
        # is not an integer and its exact value is too long to quote
        tb, lk = -(self.longest() + 1), 9 * self.longest() + 1
        code, out, err = run_cli(
            capsys, "analyze", "--tb", str(tb), "--rot", "0", "--coeff", "1", "--lk", str(lk)
        )
        assert (code, out) == (3, "")
        assert "is not an integer" in err
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_the_longest_writable_values_are_written(self, capsys):
        tb = -(10 * self.longest() - 1)
        code, out, _ = run_cli(capsys, "convert", "--tb", str(tb), "--rot", "0", "--coeff", "1")
        assert code == 0
        presentation = json.loads(out)["presentations"][0]
        assert presentation["determinant"] == tb + 1


class TestSharedDocuments:
    """The sub-documents one surgery shares live for one invocation only."""

    A = ("--tb", "-2", "--rot", "1", "--coeff", "-7/3")
    B = ("--tb", "-2", "--rot", "-1", "--coeff", "3/2")

    def test_invocations_print_what_each_prints_alone(self, capsys):
        runs = [
            (command, diagram, fmt)
            for command in (("convert",), ("analyze", "--lk", "13"))
            for diagram in (self.A, self.B, self.A)
            for fmt in ("json", "table")
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        alone = {}
        for command, diagram, fmt in set(runs):
            argv = (*command, *diagram, "--format", fmt)
            child = subprocess.run(
                [sys.executable, "-m", "contact_kirby.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert child.returncode == 0, child.stderr
            alone[argv] = child.stdout
        for command, diagram, fmt in runs:
            argv = (*command, *diagram, "--format", fmt)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == alone[argv]


class TestPresentationText:
    """The ``--format table`` text of every command, in full."""

    CONVERT_3_2 = """\
presentation 1 of 4 (signs: ++)
  component 0: tb=-1 rot=0 contact=+1 topological=+0 parent=- stabs=+0/-0
  component 1: tb=-3 rot=2 contact=-1 topological=-4 parent=0 stabs=+2/-0
  linking matrix:
    [  0  -1 ]
    [ -1  -4 ]
  determinant: -1
presentation 2 of 4 (signs: +-)
  component 0: tb=-1 rot=0 contact=+1 topological=+0 parent=- stabs=+0/-0
  component 1: tb=-3 rot=0 contact=-1 topological=-4 parent=0 stabs=+1/-1
  linking matrix:
    [  0  -1 ]
    [ -1  -4 ]
  determinant: -1
presentation 3 of 4 (signs: -+)
  component 0: tb=-1 rot=0 contact=+1 topological=+0 parent=- stabs=+0/-0
  component 1: tb=-3 rot=0 contact=-1 topological=-4 parent=0 stabs=+1/-1
  linking matrix:
    [  0  -1 ]
    [ -1  -4 ]
  determinant: -1
presentation 4 of 4 (signs: --)
  component 0: tb=-1 rot=0 contact=+1 topological=+0 parent=- stabs=+0/-0
  component 1: tb=-3 rot=-2 contact=-1 topological=-4 parent=0 stabs=+0/-2
  linking matrix:
    [  0  -1 ]
    [ -1  -4 ]
  determinant: -1
"""

    ANALYZE_3 = """\
presentation 1 of 2 (signs: +)
  component 0: tb=-2 rot=1 contact=+1 topological=-1 parent=- stabs=+0/-0
  component 1: tb=-3 rot=2 contact=-1 topological=-4 parent=0 stabs=+1/-0
  component 2: tb=-3 rot=2 contact=-1 topological=-4 parent=1 stabs=+0/-0
  linking matrix:
    [ -1  -2  -2 ]
    [ -2  -4  -3 ]
    [ -2  -3  -4 ]
  determinant: 1
  tb_new=-2 rot_new=1 bennequin satisfied (slack 0)
presentation 2 of 2 (signs: -)
  component 0: tb=-2 rot=1 contact=+1 topological=-1 parent=- stabs=+0/-0
  component 1: tb=-3 rot=0 contact=-1 topological=-4 parent=0 stabs=+0/-1
  component 2: tb=-3 rot=0 contact=-1 topological=-4 parent=1 stabs=+0/-0
  linking matrix:
    [ -1  -2  -2 ]
    [ -2  -4  -3 ]
    [ -2  -3  -4 ]
  determinant: 1
  tb_new=-2 rot_new=-3 bennequin violated (slack -2)
"""

    ANALYZE_1_2 = """\
presentation 1 of 1 (signs: (none))
  component 0: tb=-1 rot=0 contact=+1 topological=+0 parent=- stabs=+0/-0
  component 1: tb=-1 rot=0 contact=+1 topological=+0 parent=0 stabs=+0/-0
  linking matrix:
    [  0  -1 ]
    [ -1   0 ]
  determinant: -1
  tb_new=1 rot_new=0 bennequin violated (slack -2)
"""

    CLASSIFY_2_3 = """\
diagram: m=2 n=3 rot=-1 (collection C2)
  branch +: tb_new=-2 rot_new=3 bennequin violated (slack -2) -> overtwisted-certified
  branch -: tb_new=-2 rot_new=-1 bennequin satisfied (slack 0) -> tight (asserted)
summary: potential contact Kirby move of type 1: 1 of 2 presentations consistent \
with the standard tight 3-sphere (tightness asserted, not computed)
"""

    CLASSIFY_1_0 = """\
diagram: m=1 n=0 rot=0 (collection C1)
  contact 0-surgery yields an overtwisted contact structure -> overtwisted-certified
summary: not a candidate move: contact 0-surgery yields an overtwisted contact structure
"""

    CLASSIFY_3_2 = """\
diagram: m=3 n=2 rot=-2 (collection C1)
  branch +: tb_new=0 rot_new=3 bennequin violated (slack -4) -> overtwisted-certified
  branch -: tb_new=0 rot_new=1 bennequin violated (slack -2) -> overtwisted-certified
summary: not a candidate move: all 2 presentations certify an overtwisted structure
"""

    TABLE_3 = """\
m  n  collection  branches                                            survivor
1  0  C1          0-surgery: overtwisted-certified                    no
1  2  C2          +: tight (asserted); -: tight (asserted)            yes
2  1  C1          (none): overtwisted-certified                       no
2  3  C2          +: overtwisted-certified; -: tight (asserted)       yes
3  2  C1          +: overtwisted-certified; -: overtwisted-certified  no
3  4  C2          +: overtwisted-certified; -: tight (asserted)       yes
"""

    EXPAND_7_3 = """\
[-4, -2, -2]
round-trip: -7/3
"""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("convert", "--tb", "-1", "--rot", "0", "--coeff", "3/2"), CONVERT_3_2),
            (
                ("analyze", "--tb", "-2", "--rot", "1", "--coeff", "3", "--lk", "1"),
                ANALYZE_3,
            ),
            (
                ("analyze", "--tb", "-1", "--rot", "0", "--coeff", "1/2", "--lk", "1"),
                ANALYZE_1_2,
            ),
            (("classify", "--m", "2", "--n", "3"), CLASSIFY_2_3),
            (("classify", "--m", "1", "--n", "0"), CLASSIFY_1_0),
            (("classify", "--m", "3", "--n", "2"), CLASSIFY_3_2),
            (("table", "--m-max", "3"), TABLE_3),
            (("expand", "-7/3"), EXPAND_7_3),
        ],
    )
    def test_full_text(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv, "--format", "table")
        assert (code, out, err) == (0, expected, "")
