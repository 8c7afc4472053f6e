"""The CLI's exit-code and output contract, over generated argv and ``--input`` documents."""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_kirby.cli import main

SCHEMA = json.loads(
    resources.files("contact_kirby")
    .joinpath("schemas/report-v1.schema.json")
    .read_text(encoding="utf-8")
)


@st.composite
def rationals(draw):
    # hypothesis favours values near 0, so offset them onto valid inputs
    p = draw(st.integers(-12, 12))
    q = 1 + draw(st.integers(-1, 5))
    return str(p) if q == 1 and draw(st.booleans()) else f"{p}/{q}"


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def sometimes(args):
    """``args`` one time in three, otherwise no arguments."""
    return st.just([]) | st.just([]) | args


@st.composite
def knot_args(draw, tb_flag, rot_flag, tb_min):
    tb = -1 - draw(st.integers(-2, -1 - tb_min))
    # mostly a pair that passes the Bennequin and parity checks
    bound = max(-1 - tb, 0)
    realizable = st.integers(0, bound).map(lambda k: 2 * k - bound)
    rot = draw(st.integers(-7, 7) | realizable | realizable)
    return [tb_flag, str(tb), rot_flag, str(rot)]


@st.composite
def diagram_args(draw):
    args = draw(knot_args("--tb", "--rot", -6)) + ["--coeff", draw(rationals())]
    # "=" keeps a leading "-" from reading as an option
    signs = st.text("+-", max_size=4).map(lambda text: ["--signs=" + text])
    return args + draw(sometimes(signs))


@st.composite
def analyze_args(draw):
    args = draw(diagram_args()) + ["--lk", draw(ints(-3, 3))]
    return args + draw(sometimes(knot_args("--ext-tb", "--ext-rot", -4)))


@st.composite
def classify_args(draw):
    m = draw(st.integers(-1, 9))
    args = ["--m", str(m), "--n", draw(ints(m - 2, m + 2))]
    return args + draw(sometimes(ints(-9, 9).map(lambda rot: ["--rot", rot])))


argvs = st.one_of(
    st.tuples(st.just("expand"), rationals().map(lambda c: [c])),
    st.tuples(st.just("convert"), diagram_args()),
    st.tuples(st.just("analyze"), analyze_args()),
    st.tuples(st.just("classify"), classify_args()),
    st.tuples(st.just("table"), ints(-1, 6).map(lambda m: ["--m-max", m])),
).map(lambda pair: [pair[0], *pair[1]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argvs)
def test_exit_codes_and_documents(argv):
    codes = set()
    for fmt in ("json", "table"):
        code, out, err = run(argv + ["--format", fmt])
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            assert err
        elif fmt == "json":
            jsonschema.validate(json.loads(out), SCHEMA)
        codes.add(code)
    assert len(codes) == 1, codes


class Digits:
    """An integer literal of ``digits`` digits, written into the JSON text as it is."""

    def __init__(self, negative, digits):
        self.text = ("-" if negative else "") + "1" + "0" * (digits - 1)


def to_json(value) -> str:
    """JSON text of ``value``, with each ``Digits`` written as its literal."""
    if isinstance(value, Digits):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_json, value)) + "]"
    return json.dumps(value)


# around the 4300-digit int-to-str limit, on both sides of it
huge = st.builds(Digits, st.booleans(), st.integers(4290, 4310))
scalars = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6), st.integers(), huge
)
junk = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
FIELDS = (
    ("knot",), ("knot", "type"), ("knot", "tb"), ("knot", "rot"), ("coefficient",), ("signs",)
)


@st.composite
def documents(draw):
    """A diagram document, mostly valid, with up to two fields dropped or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)
    tb = draw(st.integers(-6, -1))
    bound = -1 - tb
    knot = {"type": "unknot", "tb": tb, "rot": 2 * draw(st.integers(0, bound)) - bound}
    signs = draw(st.none() | st.text("+-", max_size=4))
    document = {"knot": knot, "coefficient": draw(rationals()), "signs": signs}
    for path in draw(st.lists(st.sampled_from(FIELDS), max_size=2, unique=True)):
        parent = document if len(path) == 1 else document.get("knot")
        if not isinstance(parent, dict):
            continue
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(junk)
    return document


@settings(max_examples=100, deadline=None)
@given(documents(), st.integers(-3, 3))
def test_input_documents(document, lk):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_json(document))
        for command in (["convert"], ["analyze", "--lk", str(lk)]):
            codes = set()
            for fmt in ("json", "table"):
                code, out, err = run(command + ["--input", path, "--format", fmt])
                assert code in (0, 2, 3)
                assert "Traceback" not in err
                if code:
                    assert out == ""
                    assert err.startswith("error: ")
                elif fmt == "json":
                    jsonschema.validate(json.loads(out), SCHEMA)
                codes.add(code)
            assert len(codes) == 1, codes
