"""The direct canonical JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from contact_kirby.cli import canonical_json


def reference(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


# quotes, backslashes, control characters, a lone surrogate, non-ASCII
ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f é€\ud83d😀 a'

strings = st.text() | st.text(alphabet=ESCAPES)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
    | strings
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(strings, inner),
    max_leaves=40,
)


@given(documents)
def test_matches_json_dumps(document):
    assert canonical_json(document) == reference(document)


@given(st.lists(documents, max_size=3), scalars)
def test_streamed_iterator_matches_json_dumps(items, rest):
    chunks = []
    document = {"items": iter(items), "rest": rest}
    assert canonical_json(document, chunks.append) == ""
    assert "".join(chunks) == reference({"items": items, "rest": rest})


def test_streaming_writes_one_chunk_per_item():
    chunks = []
    canonical_json({"a": 1, "b": iter([{"x": [1, 2]}, [3], "s"]), "c": None}, chunks.append)
    # the opening text, each item, then the closing text
    assert chunks == [
        '{\n  "a": 1,\n  "b": [',
        '\n    {\n      "x": [\n        1,\n        2\n      ]\n    }',
        ",\n    [\n      3\n    ]",
        ',\n    "s"',
        '\n  ],\n  "c": null\n}',
    ]
    assert "".join(chunks) == reference({"a": 1, "b": [{"x": [1, 2]}, [3], "s"], "c": None})


def test_empty_stream_is_an_empty_array():
    chunks = []
    canonical_json({"a": iter(())}, chunks.append)
    assert "".join(chunks) == reference({"a": []})


@pytest.mark.parametrize(
    "document",
    [
        Fraction(1, 2),
        1.5,
        {"a": [1, Fraction(3)]},
        {"a": 0.0},
        {1: "int key"},
        {(1, 2): "tuple key"},
        {"a": {None: 1}},
        {"a": iter([1])},  # an iterator is an array only when streaming
        object(),
    ],
)
def test_rejects_what_the_cli_never_emits(document):
    with pytest.raises(TypeError):
        canonical_json(document)
