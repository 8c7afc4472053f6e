"""The direct canonical JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from contact_kirby.cli import Fragment, canonical_json


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


def unwrap(document):
    """The plain document a document with fragments stands for."""
    if isinstance(document, Fragment):
        return unwrap(document.value)
    if isinstance(document, dict):
        return {key: unwrap(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [unwrap(item) for item in document]
    return document


# any subtree, the whole document included, may be wrapped, and wrapped again
with_fragments = st.recursive(
    scalars | scalars.map(Fragment),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(strings, inner)
    | inner.map(Fragment),
    max_leaves=40,
)


@given(with_fragments)
def test_fragments_match_json_dumps_of_their_values(document):
    assert canonical_json(document) == reference(unwrap(document))


@given(st.lists(with_fragments, max_size=3), with_fragments)
def test_streamed_fragments_match_json_dumps(items, rest):
    chunks = []
    document = {"items": iter(items), "rest": rest}
    assert canonical_json(document, chunks.append) == ""
    assert "".join(chunks) == reference({"items": unwrap(items), "rest": unwrap(rest)})


@given(documents)
def test_one_fragment_reused_at_two_indents(value):
    # rendered first at one indent and then at others, each from its own cache
    fragment = Fragment(value)
    document = {"deep": [[{"at": fragment}]], "top": fragment, "list": [fragment, 1]}
    expected = reference({"deep": [[{"at": value}]], "top": value, "list": [value, 1]})
    assert canonical_json(document) == expected
    assert canonical_json(document) == expected
    assert canonical_json(fragment) == reference(value)


def test_a_fragment_renders_once_per_indent(monkeypatch):
    from contact_kirby import cli

    rendered = []
    put_lines = cli._put_lines
    monkeypatch.setattr(
        cli, "_put_lines",
        lambda value, indent, *rest: rendered.append((value, indent)) or put_lines(value, indent, *rest),
    )
    value = {"x": [1, 2]}
    fragment = Fragment(value)
    canonical_json([fragment, {"a": fragment}, fragment, [fragment]])
    assert [indent for v, indent in rendered if v is value] == ["  ", "    "]


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


@pytest.mark.parametrize(
    "document",
    [Fragment(Fraction(1, 2)), [Fragment({"a": 1.5})], Fragment(iter([1]))],
)
def test_a_fragment_holds_only_what_the_writer_accepts(document):
    with pytest.raises(TypeError):
        canonical_json(document, [].append)
