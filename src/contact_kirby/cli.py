"""Command line surface and the stable JSON interchange format.

Commands: ``expand``, ``convert``, ``analyze``, ``classify``, ``table``.
JSON output is canonical (sorted keys, two-space indent, no floating
point anywhere), so identical invocations are byte-identical and any
emitted document re-emits losslessly.  Exit codes: 0 on success, 2 on
invalid input or gate rejection, 3 when exact arithmetic cannot deliver
an answer (singular linking matrix, non-integral invariant).

Every command builds one v1 document and returns it with its two
printers, JSON and text, each called as ``printer(document, write)``;
:func:`main` alone picks one, and hands what it writes to stdout in
pieces (:class:`_Batched`).  Most documents print their JSON through
:func:`canonical_json`, which is byte-identical to ``json.dumps(doc,
indent=2, sort_keys=True)`` (whose indenting encoder is pure Python):
one recursive function, ``_dump``, returns the text of each value.

``convert`` and ``analyze`` live in :mod:`contact_kirby._presentations`,
with the text printers of their documents; their handlers import it when
they run, and only its ``--input`` reader imports ``json``.  So
``expand``, ``classify`` and ``table`` compile and import only what they
run.  Nothing is kept between invocations.

``expand``, ``convert`` and ``analyze`` refuse a coefficient that
converts into more than MAX_COMPONENTS components; without ``--signs``
the latter two also refuse one with more than 2^MAX_BRANCH_BITS
stabilization branches.  ``table`` refuses an
``--m-max`` and ``classify`` an ``--m`` above MAX_M_MAX.  An integer
too long for Python to write (``sys.get_int_max_str_digits()``) exits 2
before anything is printed.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from fractions import Fraction

from .errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
    echo_int,
    echo_text,
)
from .kirby import CONSISTENT_WITH_STANDARD_TIGHT, classify, emit_table, gate
from .presentation import (
    component_bound_message, component_count, evaluate_cf, expand_negative,
)

try:  # the C encoder that json.dumps uses, without importing json
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without it
    from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = 1

# convert/analyze without --signs enumerate at most 2^16 branches
MAX_BRANCH_BITS = 16
# expand/convert/analyze refuse a coefficient with more components, with
# or without --signs: 1/128 takes under a second, 1/256 several
MAX_COMPONENTS = 128
# table --m-max 1000 takes about 8 s, and the work grows as m_max^2;
# classify --m 1000 takes a fraction of a second, linear in m
MAX_M_MAX = 1000
# --input reads at most this many characters: four 128 KiB flags fit
MAX_INPUT_CHARS = 2 ** 20
# main hands stdout its text in pieces of this many characters
_PIECE = io.DEFAULT_BUFFER_SIZE

# JSON text of the scalar types the documents hold, by exact type
_SCALARS = {
    int: int.__repr__,
    str: _quote,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# argparse only accepts leading-dash tokens as positionals/values when its
# negative-number matcher recognizes them; widen it to cover -p/q and sign
# strings such as -+ (``--`` alone still ends the options).
_NEGATIVE_TOKEN = re.compile(r"^-(\d+(/\d+)?|[+-]+)$")


def parse_rational(text) -> Fraction:
    """Parse 'p', '+p', '-p' or 'p/q' exactly; anything else is rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        shown = echo_text(text) if isinstance(text, str) else echo_text(repr(text), str)
        raise InvalidInputError(f"coefficients must be integers or p/q strings, got {shown}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise InvalidInputError(f"zero denominator in {echo_text(text)}") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InvalidInputError(f"coefficient is too long to read: {exc}") from exc


def parse_signs(text: str) -> tuple:
    if not re.fullmatch(r"[+-]*", text):
        raise InvalidInputError(
            f"signs must be a string over '+' and '-', got {echo_text(text)}"
        )
    return tuple(1 if ch == "+" else -1 for ch in text)


def canonical_json(document) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)``, written directly.

    Accepts dicts with ``str`` keys, lists, tuples, strings, ints, bools,
    ``None`` and fragments (:class:`Fragment`) of those; anything else
    raises ``TypeError``.
    """
    return _dump(document, "")


def _print_json(document, write) -> None:
    write(canonical_json(document) + "\n")


class _Batched:
    """A ``write`` that passes its text on in pieces of ``_PIECE`` characters.

    Under ``python -u`` every ``sys.stdout.write`` is one write(2), which
    per branch or per line costs more than the branch; :meth:`close`
    passes on the rest.
    """

    __slots__ = ("_write", "_pending", "_size")

    def __init__(self, write):
        self._write = write
        self._pending = []
        self._size = 0

    def __call__(self, text: str) -> None:
        self._pending.append(text)
        self._size += len(text)
        if self._size >= _PIECE:
            text = "".join(self._pending)
            end = len(text) - len(text) % _PIECE
            for start in range(0, end, _PIECE):
                self._write(text[start:start + _PIECE])
            self._pending = [text[end:]]
            self._size = len(text) - end

    def close(self) -> None:
        if self._size:
            self._write("".join(self._pending))


class Fragment:
    """A finished sub-document whose JSON text is rendered once per indent.

    ``value`` is a document :func:`canonical_json` accepts, fragments
    included, and must not change once wrapped: the first rendering at
    each indent is kept and written again wherever the fragment recurs,
    byte-identical to ``json.dumps`` of ``value`` at that place.
    """

    __slots__ = ("value", "_texts")

    def __init__(self, value):
        self.value = value
        self._texts = {}

    def text(self, indent: str) -> str:
        """``_dump(self.value, indent)``, rendered on its first call at ``indent``."""
        text = self._texts.get(indent)
        if text is None:
            text = self._texts[indent] = _dump(self.value, indent)
        return text


def _dump(value, indent: str) -> str:
    """The JSON text of ``value`` as it stands at ``indent``.

    Its first line starts where its key or list position leaves it, so it
    carries no indent of its own; every later line carries ``indent`` and
    its nesting.
    """
    text = _SCALARS.get(type(value))
    if text is not None:
        return text(value)
    if type(value) is Fragment:
        return value.text(indent)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError for a key that is not a str
        items = [f"{_quote(key)}: {_dump(item, inner)}" for key, item in sorted(value.items())]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dump(item, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


# ---------------------------------------------------------------------------
# document builders


def _check_printable(values) -> None:
    """Refuse an integer that ``int.__repr__`` would not write out.

    Python refuses to convert integers longer than
    ``sys.get_int_max_str_digits()`` decimal digits to text.  The
    commands check every such value before the first byte is written,
    so a refused output is empty rather than cut off.
    """
    # 0 where the limit is off; before Python 3.10.7 there is none
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return
    for value in values:
        # under 3 (limit - 1) bits, a value has fewer than limit digits
        if value.bit_length() >= 3 * (limit - 1) and abs(value) >= 10 ** limit:
            raise InvalidInputError(
                f"an output integer has more than {limit} digits, Python's "
                f"limit for writing integers (sys.get_int_max_str_digits())"
            )


def _bennequin_doc(check) -> dict:
    return {"satisfied": check.satisfied, "slack": check.slack}


def _verdict_doc(verdict) -> dict:
    check = verdict.bennequin
    return {
        "signs": verdict.signs_string,
        "tb_new": verdict.tb_new,
        "rot_new": verdict.rot_new,
        "bennequin": None if check is None else _bennequin_doc(check),
        "status": verdict.status,
        "reason": verdict.reason,
    }


def _report_doc(report) -> dict:
    d = report.diagram
    return {
        "diagram": {"m": d.m, "n": d.n, "rot": d.rot},
        "collection": report.collection,
        "verdicts": [_verdict_doc(v) for v in report.verdicts],
        "survives": report.survives,
        "summary": report.summary,
    }


def _branch_text(verdict: dict) -> tuple:
    """A verdict document's sign label and status as the text formats show them."""
    status = verdict["status"]
    if status == CONSISTENT_WITH_STANDARD_TIGHT:
        status = "tight (asserted)"
    return verdict["signs"] or "(none)", status


def _verdict_label(verdict: dict) -> str:
    if verdict["reason"] is not None:
        return f"0-surgery: {verdict['status']}"
    label, status = _branch_text(verdict)
    return f"{label}: {status}"


def _check_components(coefficient) -> None:
    """Refuse a coefficient that converts into more than MAX_COMPONENTS components.

    A negative coefficient has one component per entry of its expansion.
    """
    if component_count(coefficient, MAX_COMPONENTS) > MAX_COMPONENTS:
        raise InvalidInputError(component_bound_message(coefficient, MAX_COMPONENTS))


# ---------------------------------------------------------------------------
# commands


def _cmd_expand(args) -> tuple:
    value = parse_rational(args.coefficient)
    if value < 0:  # expand_negative refuses the rest with its own message
        _check_components(value)
    coeffs = list(expand_negative(value).coeffs)
    _check_printable(coeffs)
    round_trip = evaluate_cf([coeffs[0] + 1] + coeffs[1:])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "expand",
        "coefficient": str(value),
        "coefficients": coeffs,
        "round_trip": str(round_trip),
    }
    return doc, _print_json, _print_expansion_text


def _cmd_convert(args) -> tuple:
    from . import _presentations

    return _presentations.cmd_convert(args)


def _cmd_analyze(args) -> tuple:
    from . import _presentations

    return _presentations.cmd_analyze(args)


def _cmd_classify(args) -> tuple:
    if args.m > MAX_M_MAX:
        raise InvalidInputError(f"--m must be at most {MAX_M_MAX} (got {echo_int(args.m)})")
    doc = {"schema_version": SCHEMA_VERSION, "command": "classify"}
    doc.update(_report_doc(classify(gate(args.m, args.n, args.rot))))
    return doc, _print_json, _print_report_text


def _cmd_table(args) -> tuple:
    if not 0 <= args.m_max <= MAX_M_MAX:
        raise InvalidInputError(
            f"--m-max must be between 0 and {MAX_M_MAX} (got {echo_int(args.m_max)})"
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "table",
        "m_max": args.m_max,
        "reports": [_report_doc(r) for r in emit_table(args.m_max)],
    }
    return doc, _print_json, _print_table_text


# ---------------------------------------------------------------------------
# text rendering of the documents


def _print_expansion_text(doc, write) -> None:
    write(f"{doc['coefficients']}\nround-trip: {doc['round_trip']}\n")


def _print_report_text(doc, write) -> None:
    d = doc["diagram"]
    write(f"diagram: m={d['m']} n={d['n']} rot={d['rot']} (collection {doc['collection']})\n")
    for verdict in doc["verdicts"]:
        if verdict["reason"] is not None:
            write(f"  {verdict['reason']} -> {verdict['status']}\n")
            continue
        check = verdict["bennequin"]
        state = "satisfied" if check["satisfied"] else "violated"
        label, shown = _branch_text(verdict)
        write(
            f"  branch {label}: tb_new={verdict['tb_new']} rot_new={verdict['rot_new']} "
            f"bennequin {state} (slack {check['slack']}) -> {shown}\n"
        )
    write(f"summary: {doc['summary']}\n")


def _print_table_text(doc, write) -> None:
    """One aligned row per report document, under a header row."""
    rows = [("m", "n", "collection", "branches", "survivor")]
    rows.extend(
        (
            str(r["diagram"]["m"]),
            str(r["diagram"]["n"]),
            r["collection"],
            "; ".join(_verdict_label(v) for v in r["verdicts"]),
            "yes" if r["survives"] else "no",
        )
        for r in doc["reports"]
    )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# parser


class _Dashes(list):
    """``["--"]`` as an option's value: argparse before 3.13 removes that ``--``."""

    def remove(self, value):
        pass


class _Parser(argparse.ArgumentParser):
    """Keeps ``--`` as the value of an option (``--signs=--``), and writes
    every argument an argparse message echoes as every other message does.

    Each parser records the arguments it is given (a subparser, its slice).
    :meth:`error`, which every argparse message goes through, writes each
    of them, and the value argparse may split off one (after ``=``, or
    after ``-h`` as in ``-h<text>``), by ``echo_text``: a ``repr`` as
    ``echo_text(text)``, a raw text as ``echo_text(text, str)``.  Longest
    first, so no text is rewritten inside a longer one.
    """

    _given = ()

    def parse_known_args(self, args=None, namespace=None):
        self._given = args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        texts = []
        for text in self._given:
            texts += (text, text.partition("=")[2])
            if text[:1] == "-" != text[1:2]:  # -hh<text> is -h twice, then <text>
                texts.append(text[1:].lstrip(text[1:2]))
        for text in sorted(texts, key=len, reverse=True):
            message = message.replace(repr(text), echo_text(text))
            message = message.replace(text, echo_text(text, str))
        super().error(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            arg_strings = _Dashes(arg_strings)
        return super()._get_values(action, arg_strings)


def _add_format(parser, default) -> None:
    parser.add_argument(
        "--format", choices=("json", "table"), default=default,
        help=f"output format (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contact-kirby",
        description=(
            "Convert rational contact surgeries on Legendrian unknots into "
            "(+/-1)-surgery presentations and screen candidate diagrams for "
            "a contact Kirby move of type 1."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    expand = subparsers.add_parser(
        "expand", help="negative continued fraction expansion of a coefficient"
    )
    expand.add_argument("coefficient", help="negative rational, e.g. -3/2")
    _add_format(expand, "table")
    expand.set_defaults(func=_cmd_expand)

    def add_diagram_options(sub):
        sub.add_argument("--tb", type=int, help="tb of the surgery unknot")
        sub.add_argument("--rot", type=int, help="rot of the surgery unknot")
        sub.add_argument("--coeff", help="contact surgery coefficient, integer or p/q")
        sub.add_argument(
            "--signs",
            help=(
                "stabilization signs as a string over + and - (default: all "
                f"branches, at most 2^{MAX_BRANCH_BITS} of them); two minus "
                "signs must be written --signs=--"
            ),
        )
        sub.add_argument("--input", help="read a diagram document (JSON) instead of flags")

    conv = subparsers.add_parser(
        "convert", help="convert a contact surgery into (+/-1)-presentations"
    )
    add_diagram_options(conv)
    _add_format(conv, "json")
    conv.set_defaults(func=_cmd_convert)

    analyze = subparsers.add_parser(
        "analyze", help="post-surgery invariants of an external unknot"
    )
    add_diagram_options(analyze)
    analyze.add_argument(
        "--lk", type=int, required=True,
        help="linking number of the external unknot with the surgery knot",
    )
    analyze.add_argument(
        "--ext-tb", type=int, default=-1, help="tb of the external unknot (default -1)"
    )
    analyze.add_argument(
        "--ext-rot", type=int, default=0, help="rot of the external unknot (default 0)"
    )
    _add_format(analyze, "json")
    analyze.set_defaults(func=_cmd_analyze)

    cls = subparsers.add_parser(
        "classify", help="screen one candidate diagram (m, n)"
    )
    cls.add_argument(
        "--m", type=int, required=True,
        help=f"tb of the unknot is -m, 1 to {MAX_M_MAX}",
    )
    cls.add_argument("--n", type=int, required=True, help="contact framing")
    cls.add_argument(
        "--rot", type=int, default=None,
        help="rot of the unknot (default -(m-1))",
    )
    _add_format(cls, "json")
    cls.set_defaults(func=_cmd_classify)

    table = subparsers.add_parser(
        "table", help="screen every candidate with m up to --m-max"
    )
    table.add_argument(
        "--m-max", type=int, required=True,
        help=f"largest m to screen, 0 to {MAX_M_MAX}",
    )
    _add_format(table, "table")
    table.set_defaults(func=_cmd_table)

    for sub in (parser, expand, conv, analyze, cls, table):
        sub._negative_number_matcher = _NEGATIVE_TOKEN

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        document, print_json, print_text = args.func(args)
        write = _Batched(sys.stdout.write)
        (print_json if args.format == "json" else print_text)(document, write)
        write.close()
        return 0
    except (InvalidInputError, SingularMatrixError, NonIntegralInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInputError) else 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``): what it read is all it wanted.
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
