"""Command line surface and the stable JSON interchange format.

Commands: ``expand``, ``convert``, ``analyze``, ``classify``, ``table``.
JSON output is canonical (sorted keys, two-space indent, no floating
point anywhere), so identical invocations are byte-identical and any
emitted document re-emits losslessly.  Exit codes: 0 on success, 2 on
invalid input or gate rejection, 3 when exact arithmetic cannot deliver
an answer (singular linking matrix, non-integral invariant).

Every command builds one v1 document and returns it with its text
printer; :func:`main` alone picks the format and writes either the
document's canonical JSON or the text, which is printed from that same
document.

:func:`canonical_json` writes that text itself, byte-identical to
``json.dumps(doc, indent=2, sort_keys=True)``, whose indenting encoder
is pure Python.  It collects whole lines in one list and writes a row of
plain ints with one ``join``.  ``convert`` and ``analyze`` stream their
presentations: each document is built and written to stdout as one
string when its turn comes, so only one presentation's text is held in
memory at a time.
``analyze`` runs every solve first, so an exit 3 prints nothing.

The branches of one surgery differ only in their stabilization signs,
so they share most of their documents.  A chain component's tb does not
depend on the signs, so every branch has the same linking matrix, and
the component documents repeat across branches.  Such a shared part is
a :class:`Fragment`, whose text is rendered once and then reused.  Each
invocation builds the matrix once, wraps its rows in one fragment and,
for ``convert``, takes its dense det once; component fragments come
from a cache made in the command call, so nothing is kept between
invocations.  ``analyze`` runs one dense ``invert`` and one dense ``det``
per Legendrian class, the branches with the same rotation numbers, and
renders each class's invariants as one fragment.

Both refuse a coefficient that converts into more than MAX_COMPONENTS
components, and, without ``--signs``, one with more than
2^MAX_BRANCH_BITS stabilization branches; ``table`` refuses an
``--m-max`` and ``classify`` an ``--m`` above MAX_M_MAX.  An integer
too long for Python to write (``sys.get_int_max_str_digits()``) exits 2
before anything is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
    echo_int,
)
from .exact import det
from .kirby import CONSISTENT_WITH_STANDARD_TIGHT, classify, emit_table, gate
from .legendrian import ExternalKnot, LegendrianUnknot, validate_unknot
from .presentation import (
    Component,
    Presentation,
    component_count,
    convert,
    enumerate_presentations,
    evaluate_cf,
    expand_negative,
    linking_matrix,
    rot_vector,
    stabilization_budget,
)
from .transform import bennequin, invariants_by_inverse

SCHEMA_VERSION = 1

# convert/analyze without --signs enumerate at most 2^16 branches
MAX_BRANCH_BITS = 16
# convert/analyze refuse a coefficient with more components, with or
# without --signs: 1/128 takes under a second, 1/256 several
MAX_COMPONENTS = 128
# table --m-max 1000 takes about 8 s, and the work grows as m_max^2;
# classify --m 1000 takes a fraction of a second, linear in m
MAX_M_MAX = 1000
# the branch-cap message writes the branch count in decimal up to 2^64 only
_SPELLED_BRANCH_BITS = 64

_INT_ONLY = frozenset((int,))
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
        raise InvalidInputError(
            f"coefficients must be integers or p/q strings, got {text!r}"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise InvalidInputError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InvalidInputError(f"coefficient is too long to read: {exc}") from exc


def parse_signs(text: str) -> tuple:
    if not re.fullmatch(r"[+-]*", text):
        raise InvalidInputError(
            f"signs must be a string over '+' and '-', got {text!r}"
        )
    return tuple(1 if ch == "+" else -1 for ch in text)


def canonical_json(document, write=None) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)``, written directly.

    Accepts dicts with ``str`` keys, lists, tuples, strings, ints, bools
    and ``None``; anything else raises ``TypeError``.  Without ``write``
    the text is returned.  With ``write``, an iterator value is emitted
    as a JSON array whose items are built one at a time: the text before
    each item, then each finished item, then the rest of the document go
    to ``write`` as whole strings, and the empty string is returned.
    """
    lines = []
    _put_lines(document, "", "", "", lines, write)
    text = "\n".join(lines)
    if write is None:
        return text
    write(text)
    return ""


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
        """The fragment's lines at ``indent``, joined, without head or tail."""
        text = self._texts.get(indent)
        if text is None:
            lines = []
            _put_lines(self.value, indent, "", "", lines, None)
            text = self._texts[indent] = "\n".join(lines)
        return text


def _scalar(value) -> str:
    text = _SCALARS.get(type(value))
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text(value)


def _put_lines(value, indent, head, tail, lines, write) -> None:
    """Append the lines of ``value``: ``head`` opens its first, ``tail`` ends its last.

    Items are appended with a trailing comma, which the last one then loses.
    A fragment is appended as one multi-line string.
    """
    if type(value) is Fragment:
        lines.append(head + value.text(indent) + tail)
    elif isinstance(value, dict):
        if not value:
            lines.append(head + "{}" + tail)
            return
        inner = indent + "  "
        lines.append(head + "{")
        for key, item in sorted(value.items()):
            # _quote raises TypeError for a key that is not a str
            item_head = f"{inner}{_quote(key)}: "
            text = _SCALARS.get(type(item))
            if text is None:
                _put_lines(item, inner, item_head, ",", lines, write)
            else:
                lines.append(f"{item_head}{text(item)},")
        lines[-1] = lines[-1][:-1]
        lines.append(indent + "}" + tail)
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(head + "[]" + tail)
            return
        inner = indent + "  "
        lines.append(head + "[")
        if _INT_ONLY.issuperset(map(type, value)):
            lines.append(inner + f",\n{inner}".join(map(int.__repr__, value)))
        else:
            for item in value:
                text = _SCALARS.get(type(item))
                if text is None:
                    _put_lines(item, inner, inner, ",", lines, write)
                else:
                    lines.append(f"{inner}{text(item)},")
            lines[-1] = lines[-1][:-1]
        lines.append(indent + "]" + tail)
    elif write is not None and isinstance(value, Iterator):
        inner = indent + "  "
        lines.append(head + "[")
        write("\n".join(lines))
        lines.clear()
        separator = "\n"
        for item in value:
            item_lines = []
            _put_lines(item, inner, inner, "", item_lines, None)
            write(separator + "\n".join(item_lines))
            separator = ",\n"
        # the closing line opens a fresh chunk, so it carries its own line
        # break, unless the stream was empty and "[" is closed right away
        closing = "]" if separator == "\n" else f"\n{indent}]"
        lines.append(closing + tail)
    else:
        lines.append(head + _scalar(value) + tail)


# ---------------------------------------------------------------------------
# document builders


def _knot_doc(knot: LegendrianUnknot) -> dict:
    return {"type": "unknot", "tb": knot.tb, "rot": knot.rot}


def _component_fragment(comp: Component) -> Fragment:
    return Fragment({
        "index": comp.index,
        "tb": comp.knot.tb,
        "rot": comp.knot.rot,
        "contact_coeff": comp.contact_sign,
        "topological_coeff": comp.topological_coefficient,
        "parent": comp.parent,
        "stabilizations": {"plus": comp.stabs_pos, "minus": comp.stabs_neg},
    })


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


def _shared_matrix(pres: Presentation) -> tuple:
    """The linking matrix all branches of ``pres``'s surgery share, and its rows.

    Both are checked printable before anything is written.  Every
    component's |rot| is below its |tb| (the Bennequin inequality), so
    checking the tbs checks the rots as well.
    """
    matrix = linking_matrix(pres)
    _check_printable(
        [c.knot.tb for c in pres.components] + [x for row in matrix.entries for x in row]
    )
    return matrix, Fragment([list(row) for row in matrix.entries])


def _presentation_doc(pres: Presentation, component, rows, determinant) -> dict:
    return {
        "signs": pres.signs_string,
        "components": [component(c) for c in pres.components],
        "linking_matrix": rows,
        "determinant": determinant,
    }


def _analysis_doc(pres, component, rows, determinant, invariants) -> dict:
    doc = _presentation_doc(pres, component, rows, determinant)
    doc["invariants"] = invariants
    return doc


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


# ---------------------------------------------------------------------------
# input handling


def _diagram_from_args(args):
    """Resolve the (knot, coefficient, signs, echo) quadruple for convert/analyze."""
    flag_inputs = [args.tb, args.rot, args.coeff, args.signs]
    if args.input is not None:
        if any(v is not None for v in flag_inputs):
            raise InvalidInputError(
                "--input cannot be combined with --tb/--rot/--coeff/--signs"
            )
        try:
            with open(args.input, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise InvalidInputError(f"cannot read {args.input}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON in {args.input}: {exc}") from exc
        except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
            raise InvalidInputError(f"cannot read {args.input}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidInputError("diagram document must be a JSON object")
        knot_doc = raw.get("knot")
        if not isinstance(knot_doc, dict) or knot_doc.get("type") != "unknot":
            raise InvalidInputError('diagram document needs knot {"type": "unknot", ...}')
        tb, rot = knot_doc.get("tb"), knot_doc.get("rot")
        for field, value in (("tb", tb), ("rot", rot)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInputError(
                    f"knot {field} must be an integer, got {json.dumps(value)}"
                )
        coefficient = parse_rational(raw.get("coefficient"))
        signs_text = raw.get("signs")
        if signs_text is not None and not isinstance(signs_text, str):
            raise InvalidInputError("signs must be a string over '+' and '-'")
    else:
        if args.tb is None or args.rot is None or args.coeff is None:
            raise InvalidInputError(
                "either --input or all of --tb/--rot/--coeff are required"
            )
        tb, rot = args.tb, args.rot
        coefficient = parse_rational(args.coeff)
        signs_text = args.signs

    knot = validate_unknot(tb, rot)
    signs = None if signs_text is None else parse_signs(signs_text)
    echo = {
        "knot": _knot_doc(knot),
        "coefficient": str(coefficient),
        "signs": signs_text,
    }
    return knot, coefficient, signs, echo


def _presentations(knot, coefficient, signs):
    if component_count(coefficient, MAX_COMPONENTS) > MAX_COMPONENTS:
        raise InvalidInputError(
            f"coefficient {coefficient} converts into more than "
            f"{MAX_COMPONENTS} components; at most {MAX_COMPONENTS} are supported"
        )
    if signs is None:
        budget = stabilization_budget(coefficient)
        if budget > MAX_BRANCH_BITS:
            if budget <= _SPELLED_BRANCH_BITS:
                count = str(2 ** budget)
            else:
                count = f"over {2 ** _SPELLED_BRANCH_BITS}"
            raise InvalidInputError(
                f"coefficient {coefficient} has {count} stabilization "
                f"branches (2^{budget}); without --signs at most "
                f"{2 ** MAX_BRANCH_BITS} (2^{MAX_BRANCH_BITS}) are listed"
            )
        return enumerate_presentations(knot, coefficient)
    return [convert(knot, coefficient, signs)]


# ---------------------------------------------------------------------------
# commands


def _cmd_expand(args) -> tuple:
    value = parse_rational(args.coefficient)
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
    return doc, _print_expansion_text


def _cmd_convert(args) -> tuple:
    knot, coefficient, signs, echo = _diagram_from_args(args)
    presentations = _presentations(knot, coefficient, signs)
    matrix, rows = _shared_matrix(presentations[0])
    determinant = det(matrix)
    _check_printable((determinant,))
    component = functools.cache(_component_fragment)
    docs = (_presentation_doc(p, component, rows, determinant) for p in presentations)
    return _presentations_doc("convert", echo, docs, len(presentations))


def _cmd_analyze(args) -> tuple:
    knot, coefficient, signs, echo = _diagram_from_args(args)
    ext = ExternalKnot(validate_unknot(args.ext_tb, args.ext_rot), args.lk)
    echo["external"] = {
        "tb": ext.knot.tb,
        "rot": ext.knot.rot,
        "lk": ext.lk_with_original,
    }
    presentations = _presentations(knot, coefficient, signs)
    matrix, rows = _shared_matrix(presentations[0])
    # Branches share M and L and differ only in their rotation numbers, so
    # the first branch of each Legendrian class solves for all of it.  Every
    # solve runs before anything is printed, so exit 3 prints nothing.
    classes = {}
    for pres in presentations:
        key = rot_vector(pres)
        if key in classes:
            continue
        invariants = invariants_by_inverse(pres, ext)
        check = bennequin(invariants.tb_new, invariants.rot_new)
        # one dense invert and det per class: the benchmark's own test pins them
        determinant = det(matrix)
        _check_printable((determinant, invariants.tb_new, invariants.rot_new, check.slack))
        classes[key] = determinant, Fragment({
            "tb_new": invariants.tb_new,
            "rot_new": invariants.rot_new,
            "bennequin": _bennequin_doc(check),
        })
    component = functools.cache(_component_fragment)
    docs = (
        _analysis_doc(p, component, rows, *classes[rot_vector(p)]) for p in presentations
    )
    return _presentations_doc("analyze", echo, docs, len(presentations))


def _presentations_doc(command, echo, docs, total) -> tuple:
    """The convert/analyze document, its presentations streamed from ``docs``.

    Returns the document and its text printer, which numbers each
    presentation out of ``total``.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": echo,
        "presentations": docs,
    }

    def print_text(document) -> None:
        for idx, pres_doc in enumerate(document["presentations"]):
            _print_presentation_text(idx, total, pres_doc)

    return doc, print_text


def _cmd_classify(args) -> tuple:
    if args.m > MAX_M_MAX:
        raise InvalidInputError(f"--m must be at most {MAX_M_MAX} (got {echo_int(args.m)})")
    doc = {"schema_version": SCHEMA_VERSION, "command": "classify"}
    doc.update(_report_doc(classify(gate(args.m, args.n, args.rot))))
    return doc, _print_report_text


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
    return doc, _print_table_text


# ---------------------------------------------------------------------------
# text rendering of the documents


def _unwrap(value):
    """The document a fragment stands for; any other value as it is."""
    return value.value if type(value) is Fragment else value


def _print_expansion_text(doc) -> None:
    print(str(doc["coefficients"]))
    print(f"round-trip: {doc['round_trip']}")


def _print_presentation_text(idx, total, doc) -> None:
    """Print one presentation document, with its invariants if it has them."""
    print(f"presentation {idx + 1} of {total} (signs: {doc['signs'] or '(none)'})")
    for comp in map(_unwrap, doc["components"]):
        parent = "-" if comp["parent"] is None else str(comp["parent"])
        stabs = comp["stabilizations"]
        print(
            f"  component {comp['index']}: tb={comp['tb']} rot={comp['rot']} "
            f"contact={comp['contact_coeff']:+d} "
            f"topological={comp['topological_coeff']:+d} "
            f"parent={parent} stabs=+{stabs['plus']}/-{stabs['minus']}"
        )
    matrix = _unwrap(doc["linking_matrix"])
    print("  linking matrix:")
    width = max(len(str(x)) for row in matrix for x in row)
    for row in matrix:
        print("    [ " + "  ".join(str(x).rjust(width) for x in row) + " ]")
    print(f"  determinant: {doc['determinant']}")
    invariants = _unwrap(doc.get("invariants"))
    if invariants is not None:
        check = invariants["bennequin"]
        verdict = "satisfied" if check["satisfied"] else "violated"
        print(
            f"  tb_new={invariants['tb_new']} rot_new={invariants['rot_new']} "
            f"bennequin {verdict} (slack {check['slack']})"
        )


def _print_report_text(doc) -> None:
    d = doc["diagram"]
    print(f"diagram: m={d['m']} n={d['n']} rot={d['rot']} (collection {doc['collection']})")
    for verdict in doc["verdicts"]:
        if verdict["reason"] is not None:
            print(f"  {verdict['reason']} -> {verdict['status']}")
            continue
        check = verdict["bennequin"]
        state = "satisfied" if check["satisfied"] else "violated"
        label, shown = _branch_text(verdict)
        print(
            f"  branch {label}: tb_new={verdict['tb_new']} rot_new={verdict['rot_new']} "
            f"bennequin {state} (slack {check['slack']}) -> {shown}"
        )
    print(f"summary: {doc['summary']}")


def _print_table_text(doc) -> None:
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
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Keeps ``--`` as the value of an option (``--signs=--``).

    argparse (CPython 3.11 among others) drops that ``--`` and stores
    ``[]``, which no command can read.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
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
        document, print_text = args.func(args)
        if args.format == "json":
            canonical_json(document, sys.stdout.write)
            print()
        else:
            print_text(document)
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, NonIntegralInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


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
