"""The ``convert`` and ``analyze`` commands: one diagram's presentations as a v1 document.

:mod:`contact_kirby.cli` imports this module only when one of the two
runs, so ``expand``, ``classify`` and ``table`` never compile it.  It
reaches the CLI's writer and every function a benchmark tracer may
rebind through their modules (``cli.canonical_json``, ``exact.det``),
never through a name bound when it was imported.

The branches of one surgery share their linking matrix, since a chain
component's tb does not depend on the signs: each invocation builds it
once, and ``convert`` takes its dense det once.  The branches of one
Legendrian class also share their components, and so every key of their
documents but ``"signs"``, which sorts last.  Both commands therefore
render each class once per format: in JSON, its document with
``"signs": ""``, cut around that ``""``, and each branch is the two
halves with its own signs between them; in text, its body, printed under
each branch's heading.  Each distinct component is one shared
:class:`cli.Fragment`.  ``analyze`` runs one dense ``invert`` and one
dense ``det`` per class, all before the first byte, so an exit 3 prints
nothing.
"""

from __future__ import annotations

from . import cli, exact, presentation, transform
from .errors import InvalidInputError, echo_int, echo_rational, echo_text
from .legendrian import ExternalKnot, LegendrianUnknot

# a message writes an --input path in full up to Linux's PATH_MAX, so every
# path open() accepts shows whole, and a longer one as its start and length
_ECHOED_PATH_CHARS = 4096
# the branch-cap message writes the branch count in decimal up to 2^64 only
_SPELLED_BRANCH_BITS = 64


def cmd_convert(args) -> tuple:
    knot, coefficient, signs, echo = _diagram_from_args(args)
    presentations = _branches(knot, coefficient, signs)
    matrix, rows = _shared_matrix(presentations[0])
    determinant = exact.det(matrix)
    cli._check_printable((determinant,))
    return _presentations_doc(
        "convert", echo, presentations,
        lambda pres: {"linking_matrix": rows, "determinant": determinant},
    )


def cmd_analyze(args) -> tuple:
    knot, coefficient, signs, echo = _diagram_from_args(args)
    ext = ExternalKnot(LegendrianUnknot(args.ext_tb, args.ext_rot), args.lk)
    echo["external"] = {
        "tb": ext.knot.tb,
        "rot": ext.knot.rot,
        "lk": ext.lk_with_original,
    }
    presentations = _branches(knot, coefficient, signs)
    matrix, rows = _shared_matrix(presentations[0])

    # Branches share M and L and differ only in their rotation numbers, so
    # the first branch of each Legendrian class solves for all of it.
    def class_doc(pres) -> dict:
        invariants = transform.invariants_by_inverse(pres, ext)
        check = transform.bennequin(invariants.tb_new, invariants.rot_new)
        # one dense invert and det per class: the benchmark's own test pins them
        determinant = exact.det(matrix)
        cli._check_printable((determinant, invariants.tb_new, invariants.rot_new, check.slack))
        return {
            "linking_matrix": rows,
            "determinant": determinant,
            "invariants": {
                "tb_new": invariants.tb_new,
                "rot_new": invariants.rot_new,
                "bennequin": cli._bennequin_doc(check),
            },
        }

    return _presentations_doc("analyze", echo, presentations, class_doc)


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
        import json  # only a diagram document needs it

        path = echo_text(args.input, str, _ECHOED_PATH_CHARS)
        try:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read(cli.MAX_INPUT_CHARS + 1)
            if len(text) > cli.MAX_INPUT_CHARS:
                raise ValueError(f"--input reads at most {cli.MAX_INPUT_CHARS} characters")
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc
        except OSError as exc:  # its own text names the path again
            raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from exc
        except ValueError as exc:  # the bound, bad UTF-8, an integer too long to read
            raise InvalidInputError(f"cannot read {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidInputError("diagram document must be a JSON object")
        knot_doc = raw.get("knot")
        if not isinstance(knot_doc, dict) or knot_doc.get("type") != "unknot":
            raise InvalidInputError('diagram document needs knot {"type": "unknot", ...}')
        tb, rot = knot_doc.get("tb"), knot_doc.get("rot")
        for field, value in (("tb", tb), ("rot", rot)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInputError(
                    f"knot {field} must be an integer, got {echo_text(json.dumps(value), str)}"
                )
        coefficient = cli.parse_rational(raw.get("coefficient"))
        signs_text = raw.get("signs")
        if signs_text is not None and not isinstance(signs_text, str):
            raise InvalidInputError("signs must be a string over '+' and '-'")
    else:
        if args.tb is None or args.rot is None or args.coeff is None:
            raise InvalidInputError(
                "either --input or all of --tb/--rot/--coeff are required"
            )
        tb, rot = args.tb, args.rot
        coefficient = cli.parse_rational(args.coeff)
        signs_text = args.signs

    knot = LegendrianUnknot(tb, rot)
    signs = None if signs_text is None else cli.parse_signs(signs_text)
    echo = {
        "knot": {"type": "unknot", "tb": knot.tb, "rot": knot.rot},
        "coefficient": str(coefficient),
        "signs": signs_text,
    }
    return knot, coefficient, signs, echo


def _branches(knot, coefficient, signs) -> list:
    """The presentations the command lists: every branch, or the one ``signs`` picks."""
    cli._check_components(coefficient)
    if signs is None:
        budget = presentation.stabilization_budget(coefficient)
        if budget > cli.MAX_BRANCH_BITS:
            if budget <= _SPELLED_BRANCH_BITS:
                count = str(2 ** budget)
            else:
                count = f"over {2 ** _SPELLED_BRANCH_BITS}"
            raise InvalidInputError(
                f"coefficient {echo_rational(coefficient)} has {count} stabilization "
                f"branches (2^{echo_int(budget)}); without --signs at most "
                f"{2 ** cli.MAX_BRANCH_BITS} (2^{cli.MAX_BRANCH_BITS}) are listed"
            )
        return presentation.enumerate_presentations(knot, coefficient)
    return [presentation.convert(knot, coefficient, signs)]


# ---------------------------------------------------------------------------
# the document and its printers


def _shared_matrix(pres) -> tuple:
    """The linking matrix all branches of ``pres``'s surgery share, and its rows.

    Both are checked printable before anything is written.  Every
    component's |rot| is below its |tb| (the Bennequin inequality), so
    checking the tbs checks the rots as well.
    """
    matrix = presentation.linking_matrix(pres)
    cli._check_printable(
        list(pres.surgery.tbs) + [x for row in matrix.entries for x in row]
    )
    return matrix, cli.Fragment(matrix.entries)


def _presentations_doc(command, echo, presentations, class_doc) -> tuple:
    """The convert/analyze document and its two printers.

    The branches of one Legendrian class share one class key, and
    ``class_doc(pres)`` builds the rest of the class's document, but for
    its signs (``""``), from the class's first branch.  Every class is
    built here, so one that raises prints nothing.  The document holds
    the branches themselves; each printer renders every class once, as
    JSON halves or as a text body, before its first write, and then
    writes each branch from its class's rendering.
    """
    classes, parts = {}, {}
    for pres in presentations:
        if pres.key not in classes:
            doc = class_doc(pres)
            doc["components"] = _component_docs(pres.components, parts)
            doc["signs"] = ""
            classes[pres.key] = doc
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": command,
        "input": echo,
        "presentations": presentations,
    }

    def print_json(document, write) -> None:
        halves = {key: _class_halves(template) for key, template in classes.items()}
        # the document's text around its empty list holds the branches
        head, _, tail = cli.canonical_json(dict(document, presentations=[])).rpartition("[]")
        separator = head + "[\n"
        quote = cli._quote
        for pres in document["presentations"]:
            before, after = halves[pres.key]
            write(f"{separator}{before}{quote(pres.signs_string)}{after}")
            separator = ",\n"
        write(f"\n  ]{tail}\n")

    def print_text(document, write) -> None:
        bodies = {key: _presentation_body(template) for key, template in classes.items()}
        total = len(document["presentations"])
        for idx, pres in enumerate(document["presentations"]):
            heading = _presentation_heading(idx, total, pres.signs_string)
            write(heading + bodies[pres.key])

    return doc, print_json, print_text


def _class_halves(doc) -> tuple:
    """A class's document as a presentations item, cut around its signs' ``""``."""
    before, _, after = ("    " + cli._dump(doc, "    ")).rpartition('""')
    return before, after


def _component_docs(components, parts) -> list:
    """The components' documents, one :class:`cli.Fragment` per distinct component.

    Within the one surgery ``parts`` serves, an index fixes a tb and a
    stabilization count, so (index, rot, positive count) fixes the rest.
    """
    docs = []
    for comp in components:
        key = (comp.index, comp.knot.rot, comp.stabs_pos)
        fragment = parts.get(key)
        if fragment is None:
            fragment = parts[key] = cli.Fragment(_component_doc(comp))
        docs.append(fragment)
    return docs


def _component_doc(comp) -> dict:
    return {
        "index": comp.index,
        "tb": comp.knot.tb,
        "rot": comp.knot.rot,
        "contact_coeff": comp.contact_sign,
        "topological_coeff": comp.topological_coefficient,
        "parent": comp.parent,
        "stabilizations": {"plus": comp.stabs_pos, "minus": comp.stabs_neg},
    }


def _unwrap(value):
    """The document a fragment stands for; any other value as it is."""
    return value.value if type(value) is cli.Fragment else value


def _presentation_heading(idx, total, signs) -> str:
    return f"presentation {idx + 1} of {total} (signs: {signs or '(none)'})\n"


def _presentation_body(doc) -> str:
    """A presentation document's lines under its heading, invariants included."""
    lines = []
    for comp in map(_unwrap, doc["components"]):
        parent = "-" if comp["parent"] is None else str(comp["parent"])
        stabs = comp["stabilizations"]
        lines.append(
            f"  component {comp['index']}: tb={comp['tb']} rot={comp['rot']} "
            f"contact={comp['contact_coeff']:+d} "
            f"topological={comp['topological_coeff']:+d} "
            f"parent={parent} stabs=+{stabs['plus']}/-{stabs['minus']}"
        )
    matrix = _unwrap(doc["linking_matrix"])
    lines.append("  linking matrix:")
    width = max(len(str(x)) for row in matrix for x in row)
    for row in matrix:
        lines.append("    [ " + "  ".join(str(x).rjust(width) for x in row) + " ]")
    lines.append(f"  determinant: {doc['determinant']}")
    invariants = doc.get("invariants")
    if invariants is not None:
        check = invariants["bennequin"]
        verdict = "satisfied" if check["satisfied"] else "violated"
        lines.append(
            f"  tb_new={invariants['tb_new']} rot_new={invariants['rot_new']} "
            f"bennequin {verdict} (slack {check['slack']})"
        )
    lines.append("")
    return "\n".join(lines)
