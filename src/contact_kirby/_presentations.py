"""The ``convert`` and ``analyze`` commands: one diagram's presentations as a v1 document.

:mod:`contact_kirby.cli` imports this module only when one of the two
runs, so ``expand``, ``classify`` and ``table`` never compile it.  It
reaches the CLI's writer and every function a benchmark tracer may
rebind through their modules (``cli.canonical_json``, ``exact.det``),
never through a name bound when it was imported.

Each invocation builds one :class:`presentation.Surgery`, bounded at
``cli.MAX_COMPONENTS`` components, and hands it to every branch it
lists.  The branches of one surgery share their linking matrix, since a
chain component's tb does not depend on the signs: each invocation
builds it once, ``convert`` takes its dense det once, and each printer
renders it once.  The branches of one Legendrian class also share their
components, and so every key of their documents but ``"signs"``, which
sorts last.  Both commands therefore render each class once per format,
without the matrix: in JSON, its document with an empty matrix and
``"signs": ""``, cut around both, and each branch is the three pieces
with the one matrix text and its own signs between them; in text, its
component lines and its determinant and invariants lines, printed under
each branch's heading with the matrix lines between them.  Each
distinct component is one shared :class:`cli.Fragment`.  What still
grows with classes times components is each class's component text,
``Surgery.classes``' :class:`presentation.Component` tuples, and the
output itself, which prints the whole matrix for every branch: about
18 GB of JSON for 2^16 classes of 128 components.  ``analyze`` runs
one dense ``invert`` and one dense ``det`` per class, all before the
first byte, so an exit 3 prints nothing.
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
    matrix = _shared_matrix(presentations[0])
    determinant = exact.det(matrix)
    cli._check_printable((determinant,))
    return _presentations_doc(
        "convert", echo, presentations, matrix, lambda pres: {"determinant": determinant}
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
    matrix = _shared_matrix(presentations[0])

    # Branches share M and L and differ only in their rotation numbers, so
    # the first branch of each Legendrian class solves for all of it.
    def class_doc(pres) -> dict:
        invariants = transform.invariants_by_inverse(pres, ext)
        check = transform.bennequin(invariants.tb_new, invariants.rot_new)
        # one dense invert and det per class: the benchmark's own test pins them
        determinant = exact.det(matrix)
        cli._check_printable((determinant, invariants.tb_new, invariants.rot_new, check.slack))
        return {
            "determinant": determinant,
            "invariants": {
                "tb_new": invariants.tb_new,
                "rot_new": invariants.rot_new,
                "bennequin": cli._bennequin_doc(check),
            },
        }

    return _presentations_doc("analyze", echo, presentations, matrix, class_doc)


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
    """The presentations the command lists: every branch, or the one ``signs`` picks.

    All of them share one :class:`presentation.Surgery`, bounded at
    ``cli.MAX_COMPONENTS`` components.
    """
    surgery = presentation.Surgery(knot, coefficient, cli.MAX_COMPONENTS)
    if signs is None:
        budget = surgery.budget
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
        return presentation.enumerate_presentations(knot, coefficient, surgery)
    return [presentation.convert(knot, coefficient, signs, surgery)]


# ---------------------------------------------------------------------------
# the document and its printers


def _shared_matrix(pres) -> exact.IntMatrix:
    """The linking matrix all branches of ``pres``'s surgery share.

    Its entries are checked printable before anything is written, and
    they bound every integer a component prints.  Every tb but the last
    is an off-diagonal entry.  The last is the input knot's (a (+1)
    push-off) or one step nearer zero than its diagonal entry tb - 1 (a
    chain entry).  Each |rot| is below its |tb|, since every component is
    a valid unknot, each stabilization count is below the last |tb|, and
    each topological coefficient is a diagonal entry.
    """
    matrix = presentation.linking_matrix(pres)
    cli._check_printable([x for row in matrix.entries for x in row])
    return matrix


def _presentations_doc(command, echo, presentations, matrix, class_doc) -> tuple:
    """The convert/analyze document and its two printers.

    The branches of one Legendrian class share one class key, and
    ``class_doc(pres)`` builds the rest of the class's document, but for
    its components, its signs and the linking ``matrix`` every branch
    shares, from the class's first branch.  Every class is built here, so
    one that raises prints nothing.  The document holds the branches
    themselves.  Each printer renders the matrix once and every class
    once, without the matrix, before its first write, and then writes
    each branch as its class's text with the one matrix text, and in
    JSON its own signs, spliced in.
    """
    classes, parts = {}, {}
    for pres in presentations:
        if pres.key not in classes:
            doc = class_doc(pres)
            doc["components"] = _component_docs(pres.components, parts)
            classes[pres.key] = doc
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": command,
        "input": echo,
        "presentations": presentations,
    }

    def print_json(document, write) -> None:
        # a presentations item's text around its empty matrix and its empty signs
        cuts = {}
        for key, template in classes.items():
            text = "    " + cli._dump(dict(template, linking_matrix=[], signs=""), "    ")
            before, _, rest = text.rpartition("[]")
            middle, _, after = rest.rpartition('""')
            cuts[key] = before, middle, after
        matrix_text = cli._dump(matrix.entries, "      ")
        # the document's text around its empty list holds the branches
        head, _, tail = cli.canonical_json(dict(document, presentations=[])).rpartition("[]")
        separator = head + "[\n"
        quote = cli._quote
        for pres in document["presentations"]:
            before, middle, after = cuts[pres.key]
            write(f"{separator}{before}{matrix_text}{middle}{quote(pres.signs_string)}{after}")
            separator = ",\n"
        write(f"\n  ]{tail}\n")

    def print_text(document, write) -> None:
        matrix_text = _matrix_text(matrix.entries)
        bodies = {key: _class_text(template) for key, template in classes.items()}
        total = len(document["presentations"])
        for idx, pres in enumerate(document["presentations"]):
            above, below = bodies[pres.key]
            heading = _presentation_heading(idx, total, pres.signs_string)
            write(heading + above + matrix_text + below)

    return doc, print_json, print_text


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


def _presentation_heading(idx, total, signs) -> str:
    return f"presentation {idx + 1} of {total} (signs: {signs or '(none)'})\n"


def _class_text(doc) -> tuple:
    """A class document's lines above the linking matrix and below it.

    They are printed under each of the class's branches' headings.  Its
    components are fragments, as :func:`_component_docs` builds them.
    """
    above = []
    for part in doc["components"]:
        comp = part.value
        parent = "-" if comp["parent"] is None else str(comp["parent"])
        stabs = comp["stabilizations"]
        above.append(
            f"  component {comp['index']}: tb={comp['tb']} rot={comp['rot']} "
            f"contact={comp['contact_coeff']:+d} "
            f"topological={comp['topological_coeff']:+d} "
            f"parent={parent} stabs=+{stabs['plus']}/-{stabs['minus']}\n"
        )
    below = f"  determinant: {doc['determinant']}\n"
    invariants = doc.get("invariants")
    if invariants is not None:
        check = invariants["bennequin"]
        verdict = "satisfied" if check["satisfied"] else "violated"
        below += (
            f"  tb_new={invariants['tb_new']} rot_new={invariants['rot_new']} "
            f"bennequin {verdict} (slack {check['slack']})\n"
        )
    return "".join(above), below


def _matrix_text(rows) -> str:
    """The linking matrix's lines, between every branch's components and determinant."""
    width = max(len(str(x)) for row in rows for x in row)
    lines = ("    [ " + "  ".join(str(x).rjust(width) for x in row) + " ]\n" for row in rows)
    return "  linking matrix:\n" + "".join(lines)
