"""What importing the package loads, and what it exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import contact_kirby

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_cli_imports_without_typing():
    # a fresh interpreter without site, so nothing but the package's own
    # imports can bring ``typing`` in
    child = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import sys, contact_kirby.cli; print('typing' in sys.modules)",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")


def test_the_cli_imports_without_dataclasses_or_inspect():
    # the value classes are written out by hand, so nothing on the CLI's
    # import path needs ``dataclasses`` or the ``inspect`` it pulls in
    child = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import sys, contact_kirby.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


# the public names; ``__init__`` derives ``__all__`` from its imports, so
# this pin catches a name exported, or dropped, by a changed import
EXPORTS = """
    BennequinVerdict CFExpansion CONSISTENT_WITH_STANDARD_TIGHT CandidateDiagram
    CandidateReport Component ExternalKnot GateRejectionError IntMatrix
    InvalidExpansionError InvalidInputError InvalidLegendrianError LegendrianUnknot
    NonIntegralInvariantError OVERTWISTED_CERTIFIED PostSurgeryInvariants
    Presentation PresentationVerdict RationalMatrix SingularMatrixError
    ZeroSurgeryError apply bennequin classify component_count convert det emit_table
    enumerate_presentations evaluate_cf expand_negative framing_unknot_tb_shift gate
    inner invariants_after_surgery invariants_by_inverse invert
    kirby_topological_condition linking_matrix linking_vector rot_vector
    stabilization_budget stabilize
""".split()


def test_every_exported_name_resolves():
    missing = [name for name in contact_kirby.__all__ if not hasattr(contact_kirby, name)]
    assert missing == []
    assert len(set(contact_kirby.__all__)) == len(contact_kirby.__all__)
    assert sorted(contact_kirby.__all__) == EXPORTS
    namespace = {}
    exec("from contact_kirby import *", namespace)
    assert set(contact_kirby.__all__) <= namespace.keys()


# what a fresh interpreter, without site, has loaded after one command
LOADED_AFTER = (
    "import sys\n"
    "from contact_kirby import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, 'json' in sys.modules, 'contact_kirby._presentations' in sys.modules)\n"
)
DIAGRAM_INPUT = str(Path(__file__).resolve().parent / "golden" / "inputs" / "rational.json")


def loaded_after(*argv):
    child = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_AFTER, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert child.stderr == ""
    return child.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("table", "--m-max", "3", "--format", "json"),
    ("table", "--m-max", "3"),
    ("classify", "--m", "2", "--n", "3"),
    ("classify", "--m", "2", "--n", "3", "--format", "table"),
    ("expand", "-3/2", "--format", "json"),
    ("expand", "-3/2"),
])
def test_the_screen_and_expand_load_neither_json_nor_the_presentations_module(argv):
    assert loaded_after(*argv) == "0 False False"


@pytest.mark.parametrize("argv", [
    ("convert", "--tb", "-2", "--rot", "1", "--coeff", "-7/3"),
    ("convert", "--tb", "-2", "--rot", "1", "--coeff", "-7/3", "--format", "table"),
    ("analyze", "--tb", "-2", "--rot", "1", "--coeff", "-7/3", "--lk", "13"),
    ("analyze", "--tb", "-2", "--rot", "1", "--coeff", "-7/3", "--lk", "13", "--format", "table"),
])
def test_convert_and_analyze_load_the_presentations_module_but_not_json(argv):
    assert loaded_after(*argv) == "0 False True"


@pytest.mark.parametrize("argv", [
    ("convert", "--input", DIAGRAM_INPUT),
    ("analyze", "--input", DIAGRAM_INPUT, "--lk", "13", "--format", "table"),
])
def test_only_input_loads_json(argv):
    assert loaded_after(*argv) == "0 True True"


def test_the_cli_loads_every_module_a_tracer_reads():
    # perfbench/tracing.py rebinds traced functions in the modules loaded
    # when it is installed, which is after ``import contact_kirby.cli``
    child = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import sys, contact_kirby.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('contact_kirby.')))",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    loaded = {
        f"contact_kirby.{name}"
        for name in ("cli", "exact", "kirby", "legendrian", "presentation", "transform")
    }
    assert (child.returncode, child.stderr) == (0, "")
    assert loaded <= set(eval(child.stdout))
