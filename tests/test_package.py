"""What importing the package loads, and what it exports."""

import os
import subprocess
import sys
from pathlib import Path

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
