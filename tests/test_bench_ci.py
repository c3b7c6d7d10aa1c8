"""``bench/ci.py``, the CI's log-only measurements, on small inputs.

``unexecuted`` is never called here: it runs tier-1 itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "perfbench")]

import ci  # noqa: E402

CLOSED_FORM = [
    ["field", "factor", "--volume-cm3", "1e-12", "--efield-v-per-cm", "1e7"],
    ["thermal", "length", "--time-s", "1"],
]

MODULE = '''\
"""Module docstring,
over two lines."""

import math  # a comment


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        # a comment line
        label = """a string over
two lines, not a docstring"""
        return (math.pi
                * len(label))
'''


def test_digest_covers_pinned_workload_and_superselect_argvs():
    argvs = ci.digest_argvs()
    assert len(argvs) == 264
    assert ["lattice", "superselect", "--sites", "4", "--emax", "6", "--left-field", "-6"] in argvs


def test_digest_is_stable_and_sees_every_argv():
    line = ci.digest(CLOSED_FORM)
    assert line.startswith("4 argvs  sha256 ") and len(line.split()[-1]) == 64
    assert ci.digest(CLOSED_FORM) == line
    assert ci.digest([CLOSED_FORM[0], ["thermal", "length", "--time-s", "2"]]) != line


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # a continued expression and a string that is not a docstring count every line
    assert ci.code_lines(MODULE) == {4, 7, 10, 13, 14, 15, 16}


def test_bytecode_lines_reach_nested_functions():
    source = "def outer():\n    def inner():\n        return 1\n    return inner\n"
    # Python 3.11 and later also give line 0 to the module's first instruction
    assert ci.bytecode_lines(source) - {0} == {1, 2, 3, 4}


def test_importtime_rows_sort_by_self_time_without_the_header():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       178 |        178 |   _io\n"
        "import time:     26243 |      58310 | qdeco.cli\n"
        "import time:      5920 |       7513 |   qdeco.field_decoherence\n"
    )
    assert [row.split("|")[-1].strip() for row in ci.importtime_rows(stderr)] == [
        "qdeco.cli", "qdeco.field_decoherence", "_io",
    ]
