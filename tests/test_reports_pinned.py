"""Reports of fixed argvs compared with copies kept under ``tests/pinned/``.

Each pinned file holds an argv and the report it produced, parsed: the JSON
object, or for ``--format csv`` the header row followed by the value rows.
Keys, strings, integers and booleans must match exactly; floats must agree to
a relative 1e-11 or an absolute 1e-15, which allows a change in the last of
the twelve printed digits but nothing larger.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qdeco.cli import run

PINNED = sorted((Path(__file__).parent / "pinned").glob("*.json"))
REL_TOL = 1e-11
ABS_TOL = 1e-15


def _parse_csv(text: str) -> list[list]:
    header, *rows = text.splitlines()
    return [header.split(",")] + [[json.loads(cell) for cell in row.split(",")] for row in rows]


def parse_report(argv: list[str], text: str):
    return _parse_csv(text) if "csv" in argv else json.loads(text)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def assert_same(current, pinned, where: str = "report"):
    if _is_number(pinned) and _is_number(current) and float in (type(pinned), type(current)):
        # a float that prints as a whole number ("0", "1") reads back as an int
        assert math.isclose(current, pinned, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{where}: {current!r} != {pinned!r}"
        )
    elif isinstance(pinned, dict):
        assert isinstance(current, dict) and list(current) == list(pinned), (
            f"{where}: keys {list(current)} != {list(pinned)}"
        )
        for key in pinned:
            assert_same(current[key], pinned[key], f"{where}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(current, list) and len(current) == len(pinned), (
            f"{where}: length differs"
        )
        for i, (c, p) in enumerate(zip(current, pinned)):
            assert_same(c, p, f"{where}[{i}]")
    else:
        assert type(current) is type(pinned) and current == pinned, (
            f"{where}: {current!r} != {pinned!r}"
        )


def test_pinned_set_is_present():
    assert len(PINNED) == 15


@pytest.mark.parametrize("path", PINNED, ids=[p.stem for p in PINNED])
def test_report_matches_pinned_copy(path, capsys):
    pinned = json.loads(path.read_text())
    assert run(pinned["argv"]) == 0
    current = parse_report(pinned["argv"], capsys.readouterr().out)
    assert_same(current, pinned["report"])


def test_reports_load_no_numpy_submodule_they_do_not_use():
    # numpy.random imports secrets, hashlib and OpenSSL; np.unique without an
    # index or count output imports numpy.ma.  No report needs either.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from qdeco.cli import run
        for path in sys.argv[1:]:
            argv = json.load(open(path))["argv"]
            with contextlib.redirect_stdout(io.StringIO()):
                if run(argv) != 0:
                    sys.exit(f"{argv} failed")
            loaded = sorted({"numpy.random", "numpy.ma", "secrets"} & set(sys.modules))
            if loaded:
                sys.exit(f"{argv} loaded {loaded}")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, PINNED)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestComparison:
    def test_last_printed_digit_may_change(self):
        assert_same({"x": 0.123456789013}, {"x": 0.123456789012})

    def test_larger_float_change_fails(self):
        with pytest.raises(AssertionError):
            assert_same({"x": 0.1234567891}, {"x": 0.1234567890})

    def test_float_may_read_back_as_int(self):
        assert_same({"max_cross": 1e-17}, {"max_cross": 0})

    def test_integers_and_booleans_are_exact(self):
        with pytest.raises(AssertionError):
            assert_same({"n": 12060}, {"n": 12059})
        with pytest.raises(AssertionError):
            assert_same({"ok": 1}, {"ok": True})

    def test_keys_are_exact(self):
        with pytest.raises(AssertionError):
            assert_same({"a": 1, "c": 2}, {"a": 1, "b": 2})

    def test_csv_cells_are_typed(self):
        assert _parse_csv("t,coherence\n0,1\n0.5,0.25\n") == [["t", "coherence"], [0, 1], [0.5, 0.25]]
