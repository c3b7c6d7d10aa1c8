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


def _fresh_python(script: str, *args: str, **environ: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_reports_load_no_numpy_submodule_they_do_not_use():
    # numpy.random imports secrets, hashlib and OpenSSL; np.unique without an
    # index or count output imports numpy.ma.  No report needs either.
    proc = _fresh_python("""
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
    """, *map(str, PINNED))
    assert proc.returncode == 0, proc.stderr


# the pinned argvs with the largest BLAS calls: a 6561 x 4 matrix-vector product
# per trial, 16 x 1024 phase blocks and 28 x 28 products
BLAS_HEAVY = [p for p in PINNED
              if p.stem in ("identity_4_1_trials_200", "dephasing_10_distinct", "tripartite_28_equal")]


def test_reports_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count once, when numpy loads it
    reports = {}
    for threads in ("1", "2"):
        proc = _fresh_python("""
            import contextlib, io, json, sys
            from qdeco.cli import run
            reports = []
            for path in sys.argv[1:]:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    if run(json.load(open(path))["argv"]) != 0:
                        sys.exit(f"{path} failed")
                reports.append(out.getvalue())
            print(json.dumps(reports))
        """, *map(str, BLAS_HEAVY), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        reports[threads] = json.loads(proc.stdout)
    assert len(BLAS_HEAVY) == 3 and reports["1"] == reports["2"]
    for path, text in zip(BLAS_HEAVY, reports["1"]):
        pinned = json.loads(path.read_text())
        assert_same(parse_report(pinned["argv"], text), pinned["report"], path.stem)


CLOSED_FORM = [p for p in PINNED if json.loads(p.read_text())["argv"][0] in ("field", "thermal")]


def test_closed_form_reports_never_execute_numpy():
    # executing numpy costs about 100 ms, and the field and thermal formulas are
    # pure math; numpy.linalg is loaded by numpy's own __init__ (1.24, 2.x)
    assert len(CLOSED_FORM) == 4
    proc = _fresh_python("""
        import contextlib, io, json, sys
        from qdeco.cli import run
        argvs = [json.load(open(path))["argv"] for path in sys.argv[1:]]
        cases = [(argv, 0) for argv in argvs]
        cases += [([*argv, "--format", "csv"], 0) for argv in argvs]
        cases.append((["field", "factor", "--volume-cm3", "-1", "--efield-v-per-cm", "1e7"], 1))
        quiet = io.StringIO()
        for argv, expected in cases:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                if run(argv) != expected:
                    sys.exit(f"{argv} did not exit {expected}")
            if "numpy.linalg" in sys.modules:
                sys.exit(f"{argv} executed numpy")
    """, *map(str, CLOSED_FORM))
    assert proc.returncode == 0, proc.stderr


def test_start_loads_every_layer_and_no_dataclasses():
    # importing dataclasses (with inspect, ast, dis and tokenize) and building
    # frozen dataclasses took 17-24 ms of every command's start; perfbench's
    # tracer finds each layer in sys.modules and wraps the names cli binds
    proc = _fresh_python("""
        import contextlib, io, json, sys
        preloaded = set(sys.modules)
        import qdeco.cli as cli
        for path in sys.argv[1:]:
            argv = json.load(open(path))["argv"]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.run(argv) != 0:
                    sys.exit(f"{argv} failed")
            loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - preloaded))
            if loaded:
                sys.exit(f"{argv} loaded {loaded}")
        layers = ["qdeco.hilbert", "qdeco.decoherence", "qdeco.lattice_qed", "qdeco.units",
                  "qdeco.field_decoherence"]
        missing = [name for name in layers if name not in sys.modules]
        if missing:
            sys.exit(f"layers not loaded: {missing}")
        lattice_qed = sys.modules["qdeco.lattice_qed"]
        if cli.gauge_generator_diagonal is not lattice_qed.gauge_generator_diagonal:
            sys.exit("cli does not bind lattice_qed.gauge_generator_diagonal")
    """, *map(str, CLOSED_FORM))
    assert proc.returncode == 0, proc.stderr


def test_missing_numpy_fails_the_import_and_numpy_imported_later_is_shared():
    proc = _fresh_python("""
        import sys
        sys.modules["numpy"] = None
        try:
            import qdeco.cli
        except ModuleNotFoundError as exc:
            sys.exit(0 if exc.name == "numpy" else f"wrong module: {exc!r}")
        sys.exit("import qdeco.cli succeeded without numpy")
    """)
    assert proc.returncode == 0, proc.stderr
    # an import statement after qdeco's reads numpy's __spec__ and so executes it
    proc = _fresh_python("""
        import sys, types
        import qdeco.cli, qdeco.decoherence, qdeco.hilbert, qdeco.lattice_qed
        from qdeco._numpy import np
        import numpy
        assert numpy is np and numpy is sys.modules["numpy"], numpy
        for layer in (qdeco.cli, qdeco.decoherence, qdeco.hilbert, qdeco.lattice_qed):
            assert layer.np is numpy, layer
        assert type(numpy) is types.ModuleType and "numpy.linalg" in sys.modules
        assert numpy.linalg.eigvalsh(numpy.eye(2)).tolist() == [1.0, 1.0]
    """)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("threads", [None, "2"])
def test_command_runs_openblas_on_one_thread_unless_the_user_sets_it(threads):
    # OpenBLAS starts its workers when numpy loads it, and caps them at the CPUs
    # the process may use; main counts the tasks at its os._exit
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent("""
        import os, sys
        import qdeco.cli
        if "numpy" not in sys.modules or "numpy.linalg" in sys.modules:
            sys.exit("import qdeco.cli executed numpy, or did not register it")
        exit_process = os._exit
        def counted_exit(code):
            os.write(2, f"{len(os.listdir('/proc/self/task'))}\\n".encode())
            exit_process(code)
        os._exit = counted_exit
        sys.argv = ["qdeco", "tripartite", "--coeffs", "0.6,0.8", "--env-overlap", "0.3"]
        qdeco.cli.main()
    """)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["coherence_norm"] == pytest.approx(0.3)
    expected = 1 if threads is None else min(2, len(os.sched_getaffinity(0)))
    assert proc.stderr == f"{expected}\n"


# a sweep of about 1.3 MiB through a pipe, a --out report, a refusal, a usage
# error, and the help, which argparse leaves in stdout's buffer
EXTRA_ENDINGS = {
    "dephasing_over_1_mib": (["dephasing", "--spins", "8", "--coupling", "1.0", "--t-max", "6.0",
                              "--steps", "30000", "--format", "csv"], 0),
    "out_file": (["thermal", "length", "--time-s", "1", "--out", "{out}"], 0),
    "refusal": (["field", "factor", "--volume-cm3", "-1", "--efield-v-per-cm", "1e7"], 1),
    "usage_error": (["thermal", "length", "--time-s", "one"], 2),
    "help": (["thermal", "length", "-h"], 0),
}
ENDINGS = [(json.loads(p.read_text())["argv"], 0) for p in PINNED] + list(EXTRA_ENDINGS.values())


@pytest.mark.parametrize("argv,code", ENDINGS, ids=[p.stem for p in PINNED] + list(EXTRA_ENDINGS))
def test_command_ends_without_teardown_and_loses_nothing(argv, code, capsys, tmp_path,
                                                         monkeypatch):
    # main ends with os._exit, so nothing is flushed or closed after it returns;
    # the child's stdout is buffered, as a console script's is by default
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps the help to
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    out = {side: tmp_path / f"{side}.txt" for side in ("child", "inproc")}
    proc = subprocess.run(
        [sys.executable, "-m", "qdeco.cli", *[a.format(out=out["child"]) for a in argv]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert run([a.format(out=out["inproc"]) for a in argv]) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    if "--out" in argv:
        assert out["child"].read_text() == out["inproc"].read_text() != ""
    if code == 0 and "--out" not in argv:
        assert proc.stdout and not proc.stderr
    if argv is EXTRA_ENDINGS["dephasing_over_1_mib"][0]:
        assert len(proc.stdout) > 2**20


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
